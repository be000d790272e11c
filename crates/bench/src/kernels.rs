//! Kernel-comparison harness for the GEMM implementations.
//!
//! Every registered [`Kernel`] runs the same workload set — figure-scale
//! layer shapes, cache-boundary shapes, edge shapes whose `m`/`k`/`n`
//! are not tile multiples, and the GEMV degenerates — and is checked for
//! agreement against the naive reference **before** any timing happens:
//! a kernel that produces wrong numbers is reported as failed and never
//! timed, so a fast-but-broken candidate can't look good in the output.
//!
//! Two gates exist, mirroring the contract in the `reduce_tensor`
//! `gemm` module docs:
//!
//! * [`Gate::Exact`] — bit-for-bit identical to the naive oracle. The
//!   blocked kernels and the production dispatch on small shapes hold
//!   this (same multiply-then-add rounding, same reduction order).
//! * [`Gate::Tolerance`] — elementwise within `fma_tol(k)`. The packed
//!   microkernel contracts each multiply-add with FMA (one rounding per
//!   step instead of two), so it is *more* accurate than the oracle but
//!   not bit-identical to it.
//!
//! Results serialise to a deterministic, machine-readable JSON document
//! (`BENCH_gemm.json` at the repo root); CI re-runs the harness in
//! `--check` mode and diffs the document's *schema* (numeric values
//! normalised away, `"ok"` booleans kept) against the checked-in copy.

use reduce_core::telemetry::Stopwatch;
use reduce_core::ReduceError;
use reduce_tensor::ops::gemm::{self, GemmVariant};
use reduce_tensor::{ops, Tensor};

/// How a kernel's output is compared against the naive oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Bit-for-bit identical to the oracle.
    Exact,
    /// Elementwise within [`fma_tol`] of the oracle (FMA kernels).
    Tolerance,
}

impl Gate {
    /// Stable name used in the JSON document.
    pub fn name(self) -> &'static str {
        match self {
            Gate::Exact => "exact",
            Gate::Tolerance => "tolerance",
        }
    }
}

/// A candidate GEMM implementation under comparison.
pub trait Kernel {
    /// Stable kernel name (JSON key and report label).
    fn name(&self) -> &'static str;

    /// The agreement gate this kernel must pass.
    fn gate(&self) -> Gate;

    /// Computes the `variant` product of `a` and `b` into `out`. The
    /// harness hands over a dirty (NaN-poisoned) `out`, so this also
    /// exercises the full-overwrite contract of the `_into` kernels.
    ///
    /// # Errors
    ///
    /// Shape/rank errors from the underlying entry points.
    fn run(
        &self,
        variant: GemmVariant,
        a: &Tensor,
        b: &Tensor,
        out: &mut Tensor,
    ) -> Result<(), ReduceError>;
}

/// Tolerance for [`Gate::Tolerance`] kernels over a length-`k` reduction
/// of entries bounded by ~10 (matches the tensor crate's property
/// tests).
pub fn fma_tol(k: usize) -> f32 {
    1e-3f32.max(k as f32 * 1e-4)
}

struct Naive;

impl Kernel for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }
    fn gate(&self) -> Gate {
        Gate::Exact
    }
    fn run(
        &self,
        variant: GemmVariant,
        a: &Tensor,
        b: &Tensor,
        out: &mut Tensor,
    ) -> Result<(), ReduceError> {
        Ok(gemm::reference::naive_into(variant, a, b, out)?)
    }
}

struct Blocked;

impl Kernel for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }
    fn gate(&self) -> Gate {
        Gate::Exact
    }
    fn run(
        &self,
        variant: GemmVariant,
        a: &Tensor,
        b: &Tensor,
        out: &mut Tensor,
    ) -> Result<(), ReduceError> {
        Ok(gemm::reference::blocked_into(variant, a, b, out)?)
    }
}

struct Packed;

impl Kernel for Packed {
    fn name(&self) -> &'static str {
        "packed"
    }
    fn gate(&self) -> Gate {
        Gate::Tolerance
    }
    fn run(
        &self,
        variant: GemmVariant,
        a: &Tensor,
        b: &Tensor,
        out: &mut Tensor,
    ) -> Result<(), ReduceError> {
        Ok(gemm::packed_into(variant, a, b, out)?)
    }
}

/// The production entry points (`matmul_into` and friends) with their
/// shape-based packed/blocked dispatch — what every call site actually
/// runs. Tolerance-gated because large shapes route to the FMA kernel.
struct Dispatch;

impl Kernel for Dispatch {
    fn name(&self) -> &'static str {
        "dispatch"
    }
    fn gate(&self) -> Gate {
        Gate::Tolerance
    }
    fn run(
        &self,
        variant: GemmVariant,
        a: &Tensor,
        b: &Tensor,
        out: &mut Tensor,
    ) -> Result<(), ReduceError> {
        match variant {
            GemmVariant::NN => Ok(ops::matmul_into(a, b, out)?),
            GemmVariant::TN => Ok(ops::matmul_tn_into(a, b, out)?),
            GemmVariant::NT => Ok(ops::matmul_nt_into(a, b, out)?),
        }
    }
}

/// Every kernel the harness compares.
pub fn registry() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Naive),
        Box::new(Blocked),
        Box::new(Packed),
        Box::new(Dispatch),
    ]
}

/// One GEMM problem size in the comparison set.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Rows of the logical product.
    pub m: usize,
    /// Shared (reduction) dimension.
    pub k: usize,
    /// Columns of the logical product.
    pub n: usize,
    /// Why this shape is in the set.
    pub why: &'static str,
}

impl Workload {
    /// The `"MxKxN"` label used in reports and the JSON document.
    pub fn label(&self) -> String {
        format!("{}x{}x{}", self.m, self.k, self.n)
    }
}

/// The fixed workload set: figure-scale layer shapes, tile/cache
/// boundary crossers, non-multiple edge shapes, and GEMV degenerates.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            m: 64,
            k: 96,
            n: 48,
            why: "fig2/fig3 forward-layer shape",
        },
        Workload {
            m: 256,
            k: 256,
            n: 256,
            why: "headline timing shape (criterion baseline)",
        },
        Workload {
            m: 8,
            k: 8192,
            n: 27,
            why: "nano-VGG batch-32 conv0 weight gradient: k crosses the KC reduction block",
        },
        Workload {
            m: 2048,
            k: 72,
            n: 16,
            why: "nano-VGG batch-32 conv1 forward: tall output, one NR column panel",
        },
        Workload {
            m: 128,
            k: 576,
            n: 64,
            why: "nano-VGG batch-32 conv5 forward: deep reduction, square-ish output",
        },
        Workload {
            m: 67,
            k: 129,
            n: 43,
            why: "m/k/n not multiples of MR/NR tiles",
        },
        Workload {
            m: 131,
            k: 137,
            n: 17,
            why: "crosses the MC row block, ragged tail everywhere",
        },
        Workload {
            m: 1,
            k: 256,
            n: 64,
            why: "GEMV degenerate: single output row",
        },
        Workload {
            m: 64,
            k: 256,
            n: 1,
            why: "GEMV degenerate: single output column",
        },
        Workload {
            m: 33,
            k: 1,
            n: 29,
            why: "k = 1 outer-product degenerate",
        },
        Workload {
            m: 3,
            k: 5,
            n: 7,
            why: "tiny shape below the packed-dispatch threshold",
        },
    ]
}

/// The outcome of one kernel on one workload/variant cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Kernel name.
    pub kernel: &'static str,
    /// Gate the kernel was held to.
    pub gate: Gate,
    /// Whether the gate passed (false also covers kernel errors).
    pub ok: bool,
    /// Largest elementwise deviation from the naive oracle.
    pub max_abs_err: f32,
    /// Mean seconds per call over the timing reps (0.0 when timing was
    /// skipped: `--check` mode or a failed gate).
    pub seconds_per_call: f64,
}

/// All kernel outcomes for one workload/variant.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The problem size.
    pub workload: Workload,
    /// The operand layout variant.
    pub variant: GemmVariant,
    /// One entry per registered kernel.
    pub cells: Vec<CellResult>,
}

/// Operands for a (workload, variant) cell, deterministic in the seed.
fn operands(w: &Workload, variant: GemmVariant, seed: u64) -> (Tensor, Tensor) {
    let (adim, bdim) = match variant {
        GemmVariant::NN => ([w.m, w.k], [w.k, w.n]),
        GemmVariant::TN => ([w.k, w.m], [w.k, w.n]),
        GemmVariant::NT => ([w.m, w.k], [w.n, w.k]),
    };
    (
        Tensor::rand_uniform(adim, -10.0, 10.0, seed),
        Tensor::rand_uniform(bdim, -10.0, 10.0, seed.wrapping_add(1)),
    )
}

fn max_abs_err(got: &Tensor, want: &Tensor) -> f32 {
    got.data()
        .iter()
        .zip(want.data())
        .map(|(g, w)| (g - w).abs())
        .fold(
            0.0f32,
            |acc, d| if d.is_nan() { f32::MAX } else { acc.max(d) },
        )
}

fn bit_identical(got: &Tensor, want: &Tensor) -> bool {
    got.data()
        .iter()
        .zip(want.data())
        .all(|(g, w)| g.to_bits() == w.to_bits())
}

/// Runs every registered kernel over every workload and variant:
/// correctness gate first, then (unless `check_only`) `reps` timed calls
/// per surviving cell. Results come back in deterministic
/// registry-then-workload-then-variant order.
///
/// # Errors
///
/// Only oracle failures (a naive kernel that cannot run a workload) are
/// errors; a candidate kernel failing its gate is reported in the
/// result, not returned as an error.
pub fn compare(
    kernels: &[Box<dyn Kernel>],
    workloads: &[Workload],
    reps: usize,
    check_only: bool,
) -> Result<Vec<WorkloadResult>, ReduceError> {
    let mut results = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for variant in [GemmVariant::NN, GemmVariant::TN, GemmVariant::NT] {
            let (a, b) = operands(w, variant, 0x9E37 + wi as u64 * 2);
            let mut oracle = Tensor::zeros([w.m, w.n]);
            gemm::reference::naive_into(variant, &a, &b, &mut oracle)?;
            let mut cells = Vec::new();
            for kernel in kernels {
                // NaN poison: a kernel that reads instead of overwriting
                // its workspace fails the gate immediately.
                let mut out = Tensor::full([w.m, w.n], f32::NAN);
                let ran = kernel.run(variant, &a, &b, &mut out);
                let err = max_abs_err(&out, &oracle);
                let ok = ran.is_ok()
                    && match kernel.gate() {
                        Gate::Exact => bit_identical(&out, &oracle),
                        Gate::Tolerance => err <= fma_tol(w.k),
                    };
                let seconds_per_call = if ok && !check_only && reps > 0 {
                    let clock = Stopwatch::start();
                    for _ in 0..reps {
                        // Result already validated; errors can't occur on
                        // the same operands.
                        let _ = kernel.run(variant, &a, &b, &mut out);
                    }
                    clock.seconds() / reps as f64
                } else {
                    0.0
                };
                cells.push(CellResult {
                    kernel: kernel.name(),
                    gate: kernel.gate(),
                    ok,
                    max_abs_err: err,
                    seconds_per_call,
                });
            }
            results.push(WorkloadResult {
                workload: *w,
                variant,
                cells,
            });
        }
    }
    Ok(results)
}

/// Renders the comparison as the deterministic JSON document CI diffs.
/// Key order, separators and float formatting are all fixed; the only
/// run-to-run variation is inside numeric literals, which the CI stage
/// normalises away before diffing.
pub fn render_json(results: &[WorkloadResult], reps: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"reduce-bench/gemm-comparison/v1\",\n");
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"shape\": \"{}\",\n", r.workload.label()));
        s.push_str(&format!("      \"variant\": \"{}\",\n", r.variant.name()));
        s.push_str(&format!("      \"why\": \"{}\",\n", r.workload.why));
        s.push_str("      \"kernels\": [\n");
        for (j, c) in r.cells.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"kernel\": \"{}\", \"gate\": \"{}\", \"ok\": {}, \
                 \"max_abs_err\": {:e}, \"seconds_per_call\": {:e}}}{}\n",
                c.kernel,
                c.gate.name(),
                c.ok,
                c.max_abs_err,
                c.seconds_per_call,
                if j + 1 == r.cells.len() { "" } else { "," }
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_kernel_passes_its_gate() {
        // The harness's own acceptance criterion: correctness gate green
        // for the full registry over the full workload set.
        let results = compare(&registry(), &workloads(), 0, true).expect("oracle runs everywhere");
        for r in &results {
            for c in &r.cells {
                assert!(
                    c.ok,
                    "{} failed its {} gate on {} {} (max_abs_err {})",
                    c.kernel,
                    c.gate.name(),
                    r.workload.label(),
                    r.variant.name(),
                    c.max_abs_err
                );
            }
        }
    }

    #[test]
    fn exact_kernels_report_zero_error_and_fma_kernels_stay_bounded() {
        let small = [Workload {
            m: 40,
            k: 140,
            n: 24,
            why: "test shape crossing the packed threshold",
        }];
        let results = compare(&registry(), &small, 0, true).expect("oracle runs");
        for r in &results {
            for c in &r.cells {
                match c.gate {
                    Gate::Exact => assert_eq!(c.max_abs_err, 0.0, "{} drifted", c.kernel),
                    Gate::Tolerance => {
                        assert!(c.max_abs_err <= fma_tol(r.workload.k), "{}", c.kernel)
                    }
                }
            }
        }
    }

    #[test]
    fn a_broken_kernel_fails_the_gate_and_is_never_timed() {
        struct OffByOne;
        impl Kernel for OffByOne {
            fn name(&self) -> &'static str {
                "off-by-one"
            }
            fn gate(&self) -> Gate {
                Gate::Tolerance
            }
            fn run(
                &self,
                variant: GemmVariant,
                a: &Tensor,
                b: &Tensor,
                out: &mut Tensor,
            ) -> Result<(), ReduceError> {
                gemm::reference::naive_into(variant, a, b, out)?;
                if let Some(c) = out.data_mut().first_mut() {
                    *c += 1.0;
                }
                Ok(())
            }
        }
        let kernels: Vec<Box<dyn Kernel>> = vec![Box::new(OffByOne)];
        let w = [Workload {
            m: 8,
            k: 8,
            n: 8,
            why: "broken-kernel probe",
        }];
        // reps > 0 and check_only = false: timing would normally run, but
        // the failed gate must suppress it.
        let results = compare(&kernels, &w, 3, false).expect("oracle runs");
        for r in &results {
            assert!(!r.cells[0].ok, "a wrong result must fail the gate");
            assert_eq!(
                r.cells[0].seconds_per_call, 0.0,
                "failed cells are not timed"
            );
        }
    }

    #[test]
    fn json_document_is_deterministic_and_schema_stable() {
        let w = [Workload {
            m: 4,
            k: 4,
            n: 4,
            why: "schema probe",
        }];
        let kernels = registry();
        let one = render_json(&compare(&kernels, &w, 0, true).expect("runs"), 0);
        let two = render_json(&compare(&kernels, &w, 0, true).expect("runs"), 0);
        assert_eq!(one, two, "same inputs must render byte-identical JSON");
        assert!(one.contains("\"schema\": \"reduce-bench/gemm-comparison/v1\""));
        assert!(one.contains("\"variant\": \"nn\"") || one.contains("\"variant\": \"NN\""));
        assert!(one.contains("\"ok\": true"));
    }
}
