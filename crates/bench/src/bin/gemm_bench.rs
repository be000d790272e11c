//! GEMM kernel-comparison harness driver.
//!
//! Runs every registered kernel (naive, blocked, packed and the
//! production dispatch) over the shared workload set, gates each against
//! the naive reference **before** timing, and writes the
//! machine-readable comparison to `BENCH_gemm.json`.
//!
//! ```text
//! cargo run -p reduce-bench --release --bin gemm_bench -- \
//!     [--out PATH] [--reps N] [--check]
//! ```
//!
//! * `--out PATH` — where to write the JSON document (default
//!   `BENCH_gemm.json` in the current directory);
//! * `--reps N` — timed calls per surviving cell (default 5);
//! * `--check` — correctness gates only, no timing: all
//!   `seconds_per_call` fields are written as `0`. CI uses this mode and
//!   schema-diffs the output against the checked-in document.
//!
//! The process exits non-zero if any kernel fails its gate, so the
//! harness doubles as a correctness test in CI.

use reduce_bench::kernels::{compare, registry, workloads, Gate};
use reduce_bench::parse_args;
use reduce_core::{artifact, ReduceError};
use std::error::Error;
use std::path::Path;

fn main() -> Result<(), Box<dyn Error>> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw, &["--out", "--reps"], &["--check"], 0)?;
    let out_path = args.value("--out").unwrap_or("BENCH_gemm.json").to_string();
    let check_only = args.flag("--check");
    let reps = match args.value("--reps") {
        Some(s) => s.parse::<usize>().map_err(|_| ReduceError::InvalidConfig {
            what: format!("bad --reps value {s:?} (expected a count)"),
        })?,
        None => 5,
    };

    let kernels = registry();
    let set = workloads();
    println!(
        "GEMM kernel comparison: {} kernels x {} workloads x 3 variants ({})",
        kernels.len(),
        set.len(),
        if check_only {
            "correctness gates only".to_string()
        } else {
            format!("{reps} timed reps per cell")
        }
    );

    let results = compare(&kernels, &set, reps, check_only)?;

    let mut failures = 0usize;
    for r in &results {
        for c in &r.cells {
            if !c.ok {
                failures += 1;
                println!(
                    "FAIL {:<10} {:>12} {} ({} gate, max_abs_err {:e})",
                    c.kernel,
                    r.workload.label(),
                    r.variant.name(),
                    c.gate.name(),
                    c.max_abs_err
                );
            }
        }
    }

    // Compact stdout summary: per workload, the NN timing of each kernel
    // relative to the blocked reference (the pre-PR production kernel).
    if !check_only {
        println!();
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>12}",
            "shape (nn)", "naive", "blocked", "packed", "dispatch"
        );
        for r in results.iter().filter(|r| r.variant.name() == "nn") {
            let mut row = format!("{:<12}", r.workload.label());
            for name in ["naive", "blocked", "packed", "dispatch"] {
                let cell = r.cells.iter().find(|c| c.kernel == name);
                row.push_str(&match cell {
                    Some(c) if c.ok => format!(" {:>11.1}us", c.seconds_per_call * 1e6),
                    Some(_) => format!(" {:>12}", "FAILED"),
                    None => format!(" {:>12}", "-"),
                });
            }
            println!("{row}");
        }
    }

    let gated = results
        .iter()
        .flat_map(|r| &r.cells)
        .filter(|c| c.gate == Gate::Exact)
        .count();
    println!(
        "\n{} cells checked ({} exact-gated, {} tolerance-gated), {} failure(s)",
        results.iter().map(|r| r.cells.len()).sum::<usize>(),
        gated,
        results.iter().map(|r| r.cells.len()).sum::<usize>() - gated,
        failures
    );

    let doc = reduce_bench::kernels::render_json(&results, reps);
    artifact::write_atomic(Path::new(&out_path), &doc)?;
    println!("comparison written to {out_path}");

    if failures > 0 {
        return Err(Box::new(ReduceError::InvalidConfig {
            what: format!("{failures} kernel cell(s) failed the correctness gate"),
        }));
    }
    Ok(())
}
