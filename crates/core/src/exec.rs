//! Shared deterministic executor for the framework's parallel grids.
//!
//! Step ① (the `(rate, repeat)` characterisation grid) and Step ③
//! (per-chip fleet retraining) are both indexed maps over independent,
//! individually seeded jobs. This module is the one executor both paths
//! share, with three guarantees the results depend on:
//!
//! * **Ordering** — [`parallel_map`] returns results in input order, so
//!   the output is byte-identical to a sequential run regardless of
//!   thread count or OS scheduling. Each job's determinism comes from its
//!   own seed; the executor only has to keep index `i`'s result in slot
//!   `i`.
//! * **Panic containment** — a panicking job (always a bug: the framework
//!   returns typed errors) is caught with [`std::panic::catch_unwind`]
//!   and surfaced as [`ReduceError::Internal`] instead of unwinding
//!   through the scope join and aborting the entire run.
//! * **Auto-sizing** — a thread count of `0` sizes the pool from
//!   [`std::thread::available_parallelism`]; any other value is used
//!   as-is (capped at the number of jobs).
//!
//! Error reporting is deterministic too: when several jobs fail, the
//! error of the lowest input index is the one returned.
//!
//! # Failure containment
//!
//! [`run_job_resilient`] is the one retry loop: a job that returns `Err`
//! or panics is retried up to [`ExecConfig::retry_budget`] times, each
//! attempt reseeded with the pure [`retry_seed`] function (no wall clock,
//! no global state — the retry schedule depends only on the job id and
//! attempt number, so it is identical at any thread count and across
//! resumed runs). A job that exhausts the budget is **quarantined**, not
//! fatal: the caller receives a typed [`JobStatus::Quarantined`] outcome
//! and its siblings run on. Only configuration-class errors
//! ([`ReduceError::InvalidConfig`],
//! [`ReduceError::MissingCharacterization`]) propagate — retrying a
//! rejected configuration can never succeed.
//!
//! A deterministic [`ChaosPolicy`] can be injected through
//! [`ExecConfig::with_chaos`] to force chosen `(job, attempt)` pairs to
//! fail or panic — the test harness the containment guarantees are
//! proved with.
//!
//! # Resume
//!
//! `run_resumable_stage` is the one resume driver, shared by Step ① (one
//! window of grid cells) and Step ③ (the fleet's windows of batches): it
//! replays the jobs the journal holds, fans out the rest on
//! [`parallel_map`], and flushes every job's events and workspace
//! counters in input order, so a resumed run's telemetry and results are
//! those of an uninterrupted one.

use crate::error::{ReduceError, Result};
use crate::telemetry::{self, Event, NullObserver, Observer, Stage};
use reduce_nn::WorkspaceStats;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How a framework entry point executes: worker-thread count plus the
/// telemetry sink its events go to.
///
/// This is the single execution knob of the public API — every
/// previously split `foo` / `foo_parallel` pair is now one method taking
/// an `&ExecConfig`. `threads == 0` auto-sizes from the machine (see
/// [`resolve_workers`]); the default is a sequential run with telemetry
/// discarded.
///
/// # Examples
///
/// ```
/// use reduce_core::exec::ExecConfig;
///
/// let sequential = ExecConfig::default();
/// assert_eq!(sequential.threads, 1);
/// let auto = ExecConfig::auto();
/// assert_eq!(auto.threads, 0);
/// ```
#[derive(Clone)]
pub struct ExecConfig {
    /// Worker threads for parallel grids; `0` auto-sizes.
    pub threads: usize,
    observer: Arc<dyn Observer>,
    retry_budget: u32,
    chaos: Option<Arc<ChaosPolicy>>,
}

impl ExecConfig {
    /// An execution config over `threads` workers (`0` = auto) with
    /// telemetry discarded, no retries, and no chaos injection.
    pub fn new(threads: usize) -> Self {
        ExecConfig {
            threads,
            observer: Arc::new(NullObserver),
            retry_budget: 0,
            chaos: None,
        }
    }

    /// Auto-sized execution (`threads == 0`).
    pub fn auto() -> Self {
        Self::new(0)
    }

    /// Attaches a telemetry sink; events from every framework call made
    /// with this config are delivered to it.
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = observer;
        self
    }

    /// Sets how many times [`run_job_resilient`] retries a failed job
    /// before quarantining it (`0` = a single attempt, no retries).
    #[must_use]
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Injects a deterministic fault-injection policy: chosen
    /// `(job, attempt)` pairs fail or panic before the job body runs.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPolicy) -> Self {
        self.chaos = Some(Arc::new(chaos));
        self
    }

    /// The attached telemetry sink.
    pub fn observer(&self) -> &dyn Observer {
        self.observer.as_ref()
    }

    /// Retries per job before quarantine (`0` = single attempt).
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// The injected chaos policy, if any.
    pub fn chaos(&self) -> Option<&ChaosPolicy> {
        self.chaos.as_deref()
    }
}

impl Default for ExecConfig {
    /// Sequential execution (`threads == 1`), telemetry discarded.
    fn default() -> Self {
        Self::new(1)
    }
}

impl std::fmt::Debug for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecConfig")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// Resolves a caller-facing thread count to an actual worker count:
/// `0` auto-sizes from [`std::thread::available_parallelism`], anything
/// else is taken literally; the result is clamped to `[1, jobs]` so a
/// tiny grid never spawns idle workers.
pub fn resolve_workers(threads: usize, jobs: usize) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    requested.clamp(1, jobs.max(1))
}

/// Applies `job` to every item of `items` over `threads` scoped workers
/// and returns the results **in input order**.
///
/// `threads == 0` auto-sizes the pool (see [`resolve_workers`]); one
/// worker (or one item) degenerates to an inline sequential loop with the
/// same panic containment, so sequential and parallel runs share one code
/// path and one behaviour: once a job fails, no worker claims another
/// (jobs already running finish), just as the loop stops at its first
/// error.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing job;
/// [`ReduceError::Internal`] when a job panicked.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, job: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R> + Sync,
{
    let workers = resolve_workers(threads, items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| contain_unwind(i, || job(i, item)))
            .collect();
    }
    // Work queue of item indices; slot `i` only ever receives job `i`'s
    // result, which is what makes the output order-independent of the
    // scheduling. Indices are claimed in order, so when job `i` fails
    // every job below `i` is already claimed and will fill its slot: the
    // slots left empty by stopping early all lie above a failure, and the
    // in-order scan below returns an error before it reaches one. `failed`
    // publishes no data (results travel through the slot mutexes and the
    // scope's join), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<R>>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let (Some(item), Some(slot)) = (items.get(i), slots.get(i)) else {
                    break;
                };
                let out = contain_unwind(i, || job(i, item));
                if out.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                // Jobs cannot panic (contained above), so the lock cannot
                // be poisoned by this loop; handle poisoning anyway — the
                // stored value is still the slot we are about to fill.
                match slot.lock() {
                    Ok(mut cell) => *cell = Some(out),
                    Err(poisoned) => *poisoned.into_inner() = Some(out),
                }
            });
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        let cell = match slot.into_inner() {
            Ok(cell) => cell,
            Err(poisoned) => poisoned.into_inner(),
        };
        out.push(cell.ok_or_else(|| ReduceError::Internal {
            invariant: "every job index is claimed by exactly one worker".to_string(),
        })??);
    }
    Ok(out)
}

/// The retry-seed salt for `(job, attempt)`: `0` for the first attempt
/// (so a run without failures is bit-identical to one executed without
/// the retry layer), and a well-mixed splitmix64-style hash for retries.
///
/// This is a **pure** function — no wall clock, no global state — which
/// is what makes the retry schedule reproducible at any thread count and
/// across interrupted/resumed runs.
pub fn retry_seed(job: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        return 0;
    }
    let mut z = job
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // A zero salt means "first attempt"; keep retries distinguishable.
    if z == 0 {
        1
    } else {
        z
    }
}

/// What a [`ChaosPolicy`] does to one `(job, attempt)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Run the job body normally.
    Pass,
    /// Fail the attempt with a typed error before the job body runs.
    Fail,
    /// Panic before the job body runs (exercises panic containment).
    Panic,
}

#[derive(Debug, Clone)]
enum ChaosMode {
    /// Explicit `(job, attempt)` pairs.
    Pairs(Vec<(u64, u32, ChaosOutcome)>),
    /// Every attempt of the listed jobs (guarantees quarantine).
    Jobs(Vec<(u64, ChaosOutcome)>),
    /// Seeded random failures at `fail_rate` per attempt.
    Seeded { seed: u64, fail_rate: f64 },
}

/// A deterministic fault-injection policy for [`run_job_resilient`]:
/// decides, purely from the job id and attempt number, whether an
/// attempt runs, fails, or panics.
///
/// Because [`ChaosPolicy::decide`] is a pure function, injected chaos is
/// reproducible: the same policy produces the same failures at any
/// thread count, and an interrupted run resumed later sees the same
/// outcomes for the jobs it re-executes.
#[derive(Debug, Clone)]
pub struct ChaosPolicy {
    mode: ChaosMode,
}

impl ChaosPolicy {
    /// Fails exactly the listed `(job, attempt)` pairs.
    pub fn fail_at(pairs: &[(u64, u32)]) -> Self {
        ChaosPolicy {
            mode: ChaosMode::Pairs(
                pairs
                    .iter()
                    .map(|&(j, a)| (j, a, ChaosOutcome::Fail))
                    .collect(),
            ),
        }
    }

    /// Panics on exactly the listed `(job, attempt)` pairs.
    pub fn panic_at(pairs: &[(u64, u32)]) -> Self {
        ChaosPolicy {
            mode: ChaosMode::Pairs(
                pairs
                    .iter()
                    .map(|&(j, a)| (j, a, ChaosOutcome::Panic))
                    .collect(),
            ),
        }
    }

    /// Fails **every** attempt of the listed jobs — the simplest way to
    /// guarantee a quarantine regardless of the retry budget.
    pub fn fail_jobs(jobs: &[u64]) -> Self {
        ChaosPolicy {
            mode: ChaosMode::Jobs(jobs.iter().map(|&j| (j, ChaosOutcome::Fail)).collect()),
        }
    }

    /// Panics on every attempt of the listed jobs.
    pub fn panic_jobs(jobs: &[u64]) -> Self {
        ChaosPolicy {
            mode: ChaosMode::Jobs(jobs.iter().map(|&j| (j, ChaosOutcome::Panic)).collect()),
        }
    }

    /// Fails a seeded pseudo-random `fail_rate` fraction of attempts
    /// (clamped to `[0, 1]`). Each `(job, attempt)` pair is decided
    /// independently, so retries of an unlucky job may still succeed.
    pub fn seeded(seed: u64, fail_rate: f64) -> Self {
        ChaosPolicy {
            mode: ChaosMode::Seeded {
                seed,
                fail_rate: fail_rate.clamp(0.0, 1.0),
            },
        }
    }

    /// The outcome for `(job, attempt)` — a pure function of the policy
    /// and its arguments.
    pub fn decide(&self, job: u64, attempt: u32) -> ChaosOutcome {
        match &self.mode {
            ChaosMode::Pairs(pairs) => pairs
                .iter()
                .find(|&&(j, a, _)| j == job && a == attempt)
                .map(|&(_, _, out)| out)
                .unwrap_or(ChaosOutcome::Pass),
            ChaosMode::Jobs(jobs) => jobs
                .iter()
                .find(|&&(j, _)| j == job)
                .map(|&(_, out)| out)
                .unwrap_or(ChaosOutcome::Pass),
            ChaosMode::Seeded { seed, fail_rate } => {
                // Map a splitmix-style hash of (seed, job, attempt) onto
                // [0, 1) through the top 53 bits (exact in f64).
                let mut z = seed
                    .wrapping_add(job.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(u64::from(attempt).wrapping_mul(0xD134_2543_DE82_EF95));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
                if unit < *fail_rate {
                    ChaosOutcome::Fail
                } else {
                    ChaosOutcome::Pass
                }
            }
        }
    }
}

/// The terminal status of one resilient job: a result, or a quarantine
/// record carrying the attempt count and final error.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus<R> {
    /// The job produced a result (possibly after retries).
    Ok(R),
    /// Every attempt failed; the job is contained, siblings unaffected.
    Quarantined {
        /// Attempts made (`retry_budget + 1`).
        attempts: u32,
        /// The error of the final attempt, rendered.
        error: String,
    },
}

/// One job's sealed outcome from [`run_job_resilient`]: its stable id,
/// terminal status, and the telemetry events it buffered (including the
/// [`Event::JobFailed`] / [`Event::RetryScheduled`] /
/// [`Event::DivergenceRecovered`] records of its retry history).
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport<R> {
    /// The caller-assigned stable job id.
    pub job: u64,
    /// Terminal status.
    pub status: JobStatus<R>,
    /// Buffered events, in deterministic per-job order.
    pub events: Vec<Event>,
}

/// Whether an error class can never be fixed by retrying: rejected
/// configurations and missing characterisations are deterministic
/// precondition failures, so they abort the fan-out instead of burning
/// the retry budget and masquerading as quarantines.
fn is_fatal(e: &ReduceError) -> bool {
    matches!(
        e,
        ReduceError::InvalidConfig { .. } | ReduceError::MissingCharacterization { .. }
    )
}

/// The per-job retry loop: runs `job` on `item` until an attempt
/// succeeds or the retry budget is spent.
///
/// `id` is a caller-assigned stable job id — a grid cell's full-grid
/// index, a chip's id — **not** a position in whatever subset is being
/// run, so retry seeds and chaos decisions stay attached to the same
/// logical job when a resumed run fans out only the missing jobs, or
/// when a fleet batch runs several chips inside one executor job.
///
/// Per attempt, the job receives a *seed salt* ([`retry_seed`]): `0` on
/// the first attempt, a fresh deterministic value per retry, to be XORed
/// into whatever base seed the job derives its randomness from. Chaos is
/// consulted per `(id, attempt)`. A failed attempt's buffered events are
/// discarded (as if the attempt never ran); the retry layer records
/// [`Event::JobFailed`] and, if budget remains, [`Event::RetryScheduled`]
/// in their place. A success after a divergence failure additionally
/// records [`Event::DivergenceRecovered`].
///
/// # Errors
///
/// Configuration-class errors ([`is_fatal`]) only; exhausted retries
/// surface as [`JobStatus::Quarantined`], never as `Err`.
pub fn run_job_resilient<T, R, F>(
    id: u64,
    item: &T,
    exec: &ExecConfig,
    stage: Stage,
    job: &F,
) -> Result<JobReport<R>>
where
    F: Fn(u64, &T, u64, &mut Vec<Event>) -> Result<R>,
{
    let budget = exec.retry_budget();
    let mut events: Vec<Event> = Vec::new();
    let mut last_error = String::new();
    let mut saw_divergence = false;
    for attempt in 0..=budget {
        let salt = retry_seed(id, attempt);
        let mut attempt_events = Vec::new();
        let decision = exec
            .chaos()
            .map_or(ChaosOutcome::Pass, |c| c.decide(id, attempt));
        let result = match decision {
            ChaosOutcome::Fail => Err(ReduceError::Internal {
                invariant: format!("chaos injection: forced failure (job {id}, attempt {attempt})"),
            }),
            ChaosOutcome::Panic => contain_unwind(id, || {
                // xtask:allow(panic): chaos harness deliberately injects a contained panic
                panic!("chaos injection: forced panic (job {id}, attempt {attempt})")
            }),
            ChaosOutcome::Pass => contain_unwind(id, || job(id, item, salt, &mut attempt_events)),
        };
        match result {
            Ok(out) => {
                events.extend(attempt_events);
                if saw_divergence {
                    events.push(Event::DivergenceRecovered {
                        stage,
                        job: id,
                        attempts: attempt,
                    });
                }
                return Ok(JobReport {
                    job: id,
                    status: JobStatus::Ok(out),
                    events,
                });
            }
            Err(e) if is_fatal(&e) => return Err(e),
            Err(e) => {
                // The failed attempt's events are discarded whole — the
                // event stream only ever shows complete attempts plus
                // the typed retry records below.
                saw_divergence = matches!(e, ReduceError::Divergence { .. });
                last_error = e.to_string();
                events.push(Event::JobFailed {
                    stage,
                    job: id,
                    attempt,
                    error: last_error.clone(),
                });
                if attempt < budget {
                    events.push(Event::RetryScheduled {
                        stage,
                        job: id,
                        attempt: attempt + 1,
                        seed: retry_seed(id, attempt + 1),
                    });
                }
            }
        }
    }
    Ok(JobReport {
        job: id,
        status: JobStatus::Quarantined {
            attempts: budget + 1,
            error: last_error,
        },
        events,
    })
}

/// One job's sealed output, fresh or replayed from the journal: the
/// events it buffered, its workspace counters and its result.
pub(crate) struct Sealed<R> {
    pub(crate) events: Vec<Event>,
    pub(crate) workspace: WorkspaceStats,
    pub(crate) result: R,
}

/// The resume driver of a journaled stage.
///
/// Inside [`telemetry::timed_stage`], pulls `windows` one at a time. For
/// each window, `replay` is asked once per job, in order, for the output
/// the journal holds; the jobs it returns `None` for fan out on
/// [`parallel_map`] through `job`. Then, in input order and for replayed
/// and fresh jobs alike, the job's events go to the observer, its
/// workspace counters join the stage total, and its result goes to
/// `absorb`. The next window is pulled only after this one is absorbed,
/// so at most one window's outputs are held at once. The stage ends with
/// [`Event::WorkspaceUsed`] and, when `checkpointed` is `Some(completed)`
/// (a journal is attached), [`Event::CheckpointWritten`].
///
/// # Errors
///
/// A window's scheduling error, the error of a window's lowest-indexed
/// failing job (a fatal retry-layer error or a failed journal append), or
/// an `absorb` error; the stage then ends without
/// [`Event::StageFinished`].
pub(crate) fn run_resumable_stage<P, R, W, L, J, A>(
    exec: &ExecConfig,
    stage: Stage,
    checkpointed: Option<usize>,
    windows: W,
    mut replay: L,
    job: J,
    mut absorb: A,
) -> Result<()>
where
    P: Sync,
    R: Send,
    W: IntoIterator<Item = Result<Vec<P>>>,
    L: FnMut(&P) -> Option<Sealed<R>>,
    J: Fn(&P) -> Result<Sealed<R>> + Sync,
    A: FnMut(&P, R) -> Result<()>,
{
    telemetry::timed_stage(exec.observer(), stage, || {
        let mut workspace = WorkspaceStats::default();
        for window in windows {
            let window = window?;
            let replayed: Vec<Option<Sealed<R>>> = window.iter().map(&mut replay).collect();
            let missing: Vec<&P> = window
                .iter()
                .zip(&replayed)
                .filter(|(_, sealed)| sealed.is_none())
                .map(|(item, _)| item)
                .collect();
            let mut fresh = parallel_map(&missing, exec.threads, |_, item| job(item))?.into_iter();
            for (item, sealed) in window.iter().zip(replayed) {
                let sealed = match sealed {
                    Some(sealed) => sealed,
                    None => fresh.next().ok_or_else(|| ReduceError::Internal {
                        invariant: "every job is either replayed or freshly run".to_string(),
                    })?,
                };
                for event in &sealed.events {
                    exec.observer().on_event(event);
                }
                workspace.merge(&sealed.workspace);
                absorb(item, sealed.result)?;
            }
        }
        exec.observer().on_event(&Event::WorkspaceUsed {
            stage,
            hits: workspace.hits,
            misses: workspace.misses,
            bytes_allocated: workspace.bytes_allocated,
        });
        if let Some(completed) = checkpointed {
            exec.observer()
                .on_event(&Event::CheckpointWritten { stage, completed });
        }
        Ok(())
    })
}

/// Runs one job with panic containment: a panic becomes
/// [`ReduceError::Internal`] carrying the job id and panic message.
fn contain_unwind<R>(id: impl std::fmt::Display, f: impl FnOnce() -> Result<R>) -> Result<R> {
    // AssertUnwindSafe: on panic the in-flight result is discarded whole
    // and its slot reports a typed error, so no partially mutated state
    // is ever observed across the unwind boundary.
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(ReduceError::Internal {
            invariant: format!(
                "worker jobs must not panic (job {id} panicked: {})",
                panic_message(payload.as_ref())
            ),
        }),
    }
}

/// Best-effort extraction of a human-readable panic message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1usize, 2, 3, 8] {
            let out = parallel_map(&items, threads, |i, &x| {
                // Make late indices cheap and early indices slow-ish so
                // completion order differs from input order.
                let spin = (64 - i) * 50;
                let mut acc = 0u64;
                for k in 0..spin {
                    acc = acc.wrapping_add(k as u64);
                }
                Ok((i, x * 2, acc.min(1)))
            })
            .expect("no job fails");
            assert_eq!(out.len(), items.len());
            for (i, (idx, doubled, _)) in out.iter().enumerate() {
                assert_eq!(*idx, i, "{threads} threads permuted the output");
                assert_eq!(*doubled, i * 2);
            }
        }
    }

    #[test]
    fn panic_becomes_internal_error() {
        let items = vec![0usize, 1, 2, 3];
        for threads in [1usize, 4] {
            let res: Result<Vec<usize>> = parallel_map(&items, threads, |_, &x| {
                if x == 2 {
                    panic!("boom at {x}");
                }
                Ok(x)
            });
            match res {
                Err(ReduceError::Internal { invariant }) => {
                    assert!(invariant.contains("panic"), "unexpected: {invariant}");
                    assert!(invariant.contains("boom"), "payload lost: {invariant}");
                }
                other => panic!("expected Internal error, got {other:?}"),
            }
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<usize> = (0..32).collect();
        let res: Result<Vec<usize>> = parallel_map(&items, 8, |i, &x| {
            if x >= 5 {
                Err(ReduceError::InvalidConfig {
                    what: format!("job {i}"),
                })
            } else {
                Ok(x)
            }
        });
        match res {
            Err(ReduceError::InvalidConfig { what }) => assert_eq!(what, "job 5"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn parallel_workers_stop_claiming_jobs_after_a_failure() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [2usize, 4] {
            let ran = AtomicUsize::new(0);
            let res: Result<Vec<usize>> = parallel_map(&items, threads, |i, &x| {
                if i == 0 {
                    return Err(ReduceError::InvalidConfig {
                        what: "job 0".to_string(),
                    });
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(x)
            });
            match res {
                Err(ReduceError::InvalidConfig { what }) => assert_eq!(what, "job 0"),
                other => panic!("expected the job 0 error, got {other:?}"),
            }
            // Only the jobs already claimed when job 0 failed run: about
            // one per other worker, far from the 999 a full map runs.
            let ran = ran.load(Ordering::Relaxed);
            assert!(
                ran < items.len() / 2,
                "{threads} threads ran {ran} jobs after job 0 failed"
            );
        }
    }

    #[test]
    fn zero_threads_auto_sizes() {
        let items: Vec<usize> = (0..16).collect();
        let out = parallel_map(&items, 0, |_, &x| Ok(x + 1)).expect("no job fails");
        assert_eq!(out, (1..17).collect::<Vec<_>>());
        assert!(resolve_workers(0, 16) >= 1);
        assert_eq!(resolve_workers(0, 0), 1);
        assert_eq!(resolve_workers(5, 2), 2);
        assert_eq!(resolve_workers(3, 100), 3);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let items: Vec<usize> = Vec::new();
        let out = parallel_map(&items, 4, |_, &x| Ok(x)).expect("nothing to fail");
        assert!(out.is_empty());
    }

    /// Test sink recording the order events arrive in.
    #[derive(Default)]
    struct SeqRecorder(Mutex<Vec<Event>>);

    impl Observer for SeqRecorder {
        fn on_event(&self, event: &Event) {
            if let Ok(mut log) = self.0.lock() {
                log.push(event.clone());
            }
        }
    }

    fn tick(i: usize, epoch: usize) -> Event {
        Event::EpochCompleted {
            scope: crate::telemetry::EpochScope::Chip { chip_id: i },
            epoch,
            accuracy: 0.5,
        }
    }

    #[test]
    fn exec_config_defaults_and_builder() {
        let cfg = ExecConfig::default();
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.retry_budget(), 0);
        assert!(cfg.chaos().is_none());
        let cfg = ExecConfig::new(4)
            .with_observer(Arc::new(SeqRecorder::default()))
            .with_retry_budget(3)
            .with_chaos(ChaosPolicy::fail_jobs(&[9]));
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.retry_budget(), 3);
        assert!(cfg.chaos().is_some());
        cfg.observer().on_event(&tick(0, 1));
        assert!(format!("{cfg:?}").contains("threads"));
    }

    #[test]
    fn retry_seed_is_pure_and_salts_only_retries() {
        for job in [0u64, 1, 17, u64::MAX] {
            assert_eq!(retry_seed(job, 0), 0, "first attempt must not be salted");
            for attempt in 1..5u32 {
                let salt = retry_seed(job, attempt);
                assert_ne!(salt, 0, "retry salts must be non-zero");
                assert_eq!(salt, retry_seed(job, attempt), "must be pure");
            }
        }
        assert_ne!(retry_seed(3, 1), retry_seed(3, 2));
        assert_ne!(retry_seed(3, 1), retry_seed(4, 1));
    }

    #[test]
    fn chaos_policy_is_deterministic() {
        let pairs = ChaosPolicy::fail_at(&[(2, 0)]);
        assert_eq!(pairs.decide(2, 0), ChaosOutcome::Fail);
        assert_eq!(pairs.decide(2, 1), ChaosOutcome::Pass);
        assert_eq!(pairs.decide(1, 0), ChaosOutcome::Pass);
        let panics = ChaosPolicy::panic_at(&[(0, 1)]);
        assert_eq!(panics.decide(0, 1), ChaosOutcome::Panic);
        let jobs = ChaosPolicy::fail_jobs(&[5]);
        for attempt in 0..4 {
            assert_eq!(jobs.decide(5, attempt), ChaosOutcome::Fail);
            assert_eq!(jobs.decide(6, attempt), ChaosOutcome::Pass);
        }
        let seeded = ChaosPolicy::seeded(42, 0.5);
        let first: Vec<ChaosOutcome> = (0..64).map(|j| seeded.decide(j, 0)).collect();
        let again: Vec<ChaosOutcome> = (0..64).map(|j| seeded.decide(j, 0)).collect();
        assert_eq!(first, again, "seeded chaos must be pure");
        let failures = first.iter().filter(|&&o| o == ChaosOutcome::Fail).count();
        assert!(failures > 0, "rate 0.5 over 64 jobs should fail some");
        assert!(failures < 64, "rate 0.5 over 64 jobs should pass some");
        assert!((0..64).all(|j| ChaosPolicy::seeded(7, 0.0).decide(j, 0) == ChaosOutcome::Pass));
        assert!((0..64).all(|j| ChaosPolicy::seeded(7, 1.0).decide(j, 0) == ChaosOutcome::Fail));
    }

    /// [`run_job_resilient`] over every `(id, item)` on [`parallel_map`]:
    /// one retry loop per item, reports in input order.
    fn resilient_map<T, R, F>(
        items: &[(u64, T)],
        exec: &ExecConfig,
        stage: Stage,
        job: F,
    ) -> Result<Vec<JobReport<R>>>
    where
        T: Sync,
        R: Send,
        F: Fn(u64, &T, u64, &mut Vec<Event>) -> Result<R> + Sync,
    {
        parallel_map(items, exec.threads, |_, (id, item)| {
            run_job_resilient(*id, item, exec, stage, &job)
        })
    }

    /// Runs a resilient map over `n` synthetic jobs; job bodies succeed
    /// unless chaos interferes, and report the salt they were given.
    fn resilient_run(n: u64, exec: &ExecConfig) -> Vec<JobReport<(u64, u64)>> {
        let items: Vec<(u64, u64)> = (0..n).map(|i| (i, i * 10)).collect();
        resilient_map(
            &items,
            exec,
            Stage::Characterize,
            |id, &payload, salt, events| {
                events.push(tick(id as usize, 1));
                Ok((payload, salt))
            },
        )
        .expect("no fatal errors")
    }

    #[test]
    fn resilient_map_without_chaos_matches_plain_map() {
        let reports = resilient_run(8, &ExecConfig::new(4).with_retry_budget(2));
        assert_eq!(reports.len(), 8);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.job, i as u64);
            // No failures -> first attempt, zero salt, one buffered tick.
            assert_eq!(report.status, JobStatus::Ok((i as u64 * 10, 0)));
            assert_eq!(report.events, vec![tick(i, 1)]);
        }
    }

    #[test]
    fn quarantine_is_contained_and_thread_invariant() {
        let chaos = ChaosPolicy::fail_jobs(&[1, 5]);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let exec = ExecConfig::new(threads)
                .with_retry_budget(1)
                .with_chaos(chaos.clone());
            runs.push(resilient_run(8, &exec));
        }
        let (first, rest) = runs.split_first().expect("three runs");
        for other in rest {
            assert_eq!(other, first, "reports varied with thread count");
        }
        for (i, report) in first.iter().enumerate() {
            if i == 1 || i == 5 {
                match &report.status {
                    JobStatus::Quarantined { attempts, error } => {
                        assert_eq!(*attempts, 2, "budget 1 = two attempts");
                        assert!(error.contains("chaos injection"), "cause kept: {error}");
                    }
                    other => panic!("job {i} should be quarantined, got {other:?}"),
                }
                // Retry history: failed attempt, scheduled retry, failed again.
                assert_eq!(report.events.len(), 3);
                assert!(matches!(
                    report.events[0],
                    Event::JobFailed { attempt: 0, .. }
                ));
                assert!(matches!(
                    report.events[1],
                    Event::RetryScheduled { attempt: 1, seed, .. } if seed == retry_seed(i as u64, 1)
                ));
                assert!(matches!(
                    report.events[2],
                    Event::JobFailed { attempt: 1, .. }
                ));
            } else {
                // Siblings are untouched: same result and events as a
                // chaos-free run.
                assert_eq!(report.status, JobStatus::Ok((i as u64 * 10, 0)));
                assert_eq!(report.events, vec![tick(i, 1)]);
            }
        }
    }

    #[test]
    fn retry_recovers_with_a_fresh_salt() {
        let exec = ExecConfig::new(2)
            .with_retry_budget(2)
            .with_chaos(ChaosPolicy::fail_at(&[(3, 0), (3, 1)]));
        let reports = resilient_run(6, &exec);
        match &reports[3].status {
            JobStatus::Ok((payload, salt)) => {
                assert_eq!(*payload, 30);
                assert_eq!(*salt, retry_seed(3, 2), "third attempt's salt");
            }
            other => panic!("job 3 should recover, got {other:?}"),
        }
        // Two failures, two scheduled retries, then the successful
        // attempt's own events.
        assert_eq!(reports[3].events.len(), 5);
        assert_eq!(reports[3].events[4], tick(3, 1));
    }

    #[test]
    fn injected_panics_are_quarantined_not_fatal() {
        let exec = ExecConfig::new(4).with_chaos(ChaosPolicy::panic_jobs(&[2]));
        let reports = resilient_run(4, &exec);
        match &reports[2].status {
            JobStatus::Quarantined { attempts, error } => {
                assert_eq!(*attempts, 1);
                assert!(error.contains("panic"), "panic cause kept: {error}");
            }
            other => panic!("job 2 should be quarantined, got {other:?}"),
        }
        assert!(matches!(reports[0].status, JobStatus::Ok(_)));
        assert!(matches!(reports[3].status, JobStatus::Ok(_)));
    }

    #[test]
    fn job_panics_are_quarantined_too() {
        let items: Vec<(u64, u64)> = (0..3).map(|i| (i, i)).collect();
        let exec = ExecConfig::new(2);
        let reports = resilient_map(&items, &exec, Stage::Deploy, |id, _, _, _events| {
            if id == 1 {
                panic!("boom in the job body");
            }
            Ok(id)
        })
        .expect("panic is contained, not fatal");
        assert!(
            matches!(&reports[1].status, JobStatus::Quarantined { error, .. } if error.contains("boom"))
        );
    }

    #[test]
    fn divergence_recovery_emits_typed_event() {
        let items: Vec<(u64, u64)> = (0..4).map(|i| (i, i)).collect();
        let exec = ExecConfig::new(2).with_retry_budget(1);
        let reports = resilient_map(
            &items,
            &exec,
            Stage::Characterize,
            |id, _, salt, _events| {
                if id == 2 && salt == 0 {
                    // First attempt diverges; the reseeded retry recovers.
                    return Err(ReduceError::Divergence {
                        what: "accuracy became NaN at epoch 1".to_string(),
                    });
                }
                Ok(id)
            },
        )
        .expect("divergence is retryable");
        assert_eq!(reports[2].status, JobStatus::Ok(2));
        assert!(
            matches!(
                reports[2].events.last(),
                Some(Event::DivergenceRecovered {
                    job: 2,
                    attempts: 1,
                    ..
                })
            ),
            "events were {:?}",
            reports[2].events
        );
    }

    #[test]
    fn fatal_errors_abort_instead_of_quarantining() {
        let items: Vec<(u64, u64)> = (0..4).map(|i| (i, i)).collect();
        let exec = ExecConfig::new(2).with_retry_budget(5);
        let res = resilient_map(&items, &exec, Stage::Deploy, |id, _, _, _| {
            if id == 1 {
                return Err(ReduceError::MissingCharacterization {
                    reason: "no table".to_string(),
                });
            }
            Ok(id)
        });
        assert!(
            matches!(res, Err(ReduceError::MissingCharacterization { .. })),
            "precondition failures must not burn the retry budget"
        );
    }

    /// Drives `windows` of job ids through [`run_resumable_stage`]: even
    /// ids are "journaled" (replayed as `id + 1000`), odd ids run fresh
    /// (as `id`), and every absorbed result is recorded in order.
    fn drive(
        exec: &ExecConfig,
        windows: Vec<Vec<u64>>,
        fail_at: Option<u64>,
    ) -> (Result<()>, Vec<u64>, Vec<u64>) {
        let ran = Mutex::new(Vec::new());
        let mut absorbed = Vec::new();
        let sealed = |id: u64, result: u64| Sealed {
            events: vec![tick(id as usize, 1)],
            workspace: WorkspaceStats {
                hits: 1,
                misses: id,
                bytes_allocated: 0,
            },
            result,
        };
        let res = run_resumable_stage(
            exec,
            Stage::Deploy,
            Some(7),
            windows.into_iter().map(Ok),
            |&id| (id % 2 == 0).then(|| sealed(id, id + 1000)),
            |&id| {
                if let Ok(mut log) = ran.lock() {
                    log.push(id);
                }
                if fail_at.is_some_and(|bad| id >= bad) {
                    return Err(ReduceError::InvalidConfig {
                        what: format!("journal append failed for job {id}"),
                    });
                }
                Ok(sealed(id, id))
            },
            |&id, result| {
                assert_eq!(result, if id % 2 == 0 { id + 1000 } else { id });
                absorbed.push(id);
                Ok(())
            },
        );
        let mut ran = ran.into_inner().expect("no poisoning");
        ran.sort_unstable();
        (res, ran, absorbed)
    }

    #[test]
    fn resume_driver_stitches_replayed_and_fresh_jobs_in_input_order() {
        let mut logs = Vec::new();
        for threads in [1usize, 2, 8] {
            let recorder = Arc::new(SeqRecorder::default());
            let exec = ExecConfig::new(threads).with_observer(recorder.clone());
            let (res, ran, absorbed) =
                drive(&exec, vec![(0..10).collect(), (10..16).collect()], None);
            res.expect("no job fails");
            assert_eq!(absorbed, (0..16).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(
                ran,
                (0..16).filter(|id| id % 2 == 1).collect::<Vec<_>>(),
                "replayed jobs must never run ({threads} threads)"
            );
            let mut log = recorder.0.lock().expect("no poisoning").clone();
            // The stage's wall time is the one event that may vary.
            assert!(matches!(
                log.pop(),
                Some(Event::StageFinished {
                    stage: Stage::Deploy,
                    ..
                })
            ));
            logs.push(log);
        }
        let (first, rest) = logs.split_first().expect("three runs");
        for other in rest {
            assert_eq!(other, first, "event stream varied with thread count");
        }
        // Stage bracket, one flushed event per job in input order, then the
        // stage totals: every job's counters merged, and the checkpoint.
        assert!(matches!(
            first[0],
            Event::StageStarted {
                stage: Stage::Deploy
            }
        ));
        for (i, event) in first[1..17].iter().enumerate() {
            assert_eq!(*event, tick(i, 1));
        }
        assert_eq!(
            first[17],
            Event::WorkspaceUsed {
                stage: Stage::Deploy,
                hits: 16,
                misses: (0..16).sum(),
                bytes_allocated: 0,
            }
        );
        assert_eq!(
            first[18],
            Event::CheckpointWritten {
                stage: Stage::Deploy,
                completed: 7,
            }
        );
        assert_eq!(first.len(), 19);
    }

    #[test]
    fn resume_driver_aborts_with_the_lowest_index_error() {
        for threads in [1usize, 3] {
            let recorder = Arc::new(SeqRecorder::default());
            let exec = ExecConfig::new(threads).with_observer(recorder.clone());
            // Fresh jobs 5, 7 and 9 of the first window fail.
            let (res, _, absorbed) =
                drive(&exec, vec![(0..10).collect(), (10..12).collect()], Some(5));
            match res {
                Err(ReduceError::InvalidConfig { what }) => {
                    assert_eq!(what, "journal append failed for job 5", "{threads} threads")
                }
                other => panic!("expected the job 5 error, got {other:?}"),
            }
            // The failing window is not absorbed and later windows never run.
            assert!(
                absorbed.is_empty(),
                "{threads} threads absorbed {absorbed:?}"
            );
            let log = recorder.0.lock().expect("no poisoning");
            assert!(
                !log.iter().any(|e| matches!(
                    e,
                    Event::StageFinished { .. } | Event::WorkspaceUsed { .. }
                )),
                "an aborted stage reports no totals: {log:?}"
            );
        }
    }

    #[test]
    fn resume_driver_absorbs_each_window_before_pulling_the_next() {
        let absorbed = std::cell::RefCell::new(Vec::new());
        let pulled = std::cell::RefCell::new(Vec::new());
        let windows = (0..4u64).map(|w| {
            // Window `w` is scheduled only once windows `0..w` are absorbed.
            assert_eq!(
                absorbed.borrow().len() as u64,
                w * 3,
                "window {w} pulled early"
            );
            pulled.borrow_mut().push(w);
            Ok((w * 3..w * 3 + 3).collect::<Vec<u64>>())
        });
        run_resumable_stage(
            &ExecConfig::new(4),
            Stage::Characterize,
            None,
            windows,
            |_| None,
            |&id| {
                Ok(Sealed {
                    events: Vec::new(),
                    workspace: WorkspaceStats::default(),
                    result: id,
                })
            },
            |_, id| {
                absorbed.borrow_mut().push(id);
                Ok(())
            },
        )
        .expect("no job fails");
        assert_eq!(*pulled.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(*absorbed.borrow(), (0..12).collect::<Vec<_>>());
    }
}
