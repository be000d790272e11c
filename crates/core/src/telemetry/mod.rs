//! Telemetry: structured observation of the Reduce pipeline.
//!
//! The framework's whole pitch is *accounting* — it beats the fixed-policy
//! baseline by spending a measured, per-chip retraining budget — so this
//! module makes where epochs and wall-clock go a first-class, typed event
//! stream instead of ad-hoc `Instant::now()` calls in the binaries.
//!
//! # Event taxonomy
//!
//! An [`Observer`] receives [`Event`]s from every framework entry point
//! (threaded through [`crate::exec::ExecConfig`]):
//!
//! * [`Event::StageStarted`] / [`Event::StageFinished`] — one pair per
//!   pipeline [`Stage`] (pretrain, characterize, deploy);
//! * [`Event::EpochCompleted`] — one tick per FAT epoch, scoped to the
//!   grid cell or chip that ran it;
//! * [`Event::PointFinished`] — one per Step-① `(rate, repeat)` grid cell;
//! * [`Event::ChipRetrained`] — one per Step-③ fleet chip;
//! * [`Event::ClusterFormed`] / [`Event::WarmStartHit`] — the eFAT
//!   extension: one per fault-similarity cluster a clustered fleet batch
//!   forms, and one per member chip warm-started from its cluster
//!   representative's converged state;
//! * [`Event::WorkspaceUsed`] — one per fan-out stage, summing the
//!   workspace-arena allocation counters over the stage's jobs;
//! * [`Event::JobFailed`] / [`Event::RetryScheduled`] /
//!   [`Event::DivergenceRecovered`] — the retry history of a contained
//!   job failure (see [`crate::exec::run_job_resilient`]);
//! * [`Event::CheckpointWritten`] — the resume journal covers a stage's
//!   full fan-out;
//! * [`Event::ShardTruncated`] / [`Event::RecordDropped`] — self-healing
//!   resume discarded a corrupt journal tail (see
//!   [`crate::journal::Checkpoint::resume_observed`]).
//!
//! # Determinism contract
//!
//! The event *sequence* is identical at any thread count: events carry
//! logical indices (`rate_index`, `repeat`, `chip_id`), the retry loop
//! buffers each job's events in its [`crate::exec::JobReport`] (see
//! [`crate::exec::run_job_resilient`]), and the executor's one resume
//! driver flushes those buffers — fresh or replayed from the journal —
//! in input order after each window's fan-out completes. The
//! only non-deterministic payload is wall-clock time, which is confined
//! to [`Event::StageFinished::seconds`] and redactable at the sink
//! ([`RunLog`]'s `redact_timing`), making redacted run logs byte-identical
//! across thread counts — CI diffs them.
//!
//! # Sinks
//!
//! | Sink | Cost | Purpose |
//! |------|------|---------|
//! | [`NullObserver`] | zero | the default — no telemetry |
//! | [`RunLog`] | one JSON line per event | deterministic, machine-readable run logs |
//! | [`MetricsRecorder`] | in-memory counters | stage timings + epoch histograms for reports |
//! | [`Fanout`] | delegates | attach several sinks at once |
//!
//! [`RunManifest`] complements the sinks: one `manifest.json` per run
//! recording everything needed to reproduce its artifacts (workbench
//! spec, seeds, grid, policies, crate version).

pub(crate) mod json;
mod manifest;
mod metrics;
mod runlog;

pub use manifest::{FleetManifest, GridManifest, RunManifest, TableManifest, ThroughputManifest};
pub use metrics::{MetricsRecorder, MetricsSnapshot, StageWorkspace, StatSummary};
pub use runlog::RunLog;
pub(crate) use runlog::{parse_event, render_event};

use std::time::Instant;

/// A pipeline stage, as reported by stage events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Step ⓪: pre-training the fault-free baseline.
    Pretrain,
    /// Step ①: resilience characterisation.
    Characterize,
    /// Steps ②+③: per-chip budget selection and fault-aware retraining of
    /// a fleet.
    Deploy,
}

impl Stage {
    /// The stage's stable snake_case name (used in run logs and metrics).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Pretrain => "pretrain",
            Stage::Characterize => "characterize",
            Stage::Deploy => "deploy",
        }
    }

    /// The inverse of [`Stage::name`] (used when replaying journaled
    /// events).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "pretrain" => Some(Stage::Pretrain),
            "characterize" => Some(Stage::Characterize),
            "deploy" => Some(Stage::Deploy),
            _ => None,
        }
    }
}

/// What ran the epoch an [`Event::EpochCompleted`] event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochScope {
    /// A Step-① grid cell.
    Point {
        /// Index of the cell's rate in the sorted characterisation grid.
        rate_index: usize,
        /// Repeat index within the rate.
        repeat: usize,
    },
    /// A Step-③ fleet chip.
    Chip {
        /// Chip identifier.
        chip_id: usize,
    },
}

/// One typed telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A pipeline stage began.
    StageStarted {
        /// Which stage.
        stage: Stage,
    },
    /// A pipeline stage completed successfully.
    StageFinished {
        /// Which stage.
        stage: Stage,
        /// Wall-clock duration — the only non-deterministic event payload;
        /// sinks may redact it (see the module-level determinism contract).
        seconds: Option<f64>,
    },
    /// One FAT epoch completed.
    EpochCompleted {
        /// The grid cell or chip that ran the epoch.
        scope: EpochScope,
        /// 1-based epoch index within the run.
        epoch: usize,
        /// Test accuracy after the epoch.
        accuracy: f32,
    },
    /// One Step-① `(rate, repeat)` grid cell finished.
    PointFinished {
        /// Index of the rate in the sorted grid.
        rate_index: usize,
        /// The injected fault rate.
        rate: f64,
        /// Repeat index within the rate.
        repeat: usize,
        /// Epochs needed to reach the constraint, if reached.
        epochs_to_constraint: Option<usize>,
        /// Accuracy after masking, before retraining.
        pre_retrain_accuracy: f32,
        /// Accuracy after the full measured budget.
        final_accuracy: f32,
    },
    /// One Step-③ fleet chip was retrained and evaluated.
    ChipRetrained {
        /// Chip identifier.
        chip_id: usize,
        /// The chip's fault rate.
        fault_rate: f64,
        /// Epochs the policy budgeted.
        epochs_budgeted: usize,
        /// Epochs actually executed.
        epochs_run: usize,
        /// Deployed (post-FAT) accuracy.
        final_accuracy: f32,
        /// Whether the deployed accuracy meets the constraint.
        satisfied: bool,
    },
    /// A clustered fleet batch grouped fault-similar chips around a
    /// representative (eFAT). Emitted once per cluster, in leader order,
    /// before the batch's per-chip events.
    ClusterFormed {
        /// Chip id of the cluster representative (runs full FAT).
        representative: usize,
        /// Total chips in the cluster, including the representative.
        size: usize,
    },
    /// A member chip warm-started retraining from its cluster
    /// representative's converged state instead of the pretrained
    /// baseline.
    WarmStartHit {
        /// The warm-started member chip.
        chip_id: usize,
        /// The representative whose converged state seeded the member.
        representative: usize,
    },
    /// Workspace-arena allocation counters for one fan-out stage, summed
    /// over the stage's jobs after the fan-out completes.
    ///
    /// Each parallel job owns a private model whose workspace recycles
    /// buffers across epochs; the counters depend only on the job set (so
    /// the event is byte-identical at any thread count) and stop growing
    /// per epoch once training reaches steady state — the observable form
    /// of the zero-allocation property.
    WorkspaceUsed {
        /// The stage whose jobs the counters sum over.
        stage: Stage,
        /// Workspace `take` calls served by recycling a pooled buffer.
        hits: u64,
        /// Workspace `take` calls that had to allocate.
        misses: u64,
        /// Total bytes allocated by misses.
        bytes_allocated: u64,
    },
    /// One attempt of a resilient job failed (returned an error, panicked,
    /// or was failed by an injected [`crate::exec::ChaosPolicy`]). The
    /// failed attempt's own events are discarded; this record replaces
    /// them.
    JobFailed {
        /// The fan-out stage the job belongs to.
        stage: Stage,
        /// The job's stable id (grid-cell / chip index in the full set).
        job: u64,
        /// 0-based attempt number that failed.
        attempt: u32,
        /// The rendered error.
        error: String,
    },
    /// A failed resilient job still has retry budget; the next attempt is
    /// scheduled with a deterministically derived seed salt
    /// ([`crate::exec::retry_seed`]).
    RetryScheduled {
        /// The fan-out stage the job belongs to.
        stage: Stage,
        /// The job's stable id.
        job: u64,
        /// 0-based attempt number being scheduled.
        attempt: u32,
        /// The seed salt the attempt will run with.
        seed: u64,
    },
    /// A job succeeded after one or more divergence failures
    /// ([`crate::ReduceError::Divergence`]): training was rolled back to
    /// the pre-mask snapshot and reseeded until an attempt converged.
    DivergenceRecovered {
        /// The fan-out stage the job belongs to.
        stage: Stage,
        /// The job's stable id.
        job: u64,
        /// How many failed attempts preceded the recovery.
        attempts: u32,
    },
    /// The resume journal was brought up to date for a stage: every
    /// outcome of the stage's fan-out is durably recorded.
    CheckpointWritten {
        /// The journaled stage.
        stage: Stage,
        /// Total outcomes (successes + quarantines) recorded for it.
        completed: usize,
    },
    /// Self-healing resume (or `journal-tool repair`) truncated a journal
    /// shard back to its last valid record, discarding a corrupt tail
    /// (torn final write, detected bitflip, or trailing garbage).
    ShardTruncated {
        /// 0-based shard index.
        shard: usize,
        /// Valid records kept in the shard after truncation.
        kept: usize,
        /// Bytes of corrupt tail discarded.
        dropped_bytes: usize,
    },
    /// One journal record was dropped by a heal or repair truncation.
    /// Emitted per record (after the covering [`Event::ShardTruncated`])
    /// so operators can see exactly which completed work will be redone.
    RecordDropped {
        /// 0-based shard index the record lived in.
        shard: usize,
        /// 0-based record index within the shard.
        record: usize,
    },
}

/// A telemetry sink. Object-safe and `Send + Sync` so one observer can be
/// shared across the executor's worker threads.
///
/// Implementations must not panic and should be cheap: the framework
/// calls [`Observer::on_event`] from its coordinating thread (per-job
/// events are buffered and flushed in deterministic order, never emitted
/// concurrently).
pub trait Observer: Send + Sync {
    /// Receives one event.
    fn on_event(&self, event: &Event);
}

/// The default sink: discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&self, _event: &Event) {}
}

/// Broadcasts every event to several sinks, in order.
pub struct Fanout {
    sinks: Vec<std::sync::Arc<dyn Observer>>,
}

impl Fanout {
    /// Creates a fan-out over `sinks`.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Observer>>) -> Self {
        Fanout { sinks }
    }
}

impl Observer for Fanout {
    fn on_event(&self, event: &Event) {
        for sink in &self.sinks {
            sink.on_event(event);
        }
    }
}

impl std::fmt::Debug for Fanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fanout")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// A monotonic stopwatch — the one place in the workspace allowed to read
/// the wall clock. Everything else consumes durations through
/// [`Event::StageFinished`], keeping results free of ambient time.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        // xtask:allow(wall-clock): telemetry is the sanctioned clock reader; durations only reach results through redactable StageFinished events
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f` as a timed pipeline stage: emits [`Event::StageStarted`],
/// runs the closure, and on success emits [`Event::StageFinished`] with
/// the measured duration. On error no `StageFinished` is emitted — the
/// run log simply ends at the failure point.
///
/// # Errors
///
/// Propagates `f`'s error unchanged.
pub fn timed_stage<R, E, F>(
    observer: &dyn Observer,
    stage: Stage,
    f: F,
) -> std::result::Result<R, E>
where
    F: FnOnce() -> std::result::Result<R, E>,
{
    observer.on_event(&Event::StageStarted { stage });
    let clock = Stopwatch::start();
    let out = f()?;
    observer.on_event(&Event::StageFinished {
        stage,
        seconds: Some(clock.seconds()),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Test sink that records event debug strings.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<String>>);

    impl Observer for Recorder {
        fn on_event(&self, event: &Event) {
            if let Ok(mut log) = self.0.lock() {
                log.push(format!("{event:?}"));
            }
        }
    }

    #[test]
    fn timed_stage_brackets_the_closure() {
        let rec = Recorder::default();
        let out: Result<u32, ()> = timed_stage(&rec, Stage::Pretrain, || Ok(41 + 1));
        assert_eq!(out, Ok(42));
        let log = rec.0.lock().expect("no poisoning");
        assert_eq!(log.len(), 2);
        assert!(log[0].contains("StageStarted") && log[0].contains("Pretrain"));
        assert!(log[1].contains("StageFinished") && log[1].contains("Pretrain"));
    }

    #[test]
    fn timed_stage_propagates_errors_without_finish_event() {
        let rec = Recorder::default();
        let out: Result<(), &str> = timed_stage(&rec, Stage::Deploy, || Err("boom"));
        assert_eq!(out, Err("boom"));
        let log = rec.0.lock().expect("no poisoning");
        assert_eq!(log.len(), 1, "only StageStarted on failure");
    }

    #[test]
    fn fanout_broadcasts_in_order() {
        let a = Arc::new(Recorder::default());
        let b = Arc::new(Recorder::default());
        let fan = Fanout::new(vec![a.clone(), b.clone()]);
        fan.on_event(&Event::StageStarted {
            stage: Stage::Pretrain,
        });
        assert_eq!(a.0.lock().expect("no poisoning").len(), 1);
        assert_eq!(b.0.lock().expect("no poisoning").len(), 1);
    }

    #[test]
    fn stopwatch_is_monotone() {
        let clock = Stopwatch::start();
        assert!(clock.seconds() >= 0.0);
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::Pretrain.name(), "pretrain");
        assert_eq!(Stage::Characterize.name(), "characterize");
        assert_eq!(Stage::Deploy.name(), "deploy");
        for stage in [Stage::Pretrain, Stage::Characterize, Stage::Deploy] {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(Stage::from_name("warp-core"), None);
    }
}
