//! The [`MetricsRecorder`] sink: in-memory counters and min/mean/max
//! aggregates, rendered as the closing summary of the bench binaries.

use super::{Event, Observer};
use std::sync::Mutex;

/// Aggregate of one observed quantity: count, total, min, mean, max.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatSummary {
    /// Number of observations.
    pub count: usize,
    /// Sum of observations.
    pub total: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl StatSummary {
    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.total += v;
        self.mean = self.total / self.count as f64;
    }
}

/// One stage's workspace-arena allocation counters, summed over its
/// [`Event::WorkspaceUsed`] events — a [`MetricsSnapshot::workspace`] entry
/// and, unchanged, a [`super::RunManifest::workspace`] entry.
///
/// The counters are a pure function of the run configuration — each
/// parallel job owns a private model workspace and the totals sum over
/// the job set — so recording them keeps the manifest byte-identical
/// across thread counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageWorkspace {
    /// Stage name (`characterize`, `deploy`, …).
    pub stage: String,
    /// Workspace `take` calls served by recycling a pooled buffer.
    pub hits: u64,
    /// Workspace `take` calls that had to allocate.
    pub misses: u64,
    /// Total bytes allocated by misses.
    pub bytes_allocated: u64,
}

impl StageWorkspace {
    /// Fraction of `take` calls served from the pool (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A point-in-time copy of everything the recorder has aggregated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Wall-clock seconds per completed stage, in the order stages
    /// finished (untimed stages — redacted or failed — do not appear).
    pub stage_seconds: Vec<(String, StatSummary)>,
    /// Total FAT epochs ticked ([`Event::EpochCompleted`]).
    pub epochs_completed: usize,
    /// Grid cells finished ([`Event::PointFinished`]).
    pub points_finished: usize,
    /// Fleet chips retrained ([`Event::ChipRetrained`]).
    pub chips_retrained: usize,
    /// Of those, chips whose deployed accuracy met the constraint.
    pub chips_satisfied: usize,
    /// Epochs actually run per fleet chip.
    pub epochs_per_chip: StatSummary,
    /// Epochs-to-constraint over grid cells that reached it.
    pub epochs_to_constraint: StatSummary,
    /// Workspace allocation counters per stage, in the order stages first
    /// reported them ([`Event::WorkspaceUsed`]).
    pub workspace: Vec<StageWorkspace>,
    /// Failed job attempts ([`Event::JobFailed`]).
    pub jobs_failed: usize,
    /// Scheduled retries ([`Event::RetryScheduled`]).
    pub retries_scheduled: usize,
    /// Jobs recovered from divergence ([`Event::DivergenceRecovered`]).
    pub divergences_recovered: usize,
    /// Checkpoint-journal completions ([`Event::CheckpointWritten`]).
    pub checkpoints_written: usize,
    /// Fault-similarity clusters formed ([`Event::ClusterFormed`]).
    pub clusters_formed: usize,
    /// Member chips warm-started from a cluster representative
    /// ([`Event::WarmStartHit`]).
    pub warm_start_hits: usize,
    /// Journal shards truncated back to their valid prefix during
    /// self-healing resume ([`Event::ShardTruncated`]).
    pub shards_truncated: usize,
    /// Journal records dropped by those truncations
    /// ([`Event::RecordDropped`]).
    pub records_dropped: usize,
}

/// An [`Observer`] that aggregates counters and stat summaries in memory.
///
/// This replaces the ad-hoc `Instant::now()` stage timers the bench
/// binaries used to carry: attach one recorder, run the pipeline, then
/// [`MetricsRecorder::render`] the closing table.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    // `stage_seconds` is an insertion-ordered Vec, not a HashMap: `render`
    // output must be deterministic and the stage count is tiny.
    state: Mutex<MetricsSnapshot>,
}

impl MetricsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut MetricsSnapshot) -> R) -> R {
        let mut state = match self.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut state)
    }

    /// Copies out the current aggregates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with_state(|s| s.clone())
    }

    /// Renders the aggregates as a small fixed-width text table.
    pub fn render(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("== telemetry ==\n");
        for (stage, stat) in &snap.stage_seconds {
            out.push_str(&format!("stage {stage:<13} {:>9.2}s\n", stat.total));
        }
        out.push_str(&format!(
            "epochs completed   {:>6}\n",
            snap.epochs_completed
        ));
        if snap.points_finished > 0 {
            out.push_str(&format!("points finished    {:>6}\n", snap.points_finished));
            if snap.epochs_to_constraint.count > 0 {
                out.push_str(&format!(
                    "epochs-to-constraint (reached {}/{}) min {:.1} mean {:.1} max {:.1}\n",
                    snap.epochs_to_constraint.count,
                    snap.points_finished,
                    snap.epochs_to_constraint.min,
                    snap.epochs_to_constraint.mean,
                    snap.epochs_to_constraint.max,
                ));
            }
        }
        if snap.chips_retrained > 0 {
            out.push_str(&format!(
                "chips retrained    {:>6} ({} satisfied)\n",
                snap.chips_retrained, snap.chips_satisfied
            ));
            out.push_str(&format!(
                "epochs per chip    min {:.1} mean {:.1} max {:.1}\n",
                snap.epochs_per_chip.min, snap.epochs_per_chip.mean, snap.epochs_per_chip.max,
            ));
        }
        if snap.clusters_formed > 0 {
            out.push_str(&format!(
                "clusters formed    {:>6} ({} warm starts)\n",
                snap.clusters_formed, snap.warm_start_hits
            ));
        }
        for w in &snap.workspace {
            out.push_str(&format!(
                "workspace {:<12} hits {} misses {} allocated {} B (hit rate {:.1}%)\n",
                w.stage,
                w.hits,
                w.misses,
                w.bytes_allocated,
                w.hit_rate() * 100.0,
            ));
        }
        if snap.shards_truncated > 0 {
            out.push_str(&format!(
                "journal healing    {:>6} shards truncated ({} records dropped)\n",
                snap.shards_truncated, snap.records_dropped
            ));
        }
        if snap.jobs_failed > 0 || snap.retries_scheduled > 0 {
            out.push_str(&format!(
                "job failures       {:>6} ({} retries scheduled, {} divergences recovered)\n",
                snap.jobs_failed, snap.retries_scheduled, snap.divergences_recovered
            ));
        }
        out
    }
}

impl Observer for MetricsRecorder {
    fn on_event(&self, event: &Event) {
        self.with_state(|s| match event {
            Event::StageStarted { .. } => {}
            Event::StageFinished { stage, seconds } => {
                if let Some(secs) = seconds {
                    let name = stage.name();
                    let slot = match s.stage_seconds.iter_mut().find(|(n, _)| n == name) {
                        Some((_, acc)) => acc,
                        None => {
                            s.stage_seconds
                                .push((name.to_string(), StatSummary::default()));
                            match s.stage_seconds.last_mut() {
                                Some((_, acc)) => acc,
                                None => return, // unreachable: just pushed
                            }
                        }
                    };
                    slot.observe(*secs);
                }
            }
            Event::EpochCompleted { scope, .. } => {
                s.epochs_completed += 1;
                let _ = scope; // scope is informational for this sink
            }
            Event::PointFinished {
                epochs_to_constraint,
                ..
            } => {
                s.points_finished += 1;
                if let Some(epochs) = epochs_to_constraint {
                    s.epochs_to_constraint.observe(*epochs as f64);
                }
            }
            Event::ChipRetrained {
                epochs_run,
                satisfied,
                ..
            } => {
                s.chips_retrained += 1;
                if *satisfied {
                    s.chips_satisfied += 1;
                }
                s.epochs_per_chip.observe(*epochs_run as f64);
            }
            Event::WorkspaceUsed {
                stage,
                hits,
                misses,
                bytes_allocated,
            } => {
                let name = stage.name();
                let slot = match s.workspace.iter_mut().find(|w| w.stage == name) {
                    Some(w) => w,
                    None => {
                        s.workspace.push(StageWorkspace {
                            stage: name.to_string(),
                            ..StageWorkspace::default()
                        });
                        match s.workspace.last_mut() {
                            Some(w) => w,
                            None => return, // unreachable: just pushed
                        }
                    }
                };
                slot.hits += hits;
                slot.misses += misses;
                slot.bytes_allocated += bytes_allocated;
            }
            Event::JobFailed { .. } => s.jobs_failed += 1,
            Event::RetryScheduled { .. } => s.retries_scheduled += 1,
            Event::DivergenceRecovered { .. } => s.divergences_recovered += 1,
            Event::CheckpointWritten { .. } => s.checkpoints_written += 1,
            Event::ClusterFormed { .. } => s.clusters_formed += 1,
            Event::WarmStartHit { .. } => s.warm_start_hits += 1,
            Event::ShardTruncated { .. } => s.shards_truncated += 1,
            Event::RecordDropped { .. } => s.records_dropped += 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EpochScope, Stage};
    use super::*;

    fn chip_event(epochs_run: usize, satisfied: bool) -> Event {
        Event::ChipRetrained {
            chip_id: 0,
            fault_rate: 0.1,
            epochs_budgeted: epochs_run,
            epochs_run,
            final_accuracy: 0.9,
            satisfied,
        }
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let rec = MetricsRecorder::new();
        rec.on_event(&Event::EpochCompleted {
            scope: EpochScope::Chip { chip_id: 0 },
            epoch: 1,
            accuracy: 0.8,
        });
        rec.on_event(&chip_event(2, true));
        rec.on_event(&chip_event(6, false));
        rec.on_event(&Event::PointFinished {
            rate_index: 0,
            rate: 0.1,
            repeat: 0,
            epochs_to_constraint: Some(3),
            pre_retrain_accuracy: 0.5,
            final_accuracy: 0.92,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.epochs_completed, 1);
        assert_eq!(snap.points_finished, 1);
        assert_eq!(snap.chips_retrained, 2);
        assert_eq!(snap.chips_satisfied, 1);
        assert_eq!(snap.epochs_per_chip.count, 2);
        assert_eq!(snap.epochs_per_chip.min, 2.0);
        assert_eq!(snap.epochs_per_chip.mean, 4.0);
        assert_eq!(snap.epochs_per_chip.max, 6.0);
        assert_eq!(snap.epochs_to_constraint.total, 3.0);
    }

    #[test]
    fn stage_seconds_keep_finish_order_and_sum_repeats() {
        let rec = MetricsRecorder::new();
        for (stage, secs) in [
            (Stage::Characterize, 1.5),
            (Stage::Deploy, 0.5),
            (Stage::Deploy, 1.0),
        ] {
            rec.on_event(&Event::StageFinished {
                stage,
                seconds: Some(secs),
            });
        }
        rec.on_event(&Event::StageFinished {
            stage: Stage::Pretrain,
            seconds: None, // redacted: must not create a row
        });
        let snap = rec.snapshot();
        let names: Vec<&str> = snap.stage_seconds.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["characterize", "deploy"]);
        assert_eq!(snap.stage_seconds[1].1.count, 2);
        assert_eq!(snap.stage_seconds[1].1.total, 1.5);
    }

    #[test]
    fn empty_recorder_renders_without_panicking() {
        let rec = MetricsRecorder::new();
        let text = rec.render();
        assert!(text.contains("telemetry"));
        assert!(text.contains("epochs completed"));
        assert_eq!(rec.snapshot().epochs_per_chip.count, 0);
    }

    #[test]
    fn workspace_counters_aggregate_per_stage() {
        let rec = MetricsRecorder::new();
        for (stage, hits, misses, bytes) in [
            (Stage::Characterize, 100, 10, 4096),
            (Stage::Characterize, 50, 5, 2048),
            (Stage::Deploy, 7, 3, 512),
        ] {
            rec.on_event(&Event::WorkspaceUsed {
                stage,
                hits,
                misses,
                bytes_allocated: bytes,
            });
        }
        let snap = rec.snapshot();
        let names: Vec<&str> = snap.workspace.iter().map(|w| w.stage.as_str()).collect();
        assert_eq!(names, ["characterize", "deploy"]);
        assert_eq!(
            snap.workspace[0],
            StageWorkspace {
                stage: "characterize".to_string(),
                hits: 150,
                misses: 15,
                bytes_allocated: 6144,
            }
        );
        assert!((snap.workspace[0].hit_rate() - 150.0 / 165.0).abs() < 1e-12);
        assert_eq!(StageWorkspace::default().hit_rate(), 0.0);
        let text = rec.render();
        assert!(text.contains("workspace characterize"));
        assert!(text.contains("allocated 512 B"));
    }

    #[test]
    fn failure_counters_aggregate_and_render() {
        let rec = MetricsRecorder::new();
        rec.on_event(&Event::JobFailed {
            stage: Stage::Characterize,
            job: 2,
            attempt: 0,
            error: "chaos".to_string(),
        });
        rec.on_event(&Event::RetryScheduled {
            stage: Stage::Characterize,
            job: 2,
            attempt: 1,
            seed: 99,
        });
        rec.on_event(&Event::DivergenceRecovered {
            stage: Stage::Characterize,
            job: 2,
            attempts: 1,
        });
        rec.on_event(&Event::CheckpointWritten {
            stage: Stage::Characterize,
            completed: 8,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.jobs_failed, 1);
        assert_eq!(snap.retries_scheduled, 1);
        assert_eq!(snap.divergences_recovered, 1);
        assert_eq!(snap.checkpoints_written, 1);
        let text = rec.render();
        assert!(text.contains("job failures"));
        assert!(text.contains("1 retries scheduled"));
        // A clean run stays silent about failures.
        assert!(!MetricsRecorder::new().render().contains("job failures"));
    }

    #[test]
    fn render_mentions_chips_when_present() {
        let rec = MetricsRecorder::new();
        rec.on_event(&chip_event(3, true));
        let text = rec.render();
        assert!(text.contains("chips retrained"));
        assert!(text.contains("epochs per chip"));
    }
}
