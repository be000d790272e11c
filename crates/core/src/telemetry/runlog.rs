//! The [`RunLog`] sink: one JSON line per event.
//!
//! The line *sequence* is deterministic across thread counts (see the
//! module-level determinism contract); with `redact_timing` the line
//! *bytes* are too, because the only non-deterministic payload — the
//! wall-clock `seconds` of `stage_finished` — is written as `null`.

use super::json::{push_json_f32, push_json_f64, push_json_string, JsonValue};
use super::{EpochScope, Event, Observer, Stage};
use crate::artifact::write_atomic;
use crate::error::{ReduceError, Result};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A JSON-lines run-log writer.
///
/// Write failures do not panic and cannot poison the framework run: the
/// first error is latched and surfaced by [`RunLog::flush`], which
/// callers should invoke once the run completes.
///
/// [`RunLog::create`] builds a file-backed log that accumulates lines in
/// memory and writes the whole artifact atomically (temp file + rename,
/// see [`crate::artifact`]) on [`RunLog::flush`] — an interrupted run
/// never leaves a torn `run_log.jsonl` behind.
pub struct RunLog {
    sink: Mutex<LogState>,
    redact_timing: bool,
}

struct LogState {
    sink: LogSink,
    error: Option<String>,
}

enum LogSink {
    /// Streams lines to an arbitrary writer (in-memory buffers in tests).
    Stream(Box<dyn Write + Send>),
    /// Buffers lines and writes the file atomically on flush.
    Atomic { path: PathBuf, buf: String },
}

impl RunLog {
    /// Wraps an arbitrary writer (a file, an in-memory buffer in tests).
    /// With `redact_timing`, wall-clock fields are written as `null`.
    pub fn new(writer: Box<dyn Write + Send>, redact_timing: bool) -> Self {
        RunLog {
            sink: Mutex::new(LogState {
                sink: LogSink::Stream(writer),
                error: None,
            }),
            redact_timing,
        }
    }

    /// A file-backed log at `path`: lines accumulate in memory and
    /// [`RunLog::flush`] writes the complete artifact atomically.
    ///
    /// # Errors
    ///
    /// Infallible today (the file is only touched at flush time); kept
    /// fallible for call-site compatibility and future validation.
    pub fn create(path: &Path, redact_timing: bool) -> Result<Self> {
        Ok(RunLog {
            sink: Mutex::new(LogState {
                sink: LogSink::Atomic {
                    path: path.to_path_buf(),
                    buf: String::new(),
                },
                error: None,
            }),
            redact_timing,
        })
    }

    /// Flushes the log — for a file-backed log this is the moment the
    /// artifact is (atomically) written — and reports the first write
    /// error encountered since creation, if any.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] wrapping the I/O failure.
    pub fn flush(&self) -> Result<()> {
        let mut state = match self.sink.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        if state.error.is_none() {
            let flushed = match &mut state.sink {
                LogSink::Stream(writer) => writer.flush().map_err(|e| e.to_string()),
                LogSink::Atomic { path, buf } => write_atomic(path, buf).map_err(|e| e.to_string()),
            };
            if let Err(e) = flushed {
                state.error = Some(e);
            }
        }
        match &state.error {
            Some(e) => Err(ReduceError::InvalidConfig {
                what: format!("run log write failed: {e}"),
            }),
            None => Ok(()),
        }
    }
}

impl Observer for RunLog {
    fn on_event(&self, event: &Event) {
        let line = render_event(event, self.redact_timing);
        let mut state = match self.sink.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        if state.error.is_some() {
            return; // latched: drop events after the first write failure
        }
        match &mut state.sink {
            LogSink::Stream(writer) => {
                if let Err(e) = writer.write_all(line.as_bytes()) {
                    state.error = Some(e.to_string());
                }
            }
            LogSink::Atomic { buf, .. } => buf.push_str(&line),
        }
    }
}

impl std::fmt::Debug for RunLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunLog")
            .field("redact_timing", &self.redact_timing)
            .finish_non_exhaustive()
    }
}

/// Renders one event as a JSON line (with trailing newline). The
/// rendering is deterministic (fixed key order, shortest-round-trip
/// floats), which is what makes redacted run logs byte-comparable and
/// lets the resume journal re-emit replayed events bit-identically.
pub(crate) fn render_event(event: &Event, redact_timing: bool) -> String {
    let mut s = String::with_capacity(96);
    match event {
        Event::StageStarted { stage } => {
            s.push_str("{\"event\":\"stage_started\",\"stage\":\"");
            s.push_str(stage.name());
            s.push_str("\"}");
        }
        Event::StageFinished { stage, seconds } => {
            s.push_str("{\"event\":\"stage_finished\",\"stage\":\"");
            s.push_str(stage.name());
            s.push_str("\",\"seconds\":");
            match seconds {
                Some(v) if !redact_timing => push_json_f64(&mut s, *v),
                _ => s.push_str("null"),
            }
            s.push('}');
        }
        Event::EpochCompleted {
            scope,
            epoch,
            accuracy,
        } => {
            s.push_str("{\"event\":\"epoch_completed\",");
            match scope {
                EpochScope::Point { rate_index, repeat } => {
                    s.push_str(&format!(
                        "\"scope\":\"point\",\"rate_index\":{rate_index},\"repeat\":{repeat}"
                    ));
                }
                EpochScope::Chip { chip_id } => {
                    s.push_str(&format!("\"scope\":\"chip\",\"chip_id\":{chip_id}"));
                }
            }
            s.push_str(&format!(",\"epoch\":{epoch},\"accuracy\":"));
            push_json_f32(&mut s, *accuracy);
            s.push('}');
        }
        Event::PointFinished {
            rate_index,
            rate,
            repeat,
            epochs_to_constraint,
            pre_retrain_accuracy,
            final_accuracy,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"point_finished\",\"rate_index\":{rate_index},\"rate\":"
            ));
            push_json_f64(&mut s, *rate);
            s.push_str(&format!(",\"repeat\":{repeat},\"epochs_to_constraint\":"));
            match epochs_to_constraint {
                Some(e) => s.push_str(&format!("{e}")),
                None => s.push_str("null"),
            }
            s.push_str(",\"pre_retrain_accuracy\":");
            push_json_f32(&mut s, *pre_retrain_accuracy);
            s.push_str(",\"final_accuracy\":");
            push_json_f32(&mut s, *final_accuracy);
            s.push('}');
        }
        Event::ChipRetrained {
            chip_id,
            fault_rate,
            epochs_budgeted,
            epochs_run,
            final_accuracy,
            satisfied,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"chip_retrained\",\"chip_id\":{chip_id},\"fault_rate\":"
            ));
            push_json_f64(&mut s, *fault_rate);
            s.push_str(&format!(
                ",\"epochs_budgeted\":{epochs_budgeted},\"epochs_run\":{epochs_run},\"final_accuracy\":"
            ));
            push_json_f32(&mut s, *final_accuracy);
            s.push_str(&format!(",\"satisfied\":{satisfied}}}"));
        }
        Event::ClusterFormed {
            representative,
            size,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"cluster_formed\",\"representative\":{representative},\"size\":{size}}}"
            ));
        }
        Event::WarmStartHit {
            chip_id,
            representative,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"warm_start_hit\",\"chip_id\":{chip_id},\"representative\":{representative}}}"
            ));
        }
        Event::WorkspaceUsed {
            stage,
            hits,
            misses,
            bytes_allocated,
        } => {
            s.push_str("{\"event\":\"workspace_used\",\"stage\":\"");
            s.push_str(stage.name());
            s.push_str(&format!(
                "\",\"hits\":{hits},\"misses\":{misses},\"bytes_allocated\":{bytes_allocated}}}"
            ));
        }
        Event::JobFailed {
            stage,
            job,
            attempt,
            error,
        } => {
            s.push_str("{\"event\":\"job_failed\",\"stage\":\"");
            s.push_str(stage.name());
            s.push_str(&format!(
                "\",\"job\":{job},\"attempt\":{attempt},\"error\":"
            ));
            push_json_string(&mut s, error);
            s.push('}');
        }
        Event::RetryScheduled {
            stage,
            job,
            attempt,
            seed,
        } => {
            s.push_str("{\"event\":\"retry_scheduled\",\"stage\":\"");
            s.push_str(stage.name());
            s.push_str(&format!(
                "\",\"job\":{job},\"attempt\":{attempt},\"seed\":{seed}}}"
            ));
        }
        Event::DivergenceRecovered {
            stage,
            job,
            attempts,
        } => {
            s.push_str("{\"event\":\"divergence_recovered\",\"stage\":\"");
            s.push_str(stage.name());
            s.push_str(&format!("\",\"job\":{job},\"attempts\":{attempts}}}"));
        }
        Event::CheckpointWritten { stage, completed } => {
            s.push_str("{\"event\":\"checkpoint_written\",\"stage\":\"");
            s.push_str(stage.name());
            s.push_str(&format!("\",\"completed\":{completed}}}"));
        }
        Event::ShardTruncated {
            shard,
            kept,
            dropped_bytes,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"shard_truncated\",\"shard\":{shard},\"kept\":{kept},\"dropped_bytes\":{dropped_bytes}}}"
            ));
        }
        Event::RecordDropped { shard, record } => {
            s.push_str(&format!(
                "{{\"event\":\"record_dropped\",\"shard\":{shard},\"record\":{record}}}"
            ));
        }
    }
    s.push('\n');
    s
}

/// Parses a rendered event object back into an [`Event`] — the inverse
/// of [`render_event`], used when replaying journaled grid-cell / chip
/// events on resume — or `None` if it is not a well-formed event.
/// Wall-clock `seconds` round-trips as `None` when the source was
/// redacted.
pub(crate) fn parse_event(value: &JsonValue) -> Option<Event> {
    let stage = || {
        value
            .field("stage")
            .and_then(JsonValue::as_str)
            .and_then(Stage::from_name)
    };
    let usize_of = |name: &str| value.field(name).and_then(JsonValue::as_usize);
    let u64_of = |name: &str| value.field(name).and_then(JsonValue::as_u64);
    let u32_of = |name: &str| u32::try_from(u64_of(name)?).ok();
    let f64_of = |name: &str| value.field(name).and_then(JsonValue::as_f64);
    let f32_of = |name: &str| value.field(name).and_then(JsonValue::as_f32);
    match value.field("event").and_then(JsonValue::as_str)? {
        "stage_started" => Some(Event::StageStarted { stage: stage()? }),
        "stage_finished" => {
            let seconds = match value.field("seconds") {
                Some(JsonValue::Null) | None => None,
                Some(v) => Some(v.as_f64()?),
            };
            Some(Event::StageFinished {
                stage: stage()?,
                seconds,
            })
        }
        "epoch_completed" => {
            let scope = match value.field("scope").and_then(JsonValue::as_str)? {
                "point" => EpochScope::Point {
                    rate_index: usize_of("rate_index")?,
                    repeat: usize_of("repeat")?,
                },
                "chip" => EpochScope::Chip {
                    chip_id: usize_of("chip_id")?,
                },
                _ => return None,
            };
            Some(Event::EpochCompleted {
                scope,
                epoch: usize_of("epoch")?,
                accuracy: f32_of("accuracy")?,
            })
        }
        "point_finished" => {
            let epochs_to_constraint = match value.field("epochs_to_constraint") {
                Some(JsonValue::Null) | None => None,
                Some(v) => Some(v.as_usize()?),
            };
            Some(Event::PointFinished {
                rate_index: usize_of("rate_index")?,
                rate: f64_of("rate")?,
                repeat: usize_of("repeat")?,
                epochs_to_constraint,
                pre_retrain_accuracy: f32_of("pre_retrain_accuracy")?,
                final_accuracy: f32_of("final_accuracy")?,
            })
        }
        "chip_retrained" => Some(Event::ChipRetrained {
            chip_id: usize_of("chip_id")?,
            fault_rate: f64_of("fault_rate")?,
            epochs_budgeted: usize_of("epochs_budgeted")?,
            epochs_run: usize_of("epochs_run")?,
            final_accuracy: f32_of("final_accuracy")?,
            satisfied: value.field("satisfied").and_then(JsonValue::as_bool)?,
        }),
        "cluster_formed" => Some(Event::ClusterFormed {
            representative: usize_of("representative")?,
            size: usize_of("size")?,
        }),
        "warm_start_hit" => Some(Event::WarmStartHit {
            chip_id: usize_of("chip_id")?,
            representative: usize_of("representative")?,
        }),
        "workspace_used" => Some(Event::WorkspaceUsed {
            stage: stage()?,
            hits: u64_of("hits")?,
            misses: u64_of("misses")?,
            bytes_allocated: u64_of("bytes_allocated")?,
        }),
        "job_failed" => Some(Event::JobFailed {
            stage: stage()?,
            job: u64_of("job")?,
            attempt: u32_of("attempt")?,
            error: value
                .field("error")
                .and_then(JsonValue::as_str)?
                .to_string(),
        }),
        "retry_scheduled" => Some(Event::RetryScheduled {
            stage: stage()?,
            job: u64_of("job")?,
            attempt: u32_of("attempt")?,
            seed: u64_of("seed")?,
        }),
        "divergence_recovered" => Some(Event::DivergenceRecovered {
            stage: stage()?,
            job: u64_of("job")?,
            attempts: u32_of("attempts")?,
        }),
        "checkpoint_written" => Some(Event::CheckpointWritten {
            stage: stage()?,
            completed: usize_of("completed")?,
        }),
        "shard_truncated" => Some(Event::ShardTruncated {
            shard: usize_of("shard")?,
            kept: usize_of("kept")?,
            dropped_bytes: usize_of("dropped_bytes")?,
        }),
        "record_dropped" => Some(Event::RecordDropped {
            shard: usize_of("shard")?,
            record: usize_of("record")?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::Stage;
    use super::*;
    use std::sync::Arc;

    /// An in-memory `Write` target shared with the test.
    #[derive(Clone, Default)]
    struct Buffer(Arc<Mutex<Vec<u8>>>);

    impl Write for Buffer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("no poisoning").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn events() -> Vec<Event> {
        vec![
            Event::StageStarted {
                stage: Stage::Characterize,
            },
            Event::EpochCompleted {
                scope: EpochScope::Point {
                    rate_index: 0,
                    repeat: 1,
                },
                epoch: 1,
                accuracy: 0.875,
            },
            Event::PointFinished {
                rate_index: 0,
                rate: 0.1,
                repeat: 1,
                epochs_to_constraint: None,
                pre_retrain_accuracy: 0.5,
                final_accuracy: 0.875,
            },
            Event::ChipRetrained {
                chip_id: 3,
                fault_rate: 0.25,
                epochs_budgeted: 4,
                epochs_run: 4,
                final_accuracy: 0.92,
                satisfied: true,
            },
            Event::WorkspaceUsed {
                stage: Stage::Characterize,
                hits: 120,
                misses: 12,
                bytes_allocated: 4096,
            },
            Event::StageFinished {
                stage: Stage::Characterize,
                seconds: Some(1.25),
            },
        ]
    }

    fn log_to_string(redact: bool) -> String {
        let buf = Buffer::default();
        let log = RunLog::new(Box::new(buf.clone()), redact);
        for e in events() {
            log.on_event(&e);
        }
        log.flush().expect("in-memory writes cannot fail");
        let bytes = buf.0.lock().expect("no poisoning").clone();
        String::from_utf8(bytes).expect("valid UTF-8")
    }

    #[test]
    fn lines_are_valid_json_with_stable_fields() {
        let text = log_to_string(false);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in &lines {
            super::super::json::parse(line).expect("every line parses");
        }
        assert!(lines[0].contains("\"stage_started\""));
        assert!(lines[1].contains("\"scope\":\"point\"") && lines[1].contains("\"epoch\":1"));
        assert!(lines[2].contains("\"epochs_to_constraint\":null"));
        assert!(lines[3].contains("\"satisfied\":true"));
        assert!(
            lines[4].contains("\"workspace_used\"")
                && lines[4].contains("\"misses\":12")
                && lines[4].contains("\"bytes_allocated\":4096")
        );
        assert!(lines[5].contains("\"seconds\":1.25"));
    }

    #[test]
    fn redaction_nulls_wall_clock_only() {
        let redacted = log_to_string(true);
        assert!(redacted.contains("\"seconds\":null"));
        assert!(!redacted.contains("1.25"));
        // Every other byte is unchanged.
        let plain = log_to_string(false);
        assert_eq!(
            plain.replace("\"seconds\":1.25", "\"seconds\":null"),
            redacted
        );
    }

    #[test]
    fn write_errors_are_latched_and_reported_by_flush() {
        /// A writer that always fails.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let log = RunLog::new(Box::new(Broken), false);
        log.on_event(&Event::StageStarted {
            stage: Stage::Pretrain,
        });
        let err = log.flush().expect_err("latched error surfaces");
        assert!(err.to_string().contains("disk full"));
    }

    #[test]
    fn failure_events_render_with_escaped_causes() {
        let text = render_event(
            &Event::JobFailed {
                stage: Stage::Characterize,
                job: 5,
                attempt: 1,
                error: "bad \"quote\"\nline".to_string(),
            },
            false,
        );
        assert!(text.starts_with("{\"event\":\"job_failed\",\"stage\":\"characterize\""));
        assert!(text.contains("\\\"quote\\\"\\n"));
        super::super::json::parse(text.trim_end()).expect("line parses");
        let retry = render_event(
            &Event::RetryScheduled {
                stage: Stage::Deploy,
                job: 3,
                attempt: 2,
                seed: 0xDEAD,
            },
            false,
        );
        assert!(retry.contains("\"seed\":57005"));
        let recovered = render_event(
            &Event::DivergenceRecovered {
                stage: Stage::Deploy,
                job: 3,
                attempts: 2,
            },
            false,
        );
        assert!(recovered.contains("\"divergence_recovered\""));
        let ckpt = render_event(
            &Event::CheckpointWritten {
                stage: Stage::Characterize,
                completed: 8,
            },
            false,
        );
        assert!(ckpt.contains("\"checkpoint_written\"") && ckpt.contains("\"completed\":8"));
    }

    #[test]
    fn every_event_round_trips_through_parse_event() {
        let mut all = events();
        all.extend([
            Event::JobFailed {
                stage: Stage::Characterize,
                job: 7,
                attempt: 0,
                error: "training diverged: NaN \"loss\"".to_string(),
            },
            Event::RetryScheduled {
                stage: Stage::Characterize,
                job: 7,
                attempt: 1,
                seed: 9_223_372_036_854_775_809,
            },
            Event::DivergenceRecovered {
                stage: Stage::Characterize,
                job: 7,
                attempts: 1,
            },
            Event::CheckpointWritten {
                stage: Stage::Deploy,
                completed: 12,
            },
            Event::StageFinished {
                stage: Stage::Pretrain,
                seconds: None,
            },
            Event::ClusterFormed {
                representative: 4,
                size: 3,
            },
            Event::WarmStartHit {
                chip_id: 6,
                representative: 4,
            },
            Event::ShardTruncated {
                shard: 2,
                kept: 5,
                dropped_bytes: 131,
            },
            Event::RecordDropped {
                shard: 2,
                record: 5,
            },
        ]);
        for event in &all {
            let line = render_event(event, false);
            let value = super::super::json::parse(line.trim_end()).expect("line parses");
            let back = parse_event(&value).expect("event parses back");
            assert_eq!(&back, event, "round trip changed {event:?}");
            // The replay path depends on re-rendering bit-identically.
            assert_eq!(render_event(&back, false), line);
        }
        assert!(parse_event(&JsonValue::Null).is_none());
        let unknown = super::super::json::parse("{\"event\":\"warp\"}").expect("valid json");
        assert!(parse_event(&unknown).is_none());
    }

    #[test]
    fn create_writes_a_real_file() {
        let dir = std::env::temp_dir().join("reduce_runlog_test");
        let path = dir.join("run_log.jsonl");
        let log = RunLog::create(&path, true).expect("temp dir writable");
        log.on_event(&Event::StageFinished {
            stage: Stage::Deploy,
            seconds: Some(1.25),
        });
        log.flush().expect("flush succeeds");
        let text = std::fs::read_to_string(&path).expect("just written");
        assert!(text.contains("stage_finished"));
        assert!(
            text.contains("\"seconds\":null"),
            "file-backed logs redact too"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
