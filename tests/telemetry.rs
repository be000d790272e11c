//! Integration tests for the telemetry subsystem: run-log event sequences
//! must be byte-identical across thread counts (after timing redaction),
//! the `NullObserver` path must produce reports identical to unobserved
//! runs, and a saved manifest must hold exactly the bytes of its JSON.

use reduce_repro::core::telemetry::{
    FleetManifest, GridManifest, MetricsRecorder, Observer, RunLog, RunManifest,
};
use reduce_repro::core::{
    ExecConfig, FatRunner, FleetEvaluation, ResilienceAnalysis, ResilienceConfig, RetrainPolicy,
    SeededChips, Workbench,
};
use reduce_repro::systolic::{FaultModel, FleetConfig, RateDistribution};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A shared in-memory `Write` target so the test can read back what a
/// `RunLog` wrote.
#[derive(Clone, Default)]
struct VecSink(Arc<Mutex<Vec<u8>>>);

impl VecSink {
    fn contents(&self) -> String {
        let bytes = self.0.lock().expect("no poisoning").clone();
        String::from_utf8(bytes).expect("valid UTF-8")
    }
}

impl Write for VecSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("no poisoning").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn grid_config() -> ResilienceConfig {
    ResilienceConfig::builder()
        .fault_rates(vec![0.0, 0.1, 0.2])
        .max_epochs(4)
        .repeats(2)
        .constraint(0.88)
        .fault_model(FaultModel::Random)
        .seed(11)
        .build()
        .expect("valid preset")
}

fn toy_fleet() -> SeededChips {
    SeededChips::new(FleetConfig {
        chips: 4,
        rows: 8,
        cols: 8,
        rates: RateDistribution::Uniform { lo: 0.0, hi: 0.2 },
        model: FaultModel::Random,
        seed: 9,
    })
}

/// Runs characterisation + fleet evaluation with a redacted `RunLog`
/// attached and returns the log text.
fn logged_run(threads: usize) -> String {
    let wb = Workbench::toy(601);
    let pre = wb.pretrain(8).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let sink = VecSink::default();
    let log: Arc<dyn Observer> = Arc::new(RunLog::new(Box::new(sink.clone()), true));
    let exec = ExecConfig::new(threads).with_observer(log);
    ResilienceAnalysis::run(&runner, &pre, grid_config(), &exec).expect("characterisation runs");
    let fleet = toy_fleet();
    FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
        .source(&fleet)
        .exec(&exec)
        .run(&runner, &pre)
        .expect("valid run");
    sink.contents()
}

#[test]
fn redacted_run_logs_are_byte_identical_across_thread_counts() {
    let reference = logged_run(1);
    assert!(!reference.is_empty());
    // Sanity: the log carries every event class the pipeline emits.
    for needle in [
        "\"stage_started\"",
        "\"stage_finished\"",
        "\"epoch_completed\"",
        "\"point_finished\"",
        "\"chip_retrained\"",
    ] {
        assert!(reference.contains(needle), "log missing {needle}");
    }
    // Redaction nulls the only wall-clock field.
    assert!(reference.contains("\"seconds\":null"));
    for threads in [2usize, 8] {
        assert_eq!(
            logged_run(threads),
            reference,
            "{threads}-thread run log differs from 1-thread"
        );
    }
}

#[test]
fn observed_and_unobserved_runs_produce_identical_reports() {
    let wb = Workbench::toy(602);
    let pre = wb.pretrain(8).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let fleet = toy_fleet();
    let evaluate = |exec: &ExecConfig| {
        FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
            .source(&fleet)
            .exec(exec)
            .run(&runner, &pre)
            .expect("valid run")
    };

    // Default ExecConfig: the zero-cost NullObserver.
    let plain_exec = ExecConfig::default();
    let plain_analysis = ResilienceAnalysis::run(&runner, &pre, grid_config(), &plain_exec)
        .expect("characterisation runs");
    let plain_report = evaluate(&plain_exec);

    // Fully instrumented run.
    let metrics = Arc::new(MetricsRecorder::new());
    let observed_exec = ExecConfig::new(2).with_observer(metrics.clone());
    let observed_analysis = ResilienceAnalysis::run(&runner, &pre, grid_config(), &observed_exec)
        .expect("characterisation runs");
    let observed_report = evaluate(&observed_exec);

    assert_eq!(plain_analysis.points(), observed_analysis.points());
    assert_eq!(plain_analysis.table(), observed_analysis.table());
    assert_eq!(plain_report, observed_report);

    // And the recorder actually saw the work happen.
    let snap = metrics.snapshot();
    assert_eq!(snap.points_finished, 6, "3 rates x 2 repeats");
    assert_eq!(snap.chips_retrained, fleet.config().chips);
    assert!(snap.epochs_completed > 0);
    assert!(metrics.render().contains("chips retrained"));
}

#[test]
fn manifest_round_trips_through_disk() {
    let grid = grid_config();
    let fleet_config = FleetConfig {
        chips: 4,
        rows: 8,
        cols: 8,
        rates: RateDistribution::Uniform { lo: 0.0, hi: 0.2 },
        model: FaultModel::Random,
        seed: 9,
    };
    let mut manifest = RunManifest::new("telemetry-test", "smoke");
    manifest.threads = Some(2);
    manifest.constraint = 0.88;
    manifest.workbench = "toy".to_string();
    manifest.grid = Some(GridManifest::from_config(&grid));
    manifest.policies = vec!["fixed:2".to_string()];
    manifest.fleet = Some(FleetManifest::from_config(&fleet_config));

    let dir = std::env::temp_dir().join(format!(
        "reduce_telemetry_manifest_test_{}",
        std::process::id()
    ));
    let path = dir.join("manifest.json");
    manifest.save(&path).expect("temp dir writable");
    let written = std::fs::read_to_string(&path).expect("just written");
    assert_eq!(written, manifest.to_json(), "save writes exactly to_json()");
    assert!(written.contains("\"threads\": 2,"));
    assert!(written.contains("\"fault_rates\": [0, 0.1, 0.2],"));
    assert!(written.contains("\"strategy\": \"Fap\","));
    // A redacted manifest drops only the thread count.
    let mut redacted = manifest.clone();
    redacted.threads = None;
    assert_eq!(
        redacted.to_json(),
        manifest
            .to_json()
            .replace("\"threads\": 2,", "\"threads\": null,")
    );
    let _ = std::fs::remove_dir_all(dir);
}
