//! Fault-tolerance integration tests: job-level failure containment,
//! deterministic retry, checkpoint/resume and the chaos harness.
//!
//! The invariants exercised here are the PR's acceptance criteria:
//!
//! * a fleet with failures injected on `k` of `N` chips reports exactly
//!   `N − k` Ok and `k` Quarantined chips, identically at 1/2/8 threads;
//! * an interrupted characterisation resumed from its journal produces an
//!   analysis and a redacted run log byte-identical to an uninterrupted
//!   run's;
//! * retried jobs re-derive their seeds deterministically, so chaotic runs
//!   are exactly reproducible.

use reduce_repro::core::artifact::{install_io_policy, FaultKind, FaultyIo, IoOp, IoPolicy};
use reduce_repro::core::exec::ChaosPolicy;
use reduce_repro::core::telemetry::{Observer, RunLog};
use reduce_repro::core::{
    inspect_journal, Checkpoint, ExecConfig, FatRunner, FleetEvaluation, JournalStatus,
    ResilienceAnalysis, ResilienceConfig, RetrainPolicy, SeededChips, Workbench,
    DEFAULT_SHARD_RECORDS,
};
use reduce_repro::systolic::{FaultModel, FleetConfig, RateDistribution};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A shared in-memory `Write` target so tests can read back a `RunLog`.
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
    ResilienceConfig {
        fault_rates: vec![0.0, 0.1, 0.2],
        max_epochs: 4,
        repeats: 2,
        constraint: 0.88,
        fault_model: FaultModel::Random,
        seed: 11,
    }
}

fn toy_fleet(chips: usize) -> SeededChips {
    SeededChips::new(FleetConfig {
        chips,
        rows: 8,
        cols: 8,
        rates: RateDistribution::Uniform { lo: 0.0, hi: 0.2 },
        model: FaultModel::Random,
        seed: 9,
    })
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("reduce_ft_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The headline acceptance criterion: k injected chip failures out of N
/// quarantine exactly those k chips — never their siblings, never the whole
/// fleet — with a report identical at every thread count.
#[test]
fn fleet_quarantine_is_exact_and_thread_invariant() {
    let wb = Workbench::toy(701);
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let fleet = toy_fleet(6);
    let evaluate = |exec: &ExecConfig| {
        FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
            .source(&fleet)
            .collect_outcomes(true)
            .exec(exec)
            .run(&runner, &pre)
            .expect("contained failures are not fatal")
    };

    let baseline = evaluate(&ExecConfig::default());
    assert_eq!(baseline.evaluated, 6);
    assert!(baseline.quarantined.is_empty());

    // Chips 1 and 4 fail on every attempt; the retry budget cannot save
    // them, so they must be quarantined — and only them.
    let chaos = ChaosPolicy::fail_jobs(&[1, 4]);
    let reference = evaluate(
        &ExecConfig::new(1)
            .with_retry_budget(1)
            .with_chaos(chaos.clone()),
    );
    assert_eq!(reference.evaluated, 4, "N - k chips retrained");
    assert_eq!(reference.quarantined.len(), 2, "k chips quarantined");
    let quarantined_ids: Vec<usize> = reference.quarantined.iter().map(|q| q.chip_id).collect();
    assert_eq!(quarantined_ids, vec![1, 4]);
    for q in &reference.quarantined {
        assert_eq!(q.attempts, 2, "initial attempt + 1 retry");
        assert!(!q.error.is_empty());
    }
    // Quarantined chips never perturb their siblings: the surviving chips
    // are bit-identical to the chaos-free baseline.
    let baseline_outcomes = baseline.outcomes.as_deref().expect("collected");
    let reference_outcomes = reference.outcomes.as_deref().expect("collected");
    assert_eq!(reference_outcomes.len(), 4);
    for chip in reference_outcomes {
        let clean = baseline_outcomes
            .iter()
            .find(|c| c.chip_id == chip.chip_id)
            .expect("present in baseline");
        assert_eq!(
            chip, clean,
            "chip {} perturbed by sibling failure",
            chip.chip_id
        );
    }
    for threads in [2usize, 8] {
        let par = evaluate(
            &ExecConfig::new(threads)
                .with_retry_budget(1)
                .with_chaos(chaos.clone()),
        );
        assert_eq!(par, reference, "{threads}-thread report differs");
    }
}

/// First-attempt chaos failures are healed by the retry budget with a
/// deterministically derived retry seed: the run succeeds completely and
/// reproduces exactly.
#[test]
fn retries_recover_deterministically() {
    let wb = Workbench::toy(702);
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    // Jobs 0 and 3 fail on their first attempt only.
    let chaos = ChaosPolicy::fail_at(&[(0, 0), (3, 0)]);
    let run = |threads: usize| {
        ResilienceAnalysis::run_resumable(
            &runner,
            &pre,
            grid_config(),
            &ExecConfig::new(threads)
                .with_retry_budget(2)
                .with_chaos(chaos.clone()),
            None,
        )
        .expect("retries absorb first-attempt failures")
    };
    let reference = run(1);
    assert_eq!(reference.points().len(), 6, "3 rates x 2 repeats");
    assert!(reference.failures().is_empty(), "no quarantine needed");
    for threads in [2usize, 8] {
        let par = run(threads);
        assert_eq!(par.points(), reference.points());
        assert_eq!(par.summaries(), reference.summaries());
    }
    // A retried cell reruns under a salted seed, so it may legitimately
    // differ from a chaos-free run — but untouched cells must not.
    let clean = ResilienceAnalysis::run_resumable(
        &runner,
        &pre,
        grid_config(),
        &ExecConfig::default(),
        None,
    )
    .expect("clean run");
    for (p, c) in reference.points().iter().zip(clean.points()) {
        let job = (p.rate_index * 2 + p.repeat) as u64;
        if ![0u64, 3].contains(&job) {
            assert_eq!(p, c, "untouched cell {job} perturbed by sibling retries");
        }
    }
}

/// Exhausting the budget on grid cells quarantines the cell (recorded with
/// its cause) without failing the analysis or perturbing the other cells.
#[test]
fn grid_quarantine_excludes_only_the_failed_cells() {
    let wb = Workbench::toy(703);
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let clean =
        ResilienceAnalysis::run_resumable(&runner, &pre, grid_config(), &ExecConfig::new(2), None)
            .expect("clean run");
    let chaos = ChaosPolicy::fail_jobs(&[2]); // rate index 1, repeat 0
    let analysis = ResilienceAnalysis::run_resumable(
        &runner,
        &pre,
        grid_config(),
        &ExecConfig::new(2).with_retry_budget(1).with_chaos(chaos),
        None,
    )
    .expect("contained failure is not fatal");
    assert_eq!(analysis.points().len(), 5);
    assert_eq!(analysis.failures().len(), 1);
    let failed = &analysis.failures()[0];
    assert_eq!((failed.rate_index, failed.repeat), (1, 0));
    assert_eq!(failed.attempts, 2);
    assert!(
        failed.error.contains("chaos"),
        "cause recorded: {}",
        failed.error
    );
    let summaries = analysis.summaries();
    assert_eq!(summaries[1].quarantined, 1);
    assert_eq!(summaries[0].quarantined, 0);
    for p in analysis.points() {
        let clean_point = clean
            .points()
            .iter()
            .find(|c| (c.rate_index, c.repeat) == (p.rate_index, p.repeat))
            .expect("present in clean run");
        assert_eq!(p, clean_point, "surviving cell perturbed");
    }
}

/// Runs a journaled, redacted characterisation and returns the analysis,
/// the run-log bytes, and the journal record count.
fn journaled_run(
    runner: &FatRunner,
    pre: &reduce_repro::core::Pretrained,
    checkpoint: &Checkpoint,
    threads: usize,
) -> (ResilienceAnalysis, String, usize) {
    let sink = VecSink::default();
    let log: Arc<dyn Observer> = Arc::new(RunLog::new(Box::new(sink.clone()), true));
    let exec = ExecConfig::new(threads).with_observer(log);
    let analysis =
        ResilienceAnalysis::run_resumable(runner, pre, grid_config(), &exec, Some(checkpoint))
            .expect("characterisation runs");
    let records = checkpoint.records().expect("journal readable").len();
    (analysis, sink.contents(), records)
}

/// The resume acceptance criterion: interrupt a journaled run mid-grid,
/// resume from the journal, and get artifacts byte-identical to an
/// uninterrupted run — even across different thread counts.
#[test]
fn interrupted_run_resumes_to_identical_artifacts() {
    let wb = Workbench::toy(704);
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let dir = scratch_dir("resume");

    // Uninterrupted reference, single-threaded.
    let full_path = dir.join("full/journal.jsonl");
    let full_cp = Checkpoint::create(&full_path);
    let (reference, reference_log, reference_records) = journaled_run(&runner, &pre, &full_cp, 1);
    assert_eq!(reference_records, 6, "every grid cell journaled");

    // "Interrupted" run: complete it, then rebuild a 3-record prefix of
    // its journal in a sibling directory — exactly the state a killed
    // process leaves behind (appends are atomic, so a crash always leaves
    // a valid record prefix, whatever the on-disk layout).
    let cut_cp = Checkpoint::create(&dir.join("scratch/journal.jsonl"));
    let _ = journaled_run(&runner, &pre, &cut_cp, 4);
    let completed = cut_cp.records().expect("journal readable");
    let cut_path = dir.join("cut/journal.jsonl");
    let prefix_cp = Checkpoint::create(&cut_path);
    for record in completed.into_iter().take(3) {
        prefix_cp.append(record).expect("prefix journal writable");
    }

    // Resume at a different thread count: replays the 3 journaled cells,
    // computes the 3 missing ones.
    let resumed_cp = Checkpoint::resume(&cut_path).expect("valid prefix journal");
    assert_eq!(resumed_cp.records().expect("readable").len(), 3);
    let (resumed, resumed_log, resumed_records) = journaled_run(&runner, &pre, &resumed_cp, 4);

    assert_eq!(resumed.points(), reference.points());
    assert_eq!(resumed.summaries(), reference.summaries());
    assert_eq!(resumed.table(), reference.table());
    assert_eq!(resumed_records, 6, "journal completed on resume");
    assert_eq!(
        resumed_log, reference_log,
        "resumed redacted run log differs from uninterrupted"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Fleet kill-and-resume across a shard boundary: with 2-record shards a
/// 3-record prefix spans one sealed shard plus a partial one; resuming
/// from it at a different thread count reproduces the report and the
/// redacted run log byte-for-byte.
#[test]
fn fleet_resume_crosses_shard_boundaries() {
    let wb = Workbench::toy(706);
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let fleet = toy_fleet(6);
    let dir = scratch_dir("fleet_shards");

    let run = |cp: &Checkpoint, threads: usize| {
        let sink = VecSink::default();
        let log: Arc<dyn Observer> = Arc::new(RunLog::new(Box::new(sink.clone()), true));
        let exec = ExecConfig::new(threads).with_observer(log);
        let report = FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
            .source(&fleet)
            .batch_cap(1) // one chip per batch: 6 journal records
            .journal(cp)
            .exec(&exec)
            .run(&runner, &pre)
            .expect("fleet runs");
        (report, sink.contents())
    };

    // Uninterrupted reference: 6 records in 2-record shards.
    let full_cp = Checkpoint::create(&dir.join("full/journal.jsonl")).with_shard_records(2);
    let (reference, reference_log) = run(&full_cp, 1);
    let completed = full_cp.records().expect("journal readable");
    assert_eq!(completed.len(), 6, "every batch journaled");

    // Interrupt mid-shard: a 3-record prefix = shard 0 sealed + shard 1
    // partial.
    let cut_path = dir.join("cut/journal.jsonl");
    let prefix_cp = Checkpoint::create(&cut_path).with_shard_records(2);
    for record in completed.into_iter().take(3) {
        prefix_cp.append(record).expect("prefix journal writable");
    }
    assert!(dir.join("cut/journal-00000.jsonl").exists());
    assert!(dir.join("cut/journal-00001.jsonl").exists());

    let resumed_cp = Checkpoint::resume(&cut_path).expect("valid prefix journal");
    assert_eq!(resumed_cp.records().expect("readable").len(), 3);
    let (resumed, resumed_log) = run(&resumed_cp, 8);
    assert_eq!(resumed, reference, "resumed report differs");
    assert_eq!(
        resumed_log, reference_log,
        "resumed redacted run log differs from uninterrupted"
    );
    assert_eq!(resumed_cp.records().expect("readable").len(), 6);
    let _ = std::fs::remove_dir_all(dir);
}

/// The default shard size on a fleet-sized journal: 70 batch records seal
/// two 32-record shards, no append rewrites more than one full shard plus
/// the manifest, and a crash at the second seal — at its shard write or at
/// its manifest write, torn or out of space — resumes to the uninterrupted
/// report.
#[test]
fn default_shard_fleet_journal_seals_and_resumes_across_a_seal() {
    let wb = Workbench::toy(707);
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    // 70 batches of 32 chips: two full 1 024-chip windows and a 192-chip
    // tail.
    let chips = SeededChips::new(FleetConfig {
        chips: 70 * 32,
        rows: 8,
        cols: 8,
        rates: RateDistribution::Uniform { lo: 0.0, hi: 0.2 },
        model: FaultModel::Random,
        seed: 9,
    });
    let dir = scratch_dir("default_shards");
    let exec = ExecConfig::new(2);
    let run = |cp: &Checkpoint| {
        FleetEvaluation::new(RetrainPolicy::Fixed(0), 0.85)
            .source(&chips)
            .journal(cp)
            .exec(&exec)
            .run(&runner, &pre)
    };

    // Uninterrupted reference, its artifact IO traced.
    let full = dir.join("full");
    let journal = full.join("journal.jsonl");
    let counter = Arc::new(FaultyIo::counting(&full));
    let (reference, io) = {
        let _guard = install_io_policy(IoPolicy::Faulty(counter.clone()));
        let cp = Checkpoint::create(&journal);
        let report = run(&cp).expect("clean run");
        (report, cp.io_stats().expect("journal stats"))
    };
    let health = inspect_journal(&journal).expect("inspect");
    assert_eq!(health.status, JournalStatus::Clean);
    assert_eq!(health.shard_records, DEFAULT_SHARD_RECORDS);
    assert_eq!((health.records, health.sealed_shards), (70, 2));

    // The largest append is a seal: one full shard, its footer and the
    // manifest (on disk it names both seals, the most it ever holds).
    let line_lens = |shard: usize| -> Vec<u64> {
        let text = std::fs::read_to_string(full.join(format!("journal-{shard:05}.jsonl")))
            .expect("shard file");
        text.lines().map(|l| l.len() as u64 + 1).collect()
    };
    let sealed = line_lens(0);
    let footer = *sealed.last().expect("sealed shard has a footer");
    let largest_record = (0..3)
        .flat_map(line_lens)
        .filter(|&len| len != footer)
        .max()
        .expect("records on disk");
    let manifest = std::fs::metadata(&journal).expect("manifest").len();
    let bound = DEFAULT_SHARD_RECORDS as u64 * largest_record + footer + manifest;
    assert!(
        io.max_append_bytes <= bound,
        "an append rewrote more than a shard: {} > {bound}",
        io.max_append_bytes
    );

    // The second seal writes shard 1 for the last time, then the manifest
    // for the last time. Crash at each rename: a torn rename publishes a
    // truncated file, ENOSPC leaves the previous one in place.
    let trace = counter.trace();
    let last_rename = |file: &str| -> u64 {
        trace
            .iter()
            .rposition(|(op, path)| {
                *op == IoOp::Rename && path.file_name().is_some_and(|n| n == file)
            })
            .expect("the file was renamed into place") as u64
    };
    let seal_writes = [
        ("shard", last_rename("journal-00001.jsonl")),
        ("manifest", last_rename("journal.jsonl")),
    ];
    for (write, at) in seal_writes {
        for kind in [FaultKind::Torn, FaultKind::Enospc] {
            let cut = dir.join(format!("cut-{write}-{}", kind.name()));
            let journal = cut.join("journal.jsonl");
            let io = Arc::new(FaultyIo::armed(&cut, 0xC0FFEE, at, kind));
            {
                let _guard = install_io_policy(IoPolicy::Faulty(io.clone()));
                assert!(
                    run(&Checkpoint::create(&journal)).is_err(),
                    "{} at the seal's {write} write must fail the run",
                    kind.name()
                );
            }
            assert!(io.fired(), "op {at} never executed");
            let resumed = Checkpoint::resume(&journal).expect("a crash at a seal heals");
            let kept = resumed.records().expect("readable").len();
            assert!(
                (DEFAULT_SHARD_RECORDS..=2 * DEFAULT_SHARD_RECORDS).contains(&kept),
                "{} at the seal's {write} write kept {kept} records",
                kind.name()
            );
            let report = run(&resumed).expect("resumed run");
            assert_eq!(
                report,
                reference,
                "{} at the seal's {write} write resumed to a different report",
                kind.name()
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Chaos + journal + resume compose: quarantined cells are journaled as
/// failures and replayed as failures, not retried forever.
#[test]
fn quarantined_cells_resume_as_quarantined() {
    let wb = Workbench::toy(705);
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let dir = scratch_dir("chaos_resume");
    let path = dir.join("journal.jsonl");

    let chaos = ChaosPolicy::fail_jobs(&[5]);
    let cp = Checkpoint::create(&path);
    let exec = ExecConfig::new(2).with_retry_budget(1).with_chaos(chaos);
    let first = ResilienceAnalysis::run_resumable(&runner, &pre, grid_config(), &exec, Some(&cp))
        .expect("contained failure");
    assert_eq!(first.failures().len(), 1);

    // Resume with NO chaos policy: the journaled quarantine replays as-is
    // (the journal is the record of what happened, not a retry queue).
    let resumed_cp = Checkpoint::resume(&path).expect("valid journal");
    assert_eq!(resumed_cp.records().expect("readable").len(), 6);
    let resumed = ResilienceAnalysis::run_resumable(
        &runner,
        &pre,
        grid_config(),
        &ExecConfig::new(2),
        Some(&resumed_cp),
    )
    .expect("pure replay");
    assert_eq!(resumed.points(), first.points());
    assert_eq!(resumed.failures(), first.failures());
    let _ = std::fs::remove_dir_all(dir);
}
