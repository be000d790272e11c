//! Regenerates **Fig. 2** of the paper: the resilience characterisation of
//! the DNN (Step ① of Reduce).
//!
//! * Part (a): accuracy vs fault rate at different amounts of fault-aware
//!   training;
//! * Part (b): epochs of FAT required at each fault rate to reach the
//!   accuracy constraint — min/mean/max over repeats (the error bars that
//!   motivate selecting by the max).
//!
//! ```text
//! cargo run -p reduce-bench --release --bin fig2 -- \
//!     [--scale smoke|default|full] [--part a|b|both] [--threads N] \
//!     [--csv DIR] [--table-out PATH] [--out DIR] [--redact-timing] \
//!     [--retries N] [--chaos-rate P] [--chaos-seed S] \
//!     [--resume DIR] \
//!     [--io-fault KIND@INDEX] [--io-fault-seed S]
//! ```
//!
//! `--threads N` fans the Step-① `(rate, repeat)` grid out over `N`
//! workers on the deterministic executor (`0` = auto-size from the
//! hardware); the printed curves, tables and CSV output are byte-identical
//! at any thread count. `--out DIR` additionally writes a JSON-lines
//! `run_log.jsonl`, a `manifest.json` and a `journal.jsonl` of completed
//! grid cells; with `--redact-timing` the log and manifest are
//! byte-identical at any thread count too (CI diffs them).
//!
//! Fault tolerance: `--retries N` retries each failing grid cell up to `N`
//! times with a deterministically derived retry seed before quarantining
//! it; `--chaos-rate P --chaos-seed S` injects seeded failures to exercise
//! that path. An interrupted run (e.g. killed by an `--io-fault` crash
//! point, below) is continued with `--resume DIR`: journaled cells are
//! replayed, only missing cells are computed, and the rewritten redacted
//! artifacts are byte-identical to an uninterrupted run's.
//!
//! Storage faults: `--io-fault KIND@INDEX` (with optional
//! `--io-fault-seed S`) injects one deterministic storage fault — `torn`,
//! `short`, `enospc` or `rename-fail` — at the `INDEX`-th artifact IO
//! operation inside the run directory, after which the artifact backend
//! stays offline (a simulated crash). The process exits with code **4**
//! when the fault fires; a subsequent `--resume` self-heals the journal
//! and completes the run.

use reduce_bench::{
    apply_fault_args, finish_io_fault, install_io_fault, open_journal, parse_args, resolve_run_dir,
    IoFault, Scale, FAULT_VALUE_KEYS,
};
use reduce_core::telemetry::{
    self, Fanout, GridManifest, MetricsRecorder, Observer, RunLog, RunManifest, Stage,
};
use reduce_core::{report, ExecConfig, FatRunner, ReduceError, ResilienceAnalysis};
use std::error::Error;
use std::io::Write;
use std::sync::Arc;

fn main() -> std::process::ExitCode {
    let mut fault = None;
    let result = run(&mut fault);
    finish_io_fault(result, fault)
}

fn run(fault: &mut Option<IoFault>) -> Result<(), Box<dyn Error>> {
    let out = &mut std::io::stdout().lock();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut value_keys = vec![
        "--scale",
        "--part",
        "--threads",
        "--csv",
        "--table-out",
        "--out",
    ];
    value_keys.extend(FAULT_VALUE_KEYS);
    let args = parse_args(&raw, &value_keys, &["--redact-timing"], 0)?;
    let scale = Scale::parse(args.value("--scale").unwrap_or("default"))?;
    let part = args.value("--part").unwrap_or("both").to_string();
    if !["a", "b", "both"].contains(&part.as_str()) {
        return Err(ReduceError::InvalidConfig {
            what: format!("unknown --part value {part:?} (expected a|b|both)"),
        }
        .into());
    }
    let threads = args.threads()?;
    let redact = args.flag("--redact-timing");
    let (out_dir, resuming) = resolve_run_dir(&args)?;
    *fault = install_io_fault(&args, out_dir.as_deref())?;

    let metrics = Arc::new(MetricsRecorder::new());
    let mut sinks: Vec<Arc<dyn Observer>> = vec![metrics.clone()];
    let run_log = match &out_dir {
        Some(dir) => {
            let log = Arc::new(RunLog::create(&dir.join("run_log.jsonl"), redact)?);
            sinks.push(log.clone());
            Some(log)
        }
        None => None,
    };
    let observer: Arc<dyn Observer> = Arc::new(Fanout::new(sinks));
    let exec = apply_fault_args(
        &args,
        ExecConfig::new(threads).with_observer(observer.clone()),
    )?;
    let journal = open_journal(out_dir.as_deref(), resuming)?;
    if resuming {
        if let Some(cp) = &journal {
            writeln!(
                out,
                "resuming from {} ({} grid cell(s) already journaled)\n",
                cp.path().display(),
                cp.records()?.len()
            )?;
        }
    }

    let workbench = scale.workbench(1);
    let config = scale.resilience_config()?;
    writeln!(
        out,
        "Fig. 2 — resilience characterisation ({scale:?} scale)\n\
         model/task: paper-scale substitution per DESIGN.md; constraint {:.0}%\n",
        config.constraint * 100.0
    )?;

    writeln!(
        out,
        "pre-training fault-free baseline ({} epochs)…",
        scale.pretrain_epochs()
    )?;
    let pretrained = telemetry::timed_stage(observer.as_ref(), Stage::Pretrain, || {
        workbench.pretrain(scale.pretrain_epochs())
    })?;
    writeln!(
        out,
        "baseline accuracy {:.2}%\n",
        pretrained.baseline_accuracy * 100.0
    )?;

    let runner = FatRunner::new(workbench)?;
    writeln!(
        out,
        "running {} rates × {} repeats × {} epochs ({} thread{})…",
        config.fault_rates.len(),
        config.repeats,
        config.max_epochs,
        threads,
        if threads == 1 { "" } else { "s" }
    )?;
    let max_epochs = config.max_epochs;
    let grid_manifest = GridManifest::from_config(&config);
    let analysis =
        ResilienceAnalysis::run_resumable(&runner, &pretrained, config, &exec, journal.as_ref())?;
    writeln!(out, "characterisation done\n")?;
    if !analysis.failures().is_empty() {
        writeln!(
            out,
            "quarantined grid cells (excluded from the summaries below):"
        )?;
        for f in analysis.failures() {
            writeln!(
                out,
                "  rate {:.4} repeat {} — {} attempt(s): {}",
                f.rate, f.repeat, f.attempts, f.error
            )?;
        }
        writeln!(out)?;
    }

    if part == "a" || part == "both" {
        writeln!(
            out,
            "— Fig. 2a: mean accuracy vs fault rate at each FAT level —"
        )?;
        let levels: Vec<usize> = [0usize, 1, 2, 4, 8, max_epochs]
            .into_iter()
            .filter(|&l| l <= max_epochs)
            .collect();
        writeln!(
            out,
            "{}",
            report::render_resilience_curves(&analysis, &levels)
        )?;
    }
    if part == "b" || part == "both" {
        writeln!(
            out,
            "— Fig. 2b: epochs to reach the constraint (min/mean/max over repeats) —"
        )?;
        writeln!(out, "{}", report::render_epochs_to_constraint(&analysis))?;
        writeln!(
            out,
            "paper's observation: the min–max spread widens with fault rate, so\n\
             selecting retraining amounts by the mean risks undertraining —\n\
             Reduce therefore uses the max (Fig. 3a vs 3b)."
        )?;
    }
    if let Some(dir) = args.value("--csv") {
        let (header, rows) = report::resilience_csv(&analysis);
        let path = std::path::Path::new(dir).join("fig2_resilience.csv");
        report::write_csv(&path, &header, &rows)?;
        writeln!(out, "raw points written to {}", path.display())?;
    }
    if let Some(path) = args.value("--table-out") {
        analysis.table().save(std::path::Path::new(path))?;
        writeln!(
            out,
            "resilience table saved to {path} (reusable via fig3 --table)"
        )?;
    }
    if let Some(dir) = &out_dir {
        let mut manifest = RunManifest::new("fig2", args.value("--scale").unwrap_or("default"));
        manifest.threads = if redact { None } else { Some(threads) };
        manifest.constraint = scale.constraint();
        manifest.workbench = format!("{:?}", scale.workbench(1).model);
        manifest.grid = Some(grid_manifest);
        // Workspace counters are deterministic per configuration, so the
        // manifest stays byte-identical across thread counts.
        manifest.workspace = metrics.snapshot().workspace;
        manifest.save(&dir.join("manifest.json"))?;
        writeln!(out, "run log and manifest written to {}", dir.display())?;
    }
    if let Some(log) = run_log {
        log.flush()?;
    }
    writeln!(out, "{}", metrics.render())?;
    Ok(())
}
