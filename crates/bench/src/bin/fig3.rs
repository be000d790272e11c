//! Regenerates **Fig. 3** of the paper: Reduce vs fixed-policy retraining
//! over a fleet of faulty chips.
//!
//! * (a) Reduce with the max statistic; (b) Reduce with the mean statistic;
//! * (c)–(e) fixed budgets (low/medium/high);
//! * (f) the summary: chips meeting the constraint vs total retraining
//!   epochs.
//!
//! ```text
//! cargo run -p reduce-bench --release --bin fig3 -- \
//!     [--scale smoke|default|full] [--policy reduce-max|reduce-mean|fixed:N|all] \
//!     [--strategy reduce|efat|fixed|all] \
//!     [--chips N | --fleet-size N] [--threads N] [--table PATH] [--csv DIR] \
//!     [--out DIR] [--redact-timing] [--cost] [--early-stop] [--per-chip] \
//!     [--retries N] [--chaos-rate P] [--chaos-seed S] \
//!     [--resume DIR] \
//!     [--io-fault KIND@INDEX] [--io-fault-seed S]
//! ```
//!
//! `--threads N` parallelises both the Step-① characterisation grid and
//! the per-chip fleet retraining on the deterministic executor (`0` =
//! auto-size); reports are byte-identical at any thread count. `--out DIR`
//! writes a JSON-lines `run_log.jsonl`, a `manifest.json` and a
//! `journal.jsonl` of completed grid cells and fleet batches; with
//! `--redact-timing` the log and manifest are byte-identical at any
//! thread count too.
//!
//! Fault tolerance: `--retries N` retries each failing grid cell / chip up
//! to `N` times with a deterministically derived retry seed before
//! quarantining it (a quarantined chip is reported, not fatal);
//! `--chaos-rate P --chaos-seed S` injects seeded failures to exercise
//! that path. An interrupted run (e.g. killed by an `--io-fault` crash
//! point) is continued with `--resume DIR`: journaled jobs are replayed
//! and only missing ones are computed. `--io-fault KIND@INDEX` (`torn`|`short`|`enospc`|
//! `rename-fail`, optional `--io-fault-seed S`) injects one deterministic
//! storage fault at the `INDEX`-th artifact IO operation in the run
//! directory and exits with code **4** when it fires — the crash half of
//! the storage-fault sweep; `--resume` then self-heals the journal.
//!
//! Large fleets: chips are streamed from a seeded [`SeededChips`] source
//! and evaluated through the constant-memory [`FleetEvaluation`] pipeline,
//! so `--fleet-size N` scales to 10⁵–10⁶ chips without materialising the
//! fleet. Because per-chip outcomes are the one O(fleet) collection left,
//! `--fleet-size` conflicts with `--per-chip` and `--csv` (and with
//! `--chips`, which it replaces). Deploy throughput (chips/sec) and
//! `peak_rss_kb` are printed after the summary, and a machine-readable
//! `BENCH_fleet.json` is written to the current directory.
//!
//! Strategy comparison: `--strategy reduce|efat|fixed|all` pits whole
//! *retraining strategies* against each other on the same seeded fleet —
//! per-chip Reduce (max statistic), eFAT (the same policy with
//! fault-similarity clustering and warm-started members), and the
//! mid-range fixed budget — and replaces the Fig. 3f summary with a
//! cost table carrying cluster and warm-start accounting. Because the
//! mode picks its own policy list, it conflicts with `--policy`.

use reduce_bench::{
    apply_fault_args, finish_io_fault, install_io_fault, open_journal, parse_args,
    reject_conflicts, resolve_run_dir, IoFault, Scale, FAULT_VALUE_KEYS,
};
use reduce_core::telemetry::{
    self, Fanout, FleetManifest, GridManifest, MetricsRecorder, Observer, RunLog, RunManifest,
    Stage, StageWorkspace, Stopwatch, ThroughputManifest,
};
use reduce_core::{
    artifact, report, ExecConfig, FleetEvaluation, FleetStrategy, Reduce, ReduceError,
    RetrainPolicy, SeededChips, Statistic,
};
use reduce_systolic::ClusterConfig;
use std::error::Error;
use std::path::Path;
use std::sync::Arc;

fn parse_policy(s: &str) -> Result<Vec<RetrainPolicy>, ReduceError> {
    match s {
        "reduce-max" => Ok(vec![RetrainPolicy::Reduce(Statistic::Max)]),
        "reduce-mean" => Ok(vec![RetrainPolicy::Reduce(Statistic::Mean)]),
        "all" => Ok(Vec::new()), // filled in per scale
        other => {
            if let Some(n) = other.strip_prefix("fixed:") {
                let epochs = n.parse().map_err(|_| ReduceError::InvalidConfig {
                    what: format!("bad fixed policy {other:?}"),
                })?;
                Ok(vec![RetrainPolicy::Fixed(epochs)])
            } else {
                Err(ReduceError::InvalidConfig {
                    what: format!("unknown policy {other:?} (reduce-max|reduce-mean|fixed:N|all)"),
                })
            }
        }
    }
}

/// Resolves `--strategy` into the `(policy, fleet strategy)` runs of the
/// Reduce-vs-eFAT-vs-fixed comparison. `mid` is the scale's mid-range
/// fixed budget, so the fixed baseline matches Fig. 3's panel (d).
fn parse_strategy(s: &str, mid: usize) -> Result<Vec<(RetrainPolicy, FleetStrategy)>, ReduceError> {
    let reduce = (
        RetrainPolicy::Reduce(Statistic::Max),
        FleetStrategy::PerChip,
    );
    let efat = (
        RetrainPolicy::Reduce(Statistic::Max),
        FleetStrategy::Clustered(ClusterConfig::default()),
    );
    let fixed = (RetrainPolicy::Fixed(mid), FleetStrategy::PerChip);
    match s {
        "reduce" => Ok(vec![reduce]),
        "efat" => Ok(vec![efat]),
        "fixed" => Ok(vec![fixed]),
        "all" => Ok(vec![reduce, efat, fixed]),
        other => Err(ReduceError::InvalidConfig {
            what: format!("unknown strategy {other:?} (reduce|efat|fixed|all)"),
        }),
    }
}

/// Renders the `BENCH_fleet.json` throughput document. Key order and
/// separators are fixed; numeric literals are the only run-to-run
/// variation, which the CI stage normalises away before diffing.
fn render_fleet_bench(
    chips: usize,
    seconds: f64,
    chips_per_sec: f64,
    aggregate_epochs: usize,
    peak_rss_kb: u64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"reduce-bench/fleet-throughput/v1\",\n");
    s.push_str(&format!("  \"chips\": {chips},\n"));
    s.push_str(&format!("  \"seconds\": {seconds:e},\n"));
    s.push_str(&format!("  \"chips_per_sec\": {chips_per_sec:e},\n"));
    s.push_str(&format!("  \"aggregate_epochs\": {aggregate_epochs},\n"));
    s.push_str(&format!("  \"peak_rss_kb\": {peak_rss_kb}\n"));
    s.push_str("}\n");
    s
}

fn main() -> std::process::ExitCode {
    let mut fault = None;
    let result = run(&mut fault);
    finish_io_fault(result, fault)
}

fn run(fault: &mut Option<IoFault>) -> Result<(), Box<dyn Error>> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut value_keys = vec![
        "--scale",
        "--policy",
        "--strategy",
        "--chips",
        "--fleet-size",
        "--threads",
        "--table",
        "--csv",
        "--out",
    ];
    value_keys.extend(FAULT_VALUE_KEYS);
    let args = parse_args(
        &raw,
        &value_keys,
        &["--cost", "--early-stop", "--per-chip", "--redact-timing"],
        0,
    )?;
    let scale = Scale::parse(args.value("--scale").unwrap_or("default"))?;
    let policy_arg = args.value("--policy").map(str::to_string);
    let strategy_arg = args.value("--strategy").map(str::to_string);
    let chips: Option<usize> = match args.value("--chips") {
        Some(s) => Some(s.parse()?),
        None => None,
    };
    let fleet_size: Option<usize> = match args.value("--fleet-size") {
        Some(s) => Some(s.parse()?),
        None => None,
    };
    // Streaming runs never collect the O(fleet) per-chip outcomes, and a
    // strategy comparison picks its own policy list.
    reject_conflicts(
        "--fleet-size",
        fleet_size.is_some(),
        &[
            ("--chips", chips.is_some()),
            ("--csv", args.value("--csv").is_some()),
            ("--per-chip", args.flag("--per-chip")),
        ],
    )?;
    reject_conflicts(
        "--strategy",
        strategy_arg.is_some(),
        &[("--policy", policy_arg.is_some())],
    )?;
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
            println!(
                "resuming from {} ({} job(s) already journaled)\n",
                cp.path().display(),
                cp.records()?.len()
            );
        }
    }

    let [lo, mid, hi] = scale.fixed_budgets();
    let runs: Vec<(RetrainPolicy, FleetStrategy)> = match &strategy_arg {
        Some(s) => parse_strategy(s, mid)?,
        None => {
            let mut policies = parse_policy(policy_arg.as_deref().unwrap_or("all"))?;
            if policies.is_empty() {
                policies = vec![
                    RetrainPolicy::Reduce(Statistic::Max),
                    RetrainPolicy::Reduce(Statistic::Mean),
                    RetrainPolicy::Fixed(lo),
                    RetrainPolicy::Fixed(mid),
                    RetrainPolicy::Fixed(hi),
                ];
            }
            policies
                .into_iter()
                .map(|p| (p, FleetStrategy::PerChip))
                .collect()
        }
    };

    let workbench = scale.workbench(1);
    let workbench_spec = format!("{:?}", workbench.model);
    let array = workbench.array_dims();
    let constraint = scale.constraint();
    println!(
        "Fig. 3 — policy comparison over a fleet ({scale:?} scale, constraint {:.0}%)\n",
        constraint * 100.0
    );

    println!("step 0: pre-training fault-free baseline…");
    let mut reduce = telemetry::timed_stage(observer.as_ref(), Stage::Pretrain, || {
        Reduce::new(workbench, constraint, scale.pretrain_epochs())
    })?;
    println!(
        "  baseline accuracy {:.2}%",
        reduce.pretrained().baseline_accuracy * 100.0
    );

    let needs_table = runs.iter().any(|(p, _)| p.needs_table());
    let loaded_table = match args.value("--table") {
        Some(path) => {
            let table = reduce_core::ResilienceTable::load(std::path::Path::new(path))?;
            println!("step 1: resilience table loaded from {path} (characterisation skipped)");
            Some(table)
        }
        None => None,
    };
    let mut grid_manifest = None;
    if needs_table && loaded_table.is_none() {
        println!("step 1: resilience characterisation…");
        let config = scale.resilience_config();
        grid_manifest = Some(GridManifest::from_config(&config));
        reduce.characterize_resumable(config, &exec, journal.as_ref())?;
        println!(
            "  done  [{threads} thread{}]",
            if threads == 1 { "" } else { "s" }
        );
    }

    let fleet_config = scale.fleet_config(array, chips.or(fleet_size));
    // Chips are streamed from the seeded source — never materialised as a
    // Vec — so memory stays constant at any --fleet-size.
    let source = SeededChips::new(fleet_config);
    let collect_outcomes = args.flag("--per-chip") || args.value("--csv").is_some();
    println!(
        "steps 2+3: retraining {} chips per policy (streamed)…\n",
        fleet_config.chips
    );

    let deploy_clock = Stopwatch::start();
    let mut reports = Vec::new();
    for (policy, fleet_strategy) in runs {
        let table = if policy.needs_table() {
            match &loaded_table {
                Some(t) => Some(t.clone()),
                None => Some(reduce.table()?),
            }
        } else {
            None
        };
        let mut eval = FleetEvaluation::new(policy, constraint)
            .source(&source)
            .fleet_strategy(fleet_strategy)
            .early_stop(args.flag("--early-stop"))
            .collect_outcomes(collect_outcomes)
            .exec(&exec);
        if args.flag("--cost") {
            eval = eval.cost_model(reduce_systolic::CostModel::small(array.0, array.1));
        }
        if let Some(table) = table.as_ref() {
            eval = eval.table(table);
        }
        if let Some(cp) = journal.as_ref() {
            eval = eval.journal(cp);
        }
        let report = eval.run(reduce.runner(), reduce.pretrained())?;
        let quarantined = if report.quarantined.is_empty() {
            String::new()
        } else {
            format!("  quarantined {:>3}", report.quarantined.len())
        };
        println!(
            "{:<22} satisfied {:>3}/{:<3}  total epochs {:>5}{}",
            report.policy, report.satisfied, report.evaluated, report.total_epochs, quarantined,
        );
        if args.flag("--per-chip") {
            println!("{}", report::render_fleet_chips(&report));
        }
        reports.push(report);
    }
    let deploy_seconds = deploy_clock.seconds();
    let deployed_chips: usize = reports
        .iter()
        .map(|r| r.evaluated + r.quarantined_count())
        .sum();
    let chips_per_sec = if deploy_seconds > 0.0 {
        deployed_chips as f64 / deploy_seconds
    } else {
        0.0
    };
    println!(
        "\ndeploy throughput: {deployed_chips} chips in {deploy_seconds:.2}s = \
         {chips_per_sec:.1} chips/sec"
    );
    let rss_kb = peak_rss_kb();
    if let Some(kb) = rss_kb {
        println!("peak_rss_kb={kb}");
    }
    if fleet_size.is_some() {
        let aggregate_epochs: usize = reports.iter().map(|r| r.total_epochs).sum();
        let doc = render_fleet_bench(
            deployed_chips,
            deploy_seconds,
            chips_per_sec,
            aggregate_epochs,
            rss_kb.unwrap_or(0),
        );
        artifact::write_atomic(Path::new("BENCH_fleet.json"), &doc)?;
        println!("fleet throughput written to BENCH_fleet.json");
    }

    if strategy_arg.is_some() {
        println!("\n— strategy comparison (Reduce vs eFAT vs fixed) —");
        println!("{}", report::render_strategy_comparison(&reports));
    } else {
        println!("\n— Fig. 3f summary —");
        println!("{}", report::render_fleet_summary(&reports));
    }
    if args.flag("--cost") {
        let cm = reduce_systolic::CostModel::small(array.0, array.1);
        println!("accelerator-side retraining cost (cost-model estimate):");
        for r in &reports {
            if let Some(cycles) = r.retrain_cycles {
                println!(
                    "  {:<22} {:>16} cycles  = {:>8.2} s on-chip",
                    r.policy,
                    cycles,
                    cm.cycles_to_seconds(cycles)
                );
            }
        }
        println!();
    }
    println!("total retraining epochs (lower is better at equal yield):");
    let bars: Vec<(String, f64)> = reports
        .iter()
        .map(|r| (r.policy.clone(), r.total_epochs as f64))
        .collect();
    println!("{}", report::render_bars(&bars, 40));
    println!("chips meeting the {:.0}% constraint:", constraint * 100.0);
    let bars: Vec<(String, f64)> = reports
        .iter()
        .map(|r| (r.policy.clone(), r.satisfied as f64))
        .collect();
    println!("{}", report::render_bars(&bars, 40));
    if let Some(dir) = args.value("--csv") {
        for r in &reports {
            let (header, rows) = report::fleet_csv(r);
            let slug: String = r
                .policy
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            let path = std::path::Path::new(dir).join(format!("fig3_{slug}.csv"));
            report::write_csv(&path, &header, &rows)?;
            println!("per-chip rows written to {}", path.display());
        }
    }
    if let Some(dir) = &out_dir {
        let mut manifest = RunManifest::new("fig3", args.value("--scale").unwrap_or("default"));
        manifest.threads = if redact { None } else { Some(threads) };
        manifest.constraint = constraint;
        manifest.workbench = workbench_spec;
        manifest.grid = grid_manifest;
        manifest.policies = reports.iter().map(|r| r.policy.clone()).collect();
        // Workspace counters are deterministic per configuration, so the
        // manifest stays byte-identical across thread counts.
        manifest.workspace = metrics
            .snapshot()
            .workspace
            .iter()
            .map(|(stage, w)| StageWorkspace {
                stage: stage.clone(),
                hits: w.hits,
                misses: w.misses,
                bytes_allocated: w.bytes_allocated,
            })
            .collect();
        manifest.throughput = if redact {
            None
        } else {
            Some(ThroughputManifest {
                chips: deployed_chips,
                seconds: deploy_seconds,
                chips_per_sec,
            })
        };
        manifest.fleet = Some(FleetManifest::from_config(&fleet_config));
        manifest.save(&dir.join("manifest.json"))?;
        println!("run log and manifest written to {}", dir.display());
    }
    if let Some(log) = run_log {
        log.flush()?;
    }
    println!("{}", metrics.render());
    Ok(())
}

/// Peak resident-set size in kB (`VmHWM` from `/proc/self/status`), if
/// the platform exposes it — the large-fleet CI gate asserts constant
/// memory with it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
