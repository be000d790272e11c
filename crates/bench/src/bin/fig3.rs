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
//!     [--chips N] [--threads N] [--table PATH] [--csv DIR] \
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
//! Large fleets: chips are always streamed from a seeded [`SeededChips`]
//! source and evaluated through the constant-memory [`FleetEvaluation`]
//! pipeline, so `--chips N` scales to 10⁵–10⁶ chips without materialising
//! the fleet. Per-chip outcomes are the one O(fleet) collection left:
//! only `--per-chip` and `--csv` keep them. Deploy throughput (chips/sec)
//! and `peak_rss_kb` are printed after the summary; `--out DIR` also
//! records the throughput in the manifest.
//!
//! Strategy comparison: `--strategy reduce|efat|fixed|all` pits whole
//! *retraining strategies* against each other on the same seeded fleet —
//! per-chip Reduce (max statistic), eFAT (the same policy with
//! fault-similarity clustering and warm-started members), and the
//! mid-range fixed budget — and replaces the Fig. 3f summary with a
//! cost table carrying cluster and warm-start accounting. Because the
//! mode picks its own policy list, it conflicts with `--policy`.

use reduce_bench::{
    apply_fault_args, finish_io_fault, install_io_fault, open_journal, parse_args, resolve_run_dir,
    IoFault, ParsedArgs, Scale, FAULT_VALUE_KEYS,
};
use reduce_core::telemetry::{
    self, Fanout, FleetManifest, GridManifest, MetricsRecorder, Observer, RunLog, RunManifest,
    Stage, Stopwatch, TableManifest, ThroughputManifest,
};
use reduce_core::{
    report, ExecConfig, FatRunner, FleetEvaluation, FleetStrategy, ReduceError, ResilienceAnalysis,
    ResilienceTable, RetrainPolicy, SeededChips, Statistic,
};
use reduce_systolic::ClusterConfig;
use std::error::Error;
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

/// Parses the chip count of `--chips`, naming the flag in the error. A
/// fleet needs at least one chip, so `0` is rejected here, before any
/// pre-training or characterisation runs.
fn chip_count(args: &ParsedArgs) -> Result<Option<usize>, ReduceError> {
    args.value("--chips")
        .map(|s| match s.parse() {
            Ok(0) | Err(_) => Err(ReduceError::InvalidConfig {
                what: format!("bad --chips value {s:?} (expected a chip count of at least 1)"),
            }),
            Ok(n) => Ok(n),
        })
        .transpose()
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
    let chips = chip_count(&args)?;
    if strategy_arg.is_some() && policy_arg.is_some() {
        // A strategy comparison picks its own policy list.
        return Err(ReduceError::InvalidConfig {
            what: "--strategy conflicts with --policy".to_string(),
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
    let pretrained = telemetry::timed_stage(observer.as_ref(), Stage::Pretrain, || {
        workbench.pretrain(scale.pretrain_epochs())
    })?;
    println!(
        "  baseline accuracy {:.2}%",
        pretrained.baseline_accuracy * 100.0
    );
    let runner = FatRunner::new(workbench)?;

    let needs_table = runs.iter().any(|(p, _)| p.needs_table());
    let (mut grid_manifest, mut table_manifest) = (None, None);
    let table = match args.value("--table") {
        Some(path) => {
            let table = ResilienceTable::load(std::path::Path::new(path))?;
            println!("step 1: resilience table loaded from {path} (characterisation skipped)");
            table_manifest = Some(TableManifest::of(&table));
            Some(table)
        }
        None if needs_table => {
            println!("step 1: resilience characterisation…");
            let config = scale.resilience_config()?;
            grid_manifest = Some(GridManifest::from_config(&config));
            let analysis = ResilienceAnalysis::run_resumable(
                &runner,
                &pretrained,
                config,
                &exec,
                journal.as_ref(),
            )?;
            println!(
                "  done  [{threads} thread{}]",
                if threads == 1 { "" } else { "s" }
            );
            Some(analysis.table())
        }
        None => None,
    };

    let fleet_config = scale.fleet_config(array, chips);
    // Chips are streamed from the seeded source — never materialised as a
    // Vec — so memory stays constant at any --chips without --per-chip/--csv.
    let source = SeededChips::new(fleet_config);
    let collect_outcomes = args.flag("--per-chip") || args.value("--csv").is_some();
    println!(
        "steps 2+3: retraining {} chips per policy (streamed)…\n",
        fleet_config.chips
    );

    let deploy_clock = Stopwatch::start();
    let mut reports = Vec::new();
    for (policy, fleet_strategy) in runs {
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
        let report = eval.run(&runner, &pretrained)?;
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
        manifest.table = table_manifest;
        manifest.policies = reports.iter().map(|r| r.policy.clone()).collect();
        // Workspace counters are deterministic per configuration, so the
        // manifest stays byte-identical across thread counts.
        manifest.workspace = metrics.snapshot().workspace;
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
