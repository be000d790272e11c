//! # reduce-bench
//!
//! Experiment drivers for the Reduce reproduction: the figure-regeneration
//! binaries (`fig2`, `fig3`, `ablation`) share the presets and argument
//! handling defined here, and [`kernels`] is the GEMM kernel-comparison
//! harness behind `gemm_bench`. Every binary writes its stdout through
//! `writeln!` and propagates the error, so a reader that closes the pipe
//! early ends the run with exit code 1, not a panic.
//!
//! Every experiment runs at one of three [`Scale`]s:
//!
//! * `smoke` — the toy MLP workbench; seconds; used by CI and `--scale
//!   smoke`;
//! * `default` — the paper-scale nano-VGG workbench at sizes that finish in
//!   minutes on a laptop CPU;
//! * `full` — larger datasets/fleets for tighter statistics (tens of
//!   minutes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;

use reduce_core::artifact::{install_io_policy, FaultKind, FaultyIo, IoPolicy, IoPolicyGuard};
use reduce_core::exec::ChaosPolicy;
use reduce_core::telemetry::{Event, Observer};
use reduce_core::{Checkpoint, ExecConfig, ReduceError, ResilienceConfig, Workbench};
use reduce_systolic::{FaultModel, FleetConfig, RateDistribution};
use std::path::PathBuf;
use std::sync::Arc;

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Toy workbench, seconds.
    Smoke,
    /// Paper-scale workbench, minutes.
    #[default]
    Default,
    /// Paper-scale workbench, tens of minutes.
    Full,
}

impl Scale {
    /// Parses `smoke`/`default`/`full`.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] for anything else.
    pub fn parse(s: &str) -> Result<Self, ReduceError> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "default" => Ok(Scale::Default),
            "full" => Ok(Scale::Full),
            other => Err(ReduceError::InvalidConfig {
                what: format!("unknown scale {other:?} (expected smoke|default|full)"),
            }),
        }
    }

    /// The workbench this scale runs on.
    pub fn workbench(&self, seed: u64) -> Workbench {
        match self {
            Scale::Smoke => Workbench::toy(seed),
            Scale::Default => Workbench::paper_scale(500, 500, seed),
            Scale::Full => Workbench::paper_scale(1500, 1000, seed),
        }
    }

    /// Pre-training epochs for the fault-free baseline.
    pub fn pretrain_epochs(&self) -> usize {
        match self {
            Scale::Smoke => 15,
            Scale::Default => 40,
            Scale::Full => 60,
        }
    }

    /// The accuracy constraint (the paper uses 91 %).
    pub fn constraint(&self) -> f32 {
        match self {
            Scale::Smoke => 0.90,
            Scale::Default | Scale::Full => 0.91,
        }
    }

    /// The Step-① characterisation grid.
    ///
    /// # Errors
    ///
    /// Propagates the builder's [`ReduceError::InvalidConfig`]; the
    /// presets are valid, so this fires only if a preset is edited into
    /// an invalid grid.
    pub fn resilience_config(&self) -> Result<ResilienceConfig, ReduceError> {
        let builder = match self {
            Scale::Smoke => ResilienceConfig::builder()
                .max_rate(0.3)
                .points(4)
                .max_epochs(8)
                .repeats(2)
                .constraint(self.constraint()),
            Scale::Default => ResilienceConfig::builder()
                .fault_rates(vec![0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30])
                .max_epochs(16)
                .repeats(5)
                .constraint(self.constraint()),
            Scale::Full => ResilienceConfig::builder()
                .fault_rates(vec![0.0, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30])
                .max_epochs(20)
                .repeats(5)
                .constraint(self.constraint()),
        };
        builder.build()
    }

    /// The Fig. 3 fleet (the paper evaluates 100 chips).
    pub fn fleet_config(&self, array: (usize, usize), chips: Option<usize>) -> FleetConfig {
        let default_chips = match self {
            Scale::Smoke => 12,
            Scale::Default | Scale::Full => 100,
        };
        FleetConfig {
            chips: chips.unwrap_or(default_chips),
            rows: array.0,
            cols: array.1,
            rates: RateDistribution::Uniform { lo: 0.0, hi: 0.3 },
            model: FaultModel::Random,
            seed: 0xF1EE7,
        }
    }

    /// The fixed-policy epoch budgets compared in Fig. 3c–e
    /// (low / medium / high).
    pub fn fixed_budgets(&self) -> [usize; 3] {
        match self {
            Scale::Smoke => [1, 3, 8],
            Scale::Default => [1, 5, 12],
            Scale::Full => [1, 6, 16],
        }
    }
}

/// The fault-tolerance options shared by the experiment binaries; splice
/// into the `value_keys` of [`parse_args`].
///
/// * `--retries N` — per-job retry budget before quarantine (default 0);
/// * `--chaos-rate P` / `--chaos-seed S` — seeded deterministic fault
///   injection: each `(job, attempt)` fails with probability `P`;
/// * `--out DIR` (declared by each binary) — also journals completed jobs
///   to `DIR/journal.jsonl`;
/// * `--resume DIR` — replay `DIR/journal.jsonl`, run only missing jobs,
///   and rewrite the artifacts in `DIR` (conflicts with `--out`; pass the
///   same remaining flags as the interrupted run);
/// * `--io-fault KIND@INDEX` / `--io-fault-seed S` — inject one storage
///   fault (`torn`, `short`, `enospc` or `rename-fail`) at the `INDEX`-th
///   artifact IO operation inside the run directory, after which the
///   backend stays offline — an ALICE-style crash point, and the
///   deterministic mid-run "kill" for crash testing. The binary exits
///   with code 4 when the fault fires, or prints `io-fault: unfired` to
///   stderr when `INDEX` lies beyond the run's operation count.
pub const FAULT_VALUE_KEYS: [&str; 6] = [
    "--resume",
    "--retries",
    "--chaos-rate",
    "--chaos-seed",
    "--io-fault",
    "--io-fault-seed",
];

/// Resolves the run directory from `--out` / `--resume`.
///
/// Returns `(dir, resuming)`: `--resume DIR` implies the run directory is
/// `DIR` and existing journal entries are replayed.
///
/// # Errors
///
/// Returns [`ReduceError::InvalidConfig`] when both `--out` and
/// `--resume` are given.
pub fn resolve_run_dir(args: &ParsedArgs) -> Result<(Option<PathBuf>, bool), ReduceError> {
    match (args.value("--out"), args.value("--resume")) {
        (Some(_), Some(_)) => Err(ReduceError::InvalidConfig {
            what: "--out conflicts with --resume (resume rewrites the artifacts in its own \
                   directory)"
                .to_string(),
        }),
        (Some(out), None) => Ok((Some(PathBuf::from(out)), false)),
        (None, Some(dir)) => Ok((Some(PathBuf::from(dir)), true)),
        (None, None) => Ok((None, false)),
    }
}

/// Applies `--retries` / `--chaos-rate` / `--chaos-seed` to an executor
/// config.
///
/// # Errors
///
/// Returns [`ReduceError::InvalidConfig`] for non-numeric values, a rate
/// outside `[0, 1]`, or `--chaos-seed` without `--chaos-rate`.
pub fn apply_fault_args(
    args: &ParsedArgs,
    mut exec: ExecConfig,
) -> Result<ExecConfig, ReduceError> {
    if let Some(s) = args.value("--retries") {
        let budget: u32 = s.parse().map_err(|_| ReduceError::InvalidConfig {
            what: format!("bad --retries value {s:?} (expected a count)"),
        })?;
        exec = exec.with_retry_budget(budget);
    }
    match (args.value("--chaos-rate"), args.value("--chaos-seed")) {
        (Some(rate), seed) => {
            let rate: f64 = rate.parse().map_err(|_| ReduceError::InvalidConfig {
                what: format!("bad --chaos-rate value {rate:?} (expected a probability)"),
            })?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(ReduceError::InvalidConfig {
                    what: format!("--chaos-rate {rate} not in [0, 1]"),
                });
            }
            let seed: u64 = match seed {
                Some(s) => s.parse().map_err(|_| ReduceError::InvalidConfig {
                    what: format!("bad --chaos-seed value {s:?} (expected a u64)"),
                })?,
                None => 0,
            };
            exec = exec.with_chaos(ChaosPolicy::seeded(seed, rate));
        }
        (None, Some(_)) => {
            return Err(ReduceError::InvalidConfig {
                what: "--chaos-seed without --chaos-rate has no effect".to_string(),
            })
        }
        (None, None) => {}
    }
    Ok(exec)
}

/// A deterministic storage fault armed from `--io-fault`, alive for the
/// duration of the run. Dropping it uninstalls the injection policy.
pub struct IoFault {
    _guard: IoPolicyGuard,
    /// The injection backend, for querying [`FaultyIo::fired`] /
    /// [`FaultyIo::ops_seen`] at exit.
    pub io: Arc<FaultyIo>,
    kind: FaultKind,
    index: u64,
}

/// Parses `--io-fault KIND@INDEX` (+ optional `--io-fault-seed S`) and
/// installs the fault-injecting IO policy, scoped to the run directory.
/// `None` when the flag is absent.
///
/// # Errors
///
/// Returns [`ReduceError::InvalidConfig`] for a malformed spec, a seed
/// without `--io-fault`, or `--io-fault` without a run directory.
pub fn install_io_fault(
    args: &ParsedArgs,
    dir: Option<&std::path::Path>,
) -> Result<Option<IoFault>, ReduceError> {
    let Some(spec) = args.value("--io-fault") else {
        if args.value("--io-fault-seed").is_some() {
            return Err(ReduceError::InvalidConfig {
                what: "--io-fault-seed without --io-fault has no effect".to_string(),
            });
        }
        return Ok(None);
    };
    let Some(dir) = dir else {
        return Err(ReduceError::InvalidConfig {
            what: "--io-fault needs a run directory (pass --out or --resume)".to_string(),
        });
    };
    let (kind, index) = spec
        .split_once('@')
        .ok_or_else(|| ReduceError::InvalidConfig {
            what: format!("bad --io-fault value {spec:?} (expected KIND@INDEX)"),
        })?;
    let kind = FaultKind::parse(kind)?;
    let index: u64 = index.parse().map_err(|_| ReduceError::InvalidConfig {
        what: format!("bad --io-fault index in {spec:?} (expected a count)"),
    })?;
    let seed: u64 = match args.value("--io-fault-seed") {
        Some(s) => s.parse().map_err(|_| ReduceError::InvalidConfig {
            what: format!("bad --io-fault-seed value {s:?} (expected a u64)"),
        })?,
        None => 0xC0FFEE,
    };
    let io = Arc::new(FaultyIo::armed(dir, seed, index, kind));
    let guard = install_io_policy(IoPolicy::Faulty(io.clone()));
    Ok(Some(IoFault {
        _guard: guard,
        io,
        kind,
        index,
    }))
}

/// Converts a run's outcome plus its armed [`IoFault`] into the process
/// exit code: **4** when the injected fault fired (the simulated crash —
/// whatever error it surfaced as), **0** on success, **1** on an ordinary
/// error. An armed-but-unfired fault prints `io-fault: unfired` to stderr
/// so sweep harnesses know the op index lies beyond the run.
pub fn finish_io_fault(
    result: Result<(), Box<dyn std::error::Error>>,
    fault: Option<IoFault>,
) -> std::process::ExitCode {
    if let Some(fault) = &fault {
        if fault.io.fired() {
            eprintln!(
                "io-fault: injected {} at op {} fired; exiting as crashed",
                fault.kind.name(),
                fault.index
            );
            return std::process::ExitCode::from(4);
        }
        eprintln!(
            "io-fault: unfired ({} beyond the run's {} artifact IO op(s))",
            fault.index,
            fault.io.ops_seen()
        );
    }
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(1)
        }
    }
}

/// Routes journal self-healing telemetry to stderr. Heal events must
/// never reach `run_log.jsonl`: the run log is byte-diffed against
/// uninterrupted reference runs in CI, and healing is a property of the
/// crash being recovered from, not of the workload.
pub struct HealNotices;

impl Observer for HealNotices {
    fn on_event(&self, event: &Event) {
        match event {
            Event::ShardTruncated {
                shard,
                kept,
                dropped_bytes,
            } => eprintln!(
                "journal heal: shard {shard} truncated to {kept} record(s) \
                 ({dropped_bytes} B of damaged tail dropped)"
            ),
            Event::RecordDropped { shard, record } => {
                eprintln!("journal heal: dropped shard {shard} record {record}");
            }
            _ => {}
        }
    }
}

/// Opens the journal for a run directory: fresh for `--out`, replayed for
/// `--resume`. `None` when the run has no directory (nothing to
/// checkpoint into). Resume verifies the journal and self-heals tail
/// damage, reporting heals on stderr via [`HealNotices`].
///
/// # Errors
///
/// Returns [`ReduceError::InvalidConfig`] for an unreadable journal, and
/// [`ReduceError::JournalCorrupt`] for damage `journal-tool repair` must
/// clear first (a pre-v3 journal is refused this way too).
pub fn open_journal(
    dir: Option<&std::path::Path>,
    resuming: bool,
) -> Result<Option<Checkpoint>, ReduceError> {
    let Some(dir) = dir else {
        return Ok(None);
    };
    let path = dir.join("journal.jsonl");
    Ok(Some(if resuming {
        Checkpoint::resume_observed(&path, &HealNotices)?
    } else {
        Checkpoint::create(&path)
    }))
}

/// Strictly parsed command-line arguments for the experiment binaries.
///
/// Produced by [`parse_args`], which — unlike the silent helpers it
/// replaced — rejects unknown `--flags`, so a typo like `--treads 4` is
/// an error instead of an accidentally sequential run.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    values: Vec<(String, String)>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

impl ParsedArgs {
    /// The value of `--key value` / `--key=value`, if present.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the bare flag `key` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The `i`-th positional argument, if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Parses `--threads N`: defaults to `1` (sequential); `0` asks the
    /// executor to auto-size from the available hardware parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] for a non-numeric value or
    /// a count above [`MAX_THREADS`] — a mistyped `--threads 40000`
    /// should fail here, not when the executor tries to spawn that many
    /// workers.
    pub fn threads(&self) -> Result<usize, ReduceError> {
        match self.value("--threads") {
            Some(s) => {
                let n: usize = s.parse().map_err(|_| ReduceError::InvalidConfig {
                    what: format!("bad --threads value {s:?} (expected a count; 0 = auto)"),
                })?;
                if n > MAX_THREADS {
                    return Err(ReduceError::InvalidConfig {
                        what: format!(
                            "--threads {n} out of range (0 = auto, at most {MAX_THREADS})"
                        ),
                    });
                }
                Ok(n)
            }
            None => Ok(1),
        }
    }
}

/// Upper bound accepted by [`ParsedArgs::threads`]: generous for any
/// machine this framework targets, small enough that a mistyped value is
/// caught at the command line.
pub const MAX_THREADS: usize = 512;

/// Parses an argument list against an explicit grammar: `value_keys` take
/// a value (`--key value` or `--key=value`), `flag_keys` are bare
/// booleans, and at most `max_positionals` non-flag arguments are
/// accepted. Anything else — an unknown `--option`, a value-less value
/// key, a repeated option (first-wins lookups would otherwise silently
/// drop the later value), or an extra positional — is an error.
///
/// # Errors
///
/// Returns [`ReduceError::InvalidConfig`] naming the offending argument
/// and listing the accepted options.
pub fn parse_args(
    raw: &[String],
    value_keys: &[&str],
    flag_keys: &[&str],
    max_positionals: usize,
) -> Result<ParsedArgs, ReduceError> {
    let grammar = || {
        let mut opts: Vec<&str> = value_keys.iter().chain(flag_keys).copied().collect();
        opts.sort_unstable();
        opts.join(", ")
    };
    let mut parsed = ParsedArgs::default();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        if let Some(rest) = arg.strip_prefix("--") {
            let (key_body, inline) = match rest.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (rest, None),
            };
            let key = format!("--{key_body}");
            if value_keys.contains(&key.as_str()) {
                if parsed.values.iter().any(|(k, _)| *k == key) {
                    return Err(ReduceError::InvalidConfig {
                        what: format!("duplicate option {key} (accepted: {})", grammar()),
                    });
                }
                let value = match inline {
                    Some(v) => v.to_string(),
                    None => it
                        .next()
                        .cloned()
                        .ok_or_else(|| ReduceError::InvalidConfig {
                            what: format!("{key} needs a value"),
                        })?,
                };
                parsed.values.push((key, value));
            } else if flag_keys.contains(&key.as_str()) {
                if inline.is_some() {
                    return Err(ReduceError::InvalidConfig {
                        what: format!("{key} is a flag and takes no value"),
                    });
                }
                if parsed.flags.contains(&key) {
                    return Err(ReduceError::InvalidConfig {
                        what: format!("duplicate option {key} (accepted: {})", grammar()),
                    });
                }
                parsed.flags.push(key);
            } else {
                return Err(ReduceError::InvalidConfig {
                    what: format!("unknown option {arg:?} (accepted: {})", grammar()),
                });
            }
        } else {
            if parsed.positionals.len() >= max_positionals {
                return Err(ReduceError::InvalidConfig {
                    what: format!("unexpected argument {arg:?} (accepted: {})", grammar()),
                });
            }
            parsed.positionals.push(arg.clone());
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("smoke").expect("known"), Scale::Smoke);
        assert_eq!(Scale::parse("default").expect("known"), Scale::Default);
        assert_eq!(Scale::parse("full").expect("known"), Scale::Full);
        assert!(Scale::parse("big").is_err());
    }

    #[test]
    fn presets_are_consistent() {
        for scale in [Scale::Smoke, Scale::Default, Scale::Full] {
            let wb = scale.workbench(1);
            let rc = scale.resilience_config().expect("valid preset");
            assert!(!rc.fault_rates.is_empty());
            assert!(rc.max_epochs > 0);
            assert!(scale.constraint() > 0.5);
            let fc = scale.fleet_config(wb.array_dims(), None);
            assert!(fc.chips > 0);
            assert_eq!((fc.rows, fc.cols), wb.array_dims());
            let budgets = scale.fixed_budgets();
            assert!(budgets[0] < budgets[1] && budgets[1] < budgets[2]);
        }
    }

    fn to_args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_accepts_the_declared_grammar() {
        let parsed = parse_args(
            &to_args(&["--scale", "smoke", "--csv=out.csv", "--flag", "study"]),
            &["--scale", "--csv"],
            &["--flag"],
            1,
        )
        .expect("valid arguments");
        assert_eq!(parsed.value("--scale"), Some("smoke"));
        assert_eq!(parsed.value("--csv"), Some("out.csv"));
        assert_eq!(parsed.value("--missing"), None);
        assert!(parsed.flag("--flag"));
        assert!(!parsed.flag("--other"));
        assert_eq!(parsed.positional(0), Some("study"));
        assert_eq!(parsed.positional(1), None);
    }

    #[test]
    fn parse_args_rejects_unknown_and_malformed_options() {
        // The typo that motivated strict parsing: --treads must error.
        let err = parse_args(&to_args(&["--treads", "4"]), &["--threads"], &[], 0)
            .expect_err("typo rejected");
        assert!(err.to_string().contains("--treads"));
        assert!(err.to_string().contains("--threads"), "lists accepted opts");
        // A value key with no value.
        assert!(parse_args(&to_args(&["--scale"]), &["--scale"], &[], 0).is_err());
        // A flag given a value.
        assert!(parse_args(&to_args(&["--flag=x"]), &[], &["--flag"], 0).is_err());
        // Too many positionals.
        assert!(parse_args(&to_args(&["a", "b"]), &[], &[], 1).is_err());
    }

    #[test]
    fn parse_args_rejects_duplicate_options() {
        // Lookups are first-wins, so a repeated option would silently drop
        // the later value; it must be an error in the standard format.
        let err = parse_args(
            &to_args(&["--scale", "smoke", "--scale", "full"]),
            &["--scale", "--threads"],
            &["--flag"],
            0,
        )
        .expect_err("duplicate value key rejected");
        assert!(err.to_string().contains("duplicate option --scale"));
        assert!(err.to_string().contains("accepted:"), "lists accepted opts");
        assert!(err.to_string().contains("--threads"), "lists accepted opts");
        // Mixed spellings (`--k v` then `--k=v`) are still duplicates.
        assert!(parse_args(
            &to_args(&["--scale", "smoke", "--scale=full"]),
            &["--scale"],
            &[],
            0
        )
        .is_err());
        // Repeated bare flags too.
        let err = parse_args(&to_args(&["--flag", "--flag"]), &[], &["--flag"], 0)
            .expect_err("duplicate flag rejected");
        assert!(err.to_string().contains("duplicate option --flag"));
        assert!(err.to_string().contains("accepted:"));
    }

    #[test]
    fn threads_arg() {
        let parse =
            |v: &[&str]| parse_args(&to_args(v), &["--threads"], &[], 0).and_then(|p| p.threads());
        assert_eq!(parse(&[]).expect("default"), 1);
        assert_eq!(parse(&["--threads", "4"]).expect("numeric"), 4);
        assert_eq!(parse(&["--threads", "0"]).expect("auto"), 0);
        assert_eq!(parse(&["--threads=2"]).expect("inline"), 2);
        assert!(parse(&["--threads", "many"]).is_err());
        // Range bound: the top of the range is fine, overflow is not.
        assert_eq!(parse(&["--threads", "512"]).expect("at bound"), MAX_THREADS);
        let err = parse(&["--threads", "40000"]).expect_err("overflow rejected");
        assert!(err.to_string().contains("out of range"));
        assert!(err.to_string().contains("40000"));
    }

    #[test]
    fn fleet_chip_override() {
        let fc = Scale::Default.fleet_config((32, 32), Some(7));
        assert_eq!(fc.chips, 7);
    }

    fn fault_parse(v: &[&str]) -> Result<ParsedArgs, ReduceError> {
        let mut keys = vec!["--out"];
        keys.extend(FAULT_VALUE_KEYS);
        parse_args(&to_args(v), &keys, &[], 0)
    }

    #[test]
    fn fault_args_wire_the_executor() {
        let args = fault_parse(&["--retries", "2", "--chaos-rate", "0.5", "--chaos-seed", "9"])
            .expect("valid");
        let exec = apply_fault_args(&args, ExecConfig::default()).expect("valid values");
        assert_eq!(exec.retry_budget(), 2);
        assert!(exec.chaos().is_some());
        // Defaults: no retries, no chaos.
        let exec = apply_fault_args(&fault_parse(&[]).expect("valid"), ExecConfig::default())
            .expect("empty is fine");
        assert_eq!(exec.retry_budget(), 0);
        assert!(exec.chaos().is_none());
        // Malformed values and a seed without a rate are errors.
        let bad = fault_parse(&["--retries", "many"]).expect("parses as strings");
        assert!(apply_fault_args(&bad, ExecConfig::default()).is_err());
        let bad = fault_parse(&["--chaos-rate", "1.5"]).expect("parses as strings");
        assert!(apply_fault_args(&bad, ExecConfig::default()).is_err());
        let bad = fault_parse(&["--chaos-seed", "9"]).expect("parses as strings");
        assert!(apply_fault_args(&bad, ExecConfig::default()).is_err());
    }

    #[test]
    fn resume_conflicts_with_out() {
        let args = fault_parse(&["--out", "a", "--resume", "b"]).expect("parses as strings");
        assert!(resolve_run_dir(&args).is_err());
        let (dir, resuming) = resolve_run_dir(&fault_parse(&["--resume", "b"]).expect("valid"))
            .expect("resume alone is fine");
        assert_eq!(dir, Some(PathBuf::from("b")));
        assert!(resuming);
        let (dir, resuming) = resolve_run_dir(&fault_parse(&["--out", "a"]).expect("valid"))
            .expect("out alone is fine");
        assert_eq!(dir, Some(PathBuf::from("a")));
        assert!(!resuming);
    }

    #[test]
    fn io_fault_args_parse_and_validate() {
        use std::path::Path;
        // Well-formed spec with a run dir installs the policy.
        let args = fault_parse(&["--io-fault", "torn@3", "--io-fault-seed", "7"]).expect("valid");
        let fault = install_io_fault(&args, Some(Path::new("/tmp/run")))
            .expect("valid spec")
            .expect("installed");
        assert!(!fault.io.fired());
        drop(fault); // uninstalls; later tests may install their own
                     // Every documented kind parses.
        for kind in ["torn", "short", "enospc", "rename-fail"] {
            let args = fault_parse(&["--io-fault", &format!("{kind}@0")]).expect("valid");
            assert!(install_io_fault(&args, Some(Path::new("/tmp/run")))
                .expect("valid spec")
                .is_some());
        }
        // Absent flag is a no-op.
        let args = fault_parse(&[]).expect("valid");
        assert!(install_io_fault(&args, Some(Path::new("/tmp/run")))
            .expect("absent is fine")
            .is_none());
        // Malformed specs are errors.
        for bad in ["torn", "torn@", "torn@many", "sideways@3", "@3"] {
            let args = fault_parse(&["--io-fault", bad]).expect("parses as strings");
            assert!(
                install_io_fault(&args, Some(Path::new("/tmp/run"))).is_err(),
                "{bad:?} must be rejected"
            );
        }
        // A seed without a fault, and a fault without a run dir.
        let args = fault_parse(&["--io-fault-seed", "7"]).expect("parses as strings");
        assert!(install_io_fault(&args, Some(Path::new("/tmp/run"))).is_err());
        let args = fault_parse(&["--io-fault", "torn@3"]).expect("parses as strings");
        assert!(install_io_fault(&args, None).is_err());
    }
}
