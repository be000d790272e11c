//! End-to-end and per-layer benchmark of the Reduce pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload characterize-vgg|fleet-vgg-efat|fleet-fap-resume \
//!     [--seed N] [--seconds S] [--trace 0|1] [--bless]
//! ```
//!
//! Each workload is a closed batch run driven through the public entry
//! points `fig2`/`fig3` call: the whole input set is generated from
//! `--seed` up front, the executor pulls the next job when a worker frees
//! up, and the batch ("round") is repeated until `--seconds` of measured
//! time have passed. Every round's outputs are checked — bit for bit
//! against `perfbench/expected/<workload>.txt` at the recorded seed,
//! against invariants and against the first round on any other seed.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` a separate traced run times the calls into each
//! layer's public functions from this crate (see `trace.rs`) and reports
//! the per-layer metrics instead. `--bless` rewrites the expected-output
//! file from this run (recorded seed only).

mod check;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The recorded seed: at this seed the inputs are exactly the
/// `fig2`/`fig3` default-scale inputs, and outputs are compared with the
/// files in `perfbench/expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// Command-line settings shared by every workload.
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bless: bool,
    /// The benchmark's own directory (expected outputs, checked-in table).
    pub home: PathBuf,
    /// Scratch space for journals, inside the checkout.
    pub scratch: PathBuf,
}

impl Settings {
    pub fn recorded_seed(&self) -> bool {
        self.seed == DEFAULT_SEED
    }
}

/// One reported metric.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// What a workload run hands back for printing.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Human-readable configuration lines (the config block).
    pub config: Vec<(String, String)>,
    /// Human-readable result lines printed before the JSON line.
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn usage() -> String {
    "usage: reduce-perfbench --workload characterize-vgg|fleet-vgg-efat|fleet-fap-resume \
     [--seed N] [--seconds S] [--trace 0|1] [--bless]"
        .to_string()
}

fn parse_args() -> Result<Settings, String> {
    let mut args = std::env::args().skip(1);
    let mut settings = Settings {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
        home: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        scratch: PathBuf::new(),
    };
    while let Some(key) = args.next() {
        if key == "--bless" {
            settings.bless = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{key} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("bad {key} value {value:?}: {what}");
        match key.as_str() {
            "--workload" => settings.workload = value.clone(),
            "--seed" => settings.seed = value.parse().map_err(|_| bad("expected a u64"))?,
            "--seconds" => {
                settings.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(settings.seconds > 0.0 && settings.seconds.is_finite()) {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {key}\n{}", usage())),
        }
    }
    if settings.workload.is_empty() {
        return Err(usage());
    }
    if settings.bless && !settings.recorded_seed() {
        return Err(format!(
            "--bless records the seed-{DEFAULT_SEED} outputs only"
        ));
    }
    // Journals go to a directory inside the checkout, one per process;
    // fleet-fap-resume records which filesystem that is.
    settings.scratch = settings.home.join("..").join(".bench_run").join(format!(
        "{}-{}",
        settings.workload,
        std::process::id()
    ));
    Ok(settings)
}

/// The executor's thread count: one worker per available CPU (`nproc`).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The machine and build facts every result carries.
fn host_config(settings: &Settings) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("workload".into(), settings.workload.clone()),
        ("seed".into(), settings.seed.to_string()),
        ("threads".into(), threads().to_string()),
        ("cpu".into(), format!("{cpu} (nproc {})", threads())),
        ("rustflags".into(), env!("PERFBENCH_RUSTFLAGS").to_string()),
        ("git_rev".into(), git_rev(settings)),
        (
            "source_digest".into(),
            env!("PERFBENCH_SOURCE_DIGEST").to_string(),
        ),
    ]
}

/// The checkout's git revision, when the benchmark runs inside a git
/// work tree (exported checkouts have none).
fn git_rev(settings: &Settings) -> String {
    let git = settings.home.join("..").join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> std::process::ExitCode {
    let settings = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return std::process::ExitCode::from(2);
        }
    };
    let result = match settings.workload.as_str() {
        "characterize-vgg" => workloads::characterize_vgg(&settings),
        "fleet-vgg-efat" => workloads::fleet_vgg_efat(&settings),
        "fleet-fap-resume" => workloads::fleet_fap_resume(&settings),
        other => Err(format!("unknown workload {other:?}\n{}", usage()).into()),
    };
    // The scratch directory only ever holds this process's journals; its
    // parent goes too once no other run uses it.
    let _ = std::fs::remove_dir_all(&settings.scratch);
    if let Some(parent) = settings.scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::from(1);
        }
    };
    let mut config = host_config(&settings);
    config.append(&mut report.config);
    for (key, value) in &config {
        println!("config {key}: {value}");
    }
    for line in &report.lines {
        println!("{line}");
    }
    let config_json: Vec<String> = config
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("config-json {{{}}}", config_json.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    std::process::ExitCode::SUCCESS
}
