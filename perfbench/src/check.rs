//! Output checks: canonical renderings of each workload's deterministic
//! outputs, the invariants that hold on any seed, and the comparison with
//! the outputs recorded for the default seed.
//!
//! Floats are rendered by their bit patterns, so "equal" means
//! bit-identical, the repository's determinism contract.

use reduce_core::{FleetReport, ResilienceAnalysis};
use std::fmt::Write as _;
use std::path::Path;

fn bits(x: f32) -> String {
    format!("{:08x}", x.to_bits())
}

/// The characterisation's deterministic outputs: every `ResiliencePoint`
/// and the table text.
pub fn render_analysis(analysis: &ResilienceAnalysis) -> String {
    let mut s = String::new();
    for p in analysis.points() {
        let curve: Vec<String> = p.accuracy_after_epoch.iter().map(|&a| bits(a)).collect();
        let _ = writeln!(
            s,
            "point rate_index={} rate={} repeat={} pre={} epochs_to_constraint={:?} curve={}",
            p.rate_index,
            p.rate,
            p.repeat,
            bits(p.pre_retrain_accuracy),
            p.epochs_to_constraint,
            curve.join(",")
        );
    }
    for f in analysis.failures() {
        let _ = writeln!(s, "failed rate={} repeat={}: {}", f.rate, f.repeat, f.error);
    }
    s.push_str(&analysis.table().to_text());
    s
}

/// Invariants of a characterisation on any seed.
pub fn analysis_invariants(
    analysis: &ResilienceAnalysis,
    cells: usize,
    epochs: usize,
) -> Vec<String> {
    let mut bad = Vec::new();
    if analysis.points().len() + analysis.failures().len() != cells {
        bad.push(format!(
            "{} points + {} failures != {cells} cells",
            analysis.points().len(),
            analysis.failures().len()
        ));
    }
    let constraint = analysis.config().constraint;
    for p in analysis.points() {
        let accs =
            std::iter::once(p.pre_retrain_accuracy).chain(p.accuracy_after_epoch.iter().copied());
        if accs.clone().any(|a| !(0.0..=1.0).contains(&a)) {
            bad.push(format!(
                "rate {} repeat {}: accuracy outside [0, 1]",
                p.rate, p.repeat
            ));
        }
        if p.accuracy_after_epoch.len() != epochs {
            bad.push(format!(
                "rate {} repeat {}: {} epochs run, not {epochs} (StopRule::Exact)",
                p.rate,
                p.repeat,
                p.accuracy_after_epoch.len()
            ));
        }
        let first = if p.pre_retrain_accuracy >= constraint {
            Some(0)
        } else {
            p.accuracy_after_epoch
                .iter()
                .position(|&a| a >= constraint)
                .map(|i| i + 1)
        };
        if first != p.epochs_to_constraint {
            bad.push(format!(
                "rate {} repeat {}: epochs_to_constraint disagrees with the curve",
                p.rate, p.repeat
            ));
        }
    }
    bad
}

/// A fleet report's deterministic fields: counts, the epoch histogram,
/// clustering and the accuracy aggregates.
pub fn render_fleet(report: &FleetReport) -> String {
    let histogram: Vec<String> = report
        .epoch_histogram
        .iter()
        .map(|(epochs, chips)| format!("{epochs}:{chips}"))
        .collect();
    format!(
        "policy={}\nevaluated={}\nquarantined={}\nsatisfied={}\ntotal_epochs={}\n\
         epoch_histogram={}\nclusters={}\nwarm_started={}\nwarm_start_epochs_saved={}\n\
         accuracy_bits mean={} min={} max={}\n",
        report.policy,
        report.evaluated,
        report.quarantined.len(),
        report.satisfied,
        report.total_epochs,
        histogram.join(","),
        report.clusters,
        report.warm_started,
        report.warm_start_epochs_saved,
        bits(report.mean_accuracy),
        bits(report.min_accuracy),
        bits(report.max_accuracy),
    )
}

/// Invariants of a fleet report on any seed.
pub fn fleet_invariants(report: &FleetReport, chips: usize) -> Vec<String> {
    let mut bad = Vec::new();
    if report.evaluated + report.quarantined.len() != chips {
        bad.push(format!(
            "{} evaluated + {} quarantined != {chips} chips",
            report.evaluated,
            report.quarantined.len()
        ));
    }
    if report.satisfied > report.evaluated {
        bad.push("more chips satisfied than evaluated".to_string());
    }
    let hist_chips: usize = report.epoch_histogram.values().sum();
    let hist_epochs: usize = report.epoch_histogram.iter().map(|(e, c)| e * c).sum();
    if hist_chips != report.evaluated || hist_epochs != report.total_epochs {
        bad.push("epoch histogram disagrees with evaluated/total_epochs".to_string());
    }
    let (lo, mean, hi) = (
        report.min_accuracy,
        report.mean_accuracy,
        report.max_accuracy,
    );
    if !(0.0 <= lo && lo <= mean && mean <= hi && hi <= 1.0) {
        bad.push(format!(
            "accuracy aggregates out of order: min {lo} mean {mean} max {hi}"
        ));
    }
    if report.warm_started > report.evaluated || report.clusters > chips {
        bad.push("more warm starts or clusters than chips".to_string());
    }
    bad
}

/// Compares `actual` with the recorded expected output (or records it
/// with `bless`). Returns the mismatch description, if any.
pub fn against_expected(path: &Path, actual: &str, bless: bool) -> Option<String> {
    if bless {
        return match std::fs::write(path, actual) {
            Ok(()) => None,
            Err(e) => Some(format!("cannot write {}: {e}", path.display())),
        };
    }
    match std::fs::read_to_string(path) {
        Err(e) => Some(format!("cannot read {}: {e}", path.display())),
        Ok(expected) if expected == actual => None,
        Ok(expected) => {
            let line = expected
                .lines()
                .zip(actual.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
            Some(format!(
                "outputs differ from {} at line {}: expected {:?}, got {:?}",
                path.display(),
                line + 1,
                expected.lines().nth(line).unwrap_or("<end>"),
                actual.lines().nth(line).unwrap_or("<end>")
            ))
        }
    }
}

/// A small stable digest (FNV-1a 64) for naming inputs in the config block.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}")
}
