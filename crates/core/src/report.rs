//! Plain-text reporting: the tables and ASCII series the experiment
//! binaries print, mirroring the paper's figures.

use crate::fleet::FleetReport;
use crate::resilience::ResilienceAnalysis;

/// Renders the Fig. 2a table: mean accuracy at each (fault rate, retraining
/// level) cell.
pub fn render_resilience_curves(analysis: &ResilienceAnalysis, levels: &[usize]) -> String {
    let mut out = String::new();
    out.push_str("fault_rate");
    for &l in levels {
        out.push_str(&format!("  acc@{l}ep"));
    }
    out.push('\n');
    for s in analysis.summaries() {
        out.push_str(&format!("{:>10.4}", s.rate));
        for &l in levels {
            let a = s
                .mean_accuracy_at_level
                .get(l)
                .copied()
                .unwrap_or_else(|| s.mean_accuracy_at_level.last().copied().unwrap_or(0.0));
            out.push_str(&format!("  {:>7.4}", a));
        }
        out.push('\n');
    }
    out
}

/// Renders the Fig. 2b table: min/mean/max epochs-to-constraint per rate.
pub fn render_epochs_to_constraint(analysis: &ResilienceAnalysis) -> String {
    let mut out = String::from("fault_rate  min_ep  mean_ep  max_ep  failures\n");
    for s in analysis.summaries() {
        out.push_str(&format!(
            "{:>10.4}  {:>6}  {:>7.2}  {:>6}  {:>8}\n",
            s.rate, s.min_epochs, s.mean_epochs, s.max_epochs, s.failures
        ));
    }
    out
}

/// Renders a per-chip table for one fleet report (Fig. 3a–e style).
///
/// Per-chip rows need [`FleetReport::outcomes`], which the streaming
/// evaluator only keeps when asked
/// ([`crate::FleetEvaluation::collect_outcomes`]); without them only the
/// quarantine rows render, after a note.
pub fn render_fleet_chips(report: &FleetReport) -> String {
    let mut out = format!(
        "policy: {}  (constraint {:.2}%)\nchip  fault_rate  epochs  pre_acc  final_acc  meets\n",
        report.policy,
        report.constraint * 100.0
    );
    let Some(outcomes) = report.outcomes.as_deref() else {
        out.push_str("(per-chip outcomes not collected for this run)\n");
        for q in &report.quarantined {
            out.push_str(&format!(
                "{:>4}  {:>10.4}  quarantined after {} attempt(s): {}\n",
                q.chip_id, q.fault_rate, q.attempts, q.error
            ));
        }
        return out;
    };
    for c in outcomes {
        out.push_str(&format!(
            "{:>4}  {:>10.4}  {:>6}  {:>7.4}  {:>9.4}  {}\n",
            c.chip_id,
            c.fault_rate,
            c.epochs_run,
            c.pre_retrain_accuracy,
            c.final_accuracy,
            if c.meets_constraint { "yes" } else { "NO" }
        ));
    }
    for q in &report.quarantined {
        out.push_str(&format!(
            "{:>4}  {:>10.4}  quarantined after {} attempt(s): {}\n",
            q.chip_id, q.fault_rate, q.attempts, q.error
        ));
    }
    out
}

/// Renders the Fig. 3f summary: one row per policy.
pub fn render_fleet_summary(reports: &[FleetReport]) -> String {
    let mut out = String::from(
        "policy                 chips  satisfied  yield%  total_epochs  mean_acc  min_acc  quarantined\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{:<22} {:>5}  {:>9}  {:>5.1}  {:>12}  {:>8.4}  {:>7.4}  {:>11}\n",
            r.policy,
            r.evaluated,
            r.satisfied,
            r.yield_fraction() * 100.0,
            r.total_epochs,
            r.mean_accuracy,
            r.min_accuracy,
            r.quarantined_count()
        ));
    }
    out
}

/// Renders the Reduce-vs-eFAT-vs-fixed cost comparison: one row per
/// retraining strategy over the same seeded fleet, with the cluster and
/// warm-start accounting that explains where eFAT's savings come from.
pub fn render_strategy_comparison(reports: &[FleetReport]) -> String {
    let mut out = String::from(
        "strategy               chips  satisfied  yield%  total_epochs  clusters  warm_starts  epochs_saved\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{:<22} {:>5}  {:>9}  {:>5.1}  {:>12}  {:>8}  {:>11}  {:>12}\n",
            r.policy,
            r.evaluated,
            r.satisfied,
            r.yield_fraction() * 100.0,
            r.total_epochs,
            r.clusters,
            r.warm_started,
            r.warm_start_epochs_saved
        ));
    }
    out
}

/// Renders a crude ASCII bar chart of `(label, value)` pairs.
pub fn render_bars(rows: &[(String, f64)], width: usize) -> String {
    let max = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut out = String::new();
    for (label, v) in rows {
        let filled = if max > 0.0 {
            ((v / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<24} {:>10.2} |{}\n",
            v,
            "#".repeat(filled.min(width))
        ));
    }
    out
}

/// Escapes one CSV field (quotes fields containing separators/quotes).
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Writes a CSV file with a header row via the shared atomic artifact
/// writer (temp file + rename), so an interrupted run never leaves a torn
/// CSV behind.
///
/// # Errors
///
/// Propagates I/O errors as [`crate::ReduceError::InvalidConfig`].
pub fn write_csv(
    path: &std::path::Path,
    header: &[&str],
    rows: &[Vec<String>],
) -> crate::Result<()> {
    let mut out = String::with_capacity(64 * (rows.len() + 1));
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let escaped: Vec<String> = row.iter().map(|s| csv_escape(s)).collect();
        out.push_str(&escaped.join(","));
        out.push('\n');
    }
    crate::artifact::write_atomic(path, &out)
}

/// CSV rows of every raw resilience point: one row per
/// `(rate, repeat, epoch_level)` cell — the data behind both parts of
/// Fig. 2.
pub fn resilience_csv(analysis: &ResilienceAnalysis) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let header = vec![
        "fault_rate",
        "repeat",
        "epochs",
        "accuracy",
        "epochs_to_constraint",
    ];
    let mut rows = Vec::new();
    for p in analysis.points() {
        let to_c = p
            .epochs_to_constraint
            .map_or(String::new(), |e| e.to_string());
        rows.push(vec![
            format!("{}", p.rate),
            p.repeat.to_string(),
            "0".to_string(),
            format!("{}", p.pre_retrain_accuracy),
            to_c.clone(),
        ]);
        for (e, acc) in p.accuracy_after_epoch.iter().enumerate() {
            rows.push(vec![
                format!("{}", p.rate),
                p.repeat.to_string(),
                (e + 1).to_string(),
                format!("{acc}"),
                to_c.clone(),
            ]);
        }
    }
    (header, rows)
}

/// CSV rows of a fleet report: one row per chip (Fig. 3a–e data).
pub fn fleet_csv(report: &FleetReport) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let header = vec![
        "policy",
        "chip",
        "fault_rate",
        "epochs_budgeted",
        "epochs_run",
        "pre_retrain_accuracy",
        "final_accuracy",
        "meets_constraint",
        "pruned_fraction",
        "warm_started",
    ];
    let rows = report
        .outcomes
        .as_deref()
        .unwrap_or_default()
        .iter()
        .map(|c| {
            vec![
                report.policy.clone(),
                c.chip_id.to_string(),
                format!("{}", c.fault_rate),
                c.epochs_budgeted.to_string(),
                c.epochs_run.to_string(),
                format!("{}", c.pre_retrain_accuracy),
                format!("{}", c.final_accuracy),
                c.meets_constraint.to_string(),
                format!("{}", c.pruned_fraction),
                c.warm_started.to_string(),
            ]
        })
        .collect();
    (header, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ChipOutcome;

    fn fake_report() -> FleetReport {
        FleetReport {
            policy: "Fixed (2 epochs)".into(),
            constraint: 0.91,
            evaluated: 1,
            quarantined: vec![],
            total_epochs: 2,
            satisfied: 1,
            mean_accuracy: 0.92,
            min_accuracy: 0.92,
            max_accuracy: 0.92,
            epoch_histogram: std::collections::BTreeMap::from([(2, 1)]),
            retrain_cycles: None,
            clusters: 0,
            warm_started: 0,
            warm_start_epochs_saved: 0,
            outcomes: Some(vec![ChipOutcome {
                chip_id: 0,
                fault_rate: 0.05,
                epochs_budgeted: 2,
                epochs_run: 2,
                pre_retrain_accuracy: 0.8,
                final_accuracy: 0.92,
                meets_constraint: true,
                pruned_fraction: 0.05,
                clamped: false,
                warm_started: false,
            }]),
        }
    }

    #[test]
    fn fleet_tables_render() {
        let r = fake_report();
        let chips = render_fleet_chips(&r);
        assert!(chips.contains("Fixed (2 epochs)"));
        assert!(chips.contains("yes"));
        let summary = render_fleet_summary(&[r]);
        assert!(summary.contains("yield%"));
        assert!(summary.contains("100.0"));
    }

    #[test]
    fn csv_escape_rules() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn fleet_csv_has_row_per_chip() {
        let r = fake_report();
        let (header, rows) = fleet_csv(&r);
        assert_eq!(header.len(), 10);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], "0");
        assert_eq!(rows[0][7], "true");
        assert_eq!(rows[0][9], "false");
    }

    #[test]
    fn strategy_comparison_renders_cluster_accounting() {
        let mut efat = fake_report();
        efat.policy = "Fixed (2 epochs) + eFAT".into();
        efat.clusters = 1;
        efat.warm_started = 1;
        efat.warm_start_epochs_saved = 2;
        let table = render_strategy_comparison(&[fake_report(), efat]);
        assert!(table.contains("epochs_saved"));
        assert!(table.contains("Fixed (2 epochs) + eFAT"));
        let saved_column: Vec<&str> = table
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().last().expect("non-empty row"))
            .collect();
        assert_eq!(saved_column, ["0", "2"]);
    }

    #[test]
    fn write_csv_round_trip() {
        let dir = std::env::temp_dir().join("reduce_csv_test");
        let path = dir.join("out.csv");
        write_csv(&path, &["a", "b"], &[vec!["1".into(), "x,y".into()]])
            .expect("temp dir writable");
        let text = std::fs::read_to_string(&path).expect("just written");
        assert_eq!(text, "a,b\n1,\"x,y\"\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bars_render_proportionally() {
        let rows = vec![
            ("a".to_string(), 10.0),
            ("b".to_string(), 5.0),
            ("c".to_string(), 0.0),
        ];
        let s = render_bars(&rows, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].matches('#').count() == 10);
        assert!(lines[1].matches('#').count() == 5);
        assert!(lines[2].matches('#').count() == 0);
    }
}
