//! Integration test asserting the *shape* of the paper's headline results
//! on the fast toy workbench: degradation grows with fault rate, retraining
//! recovers it, and the required retraining grows with the fault rate.

use reduce_repro::core::{
    ExecConfig, FatRunner, Mitigation, ResilienceAnalysis, ResilienceConfig, Statistic, StopRule,
    Workbench,
};
use reduce_repro::systolic::FaultModel;

#[test]
fn resilience_curves_have_paper_shape() {
    let wb = Workbench::toy(401);
    let pre = wb.pretrain(15).expect("valid workbench");
    // Constraint relative to the measured ceiling so the test is robust to
    // the seed's exact baseline (the library supports both conventions).
    let constraint = (pre.baseline_accuracy - 0.01).min(0.9);
    assert!(pre.baseline_accuracy >= constraint);
    let runner = FatRunner::new(wb).expect("valid workbench");
    let analysis = ResilienceAnalysis::run(
        &runner,
        &pre,
        ResilienceConfig {
            fault_rates: vec![0.0, 0.15, 0.35],
            max_epochs: 10,
            repeats: 3,
            constraint,
            fault_model: FaultModel::Random,
            seed: 5,
        },
        &ExecConfig::default(),
    )
    .expect("characterisation runs");
    let summaries = analysis.summaries();
    assert_eq!(summaries.len(), 3);

    // Fig. 2a shape #1: pre-retraining accuracy decreases with fault rate.
    let pre_acc: Vec<f32> = summaries
        .iter()
        .map(|s| s.mean_accuracy_at_level[0])
        .collect();
    assert!(
        pre_acc[0] > pre_acc[2] + 0.05,
        "no degradation across rates: {pre_acc:?}"
    );

    // Fig. 2a shape #2: at every rate, retraining improves over level 0.
    for s in summaries {
        let last = *s.mean_accuracy_at_level.last().expect("non-empty");
        assert!(
            last >= s.mean_accuracy_at_level[0] - 0.02,
            "retraining hurt at rate {}: {} -> {last}",
            s.rate,
            s.mean_accuracy_at_level[0]
        );
    }

    // Fig. 2b shape: epochs-to-constraint is monotone (non-strict) in rate
    // on the max statistic, and higher at the worst rate than at zero.
    let max_epochs: Vec<usize> = summaries.iter().map(|s| s.max_epochs).collect();
    assert!(max_epochs[0] <= max_epochs[1] && max_epochs[1] <= max_epochs[2]);
    assert!(
        max_epochs[2] > max_epochs[0],
        "no retraining gradient across rates: {max_epochs:?}"
    );

    // The mean is never above the max (and min never above the mean).
    for s in summaries {
        assert!(s.min_epochs as f64 <= s.mean_epochs + 1e-9);
        assert!(s.mean_epochs <= s.max_epochs as f64 + 1e-9);
    }

    // The table interpolates the same shape.
    let table = analysis.table();
    let lo = table
        .epochs_for(0.05, Statistic::Max)
        .expect("valid rate")
        .epochs;
    let hi = table
        .epochs_for(0.3, Statistic::Max)
        .expect("valid rate")
        .epochs;
    assert!(hi >= lo);
}

#[test]
fn early_stop_never_exceeds_exact_budget() {
    let wb = Workbench::toy(402);
    let constraint = 0.9;
    let (rows, cols) = wb.array_dims();
    let pre = wb.pretrain(12).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    for seed in 0..4u64 {
        let map =
            reduce_repro::systolic::FaultMap::generate(rows, cols, 0.2, FaultModel::Random, seed)
                .expect("valid rate");
        let exact = runner
            .run(&pre, &map, 8, StopRule::Exact, Mitigation::Fap, seed)
            .expect("valid run");
        let stopped = runner
            .run(
                &pre,
                &map,
                8,
                StopRule::AtAccuracy(constraint),
                Mitigation::Fap,
                seed,
            )
            .expect("valid run");
        assert!(stopped.epochs_run() <= exact.epochs_run());
        // If the stopped run claims it met the constraint, it really did.
        if let Some(k) = stopped.epochs_to_reach(constraint) {
            if k > 0 {
                assert!(stopped.accuracy_after_epoch[k - 1] >= constraint);
            }
        }
    }
}
