//! Cross-thread determinism of the shared executor (`reduce_core::exec`):
//! the parallel Step-① characterisation and Step-③ fleet evaluation must
//! be byte-identical to their sequential paths at any thread count, and
//! worker panics must surface as typed errors instead of aborts.

use reduce_repro::core::{
    exec, ExecConfig, FatRunner, FleetEvaluation, ReduceError, ResilienceAnalysis,
    ResilienceConfig, RetrainPolicy, SeededChips, Workbench,
};
use reduce_repro::systolic::{FaultModel, FleetConfig, RateDistribution};

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

#[test]
fn characterisation_is_identical_across_thread_counts() {
    let wb = Workbench::toy(501);
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let seq = ResilienceAnalysis::run(&runner, &pre, grid_config(), &ExecConfig::default())
        .expect("characterisation runs");
    // The grid is rate-major with contiguous repeats, and every point
    // carries its grid index.
    for (i, p) in seq.points().iter().enumerate() {
        assert_eq!(p.rate_index, i / 2);
        assert_eq!(p.repeat, i % 2);
    }
    for threads in [0usize, 1, 2, 8] {
        let par = ResilienceAnalysis::run(&runner, &pre, grid_config(), &ExecConfig::new(threads))
            .expect("characterisation runs");
        assert_eq!(par.points(), seq.points(), "{threads}-thread points differ");
        assert_eq!(
            par.summaries(),
            seq.summaries(),
            "{threads}-thread summaries differ"
        );
        assert_eq!(par.table(), seq.table(), "{threads}-thread table differs");
    }
}

#[test]
fn fleet_evaluation_is_identical_across_thread_counts() {
    let wb = Workbench::toy(502);
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let fleet = SeededChips::new(FleetConfig {
        chips: 5,
        rows: 8,
        cols: 8,
        rates: RateDistribution::Uniform { lo: 0.0, hi: 0.2 },
        model: FaultModel::Random,
        seed: 9,
    });
    // A 2-chip intake window forces several scheduler windows, so the
    // batched pipeline itself is exercised across thread counts.
    let evaluate = |exec: &ExecConfig| {
        FleetEvaluation::new(RetrainPolicy::Fixed(2), 0.85)
            .source(&fleet)
            .window(2)
            .collect_outcomes(true)
            .exec(exec)
            .run(&runner, &pre)
            .expect("valid run")
    };
    let seq = evaluate(&ExecConfig::default());
    for threads in [0usize, 1, 2, 8] {
        let par = evaluate(&ExecConfig::new(threads));
        assert_eq!(par, seq, "{threads}-thread report differs from sequential");
    }
}

#[test]
fn executor_preserves_input_order_and_contains_panics() {
    let items: Vec<u64> = (0..40).collect();
    for threads in [0usize, 1, 2, 8] {
        let out =
            exec::parallel_map(&items, threads, |i, &x| Ok((i, x * x))).expect("no job fails");
        for (i, (idx, sq)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*sq, (i * i) as u64);
        }
    }
    // A panicking job becomes ReduceError::Internal, not a process abort.
    let res: Result<Vec<u64>, ReduceError> = exec::parallel_map(&items, 4, |_, &x| {
        assert!(x < 10, "injected failure");
        Ok(x)
    });
    match res {
        Err(ReduceError::Internal { invariant }) => {
            assert!(
                invariant.contains("panic"),
                "unexpected message: {invariant}"
            );
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
}
