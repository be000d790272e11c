//! Cross-crate integration tests: the full Reduce pipeline (Step ① → ② →
//! ③) on the fast toy workbench, exercising every crate together.

use reduce_repro::core::{
    ChipSource, ExecConfig, FatRunner, FleetEvaluation, FleetReport, Mitigation, Pretrained,
    ResilienceAnalysis, ResilienceConfig, ResilienceTable, RetrainPolicy, SeededChips, Statistic,
    StopRule, Workbench,
};
use reduce_repro::systolic::{FaultMap, FaultModel, FleetConfig, RateDistribution};

/// Step ⓪ and Step ①: pre-trains `Workbench::toy(seed)` and characterises
/// it on `rates`, returning the runner, the baseline and the table.
fn characterised(
    seed: u64,
    pretrain_epochs: usize,
    rates: Vec<f64>,
    max_epochs: usize,
    repeats: usize,
    grid_seed: u64,
) -> (FatRunner, Pretrained, ResilienceTable) {
    let workbench = Workbench::toy(seed);
    let pretrained = workbench
        .pretrain(pretrain_epochs)
        .expect("valid workbench");
    let runner = FatRunner::new(workbench).expect("valid workbench");
    let config = ResilienceConfig {
        fault_rates: rates,
        max_epochs,
        repeats,
        constraint: 0.9,
        fault_model: FaultModel::Random,
        seed: grid_seed,
    };
    let analysis = ResilienceAnalysis::run(&runner, &pretrained, config, &ExecConfig::default())
        .expect("characterisation runs");
    (runner, pretrained, analysis.table())
}

/// Steps ② and ③: retrains `chips` under `policy` against the 0.9
/// constraint, keeping per-chip outcomes.
fn deploy(
    runner: &FatRunner,
    pretrained: &Pretrained,
    table: &ResilienceTable,
    chips: &SeededChips,
    policy: RetrainPolicy,
) -> FleetReport {
    FleetEvaluation::new(policy, 0.9)
        .source(chips)
        .table(table)
        .collect_outcomes(true)
        .run(runner, pretrained)
        .expect("deployment runs")
}

fn fleet(chips: usize, hi: f64, seed: u64) -> SeededChips {
    SeededChips::new(FleetConfig {
        chips,
        rows: 8,
        cols: 8,
        rates: RateDistribution::Uniform { lo: 0.0, hi },
        model: FaultModel::Random,
        seed,
    })
}

#[test]
fn full_pipeline_beats_fixed_baselines() {
    let (runner, pretrained, table) = characterised(101, 15, vec![0.0, 0.1, 0.2, 0.3], 10, 3, 7);
    assert!(
        pretrained.baseline_accuracy >= 0.9,
        "pre-trained baseline must satisfy the constraint on a fault-free chip"
    );
    let chips = fleet(12, 0.3, 55);
    let run = |policy| deploy(&runner, &pretrained, &table, &chips, policy);
    let reduce_max = run(RetrainPolicy::Reduce(Statistic::Max));
    let fixed_zero = run(RetrainPolicy::Fixed(0));
    let fixed_high = run(RetrainPolicy::Fixed(10));

    // The paper's headline: Reduce is at least as robust as no-retraining
    // and much cheaper than a uniformly high fixed budget.
    assert!(reduce_max.satisfied >= fixed_zero.satisfied);
    assert!(
        reduce_max.total_epochs < fixed_high.total_epochs,
        "Reduce(max) {} epochs vs Fixed(10) {}",
        reduce_max.total_epochs,
        fixed_high.total_epochs
    );
    // And it should satisfy (almost) every chip within the characterised
    // range.
    assert!(
        reduce_max.satisfied as f32 >= 0.8 * chips.len() as f32,
        "Reduce(max) satisfied only {}/{}",
        reduce_max.satisfied,
        chips.len()
    );
}

#[test]
fn reduce_max_never_cheaper_than_reduce_mean() {
    let (_, _, table) = characterised(102, 12, vec![0.0, 0.15, 0.3], 8, 3, 11);
    let chips = fleet(8, 0.3, 56);
    let plan = |statistic| -> Vec<_> {
        (0..chips.len())
            .map(|id| {
                let rate = chips.fault_rate(id).expect("chip in the fleet");
                RetrainPolicy::Reduce(statistic)
                    .epochs_for_chip(Some(&table), rate)
                    .expect("table ready")
            })
            .collect()
    };
    let max_plan = plan(Statistic::Max);
    let mean_plan = plan(Statistic::Mean);
    assert_eq!(max_plan.len(), 8);
    for (mx, mn) in max_plan.iter().zip(&mean_plan) {
        assert!(
            mx.epochs >= mn.epochs,
            "max policy ({}) budgeted less than mean policy ({})",
            mx.epochs,
            mn.epochs
        );
    }
}

#[test]
fn per_chip_budgets_track_fault_rate() {
    let (_, _, table) = characterised(103, 12, vec![0.0, 0.1, 0.2, 0.3], 8, 2, 13);
    // Interpolated budgets are monotone in fault rate if grid stats are.
    let stats: Vec<usize> = table.entries().iter().map(|e| e.max_epochs).collect();
    let grid_monotone = stats.windows(2).all(|w| w[0] <= w[1]);
    if grid_monotone {
        let mut last = 0usize;
        for i in 0..=30 {
            let rate = 0.3 * i as f64 / 30.0;
            let e = table
                .epochs_for(rate, Statistic::Max)
                .expect("valid rate")
                .epochs;
            assert!(
                e >= last,
                "budget not monotone at rate {rate}: {e} < {last}"
            );
            last = e;
        }
    }
}

#[test]
fn fat_respects_masks_across_whole_pipeline() {
    // Run a full FAT and verify the deployed state is exactly zero at
    // every position the chip's fault map prunes — the hardware contract.
    let wb = Workbench::toy(104);
    let (rows, cols) = wb.array_dims();
    let pre = wb.pretrain(10).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let map = FaultMap::generate(rows, cols, 0.2, FaultModel::Random, 17).expect("valid");
    let outcome = runner
        .run(&pre, &map, 5, StopRule::Exact, Mitigation::Fap, 3)
        .expect("run succeeds");
    // Recompute the masks independently and check the deployed weights.
    for (name, tensor) in &outcome.final_state {
        if tensor.rank() != 2 {
            continue;
        }
        if !name.contains("weight") {
            continue;
        }
        let (out_dim, in_dim) = tensor.shape().as_matrix().expect("weight matrix");
        let mask = reduce_repro::systolic::fap_mask(out_dim, in_dim, &map).expect("valid");
        for (w, m) in tensor.data().iter().zip(mask.data()) {
            if *m == 0.0 {
                assert_eq!(*w, 0.0, "deployed weight not zero on a faulty PE ({name})");
            }
        }
    }
}

#[test]
fn bypass_emulation_agrees_with_masked_training_path() {
    // The systolic emulator (hardware semantics) and the mask+dense-GEMM
    // path (training semantics) must produce identical layer outputs.
    use reduce_repro::systolic::SystolicArray;
    use reduce_repro::tensor::{ops, Tensor};
    let map = FaultMap::generate(8, 8, 0.3, FaultModel::Random, 21).expect("valid");
    let array = SystolicArray::new(map.clone());
    let w = Tensor::rand_uniform([48, 32], -1.0, 1.0, 1);
    let x = Tensor::rand_uniform([16, 32], -1.0, 1.0, 2);
    let hw_out = array.gemm(&w, &x).expect("conformable");
    let mask = reduce_repro::systolic::fap_mask(48, 32, &map).expect("valid");
    let masked = (&w * &mask).expect("same shape");
    let sw_out = ops::matmul_nt(&x, &masked).expect("conformable");
    assert!(hw_out.approx_eq(&sw_out, 1e-4));
}

#[test]
fn paper_array_geometry_end_to_end() {
    // 256x256 array (the paper's) with a chip fault map driving masks for
    // a toy model: exercises the tiling path where layers are smaller than
    // the array.
    let mut wb = Workbench::toy(105);
    wb.array = (256, 256);
    let pre = wb.pretrain(8).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let map = FaultMap::generate(256, 256, 0.02, FaultModel::Random, 31).expect("valid rate");
    let outcome = runner
        .run(&pre, &map, 1, StopRule::Exact, Mitigation::Fap, 0)
        .expect("run succeeds");
    // Layers smaller than the array see only the top-left corner of the
    // fault map, so the pruned fraction is typically below the chip rate.
    assert!(outcome.pruned_fraction < 0.1);
    assert!(outcome.final_accuracy() > 0.5);
}

#[test]
fn deterministic_fleet_reports() {
    let run = || {
        let (runner, pretrained, table) = characterised(106, 8, vec![0.0, 0.2], 4, 2, 19);
        let chips = fleet(4, 0.2, 57);
        deploy(
            &runner,
            &pretrained,
            &table,
            &chips,
            RetrainPolicy::Reduce(Statistic::Max),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds must give identical reports");
}
