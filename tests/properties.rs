//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary fault maps, layer shapes and policies — and, for the fault
//! tolerance layer, for arbitrary chaos policies.

use proptest::prelude::*;
use reduce_repro::core::exec::{ChaosOutcome, ChaosPolicy};
use reduce_repro::core::{
    ChipSource, ExecConfig, FatRunner, FleetEvaluation, Pretrained, ResilienceAnalysis,
    ResilienceConfig, ResilienceTable, RetrainPolicy, SeededChips, Statistic, TableEntry,
    Workbench,
};
use reduce_repro::systolic::{
    affected_weights, fam_mapping, fap_mask, pruned_fraction, saliency_loss, FaultMap, FaultModel,
    FleetConfig, RateDistribution, SystolicArray,
};
use reduce_repro::tensor::{ops, Tensor};
use std::sync::OnceLock;

/// A 2-rate × 2-repeat grid small enough to characterise once per proptest
/// case.
fn chaos_grid() -> ResilienceConfig {
    ResilienceConfig {
        fault_rates: vec![0.0, 0.15],
        max_epochs: 3,
        repeats: 2,
        constraint: 0.88,
        fault_model: FaultModel::Random,
        seed: 17,
    }
}

/// Shared fixture for the chaos property: pretrain and characterise the
/// chaos-free reference once, not once per generated case.
fn chaos_fixture() -> (
    &'static FatRunner,
    &'static Pretrained,
    &'static ResilienceAnalysis,
) {
    static FIXTURE: OnceLock<(FatRunner, Pretrained, ResilienceAnalysis)> = OnceLock::new();
    let (runner, pre, clean) = FIXTURE.get_or_init(|| {
        let wb = Workbench::toy(801);
        let pre = wb.pretrain(8).expect("valid workbench");
        let runner = FatRunner::new(wb).expect("valid workbench");
        let clean = ResilienceAnalysis::run_resumable(
            &runner,
            &pre,
            chaos_grid(),
            &ExecConfig::default(),
            None,
        )
        .expect("clean run");
        (runner, pre, clean)
    });
    (runner, pre, clean)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The FAP mask equals the bypass emulation for any geometry and rate.
    #[test]
    fn mask_equals_bypass(
        rows in 2usize..10,
        cols in 2usize..10,
        out_dim in 1usize..24,
        in_dim in 1usize..24,
        rate in 0.0f64..0.5,
        seed in 0u64..500,
    ) {
        let map = FaultMap::generate(rows, cols, rate, FaultModel::Random, seed)
            .expect("valid rate");
        let array = SystolicArray::new(map.clone());
        let w = Tensor::rand_uniform([out_dim, in_dim], -1.0, 1.0, seed + 1);
        let x = Tensor::rand_uniform([3, in_dim], -1.0, 1.0, seed + 2);
        let hw = array.gemm(&w, &x).expect("conformable");
        let mask = fap_mask(out_dim, in_dim, &map).expect("nonzero dims");
        let sw = ops::matmul_nt(&x, &(&w * &mask).expect("same shape")).expect("conformable");
        prop_assert!(hw.approx_eq(&sw, 1e-3));
    }

    /// The closed-form pruned count always matches the materialised mask.
    #[test]
    fn affected_weights_matches_mask(
        rows in 2usize..12,
        cols in 2usize..12,
        out_dim in 1usize..40,
        in_dim in 1usize..40,
        rate in 0.0f64..0.6,
        seed in 0u64..500,
    ) {
        let map = FaultMap::generate(rows, cols, rate, FaultModel::Random, seed)
            .expect("valid rate");
        let mask = fap_mask(out_dim, in_dim, &map).expect("nonzero dims");
        let zeros = mask.data().iter().filter(|&&v| v == 0.0).count();
        prop_assert_eq!(affected_weights(out_dim, in_dim, &map), zeros);
        let frac = pruned_fraction(out_dim, in_dim, &map);
        prop_assert!((frac - zeros as f64 / (out_dim * in_dim) as f64).abs() < 1e-12);
    }

    /// FAM never loses more saliency than FAP and is always a permutation.
    #[test]
    fn fam_dominates_fap_in_saliency(
        rows in 2usize..8,
        cols in 2usize..8,
        out_dim in 2usize..16,
        in_dim in 2usize..16,
        rate in 0.0f64..0.4,
        seed in 0u64..300,
    ) {
        let map = FaultMap::generate(rows, cols, rate, FaultModel::Random, seed)
            .expect("valid rate");
        let w = Tensor::rand_uniform([out_dim, in_dim], -1.0, 1.0, seed + 9);
        let fap = fap_mask(out_dim, in_dim, &map).expect("nonzero dims");
        let fam = fam_mapping(&w, &map).expect("matrix");
        let fap_loss = saliency_loss(&w, &fap).expect("same shape");
        let fam_loss = saliency_loss(&w, &fam.mask).expect("same shape");
        prop_assert!(fam_loss <= fap_loss + 1e-4,
            "FAM loss {} exceeds FAP loss {}", fam_loss, fap_loss);
        let mut seen = vec![false; out_dim];
        for &p in &fam.position_of {
            prop_assert!(p < out_dim && !seen[p]);
            seen[p] = true;
        }
    }

    /// Fault-map generation hits the requested count exactly and is within
    /// the geometry.
    #[test]
    fn fault_map_counts(
        rows in 1usize..40,
        cols in 1usize..40,
        rate in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let map = FaultMap::generate(rows, cols, rate, FaultModel::Random, seed)
            .expect("valid rate");
        let expected = (rate * (rows * cols) as f64).round() as usize;
        prop_assert_eq!(map.faulty_count(), expected);
        for (r, c) in map.faulty_coords() {
            prop_assert!(r < rows && c < cols);
        }
    }

    /// Table interpolation is monotone between grid points when the grid
    /// statistic is monotone, and never undershoots the bracketing minimum.
    #[test]
    fn interpolation_brackets(
        e0 in 0usize..8,
        delta in 0usize..8,
        probe in 0.0f64..1.0,
    ) {
        let table = ResilienceTable::from_entries(vec![
            TableEntry { rate: 0.0, mean_epochs: e0 as f64, max_epochs: e0 },
            TableEntry { rate: 0.5, mean_epochs: (e0 + delta) as f64, max_epochs: e0 + delta },
        ], 32).expect("non-empty");
        let rate = probe * 0.5;
        let sel = table.epochs_for(rate, Statistic::Max).expect("valid rate");
        prop_assert!(sel.epochs >= e0);
        prop_assert!(sel.epochs <= e0 + delta);
    }

    /// Selections never exceed the table's epoch cap, for any statistic —
    /// in particular a margined mean must clamp to what the
    /// characterisation actually measured.
    #[test]
    fn selection_never_exceeds_epoch_cap(
        e0 in 0usize..40,
        e1 in 0usize..40,
        e2 in 0usize..40,
        cap in 1usize..24,
        margin in 0.0f64..64.0,
        probe in 0.0f64..1.0,
    ) {
        let entry = |rate: f64, e: usize| TableEntry {
            rate,
            mean_epochs: e as f64,
            max_epochs: e,
        };
        let table = ResilienceTable::from_entries(
            vec![entry(0.0, e0), entry(0.3, e1), entry(0.6, e2)],
            cap,
        ).expect("non-empty");
        for stat in [Statistic::Max, Statistic::Mean, Statistic::MeanPlusMargin(margin)] {
            let sel = table.epochs_for(probe, stat).expect("valid rate");
            prop_assert!(
                sel.epochs <= cap,
                "{:?} selected {} epochs beyond the cap {}", stat, sel.epochs, cap
            );
        }
    }

    /// For a monotone table, the selected epochs are monotone in the fault
    /// rate under every statistic.
    #[test]
    fn selection_monotone_in_rate_for_monotone_tables(
        e0 in 0usize..10,
        d1 in 0usize..10,
        d2 in 0usize..10,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        margin in 0.0f64..8.0,
    ) {
        let entry = |rate: f64, e: usize| TableEntry {
            rate,
            mean_epochs: e as f64,
            max_epochs: e,
        };
        let table = ResilienceTable::from_entries(
            vec![entry(0.0, e0), entry(0.25, e0 + d1), entry(0.5, e0 + d1 + d2)],
            64,
        ).expect("non-empty");
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for stat in [Statistic::Max, Statistic::Mean, Statistic::MeanPlusMargin(margin)] {
            let s_lo = table.epochs_for(lo, stat).expect("valid rate");
            let s_hi = table.epochs_for(hi, stat).expect("valid rate");
            prop_assert!(
                s_lo.epochs <= s_hi.epochs,
                "{:?} not monotone: {} @ {} > {} @ {}", stat, s_lo.epochs, lo, s_hi.epochs, hi
            );
        }
    }

    /// Any seeded chaos policy yields input-order-stable, thread-invariant
    /// analyses, and quarantined cells never perturb their siblings.
    #[test]
    fn chaos_is_thread_invariant_and_contained(
        chaos_seed in 0u64..1000,
        fail_rate in 0.0f64..0.9,
        budget in 0u32..3,
    ) {
        let (runner, pre, clean) = chaos_fixture();
        let chaos = ChaosPolicy::seeded(chaos_seed, fail_rate);
        let run = |threads: usize| {
            ResilienceAnalysis::run_resumable(
                runner,
                pre,
                chaos_grid(),
                &ExecConfig::new(threads)
                    .with_retry_budget(budget)
                    .with_chaos(chaos.clone()),
                None,
            )
            .expect("contained failures are never fatal")
        };
        let reference = run(1);
        // Every grid cell is accounted for exactly once, in input order.
        prop_assert_eq!(reference.points().len() + reference.failures().len(), 4);
        let mut keys: Vec<(usize, usize)> = reference
            .points()
            .iter()
            .map(|p| (p.rate_index, p.repeat))
            .chain(reference.failures().iter().map(|f| (f.rate_index, f.repeat)))
            .collect();
        keys.sort_unstable();
        prop_assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        // Thread-count invariance of both outcomes and quarantine records.
        for threads in [2usize, 4] {
            let par = run(threads);
            prop_assert_eq!(par.points(), reference.points());
            prop_assert_eq!(par.failures(), reference.failures());
            prop_assert_eq!(par.summaries(), reference.summaries());
        }
        // A cell whose first attempt passed ran with salt 0 — bit-identical
        // to the chaos-free run, no matter what happened to its siblings.
        for p in reference.points() {
            let job = (p.rate_index * 2 + p.repeat) as u64;
            if matches!(chaos.decide(job, 0), ChaosOutcome::Pass) {
                let clean_point = clean
                    .points()
                    .iter()
                    .find(|c| (c.rate_index, c.repeat) == (p.rate_index, p.repeat))
                    .expect("clean run covers the grid");
                prop_assert_eq!(p, clean_point, "untouched cell perturbed by sibling chaos");
            }
        }
        // Quarantined cells are exactly those the policy fails on every
        // attempt within the budget.
        for f in reference.failures() {
            let job = (f.rate_index * 2 + f.repeat) as u64;
            prop_assert_eq!(f.attempts, budget + 1);
            for attempt in 0..=budget {
                prop_assert!(
                    !matches!(chaos.decide(job, attempt), ChaosOutcome::Pass),
                    "cell {} quarantined despite a passing attempt {}", job, attempt
                );
            }
        }
    }

    /// A seeded fleet streams as the scheduler assumes: every chip's rate,
    /// which the scheduler budgets by before generating any fault map,
    /// equals the rate of the chip it later materialises (the
    /// `ChipSource` contract), and the report is the same for any
    /// window/batch partitioning of the scheduler as at the default one.
    #[test]
    fn streaming_equals_materialised_fleets(
        chips in 1usize..5,
        hi in 0.05f64..0.3,
        seed in 0u64..200,
        window in 1usize..6,
        batch_cap in 1usize..4,
    ) {
        let (runner, pre, _) = chaos_fixture();
        let source = SeededChips::new(FleetConfig {
            chips,
            rows: 8,
            cols: 8,
            rates: RateDistribution::Uniform { lo: 0.0, hi },
            model: FaultModel::Random,
            seed,
        });
        for id in 0..source.len() {
            let chip = source.chip(id).expect("chip in the fleet");
            prop_assert_eq!(source.fault_rate(id).expect("chip in the fleet"), chip.fault_rate());
        }
        let evaluation = || {
            FleetEvaluation::new(RetrainPolicy::Fixed(1), 0.85)
                .source(&source)
                .collect_outcomes(true)
        };
        let partitioned = evaluation()
            .window(window)
            .batch_cap(batch_cap)
            .run(runner, pre)
            .expect("valid run");
        let default = evaluation().run(runner, pre).expect("valid run");
        prop_assert_eq!(partitioned, default);
    }

    /// Union of fault maps is commutative and only grows the fault count.
    #[test]
    fn union_properties(
        rate_a in 0.0f64..0.3,
        rate_b in 0.0f64..0.3,
        seed in 0u64..200,
    ) {
        let a = FaultMap::generate(12, 12, rate_a, FaultModel::Random, seed).expect("valid");
        let b = FaultMap::generate(12, 12, rate_b, FaultModel::Random, seed + 1).expect("valid");
        let ab = a.union(&b).expect("same geometry");
        let ba = b.union(&a).expect("same geometry");
        prop_assert_eq!(&ab, &ba);
        prop_assert!(ab.faulty_count() >= a.faulty_count().max(b.faulty_count()));
        prop_assert!(ab.faulty_count() <= a.faulty_count() + b.faulty_count());
    }
}
