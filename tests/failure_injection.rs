//! Failure-injection integration tests: degenerate inputs must produce
//! typed errors (never panics) at every layer of the stack.

use reduce_repro::core::{
    ExecConfig, FatRunner, Mitigation, ReduceError, ResilienceAnalysis, ResilienceConfig,
    ResilienceTable, RetrainPolicy, Statistic, TableEntry, Workbench,
};
use reduce_repro::data::{blobs, Dataset};
use reduce_repro::nn::{models, CrossEntropyLoss, Sgd, TrainConfig, Trainer};
use reduce_repro::systolic::{FaultMap, FaultModel};
use reduce_repro::tensor::Tensor;

#[test]
fn all_faulty_chip_is_handled_gracefully() {
    // A chip whose entire array is dead: every weight masked, accuracy at
    // chance, but nothing panics and retraining runs (uselessly).
    let wb = Workbench::toy(201);
    let (rows, cols) = wb.array_dims();
    let pre = wb.pretrain(5).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let dead = FaultMap::generate(rows, cols, 1.0, FaultModel::Random, 0).expect("valid");
    let outcome = runner
        .run(
            &pre,
            &dead,
            2,
            reduce_repro::core::StopRule::Exact,
            Mitigation::Fap,
            0,
        )
        .expect("degenerate chip still runs");
    assert!((outcome.pruned_fraction - 1.0).abs() < 1e-6);
    // All-zero network: accuracy is at chance level (4 classes).
    assert!(outcome.final_accuracy() < 0.5);
}

#[test]
fn empty_and_inconsistent_datasets_error() {
    assert!(Dataset::new(Tensor::zeros([4, 2]), vec![0, 1], 2).is_err());
    let d = blobs(10, 2, 2, 1.0, 0.1, 0).expect("valid");
    assert!(d.subset(&[99]).is_err());
    assert!(d.split(2.0, 0).is_err());
}

#[test]
fn trainer_rejects_empty_data_not_panics() {
    let mut model = models::mlp(&[2, 4, 2], 0).expect("valid dims");
    let mut trainer = Trainer::new(Sgd::new(0.1), CrossEntropyLoss, TrainConfig::default());
    let err = trainer.train_epoch(&mut model, &Tensor::zeros([0, 2]), &[]);
    assert!(err.is_err());
}

#[test]
fn mask_shape_mismatch_is_typed_error() {
    let mut model = models::mlp(&[4, 8, 2], 0).expect("valid dims");
    // Wrong count.
    assert!(model.set_weight_masks(&[None]).is_err());
    // Wrong shape.
    let bad = vec![Some(Tensor::ones([3, 3])), None];
    assert!(model.set_weight_masks(&bad).is_err());
    // Non-binary mask.
    let bad = vec![Some(Tensor::full([8, 4], 0.5)), None];
    assert!(model.set_weight_masks(&bad).is_err());
}

#[test]
fn resilience_errors_are_typed() {
    let wb = Workbench::toy(202);
    let pretrained = wb.pretrain(3).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    // Empty grid: rejected both by the builder (at construction) and by
    // the struct-literal escape hatch (at run time).
    let builder_err = ResilienceConfig::builder().fault_rates(vec![]).build();
    assert!(matches!(
        builder_err,
        Err(ReduceError::InvalidConfig { .. })
    ));
    let err = ResilienceAnalysis::run(
        &runner,
        &pretrained,
        ResilienceConfig {
            fault_rates: vec![],
            max_epochs: 2,
            repeats: 1,
            constraint: 0.9,
            fault_model: FaultModel::Random,
            seed: 0,
        },
        &ExecConfig::default(),
    );
    assert!(matches!(err, Err(ReduceError::InvalidConfig { .. })));
    // Reduce policy without characterisation.
    let chip_err = RetrainPolicy::Reduce(Statistic::Max).epochs_for_chip(None, 0.1);
    assert!(matches!(
        chip_err,
        Err(ReduceError::MissingCharacterization { .. })
    ));
}

#[test]
fn table_lookup_rejects_garbage_rates() {
    let t = ResilienceTable::from_entries(
        vec![TableEntry {
            rate: 0.0,
            mean_epochs: 0.0,
            max_epochs: 0,
        }],
        4,
    )
    .expect("non-empty");
    assert!(t.epochs_for(f64::NAN, Statistic::Max).is_err());
    assert!(t.epochs_for(f64::INFINITY, Statistic::Max).is_err());
    assert!(t.epochs_for(-0.5, Statistic::Max).is_err());
}

#[test]
fn fault_map_geometry_errors() {
    assert!(FaultMap::fault_free(0, 10).is_err());
    assert!(FaultMap::generate(4, 4, 2.0, FaultModel::Random, 0).is_err());
    assert!(FaultMap::from_coords(4, 4, &[(9, 0)]).is_err());
    let a = FaultMap::fault_free(4, 4).expect("nonzero");
    let b = FaultMap::fault_free(5, 4).expect("nonzero");
    assert!(a.union(&b).is_err());
}

#[test]
fn errors_display_and_chain() {
    use std::error::Error as _;
    let e: ReduceError = FaultMap::fault_free(0, 0).expect_err("degenerate").into();
    assert!(e.to_string().contains("systolic"));
    assert!(e.source().is_some());
}

#[test]
fn poisoned_checkpoint_rejected() {
    let mut model = models::mlp(&[2, 3, 2], 0).expect("valid dims");
    let mut state = model.state_dict();
    // Truncate.
    state.pop();
    assert!(model.load_state_dict(&state).is_err());
    // Reshape an entry.
    let mut state = model.state_dict();
    state[0].1 = Tensor::zeros([1, 1]);
    assert!(model.load_state_dict(&state).is_err());
}
