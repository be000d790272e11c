//! O(1) CoW state dicts vs deep state copies — the memory-model claim
//! behind the zero-copy model lifecycle.
//!
//! `Sequential::state_dict`/`load_state_dict` bump reference counts on the
//! shared copy-on-write storage, so their cost is independent of parameter
//! count and byte volume; the deep-copy baseline (what a state dict cost
//! before the CoW storage landed) scales with model size. Benched on both
//! the toy MLP and the paper-scale nano-VGG so the size-independence is
//! visible: state-dict time stays flat while deep-copy time grows with the
//! parameter count.

use criterion::{criterion_group, criterion_main, Criterion};
use reduce_core::Workbench;
use reduce_nn::Sequential;
use reduce_tensor::Tensor;
use std::hint::black_box;

fn deep_state_copy(model: &Sequential) -> Vec<(String, Tensor)> {
    model
        .state_dict()
        .into_iter()
        .map(|(name, t)| {
            let copy = Tensor::from_vec(t.data().to_vec(), t.dims().to_vec()).expect("same volume");
            (name, copy)
        })
        .collect()
}

fn bench_snapshot_vs_clone(c: &mut Criterion) {
    let toy = Workbench::toy(1);
    let vgg = Workbench::paper_scale(32, 32, 1);
    let models = [("toy_mlp", &toy), ("nano_vgg", &vgg)];

    for (name, wb) in models {
        let model = wb.model.build(wb.seed).expect("valid spec");
        let mut group = c.benchmark_group(&format!("snapshot_vs_clone/{name}"));

        group.bench_function("cow_snapshot", |b| {
            b.iter(|| black_box(&model).state_dict())
        });

        group.bench_function("cow_snapshot_and_restore", |b| {
            let state = model.state_dict();
            let mut target = wb.model.build(wb.seed).expect("valid spec");
            b.iter(|| {
                target
                    .load_state_dict(black_box(&state))
                    .expect("matching architecture")
            })
        });

        group.bench_function("deep_state_copy", |b| {
            b.iter(|| deep_state_copy(black_box(&model)))
        });

        group.bench_function("deep_copy_and_load", |b| {
            let state = deep_state_copy(&model);
            let mut target = wb.model.build(wb.seed).expect("valid spec");
            b.iter(|| {
                target
                    .load_state_dict(black_box(&state))
                    .expect("matching architecture")
            })
        });

        group.finish();
    }
}

criterion_group!(benches, bench_snapshot_vs_clone);
criterion_main!(benches);
