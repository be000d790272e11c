//! Golden numerics: bit-identity checks on the training hot path.
//!
//! Two short seeded FAT jobs have every output bit pinned. Each job
//! pretrains, masks one fault map with FAP and retrains for two
//! epochs through `FatRunner::run`, which exercises every kernel the
//! training and evaluation loops use: the im2col/col2im lowering, the
//! packed and blocked GEMM families, the first layer's backward and the
//! per-chip model build. The constants were recorded from the code as it
//! stood before those kernels were last optimised; any change to a
//! kernel's floating-point evaluation order shows up here as a failed
//! `cargo test`, not only as a benchmark mismatch.
//!
//! If a change *means* to move bits, re-record the constants from the
//! assertion messages and say so in the change description.

use reduce_repro::core::{FatOutcome, FatRunner, Mitigation, StopRule, Workbench};
use reduce_repro::nn::layers::Mode;
use reduce_repro::systolic::{fap_mask, FaultMap, FaultModel};
use reduce_repro::tensor::Tensor;

/// FNV-1a over every key byte and every value's shape and f32 bits, in
/// state-dict order.
fn digest(state: &[(String, Tensor)]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for (key, value) in state {
        eat(key.as_bytes());
        for &d in value.dims() {
            eat(&(d as u64).to_le_bytes());
        }
        for v in value.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// The bits of the pre-retrain accuracy followed by each epoch's.
fn curve_bits(out: &FatOutcome) -> Vec<u32> {
    std::iter::once(out.pre_retrain_accuracy)
        .chain(out.accuracy_after_epoch.iter().copied())
        .map(f32::to_bits)
        .collect()
}

/// Pretrains `wb`, then retrains one FAP-masked chip for two epochs.
fn golden_job(wb: Workbench, pretrain_epochs: usize, rate: f64, seed: u64) -> (u64, FatOutcome) {
    let (rows, cols) = wb.array_dims();
    let pretrained = wb.pretrain(pretrain_epochs).expect("valid workbench");
    let runner = FatRunner::new(wb).expect("valid workbench");
    let chip = FaultMap::generate(rows, cols, rate, FaultModel::Random, seed).expect("valid rate");
    let out = runner
        .run(
            &pretrained,
            &chip,
            2,
            StopRule::Exact,
            Mitigation::Fap,
            seed,
        )
        .expect("FAT runs");
    (digest(&pretrained.state), out)
}

#[test]
fn nano_vgg_fat_job_is_bit_identical() {
    // 88 training samples: two full batches of 32 and a ragged one of 24.
    let (pretrained, out) = golden_job(Workbench::paper_scale(88, 40, 3), 6, 0.2, 5);
    assert_eq!(
        (pretrained, curve_bits(&out), digest(&out.final_state)),
        (
            1_888_614_212_347_908_654,
            vec![1_028_443_341, 1_028_443_341, 1_033_476_506],
            17_955_705_901_465_274_453,
        ),
        "nano-VGG golden job moved"
    );
}

#[test]
fn toy_mlp_fat_job_is_bit_identical() {
    let (pretrained, out) = golden_job(Workbench::toy(4), 3, 0.25, 9);
    assert_eq!(
        (pretrained, curve_bits(&out), digest(&out.final_state)),
        (
            8_605_047_431_697_182_720,
            vec![1_059_271_475, 1_063_675_494, 1_064_304_640],
            13_553_795_986_861_645_511,
        ),
        "toy MLP golden job moved"
    );
}

/// The bits of every parameter gradient, in parameter order.
fn grad_bits(model: &reduce_repro::nn::Sequential) -> Vec<Vec<u32>> {
    model
        .params()
        .iter()
        .map(|p| p.grad().data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn first_layer_param_only_backward_matches_the_full_backward() {
    // A training step skips the first layer's input gradient; every
    // parameter gradient must come out as the full backward's, with and
    // without FAP masks on the weights.
    for (wb, input) in [
        (Workbench::paper_scale(8, 8, 2), vec![5, 3, 16, 16]),
        (Workbench::toy(2), vec![5, 8]),
    ] {
        let (rows, cols) = wb.array_dims();
        let chip = FaultMap::generate(rows, cols, 0.2, FaultModel::Random, 3).expect("valid rate");
        let x = Tensor::rand_uniform(input, -1.0, 1.0, 4);
        for masked in [false, true] {
            let model = || {
                let mut m = wb.model.build(wb.seed).expect("valid spec");
                if masked {
                    let masks: Vec<_> = m
                        .weight_params()
                        .iter()
                        .map(|p| {
                            let d = p.value().dims();
                            Some(fap_mask(d[0], d[1], &chip).expect("fits the array"))
                        })
                        .collect();
                    m.set_weight_masks(&masks).expect("one mask per weight");
                }
                m
            };
            let (mut full, mut lean) = (model(), model());
            let y = full.forward(&x, Mode::Train).expect("valid input");
            let g = Tensor::rand_uniform(y.dims().to_vec(), -1.0, 1.0, 5);
            full.backward(&g).expect("forward ran");
            lean.forward(&x, Mode::Train).expect("valid input");
            lean.backward_params(&g).expect("forward ran");
            assert_eq!(
                grad_bits(&full),
                grad_bits(&lean),
                "{:?} masked={masked}",
                wb.model
            );
        }
    }
}
