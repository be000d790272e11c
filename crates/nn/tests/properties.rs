//! Property-based tests for the NN framework: invariants over arbitrary
//! architectures, data and masks.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reduce_nn::layers::{Linear, Mode, Relu};
use reduce_nn::{
    accuracy, evaluate, models, CrossEntropyLoss, Loss, Parameter, Sequential, Sgd, Target,
    TrainConfig, Trainer,
};
use reduce_tensor::Tensor;

/// Strategy: small MLP dims (input, hidden..., classes>=2).
fn mlp_dims() -> impl Strategy<Value = Vec<usize>> {
    (
        2usize..6,
        prop::collection::vec(2usize..12, 1..3),
        2usize..5,
    )
        .prop_map(|(inp, hidden, classes)| {
            let mut dims = vec![inp];
            dims.extend(hidden);
            dims.push(classes);
            dims
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cross-entropy gradient rows always sum to ~0 (softmax simplex
    /// tangency), for any logits and labels.
    #[test]
    fn ce_grad_rows_sum_to_zero(
        n in 1usize..6,
        c in 2usize..6,
        seed in 0u64..1000,
    ) {
        let logits = Tensor::rand_uniform([n, c], -4.0, 4.0, seed);
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
        let out = CrossEntropyLoss.evaluate(&logits, Target::Labels(&labels))
            .expect("consistent");
        for i in 0..n {
            let s: f32 = out.grad.row_slice(i).expect("in range").iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {i} sums to {s}");
        }
        prop_assert!(out.loss >= 0.0);
    }

    /// Loss is minimal exactly when the correct logit dominates.
    #[test]
    fn ce_rewards_correct_confidence(c in 2usize..6, label in 0usize..6) {
        let label = label % c;
        let mut good = Tensor::zeros([1, c]);
        good.data_mut()[label] = 10.0;
        let mut bad = Tensor::zeros([1, c]);
        bad.data_mut()[(label + 1) % c] = 10.0;
        let lg = CrossEntropyLoss.evaluate(&good, Target::Labels(&[label]))
            .expect("consistent").loss;
        let lb = CrossEntropyLoss.evaluate(&bad, Target::Labels(&[label]))
            .expect("consistent").loss;
        prop_assert!(lg < lb);
    }

    /// A few epochs of SGD never leave the evaluated loss higher than 3x
    /// the initial loss, and usually reduce it, for arbitrary small MLPs on
    /// separable blobs.
    #[test]
    fn sgd_training_reduces_loss(dims in mlp_dims(), seed in 0u64..500) {
        let inp = dims[0];
        let classes = *dims.last().expect("non-empty");
        let mut model = models::mlp(&dims, seed).expect("valid dims");
        // Separable two-blob data projected into `inp` dims.
        let n = 64;
        let mut data = Vec::with_capacity(n * inp);
        let mut labels = Vec::with_capacity(n);
        let noise = Tensor::rand_uniform([n * inp], -0.3, 0.3, seed + 1);
        for i in 0..n {
            let class = i % classes;
            let centre = class as f32 * 2.0 / classes as f32 - 1.0;
            for d in 0..inp {
                data.push(centre + noise.data()[i * inp + d]);
            }
            labels.push(class);
        }
        let x = Tensor::from_vec(data, [n, inp]).expect("length matches");
        let mut trainer = Trainer::new(
            Sgd::with_momentum(0.03, 0.9),
            CrossEntropyLoss,
            TrainConfig { batch_size: 16, shuffle_seed: seed, ..TrainConfig::default() },
        );
        let first = evaluate(&mut model, &CrossEntropyLoss, &x, &labels, 16)
            .expect("valid data").loss;
        trainer.fit(&mut model, &x, &labels, 6).expect("valid data");
        let last = evaluate(&mut model, &CrossEntropyLoss, &x, &labels, 16)
            .expect("valid data").loss;
        prop_assert!(last.is_finite());
        prop_assert!(last <= first * 3.0 + 1.0, "diverged: {first} -> {last}");
    }

    /// Whatever mask is installed, arbitrary training steps never move a
    /// masked weight off zero.
    #[test]
    fn masks_survive_arbitrary_training(
        mask_bits in prop::collection::vec(prop::bool::ANY, 24),
        steps in 1usize..5,
        seed in 0u64..500,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = Sequential::new()
            .push(Linear::new(4, 6, &mut rng))
            .push(Relu::new())
            .push(Linear::new(6, 2, &mut rng));
        let mask = Tensor::from_vec(
            mask_bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
            [6, 4],
        ).expect("length matches");
        model.set_weight_masks(&[Some(mask.clone()), None]).expect("count matches");
        let x = Tensor::rand_uniform([16, 4], -1.0, 1.0, seed + 2);
        let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let mut trainer = Trainer::new(
            Sgd::with_momentum(0.1, 0.9),
            CrossEntropyLoss,
            TrainConfig::default(),
        );
        for _ in 0..steps {
            trainer.train_epoch(&mut model, &x, &labels).expect("valid data");
        }
        prop_assert!(model.mask_invariants_hold());
        let w = model.weight_params()[0].value().clone();
        for (wv, mv) in w.data().iter().zip(mask.data()) {
            if *mv == 0.0 {
                prop_assert_eq!(*wv, 0.0);
            }
        }
    }

    /// state_dict / load_state_dict round-trips arbitrary MLPs exactly.
    #[test]
    fn checkpoint_round_trip(dims in mlp_dims(), seed in 0u64..500) {
        let model = models::mlp(&dims, seed).expect("valid dims");
        let state = model.state_dict();
        let mut fresh = models::mlp(&dims, seed + 1).expect("valid dims");
        fresh.load_state_dict(&state).expect("same architecture");
        prop_assert_eq!(fresh.state_dict(), state);
    }

    /// Accuracy is always within [0, 1] and exact for degenerate logits.
    #[test]
    fn accuracy_bounds(n in 1usize..20, c in 2usize..6, seed in 0u64..500) {
        let logits = Tensor::rand_uniform([n, c], -1.0, 1.0, seed);
        let labels: Vec<usize> = (0..n).map(|i| (i * 7) % c).collect();
        let a = accuracy(&logits, &labels).expect("consistent");
        prop_assert!((0.0..=1.0).contains(&a));
    }

    /// Optimizer updates scale linearly with the learning rate for plain
    /// SGD (no momentum, no decay).
    #[test]
    fn sgd_update_linear_in_lr(lr in 0.001f32..0.5, g in -2.0f32..2.0) {
        let mut p1 = Parameter::new("w", Tensor::ones([1]));
        p1.grad_mut().data_mut()[0] = g;
        let mut o1 = Sgd::new(lr);
        use reduce_nn::Optimizer as _;
        o1.step(&mut [&mut p1]).expect("stable");
        let delta1 = 1.0 - p1.value().data()[0];

        let mut p2 = Parameter::new("w", Tensor::ones([1]));
        p2.grad_mut().data_mut()[0] = g;
        let mut o2 = Sgd::new(2.0 * lr);
        o2.step(&mut [&mut p2]).expect("stable");
        let delta2 = 1.0 - p2.value().data()[0];
        prop_assert!((delta2 - 2.0 * delta1).abs() < 1e-5);
    }

    /// A state dict taken before the live model is mutated loads back
    /// bit-identically for arbitrary MLPs: its copy-on-write entries do not
    /// follow the mutation.
    #[test]
    fn state_dict_survives_mutation_bit_identically(dims in mlp_dims(), seed in 0u64..500) {
        let mut model = models::mlp(&dims, seed).expect("valid dims");
        let snap = model.state_dict();
        let reference: Vec<(String, Tensor)> = snap
            .iter()
            .map(|(k, t)| {
                let copy = Tensor::from_vec(t.data().to_vec(), t.dims().to_vec());
                (k.clone(), copy.expect("same volume"))
            })
            .collect();
        // Mutate the live model: the state dict must not follow.
        for p in model.params_mut() {
            p.value_mut().fill(3.25);
        }
        model.load_state_dict(&snap).expect("same architecture");
        let back = model.state_dict();
        prop_assert_eq!(back.len(), reference.len());
        for ((k1, v1), (k2, v2)) in back.iter().zip(&reference) {
            prop_assert_eq!(k1, k2);
            prop_assert_eq!(v1, v2);
        }
    }

    /// Two models loaded from one shared state dict stay isolated: masking
    /// one (the copy-on-write trigger) never leaks masked zeros into the
    /// other model or back into the state dict.
    #[test]
    fn restored_models_do_not_alias_across_masks(
        dims in mlp_dims(),
        mask_bits in prop::collection::vec(prop::bool::ANY, 64),
        seed in 0u64..500,
    ) {
        let pretrained = models::mlp(&dims, seed).expect("valid dims");
        let snap = pretrained.state_dict();
        let mut chip_a = models::mlp(&dims, seed + 1).expect("valid dims");
        let mut chip_b = models::mlp(&dims, seed + 2).expect("valid dims");
        chip_a.load_state_dict(&snap).expect("same architecture");
        chip_b.load_state_dict(&snap).expect("same architecture");
        // Mask chip A's first weight matrix with arbitrary bits.
        let wdims = chip_a.weight_params()[0].value().dims().to_vec();
        let len: usize = wdims.iter().product();
        let mask = Tensor::from_vec(
            (0..len)
                .map(|i| if mask_bits[i % mask_bits.len()] { 1.0 } else { 0.0 })
                .collect(),
            wdims,
        ).expect("length matches");
        let n_weights = chip_a.weight_params().len();
        let masks: Vec<Option<Tensor>> = (0..n_weights)
            .map(|i| if i == 0 { Some(mask.clone()) } else { None })
            .collect();
        chip_a.set_weight_masks(&masks).expect("count matches");
        prop_assert!(chip_a.mask_invariants_hold());
        // Chip B and the state dict keep the original (unmasked) weights.
        for ((_, s), p) in snap.iter().zip(chip_b.params()) {
            prop_assert_eq!(s, p.value());
        }
        for ((_, s), p) in snap.iter().zip(pretrained.params()) {
            prop_assert_eq!(s, p.value());
        }
    }

    /// Eval-mode forward passes are pure: repeating them gives identical
    /// outputs and leaves parameters untouched.
    #[test]
    fn eval_forward_is_pure(dims in mlp_dims(), seed in 0u64..500) {
        let mut model = models::mlp(&dims, seed).expect("valid dims");
        let before = model.state_dict();
        let x = Tensor::rand_uniform([3, dims[0]], -1.0, 1.0, seed + 5);
        let y1 = model.forward(&x, Mode::Eval).expect("valid input");
        let y2 = model.forward(&x, Mode::Eval).expect("valid input");
        prop_assert_eq!(y1, y2);
        prop_assert_eq!(model.state_dict(), before);
    }
}
