//! Property-based tests for dataset invariants.

use proptest::prelude::*;
use reduce_data::{blobs, SynthImageConfig, SynthTask};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A split always partitions the dataset: sizes add up, and every
    /// sample appears in exactly one side (verified via feature rows).
    #[test]
    fn split_partitions(
        n in 2usize..200,
        frac in 0.05f32..0.95,
        seed in 0u64..500,
    ) {
        let d = blobs(n, 3, 2, 2.0, 0.5, seed).expect("valid");
        let (tr, te) = d.split(frac, seed).expect("valid fraction");
        prop_assert_eq!(tr.len() + te.len(), n);
        let expected = ((n as f32) * frac).round() as usize;
        prop_assert_eq!(tr.len(), expected.min(n));
    }

    /// Subsets preserve the selected rows exactly, in order.
    #[test]
    fn subset_preserves_rows(
        n in 1usize..50,
        pick in prop::collection::vec(0usize..50, 1..10),
        seed in 0u64..200,
    ) {
        let d = blobs(n, 2, 2, 2.0, 0.5, seed).expect("valid");
        let idx: Vec<usize> = pick.into_iter().map(|i| i % n).collect();
        let s = d.subset(&idx).expect("indices valid");
        prop_assert_eq!(s.len(), idx.len());
        for (k, &i) in idx.iter().enumerate() {
            let want = &d.features().data()[i * 2..(i + 1) * 2];
            let got = &s.features().data()[k * 2..(k + 1) * 2];
            prop_assert_eq!(want, got);
            prop_assert_eq!(s.labels()[k], d.labels()[i]);
        }
    }

    /// Label-noise flip counts concentrate near the requested fraction and
    /// all labels stay in range.
    #[test]
    fn label_noise_in_range(
        frac in 0.0f32..0.8,
        seed in 0u64..300,
    ) {
        let n = 2000;
        let d = blobs(n, 2, 4, 2.0, 0.5, seed).expect("valid");
        let orig = d.labels().to_vec();
        let noisy = d.with_label_noise(frac, seed).expect("valid fraction");
        prop_assert!(noisy.labels().iter().all(|&l| l < 4));
        let flipped = orig
            .iter()
            .zip(noisy.labels())
            .filter(|(a, b)| a != b)
            .count() as f32 / n as f32;
        prop_assert!((flipped - frac).abs() < 0.08, "flipped {flipped} vs {frac}");
    }

    /// The toy generator is deterministic per seed and balanced.
    #[test]
    fn generators_deterministic(n in 4usize..100, seed in 0u64..300) {
        let a = blobs(n, 2, 2, 3.0, 0.5, seed).expect("valid");
        let b = blobs(n, 2, 2, 3.0, 0.5, seed).expect("valid");
        prop_assert_eq!(&a, &b);
        // Balance (round-robin): class counts differ by at most 1.
        let counts = a.class_counts();
        prop_assert!(counts.iter().max().expect("non-empty")
            - counts.iter().min().expect("non-empty") <= 1);
    }

    /// Synthetic image sampling is deterministic per (task seed, sample
    /// seed) and produces finite pixels.
    #[test]
    fn synth_images_deterministic(task_seed in 0u64..100, sample_seed in 0u64..100) {
        let cfg = SynthImageConfig {
            classes: 3,
            hw: 6,
            channels: 2,
            samples: 12,
            pixel_noise: 0.3,
            amplitude_jitter: 0.2,
            max_shift: 1,
            label_noise: 0.1,
            seed: task_seed,
        };
        let task = SynthTask::new(cfg).expect("valid config");
        let a = task.sample(12, sample_seed).expect("nonzero");
        let b = task.sample(12, sample_seed).expect("nonzero");
        prop_assert_eq!(&a, &b);
        prop_assert!(a.features().all_finite());
        prop_assert!(a.labels().iter().all(|&l| l < 3));
    }
}
