//! Property-based tests for the tensor substrate: algebraic identities that
//! must hold for arbitrary shapes and data.

use proptest::prelude::*;
use reduce_tensor::ops::gemm::{self, GemmVariant};
use reduce_tensor::{ops, Shape, Tensor};

/// Strategy: a randomized GEMM problem size, weighted to include the
/// degenerate GEMV-like axes (`m = 1`, `n = 1`, `k = 1`) alongside
/// shapes large enough to cross tile and cache-block boundaries.
fn gemm_axis() -> impl Strategy<Value = usize> {
    prop_oneof![
        3 => 1usize..=40,
        1 => Just(1usize),
        1 => 120usize..=150,
    ]
}

/// Strategy: a reduction length, also drawn just below, at and past the
/// packed kernel's reduction block `KC` and across two of its panels.
fn gemm_k() -> impl Strategy<Value = usize> {
    prop_oneof![
        5 => gemm_axis(),
        1 => (gemm::KC - 1)..=(gemm::KC + 1),
        1 => Just(2 * gemm::KC + 37),
    ]
}

fn gemm_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (gemm_axis(), gemm_k(), gemm_axis())
}

/// Tolerance for comparing the fused (FMA) packed kernel against the
/// separate-rounding naive oracle over a length-`k` reduction of
/// entries bounded by ~10 (see `gemm` module docs).
fn fma_tol(k: usize) -> f32 {
    1e-3f32.max(k as f32 * 1e-4)
}

/// The three variants with operand tensors generated for a logical
/// `(m, k, n)` problem.
fn variant_operands(
    variant: GemmVariant,
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
) -> (Tensor, Tensor) {
    let (adim, bdim) = match variant {
        GemmVariant::NN => ([m, k], [k, n]),
        GemmVariant::TN => ([k, m], [k, n]),
        GemmVariant::NT => ([m, k], [n, k]),
    };
    (
        Tensor::rand_uniform(adim, -10.0, 10.0, seed),
        Tensor::rand_uniform(bdim, -10.0, 10.0, seed.wrapping_add(1)),
    )
}

/// [`variant_operands`] with about one entry in eight set to `+0.0` and
/// one in eight to `-0.0`, the exact zeros FAP masks write into operands.
fn masked_operands(
    variant: GemmVariant,
    m: usize,
    k: usize,
    n: usize,
    seed: u64,
) -> (Tensor, Tensor) {
    let (mut a, mut b) = variant_operands(variant, m, k, n, seed);
    for t in [&mut a, &mut b] {
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
    }
    (a, b)
}

/// The packed kernel's exact contract, one element at a time: an FMA
/// chain from `+0.0` over ascending `k`, `acc = b.mul_add(a, acc)`,
/// stored as `0.0 + acc` (the zeroed output it is added to).
fn fma_chain_oracle(
    variant: GemmVariant,
    a: &Tensor,
    b: &Tensor,
    (m, k, n): (usize, usize, usize),
) -> Tensor {
    let (ad, bd) = (a.data(), b.data());
    let at = |i: usize, p: usize| match variant {
        GemmVariant::TN => ad[p * m + i],
        GemmVariant::NN | GemmVariant::NT => ad[i * k + p],
    };
    let bt = |p: usize, j: usize| match variant {
        GemmVariant::NT => bd[j * k + p],
        GemmVariant::NN | GemmVariant::TN => bd[p * n + j],
    };
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let acc = (0..k).fold(0.0f32, |acc, p| bt(p, j).mul_add(at(i, p), acc));
            out.push(0.0 + acc);
        }
    }
    Tensor::from_vec(out, [m, n]).expect("m * n elements")
}

/// Strategy: a small matrix with bounded entries.
fn matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, [r, c]).expect("length matches"))
    })
}

/// Strategy: a pair of same-shape matrices.
fn matrix_pair(max_dim: usize) -> impl Strategy<Value = (Tensor, Tensor)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        (
            prop::collection::vec(-10.0f32..10.0, r * c),
            prop::collection::vec(-10.0f32..10.0, r * c),
        )
            .prop_map(move |(a, b)| {
                (
                    Tensor::from_vec(a, [r, c]).expect("length matches"),
                    Tensor::from_vec(b, [r, c]).expect("length matches"),
                )
            })
    })
}

/// The bit patterns of a tensor's elements: a stricter equality than
/// `f32 ==`, which treats `-0.0` as `+0.0` and NaN as unequal to itself.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn addition_commutes((a, b) in matrix_pair(8)) {
        let ab = (&a + &b).expect("same shape");
        let ba = (&b + &a).expect("same shape");
        prop_assert!(ab.approx_eq(&ba, 1e-5));
    }

    #[test]
    fn double_transpose_is_identity(a in matrix(8)) {
        let tt = a.transpose().expect("matrix").transpose().expect("matrix");
        prop_assert_eq!(tt, a);
    }

    #[test]
    fn matmul_identity_right(a in matrix(8)) {
        let (_, c) = a.shape().as_matrix().expect("matrix");
        let prod = ops::matmul(&a, &Tensor::eye(c)).expect("conformable");
        prop_assert!(prod.approx_eq(&a, 1e-4));
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(6), seed in 0u64..1000) {
        // (A·B)ᵀ == Bᵀ·Aᵀ, with B generated to conform.
        let (_, k) = a.shape().as_matrix().expect("matrix");
        let b = Tensor::rand_uniform([k, 5], -1.0, 1.0, seed);
        let lhs = ops::matmul(&a, &b).expect("conformable").transpose().expect("matrix");
        let rhs = ops::matmul(
            &b.transpose().expect("matrix"),
            &a.transpose().expect("matrix"),
        ).expect("conformable");
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn matmul_nt_tn_consistent(a in matrix(6), seed in 0u64..1000) {
        let (m, k) = a.shape().as_matrix().expect("matrix");
        let b = Tensor::rand_uniform([3, k], -1.0, 1.0, seed);
        let nt = ops::matmul_nt(&a, &b).expect("conformable");
        prop_assert_eq!(nt.dims(), &[m, 3]);
        let explicit = ops::matmul(&a, &b.transpose().expect("matrix")).expect("conformable");
        prop_assert!(nt.approx_eq(&explicit, 1e-3));
    }

    #[test]
    fn scale_distributes_over_add((a, b) in matrix_pair(8)) {
        let s = 3.0f32;
        let lhs = &(&a + &b).expect("same shape") * s;
        let rhs = (&(&a * s) + &(&b * s)).expect("same shape");
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn softmax_rows_are_distributions(a in matrix(8)) {
        let p = ops::softmax_rows(&a).expect("matrix");
        let (r, c) = p.shape().as_matrix().expect("matrix");
        for i in 0..r {
            let s: f32 = p.row_slice(i).expect("in range").iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
        prop_assert!(p.data().iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        let _ = c;
    }

    #[test]
    fn reshape_preserves_sum(a in matrix(8)) {
        let n = a.len();
        let r = a.reshape([n]).expect("same volume");
        prop_assert!((r.sum() - a.sum()).abs() < 1e-3);
    }

    #[test]
    fn sum_rows_matches_total(a in matrix(8)) {
        let col_sums = a.sum_rows().expect("matrix");
        prop_assert!((col_sums.sum() - a.sum()).abs() < 1e-2);
    }

    #[test]
    fn shape_offsets_are_bijective(dims in prop::collection::vec(1usize..5, 1..4)) {
        let s = Shape::new(dims.clone());
        let mut seen = vec![false; s.volume()];
        let mut idx = vec![0usize; dims.len()];
        loop {
            let off = s.offset(&idx).expect("valid index");
            prop_assert!(!seen[off]);
            seen[off] = true;
            // Odometer increment.
            let mut d = dims.len();
            loop {
                if d == 0 { break; }
                d -= 1;
                idx[d] += 1;
                if idx[d] < dims[d] { break; }
                idx[d] = 0;
                if d == 0 {
                    prop_assert!(seen.iter().all(|&b| b));
                    return Ok(());
                }
            }
            if idx.iter().all(|&v| v == 0) { break; }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn packed_kernel_agrees_with_naive_oracle(
        (m, k, n) in gemm_dims(),
        seed in 0u64..1000,
    ) {
        // The packed path is forced regardless of shape, so this also
        // covers the degenerate m/n/k = 1 cases production dispatch
        // would route to the blocked loops.
        for variant in [GemmVariant::NN, GemmVariant::TN, GemmVariant::NT] {
            let (a, b) = variant_operands(variant, m, k, n, seed);
            let mut packed = Tensor::full([m, n], f32::NAN);
            gemm::packed_into(variant, &a, &b, &mut packed).expect("conformable");
            let mut naive = Tensor::zeros([m, n]);
            gemm::reference::naive_into(variant, &a, &b, &mut naive).expect("conformable");
            prop_assert!(
                packed.approx_eq(&naive, fma_tol(k)),
                "variant {} shape {}x{}x{}", variant.name(), m, k, n
            );
        }
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_the_fma_chain_oracle(
        (m, k, n) in gemm_dims(),
        seed in 0u64..1000,
    ) {
        // Whatever the blocking (k on both sides of KC, ragged tiles),
        // every element is one ascending-k FMA chain from +0.0, including
        // on FAP-masked operands with exact signed zeros.
        for variant in [GemmVariant::NN, GemmVariant::TN, GemmVariant::NT] {
            let (a, b) = masked_operands(variant, m, k, n, seed);
            let mut packed = Tensor::full([m, n], f32::NAN);
            gemm::packed_into(variant, &a, &b, &mut packed).expect("conformable");
            let want = fma_chain_oracle(variant, &a, &b, (m, k, n));
            prop_assert_eq!(
                bits(&packed), bits(&want),
                "variant {} shape {}x{}x{}", variant.name(), m, k, n
            );
        }
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_naive(
        (m, k, n) in gemm_dims(),
        seed in 0u64..1000,
    ) {
        for variant in [GemmVariant::NN, GemmVariant::TN, GemmVariant::NT] {
            let (a, b) = variant_operands(variant, m, k, n, seed);
            let mut blocked = Tensor::zeros([m, n]);
            gemm::reference::blocked_into(variant, &a, &b, &mut blocked).expect("conformable");
            let mut naive = Tensor::zeros([m, n]);
            gemm::reference::naive_into(variant, &a, &b, &mut naive).expect("conformable");
            prop_assert_eq!(blocked, naive, "variant {} shape {}x{}x{}", variant.name(), m, k, n);
        }
    }

    #[test]
    fn into_variants_match_allocating_bit_for_bit(
        (m, k, n) in gemm_dims(),
        seed in 0u64..1000,
        fill in prop_oneof![Just(0.0f32), Just(f32::NAN), Just(-7.5f32)],
    ) {
        // The `_into` kernels must fully overwrite a reused output
        // workspace: dirty contents (NaN poison, stale values from a
        // previous step) must never leak into the result.
        let results = [
            (GemmVariant::NN, {
                let (a, b) = variant_operands(GemmVariant::NN, m, k, n, seed);
                let mut out = Tensor::full([m, n], fill);
                ops::matmul_into(&a, &b, &mut out).expect("conformable");
                (out, ops::matmul(&a, &b).expect("conformable"))
            }),
            (GemmVariant::TN, {
                let (a, b) = variant_operands(GemmVariant::TN, m, k, n, seed);
                let mut out = Tensor::full([m, n], fill);
                ops::matmul_tn_into(&a, &b, &mut out).expect("conformable");
                (out, ops::matmul_tn(&a, &b).expect("conformable"))
            }),
            (GemmVariant::NT, {
                let (a, b) = variant_operands(GemmVariant::NT, m, k, n, seed);
                let mut out = Tensor::full([m, n], fill);
                ops::matmul_nt_into(&a, &b, &mut out).expect("conformable");
                (out, ops::matmul_nt(&a, &b).expect("conformable"))
            }),
        ];
        for (variant, (reused, fresh)) in results {
            prop_assert_eq!(
                reused.data(), fresh.data(),
                "variant {} shape {}x{}x{} fill {}", variant.name(), m, k, n, fill
            );
        }
    }

    #[test]
    fn conv_lowering_matches_the_scatter_oracles_bit_for_bit(
        (n, c, h, w) in (1usize..=3, 1usize..=4, 1usize..=9, 1usize..=9),
        (kh, kw, stride, padding) in (1usize..=5, 1usize..=5, 1usize..=3, 0usize..=2),
        seed in 0u64..1000,
    ) {
        // Heights and widths drawn apart cover H != W; growing them to
        // the kernel keeps every draw a valid geometry. Outputs start
        // NaN-poisoned, so an element the kernel fails to write shows.
        let (h, w) = (h.max(kh), w.max(kw));
        let geom = ops::Conv2dGeometry::new(h, w, kh, kw, stride, padding)
            .expect("the input covers the kernel");
        let cols_dims = [n * geom.out_positions(), c * kh * kw];
        let x = Tensor::rand_uniform([n, c, h, w], -10.0, 10.0, seed);
        let mut cols = Tensor::full(cols_dims, f32::NAN);
        ops::im2col_into(&x, &geom, &mut cols).expect("geometry matches");
        let mut want = Tensor::full(cols_dims, f32::NAN);
        ops::conv_reference::im2col_into(&x, &geom, &mut want).expect("geometry matches");
        prop_assert_eq!(bits(&cols), bits(&want), "im2col {:?}", geom);

        let dcols = Tensor::rand_uniform(cols_dims, -10.0, 10.0, seed.wrapping_add(1));
        let mut gx = Tensor::full([n, c, h, w], f32::NAN);
        ops::col2im_into(&dcols, n, c, &geom, &mut gx).expect("geometry matches");
        let mut want = Tensor::full([n, c, h, w], f32::NAN);
        ops::conv_reference::col2im_into(&dcols, n, c, &geom, &mut want)
            .expect("geometry matches");
        prop_assert_eq!(bits(&gx), bits(&want), "col2im {:?}", geom);
    }
}
