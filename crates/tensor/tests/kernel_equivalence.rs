//! Property tests: the tiled, register-blocked GEMM kernels are
//! numerically equivalent to the naive reference across random shapes —
//! including shapes that are not multiples of the 6x16 micro-tile, so
//! every remainder path (row blocks of 1..=5, column tails of 1..=15)
//! gets exercised — and the `_into` variants match the allocating ones.
//! For `nn` the tiled kernels are bit-identical to the reference, which
//! the ReLU-like (half exact zeros) property pins down.

use mprec_tensor::{Kernel, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random matrix from a seed.
fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0f32..2.0))
}

/// Deterministic ReLU-like matrix: about half the entries are exact
/// zeros of either sign, the rest finite and signed.
fn relu_like(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_bool(0.5) {
            if rng.gen_bool(0.5) {
                0.0
            } else {
                -0.0
            }
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

/// Bit-for-bit comparison (distinguishes `+0` from `-0`).
fn assert_bits_eq(tiled: &Matrix, naive: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(tiled.shape(), naive.shape());
    for (i, (t, n)) in tiled.as_slice().iter().zip(naive.as_slice()).enumerate() {
        prop_assert!(
            t.to_bits() == n.to_bits(),
            "element {}: tiled {:e} vs naive {:e}",
            i,
            t,
            n
        );
    }
    Ok(())
}

/// Relative-tolerance comparison: the tiled kernels may reassociate
/// sums, so demand agreement within 1e-4 relative to the magnitude.
fn assert_close(tiled: &Matrix, naive: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(tiled.shape(), naive.shape());
    for (i, (t, n)) in tiled.as_slice().iter().zip(naive.as_slice()).enumerate() {
        prop_assert!(
            (t - n).abs() <= 1e-4 * (1.0 + n.abs()),
            "element {}: tiled {} vs naive {}",
            i,
            t,
            n
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiled_matmul_matches_naive(
        m in 1usize..80,
        k in 1usize..80,
        n in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed.wrapping_add(1));
        let tiled = a.matmul_with(&b, Kernel::Tiled).unwrap();
        let naive = a.matmul_with(&b, Kernel::Naive).unwrap();
        assert_close(&tiled, &naive)?;
    }

    #[test]
    fn narrow_tiled_matmul_is_bit_identical_to_naive(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..16,
        seed in 0u64..1_000_000,
    ) {
        // Narrow outputs (the 8-row blocked kernels, row-blocked dot for
        // n == 1) and, for the same A, a width past one micro-tile (the
        // 6x16 kernels): both accumulate in k order like the reference.
        let a = relu_like(m, k, seed);
        for width in [n, n + 16] {
            let b = relu_like(k, width, seed.wrapping_add(8));
            let tiled = a.matmul_with(&b, Kernel::Tiled).unwrap();
            let naive = a.matmul_with(&b, Kernel::Naive).unwrap();
            assert_bits_eq(&tiled, &naive)?;
        }
    }

    #[test]
    fn tiled_matmul_nt_matches_naive(
        m in 1usize..60,
        k in 1usize..60,
        n in 1usize..60,
        seed in 0u64..1_000_000,
    ) {
        let a = mat(m, k, seed);
        let b = mat(n, k, seed.wrapping_add(2));
        let tiled = a.matmul_nt_with(&b, Kernel::Tiled).unwrap();
        let naive = a.matmul_nt_with(&b, Kernel::Naive).unwrap();
        assert_close(&tiled, &naive)?;
    }

    #[test]
    fn tiled_matmul_tn_matches_naive(
        m in 1usize..60,
        k in 1usize..60,
        n in 1usize..60,
        seed in 0u64..1_000_000,
    ) {
        let a = mat(k, m, seed);
        let b = mat(k, n, seed.wrapping_add(3));
        let tiled = a.matmul_tn_with(&b, Kernel::Tiled).unwrap();
        let naive = a.matmul_tn_with(&b, Kernel::Naive).unwrap();
        assert_close(&tiled, &naive)?;
    }

    #[test]
    fn into_variants_match_allocating_forms(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed.wrapping_add(4));
        let bt = mat(n, k, seed.wrapping_add(5));
        let at = mat(k, m, seed.wrapping_add(6));
        // Deliberately mis-shaped buffers: _into must resize.
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&b, &mut out).unwrap();
        prop_assert_eq!(&out, &a.matmul(&b).unwrap());
        a.matmul_nt_into(&bt, &mut out).unwrap();
        prop_assert_eq!(&out, &a.matmul_nt(&bt).unwrap());
        at.matmul_tn_into(&b, &mut out).unwrap();
        prop_assert_eq!(&out, &at.matmul_tn(&b).unwrap());
    }

    #[test]
    fn micro_tile_boundary_shapes_are_exact(
        // Shapes straddling the 6-row / 16-column micro-tile boundaries.
        dm in 0usize..3,
        dn in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        for (base_m, base_n) in [(6, 16), (12, 32), (18, 48)] {
            let m = base_m + dm - 1;
            let n = base_n + dn - 1;
            let a = mat(m, 17, seed);
            let b = mat(17, n, seed.wrapping_add(7));
            let tiled = a.matmul_with(&b, Kernel::Tiled).unwrap();
            let naive = a.matmul_with(&b, Kernel::Naive).unwrap();
            assert_close(&tiled, &naive)?;
        }
    }
}
