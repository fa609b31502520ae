//! Property tests for the blocked GEMM kernel.
//!
//! The cache-blocked kernel ([`performa_linalg::gemm::gemm_into`], behind
//! `&a * &b`) must be numerically indistinguishable from the retained
//! naive triple loop ([`Matrix::mul_naive`]): same pairwise products,
//! different traversal order, so results agree to a relative error far
//! below 1e-12. A deterministic xorshift generator drives a few hundred
//! random shapes — rectangular, non-power-of-two, single-row (`1×N`) and
//! single-column (`N×1`) — plus targeted edge tiles around the kernel's
//! blocking boundaries. Downstream consumers (`kron`, `expm`) are pinned
//! too, since they compose many products.

use performa_linalg::gemm::{gemm_into, KC, MR, NR};
use performa_linalg::{expm, kron, Matrix};

/// Deterministic xorshift64* — keeps the sweep reproducible without an
/// RNG dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `1..=hi`.
    fn dim(&mut self, hi: usize) -> usize {
        1 + (self.next_u64() as usize) % hi
    }

    /// Roughly uniform in `[-1, 1]`, with exact zeros mixed in to
    /// exercise the naive kernel's zero-skip path.
    fn entry(&mut self) -> f64 {
        let u = self.next_u64();
        if u.is_multiple_of(17) {
            0.0
        } else {
            (u >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    fn matrix(&mut self, nrows: usize, ncols: usize) -> Matrix {
        Matrix::from_fn(nrows, ncols, |_, _| self.entry())
    }
}

/// Relative max-norm difference `‖x − y‖∞ / max(‖y‖∞, 1)`.
fn rel_diff(x: &Matrix, y: &Matrix) -> f64 {
    x.max_abs_diff(y) / y.max_abs().max(1.0)
}

fn assert_blocked_matches_naive(a: &Matrix, b: &Matrix, label: &str) {
    let blocked = a * b;
    let naive = a.mul_naive(b);
    let diff = rel_diff(&blocked, &naive);
    assert!(
        diff < 1e-12,
        "{label}: {}x{} * {}x{} relative diff {diff:.3e}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
}

#[test]
fn random_rectangular_shapes_match_naive() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for case in 0..200 {
        let (m, k, n) = (rng.dim(96), rng.dim(96), rng.dim(96));
        let a = rng.matrix(m, k);
        let b = rng.matrix(k, n);
        assert_blocked_matches_naive(&a, &b, &format!("random case {case}"));
    }
}

#[test]
fn row_and_column_vector_shapes_match_naive() {
    let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D);
    for &n in &[1usize, 2, 7, NR, NR + 1, 63, 130] {
        // 1×N times N×N, N×N times N×1, outer product, inner product.
        let row = rng.matrix(1, n);
        let square = rng.matrix(n, n);
        let col = rng.matrix(n, 1);
        assert_blocked_matches_naive(&row, &square, "1xN * NxN");
        assert_blocked_matches_naive(&square, &col, "NxN * Nx1");
        assert_blocked_matches_naive(&col, &row, "outer product");
        assert_blocked_matches_naive(&row, &col, "inner product");
    }
}

#[test]
fn blocking_boundary_shapes_match_naive() {
    // Shapes straddling the micro-tile and panel boundaries, where the
    // zero-padded edge handling must not leak padding into results.
    let mut rng = Rng(0x0123_4567_89AB_CDEF);
    let probes = [
        MR - 1,
        MR,
        MR + 1,
        NR - 1,
        NR,
        NR + 1,
        2 * MR + 1,
        2 * NR + 3,
        3 * NR - 1,
        127,
        128,
        129,
    ];
    for &m in &probes {
        for &n in &probes {
            let k = 1 + (m * 31 + n * 17) % 300;
            let a = rng.matrix(m, k);
            let b = rng.matrix(k, n);
            assert_blocked_matches_naive(&a, &b, "boundary");
        }
    }
}

#[test]
fn register_tile_ragged_edges_match_naive() {
    // Every row count through two tiles and a ragged third, against
    // column counts one off each tile multiple, at depths on either side
    // of the KC panel boundary.
    let mut rng = Rng(0x5151_7A7A_0F0F_3C3C);
    for m in 1..=2 * MR + 1 {
        for n in [NR - 1, NR + 1, 2 * NR - 1, 3 * NR + 5] {
            for k in [1, KC - 1, KC + 1] {
                let a = rng.matrix(m, k);
                let b = rng.matrix(k, n);
                assert_blocked_matches_naive(&a, &b, "ragged tile");
            }
        }
    }
}

#[test]
fn accumulating_gemm_matches_naive_composition() {
    let mut rng = Rng(0xFEED_FACE_0BAD_F00D);
    for _ in 0..40 {
        let (m, k, n) = (rng.dim(48), rng.dim(48), rng.dim(48));
        let a = rng.matrix(m, k);
        let b = rng.matrix(k, n);
        let c0 = rng.matrix(m, n);
        let (alpha, beta) = (rng.entry() * 2.0, rng.entry() * 2.0);
        let mut c = c0.clone();
        gemm_into(alpha, &a, &b, beta, &mut c);
        let expect = &(a.mul_naive(&b) * alpha) + &(&c0 * beta);
        assert!(
            rel_diff(&c, &expect) < 1e-12,
            "alpha={alpha} beta={beta} ({m},{k},{n})"
        );
    }
}

#[test]
fn kron_outputs_unchanged_by_kernel_swap() {
    let mut rng = Rng(0x1111_2222_3333_4444);
    let a = rng.matrix(7, 7);
    let b = rng.matrix(5, 5);

    // Kronecker product is defined entrywise — exact, no kernel in play.
    let kp = kron::kron_product(&a, &b);
    for i in 0..35 {
        for j in 0..35 {
            let expect = a[(i / 5, j / 5)] * b[(i % 5, j % 5)];
            assert_eq!(kp[(i, j)], expect, "kron_product entry ({i},{j})");
        }
    }

    // Kronecker sum: A⊕B = A⊗I + I⊗A, also assembled without GEMM.
    let ks = kron::kron_sum(&a, &b);
    let expect =
        &kron::kron_product(&a, &Matrix::identity(5)) + &kron::kron_product(&Matrix::identity(7), &b);
    assert_eq!(ks.max_abs_diff(&expect), 0.0);

    // Powers compose products of identities — still exact.
    let kp3 = kron::kron_product_power(&b, 3);
    assert_eq!(kp3.nrows(), 125);
    let manual = kron::kron_product(&kron::kron_product(&b, &b), &b);
    assert_eq!(kp3.max_abs_diff(&manual), 0.0);
}

#[test]
fn expm_output_unchanged_by_kernel_swap() {
    // A generator-like matrix: expm must produce a stochastic matrix and
    // agree with a Taylor reference built exclusively on mul_naive.
    let q = Matrix::from_rows(&[
        &[-0.9, 0.4, 0.3, 0.2],
        &[0.1, -0.6, 0.25, 0.25],
        &[0.2, 0.2, -0.7, 0.3],
        &[0.05, 0.15, 0.3, -0.5],
    ]);
    let e = expm::expm(&q).unwrap();

    // Taylor series on the naive kernel (‖Q‖ is small enough for direct
    // summation to converge to double precision).
    let n = q.nrows();
    let mut reference = Matrix::identity(n);
    let mut term = Matrix::identity(n);
    for k in 1..60 {
        term = term.mul_naive(&q) * (1.0 / k as f64);
        reference += &term;
    }
    assert!(
        e.max_abs_diff(&reference) < 1e-13,
        "expm drifted from naive-kernel Taylor reference: {}",
        e.max_abs_diff(&reference)
    );

    // Row sums of exp(generator) are exactly 1 up to roundoff.
    for i in 0..n {
        let s: f64 = e.row(i).iter().sum();
        assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
    }
}
