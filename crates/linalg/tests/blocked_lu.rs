//! Property tests for the blocked LU factor and the blocked right and
//! left substitutions.
//!
//! Sizes straddle the blocking rule: `NB − 1`, `2·NB`, `2·NB + 1` and
//! `3·NB − 1` are a single diagonal block (the unblocked loops), `3·NB`
//! is the first blocked size, `3·NB + 5` ends in a ragged block, and
//! 462 is the paper-scale phase dimension (N = 5, TPT T = 6). The matrices force
//! pivoting across block boundaries: each column's largest entry sits
//! on the anti-diagonal, so the pivot for column `k` lives in row
//! `n − 1 − k`, usually in another block.

use proptest::prelude::*;

use performa_linalg::lu::{FactorOptions, Lu, LuWorkspace, NB};
use performa_linalg::threading::{set_par_min_flops, set_threads, DEFAULT_PAR_MIN_FLOPS};
use performa_linalg::{LinalgError, Matrix};

const SIZES: [usize; 7] = [NB - 1, 2 * NB, 2 * NB + 1, 3 * NB - 1, 3 * NB, 3 * NB + 5, 462];

/// Normwise backward error bound `c·n·ε`.
fn bound(n: usize) -> f64 {
    4.0 * n as f64 * f64::EPSILON
}

/// Entries in `[−0.5, 0.5)` drawn from `vals`, plus an anti-diagonal
/// that dominates its column (`n/4` against a column sum below `n/2`
/// keeps the multipliers small but the diagonal never the pivot).
fn pivot_forcing(n: usize, vals: &[f64]) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let v = vals[(i * 7 + j * 13) % vals.len()] - 0.5;
        if i + j == n - 1 {
            v + n as f64 / 4.0
        } else {
            v
        }
    })
}

fn rhs(nrows: usize, ncols: usize, vals: &[f64]) -> Matrix {
    Matrix::from_fn(nrows, ncols, |i, j| {
        vals[(i * 5 + j * 3 + 1) % vals.len()] - 0.5
    })
}

/// `‖A·X − B‖∞ / (‖A‖∞·‖X‖∞ + ‖B‖∞)`.
fn backward_error_right(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
    (&a.mul_naive(x) - b).norm_inf() / (a.norm_inf() * x.norm_inf() + b.norm_inf())
}

/// `‖X·A − B‖∞ / (‖X‖∞·‖A‖∞ + ‖B‖∞)`.
fn backward_error_left(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
    (&x.mul_naive(a) - b).norm_inf() / (x.norm_inf() * a.norm_inf() + b.norm_inf())
}

proptest! {
    // Every case runs every size, so each size sees every case.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Right and left solves on the blocked factors are normwise
    /// backward stable, with many right-hand sides (blocked
    /// substitution) and with one (unblocked).
    #[test]
    fn blocked_solves_are_backward_stable(
        vals in prop::collection::vec(0.0f64..1.0, 97),
    ) {
        for n in SIZES {
            let a = pivot_forcing(n, &vals);
            let mut ws = LuWorkspace::new(n);
            ws.factor(&a).expect("nonsingular");
            for w in [1usize, n / 2 + 3] {
                let b = rhs(n, w, &vals);
                let mut x = Matrix::zeros(n, w);
                ws.solve_mat_into(&b, &mut x).unwrap();
                let err = backward_error_right(&a, &x, &b);
                prop_assert!(err <= bound(n), "right n={n} w={w}: {err:e}");

                let bl = rhs(w, n, &vals[1..]);
                let mut xl = Matrix::zeros(w, n);
                ws.solve_left_mat_into(&bl, &mut xl).unwrap();
                let err = backward_error_left(&a, &xl, &bl);
                prop_assert!(err <= bound(n), "left n={n} rows={w}: {err:e}");
            }
            // The allocating type runs the same blocked factor.
            let x = Lu::factor(&a).unwrap().solve_mat(&Matrix::identity(n)).unwrap();
            let err = backward_error_right(&a, &x, &Matrix::identity(n));
            prop_assert!(err <= bound(n), "Lu inverse n={n}: {err:e}");
        }
    }

    /// `det` carries the sign of the row permutation and the product of
    /// the pivots: `A = Q·L₀·U₀` with a reversal `Q`, unit-lower `L₀`
    /// and upper `U₀` of known diagonal. Off-diagonal entries are
    /// `O(1/n)` so the triangles stay well conditioned (random
    /// triangular matrices are not), while `Q` still moves every pivot
    /// across the matrix.
    #[test]
    fn blocked_factor_determinant_sign_and_magnitude(
        vals in prop::collection::vec(0.0f64..1.0, 61),
    ) {
        for n in SIZES {
            let diag = |i: usize| {
                let v = 0.5 + 1.5 * vals[i % vals.len()];
                if (i * 7 + 3) % 5 < 2 { -v } else { v }
            };
            let off = 1.0 / n as f64;
            let l0 = Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Equal => 1.0,
                std::cmp::Ordering::Greater => (vals[(i + 3 * j) % vals.len()] - 0.5) * off,
                std::cmp::Ordering::Less => 0.0,
            });
            let u0 = Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Equal => diag(i),
                std::cmp::Ordering::Less => (vals[(2 * i + j) % vals.len()] - 0.5) * off,
                std::cmp::Ordering::Greater => 0.0,
            });
            let lu0 = l0.mul_naive(&u0);
            // Row reversal: n/2 transpositions.
            let a = Matrix::from_fn(n, n, |i, j| lu0[(n - 1 - i, j)]);
            let mut sign = if (n / 2) % 2 == 0 { 1.0 } else { -1.0 };
            let mut log_abs = 0.0;
            for i in 0..n {
                sign *= diag(i).signum();
                log_abs += diag(i).abs().ln();
            }
            let det = Lu::factor(&a).unwrap().det();
            prop_assert_eq!(det.signum(), sign, "n={}: det {:e}", n, det);
            let rel = (det.abs().ln() - log_abs).abs() / log_abs.abs().max(1.0);
            prop_assert!(rel <= 1e-10, "n={n}: ln|det| {} vs {log_abs}", det.abs().ln());
        }
    }

    /// The hardened (equilibrated, refined) solves still certify
    /// working precision on the blocked factors.
    #[test]
    fn refined_solves_converge_on_blocked_factors(
        vals in prop::collection::vec(0.0f64..1.0, 89),
    ) {
        for n in SIZES {
            let a = pivot_forcing(n, &vals);
            let mut ws = LuWorkspace::new(n);
            ws.factor_with(&a, FactorOptions::hardened()).unwrap();
            let b = rhs(n, 3, &vals);
            let mut x = Matrix::zeros(n, 3);
            let stats = ws.solve_mat_refined_into(&b, &mut x).unwrap();
            prop_assert!(stats.converged, "right n={n}: {stats:?}");
            let bl = rhs(2, n, &vals[2..]);
            let mut xl = Matrix::zeros(2, n);
            let stats = ws.solve_left_mat_refined_into(&bl, &mut xl).unwrap();
            prop_assert!(stats.converged, "left n={n}: {stats:?}");
        }
    }
}

/// A zero column inside the third diagonal block stays exactly zero
/// through the panel eliminations and trailing GEMM updates, so the
/// factor reports it by its global column index.
#[test]
fn singular_third_block_reports_global_pivot() {
    let n = 3 * NB + 5;
    let dead = 2 * NB + 22;
    let vals: Vec<f64> = (0..97)
        .map(|i| ((i * 37 + 11) % 97) as f64 / 97.0)
        .collect();
    let mut a = pivot_forcing(n, &vals);
    for i in 0..n {
        a[(i, dead)] = 0.0;
    }
    let want = LinalgError::Singular { pivot: dead };
    assert_eq!(Lu::factor(&a).unwrap_err(), want);
    let mut ws = LuWorkspace::new(n);
    assert_eq!(ws.factor(&a).unwrap_err(), want);
    // Row-parallel trailing updates: the only test in this file that
    // touches the process-wide kernel setting, restored right after.
    set_threads(2);
    set_par_min_flops(0);
    let parallel = ws.factor(&a);
    set_threads(1);
    set_par_min_flops(DEFAULT_PAR_MIN_FLOPS);
    assert_eq!(parallel.unwrap_err(), want);
}
