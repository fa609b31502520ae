//! Satellite regression: iterative refinement on genuinely
//! ill-conditioned systems (`κ₁ ≥ 1e12`).
//!
//! The witness matrix couples two failure modes in one system:
//!
//! * a Hilbert block (`κ₁(H₁₀) ≈ 1.6e13`) supplying the intrinsic
//!   ill-conditioning that must keep the condition estimate — and with
//!   it the supervisor's `IllConditioned` warning — alive, and
//! * a Wilkinson growth block (unit diagonal, `−1` below, `1` in the
//!   last column) on which partial pivoting suffers its worst-case
//!   `2^(n−1)` element growth, inflating the *componentwise* backward
//!   error of a plain LU solve far above working precision.
//!
//! Plain partial-pivot LU is componentwise backward stable on either
//! scaling pathology alone; elimination growth is what actually loses
//! digits, and iterative refinement must claw at least four orders of
//! magnitude back.

use performa_linalg::lu::LuWorkspace;
use performa_linalg::Matrix;

const HILBERT_DIM: usize = 10;
const GROWTH_DIM: usize = 40;

/// Block-diagonal witness: `H ⊕ W` with `H` the Hilbert matrix and `W`
/// the Wilkinson growth matrix.
fn witness() -> Matrix {
    let n = HILBERT_DIM + GROWTH_DIM;
    Matrix::from_fn(n, n, |i, j| {
        if i < HILBERT_DIM && j < HILBERT_DIM {
            1.0 / ((i + j + 1) as f64)
        } else if i >= HILBERT_DIM && j >= HILBERT_DIM {
            let (wi, wj) = (i - HILBERT_DIM, j - HILBERT_DIM);
            if wi == wj || wj == GROWTH_DIM - 1 {
                1.0
            } else if wi > wj {
                // Slightly perturbed multipliers: with exact ±1 entries
                // the 2^k growth would be computed exactly in f64 and no
                // rounding error would survive to be amplified.
                -1.0 + ((wi * 7 + wj * 13) % 11) as f64 * 1e-5
            } else {
                0.0
            }
        } else {
            0.0
        }
    })
}

/// Oettli–Prager componentwise backward error of `A·X = B`, evaluated
/// independently of the library's internal accounting.
fn componentwise_backward_error(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
    let n = a.nrows();
    let w = b.ncols();
    let mut omega = 0.0_f64;
    for i in 0..n {
        for j in 0..w {
            let mut r = b[(i, j)];
            let mut denom = b[(i, j)].abs();
            for k in 0..n {
                r -= a[(i, k)] * x[(k, j)];
                denom += (a[(i, k)] * x[(k, j)]).abs();
            }
            if denom > 0.0 {
                omega = omega.max((r / denom).abs());
            } else if r != 0.0 {
                return f64::INFINITY;
            }
        }
    }
    omega
}

#[test]
fn refinement_recovers_componentwise_accuracy_on_ill_conditioned_system() {
    let a = witness();
    let n = a.nrows();
    let b = Matrix::from_fn(n, 1, |i, _| if i % 2 == 0 { 1.0 } else { -1.0 });

    // Plain LU path: factor and solve without any hardening.
    let mut plain = LuWorkspace::new(n);
    plain.factor(&a).unwrap();
    let kappa = plain.condition_estimate();
    assert!(
        kappa >= 1e12,
        "witness matrix is not ill-conditioned enough: κ₁ ≈ {kappa:.3e}"
    );
    let mut x_plain = Matrix::zeros(n, 1);
    plain.solve_mat_into(&b, &mut x_plain).unwrap();
    let omega_plain = componentwise_backward_error(&a, &x_plain, &b);

    // Hardened path: equilibration + iterative refinement.
    let mut hardened = LuWorkspace::new(n);
    hardened.factor_hardened(&a).unwrap();
    let mut x_ref = Matrix::zeros(n, 1);
    let stats = hardened.solve_mat_refined_into(&b, &mut x_ref).unwrap();
    let omega_ref = componentwise_backward_error(&a, &x_ref, &b);

    assert!(
        omega_ref * 1e4 <= omega_plain,
        "refinement gain below 1e4×: plain ω = {omega_plain:.3e}, refined ω = {omega_ref:.3e}"
    );
    assert!(
        stats.iterations >= 1,
        "refinement reported no correction steps: {stats:?}"
    );
    assert!(
        stats.backward_error <= stats.initial_backward_error,
        "refinement must never worsen the solve: {stats:?}"
    );
}

#[test]
fn hardening_does_not_mask_ill_conditioning() {
    // The condition estimate of the *equilibrated* factors still flags
    // a Hilbert system: equilibration cures scale imbalance, not the
    // intrinsic near-singularity. This is what keeps the supervisor's
    // IllConditioned warning alive on hardened retries. (The pure
    // Hilbert witness is used here because Hager's estimator is a lower
    // bound whose greedy search can wander into the benign block of the
    // combined witness.)
    let a = Matrix::from_fn(HILBERT_DIM, HILBERT_DIM, |i, j| 1.0 / ((i + j + 1) as f64));
    let mut ws = LuWorkspace::new(a.nrows());
    ws.factor_hardened(&a).unwrap();
    assert!(ws.is_hardened());
    let kappa = ws.condition_estimate();
    assert!(
        kappa >= 1e12,
        "equilibrated condition estimate collapsed to {kappa:.3e}"
    );
}

#[test]
fn refinement_matches_plain_solution_on_well_conditioned_system() {
    // On a benign system the hardened path must agree with the plain
    // path to roundoff — hardening is an accuracy upgrade, never a
    // behavioral fork.
    let n = 8;
    let a = Matrix::from_fn(n, n, |i, j| {
        let h = ((i * 13 + j * 29 + 3) % 41) as f64 / 41.0 - 0.5;
        if i == j {
            h + 9.0
        } else {
            h
        }
    });
    let b = Matrix::from_fn(n, 2, |i, j| (i + j) as f64 - 3.0);

    let mut plain = LuWorkspace::new(n);
    plain.factor(&a).unwrap();
    let mut x_plain = Matrix::zeros(n, 2);
    plain.solve_mat_into(&b, &mut x_plain).unwrap();

    let mut hardened = LuWorkspace::new(n);
    hardened.factor_hardened(&a).unwrap();
    let mut x_ref = Matrix::zeros(n, 2);
    let stats = hardened.solve_mat_refined_into(&b, &mut x_ref).unwrap();

    assert!(stats.converged);
    assert!(x_plain.max_abs_diff(&x_ref) < 1e-12);
}
