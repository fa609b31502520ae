//! Matrix exponential via scaling-and-squaring with Padé approximation.
//!
//! Matrix-exponential distributions evaluate their reliability function as
//! `R(x) = p · exp(−B·x) · ε` (Lipsky's LAQT notation), so a dependable
//! `exp(A)` is required by the `performa-dist` crate. The implementation
//! follows the classic Higham scaling-and-squaring scheme with a fixed
//! degree-13 Padé approximant, which is more than accurate enough for the
//! well-conditioned generator matrices used here.

use crate::lu::LuWorkspace;
use crate::{Matrix, Result};

/// Degree-13 Padé coefficients (Higham 2005).
const PADE13: [f64; 14] = [
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
];

/// Computes the matrix exponential `exp(A)`.
///
/// # Errors
///
/// * [`crate::LinalgError::NotSquare`] if `a` is rectangular.
/// * [`crate::LinalgError::Singular`] if the Padé denominator is singular
///   (does not happen for finite input after scaling).
///
/// # Example
///
/// ```
/// use performa_linalg::{Matrix, expm::expm};
///
/// // exp of a diagonal matrix is elementwise exp on the diagonal.
/// let a = Matrix::diag(&[0.0, 1.0]);
/// let e = expm(&a)?;
/// assert!((e[(1, 1)] - std::f64::consts::E).abs() < 1e-12);
/// # Ok::<(), performa_linalg::LinalgError>(())
/// ```
pub fn expm(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(crate::LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.nrows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }

    // Scaling: bring ‖A/2^s‖₁ below the degree-13 threshold θ₁₃ ≈ 5.37.
    let norm = a.norm_one();
    let theta13 = 5.371920351148152;
    let s = if norm > theta13 {
        ((norm / theta13).log2().ceil()) as u32
    } else {
        0
    };
    let a_scaled = a * (0.5_f64.powi(s as i32));

    // Padé 13: U = A·(b13·A6·A6 + b11·A6·A4 + ... ), V similar even part.
    let a1 = a_scaled.clone();
    let a2 = &a1 * &a1;
    let a4 = &a2 * &a2;
    let a6 = &a2 * &a4;
    let id = Matrix::identity(n);

    let b = &PADE13;
    let u_inner = &a6 * (&a6 * b[13] + &a4 * b[11] + &a2 * b[9])
        + &a6 * b[7]
        + &a4 * b[5]
        + &a2 * b[3]
        + &id * b[1];
    let u = &a1 * &u_inner;
    let v = &a6 * (&a6 * b[12] + &a4 * b[10] + &a2 * b[8])
        + &a6 * b[6]
        + &a4 * b[4]
        + &a2 * b[2]
        + &id * b[0];

    // exp(A) ≈ (V − U)⁻¹ (V + U)
    let denom = &v - &u;
    let numer = &v + &u;
    let mut lu = LuWorkspace::new(n);
    lu.factor(&denom)?;
    let mut e = Matrix::zeros(n, n);
    lu.solve_mat_into(&numer, &mut e)?;

    // Squaring phase.
    for _ in 0..s {
        e = &e * &e;
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_of_zero_is_identity() {
        let e = expm(&Matrix::zeros(3, 3)).unwrap();
        assert!(e.max_abs_diff(&Matrix::identity(3)) < 1e-14);
    }

    #[test]
    fn exp_of_diagonal() {
        let a = Matrix::diag(&[-1.0, 2.0, 0.5]);
        let e = expm(&a).unwrap();
        for (i, &d) in [-1.0, 2.0, 0.5].iter().enumerate() {
            assert!((e[(i, i)] - f64::exp(d)).abs() < 1e-12);
        }
        assert!(e[(0, 1)].abs() < 1e-13);
    }

    #[test]
    fn exp_of_nilpotent() {
        // A = [[0,1],[0,0]] => exp(A) = I + A.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let e = expm(&a).unwrap();
        assert!(e.max_abs_diff(&Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]])) < 1e-14);
    }

    #[test]
    fn exp_of_generator_is_stochastic() {
        // exp(Q·t) of a CTMC generator is a stochastic matrix for any t ≥ 0.
        let q = Matrix::from_rows(&[&[-2.0, 2.0], &[3.0, -3.0]]);
        for &t in &[0.1, 1.0, 10.0, 100.0] {
            let p = expm(&(&q * t)).unwrap();
            for i in 0..2 {
                let row_sum: f64 = p.row(i).iter().sum();
                assert!((row_sum - 1.0).abs() < 1e-10, "t={t}: row sum {row_sum}");
                for j in 0..2 {
                    assert!(p[(i, j)] >= -1e-12);
                }
            }
        }
    }

    #[test]
    fn exp_additivity_for_commuting() {
        // exp(A+A) = exp(A)² for any A (A commutes with itself).
        let a = Matrix::from_rows(&[&[0.3, -0.2], &[0.1, 0.4]]);
        let e1 = expm(&(&a * 2.0)).unwrap();
        let e2 = expm(&a).unwrap();
        let e2sq = &e2 * &e2;
        assert!(e1.max_abs_diff(&e2sq) < 1e-12);
    }

    #[test]
    fn large_norm_triggers_scaling() {
        let a = Matrix::from_rows(&[&[-50.0, 50.0], &[70.0, -70.0]]);
        let p = expm(&a).unwrap();
        // Stationary distribution of this generator is (7/12, 5/12).
        for i in 0..2 {
            assert!((p[(i, 0)] - 7.0 / 12.0).abs() < 1e-9);
            assert!((p[(i, 1)] - 5.0 / 12.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rectangular_rejected() {
        assert!(expm(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn empty_matrix_ok() {
        assert_eq!(expm(&Matrix::zeros(0, 0)).unwrap().shape(), (0, 0));
    }

    #[test]
    fn scalar_case_matches_exp() {
        for &x in &[-3.0, -0.5, 0.0, 1.3, 4.2] {
            let e = expm(&Matrix::from_rows(&[&[x]])).unwrap();
            assert!((e[(0, 0)] - x.exp()).abs() < 1e-12 * x.exp().max(1.0));
        }
    }
}
