//! Continuous-time Markov chain (CTMC) utilities: generator validation and
//! stationary distributions.

use performa_linalg::{lu::LuWorkspace, Matrix, Vector};

use crate::{MarkovError, Result};

/// Tolerance used when validating generator row sums.
const GENERATOR_TOL: f64 = 1e-8;

/// Checks that `q` is a valid CTMC generator: square, non-negative
/// off-diagonal entries, and (near-)zero row sums.
///
/// # Errors
///
/// [`MarkovError::NotAGenerator`] describing the first violated property.
pub fn validate_generator(q: &Matrix) -> Result<()> {
    if !q.is_square() {
        return Err(MarkovError::NotAGenerator {
            message: format!("matrix is {}x{}, not square", q.nrows(), q.ncols()),
        });
    }
    let n = q.nrows();
    let scale = q.max_abs().max(1.0);
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            let v = q[(i, j)];
            if !v.is_finite() {
                return Err(MarkovError::NotAGenerator {
                    message: format!("entry ({i},{j}) = {v} is not finite"),
                });
            }
            if i != j && v < -GENERATOR_TOL * scale {
                return Err(MarkovError::NotAGenerator {
                    message: format!("off-diagonal entry ({i},{j}) = {v} is negative"),
                });
            }
            row_sum += v;
        }
        if row_sum.abs() > GENERATOR_TOL * scale * n as f64 {
            return Err(MarkovError::NotAGenerator {
                message: format!("row {i} sums to {row_sum}, expected 0"),
            });
        }
    }
    Ok(())
}

/// Computes the stationary distribution `π` of an irreducible CTMC
/// generator: the unique probability vector with `π·Q = 0`.
///
/// The singular system is made non-singular by replacing one balance
/// equation with the normalization `π·ε = 1` (the standard trick; any
/// single column may be replaced because the balance equations are linearly
/// dependent).
///
/// # Errors
///
/// * [`MarkovError::NotAGenerator`] if `q` fails validation.
/// * [`MarkovError::Linalg`] if the replaced system is singular, which
///   indicates a reducible chain (no unique stationary distribution).
///
/// # Example
///
/// ```
/// use performa_linalg::Matrix;
/// use performa_markov::ctmc::steady_state;
///
/// // Two-state chain: rate 1 up→down, rate 3 down→up  =>  π = (3/4, 1/4).
/// let q = Matrix::from_rows(&[&[-1.0, 1.0], &[3.0, -3.0]]);
/// let pi = steady_state(&q)?;
/// assert!((pi[0] - 0.75).abs() < 1e-12);
/// # Ok::<(), performa_markov::MarkovError>(())
/// ```
pub fn steady_state(q: &Matrix) -> Result<Vector> {
    validate_generator(q)?;
    let n = q.nrows();
    if n == 0 {
        return Err(MarkovError::NotAGenerator {
            message: "empty generator".into(),
        });
    }
    // Build Aᵀ where A is Q with its last column replaced by ones; then
    // solve π·A = e_last, i.e. Aᵀ·πᵀ = e_last.
    let mut at = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            at[(j, i)] = if j == n - 1 { 1.0 } else { q[(i, j)] };
        }
    }
    let mut lu = LuWorkspace::new(n);
    lu.factor(&at)?;
    let mut pi = Vector::zeros(n);
    lu.solve_vec_into(&Vector::basis(n, n - 1), &mut pi)?;
    // Guard against tiny negative round-off and renormalize.
    for v in pi.as_mut_slice() {
        if *v < 0.0 && *v > -1e-9 {
            *v = 0.0;
        }
    }
    pi.normalize_sum();
    Ok(pi)
}

/// Expected value of a per-state reward vector under the stationary
/// distribution: `Σ π_i · r_i`.
///
/// # Errors
///
/// Propagates [`steady_state`] errors; also
/// [`MarkovError::DimensionMismatch`] if the reward length differs from the
/// generator dimension.
pub fn stationary_reward(q: &Matrix, reward: &Vector) -> Result<f64> {
    if reward.len() != q.nrows() {
        return Err(MarkovError::DimensionMismatch {
            message: format!(
                "reward vector length {} vs generator dimension {}",
                reward.len(),
                q.nrows()
            ),
        });
    }
    Ok(steady_state(q)?.dot(reward))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_generators() {
        let good = Matrix::from_rows(&[&[-2.0, 2.0], &[1.0, -1.0]]);
        assert!(validate_generator(&good).is_ok());

        let rect = Matrix::zeros(2, 3);
        assert!(validate_generator(&rect).is_err());

        let neg_off = Matrix::from_rows(&[&[-1.0, 1.0], &[-1.0, 1.0]]);
        assert!(validate_generator(&neg_off).is_err());

        let bad_rows = Matrix::from_rows(&[&[-1.0, 0.5], &[1.0, -1.0]]);
        assert!(validate_generator(&bad_rows).is_err());

        let nan = Matrix::from_rows(&[&[f64::NAN, 0.0], &[0.0, 0.0]]);
        assert!(validate_generator(&nan).is_err());
    }

    #[test]
    fn two_state_stationary() {
        let q = Matrix::from_rows(&[&[-1.0, 1.0], &[4.0, -4.0]]);
        let pi = steady_state(&q).unwrap();
        assert!((pi[0] - 0.8).abs() < 1e-12);
        assert!((pi[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn birth_death_chain() {
        // M/M/1/3 with λ = 1, μ = 2: π_i ∝ (1/2)^i.
        let q = Matrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.0],
            &[2.0, -3.0, 1.0, 0.0],
            &[0.0, 2.0, -3.0, 1.0],
            &[0.0, 0.0, 2.0, -2.0],
        ]);
        let pi = steady_state(&q).unwrap();
        let z: f64 = 1.0 + 0.5 + 0.25 + 0.125;
        for (i, w) in [1.0, 0.5, 0.25, 0.125].iter().enumerate() {
            assert!((pi[i] - w / z).abs() < 1e-12, "state {i}");
        }
    }

    #[test]
    fn stationary_satisfies_balance() {
        let q = Matrix::from_rows(&[
            &[-3.0, 2.0, 1.0],
            &[0.5, -1.0, 0.5],
            &[1.0, 1.0, -2.0],
        ]);
        let pi = steady_state(&q).unwrap();
        let residual = q.vec_mul(&pi);
        assert!(residual.norm_inf() < 1e-12);
        assert!((pi.sum() - 1.0).abs() < 1e-12);
        assert!(pi.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn reducible_chain_rejected() {
        // Block-diagonal: two disconnected components => no unique π.
        let q = Matrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.0],
            &[1.0, -1.0, 0.0, 0.0],
            &[0.0, 0.0, -2.0, 2.0],
            &[0.0, 0.0, 2.0, -2.0],
        ]);
        assert!(steady_state(&q).is_err());
    }

    #[test]
    fn reward() {
        let q = Matrix::from_rows(&[&[-1.0, 1.0], &[1.0, -1.0]]);
        let r = Vector::from(vec![10.0, 20.0]);
        assert!((stationary_reward(&q, &r).unwrap() - 15.0).abs() < 1e-12);
        assert!(stationary_reward(&q, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn absorbing_like_generator_single_state() {
        let q = Matrix::from_rows(&[&[0.0]]);
        let pi = steady_state(&q).unwrap();
        assert_eq!(pi.as_slice(), &[1.0]);
    }
}
