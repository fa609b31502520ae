use performa_linalg::{expm::expm, lu::LuWorkspace, Matrix, Vector};

use crate::{DistError, DistributionFn, Moments, Result};

/// A matrix-exponential (ME) distribution `⟨p, B⟩` in Lipsky's LAQT
/// notation, as used by the paper for UP and DOWN (repair) durations.
///
/// * `p` — the entrance (startup) row vector; `p_i` is the probability of
///   starting in phase `i`.
/// * `B` — the *process rate matrix*; `−B` is the sub-generator of the
///   transient phase process. The reliability function is
///   `R(x) = p · exp(−B·x) · ε` and the raw moments are
///   `E[Xⁿ] = n! · p · B⁻ⁿ · ε`.
///
/// Every phase-type (PH) distribution is an ME distribution with
/// `B` having a positive diagonal, non-positive off-diagonal and
/// non-negative row sums; only such representations can be sampled by
/// simulation (see [`MatrixExp::is_phase_type`]).
///
/// # Example
///
/// ```
/// use performa_dist::{HyperExponential, Moments};
///
/// let h = HyperExponential::new(&[0.5, 0.5], &[1.0, 3.0])?;
/// let me = h.to_matrix_exp();
/// assert!((me.mean() - h.mean()).abs() < 1e-12);
/// # Ok::<(), performa_dist::DistError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixExp {
    p: Vector,
    b: Matrix,
}

impl MatrixExp {
    /// Creates a validated matrix-exponential representation.
    ///
    /// # Errors
    ///
    /// [`DistError::InvalidRepresentation`] when shapes disagree, `p` is not
    /// a probability vector, or `B` is singular (infinite mean).
    pub fn new(p: Vector, b: Matrix) -> Result<Self> {
        if !b.is_square() {
            return Err(DistError::InvalidRepresentation {
                message: format!("B must be square, got {}x{}", b.nrows(), b.ncols()),
            });
        }
        if p.len() != b.nrows() {
            return Err(DistError::InvalidRepresentation {
                message: format!(
                    "entrance vector has length {}, B is {}x{}",
                    p.len(),
                    b.nrows(),
                    b.ncols()
                ),
            });
        }
        if p.iter().any(|&v| v < -1e-14 || !v.is_finite()) {
            return Err(DistError::InvalidRepresentation {
                message: "entrance vector must be non-negative and finite".into(),
            });
        }
        let sum = p.sum();
        if (sum - 1.0).abs() > 1e-10 {
            return Err(DistError::InvalidRepresentation {
                message: format!("entrance vector must sum to 1, sums to {sum}"),
            });
        }
        if LuWorkspace::new(b.nrows()).factor(&b).is_err() {
            return Err(DistError::InvalidRepresentation {
                message: "B is singular: the distribution would have infinite mean".into(),
            });
        }
        Ok(MatrixExp { p, b })
    }

    /// Number of phases.
    pub fn dim(&self) -> usize {
        self.p.len()
    }

    /// The entrance probability vector `p`.
    pub fn entrance(&self) -> &Vector {
        &self.p
    }

    /// The process rate matrix `B` (so `−B` is the phase sub-generator).
    pub fn rate_matrix(&self) -> &Matrix {
        &self.b
    }

    /// Exit-rate column vector `B·ε`: completion rate out of each phase.
    pub fn exit_rates(&self) -> Vector {
        self.b.row_sums()
    }

    /// Returns `true` if the representation is a proper phase-type (PH)
    /// distribution: positive diagonal, non-positive off-diagonal, and
    /// non-negative exit rates. Only PH representations can be sampled
    /// path-wise by the simulator.
    pub fn is_phase_type(&self) -> bool {
        let n = self.dim();
        for i in 0..n {
            if self.b[(i, i)] <= 0.0 {
                return false;
            }
            for j in 0..n {
                if i != j && self.b[(i, j)] > 1e-14 {
                    return false;
                }
            }
        }
        self.exit_rates().iter().all(|&r| r >= -1e-12)
    }


    /// Convolution: the distribution of the **sum** of two independent
    /// matrix-exponential variables (series composition of the phase
    /// processes). The result has `self.dim() + other.dim()` phases.
    ///
    /// Useful for composing multi-stage UP/DOWN periods, e.g. "detection
    /// delay followed by repair".
    pub fn convolve(&self, other: &MatrixExp) -> MatrixExp {
        let n1 = self.dim();
        let n2 = other.dim();
        let mut b = Matrix::zeros(n1 + n2, n1 + n2);
        let exit1 = self.exit_rates();
        for i in 0..n1 {
            for j in 0..n1 {
                b[(i, j)] = self.b[(i, j)];
            }
            // Completion of stage 1 enters stage 2 (negated: off-diagonal
            // of B is minus the transition rate).
            for j in 0..n2 {
                b[(i, n1 + j)] = -exit1[i] * other.p[j];
            }
        }
        for i in 0..n2 {
            for j in 0..n2 {
                b[(n1 + i, n1 + j)] = other.b[(i, j)];
            }
        }
        let mut p = Vector::zeros(n1 + n2);
        for i in 0..n1 {
            p[i] = self.p[i];
        }
        MatrixExp::new(p, b).expect("series composition preserves validity")
    }

    /// Probabilistic mixture: with probability `w` draw from `self`,
    /// otherwise from `other`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ w ≤ 1`.
    pub fn mixture(&self, w: f64, other: &MatrixExp) -> MatrixExp {
        assert!((0.0..=1.0).contains(&w), "mixture weight must be in [0, 1]");
        let n1 = self.dim();
        let n2 = other.dim();
        let mut b = Matrix::zeros(n1 + n2, n1 + n2);
        for i in 0..n1 {
            for j in 0..n1 {
                b[(i, j)] = self.b[(i, j)];
            }
        }
        for i in 0..n2 {
            for j in 0..n2 {
                b[(n1 + i, n1 + j)] = other.b[(i, j)];
            }
        }
        let mut p = Vector::zeros(n1 + n2);
        for i in 0..n1 {
            p[i] = w * self.p[i];
        }
        for i in 0..n2 {
            p[n1 + i] = (1.0 - w) * other.p[i];
        }
        MatrixExp::new(p, b).expect("block-diagonal mixture preserves validity")
    }

    /// Raw moment `E[X^k] = k! · p · B⁻ᵏ · ε`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (the zeroth moment is trivially 1).
    fn raw_moment_impl(&self, k: u32) -> f64 {
        assert!(k >= 1, "raw moments are defined for k >= 1");
        let mut lu = LuWorkspace::new(self.dim());
        lu.factor(&self.b)
            .expect("validated non-singular at construction");
        // Compute p · B^{-k} by repeatedly solving x·B = previous.
        let mut x = self.p.clone();
        let mut next = Vector::zeros(self.dim());
        for _ in 0..k {
            lu.solve_left_vec_into(&x, &mut next)
                .expect("dimension fixed");
            std::mem::swap(&mut x, &mut next);
        }
        let mut factorial = 1.0;
        for i in 2..=k {
            factorial *= i as f64;
        }
        factorial * x.sum()
    }
}

impl Moments for MatrixExp {
    fn mean(&self) -> f64 {
        self.raw_moment_impl(1)
    }

    fn variance(&self) -> f64 {
        let m1 = self.raw_moment_impl(1);
        self.raw_moment_impl(2) - m1 * m1
    }

    fn raw_moment(&self, k: u32) -> f64 {
        self.raw_moment_impl(k)
    }
}

impl DistributionFn for MatrixExp {
    fn cdf(&self, x: f64) -> f64 {
        1.0 - self.sf(x)
    }

    fn sf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 1.0;
        }
        let e = expm(&(&self.b * (-x))).expect("finite matrix");
        let r = self.p.dot(&e.row_sums());
        r.clamp(0.0, 1.0)
    }

    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        // f(x) = p · exp(−Bx) · B · ε
        let e = expm(&(&self.b * (-x))).expect("finite matrix");
        let exit = self.exit_rates();
        let w = e.mul_vec(&exit);
        self.p.dot(&w).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Erlang, Exponential, HyperExponential};

    #[test]
    fn exponential_moments() {
        let me = Exponential::new(2.0).unwrap().to_matrix_exp();
        assert!((me.mean() - 0.5).abs() < 1e-14);
        assert!((me.variance() - 0.25).abs() < 1e-14);
        assert!((me.raw_moment(3) - 6.0 / 8.0).abs() < 1e-12);
        assert!(me.is_phase_type());
    }

    #[test]
    fn erlang_is_phase_type_with_low_scv() {
        let me = Erlang::new(4, 4.0).unwrap().to_matrix_exp();
        assert!(me.is_phase_type());
        assert!((me.mean() - 1.0).abs() < 1e-12);
        // Erlang-k has scv = 1/k.
        assert!((me.scv() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reliability_function_matches_scalar_exponential() {
        let me = Exponential::new(1.5).unwrap().to_matrix_exp();
        for &x in &[0.0, 0.3, 1.0, 4.0] {
            assert!((me.sf(x) - (-1.5 * x).exp()).abs() < 1e-12);
            assert!((me.pdf(x) - 1.5 * (-1.5 * x).exp()).abs() < 1e-10);
        }
        assert_eq!(me.sf(-1.0), 1.0);
        assert_eq!(me.pdf(-1.0), 0.0);
    }

    #[test]
    fn hyperexp_reliability_is_mixture() {
        let h = HyperExponential::new(&[0.3, 0.7], &[1.0, 10.0]).unwrap();
        let me = h.to_matrix_exp();
        for &x in &[0.1_f64, 1.0, 2.5] {
            let expect = 0.3 * (-x).exp() + 0.7 * (-10.0 * x).exp();
            assert!((me.sf(x) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn validation_rejects_bad_input() {
        // Rectangular B.
        assert!(MatrixExp::new(Vector::ones(2), Matrix::zeros(2, 3)).is_err());
        // Length mismatch.
        assert!(MatrixExp::new(Vector::ones(3), Matrix::identity(2)).is_err());
        // Entrance not summing to one.
        assert!(MatrixExp::new(Vector::from(vec![0.4, 0.4]), Matrix::identity(2)).is_err());
        // Negative entrance probability.
        assert!(MatrixExp::new(Vector::from(vec![1.5, -0.5]), Matrix::identity(2)).is_err());
        // Singular B.
        assert!(MatrixExp::new(Vector::from(vec![1.0]), Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn non_phase_type_detected() {
        // Negative diagonal is not PH.
        let b = Matrix::from_rows(&[&[-1.0]]);
        // This B is non-singular so construction succeeds, but it is not PH
        // (and not even a valid ME density — the check is structural).
        let me = MatrixExp::new(Vector::from(vec![1.0]), b).unwrap();
        assert!(!me.is_phase_type());
    }

    #[test]
    fn cdf_complements_sf() {
        let me = Erlang::new(3, 2.0).unwrap().to_matrix_exp();
        for &x in &[0.0, 0.5, 2.0] {
            assert!((me.cdf(x) + me.sf(x) - 1.0).abs() < 1e-14);
        }
    }


    #[test]
    fn convolution_of_exponentials_is_erlang() {
        let e = Exponential::new(2.0).unwrap().to_matrix_exp();
        let conv = e.convolve(&e);
        let erl = Erlang::new(2, 2.0).unwrap().to_matrix_exp();
        assert_eq!(conv.dim(), 2);
        assert!((conv.mean() - erl.mean()).abs() < 1e-12);
        assert!((conv.raw_moment(2) - erl.raw_moment(2)).abs() < 1e-12);
        for &x in &[0.2, 1.0, 3.0] {
            assert!((conv.sf(x) - erl.sf(x)).abs() < 1e-10, "x={x}");
        }
        assert!(conv.is_phase_type());
    }

    #[test]
    fn convolution_means_add() {
        let a = Erlang::new(2, 1.0).unwrap().to_matrix_exp();
        let b = HyperExponential::new(&[0.3, 0.7], &[0.5, 5.0])
            .unwrap()
            .to_matrix_exp();
        let c = a.convolve(&b);
        assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-10);
        // Variances add for independent sums.
        assert!((c.variance() - (a.variance() + b.variance())).abs() < 1e-9);
    }

    #[test]
    fn mixture_interpolates() {
        let fast = Exponential::new(10.0).unwrap().to_matrix_exp();
        let slow = Exponential::new(0.1).unwrap().to_matrix_exp();
        let m = fast.mixture(0.9, &slow);
        assert_eq!(m.dim(), 2);
        assert!((m.mean() - (0.9 * 0.1 + 0.1 * 10.0)).abs() < 1e-10);
        // Mixture sf is the weighted sf.
        for &x in &[0.5, 2.0] {
            let expect = 0.9 * fast.sf(x) + 0.1 * slow.sf(x);
            assert!((m.sf(x) - expect).abs() < 1e-10);
        }
        assert!(m.is_phase_type());
    }

    #[test]
    fn mixture_extremes() {
        let a = Exponential::new(1.0).unwrap().to_matrix_exp();
        let b = Exponential::new(3.0).unwrap().to_matrix_exp();
        assert!((a.mixture(1.0, &b).mean() - 1.0).abs() < 1e-12);
        assert!((a.mixture(0.0, &b).mean() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn bad_mixture_weight_panics() {
        let a = Exponential::new(1.0).unwrap().to_matrix_exp();
        let _ = a.mixture(1.5, &a);
    }

    #[test]
    fn exit_rates_of_erlang() {
        // Only the last Erlang stage exits.
        let me = Erlang::new(3, 2.0).unwrap().to_matrix_exp();
        let exit = me.exit_rates();
        assert!((exit[0]).abs() < 1e-14);
        assert!((exit[1]).abs() < 1e-14);
        assert!((exit[2] - 2.0).abs() < 1e-14);
    }
}
