use performa_linalg::{lu::LuWorkspace, spectral, Matrix, Vector};

use crate::{QbdError, Result};

/// The stationary solution of a positive-recurrent QBD.
///
/// Holds the boundary vectors `π₀`, `π₁` and the rate matrix `R`, from
/// which every level obeys `π_n = π₁·Rⁿ⁻¹` (`n ≥ 1`). All the paper's
/// queue-length metrics are derived from this object. Probability-mass
/// sums and inner products (pmf, tails, moments, quantiles) use
/// Neumaier-compensated accumulation — near the blow-up points these
/// series mix magnitudes across many orders, where plain recursive
/// summation loses the tail.
#[derive(Debug, Clone)]
pub struct QbdSolution {
    pi0: Vector,
    pi1: Vector,
    r: Matrix,
    g: Matrix,
    /// Cached `(I − R)⁻¹ · ε`.
    geo_eps: Vector,
    /// Cached `(I − R)⁻² · ε`.
    geo2_eps: Vector,
    /// Cached `(I − R)⁻³ · ε`.
    geo3_eps: Vector,
}

/// Factors `I − R` and solves `(I−R)⁻¹·ε` — the shared first step of
/// [`QbdSolution::from_parts`] and the solver's boundary system.
///
/// # Errors
///
/// Propagates the factorization failure.
pub(crate) fn geometric_eps(r: &Matrix) -> Result<(LuWorkspace, Vector)> {
    let m = r.nrows();
    let mut lu = LuWorkspace::new(m);
    lu.factor(&(Matrix::identity(m) - r))?;
    let mut geo_eps = Vector::zeros(m);
    lu.solve_vec_into(&Vector::ones(m), &mut geo_eps)?;
    Ok((lu, geo_eps))
}

impl QbdSolution {
    /// Assembles a solution from its parts, caching the geometric sums —
    /// what the solver returns, and exactly the inverse of reading
    /// [`Self::pi0`], [`Self::pi1`], [`Self::r_matrix`] and
    /// [`Self::g_matrix`] back out.
    ///
    /// The geometric-sum caches are always computed by the same
    /// deterministic LU path, so a solution rebuilt from bit-exact parts
    /// yields bit-identical metrics. This is what lets the durable
    /// result store replay persisted points byte-for-byte.
    ///
    /// # Errors
    ///
    /// Propagates the `I − R` factorization failure, and returns
    /// [`QbdError::InvalidRateMatrix`] when `(I−R)⁻¹·ε` has a negative
    /// or non-finite entry (every entry is ≥ 1 for a valid `R`) —
    /// either way the parts do not describe a positive-recurrent chain,
    /// and metrics read off them would be meaningless.
    pub fn from_parts(pi0: Vector, pi1: Vector, r: Matrix, g: Matrix) -> Result<Self> {
        let (lu, geo_eps) = geometric_eps(&r)?;
        Self::from_factored(pi0, pi1, r, g, &lu, geo_eps)
    }

    /// [`Self::from_parts`] on an `I − R` the caller has already factored
    /// by [`geometric_eps`] — the solver needs `(I−R)⁻¹·ε` for the
    /// boundary system first, and this keeps it at one factorization per
    /// solve. Same factors, same solves: the result is bit-identical to
    /// [`Self::from_parts`] on the same parts.
    ///
    /// # Errors
    ///
    /// See [`Self::from_parts`].
    pub(crate) fn from_factored(
        pi0: Vector,
        pi1: Vector,
        r: Matrix,
        g: Matrix,
        lu: &LuWorkspace,
        geo_eps: Vector,
    ) -> Result<Self> {
        if let Some(&entry) = geo_eps.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
            return Err(QbdError::InvalidRateMatrix { entry });
        }
        let m = geo_eps.len();
        let (mut geo2_eps, mut geo3_eps) = (Vector::zeros(m), Vector::zeros(m));
        lu.solve_vec_into(&geo_eps, &mut geo2_eps)?;
        lu.solve_vec_into(&geo2_eps, &mut geo3_eps)?;
        Ok(QbdSolution {
            pi0,
            pi1,
            r,
            g,
            geo_eps,
            geo2_eps,
            geo3_eps,
        })
    }

    /// Phase dimension `m`.
    pub fn phase_dim(&self) -> usize {
        self.pi0.len()
    }

    /// The rate matrix `R`.
    pub fn r_matrix(&self) -> &Matrix {
        &self.r
    }

    /// The first-passage matrix `G`.
    pub fn g_matrix(&self) -> &Matrix {
        &self.g
    }

    /// Boundary vector `π₀` (empty queue, by phase).
    pub fn pi0(&self) -> &Vector {
        &self.pi0
    }

    /// Boundary vector `π₁`.
    pub fn pi1(&self) -> &Vector {
        &self.pi1
    }

    /// Stationary vector of level `n`: `π₀` or `π₁·Rⁿ⁻¹`.
    pub fn level(&self, n: usize) -> Vector {
        match n {
            0 => self.pi0.clone(),
            1 => self.pi1.clone(),
            _ => {
                let rk = spectral::matrix_power(&self.r, n - 1);
                rk.vec_mul(&self.pi1)
            }
        }
    }

    /// Probability of exactly `n` customers: `π_n · ε`.
    pub fn level_probability(&self, n: usize) -> f64 {
        self.level(n).sum_compensated()
    }

    /// Tail probability `Pr(Q > k) = π₁·Rᵏ·(I−R)⁻¹·ε`.
    ///
    /// This is the paper's QoS metric: by PASTA it is the probability an
    /// arriving task finds more than `k` tasks in the system.
    pub fn tail_probability(&self, k: usize) -> f64 {
        let rk = spectral::matrix_power(&self.r, k);
        rk.vec_mul(&self.pi1).dot_compensated(&self.geo_eps)
    }

    /// Probability that the queue length is at least `k`, `Pr(Q ≥ k)`.
    pub fn at_least_probability(&self, k: usize) -> f64 {
        if k == 0 {
            1.0
        } else {
            self.tail_probability(k - 1)
        }
    }

    /// Mean queue length `E[Q] = π₁·(I−R)⁻²·ε` (tasks in system,
    /// including those in service — the paper's convention).
    pub fn mean_queue_length(&self) -> f64 {
        self.pi1.dot_compensated(&self.geo2_eps)
    }

    /// Second raw moment `E[Q²] = π₁·(I+R)·(I−R)⁻³·ε`
    /// (from `Σ n²·xⁿ⁻¹ = (1+x)/(1−x)³`).
    pub fn second_moment_queue_length(&self) -> f64 {
        let w = self.r.mul_vec(&self.geo3_eps);
        self.pi1.dot_compensated(&self.geo3_eps) + self.pi1.dot_compensated(&w)
    }

    /// Variance of the queue length.
    pub fn variance_queue_length(&self) -> f64 {
        let m = self.mean_queue_length();
        (self.second_moment_queue_length() - m * m).max(0.0)
    }


    /// Smallest `k` with `Pr(Q ≤ k) ≥ p` — the `p`-quantile of the
    /// queue-length distribution, computed by walking the incremental pmf.
    ///
    /// Returns `None` if the quantile exceeds `max_k` (guard against
    /// near-saturation searches).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn queue_length_quantile(&self, p: f64, max_k: usize) -> Option<usize> {
        assert!(p > 0.0 && p < 1.0, "quantile level must be in (0, 1)");
        let mut cdf = self.pi0.sum_compensated();
        if cdf >= p {
            return Some(0);
        }
        let mut v = self.pi1.clone();
        for k in 1..=max_k {
            cdf += v.sum_compensated();
            if cdf >= p {
                return Some(k);
            }
            v = self.r.vec_mul(&v);
        }
        None
    }

    /// Marginal phase distribution `π₀ + π₁·(I−R)⁻¹` — equals the phase
    /// stationary law `φ`, a useful internal consistency check.
    pub fn marginal_phase(&self) -> Vector {
        let m = self.phase_dim();
        let mut lu = LuWorkspace::new(m);
        lu.factor(&(Matrix::identity(m) - &self.r))
            .expect("I−R invertible for a stable chain");
        let mut geo = Vector::zeros(m);
        lu.solve_left_vec_into(&self.pi1, &mut geo)
            .expect("dimension fixed at construction");
        &self.pi0 + &geo
    }

    /// Caudal characteristic: spectral radius of `R`, the asymptotic
    /// geometric decay rate of the queue-length distribution. Values close
    /// to 1 signal heavy congestion.
    ///
    /// # Errors
    ///
    /// Propagates the power-iteration failure (rare; see
    /// [`performa_linalg::spectral::spectral_radius`]).
    pub fn decay_rate(&self) -> Result<f64> {
        Ok(spectral::spectral_radius(&self.r)?)
    }

    /// Queue-length pmf for levels `0..len`, computed incrementally in
    /// `O(len·m²)`.
    pub fn pmf(&self, len: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return out;
        }
        out.push(self.pi0.sum_compensated());
        let mut v = self.pi1.clone();
        for _ in 1..len {
            out.push(v.sum_compensated());
            v = self.r.vec_mul(&v);
        }
        out
    }

    /// Tail probabilities `Pr(Q > k)` for `k = 0..len`, computed
    /// incrementally in `O(len·m²)`.
    pub fn tail_probabilities(&self, len: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        let mut v = self.pi1.clone();
        for _ in 0..len {
            out.push(v.dot_compensated(&self.geo_eps));
            v = self.r.vec_mul(&v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qbd;

    fn solved() -> (Qbd, QbdSolution) {
        let q = Matrix::from_rows(&[&[-0.2, 0.2], &[1.0, -1.0]]);
        let rates = Vector::from(vec![2.0, 0.1]);
        let qbd = Qbd::m_mmpp1(1.0, &q, &rates).unwrap();
        let sol = qbd.solve().unwrap();
        (qbd, sol)
    }

    #[test]
    fn from_parts_rejects_a_rate_matrix_with_negative_geometric_sum() {
        // (I − R)⁻¹·ε = 1/(1 − 1.5) = −2: no positive-recurrent chain has
        // this R, and every metric read off it would carry the wrong sign.
        let with_r = |r: f64| {
            let (pi0, pi1) = (Vector::from(vec![0.5]), Vector::from(vec![0.25]));
            let g = Matrix::from_rows(&[&[1.0]]);
            QbdSolution::from_parts(pi0, pi1, Matrix::from_rows(&[&[r]]), g)
        };
        let err = with_r(1.5).unwrap_err();
        assert!(
            matches!(err, QbdError::InvalidRateMatrix { entry } if entry == -2.0),
            "{err}"
        );
        assert!(with_r(0.5).is_ok(), "a valid R (rho = 0.5) assembles");
    }

    #[test]
    fn incremental_pmf_matches_direct() {
        let (_, sol) = solved();
        let pmf = sol.pmf(20);
        for (n, &p) in pmf.iter().enumerate() {
            assert!((p - sol.level_probability(n)).abs() < 1e-13, "n={n}");
        }
    }

    #[test]
    fn incremental_tails_match_direct() {
        let (_, sol) = solved();
        let tails = sol.tail_probabilities(30);
        for (k, &t) in tails.iter().enumerate() {
            assert!((t - sol.tail_probability(k)).abs() < 1e-13, "k={k}");
        }
    }

    #[test]
    fn tail_is_complement_of_pmf_prefix() {
        let (_, sol) = solved();
        for k in [0usize, 3, 10] {
            let prefix: f64 = sol.pmf(k + 1).iter().sum();
            assert!((sol.tail_probability(k) - (1.0 - prefix)).abs() < 1e-11);
        }
    }

    #[test]
    fn at_least_probability_shifts_tail() {
        let (_, sol) = solved();
        assert_eq!(sol.at_least_probability(0), 1.0);
        assert!((sol.at_least_probability(5) - sol.tail_probability(4)).abs() < 1e-15);
    }

    #[test]
    fn mean_matches_pmf_sum() {
        let (_, sol) = solved();
        let approx: f64 = sol
            .pmf(2000)
            .iter()
            .enumerate()
            .map(|(n, p)| n as f64 * p)
            .sum();
        assert!(
            (sol.mean_queue_length() - approx).abs() < 1e-8,
            "{} vs {approx}",
            sol.mean_queue_length()
        );
    }

    #[test]
    fn mean_also_equals_tail_sum() {
        // E[Q] = Σ_{k≥0} Pr(Q > k).
        let (_, sol) = solved();
        let approx: f64 = sol.tail_probabilities(2000).iter().sum();
        assert!((sol.mean_queue_length() - approx).abs() < 1e-8);
    }



    #[test]
    fn quantiles_bracket_the_distribution() {
        let (_, sol) = solved();
        let q50 = sol.queue_length_quantile(0.5, 10_000).unwrap();
        let q99 = sol.queue_length_quantile(0.99, 10_000).unwrap();
        assert!(q50 <= q99);
        // CDF at q50 covers half the mass; just below it does not.
        let below: f64 = sol.pmf(q50).iter().sum();
        let at: f64 = sol.pmf(q50 + 1).iter().sum();
        assert!(below < 0.5 && at >= 0.5, "{below} {at}");
        // Out-of-range guard.
        assert_eq!(sol.queue_length_quantile(0.999999999, 3), None);
    }

    #[test]
    fn second_moment_matches_pmf_sum() {
        let (_, sol) = solved();
        let approx: f64 = sol
            .pmf(3000)
            .iter()
            .enumerate()
            .map(|(n, p)| (n * n) as f64 * p)
            .sum();
        assert!(
            (sol.second_moment_queue_length() - approx).abs() < 1e-7 * approx.max(1.0),
            "{} vs {approx}",
            sol.second_moment_queue_length()
        );
        assert!(sol.variance_queue_length() > 0.0);
    }

    #[test]
    fn decay_rate_below_one() {
        let (_, sol) = solved();
        let eta = sol.decay_rate().unwrap();
        assert!(eta > 0.0 && eta < 1.0, "eta = {eta}");
        // Tail ratio converges to eta.
        let t = sol.tail_probabilities(400);
        let ratio = t[399] / t[398];
        assert!((ratio - eta).abs() < 1e-6, "ratio {ratio} vs eta {eta}");
    }

    #[test]
    fn from_parts_replays_bit_identically() {
        let (_, sol) = solved();
        let rebuilt = QbdSolution::from_parts(
            sol.pi0().clone(),
            sol.pi1().clone(),
            sol.r_matrix().clone(),
            sol.g_matrix().clone(),
        )
        .unwrap();
        assert_eq!(
            sol.mean_queue_length().to_bits(),
            rebuilt.mean_queue_length().to_bits()
        );
        assert_eq!(
            sol.second_moment_queue_length().to_bits(),
            rebuilt.second_moment_queue_length().to_bits()
        );
        for k in [0usize, 1, 5, 40] {
            assert_eq!(
                sol.tail_probability(k).to_bits(),
                rebuilt.tail_probability(k).to_bits(),
                "k={k}"
            );
        }
    }

    #[test]
    fn levels_follow_matrix_geometry() {
        let (_, sol) = solved();
        let l3 = sol.level(3);
        let manual = sol
            .r_matrix()
            .vec_mul(&sol.r_matrix().vec_mul(sol.pi1()));
        assert!(l3.max_abs_diff(&manual) < 1e-14);
    }
}
