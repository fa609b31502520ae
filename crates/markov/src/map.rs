use performa_dist::MatrixExp;
use performa_linalg::{lu::LuWorkspace, Matrix, Vector};

use crate::{ctmc, MarkovError, Result};

/// A Markovian arrival process (MAP) in the `(D₀, D₁)` representation of
/// Neuts / Latouche–Ramaswami.
///
/// `D₁` holds the rates of transitions that *generate an event* (an arrival
/// for an arrival process, a completion for a service process); `D₀` holds
/// the remaining phase dynamics. `D = D₀ + D₁` is the generator of the
/// modulating phase chain.
///
/// The paper's cluster service process is the MMPP special case
/// ([`crate::Mmpp`], diagonal `D₁`), but the MAP generality is what enables
/// the Sect. 2.4 extensions (e.g. *Discard* modeled as a service transition
/// fired by a node failure).
///
/// # Example
///
/// ```
/// use performa_linalg::Matrix;
/// use performa_markov::Map;
///
/// // A Poisson process of rate 3 is a one-phase MAP.
/// let map = Map::new(
///     Matrix::from_rows(&[&[-3.0]]),
///     Matrix::from_rows(&[&[3.0]]),
/// )?;
/// assert!((map.mean_rate()? - 3.0).abs() < 1e-12);
/// # Ok::<(), performa_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Map {
    d0: Matrix,
    d1: Matrix,
}

impl Map {
    /// Creates a validated MAP.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::DimensionMismatch`] if the matrices differ in shape
    ///   or are not square.
    /// * [`MarkovError::InvalidRate`] if `D₁` has a negative entry.
    /// * [`MarkovError::NotAGenerator`] if `D₀ + D₁` is not a generator.
    pub fn new(d0: Matrix, d1: Matrix) -> Result<Self> {
        if !d0.is_square() || d0.shape() != d1.shape() {
            return Err(MarkovError::DimensionMismatch {
                message: format!(
                    "D0 is {}x{}, D1 is {}x{}; both must be square and equal",
                    d0.nrows(),
                    d0.ncols(),
                    d1.nrows(),
                    d1.ncols()
                ),
            });
        }
        for i in 0..d1.nrows() {
            for j in 0..d1.ncols() {
                let v = d1[(i, j)];
                if !(v.is_finite() && v >= 0.0) {
                    return Err(MarkovError::InvalidRate {
                        value: v,
                        context: "MAP event matrix D1",
                    });
                }
            }
        }
        ctmc::validate_generator(&(&d0 + &d1))?;
        Ok(Map { d0, d1 })
    }

    /// Number of phases.
    pub fn dim(&self) -> usize {
        self.d0.nrows()
    }

    /// The non-event phase dynamics `D₀`.
    pub fn d0(&self) -> &Matrix {
        &self.d0
    }

    /// The event-generating rates `D₁`.
    pub fn d1(&self) -> &Matrix {
        &self.d1
    }

    /// The modulating phase generator `D = D₀ + D₁`.
    pub fn phase_generator(&self) -> Matrix {
        &self.d0 + &self.d1
    }

    /// Stationary distribution of the modulating phase chain.
    ///
    /// # Errors
    ///
    /// [`MarkovError::Linalg`] for a reducible phase chain.
    pub fn phase_steady_state(&self) -> Result<Vector> {
        ctmc::steady_state(&self.phase_generator())
    }


    /// Phase distribution seen at event epochs: `π_e = π·D₁ / λ̄`
    /// (the embedded chain's stationary law).
    ///
    /// # Errors
    ///
    /// Propagates [`Map::phase_steady_state`] errors.
    pub fn event_phase_distribution(&self) -> Result<Vector> {
        let pi = self.phase_steady_state()?;
        let mut pe = self.d1.vec_mul(&pi);
        pe.normalize_sum();
        Ok(pe)
    }

    /// The stationary inter-event time distribution, as the
    /// matrix-exponential `⟨π_e, −D₀⟩`: starting from the phase law at an
    /// event epoch, the time to the next event is phase-type with
    /// sub-generator `D₀`.
    ///
    /// # Errors
    ///
    /// Propagates [`Map::event_phase_distribution`] errors; fails if `D₀`
    /// is singular (an event-free absorbing subset).
    pub fn interarrival_distribution(&self) -> Result<MatrixExp> {
        let pe = self.event_phase_distribution()?;
        let b = -&self.d0;
        MatrixExp::new(pe, b).map_err(|e| MarkovError::InvalidParameter {
            message: format!("inter-event representation invalid: {e}"),
        })
    }

    /// Lag-`k` autocorrelation of the stationary inter-event intervals.
    ///
    /// With `V = (−D₀)⁻¹`, `P = V·D₁` (the phase-transition kernel across
    /// one event) and `π_e` the event-epoch phase law:
    ///
    /// ```text
    /// E[X₀]        = π_e·V·ε
    /// E[X₀·X_k]    = π_e·V²·D₁·P^{k−1}·V·ε    (k ≥ 1)
    /// Var[X₀]      = 2·π_e·V²·ε − (E[X₀])²
    /// ```
    ///
    /// Renewal processes (e.g. Poisson) have zero correlation at every
    /// lag; positive correlation is the signature of burstiness that the
    /// paper's repair episodes induce.
    ///
    /// # Errors
    ///
    /// Propagates steady-state / inversion failures.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (lag-0 is trivially 1).
    pub fn interval_autocorrelation(&self, k: usize) -> Result<f64> {
        assert!(k >= 1, "lag must be at least 1");
        let pe = self.event_phase_distribution()?;
        let n = self.dim();
        let mut lu = LuWorkspace::new(n);
        lu.factor(&(-&self.d0))?;
        // x1 = π_e·V, x2 = π_e·V².
        let (mut x1, mut x2) = (Vector::zeros(n), Vector::zeros(n));
        lu.solve_left_vec_into(&pe, &mut x1)?;
        lu.solve_left_vec_into(&x1, &mut x2)?;
        let mean = x1.sum();
        let second = 2.0 * x2.sum();
        let var = second - mean * mean;
        if var <= 0.0 {
            return Ok(0.0);
        }
        // cross = π_e·V²·D₁·P^{k−1}·V·ε.
        let mut w = self.d1.vec_mul(&x2); // row vector π_e·V²·D₁
        let mut wv = Vector::zeros(n);
        for _ in 0..k - 1 {
            // w ← w·P = w·V·D₁  (apply V then D₁ from the right).
            lu.solve_left_vec_into(&w, &mut wv)?;
            w = self.d1.vec_mul(&wv);
        }
        lu.solve_left_vec_into(&w, &mut wv)?;
        let cross = wv.sum();
        Ok((cross - mean * mean) / var)
    }

    /// Long-run average event rate `π·D₁·ε`.
    ///
    /// # Errors
    ///
    /// Propagates [`Map::phase_steady_state`] errors.
    pub fn mean_rate(&self) -> Result<f64> {
        let pi = self.phase_steady_state()?;
        Ok(pi.dot(&self.d1.row_sums()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase_map() -> Map {
        // Phase 1 emits at rate 5, phase 2 at rate 1; switch rates 1 and 2.
        let d0 = Matrix::from_rows(&[&[-6.0, 1.0], &[2.0, -3.0]]);
        let d1 = Matrix::from_rows(&[&[5.0, 0.0], &[0.0, 1.0]]);
        Map::new(d0, d1).unwrap()
    }

    #[test]
    fn poisson_special_case() {
        let m = Map::new(
            Matrix::from_rows(&[&[-2.5]]),
            Matrix::from_rows(&[&[2.5]]),
        )
        .unwrap();
        assert_eq!(m.dim(), 1);
        assert!((m.mean_rate().unwrap() - 2.5).abs() < 1e-14);
    }

    #[test]
    fn mean_rate_weights_phases() {
        let m = two_phase_map();
        // Phase chain generator [[-1,1],[2,-2]] => π = (2/3, 1/3).
        let pi = m.phase_steady_state().unwrap();
        assert!((pi[0] - 2.0 / 3.0).abs() < 1e-12);
        let rate = m.mean_rate().unwrap();
        assert!((rate - (2.0 / 3.0 * 5.0 + 1.0 / 3.0)).abs() < 1e-12);
    }


    #[test]
    fn poisson_intervals_are_exponential_and_uncorrelated() {
        let m = Map::new(
            Matrix::from_rows(&[&[-2.0]]),
            Matrix::from_rows(&[&[2.0]]),
        )
        .unwrap();
        let d = m.interarrival_distribution().unwrap();
        use performa_dist::Moments;
        assert!((d.mean() - 0.5).abs() < 1e-12);
        assert!((d.scv() - 1.0).abs() < 1e-10);
        for k in 1..=3 {
            assert!(m.interval_autocorrelation(k).unwrap().abs() < 1e-12);
        }
    }

    #[test]
    fn renewal_map_has_zero_correlation() {
        // An ME renewal process as a MAP: D0 = -B, D1 = (B eps) p.
        // Erlang-2 renewal: intervals i.i.d. => zero autocorrelation.
        let d0 = Matrix::from_rows(&[&[-3.0, 3.0], &[0.0, -3.0]]);
        let d1 = Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 0.0]]);
        let m = Map::new(d0, d1).unwrap();
        use performa_dist::Moments;
        let d = m.interarrival_distribution().unwrap();
        assert!((d.mean() - 2.0 / 3.0).abs() < 1e-10);
        assert!((d.scv() - 0.5).abs() < 1e-10);
        assert!(m.interval_autocorrelation(1).unwrap().abs() < 1e-10);
        assert!(m.interval_autocorrelation(4).unwrap().abs() < 1e-10);
    }

    #[test]
    fn interrupted_poisson_is_renewal() {
        // Classic result: the IPP (MMPP with one silent phase) is a
        // hyperexponential *renewal* process — intervals are i.i.d., so
        // every lag correlation vanishes even though the counts are
        // bursty (IDC >> 1).
        let q = Matrix::from_rows(&[&[-0.05, 0.05], &[0.2, -0.2]]);
        let l = Matrix::diag(&[3.0, 0.0]);
        let m = Map::new(&q - &l, l).unwrap();
        for k in [1usize, 2, 5] {
            assert!(
                m.interval_autocorrelation(k).unwrap().abs() < 1e-10,
                "lag {k}"
            );
        }
        use performa_dist::Moments;
        assert!(m.interarrival_distribution().unwrap().scv() > 1.5);
    }

    #[test]
    fn bursty_mmpp_intervals_positively_correlated_and_decaying() {
        // A genuine two-rate MMPP (both phases emit, slowly switching):
        // adjacent intervals tend to come from the same phase => positive,
        // decaying autocorrelation.
        let q = Matrix::from_rows(&[&[-0.02, 0.02], &[0.02, -0.02]]);
        let l = Matrix::diag(&[4.0, 0.2]);
        let m = Map::new(&q - &l, l).unwrap();
        let c1 = m.interval_autocorrelation(1).unwrap();
        let c3 = m.interval_autocorrelation(3).unwrap();
        let c10 = m.interval_autocorrelation(10).unwrap();
        assert!(c1 > 0.05, "lag-1 {c1}");
        assert!(c1 > c3 && c3 > c10, "{c1} {c3} {c10}");
        assert!(c10 > 0.0);
        use performa_dist::Moments;
        assert!(m.interarrival_distribution().unwrap().scv() > 1.5);
    }

    #[test]
    fn event_phase_distribution_is_stochastic() {
        let m = two_phase_map();
        let pe = m.event_phase_distribution().unwrap();
        assert!((pe.sum() - 1.0).abs() < 1e-12);
        assert!(pe.iter().all(|&p| p >= 0.0));
        // Events happen disproportionately in the high-rate phase.
        let pi = m.phase_steady_state().unwrap();
        assert!(pe[0] > pi[0]);
    }

    #[test]
    fn validation_rejects_bad_input() {
        // Shape mismatch.
        assert!(Map::new(Matrix::zeros(2, 2), Matrix::zeros(3, 3)).is_err());
        // Negative event rate.
        assert!(Map::new(
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[-1.0]])
        )
        .is_err());
        // D0+D1 not a generator.
        assert!(Map::new(
            Matrix::from_rows(&[&[-1.0]]),
            Matrix::from_rows(&[&[2.0]])
        )
        .is_err());
    }

    #[test]
    fn map_with_off_diagonal_events() {
        // Event transitions that also change phase (the "Discard" pattern).
        let d0 = Matrix::from_rows(&[&[-3.0, 1.0], &[0.5, -1.5]]);
        let d1 = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let m = Map::new(d0, d1).unwrap();
        assert!(m.mean_rate().unwrap() > 0.0);
    }
}
