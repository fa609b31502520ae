use performa_linalg::{lu::LuWorkspace, Matrix, Vector};

use crate::{ctmc, Map, MarkovError, Result};

/// How far below 1 [`Mmpp::asymptotic_idc`] may land before the result
/// counts as lost rather than rounded: a Poisson process computes to 1
/// within a few units of `1e-16`, far inside this slack.
const IDC_ROUNDING: f64 = 1e-9;

/// A Markov-modulated Poisson process: a CTMC generator `Q` plus a Poisson
/// event rate `r_i ≥ 0` per modulator state.
///
/// This is the representation of the paper's aggregated cluster service
/// process `⟨Q_N, L_N⟩` (Sect. 2.2): state `i` of the modulator encodes the
/// UP/DOWN phase configuration of all `N` servers, and `r_i` is the total
/// instantaneous service rate in that configuration.
///
/// # Example
///
/// ```
/// use performa_linalg::{Matrix, Vector};
/// use performa_markov::Mmpp;
///
/// // ON/OFF service: full rate 2 while UP, rate 0.4 while degraded.
/// let q = Matrix::from_rows(&[&[-1.0 / 90.0, 1.0 / 90.0],
///                             &[1.0 / 10.0, -1.0 / 10.0]]);
/// let mmpp = Mmpp::new(q, Vector::from(vec![2.0, 0.4]))?;
/// assert!((mmpp.mean_rate()? - (0.9 * 2.0 + 0.1 * 0.4)).abs() < 1e-12);
/// # Ok::<(), performa_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mmpp {
    q: Matrix,
    rates: Vector,
}

impl Mmpp {
    /// Creates a validated MMPP from a modulator generator and per-state
    /// rates.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NotAGenerator`] if `q` is not a CTMC generator.
    /// * [`MarkovError::DimensionMismatch`] if `rates.len() != q.nrows()`.
    /// * [`MarkovError::InvalidRate`] if any rate is negative/non-finite.
    pub fn new(q: Matrix, rates: Vector) -> Result<Self> {
        ctmc::validate_generator(&q)?;
        if rates.len() != q.nrows() {
            return Err(MarkovError::DimensionMismatch {
                message: format!(
                    "rate vector length {} vs generator dimension {}",
                    rates.len(),
                    q.nrows()
                ),
            });
        }
        for &r in rates.iter() {
            if !(r.is_finite() && r >= 0.0) {
                return Err(MarkovError::InvalidRate {
                    value: r,
                    context: "MMPP state rate",
                });
            }
        }
        Ok(Mmpp { q, rates })
    }

    /// Number of modulator states.
    pub fn dim(&self) -> usize {
        self.rates.len()
    }

    /// The modulator generator `Q`.
    pub fn generator(&self) -> &Matrix {
        &self.q
    }

    /// Per-state Poisson rates.
    pub fn rates(&self) -> &Vector {
        &self.rates
    }

    /// The diagonal rate matrix `L = diag(r)`.
    pub fn rate_matrix(&self) -> Matrix {
        Matrix::diag(self.rates.as_slice())
    }

    /// Stationary distribution of the modulator.
    ///
    /// # Errors
    ///
    /// [`MarkovError::Linalg`] for a reducible modulator.
    pub fn steady_state(&self) -> Result<Vector> {
        ctmc::steady_state(&self.q)
    }

    /// Long-run average event rate `Σ π_i r_i`.
    ///
    /// # Errors
    ///
    /// Propagates [`Mmpp::steady_state`] errors.
    pub fn mean_rate(&self) -> Result<f64> {
        Ok(self.steady_state()?.dot(&self.rates))
    }


    /// Asymptotic index of dispersion for counts,
    /// `IDC(∞) = lim Var N(t) / E N(t)` — the standard burstiness measure
    /// of the MMPP teletraffic literature (Fischer & Meier-Hellstern's
    /// "MMPP cookbook") that the paper's Sect. 2.3 duality connects to.
    ///
    /// Computed from the deviation matrix `D = (Π − Q)⁻¹ − Π`
    /// (`Π = ε·π`): the asymptotic variance rate of the counting process
    /// is `λ̄ + 2·π·L·D·L·ε`, so `IDC(∞) = 1 + 2·π·L·D·L·ε / λ̄`.
    /// `D` is never formed: with `x = (Π − Q)⁻¹·r` from one solve,
    /// `D·r = x − Π·r = x − λ̄·ε`. Equals 1 exactly for a Poisson process
    /// (constant rates).
    ///
    /// # Errors
    ///
    /// * [`MarkovError::Linalg`] for a reducible modulator.
    /// * [`MarkovError::Inaccurate`] when the result is non-finite or
    ///   below 1 by more than rounding. An MMPP is a Cox process, so its
    ///   IDC is at least 1; a smaller value means the solve lost every
    ///   digit, as it does for TPT repair tails whose rates span more
    ///   orders of magnitude than `f64` resolves (N=2, T=24 and beyond).
    pub fn asymptotic_idc(&self) -> Result<f64> {
        let pi = self.steady_state()?;
        let lambda_bar = pi.dot(&self.rates);
        if lambda_bar == 0.0 {
            return Ok(1.0);
        }
        let n = self.dim();
        // Π = ε·π (every row is π).
        let big_pi = Matrix::from_fn(n, n, |_, j| pi[j]);
        let mut lu = LuWorkspace::new(n);
        lu.factor(&(&big_pi - &self.q))?;
        let mut dl = Vector::zeros(n);
        lu.solve_vec_into(&self.rates, &mut dl)?;
        for v in dl.as_mut_slice() {
            *v -= lambda_bar;
        }
        // π·L·D·L·ε with L diagonal: (π∘r)·(D·r).
        let weighted: Vector = (0..n).map(|i| pi[i] * self.rates[i]).collect();
        let idc = 1.0 + 2.0 * weighted.dot(&dl) / lambda_bar;
        if !idc.is_finite() || idc < 1.0 - IDC_ROUNDING {
            return Err(MarkovError::Inaccurate {
                quantity: "asymptotic IDC",
                value: idc,
                bound: "IDC >= 1 (an MMPP is a Cox process)",
            });
        }
        Ok(idc)
    }

    /// Converts to the general MAP representation
    /// `(D₀, D₁) = (Q − L, L)`.
    pub fn to_map(&self) -> Map {
        let l = self.rate_matrix();
        Map::new(&self.q - &l, l).expect("a valid MMPP is always a valid MAP")
    }
}

impl From<Mmpp> for Map {
    fn from(m: Mmpp) -> Map {
        m.to_map()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onoff() -> Mmpp {
        let q = Matrix::from_rows(&[&[-0.5, 0.5], &[2.0, -2.0]]);
        Mmpp::new(q, Vector::from(vec![3.0, 0.0])).unwrap()
    }

    #[test]
    fn accessors() {
        let m = onoff();
        assert_eq!(m.dim(), 2);
        assert_eq!(m.rates().as_slice(), &[3.0, 0.0]);
        assert_eq!(m.rate_matrix()[(0, 0)], 3.0);
        assert_eq!(m.generator()[(0, 1)], 0.5);
    }

    #[test]
    fn mean_rate_is_availability_weighted() {
        // π = (0.8, 0.2); mean rate = 0.8·3 = 2.4.
        let m = onoff();
        assert!((m.mean_rate().unwrap() - 2.4).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        let q = Matrix::from_rows(&[&[-1.0, 1.0], &[2.0, -2.0]]);
        assert!(Mmpp::new(q.clone(), Vector::zeros(3)).is_err());
        assert!(Mmpp::new(q.clone(), Vector::from(vec![1.0, -1.0])).is_err());
        assert!(Mmpp::new(q.clone(), Vector::from(vec![1.0, f64::NAN])).is_err());
        assert!(Mmpp::new(Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]),
                          Vector::zeros(2)).is_err());
        assert!(Mmpp::new(q, Vector::from(vec![1.0, 2.0])).is_ok());
    }


    #[test]
    fn idc_of_poisson_is_one() {
        let m = Mmpp::new(
            Matrix::from_rows(&[&[0.0]]),
            Vector::from(vec![3.0]),
        )
        .unwrap();
        assert!((m.asymptotic_idc().unwrap() - 1.0).abs() < 1e-12);
        // Constant rates across a modulated chain are still Poisson.
        let m = Mmpp::new(
            Matrix::from_rows(&[&[-1.0, 1.0], &[2.0, -2.0]]),
            Vector::from(vec![3.0, 3.0]),
        )
        .unwrap();
        assert!((m.asymptotic_idc().unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn idc_matches_two_state_closed_form() {
        // Fischer & Meier-Hellstern: for the 2-state MMPP with exit rates
        // (r1, r2) and rates (l1, l2):
        // IDC(inf) = 1 + 2 (l1-l2)^2 pi1 pi2 / ((r1+r2) lambda_bar).
        for &(r1, r2, l1, l2) in &[
            (0.0111_f64, 0.1, 2.0, 0.0),
            (0.5, 0.25, 1.0, 4.0),
            (1.0, 1.0, 0.3, 0.7),
        ] {
            let q = Matrix::from_rows(&[&[-r1, r1], &[r2, -r2]]);
            let m = Mmpp::new(q, Vector::from(vec![l1, l2])).unwrap();
            let pi1 = r2 / (r1 + r2);
            let pi2 = 1.0 - pi1;
            let lbar = pi1 * l1 + pi2 * l2;
            let expect = 1.0 + 2.0 * (l1 - l2).powi(2) * pi1 * pi2 / ((r1 + r2) * lbar);
            let got = m.asymptotic_idc().unwrap();
            assert!(
                (got - expect).abs() < 1e-9 * expect,
                "r=({r1},{r2}) l=({l1},{l2}): got {got}, want {expect}"
            );
        }
    }

    #[test]
    fn idc_grows_with_cycle_length() {
        // Slower modulation (longer cycles) at fixed availability means a
        // burstier process.
        let build = |scale: f64| {
            Mmpp::new(
                Matrix::from_rows(&[
                    &[-0.0111 / scale, 0.0111 / scale],
                    &[0.1 / scale, -0.1 / scale],
                ]),
                Vector::from(vec![2.0, 0.0]),
            )
            .unwrap()
        };
        let fast = build(1.0).asymptotic_idc().unwrap();
        let slow = build(10.0).asymptotic_idc().unwrap();
        assert!(slow > 5.0 * fast, "fast {fast}, slow {slow}");
        assert!(fast > 1.0);
    }

    #[test]
    fn map_conversion_preserves_rate() {
        let m = onoff();
        let map = m.to_map();
        assert!((map.mean_rate().unwrap() - m.mean_rate().unwrap()).abs() < 1e-12);
        // D0 + D1 equals the modulator generator.
        assert!(map
            .phase_generator()
            .max_abs_diff(m.generator())
            < 1e-14);
        let _: Map = m.into();
    }
}
