use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use performa_ctrl::CancelToken;
use performa_linalg::{
    lu::{FactorOptions, Lu, LuWorkspace},
    Matrix, Vector,
};

use crate::fault;
use crate::solution::{geometric_eps, QbdSolution};
use crate::supervisor::{supervise, GStrategy, SupervisorOptions};
use crate::workspace::{self, gemm, Workspace};
use crate::{QbdError, Result};

/// Tolerance for generator row-sum validation, scaled by the largest rate.
const ROWSUM_TOL: f64 = 1e-8;

/// Residual/watchdog/deadline checks run every this many iterations
/// (plus the final budgeted iteration), amortizing the `O(m²)` norm and
/// finiteness sweeps across the `O(m³)` kernel work. Iteration 0 is
/// always checked so armed deadlines abort before any expensive work.
/// Convergence is only ever declared on a checked iteration, and the
/// finiteness sweep runs before the convergence test there — a NaN can
/// never masquerade as a converged iterate (`max_abs_diff` ignores NaN).
const CHECK_STRIDE: usize = 4;

/// `true` on iterations where the amortized checks must run.
#[inline]
fn checked_iteration(it: usize, max_iterations: usize) -> bool {
    it.is_multiple_of(CHECK_STRIDE) || it + 1 == max_iterations
}

/// NaN/Inf watchdog: `true` iff every entry of `m` is finite.
pub(crate) fn all_finite(m: &Matrix) -> bool {
    (0..m.nrows()).all(|i| m.row(i).iter().all(|v| v.is_finite()))
}

/// Combined interrupt check, run at the amortized [`CHECK_STRIDE`]: a
/// tripped [`CancelToken`] wins over an expired deadline, so a Ctrl-C
/// under a per-point deadline reports [`QbdError::Cancelled`] (the run
/// was told to stop) rather than [`QbdError::DeadlineExceeded`] (the
/// point looked too expensive).
fn check_interrupt(
    stage: &'static str,
    iterations: usize,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
) -> Result<()> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Err(QbdError::Cancelled { stage, iterations });
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(QbdError::DeadlineExceeded { stage, iterations });
    }
    Ok(())
}

/// Per-iteration observability: residual gauge always (cheap no-op when
/// metrics are off), a flight-recorder note when armed, plus a
/// `qbd.iter` trace event at Debug.
fn iter_obs(stage: &'static str, iteration: usize, residual: f64) {
    performa_obs::gauge_set("qbd.residual", residual);
    performa_obs::flight::note(stage, iteration as u64, residual);
    if performa_obs::enabled(performa_obs::TraceLevel::Debug) {
        performa_obs::event(
            performa_obs::TraceLevel::Debug,
            "qbd.iter",
            vec![
                ("stage", stage.into()),
                ("iteration", iteration.into()),
                ("residual", residual.into()),
            ],
        );
    }
}

/// The NaN/Inf watchdog tripped: emit the warning event and dump the
/// flight recorder (the last K iteration records at full detail) before
/// the [`QbdError::NumericalBreakdown`] unwinds to the supervisor.
fn watchdog_obs(stage: &'static str, iteration: usize) {
    performa_obs::event(
        performa_obs::TraceLevel::Warn,
        "qbd.watchdog_trip",
        vec![("stage", stage.into()), ("iteration", iteration.into())],
    );
    performa_obs::flight::dump("watchdog");
}

/// Subtracts the rank-one shift term `(Mε)uᵀ` (`u = ε/m`) from `out`:
/// every entry of row `i` loses `rowsum[i]/m`.
fn subtract_rank_one_rowsum(out: &mut Matrix, row_sums: &Vector, um: f64) {
    for i in 0..out.nrows() {
        let s = row_sums[i] * um;
        for v in out.row_mut(i).iter_mut() {
            *v -= s;
        }
    }
}

/// Undoes the spectral shift on a computed `Ĝ = G − εuᵀ`: adds `1/m`
/// back to every entry.
fn undo_shift(g: &mut Matrix, um: f64) {
    for i in 0..g.nrows() {
        for v in g.row_mut(i).iter_mut() {
            *v += um;
        }
    }
}

/// Numerical-hardening switches for the `G`-matrix stages.
///
/// All off by default — the default path is bit-identical to the
/// unhardened solver. The supervisor's recovery ladder escalates to
/// [`Hardening::full`] when a stage breaks down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Hardening {
    /// Spectral shift: deflate the unit eigenvalue of `A0+A1+A2` with
    /// the rank-one update `Ã1 = A1 + (A0ε)uᵀ`, `Ã2 = A2 − (A2ε)uᵀ`
    /// (`u = ε/m`), solve the shifted equation for `Ĝ = G − εuᵀ` and
    /// undo the shift on the result. Restores quadratic convergence on
    /// near-null-recurrent chains where the unshifted iteration stalls
    /// and overflows. Valid only for recurrent chains (`Gε = ε`);
    /// requesting it on an unstable chain yields [`QbdError::Unstable`].
    /// Applied by logarithmic reduction and functional iteration; Neuts
    /// substitution ignores it (the shift breaks the non-negativity its
    /// monotone convergence relies on) but still enforces the
    /// recurrence gate.
    pub shift: bool,
    /// Row/column equilibration of every LU factorization in the stage
    /// (see [`performa_linalg::lu::FactorOptions::equilibrate`]).
    pub equilibrate: bool,
    /// Iterative refinement of the one-shot setup solves (the hot
    /// inner-loop solves stay plain: a per-iteration residual pass
    /// would dominate the kernel work).
    pub refine: bool,
}

impl Hardening {
    /// Every mitigation enabled — the top rung of the recovery ladder.
    pub fn full() -> Self {
        Hardening {
            shift: true,
            equilibrate: true,
            refine: true,
        }
    }

    /// `true` when any mitigation is enabled.
    pub fn any(&self) -> bool {
        self.shift || self.equilibrate || self.refine
    }

    /// Factor options for the stage's one-shot setup systems.
    fn setup_factor(&self) -> FactorOptions {
        FactorOptions {
            equilibrate: self.equilibrate,
            retain: self.refine,
        }
    }

    /// Factor options for per-iteration systems: equilibration only,
    /// never the retained copy refinement needs.
    fn inner_factor(&self) -> FactorOptions {
        FactorOptions {
            equilibrate: self.equilibrate,
            retain: false,
        }
    }
}

impl fmt::Display for Hardening {
    /// Round-trippable spelling (mirrors `DistSpec`): `"none"`,
    /// `"full"`, or the enabled flags joined with `+` — e.g.
    /// `"shift+refine"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.any() {
            return f.write_str("none");
        }
        if *self == Hardening::full() {
            return f.write_str("full");
        }
        let mut first = true;
        for (on, name) in [
            (self.shift, "shift"),
            (self.equilibrate, "equilibrate"),
            (self.refine, "refine"),
        ] {
            if on {
                if !first {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        Ok(())
    }
}

impl FromStr for Hardening {
    type Err = QbdError;

    /// Parses the [`fmt::Display`] spelling: `"none"`, `"full"`, or
    /// `+`-joined flags from `{shift, equilibrate, refine}`.
    fn from_str(s: &str) -> Result<Self> {
        let spec = s.trim().to_ascii_lowercase();
        match spec.as_str() {
            "none" | "" => return Ok(Hardening::default()),
            "full" | "all" => return Ok(Hardening::full()),
            _ => {}
        }
        let mut h = Hardening::default();
        for flag in spec.split('+') {
            match flag.trim() {
                "shift" => h.shift = true,
                "equilibrate" | "equil" => h.equilibrate = true,
                "refine" => h.refine = true,
                other => {
                    return Err(QbdError::InvalidParameter {
                        message: format!(
                            "unknown hardening flag '{other}' (expected \
                             none, full, or '+'-joined shift/equilibrate/refine)"
                        ),
                    })
                }
            }
        }
        Ok(h)
    }
}

/// Options controlling one `G`-matrix iteration ([`Qbd::g_matrix`],
/// [`Qbd::g_matrix_by`]) and the unsupervised solve
/// [`Qbd::solve_with_count`].
///
/// `#[non_exhaustive]` — construct via [`SolveOptions::default`] (or
/// [`SolveOptions::hardened`]) and the `with_*` builders, so new knobs
/// can be added without breaking downstream crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SolveOptions {
    /// Convergence tolerance on the `G` iteration (infinity norm).
    pub tolerance: f64,
    /// Iteration cap for the `G` computation.
    pub max_iterations: usize,
    /// Numerical hardening applied to the `G` stages (default: none).
    pub hardening: Hardening,
    /// Optional wall-clock deadline for the `G` stages, checked at the
    /// amortized [`CHECK_STRIDE`]; expiry yields
    /// [`QbdError::DeadlineExceeded`]. `None` (the default) disables
    /// the check.
    pub deadline: Option<Instant>,
    /// Optional cooperative cancellation token, checked alongside the
    /// deadline; a tripped token yields [`QbdError::Cancelled`].
    pub cancel: Option<CancelToken>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tolerance: 1e-14,
            max_iterations: 200,
            hardening: Hardening::default(),
            deadline: None,
            cancel: None,
        }
    }
}

impl SolveOptions {
    /// Default tolerances with full hardening — the configuration that
    /// recovers the paper-scale near-null-recurrent cases (`N2_T32`).
    pub fn hardened() -> Self {
        SolveOptions {
            hardening: Hardening::full(),
            ..SolveOptions::default()
        }
    }

    /// The same options with a different convergence tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The same options with a different iteration cap.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// The same options with the given [`Hardening`] mitigations.
    #[must_use]
    pub fn with_hardening(mut self, hardening: Hardening) -> Self {
        self.hardening = hardening;
        self
    }

    /// The same options with a wall-clock deadline for the `G` stages.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The same options with a cooperative cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// A level-independent continuous-time QBD process.
///
/// Interior levels use the blocks `A0` (level `n → n+1`), `A1` (local) and
/// `A2` (level `n → n−1`); the boundary level 0 uses `B00` (local) and
/// `B01` (up), with `B10` the down-block from level 1.
///
/// For the paper's M/MMPP/1 cluster queue, use [`Qbd::m_mmpp1`].
#[derive(Debug, Clone)]
pub struct Qbd {
    a0: Matrix,
    a1: Matrix,
    a2: Matrix,
    b00: Matrix,
    b01: Matrix,
    b10: Matrix,
}

fn require_nonneg(name: &str, m: &Matrix) -> Result<()> {
    for i in 0..m.nrows() {
        for j in 0..m.ncols() {
            let v = m[(i, j)];
            if !(v.is_finite() && v >= 0.0) {
                return Err(QbdError::InvalidBlocks {
                    message: format!("{name}[({i},{j})] = {v} must be finite and non-negative"),
                });
            }
        }
    }
    Ok(())
}

fn require_offdiag_nonneg(name: &str, m: &Matrix) -> Result<()> {
    for i in 0..m.nrows() {
        for j in 0..m.ncols() {
            let v = m[(i, j)];
            if !v.is_finite() {
                return Err(QbdError::InvalidBlocks {
                    message: format!("{name}[({i},{j})] = {v} must be finite"),
                });
            }
            if i != j && v < 0.0 {
                return Err(QbdError::InvalidBlocks {
                    message: format!("{name}[({i},{j})] = {v} must be non-negative off-diagonal"),
                });
            }
        }
    }
    Ok(())
}

impl Qbd {
    /// Creates a validated QBD from its six blocks.
    ///
    /// # Errors
    ///
    /// [`QbdError::InvalidBlocks`] if shapes disagree, rate blocks contain
    /// negative entries, or generator rows do not sum to zero
    /// (`B00+B01`, `B10+A1+A0`, and `A2+A1+A0` must each have zero row
    /// sums).
    pub fn new(
        a0: Matrix,
        a1: Matrix,
        a2: Matrix,
        b00: Matrix,
        b01: Matrix,
        b10: Matrix,
    ) -> Result<Self> {
        let m = a1.nrows();
        for (name, blk) in [
            ("A0", &a0),
            ("A1", &a1),
            ("A2", &a2),
            ("B00", &b00),
            ("B01", &b01),
            ("B10", &b10),
        ] {
            if blk.shape() != (m, m) {
                return Err(QbdError::InvalidBlocks {
                    message: format!(
                        "{name} is {}x{}, expected {m}x{m}",
                        blk.nrows(),
                        blk.ncols()
                    ),
                });
            }
        }
        require_nonneg("A0", &a0)?;
        require_nonneg("A2", &a2)?;
        require_nonneg("B01", &b01)?;
        require_nonneg("B10", &b10)?;
        require_offdiag_nonneg("A1", &a1)?;
        require_offdiag_nonneg("B00", &b00)?;

        let scale = a1.max_abs().max(b00.max_abs()).max(1.0);
        // Row sums accumulated directly across the summand blocks — no
        // temporary sum matrices.
        let worst_row_sum = |blocks: &[&Matrix]| -> f64 {
            (0..m)
                .map(|i| {
                    blocks
                        .iter()
                        .map(|blk| blk.row(i).iter().sum::<f64>())
                        .sum::<f64>()
                        .abs()
                })
                .fold(0.0, f64::max)
        };
        let check = |name: &str, worst: f64| -> Result<()> {
            if worst > ROWSUM_TOL * scale * m as f64 {
                return Err(QbdError::InvalidBlocks {
                    message: format!("{name} row sums must vanish, worst {worst:.3e}"),
                });
            }
            Ok(())
        };
        check("B00+B01", worst_row_sum(&[&b00, &b01]))?;
        check("B10+A1+A0", worst_row_sum(&[&b10, &a1, &a0]))?;
        check("A2+A1+A0", worst_row_sum(&[&a2, &a1, &a0]))?;

        Ok(Qbd {
            a0,
            a1,
            a2,
            b00,
            b01,
            b10,
        })
    }

    /// Builds the M/MMPP/1 queue of the paper: Poisson arrivals at rate
    /// `lambda` into a single server whose service process is the given
    /// MMPP `⟨Q, L⟩`.
    ///
    /// Blocks: `A0 = λI`, `A1 = Q − λI − L`, `A2 = L`, with boundary
    /// `B00 = Q − λI`, `B01 = λI`, `B10 = L` (no service in an empty
    /// queue).
    ///
    /// # Errors
    ///
    /// [`QbdError::InvalidBlocks`] if `lambda` is not positive finite.
    pub fn m_mmpp1(lambda: f64, generator: &Matrix, rates: &Vector) -> Result<Self> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(QbdError::InvalidBlocks {
                message: format!("arrival rate lambda = {lambda} must be positive"),
            });
        }
        let m = generator.nrows();
        if rates.len() != m {
            return Err(QbdError::InvalidBlocks {
                message: format!(
                    "rate vector length {} vs generator dimension {m}",
                    rates.len()
                ),
            });
        }
        // λI and L = diag(rates) only touch the diagonal, so A1 and B00
        // are the generator with adjusted diagonals — built by one clone
        // and an O(m) diagonal pass each, with every block moved (not
        // cloned) into the Qbd.
        let mut a1 = generator.clone();
        let mut b00 = generator.clone();
        for i in 0..m {
            a1[(i, i)] -= lambda + rates[i];
            b00[(i, i)] -= lambda;
        }
        let lambda_i = || Matrix::identity(m) * lambda;
        let service = || Matrix::diag(rates.as_slice());
        Qbd::new(lambda_i(), a1, service(), b00, lambda_i(), service())
    }


    /// Builds the dual teletraffic queue of paper Sect. 2.3: an
    /// **MMPP/M/1** queue — bursty MMPP arrivals `⟨Q, L⟩` (the N-Burst
    /// model) into a single exponential server of rate `mu`.
    ///
    /// Blocks: `A0 = L`, `A1 = Q − L − μI`, `A2 = μI`, with boundary
    /// `B00 = Q − L`, `B01 = L`, `B10 = μI`.
    ///
    /// # Errors
    ///
    /// [`QbdError::InvalidBlocks`] if `mu` is not positive finite or the
    /// dimensions disagree.
    pub fn mmpp_m1(generator: &Matrix, arrival_rates: &Vector, mu: f64) -> Result<Self> {
        if !(mu.is_finite() && mu > 0.0) {
            return Err(QbdError::InvalidBlocks {
                message: format!("service rate mu = {mu} must be positive"),
            });
        }
        let m = generator.nrows();
        if arrival_rates.len() != m {
            return Err(QbdError::InvalidBlocks {
                message: format!(
                    "rate vector length {} vs generator dimension {m}",
                    arrival_rates.len()
                ),
            });
        }
        // Same diagonal-only construction as [`Qbd::m_mmpp1`]: no block
        // is cloned into the Qbd.
        let mut a1 = generator.clone();
        let mut b00 = generator.clone();
        for i in 0..m {
            a1[(i, i)] -= arrival_rates[i] + mu;
            b00[(i, i)] -= arrival_rates[i];
        }
        let arrivals = || Matrix::diag(arrival_rates.as_slice());
        let mu_i = || Matrix::identity(m) * mu;
        Qbd::new(arrivals(), a1, mu_i(), b00, arrivals(), mu_i())
    }

    /// Phase-space dimension `m`.
    pub fn phase_dim(&self) -> usize {
        self.a1.nrows()
    }

    /// The up (arrival) block `A0`.
    pub fn a0(&self) -> &Matrix {
        &self.a0
    }

    /// The local block `A1`.
    pub fn a1(&self) -> &Matrix {
        &self.a1
    }

    /// The down (service) block `A2`.
    pub fn a2(&self) -> &Matrix {
        &self.a2
    }

    /// Stationary distribution `φ` of the phase process `A = A0+A1+A2`.
    ///
    /// # Errors
    ///
    /// [`QbdError::Linalg`] for a reducible phase process.
    pub fn phase_steady_state(&self) -> Result<Vector> {
        let a = &(&self.a0 + &self.a1) + &self.a2;
        // Solve φ·A = 0 with normalization (same construction as
        // performa-markov's steady_state; duplicated to keep the crate
        // dependency graph a simple chain).
        let n = a.nrows();
        let mut at = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                at[(j, i)] = if j == n - 1 { 1.0 } else { a[(i, j)] };
            }
        }
        let mut phi = Lu::factor(&at)?.solve_vec(&Vector::basis(n, n - 1))?;
        phi.normalize_sum_compensated();
        Ok(phi)
    }

    /// Mean drift pair `(φ·A0·ε, φ·A2·ε)`: expected up- and down-rates
    /// under the phase stationary law.
    ///
    /// # Errors
    ///
    /// Propagates [`Qbd::phase_steady_state`] errors.
    pub fn drift(&self) -> Result<(f64, f64)> {
        let phi = self.phase_steady_state()?;
        Ok((
            phi.dot(&self.a0.row_sums()),
            phi.dot(&self.a2.row_sums()),
        ))
    }

    /// Returns `true` when the chain is positive recurrent
    /// (`φ·A0·ε < φ·A2·ε`).
    ///
    /// # Errors
    ///
    /// Propagates [`Qbd::drift`] errors.
    pub fn is_stable(&self) -> Result<bool> {
        let (up, down) = self.drift()?;
        Ok(up < down)
    }

    /// Recurrence gate for the spectral shift: the deflation assumes
    /// `Gε = ε`, which only holds for recurrent chains. A shifted solve
    /// on an unstable chain would silently converge to a wrong `G`, so
    /// the gate turns it into a typed error instead.
    fn shift_gate(&self, hardening: Hardening) -> Result<()> {
        if !hardening.shift {
            return Ok(());
        }
        let (up, down) = self.drift()?;
        if up >= down {
            return Err(QbdError::Unstable {
                up_rate: up,
                down_rate: down,
            });
        }
        Ok(())
    }

    /// Computes the matrix `G` (first-passage phase probabilities one level
    /// down) by **logarithmic reduction** (Latouche & Ramaswami), the
    /// quadratically convergent standard algorithm.
    ///
    /// `G` is the minimal non-negative solution of
    /// `A2 + A1·G + A0·G² = 0`; it is stochastic iff the chain is
    /// recurrent.
    ///
    /// # Errors
    ///
    /// [`QbdError::NoConvergence`] if the iteration cap is hit;
    /// [`QbdError::Linalg`] on singular intermediate systems.
    pub fn g_matrix(&self, opts: SolveOptions) -> Result<Matrix> {
        Ok(self.g_matrix_by(GStrategy::LogarithmicReduction, opts)?.0)
    }

    /// Computes `G` with the chosen algorithm and returns it with the
    /// iterations spent — the single entry point behind
    /// [`Qbd::g_matrix`] and every rung of the [`crate::SolverSupervisor`].
    ///
    /// * [`GStrategy::LogarithmicReduction`] — quadratically convergent;
    ///   see [`Qbd::g_matrix`].
    /// * [`GStrategy::NeutsSubstitution`] — `G ← (−(A1 + A0·G))⁻¹·A2`
    ///   from `G = 0`, linearly convergent and monotone. It honors
    ///   equilibration but not the spectral shift (see
    ///   [`Hardening::shift`]); with `shift` set it still enforces the
    ///   recurrence gate.
    /// * [`GStrategy::FunctionalIteration`] — `G ← (−A1)⁻¹(A2 + A0·G²)`,
    ///   linearly convergent; the baseline of the solver ablation.
    ///
    /// # Errors
    ///
    /// [`QbdError::NoConvergence`] if the iteration cap is hit;
    /// [`QbdError::NumericalBreakdown`] when the NaN/Inf watchdog trips;
    /// [`QbdError::DeadlineExceeded`] / [`QbdError::Cancelled`] on an
    /// interrupt; [`QbdError::Unstable`] when a shift is requested on an
    /// unstable chain; [`QbdError::Linalg`] on singular systems.
    pub fn g_matrix_by(&self, strategy: GStrategy, opts: SolveOptions) -> Result<(Matrix, usize)> {
        let run = match strategy {
            GStrategy::LogarithmicReduction => Qbd::g_logred_counted,
            GStrategy::NeutsSubstitution => Qbd::g_neuts_counted,
            GStrategy::FunctionalIteration => Qbd::g_functional_counted,
        };
        run(
            self,
            opts.tolerance,
            opts.max_iterations,
            opts.deadline,
            opts.cancel.as_ref(),
            opts.hardening,
        )
    }

    /// Counted logarithmic reduction with NaN/Inf watchdog, optional
    /// wall-clock deadline, fault-injection hooks (stage key `"logred"`)
    /// and [`Hardening`] mitigations.
    ///
    /// With `hardening.shift` the recursion runs on the deflated blocks
    /// `(A0, Ã1, Ã2)` and converges to `Ĝ = G − εuᵀ`; the shift is
    /// undone before returning. Near null recurrence this restores the
    /// quadratic convergence the unshifted recursion loses (`‖T‖` then
    /// stays O(1) instead of vanishing, so termination comes from the
    /// increment norm — already part of the convergence test).
    fn g_logred_counted(
        &self,
        tolerance: f64,
        max_iterations: usize,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
        hardening: Hardening,
    ) -> Result<(Matrix, usize)> {
        self.shift_gate(hardening)?;
        let m = self.phase_dim();
        let um = 1.0 / m as f64;
        workspace::with(m, |ws| {
            // k1 = H (up), k2 = L (down); iterates x1 = G (seeded from
            // L), x2 = T (seeded from H).
            self.shifted_setup(ws, hardening, um)?;
            ws.x1.copy_from(&ws.k2);
            ws.x2.copy_from(&ws.k1);

            for it in 0..max_iterations {
                let checking = checked_iteration(it, max_iterations);
                if checking {
                    check_interrupt("logred", it, deadline, cancel)?;
                }
                // U = H·L + L·H, then t1 ← I − U and factor in place.
                gemm(1.0, &ws.k1, &ws.k2, 0.0, &mut ws.t1);
                gemm(1.0, &ws.k2, &ws.k1, 1.0, &mut ws.t1);
                ws.t1.scale_mut(-1.0);
                ws.t1.add_scaled_identity(1.0);
                ws.lu.factor_with(&ws.t1, hardening.inner_factor())?;
                // H ← (I−U)⁻¹·H², L ← (I−U)⁻¹·L².
                gemm(1.0, &ws.k1, &ws.k1, 0.0, &mut ws.t2);
                ws.lu.solve_mat_into(&ws.t2, &mut ws.k1)?;
                gemm(1.0, &ws.k2, &ws.k2, 0.0, &mut ws.t2);
                ws.lu.solve_mat_into(&ws.t2, &mut ws.k2)?;
                // G += T·L; T ← T·H (t2 keeps the increment for the
                // residual check below).
                gemm(1.0, &ws.x2, &ws.k2, 0.0, &mut ws.t2);
                ws.x1.add_scaled_mut(&ws.t2, 1.0);
                gemm(1.0, &ws.x2, &ws.k1, 0.0, &mut ws.t1);
                std::mem::swap(&mut ws.x2, &mut ws.t1);
                fault::poison("logred", it, &mut ws.x1);

                if checking {
                    if !(all_finite(&ws.x1) && all_finite(&ws.x2)) {
                        watchdog_obs("logred", it);
                        return Err(QbdError::NumericalBreakdown {
                            stage: "logred",
                            iteration: it,
                        });
                    }
                    let add_norm = ws.t2.norm_inf();
                    iter_obs("logred", it, add_norm);
                    ws.gauge();
                    if !fault::stalled("logred")
                        && (ws.x2.norm_inf() < tolerance || add_norm < tolerance)
                    {
                        let mut g = ws.x1.clone();
                        if hardening.shift {
                            undo_shift(&mut g, um);
                        }
                        return Ok((g, it + 1));
                    }
                }
            }
            Err(QbdError::NoConvergence {
                stage: "logarithmic reduction",
                iterations: max_iterations,
                residual: ws.x2.norm_inf(),
            })
        })
    }

    /// Setup shared by logarithmic reduction and functional iteration:
    /// factors `−Ã1` into the workspace LU and leaves
    /// `k1 = (−Ã1)⁻¹·A0` (up) and `k2 = (−Ã1)⁻¹·Ã2` (down). Under the
    /// spectral shift `Ã1 = A1 + (A0ε)uᵀ` and `Ã2 = A2 − (A2ε)uᵀ`
    /// (`u = ε/m`, `um = 1/m`); unshifted they are `A1` and `A2`.
    fn shifted_setup(&self, ws: &mut Workspace, hardening: Hardening, um: f64) -> Result<()> {
        ws.t1.copy_from(&self.a1);
        ws.t1.scale_mut(-1.0);
        if hardening.shift {
            performa_obs::counter_add("qbd.shift_applied", 1);
            subtract_rank_one_rowsum(&mut ws.t1, &self.a0.row_sums(), um);
        }
        ws.lu.factor_with(&ws.t1, hardening.setup_factor())?;
        let down_block = if hardening.shift {
            // Ã2 staged in t2 (free until the iteration starts).
            ws.t2.copy_from(&self.a2);
            subtract_rank_one_rowsum(&mut ws.t2, &self.a2.row_sums(), um);
            &ws.t2
        } else {
            &self.a2
        };
        if hardening.refine {
            let s1 = ws.lu.solve_mat_refined_into(&self.a0, &mut ws.k1)?;
            let s2 = ws.lu.solve_mat_refined_into(down_block, &mut ws.k2)?;
            performa_obs::counter_add("qbd.refine_iters", (s1.iterations + s2.iterations) as u64);
        } else {
            ws.lu.solve_mat_into(&self.a0, &mut ws.k1)?;
            ws.lu.solve_mat_into(down_block, &mut ws.k2)?;
        }
        Ok(())
    }

    /// Counted functional iteration with watchdogs (stage key
    /// `"functional"`); see [`Qbd::g_logred_counted`]. The shift runs
    /// the iteration `Ĝ ← (−Ã1)⁻¹(Ã2 + A0·Ĝ²)` on the deflated blocks
    /// and undoes the shift on the result.
    fn g_functional_counted(
        &self,
        tolerance: f64,
        max_iterations: usize,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
        hardening: Hardening,
    ) -> Result<(Matrix, usize)> {
        self.shift_gate(hardening)?;
        let m = self.phase_dim();
        let um = 1.0 / m as f64;
        workspace::with(m, |ws| {
            // k1 = up, k2 = base; iterate x1 = Ĝ seeded from base.
            self.shifted_setup(ws, hardening, um)?;
            ws.x1.copy_from(&ws.k2);

            let mut last_diff = f64::NAN;
            for it in 0..max_iterations {
                let checking = checked_iteration(it, max_iterations);
                if checking {
                    check_interrupt("functional", it, deadline, cancel)?;
                }
                // next = base + up·G² assembled in t2.
                gemm(1.0, &ws.x1, &ws.x1, 0.0, &mut ws.t1);
                ws.t2.copy_from(&ws.k2);
                gemm(1.0, &ws.k1, &ws.t1, 1.0, &mut ws.t2);
                fault::poison("functional", it, &mut ws.t2);
                if checking {
                    if !all_finite(&ws.t2) {
                        watchdog_obs("functional", it);
                        return Err(QbdError::NumericalBreakdown {
                            stage: "functional",
                            iteration: it,
                        });
                    }
                    last_diff = ws.t2.max_abs_diff(&ws.x1);
                    iter_obs("functional", it, last_diff);
                    ws.gauge();
                    let converged = !fault::stalled("functional") && last_diff < tolerance;
                    std::mem::swap(&mut ws.x1, &mut ws.t2);
                    if converged {
                        let mut g = ws.x1.clone();
                        if hardening.shift {
                            undo_shift(&mut g, um);
                        }
                        return Ok((g, it + 1));
                    }
                } else {
                    std::mem::swap(&mut ws.x1, &mut ws.t2);
                }
            }
            Err(QbdError::NoConvergence {
                stage: "functional iteration for G",
                iterations: max_iterations,
                residual: last_diff,
            })
        })
    }

    /// Counted Neuts substitution with watchdogs (stage key `"neuts"`);
    /// see [`Qbd::g_logred_counted`]. Hardening applies equilibration to
    /// the per-iteration factorizations; the shift flag only gates.
    fn g_neuts_counted(
        &self,
        tolerance: f64,
        max_iterations: usize,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
        hardening: Hardening,
    ) -> Result<(Matrix, usize)> {
        self.shift_gate(hardening)?;
        workspace::with(self.phase_dim(), |ws| {
            // Iterate x1 = G, seeded at zero (the classical opening).
            ws.x1.fill(0.0);
            let mut last_diff = f64::NAN;
            for it in 0..max_iterations {
                let checking = checked_iteration(it, max_iterations);
                if checking {
                    check_interrupt("neuts", it, deadline, cancel)?;
                }
                // t1 ← −(A1 + A0·G), factored in place; next = t2.
                ws.t1.copy_from(&self.a1);
                gemm(1.0, &self.a0, &ws.x1, 1.0, &mut ws.t1);
                ws.t1.scale_mut(-1.0);
                ws.lu.factor_with(&ws.t1, hardening.inner_factor())?;
                ws.lu.solve_mat_into(&self.a2, &mut ws.t2)?;
                fault::poison("neuts", it, &mut ws.t2);
                if checking {
                    if !all_finite(&ws.t2) {
                        watchdog_obs("neuts", it);
                        return Err(QbdError::NumericalBreakdown {
                            stage: "neuts",
                            iteration: it,
                        });
                    }
                    last_diff = ws.t2.max_abs_diff(&ws.x1);
                    iter_obs("neuts", it, last_diff);
                    ws.gauge();
                    let converged = !fault::stalled("neuts") && last_diff < tolerance;
                    std::mem::swap(&mut ws.x1, &mut ws.t2);
                    if converged {
                        return Ok((ws.x1.clone(), it + 1));
                    }
                } else {
                    std::mem::swap(&mut ws.x1, &mut ws.t2);
                }
            }
            Err(QbdError::NoConvergence {
                stage: "neuts successive substitution",
                iterations: max_iterations,
                residual: last_diff,
            })
        })
    }

    /// Computes `R = A0·(−(A1 + A0·G))⁻¹` from a given `G`.
    ///
    /// # Errors
    ///
    /// [`QbdError::Linalg`] if the inner matrix is singular (never for a
    /// valid stable QBD).
    pub fn r_from_g(&self, g: &Matrix) -> Result<Matrix> {
        Ok(self.r_from_g_with_cond(g, Hardening::default())?.0)
    }

    /// `R` plus the 1-norm condition estimate of the factored system
    /// `−(A1 + A0·G)` — the supervisor surfaces the estimate as an
    /// `IllConditioned` warning when it is large. This is a one-shot
    /// solve, so `hardening.refine` buys a componentwise-certified `R`
    /// at negligible cost; the shift flag is meaningless here and
    /// ignored.
    pub(crate) fn r_from_g_with_cond(
        &self,
        g: &Matrix,
        hardening: Hardening,
    ) -> Result<(Matrix, f64)> {
        let m = self.phase_dim();
        workspace::with(m, |ws| {
            // t1 ← −(A1 + A0·G), factored into the reusable workspace.
            ws.t1.copy_from(&self.a1);
            gemm(1.0, &self.a0, g, 1.0, &mut ws.t1);
            ws.t1.scale_mut(-1.0);
            ws.lu.factor_with(&ws.t1, hardening.setup_factor())?;
            let cond = ws.lu.condition_estimate();
            // R = A0·(−U)⁻¹ ⇔ solve X·(−U) = A0.
            let mut r = Matrix::zeros(m, m);
            if hardening.refine {
                let stats = ws.lu.solve_left_mat_refined_into(&self.a0, &mut r)?;
                performa_obs::counter_add("qbd.refine_iters", stats.iterations as u64);
            } else {
                ws.lu.solve_left_mat_into(&self.a0, &mut r)?;
            }
            Ok((r, cond))
        })
    }

    /// Full stationary solve through the [`crate::SolverSupervisor`] with
    /// [`SupervisorOptions::default`]: `G` → `R` → boundary vectors
    /// `(π₀, π₁)`. When the supervisor's first rung is accepted — every
    /// paper configuration — the result is bit-identical to
    /// [`Qbd::solve_with_count`] with [`SolveOptions::default`].
    ///
    /// # Errors
    ///
    /// * [`QbdError::Unstable`] when the drift condition fails.
    /// * [`QbdError::NoConvergence`] when every rung of the ladder fails;
    ///   [`QbdError::Linalg`] / [`QbdError::InvalidRateMatrix`] from the
    ///   `R` and boundary stages.
    pub fn solve(&self) -> Result<QbdSolution> {
        Ok(supervise(self, &SupervisorOptions::default())?.0)
    }

    /// The unsupervised first rung of [`Qbd::solve`]: one logarithmic
    /// reduction with `opts`, then `R` and the boundary system, with no
    /// residual gate and no fallback. Returns the `G`-stage iteration
    /// count alongside the solution. Kept for benchmarks that time the
    /// bare pipeline; production callers use [`Qbd::solve`].
    ///
    /// # Errors
    ///
    /// See [`Qbd::solve`]; a failed iteration is returned as is.
    pub fn solve_with_count(&self, opts: SolveOptions) -> Result<(QbdSolution, usize)> {
        let (up, down) = self.drift()?;
        if up >= down {
            return Err(QbdError::Unstable {
                up_rate: up,
                down_rate: down,
            });
        }
        let (g, iters) = self.g_logred_counted(
            opts.tolerance,
            opts.max_iterations,
            opts.deadline,
            opts.cancel.as_ref(),
            opts.hardening,
        )?;
        let r = self.r_from_g_with_cond(&g, opts.hardening)?.0;
        Ok((self.boundary_from_gr(g, r, opts.hardening)?.0, iters))
    }

    /// Assembles the full stationary solution from an already-computed
    /// `G`: `R = A0·(−(A1+A0·G))⁻¹`
    /// and the boundary system, with `hardening` applied to both solves.
    ///
    /// The caller is responsible for `g` actually solving
    /// `A2 + A1·G + A0·G² = 0` to an acceptable [`Qbd::g_residual`];
    /// this method performs no iteration of its own.
    ///
    /// # Errors
    ///
    /// [`QbdError::Linalg`] on singular intermediate systems.
    pub fn solve_from_g(&self, g: Matrix, hardening: Hardening) -> Result<QbdSolution> {
        let r = self.r_from_g_with_cond(&g, hardening)?.0;
        Ok(self.boundary_from_gr(g, r, hardening)?.0)
    }

    /// True residual `‖A2 + A1·G + A0·G²‖∞` of a candidate `G` — the
    /// acceptance metric used by the supervisor.
    pub fn g_residual(&self, g: &Matrix) -> f64 {
        let gg = g * g;
        let mut a0gg = Matrix::zeros(g.nrows(), g.ncols());
        gemm(1.0, &self.a0, &gg, 0.0, &mut a0gg);
        (self.a2() + &(self.a1() * g) + &a0gg).norm_inf()
    }

    /// Assembles the boundary vectors `(π₀, π₁)` and the full solution
    /// from already-computed `G` and `R`, returning the 1-norm condition
    /// estimate of the boundary linear system alongside.
    ///
    /// The boundary system inherits the generator's full dynamic range
    /// (TPT stage rates span `p^T`), so it is the single most
    /// ill-conditioned solve in the pipeline; `hardening` applies
    /// equilibration and iterative refinement to it (the shift flag has
    /// no meaning here and is ignored).
    pub(crate) fn boundary_from_gr(
        &self,
        g: Matrix,
        r: Matrix,
        hardening: Hardening,
    ) -> Result<(QbdSolution, f64)> {
        let m = self.phase_dim();

        // Boundary system for x = [π0, π1]:
        //   π0·B00 + π1·B10 = 0
        //   π0·B01 + π1·(A1 + R·A2) = 0
        // with normalization π0·ε + π1·(I−R)⁻¹·ε = 1 replacing one
        // (dependent) balance column.
        //
        // The solution's geometric caches reuse this one factorization
        // of I − R (geo_eps = (I−R)⁻¹·ε).
        let (i_minus_r, geo_eps) = geometric_eps(&r)?;
        let mut a1_ra2 = self.a1.clone();
        gemm(1.0, &r, &self.a2, 1.0, &mut a1_ra2);

        let dim = 2 * m;
        let mut sys = Matrix::zeros(dim, dim); // x · sys = rhs
        for i in 0..m {
            for j in 0..m {
                sys[(i, j)] = self.b00[(i, j)];
                sys[(m + i, j)] = self.b10[(i, j)];
                sys[(i, m + j)] = self.b01[(i, j)];
                sys[(m + i, m + j)] = a1_ra2[(i, j)];
            }
        }
        // Replace the last column with the normalization coefficients.
        for i in 0..m {
            sys[(i, dim - 1)] = 1.0;
            sys[(m + i, dim - 1)] = geo_eps[i];
        }
        // The 2m system runs once per solve, outside the workspace arena
        // (which is keyed to m); a dedicated factorization is fine here.
        let mut lu_sys = LuWorkspace::new(dim);
        lu_sys.factor_with(&sys, hardening.setup_factor())?;
        let cond = lu_sys.condition_estimate();
        let mut rhs = Matrix::zeros(1, dim);
        rhs[(0, dim - 1)] = 1.0;
        let mut x = Matrix::zeros(1, dim);
        if hardening.refine {
            let stats = lu_sys.solve_left_mat_refined_into(&rhs, &mut x)?;
            performa_obs::counter_add("qbd.refine_iters", stats.iterations as u64);
        } else {
            lu_sys.solve_left_mat_into(&rhs, &mut x)?;
        }

        let mut pi0 = Vector::zeros(m);
        let mut pi1 = Vector::zeros(m);
        for i in 0..m {
            pi0[i] = x[(0, i)].max(0.0);
            pi1[i] = x[(0, m + i)].max(0.0);
        }
        Ok((
            QbdSolution::from_factored(pi0, pi1, r, g, &i_minus_r, geo_eps)?,
            cond,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-phase QBD = M/M/1.
    fn mm1(lambda: f64, mu: f64) -> Qbd {
        Qbd::new(
            Matrix::from_rows(&[&[lambda]]),
            Matrix::from_rows(&[&[-lambda - mu]]),
            Matrix::from_rows(&[&[mu]]),
            Matrix::from_rows(&[&[-lambda]]),
            Matrix::from_rows(&[&[lambda]]),
            Matrix::from_rows(&[&[mu]]),
        )
        .unwrap()
    }

    const STRATEGIES: [GStrategy; 3] = [
        GStrategy::LogarithmicReduction,
        GStrategy::NeutsSubstitution,
        GStrategy::FunctionalIteration,
    ];

    /// Options stopping at `tolerance` within `max_iterations`.
    fn to(tolerance: f64, max_iterations: usize) -> SolveOptions {
        SolveOptions::default()
            .with_tolerance(tolerance)
            .with_max_iterations(max_iterations)
    }

    /// Two-phase MMPP service test model.
    fn mmpp2(lambda: f64) -> Qbd {
        let q = Matrix::from_rows(&[&[-0.1, 0.1], &[0.5, -0.5]]);
        let rates = Vector::from(vec![2.0, 0.2]);
        Qbd::m_mmpp1(lambda, &q, &rates).unwrap()
    }

    #[test]
    fn validation_rejects_bad_blocks() {
        // Wrong shape.
        assert!(Qbd::new(
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 2),
            Matrix::zeros(1, 1),
        )
        .is_err());
        // Negative rate in A0.
        assert!(Qbd::new(
            Matrix::from_rows(&[&[-1.0]]),
            Matrix::from_rows(&[&[0.0]]),
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[0.0]]),
            Matrix::from_rows(&[&[0.0]]),
            Matrix::from_rows(&[&[0.0]]),
        )
        .is_err());
        // Row sums broken.
        assert!(Qbd::new(
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[-1.0]]),
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[-1.0]]),
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[1.0]]),
        )
        .is_err());
    }

    #[test]
    fn m_mmpp1_constructor_validates_lambda() {
        let q = Matrix::from_rows(&[&[-1.0, 1.0], &[1.0, -1.0]]);
        let r = Vector::from(vec![1.0, 0.0]);
        assert!(Qbd::m_mmpp1(0.0, &q, &r).is_err());
        assert!(Qbd::m_mmpp1(-1.0, &q, &r).is_err());
        assert!(Qbd::m_mmpp1(0.4, &q, &r).is_ok());
        assert!(Qbd::m_mmpp1(0.4, &q, &Vector::zeros(3)).is_err());
    }


    #[test]
    fn mmpp_m1_poisson_special_case_is_mm1() {
        // One-phase MMPP arrivals = Poisson: must equal M/M/1.
        let q = Matrix::from_rows(&[&[0.0]]);
        let rates = Vector::from(vec![0.6]);
        let sol = Qbd::mmpp_m1(&q, &rates, 1.0).unwrap().solve().unwrap();
        let rho: f64 = 0.6;
        assert!((sol.mean_queue_length() - rho / (1.0 - rho)).abs() < 1e-9);
    }

    #[test]
    fn mmpp_m1_validation() {
        let q = Matrix::from_rows(&[&[-1.0, 1.0], &[1.0, -1.0]]);
        let r = Vector::from(vec![1.0, 0.0]);
        assert!(Qbd::mmpp_m1(&q, &r, 0.0).is_err());
        assert!(Qbd::mmpp_m1(&q, &Vector::zeros(3), 1.0).is_err());
        assert!(Qbd::mmpp_m1(&q, &r, 2.0).is_ok());
    }

    #[test]
    fn bursty_arrivals_beat_poisson_arrivals() {
        // ON/OFF arrivals at the same mean rate produce a longer queue
        // than Poisson — the mirror image of the cluster result.
        let q = Matrix::from_rows(&[&[-0.05, 0.05], &[0.45, -0.45]]);
        // ON fraction = 0.9; peak 1.0 => mean arrival rate 0.9... choose
        // peak so mean is 0.6 with mu = 1.
        let peak = 0.6 / 0.9;
        let rates = Vector::from(vec![peak, 0.0]);
        let bursty = Qbd::mmpp_m1(&q, &rates, 1.0).unwrap().solve().unwrap();
        let rho: f64 = 0.6;
        let poisson_mean = rho / (1.0 - rho);
        assert!(
            bursty.mean_queue_length() > poisson_mean,
            "{} vs {poisson_mean}",
            bursty.mean_queue_length()
        );
    }

    #[test]
    fn duality_of_tail_behaviour() {
        // The MMPP/M/1 with the cluster's service process as its arrival
        // process at matched utilization shows the same caudal decay as
        // the M/MMPP/1: both are governed by the same (A0, A1, A2) up to
        // transposition-like role swap; check both tails are heavy.
        let q = Matrix::from_rows(&[&[-0.0111, 0.0111], &[0.1, -0.1]]);
        let svc_rates = Vector::from(vec![2.0, 0.0]);
        let cluster = Qbd::m_mmpp1(1.0, &q, &svc_rates).unwrap().solve().unwrap();
        // Mirror: arrivals bursty with the same modulator, exponential
        // server at the same utilization: mean arrival = 1.8, pick mu so
        // rho = 1.0/1.8... use mu = 3.24 => rho ~ 0.5556 same as cluster.
        let arr_rates = Vector::from(vec![2.0, 0.0]);
        let mirror = Qbd::mmpp_m1(&q, &arr_rates, 3.24).unwrap().solve().unwrap();
        let c_decay = cluster.decay_rate().unwrap();
        let m_decay = mirror.decay_rate().unwrap();
        assert!(c_decay > 0.5 && c_decay < 1.0);
        assert!(m_decay > 0.5 && m_decay < 1.0);
    }

    #[test]
    fn mm1_r_is_rho() {
        let qbd = mm1(0.5, 1.0);
        let g = qbd.g_matrix(SolveOptions::default()).unwrap();
        // Scalar G for a recurrent chain is 1.
        assert!((g[(0, 0)] - 1.0).abs() < 1e-12);
        let r = qbd.r_from_g(&g).unwrap();
        assert!((r[(0, 0)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mm1_solution_matches_closed_form() {
        for &rho in &[0.1, 0.5, 0.9, 0.99] {
            let sol = mm1(rho, 1.0).solve().unwrap();
            let expect = rho / (1.0 - rho);
            assert!(
                (sol.mean_queue_length() - expect).abs() < 1e-8 * expect.max(1.0),
                "rho={rho}: {} vs {expect}",
                sol.mean_queue_length()
            );
            // pmf(0) = 1 − ρ.
            assert!((sol.level_probability(0) - (1.0 - rho)).abs() < 1e-10);
            // Pr(Q > k) = ρ^{k+1}.
            for k in [0usize, 1, 5, 20] {
                let t = sol.tail_probability(k);
                assert!(
                    (t - rho.powi(k as i32 + 1)).abs() < 1e-10,
                    "rho={rho} k={k}: {t}"
                );
            }
        }
    }

    #[test]
    fn unstable_detected() {
        let qbd = mm1(2.0, 1.0);
        assert!(!qbd.is_stable().unwrap());
        assert!(matches!(qbd.solve(), Err(QbdError::Unstable { .. })));
    }

    #[test]
    fn drift_matches_rates() {
        let qbd = mmpp2(1.0);
        let (up, down) = qbd.drift().unwrap();
        assert!((up - 1.0).abs() < 1e-12);
        // φ = (5/6, 1/6); mean service = 5/6·2 + 1/6·0.2 = 1.7.
        assert!((down - 1.7).abs() < 1e-12);
        assert!(qbd.is_stable().unwrap());
    }

    #[test]
    fn g_is_stochastic_for_stable_chain() {
        let qbd = mmpp2(1.0);
        let g = qbd.g_matrix(SolveOptions::default()).unwrap();
        for i in 0..2 {
            let s: f64 = g.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-10, "row {i} sums to {s}");
            for j in 0..2 {
                assert!(g[(i, j)] >= -1e-12);
            }
        }
    }

    #[test]
    fn g_solves_quadratic_equation() {
        let qbd = mmpp2(1.2);
        let g = qbd.g_matrix(SolveOptions::default()).unwrap();
        let resid = qbd.a2() + &(qbd.a1() * &g) + &(qbd.a0() * &(&g * &g));
        assert!(resid.max_abs() < 1e-10, "residual {}", resid.max_abs());
    }

    #[test]
    fn r_solves_quadratic_equation() {
        let qbd = mmpp2(0.8);
        let sol = qbd.solve().unwrap();
        let r = sol.r_matrix();
        // A0 + R·A1 + R²·A2 = 0.
        let resid = qbd.a0() + &(r * qbd.a1()) + &(&(r * r) * qbd.a2());
        assert!(resid.max_abs() < 1e-10, "residual {}", resid.max_abs());
    }

    #[test]
    fn every_strategy_agrees_with_log_reduction_plain_and_hardened() {
        for lambda in [0.4, 1.0, 1.5] {
            let qbd = mmpp2(lambda);
            let reference = qbd.g_matrix(SolveOptions::default()).unwrap();
            for strategy in STRATEGIES {
                let g_with = |hardening| {
                    let opts = to(1e-13, 100_000).with_hardening(hardening);
                    qbd.g_matrix_by(strategy, opts).unwrap().0
                };
                let (plain, hardened) = (g_with(Hardening::default()), g_with(Hardening::full()));
                let diff = reference.max_abs_diff(&plain);
                assert!(diff < 1e-9, "{strategy}, lambda = {lambda}: {diff}");
                let diff = plain.max_abs_diff(&hardened);
                assert!(
                    diff < 1e-10,
                    "hardened {strategy}, lambda = {lambda}: {diff}"
                );
            }
        }
    }

    #[test]
    fn linear_strategies_report_an_exhausted_budget() {
        let qbd = mmpp2(1.0);
        for strategy in [GStrategy::NeutsSubstitution, GStrategy::FunctionalIteration] {
            let result = qbd.g_matrix_by(strategy, to(1e-16, 2));
            assert!(
                matches!(result, Err(QbdError::NoConvergence { .. })),
                "{strategy}"
            );
        }
    }

    #[test]
    fn interrupts_abort_every_strategy() {
        let qbd = mmpp2(1.0);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let token = CancelToken::new();
        token.cancel();
        for strategy in STRATEGIES {
            let late = qbd.g_matrix_by(strategy, to(1e-12, 100).with_deadline(past));
            assert!(matches!(late, Err(QbdError::DeadlineExceeded { .. })));
            let cancelled = qbd.g_matrix_by(strategy, to(1e-12, 100).with_cancel(token.clone()));
            assert!(matches!(cancelled, Err(QbdError::Cancelled { .. })));
        }
    }

    #[test]
    fn cancel_outranks_deadline_when_both_fire() {
        let qbd = mmpp2(1.0);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let token = CancelToken::new();
        token.cancel();
        let opts = SolveOptions::default()
            .with_deadline(past)
            .with_cancel(token);
        assert!(matches!(
            qbd.solve_with_count(opts),
            Err(QbdError::Cancelled { .. })
        ));
    }

    #[test]
    fn global_balance_holds() {
        // π solves the full generator balance at levels 0..3.
        let qbd = mmpp2(1.1);
        let sol = qbd.solve().unwrap();
        let pi0 = sol.level(0);
        let pi1 = sol.level(1);
        let pi2 = sol.level(2);
        let pi3 = sol.level(3);

        // Level 0: π0·B00 + π1·B10 = 0 (B10 = A2 here).
        let r0 = &qbd.b00.vec_mul(&pi0) + &qbd.b10.vec_mul(&pi1);
        assert!(r0.norm_inf() < 1e-12, "level 0 residual {}", r0.norm_inf());
        // Level 1: π0·B01 + π1·A1 + π2·A2 = 0.
        let r1 =
            &(&qbd.b01.vec_mul(&pi0) + &qbd.a1().vec_mul(&pi1)) + &qbd.a2().vec_mul(&pi2);
        assert!(r1.norm_inf() < 1e-12, "level 1 residual {}", r1.norm_inf());
        // Level 2: π1·A0 + π2·A1 + π3·A2 = 0.
        let r2 =
            &(&qbd.a0().vec_mul(&pi1) + &qbd.a1().vec_mul(&pi2)) + &qbd.a2().vec_mul(&pi3);
        assert!(r2.norm_inf() < 1e-12, "level 2 residual {}", r2.norm_inf());
    }

    #[test]
    fn marginal_phase_distribution_matches_phi() {
        let qbd = mmpp2(1.0);
        let sol = qbd.solve().unwrap();
        let phi = qbd.phase_steady_state().unwrap();
        let marginal = sol.marginal_phase();
        assert!(marginal.max_abs_diff(&phi) < 1e-10);
    }

    #[test]
    fn shift_on_unstable_chain_is_a_typed_error() {
        let qbd = mm1(2.0, 1.0);
        for strategy in STRATEGIES {
            assert!(matches!(
                qbd.g_matrix_by(strategy, SolveOptions::hardened()),
                Err(QbdError::Unstable { .. })
            ));
        }
    }

    #[test]
    fn hardened_solve_matches_closed_form() {
        // Full pipeline with hardening on: the M/M/1 closed form must
        // survive the shift → R → boundary chain.
        let rho: f64 = 0.9;
        let sol = mm1(rho, 1.0)
            .solve_with_count(SolveOptions::hardened())
            .unwrap()
            .0;
        let expect = rho / (1.0 - rho);
        assert!((sol.mean_queue_length() - expect).abs() < 1e-8 * expect);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let qbd = mmpp2(1.3);
        let sol = qbd.solve().unwrap();
        let total: f64 = (0..500).map(|n| sol.level_probability(n)).sum();
        assert!((total + sol.tail_probability(499) - 1.0).abs() < 1e-10);
    }
}
