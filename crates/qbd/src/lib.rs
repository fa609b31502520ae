//! Quasi-birth-death (QBD) process solvers — the matrix-geometric engine
//! behind the paper's M/MMPP/1 queue analysis.
//!
//! A (continuous-time, level-independent) QBD is a Markov chain on states
//! `(n, j)` — *level* `n` (queue length) and *phase* `j` (modulator state) —
//! whose generator is block-tridiagonal:
//!
//! ```text
//!       ┌ B00  B01            ┐
//!       │ B10  A1   A0        │
//! Q  =  │      A2   A1   A0   │
//!       │           A2   A1  ⋱│
//!       └                ⋱   ⋱┘
//! ```
//!
//! The stationary distribution has the matrix-geometric form
//! `π_n = π₁·Rⁿ⁻¹` (Neuts; Latouche & Ramaswami), from which this crate
//! computes the paper's performability metrics: mean queue length,
//! queue-length tail probabilities `Pr(Q > k)` and the full pmf.
//!
//! * [`Qbd`] — model definition + [`Qbd::solve`], which runs the
//!   supervisor below with default options,
//! * [`SolverSupervisor`] — resilient solves: a configurable G-matrix
//!   fallback chain (logarithmic reduction → Neuts substitution →
//!   functional iteration) with NaN/Inf watchdogs, reported tolerance
//!   relaxation, condition-number surveillance and a [`SolveReport`];
//!   its first rung is the plain logarithmic reduction, bit for bit,
//! * [`QbdSolution`] — the stationary law and derived metrics,
//! * [`LevelDependentQbd`] — finitely many inhomogeneous boundary levels
//!   (used for the load-dependent cluster variant of paper Sect. 2.4),
//! * [`FiniteQbd`] — finite-buffer chains (M/MMPP/1/K) solved by block
//!   elimination,
//! * [`mm1`] — closed-form M/M/1 reference formulas (the paper's
//!   normalization baseline).
//!
//! # Example: M/M/1 as a one-phase QBD
//!
//! ```
//! use performa_linalg::Matrix;
//! use performa_qbd::Qbd;
//!
//! let lambda = 0.7;
//! let mu = 1.0;
//! let qbd = Qbd::new(
//!     Matrix::from_rows(&[&[lambda]]),            // A0 (arrivals)
//!     Matrix::from_rows(&[&[-lambda - mu]]),      // A1
//!     Matrix::from_rows(&[&[mu]]),                // A2 (services)
//!     Matrix::from_rows(&[&[-lambda]]),           // B00
//!     Matrix::from_rows(&[&[lambda]]),            // B01
//!     Matrix::from_rows(&[&[mu]]),                // B10
//! )?;
//! let sol = qbd.solve()?;
//! let rho: f64 = 0.7;
//! assert!((sol.mean_queue_length() - rho / (1.0 - rho)).abs() < 1e-9);
//! # Ok::<(), performa_qbd::QbdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod finite;
mod level_dep;
mod qbd;
mod solution;
mod supervisor;
mod workspace;

pub mod fault;
pub mod mg1;
pub mod mm1;

pub use error::QbdError;
pub use finite::{FiniteQbd, FiniteSolution};
pub use level_dep::{LevelDependentQbd, LevelDependentSolution};
pub use qbd::{Hardening, Qbd, SolveOptions};
pub use solution::QbdSolution;
pub use supervisor::{
    GStrategy, SolveReport, SolveWarning, SolverSupervisor, StageAttempt, StageBudget,
    StageFailureReason, StageOutcome, SupervisorOptions,
};

/// Result alias for fallible QBD operations.
pub type Result<T> = std::result::Result<T, QbdError>;

/// Version of the numerical solver stack, baked into every persisted
/// sweep-point record's key.
///
/// Bump this whenever a change alters the *bits* a solve produces —
/// tolerance defaults, iteration schedules, kernel blocking, summation
/// order. Stale store records (successes and failures alike) then miss
/// on lookup and are transparently re-solved, so a resumed sweep can
/// never mix outputs from two different numerical regimes.
pub const SOLVER_VERSION: u32 = 2;
