//! The supervised solve's first rung is the plain solve.
//!
//! Regression guard for the deep blow-up reproducer N = 2, TPT T = 16
//! (`tpt:16:1.4:0.2:10`), ρ = 0.95, where the repair rates span θ^T.
//! The plain logarithmic reduction solves it to a residual near the f64
//! floor; the supervised solve every caller uses must return that same
//! answer bit for bit, on its first attempt, at about the same cost —
//! not reject it and run the fallback ladder to exhaustion.

use std::time::Instant;

use performa_core::{ClusterModel, SupervisorOptions};
use performa_dist::{Exponential, TruncatedPowerTail};
use performa_qbd::{QbdSolution, SolveOptions};

fn bits(sol: &QbdSolution) -> Vec<u64> {
    [
        sol.g_matrix().as_slice(),
        sol.pi0().as_slice(),
        sol.pi1().as_slice(),
    ]
    .concat()
    .into_iter()
    .map(f64::to_bits)
    .collect()
}

#[test]
fn n2_t16_at_rho_095_is_the_plain_solve_bit_for_bit() {
    let model = ClusterModel::builder()
        .servers(2)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(16, 1.4, 0.2, 10.0).unwrap())
        .utilization(0.95)
        .build()
        .unwrap();

    let started = Instant::now();
    let (plain, plain_iters) = model
        .to_qbd()
        .unwrap()
        .solve_with_count(SolveOptions::default())
        .unwrap();
    let plain_wall = started.elapsed();

    // `ClusterModel::solve` is this call with the report dropped.
    let started = Instant::now();
    let (sol, report) = model
        .solve_supervised(SupervisorOptions::default())
        .unwrap();
    let supervised_wall = started.elapsed();

    assert_eq!(
        bits(sol.qbd()),
        bits(&plain),
        "supervised G/π differ from the plain solve"
    );
    assert_eq!(report.attempts.len(), 1, "report: {}", report.summary());
    assert_eq!(report.iterations, plain_iters);
    assert!(!report.degraded, "report: {}", report.summary());
    // The supervisor adds the residual gate and the drift check — a few
    // products against the tens of products per logred iteration.
    assert!(
        supervised_wall <= 2 * plain_wall,
        "supervised {supervised_wall:?} vs plain {plain_wall:?}"
    );
}
