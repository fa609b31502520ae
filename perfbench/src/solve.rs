//! The solve family: case lists, the operation, its correctness gate and
//! the per-layer probes of the QBD, linear-algebra and Markov layers.

use performa_core::{ClusterModel, ClusterSolution, GStrategy, SolveReport, SupervisorOptions};
use performa_linalg::gemm::gemm_into;
use performa_linalg::lu::LuWorkspace;
use performa_linalg::{threading, Matrix};
use performa_qbd::{Hardening, SolveOptions};

use crate::trace::Tracer;
use crate::workloads::{check_value, cluster, Refs, Samples, Workload, TAIL_K};

pub struct SolveCase {
    pub key: String,
    pub model: ClusterModel,
    ref_mean: f64,
    ref_tail: f64,
}

/// The case models, keyed; `(servers, TPT order, ρ)` of each case.
pub fn solve_models(w: Workload) -> Result<Vec<(String, ClusterModel)>, String> {
    let grid: &[(usize, u32, f64)] = match w {
        Workload::BlowupLadder => &[(2, 11, 0.95), (2, 12, 0.8), (2, 12, 0.85), (2, 12, 0.9)],
        _ => &[(5, 6, 0.6), (5, 6, 0.75), (5, 6, 0.9)],
    };
    grid.iter()
        .map(|&(n, t, rho)| {
            let model = cluster(n, 0.2, &format!("tpt:{t}:1.4:0.2:10"), rho)?;
            Ok((format!("solve N{n}_T{t} rho={rho}"), model))
        })
        .collect()
}

pub fn solve_cases(w: Workload, refs: &Refs) -> Result<Vec<SolveCase>, String> {
    solve_models(w)?
        .into_iter()
        .map(|(key, model)| {
            Ok(SolveCase {
                ref_mean: refs.get(&format!("{key} mean_ql"))?,
                ref_tail: refs.get(&format!("{key} tail{TAIL_K}"))?,
                key,
                model,
            })
        })
        .collect()
}

pub struct SolveOut {
    pub solution: ClusterSolution,
    pub report: SolveReport,
    /// Mean QL, normalized mean QL, P(empty), `Pr(Q ≥ 500)`, IDC.
    pub values: [f64; 5],
    /// Span durations (ms) of the supervised solve, the metric queries,
    /// the service-process build and the IDC; `NaN` when untraced.
    pub ms: [f64; 4],
}

/// One `solve` operation: every number `performa solve --tail 500`
/// prints, computed from a built model.
pub fn solve_op(case: &SolveCase, tr: &mut Tracer) -> Result<SolveOut, String> {
    let (solved, supervised_ms) = tr.timed("core.solve_supervised", |_| {
        case.model.solve_supervised(SupervisorOptions::default())
    });
    let (solution, report) = solved.map_err(|e| format!("{}: {e}", case.key))?;
    let (q, metrics_ms) = tr.timed("core.metrics", |_| {
        [
            solution.mean_queue_length(),
            solution.normalized_mean_queue_length(),
            solution.empty_probability(),
            solution.at_least_probability(TAIL_K),
        ]
    });
    let (mmpp, lumped_ms) = tr.timed("markov.lumped", |_| case.model.service_process());
    let mmpp = mmpp.map_err(|e| format!("{}: {e}", case.key))?;
    let (idc, idc_ms) = tr.timed("markov.idc", |_| mmpp.asymptotic_idc());
    let idc = idc.map_err(|e| format!("{}: IDC: {e}", case.key))?;
    Ok(SolveOut {
        solution,
        report,
        values: [q[0], q[1], q[2], q[3], idc],
        ms: [supervised_ms, metrics_ms, lumped_ms, idc_ms],
    })
}

pub fn check_solve(case: &SolveCase, out: &SolveOut) -> Result<(), String> {
    let mut errors = Vec::new();
    if out.report.degraded {
        errors.push(format!("degraded ({})", out.report.summary()));
    }
    if out.values.iter().any(|v| !v.is_finite()) {
        errors.push(format!("non-finite output {:?}", out.values));
    }
    for (what, got, want) in [
        ("mean QL", out.values[0], case.ref_mean),
        ("Pr(Q>=500)", out.values[3], case.ref_tail),
    ] {
        if let Err(e) = check_value(what, got, want) {
            errors.push(e);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("{}: {}", case.key, errors.join("; ")))
    }
}

/// Ladder attempts and iterations per strategy (logred, Neuts,
/// functional) of a supervised solve.
pub fn ladder(report: &SolveReport) -> (usize, [usize; 3]) {
    let mut iters = [0; 3];
    for a in &report.attempts {
        let slot = match a.strategy {
            GStrategy::LogarithmicReduction => 0,
            GStrategy::NeutsSubstitution => 1,
            GStrategy::FunctionalIteration => 2,
            // A strategy added later has no column here yet.
            _ => continue,
        };
        iters[slot] += a.iterations;
    }
    (report.attempts.len(), iters)
}

/// The per-layer probe of one solve operation: the same model through
/// the public entry points of each layer, one call at a time.
pub fn solve_layers(
    case: &SolveCase,
    out: &SolveOut,
    tr: &mut Tracer,
    s: &mut Samples,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("{} probe: {e}", case.key);
    let [supervised, metrics, lumped, idc] = out.ms;
    let (qbd, to_qbd) = tr.timed("core.to_qbd", |_| case.model.to_qbd());
    let qbd = qbd.map_err(|e| err(&e))?;
    let (g, g_ms) = tr.timed("qbd.g", |_| qbd.g_matrix(SolveOptions::default()));
    let g = g.map_err(|e| err(&e))?;
    let (r, r_ms) = tr.timed("qbd.r", |_| qbd.r_from_g(&g));
    r.map_err(|e| err(&e))?;
    let g_copy = g.clone();
    let (sol, from_g) = tr.timed("qbd.solve_from_g", |_| {
        qbd.solve_from_g(g_copy, Hardening::default())
    });
    sol.map_err(|e| err(&e))?;
    let (plain, plain_ms) = tr.timed("qbd.plain_solve", |_| {
        qbd.solve_with_count(SolveOptions::default())
    });
    let (_, g_iters) = plain.map_err(|e| err(&e))?;

    s.push("core.to_qbd_ms", to_qbd);
    s.push("qbd.g_ms", g_ms);
    s.push("qbd.g_iters", g_iters as f64);
    s.push("qbd.r_ms", r_ms);
    s.push("qbd.boundary_ms", from_g - r_ms);
    s.push("qbd.plain_solve_ms", plain_ms);
    s.push(
        "qbd.supervisor_overhead_ms",
        supervised - (to_qbd + g_ms + from_g),
    );
    s.push(
        "qbd.supervised_over_plain",
        supervised / (to_qbd + plain_ms),
    );
    s.push("core.metrics_ms", metrics);
    s.push("markov.lumped_ms", lumped);
    s.push("markov.idc_ms", idc);
    s.push(
        "qbd.g_residual_max",
        qbd.g_residual(out.solution.qbd().g_matrix()),
    );
    let (attempts, iters) = ladder(&out.report);
    s.push("qbd.ladder_attempts", attempts as f64);
    s.push("qbd.ladder_iters.logred", iters[0] as f64);
    s.push("qbd.ladder_iters.neuts", iters[1] as f64);
    s.push("qbd.ladder_iters.functional", iters[2] as f64);
    s.push(
        "qbd.degraded_frac",
        f64::from(u8::from(out.report.degraded)),
    );
    kernel_layers(qbd.a0(), qbd.a1(), qbd.a2(), &g, tr, s).map_err(|e| err(&e))
}

/// Times the four dense kernels of the `G`/`R` iterations on the case's
/// own `m × m` blocks. Flop counts are computed from the shapes.
fn kernel_layers(
    a0: &Matrix,
    a1: &Matrix,
    a2: &Matrix,
    g: &Matrix,
    tr: &mut Tracer,
    s: &mut Samples,
) -> Result<(), performa_linalg::LinalgError> {
    let m = g.nrows();
    let m3 = (m as f64).powi(3);
    let mut c = Matrix::zeros(m, m);
    let ((), gemm) = tr.timed("linalg.gemm", |_| gemm_into(1.0, a1, g, 0.0, &mut c));
    // U = −(A1 + A0·G): the matrix the `R` and Neuts steps factor.
    let mut u = a1.clone();
    gemm_into(1.0, a0, g, 1.0, &mut u);
    u.scale_mut(-1.0);
    let mut lu = LuWorkspace::new(m);
    let (f, factor) = tr.timed("linalg.lu_factor", |_| lu.factor(&u));
    f?;
    let (r, right) = tr.timed("linalg.solve_right", |_| lu.solve_mat_into(a2, &mut c));
    r?;
    let (l, left) = tr.timed("linalg.solve_left", |_| lu.solve_left_mat_into(a0, &mut c));
    l?;
    for (ms, gf, t, flops) in [
        ("linalg.gemm_ms", "linalg.gemm_gflops", gemm, 2.0 * m3),
        (
            "linalg.lu_factor_ms",
            "linalg.lu_factor_gflops",
            factor,
            2.0 / 3.0 * m3,
        ),
        (
            "linalg.solve_right_ms",
            "linalg.solve_right_gflops",
            right,
            2.0 * m3,
        ),
        (
            "linalg.solve_left_ms",
            "linalg.solve_left_gflops",
            left,
            2.0 * m3,
        ),
    ] {
        s.push(ms, t);
        s.push(gf, flops / (t * 1e6));
    }
    Ok(())
}

/// `G` at two kernel threads against one, checked bitwise equal.
pub fn par2_layer(case: &SolveCase, tr: &mut Tracer, s: &mut Samples) -> Result<(), String> {
    let qbd = case.model.to_qbd().map_err(|e| e.to_string())?;
    let solve_at = |threads: usize, tr: &mut Tracer| {
        threading::set_threads(threads);
        let (g, ms) = tr.timed("linalg.g_threads", |_| {
            qbd.g_matrix(SolveOptions::default())
        });
        threading::set_threads(1);
        g.map(|g| (g, ms)).map_err(|e| e.to_string())
    };
    let (g1, serial) = solve_at(1, tr)?;
    let (g2, parallel) = solve_at(2, tr)?;
    let same = g1
        .as_slice()
        .iter()
        .zip(g2.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err(format!(
            "{}: G at 2 kernel threads differs from serial",
            case.key
        ));
    }
    s.push("linalg.par2_speedup", serial / parallel);
    Ok(())
}
