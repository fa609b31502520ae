//! The sweep family: the figure curves, one pass over them, its
//! correctness gate and the per-layer probe of the sweep engine.

use std::hint::black_box;

use performa_core::{
    blowup, Axis, ClusterModel, ClusterSolution, Scenario, SweepOptions, SweepPlan, SweepResult,
};
use performa_experiments::{base_thresholds, hyp2_cluster_with_availability, tpt_cluster};

use crate::trace::Tracer;
use crate::workloads::{check_value, Refs, Samples, TAIL_K};

/// Point workers of the sweep workload.
pub const POINT_WORKERS: usize = 2;

pub struct Curve {
    pub key: String,
    plan: SweepPlan,
    /// `Pr(Q ≥ 500)` (Figure 3) rather than the normalized mean.
    pub tail: bool,
    refs: Vec<f64>,
}

impl Curve {
    pub fn run(&self, plan: &SweepPlan) -> SweepResult<f64> {
        if self.tail {
            plan.run_map(|s| s.at_least_probability(TAIL_K))
        } else {
            plan.run_map(|s| s.normalized_mean_queue_length())
        }
    }

    /// The value `run` projects from a solution.
    pub fn value(&self, sol: &ClusterSolution) -> f64 {
        if self.tail {
            sol.at_least_probability(TAIL_K)
        } else {
            sol.normalized_mean_queue_length()
        }
    }

    /// The grid coordinates and models of the curve's points.
    pub fn models(&self) -> Vec<(f64, ClusterModel)> {
        let models = self
            .plan
            .map_models(|m| Ok(m.clone()))
            .expect_values("every point has a model");
        self.plan.coordinates().into_iter().zip(models).collect()
    }

    pub fn ref_key(&self, i: usize, x: f64) -> String {
        format!("sweep {} {i} x={x}", self.key)
    }
}

pub struct SweepSet {
    pub curves: Vec<Curve>,
    pub points: usize,
}

/// The curves of one pass, as the `fig1`, `fig3` and `fig5` binaries
/// build them, with references left empty.
pub fn sweep_curves() -> Vec<Curve> {
    let opts = SweepOptions::default().with_threads(POINT_WORKERS);
    let grid = SweepPlan::grid(0.02, 0.98, 48)
        .refine_near(&base_thresholds())
        .into_values();
    let mut curves = Vec::new();
    for (fig, tail) in [("fig1", false), ("fig3", true)] {
        for t in [1, 5, 9, 10] {
            let plan = Scenario::new(tpt_cluster(t, 0.5), Axis::Rho(grid.clone()))
                .compile()
                .with_options(opts.clone());
            curves.push(Curve {
                key: format!("{fig}_T{t}"),
                plan,
                tail,
                refs: Vec::new(),
            });
        }
    }
    // Figure 5: normalized mean vs availability, HYP-2 repair matched to
    // the TPT T=10 moments, λ = 1.8, UP+DOWN cycle 100.
    let (t, cycle, lambda) = (10, 100.0, 1.8);
    let probe = hyp2_cluster_with_availability(t, cycle, 0.9, lambda);
    let a_min = blowup::stability_availability_bound(&probe);
    let steps = 60;
    let grid: Vec<f64> = (0..=steps)
        .map(|i| a_min + 0.004 + (0.999 - a_min - 0.004) * f64::from(i) / f64::from(steps))
        .collect();
    let plan = SweepPlan::from_builder("availability", grid, move |a| {
        Ok(hyp2_cluster_with_availability(t, cycle, a, lambda))
    })
    .with_options(opts);
    curves.push(Curve {
        key: "fig5_T10".into(),
        plan,
        tail: false,
        refs: Vec::new(),
    });
    curves
}

pub fn sweep_set(refs: &Refs) -> Result<SweepSet, String> {
    let mut curves = sweep_curves();
    for c in &mut curves {
        c.refs = c
            .plan
            .coordinates()
            .iter()
            .enumerate()
            .map(|(i, &x)| refs.get(&c.ref_key(i, x)))
            .collect::<Result<_, _>>()?;
    }
    let points = curves.iter().map(|c| c.plan.len()).sum();
    Ok(SweepSet { curves, points })
}

/// Counters of one pass, summed over its sweeps.
#[derive(Default, Clone, Copy)]
pub struct PassStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub retries: u64,
    pub iterations: u64,
}

/// One `fig_sweep` operation: every curve, in `order`, on the given
/// plans (the set's own, or the same plans at another worker count).
pub fn sweep_pass(
    set: &SweepSet,
    plans: Option<&[SweepPlan]>,
    order: &[usize],
    tr: &mut Tracer,
) -> Vec<(usize, SweepResult<f64>)> {
    order
        .iter()
        .map(|&i| {
            let curve = &set.curves[i];
            let plan = plans.map_or(&curve.plan, |p| &p[i]);
            (i, tr.span("core.sweep", |_| curve.run(plan)))
        })
        .collect()
}

pub fn check_pass(set: &SweepSet, pass: &[(usize, SweepResult<f64>)]) -> Result<PassStats, String> {
    let mut st = PassStats::default();
    let mut errors = Vec::new();
    for (i, res) in pass {
        let curve = &set.curves[*i];
        let s = res.stats();
        st.cache_hits += s.cache_hits;
        st.cache_misses += s.cache_misses;
        st.retries += s.retries;
        st.iterations += s.total_iterations;
        if res.points().len() != curve.refs.len() {
            errors.push(format!(
                "{}: {} points, expected {}",
                curve.key,
                res.points().len(),
                curve.refs.len()
            ));
            continue;
        }
        for (j, (p, &want)) in res.points().iter().zip(&curve.refs).enumerate() {
            let what = format!("{} point {j} (x={})", curve.key, p.x);
            let checked = match &p.outcome {
                Ok(v) => check_value(&what, *v, want),
                Err(e) => Err(format!("{what}: {e}")),
            };
            if let Err(e) = checked {
                errors.push(e);
            }
        }
    }
    if errors.is_empty() {
        Ok(st)
    } else {
        let n = errors.len();
        errors.truncate(3);
        Err(format!("{n} bad sweep point(s): {}", errors.join("; ")))
    }
}

/// The per-layer probe of the sweep: the same pass at one point worker,
/// and the same points solved one by one without the sweep engine.
/// `pts_per_s` is the two-worker throughput measured alongside.
pub fn sweep_layers(
    set: &SweepSet,
    order: &[usize],
    pts_per_s: f64,
    tr: &mut Tracer,
    s: &mut Samples,
) -> Result<(), String> {
    let one: Vec<SweepPlan> = set
        .curves
        .iter()
        .map(|c| {
            c.plan
                .clone()
                .with_options(SweepOptions::default().with_threads(1))
        })
        .collect();
    let (pass, wall_ms) = tr.timed("core.sweep_1w", |tr| sweep_pass(set, Some(&one), order, tr));
    let st = check_pass(set, &pass)?;
    let pts_1w = set.points as f64 / (wall_ms / 1e3);

    let models: Vec<_> = set.curves.iter().map(Curve::models).collect();
    let (solved, serial_ms) = tr.timed("core.solve_serial", |_| {
        for (curve, models) in set.curves.iter().zip(&models) {
            for (_, m) in models {
                let sol = m
                    .solve()
                    .map_err(|e| format!("{} serial: {e}", curve.key))?;
                black_box(curve.value(&sol));
            }
        }
        Ok::<(), String>(())
    });
    solved?;

    s.push("core.sweep_pts_per_s_1w", pts_1w);
    s.push(
        "core.sweep_scaling_eff",
        pts_per_s / (POINT_WORKERS as f64 * pts_1w),
    );
    s.push("core.sweep_pool_overhead_frac", 1.0 - serial_ms / wall_ms);
    s.push(
        "core.modulator_hit_ratio",
        st.cache_hits as f64 / (st.cache_hits + st.cache_misses) as f64,
    );
    s.push("core.sweep_retries", st.retries as f64);
    s.push("qbd.sweep_iters", st.iterations as f64);
    Ok(())
}
