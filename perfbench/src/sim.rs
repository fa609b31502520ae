//! The sim family: the Figure 8/9 cases, one replication batch, its
//! correctness gate and the per-layer probes of the simulator and the
//! distribution samplers.

use std::hint::black_box;
use std::sync::Mutex;

use performa_dist::{Dist, Sampler};
use performa_sim::replicate::{self, ReplicationOptions};
use performa_sim::{ClusterSim, ClusterSimConfig, FailureStrategy, StopCriterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;
use crate::workloads::{cluster, dist, Refs, Samples, TAIL_K};

/// A batch's time fraction with an empty system must lie within this
/// relative tolerance of its long-run reference. Its mean QL and
/// `Pr(Q ≥ 500)` are only range-checked: with heavy-tailed repairs their
/// 4-replication estimates vary by over 100× between seeds (see
/// METHODOLOGY.md).
pub const SIM_P_EMPTY_TOL: f64 = 0.25;
/// In every replication, tasks completed or discarded must match the
/// arrivals `λ · sim_time` to this relative tolerance; the remainder is
/// the queue left at the end.
pub const SIM_FLOW_TOL: f64 = 0.1;
/// Replication threads, replications and UP/DOWN cycles of a sim batch.
pub const REP_THREADS: usize = 2;
pub const REPS: u64 = 4;
pub const CYCLES: u64 = 20_000;

pub struct SimCase {
    pub key: String,
    pub sim: ClusterSim,
    lambda: f64,
    repair: Dist,
    task: Dist,
    ref_p_empty: f64,
}

/// The Figure 8/9 cases at ρ = 0.6: N = 2, crash faults, TPT T = 10
/// repair, three strategies × {exponential, HYP-2 scv 21.2} tasks.
pub fn sim_configs() -> Result<Vec<(String, ClusterSimConfig)>, String> {
    let m = cluster(2, 0.0, "tpt:10:1.4:0.2:10", 0.6)?;
    let mut out = Vec::new();
    for (task_name, task_spec) in [("exp", "exp:0.5"), ("hyp2", "hyp2:0.5:21.2")] {
        for strategy in [
            FailureStrategy::Discard,
            FailureStrategy::RestartBack,
            FailureStrategy::ResumeBack,
        ] {
            let cfg = ClusterSimConfig {
                servers: m.servers(),
                nu_p: m.peak_rate(),
                delta: m.degradation(),
                up: m.up().clone(),
                down: m.down().clone(),
                task: dist(task_spec)?,
                lambda: m.arrival_rate(),
                strategy,
                stop: StopCriterion::Cycles(CYCLES),
                warmup_time: 1_000.0,
                resume_penalty: 0.0,
                detection_delay: None,
            };
            out.push((format!("sim {} {task_name}", strategy.label()), cfg));
        }
    }
    Ok(out)
}

pub fn sim_cases(refs: &Refs) -> Result<Vec<SimCase>, String> {
    sim_configs()?
        .into_iter()
        .map(|(key, cfg)| {
            Ok(SimCase {
                ref_p_empty: refs.get(&format!("{key} p_empty"))?,
                lambda: cfg.lambda,
                repair: cfg.down.clone(),
                task: cfg.task.clone(),
                sim: ClusterSim::new(cfg).map_err(|e| format!("{key}: {e}"))?,
                key,
            })
        })
        .collect()
}

/// What one replication reports.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub mean_ql: f64,
    /// Time fraction with no task in the system.
    pub p_empty: f64,
    pub tail: f64,
    pub completed: u64,
    pub discarded: u64,
    pub cycles: u64,
    pub sim_time: f64,
}

pub struct BatchOut {
    pub mean: f64,
    pub reps: Vec<Rep>,
    pub degraded: Option<String>,
}

impl BatchOut {
    pub fn tasks(&self) -> u64 {
        self.reps.iter().map(|r| r.completed).sum()
    }

    /// Mean over the replications of one of their fields.
    pub fn mean_of(&self, field: impl Fn(&Rep) -> f64) -> f64 {
        self.reps.iter().map(field).sum::<f64>() / self.reps.len() as f64
    }
}

/// One `sim_replicate` operation: a robust batch of `reps` replications
/// at `REP_THREADS` threads, seeded from `base_seed`.
pub fn sim_batch(
    sim: &ClusterSim,
    reps: u64,
    base_seed: u64,
    tr: &mut Tracer,
) -> Result<BatchOut, String> {
    let done = Mutex::new(Vec::new());
    let opts = ReplicationOptions::with_threads(REP_THREADS);
    let res = tr.span("sim.batch", |_| {
        replicate::replicated_ci_robust(reps, base_seed, &opts, |seed| {
            let r = sim.run(seed);
            done.lock()
                .expect("replication lock never poisoned")
                .push(Rep {
                    mean_ql: r.mean_queue_length,
                    p_empty: r
                        .queue_length_distribution
                        .first()
                        .copied()
                        .unwrap_or(f64::NAN),
                    tail: r.at_least_probability(TAIL_K),
                    completed: r.completed_tasks,
                    discarded: r.discarded_tasks,
                    cycles: r.cycles,
                    sim_time: r.sim_time,
                });
            r.mean_queue_length
        })
    });
    let (ci, outcome) = res.map_err(|e| e.to_string())?;
    Ok(BatchOut {
        mean: ci.mean,
        reps: done.into_inner().expect("replication lock never poisoned"),
        degraded: outcome.degraded().then(|| outcome.summary()),
    })
}

pub fn check_batch(case: &SimCase, out: &BatchOut) -> Result<(), String> {
    let mut errors = Vec::new();
    if let Some(why) = &out.degraded {
        errors.push(format!("degraded ({why})"));
    }
    if !(out.mean.is_finite() && out.mean >= 0.0) {
        errors.push(format!("mean QL {}", out.mean));
    }
    let p_empty = out.mean_of(|r| r.p_empty);
    let within = (p_empty - case.ref_p_empty).abs() <= SIM_P_EMPTY_TOL * case.ref_p_empty;
    if !within {
        errors.push(format!(
            "P(empty) {p_empty:.4} vs reference {:.4} (tolerance {SIM_P_EMPTY_TOL})",
            case.ref_p_empty
        ));
    }
    for r in &out.reps {
        let arrivals = case.lambda * r.sim_time;
        let flow = (r.completed + r.discarded) as f64;
        if !(r.mean_ql.is_finite() && r.mean_ql >= 0.0 && (0.0..=1.0).contains(&r.tail)) {
            errors.push(format!(
                "replication mean QL {}, Pr(Q>=500) {}",
                r.mean_ql, r.tail
            ));
        }
        let balanced = (flow - arrivals).abs() <= SIM_FLOW_TOL * arrivals;
        if !balanced {
            errors.push(format!("{flow} tasks left against {arrivals:.0} arrivals"));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("{}: {}", case.key, errors.join("; ")))
    }
}

/// The per-layer probe of the simulator: one replication on one thread
/// and the sampling cost of the case's repair and task distributions.
/// `batch_tasks_per_s` is the batch throughput measured alongside.
pub fn sim_layers(
    case: &SimCase,
    seed: u64,
    batch_tasks_per_s: f64,
    tr: &mut Tracer,
    s: &mut Samples,
) {
    const DRAWS: u32 = 200_000;
    let (r, run_ms) = tr.timed("sim.run", |_| case.sim.run(seed));
    let tasks_per_s = r.completed_tasks as f64 / (run_ms / 1e3);
    s.push("sim.run_ms", run_ms);
    s.push("sim.tasks_per_s_1t", tasks_per_s);
    s.push(
        "sim.replicate_eff",
        batch_tasks_per_s / (REP_THREADS as f64 * tasks_per_s),
    );
    s.push("sim.cycles", r.cycles as f64);
    s.push("sim.completed_tasks", r.completed_tasks as f64);
    let mut rng = StdRng::seed_from_u64(seed);
    let (acc, sample_ms) = tr.timed("dist.sample", |_| {
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += case.repair.sample(&mut rng) + case.task.sample(&mut rng);
        }
        acc
    });
    black_box(acc);
    s.push("dist.sample_ns", sample_ms * 1e6 / f64::from(2 * DRAWS));
}
