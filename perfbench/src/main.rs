//! `perfbench`: the end-to-end and per-layer benchmark of performa.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--refs perfbench/refs.tsv] [--trace-out <path>]
//! perfbench --gen-refs [--results results]
//! ```
//!
//! An untraced run (`--trace 0`) measures the workload's operations in a
//! closed loop for `--seconds` and prints the end-to-end metrics. A
//! traced run (`--trace 1`) alternates untraced and traced operations,
//! probes each layer, and prints the per-layer metrics. Both print, as
//! their last stdout line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/METHODOLOGY.md`.

mod refs;
mod sim;
mod solve;
mod sweep;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use performa_linalg::threading;

use sim::*;
use solve::*;
use sweep::*;
use trace::Tracer;
use workloads::*;

/// Set-ups built per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    refs: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        refs: get("--refs").map_or_else(|_| PathBuf::from("perfbench/refs.tsv"), PathBuf::from),
        trace_out: get("--trace-out").ok().map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    // Serial kernels, as the CLI runs them with PERFORMA_THREADS unset.
    threading::set_threads(1);
    let result = if argv.iter().any(|a| a == "--gen-refs") {
        let results = argv
            .iter()
            .position(|a| a == "--results")
            .and_then(|i| argv.get(i + 1))
            .map(PathBuf::from);
        refs::generate(results.as_deref())
    } else {
        parse_args(&argv).and_then(|a| run(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

enum Setup {
    Solve(Vec<SolveCase>),
    Sweep(SweepSet),
    Sim(Vec<SimCase>),
}

impl Setup {
    /// Loads the references and builds every case of `w`.
    fn build(w: Workload, refs: &std::path::Path) -> Result<Setup, String> {
        let refs = Refs::load(refs)?;
        Ok(match w.family() {
            Family::Solve => Setup::Solve(solve_cases(w, &refs)?),
            Family::Sweep => Setup::Sweep(sweep_set(&refs)?),
            Family::Sim => Setup::Sim(sim_cases(&refs)?),
        })
    }

    /// Operations per round: each case once (a sweep pass is one case).
    fn cases(&self) -> usize {
        match self {
            Setup::Solve(c) => c.len(),
            Setup::Sweep(_) => 1,
            Setup::Sim(c) => c.len(),
        }
    }
}

/// Everything one run accumulates.
struct Run {
    rng: Rng,
    tr: Tracer,
    samples: Samples,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    units: f64,
    counters: BTreeMap<&'static str, u64>,
}

impl Run {
    fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Runs case `i` of `setup` once and returns its wall time (s).
    /// With `probe`, the operation is traced and its layers probed.
    fn op(&mut self, setup: &Setup, i: usize, probe: bool) -> f64 {
        self.tr.set_enabled(probe);
        self.tr.begin_op();
        self.attempted += 1;
        let mut secs = f64::NAN;
        if let Err(e) = self.try_op(setup, i, probe, &mut secs) {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
        secs
    }

    fn try_op(
        &mut self,
        setup: &Setup,
        i: usize,
        probe: bool,
        secs: &mut f64,
    ) -> Result<(), String> {
        match setup {
            Setup::Solve(cases) => {
                let case = &cases[i];
                let started = Instant::now();
                let out = self.tr.span("op", |tr| solve_op(case, tr));
                *secs = started.elapsed().as_secs_f64();
                let out = out?;
                self.units += 1.0;
                let (attempts, iters) = ladder(&out.report);
                self.count("g_iterations", out.report.total_iterations as u64);
                self.count("ladder_attempts", attempts as u64);
                self.count("ladder_iters.logred", iters[0] as u64);
                self.count("ladder_iters.neuts", iters[1] as u64);
                self.count("ladder_iters.functional", iters[2] as u64);
                self.count("degraded", u64::from(out.report.degraded));
                if probe {
                    self.samples.push("solve.op_ms", *secs * 1e3);
                    let (tr, samples) = (&mut self.tr, &mut self.samples);
                    tr.span("probe", |tr| solve_layers(case, &out, tr, samples))?;
                }
                check_solve(case, &out)
            }
            Setup::Sweep(set) => {
                let order = self.rng.permutation(set.curves.len());
                let started = Instant::now();
                let pass = self.tr.span("op", |tr| sweep_pass(set, None, &order, tr));
                *secs = started.elapsed().as_secs_f64();
                self.units += set.points as f64;
                let st = check_pass(set, &pass)?;
                self.count("sweep_points", set.points as u64);
                self.count("sweep_iterations", st.iterations);
                self.count("sweep_retries", st.retries);
                self.count("modulator_hits", st.cache_hits);
                self.count("modulator_misses", st.cache_misses);
                if probe {
                    let pts_per_s = set.points as f64 / *secs;
                    let (tr, samples) = (&mut self.tr, &mut self.samples);
                    tr.span("probe", |tr| {
                        sweep_layers(set, &order, pts_per_s, tr, samples)
                    })?;
                }
                Ok(())
            }
            Setup::Sim(cases) => {
                let case = &cases[i];
                let base_seed = self.rng.next_u64();
                let started = Instant::now();
                let out = self
                    .tr
                    .span("op", |tr| sim_batch(&case.sim, REPS, base_seed, tr))
                    .map_err(|e| format!("{}: {e}", case.key));
                *secs = started.elapsed().as_secs_f64();
                let out = out?;
                self.units += out.tasks() as f64;
                self.count("sim_replications", out.reps.len() as u64);
                self.count("sim_cycles", out.reps.iter().map(|r| r.cycles).sum());
                self.count("sim_tasks", out.tasks());
                if probe {
                    let seed = self.rng.next_u64();
                    let tasks_per_s = out.tasks() as f64 / *secs;
                    let (tr, samples) = (&mut self.tr, &mut self.samples);
                    tr.span("probe", |tr| {
                        sim_layers(case, seed, tasks_per_s, tr, samples)
                    });
                }
                check_batch(case, &out)
            }
        }
    }
}

/// The workload whose inputs define a family's per-layer metrics when
/// another workload is traced.
fn home_of(f: Family) -> Workload {
    match f {
        Family::Solve => Workload::PaperPoint,
        Family::Sweep => Workload::FigSweep,
        Family::Sim => Workload::SimReplicate,
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        setup = Some(Setup::build(w, &args.refs)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("SETUP_REPS > 0");

    let mut run = Run {
        rng: Rng::new(args.seed),
        tr: Tracer::new(false),
        samples: Samples::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        units: 0.0,
        counters: BTreeMap::new(),
    };
    let (mut op_s, mut traced_op_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || started.elapsed().as_secs_f64() < args.seconds {
        for i in run.rng.permutation(setup.cases()) {
            op_s.push(run.op(&setup, i, false));
            if args.trace {
                traced_op_s.push(run.op(&setup, i, true));
            }
        }
        rounds += 1;
    }
    let wall = started.elapsed().as_secs_f64();

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if args.trace {
        // Layers this workload bypasses: probe one seed-drawn case of the
        // workload that calls them, so every traced run reports every layer.
        for family in [Family::Solve, Family::Sweep, Family::Sim] {
            let other;
            let s = if family == w.family() {
                &setup
            } else {
                other = Setup::build(home_of(family), &args.refs)?;
                let i = (run.rng.next_u64() % other.cases() as u64) as usize;
                run.op(&other, i, true);
                &other
            };
            if let Setup::Solve(cases) = s {
                let case = &cases[(run.rng.next_u64() % cases.len() as u64) as usize];
                run.tr.set_enabled(true);
                run.tr.begin_op();
                par2_layer(case, &mut run.tr, &mut run.samples)?;
            }
        }
        metrics = layer_metrics(&run, &op_s, &traced_op_s);
        if let Some(path) = &args.trace_out {
            run.tr
                .write_ndjson(path)
                .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        }
    } else {
        metrics.push(("op_s_p50", median(&op_s), "s"));
        metrics.push(("units_per_s", run.units / wall, "1/s"));
        metrics.push(("setup_s", median(&setup_s), "s"));
    }

    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} was not measured"));
    }
    println!(
        "# perfbench {} seed={} trace={}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (name, value, unit) in &metrics {
        if *value != 0.0 && value.abs() < 1e-3 {
            println!("{name:<34} {value:>16.6e} {unit}");
        } else {
            println!("{name:<34} {value:>16.6} {unit}");
        }
    }
    for f in &run.failures {
        println!("# failed: {f}");
    }
    let counters: Vec<String> = run
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"rounds\":{rounds},\
         \"ops_timed\":{},\"attempted\":{},\"failed\":{},\"fail_frac\":{},\"kernel_threads\":{},\
         \"point_workers\":{POINT_WORKERS},\"replication_workers\":{REP_THREADS},\"setup_reps\":{SETUP_REPS},\
         \"peak_rss_mb\":{},\"counters\":{{{}}}}}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        op_s.len(),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted as f64,
        threading::threads(),
        peak_rss_mb()?,
        counters.join(",")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(",")
    );
    Ok(())
}

/// The per-layer metrics, in BENCHMARK.json order.
fn layer_metrics(
    run: &Run,
    op_s: &[f64],
    traced_op_s: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    const MEDIANS: &[(&str, &str)] = &[
        ("core.to_qbd_ms", "ms"),
        ("qbd.g_ms", "ms"),
        ("qbd.g_iters", "count"),
        ("qbd.r_ms", "ms"),
        ("qbd.boundary_ms", "ms"),
        ("qbd.plain_solve_ms", "ms"),
        ("qbd.supervisor_overhead_ms", "ms"),
        ("qbd.supervised_over_plain", "ratio"),
        ("core.metrics_ms", "ms"),
        ("markov.lumped_ms", "ms"),
        ("markov.idc_ms", "ms"),
        ("linalg.gemm_ms", "ms"),
        ("linalg.gemm_gflops", "GFLOP/s"),
        ("linalg.lu_factor_ms", "ms"),
        ("linalg.lu_factor_gflops", "GFLOP/s"),
        ("linalg.solve_right_ms", "ms"),
        ("linalg.solve_right_gflops", "GFLOP/s"),
        ("linalg.solve_left_ms", "ms"),
        ("linalg.solve_left_gflops", "GFLOP/s"),
        ("linalg.par2_speedup", "ratio"),
        ("core.sweep_pts_per_s_1w", "1/s"),
        ("core.sweep_scaling_eff", "ratio"),
        ("core.sweep_pool_overhead_frac", "ratio"),
        ("core.modulator_hit_ratio", "ratio"),
        ("core.sweep_retries", "count"),
        ("qbd.sweep_iters", "count"),
        ("sim.run_ms", "ms"),
        ("sim.tasks_per_s_1t", "1/s"),
        ("sim.replicate_eff", "ratio"),
        ("sim.cycles", "count"),
        ("sim.completed_tasks", "count"),
        ("dist.sample_ns", "ns"),
    ];
    const MEANS: &[(&str, &str)] = &[
        ("qbd.ladder_attempts", "count"),
        ("qbd.ladder_iters.logred", "count"),
        ("qbd.ladder_iters.neuts", "count"),
        ("qbd.ladder_iters.functional", "count"),
        ("qbd.degraded_frac", "ratio"),
    ];
    let s = &run.samples;
    let mut out: Vec<_> = MEDIANS
        .iter()
        .map(|&(name, unit)| (name, median(s.get(name)), unit))
        .collect();
    for &(name, unit) in MEANS {
        let xs = s.get(name);
        out.push((name, xs.iter().sum::<f64>() / xs.len() as f64, unit));
    }
    let residual = s
        .get("qbd.g_residual_max")
        .iter()
        .copied()
        .fold(f64::NAN, f64::max);
    out.push(("qbd.g_residual_max", residual, "norm"));
    // The solve components (supervisor overhead is the remainder of the
    // supervised solve) against the traced solve operation they split.
    let accounted: f64 = [
        "core.to_qbd_ms",
        "qbd.g_ms",
        "qbd.r_ms",
        "qbd.boundary_ms",
        "qbd.supervisor_overhead_ms",
        "core.metrics_ms",
        "markov.lumped_ms",
        "markov.idc_ms",
    ]
    .iter()
    .map(|n| median(s.get(n)))
    .sum();
    out.push((
        "trace.accounted_frac",
        accounted / median(s.get("solve.op_ms")),
        "ratio",
    ));
    out.push((
        "trace.overhead_frac",
        median(traced_op_s) / median(op_s) - 1.0,
        "ratio",
    ));
    out.push(("trace.spans", run.tr.len() as f64, "count"));
    out
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
