//! Reproduction scorecard: a fast, self-contained pass/fail check of the
//! paper's key quantitative claims (the "shape criteria" of DESIGN.md),
//! printable in a few seconds. Run this first after any change.

use performa_core::prelude::*;
use performa_core::blowup::BlowupRegion;
use performa_dist::{fit, Exponential, Moments, TruncatedPowerTail};
use performa_experiments::{hyp2_cluster, params, tpt_cluster, tpt_cluster_with};

struct Scorecard {
    passed: usize,
    failed: usize,
}

impl Scorecard {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
            println!("  [PASS] {name}: {detail}");
        } else {
            self.failed += 1;
            println!("  [FAIL] {name}: {detail}");
        }
    }
}

fn main() {
    let _obs = performa_experiments::init_obs();
    let mut s = Scorecard { passed: 0, failed: 0 };
    println!("# performa reproduction scorecard\n");

    // --- Eq. 3/4: blow-up thresholds ---
    let m = tpt_cluster(10, 0.5);
    let t = blowup::utilization_thresholds(&m);
    s.check(
        "thresholds at 21.7% / 60.9%",
        (t[0] - 0.2174).abs() < 5e-4 && (t[1] - 0.6087).abs() < 5e-4,
        format!("rho_2 = {:.4}, rho_1 = {:.4}", t[0], t[1]),
    );

    // --- Figure 1 regions ---
    let norm = |t_level: u32, rho: f64| {
        tpt_cluster(t_level, rho)
            .solve()
            .expect("stable")
            .normalized_mean_queue_length()
    };
    let insens = (norm(10, 0.15) / norm(1, 0.15) - 1.0).abs();
    s.check(
        "insensitive region (rho = 0.15)",
        insens < 0.05,
        format!("T=10 vs T=1 differ by {:.2}%", insens * 100.0),
    );
    let mid = norm(10, 0.45) / norm(1, 0.45);
    s.check(
        "intermediate region (rho = 0.45)",
        mid > 1.2 && mid < 20.0,
        format!("T=10 / T=1 = {mid:.2}"),
    );
    let deep = norm(10, 0.8) / norm(1, 0.8);
    s.check(
        "deep blow-up (rho = 0.8)",
        deep > 30.0,
        format!("T=10 / T=1 = {deep:.1}"),
    );

    // --- Figure 2 tail exponents ---
    let sol = tpt_cluster(9, 0.7).solve().expect("stable");
    let pmf = sol.queue_length_pmf_range(1_001);
    let slope = (pmf[800].ln() - pmf[80].ln()) / ((800.0f64).ln() - (80.0f64).ln());
    s.check(
        "power-law pmf slope near -beta_1 = -1.4 (rho = 0.7)",
        (-slope - 1.4).abs() < 0.4,
        format!("measured {slope:.2}"),
    );

    // --- Figure 4: HYP-2 matching ---
    let tpt = TruncatedPowerTail::with_mean(10, params::ALPHA, params::THETA, params::DOWN_MEAN)
        .expect("valid");
    let h = fit::hyp2_matching(&tpt).expect("feasible");
    let fit_err = (1..=3)
        .map(|k| (h.raw_moment(k) / tpt.raw_moment(k) - 1.0).abs())
        .fold(0.0, f64::max);
    s.check(
        "HYP-2 3-moment fit",
        fit_err < 1e-8,
        format!("max rel moment error {fit_err:.1e}"),
    );
    let h_norm = hyp2_cluster(2, params::DELTA, 10, 0.8)
        .solve()
        .expect("stable")
        .normalized_mean_queue_length();
    let t_norm = norm(10, 0.8);
    s.check(
        "HYP-2 matches TPT in the worst region",
        (h_norm / t_norm - 1.0).abs() < 0.05,
        format!("HYP-2 {h_norm:.1} vs TPT {t_norm:.1}"),
    );

    // --- Figure 5: stability bound ---
    let probe = tpt_cluster(10, 0.5).with_arrival_rate(1.8).expect("ok");
    let bound = blowup::stability_availability_bound(&probe);
    s.check(
        "Fig. 5 stability bound A > 0.3125",
        (bound - 0.3125).abs() < 1e-9,
        format!("{bound:.4}"),
    );

    // --- Figure 6: five thresholds for N = 5 ---
    let m5 = tpt_cluster_with(5, params::DELTA, 1, 0.5);
    let t5 = blowup::utilization_thresholds(&m5);
    s.check(
        "N = 5 has five ordered thresholds",
        t5.len() == 5 && t5.windows(2).all(|w| w[0] < w[1]),
        format!("{t5:.3?}"),
    );

    // --- Region classification ---
    let region = |lambda: f64| {
        blowup::region(&tpt_cluster(5, 0.5).with_arrival_rate(lambda).expect("ok"))
    };
    s.check(
        "region classification",
        region(0.5) == BlowupRegion::Insensitive
            && region(1.5) == BlowupRegion::Region(2)
            && region(3.0) == BlowupRegion::Region(1),
        "lambda = 0.5 / 1.5 / 3.0 -> Insensitive / Region(2) / Region(1)".into(),
    );

    // --- Load-dependent model bounds the plain model from above ---
    let plain = tpt_cluster(3, 0.4).solve().expect("stable").mean_queue_length();
    let ld = performa_core::LoadDependentCluster::new(tpt_cluster(3, 0.4))
        .solve()
        .expect("stable")
        .mean_queue_length();
    s.check(
        "load-independence is a lower bound",
        ld > plain && ld < plain + 2.0,
        format!("load-dep {ld:.3} vs load-indep {plain:.3}"),
    );

    // --- UP-shape insensitivity (Sect. 2.1) ---
    let erlang_up = ClusterModel::builder()
        .servers(2)
        .peak_rate(params::NU_P)
        .degradation(params::DELTA)
        .up(performa_dist::Erlang::with_mean(4, params::UP_MEAN).expect("valid"))
        .down(TruncatedPowerTail::with_mean(8, params::ALPHA, params::THETA, params::DOWN_MEAN)
            .expect("valid"))
        .utilization(0.7)
        .build()
        .expect("valid")
        .solve()
        .expect("stable")
        .mean_queue_length();
    let exp_up = ClusterModel::builder()
        .servers(2)
        .peak_rate(params::NU_P)
        .degradation(params::DELTA)
        .up(Exponential::with_mean(params::UP_MEAN).expect("valid"))
        .down(TruncatedPowerTail::with_mean(8, params::ALPHA, params::THETA, params::DOWN_MEAN)
            .expect("valid"))
        .utilization(0.7)
        .build()
        .expect("valid")
        .solve()
        .expect("stable")
        .mean_queue_length();
    s.check(
        "UP-shape is a second-order effect",
        (erlang_up / exp_up - 1.0).abs() < 0.1,
        format!("Erlang-4 UP {erlang_up:.2} vs exp UP {exp_up:.2}"),
    );

    // --- Per-figure solver cost (sweep engine cost records) ----------
    // Informational, not pass/fail: coarse verification grids through
    // the sweep engine, summarised from the per-point `PointCost`
    // records — where the reproduction spends its solves.
    {
        use performa_core::{Axis, Scenario, SweepPlan};
        println!("\n# solver cost per figure (coarse grids)\n");
        println!(
            "{:<26} {:>6} {:>10} {:>8}  strategy mix",
            "figure", "points", "time", "iters"
        );
        let figures = [
            (
                "fig1 (N=2, T=10, rho)",
                tpt_cluster(10, 0.5),
                SweepPlan::grid(0.1, 0.9, 8).into_values(),
            ),
            (
                "fig2 (N=2, T=9, rho)",
                tpt_cluster(9, 0.5),
                SweepPlan::grid(0.1, 0.7, 6).into_values(),
            ),
            (
                "fig6 (N=5, T=1, rho)",
                tpt_cluster_with(5, params::DELTA, 1, 0.5),
                SweepPlan::grid(0.1, 0.9, 6).into_values(),
            ),
        ];
        for (label, template, grid) in figures {
            let result = Scenario::new(template, Axis::Rho(grid))
                .compile()
                .run_map(|sol| sol.normalized_mean_queue_length());
            let mut mix: std::collections::BTreeMap<&'static str, usize> =
                std::collections::BTreeMap::new();
            let mut time_s = 0.0f64;
            for p in result.points() {
                *mix.entry(p.cost.strategy).or_insert(0) += 1;
                time_s += p.cost.elapsed.as_secs_f64();
            }
            let mix: Vec<String> = mix.iter().map(|(k, v)| format!("{k}:{v}")).collect();
            println!(
                "{label:<26} {:>6} {:>8.1}ms {:>8}  {}",
                result.points().len(),
                time_s * 1e3,
                result.stats().total_iterations,
                mix.join(" ")
            );
        }
    }

    println!("\n# {} passed, {} failed", s.passed, s.failed);
    if s.failed > 0 {
        std::process::exit(1);
    }
}
