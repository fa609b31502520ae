//! Deeper cross-validation between independent computation routes:
//! analytic moments vs simulated histograms, IDC overdispersion, and
//! sensitivity-vs-sweep consistency.

use performa::core::{sensitivity, ClusterModel};
use performa::dist::{Exponential, TruncatedPowerTail};
use performa::markov::MarkovError;
use performa::sim::{ExactModelConfig, ExactModelSim, StopCriterion};

fn model(rho: f64) -> ClusterModel {
    ClusterModel::builder()
        .servers(2)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(3, 1.4, 0.5, 10.0).unwrap())
        .utilization(rho)
        .build()
        .unwrap()
}

#[test]
fn analytic_variance_matches_simulated_histogram() {
    let m = model(0.5);
    let sol = m.solve().unwrap();
    let sim = ExactModelSim::new(ExactModelConfig {
        servers: 2,
        nu_p: 2.0,
        delta: 0.2,
        up: m.up().clone(),
        down: m.down().clone(),
        lambda: m.arrival_rate(),
        stop: StopCriterion::Cycles(60_000),
        warmup_time: 2_000.0,
    })
    .unwrap();

    let mut mean_acc = 0.0;
    let mut second_acc = 0.0;
    let runs = 4;
    for seed in 0..runs {
        let r = sim.run(seed);
        let d = &r.queue_length_distribution;
        mean_acc += d.iter().enumerate().map(|(q, p)| q as f64 * p).sum::<f64>();
        second_acc += d
            .iter()
            .enumerate()
            .map(|(q, p)| (q * q) as f64 * p)
            .sum::<f64>();
    }
    let sim_mean = mean_acc / runs as f64;
    let sim_second = second_acc / runs as f64;
    let sim_var = sim_second - sim_mean * sim_mean;

    assert!(
        (sim_mean / sol.mean_queue_length() - 1.0).abs() < 0.1,
        "mean: sim {sim_mean} vs analytic {}",
        sol.mean_queue_length()
    );
    assert!(
        (sim_var / sol.queue_length_variance() - 1.0).abs() < 0.3,
        "variance: sim {sim_var} vs analytic {}",
        sol.queue_length_variance()
    );
}

#[test]
fn service_process_is_overdispersed() {
    // Any genuinely modulated MMPP is a Cox process: IDC(∞) ≥ 1, and the
    // heavy-repair cluster is far above 1.
    let light = model(0.5); // T = 3 tame tail
    let idc = light.service_process().unwrap().asymptotic_idc().unwrap();
    assert!(idc >= 1.0, "IDC {idc}");

    let heavy = ClusterModel::builder()
        .servers(2)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(10, 1.4, 0.2, 10.0).unwrap())
        .utilization(0.5)
        .build()
        .unwrap();
    let idc_heavy = heavy.service_process().unwrap().asymptotic_idc().unwrap();
    assert!(idc_heavy > 5.0 * idc, "heavy {idc_heavy} vs light {idc}");
}

#[test]
fn service_idc_refuses_a_lost_result() {
    // At TPT T=32 the repair rates span θ³² and the IDC solve loses every
    // digit: it used to return about −2.6e15, which no Cox process can
    // have. The result must be a typed error instead; T=16 stays a
    // (large) finite IDC ≥ 1.
    let tpt = |t: u32| {
        ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .degradation(0.2)
            .up(Exponential::with_mean(90.0).unwrap())
            .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
            .utilization(0.7)
            .build()
            .unwrap()
    };
    let idc16 = tpt(16).service_process().unwrap().asymptotic_idc().unwrap();
    assert!(idc16.is_finite() && idc16 > 1.0, "T=16 IDC {idc16}");
    match tpt(32).service_process().unwrap().asymptotic_idc() {
        Err(MarkovError::Inaccurate { value, .. }) => {
            assert!(
                !value.is_finite() || value < 1.0,
                "rejected a valid IDC {value}"
            )
        }
        other => panic!("T=32 IDC must be refused, got {other:?}"),
    }
}

#[test]
fn sensitivity_matches_finite_sweep() {
    // d/dλ from the sensitivity module must agree with a coarse manual
    // secant through two full solves.
    let m = model(0.5);
    let s = sensitivity::sensitivities(&m).unwrap();
    let l = m.arrival_rate();
    let h = 0.01 * l;
    let up = m
        .with_arrival_rate(l + h)
        .unwrap()
        .solve()
        .unwrap()
        .mean_queue_length();
    let down = m
        .with_arrival_rate(l - h)
        .unwrap()
        .solve()
        .unwrap()
        .mean_queue_length();
    let secant = (up - down) / (2.0 * h);
    assert!(
        (s.wrt_arrival_rate / secant - 1.0).abs() < 0.02,
        "module {} vs secant {secant}",
        s.wrt_arrival_rate
    );
}

#[test]
fn delay_metric_consistent_with_tail_curve() {
    // Pr(S > d) = Pr(Q > floor(d·ν̄)) exactly, by definition of the
    // approximation; verify the plumbing end to end.
    let sol = model(0.6).solve().unwrap();
    let nu_bar = sol.model().capacity();
    for d in [0.5, 2.0, 10.0] {
        let k = (d * nu_bar).floor() as usize;
        assert!(
            (sol.delay_violation_probability(d) - sol.tail_probability(k)).abs() < 1e-15,
            "d={d}"
        );
    }
}

#[test]
fn decay_rate_predicts_deep_tail_ratio() {
    let sol = model(0.7).solve().unwrap();
    let eta = sol.decay_rate().unwrap();
    let t1 = sol.tail_probability(800);
    let t2 = sol.tail_probability(801);
    assert!(
        (t2 / t1 - eta).abs() < 1e-4,
        "tail ratio {} vs eta {eta}",
        t2 / t1
    );
}
