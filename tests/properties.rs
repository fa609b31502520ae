//! Property-based tests (proptest) on the workspace's core invariants:
//! linear algebra, distributions, moment fitting, Markov aggregation and
//! the QBD solver.

use proptest::prelude::*;

use performa::dist::{
    fit, DistributionFn, Erlang, Exponential, HyperExponential, Moments, TruncatedPowerTail,
};
use performa::linalg::{lu::LuWorkspace, Matrix, Vector};
use performa::markov::{aggregate, transient::Uniformized, ServerModel};
use performa::qbd::{FiniteQbd, Qbd};

// ---------- linear algebra ----------

/// Diagonally dominant random matrices are safely non-singular.
fn dominant_matrix(n: usize, seed: &[f64]) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let v = seed[(i * n + j) % seed.len()] - 0.5;
        if i == j {
            v + n as f64 + 1.0
        } else {
            v
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_roundtrip(
        n in 1usize..8,
        seed in prop::collection::vec(0.0f64..1.0, 64),
        xs in prop::collection::vec(-10.0f64..10.0, 8),
    ) {
        let a = dominant_matrix(n, &seed);
        let x_true = Vector::from(xs[..n].to_vec());
        let b = a.mul_vec(&x_true);
        let mut lu = LuWorkspace::new(n);
        lu.factor(&a).unwrap();
        let mut x = Vector::zeros(n);
        lu.solve_vec_into(&b, &mut x).unwrap();
        prop_assert!(x.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn lu_left_solve_roundtrip(
        n in 1usize..8,
        seed in prop::collection::vec(0.0f64..1.0, 64),
        xs in prop::collection::vec(-10.0f64..10.0, 8),
    ) {
        let a = dominant_matrix(n, &seed);
        let x_true = Vector::from(xs[..n].to_vec());
        let b = a.vec_mul(&x_true);
        let mut lu = LuWorkspace::new(n);
        lu.factor(&a).unwrap();
        let mut x = Vector::zeros(n);
        lu.solve_left_vec_into(&b, &mut x).unwrap();
        prop_assert!(x.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn matrix_transpose_product_identity(
        n in 1usize..6,
        m in 1usize..6,
        seed in prop::collection::vec(-1.0f64..1.0, 36),
    ) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let a = Matrix::from_fn(n, m, |i, j| seed[(i * m + j) % seed.len()]);
        let b = Matrix::from_fn(m, n, |i, j| seed[(i * n + j + 7) % seed.len()]);
        let lhs = (&a * &b).transpose();
        let rhs = b.transpose() * a.transpose();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    // ---------- distributions ----------

    #[test]
    fn exponential_cdf_properties(rate in 0.01f64..100.0, x in 0.0f64..50.0) {
        let e = Exponential::new(rate).unwrap();
        prop_assert!((e.cdf(x) + e.sf(x) - 1.0).abs() < 1e-12);
        prop_assert!(e.cdf(x) >= 0.0 && e.cdf(x) <= 1.0);
        // Memorylessness: sf(x+y) = sf(x)·sf(y).
        prop_assert!((e.sf(x + 1.0) - e.sf(x) * e.sf(1.0)).abs() < 1e-12);
    }

    #[test]
    fn hyperexp_scv_at_least_one(
        p in 0.01f64..0.99,
        r1 in 0.01f64..10.0,
        r2 in 0.01f64..10.0,
    ) {
        let h = HyperExponential::new(&[p, 1.0 - p], &[r1, r2]).unwrap();
        prop_assert!(h.scv() >= 1.0 - 1e-9);
        // Mean is the probability mix of phase means.
        let expect = p / r1 + (1.0 - p) / r2;
        prop_assert!((h.mean() - expect).abs() < 1e-12);
    }

    #[test]
    fn erlang_moments_consistent(k in 1u32..12, rate in 0.1f64..10.0) {
        let e = Erlang::new(k, rate).unwrap();
        prop_assert!((e.scv() - 1.0 / k as f64).abs() < 1e-10);
        let me = e.to_matrix_exp();
        prop_assert!((me.mean() - e.mean()).abs() < 1e-8 * e.mean());
        prop_assert!((me.raw_moment(2) - e.raw_moment(2)).abs() < 1e-7 * e.raw_moment(2));
    }

    #[test]
    fn tpt_mean_normalization_holds(
        t in 1u32..15,
        alpha in 1.05f64..3.0,
        theta in 0.05f64..0.95,
        mean in 0.1f64..100.0,
    ) {
        let d = TruncatedPowerTail::with_mean(t, alpha, theta, mean).unwrap();
        prop_assert!((d.mean() - mean).abs() < 1e-7 * mean);
        // Reliability function is monotone decreasing.
        let probes = [0.0, mean * 0.5, mean, mean * 5.0, mean * 50.0];
        for w in probes.windows(2) {
            prop_assert!(d.sf(w[1]) <= d.sf(w[0]) + 1e-12);
        }
    }

    #[test]
    fn hyp2_fit_reproduces_feasible_moments(
        m1 in 0.1f64..10.0,
        scv in 1.05f64..50.0,
        third_factor in 1.6f64..10.0,
    ) {
        let m2 = (scv + 1.0) * m1 * m1;
        // m3 must exceed 1.5·m2²/m1; scan a factor above the bound.
        let m3 = third_factor * m2 * m2 / m1;
        let h = fit::hyp2_from_moments(m1, m2, m3).unwrap();
        prop_assert!((h.raw_moment(1) / m1 - 1.0).abs() < 1e-7);
        prop_assert!((h.raw_moment(2) / m2 - 1.0).abs() < 1e-7);
        prop_assert!((h.raw_moment(3) / m3 - 1.0).abs() < 1e-6);
    }

    // ---------- Markov aggregation ----------

    #[test]
    fn lumped_aggregate_preserves_mean_rate(
        n in 1usize..5,
        up_mean in 10.0f64..200.0,
        down_mean in 1.0f64..50.0,
        nu_p in 0.5f64..4.0,
        delta in 0.0f64..1.0,
    ) {
        let up = Exponential::with_mean(up_mean).unwrap().to_matrix_exp();
        let down = Exponential::with_mean(down_mean).unwrap().to_matrix_exp();
        let s = ServerModel::new(up, down, nu_p, delta).unwrap();
        let agg = aggregate::lumped(&s, n).unwrap();
        let expect = n as f64 * s.mean_service_rate();
        prop_assert!((agg.mean_rate().unwrap() - expect).abs() < 1e-8 * expect.max(1.0));
    }

    #[test]
    fn kronecker_and_lumped_agree_on_rate_law(
        up_mean in 20.0f64..200.0,
        down_mean in 2.0f64..40.0,
        delta in 0.0f64..0.9,
    ) {
        let up = Exponential::with_mean(up_mean).unwrap().to_matrix_exp();
        let down = HyperExponential::balanced(down_mean, 5.0)
            .unwrap()
            .to_matrix_exp();
        let s = ServerModel::new(up, down, 2.0, delta).unwrap();
        let full = aggregate::kronecker(&s, 2).unwrap();
        let lump = aggregate::lumped(&s, 2).unwrap();
        prop_assert!(
            (full.mean_rate().unwrap() - lump.mean_rate().unwrap()).abs() < 1e-8
        );
    }

    // ---------- QBD solver ----------

    #[test]
    fn qbd_solution_is_a_probability_law(
        lambda_frac in 0.05f64..0.95,
        fail_rate in 0.001f64..0.5,
        repair_rate in 0.01f64..2.0,
        nu in 0.5f64..4.0,
        delta in 0.0f64..0.9,
    ) {
        // Random 2-phase MMPP service (one UP, one DOWN phase).
        let q = Matrix::from_rows(&[
            &[-fail_rate, fail_rate],
            &[repair_rate, -repair_rate],
        ]);
        let rates = Vector::from(vec![nu, delta * nu]);
        let avail = repair_rate / (fail_rate + repair_rate);
        let mean_rate = avail * nu + (1.0 - avail) * delta * nu;
        let lambda = lambda_frac * mean_rate;
        prop_assume!(lambda > 1e-6);

        let qbd = Qbd::m_mmpp1(lambda, &q, &rates).unwrap();
        let sol = qbd.solve().unwrap();

        // pmf is non-negative and sums (with tail) to 1.
        let pmf = sol.pmf(200);
        for &p in &pmf {
            prop_assert!(p >= -1e-12);
        }
        let total: f64 = pmf.iter().sum::<f64>() + sol.tail_probability(199);
        prop_assert!((total - 1.0).abs() < 1e-8);

        // Tails decrease monotonically.
        let tails = sol.tail_probabilities(50);
        for w in tails.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }

        // Mean equals the tail sum (computed independently).
        let tail_sum: f64 = sol.tail_probabilities(100_000).iter().sum();
        prop_assert!((sol.mean_queue_length() - tail_sum).abs()
            < 1e-6 * sol.mean_queue_length().max(1.0));

        // Little's law-ish sanity: utilization = 1 - P(empty phase mass
        // weighted) ... at least P(empty) in (0,1).
        let p0 = sol.level_probability(0);
        prop_assert!(p0 > 0.0 && p0 < 1.0);
    }


    // ---------- finite buffers ----------

    #[test]
    fn finite_mm1k_matches_closed_form_for_random_parameters(
        lambda in 0.05f64..3.0,
        mu in 0.05f64..3.0,
        k in 1usize..40,
    ) {
        let s = |v: f64| Matrix::from_rows(&[&[v]]);
        let q = FiniteQbd::new(
            s(lambda),
            s(-lambda - mu),
            s(mu),
            s(-lambda),
            k,
        ).unwrap();
        let sol = q.solve().unwrap();
        let rho = lambda / mu;
        // Closed form handles rho == 1 separately; skip the razor edge.
        prop_assume!((rho - 1.0).abs() > 1e-6);
        let z: f64 = (0..=k).map(|n| rho.powi(n as i32)).sum();
        for n in 0..=k {
            let expect = rho.powi(n as i32) / z;
            prop_assert!(
                (sol.level_probability(n) - expect).abs() < 1e-9,
                "n={} got={} want={}", n, sol.level_probability(n), expect
            );
        }
    }

    #[test]
    fn finite_buffer_mean_below_capacity(
        lambda in 0.1f64..4.0,
        k in 1usize..60,
    ) {
        let s = |v: f64| Matrix::from_rows(&[&[v]]);
        let q = FiniteQbd::new(s(lambda), s(-lambda - 1.0), s(1.0), s(-lambda), k).unwrap();
        let sol = q.solve().unwrap();
        let mean = sol.mean_queue_length();
        prop_assert!(mean >= 0.0 && mean <= k as f64 + 1e-12);
        let block = sol.blocking_probability();
        prop_assert!((0.0..=1.0).contains(&block));
    }

    // ---------- transient analysis ----------

    #[test]
    fn transient_distribution_is_stochastic_and_converges(
        a in 0.01f64..2.0,
        b in 0.01f64..2.0,
        t in 0.01f64..100.0,
    ) {
        let q = Matrix::from_rows(&[&[-a, a], &[b, -b]]);
        let u = Uniformized::new(&q).unwrap();
        let p0 = Vector::from(vec![1.0, 0.0]);
        let p = u.distribution(&p0, t);
        prop_assert!((p.sum() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
        // Convergent tail: at t = 1e4 / min-rate we are at stationarity.
        let horizon = 1e4 / a.min(b);
        let far = u.distribution(&p0, horizon.min(1e6));
        let pi = performa::markov::ctmc::steady_state(&q).unwrap();
        prop_assert!(far.max_abs_diff(&pi) < 1e-6);
    }

    // ---------- blow-up algebra ----------

    #[test]
    fn blowup_thresholds_partition_unit_interval(
        n in 1usize..8,
        delta in 0.0f64..0.99,
        a_num in 1u32..99,
    ) {
        use performa::core::{blowup, ClusterModel};
        let a = a_num as f64 / 100.0;
        let up_mean = 100.0 * a;
        let down_mean = 100.0 * (1.0 - a);
        let m = ClusterModel::builder()
            .servers(n)
            .peak_rate(2.0)
            .degradation(delta)
            .up(Exponential::with_mean(up_mean).unwrap())
            .down(Exponential::with_mean(down_mean).unwrap())
            .utilization(0.5)
            .build()
            .unwrap();
        let t = blowup::utilization_thresholds(&m);
        prop_assert_eq!(t.len(), n);
        // Strictly increasing, inside (0, 1].
        for w in t.windows(2) {
            prop_assert!(w[0] < w[1] + 1e-12);
        }
        prop_assert!(t[0] >= 0.0 && *t.last().unwrap() < 1.0 + 1e-12);
        // nu_0 recovers the capacity.
        prop_assert!((blowup::degraded_rate(&m, 0) - m.capacity()).abs() < 1e-9);
    }

    #[test]
    fn qbd_rejects_oversaturated_load(
        fail_rate in 0.001f64..0.5,
        repair_rate in 0.01f64..2.0,
        excess in 1.01f64..5.0,
    ) {
        let q = Matrix::from_rows(&[
            &[-fail_rate, fail_rate],
            &[repair_rate, -repair_rate],
        ]);
        let rates = Vector::from(vec![2.0, 0.0]);
        let avail = repair_rate / (fail_rate + repair_rate);
        let lambda = excess * 2.0 * avail;
        let qbd = Qbd::m_mmpp1(lambda, &q, &rates).unwrap();
        prop_assert!(qbd.solve().is_err());
    }
}
