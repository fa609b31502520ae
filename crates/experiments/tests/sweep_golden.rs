//! Golden comparison: the figure binaries' sweep-engine path must be
//! byte-identical to the serial rebuild-and-solve loops it replaced.
//!
//! Each test replays a figure's grid through [`performa_core::SweepPlan`]
//! exactly as the binary does, and through the pre-engine serial loop
//! (`model.with_utilization(rho).solve()` per point), and compares the
//! metric vectors bitwise. Together with the CI artifact diffs this pins
//! the acceptance criterion that CSV outputs did not move.

use performa_core::{Axis, Scenario, SweepOptions, SweepPlan};
use performa_experiments::{base_thresholds, hyp2_cluster_with_availability, tpt_cluster};

fn assert_bitwise_eq(engine: &[f64], serial: &[f64]) {
    assert_eq!(engine.len(), serial.len());
    for (i, (e, s)) in engine.iter().zip(serial).enumerate() {
        assert_eq!(
            e.to_bits(),
            s.to_bits(),
            "point {i} differs: engine {e:e} vs serial {s:e}"
        );
    }
}

#[test]
fn fig1_grid_matches_pre_engine_serial_loop() {
    // Reduced Fig. 1 setting: same grid construction, T = 5 curve only.
    let grid = SweepPlan::grid(0.02, 0.98, 12)
        .refine_near(&base_thresholds())
        .into_values();
    let template = tpt_cluster(5, 0.5);

    let engine = Scenario::new(template.clone(), Axis::Rho(grid.clone()))
        .compile()
        .with_options(SweepOptions::default().with_threads(4))
        .run_map(|sol| sol.normalized_mean_queue_length())
        .expect_values("stable for rho < 1");

    let serial: Vec<f64> = grid
        .iter()
        .map(|&rho| {
            template
                .with_utilization(rho)
                .unwrap()
                .solve()
                .unwrap()
                .normalized_mean_queue_length()
        })
        .collect();

    assert_bitwise_eq(&engine, &serial);
}

#[test]
fn fig3_tail_metric_matches_pre_engine_serial_loop() {
    let grid = SweepPlan::grid(0.1, 0.9, 8).into_values();
    let template = tpt_cluster(9, 0.5);

    let engine = Scenario::new(template.clone(), Axis::Rho(grid.clone()))
        .compile()
        .run_map(|sol| sol.at_least_probability(500))
        .expect_values("stable for rho < 1");

    let serial: Vec<f64> = grid
        .iter()
        .map(|&rho| {
            template
                .with_utilization(rho)
                .unwrap()
                .solve()
                .unwrap()
                .at_least_probability(500)
        })
        .collect();

    assert_bitwise_eq(&engine, &serial);
}

#[test]
fn fig5_availability_builder_matches_pre_engine_serial_loop() {
    // Fig. 5 pattern: a from_builder sweep over availability; points
    // below the stability bound fail individually, exactly as the old
    // loop's per-point solve errors did.
    let grid: Vec<f64> = (4..=18).map(|i| f64::from(i) / 20.0).collect();
    let plan = SweepPlan::from_builder("availability", grid.clone(), |a| {
        Ok(hyp2_cluster_with_availability(10, 100.0, a, 1.8))
    });

    let engine = plan.run_map(|sol| sol.normalized_mean_queue_length());

    for (point, &a) in engine.points().iter().zip(&grid) {
        let serial = hyp2_cluster_with_availability(10, 100.0, a, 1.8).solve();
        match (&point.outcome, serial) {
            (Ok(e), Ok(s)) => assert_eq!(
                e.to_bits(),
                s.normalized_mean_queue_length().to_bits(),
                "A = {a}"
            ),
            (Err(_), Err(_)) => {}
            (engine_out, _) => panic!("A = {a}: engine {engine_out:?} disagrees with serial"),
        }
    }
}

/// The G, π0 and π1 bit patterns of one solution.
fn solution_bits(sol: &performa_qbd::QbdSolution) -> Vec<u64> {
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
fn supervised_engine_matches_the_plain_solve_over_the_fig_sweep_grid() {
    // The benchmark's fig_sweep grid (Figs. 1/3 at T = 1, 5, 9, 10 and
    // the Fig. 5 availability sweep): every point runs the supervisor,
    // whose first rung must reproduce the unsupervised plain solve bit
    // for bit.
    let grid = SweepPlan::grid(0.02, 0.98, 48)
        .refine_near(&base_thresholds())
        .into_values();
    let mut plans: Vec<SweepPlan> = [1, 5, 9, 10]
        .into_iter()
        .map(|t| Scenario::new(tpt_cluster(t, 0.5), Axis::Rho(grid.clone())).compile())
        .collect();
    let (t, cycle, lambda) = (10, 100.0, 1.8);
    let probe = hyp2_cluster_with_availability(t, cycle, 0.9, lambda);
    let a_min = performa_core::blowup::stability_availability_bound(&probe);
    let steps = 60;
    let availability: Vec<f64> = (0..=steps)
        .map(|i| a_min + 0.004 + (0.999 - a_min - 0.004) * f64::from(i) / f64::from(steps))
        .collect();
    plans.push(SweepPlan::from_builder(
        "availability",
        availability,
        move |a| Ok(hyp2_cluster_with_availability(t, cycle, a, lambda)),
    ));

    let mut points = 0;
    for plan in plans {
        let plan = plan.with_options(SweepOptions::default().with_threads(2));
        let result = plan.run_map(|sol| (sol.model().clone(), solution_bits(sol.qbd())));
        assert_eq!(
            result.stats().retries,
            0,
            "{}: a rung beyond the first fired",
            plan.label()
        );
        for point in result.into_points() {
            let (model, engine) = point.outcome.expect("every fig_sweep point is stable");
            let (plain, _) = model
                .to_qbd()
                .unwrap()
                .solve_with_count(performa_qbd::SolveOptions::default())
                .unwrap();
            assert_eq!(engine, solution_bits(&plain), "x = {}", point.x);
            points += 1;
        }
    }
    assert_eq!(points, 289);
}
