//! Property tests for parallel kernel determinism.
//!
//! The parallel GEMM macro-kernel and the multi-right-hand-side LU
//! solves must be **bitwise identical** to their serial schedules at any
//! worker count: every output region is owned by exactly one thread and
//! computed with the same per-element FMA order. These tests drive the
//! explicit `*_threaded` entry points at 1, 2 and 4 workers over
//! randomized shapes that straddle the blocking boundaries — `m` not a
//! multiple of the `MC` row panel, ragged micro-tiles — and, for the
//! blocked LU, sizes at or above the `3·NB` single-block limit, where
//! the trailing updates and off-diagonal solve blocks run on the GEMM
//! core.
//!
//! The blocked factor has no explicit-count entry point: its trailing
//! updates follow the process-wide setting. The one test that exercises
//! it sets the thread count and lowers the flop gate around its factor
//! calls only, then restores both. No other test here reads the
//! process-wide setting, and it never changes a result bit anyway.

use proptest::prelude::*;

use performa_linalg::gemm::{gemm_into_threaded, MC, MR};
use performa_linalg::lu::{LuWorkspace, NB};
use performa_linalg::threading::{set_par_min_flops, set_threads, DEFAULT_PAR_MIN_FLOPS};
use performa_linalg::Matrix;

/// Factors `a` into `ws` with `workers` kernel threads and every
/// trailing update above the flop gate, then restores the process-wide
/// defaults (serial, default gate).
fn factor_at(ws: &mut LuWorkspace, a: &Matrix, workers: usize) {
    set_threads(workers);
    set_par_min_flops(0);
    let factored = ws.factor(a);
    set_threads(1);
    set_par_min_flops(DEFAULT_PAR_MIN_FLOPS);
    factored.expect("nonsingular");
}

fn matrix_from(vals: &[f64], nrows: usize, ncols: usize) -> Matrix {
    Matrix::from_fn(nrows, ncols, |i, j| vals[(i * ncols + j) % vals.len()] - 0.5)
}

fn assert_bitwise(label: &str, got: &Matrix, want: &Matrix) {
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {i} differs: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel GEMM at 2/4 workers is bitwise identical to serial on
    /// shapes that straddle the row-panel and micro-tile boundaries.
    #[test]
    fn parallel_gemm_bitwise_identical_to_serial(
        blocks in 1usize..4,
        off in 0usize..(2 * MR),
        k in 1usize..80,
        n in 1usize..40,
        vals in prop::collection::vec(0.0f64..1.0, 64),
    ) {
        // m straddles the MC row-panel boundary (a multiple only when
        // off == MR), so ragged tail panels are always exercised.
        let m = blocks * MC + off - MR;
        let a = matrix_from(&vals, m, k);
        let b = matrix_from(&vals[1..], k, n);
        let c0 = matrix_from(&vals[2..], m, n);
        let mut serial = c0.clone();
        gemm_into_threaded(1.25, &a, &b, 1.0, &mut serial, 1);
        for workers in [2usize, 4] {
            let mut par = c0.clone();
            gemm_into_threaded(1.25, &a, &b, 1.0, &mut par, workers);
            assert_bitwise(&format!("gemm {m}x{k}x{n} @{workers}"), &par, &serial);
        }
    }

    /// Parallel right and left LU multi-RHS solves are bitwise identical
    /// to serial at 2/4 workers.
    #[test]
    fn parallel_lu_solves_bitwise_identical_to_serial(
        n in 2usize..40,
        w in 1usize..48,
        vals in prop::collection::vec(0.0f64..1.0, 96),
    ) {
        // Diagonally dominant system: always factorable.
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = vals[(i * n + j) % vals.len()] - 0.5;
            if i == j { v + n as f64 } else { v }
        });
        let mut ws = LuWorkspace::new(n);
        ws.factor(&a).expect("diagonally dominant");

        let b = matrix_from(&vals[3..], n, w);
        let mut serial = Matrix::zeros(n, w);
        ws.solve_mat_into_threaded(&b, &mut serial, 1).unwrap();
        let bl = matrix_from(&vals[5..], w, n);
        let mut serial_l = Matrix::zeros(w, n);
        ws.solve_left_mat_into_threaded(&bl, &mut serial_l, 1).unwrap();

        for workers in [2usize, 4] {
            let mut par = Matrix::zeros(n, w);
            ws.solve_mat_into_threaded(&b, &mut par, workers).unwrap();
            assert_bitwise(&format!("solve {n}x{w} @{workers}"), &par, &serial);
            let mut par_l = Matrix::zeros(w, n);
            ws.solve_left_mat_into_threaded(&bl, &mut par_l, workers).unwrap();
            assert_bitwise(&format!("solve_left {w}x{n} @{workers}"), &par_l, &serial_l);
        }
    }

    /// The blocked factor (row-parallel trailing updates) and the
    /// blocked right (column stripes) and left (row partitions) solves
    /// at 2 and 3 workers are bitwise identical to 1 worker. Sizes above
    /// `3·NB` give the first trailing update two or more `MC` row
    /// blocks, so the parallel GEMM really splits; right-hand-side
    /// counts straddle the 16-column and 4-row blocking thresholds.
    #[test]
    fn parallel_blocked_lu_bitwise_identical_to_serial(
        n in (3 * NB)..(6 * NB + 40),
        w in 1usize..48,
        vals in prop::collection::vec(0.0f64..1.0, 96),
    ) {
        // Pivot-forcing: the anti-diagonal dominates every column.
        let a = Matrix::from_fn(n, n, |i, j| {
            let v = vals[(i * 7 + j * 13) % vals.len()] - 0.5;
            if i + j == n - 1 { v + n as f64 / 4.0 } else { v }
        });
        let b = matrix_from(&vals[3..], n, w);
        let bl = matrix_from(&vals[5..], w, n);
        let mut ws = LuWorkspace::new(n);
        factor_at(&mut ws, &a, 1);
        let mut serial = Matrix::zeros(n, w);
        ws.solve_mat_into_threaded(&b, &mut serial, 1).unwrap();
        let mut serial_l = Matrix::zeros(w, n);
        ws.solve_left_mat_into_threaded(&bl, &mut serial_l, 1).unwrap();

        for workers in [2usize, 3] {
            // Solves on the serial factors, in parallel.
            let mut par = Matrix::zeros(n, w);
            ws.solve_mat_into_threaded(&b, &mut par, workers).unwrap();
            assert_bitwise(&format!("blocked solve n={n} w={w} @{workers}"), &par, &serial);
            let mut par_l = Matrix::zeros(w, n);
            ws.solve_left_mat_into_threaded(&bl, &mut par_l, workers).unwrap();
            assert_bitwise(&format!("blocked solve_left n={n} rows={w} @{workers}"), &par_l, &serial_l);
        }
        for workers in [2usize, 3] {
            // Parallel factors, read back through serial solves.
            let mut wp = LuWorkspace::new(n);
            factor_at(&mut wp, &a, workers);
            let mut x = Matrix::zeros(n, w);
            wp.solve_mat_into_threaded(&b, &mut x, 1).unwrap();
            assert_bitwise(&format!("blocked factor n={n} @{workers} (right)"), &x, &serial);
            let mut xl = Matrix::zeros(w, n);
            wp.solve_left_mat_into_threaded(&bl, &mut xl, 1).unwrap();
            assert_bitwise(&format!("blocked factor n={n} @{workers} (left)"), &xl, &serial_l);
        }
    }
}
