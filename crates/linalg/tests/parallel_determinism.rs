//! Property tests for parallel kernel determinism.
//!
//! The parallel GEMM macro-kernel and the multi-right-hand-side LU
//! solves must be **bitwise identical** to their serial schedules at any
//! worker count: every output region is owned by exactly one thread and
//! computed with the same per-element FMA order. These tests drive the
//! explicit `*_threaded` entry points (so the process-wide thread
//! setting never has to be mutated from concurrently-running tests) at
//! 1, 2 and 4 workers over randomized shapes that straddle the blocking
//! boundaries — `m` not a multiple of the `MC` row panel, ragged
//! micro-tiles.

use proptest::prelude::*;

use performa_linalg::gemm::{gemm_into_threaded, MC, MR};
use performa_linalg::lu::LuWorkspace;
use performa_linalg::Matrix;

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
}
