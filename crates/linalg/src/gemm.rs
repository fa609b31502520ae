//! Cache-blocked general matrix multiply (GEMM), serial and parallel.
//!
//! The QBD fixed-point iterations (logarithmic reduction, Neuts
//! substitution, functional iteration) spend almost all of their time in
//! dense matrix products, so this module provides the classic
//! BLIS/GotoBLAS three-level blocking scheme in safe Rust:
//!
//! * the `k` dimension is split into panels of [`KC`] so one packed panel
//!   of `B` stays resident in L1/L2 while it is reused across many rows
//!   of `A`;
//! * the `m` dimension is split into blocks of [`MC`] whose packed `A`
//!   panels stream through L2;
//! * an [`MR`]`×`[`NR`] register micro-kernel with fused multiply-add
//!   accumulation does the innermost work on packed, unit-stride panels.
//!
//! Both operands are repacked into tile-major scratch buffers so the
//! micro-kernel sees perfectly contiguous data regardless of the original
//! row-major strides. The scratch buffers live in thread-local storage
//! and only ever grow, so steady-state serial calls perform **zero heap
//! allocations** — the property the QBD workspace arena relies on.
//!
//! # Parallel macro-kernel
//!
//! When the configured kernel thread count ([`crate::threading`]) exceeds
//! one and the product is large enough to amortize thread startup, the
//! row dimension is partitioned into contiguous runs of [`MC`]-aligned
//! row blocks, each owned by **exactly one** scoped thread. Every thread
//! runs the identical `(jc, pc, ic)` loop nest over its own rows with its
//! own packing scratch, so each element of `C` is produced by the same
//! FMA sequence as in the serial schedule — parallel results are
//! **bitwise identical** to serial at any thread count (pinned by the
//! `parallel_determinism` property tests). [`gemm_into_threaded`] exposes
//! the thread count explicitly for those tests and for callers that must
//! not consult the global setting.
//!
//! The naive triple loop is retained as [`Matrix::mul_naive`] both as the
//! correctness oracle for the property tests and as the reference point
//! for the recorded benchmark baseline (`BENCH_solver.json`).

use std::cell::RefCell;

use crate::threading;
use crate::Matrix;

/// Micro-kernel tile height (rows of `C` updated per inner call).
///
/// `6×8` is the classic double-precision register tile for 256-bit FMA
/// cores: twelve 4-wide accumulator chains (enough instruction-level
/// parallelism to hide FMA latency) plus the `B` row and the broadcast
/// operand still fit the 16-register vector file without spilling.
pub const MR: usize = 6;
/// Micro-kernel tile width (columns of `C` updated per inner call).
pub const NR: usize = 8;
/// Row-block size: rows of packed `A` kept hot in L2. Also the
/// granularity of the parallel row partition — each output row block is
/// owned by exactly one thread.
pub const MC: usize = 128;
/// Depth-block size: the `k` extent of one packed panel pair.
pub const KC: usize = 256;
/// Column-block size: columns of packed `B` processed per outer sweep.
const NC: usize = 1024;


thread_local! {
    /// Reusable packing scratch `(a_pack, b_pack)`; grows to the high-water
    /// mark of the panel sizes seen on this thread and is then reused.
    static PACK: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Heap bytes currently held by this thread's packing scratch.
///
/// Grows during the first products on a thread and then plateaus; the
/// QBD workspace gauge folds this in so the `qbd.workspace_bytes`
/// observability test can prove the inner loops stop allocating after
/// warm-up. Scoped worker threads of the parallel path carry their own
/// short-lived scratch, which is not visible here.
pub fn pack_bytes() -> usize {
    PACK.with(|pack| {
        let pack = pack.borrow();
        (pack.0.capacity() + pack.1.capacity()) * std::mem::size_of::<f64>()
    })
}

/// General matrix multiply-accumulate `C ← α·A·B + β·C`.
///
/// This is the workhorse behind `&a * &b` (with `α = 1`, `β = 0`) and the
/// allocation-free building block of the QBD solver inner loops: the
/// caller owns `C`, so repeated products reuse the same storage.
///
/// `β = 0` overwrites `C` outright (existing `NaN`s do not propagate, as
/// in BLAS); `β = 1` skips the scaling pass entirely.
///
/// Runs on the process-wide kernel thread count
/// ([`crate::threading::threads`]) when the product is large enough;
/// parallel results are bitwise identical to serial.
///
/// # Panics
///
/// Panics if the shapes disagree (`A: m×k`, `B: k×n`, `C: m×n`).
pub fn gemm_into(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, ka) = a.shape();
    let n = b.ncols();
    let workers = if 2usize
        .saturating_mul(m)
        .saturating_mul(n)
        .saturating_mul(ka)
        >= threading::par_min_flops()
    {
        threading::threads()
    } else {
        1
    };
    gemm_into_threaded(alpha, a, b, beta, c, workers);
}

/// [`gemm_into`] with an explicit worker count, bypassing both the
/// process-wide setting and the size threshold.
///
/// Exists so the determinism property tests (and benchmarks) can compare
/// thread counts directly without mutating global state; `threads ≤ 1`
/// is the serial schedule.
///
/// # Panics
///
/// Panics if the shapes disagree (`A: m×k`, `B: k×n`, `C: m×n`).
pub fn gemm_into_threaded(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    threads: usize,
) {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        ka, kb,
        "shape mismatch in gemm: {m}x{ka} * {kb}x{n}"
    );
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm output is {}x{}, expected {m}x{n}",
        c.nrows(),
        c.ncols()
    );

    if beta == 0.0 {
        c.as_mut_slice().fill(0.0);
    } else if beta != 1.0 {
        c.scale_mut(beta);
    }
    if m == 0 || n == 0 || ka == 0 || alpha == 0.0 {
        return;
    }

    let row_blocks = m.div_ceil(MC);
    let workers = threads.max(1).min(row_blocks);
    if workers <= 1 {
        PACK.with(|pack| {
            let mut pack = pack.borrow_mut();
            let (a_pack, b_pack) = &mut *pack;
            gemm_rows(alpha, a, b, 0, m, c.as_mut_slice(), n, a_pack, b_pack);
        });
        return;
    }

    // Contiguous MC-aligned row regions, one scoped thread each. Region
    // boundaries fall exactly on the serial schedule's `ic` steps, so
    // every thread packs and multiplies the same blocks the serial code
    // would — same FMA order, bitwise-identical C.
    let bounds = threading::partition_blocks(row_blocks, workers);
    let mut regions: Vec<(usize, usize, &mut [f64])> = Vec::with_capacity(bounds.len() - 1);
    let mut rest = c.as_mut_slice();
    let mut row = 0;
    for w in bounds.windows(2) {
        let row_end = (w[1] * MC).min(m);
        let (head, tail) = rest.split_at_mut((row_end - row) * n);
        regions.push((row, row_end, head));
        rest = tail;
        row = row_end;
    }
    std::thread::scope(|scope| {
        for (row0, row_end, c_rows) in regions {
            scope.spawn(move || {
                let (mut a_pack, mut b_pack) = (Vec::new(), Vec::new());
                gemm_rows(
                    alpha,
                    a,
                    b,
                    row0,
                    row_end,
                    c_rows,
                    n,
                    &mut a_pack,
                    &mut b_pack,
                );
            });
        }
    });
}

/// The full `(jc, pc, ic)` blocked loop nest over the row range
/// `[row0, row_end)` of the output. `c_rows` is the sub-slice of `C`
/// holding exactly those rows (row-major, `ncols` wide).
#[allow(clippy::too_many_arguments)] // block geometry plus scratch: all are needed
fn gemm_rows(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    row0: usize,
    row_end: usize,
    c_rows: &mut [f64],
    ncols: usize,
    a_pack: &mut Vec<f64>,
    b_pack: &mut Vec<f64>,
) {
    let ka = a.ncols();
    let n = ncols;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..ka).step_by(KC) {
            let kc = KC.min(ka - pc);
            pack_b(b, pc, kc, jc, nc, b_pack);
            for ic in (row0..row_end).step_by(MC) {
                let mc = MC.min(row_end - ic);
                pack_a(a, ic, mc, pc, kc, a_pack);
                macro_kernel(
                    alpha, a_pack, b_pack, mc, nc, kc, c_rows, row0, ncols, ic, jc,
                );
            }
        }
    }
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` into `MR`-tall row panels, each stored
/// depth-major (`panel[p·MR + r]`), zero-padding the ragged bottom panel
/// so the micro-kernel never needs an edge case in `m`.
fn pack_a(a: &Matrix, ic: usize, mc: usize, pc: usize, kc: usize, buf: &mut Vec<f64>) {
    let panels = mc.div_ceil(MR);
    let need = panels * kc * MR;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for pi in 0..panels {
        let r0 = pi * MR;
        let rows = MR.min(mc - r0);
        let panel = &mut buf[pi * kc * MR..(pi + 1) * kc * MR];
        for r in 0..MR {
            if r < rows {
                let row = &a.row(ic + r0 + r)[pc..pc + kc];
                for (p, &v) in row.iter().enumerate() {
                    panel[p * MR + r] = v;
                }
            } else {
                for p in 0..kc {
                    panel[p * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `NR`-wide column panels, each
/// stored depth-major (`panel[p·NR + j]`), zero-padding the ragged right
/// panel so the micro-kernel never needs an edge case in `n`.
fn pack_b(b: &Matrix, pc: usize, kc: usize, jc: usize, nc: usize, buf: &mut Vec<f64>) {
    let panels = nc.div_ceil(NR);
    let need = panels * kc * NR;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    for pi in 0..panels {
        let c0 = jc + pi * NR;
        let cols = NR.min(jc + nc - c0);
        let panel = &mut buf[pi * kc * NR..(pi + 1) * kc * NR];
        for p in 0..kc {
            let row = b.row(pc + p);
            let dst = &mut panel[p * NR..(p + 1) * NR];
            if cols == NR {
                dst.copy_from_slice(&row[c0..c0 + NR]);
            } else {
                dst[..cols].copy_from_slice(&row[c0..c0 + cols]);
                dst[cols..].fill(0.0);
            }
        }
    }
}

/// Walks the packed panels tile by tile and dispatches the micro-kernel.
/// `c_rows` holds rows `[c_row0, …)` of the output, `ncols` wide.
#[allow(clippy::too_many_arguments)] // block geometry: all extents are needed
fn macro_kernel(
    alpha: f64,
    a_pack: &[f64],
    b_pack: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    c_rows: &mut [f64],
    c_row0: usize,
    ncols: usize,
    ic: usize,
    jc: usize,
) {
    let m_panels = mc.div_ceil(MR);
    let n_panels = nc.div_ceil(NR);
    for pj in 0..n_panels {
        let bp = &b_pack[pj * kc * NR..(pj + 1) * kc * NR];
        let j0 = jc + pj * NR;
        let cols = NR.min(jc + nc - j0);
        for pi in 0..m_panels {
            let ap = &a_pack[pi * kc * MR..(pi + 1) * kc * MR];
            let i0 = ic + pi * MR;
            let rows = MR.min(ic + mc - i0);
            let acc = micro_kernel(kc, ap, bp);
            // Scatter the register tile back into C, clipping the
            // zero-padded edges.
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                let at = (i0 - c_row0 + r) * ncols + j0;
                let crow = &mut c_rows[at..at + cols];
                for (dst, &v) in crow.iter_mut().zip(acc_row) {
                    *dst += alpha * v;
                }
            }
        }
    }
}

/// One depth step of the register tile: `acc[r][j] += a[r]·b[j]`.
///
/// With fixed-size array operands the twelve row/column FMA chains are
/// fully independent, so LLVM keeps `acc` in vector registers and emits
/// two fused multiply-adds per row.
#[inline(always)]
fn micro_step(acc: &mut [[f64; NR]; MR], a: &[f64; MR], b: &[f64; NR]) {
    for r in 0..MR {
        let ar = a[r];
        for j in 0..NR {
            acc[r][j] = ar.mul_add(b[j], acc[r][j]);
        }
    }
}

/// The `MR×NR` register tile: `acc += Ap·Bp` over one depth panel.
///
/// Operates purely on packed, unit-stride data with compile-time tile
/// bounds; the depth loop is unrolled two-fold to amortize loop control
/// around the [`micro_step`] FMA bursts.
#[inline]
fn micro_kernel(kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    let ap = &ap[..kc * MR];
    let bp = &bp[..kc * NR];
    let mut a2 = ap.chunks_exact(2 * MR);
    let mut b2 = bp.chunks_exact(2 * NR);
    for (a, b) in (&mut a2).zip(&mut b2) {
        micro_step(&mut acc, a[..MR].try_into().expect("MR wide"), b[..NR].try_into().expect("NR wide"));
        micro_step(&mut acc, a[MR..].try_into().expect("MR wide"), b[NR..].try_into().expect("NR wide"));
    }
    if let (Ok(a), Ok(b)) = (a2.remainder().try_into(), b2.remainder().try_into()) {
        micro_step(&mut acc, a, b);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(nrows: usize, ncols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(nrows, ncols, |i, j| {
            ((i * 31 + j * 17 + seed * 13) % 101) as f64 / 101.0 - 0.5
        })
    }

    #[test]
    fn matches_naive_on_blocked_and_ragged_shapes() {
        // Cover all edge-tile combinations: exact multiples of MR/NR,
        // off-by-one shapes, and sizes spanning multiple KC panels.
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR, KC, NR),
            (MR + 1, 3, NR + 3),
            (17, 29, 23),
            (64, 300, 40),
            (130, 257, 70),
        ] {
            let a = probe(m, k, 1);
            let b = probe(k, n, 2);
            let mut c = Matrix::zeros(m, n);
            gemm_into(1.0, &a, &b, 0.0, &mut c);
            let expect = a.mul_naive(&b);
            assert!(
                c.max_abs_diff(&expect) < 1e-12,
                "({m},{k},{n}): diff {}",
                c.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn parallel_is_bitwise_identical_to_serial() {
        // Shapes straddling the MC row-block boundary, including a
        // ragged tail block and more threads than row blocks.
        for &(m, k, n) in &[(MC, 64, 40), (MC + 1, 300, 33), (3 * MC - 5, 37, 50)] {
            let a = probe(m, k, 3);
            let b = probe(k, n, 4);
            let mut serial = probe(m, n, 5);
            let mut parallel = serial.clone();
            gemm_into_threaded(0.75, &a, &b, 1.0, &mut serial, 1);
            for t in [2usize, 4, 7] {
                let mut c = probe(m, n, 5);
                gemm_into_threaded(0.75, &a, &b, 1.0, &mut c, t);
                parallel.copy_from(&c);
                for (x, y) in serial.as_slice().iter().zip(parallel.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}) at {t} threads");
                }
            }
        }
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = probe(9, 11, 3);
        let b = probe(11, 7, 4);
        let c0 = probe(9, 7, 5);
        let mut c = c0.clone();
        gemm_into(2.0, &a, &b, 0.5, &mut c);
        let expect = &(a.mul_naive(&b) * 2.0) + &(&c0 * 0.5);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = Matrix::identity(3);
        let mut c = Matrix::from_fn(3, 3, |_, _| f64::NAN);
        gemm_into(1.0, &a, &a, 0.0, &mut c);
        assert!(c.max_abs_diff(&Matrix::identity(3)) < 1e-15);
    }

    #[test]
    fn empty_inner_dimension_scales_only() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::identity(2);
        gemm_into(1.0, &a, &b, 3.0, &mut c);
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut c = Matrix::zeros(2, 3);
        gemm_into(1.0, &a, &b, 0.0, &mut c);
    }
}
