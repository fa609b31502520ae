//! Cache-blocked general matrix multiply (GEMM), serial and parallel —
//! the one dense core under products, the blocked LU and the blocked
//! triangular solves.
//!
//! The QBD fixed-point iterations (logarithmic reduction, Neuts
//! substitution, functional iteration) spend almost all of their time in
//! dense matrix products and LU solves, so this module provides the
//! classic BLIS/GotoBLAS three-level blocking scheme in safe Rust:
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
//! micro-kernel sees perfectly contiguous data whatever the source
//! strides: the core reads `A` and `B` as strided sub-blocks `(slice,
//! ld, row0, col0)` and writes a strided block of `C`. [`gemm_into`]
//! is the whole-matrix wrapper; [`crate::lu`] runs its trailing updates
//! and off-diagonal solve blocks on the same core, as `C −= A·B` chains
//! seeded with `C` (the order of the unblocked loops). The scratch
//! buffers live in thread-local storage and only ever grow, so
//! steady-state serial calls perform **zero heap allocations** — the
//! property the QBD workspace arena relies on.
//!
//! Every output entry is one fused multiply-add chain over the depth
//! index in order, whatever the tile shape, so changing [`MR`]`×`[`NR`]
//! never changes a result bit.
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
/// The tile is chosen at build time from the target's vector register
/// file; it never changes a result bit. AVX-512 gives 32 vector
/// registers, so the tile is `4×16`: 64 accumulators, which LLVM keeps
/// in sixteen 256-bit registers (its default vector width on AVX-512
/// Xeons), plus the `B` row and the broadcast operand. The gain comes
/// from the register count: it measured ~1.15× the `6×8` tile at
/// `m = 462` on an AVX-512 Xeon (DESIGN.md §9), and on a 16-register
/// AVX2 file the same accumulators would spill.
#[cfg(target_feature = "avx512f")]
pub const MR: usize = 4;
/// Micro-kernel tile width (columns of `C` updated per inner call).
#[cfg(target_feature = "avx512f")]
pub const NR: usize = 16;
/// Micro-kernel tile height (rows of `C` updated per inner call).
///
/// Without AVX-512 the tile is `6×8`: twelve 256-bit accumulators, the
/// `B` row and the broadcast operand fit a 16-register vector file
/// without spilling.
#[cfg(not(target_feature = "avx512f"))]
pub const MR: usize = 6;
/// Micro-kernel tile width (columns of `C` updated per inner call).
#[cfg(not(target_feature = "avx512f"))]
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
    let workers = auto_workers(m, ka, b.ncols());
    gemm_into_threaded(alpha, a, b, beta, c, workers);
}

/// The worker count for an `m×k·k×n` product: the process-wide setting
/// at or above the flop gate ([`threading::par_min_flops`]), else 1.
pub(crate) fn auto_workers(m: usize, k: usize, n: usize) -> usize {
    if 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k) >= threading::par_min_flops() {
        threading::threads()
    } else {
        1
    }
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
    let dims = Dims { m, k: ka, n };
    let update = Update::Add(alpha);
    gemm_acc(
        update,
        Lhs::View(View::of(a)),
        View::of(b),
        dims,
        c.as_mut_slice(),
        n,
        0,
        threads,
    );
}

/// A read-only strided sub-block of a row-major buffer: element
/// `(i, j)` is `data[(row0 + i)·ld + col0 + j]`. Extents travel
/// separately, in [`Dims`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct View<'a> {
    pub data: &'a [f64],
    pub ld: usize,
    pub row0: usize,
    pub col0: usize,
}

impl<'a> View<'a> {
    /// The whole of `m`.
    pub fn of(m: &'a Matrix) -> Self {
        View::at(m.as_slice(), m.ncols(), 0, 0)
    }

    /// The block of `data` (row stride `ld`) whose top-left element is
    /// `(row0, col0)`.
    pub fn at(data: &'a [f64], ld: usize, row0: usize, col0: usize) -> Self {
        View {
            data,
            ld,
            row0,
            col0,
        }
    }

    /// `len` elements of row `i`, starting at column `j`.
    #[inline]
    fn row(&self, i: usize, j: usize, len: usize) -> &'a [f64] {
        let at = (self.row0 + i) * self.ld + self.col0 + j;
        &self.data[at..at + len]
    }
}

/// Where the left operand `A` of a product is read from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// A block of a buffer other than the output.
    View(View<'a>),
    /// Columns `[col0, col0 + k)` of the output buffer's own rows. The
    /// blocked left solve updates one column block of its right-hand
    /// sides from the already-solved columns of the same rows; the
    /// caller keeps those columns disjoint from the output block.
    Out { col0: usize },
}

/// How a product lands in `C`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Update {
    /// `C += α·(A·B)`: each entry's products are summed from zero in
    /// depth order, then scaled and added once — the BLAS form behind
    /// [`gemm_into`].
    Add(f64),
    /// `C −= A·B` as one chain of fused multiply-subtracts per entry,
    /// seeded with `C` and run in depth order. This is the arithmetic of
    /// the unblocked elimination and substitution loops (with a single
    /// rounding per step instead of two), so the blocked LU and solves
    /// subtract their updates in the same order the unblocked loops do.
    Sub,
}

/// Extents of one product: `A` is `m×k`, `B` is `k×n`, `C` is `m×n`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dims {
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

/// `C += α·A·B` or `C −= A·B` ([`Update`]) on strided blocks — the one
/// GEMM core under [`gemm_into`], the blocked LU and the blocked
/// substitutions.
///
/// `C` is the `m×n` block at column `c_col0` of `c`, whose row stride
/// is `ldc` and whose first row is the block's first row. Rows of `C`
/// are partitioned over up to `threads` scoped threads as described in
/// the module docs; the result is bitwise independent of `threads`.
#[allow(clippy::too_many_arguments)] // operands, block geometry and worker count
pub(crate) fn gemm_acc(
    update: Update,
    a: Lhs<'_>,
    b: View<'_>,
    dims: Dims,
    c: &mut [f64],
    ldc: usize,
    c_col0: usize,
    threads: usize,
) {
    let Dims { m, k, n } = dims;
    if m == 0 || n == 0 || k == 0 || matches!(update, Update::Add(alpha) if alpha == 0.0) {
        return;
    }
    let out = OutBlock { ldc, c_col0 };
    let row_blocks = m.div_ceil(MC);
    let workers = threads.max(1).min(row_blocks);
    if workers <= 1 {
        PACK.with(|pack| {
            let mut pack = pack.borrow_mut();
            let (a_pack, b_pack) = &mut *pack;
            gemm_rows(update, a, b, dims, 0, m, c, out, a_pack, b_pack);
        });
        return;
    }

    // Contiguous MC-aligned row regions, one scoped thread each. Region
    // boundaries fall exactly on the serial schedule's `ic` steps, so
    // every thread packs and multiplies the same blocks the serial code
    // would — same FMA order, bitwise-identical C.
    let bounds = threading::partition_blocks(row_blocks, workers);
    let mut regions: Vec<(usize, usize, &mut [f64])> = Vec::with_capacity(bounds.len() - 1);
    let mut rest = c;
    let mut row = 0;
    for w in bounds.windows(2) {
        let row_end = (w[1] * MC).min(m);
        let (head, tail) = rest.split_at_mut((row_end - row) * ldc);
        regions.push((row, row_end, head));
        rest = tail;
        row = row_end;
    }
    std::thread::scope(|scope| {
        for (row0, row_end, c_rows) in regions {
            scope.spawn(move || {
                let (mut a_pack, mut b_pack) = (Vec::new(), Vec::new());
                gemm_rows(
                    update,
                    a,
                    b,
                    dims,
                    row0,
                    row_end,
                    c_rows,
                    out,
                    &mut a_pack,
                    &mut b_pack,
                );
            });
        }
    });
}

/// Row stride and column offset of the output block.
#[derive(Debug, Clone, Copy)]
struct OutBlock {
    ldc: usize,
    c_col0: usize,
}

/// The full `(jc, pc, ic)` blocked loop nest over the row range
/// `[row0, row_end)` of the output. `c_rows` starts at output row
/// `row0`.
#[allow(clippy::too_many_arguments)] // operands, block geometry plus scratch: all are needed
fn gemm_rows(
    update: Update,
    a: Lhs<'_>,
    b: View<'_>,
    dims: Dims,
    row0: usize,
    row_end: usize,
    c_rows: &mut [f64],
    out: OutBlock,
    a_pack: &mut Vec<f64>,
    b_pack: &mut Vec<f64>,
) {
    let Dims { k, n, .. } = dims;
    let negate = matches!(update, Update::Sub);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, pc, kc, jc, nc, b_pack);
            for ic in (row0..row_end).step_by(MC) {
                let mc = MC.min(row_end - ic);
                match a {
                    Lhs::View(v) => pack_a(v, ic, mc, pc, kc, negate, a_pack),
                    Lhs::Out { col0 } => {
                        let v = View::at(c_rows, out.ldc, 0, col0);
                        pack_a(v, ic - row0, mc, pc, kc, negate, a_pack);
                    }
                }
                macro_kernel(
                    update,
                    a_pack,
                    b_pack,
                    mc,
                    nc,
                    kc,
                    c_rows,
                    ic - row0,
                    jc,
                    out,
                );
            }
        }
    }
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` (negated when `negate`, which is
/// exact) into `MR`-tall row panels, each stored depth-major
/// (`panel[p·MR + r]`), zero-padding the ragged bottom panel so the
/// micro-kernel never needs an edge case in `m`.
fn pack_a(
    a: View<'_>,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    negate: bool,
    buf: &mut Vec<f64>,
) {
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
                for (p, &v) in a.row(ic + r0 + r, pc, kc).iter().enumerate() {
                    panel[p * MR + r] = if negate { -v } else { v };
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
fn pack_b(b: View<'_>, pc: usize, kc: usize, jc: usize, nc: usize, buf: &mut Vec<f64>) {
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
            let dst = &mut panel[p * NR..(p + 1) * NR];
            dst[..cols].copy_from_slice(b.row(pc + p, c0, cols));
            dst[cols..].fill(0.0);
        }
    }
}

/// Walks the packed panels tile by tile and dispatches the micro-kernel.
/// This block's first output row is row `i_off` of `c_rows`.
#[allow(clippy::too_many_arguments)] // block geometry: all extents are needed
fn macro_kernel(
    update: Update,
    a_pack: &[f64],
    b_pack: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    c_rows: &mut [f64],
    i_off: usize,
    jc: usize,
    out: OutBlock,
) {
    let m_panels = mc.div_ceil(MR);
    let n_panels = nc.div_ceil(NR);
    for pj in 0..n_panels {
        let bp = &b_pack[pj * kc * NR..(pj + 1) * kc * NR];
        let j0 = jc + pj * NR;
        let cols = NR.min(jc + nc - j0);
        for pi in 0..m_panels {
            let ap = &a_pack[pi * kc * MR..(pi + 1) * kc * MR];
            let i0 = pi * MR;
            let rows = MR.min(mc - i0);
            let tile_at = |r: usize| (i_off + i0 + r) * out.ldc + out.c_col0 + j0;
            let mut acc = [[0.0f64; NR]; MR];
            if matches!(update, Update::Sub) {
                // Seed the chains with C (the packed A is negated).
                for (r, acc_row) in acc.iter_mut().enumerate().take(rows) {
                    let at = tile_at(r);
                    acc_row[..cols].copy_from_slice(&c_rows[at..at + cols]);
                }
            }
            let acc = micro_kernel(acc, kc, ap, bp);
            // Write the register tile back into C, clipping the
            // zero-padded edges.
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                let at = tile_at(r);
                let crow = &mut c_rows[at..at + cols];
                match update {
                    Update::Add(alpha) => {
                        for (dst, &v) in crow.iter_mut().zip(acc_row) {
                            *dst += alpha * v;
                        }
                    }
                    Update::Sub => crow.copy_from_slice(&acc_row[..cols]),
                }
            }
        }
    }
}

/// One depth step of the register tile: `acc[r][j] += a[r]·b[j]`.
///
/// With fixed-size array operands the `MR·NR` FMA chains are fully
/// independent, so LLVM keeps `acc` in vector registers and emits one
/// vector fused multiply-add per row and register width of `NR`.
#[inline(always)]
fn micro_step(acc: &mut [[f64; NR]; MR], a: &[f64; MR], b: &[f64; NR]) {
    for r in 0..MR {
        let ar = a[r];
        for j in 0..NR {
            acc[r][j] = ar.mul_add(b[j], acc[r][j]);
        }
    }
}

/// The `MR×NR` register tile: `acc += Ap·Bp` over one depth panel, one
/// fused multiply-add per entry and depth step, in depth order.
///
/// Operates purely on packed, unit-stride data with compile-time tile
/// bounds; the depth loop is unrolled two-fold to amortize loop control
/// around the [`micro_step`] FMA bursts.
#[inline]
fn micro_kernel(mut acc: [[f64; NR]; MR], kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; NR]; MR] {
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
            (MR - 1, KC + 1, NR - 1),
            (2 * MR + 1, 5, 2 * NR + 1),
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
    fn sub_update_is_a_fused_chain_in_depth_order() {
        // C −= A·B on strided blocks must equal, bit for bit, the loop
        // c = fma(−a, b, c) over the depth index in order — across KC
        // panels, ragged tiles, and with A read from the output's own
        // columns.
        let (m, k, n) = (MC + MR + 3, KC + 7, NR + 5);
        let (ld, col0) = (k + n + 3, k + 1);
        let a = probe(m + 2, k + 1, 6);
        let b = probe(k + 3, n + 4, 7);
        let mut buf = probe(m, ld, 8);
        // A lives in columns 0..k of `buf`, C in columns col0..col0+n.
        for i in 0..m {
            for p in 0..k {
                buf[(i, p)] = a[(i + 2, p + 1)];
            }
        }
        let mut want = buf.clone();
        for i in 0..m {
            for j in 0..n {
                let mut c = want[(i, col0 + j)];
                for p in 0..k {
                    c = (-a[(i + 2, p + 1)]).mul_add(b[(p + 3, j + 4)], c);
                }
                want[(i, col0 + j)] = c;
            }
        }
        let dims = Dims { m, k, n };
        let rhs = View::at(b.as_slice(), b.ncols(), 3, 4);
        for threads in [1, 2] {
            // From a separate buffer …
            let mut got = buf.clone();
            let lhs = Lhs::View(View::at(a.as_slice(), a.ncols(), 2, 1));
            gemm_acc(
                Update::Sub,
                lhs,
                rhs,
                dims,
                got.as_mut_slice(),
                ld,
                col0,
                threads,
            );
            assert_eq!(got, want, "view operand at {threads} thread(s)");
            // … and from the output's own columns.
            let mut got = buf.clone();
            let lhs = Lhs::Out { col0: 0 };
            gemm_acc(
                Update::Sub,
                lhs,
                rhs,
                dims,
                got.as_mut_slice(),
                ld,
                col0,
                threads,
            );
            assert_eq!(got, want, "output operand at {threads} thread(s)");
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
