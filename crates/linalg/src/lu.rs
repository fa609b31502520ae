//! LU factorization with partial pivoting and linear solves.
//!
//! The QBD solver repeatedly solves systems of the form `X · A = B` (row
//! vectors acting from the left, as is conventional in matrix-analytic
//! methods) and `A · X = B`. [`LuWorkspace`] is the one LU type: it
//! factors into storage it owns and solves either direction, for one
//! right-hand side or a whole matrix of them, so a factorization serves
//! many right-hand sides and the next matrix of the same size reuses the
//! buffers without heap allocation — the form the QBD inner loops use.
//! One-shot callers allocate a workspace, factor and solve. Besides the
//! combined factors the workspace keeps a transposed copy, so left
//! (row-vector) solves run on unit-stride data.
//!
//! [`LuWorkspace::factor_hardened`] is the one hardened configuration:
//! the matrix is equilibrated before elimination and the original is
//! kept, so the `*_refined_into` solves can refine against it.
//!
//! # Blocking
//!
//! Factor and multi-RHS solves are blocked on the GEMM core
//! ([`crate::gemm`]) with one panel width [`NB`]:
//!
//! * the factor is a right-looking blocked LU — per panel, partial
//!   pivoting over full rows, `U12` by a unit-lower triangular solve,
//!   and the trailing update `A22 −= L21·U12` on the GEMM core, with
//!   `L21` staged in workspace scratch (it shares rows with `A22`);
//! * right (`A·X = B`) and left (`X·A = B`) solves are left-looking:
//!   off-diagonal blocks go through the GEMM core, and each diagonal
//!   block runs the unblocked loop — a row `axpy` per eliminated entry
//!   for right solves, a per-row dot product on the transposed factors
//!   for left solves.
//!
//! The GEMM core subtracts each update as a fused multiply-add chain
//! seeded with the target entry, in the order the unblocked loops use.
//! A matrix with `n < 3·NB` is a single diagonal block and runs exactly
//! the unblocked loops, bit for bit; so does a solve with fewer than
//! 16 right-hand-side columns (right) or 4 rows (left), which covers
//! every one-vector solve. The parallel
//! schedules (row-parallel trailing updates, column-striped right
//! solves, row-partitioned left solves) are bitwise identical to serial.

use crate::compensated::Accumulator;
use crate::gemm::{auto_workers, gemm_acc, Dims, Lhs, Update, View};
use crate::{LinalgError, Matrix, Result, Vector};

/// Componentwise backward error at which iterative refinement declares
/// victory: a couple of units in the last place, the best a single
/// `f64` correction loop can reliably certify.
pub const REFINE_TOL: f64 = 4.0 * f64::EPSILON;

/// Correction steps refinement attempts before reporting a stall.
pub const REFINE_MAX_ITERS: usize = 8;

/// Outcome of one iterative-refinement loop.
///
/// The error measure is the Oettli–Prager *componentwise backward
/// error* `ω = maxᵢⱼ |B − A·X|ᵢⱼ / (|A|·|X| + |B|)ᵢⱼ` — the smallest
/// relative perturbation of `A` and `B` for which the computed `X` is
/// exact. `ω ≈ ε` means the solve is as good as f64 allows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineStats {
    /// Correction steps actually applied.
    pub iterations: usize,
    /// Componentwise backward error of the unrefined solve.
    pub initial_backward_error: f64,
    /// Componentwise backward error after refinement.
    pub backward_error: f64,
    /// Whether the requested tolerance was reached (otherwise the loop
    /// stalled or exhausted its budget — the stats say how far it got).
    pub converged: bool,
}

/// Panel width of the blocked LU and block size of the blocked
/// substitutions.
///
/// A matrix with `n < 3·NB` is a single diagonal block: it runs the
/// unblocked loops with no GEMM call at all, so every figure-scale
/// matrix — the phase dimension `m ≤ 126` and the `2m ≤ 132` boundary
/// system of the figure sweeps — keeps the bits of the unblocked code.
pub const NB: usize = 64;

/// Diagonal block size for an `n×n` factor: `n` itself (one block)
/// when `n < 3·NB`, else [`NB`].
///
/// Splitting `2·NB < n < 3·NB` into two full blocks and a ragged one
/// gains little: at `n = 132` the blocked factor measured ~8% faster,
/// about 20 µs per figure-sweep solve, and it would move the bits of
/// every figure-sweep boundary system.
fn block_size(n: usize) -> usize {
    if n < 3 * NB {
        n
    } else {
        NB
    }
}

/// Fewest right-hand-side columns for which a right solve is blocked.
///
/// Below it (and below [`MIN_BLOCKED_ROWS`] for left solves) the
/// off-diagonal products would mostly multiply register-tile padding:
/// the 1-row boundary solve at `n = 924` took 5.5 ms blocked against
/// 0.8 ms unblocked. Both are the sides of the AVX-512 `4×16` tile,
/// fixed here rather than read from [`crate::gemm::MR`]/[`crate::gemm::NR`]
/// so the blocking decision, and with it every result bit, is the same
/// on every build target.
const MIN_BLOCKED_COLS: usize = 16;

/// Fewest right-hand-side rows for which a left solve is blocked; see
/// [`MIN_BLOCKED_COLS`].
const MIN_BLOCKED_ROWS: usize = 4;

/// Diagonal block size for a solve with `rhs` right-hand sides: the
/// unblocked loops (`n`) below `min_rhs`, else [`block_size`].
fn solve_block_size(n: usize, rhs: usize, min_rhs: usize) -> usize {
    if rhs < min_rhs {
        n
    } else {
        block_size(n)
    }
}

/// Diagonal blocks `[i0, i1)` of size `nb` covering `0..n`, the last
/// one ragged.
fn diag_blocks(n: usize, nb: usize) -> impl DoubleEndedIterator<Item = (usize, usize)> {
    let nb = nb.max(1);
    (0..n.div_ceil(nb)).map(move |b| (b * nb, ((b + 1) * nb).min(n)))
}

/// Length of the `L21` staging buffer the blocked factor of an `n×n`
/// matrix needs: the tallest sub-diagonal panel, `(n − NB)×NB`.
fn panel_len(n: usize) -> usize {
    if n >= 3 * NB {
        (n - NB) * NB
    } else {
        0
    }
}

/// In-place right-looking blocked LU with partial pivoting on row-major
/// storage.
///
/// Per diagonal block `[k0, k1)`: [`eliminate`] factors the panel
/// (pivot rows swapped whole), [`update_trailing`] solves `U12` and
/// applies `A22 −= L21·U12` on the GEMM core. `panel` is the `L21`
/// staging scratch ([`panel_len`]).
///
/// On success `lu` holds the combined factors (unit-lower `L` below the
/// diagonal, `U` on and above) and `perm[i]` names the original row
/// stored in position `i`.
fn factor_in_place(lu: &mut Matrix, perm: &mut [usize], panel: &mut [f64]) -> Result<()> {
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    let n = lu.nrows();
    for (k0, k1) in diag_blocks(n, block_size(n)) {
        eliminate(lu, perm, k0, k1)?;
        if k1 < n {
            update_trailing(lu, k0, k1, panel);
        }
    }
    Ok(())
}

/// Partial-pivoting elimination of columns `[k0, k1)` over rows
/// `k0..n`: pivot rows are swapped whole, rank-one updates stop at
/// column `k1`. With `(0, n)` this is the whole unblocked LU.
fn eliminate(lu: &mut Matrix, perm: &mut [usize], k0: usize, k1: usize) -> Result<()> {
    let n = lu.nrows();
    for k in k0..k1 {
        // Partial pivoting: pick the largest magnitude entry in column k.
        let mut pivot_row = k;
        let mut pivot_val = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val == 0.0 {
            return Err(LinalgError::Singular { pivot: k });
        }
        let data = lu.as_mut_slice();
        if pivot_row != k {
            let (a, b) = data.split_at_mut(pivot_row * n);
            a[k * n..(k + 1) * n].swap_with_slice(&mut b[..n]);
            perm.swap(k, pivot_row);
        }
        // Eliminate below the pivot, operating on whole row tails so the
        // update is a unit-stride axpy.
        let (pivot_rows, below) = data.split_at_mut((k + 1) * n);
        let urow = &pivot_rows[k * n + k..k * n + k1];
        let pivot = urow[0];
        for chunk in below.chunks_exact_mut(n) {
            let factor = chunk[k] / pivot;
            chunk[k] = factor;
            if factor != 0.0 {
                let tail = &mut chunk[k + 1..k1];
                for (t, &u) in tail.iter_mut().zip(&urow[1..]) {
                    *t -= factor * u;
                }
            }
        }
    }
    Ok(())
}

/// The block step after panel `[k0, k1)`: `U12 ← L11⁻¹·A12` by
/// unit-lower row substitution, then `A22 −= L21·U12` on the GEMM core.
///
/// `L21` shares its rows with `A22`, so it is staged in `panel` first:
/// the product then reads `L21` from the scratch and `U12` from the rows
/// above `A22`, and writes `A22` alone. The product runs on the
/// row-parallel GEMM when it reaches the GEMM flop gate (bitwise
/// identical to serial); the late, small updates stay serial.
fn update_trailing(lu: &mut Matrix, k0: usize, k1: usize, panel: &mut [f64]) {
    let n = lu.nrows();
    let (nb, rows) = (k1 - k0, n - k1);
    let workers = auto_workers(rows, nb, n - k1);
    let data = lu.as_mut_slice();
    for i in k0 + 1..k1 {
        let (above, current) = data.split_at_mut(i * n);
        let (l, u12) = current[..n].split_at_mut(k1);
        for j in k0..i {
            let lij = l[j];
            if lij != 0.0 {
                for (x, &y) in u12.iter_mut().zip(&above[j * n + k1..(j + 1) * n]) {
                    *x -= lij * y;
                }
            }
        }
    }
    let l21 = &mut panel[..rows * nb];
    for (r, dst) in l21.chunks_exact_mut(nb).enumerate() {
        let at = (k1 + r) * n + k0;
        dst.copy_from_slice(&data[at..at + nb]);
    }
    let (top, a22) = data.split_at_mut(k1 * n);
    gemm_acc(
        Update::Sub,
        Lhs::View(View::at(l21, nb, 0, 0)),
        View::at(top, n, k0, k1),
        Dims {
            m: rows,
            k: nb,
            n: n - k1,
        },
        a22,
        n,
        k1,
        workers,
    );
}

/// Worker count for a multi-right-hand-side solve of `rhs` vectors
/// against an `n×n` factor: the process-wide kernel thread count, or 1
/// below half the GEMM flop gate (substitution reuses data less than a
/// product of the same flop count).
fn solve_workers(n: usize, rhs: usize) -> usize {
    let flops = 2usize
        .saturating_mul(n)
        .saturating_mul(n)
        .saturating_mul(rhs);
    if flops >= crate::threading::par_min_flops() / 2 {
        crate::threading::threads()
    } else {
        1
    }
}

/// Left-looking blocked substitution on a raw row-major buffer of width
/// `w`: per diagonal block of size `nb`, the rows already solved are
/// folded in by one GEMM, then the block runs the row-axpy loop.
///
/// Each right-hand-side column is processed independently — neither the
/// GEMM nor the row loops ever mix columns, and both fix the operation
/// order per column — which is what makes the column-striped parallel
/// variant bitwise identical to the serial one.
fn substitute_rows_slice(lu: &Matrix, data: &mut [f64], w: usize, nb: usize) {
    let n = lu.nrows();
    let l = lu.as_slice();
    // Forward: L y = P b.
    for (i0, i1) in diag_blocks(n, nb) {
        let (solved, block) = data.split_at_mut(i0 * w);
        let dims = Dims {
            m: i1 - i0,
            k: i0,
            n: w,
        };
        gemm_acc(
            Update::Sub,
            Lhs::View(View::at(l, n, i0, 0)),
            View::at(solved, w, 0, 0),
            dims,
            block,
            w,
            0,
            1,
        );
        for i in i0 + 1..i1 {
            let (above, current) = data.split_at_mut(i * w);
            let xi = &mut current[..w];
            let lrow = lu.row(i);
            for (j, xj) in above.chunks_exact(w).enumerate().skip(i0) {
                let lij = lrow[j];
                if lij != 0.0 {
                    for (x, &y) in xi.iter_mut().zip(xj) {
                        *x -= lij * y;
                    }
                }
            }
        }
    }
    // Backward: U x = y.
    for (i0, i1) in diag_blocks(n, nb).rev() {
        let (head, solved) = data.split_at_mut(i1 * w);
        let dims = Dims {
            m: i1 - i0,
            k: n - i1,
            n: w,
        };
        gemm_acc(
            Update::Sub,
            Lhs::View(View::at(l, n, i0, i1)),
            View::at(solved, w, 0, 0),
            dims,
            &mut head[i0 * w..],
            w,
            0,
            1,
        );
        for i in (i0..i1).rev() {
            let (head, tail) = data.split_at_mut((i + 1) * w);
            let xi = &mut head[i * w..];
            let urow = lu.row(i);
            for (j, xj) in tail.chunks_exact(w).take(i1 - i - 1).enumerate() {
                let uij = urow[i + 1 + j];
                if uij != 0.0 {
                    for (x, &y) in xi.iter_mut().zip(xj) {
                        *x -= uij * y;
                    }
                }
            }
            let inv = 1.0 / urow[i];
            for x in xi.iter_mut() {
                *x *= inv;
            }
        }
    }
}

/// Column-striped parallel substitution: each scoped thread copies a
/// contiguous stripe of right-hand-side columns into a private
/// contiguous buffer, runs the blocked substitution there, and the
/// stripes are copied back. The per-column arithmetic is untouched, so
/// results are bitwise identical to the serial schedule at any worker
/// count.
///
/// `out` must hold `P·B` (the permuted right-hand side); on return it
/// holds `X`.
fn substitute_rows_threaded(lu: &Matrix, out: &mut Matrix, workers: usize) {
    let n = lu.nrows();
    let w = out.ncols();
    let workers = workers.max(1).min(w);
    // The block size follows the whole right-hand side, not a stripe.
    let nb = solve_block_size(n, w, MIN_BLOCKED_COLS);
    if workers <= 1 {
        substitute_rows_slice(lu, out.as_mut_slice(), w, nb);
        return;
    }
    let bounds = crate::threading::partition_blocks(w, workers);
    let mut stripes: Vec<(usize, usize, Vec<f64>)> = bounds
        .windows(2)
        .map(|b| {
            let (c0, c1) = (b[0], b[1]);
            let wt = c1 - c0;
            let mut buf = vec![0.0; n * wt];
            for i in 0..n {
                buf[i * wt..(i + 1) * wt].copy_from_slice(&out.row(i)[c0..c1]);
            }
            (c0, c1, buf)
        })
        .collect();
    std::thread::scope(|scope| {
        for (c0, c1, buf) in stripes.iter_mut() {
            let wt = *c1 - *c0;
            scope.spawn(move || substitute_rows_slice(lu, buf, wt, nb));
        }
    });
    for (c0, c1, buf) in &stripes {
        let wt = c1 - c0;
        for i in 0..n {
            out.row_mut(i)[*c0..*c1].copy_from_slice(&buf[i * wt..(i + 1) * wt]);
        }
    }
}

/// Borrowed factored data of a [`LuWorkspace`], as the left-solve
/// kernels read it.
#[derive(Debug, Clone, Copy)]
struct Factors<'a> {
    lu: &'a Matrix,
    /// `luᵀ`, for unit-stride dot products in the diagonal blocks.
    lut: &'a Matrix,
    perm: &'a [usize],
    row_scale: &'a [f64],
    col_scale: &'a [f64],
    equilibrated: bool,
}

/// Blocked left solve `X·A = B` for a run of right-hand-side rows:
/// `b` and `x` are row-major, `n` wide; `y` is a length-`n` scratch;
/// `nb` is the diagonal block size ([`block_size`], or `n` for the
/// unblocked loops).
///
/// `x·A = b ⇔ Aᵀ·xᵀ = bᵀ`: forward on `Uᵀ`, backward on `Lᵀ`, both in
/// place in `x`, then a scatter through `P`. Per diagonal column block
/// the columns already solved are folded in by one GEMM (`U` and `L`
/// read row-wise from `lu`), then each row runs the dot-product loop on
/// `lut`. For equilibrated factors (`x·R⁻¹AₛC⁻¹ = b`) the right-hand
/// side is prescaled by the column scales on the way in and the
/// solution postscaled by the row scales on the way out.
///
/// Rows never mix, which is what makes the row-partitioned parallel
/// variant bitwise identical to the serial one.
fn solve_left_rows(f: Factors<'_>, nb: usize, b: &[f64], x: &mut [f64], y: &mut [f64]) {
    let n = f.lut.nrows();
    if n == 0 {
        return;
    }
    let rows = x.len() / n;
    if f.equilibrated {
        for (xr, br) in x.chunks_exact_mut(n).zip(b.chunks_exact(n)) {
            for ((v, &bv), &c) in xr.iter_mut().zip(br).zip(f.col_scale) {
                *v = bv * c;
            }
        }
    } else {
        x.copy_from_slice(b);
    }
    let l = f.lu.as_slice();
    for (j0, j1) in diag_blocks(n, nb) {
        let dims = Dims {
            m: rows,
            k: j0,
            n: j1 - j0,
        };
        gemm_acc(
            Update::Sub,
            Lhs::Out { col0: 0 },
            View::at(l, n, 0, j0),
            dims,
            x,
            n,
            j0,
            1,
        );
        for xr in x.chunks_exact_mut(n) {
            for i in j0..j1 {
                let row = f.lut.row(i);
                let mut acc = xr[i];
                for (&u, &yj) in row[j0..i].iter().zip(&xr[j0..i]) {
                    acc -= u * yj;
                }
                xr[i] = acc / row[i];
            }
        }
    }
    for (j0, j1) in diag_blocks(n, nb).rev() {
        let dims = Dims {
            m: rows,
            k: n - j1,
            n: j1 - j0,
        };
        gemm_acc(
            Update::Sub,
            Lhs::Out { col0: j1 },
            View::at(l, n, j1, j0),
            dims,
            x,
            n,
            j0,
            1,
        );
        for xr in x.chunks_exact_mut(n) {
            for i in (j0..j1).rev() {
                let row = f.lut.row(i);
                let mut acc = xr[i];
                for (&l, &zj) in row[i + 1..j1].iter().zip(&xr[i + 1..j1]) {
                    acc -= l * zj;
                }
                xr[i] = acc;
            }
        }
    }
    for xr in x.chunks_exact_mut(n) {
        y.copy_from_slice(xr);
        if f.equilibrated {
            for (i, &p) in f.perm.iter().enumerate() {
                xr[p] = y[i] * f.row_scale[p];
            }
        } else {
            for (i, &p) in f.perm.iter().enumerate() {
                xr[p] = y[i];
            }
        }
    }
}

/// Single right-hand-side solve `A · x = b` against factored data.
fn solve_vec_with(lu: &Matrix, perm: &[usize], b: &[f64], x: &mut [f64]) {
    for (i, &p) in perm.iter().enumerate() {
        x[i] = b[p];
    }
    substitute_vec_in_place(lu, x);
}

/// Forward/backward substitution for a single right-hand side whose
/// rows are already permuted (and, for equilibrated factors, scaled).
fn substitute_vec_in_place(lu: &Matrix, x: &mut [f64]) {
    let n = lu.nrows();
    for i in 1..n {
        let (solved, current) = x.split_at_mut(i);
        let mut acc = current[0];
        for (&lij, &xj) in lu.row(i)[..i].iter().zip(solved.iter()) {
            acc -= lij * xj;
        }
        current[0] = acc;
    }
    for i in (0..n).rev() {
        let (current, solved) = x.split_at_mut(i + 1);
        let row = lu.row(i);
        let mut acc = current[i];
        for (&uij, &xj) in row[i + 1..].iter().zip(solved.iter()) {
            acc -= uij * xj;
        }
        current[i] = acc / row[i];
    }
}

/// One Oettli–Prager term `|r| / (|A||X| + |B|)`; zero denominators with
/// zero residuals are exact, non-finite residuals are reported as
/// unbounded so a destroyed solve can never look converged.
#[inline]
fn omega_term(r: f64, denom: f64) -> f64 {
    if !r.is_finite() {
        f64::INFINITY
    } else if denom > 0.0 {
        (r / denom).abs()
    } else if r == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// The side a solve acts on: `A·X = B` (right) or `X·A = B` (left).
#[derive(Debug, Clone, Copy)]
enum Side {
    Right,
    Left,
}

/// Writes the residual `R = B − A·X` (right) or `R = B − X·A` (left)
/// into `resid` using compensated (twice-working-precision) dot products
/// and returns the componentwise backward error
/// `ω = maxᵢⱼ |R|ᵢⱼ / (|A|·|X| + |B|)ᵢⱼ` (`|X|·|A|` on the left).
fn residual_omega(side: Side, a: &Matrix, x: &Matrix, b: &Matrix, resid: &mut Matrix) -> f64 {
    let mut omega = 0.0_f64;
    for i in 0..b.nrows() {
        // Row i of the product: row i of its first factor times the second.
        let (row, second) = match side {
            Side::Right => (a.row(i), x),
            Side::Left => (x.row(i), a),
        };
        for j in 0..b.ncols() {
            let bij = b[(i, j)];
            let mut acc = Accumulator::new();
            acc.add(bij);
            let mut denom = bij.abs();
            for (k, &p) in row.iter().enumerate() {
                let q = second[(k, j)];
                acc.add_product(-p, q);
                denom += p.abs() * q.abs();
            }
            let r = acc.value();
            resid[(i, j)] = r;
            omega = omega.max(omega_term(r, denom));
        }
    }
    omega
}

/// Hager-style lower-bound estimate of `‖A⁻¹‖₁` on factored data
/// (Hager 1984, as refined by Higham): a handful of forward/adjoint
/// solves, `O(k·n²)` instead of the `O(n³)` of an explicit inverse.
///
/// The adjoint solves run unblocked on the transposed factors; `f` must
/// be unscaled, so the estimate describes the system the substitutions
/// run on.
fn inverse_norm_one_estimate(f: Factors<'_>) -> f64 {
    let n = f.lu.nrows();
    if n == 0 {
        return 0.0;
    }
    // Start from the averaging vector; at most 5 refinement sweeps
    // (Higham's estimator almost always converges in 2).
    let mut x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let mut sign = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut estimate = 0.0;
    let mut visited = vec![false; n];
    for _ in 0..5 {
        solve_vec_with(f.lu, f.perm, &x, &mut y);
        estimate = y.iter().map(|v| v.abs()).sum();
        if !estimate.is_finite() {
            return f64::INFINITY;
        }
        // ξ = sign(y); solve z·A = ξ as a row system.
        for (s, &v) in sign.iter_mut().zip(&y) {
            *s = if v >= 0.0 { 1.0 } else { -1.0 };
        }
        solve_left_rows(f, n, &sign, &mut z, &mut y);
        if !z.iter().all(|v| v.is_finite()) {
            return f64::INFINITY;
        }
        let (mut j_max, mut z_max) = (0, 0.0);
        for (j, &zj) in z.iter().enumerate() {
            if zj.abs() > z_max {
                z_max = zj.abs();
                j_max = j;
            }
        }
        // Converged when the dual norm stops growing, or when the
        // estimator revisits a unit vector (it would cycle).
        let zx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        if z_max <= zx || visited[j_max] {
            break;
        }
        visited[j_max] = true;
        x.fill(0.0);
        x[j_max] = 1.0;
    }
    estimate
}

/// An LU factorization `P·A = L·U` with partial pivoting, in reusable
/// storage: factor into the workspace's buffers, solve many right-hand
/// sides, re-factor the next matrix — all without heap allocation after
/// construction.
///
/// This is the one LU type: the QBD fixed-point loops factor a fresh
/// system into it every iteration, and one-shot solves (stationary
/// vectors, moments, the boundary system) allocate one, factor and
/// solve. Besides the combined factors it keeps a transposed copy so
/// left (row-vector) solves read unit-stride data.
///
/// # Example
///
/// ```
/// use performa_linalg::{lu::LuWorkspace, Matrix, Vector};
///
/// let mut ws = LuWorkspace::new(2);
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// ws.factor(&a)?;
///
/// // A x = b  =>  x = [1, 2]
/// let mut x = Vector::zeros(2);
/// ws.solve_vec_into(&Vector::from(vec![10.0, 12.0]), &mut x)?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
///
/// // Whole matrices of right-hand sides: A·X = I gives X = A⁻¹.
/// let mut inv = Matrix::zeros(2, 2);
/// ws.solve_mat_into(&Matrix::identity(2), &mut inv)?;
/// assert!((&a * &inv).max_abs_diff(&Matrix::identity(2)) < 1e-12);
/// # Ok::<(), performa_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LuWorkspace {
    /// Combined factors of the most recent [`LuWorkspace::factor`] call.
    lu: Matrix,
    /// Transposed factors, kept in sync for unit-stride left solves.
    lut: Matrix,
    perm: Vec<usize>,
    /// Per-row scratch for left solves.
    scratch: Vec<f64>,
    /// `L21` staging for the blocked factor ([`panel_len`]; empty when
    /// the matrix is a single diagonal block).
    panel: Vec<f64>,
    /// Row equilibration scales `r` (`Aₛ = R·A·C`); all ones when
    /// equilibration is off.
    row_scale: Vec<f64>,
    /// Column equilibration scales `c`.
    col_scale: Vec<f64>,
    equilibrated: bool,
    /// Unscaled copy of the factored matrix, kept by
    /// [`LuWorkspace::factor_hardened`] for the refined solves.
    retained: Option<Matrix>,
    /// Residual / correction buffers for refinement, grown on first use.
    refine_buf: Option<Box<(Matrix, Matrix)>>,
    a_norm1: f64,
    factored: bool,
}

impl LuWorkspace {
    /// Allocates workspace for `n × n` systems.
    pub fn new(n: usize) -> Self {
        LuWorkspace {
            lu: Matrix::zeros(n, n),
            lut: Matrix::zeros(n, n),
            perm: vec![0; n],
            scratch: vec![0.0; n],
            panel: vec![0.0; panel_len(n)],
            row_scale: vec![1.0; n],
            col_scale: vec![1.0; n],
            equilibrated: false,
            retained: None,
            refine_buf: None,
            a_norm1: 0.0,
            factored: false,
        }
    }

    /// Dimension of the systems this workspace holds.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Heap bytes owned by this workspace (for observability gauges).
    pub fn bytes(&self) -> usize {
        let n = self.dim();
        let f64s = std::mem::size_of::<f64>();
        let mat = |m: &Matrix| m.nrows() * m.ncols() * f64s;
        2 * n * n * f64s
            + n * std::mem::size_of::<usize>()
            + (4 * n + self.panel.len()) * f64s
            + self.retained.as_ref().map_or(0, mat)
            + self
                .refine_buf
                .as_ref()
                .map_or(0, |b| mat(&b.0) + mat(&b.1))
    }

    /// Factors `a` into the workspace, replacing any previous factors —
    /// the plain factorization every solve path starts with.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not `dim() × dim()`.
    /// * [`LinalgError::Singular`] on an exactly zero pivot; the
    ///   workspace is left unfactored.
    pub fn factor(&mut self, a: &Matrix) -> Result<()> {
        self.factor_impl(a, false)
    }

    /// The hardened factorization: factors `Aₛ = R·A·C` (rows, then
    /// columns scaled to unit max-norm) and keeps an unscaled copy of
    /// `a`.
    ///
    /// Equilibration tames the wild row scales of stiff generators (TPT
    /// stage rates spanning `p³²`) that otherwise distort partial
    /// pivoting; every solve undoes the scaling, so callers see
    /// solutions of the original system. The copy lets the
    /// `*_refined_into` solves iterate against the true residual.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::factor`].
    pub fn factor_hardened(&mut self, a: &Matrix) -> Result<()> {
        self.factor_impl(a, true)
    }

    fn factor_impl(&mut self, a: &Matrix, hardened: bool) -> Result<()> {
        let n = self.dim();
        if a.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "LuWorkspace::factor",
                left: (n, n),
                right: a.shape(),
            });
        }
        let started = performa_obs::timing_active().then(std::time::Instant::now);
        self.factored = false;
        self.lu.copy_from(a);
        if hardened {
            match &mut self.retained {
                Some(r) => r.copy_from(a),
                slot => *slot = Some(a.clone()),
            }
            self.equilibrate_in_place();
        } else {
            self.retained = None;
            self.equilibrated = false;
            self.row_scale.fill(1.0);
            self.col_scale.fill(1.0);
        }
        // Norm of the matrix actually factored, so the condition
        // estimate describes the system substitution runs on.
        self.a_norm1 = self.lu.norm_one();
        factor_in_place(&mut self.lu, &mut self.perm, &mut self.panel)?;
        self.lu.transpose_into(&mut self.lut);
        self.factored = true;
        if let Some(t0) = started {
            performa_obs::histogram_record("linalg.lu.factor_s", t0.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Scales `self.lu` to unit max-norm rows, then unit max-norm
    /// columns, recording the scales for the solve paths. Rows or
    /// columns that are all zero (or non-finite) keep scale 1 so the
    /// singularity surfaces in elimination instead of here.
    fn equilibrate_in_place(&mut self) {
        let n = self.dim();
        for i in 0..n {
            let row = self.lu.row_mut(i);
            let max = row.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
            let r = if max > 0.0 && max.is_finite() {
                1.0 / max
            } else {
                1.0
            };
            self.row_scale[i] = r;
            if r != 1.0 {
                for v in row.iter_mut() {
                    *v *= r;
                }
            }
        }
        self.col_scale.fill(0.0);
        for i in 0..n {
            for (m, &v) in self.col_scale.iter_mut().zip(self.lu.row(i)) {
                *m = m.max(v.abs());
            }
        }
        for c in &mut self.col_scale {
            *c = if *c > 0.0 && c.is_finite() { 1.0 / *c } else { 1.0 };
        }
        for i in 0..n {
            for (v, &c) in self.lu.row_mut(i).iter_mut().zip(&self.col_scale) {
                if c != 1.0 {
                    *v *= c;
                }
            }
        }
        self.equilibrated = true;
    }

    /// Whether the current factorization is the hardened one
    /// ([`LuWorkspace::factor_hardened`]).
    pub fn is_hardened(&self) -> bool {
        self.equilibrated
    }

    fn require_factored(&self, op: &'static str) -> Result<()> {
        if self.factored {
            Ok(())
        } else {
            Err(LinalgError::InvalidArgument {
                message: format!("{op}: workspace holds no factorization"),
            })
        }
    }

    /// Solves `A · X = B` into `out` (row-blocked; allocation-free when
    /// serial).
    ///
    /// Large right-hand sides run the substitution on the process-wide
    /// kernel thread count ([`crate::threading::threads`]); parallel
    /// results are bitwise identical to serial.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on shape disagreement;
    /// [`LinalgError::InvalidArgument`] if nothing has been factored.
    pub fn solve_mat_into(&self, b: &Matrix, out: &mut Matrix) -> Result<()> {
        self.solve_mat_into_threaded(b, out, solve_workers(self.dim(), b.ncols()))
    }

    /// [`LuWorkspace::solve_mat_into`] with an explicit worker count,
    /// bypassing both the process-wide setting and the size threshold.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_into`].
    pub fn solve_mat_into_threaded(
        &self,
        b: &Matrix,
        out: &mut Matrix,
        workers: usize,
    ) -> Result<()> {
        self.require_factored("solve_mat_into")?;
        let n = self.dim();
        if b.nrows() != n || out.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_mat_into",
                left: b.shape(),
                right: out.shape(),
            });
        }
        for (i, &p) in self.perm.iter().enumerate() {
            out.row_mut(i).copy_from_slice(b.row(p));
            if self.equilibrated {
                let r = self.row_scale[p];
                for v in out.row_mut(i).iter_mut() {
                    *v *= r;
                }
            }
        }
        substitute_rows_threaded(&self.lu, out, workers);
        if self.equilibrated {
            for (i, &c) in self.col_scale.iter().enumerate() {
                for v in out.row_mut(i).iter_mut() {
                    *v *= c;
                }
            }
        }
        Ok(())
    }

    /// Solves `X · A = B` into `out` (uses the transposed factors so
    /// every inner product is unit-stride; allocation-free when serial).
    ///
    /// Large right-hand sides distribute independent rows over the
    /// process-wide kernel thread count
    /// ([`crate::threading::threads`]); parallel results are bitwise
    /// identical to serial.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_into`].
    pub fn solve_left_mat_into(&mut self, b: &Matrix, out: &mut Matrix) -> Result<()> {
        self.solve_left_mat_into_threaded(b, out, solve_workers(self.dim(), b.nrows()))
    }

    /// [`LuWorkspace::solve_left_mat_into`] with an explicit worker
    /// count, bypassing both the process-wide setting and the size
    /// threshold.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_into`].
    pub fn solve_left_mat_into_threaded(
        &mut self,
        b: &Matrix,
        out: &mut Matrix,
        workers: usize,
    ) -> Result<()> {
        self.require_factored("solve_left_mat_into")?;
        let n = self.dim();
        if b.ncols() != n || out.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_left_mat_into",
                left: b.shape(),
                right: out.shape(),
            });
        }
        let rows = b.nrows();
        let workers = workers.max(1).min(rows);
        let nb = solve_block_size(n, rows, MIN_BLOCKED_ROWS);
        if workers <= 1 {
            let mut y = std::mem::take(&mut self.scratch);
            solve_left_rows(self.factors(), nb, b.as_slice(), out.as_mut_slice(), &mut y);
            self.scratch = y;
            return Ok(());
        }
        let f = self.factors();
        // Each output row is produced by exactly one thread running the
        // same blocked routine as the serial path; rows never mix, so the
        // parallel split cannot change any result bits.
        let bounds = crate::threading::partition_blocks(rows, workers);
        let mut regions: Vec<(&[f64], &mut [f64])> = Vec::with_capacity(bounds.len() - 1);
        let mut rest = out.as_mut_slice();
        for w in bounds.windows(2) {
            let (head, tail) = rest.split_at_mut((w[1] - w[0]) * n);
            regions.push((&b.as_slice()[w[0] * n..w[1] * n], head));
            rest = tail;
        }
        std::thread::scope(|scope| {
            for (b_rows, x_rows) in regions {
                scope.spawn(move || {
                    let mut scratch = vec![0.0; n];
                    solve_left_rows(f, nb, b_rows, x_rows, &mut scratch);
                });
            }
        });
        Ok(())
    }

    /// The factored data as the left-solve kernels read it.
    fn factors(&self) -> Factors<'_> {
        Factors {
            lu: &self.lu,
            lut: &self.lut,
            perm: &self.perm,
            row_scale: &self.row_scale,
            col_scale: &self.col_scale,
            equilibrated: self.equilibrated,
        }
    }

    /// Solves `x · A = b` (row-vector system) into `out` — the natural
    /// direction for stationary-vector computations (allocation-free).
    ///
    /// One row runs the unblocked dot-product loops on the transposed
    /// factors: the same operations, in the same order, as a
    /// column-wise solve on the factors themselves.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_into`].
    pub fn solve_left_vec_into(&mut self, b: &Vector, out: &mut Vector) -> Result<()> {
        self.require_factored("solve_left_vec_into")?;
        let n = self.dim();
        if b.len() != n || out.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_left_vec_into",
                left: (1, b.len()),
                right: (1, out.len()),
            });
        }
        let mut y = std::mem::take(&mut self.scratch);
        solve_left_rows(self.factors(), n, b.as_slice(), out.as_mut_slice(), &mut y);
        self.scratch = y;
        Ok(())
    }

    /// Solves `A · x = b` into `out` (allocation-free).
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_into`].
    pub fn solve_vec_into(&self, b: &Vector, out: &mut Vector) -> Result<()> {
        self.require_factored("solve_vec_into")?;
        let n = self.dim();
        if b.len() != n || out.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_vec_into",
                left: (b.len(), 1),
                right: (out.len(), 1),
            });
        }
        let x = out.as_mut_slice();
        let bs = b.as_slice();
        if self.equilibrated {
            for (i, &p) in self.perm.iter().enumerate() {
                x[i] = bs[p] * self.row_scale[p];
            }
            substitute_vec_in_place(&self.lu, x);
            for (xi, &c) in x.iter_mut().zip(&self.col_scale) {
                *xi *= c;
            }
        } else {
            solve_vec_with(&self.lu, &self.perm, bs, x);
        }
        Ok(())
    }

    /// Takes (or grows) the residual/correction buffers for a
    /// refinement pass over a `rows × cols` right-hand side.
    fn take_refine_buf(&mut self, rows: usize, cols: usize) -> Box<(Matrix, Matrix)> {
        match self.refine_buf.take() {
            Some(b) if b.0.shape() == (rows, cols) => b,
            _ => Box::new((Matrix::zeros(rows, cols), Matrix::zeros(rows, cols))),
        }
    }

    /// Temporarily removes the retained original matrix so refinement
    /// can solve corrections through `&self` without aliasing it.
    fn take_retained(&mut self, op: &'static str) -> Result<Matrix> {
        self.retained.take().ok_or_else(|| LinalgError::InvalidArgument {
            message: format!("{op}: refinement requires a hardened factorization"),
        })
    }

    /// Solves `A · X = B` and iteratively refines the result against the
    /// retained original system until the Oettli–Prager componentwise
    /// backward error reaches [`REFINE_TOL`] or stalls.
    ///
    /// Residuals are computed in twice working precision (FMA product
    /// splitting + Neumaier accumulation); a correction step is kept
    /// only if it strictly improves the backward error, so the refined
    /// answer is never worse than the plain solve. The final error is
    /// published on the `linalg.refine_residual` gauge.
    ///
    /// # Errors
    ///
    /// As [`LuWorkspace::solve_mat_into`], plus
    /// [`LinalgError::InvalidArgument`] when the factorization was not
    /// made by [`LuWorkspace::factor_hardened`].
    pub fn solve_mat_refined_into(&mut self, b: &Matrix, out: &mut Matrix) -> Result<RefineStats> {
        self.solve_refined_into(Side::Right, b, out)
    }

    /// Left-system counterpart of
    /// [`LuWorkspace::solve_mat_refined_into`]: solves `X · A = B` and
    /// refines against the retained original system.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_refined_into`].
    pub fn solve_left_mat_refined_into(
        &mut self,
        b: &Matrix,
        out: &mut Matrix,
    ) -> Result<RefineStats> {
        self.solve_refined_into(Side::Left, b, out)
    }

    fn solve_side_into(&mut self, side: Side, b: &Matrix, out: &mut Matrix) -> Result<()> {
        match side {
            Side::Right => self.solve_mat_into(b, out),
            Side::Left => self.solve_left_mat_into(b, out),
        }
    }

    fn solve_refined_into(
        &mut self,
        side: Side,
        b: &Matrix,
        out: &mut Matrix,
    ) -> Result<RefineStats> {
        self.solve_side_into(side, b, out)?;
        let a = self.take_retained(match side {
            Side::Right => "solve_mat_refined_into",
            Side::Left => "solve_left_mat_refined_into",
        })?;
        let mut bufs = self.take_refine_buf(b.nrows(), b.ncols());
        let (resid, corr) = &mut *bufs;
        let initial = residual_omega(side, &a, out, b, resid);
        let mut omega = initial;
        let mut iterations = 0;
        while omega > REFINE_TOL && iterations < REFINE_MAX_ITERS {
            if self.solve_side_into(side, resid, corr).is_err() {
                break;
            }
            *out += &*corr;
            let improved = residual_omega(side, &a, out, b, resid);
            if improved < omega {
                omega = improved;
                iterations += 1;
            } else {
                *out -= &*corr;
                break;
            }
        }
        self.retained = Some(a);
        self.refine_buf = Some(bufs);
        performa_obs::gauge_set("linalg.refine_residual", omega);
        Ok(RefineStats {
            iterations,
            initial_backward_error: initial,
            backward_error: omega,
            converged: omega <= REFINE_TOL,
        })
    }

    /// Cheap 1-norm condition-number estimate `κ₁(A) ≈ ‖A‖₁·‖A⁻¹‖₁` of
    /// the factored matrix.
    ///
    /// `‖A⁻¹‖₁` comes from a handful of forward/adjoint solves on the
    /// existing factors (Hager 1984, as refined by Higham) — `O(k·n²)`
    /// instead of the `O(n³)` an explicit inverse would cost. The result
    /// is a lower bound that is almost always within a small factor of
    /// the true `κ₁`, and `f64::INFINITY` when the factors have decayed
    /// to non-finite values (numerically destroyed systems). For a
    /// hardened factorization it describes the scaled system that
    /// substitution actually runs on.
    ///
    /// Allocates a few length-`n` scratch vectors — intended for
    /// per-solve diagnostics, not the per-iteration hot path.
    pub fn condition_estimate(&self) -> f64 {
        if self.dim() == 0 || !self.factored {
            return 1.0;
        }
        let f = Factors {
            equilibrated: false,
            ..self.factors()
        };
        let kappa = self.a_norm1 * inverse_norm_one_estimate(f);
        performa_obs::histogram_record("linalg.lu.condition", kappa);
        kappa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn factored(a: &Matrix) -> LuWorkspace {
        let mut ws = LuWorkspace::new(a.nrows());
        ws.factor(a).unwrap();
        ws
    }

    fn solve(ws: &LuWorkspace, b: &Vector) -> Vector {
        let mut x = Vector::zeros(b.len());
        ws.solve_vec_into(b, &mut x).unwrap();
        x
    }

    fn solve_left(ws: &mut LuWorkspace, b: &Vector) -> Vector {
        let mut x = Vector::zeros(b.len());
        ws.solve_left_vec_into(b, &mut x).unwrap();
        x
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&factored(&a), &Vector::from(vec![5.0, 10.0]));
        assert!(approx(x[0], 1.0, 1e-12));
        assert!(approx(x[1], 3.0, 1e-12));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&factored(&a), &Vector::from(vec![2.0, 3.0]));
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn singular_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            LuWorkspace::new(2).factor(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn wrong_shape_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuWorkspace::new(2).factor(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[
            &[4.0, 2.0, 0.5],
            &[2.0, 5.0, 1.0],
            &[0.5, 1.0, 3.0],
        ]);
        let mut ainv = Matrix::zeros(3, 3);
        factored(&a)
            .solve_mat_into(&Matrix::identity(3), &mut ainv)
            .unwrap();
        let prod = &a * &ainv;
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn left_solve_matches_transpose_solve() {
        let a = Matrix::from_rows(&[
            &[3.0, 1.0, 0.0],
            &[1.0, 4.0, 2.0],
            &[0.0, 2.0, 5.0],
        ]);
        let b = Vector::from(vec![1.0, 2.0, 3.0]);
        let x = solve_left(&mut factored(&a), &b);
        // Verify x·A = b directly.
        let xa = a.vec_mul(&x);
        assert!(xa.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn left_solve_with_pivoting() {
        let a = Matrix::from_rows(&[
            &[0.0, 2.0, 1.0],
            &[1.0, 0.0, 3.0],
            &[4.0, 1.0, 0.0],
        ]);
        let b = Vector::from(vec![5.0, -1.0, 2.5]);
        let x = solve_left(&mut factored(&a), &b);
        assert!(a.vec_mul(&x).max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn solve_mat_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[8.0, 12.0]]);
        let mut x = Matrix::zeros(2, 2);
        factored(&a).solve_mat_into(&b, &mut x).unwrap();
        assert_eq!(x, Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]));
    }

    #[test]
    fn solve_mat_with_pivoting_matches_column_solves() {
        let a = Matrix::from_rows(&[
            &[0.0, 2.0, 1.0],
            &[1.0, 0.0, 3.0],
            &[4.0, 1.0, 0.0],
        ]);
        let b = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64 / 7.0 - 1.0);
        let ws = factored(&a);
        let mut x = Matrix::zeros(3, 5);
        ws.solve_mat_into(&b, &mut x).unwrap();
        for j in 0..5 {
            let col = solve(&ws, &b.col(j));
            for i in 0..3 {
                assert!(approx(x[(i, j)], col[i], 1e-13), "({i},{j})");
            }
        }
        assert!((&a * &x).max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn solve_left_mat_rows_match_vector_solves() {
        let a = Matrix::from_fn(8, 8, |i, j| {
            let h = ((i * 13 + j * 29 + 3) % 41) as f64 / 41.0 - 0.5;
            if i == j {
                h + 9.0
            } else {
                h
            }
        });
        let b = Matrix::from_fn(5, 8, |i, j| ((i * j) % 7) as f64 - 3.0);
        let mut ws = factored(&a);
        let mut x = Matrix::zeros(5, 8);
        ws.solve_left_mat_into(&b, &mut x).unwrap();
        assert!((&x * &a).max_abs_diff(&b) < 1e-12);
        for i in 0..5 {
            let row = solve_left(&mut ws, &Vector::from(b.row(i).to_vec()));
            assert_eq!(row.as_slice(), x.row(i), "row {i}");
        }
    }

    #[test]
    fn shape_mismatch_reported() {
        let mut ws = factored(&Matrix::identity(2));
        assert!(matches!(
            ws.solve_vec_into(&Vector::zeros(3), &mut Vector::zeros(2)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            ws.solve_left_vec_into(&Vector::zeros(3), &mut Vector::zeros(2)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            ws.solve_mat_into(&Matrix::zeros(3, 2), &mut Matrix::zeros(3, 2)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            ws.solve_left_mat_into(&Matrix::zeros(2, 3), &mut Matrix::zeros(2, 3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn condition_estimate_identity_is_one() {
        let ws = factored(&Matrix::identity(4));
        assert!((ws.condition_estimate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn condition_estimate_tracks_true_kappa_for_diagonal() {
        // diag(1, 1e-6): kappa_1 = 1e6 exactly; Hager recovers it.
        let k = factored(&Matrix::diag(&[1.0, 1e-6])).condition_estimate();
        assert!((k - 1e6).abs() < 1.0, "kappa estimate {k}");
    }

    #[test]
    fn condition_estimate_is_a_lower_bound_near_singularity() {
        // Nearly dependent rows: true condition number is huge.
        let eps = 1e-10;
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + eps]]);
        let k = factored(&a).condition_estimate();
        assert!(k > 1e9, "kappa estimate {k} should explode");

        // A comfortably conditioned matrix stays small.
        let good = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let kg = factored(&good).condition_estimate();
        assert!(kg < 10.0, "kappa estimate {kg} should be modest");
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic pseudo-random matrix, diagonally dominated so it is
        // comfortably non-singular.
        let n = 25;
        let a = Matrix::from_fn(n, n, |i, j| {
            let h = ((i * 31 + j * 17 + 7) % 97) as f64 / 97.0 - 0.5;
            if i == j {
                h + (n as f64)
            } else {
                h
            }
        });
        let x_true = Vector::from((0..n).map(|i| (i as f64) / 3.0 - 1.0).collect::<Vec<_>>());
        let b = a.mul_vec(&x_true);
        let x = solve(&factored(&a), &b);
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn workspace_factors_and_solves_repeatedly() {
        let mut ws = LuWorkspace::new(3);
        // Unfactored use is a typed error, not junk data.
        assert!(matches!(
            ws.solve_mat_into(&Matrix::identity(3), &mut Matrix::zeros(3, 3)),
            Err(LinalgError::InvalidArgument { .. })
        ));

        let systems = [
            Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 3.0], &[4.0, 1.0, 0.0]]),
            Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 5.0, 1.0], &[0.0, 1.0, 5.0]]),
        ];
        let b = Matrix::from_fn(3, 4, |i, j| (i + 2 * j) as f64 - 2.5);
        let bl = Matrix::from_fn(4, 3, |i, j| (2 * i + j) as f64 - 3.5);
        let mut x = Matrix::zeros(3, 4);
        let mut xl = Matrix::zeros(4, 3);
        for a in &systems {
            ws.factor(a).unwrap();
            ws.solve_mat_into(&b, &mut x).unwrap();
            assert!((a * &x).max_abs_diff(&b) < 1e-12);
            ws.solve_left_mat_into(&bl, &mut xl).unwrap();
            assert!((&xl * a).max_abs_diff(&bl) < 1e-12);
        }
        assert!(ws.bytes() > 0);
    }

    /// Badly row- and column-scaled but intrinsically benign system:
    /// `D₁·Q·D₂` with orthogonal-ish `Q` and scales spanning 1e±8.
    fn wildly_scaled(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let q = ((i * 37 + j * 11 + 5) % 19) as f64 / 19.0 - 0.5;
            let base = if i == j { q + 2.0 } else { q };
            let r = 10f64.powi((i as i32 % 5) * 4 - 8);
            let c = 10f64.powi(8 - (j as i32 % 5) * 4);
            base * r * c
        })
    }

    #[test]
    fn hardened_solves_match_plain_on_benign_systems() {
        // On a well-scaled matrix equilibration must not change answers
        // beyond roundoff, in any solve direction.
        let a = Matrix::from_rows(&[
            &[0.0, 2.0, 1.0],
            &[1.0, 0.0, 3.0],
            &[4.0, 1.0, 0.0],
        ]);
        let b = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 - 4.0);
        let bv = Vector::from(vec![1.0, -2.0, 0.5]);

        let mut plain = LuWorkspace::new(3);
        let mut eq = LuWorkspace::new(3);
        plain.factor(&a).unwrap();
        eq.factor_hardened(&a).unwrap();
        assert!(eq.is_hardened());
        assert!(!plain.is_hardened());

        let (mut x1, mut x2) = (Matrix::zeros(3, 3), Matrix::zeros(3, 3));
        plain.solve_mat_into(&b, &mut x1).unwrap();
        eq.solve_mat_into(&b, &mut x2).unwrap();
        assert!(x1.max_abs_diff(&x2) < 1e-12);

        plain.solve_left_mat_into(&b, &mut x1).unwrap();
        eq.solve_left_mat_into(&b, &mut x2).unwrap();
        assert!(x1.max_abs_diff(&x2) < 1e-12);

        assert!(solve(&plain, &bv).max_abs_diff(&solve(&eq, &bv)) < 1e-12);
        assert!(solve_left(&mut plain, &bv).max_abs_diff(&solve_left(&mut eq, &bv)) < 1e-12);
    }

    #[test]
    fn equilibration_solves_wildly_scaled_systems() {
        let n = 12;
        let a = wildly_scaled(n);
        let x_true = Matrix::from_fn(n, 2, |i, j| (i + j) as f64 / 5.0 - 1.0);
        let b = &a * &x_true;
        let mut ws = LuWorkspace::new(n);
        ws.factor_hardened(&a).unwrap();
        let mut x = Matrix::zeros(n, 2);
        ws.solve_mat_into(&b, &mut x).unwrap();
        // Residual relative to the data scale, not the (huge) solution.
        let back = &a * &x;
        assert!(back.max_abs_diff(&b) <= 1e-8 * b.norm_inf());

        // Left direction on the same factors.
        let xl_true = Matrix::from_fn(2, n, |i, j| (2 * i + j) as f64 / 7.0 - 0.5);
        let bl = &xl_true * &a;
        let mut xl = Matrix::zeros(2, n);
        ws.solve_left_mat_into(&bl, &mut xl).unwrap();
        assert!((&xl * &a).max_abs_diff(&bl) <= 1e-8 * bl.norm_inf());
    }

    #[test]
    fn refined_solve_requires_hardened_factor() {
        let mut ws = factored(&Matrix::identity(2));
        let b = Matrix::identity(2);
        let mut x = Matrix::zeros(2, 2);
        assert!(matches!(
            ws.solve_mat_refined_into(&b, &mut x),
            Err(LinalgError::InvalidArgument { .. })
        ));
        // A plain factor after a hardened one drops the retained copy.
        ws.factor_hardened(&Matrix::identity(2)).unwrap();
        ws.solve_mat_refined_into(&b, &mut x).unwrap();
        ws.factor(&Matrix::identity(2)).unwrap();
        assert!(matches!(
            ws.solve_left_mat_refined_into(&b, &mut x),
            Err(LinalgError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn refinement_reaches_working_precision_on_scaled_system() {
        let n = 10;
        let a = wildly_scaled(n);
        let x_true = Matrix::from_fn(n, 1, |i, _| (i as f64 + 1.0) / 3.0);
        let b = &a * &x_true;
        let mut ws = LuWorkspace::new(n);
        ws.factor_hardened(&a).unwrap();
        let mut x = Matrix::zeros(n, 1);
        let stats = ws.solve_mat_refined_into(&b, &mut x).unwrap();
        assert!(
            stats.backward_error <= stats.initial_backward_error,
            "refinement made things worse: {stats:?}"
        );
        assert!(stats.converged, "no convergence: {stats:?}");
        assert!(stats.backward_error <= REFINE_TOL);
    }

    #[test]
    fn left_refinement_certifies_boundary_style_solves() {
        let n = 9;
        let a = wildly_scaled(n);
        let b = Matrix::from_fn(1, n, |_, j| (j as f64) / 4.0 - 1.0);
        let mut ws = LuWorkspace::new(n);
        ws.factor_hardened(&a).unwrap();
        let mut x = Matrix::zeros(1, n);
        let stats = ws.solve_left_mat_refined_into(&b, &mut x).unwrap();
        assert!(stats.converged, "left refinement stalled: {stats:?}");
    }

    #[test]
    fn workspace_singular_factor_reports_and_stays_unfactored() {
        let mut ws = LuWorkspace::new(2);
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            ws.factor(&singular),
            Err(LinalgError::Singular { .. })
        ));
        assert!(matches!(
            ws.solve_mat_into(&Matrix::identity(2), &mut Matrix::zeros(2, 2)),
            Err(LinalgError::InvalidArgument { .. })
        ));
        assert!(matches!(
            ws.solve_left_vec_into(&Vector::zeros(2), &mut Vector::zeros(2)),
            Err(LinalgError::InvalidArgument { .. })
        ));
        // Recovers with a good matrix.
        ws.factor(&Matrix::identity(2)).unwrap();
        let mut x = Matrix::zeros(2, 2);
        ws.solve_mat_into(&Matrix::identity(2), &mut x).unwrap();
        assert!(x.max_abs_diff(&Matrix::identity(2)) < 1e-15);
    }
}
