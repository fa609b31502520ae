//! Kernel thread-count configuration for the parallel compute kernels.
//!
//! `performa-linalg` sits at the bottom of the workspace dependency
//! chain, so it cannot borrow the sweep worker pool from
//! `performa-core`; instead the parallel GEMM macro-kernel and the
//! multi-right-hand-side LU solves use short-lived scoped threads
//! ([`std::thread::scope`]) and read the desired worker count from the
//! process-wide setting managed here.
//!
//! The setting defaults to **1** (serial, zero overhead, bit-identical
//! to every previous release), can be seeded from the environment
//! variable [`THREADS_ENV`] (`PERFORMA_THREADS`), and is plumbed from
//! the CLI / sweep options via [`set_threads`]. `0` means "all
//! available cores".
//!
//! Independently of the thread count, a fixed flop gate
//! ([`DEFAULT_PAR_MIN_FLOPS`]) keeps small products serial so they
//! never pay thread startup; tests may lower it with
//! [`set_par_min_flops`].
//!
//! Parallel execution is **bitwise deterministic**: every kernel
//! partitions its output into contiguous regions owned by exactly one
//! thread each, and performs the same per-element FMA sequence as the
//! serial code, so results are identical at any thread count (the
//! `parallel_determinism` property tests pin this down).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted for the initial kernel thread count.
pub const THREADS_ENV: &str = "PERFORMA_THREADS";

/// Sentinel meaning "not yet initialized from the environment".
const UNSET: usize = usize::MAX;

static THREADS: AtomicUsize = AtomicUsize::new(UNSET);

/// Resolves `0 = all cores` against the host.
fn resolve(n: usize) -> usize {
    if n == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        n
    }
}

/// The kernel thread count currently in force (always ≥ 1).
///
/// First call seeds the setting from `PERFORMA_THREADS` (absent or
/// unparsable ⇒ 1; `0` ⇒ all available cores).
pub fn threads() -> usize {
    let cur = THREADS.load(Ordering::Relaxed);
    if cur != UNSET {
        return cur;
    }
    let from_env = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, resolve);
    // A concurrent first call may race; both resolve the same value.
    THREADS.store(from_env, Ordering::Relaxed);
    from_env
}

/// Sets the kernel thread count for the whole process (`0` = all
/// available cores). Takes effect on the next kernel invocation.
pub fn set_threads(n: usize) {
    THREADS.store(resolve(n), Ordering::Relaxed);
}

/// Default flop gate: products below this many flops never spawn
/// threads, so small-matrix callers keep zero threading overhead.
pub const DEFAULT_PAR_MIN_FLOPS: usize = 8_000_000;

static PAR_MIN_FLOPS: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_MIN_FLOPS);

/// The flop count above which the auto-gated kernels go parallel:
/// [`DEFAULT_PAR_MIN_FLOPS`] unless [`set_par_min_flops`] changed it.
/// The gate only decides *whether* threads are used, never what they
/// compute — results are bitwise identical on either side of it.
pub fn par_min_flops() -> usize {
    PAR_MIN_FLOPS.load(Ordering::Relaxed)
}

/// Overrides the parallel-dispatch flop gate for the whole process
/// (tests use it to exercise the parallel paths at small sizes).
pub fn set_par_min_flops(n: usize) {
    PAR_MIN_FLOPS.store(n, Ordering::Relaxed);
}

/// Splits `blocks` work blocks into at most `workers` contiguous,
/// near-equal runs, returned as block-index boundaries
/// `b₀ = 0 < b₁ < … = blocks`. Every run is non-empty, so the number
/// of runs is `min(workers, blocks)`.
pub(crate) fn partition_blocks(blocks: usize, workers: usize) -> Vec<usize> {
    let runs = workers.min(blocks).max(1);
    let mut bounds = Vec::with_capacity(runs + 1);
    bounds.push(0);
    let (q, r) = (blocks / runs, blocks % runs);
    let mut at = 0;
    for i in 0..runs {
        at += q + usize::from(i < r);
        bounds.push(at);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_blocks_contiguously() {
        for blocks in 0..20 {
            for workers in 1..8 {
                let b = partition_blocks(blocks, workers);
                assert_eq!(*b.first().unwrap(), 0);
                assert_eq!(*b.last().unwrap(), blocks);
                for w in b.windows(2) {
                    assert!(w[0] < w[1] || (blocks == 0 && w[0] == w[1]));
                }
                if blocks > 0 {
                    assert_eq!(b.len() - 1, workers.min(blocks));
                }
            }
        }
    }

    #[test]
    fn resolve_zero_means_all_cores() {
        assert!(resolve(0) >= 1);
        assert_eq!(resolve(3), 3);
    }
}
