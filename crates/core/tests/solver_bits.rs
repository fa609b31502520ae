//! Bit goldens for `G` and `R` of the small paper models.
//!
//! The dense kernels run matrices with `n < 3·NB` (`NB` = 64, the
//! blocked-LU panel width) as a single diagonal block, i.e. with the
//! unblocked factor and substitution loops, and the GEMM register tile
//! keeps the per-element FMA order. So the figure-scale solves must
//! reproduce these results bit for bit:
//!
//! * N=2, TPT T=10 (`tpt:10:1.4:0.2:10`), ρ=0.7 — the Fig. 1/3 sweep
//!   family, m = 66: `G`, `R` and the boundary vectors `π₀`, `π₁`
//!   (a `2m = 132` system);
//! * the Fig. 2 model (N=5, TPT T=4, ρ=0.7), m = 126: `G` and `R`
//!   (its `2m = 252` boundary system is blocked).
//!
//! Each golden is a 64-bit FNV-1a digest over the `to_bits` of every
//! entry in row-major order, plus spot entries so a failure shows how
//! far the bits moved.

use performa_core::ClusterModel;
use performa_dist::{Exponential, TruncatedPowerTail};
use performa_linalg::Matrix;

fn cluster(servers: usize, t: u32) -> ClusterModel {
    ClusterModel::builder()
        .servers(servers)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
        .utilization(0.7)
        .build()
        .unwrap()
}

/// FNV-1a over the IEEE-754 bit patterns of `m`, row-major.
fn digest(m: &Matrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in m.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Golden {
    g_digest: u64,
    r_digest: u64,
    /// `G[0][0]` and `R[m−1][m−1]` as bit patterns.
    spots: [u64; 2],
}

fn check(servers: usize, t: u32, m: usize, want: &Golden) {
    let sol = cluster(servers, t).solve().unwrap();
    let (g, r) = (sol.qbd().g_matrix(), sol.qbd().r_matrix());
    assert_eq!(g.nrows(), m, "phase dimension changed");
    let got = Golden {
        g_digest: digest(g),
        r_digest: digest(r),
        spots: [g[(0, 0)].to_bits(), r[(m - 1, m - 1)].to_bits()],
    };
    let label = format!("N{servers}_T{t} (m={m})");
    assert_eq!(
        got.spots,
        want.spots,
        "{label}: spot entries moved: G[0][0] = {:e}, R[m-1][m-1] = {:e}",
        g[(0, 0)],
        r[(m - 1, m - 1)]
    );
    assert_eq!(
        got.g_digest, want.g_digest,
        "{label}: G bits moved ({:#018x})",
        got.g_digest
    );
    assert_eq!(
        got.r_digest, want.r_digest,
        "{label}: R bits moved ({:#018x})",
        got.r_digest
    );
}

#[test]
fn n2_t10_g_and_r_bits_are_unchanged() {
    check(
        2,
        10,
        66,
        &Golden {
            g_digest: 0xfa68_7792_5fa0_7e00,
            r_digest: 0xa17c_34d0_b846_c86a,
            spots: [0x3fef_c018_269c_a236, 0x3fef_ffef_b56d_08ea],
        },
    );
}

#[test]
fn fig2_model_g_and_r_bits_are_unchanged() {
    check(
        5,
        4,
        126,
        &Golden {
            g_digest: 0xf0b3_1be7_be29_dd22,
            r_digest: 0x4528_3999_6afe_322b,
            spots: [0x3fef_9665_c633_df0f, 0x3fef_cae5_5839_2293],
        },
    );
}

#[test]
fn n2_t10_boundary_bits_are_unchanged() {
    let sol = cluster(2, 10).solve().unwrap();
    let (pi0, pi1) = (sol.qbd().pi0().as_slice(), sol.qbd().pi1().as_slice());
    let row = |v: &[f64]| Matrix::from_fn(1, v.len(), |_, j| v[j]);
    assert_eq!(
        pi0[0].to_bits(),
        0x3fd1_1b16_ea0e_795c,
        "pi0[0] moved: {:e}",
        pi0[0]
    );
    assert_eq!(digest(&row(pi0)), 0xedfc_0e5e_e119_1b49, "pi0 bits moved");
    assert_eq!(digest(&row(pi1)), 0xfc76_9196_1537_c4e7, "pi1 bits moved");
}
