//! Bit goldens for the one-shot LU solves outside the `G`/`R` pipeline.
//!
//! Stationary vectors, matrix exponentials, matrix-exponential moments,
//! MAP autocorrelations, the finite-buffer and load-dependent solutions
//! and the marginal phase law all run a single factorization and a few
//! one-row or one-column solves. These digests pin their results bit
//! for bit, so a change to how those solves are expressed (which LU
//! type, which substitution entry point) cannot move an answer
//! silently. The base model is N=2, TPT T=10 (m = 66, a single
//! diagonal block); its load-dependent boundary system is 198 wide, and
//! the cheap cases also run N=2, TPT T=19 (m = 210), both above the
//! `3·NB` rule, so their factors and multi-column solves run blocked.
//!
//! Each golden is a 64-bit FNV-1a digest over the `to_bits` of every
//! value in order.

use performa::core::{ClusterModel, FiniteBufferCluster, LoadDependentCluster};
use performa::dist::{Exponential, Moments, TruncatedPowerTail};
use performa::linalg::{expm::expm, Matrix};
use performa::markov::ctmc::steady_state;

fn cluster(t: u32) -> ClusterModel {
    ClusterModel::builder()
        .servers(2)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
        .utilization(0.7)
        .build()
        .unwrap()
}

/// FNV-1a over the IEEE-754 bit patterns of `values`, in order.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check(label: &str, values: Vec<f64>, want: u64) {
    let got = digest(values);
    assert_eq!(got, want, "{label} bits moved: {got:#018x}");
}

#[test]
fn ctmc_steady_state_bits_are_unchanged() {
    for (t, want) in [(10, 0x73f3_eb94_1ed5_3687), (19, 0x3cb8_d75f_cae8_3792)] {
        let q = cluster(t).service_process().unwrap().generator().clone();
        let pi = steady_state(&q).unwrap();
        check(&format!("steady_state T={t}"), pi.as_slice().to_vec(), want);
    }
}

#[test]
fn expm_bits_are_unchanged() {
    for (t, want) in [(10, 0xf06f_01b0_d2ea_0e90), (19, 0x41da_58e6_0ef3_de0d)] {
        let q = cluster(t).service_process().unwrap().generator().clone();
        let e = expm(&(&q * 0.5)).unwrap();
        check(&format!("expm T={t}"), e.as_slice().to_vec(), want);
    }
}

#[test]
fn matrix_exp_moment_bits_are_unchanged() {
    let me = cluster(10)
        .service_process()
        .unwrap()
        .to_map()
        .interarrival_distribution()
        .unwrap();
    let twice = me.convolve(&me);
    check(
        "MatrixExp mean/variance",
        vec![me.mean(), me.variance(), twice.mean(), twice.variance()],
        0x1850_808e_aec6_f4a5,
    );
}

#[test]
fn map_autocorrelation_bits_are_unchanged() {
    for (t, want) in [(10, 0x780f_7742_28d5_3f03), (19, 0x814a_4e3b_b094_fa91)] {
        let map = cluster(t).service_process().unwrap().to_map();
        let rho: Vec<f64> = [1, 2, 5]
            .into_iter()
            .map(|k| map.interval_autocorrelation(k).unwrap())
            .collect();
        check(&format!("interval_autocorrelation T={t}"), rho, want);
    }
}

#[test]
fn finite_buffer_solution_bits_are_unchanged() {
    let sol = FiniteBufferCluster::new(cluster(10), 40)
        .unwrap()
        .solve()
        .unwrap();
    let mut values: Vec<f64> = (0..=40).map(|n| sol.queue_length_pmf(n)).collect();
    values.push(sol.mean_queue_length());
    check("FiniteQbd solution", values, 0x7f96_7881_7f6c_6a16);
}

#[test]
fn level_dependent_solution_bits_are_unchanged() {
    let sol = LoadDependentCluster::new(cluster(10)).solve().unwrap();
    let mut values: Vec<f64> = (0..6).map(|n| sol.queue_length_pmf(n)).collect();
    values.push(sol.mean_queue_length());
    values.push(sol.total_probability());
    check("LevelDependentQbd solution", values, 0x29aa_eb36_0d20_c1dc);
}

#[test]
fn marginal_phase_bits_are_unchanged() {
    let phase = cluster(10).solve().unwrap().qbd().marginal_phase();
    check(
        "QbdSolution::marginal_phase",
        phase.as_slice().to_vec(),
        0x3a1d_6b94_3591_2051,
    );
}

#[test]
fn digests_see_single_bit_changes() {
    let base = digest([1.0, 2.0]);
    assert_ne!(base, digest([1.0, f64::from_bits(2.0_f64.to_bits() + 1)]));
    assert_ne!(base, digest([2.0, 1.0]));
    let m = Matrix::identity(2);
    assert_eq!(digest(m.as_slice().to_vec()), digest([1.0, 0.0, 0.0, 1.0]));
}
