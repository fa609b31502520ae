//! What the workloads share: their names and families, the seeded
//! random source, per-layer samples, references and the model builder.
//!
//! Every workload belongs to one family of operations:
//!
//! * `Solve` (`paper_point`, `blowup_ladder`, in `solve.rs`): what
//!   `performa solve --tail 500` does — a supervised solve of a built
//!   `ClusterModel`, the printed solution metrics and the service-process
//!   IDC.
//! * `Sweep` (`fig_sweep`, in `sweep.rs`): one pass of the Figure 1, 3 and
//!   5 sweeps through the sweep engine at two point workers.
//! * `Sim` (`sim_replicate`, in `sim.rs`): one robust replication batch of
//!   the cluster simulator, as `performa simulate` runs it.

use std::collections::BTreeMap;

use performa_core::ClusterModel;
use performa_dist::{Dist, DistSpec};

/// Queue length of the tail query, `Pr(Q ≥ 500)`, as in Figures 3 and 6.
pub const TAIL_K: usize = 500;
/// Relative tolerance of every analytic value against its reference.
pub const REL_TOL: f64 = 1e-5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperPoint,
    FigSweep,
    BlowupLadder,
    SimReplicate,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Solve,
    Sweep,
    Sim,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperPoint,
        Workload::FigSweep,
        Workload::BlowupLadder,
        Workload::SimReplicate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPoint => "paper_point",
            Workload::FigSweep => "fig_sweep",
            Workload::BlowupLadder => "blowup_ladder",
            Workload::SimReplicate => "sim_replicate",
        }
    }

    pub fn family(self) -> Family {
        match self {
            Workload::PaperPoint | Workload::BlowupLadder => Family::Solve,
            Workload::FigSweep => Family::Sweep,
            Workload::SimReplicate => Family::Sim,
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Named per-layer samples, one value per operation or probe.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn check_value(what: &str, got: f64, want: f64) -> Result<(), String> {
    if !got.is_finite() {
        return Err(format!("{what}: non-finite value {got}"));
    }
    if (got - want).abs() > REL_TOL * want.abs() {
        return Err(format!(
            "{what}: {got:e} vs reference {want:e} (relative error {:.2e} > {REL_TOL:e})",
            (got - want).abs() / want.abs()
        ));
    }
    Ok(())
}

/// Reference values, one `key<TAB>value` line each.
pub struct Refs(BTreeMap<String, f64>);

impl Refs {
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read references {}: {e}", path.display()))?;
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (key, value) = line
                .split_once('\t')
                .ok_or_else(|| format!("malformed reference line `{line}`"))?;
            let value: f64 = value
                .parse()
                .map_err(|e| format!("malformed reference value in `{line}`: {e}"))?;
            map.insert(key.to_string(), value);
        }
        Ok(Refs(map))
    }

    pub fn get(&self, key: &str) -> Result<f64, String> {
        self.0
            .get(key)
            .copied()
            .ok_or_else(|| format!("no reference for `{key}`"))
    }
}

pub fn dist(spec: &str) -> Result<Dist, String> {
    spec.parse::<DistSpec>()
        .and_then(|s| s.to_dist())
        .map_err(|e| format!("{spec}: {e}"))
}

/// The CLI's default model (`exp:90` UP, `ν_p = 2`) with the given size,
/// degradation, repair spec and utilization.
pub fn cluster(servers: usize, delta: f64, down: &str, rho: f64) -> Result<ClusterModel, String> {
    ClusterModel::builder()
        .servers(servers)
        .peak_rate(2.0)
        .degradation(delta)
        .up(dist("exp:90")?)
        .down(dist(down)?)
        .utilization(rho)
        .build()
        .map_err(|e| e.to_string())
}
