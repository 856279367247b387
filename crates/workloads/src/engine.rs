//! The telemetry simulator.
//!
//! [`Simulator::simulate`] turns a (workload, SKU, terminals, run) tuple
//! into a complete [`ExperimentRun`]: a 360-sample resource-utilization
//! series, per-query plan statistics, and measured performance — the same
//! artifacts the paper collects from SQL Server (§2.1).
//!
//! # Noise model
//!
//! Three nested stochastic levels reproduce the variation structure the
//! paper's experiments rely on:
//!
//! 1. **Data group** (time-of-day, §6.2): a throughput multiplier whose
//!    CPU-count slope differs per group, producing the distinct pairwise
//!    transitions of Figure 8b.
//! 2. **Run** (`δ_run ~ N(0,1)`): a latent intensity shared by the run's
//!    throughput and its *coupled* features (the workload's
//!    [`WorkloadSpec::coupling`] profile). This is what per-experiment
//!    feature selection (Figure 3) detects.
//! 3. **Sample** (`δ_t`, AR(1)): slow within-run drift shared by coupled
//!    features and the instantaneous throughput, plus independent
//!    per-sample measurement noise. `LOCK_WAIT_ABS` additionally receives
//!    heavy-tailed bursts so it has the high variance §4.3.2 describes.
//!
//! All noise is seeded deterministically from the run identity, so every
//! experiment in the repository is exactly reproducible.

use wp_linalg::Matrix;
use wp_linalg::Rng64;
use wp_telemetry::{
    ExperimentRun, FeatureId, PlanFeature, PlanStats, ResourceFeature, ResourceSeries, RunKey,
    N_FEATURES,
};

use crate::scaling::{self, PerfEstimate};
use crate::sku::Sku;
use crate::spec::WorkloadSpec;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; all run seeds derive from it.
    pub seed: u64,
    /// Resource samples per run (paper: 1 h at 10 s → 360).
    pub samples: usize,
    /// Seconds between samples.
    pub sample_interval_secs: f64,
    /// Per-sample multiplicative measurement noise (σ).
    pub measurement_noise: f64,
    /// Run-level throughput noise (σ).
    pub run_noise: f64,
    /// Strength of the run-level latent coupling on features.
    pub coupling_run: f64,
    /// Strength of the sample-level latent coupling on features.
    pub coupling_sample: f64,
    /// Time-of-day throughput multipliers, one per data group.
    pub group_bases: [f64; 3],
    /// Per-group CPU-count slope of the multiplier (drives Figure 8b).
    pub group_slopes: [f64; 3],
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0xEDB7_2025,
            samples: 360,
            sample_interval_secs: 10.0,
            measurement_noise: 0.04,
            run_noise: 0.03,
            coupling_run: 0.10,
            coupling_sample: 0.08,
            group_bases: [0.96, 1.0, 1.05],
            group_slopes: [0.012, -0.008, 0.020],
        }
    }
}

/// Deterministic workload/hardware telemetry simulator.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    /// Tunables; the default reproduces the repository's experiments.
    pub config: SimConfig,
}

/// Per-sub-experiment observation matrix for the feature-selection stage:
/// one row per sub-experiment, 29 feature columns in global catalog order,
/// plus the matching throughput target.
#[derive(Debug, Clone)]
pub struct ObservationSet {
    /// Workload name these observations came from.
    pub workload: String,
    /// `n_obs × 29` feature matrix.
    pub features: Matrix,
    /// Observed throughput per sub-experiment.
    pub throughput: Vec<f64>,
}

/// FNV-1a over the run identity → per-run seed.
fn run_seed(master: u64, workload: &str, sku: &str, terminals: usize, run_index: usize) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ master;
    for b in workload
        .bytes()
        .chain(sku.bytes())
        .chain(terminals.to_le_bytes())
        .chain(run_index.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Standard normal via Box–Muller.
fn gauss(rng: &mut Rng64) -> f64 {
    let u1: f64 = f64::EPSILON + (1.0 - f64::EPSILON) * rng.unit();
    let u2: f64 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Internal latent state shared between the telemetry and the
/// observation-set products of one run.
struct RunLatents {
    perf: PerfEstimate,
    /// Group- and noise-adjusted sustained throughput.
    throughput: f64,
    delta_run: f64,
    /// AR(1) drift per sample.
    delta_t: Vec<f64>,
    /// Per-phase multipliers applied to a subset of resource features.
    phase_mult: Vec<f64>,
    /// Sample index where each phase starts.
    phase_starts: Vec<usize>,
}

impl Simulator {
    /// Creates a simulator with the given master seed and otherwise
    /// default configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            config: SimConfig {
                seed,
                ..SimConfig::default()
            },
        }
    }

    /// Time-of-day multiplier for `data_group` on a SKU.
    fn group_factor(&self, data_group: usize, cpus: usize) -> f64 {
        let g = data_group % 3;
        self.config.group_bases[g]
            * (1.0 + self.config.group_slopes[g] * ((cpus as f64).log2() - 2.0))
    }

    fn latents(
        &self,
        spec: &WorkloadSpec,
        sku: &Sku,
        terminals: usize,
        run_index: usize,
        data_group: usize,
        rng: &mut Rng64,
    ) -> RunLatents {
        let perf = scaling::estimate(spec, sku, terminals);
        // Run-level intensity and jitter are *session* effects (tenant
        // noise, time-of-day conditions): measurements of the same run
        // session on different SKUs share them, which is why measured
        // scaling factors between SKU pairs are far cleaner than the raw
        // per-SKU noise (§6.2.3's accurate workload-level transfer).
        let mut session_rng = Rng64::new(run_seed(
            self.config.seed,
            &spec.name,
            "session",
            terminals,
            run_index,
        ));
        let delta_run = gauss(&mut session_rng);
        let run_jitter = 1.0 + self.config.run_noise * gauss(&mut session_rng);
        let throughput = (perf.throughput_tps
            * self.group_factor(data_group, sku.cpus)
            * run_jitter
            * (1.0 + 0.05 * delta_run))
            .max(perf.throughput_tps * 0.2);
        let _ = run_index;

        let n = self.config.samples;
        let mut delta_t = Vec::with_capacity(n);
        let mut d = 0.0;
        for _ in 0..n {
            d = 0.9 * d + 0.3 * gauss(rng);
            delta_t.push(d);
        }

        // Phase structure: `spec.phases` segments with jittered boundaries
        // and per-phase level multipliers.
        let phases = spec.phases.max(1);
        let mut phase_starts = Vec::with_capacity(phases);
        let mut phase_mult = Vec::with_capacity(phases);
        for p in 0..phases {
            let nominal = p * n / phases;
            let jitter = if p == 0 {
                0
            } else {
                (rng.range(-0.04, 0.04) * n as f64) as isize
            };
            let start = (nominal as isize + jitter).clamp(0, n as isize - 1) as usize;
            phase_starts.push(start);
            phase_mult.push(rng.range(0.75, 1.30));
        }
        phase_starts[0] = 0;

        RunLatents {
            perf,
            throughput,
            delta_run,
            delta_t,
            phase_mult,
            phase_starts,
        }
    }

    fn phase_of(lat: &RunLatents, t: usize) -> usize {
        match lat.phase_starts.binary_search(&t) {
            Ok(p) => p,
            Err(ins) => ins.saturating_sub(1),
        }
    }

    /// Base (pre-noise) value of each resource feature given the run's
    /// performance estimate.
    fn resource_base(&self, spec: &WorkloadSpec, lat: &RunLatents) -> [f64; 7] {
        let interval = self.config.sample_interval_secs;
        let thr = lat.throughput;
        // Read/write split of the I/O stream: read-only templates are all
        // reads; write templates still read ~60 % of their pages.
        let total_w = spec.total_weight();
        let mut read_io = 0.0;
        let mut write_io = 0.0;
        for t in &spec.transactions {
            let w = t.weight / total_w * t.cost.io_ops;
            if t.read_only {
                read_io += w;
            } else {
                read_io += 0.6 * w;
                write_io += 0.4 * w;
            }
        }
        let rw_ratio = if write_io > 1e-9 {
            (read_io / write_io).min(99.0)
        } else {
            99.0
        };
        let lock_req = thr * spec.mean_lock_footprint() * interval;
        let lock_wait = lock_req * (lat.perf.lock_wait_factor - 1.0).max(0.0) * 0.5;
        // utilization rescaled by the ratio of noisy throughput to the
        // model's nominal throughput
        let scale = thr / lat.perf.throughput_tps.max(1e-9);
        [
            (lat.perf.cpu_utilization * scale).clamp(0.0, 1.0),
            (lat.perf.cpu_utilization * scale * 0.9).clamp(0.0, 1.0),
            lat.perf.mem_utilization.clamp(0.0, 1.0),
            lat.perf.iops * scale,
            rw_ratio,
            lock_req,
            lock_wait,
        ]
    }

    /// Coupling weight of a resource feature for this workload.
    fn res_coupling(spec: &WorkloadSpec, f: ResourceFeature) -> f64 {
        spec.coupling_weight(FeatureId::Resource(f))
    }

    /// Synthesizes one run's complete telemetry.
    pub fn simulate(
        &self,
        spec: &WorkloadSpec,
        sku: &Sku,
        terminals: usize,
        run_index: usize,
        data_group: usize,
    ) -> ExperimentRun {
        let seed = run_seed(
            self.config.seed,
            &spec.name,
            &sku.name,
            terminals,
            run_index,
        );
        let mut rng = Rng64::new(seed);
        let lat = self.latents(spec, sku, terminals, run_index, data_group, &mut rng);
        let base = self.resource_base(spec, &lat);
        // Lock waiting depends on which transactions happened to collide,
        // so whole runs land on very different levels (§4.3.2: the feature
        // has the highest variance yet identifies nothing reliably).
        let lock_wait_run_scale = (1.0 * gauss(&mut rng)).exp();

        // ---- resource series ----
        let n = self.config.samples;
        let mut data = Matrix::zeros(n, ResourceFeature::ALL.len());
        // which features the phase multipliers act on
        let phased = [
            ResourceFeature::CpuUtilization,
            ResourceFeature::MemUtilization,
            ResourceFeature::IopsTotal,
        ];
        for t in 0..n {
            let phase = Self::phase_of(&lat, t);
            let pm = lat.phase_mult[phase];
            for (j, &f) in ResourceFeature::ALL.iter().enumerate() {
                let coupling = Self::res_coupling(spec, f);
                let latent = 1.0
                    + coupling
                        * (self.config.coupling_run * lat.delta_run
                            + self.config.coupling_sample * lat.delta_t[t]);
                let mut v = base[j] * latent;
                if spec.phases > 1 && phased.contains(&f) {
                    v *= pm;
                }
                // heavy-tailed bursts for lock waits (§4.3.2: highest
                // variance feature, yet uninformative)
                if f == ResourceFeature::LockWaitAbs {
                    v *= lock_wait_run_scale * (1.2 * gauss(&mut rng)).exp();
                } else {
                    v *= 1.0 + self.config.measurement_noise * gauss(&mut rng);
                }
                // utilizations stay fractions
                let capped = match f {
                    ResourceFeature::CpuUtilization
                    | ResourceFeature::CpuEffective
                    | ResourceFeature::MemUtilization => v.clamp(0.0, 1.0),
                    _ => v.max(0.0),
                };
                data[(t, j)] = capped;
            }
        }
        let resources = ResourceSeries::new(data, self.config.sample_interval_secs);

        // ---- plan statistics ----
        let (plans, per_query_latency_ms) = self.synth_plans(spec, sku, terminals, &lat, &mut rng);

        ExperimentRun {
            key: RunKey {
                workload: spec.name.clone(),
                sku: sku.name.clone(),
                terminals,
                run_index,
                data_group,
            },
            resources,
            plans,
            throughput: lat.throughput,
            latency_ms: terminals as f64 / lat.throughput * 1000.0,
            per_query_latency_ms,
        }
    }

    fn synth_plans(
        &self,
        spec: &WorkloadSpec,
        sku: &Sku,
        terminals: usize,
        lat: &RunLatents,
        rng: &mut Rng64,
    ) -> (PlanStats, Vec<f64>) {
        let nq = spec.transactions.len();
        let mut data = Matrix::zeros(nq, PlanFeature::ALL.len());
        let mut names = Vec::with_capacity(nq);
        let mut latencies = Vec::with_capacity(nq);
        let latency_scale = 1.0 + 0.03 * gauss(rng);
        for (qi, txn) in spec.transactions.iter().enumerate() {
            names.push(txn.name.clone());
            for (j, &f) in PlanFeature::ALL.iter().enumerate() {
                let mut v = txn.plan_signature[j];
                // SKU- and concurrency-dependent plan statistics: memory
                // grants are divided among concurrent requests and the
                // available DOP shrinks with concurrency. These features
                // therefore vary more *within* a workload (across
                // terminal counts) than between some workloads — exactly
                // the "too many features dilute distinctiveness" effect
                // of §4.3.2 / Figure 4.
                let conc = terminals.max(1) as f64;
                match f {
                    PlanFeature::EstimatedAvailableDegreeOfParallelism => {
                        v = (sku.cpus as f64 / conc).max(1.0);
                    }
                    PlanFeature::EstimatedAvailableMemoryGrant | PlanFeature::GrantedMemory => {
                        v *= sku.memory_gb / 64.0 * (4.0 / conc).min(1.5);
                    }
                    PlanFeature::MaxUsedMemory => {
                        v *= (4.0 / conc).clamp(0.25, 1.5);
                    }
                    _ => {}
                }
                let coupling = spec.coupling_weight(FeatureId::Plan(f));
                let latent = 1.0 + coupling * self.config.coupling_run * lat.delta_run;
                // Templated queries draw fresh parameters every run, so
                // the optimizer's volume estimates swing run-to-run far
                // more than the structural plan properties do.
                let volume_feature = matches!(
                    f,
                    PlanFeature::StatementEstRows
                        | PlanFeature::EstimateRows
                        | PlanFeature::EstimatedRowsRead
                        | PlanFeature::EstimateIo
                        | PlanFeature::EstimateCpu
                        | PlanFeature::StatementSubTreeCost
                        | PlanFeature::SerialDesiredMemory
                        | PlanFeature::GrantedMemory
                        | PlanFeature::MaxUsedMemory
                );
                let jitter = if volume_feature {
                    (0.25 * gauss(rng)).exp()
                } else {
                    1.0 + 0.02 * gauss(rng)
                };
                v *= latent * jitter;
                data[(qi, j)] = v.max(0.0);
            }
            let base_lat =
                scaling::per_transaction_latency_ms(spec, qi, sku, terminals) * latency_scale;
            latencies.push(base_lat * (1.0 + 0.02 * gauss(rng)));
        }
        (PlanStats::new(data, names), latencies)
    }

    /// Produces the feature-selection observation set for one run: the run
    /// is divided into `n_obs` systematic sub-experiments (§2.1's ten
    /// sub-experiments); each observation holds the sub-experiment means
    /// of all 29 features plus its mean throughput.
    ///
    /// Each sub-experiment covers a distinct subset of query executions,
    /// so its measured intensity deviates from the run mean. That
    /// deviation (`δ_sub`) is *shared* between the observed throughput
    /// and the workload's coupled features — which is what lets the
    /// per-experiment regressions of Figure 3 recover the coupling
    /// profile from within-run variation alone.
    pub fn observations(
        &self,
        spec: &WorkloadSpec,
        sku: &Sku,
        terminals: usize,
        run_index: usize,
        data_group: usize,
        n_obs: usize,
    ) -> ObservationSet {
        assert!(n_obs > 0, "need at least one observation");
        let seed = run_seed(
            self.config.seed,
            &spec.name,
            &sku.name,
            terminals,
            run_index,
        );
        let mut rng = Rng64::new(seed);
        let lat = self.latents(spec, sku, terminals, run_index, data_group, &mut rng);
        let run = self.simulate(spec, sku, terminals, run_index, data_group);

        // an independent stream for within-run sub-experiment variation
        let mut sub_rng = Rng64::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
        // measurement noise on aggregated features is much smaller than
        // on raw samples (averaging over ~samples/n_obs points)
        let agg_noise = 0.003;

        let subs = wp_telemetry::sampling::systematic_indices(self.config.samples, n_obs);
        let mut features = Matrix::zeros(n_obs, N_FEATURES);
        let mut throughput = Vec::with_capacity(n_obs);
        let n_res = ResourceFeature::ALL.len();
        let cs = self.config.coupling_sample;

        for (o, idx) in subs.iter().enumerate() {
            let delta_sub = gauss(&mut sub_rng);
            // resource features: mean over the sub-experiment's samples,
            // modulated by the shared sub-experiment intensity
            for (j, &f) in ResourceFeature::ALL.iter().enumerate() {
                let mean = idx.iter().map(|&t| run.resources.data[(t, j)]).sum::<f64>()
                    / idx.len().max(1) as f64;
                let w = Self::res_coupling(spec, f);
                let latent = 1.0 + w * cs * delta_sub;
                features[(o, j)] =
                    (mean * latent * (1.0 + agg_noise * gauss(&mut sub_rng))).max(0.0);
            }
            // plan features: query-mean of the run's plan stats, modulated
            // by the same latent through the coupling profile
            for (j, &f) in PlanFeature::ALL.iter().enumerate() {
                let query_mean = wp_linalg::stats::mean(&run.plans.data.col(j));
                let w = spec.coupling_weight(FeatureId::Plan(f));
                let latent = 1.0 + w * cs * delta_sub;
                features[(o, n_res + j)] =
                    (query_mean * latent * (1.0 + agg_noise * gauss(&mut sub_rng))).max(0.0);
            }
            throughput.push(
                lat.throughput * (1.0 + cs * delta_sub) * (1.0 + agg_noise * gauss(&mut sub_rng)),
            );
        }

        ObservationSet {
            workload: spec.name.clone(),
            features,
            throughput,
        }
    }
}

/// The paper's terminal policy (§2.1): TPC-H always runs serially and
/// TPC-DS is excluded from the concurrency sweep (we run it serially as
/// well); everything else runs with 4, 8, and 32 concurrent terminals.
pub fn paper_terminals(spec: &WorkloadSpec) -> Vec<usize> {
    if spec.name == "TPC-H" || spec.name == "TPC-DS" {
        vec![1]
    } else {
        vec![4, 8, 32]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    fn quick_sim() -> Simulator {
        let mut s = Simulator::new(7);
        s.config.samples = 60; // keep unit tests fast
        s
    }

    #[test]
    fn simulate_is_deterministic() {
        let sim = quick_sim();
        let spec = benchmarks::tpcc();
        let sku = Sku::new("cpu4", 4, 64.0);
        let a = sim.simulate(&spec, &sku, 8, 0, 0);
        let b = sim.simulate(&spec, &sku, 8, 0, 0);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.resources.data, b.resources.data);
        assert_eq!(a.plans.data, b.plans.data);
    }

    #[test]
    fn runs_differ_per_run_index() {
        let sim = quick_sim();
        let spec = benchmarks::tpcc();
        let sku = Sku::new("cpu4", 4, 64.0);
        let a = sim.simulate(&spec, &sku, 8, 0, 0);
        let b = sim.simulate(&spec, &sku, 8, 1, 0);
        assert_ne!(a.throughput, b.throughput);
        assert_ne!(a.resources.data, b.resources.data);
    }

    #[test]
    fn run_noise_is_moderate() {
        let sim = quick_sim();
        let spec = benchmarks::ycsb();
        let sku = Sku::new("cpu8", 8, 64.0);
        let thr: Vec<f64> = (0..6)
            .map(|r| sim.simulate(&spec, &sku, 8, r, r % 3).throughput)
            .collect();
        let mean = wp_linalg::stats::mean(&thr);
        for t in &thr {
            assert!((t - mean).abs() / mean < 0.35, "{thr:?}");
        }
    }

    #[test]
    fn series_has_requested_shape() {
        let sim = quick_sim();
        let run = sim.simulate(&benchmarks::twitter(), &Sku::new("cpu2", 2, 64.0), 4, 0, 0);
        assert_eq!(run.resources.len(), 60);
        assert_eq!(run.resources.data.cols(), 7);
        assert_eq!(run.plans.len(), 5);
        assert_eq!(run.per_query_latency_ms.len(), 5);
        assert!(!run.resources.data.has_non_finite());
        assert!(!run.plans.data.has_non_finite());
    }

    #[test]
    fn utilizations_stay_in_unit_interval() {
        let sim = quick_sim();
        for spec in benchmarks::standardized() {
            let run = sim.simulate(&spec, &Sku::new("cpu16", 16, 64.0), 4, 0, 0);
            for f in [
                ResourceFeature::CpuUtilization,
                ResourceFeature::CpuEffective,
                ResourceFeature::MemUtilization,
            ] {
                for v in run.resources.feature(f) {
                    assert!((0.0..=1.0).contains(&v), "{} = {v}", f.name());
                }
            }
        }
    }

    #[test]
    fn lock_wait_has_highest_relative_variance() {
        let sim = quick_sim();
        let run = sim.simulate(&benchmarks::tpcc(), &Sku::new("cpu4", 4, 64.0), 32, 0, 0);
        let rel_var = |f: ResourceFeature| {
            let v = run.resources.feature(f);
            let m = wp_linalg::stats::mean(&v);
            if m.abs() < 1e-12 {
                0.0
            } else {
                wp_linalg::stats::stddev(&v) / m
            }
        };
        let lock_wait = rel_var(ResourceFeature::LockWaitAbs);
        for f in [
            ResourceFeature::CpuUtilization,
            ResourceFeature::IopsTotal,
            ResourceFeature::LockReqAbs,
        ] {
            assert!(lock_wait > rel_var(f), "{} not below lock_wait", f.name());
        }
    }

    #[test]
    fn tpch_iops_dwarf_twitter_iops() {
        let sim = quick_sim();
        let sku = Sku::new("cpu16", 16, 64.0);
        let h = sim.simulate(&benchmarks::tpch(), &sku, 1, 0, 0);
        let t = sim.simulate(&benchmarks::twitter(), &sku, 32, 0, 0);
        let mean = |r: &ExperimentRun| {
            wp_linalg::stats::mean(&r.resources.feature(ResourceFeature::IopsTotal))
        };
        assert!(mean(&h) > 2.0 * mean(&t) || mean(&t) > 0.0 && mean(&h) > 1000.0);
    }

    #[test]
    fn dop_plan_feature_tracks_sku_and_concurrency() {
        let sim = quick_sim();
        let spec = benchmarks::ycsb();
        // 8 CPUs shared by 2 terminals → DOP ≈ 4 per request
        let r = sim.simulate(&spec, &Sku::new("cpu8", 8, 64.0), 2, 0, 0);
        for v in r
            .plans
            .feature(PlanFeature::EstimatedAvailableDegreeOfParallelism)
        {
            assert!((v - 4.0).abs() < 1.0, "dop {v}");
        }
        // saturated concurrency → DOP floors at 1
        let r32 = sim.simulate(&spec, &Sku::new("cpu8", 8, 64.0), 32, 0, 0);
        for v in r32
            .plans
            .feature(PlanFeature::EstimatedAvailableDegreeOfParallelism)
        {
            assert!((v - 1.0).abs() < 0.5, "dop {v}");
        }
    }

    #[test]
    fn memory_grants_shrink_with_concurrency() {
        let sim = quick_sim();
        let spec = benchmarks::tpcc();
        let sku = Sku::new("cpu8", 8, 64.0);
        let grant = |terminals: usize| {
            let run = sim.simulate(&spec, &sku, terminals, 0, 0);
            wp_linalg::stats::mean(&run.plans.feature(PlanFeature::GrantedMemory))
        };
        assert!(grant(32) < grant(4), "grants must shrink with concurrency");
    }

    #[test]
    fn volume_estimates_swing_more_than_structural_features() {
        // templated queries draw fresh parameters per run
        let sim = quick_sim();
        let spec = benchmarks::tpch();
        let sku = Sku::new("cpu8", 8, 64.0);
        let rel_spread = |f: PlanFeature| {
            let vals: Vec<f64> = (0..6)
                .map(|r| {
                    let run = sim.simulate(&spec, &sku, 1, r, r % 3);
                    run.plans.feature(f)[0]
                })
                .collect();
            wp_linalg::stats::stddev(&vals) / wp_linalg::stats::mean(&vals)
        };
        assert!(
            rel_spread(PlanFeature::StatementEstRows)
                > 2.0 * rel_spread(PlanFeature::CachedPlanSize),
            "volume features should be the unstable ones"
        );
    }

    #[test]
    fn observations_shape_and_coupling() {
        let sim = quick_sim();
        let spec = benchmarks::tpcc();
        let obs = sim.observations(&spec, &Sku::new("cpu2", 2, 64.0), 8, 0, 0, 10);
        assert_eq!(obs.features.shape(), (10, 29));
        assert_eq!(obs.throughput.len(), 10);
        assert!(obs.throughput.iter().all(|t| *t > 0.0));
        assert!(!obs.features.has_non_finite());
    }

    #[test]
    fn group_factor_orders_throughput() {
        let mut sim = quick_sim();
        sim.config.run_noise = 0.0; // isolate the group effect
        let spec = benchmarks::twitter();
        let sku = Sku::new("cpu4", 4, 64.0);
        // same run index, different groups — groups differ only via factor
        let a = sim.simulate(&spec, &sku, 8, 0, 0).throughput;
        let c = sim.simulate(&spec, &sku, 8, 0, 2).throughput;
        assert!(c > a, "group 2 should be the fast time of day");
    }

    #[test]
    fn throughput_scales_with_cpus_in_telemetry() {
        let sim = quick_sim();
        let spec = benchmarks::ycsb();
        let t2 = sim
            .simulate(&spec, &Sku::new("cpu2", 2, 64.0), 8, 0, 0)
            .throughput;
        let t16 = sim
            .simulate(&spec, &Sku::new("cpu16", 16, 64.0), 8, 0, 0)
            .throughput;
        assert!(t16 > t2 * 1.3, "t2={t2} t16={t16}");
    }
}
