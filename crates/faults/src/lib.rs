//! `wp-faults` — seeded, deterministic fault injection for the serving
//! path.
//!
//! Chaos testing is only useful when a failing run can be replayed, so
//! every fault decision here is a pure function of `(plan seed, fault
//! site, event ordinal)` through the workspace's [`Rng64`] generator:
//! two runs of the same plan against the same request sequence inject
//! the same faults at the same points, bit for bit. Wall-clock time
//! never feeds a decision.
//!
//! The unit of injection is a [`FaultPlan`] — one probability (and, for
//! the timed sites, a duration parameter) per fault site, plus the seed.
//! A plan is parsed from the compact `key=value` spec accepted by the
//! `WP_FAULTS` environment variable and the `--faults` / `--plan` CLI
//! flags:
//!
//! ```text
//! seed=7,reset=0.05,latency=0.25,latency_ms=1..10,error=0.15,
//! error:/similar=0.3,slow=0.1,truncate=0.05,stall=0.02,stall_ms=1500
//! ```
//!
//! Sites (all probabilities default to `0`, i.e. disabled):
//!
//! | key | site | effect |
//! |---|---|---|
//! | `reset` | accept | connection dropped right after accept |
//! | `latency` | handler | `latency_ms` sleep before the handler runs |
//! | `stall` | response | `stall_ms` hold before writing (client times out) |
//! | `error` | handler | handler replaced by `503` + `Retry-After` |
//! | `error:<path>` | handler | per-endpoint override of `error` |
//! | `slow` | write | response dribbled in `slow_chunks` chunks |
//! | `truncate` | write | only half the response bytes written, then close |
//!
//! The per-request sites (`latency`, `stall`, `error`, `slow`,
//! `truncate`) are all drawn from **one** stream keyed by the request
//! ordinal, at the moment the request is read — so a request's complete
//! fault fate is fixed before any handler or writer races with other
//! workers. With a single closed-loop client the request (and
//! connection) ordinals are reproducible, which is what makes whole
//! chaos runs byte-identical (see `wp chaos` and `tests/chaos_e2e.rs`).
//!
//! A disabled plan (`!plan.is_enabled()`) costs the server exactly one
//! `Option` check per connection: no injector is even constructed.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use wp_linalg::Rng64;

/// Stream salts: decisions of different sites never share a stream.
const SALT_ACCEPT: u64 = 0xACC3_97C0;
const SALT_REQUEST: u64 = 0x9E06_E571;

/// One seeded fault-injection configuration: a probability per fault
/// site plus the duration parameters of the timed sites.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every decision stream.
    pub seed: u64,
    /// P(drop a connection right after accept).
    pub reset: f64,
    /// P(artificial latency before the handler).
    pub latency: f64,
    /// Inclusive range the injected latency is drawn from, milliseconds.
    pub latency_ms: (u64, u64),
    /// P(hold the response long enough for the client to time out).
    pub stall: f64,
    /// Stall duration, milliseconds (pick it above the client timeout).
    pub stall_ms: u64,
    /// P(replace the handler with a `503` + `Retry-After: 0`).
    pub error: f64,
    /// Per-endpoint overrides of `error`, e.g. `("/similar", 0.3)`.
    pub error_paths: Vec<(String, f64)>,
    /// P(dribble the response out in small delayed chunks).
    pub slow: f64,
    /// Chunks a slow write is split into.
    pub slow_chunks: usize,
    /// Pause between slow-write chunks, milliseconds.
    pub slow_chunk_ms: u64,
    /// P(write only half the response bytes, then close).
    pub truncate: f64,
}

impl Default for FaultPlan {
    /// All sites disabled; parameter defaults suit fast test runs.
    fn default() -> Self {
        Self {
            seed: 0,
            reset: 0.0,
            latency: 0.0,
            latency_ms: (1, 10),
            stall: 0.0,
            stall_ms: 1500,
            error: 0.0,
            error_paths: Vec::new(),
            slow: 0.0,
            slow_chunks: 4,
            slow_chunk_ms: 2,
            truncate: 0.0,
        }
    }
}

impl FaultPlan {
    /// True when any site has a positive probability — a disabled plan
    /// must add no overhead to the serving path.
    pub fn is_enabled(&self) -> bool {
        self.reset > 0.0
            || self.latency > 0.0
            || self.stall > 0.0
            || self.error > 0.0
            || self.error_paths.iter().any(|(_, p)| *p > 0.0)
            || self.slow > 0.0
            || self.truncate > 0.0
    }

    /// Parses the compact `key=value[,key=value…]` spec (see the module
    /// docs for the key table). Unknown keys and out-of-range
    /// probabilities are errors, never silently ignored — a typo in a
    /// chaos spec must not quietly run a fault-free "chaos" suite.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry '{part}' is not key=value"))?;
            let prob = || -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("'{key}': probability '{value}' not in [0, 1]"))
            };
            let millis = || -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("'{key}': '{value}' is not a millisecond count"))
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("'seed': '{value}' is not a u64"))?;
                }
                "reset" => plan.reset = prob()?,
                "latency" => plan.latency = prob()?,
                "stall" => plan.stall = prob()?,
                "error" => plan.error = prob()?,
                "slow" => plan.slow = prob()?,
                "truncate" => plan.truncate = prob()?,
                "latency_ms" => {
                    let (lo, hi) = match value.split_once("..") {
                        Some((lo, hi)) => (lo.parse::<u64>().ok(), hi.parse::<u64>().ok()),
                        None => {
                            let v = value.parse::<u64>().ok();
                            (v, v)
                        }
                    };
                    match (lo, hi) {
                        (Some(lo), Some(hi)) if lo <= hi => plan.latency_ms = (lo, hi),
                        _ => {
                            return Err(format!(
                                "'latency_ms': '{value}' is not N or LO..HI with LO <= HI"
                            ))
                        }
                    }
                }
                "stall_ms" => plan.stall_ms = millis()?,
                "slow_chunk_ms" => plan.slow_chunk_ms = millis()?,
                "slow_chunks" => {
                    plan.slow_chunks =
                        value
                            .parse::<usize>()
                            .ok()
                            .filter(|n| *n > 0)
                            .ok_or_else(|| {
                                format!("'slow_chunks': '{value}' is not a positive count")
                            })?;
                }
                _ => match key.strip_prefix("error:") {
                    Some(path) if path.starts_with('/') => {
                        let p = prob()?;
                        plan.error_paths.push((path.to_string(), p));
                    }
                    _ => return Err(format!("unknown fault spec key '{key}'")),
                },
            }
        }
        Ok(plan)
    }

    /// Renders the plan back to a spec string that [`Self::parse`] would
    /// accept — the canonical form recorded in `BENCH_chaos.json`.
    pub fn render(&self) -> String {
        let mut parts = vec![format!("seed={}", self.seed)];
        let mut prob = |key: &str, p: f64| {
            if p > 0.0 {
                parts.push(format!("{key}={p}"));
            }
        };
        prob("reset", self.reset);
        prob("latency", self.latency);
        prob("stall", self.stall);
        prob("error", self.error);
        prob("slow", self.slow);
        prob("truncate", self.truncate);
        for (path, p) in &self.error_paths {
            parts.push(format!("error:{path}={p}"));
        }
        if self.latency > 0.0 {
            parts.push(format!(
                "latency_ms={}..{}",
                self.latency_ms.0, self.latency_ms.1
            ));
        }
        if self.stall > 0.0 {
            parts.push(format!("stall_ms={}", self.stall_ms));
        }
        if self.slow > 0.0 {
            parts.push(format!(
                "slow_chunks={},slow_chunk_ms={}",
                self.slow_chunks, self.slow_chunk_ms
            ));
        }
        parts.join(",")
    }

    /// Reads a plan from the `WP_FAULTS` environment variable.
    /// `Ok(None)` when unset or empty.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("WP_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec)
                .map(Some)
                .map_err(|e| format!("WP_FAULTS: {e}")),
            _ => Ok(None),
        }
    }

    /// The effective `503`-injection probability of one endpoint.
    fn error_prob(&self, path: &str) -> f64 {
        self.error_paths
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, p)| *p)
            .unwrap_or(self.error)
    }
}

/// What to do with the bytes of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Write the response normally.
    Clean,
    /// Write in `chunks` pieces with `pause_ms` between them (a slow
    /// peer-facing NIC, a congested path). The response still completes.
    Slow {
        /// Number of chunks the byte stream is split into.
        chunks: usize,
        /// Pause between chunks, milliseconds.
        pause_ms: u64,
    },
    /// Write only the first half of the bytes, then close the
    /// connection — the client sees a short read.
    Truncate,
}

/// The complete fault fate of one request, drawn in one deterministic
/// shot when the request is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestFaults {
    /// Sleep before the handler runs.
    pub pre_latency: Option<Duration>,
    /// Sleep after the handler, before the response bytes go out (long
    /// enough to trip a client-side timeout).
    pub stall: Option<Duration>,
    /// Replace the handler with a `503` + `Retry-After: 0`.
    pub error_503: bool,
    /// How the response bytes are written.
    pub write: WriteFault,
}

impl RequestFaults {
    /// The fault-free fate.
    pub const CLEAN: RequestFaults = RequestFaults {
        pre_latency: None,
        stall: None,
        error_503: false,
        write: WriteFault::Clean,
    };
}

/// Draws fault decisions for a live server from a [`FaultPlan`].
///
/// Ordinal counters make each decision a pure function of
/// `(seed, site, ordinal)`; the counters themselves are the only mutable
/// state and are advanced with relaxed atomics (the ordinal *assignment*
/// is deterministic whenever events are sequenced — e.g. by a single
/// closed-loop client — and merely racy, never unsound, otherwise).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    connections: AtomicU64,
    requests: AtomicU64,
}

impl FaultInjector {
    /// Wraps a plan. (A disabled plan injects nothing; callers normally
    /// skip constructing an injector for one.)
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// `(connections seen, requests seen)` — introspection for tests.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.connections.load(Ordering::Relaxed),
            self.requests.load(Ordering::Relaxed),
        )
    }

    /// One fresh decision stream for event `n` of a site.
    fn stream(&self, salt: u64, n: u64) -> Rng64 {
        Rng64::new(
            self.plan
                .seed
                .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ salt,
        )
    }

    /// Accept-time decision: `true` drops the freshly accepted
    /// connection (the client sees a reset/EOF before any response).
    pub fn reset_connection(&self) -> bool {
        let n = self.connections.fetch_add(1, Ordering::Relaxed);
        self.plan.reset > 0.0 && self.stream(SALT_ACCEPT, n).unit() < self.plan.reset
    }

    /// Read-time decision: the complete fate of request `n`. Drawn
    /// before any handler work so no later scheduling race can reorder
    /// the draws of concurrent requests.
    pub fn request_faults(&self, path: &str) -> RequestFaults {
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        let mut rng = self.stream(SALT_REQUEST, n);
        // Fixed draw order — the stream layout is part of the replay
        // contract. Every site consumes its probability draw even when
        // disabled, so enabling one site never shifts another's stream.
        let latency_draw = rng.unit();
        let (lo, hi) = self.plan.latency_ms;
        let latency_ms = lo + (rng.unit() * (hi - lo + 1) as f64) as u64;
        let stall_draw = rng.unit();
        let error_draw = rng.unit();
        let slow_draw = rng.unit();
        let truncate_draw = rng.unit();
        let write = if truncate_draw < self.plan.truncate {
            WriteFault::Truncate
        } else if slow_draw < self.plan.slow {
            WriteFault::Slow {
                chunks: self.plan.slow_chunks,
                pause_ms: self.plan.slow_chunk_ms,
            }
        } else {
            WriteFault::Clean
        };
        RequestFaults {
            pre_latency: (latency_draw < self.plan.latency)
                .then(|| Duration::from_millis(latency_ms.min(hi))),
            stall: (stall_draw < self.plan.stall)
                .then(|| Duration::from_millis(self.plan.stall_ms)),
            error_503: error_draw < self.plan.error_prob(path),
            write,
        }
    }
}

/// The corruptions a chaos test smuggles into a corpus reference —
/// exactly the adversarial shapes `OfflineCorpus::validate` must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Poke a `NaN` into one resource-series sample.
    NanSample,
    /// Replace one run's resource series with a zero-length series.
    EmptySeries,
    /// Drop one `runs_to` entry so the from/to pair counts mismatch.
    DroppedPair,
}

impl Corruption {
    /// All corruption modes.
    pub const ALL: [Corruption; 3] = [
        Corruption::NanSample,
        Corruption::EmptySeries,
        Corruption::DroppedPair,
    ];
}

/// Applies one corruption to reference `r`, using `rng` to pick the run
/// and sample. The result must fail `OfflineReference::validate`.
pub fn corrupt_reference(
    r: &mut wp_core::offline::OfflineReference,
    rng: &mut Rng64,
    mode: Corruption,
) {
    match mode {
        Corruption::NanSample => {
            let run = rng.below(r.runs_from.len());
            let data = &mut r.runs_from[run].resources.data;
            if data.rows() > 0 {
                let row = rng.below(data.rows());
                let col = rng.below(data.cols());
                data.row_mut(row)[col] = f64::NAN;
            }
        }
        Corruption::EmptySeries => {
            let run = rng.below(r.runs_from.len());
            let cols = r.runs_from[run].resources.data.cols();
            r.runs_from[run].resources.data = wp_linalg::Matrix::zeros(0, cols);
        }
        Corruption::DroppedPair => {
            r.runs_to.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> &'static str {
        "seed=7,reset=0.05,latency=0.25,latency_ms=1..10,error=0.15,\
         error:/similar=0.3,slow=0.1,truncate=0.05,stall=0.02,stall_ms=900"
    }

    #[test]
    fn parse_render_round_trip() {
        let plan = FaultPlan::parse(full_spec()).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.reset, 0.05);
        assert_eq!(plan.latency_ms, (1, 10));
        assert_eq!(plan.stall_ms, 900);
        assert_eq!(plan.error_prob("/similar"), 0.3);
        assert_eq!(plan.error_prob("/predict"), 0.15);
        assert!(plan.is_enabled());

        let back = FaultPlan::parse(&plan.render()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::parse("reset=1.5").is_err());
        assert!(FaultPlan::parse("reset=-0.1").is_err());
        assert!(FaultPlan::parse("nonsense=0.1").is_err());
        assert!(FaultPlan::parse("reset").is_err());
        assert!(FaultPlan::parse("latency_ms=9..2").is_err());
        assert!(
            FaultPlan::parse("error:similar=0.2").is_err(),
            "path must start with /"
        );
        assert!(FaultPlan::parse("slow_chunks=0").is_err());
        // corpus corruption is no fault site: tests call `corrupt_reference`
        let key = "corrupt";
        assert_eq!(
            FaultPlan::parse(&format!("{key}=0.5")).unwrap_err(),
            format!("unknown fault spec key '{key}'")
        );
    }

    #[test]
    fn empty_and_default_plans_are_disabled() {
        assert!(!FaultPlan::default().is_enabled());
        let plan = FaultPlan::parse("seed=3").unwrap();
        assert!(!plan.is_enabled());
        // zero-probability entries keep the plan disabled
        let plan = FaultPlan::parse("reset=0,error=0.0").unwrap();
        assert!(!plan.is_enabled());
    }

    #[test]
    fn decisions_are_pure_functions_of_the_ordinal() {
        let plan = FaultPlan::parse(full_spec()).unwrap();
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let fates_a: Vec<RequestFaults> = (0..200).map(|_| a.request_faults("/similar")).collect();
        let fates_b: Vec<RequestFaults> = (0..200).map(|_| b.request_faults("/similar")).collect();
        assert_eq!(fates_a, fates_b);
        let resets_a: Vec<bool> = (0..200).map(|_| a.reset_connection()).collect();
        let resets_b: Vec<bool> = (0..200).map(|_| b.reset_connection()).collect();
        assert_eq!(resets_a, resets_b);
        // the plan actually fires at these probabilities
        assert!(fates_a.iter().any(|f| f.error_503));
        assert!(fates_a.iter().any(|f| f.pre_latency.is_some()));
        assert!(resets_a.iter().any(|r| *r));
    }

    #[test]
    fn disabled_sites_never_fire_and_streams_do_not_shift() {
        let quiet = FaultInjector::new(FaultPlan::parse("seed=7,latency=0.5").unwrap());
        for _ in 0..100 {
            let f = quiet.request_faults("/similar");
            assert!(!f.error_503);
            assert!(f.stall.is_none());
            assert_eq!(f.write, WriteFault::Clean);
        }
        // enabling an unrelated site leaves the latency decisions intact
        let noisy = FaultInjector::new(FaultPlan::parse("seed=7,latency=0.5,error=0.9").unwrap());
        let quiet = FaultInjector::new(FaultPlan::parse("seed=7,latency=0.5").unwrap());
        for _ in 0..100 {
            assert_eq!(
                quiet.request_faults("/x").pre_latency,
                noisy.request_faults("/x").pre_latency
            );
        }
    }

    #[test]
    fn injected_latency_respects_the_configured_range() {
        let plan = FaultPlan::parse("seed=1,latency=1.0,latency_ms=3..9").unwrap();
        let inj = FaultInjector::new(plan);
        for _ in 0..300 {
            let d = inj.request_faults("/similar").pre_latency.unwrap();
            let ms = d.as_millis() as u64;
            assert!((3..=9).contains(&ms), "latency {ms} ms outside 3..=9");
        }
    }

    #[test]
    fn corruption_modes_break_validation() {
        use wp_core::offline::OfflineReference;
        use wp_linalg::Matrix;

        let reference = || {
            let run = |v: f64| {
                let mut r = test_run();
                r.resources.data = Matrix::filled(4, r.resources.data.cols(), v);
                r
            };
            OfflineReference {
                name: "R".to_string(),
                runs_from: vec![run(1.0), run(2.0)],
                runs_to: vec![run(3.0), run(4.0)],
            }
        };
        for mode in Corruption::ALL {
            let mut r = reference();
            corrupt_reference(&mut r, &mut Rng64::new(5), mode);
            assert!(r.validate().is_err(), "{mode:?} must fail validation");
        }
    }

    fn test_run() -> wp_telemetry::ExperimentRun {
        // A minimal structurally-valid run for corruption tests.
        use wp_telemetry::{ExperimentRun, PlanStats, ResourceSeries, RunKey};
        let n_res = wp_telemetry::ResourceFeature::ALL.len();
        let n_plan = wp_telemetry::PlanFeature::ALL.len();
        ExperimentRun {
            key: RunKey {
                workload: "W".to_string(),
                sku: "cpu2".to_string(),
                terminals: 1,
                run_index: 0,
                data_group: 0,
            },
            resources: ResourceSeries::new(wp_linalg::Matrix::filled(4, n_res, 0.5), 10.0),
            plans: PlanStats::new(
                wp_linalg::Matrix::filled(1, n_plan, 0.5),
                vec!["q".to_string()],
            ),
            throughput: 100.0,
            latency_ms: 1.0,
            per_query_latency_ms: vec![1.0],
        }
    }
}
