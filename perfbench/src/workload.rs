//! The three workloads: their request tables, the order each connection
//! sends them in, and the fixed open-loop rates and latency limits.
//!
//! Everything is generated from the seed argument: the corpus, every
//! telemetry body, and the ingest stream. The program under test only
//! ever sees the generated requests.

use wp_json::{obj, Json};
use wp_telemetry::io::run_to_json;
use wp_telemetry::ExperimentRun;
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, zoo, Sku};

/// Samples per simulated run: the paper's one hour at 10 s.
pub const SAMPLES: usize = 360;
/// Per-shard LRU capacity of the server's response cache
/// (`ServerConfig::default().cache_capacity`).
pub const LRU_CAPACITY: usize = 64;
/// Distinct `POST` keys each connection cycles through on `cold-read`:
/// more than the LRU holds, so every key was evicted before it returns.
pub const COLD_KEYS_PER_CONN: usize = LRU_CAPACITY + 8;
/// Distinct `POST` keys on `hot-read`, shared by every connection.
pub const HOT_KEYS: usize = 16;
/// Streaming tenants on `ingest-mixed`.
pub const TENANTS: usize = 8;
/// Zoo steps generated per tenant; the stream replays them cyclically.
pub const INGEST_STEPS: usize = 8;
/// Runs per `/ingest` batch.
pub const RUNS_PER_BATCH: usize = 2;
/// Batches per tenant posted before timing. The window holds 6 runs, so
/// from the fourth batch on every batch evicts and rebuilds the index:
/// the timed phases see the steady state.
pub const WARMUP_BATCHES_PER_TENANT: usize = 3;

/// A workload's fixed open-loop schedule and read latency limit.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Open-loop read arrivals per second.
    pub read_hz: f64,
    /// Open-loop `/ingest` arrivals per second (0: no ingest).
    pub ingest_hz: f64,
    /// Reads slower than this miss the latency objective.
    pub read_limit_ms: f64,
}

/// The workloads. Read rates are a quarter to a fifth of the closed-loop
/// read capacity measured on a 2-core VM (about 12k, 1.1k and 3.5k
/// reads/s), low enough that bursts of CPU steal from neighbouring VMs
/// do not build a backlog; the ingest rate is under a quarter of the
/// ~9 batches/s the closed loop sustains.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "hot-read",
        read_hz: 3000.0,
        ingest_hz: 0.0,
        read_limit_ms: 5.0,
    },
    Spec {
        name: "cold-read",
        read_hz: 200.0,
        ingest_hz: 0.0,
        read_limit_ms: 25.0,
    },
    Spec {
        name: "ingest-mixed",
        read_hz: 200.0,
        ingest_hz: 2.0,
        read_limit_ms: 250.0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// What a request exercises; also its label in per-endpoint metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    Healthz,
    Corpus,
    Fingerprint,
    Similar,
    SimilarIndexed,
    Predict,
    Recommend,
    RecommendTenant,
    Ingest,
}

impl Endpoint {
    pub const ALL: [Endpoint; 9] = [
        Endpoint::Healthz,
        Endpoint::Corpus,
        Endpoint::Fingerprint,
        Endpoint::Similar,
        Endpoint::SimilarIndexed,
        Endpoint::Predict,
        Endpoint::Recommend,
        Endpoint::RecommendTenant,
        Endpoint::Ingest,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Corpus => "corpus",
            Endpoint::Fingerprint => "fingerprint",
            Endpoint::Similar => "similar",
            Endpoint::SimilarIndexed => "similar_indexed",
            Endpoint::Predict => "predict",
            Endpoint::Recommend => "recommend",
            Endpoint::RecommendTenant => "recommend_tenant",
            Endpoint::Ingest => "ingest",
        }
    }

    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Healthz => "/healthz",
            Endpoint::Corpus => "/corpus",
            Endpoint::Fingerprint => "/fingerprint",
            Endpoint::Similar | Endpoint::SimilarIndexed => "/similar",
            Endpoint::Predict => "/predict",
            Endpoint::Recommend | Endpoint::RecommendTenant => "/recommend",
            Endpoint::Ingest => "/ingest",
        }
    }

    pub fn method(self) -> &'static str {
        match self {
            Endpoint::Healthz | Endpoint::Corpus => "GET",
            _ => "POST",
        }
    }

    /// Whether the answer is a pure function of the request and the
    /// startup corpus, i.e. the same at every corpus generation.
    pub fn generation_free(self) -> bool {
        !matches!(
            self,
            Endpoint::SimilarIndexed | Endpoint::RecommendTenant | Endpoint::Ingest
        )
    }
}

/// One request of a workload's table.
#[derive(Debug, Clone)]
pub struct Req {
    pub endpoint: Endpoint,
    pub body: String,
    /// For `/ingest` and `/recommend` by tenant: the tenant named.
    pub tenant: Option<String>,
    /// The exact bytes put on the wire.
    pub wire: Vec<u8>,
}

impl Req {
    fn new(endpoint: Endpoint, body: String, tenant: Option<String>) -> Self {
        let wire = if endpoint.method() == "GET" {
            format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", endpoint.path()).into_bytes()
        } else {
            let mut w = format!(
                "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                endpoint.path(),
                body.len()
            )
            .into_bytes();
            w.extend_from_slice(body.as_bytes());
            w
        };
        Self {
            endpoint,
            body,
            tenant,
            wire,
        }
    }
}

/// A workload's requests and the order they are sent in.
///
/// Reads go per connection: connection `c` walks `cycles[c]` round and
/// round, so on `cold-read` each shard (one connection each, see the
/// placement step) sees more distinct keys between two visits of a key
/// than its LRU holds. Ingests form one global sequence, `ingest_seq`,
/// replayed cyclically.
#[derive(Debug, Clone)]
pub struct Workload {
    pub spec: Spec,
    pub reqs: Vec<Req>,
    pub cycles: Vec<Vec<usize>>,
    pub ingest_seq: Vec<usize>,
    read_cursor: Vec<usize>,
    ingest_cursor: usize,
}

impl Workload {
    /// The next read for connection `conn`.
    pub fn next_read(&mut self, conn: usize) -> usize {
        let cycle = &self.cycles[conn % self.cycles.len()];
        let cursor = &mut self.read_cursor[conn % self.cycles.len()];
        let r = cycle[*cursor % cycle.len()];
        *cursor += 1;
        r
    }

    /// The next `/ingest` batch of the global stream.
    pub fn next_ingest(&mut self) -> usize {
        let r = self.ingest_seq[self.ingest_cursor % self.ingest_seq.len()];
        self.ingest_cursor += 1;
        r
    }

    pub fn has_ingest(&self) -> bool {
        !self.ingest_seq.is_empty()
    }

    /// Rewinds every cursor, so a replay sends the same sequence again.
    pub fn rewind(&mut self) {
        self.read_cursor.iter_mut().for_each(|c| *c = 0);
        self.ingest_cursor = 0;
    }
}

/// Two simulated runs of one target workload on the 2-CPU SKU.
fn telemetry(sim: &Simulator, set: usize) -> Vec<ExperimentRun> {
    let (spec, terminals) = match set % 4 {
        0 => (benchmarks::ycsb(), 8),
        1 => (benchmarks::tpcc(), 8),
        2 => (benchmarks::twitter(), 8),
        _ => (benchmarks::tpch(), 1),
    };
    let sku = Sku::new("cpu2", 2, 64.0);
    (0..2)
        .map(|r| {
            let run_index = set * 2 + r;
            sim.simulate(&spec, &sku, terminals, run_index, run_index % 3)
        })
        .collect()
}

/// The read endpoints `hot-read` and `cold-read` mix over.
const READ_KINDS: [Endpoint; 5] = [
    Endpoint::Fingerprint,
    Endpoint::Similar,
    Endpoint::SimilarIndexed,
    Endpoint::Predict,
    Endpoint::Recommend,
];

/// A `POST` read body over `runs`.
fn read_body(endpoint: Endpoint, runs: &[ExperimentRun], slo_step: usize) -> String {
    let runs_json = Json::Arr(runs.iter().map(run_to_json).collect());
    match endpoint {
        Endpoint::SimilarIndexed => {
            obj! { "runs" => runs_json, "mode" => "indexed", "k" => 5usize }
        }
        Endpoint::Predict => {
            obj! { "runs" => runs_json, "from_cpus" => 2.0, "to_cpus" => 8.0 }
        }
        Endpoint::Recommend => {
            let observed = runs.iter().map(|r| r.throughput).sum::<f64>() / runs.len() as f64;
            obj! { "slo" => slo(observed, slo_step), "runs" => runs_json }
        }
        _ => obj! { "runs" => runs_json },
    }
    .compact()
}

/// A throughput target between 1.5x and 3x the observed throughput, so
/// recommendations land across the SKU ladder.
fn slo(observed: f64, step: usize) -> f64 {
    (observed * (1.5 + 0.5 * (step % 4) as f64))
        .round()
        .max(1.0)
}

/// Interleaves `posts` with a `GET /healthz` or `GET /corpus` after
/// every eighth `POST`, alternating.
fn with_gets(posts: &[usize], healthz: usize, corpus: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(posts.len() + posts.len() / 8);
    for (i, &p) in posts.iter().enumerate() {
        out.push(p);
        if i % 8 == 7 {
            out.push(if (i / 8) % 2 == 0 { healthz } else { corpus });
        }
    }
    out
}

/// Builds workload `spec` from `seed` for `conns` connections.
pub fn build(spec: Spec, seed: u64, conns: usize) -> Workload {
    let mut sim = Simulator::new(seed ^ 0x7E1E_3E7B_0D1E_5EED);
    sim.config.samples = SAMPLES;
    let mut reqs = Vec::new();
    let push = |reqs: &mut Vec<Req>, r: Req| {
        reqs.push(r);
        reqs.len() - 1
    };
    let mut cycles = vec![Vec::new(); conns];
    let mut ingest_seq = Vec::new();
    match spec.name {
        "hot-read" => {
            let healthz = push(&mut reqs, Req::new(Endpoint::Healthz, String::new(), None));
            let corpus = push(&mut reqs, Req::new(Endpoint::Corpus, String::new(), None));
            let sets: Vec<Vec<ExperimentRun>> = (0..4).map(|s| telemetry(&sim, s)).collect();
            // Key j pairs endpoint j mod 5 with telemetry set j mod 4:
            // sixteen distinct (path, body) keys.
            let posts: Vec<usize> = (0..HOT_KEYS)
                .map(|j| {
                    let e = READ_KINDS[j % READ_KINDS.len()];
                    let body = read_body(e, &sets[j % sets.len()], j);
                    push(&mut reqs, Req::new(e, body, None))
                })
                .collect();
            for (c, cycle) in cycles.iter_mut().enumerate() {
                let mut rotated = posts.clone();
                rotated.rotate_left((c * 5) % posts.len());
                *cycle = with_gets(&rotated, healthz, corpus);
            }
        }
        "cold-read" => {
            let healthz = push(&mut reqs, Req::new(Endpoint::Healthz, String::new(), None));
            let corpus = push(&mut reqs, Req::new(Endpoint::Corpus, String::new(), None));
            for (c, cycle) in cycles.iter_mut().enumerate() {
                let posts: Vec<usize> = (0..COLD_KEYS_PER_CONN)
                    .map(|j| {
                        let set = c * COLD_KEYS_PER_CONN + j;
                        let e = READ_KINDS[j % READ_KINDS.len()];
                        let body = read_body(e, &telemetry(&sim, set), j);
                        push(&mut reqs, Req::new(e, body, None))
                    })
                    .collect();
                *cycle = with_gets(&posts, healthz, corpus);
            }
        }
        "ingest-mixed" => {
            let tenant = |t: usize| format!("tenant-{t}");
            let sets: Vec<Vec<ExperimentRun>> = (0..4).map(|s| telemetry(&sim, s)).collect();
            let mut pool = Vec::new();
            for t in 0..TENANTS {
                let body = obj! { "slo" => 500.0 + 250.0 * (t % 4) as f64, "tenant" => tenant(t) }
                    .compact();
                pool.push(push(
                    &mut reqs,
                    Req::new(Endpoint::RecommendTenant, body, Some(tenant(t))),
                ));
                let e = if t % 2 == 0 {
                    Endpoint::SimilarIndexed
                } else {
                    Endpoint::Similar
                };
                let body = read_body(e, &sets[(t / 2) % sets.len()], t);
                pool.push(push(&mut reqs, Req::new(e, body, None)));
            }
            for (c, cycle) in cycles.iter_mut().enumerate() {
                let mut rotated = pool.clone();
                rotated.rotate_left((c * 5) % pool.len());
                *cycle = rotated;
            }
            // Tenant t replays zoo scenario t mod 6 from its own
            // simulator seed; batch k of the stream goes to tenant
            // k mod 8, at step k / 8 of its scenario.
            let scenarios = zoo::paper_zoo(seed);
            let sku = Sku::new("cpu2", 2, 64.0);
            let mut batches = vec![Vec::new(); TENANTS];
            for (t, tenant_batches) in batches.iter_mut().enumerate() {
                let mut tsim = Simulator::new(
                    seed.wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                tsim.config.samples = SAMPLES;
                let scenario = &scenarios[t % scenarios.len()];
                for step in 0..INGEST_STEPS {
                    let spec = scenario.spec_at(step);
                    let runs: Vec<Json> = (0..RUNS_PER_BATCH)
                        .map(|r| {
                            let run_index = step * RUNS_PER_BATCH + r;
                            run_to_json(&tsim.simulate(&spec, &sku, 8, run_index, run_index % 3))
                        })
                        .collect();
                    let body = obj! { "tenant" => tenant(t), "runs" => runs }.compact();
                    tenant_batches.push(push(
                        &mut reqs,
                        Req::new(Endpoint::Ingest, body, Some(tenant(t))),
                    ));
                }
            }
            for step in 0..INGEST_STEPS {
                for tenant_batches in &batches {
                    ingest_seq.push(tenant_batches[step]);
                }
            }
        }
        other => unreachable!("unknown workload {other}"),
    }
    Workload {
        spec,
        reqs,
        read_cursor: vec![0; cycles.len()],
        cycles,
        ingest_seq,
        ingest_cursor: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn keys(w: &Workload, reqs: &[usize]) -> HashSet<(&'static str, String)> {
        reqs.iter()
            .map(|&i| (w.reqs[i].endpoint.path(), w.reqs[i].body.clone()))
            .collect()
    }

    #[test]
    fn cold_read_cycles_outrun_the_lru_and_hot_read_fits_it() {
        let cold = build(spec("cold-read").unwrap(), 3, 2);
        for cycle in &cold.cycles {
            let posts: Vec<usize> = cycle
                .iter()
                .copied()
                .filter(|&i| cold.reqs[i].endpoint.method() == "POST")
                .collect();
            assert_eq!(keys(&cold, &posts).len(), posts.len(), "cold keys repeat");
            assert!(posts.len() > LRU_CAPACITY);
        }
        let hot = build(spec("hot-read").unwrap(), 3, 2);
        let all: Vec<usize> = hot.cycles.concat();
        let posts: Vec<usize> = all
            .into_iter()
            .filter(|&i| hot.reqs[i].endpoint.method() == "POST")
            .collect();
        assert_eq!(keys(&hot, &posts).len(), HOT_KEYS);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = build(spec("ingest-mixed").unwrap(), 11, 2);
        let b = build(spec("ingest-mixed").unwrap(), 11, 2);
        let c = build(spec("ingest-mixed").unwrap(), 12, 2);
        let wires = |w: &Workload| w.reqs.iter().map(|r| r.wire.clone()).collect::<Vec<_>>();
        assert_eq!(wires(&a), wires(&b));
        assert_ne!(wires(&a), wires(&c));
        assert_eq!(a.ingest_seq.len(), TENANTS * INGEST_STEPS);
    }
}
