//! Per-endpoint request accounting, surfaced by `GET /stats`.
//!
//! Every request is timed with `Instant` at nanosecond resolution and
//! recorded into lock-free atomic counters — the stats path adds no lock
//! to the request path. Besides the running totals, each endpoint keeps a
//! fixed-size ring of recent latencies so `/stats` can report nearest-rank
//! p50/p95/p99 (the same convention as `wp-loadgen`'s report, via the
//! shared [`wp_linalg::stats::nearest_rank`] helper). A recorded latency
//! is clamped up to 1 ns so a zero slot always means "not written yet";
//! ring writes are racy-by-design between concurrent requests, which can
//! at worst overwrite one sample with another real sample.

use std::sync::atomic::{AtomicU64, Ordering};

use wp_json::{obj, Json};
use wp_linalg::stats::nearest_rank;
use wp_obs::{LazyCounter, LazySpan};

/// The routes the service accounts for, in display order.
pub const ENDPOINTS: [&str; 10] = [
    "/healthz",
    "/corpus",
    "/fingerprint",
    "/similar",
    "/predict",
    "/recommend",
    "/ingest",
    "/drift",
    "/stats",
    "other",
];

/// Latency samples retained per endpoint for the percentile snapshot.
const RING_SIZE: usize = 1024;

/// `wp-obs` series for one endpoint. Names are baked-in literals —
/// parallel to [`ENDPOINTS`] — so the request path never allocates a
/// label string.
struct EndpointObs {
    requests: LazyCounter,
    errors: LazyCounter,
    latency: LazySpan,
}

macro_rules! endpoint_obs {
    ($label:literal) => {
        EndpointObs {
            requests: LazyCounter::new(concat!(
                "wp_server_requests_total{endpoint=\"",
                $label,
                "\"}"
            )),
            errors: LazyCounter::new(concat!("wp_server_errors_total{endpoint=\"", $label, "\"}")),
            latency: LazySpan::new(concat!("wp_server_request{endpoint=\"", $label, "\"}")),
        }
    };
}

/// One entry per [`ENDPOINTS`] slot, same order.
static OBS_ENDPOINTS: [EndpointObs; ENDPOINTS.len()] = [
    endpoint_obs!("/healthz"),
    endpoint_obs!("/corpus"),
    endpoint_obs!("/fingerprint"),
    endpoint_obs!("/similar"),
    endpoint_obs!("/predict"),
    endpoint_obs!("/recommend"),
    endpoint_obs!("/ingest"),
    endpoint_obs!("/drift"),
    endpoint_obs!("/stats"),
    endpoint_obs!("other"),
];

/// Connections accepted, those the accept-reset fault drops included.
static OBS_CONNECTIONS: LazyCounter = LazyCounter::new("wp_server_connections_total");

struct EndpointCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Ring of recent latencies (ns); zero = slot never written.
    ring: Vec<AtomicU64>,
    /// Monotone write cursor into `ring` (mod [`RING_SIZE`]).
    cursor: AtomicU64,
}

impl Default for EndpointCounters {
    fn default() -> Self {
        Self {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            ring: (0..RING_SIZE).map(|_| AtomicU64::new(0)).collect(),
            cursor: AtomicU64::new(0),
        }
    }
}

impl EndpointCounters {
    /// Ascending latencies currently held in the ring.
    fn sorted_samples(&self) -> Vec<u64> {
        let mut samples: Vec<u64> = self
            .ring
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&s| s > 0)
            .collect();
        samples.sort_unstable();
        samples
    }
}

/// Atomic accounting for every endpoint plus the response-cache counters.
#[derive(Default)]
pub struct ServerStats {
    endpoints: [EndpointCounters; ENDPOINTS.len()],
    connections: AtomicU64,
}

impl ServerStats {
    /// Index of a path in [`ENDPOINTS`], with unknown paths pooled under
    /// `"other"`.
    fn slot(path: &str) -> usize {
        ENDPOINTS
            .iter()
            .position(|e| *e == path)
            .unwrap_or(ENDPOINTS.len() - 1)
    }

    /// Records one handled request: its route, wall time, and whether the
    /// response was an error (status >= 400).
    pub fn record(&self, path: &str, elapsed_ns: u64, is_error: bool) {
        let i = Self::slot(path);
        let c = &self.endpoints[i];
        c.requests.fetch_add(1, Ordering::Relaxed);
        c.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        c.max_ns.fetch_max(elapsed_ns, Ordering::Relaxed);
        let slot = c.cursor.fetch_add(1, Ordering::Relaxed) as usize % RING_SIZE;
        c.ring[slot].store(elapsed_ns.max(1), Ordering::Relaxed);
        if is_error {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        let obs = &OBS_ENDPOINTS[i];
        obs.requests.add(1);
        obs.latency.observe_ns(elapsed_ns);
        if is_error {
            obs.errors.add(1);
        }
    }

    /// Records one accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        OBS_CONNECTIONS.add(1);
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|c| c.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot as the `/stats` JSON document.
    ///
    /// `cache` is `(hits, misses)` from the response cache. The
    /// percentiles cover the last `RING_SIZE` requests per endpoint
    /// (nearest rank — each value is an observed latency).
    pub fn to_json(&self, cache: (u64, u64)) -> Json {
        let endpoints: Vec<Json> = ENDPOINTS
            .iter()
            .zip(&self.endpoints)
            .map(|(name, c)| {
                let requests = c.requests.load(Ordering::Relaxed);
                let total_ns = c.total_ns.load(Ordering::Relaxed);
                let mean_ns = total_ns.checked_div(requests).unwrap_or(0);
                let samples = c.sorted_samples();
                obj! {
                    "endpoint" => *name,
                    "requests" => requests as f64,
                    "errors" => c.errors.load(Ordering::Relaxed) as f64,
                    "total_ns" => total_ns as f64,
                    "mean_ns" => mean_ns as f64,
                    "p50_ns" => nearest_rank(&samples, 50.0) as f64,
                    "p95_ns" => nearest_rank(&samples, 95.0) as f64,
                    "p99_ns" => nearest_rank(&samples, 99.0) as f64,
                    "max_ns" => c.max_ns.load(Ordering::Relaxed) as f64,
                }
            })
            .collect();
        obj! {
            "connections" => self.connections.load(Ordering::Relaxed) as f64,
            "total_requests" => self.total_requests() as f64,
            "cache" => obj! {
                "hits" => cache.0 as f64,
                "misses" => cache.1 as f64,
            },
            "endpoints" => endpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_endpoint() {
        let stats = ServerStats::default();
        stats.record("/similar", 1_000, false);
        stats.record("/similar", 3_000, true);
        stats.record("/nope", 10, true);
        assert_eq!(stats.total_requests(), 3);

        let doc = stats.to_json((5, 2));
        let endpoints = doc.get("endpoints").unwrap().as_arr().unwrap();
        let similar = endpoints
            .iter()
            .find(|e| e.get("endpoint").unwrap().as_str() == Some("/similar"))
            .unwrap();
        assert_eq!(similar.get("requests").unwrap().as_f64(), Some(2.0));
        assert_eq!(similar.get("errors").unwrap().as_f64(), Some(1.0));
        assert_eq!(similar.get("total_ns").unwrap().as_f64(), Some(4000.0));
        assert_eq!(similar.get("mean_ns").unwrap().as_f64(), Some(2000.0));
        assert_eq!(similar.get("max_ns").unwrap().as_f64(), Some(3000.0));

        let other = endpoints
            .iter()
            .find(|e| e.get("endpoint").unwrap().as_str() == Some("other"))
            .unwrap();
        assert_eq!(other.get("requests").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            doc.get("cache").unwrap().get("hits").unwrap().as_f64(),
            Some(5.0)
        );
    }

    #[test]
    fn percentiles_summarize_the_latency_ring() {
        let stats = ServerStats::default();
        // 100 distinct latencies: percentiles land on exact samples
        for i in 1..=100u64 {
            stats.record("/predict", i * 1_000, false);
        }
        let doc = stats.to_json((0, 0));
        let endpoints = doc.get("endpoints").unwrap().as_arr().unwrap();
        let predict = endpoints
            .iter()
            .find(|e| e.get("endpoint").unwrap().as_str() == Some("/predict"))
            .unwrap();
        assert_eq!(predict.get("p50_ns").unwrap().as_f64(), Some(50_000.0));
        assert_eq!(predict.get("p95_ns").unwrap().as_f64(), Some(95_000.0));
        assert_eq!(predict.get("p99_ns").unwrap().as_f64(), Some(99_000.0));
        assert_eq!(predict.get("max_ns").unwrap().as_f64(), Some(100_000.0));

        // endpoints with no traffic report zero percentiles
        let corpus = endpoints
            .iter()
            .find(|e| e.get("endpoint").unwrap().as_str() == Some("/corpus"))
            .unwrap();
        assert_eq!(corpus.get("p50_ns").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn ring_keeps_only_the_most_recent_samples() {
        let stats = ServerStats::default();
        // overfill the ring: the first RING_SIZE samples are huge, the
        // last RING_SIZE small — only the small ones survive
        for _ in 0..RING_SIZE {
            stats.record("/healthz", 1_000_000, false);
        }
        for _ in 0..RING_SIZE {
            stats.record("/healthz", 500, false);
        }
        let doc = stats.to_json((0, 0));
        let endpoints = doc.get("endpoints").unwrap().as_arr().unwrap();
        let healthz = endpoints
            .iter()
            .find(|e| e.get("endpoint").unwrap().as_str() == Some("/healthz"))
            .unwrap();
        assert_eq!(healthz.get("p99_ns").unwrap().as_f64(), Some(500.0));
        // max_ns is all-time, not ring-windowed
        assert_eq!(healthz.get("max_ns").unwrap().as_f64(), Some(1_000_000.0));
    }

    #[test]
    fn zero_latency_is_still_counted_in_the_ring() {
        let stats = ServerStats::default();
        stats.record("/stats", 0, false);
        let doc = stats.to_json((0, 0));
        let endpoints = doc.get("endpoints").unwrap().as_arr().unwrap();
        let s = endpoints
            .iter()
            .find(|e| e.get("endpoint").unwrap().as_str() == Some("/stats"))
            .unwrap();
        // clamped up to 1 ns so the sample is visible
        assert_eq!(s.get("p50_ns").unwrap().as_f64(), Some(1.0));
    }
}
