//! Per-endpoint request accounting, surfaced by `GET /stats` and, as
//! `wp-obs` series rendered at scrape time, by `GET /metrics`.
//!
//! Every request is timed with `Instant` at nanosecond resolution and
//! recorded into one [`wp_obs::SpanStat`] per endpoint, whose count is the
//! request count, beside an error counter: four relaxed atomics and no
//! lock on the request path. The counts are this server's own and are
//! kept whether or not observability is on. `/stats` reports nearest-rank
//! p50/p95/p99 over every request since start, read from the span's
//! log-linear histogram: each is the largest value of the bucket that
//! holds its rank (at most 1/16 above the exact value) clamped to
//! `max_ns`. `/metrics` renders the same span, buckets included.

use wp_json::{obj, Json};
use wp_obs::{series, Counter, Snapshot, SpanStat};

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

/// One endpoint's accounting: its latency span, whose count is the
/// request count, and its error responses.
#[derive(Default)]
struct EndpointCounters {
    latency: SpanStat,
    errors: Counter,
}

/// Atomic accounting for every endpoint and for accepted connections.
#[derive(Default)]
pub struct ServerStats {
    endpoints: [EndpointCounters; ENDPOINTS.len()],
    connections: Counter,
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
        let c = &self.endpoints[Self::slot(path)];
        c.latency.observe_ns(elapsed_ns);
        if is_error {
            c.errors.add(1);
        }
    }

    /// Records one accepted connection.
    pub fn record_connection(&self) {
        self.connections.add(1);
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.endpoints.iter().map(|c| c.latency.count()).sum()
    }

    /// The same counts as `wp-obs` series, for `/metrics`: per endpoint
    /// `wp_server_requests_total`, `wp_server_errors_total` and the span
    /// `wp_server_request` (whose `_count` is the request counter), plus
    /// `wp_server_connections_total`.
    pub(crate) fn metrics(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (name, c) in ENDPOINTS.iter().zip(&self.endpoints) {
            let endpoint = |family: &str| series(family, "endpoint", name);
            let latency = c.latency.snapshot();
            snap.counters.extend([
                (endpoint("wp_server_requests_total"), latency.count),
                (endpoint("wp_server_errors_total"), c.errors.get()),
            ]);
            snap.spans.push((endpoint("wp_server_request"), latency));
        }
        snap.counters.push((
            "wp_server_connections_total".to_string(),
            self.connections.get(),
        ));
        snap
    }

    /// Snapshot as the `/stats` JSON document.
    ///
    /// `cache` is `(hits, misses)` from the response cache. The
    /// percentiles cover every request since start, at the histogram's
    /// resolution (see the module docs).
    pub fn to_json(&self, cache: (u64, u64)) -> Json {
        let endpoints: Vec<Json> = ENDPOINTS
            .iter()
            .zip(&self.endpoints)
            .map(|(name, c)| {
                let latency = c.latency.snapshot();
                let mean_ns = latency.total_ns.checked_div(latency.count).unwrap_or(0);
                obj! {
                    "endpoint" => *name,
                    "requests" => latency.count as f64,
                    "errors" => c.errors.get() as f64,
                    "total_ns" => latency.total_ns as f64,
                    "mean_ns" => mean_ns as f64,
                    "p50_ns" => latency.percentile(50.0) as f64,
                    "p95_ns" => latency.percentile(95.0) as f64,
                    "p99_ns" => latency.percentile(99.0) as f64,
                    "max_ns" => latency.max_ns as f64,
                }
            })
            .collect();
        obj! {
            "connections" => self.connections.get() as f64,
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

    /// The `/stats` row of `endpoint`.
    fn row(doc: &Json, endpoint: &str) -> Json {
        let endpoints = doc.get("endpoints").unwrap().as_arr().unwrap();
        endpoints
            .iter()
            .find(|e| e.get("endpoint").unwrap().as_str() == Some(endpoint))
            .unwrap()
            .clone()
    }

    fn field(row: &Json, key: &str) -> f64 {
        row.get(key).and_then(Json::as_f64).unwrap()
    }

    #[test]
    fn records_accumulate_per_endpoint() {
        let stats = ServerStats::default();
        stats.record("/similar", 1_000, false);
        stats.record("/similar", 3_000, true);
        stats.record("/nope", 10, true);
        assert_eq!(stats.total_requests(), 3);

        let doc = stats.to_json((5, 2));
        let similar = row(&doc, "/similar");
        assert_eq!(field(&similar, "requests"), 2.0);
        assert_eq!(field(&similar, "errors"), 1.0);
        assert_eq!(field(&similar, "total_ns"), 4000.0);
        assert_eq!(field(&similar, "mean_ns"), 2000.0);
        assert_eq!(field(&similar, "max_ns"), 3000.0);

        assert_eq!(field(&row(&doc, "other"), "requests"), 1.0);
        assert_eq!(
            doc.get("cache").unwrap().get("hits").unwrap().as_f64(),
            Some(5.0)
        );
    }

    #[test]
    fn percentiles_are_the_largest_value_of_the_rank_bucket() {
        let stats = ServerStats::default();
        // Nearest ranks 50, 95 and 99 are 50, 95 and 99 µs. Each reads as
        // the largest value of its bucket: [49,152, 51,200),
        // [94,208, 98,304) and [98,304, 102,400), the last clamped to the
        // 100 µs maximum.
        for i in 1..=100u64 {
            stats.record("/predict", i * 1_000, false);
        }
        let doc = stats.to_json((0, 0));
        let predict = row(&doc, "/predict");
        assert_eq!(field(&predict, "p50_ns"), 51_199.0);
        assert_eq!(field(&predict, "p95_ns"), 98_303.0);
        assert_eq!(field(&predict, "p99_ns"), 100_000.0);
        assert_eq!(field(&predict, "max_ns"), 100_000.0);

        // endpoints with no traffic report zero percentiles
        assert_eq!(field(&row(&doc, "/corpus"), "p50_ns"), 0.0);
    }

    #[test]
    fn slow_requests_still_set_p99_after_fast_ones() {
        let stats = ServerStats::default();
        // The percentiles cover every request since start: 1,024 fast
        // requests after 1,024 slow ones leave the slow half at p99.
        for _ in 0..1_024 {
            stats.record("/healthz", 1_000_000, false);
        }
        for _ in 0..1_024 {
            stats.record("/healthz", 500, false);
        }
        let healthz = row(&stats.to_json((0, 0)), "/healthz");
        assert_eq!(field(&healthz, "p50_ns"), 511.0);
        assert_eq!(field(&healthz, "p99_ns"), 1_000_000.0);
        assert_eq!(field(&healthz, "max_ns"), 1_000_000.0);
    }

    #[test]
    fn metrics_render_the_same_counts_per_endpoint() {
        let stats = ServerStats::default();
        stats.record("/similar", 1_000, false);
        stats.record("/similar", 3_000, true);
        stats.record_connection();
        let snap = stats.metrics();
        let counter = |name: &str| snap.counters.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(
            counter("wp_server_requests_total{endpoint=\"/similar\"}"),
            2
        );
        assert_eq!(counter("wp_server_errors_total{endpoint=\"/similar\"}"), 1);
        assert_eq!(counter("wp_server_requests_total{endpoint=\"/corpus\"}"), 0);
        assert_eq!(counter("wp_server_connections_total"), 1);
        let span = |name: &str| &snap.spans.iter().find(|(n, _)| n == name).unwrap().1;
        let similar = span("wp_server_request{endpoint=\"/similar\"}");
        assert_eq!(
            (similar.count, similar.total_ns, similar.max_ns),
            (2, 4_000, 3_000)
        );
        assert_eq!(similar.percentile(100.0), 3_000);
        assert_eq!(snap.spans.len(), ENDPOINTS.len());
    }

    #[test]
    fn zero_latency_counts_as_itself() {
        let stats = ServerStats::default();
        stats.record("/stats", 0, false);
        let s = row(&stats.to_json((0, 0)), "/stats");
        assert_eq!(field(&s, "requests"), 1.0);
        assert_eq!(field(&s, "p50_ns"), 0.0);
        assert_eq!(field(&s, "max_ns"), 0.0);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let stats = ServerStats::default();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let stats = &stats;
                scope.spawn(move || {
                    for i in 0..25_000u64 {
                        stats.record("/similar", t * 1_000_003 + i * 37, false);
                    }
                });
            }
        });
        let snap = stats.metrics();
        let (_, similar) = snap
            .spans
            .iter()
            .find(|(n, _)| n == "wp_server_request{endpoint=\"/similar\"}")
            .unwrap();
        assert_eq!(similar.count, 100_000);
        assert_eq!(similar.buckets.iter().sum::<u64>(), 100_000);
        assert_eq!(stats.total_requests(), 100_000);
    }
}
