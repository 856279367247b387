//! `wp-obs` — a global, gated metrics and tracing registry.
//!
//! Every stage of the prediction pipeline reports into one process-wide
//! registry of named series: monotone **counters**, last-write **gauges**,
//! and **span timers** (count / total ns / max ns per name). The registry
//! follows the `wp-faults` invariant exactly: observability is **off by
//! default**, and while it is off every instrumentation site costs a
//! single relaxed atomic load — no allocation, no lock, no `Instant`
//! syscall — and the instrumented code produces byte-identical outputs
//! to an uninstrumented build.
//!
//! The registry holds only series whose code has no owning instance:
//! the pipeline's stages (runtime, feature selection, similarity, the
//! index). A count that an object already keeps for itself, such as a
//! server's requests or a cache's hits, stays with that object; its
//! owner renders it into a [`Snapshot`] when asked, and
//! [`Snapshot::merge`] joins it with the registry's.
//!
//! # Hot paths vs. cold paths
//!
//! Hot sites (a distance call, a pool batch) use [`LazyCounter`] /
//! [`LazySpan`] statics: the series name is a `const` string, the
//! registry is consulted once ever (cached through a [`OnceLock`]), and
//! recording is a couple of relaxed `fetch_add`s. Cold sites with
//! runtime-labeled series (a feature-selection strategy name) use
//! [`time_labeled`], which allocates the series name — but only after
//! the enabled check passes.
//!
//! # Exposition
//!
//! [`snapshot`] freezes every registered series (sorted by name, so a
//! snapshot of deterministic counters is itself deterministic) and
//! renders as Prometheus text ([`Snapshot::render_prometheus`], served
//! by `GET /metrics` after the server merges in its own series), a
//! human table ([`Snapshot::render_summary`],
//! printed by `wp trace`), or JSON ([`Snapshot::to_json`], embedded in
//! chaos/loadgen reports). [`parse_prometheus`] is the matching reader
//! used by load generators to validate a scrape.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use wp_json::Json;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the registry on or off. Off is the default; see the crate docs
/// for what "off" guarantees.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Shorthand for `set_enabled(true)`.
pub fn enable() {
    set_enabled(true);
}

/// Whether instrumentation currently records. The single load every
/// disabled hot-path site pays.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotone counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge.
#[derive(Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Aggregate of one span timer: how often it ran, total and worst time.
#[derive(Default)]
pub struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    /// Records one timed interval.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

enum Slot {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Span(&'static SpanStat),
}

fn registry() -> &'static Mutex<BTreeMap<String, Slot>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Slot>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Slot>> {
    registry().lock().expect("obs registry poisoned")
}

/// Returns the counter registered under `name`, creating it on first
/// use. Registered series live for the process lifetime (they are
/// leaked), which is what lets hot paths hold `&'static` handles.
///
/// # Panics
///
/// Panics if `name` is already registered as a different series kind.
pub fn register_counter(name: &str) -> &'static Counter {
    let mut map = lock_registry();
    match map
        .entry(name.to_string())
        .or_insert_with(|| Slot::Counter(Box::leak(Box::default())))
    {
        Slot::Counter(c) => c,
        _ => panic!("series '{name}' is registered as a non-counter"),
    }
}

/// Counter-style registration for a [`Gauge`]; see [`register_counter`].
pub fn register_gauge(name: &str) -> &'static Gauge {
    let mut map = lock_registry();
    match map
        .entry(name.to_string())
        .or_insert_with(|| Slot::Gauge(Box::leak(Box::default())))
    {
        Slot::Gauge(g) => g,
        _ => panic!("series '{name}' is registered as a non-gauge"),
    }
}

/// Counter-style registration for a [`SpanStat`]; see [`register_counter`].
pub fn register_span(name: &str) -> &'static SpanStat {
    let mut map = lock_registry();
    match map
        .entry(name.to_string())
        .or_insert_with(|| Slot::Span(Box::leak(Box::default())))
    {
        Slot::Span(s) => s,
        _ => panic!("series '{name}' is registered as a non-span"),
    }
}

/// A statically-named counter whose registry lookup happens at most once.
///
/// ```
/// static DISTANCE_CALLS: wp_obs::LazyCounter =
///     wp_obs::LazyCounter::new("wp_similarity_distance_calls_total");
/// DISTANCE_CALLS.add(1); // no-op unless wp_obs::enable() was called
/// ```
pub struct LazyCounter {
    name: &'static str,
    slot: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A counter that will register under `name` on first enabled use.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: OnceLock::new(),
        }
    }

    /// Adds `n` when the registry is enabled; otherwise a relaxed load.
    #[inline]
    pub fn add(&self, n: u64) {
        if !is_enabled() {
            return;
        }
        self.slot.get_or_init(|| register_counter(self.name)).add(n);
    }
}

/// [`LazyCounter`]'s gauge twin.
pub struct LazyGauge {
    name: &'static str,
    slot: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// A gauge that will register under `name` on first enabled use.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: OnceLock::new(),
        }
    }

    /// Sets the gauge when the registry is enabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if !is_enabled() {
            return;
        }
        self.slot.get_or_init(|| register_gauge(self.name)).set(v);
    }
}

/// [`LazyCounter`]'s span-timer twin.
pub struct LazySpan {
    name: &'static str,
    slot: OnceLock<&'static SpanStat>,
}

impl LazySpan {
    /// A span timer that will register under `name` on first enabled use.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: OnceLock::new(),
        }
    }

    /// Starts timing; the returned guard records on drop. Disabled, the
    /// guard is inert and no clock is read.
    #[inline]
    pub fn start(&self) -> SpanGuard {
        if !is_enabled() {
            return SpanGuard(None);
        }
        SpanGuard(Some((
            self.slot.get_or_init(|| register_span(self.name)),
            Instant::now(),
        )))
    }

    /// Records an externally-measured interval (for sites that already
    /// hold an elapsed time, like the server's request timer).
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        if !is_enabled() {
            return;
        }
        self.slot
            .get_or_init(|| register_span(self.name))
            .observe_ns(ns);
    }
}

/// Records the elapsed time into its span when dropped.
pub struct SpanGuard(Option<(&'static SpanStat, Instant)>);

impl SpanGuard {
    /// A guard that records nothing — for call sites that must skip even
    /// building a labeled series name while disabled.
    pub const fn inert() -> Self {
        Self(None)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((stat, started)) = self.0.take() {
            stat.observe_ns(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }
}

/// `family{label="value"}` — the one label shape the suite uses.
pub fn series(family: &str, label: &str, value: &str) -> String {
    format!("{family}{{{label}=\"{value}\"}}")
}

/// Starts a span guard on `family{label="value"}`; inert when disabled.
pub fn time_labeled(family: &str, label: &str, value: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some((
        register_span(&series(family, label, value)),
        Instant::now(),
    )))
}

/// Zeroes every registered series (names stay registered). Used between
/// chaos replays so a second run's numbers are not contaminated by the
/// first's.
pub fn reset() {
    for slot in lock_registry().values() {
        match slot {
            Slot::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Slot::Gauge(g) => g.value.store(0, Ordering::Relaxed),
            Slot::Span(s) => {
                s.count.store(0, Ordering::Relaxed);
                s.total_ns.store(0, Ordering::Relaxed);
                s.max_ns.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Frozen values of one span timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Completed intervals.
    pub count: u64,
    /// Sum of interval lengths.
    pub total_ns: u64,
    /// Longest interval.
    pub max_ns: u64,
}

/// A point-in-time copy of a set of series: the registry's, or an
/// owner's rendered at call time. [`snapshot`] and [`Snapshot::merge`]
/// leave each kind sorted by series name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter series.
    pub counters: Vec<(String, u64)>,
    /// Gauge series.
    pub gauges: Vec<(String, u64)>,
    /// Span-timer series.
    pub spans: Vec<(String, SpanSnapshot)>,
}

/// Copies every registered series out of the registry.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for (name, slot) in lock_registry().iter() {
        match slot {
            Slot::Counter(c) => snap.counters.push((name.clone(), c.get())),
            Slot::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
            Slot::Span(s) => snap.spans.push((
                name.clone(),
                SpanSnapshot {
                    count: s.count.load(Ordering::Relaxed),
                    total_ns: s.total_ns.load(Ordering::Relaxed),
                    max_ns: s.max_ns.load(Ordering::Relaxed),
                },
            )),
        }
    }
    snap
}

/// `("family", "{labels}")` — the name split at the label block.
fn split_family(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => name.split_at(i),
        None => (name, ""),
    }
}

impl Snapshot {
    /// Prometheus text exposition (version 0.0.4): one `# TYPE` line per
    /// family, then `name value` samples. Span timers expand into three
    /// series per name: `<family>_count`, `<family>_ns_total` (both
    /// counters) and `<family>_ns_max` (a gauge), each keeping the
    /// original label block.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut sample = |out: &mut String, name: &str, kind: &str, value: u64| {
            let (family, _) = split_family(name);
            if typed.insert(family.to_string()) {
                out.push_str(&format!("# TYPE {family} {kind}\n"));
            }
            out.push_str(&format!("{name} {value}\n"));
        };
        for (name, v) in &self.counters {
            sample(&mut out, name, "counter", *v);
        }
        for (name, v) in &self.gauges {
            sample(&mut out, name, "gauge", *v);
        }
        for (name, s) in &self.spans {
            let (family, labels) = split_family(name);
            sample(
                &mut out,
                &format!("{family}_count{labels}"),
                "counter",
                s.count,
            );
            sample(
                &mut out,
                &format!("{family}_ns_total{labels}"),
                "counter",
                s.total_ns,
            );
            sample(
                &mut out,
                &format!("{family}_ns_max{labels}"),
                "gauge",
                s.max_ns,
            );
        }
        out
    }

    /// Adds `other`'s series, keeping each kind sorted by name so that
    /// every family's lines stay together in the exposition. The two
    /// snapshots are expected to name disjoint series.
    pub fn merge(&mut self, other: Snapshot) {
        fn by_name<T>(ours: &mut Vec<(String, T)>, theirs: Vec<(String, T)>) {
            ours.extend(theirs);
            ours.sort_by(|a, b| a.0.cmp(&b.0));
        }
        by_name(&mut self.counters, other.counters);
        by_name(&mut self.gauges, other.gauges);
        by_name(&mut self.spans, other.spans);
    }

    /// A human-readable table for `wp trace`.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<64} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<64} {v}\n"));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans: (count | mean µs | max µs)\n");
            for (name, s) in &self.spans {
                let mean_us = if s.count == 0 {
                    0.0
                } else {
                    s.total_ns as f64 / s.count as f64 / 1e3
                };
                out.push_str(&format!(
                    "  {name:<64} {:>8} | {:>12.1} | {:>12.1}\n",
                    s.count,
                    mean_us,
                    s.max_ns as f64 / 1e3,
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no series registered)\n");
        }
        out
    }

    /// JSON document mirroring the registry, for embedding in reports.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::from(*v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(n, v)| (n.clone(), Json::from(*v as f64)))
                .collect(),
        );
        let spans = Json::Obj(
            self.spans
                .iter()
                .map(|(n, s)| {
                    (
                        n.clone(),
                        wp_json::obj! {
                            "count" => s.count as f64,
                            "total_ns" => s.total_ns as f64,
                            "max_ns" => s.max_ns as f64,
                        },
                    )
                })
                .collect(),
        );
        wp_json::obj! {
            "counters" => counters,
            "gauges" => gauges,
            "spans" => spans,
        }
    }
}

/// Parses Prometheus text exposition back into `(series, value)` pairs.
/// Comment (`#`) and blank lines are skipped; any other line must be
/// `name value` with a parseable number. The inverse of
/// [`Snapshot::render_prometheus`], used by scrape validation.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no sample value in '{line}'", lineno + 1))?;
        let v: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad sample value '{value}'", lineno + 1))?;
        if name.is_empty() {
            return Err(format!("line {}: empty series name", lineno + 1));
        }
        out.push((name.trim().to_string(), v));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that flip the enable gate
    /// must not interleave.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = guard();
        set_enabled(false);
        static C: LazyCounter = LazyCounter::new("test_disabled_total");
        static S: LazySpan = LazySpan::new("test_disabled_span");
        C.add(5);
        drop(S.start());
        let snap = snapshot();
        assert!(!snap
            .counters
            .iter()
            .any(|(n, _)| n == "test_disabled_total"));
        assert!(!snap.spans.iter().any(|(n, _)| n == "test_disabled_span"));
    }

    #[test]
    fn enabled_counters_spans_and_gauges_accumulate() {
        let _g = guard();
        set_enabled(true);
        static C: LazyCounter = LazyCounter::new("test_enabled_total");
        static G: LazyGauge = LazyGauge::new("test_enabled_gauge");
        static S: LazySpan = LazySpan::new("test_enabled_span");
        reset();
        C.add(2);
        C.add(3);
        G.set(7);
        drop(S.start());
        S.observe_ns(1_000);
        let snap = snapshot();
        let c = snap
            .counters
            .iter()
            .find(|(n, _)| n == "test_enabled_total")
            .expect("counter registered");
        assert_eq!(c.1, 5);
        let g = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "test_enabled_gauge")
            .expect("gauge registered");
        assert_eq!(g.1, 7);
        let s = snap
            .spans
            .iter()
            .find(|(n, _)| n == "test_enabled_span")
            .expect("span registered");
        assert_eq!(s.1.count, 2);
        assert!(s.1.total_ns >= 1_000);
        set_enabled(false);
    }

    #[test]
    fn labeled_series_register_per_value() {
        let _g = guard();
        set_enabled(true);
        reset();
        drop(time_labeled("test_labeled_span", "kind", "a"));
        let snap = snapshot();
        assert!(snap
            .spans
            .iter()
            .any(|(n, _)| n == "test_labeled_span{kind=\"a\"}"));
        set_enabled(false);
    }

    #[test]
    fn prometheus_text_round_trips_through_the_parser() {
        let _g = guard();
        set_enabled(true);
        reset();
        register_counter(&series("test_rt_total", "stage", "pivot")).add(4);
        register_gauge("test_rt_gauge").set(9);
        register_span("test_rt_span{op=\"x\"}").observe_ns(250);
        let snap = snapshot();
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE test_rt_total counter"), "{text}");
        assert!(
            text.contains("test_rt_total{stage=\"pivot\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("test_rt_span_count{op=\"x\"} 1\n"), "{text}");
        assert!(
            text.contains("test_rt_span_ns_total{op=\"x\"} 250\n"),
            "{text}"
        );
        let parsed = parse_prometheus(&text).expect("own exposition must parse");
        assert!(parsed
            .iter()
            .any(|(n, v)| n == "test_rt_total{stage=\"pivot\"}" && *v == 4.0));
        assert!(parsed
            .iter()
            .any(|(n, v)| n == "test_rt_gauge" && *v == 9.0));
        // a TYPE line is emitted at most once per family
        assert_eq!(text.matches("# TYPE test_rt_total ").count(), 1);
        set_enabled(false);
    }

    #[test]
    fn parse_rejects_malformed_samples() {
        assert!(parse_prometheus("name_only\n").is_err());
        assert!(parse_prometheus("series nope\n").is_err());
        assert!(parse_prometheus("# comment\n\n").unwrap().is_empty());
        let ok = parse_prometheus("a 1\nb{l=\"v\"} 2.5\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[1], ("b{l=\"v\"}".to_string(), 2.5));
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _g = guard();
        set_enabled(true);
        register_counter("test_reset_total").add(3);
        reset();
        let snap = snapshot();
        let c = snap
            .counters
            .iter()
            .find(|(n, _)| n == "test_reset_total")
            .expect("still registered");
        assert_eq!(c.1, 0);
        set_enabled(false);
    }

    #[test]
    fn merge_keeps_each_family_together_in_name_order() {
        let span = |count| SpanSnapshot {
            count,
            total_ns: 10 * count,
            max_ns: 10,
        };
        let mut snap = Snapshot {
            counters: vec![
                ("a_total".to_string(), 1),
                ("c_total{k=\"x\"}".to_string(), 2),
            ],
            gauges: vec![("g".to_string(), 3)],
            spans: vec![("s{k=\"b\"}".to_string(), span(1))],
        };
        snap.merge(Snapshot {
            counters: vec![
                ("c_total{k=\"y\"}".to_string(), 4),
                ("b_total".to_string(), 5),
                ("c_total{k=\"w\"}".to_string(), 6),
            ],
            gauges: Vec::new(),
            spans: vec![("s{k=\"a\"}".to_string(), span(2))],
        });
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "a_total",
                "b_total",
                "c_total{k=\"w\"}",
                "c_total{k=\"x\"}",
                "c_total{k=\"y\"}"
            ]
        );
        assert_eq!(snap.gauges, [("g".to_string(), 3)]);
        assert_eq!(snap.spans[0], ("s{k=\"a\"}".to_string(), span(2)));
        let text = snap.render_prometheus();
        assert_eq!(text.matches("# TYPE c_total counter").count(), 1);
        assert!(
            text.contains("c_total{k=\"w\"} 6\nc_total{k=\"x\"} 2\nc_total{k=\"y\"} 4\n"),
            "{text}"
        );
    }

    #[test]
    fn snapshot_is_sorted_and_json_mirrors_it() {
        let _g = guard();
        set_enabled(true);
        reset();
        register_counter("test_sort_b_total").add(1);
        register_counter("test_sort_a_total").add(1);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let doc = snap.to_json();
        assert!(doc.get("counters").is_some());
        assert!(doc.get("spans").is_some());
        set_enabled(false);
    }
}
