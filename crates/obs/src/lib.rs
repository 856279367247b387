//! `wp-obs` — a global, gated metrics and tracing registry.
//!
//! Every stage of the prediction pipeline reports into one process-wide
//! registry of named series: monotone **counters**, last-write **gauges**,
//! and **span timers** (count / total ns / max ns and a latency histogram
//! per name, see [`SpanStat`]). The registry
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

/// log2 of the buckets per power of two in a [`SpanStat`]'s histogram.
const SUB_BITS: u32 = 4;
/// Buckets per power of two; every value below this has a bucket of its own.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// The histogram's buckets end at 2^`TOP_EXP` ns (~18 minutes); longer
/// intervals count in the top bucket.
const TOP_EXP: u32 = 40;
/// Buckets in a [`SpanStat`]'s histogram: 16 one-value buckets below
/// 16 ns, then 16 per power of two from 2^4 to 2^40 ns.
pub const BUCKETS: usize = ((TOP_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// The histogram bucket that counts an interval of `ns`: `ns` itself
/// below 16, and from 2^e ns on (e ≥ 4) one of 16 equal buckets of
/// 2^(e−4) ns. Values from 2^40 ns up share the top bucket.
#[inline]
fn bucket_index(ns: u64) -> usize {
    let shift = (ns | SUB_BUCKETS).ilog2() - SUB_BITS;
    (((u64::from(shift) << SUB_BITS) + (ns >> shift)) as usize).min(BUCKETS - 1)
}

/// The smallest value bucket `i` counts.
fn bucket_lower(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        i
    } else {
        (SUB_BUCKETS | (i & (SUB_BUCKETS - 1))) << ((i >> SUB_BITS) - 1)
    }
}

/// The largest value bucket `i` counts: `u64::MAX` for the top bucket.
fn bucket_upper(i: usize) -> u64 {
    if i + 1 < BUCKETS {
        bucket_lower(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// Aggregate of one span timer: how often it ran, total and worst time,
/// and a fixed log-linear histogram of its intervals. Below 16 ns each
/// value has a bucket of its own; above, each power of two is cut into
/// 16 equal buckets up to 2^40 ns, so no bucket is wider than 1/16 of
/// its lower bound, and longer intervals count in the top bucket.
/// Recording is four relaxed atomics; the histogram is one allocation
/// of [`BUCKETS`] counters.
pub struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: Box<[AtomicU64; BUCKETS]>,
}

impl Default for SpanStat {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: Box::new([const { AtomicU64::new(0) }; BUCKETS]),
        }
    }
}

impl SpanStat {
    /// Records one timed interval.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        // A plain load first: most intervals are not a new maximum, and
        // `fetch_max` would take the cache line exclusively every time.
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Intervals recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A copy of every field, each read once. Under concurrent recording
    /// the fields may disagree by the intervals in flight.
    pub fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: Box::new(std::array::from_fn(|i| {
                self.buckets[i].load(Ordering::Relaxed)
            })),
        }
    }

    fn clear(&self) {
        for atomic in [&self.count, &self.total_ns, &self.max_ns]
            .into_iter()
            .chain(self.buckets.iter())
        {
            atomic.store(0, Ordering::Relaxed);
        }
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
            Slot::Span(s) => s.clear(),
        }
    }
}

/// Frozen values of one span timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Completed intervals.
    pub count: u64,
    /// Sum of interval lengths.
    pub total_ns: u64,
    /// Longest interval.
    pub max_ns: u64,
    /// Intervals per histogram bucket (see [`SpanStat`]).
    pub buckets: Box<[u64; BUCKETS]>,
}

impl SpanSnapshot {
    /// Nearest-rank percentile `p ∈ [0, 100]`, at bucket resolution: the
    /// largest value of the bucket that holds rank `⌈p/100 · n⌉` of the
    /// `n` bucketed intervals, clamped to `max_ns`. So it never exceeds
    /// the maximum, never decreases as `p` rises, and below the
    /// open-ended top bucket is at most 1/16 above the exact nearest-rank
    /// value; `0` when nothing was recorded.
    pub fn percentile(&self, p: f64) -> u64 {
        let n: u64 = self.buckets.iter().sum();
        let rank = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n.max(1));
        let mut seen = 0;
        let bucket = self.buckets.iter().position(|&k| {
            seen += k;
            seen >= rank
        });
        bucket.map_or(0, |i| bucket_upper(i).min(self.max_ns))
    }

    /// Cumulative interval counts at the exposition's bucket bounds:
    /// `(le, count)` with `count` the intervals of at most `le` ns, for
    /// `le` = 2^k − 1 (k = 10, 12, …, 36) and then `None` for `+Inf`.
    fn cumulative(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        let mut below = 0;
        let mut next = 0;
        (10..=36)
            .step_by(2)
            .map(|k| Some(1u64 << k))
            .chain([None])
            .map(move |bound| {
                let end = bound.map_or(BUCKETS, bucket_index);
                below += self.buckets[next..end].iter().sum::<u64>();
                next = end;
                (bound.map(|b| b - 1), below)
            })
    }
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
            Slot::Span(s) => snap.spans.push((name.clone(), s.snapshot())),
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
    /// family, then `name value` samples. Span timers expand into
    /// `<family>_count`, `<family>_ns_total` (both counters) and
    /// `<family>_ns_max` (a gauge), each keeping the original label
    /// block, then the cumulative histogram counter
    /// `<family>_ns_bucket{…,le="…"}` at the same bounds for every span:
    /// `le` = 2^k − 1 ns for k = 10, 12, …, 36 (a bucket's largest value,
    /// as in [`SpanSnapshot::percentile`]; 1023 ns to ~68.7 s), then
    /// `+Inf`, which counts every bucketed interval.
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
            let open = match labels.strip_suffix('}') {
                Some(labels) => format!("{labels},"),
                None => "{".to_string(),
            };
            for (le, count) in s.cumulative() {
                let le = le.map_or_else(|| "+Inf".to_string(), |le| le.to_string());
                let name = format!("{family}_ns_bucket{open}le=\"{le}\"}}");
                sample(&mut out, &name, "counter", count);
            }
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
        register_span("test_rt_plain").observe_ns(5_000);
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
        // every span carries the same cumulative bucket bounds, labeled
        // or not
        assert!(
            text.contains("# TYPE test_rt_span_ns_bucket counter\n"),
            "{text}"
        );
        for (series, count) in [
            ("test_rt_span_ns_bucket{op=\"x\",le=\"1023\"}", 1),
            ("test_rt_span_ns_bucket{op=\"x\",le=\"68719476735\"}", 1),
            ("test_rt_span_ns_bucket{op=\"x\",le=\"+Inf\"}", 1),
            ("test_rt_plain_ns_bucket{le=\"4095\"}", 0),
            ("test_rt_plain_ns_bucket{le=\"16383\"}", 1),
            ("test_rt_plain_ns_bucket{le=\"+Inf\"}", 1),
        ] {
            assert!(text.contains(&format!("{series} {count}\n")), "{text}");
        }
        assert_eq!(text.matches("test_rt_plain_ns_bucket{").count(), 15);
        set_enabled(false);
    }

    /// The bucket rule, over its edges and 10,000 seeded draws spread
    /// across every power of two: each value lands in a bucket that
    /// holds it, buckets tile the range at most 1/16 of their lower
    /// bound wide, and a percentile is the largest value of the exact
    /// nearest-rank sample's bucket, clamped to the maximum, so it never
    /// decreases as `p` rises and never exceeds `max_ns`. Below the
    /// open-ended top bucket it is within 1/16 of the exact value.
    #[test]
    fn bucket_rule_holds_on_edges_and_seeded_draws() {
        const TOP: u64 = 1 << 40;
        let mut rng = wp_linalg::Rng64::new(0x0B5E_2025);
        let edges = [0, 1, 15, 16, 17, TOP - 1, TOP, u64::MAX];
        let draws = (0..10_000).map(|_| rng.next_u64() >> rng.below(64));
        let values: Vec<u64> = edges.into_iter().chain(draws).collect();

        for &v in &values {
            let i = bucket_index(v);
            if v < TOP {
                assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "{v} in {i}");
            } else {
                assert_eq!(i, BUCKETS - 1, "{v} past 2^40 ns");
            }
        }
        for i in 0..BUCKETS {
            let lower = bucket_lower(i);
            let end = if i + 1 < BUCKETS {
                bucket_lower(i + 1)
            } else {
                TOP
            };
            assert_eq!(bucket_index(lower), i, "bucket {i} starts at {lower}");
            if lower >= 16 {
                assert!((end - lower) * 16 <= lower, "bucket {i} is too wide");
            } else {
                assert_eq!(end - lower, 1, "bucket {i} holds one value");
            }
        }

        // Capping the values moves the maximum through the range, so the
        // clamp to `max_ns` is exercised at every scale.
        for cap in [1 << 10, 1 << 20, 1 << 30, TOP, u64::MAX] {
            let stat = SpanStat::default();
            let mut sorted: Vec<u64> = values.iter().copied().filter(|&v| v <= cap).collect();
            sorted.iter().for_each(|&v| stat.observe_ns(v)); // in draw order
            sorted.sort_unstable();
            let snap = stat.snapshot();
            assert_eq!(snap.count, sorted.len() as u64);
            assert_eq!(snap.max_ns, *sorted.last().unwrap());
            let mut last = 0;
            for p in (0..=1_000).map(|p| f64::from(p) / 10.0) {
                let q = snap.percentile(p);
                assert!(last <= q && q <= snap.max_ns, "p{p} = {q} after {last}");
                let exact = wp_linalg::stats::nearest_rank(&sorted, p);
                assert_eq!(q, bucket_upper(bucket_index(exact)).min(snap.max_ns));
                if (16..bucket_lower(BUCKETS - 1)).contains(&exact) {
                    assert!((q - exact) * 16 < exact, "p{p}: {q} vs {exact}");
                }
                last = q;
            }
        }
        assert_eq!(SpanStat::default().snapshot().percentile(50.0), 0);
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
            buckets: Box::new([0; BUCKETS]),
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
