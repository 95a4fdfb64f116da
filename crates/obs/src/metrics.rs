//! The metrics registry: counters, gauges and log-bucketed latency
//! histograms with Prometheus-style exposition.
//!
//! Recording is lock-free (`AtomicU64` relaxed ops on `Arc`-backed
//! cells). The registry itself is a `Mutex<BTreeMap>` touched only when
//! handles are created and when the metrics are collected for
//! rendering, never per recorded sample. Several live handles may share
//! one `(name, labels)` series — collection sums them and prunes
//! handles whose owners have been dropped.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Number of histogram buckets. Bucket `i` covers values up to
/// `2^i` (microseconds, by convention); the last bucket is `+Inf`.
pub const BUCKETS: usize = 40;

/// Bucket index for a recorded value: the smallest `i` with
/// `v <= 2^i`, clamped to the `+Inf` bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Upper bound of bucket `i` (`u64::MAX` stands in for `+Inf`).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A handle not registered anywhere (useful as a default in tests).
    pub fn detached() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn detached() -> Gauge {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free log-bucketed histogram core.
pub struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of `v` in one shot — how pre-bucketed
    /// walk-local histograms fold into a registry series without
    /// replaying every observation.
    #[inline]
    fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A latency histogram handle. `record` is lock-free.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    pub fn detached() -> Histogram {
        Histogram(Arc::new(HistogramCore::new()))
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Record `n` observations of `v` at once.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        self.0.record_n(v, n);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// A point-in-time copy of a histogram (possibly merged across several
/// handles of one series).
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// rank-`ceil(q * count)` sample, clamped to the observed maximum.
    /// Always within one log2 bucket of the exact sample quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn prom(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Handles {
    Counter(Vec<Weak<AtomicU64>>),
    Gauge(Vec<Weak<AtomicI64>>),
    Histogram(Vec<Weak<HistogramCore>>),
}

impl Handles {
    /// Drop dead weak references; report whether any handle survives.
    fn prune(&mut self) -> bool {
        match self {
            Handles::Counter(v) => {
                v.retain(|w| w.strong_count() > 0);
                !v.is_empty()
            }
            Handles::Gauge(v) => {
                v.retain(|w| w.strong_count() > 0);
                !v.is_empty()
            }
            Handles::Histogram(v) => {
                v.retain(|w| w.strong_count() > 0);
                !v.is_empty()
            }
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    handles: Handles,
}

struct Family {
    kind: Kind,
    help: String,
    series: Vec<Series>,
}

/// The central registry. Use the process-wide [`global`] instance; a
/// private `Registry::new()` is handy in tests.
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Rendered value of one `(name, labels)` series. (The histogram
/// snapshot is boxed: it is ~350 bytes of bucket counts.)
enum SeriesValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<HistogramSnapshot>),
}

struct CollectedSeries {
    labels: Vec<(String, String)>,
    value: SeriesValue,
}

struct CollectedFamily {
    name: String,
    kind: Kind,
    help: String,
    series: Vec<CollectedSeries>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    pub const fn new() -> Registry {
        Registry {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    /// Create a new counter handle under `name` with no labels.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Create a new counter handle under `(name, labels)`. Every call
    /// returns an independent handle; the series value is the sum of
    /// all live handles. Do not call per request.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let handle = Counter::detached();
        let weak = Arc::downgrade(&handle.0);
        self.register(name, help, labels, Kind::Counter, |handles| match handles {
            Handles::Counter(v) => v.push(weak),
            _ => unreachable!(),
        });
        handle
    }

    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let handle = Gauge::detached();
        let weak = Arc::downgrade(&handle.0);
        self.register(name, help, labels, Kind::Gauge, |handles| match handles {
            Handles::Gauge(v) => v.push(weak),
            _ => unreachable!(),
        });
        handle
    }

    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let handle = Histogram::detached();
        let weak = Arc::downgrade(&handle.0);
        self.register(
            name,
            help,
            labels,
            Kind::Histogram,
            |handles| match handles {
                Handles::Histogram(v) => v.push(weak),
                _ => unreachable!(),
            },
        );
        handle
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        push: impl FnOnce(&mut Handles),
    ) {
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: Vec::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name:?} registered as {:?} and {kind:?}",
            family.kind
        );
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let series = match family.series.iter_mut().find(|s| s.labels == labels) {
            Some(s) => s,
            None => {
                family.series.push(Series {
                    labels,
                    handles: match kind {
                        Kind::Counter => Handles::Counter(Vec::new()),
                        Kind::Gauge => Handles::Gauge(Vec::new()),
                        Kind::Histogram => Handles::Histogram(Vec::new()),
                    },
                });
                family.series.last_mut().unwrap()
            }
        };
        push(&mut series.handles);
    }

    /// Sum every live handle per series, pruning dead ones. Series with
    /// no surviving handle are dropped (their history dies with the
    /// owners — acceptable for a process-lifetime registry).
    fn collect(&self) -> Vec<CollectedFamily> {
        let mut families = self.families.lock().unwrap();
        let mut out = Vec::new();
        for (name, family) in families.iter_mut() {
            family.series.retain_mut(|s| s.handles.prune());
            let mut series = Vec::new();
            for s in &family.series {
                let value = match &s.handles {
                    Handles::Counter(v) => SeriesValue::Counter(
                        v.iter()
                            .filter_map(|w| w.upgrade())
                            .map(|a| a.load(Ordering::Relaxed))
                            .sum(),
                    ),
                    Handles::Gauge(v) => SeriesValue::Gauge(
                        v.iter()
                            .filter_map(|w| w.upgrade())
                            .map(|a| a.load(Ordering::Relaxed))
                            .sum(),
                    ),
                    Handles::Histogram(v) => {
                        let mut snap = HistogramSnapshot::empty();
                        for h in v.iter().filter_map(|w| w.upgrade()) {
                            snap.merge(&h.snapshot());
                        }
                        SeriesValue::Histogram(Box::new(snap))
                    }
                };
                series.push(CollectedSeries {
                    labels: s.labels.clone(),
                    value,
                });
            }
            if !series.is_empty() {
                out.push(CollectedFamily {
                    name: name.clone(),
                    kind: family.kind,
                    help: family.help.clone(),
                    series,
                });
            }
        }
        out
    }

    /// Render the whole registry in Prometheus text exposition format.
    pub fn render_prom(&self) -> String {
        let mut out = String::new();
        for family in self.collect() {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&prom_escape(&family.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.kind.prom());
            out.push('\n');
            for s in &family.series {
                match &s.value {
                    SeriesValue::Counter(v) => {
                        out.push_str(&family.name);
                        out.push_str(&label_block(&s.labels, None));
                        out.push_str(&format!(" {v}\n"));
                    }
                    SeriesValue::Gauge(v) => {
                        out.push_str(&family.name);
                        out.push_str(&label_block(&s.labels, None));
                        out.push_str(&format!(" {v}\n"));
                    }
                    SeriesValue::Histogram(snap) => {
                        // Cumulative buckets up to the last non-empty
                        // finite bucket, then +Inf.
                        let last = snap.buckets[..BUCKETS - 1]
                            .iter()
                            .rposition(|&b| b > 0)
                            .map(|i| i + 1)
                            .unwrap_or(0);
                        let mut cum = 0u64;
                        for i in 0..last {
                            cum += snap.buckets[i];
                            out.push_str(&family.name);
                            out.push_str("_bucket");
                            out.push_str(&label_block(
                                &s.labels,
                                Some(&bucket_bound(i).to_string()),
                            ));
                            out.push_str(&format!(" {cum}\n"));
                        }
                        out.push_str(&family.name);
                        out.push_str("_bucket");
                        out.push_str(&label_block(&s.labels, Some("+Inf")));
                        out.push_str(&format!(" {}\n", snap.count));
                        out.push_str(&family.name);
                        out.push_str("_sum");
                        out.push_str(&label_block(&s.labels, None));
                        out.push_str(&format!(" {}\n", snap.sum));
                        out.push_str(&family.name);
                        out.push_str("_count");
                        out.push_str(&label_block(&s.labels, None));
                        out.push_str(&format!(" {}\n", snap.count));
                    }
                }
            }
        }
        out
    }

    /// Render the registry as one JSON line: a flat object keyed by the
    /// series name (labels included), histograms summarised as
    /// `{count, sum, max, p50, p95, p99}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        let mut first = true;
        for family in self.collect() {
            for s in &family.series {
                if !first {
                    out.push(',');
                }
                first = false;
                let key = format!("{}{}", family.name, label_block(&s.labels, None));
                out.push_str(&format!("\"{}\":", json_escape(&key)));
                match &s.value {
                    SeriesValue::Counter(v) => out.push_str(&v.to_string()),
                    SeriesValue::Gauge(v) => out.push_str(&v.to_string()),
                    SeriesValue::Histogram(snap) => {
                        out.push_str(&format!(
                            "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                            snap.count,
                            snap.sum,
                            snap.max,
                            snap.quantile(0.50),
                            snap.quantile(0.95),
                            snap.quantile(0.99)
                        ));
                    }
                }
            }
        }
        out.push_str("}}");
        out
    }
}

/// `{k="v",...}` (empty string when there are no labels), with an
/// optional trailing `le` label for histogram buckets.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", prom_escape_label(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn prom_escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape a string for embedding in a JSON string literal: quotes,
/// backslashes, and control characters (`\n`, `\r` and `\t` in their
/// short forms, the rest as `\u00XX`). The daemon's wire frames and the
/// metrics JSON both escape through this.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry every component records into.
pub fn global() -> &'static Registry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 (obs depends on nothing, so a local copy).
    struct SplitMix64(u64);
    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn bucket_index_matches_bounds() {
        for i in 0..BUCKETS {
            let bound = bucket_bound(i);
            assert_eq!(bucket_index(bound), i, "bound of bucket {i}");
            if i + 1 < BUCKETS - 1 {
                assert_eq!(bucket_index(bound + 1), i + 1, "just past bucket {i}");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    /// Quantile estimates land in the same log2 bucket as the exact
    /// sample quantile and never undershoot it.
    #[test]
    fn quantiles_within_one_bucket_of_exact() {
        for seed in [1u64, 7, 42] {
            let mut rng = SplitMix64(seed);
            let h = Histogram::detached();
            let mut samples: Vec<u64> = (0..10_000)
                .map(|_| {
                    // Mix of magnitudes: from sub-microsecond to ~1s.
                    let shift = rng.next() % 30;
                    rng.next() % (1u64 << shift).max(1)
                })
                .collect();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            let snap = h.snapshot();
            for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let exact = samples[rank - 1];
                let est = snap.quantile(q);
                assert!(est >= exact, "q={q}: est {est} < exact {exact}");
                assert_eq!(
                    bucket_index(est),
                    bucket_index(exact),
                    "q={q}: est {est} not in exact sample's bucket ({exact})"
                );
            }
            assert_eq!(snap.quantile(1.0), snap.max);
            assert_eq!(snap.count, samples.len() as u64);
            assert_eq!(snap.sum, samples.iter().sum::<u64>());
        }
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::detached();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        assert_eq!(h.snapshot().count, 0);
    }

    /// Concurrent recording loses nothing: totals are exact, buckets
    /// sum to the count, and mid-flight snapshots are monotone.
    #[test]
    fn concurrent_recording_is_lossless_and_monotone() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 50_000;
        let h = Histogram::detached();
        let watcher = {
            let h = h.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                loop {
                    let snap = h.snapshot();
                    assert!(snap.count >= last, "count went backwards");
                    last = snap.count;
                    if last >= THREADS as u64 * PER_THREAD {
                        return;
                    }
                    std::thread::yield_now();
                }
            })
        };
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    let mut rng = SplitMix64(t as u64 + 1);
                    let mut sum = 0u64;
                    for _ in 0..PER_THREAD {
                        let v = rng.next() % 1_000_000;
                        h.record(v);
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        let expected_sum: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        watcher.join().unwrap();
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS as u64 * PER_THREAD);
        assert_eq!(snap.sum, expected_sum);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    /// Independent handles of one series sum at collection; dropped
    /// handles are pruned and their series disappears once empty.
    #[test]
    fn registry_sums_live_handles_and_prunes_dead_ones() {
        let reg = Registry::new();
        let a = reg.counter_with("txmm_test_total", "test counter", &[("shard", "0")]);
        let b = reg.counter_with("txmm_test_total", "test counter", &[("shard", "0")]);
        let c = reg.counter_with("txmm_test_total", "test counter", &[("shard", "1")]);
        a.add(3);
        b.add(4);
        c.add(5);
        let prom = reg.render_prom();
        assert!(prom.contains("# TYPE txmm_test_total counter"), "{prom}");
        assert!(prom.contains("txmm_test_total{shard=\"0\"} 7"), "{prom}");
        assert!(prom.contains("txmm_test_total{shard=\"1\"} 5"), "{prom}");
        drop(c);
        let prom = reg.render_prom();
        assert!(!prom.contains("shard=\"1\""), "{prom}");
        assert!(prom.contains("txmm_test_total{shard=\"0\"} 7"), "{prom}");
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_closed_by_inf() {
        let reg = Registry::new();
        let h = reg.histogram_with("txmm_test_micros", "test latencies", &[("cmd", "check")]);
        for v in [1u64, 1, 3, 100, 5_000] {
            h.record(v);
        }
        let prom = reg.render_prom();
        assert!(prom.contains("# TYPE txmm_test_micros histogram"), "{prom}");
        assert!(
            prom.contains("txmm_test_micros_bucket{cmd=\"check\",le=\"1\"} 2"),
            "{prom}"
        );
        assert!(
            prom.contains("txmm_test_micros_bucket{cmd=\"check\",le=\"+Inf\"} 5"),
            "{prom}"
        );
        assert!(
            prom.contains("txmm_test_micros_sum{cmd=\"check\"} 5105"),
            "{prom}"
        );
        assert!(
            prom.contains("txmm_test_micros_count{cmd=\"check\"} 5"),
            "{prom}"
        );
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in prom.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts decreased: {prom}");
            last = v;
        }
    }

    #[test]
    fn gauge_moves_both_ways_and_renders_json() {
        let reg = Registry::new();
        let g = reg.gauge("txmm_test_active", "active things");
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        let c = reg.counter_with("txmm_test_reqs_total", "requests", &[("cmd", "check")]);
        c.add(9);
        let h = reg.histogram("txmm_test_lat", "latency");
        h.record(7);
        let json = reg.render_json();
        assert!(json.starts_with("{\"metrics\":{"), "{json}");
        assert!(json.contains("\"txmm_test_active\":3"), "{json}");
        assert!(
            json.contains("\"txmm_test_reqs_total{cmd=\\\"check\\\"}\":9"),
            "{json}"
        );
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(!json.contains('\n'), "json must be one line: {json}");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _c = reg.counter("txmm_test_conflict", "as counter");
        let _g = reg.gauge("txmm_test_conflict", "as gauge");
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        let c = reg.counter_with("txmm_test_esc_total", "escapes", &[("file", "a\"b\\c")]);
        c.inc();
        let prom = reg.render_prom();
        assert!(prom.contains("file=\"a\\\"b\\\\c\""), "{prom}");
        // JSON strings: short forms for \n, \r and \t, \u00XX for the
        // other control characters.
        assert_eq!(
            json_escape("q\"b\\n\nr\rt\tz\u{1}"),
            "q\\\"b\\\\n\\nr\\rt\\tz\\u0001"
        );
    }
}
