//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Registration (name → handle) takes a short `RwLock`; handles are
//! `Arc`'d atomics so recording never locks. Metrics are keyed by name
//! plus an optional, order-insensitive label set, mirroring the Prometheus
//! data model closely enough that [`RegistrySnapshot::render_text`] is a
//! valid scrape body.
//!
//! Everything that leaves a registry goes through a [`RegistrySnapshot`]:
//! it is the one form rendered (JSON for the `metrics` wire op,
//! Prometheus text for scrapers) and the one form merged into a fleet
//! view ([`RegistrySnapshot::merge`]). Renderings list buckets sparsely,
//! but every occupied bucket comes with the bound just below it (count 0
//! when that bucket is empty), so a reader that re-derives percentiles
//! from the listed buckets interpolates from the same lower edge as the
//! live histogram.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotone, lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable, lock-free signed gauge (queue depths, session counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (negative to subtract).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of non-negative `f64` observations.
///
/// Buckets are cumulative-upper-bound style (Prometheus `le`): observation
/// `v` lands in the first bucket whose bound is ≥ `v`, or the overflow
/// bucket past the last bound. Recording is lock-free: one binary search
/// plus three relaxed atomic updates (bucket, count, sum).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One per bound, plus the overflow bucket at the end.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations, stored as `f64` bits (CAS loop).
    sum_bits: AtomicU64,
    /// Per-bucket trace-id exemplars (0 = none): the trace id of the last
    /// traced sample landing in each bucket, so a tail bucket links a p99
    /// straight to a fetchable trace. Written only via
    /// [`record_with_exemplar`](Self::record_with_exemplar) — plain
    /// `record` never touches these.
    exemplars: Vec<AtomicU64>,
}

impl Histogram {
    /// Default latency buckets: 1µs rising by √2 per bucket to ~3000s
    /// (64 bounds), in seconds. Every power of 2 from the old doubling
    /// grid is still an edge (even indices land exactly on
    /// `1e-6 · 2^(i/2)`), with one extra edge splitting each former
    /// bucket, so p50/p95/p99 interpolation is within a factor of √2 of
    /// the true quantile anywhere in the range — tight enough that a
    /// handful of slow outliers in the next bucket up can no longer
    /// drag an interpolated p99 an order of magnitude away from the
    /// samples that produced it.
    pub fn latency() -> Self {
        Self::with_bounds(
            (0..64)
                .map(|i| {
                    let base = 1e-6 * f64::powi(2.0, i / 2);
                    if i % 2 == 0 {
                        base
                    } else {
                        base * std::f64::consts::SQRT_2
                    }
                })
                .collect(),
        )
    }

    /// Value buckets for small counts: 1 doubling to 2^20.
    pub fn counts() -> Self {
        Self::with_bounds((0..21).map(|i| f64::powi(2.0, i)).collect())
    }

    /// A histogram over explicit ascending bucket bounds.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        let exemplars = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            exemplars,
        }
    }

    /// The ascending bucket upper bounds (excluding the +Inf overflow).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Record one observation (clamped to ≥ 0).
    pub fn record(&self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a wall-clock duration in seconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    /// Record one observation and stamp its bucket's exemplar with the
    /// trace id of the request that produced it. Used by traced spans so
    /// a rendered histogram links its tail buckets to fetchable traces.
    pub fn record_with_exemplar(&self, v: f64, trace_id: u64) {
        let clamped = if v.is_finite() { v.max(0.0) } else { 0.0 };
        let idx = self.bounds.partition_point(|&b| b < clamped);
        self.exemplars[idx].store(trace_id, Ordering::Relaxed);
        self.record(v);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Quantile estimate by linear interpolation inside the bucket holding
    /// the rank (`q` clamped to [0, 1]; 0 when empty). The overflow bucket
    /// reports the last bound. Delegates to [`quantile_from_buckets`] —
    /// the same arithmetic [`RegistrySnapshot::merge`] uses on bucket-wise
    /// merged fleet histograms.
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets: Vec<(f64, u64)> = self
            .bounds
            .iter()
            .zip(&self.buckets)
            .map(|(&le, n)| (le, n.load(Ordering::Relaxed)))
            .collect();
        let overflow = self.buckets[self.bounds.len()].load(Ordering::Relaxed);
        quantile_from_buckets(q, &buckets, overflow)
    }

    /// Point-in-time copy of this histogram's state.
    pub fn snapshot(&self, name: &str, labels: &[(String, String)]) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            labels: labels.to_vec(),
            count: self.count(),
            sum: self.sum(),
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            buckets: self
                .bounds
                .iter()
                .zip(&self.buckets)
                .map(|(&le, n)| (le, n.load(Ordering::Relaxed)))
                .collect(),
            overflow: self.buckets[self.bounds.len()].load(Ordering::Relaxed),
            exemplars: self
                .bounds
                .iter()
                .chain(std::iter::once(&f64::INFINITY))
                .zip(&self.exemplars)
                .filter_map(|(&le, t)| {
                    let tid = t.load(Ordering::Relaxed);
                    (tid != 0).then_some((le, tid))
                })
                .collect(),
        }
        .with_quantiles()
    }
}

/// Quantile by linear interpolation over `(upper bound, count)` buckets
/// in ascending bound order, plus an overflow count past the last bound.
///
/// This is the single quantile kernel: [`Histogram::quantile`] feeds it a
/// live histogram's buckets, and [`RegistrySnapshot::merge`] feeds it
/// bucket-wise *merged* histograms, so fleet-wide percentiles are
/// computed exactly like local ones. `q` is clamped to [0, 1]; an empty
/// distribution reports 0; ranks landing in the overflow bucket report
/// the last listed bound. The interpolation lower edge of bucket `i` is
/// the listed bound of bucket `i - 1` (0 for the first). Sparse
/// renderings list the bound below every occupied bucket, so the union
/// of the bounds they list interpolates exactly like the dense buckets.
pub fn quantile_from_buckets(q: f64, buckets: &[(f64, u64)], overflow: u64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum::<u64>() + overflow;
    if total == 0 || buckets.is_empty() {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut cum = 0u64;
    for (i, &(le, n)) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let next = cum + n;
        if (next as f64) >= target {
            let lower = if i == 0 { 0.0 } else { buckets[i - 1].0 };
            let frac = (target - cum as f64) / n as f64;
            return lower + frac.clamp(0.0, 1.0) * (le - lower);
        }
        cum = next;
    }
    // Rank fell in the overflow bucket: no upper bound to interpolate to.
    buckets.last().map(|&(le, _)| le).unwrap_or(0.0)
}

/// Metric identity: name plus sorted labels.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

/// A registry of named metrics.
///
/// `register`-style lookups (`counter`, `gauge`, `histogram`) return the
/// existing handle when the (name, labels) key is already present, so any
/// number of call sites share one underlying atomic.
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<Key, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<Key, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<Key, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry (const: usable in statics).
    pub const fn new() -> Self {
        Self {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    fn get_or_insert<T>(
        map: &RwLock<BTreeMap<Key, Arc<T>>>,
        key: Key,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(found) = map.read().expect("registry poisoned").get(&key) {
            return found.clone();
        }
        map.write()
            .expect("registry poisoned")
            .entry(key)
            .or_insert_with(|| Arc::new(make()))
            .clone()
    }

    /// The counter named `name` (registered on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// A labeled counter, e.g. `counter_with("wire_requests_total", &[("op", "step")])`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, Key::new(name, labels), Counter::new)
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// A labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, Key::new(name, labels), Gauge::new)
    }

    /// The latency histogram named `name` (default 1µs–3000s √2 buckets).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// A labeled latency histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, Key::new(name, labels), Histogram::latency)
    }

    /// A histogram with explicit bucket bounds (e.g. [`Histogram::counts`]
    /// shapes for candidate-pool sizes). Bounds apply on first
    /// registration; later calls return the existing instance.
    pub fn histogram_with_bounds(&self, name: &str, bounds: Vec<f64>) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, Key::new(name, &[]), || {
            Histogram::with_bounds(bounds)
        })
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let value_of = |k: &Key, v: f64| MetricValue {
            name: k.name.clone(),
            labels: k.labels.clone(),
            series: render_series(&k.name, &k.labels),
            value: v,
        };
        let counters = self
            .counters
            .read()
            .expect("registry poisoned")
            .iter()
            .map(|(k, c)| value_of(k, c.get() as f64))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("registry poisoned")
            .iter()
            .map(|(k, g)| value_of(k, g.get() as f64))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("registry poisoned")
            .iter()
            .map(|(k, h)| h.snapshot(&k.name, &k.labels))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// `name` or `name{k="v",...}` — the Prometheus series identity.
fn render_series(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{}{{{}}}", name, body.join(","))
}

/// A JSON number; non-finite values (an overflow bucket's bound) render
/// as `null`.
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `[bound,n],...`; an infinite bound (the overflow bucket) renders as
/// `null`.
fn push_json_pairs(out: &mut String, pairs: impl Iterator<Item = (f64, u64)>) {
    for (i, (le, n)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{},{n}]", json_num(le)));
    }
}

/// One counter or gauge in a [`RegistrySnapshot`].
#[derive(Clone, Debug)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Sorted labels.
    pub labels: Vec<(String, String)>,
    /// Rendered series identity (name plus labels).
    pub series: String,
    /// Current value.
    pub value: f64,
}

impl MetricValue {
    /// This series with a `shard="source"` label, replacing any `shard`
    /// label it had.
    fn with_shard(&self, source: &str) -> Self {
        let mut labels: Vec<(String, String)> = self
            .labels
            .iter()
            .filter(|(k, _)| k != "shard")
            .cloned()
            .chain(std::iter::once(("shard".to_string(), source.to_string())))
            .collect();
        labels.sort();
        Self {
            name: self.name.clone(),
            series: render_series(&self.name, &labels),
            labels,
            value: self.value,
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted labels.
    pub labels: Vec<(String, String)>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Interpolated median.
    pub p50: f64,
    /// Interpolated 95th percentile.
    pub p95: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
    /// `(upper bound, non-cumulative count)` per bucket, ascending: every
    /// bucket of a live histogram; only the listed ones of a snapshot
    /// read back from a rendering, and their union after a merge.
    pub buckets: Vec<(f64, u64)>,
    /// Observations past the last bound.
    pub overflow: u64,
    /// `(upper bound, trace id)` exemplars for buckets that hold one; the
    /// overflow bucket appears as `f64::INFINITY`.
    pub exemplars: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// This snapshot with p50/p95/p99 computed from its buckets.
    fn with_quantiles(mut self) -> Self {
        let q = |q| quantile_from_buckets(q, &self.buckets, self.overflow);
        (self.p50, self.p95, self.p99) = (q(0.50), q(0.95), q(0.99));
        self
    }

    /// Fold in another snapshot of the same series: counts, sums and
    /// buckets (matched by bound) add; `other`'s exemplar wins a bound
    /// both hold one for.
    fn absorb(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.overflow += other.overflow;
        self.buckets = union_by_bound(&self.buckets, &other.buckets, |a, b| a + b);
        self.exemplars = union_by_bound(&self.exemplars, &other.exemplars, |_, b| b);
    }

    /// `(bound, count, count of the bucket above)` per bucket; the
    /// overflow bucket is above the last one.
    fn rows(&self) -> impl Iterator<Item = (f64, u64, u64)> + '_ {
        self.buckets.iter().enumerate().map(|(i, &(le, n))| {
            let above = self.buckets.get(i + 1).map_or(self.overflow, |b| b.1);
            (le, n, above)
        })
    }
}

/// The ascending union of two ascending `(bound, value)` lists; where
/// both hold a bound, the values combine as `join(a's, b's)`.
fn union_by_bound(
    a: &[(f64, u64)],
    b: &[(f64, u64)],
    join: impl Fn(u64, u64) -> u64,
) -> Vec<(f64, u64)> {
    let mut out: Vec<(f64, u64)> = a.iter().chain(b).copied().collect();
    // Stable: at a shared bound, a's entry stays ahead of b's.
    out.sort_by(|x, y| x.0.total_cmp(&y.0));
    out.dedup_by(|next, kept| {
        let shared = next.0 == kept.0;
        if shared {
            kept.1 = join(kept.1, next.1);
        }
        shared
    });
    out
}

/// Point-in-time copy of a whole registry, and the one form metrics are
/// rendered and merged from.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// All counters.
    pub counters: Vec<MetricValue>,
    /// All gauges.
    pub gauges: Vec<MetricValue>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// The fleet view of several registries, given as `(source,
    /// snapshot)` pairs:
    ///
    /// * Counters and gauges are **never summed**. Each series gains a
    ///   `shard="source"` label (replacing any `shard` label it had), so
    ///   every source's value stays inspectable and a scraper can sum
    ///   when it wants to.
    /// * Histograms keep their series and merge bucket-wise: count, sum,
    ///   overflow and each bucket (matched by bound) add, exemplars are
    ///   unioned (a later source's trace id wins a shared bucket), and
    ///   p50/p95/p99 are recomputed from the merged buckets with
    ///   [`quantile_from_buckets`]. A one-source merge therefore reports
    ///   exactly that source's percentiles.
    pub fn merge<'a>(sources: impl IntoIterator<Item = (&'a str, &'a RegistrySnapshot)>) -> Self {
        let mut merged = Self::default();
        let mut histograms: BTreeMap<Key, HistogramSnapshot> = BTreeMap::new();
        for (source, snapshot) in sources {
            merged
                .counters
                .extend(snapshot.counters.iter().map(|m| m.with_shard(source)));
            merged
                .gauges
                .extend(snapshot.gauges.iter().map(|m| m.with_shard(source)));
            for h in &snapshot.histograms {
                let key = Key {
                    name: h.name.clone(),
                    labels: h.labels.clone(),
                };
                match histograms.entry(key) {
                    Entry::Occupied(mut slot) => slot.get_mut().absorb(h),
                    Entry::Vacant(slot) => {
                        slot.insert(h.clone());
                    }
                }
            }
        }
        for values in [&mut merged.counters, &mut merged.gauges] {
            values.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        }
        merged.histograms = histograms
            .into_values()
            .map(HistogramSnapshot::with_quantiles)
            .collect();
        merged
    }

    /// Render as the `metrics` op's JSON object: `{"counters": {series:
    /// value}, "gauges": {...}, "histograms": {series: {count, sum, mean,
    /// p50, p95, p99, buckets, exemplars}}}`. `buckets` lists `[bound,
    /// count]` for every occupied bucket and the bucket just below it,
    /// then `[null, count]` for a non-empty overflow; `exemplars`
    /// (omitted when no bucket holds one) lists `[bound, trace id]`, with
    /// a `null` bound for the overflow.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (open, values) in [
            ("{\"counters\":{", &self.counters),
            ("},\"gauges\":{", &self.gauges),
        ] {
            out.push_str(open);
            for (i, m) in values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, &m.series);
                out.push(':');
                out.push_str(&json_num(m.value));
            }
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, &render_series(&h.name, &h.labels));
            let mean = if h.count == 0 {
                0.0
            } else {
                h.sum / h.count as f64
            };
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                h.count,
                json_num(h.sum),
                json_num(mean),
                json_num(h.p50),
                json_num(h.p95),
                json_num(h.p99),
            ));
            let listed = h
                .rows()
                .filter(|&(_, n, above)| n > 0 || above > 0)
                .map(|(le, n, _)| (le, n));
            let overflow = (h.overflow > 0).then_some((f64::INFINITY, h.overflow));
            push_json_pairs(&mut out, listed.chain(overflow));
            out.push(']');
            if !h.exemplars.is_empty() {
                out.push_str(",\"exemplars\":[");
                push_json_pairs(&mut out, h.exemplars.iter().copied());
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Render as Prometheus text exposition (version 0.0.4): a `# TYPE`
    /// line per metric name, one `series value` line per counter and
    /// gauge, and per histogram cumulative `_bucket{le=...}` lines from
    /// the bucket just below the first occupied one, then
    /// `_bucket{le="+Inf"}`, `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (kind, values) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            let mut last = "";
            for m in values {
                if m.name != last {
                    out.push_str(&format!("# TYPE {} {kind}\n", m.name));
                    last = &m.name;
                }
                out.push_str(&format!("{} {}\n", m.series, json_num(m.value)));
            }
        }
        let mut last = "";
        for h in &self.histograms {
            if h.name != last {
                out.push_str(&format!("# TYPE {} histogram\n", h.name));
                last = &h.name;
            }
            let bucket = |le: String| {
                let mut labels = h.labels.clone();
                labels.push(("le".into(), le));
                render_series(&format!("{}_bucket", h.name), &labels)
            };
            let mut cum = 0u64;
            for (le, n, above) in h.rows() {
                cum += n;
                if cum > 0 || above > 0 {
                    out.push_str(&format!("{} {cum}\n", bucket(format!("{le}"))));
                }
            }
            out.push_str(&format!("{} {}\n", bucket("+Inf".into()), cum + h.overflow));
            for (suffix, value) in [("_sum", json_num(h.sum)), ("_count", h.count.to_string())] {
                let series = render_series(&format!("{}{suffix}", h.name), &h.labels);
                out.push_str(&format!("{series} {value}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share_state() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        assert!(Arc::ptr_eq(&a, &b));
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x_total").get(), 3);

        let g = r.gauge("depth");
        g.set(5);
        g.dec();
        assert_eq!(r.gauge("depth").get(), 4);

        // Distinct labels are distinct series.
        let l1 = r.counter_with("y_total", &[("op", "a")]);
        let l2 = r.counter_with("y_total", &[("op", "b")]);
        assert!(!Arc::ptr_eq(&l1, &l2));
        // Label order does not matter.
        let l3 = r.counter_with("z_total", &[("a", "1"), ("b", "2")]);
        let l4 = r.counter_with("z_total", &[("b", "2"), ("a", "1")]);
        assert!(Arc::ptr_eq(&l3, &l4));
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        let r = MetricsRegistry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let c = r.counter("hammer_total");
                    let h = r.histogram("hammer_seconds");
                    let g = r.gauge("hammer_depth");
                    for i in 0..per_thread {
                        c.inc();
                        g.inc();
                        h.record((i % 100) as f64 * 1e-5);
                    }
                });
            }
        });
        assert_eq!(r.counter("hammer_total").get(), threads * per_thread);
        assert_eq!(r.gauge("hammer_depth").get(), (threads * per_thread) as i64);
        let h = r.histogram("hammer_seconds");
        assert_eq!(h.count(), threads * per_thread);
        // Sum via CAS loop must equal the exact arithmetic sum.
        let per_thread_sum: f64 = (0..per_thread).map(|i| (i % 100) as f64 * 1e-5).sum();
        let expect = per_thread_sum * threads as f64;
        assert!(
            (h.sum() - expect).abs() < 1e-6,
            "sum {} != {expect}",
            h.sum()
        );
    }

    #[test]
    fn histogram_percentiles_track_a_known_distribution() {
        // 10_000 uniform samples over (0, 1]: p50 ≈ 0.5, p95 ≈ 0.95.
        let h = Histogram::latency();
        let n = 10_000;
        for i in 1..=n {
            h.record(i as f64 / n as f64);
        }
        // Doubling buckets: an interpolated quantile is within its
        // bucket, i.e. within a factor of 2 of the true value.
        let p50 = h.quantile(0.50);
        assert!((0.25..=1.0).contains(&p50), "p50 {p50}");
        let p95 = h.quantile(0.95);
        assert!((0.475..=1.0).contains(&p95), "p95 {p95}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= p95, "quantiles must be monotone: {p99} < {p95}");
        assert!((h.mean() - 0.50005).abs() < 1e-3, "mean {}", h.mean());

        // A point mass interpolates inside one bucket: bounds of that
        // bucket bracket every quantile.
        let point = Histogram::latency();
        for _ in 0..1000 {
            point.record(0.003);
        }
        for q in [0.01, 0.5, 0.99] {
            let v = point.quantile(q);
            assert!((0.002..=0.0041).contains(&v), "q{q} = {v}");
        }
    }

    #[test]
    fn histogram_edge_cases() {
        let h = Histogram::latency();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        assert_eq!(h.mean(), 0.0);
        h.record(-3.0); // clamped to 0
        h.record(f64::NAN); // clamped to 0
        h.record(1e9); // overflow bucket
        assert_eq!(h.count(), 3);
        let s = h.snapshot("h", &[]);
        assert_eq!(s.overflow, 1);
        // Overflow quantile reports the last finite bound.
        assert_eq!(h.quantile(1.0), *h.bounds().last().unwrap());
    }

    #[test]
    fn latency_buckets_are_sqrt2_spaced_with_power_of_two_edges() {
        let h = Histogram::latency();
        let bounds = h.bounds();
        assert_eq!(bounds.len(), 64);
        // Every edge of the old doubling grid is still present, bit for
        // bit, so dashboards keyed on those edges read identically.
        for (i, &b) in bounds.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(b, 1e-6 * f64::powi(2.0, (i / 2) as i32));
            }
        }
        // ...and no decade is skipped: consecutive edges differ by √2.
        for w in bounds.windows(2) {
            let ratio = w[1] / w[0];
            assert!(
                (ratio - std::f64::consts::SQRT_2).abs() < 1e-12,
                "bucket ratio {ratio} strays from √2"
            );
        }
    }

    /// Pin the worst-case relative interpolation error of the latency
    /// grid: any quantile of any point mass inside the range must come
    /// out within a factor of √2 of the true value. The old doubling
    /// grid only guaranteed a factor of 2, which was enough for a few
    /// slow `graph_solve_seconds` samples near the top of a wide bucket
    /// to interpolate into a p99 wildly unlike any recorded sample.
    #[test]
    fn interpolated_quantiles_stay_within_sqrt2_of_point_masses() {
        let lo: f64 = 1.1e-6;
        let hi: f64 = 1.0e3;
        let steps = 400;
        let max_allowed = std::f64::consts::SQRT_2 * (1.0 + 1e-9);
        let mut worst = 1.0f64;
        for s in 0..=steps {
            let v = lo * (hi / lo).powf(s as f64 / steps as f64);
            let h = Histogram::latency();
            for _ in 0..100 {
                h.record(v);
            }
            for q in [0.5, 0.9, 0.95, 0.99] {
                let est = h.quantile(q);
                let ratio = (est / v).max(v / est);
                worst = worst.max(ratio);
                assert!(
                    ratio <= max_allowed,
                    "q{q} of a point mass at {v}: estimated {est}, \
                     relative error {ratio} exceeds √2"
                );
            }
        }
        assert!(worst > 1.0, "sweep exercised interpolation");
    }

    /// Regression for the motivating bug: a bimodal solve-time
    /// distribution (thousands of ~3.5ms solves, a handful of ~250ms
    /// ones) whose p99 falls inside the slow bucket. The interpolated
    /// p99 must stay within √2 of the slow mode instead of landing on a
    /// fictitious value no sample ever produced.
    #[test]
    fn bimodal_solve_times_interpolate_to_a_real_p99() {
        let h = Histogram::latency();
        for _ in 0..100 {
            h.record(0.0035);
        }
        for _ in 0..5 {
            h.record(0.25);
        }
        let p99 = h.quantile(0.99);
        let ratio = (p99 / 0.25).max(0.25 / p99);
        assert!(
            ratio <= std::f64::consts::SQRT_2,
            "p99 {p99} is not within √2 of the slow mode at 0.25s"
        );
    }

    #[test]
    fn empty_histogram_quantiles_are_defined_and_finite() {
        let h = Histogram::latency();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v.is_finite(), "q{q} must be finite on empty, got {v}");
            assert_eq!(v, 0.0, "empty histogram reports 0 at q{q}");
        }
        let s = h.snapshot("empty", &[]);
        assert!(s.p50.is_finite() && s.p95.is_finite() && s.p99.is_finite());
        assert_eq!((s.p50, s.p95, s.p99), (0.0, 0.0, 0.0));
    }

    #[test]
    fn single_sample_quantiles_bracket_the_sample() {
        let h = Histogram::latency();
        h.record(0.003);
        // 0.003 lands in the (0.002048, 0.004096] bucket; every quantile
        // interpolates inside that bucket.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(
                (0.002048..=0.004096).contains(&v),
                "q{q} = {v} escapes the sample's bucket"
            );
        }
    }

    #[test]
    fn all_overflow_histogram_reports_the_last_bound() {
        let h = Histogram::latency();
        let last = *h.bounds().last().unwrap();
        for _ in 0..100 {
            h.record(last * 10.0);
        }
        for q in [0.01, 0.5, 0.99] {
            assert_eq!(h.quantile(q), last, "overflow-only q{q}");
        }
        let s = h.snapshot("of", &[]);
        assert_eq!(s.overflow, 100);
        assert_eq!(s.count, 100);
        assert!(s.buckets.iter().all(|&(_, n)| n == 0));
    }

    #[test]
    fn quantile_is_exact_at_bucket_boundaries() {
        // Fill bucket (0.001024, 0.002048] completely: ranks that land
        // exactly on the bucket's edges interpolate to the bounds
        // themselves.
        let h = Histogram::with_bounds(vec![0.001024, 0.002048, 0.004096]);
        for _ in 0..100 {
            h.record(0.002);
        }
        // target = max(q * 100, 1); frac = (target - 0) / 100.
        assert_eq!(h.quantile(1.0), 0.002048, "top edge is the upper bound");
        // q = 0.01 → target 1 → frac 0.01: one sample-width above lower.
        let low = h.quantile(0.01);
        let width = 0.002048 - 0.001024;
        assert!((low - (0.001024 + 0.01 * width)).abs() < 1e-12);
        // Mixed buckets: with 50 samples below the bound and 50 above,
        // the median is exactly the shared boundary.
        let m = Histogram::with_bounds(vec![0.001, 0.002, 0.004]);
        for _ in 0..50 {
            m.record(0.0015); // (0.001, 0.002]
        }
        for _ in 0..50 {
            m.record(0.003); // (0.002, 0.004]
        }
        assert_eq!(m.quantile(0.5), 0.002, "median at the bucket boundary");
    }

    #[test]
    fn doubling_buckets_pin_the_2x_relative_error_claim() {
        // lib.rs claims interpolated quantiles on ×2 buckets are within
        // ~2× of the true quantile. Pin it on a uniform distribution over
        // (0, 1]: true quantile of q is q itself.
        let h = Histogram::latency();
        let n = 100_000;
        for i in 1..=n {
            h.record(i as f64 / n as f64);
        }
        for q in [0.05, 0.25, 0.5, 0.9, 0.95, 0.99] {
            let est = h.quantile(q);
            let truth = q;
            let ratio = est / truth;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "q{q}: estimate {est} vs true {truth} (ratio {ratio}) breaks the 2x bound"
            );
        }
    }

    #[test]
    fn quantile_from_buckets_matches_live_histogram_and_hand_merge() {
        let a = Histogram::latency();
        let b = Histogram::latency();
        for i in 0..400u32 {
            a.record(1e-5 * (1 + i % 37) as f64);
            b.record(3e-4 * (1 + i % 11) as f64);
        }
        b.record(1e9); // one overflow sample on shard b

        // The standalone kernel over a histogram's own buckets IS its
        // quantile (shared implementation, sanity-checked here).
        let sa = a.snapshot("s", &[]);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                quantile_from_buckets(q, &sa.buckets, sa.overflow),
                a.quantile(q)
            );
        }

        // Hand-merge the two shards bucket-wise and compare against a
        // single histogram fed both streams — the "true fleet" histogram.
        let merged: Vec<(f64, u64)> = sa
            .buckets
            .iter()
            .zip(&b.snapshot("s", &[]).buckets)
            .map(|(&(le, na), &(_, nb))| (le, na + nb))
            .collect();
        let merged_overflow = sa.overflow + b.snapshot("s", &[]).overflow;
        let fleet = Histogram::latency();
        for i in 0..400u32 {
            fleet.record(1e-5 * (1 + i % 37) as f64);
            fleet.record(3e-4 * (1 + i % 11) as f64);
        }
        fleet.record(1e9);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                quantile_from_buckets(q, &merged, merged_overflow),
                fleet.quantile(q),
                "merged quantile q{q} must equal the single-histogram truth"
            );
        }
    }

    #[test]
    fn exemplars_record_per_bucket_and_render() {
        let h = Histogram::latency();
        h.record(0.003); // plain record: no exemplar
        h.record_with_exemplar(0.003, 0xabcd);
        h.record_with_exemplar(1e9, 0x1234); // overflow bucket
        let s = h.snapshot("ex", &[]);
        assert!(s.exemplars.contains(&(0.004096, 0xabcd)));
        assert!(s
            .exemplars
            .iter()
            .any(|&(le, tid)| le.is_infinite() && tid == 0x1234));

        let r = MetricsRegistry::new();
        let hr = r.histogram("ex_seconds");
        hr.record_with_exemplar(0.003, 77);
        let json = r.snapshot().render_json();
        assert!(
            json.contains("\"exemplars\":[[0.004096,77]]"),
            "json: {json}"
        );
        // Untouched histograms render no exemplars key.
        let r2 = MetricsRegistry::new();
        r2.histogram("plain_seconds").record(0.1);
        assert!(!r2.snapshot().render_json().contains("exemplars"));
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let r = MetricsRegistry::new();
        r.counter("steps_total").add(7);
        r.counter_with("req_total", &[("op", "step")]).add(2);
        r.gauge("queue_depth").set(3);
        let h = r.histogram("lat_seconds");
        h.record(0.01);
        h.record(0.02);
        let text = r.snapshot().render_text();
        assert!(text.contains("# TYPE steps_total counter\nsteps_total 7\n"));
        assert!(text.contains("req_total{op=\"step\"} 2\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth 3\n"));
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_seconds_count 2\n"));
        // Cumulative buckets end at the total count.
        let inf_line = text
            .lines()
            .find(|l| l.starts_with("lat_seconds_bucket{le=\"+Inf\"}"))
            .unwrap();
        assert!(inf_line.ends_with(" 2"));
    }

    #[test]
    fn render_json_parses_structurally() {
        let r = MetricsRegistry::new();
        r.counter("a_total").inc();
        r.gauge("g").set(-2);
        r.histogram("h_seconds").record(0.5);
        let json = r.snapshot().render_json();
        // Shape checks without a JSON parser (obs is dependency-free).
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"a_total\":1"));
        assert!(json.contains("\"g\":-2"));
        assert!(json.contains("\"h_seconds\":{\"count\":1"));
        assert!(json.contains("\"p95\":"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn snapshot_carries_every_metric() {
        let r = MetricsRegistry::new();
        r.counter("c_total").add(4);
        r.gauge("g").set(9);
        r.histogram("h_seconds").record(0.25);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.counters[0].value, 4.0);
        assert_eq!(s.gauges[0].value, 9.0);
        assert_eq!(s.histograms[0].count, 1);
        assert!(s.histograms[0].p50 > 0.0);
    }
    /// Pins both renderings of one small fixed registry byte for byte:
    /// series order, number formatting, the JSON's sparse buckets (each
    /// occupied bucket, the overflow included, comes with the bound just
    /// below it: `[0.125,0]`, `[1,0]`, `[4,0]`; the empty 0.5 bucket is
    /// no lower edge and is left out), the overflow pair and exemplars,
    /// and the text's cumulative buckets from just below the first
    /// occupied one.
    #[test]
    fn renderings_of_a_fixed_registry_are_pinned() {
        let r = MetricsRegistry::new();
        r.counter("steps_total").add(7);
        r.counter_with("req_total", &[("op", "step")]).add(2);
        r.gauge("queue_depth").set(-1);
        let h = r.histogram_with_bounds("lat_seconds", vec![0.125, 0.25, 0.5, 1.0, 2.0, 4.0]);
        h.record(0.1875);
        h.record(0.1875);
        h.record_with_exemplar(1.5, 77);
        h.record_with_exemplar(8.0, 99);
        let s = r.snapshot();
        assert_eq!(
            s.render_json(),
            concat!(
                r#"{"counters":{"req_total{op=\"step\"}":2,"steps_total":7},"#,
                r#""gauges":{"queue_depth":-1},"#,
                r#""histograms":{"lat_seconds":{"count":4,"sum":9.875,"mean":2.46875,"#,
                r#""p50":0.25,"p95":4,"p99":4,"#,
                r#""buckets":[[0.125,0],[0.25,2],[1,0],[2,1],[4,0],[null,1]],"#,
                r#""exemplars":[[2,77],[null,99]]}}}"#,
            )
        );
        assert_eq!(
            s.render_text(),
            concat!(
                "# TYPE req_total counter\n",
                "req_total{op=\"step\"} 2\n",
                "# TYPE steps_total counter\n",
                "steps_total 7\n",
                "# TYPE queue_depth gauge\n",
                "queue_depth -1\n",
                "# TYPE lat_seconds histogram\n",
                "lat_seconds_bucket{le=\"0.125\"} 0\n",
                "lat_seconds_bucket{le=\"0.25\"} 2\n",
                "lat_seconds_bucket{le=\"0.5\"} 2\n",
                "lat_seconds_bucket{le=\"1\"} 2\n",
                "lat_seconds_bucket{le=\"2\"} 3\n",
                "lat_seconds_bucket{le=\"4\"} 3\n",
                "lat_seconds_bucket{le=\"+Inf\"} 4\n",
                "lat_seconds_sum 9.875\n",
                "lat_seconds_count 4\n",
            )
        );
    }

    /// One shard's registry with every quantity scaled by `scale`: two
    /// counters (one labeled), a gauge, and a two-bucket histogram with
    /// an exemplar in its first bucket.
    fn shard_snapshot(scale: u64) -> RegistrySnapshot {
        let r = MetricsRegistry::new();
        r.counter("steps_total").add(10 * scale);
        r.counter_with("wire_requests_total", &[("op", "step")])
            .add(7 * scale);
        r.counter_with("stale_total", &[("shard", "old")]).inc();
        r.gauge("sessions_active").set(3 * scale as i64);
        let h = r.histogram_with_bounds("harvest_step_seconds", vec![0.064, 0.256]);
        h.record_with_exemplar(0.05, 42 * scale);
        for _ in 1..4 * scale {
            h.record(0.05);
        }
        for _ in 0..2 * scale {
            h.record(0.2);
        }
        r.snapshot()
    }

    fn value_of(values: &[MetricValue], series: &str) -> Option<f64> {
        values.iter().find(|m| m.series == series).map(|m| m.value)
    }

    #[test]
    fn counters_become_shard_labeled_series_never_summed() {
        let (a, b) = (shard_snapshot(1), shard_snapshot(2));
        let fleet = RegistrySnapshot::merge([("a", &a), ("b", &b)]);
        let c = &fleet.counters;
        assert_eq!(value_of(c, "steps_total{shard=\"a\"}"), Some(10.0));
        assert_eq!(value_of(c, "steps_total{shard=\"b\"}"), Some(20.0));
        assert!(
            c.iter().all(|m| m.labels.iter().any(|(k, _)| k == "shard")),
            "unlabeled sum must not exist"
        );
        // Existing labels survive, sorted together with the shard label;
        // a stale shard label is replaced, not duplicated.
        assert_eq!(
            value_of(c, "wire_requests_total{op=\"step\",shard=\"a\"}"),
            Some(7.0)
        );
        assert_eq!(value_of(c, "stale_total{shard=\"b\"}"), Some(1.0));
        assert_eq!(
            value_of(&fleet.gauges, "sessions_active{shard=\"b\"}"),
            Some(6.0)
        );
        // Same-name series stay together, so the text has one TYPE line
        // per name.
        let text = fleet.render_text();
        assert_eq!(text.matches("# TYPE steps_total counter").count(), 1);
    }

    #[test]
    fn histograms_merge_bucket_wise() {
        let (a, b) = (shard_snapshot(1), shard_snapshot(2));
        let fleet = RegistrySnapshot::merge([("a", &a), ("b", &b)]);
        let h = &fleet.histograms[0];
        assert_eq!((h.name.as_str(), h.count), ("harvest_step_seconds", 18));
        assert!((h.sum - 1.8).abs() < 1e-9);
        assert_eq!(h.buckets, vec![(0.064, 12), (0.256, 6)]);
        assert_eq!(h.overflow, 0);
        // Exemplars unioned per bucket; the later source wins.
        assert_eq!(h.exemplars, vec![(0.064, 84)]);
        // An empty overflow renders no `[null,0]` pair.
        assert!(fleet
            .render_json()
            .contains(r#""buckets":[[0.064,12],[0.256,6]],"exemplars":[[0.064,84]]"#));
    }

    #[test]
    fn fleet_percentiles_match_hand_merged_buckets() {
        let (a, b) = (shard_snapshot(1), shard_snapshot(2));
        let h = &RegistrySnapshot::merge([("a", &a), ("b", &b)]).histograms[0];
        // Hand-merge: 12 samples ≤ 0.064, 6 more ≤ 0.256, 18 total.
        let hand = [(0.064, 12u64), (0.256, 6u64)];
        for (q, got) in [(0.50, h.p50), (0.95, h.p95), (0.99, h.p99)] {
            assert_eq!(got, quantile_from_buckets(q, &hand, 0), "q{q}");
        }
        // p50 target rank 9 lies inside the first bucket (lower edge 0).
        assert!(h.p50 > 0.0 && h.p50 <= 0.064, "p50 {}", h.p50);
        // p99 target rank 18 lands in the second bucket.
        assert!(h.p99 > 0.064 && h.p99 <= 0.256, "p99 {}", h.p99);
    }
}
