//! Pure arithmetic of the benchmark: percentiles under the ten-beyond
//! rule, registry deltas, and layer self times. Kept free of I/O so the
//! unit tests below pin it exactly.

use l2q_obs::metrics::{quantile_from_buckets, HistogramSnapshot, RegistrySnapshot};

/// A latency summary: median and the highest percentile that still has
/// at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile actually reported (e.g. 0.99), 0 when the
    /// sample is too small to leave ten samples beyond any percentile.
    pub tail_q: f64,
    pub tail: f64,
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99: `1 - 10/n`, so 1000 samples give p99 and 200 give p95.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 10 {
        return 0.0;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Nearest-rank value at quantile `q` of an ascending slice.
fn rank(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Median and ten-beyond tail of `samples` (unsorted). Failed requests
/// enter as `f64::INFINITY`, so they miss every limit.
pub fn tail(samples: &[f64]) -> Tail {
    if samples.is_empty() {
        return Tail {
            n: 0,
            p50: 0.0,
            tail_q: 0.0,
            tail: 0.0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = tail_quantile(sorted.len());
    Tail {
        n: sorted.len(),
        p50: rank(&sorted, 0.5),
        tail_q: q,
        tail: if q > 0.0 { rank(&sorted, q) } else { 0.0 },
    }
}

/// Median of a non-empty list (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Split `(time, value)` samples of a `seconds`-long run into `n` equal
/// windows, keeping each window's values.
pub fn split_windows(samples: &[(f64, f64)], seconds: f64, n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for &(at, v) in samples {
        let w = ((at / seconds * n as f64).max(0.0) as usize).min(n - 1);
        out[w].push(v);
    }
    out
}

/// Indices, ascending, of every share within `tolerance` of the smallest;
/// when fewer than `keep` are, of the `keep` smallest (ties keep the
/// earlier index).
pub fn calmest(shares: &[f64], keep: usize, tolerance: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]));
    let least = order.first().map_or(0.0, |&i| shares[i]);
    let near = order
        .iter()
        .take_while(|&&i| shares[i] <= least + tolerance)
        .count();
    order.truncate(near.max(keep));
    order.sort_unstable();
    order
}

/// The change of every counter and histogram between two registry
/// snapshots. Series absent from `before` count from zero.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    counters: Vec<(String, f64)>,
    histograms: Vec<HistDelta>,
}

/// One histogram's change: count, sum and per-bucket counts.
#[derive(Clone, Debug)]
pub struct HistDelta {
    series: String,
    name: String,
    pub count: u64,
    pub sum: f64,
    buckets: Vec<(f64, u64)>,
    overflow: u64,
}

fn series(name: &str, labels: &[(String, String)]) -> String {
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

impl HistDelta {
    fn between(before: Option<&HistogramSnapshot>, after: &HistogramSnapshot) -> Self {
        let prior = |i: usize| before.map_or(0, |b| b.buckets.get(i).map_or(0, |x| x.1));
        HistDelta {
            series: series(&after.name, &after.labels),
            name: after.name.clone(),
            count: after.count - before.map_or(0, |b| b.count),
            sum: after.sum - before.map_or(0.0, |b| b.sum),
            buckets: after
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &(le, n))| (le, n - prior(i)))
                .collect(),
            overflow: after.overflow - before.map_or(0, |b| b.overflow),
        }
    }

    /// Interpolated quantile of the observations recorded in the window.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(q, &self.buckets, self.overflow)
    }

    /// Mean observation in the window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn merge(&mut self, other: &HistDelta) {
        self.count += other.count;
        self.sum += other.sum;
        self.overflow += other.overflow;
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            mine.1 += theirs.1;
        }
    }
}

impl Delta {
    pub fn between(before: &RegistrySnapshot, after: &RegistrySnapshot) -> Self {
        let counters = after
            .counters
            .iter()
            .map(|c| {
                let prior = before
                    .counters
                    .iter()
                    .find(|b| b.series == c.series)
                    .map_or(0.0, |b| b.value);
                (series(&c.name, &c.labels), c.value - prior)
            })
            .collect();
        let histograms = after
            .histograms
            .iter()
            .map(|h| {
                let prior = before
                    .histograms
                    .iter()
                    .find(|b| b.name == h.name && b.labels == h.labels);
                HistDelta::between(prior, h)
            })
            .collect();
        Delta {
            counters,
            histograms,
        }
    }

    /// Accumulate another window (e.g. the next traced round).
    pub fn add(&mut self, other: &Delta) {
        for (s, v) in &other.counters {
            match self.counters.iter_mut().find(|(m, _)| m == s) {
                Some(mine) => mine.1 += v,
                None => self.counters.push((s.clone(), *v)),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|m| m.series == h.series) {
                Some(mine) => mine.merge(h),
                None => self.histograms.push(h.clone()),
            }
        }
    }

    /// Sum of a counter over every label set.
    pub fn counter(&self, name: &str) -> f64 {
        let prefix = format!("{name}{{");
        self.counters
            .iter()
            .filter(|(s, _)| s.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// A histogram's change merged over the label sets `keep` accepts
    /// (each label rendered `k=v`).
    pub fn histogram_where(&self, name: &str, keep: impl Fn(&str) -> bool) -> HistDelta {
        let mut out: Option<HistDelta> = None;
        for h in self.histograms.iter().filter(|h| h.name == name) {
            let labels = &h.series[name.len() + 1..h.series.len() - 1];
            if !keep(labels) {
                continue;
            }
            match out.as_mut() {
                Some(acc) => acc.merge(h),
                None => out = Some(h.clone()),
            }
        }
        out.unwrap_or(HistDelta {
            series: series(name, &[]),
            name: name.to_owned(),
            count: 0,
            sum: 0.0,
            buckets: Vec::new(),
            overflow: 0,
        })
    }

    /// A histogram's change over all its label sets.
    pub fn histogram(&self, name: &str) -> HistDelta {
        self.histogram_where(name, |_| true)
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer self times from nested totals: each layer's total minus what
/// its children cover, clamped at 0 (children that ran on parallel
/// threads can out-sum their parent). `nodes` lists `(name, total,
/// parent index)` with parents before children.
pub fn self_times(nodes: &[(&str, f64, Option<usize>)]) -> Vec<(String, f64)> {
    let mut child_sum = vec![0.0; nodes.len()];
    for &(_, total, parent) in nodes {
        if let Some(p) = parent {
            child_sum[p] += total;
        }
    }
    nodes
        .iter()
        .zip(child_sum)
        .map(|(&(name, total, _), children)| (name.to_owned(), (total - children).max(0.0)))
        .collect()
}

/// Share of the end-to-end time the layers' self times account for.
pub fn coverage(selfs: &[(String, f64)], end_to_end: f64) -> f64 {
    ratio(selfs.iter().map(|(_, s)| s).sum(), end_to_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_obs::MetricsRegistry;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), 0.0);
        assert!((tail_quantile(100) - 0.90).abs() < 1e-12);
        assert!((tail_quantile(200) - 0.95).abs() < 1e-12);
        assert!((tail_quantile(1000) - 0.99).abs() < 1e-12);
        assert!((tail_quantile(100_000) - 0.99).abs() < 1e-12);
        // 1..=200: p95 by nearest rank is 190, and exactly ten lie beyond.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.n, t.p50, t.tail), (200, 100.0, 190.0));
        assert_eq!(s.iter().filter(|&&v| v > t.tail).count(), 10);
    }

    #[test]
    fn failed_requests_miss_the_tail() {
        let mut s: Vec<f64> = vec![1.0; 90];
        s.extend([f64::INFINITY; 11]);
        assert!(tail(&s).tail.is_infinite());
        assert_eq!(tail(&s).p50, 1.0);
    }

    #[test]
    fn windows_split_by_time() {
        let s = [(0.1, 1.0), (1.9, 2.0), (2.0, 3.0), (3.99, 4.0), (4.0, 5.0)];
        let w = split_windows(&s, 4.0, 2);
        assert_eq!(w, vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]]);
    }

    #[test]
    fn calmest_windows_are_the_least_stolen() {
        assert_eq!(calmest(&[0.3, 0.0, 0.1, 0.0, 0.5], 3, 0.01), vec![1, 2, 3]);
        assert_eq!(calmest(&[0.3, 0.0, 0.1, 0.0, 0.5], 1, 0.15), vec![1, 2, 3]);
        assert_eq!(calmest(&[0.2], 5, 0.01), vec![0]);
    }

    #[test]
    fn a_host_without_steal_keeps_every_window() {
        assert_eq!(calmest(&[0.0; 20], 5, 0.02), (0..20).collect::<Vec<_>>());
        // Near-ties within the tolerance are kept wherever they fall.
        let mut steal = vec![0.3; 20];
        for k in [2, 9, 13, 17, 18, 19] {
            steal[k] = 0.004 * (k % 3) as f64;
        }
        assert_eq!(calmest(&steal, 5, 0.02), vec![2, 9, 13, 17, 18, 19]);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn deltas_subtract_counters_and_buckets() {
        let reg = MetricsRegistry::new();
        reg.counter_with("ops_total", &[("op", "a")]).add(5);
        let h = reg.histogram("lat_seconds");
        h.record(0.001);
        let before = reg.snapshot();
        reg.counter_with("ops_total", &[("op", "a")]).add(2);
        reg.counter_with("ops_total", &[("op", "b")]).add(3);
        for _ in 0..4 {
            h.record(0.010);
        }
        let d = Delta::between(&before, &reg.snapshot());
        assert_eq!(d.counter("ops_total"), 5.0);
        let hd = d.histogram("lat_seconds");
        assert_eq!(hd.count, 4);
        assert!((hd.mean() - 0.010).abs() < 1e-12);
        // Every windowed sample is 10 ms; the pre-window 1 ms sample is gone.
        let p = hd.quantile(0.5);
        assert!(p > 0.007 && p <= 0.0114, "{p}");
        let mut twice = d.clone();
        twice.add(&d);
        assert_eq!(twice.counter("ops_total"), 10.0);
        assert_eq!(twice.histogram("lat_seconds").count, 8);
    }

    #[test]
    fn labeled_histograms_filter_and_merge() {
        let reg = MetricsRegistry::new();
        let before = reg.snapshot();
        reg.histogram_with("w_seconds", &[("op", "step")])
            .record(0.5);
        reg.histogram_with("w_seconds", &[("op", "ping")])
            .record(9.0);
        let d = Delta::between(&before, &reg.snapshot());
        assert_eq!(d.histogram("w_seconds").count, 2);
        let steps = d.histogram_where("w_seconds", |l| l == "op=step");
        assert_eq!((steps.count, steps.sum), (1, 0.5));
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        // root 10 = a 6 + b 3 (+1 self); a 6 = c 7 (parallel: clamps to 0).
        let nodes = [
            ("root", 10.0, None),
            ("a", 6.0, Some(0)),
            ("b", 3.0, Some(0)),
            ("c", 7.0, Some(1)),
        ];
        let s = self_times(&nodes);
        let get = |n: &str| s.iter().find(|(k, _)| k == n).unwrap().1;
        assert_eq!(
            (get("root"), get("a"), get("b"), get("c")),
            (1.0, 0.0, 3.0, 7.0)
        );
        assert!((coverage(&s, 20.0) - 0.55).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
