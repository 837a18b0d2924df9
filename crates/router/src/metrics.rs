//! Reading a shard's `metrics` body back into a [`RegistrySnapshot`].
//!
//! The router's `fleet_metrics` op merges and renders snapshots through
//! `l2q-obs` like any registry ([`RegistrySnapshot::merge`]); the only
//! router-side step is parsing each shard's JSON rendering
//! ([`RegistrySnapshot::render_json`]) back into the snapshot it came
//! from. A parsed histogram holds the buckets the shard listed: every
//! occupied one plus the bound just below it, which is all the merge and
//! the quantile kernel need.

use l2q_obs::{HistogramSnapshot, MetricValue, RegistrySnapshot};
use serde_json::Value;

/// The snapshot a shard's `metrics` JSON body was rendered from.
/// Malformed entries are skipped rather than failing the whole scrape.
pub fn parse_snapshot(body: &Value) -> RegistrySnapshot {
    let values = |section: &str| -> Vec<MetricValue> {
        entries(body, section)
            .iter()
            .filter_map(|(series, v)| {
                let (name, labels) = parse_series(series);
                Some(MetricValue {
                    name,
                    labels,
                    series: series.clone(),
                    value: v.as_f64()?,
                })
            })
            .collect()
    };
    RegistrySnapshot {
        counters: values("counters"),
        gauges: values("gauges"),
        histograms: entries(body, "histograms")
            .iter()
            .map(|(series, h)| parse_histogram(series, h))
            .collect(),
    }
}

fn entries<'a>(body: &'a Value, section: &str) -> &'a [(String, Value)] {
    body.get(section)
        .and_then(Value::as_object)
        .unwrap_or_default()
}

fn parse_histogram(series: &str, body: &Value) -> HistogramSnapshot {
    let (name, labels) = parse_series(series);
    let num = |key: &str| body.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let mut buckets = Vec::new();
    let mut overflow = 0;
    for (le, n) in pairs(body, "buckets") {
        match le {
            Some(le) => buckets.push((le, n)),
            None => overflow += n,
        }
    }
    HistogramSnapshot {
        name,
        labels,
        count: body.get("count").and_then(Value::as_u64).unwrap_or(0),
        sum: num("sum"),
        p50: num("p50"),
        p95: num("p95"),
        p99: num("p99"),
        buckets,
        overflow,
        exemplars: pairs(body, "exemplars")
            .map(|(le, tid)| (le.unwrap_or(f64::INFINITY), tid))
            .collect(),
    }
}

/// The `[bound, n]` pairs of a histogram array; a `null` bound (the
/// overflow bucket) comes back as `None`.
fn pairs<'a>(body: &'a Value, key: &str) -> impl Iterator<Item = (Option<f64>, u64)> + 'a {
    body.get(key)
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|pair| match pair.as_array()? {
            [le, n] => Some((le.as_f64(), n.as_u64()?)),
            _ => None,
        })
}

/// Split a rendered series (`name` or `name{k="v",...}`) into its name
/// and label pairs. Label values never contain `,` or `"`: they are op
/// names, reasons and shard names, and `add_shard` refuses any other.
fn parse_series(series: &str) -> (String, Vec<(String, String)>) {
    let Some((name, inner)) = series.split_once('{') else {
        return (series.to_owned(), Vec::new());
    };
    let labels = inner
        .trim_end_matches('}')
        .split(',')
        .filter_map(|part| part.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.trim_matches('"').to_owned()))
        .collect();
    (name.to_owned(), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_obs::MetricsRegistry;

    /// `reg`'s JSON rendering, parsed back the way the router reads a
    /// shard's `metrics` body.
    fn scrape(reg: &MetricsRegistry) -> (Value, RegistrySnapshot) {
        let body = serde_json::parse_value(&reg.snapshot().render_json()).unwrap();
        let parsed = parse_snapshot(&body);
        (body, parsed)
    }

    /// A one-shard fleet, end to end: the shard's snapshot → its JSON →
    /// parse → merge → render. The fleet must report exactly the shard's
    /// own p50/p95/p99, and its JSON must be the shard's with
    /// `shard="only"` added to every counter and gauge series (the
    /// fixtures' label keys all sort before `shard`) — histograms
    /// included byte for byte, so no extra `[null,0]` overflow pair.
    fn assert_one_shard_fleet_matches(shard: &MetricsRegistry) {
        let own = shard.snapshot();
        let (body, parsed) = scrape(shard);
        let fleet = RegistrySnapshot::merge([("only", &parsed)]);
        assert_eq!(fleet.histograms.len(), own.histograms.len());
        for (f, s) in fleet.histograms.iter().zip(&own.histograms) {
            assert_eq!(
                (f.p50, f.p95, f.p99),
                (s.p50, s.p95, s.p99),
                "{}: fleet percentiles differ from the shard's",
                f.name
            );
        }
        let fleet_json = serde_json::parse_value(&fleet.render_json()).unwrap();
        for section in ["counters", "gauges"] {
            let mut expected: Vec<(String, Value)> = entries(&body, section)
                .iter()
                .map(|(series, v)| {
                    let labeled = match series.strip_suffix('}') {
                        Some(open) => format!("{open},shard=\"only\"}}"),
                        None => format!("{series}{{shard=\"only\"}}"),
                    };
                    (labeled, v.clone())
                })
                .collect();
            let mut got = entries(&fleet_json, section).to_vec();
            expected.sort_by(|a, b| a.0.cmp(&b.0));
            got.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(got, expected, "{section}");
        }
        assert_eq!(fleet_json.get("histograms"), body.get("histograms"));
    }

    /// A registry with a labeled counter and a gauge beside `samples`
    /// recorded into one latency histogram.
    fn shard_with(samples: &[(usize, f64)]) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("steps_total").add(100);
        reg.counter_with("wire_requests_total", &[("op", "step")])
            .add(100);
        reg.gauge("sessions_active").set(2);
        let h = reg.histogram_with("step_seconds", &[("op", "step")]);
        for &(n, v) in samples {
            for _ in 0..n {
                h.record(v);
            }
        }
        reg
    }

    /// 100 samples at 3.5 ms fill one bucket whose lower edge is not 0;
    /// a fleet that interpolates from 0 reports p50 2.05 ms instead of
    /// the shard's 3.50 ms.
    #[test]
    fn one_shard_fleet_reports_the_shards_percentiles_for_a_point_mass() {
        let shard = shard_with(&[(100, 0.0035)]);
        let p50 = shard.snapshot().histograms[0].p50;
        assert!((p50 - 0.0035).abs() < 1e-4, "shard p50 {p50}");
        assert_one_shard_fleet_matches(&shard);
    }

    /// 98 samples at 1 ms and 2 at 28 ms: p99 falls in the slow bucket,
    /// with empty buckets between the two modes. A fleet that takes the
    /// 1 ms bucket as the slow bucket's lower edge reports p99 16.9 ms
    /// instead of the shard's 28.0 ms.
    #[test]
    fn one_shard_fleet_reports_the_shards_percentiles_for_a_slow_tail() {
        let shard = shard_with(&[(98, 0.001), (2, 0.028)]);
        let p99 = shard.snapshot().histograms[0].p99;
        assert!((p99 - 0.028).abs() < 1e-3, "shard p99 {p99}");
        assert_one_shard_fleet_matches(&shard);
    }

    #[test]
    fn one_shard_fleet_quantiles_match_the_live_histogram() {
        // A single-shard fleet must reproduce the shard's own quantiles:
        // same kernel, same buckets.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("solo_seconds");
        for i in 1..=100u64 {
            h.record(i as f64 / 1000.0);
        }
        let (_, parsed) = scrape(&reg);
        let fleet = RegistrySnapshot::merge([("only", &parsed)]);
        let live = h.snapshot("solo_seconds", &[]);
        let got = &fleet.histograms[0];
        assert_eq!((got.p50, got.p95, got.p99), (live.p50, live.p95, live.p99));
        assert_eq!(got.count, live.count);
    }

    /// Two shards whose occupied buckets differ: merging their sparse
    /// renderings gives the percentiles of one histogram fed both
    /// streams, overflow included.
    #[test]
    fn sparse_shard_renderings_merge_like_one_histogram() {
        let a = shard_with(&[(50, 0.0009), (3, 0.2)]);
        let b = shard_with(&[(40, 0.004), (7, 0.03), (1, 1e9)]);
        let both = shard_with(&[(50, 0.0009), (3, 0.2), (40, 0.004), (7, 0.03), (1, 1e9)]);
        let (_, pa) = scrape(&a);
        let (_, pb) = scrape(&b);
        let fleet = RegistrySnapshot::merge([("a", &pa), ("b", &pb)]);
        let (got, truth) = (&fleet.histograms[0], &both.snapshot().histograms[0]);
        assert_eq!((got.count, got.overflow), (truth.count, truth.overflow));
        assert_eq!(
            (got.p50, got.p95, got.p99),
            (truth.p50, truth.p95, truth.p99)
        );
    }

    #[test]
    fn parse_keeps_labels_exemplars_and_the_overflow() {
        let reg = MetricsRegistry::new();
        reg.histogram_with_bounds("h_seconds", vec![1.0, 2.0])
            .record_with_exemplar(9.0, 7);
        reg.gauge_with("g", &[("a", "1"), ("b", "x.y-z")]).set(-3);
        let (_, parsed) = scrape(&reg);
        let g = &parsed.gauges[0];
        assert_eq!(g.name, "g");
        assert_eq!(
            g.labels,
            vec![("a".into(), "1".into()), ("b".into(), "x.y-z".into())]
        );
        assert_eq!(g.value, -3.0);
        let h = &parsed.histograms[0];
        assert_eq!(h.buckets, vec![(2.0, 0)]);
        assert_eq!((h.count, h.overflow), (1, 1));
        assert_eq!(h.exemplars, vec![(f64::INFINITY, 7)]);
    }
}
