//! # l2q-obs — observability substrate for the L2Q stack
//!
//! The build environment has no registry access, so instead of `tracing` +
//! `prometheus` this crate provides a small, zero-dependency,
//! API-compatible substrate (the same approach as `vendor/`):
//!
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket latency
//!   histograms. Registration takes a short lock; the returned handles are
//!   `Arc`'d atomics, so the hot path (increment / record) is lock-free.
//! * [`global()`] — the process-wide registry every instrumented crate
//!   records into.
//! * [`RegistrySnapshot`] — the one form metrics leave a registry in
//!   ([`MetricsRegistry::snapshot`]). It renders two ways,
//!   [`RegistrySnapshot::render_json`] (the `metrics` wire op) and
//!   [`RegistrySnapshot::render_text`] (Prometheus-style exposition),
//!   and [`RegistrySnapshot::merge`] folds several processes' snapshots
//!   into one fleet view (the router's `fleet_metrics` op).
//! * [`span!`] — an RAII timer: `let _s = span!("graph_solve");` records
//!   the scope's wall-clock into the `graph_solve_seconds` histogram of
//!   the global registry when the guard drops. While a [`trace`] context
//!   is active on the thread, the same guard additionally appends a
//!   causally-linked span record to the process trace buffer and stamps
//!   the histogram sample's bucket with the trace id (an exemplar).
//! * [`trace`] — distributed tracing: [`trace::TraceContext`] carried
//!   across process boundaries on the wire, a thread-local context stack,
//!   and the bounded overwrite-oldest [`trace::TraceBuffer`] ring that
//!   the `trace` wire op serves span trees from.
//!
//! Histogram quantiles (p50/p95/p99) are estimated by linear interpolation
//! within the bucket containing the rank — exact at bucket boundaries,
//! bounded by the bucket's width otherwise (latency buckets grow by √2,
//! so a point mass's quantiles land within √2 of it).
//!
//! Renderings list histogram buckets sparsely, under one rule: every
//! occupied bucket comes with the bound just below it, listed with count
//! 0 when that bucket is empty (the text lists every bucket from there
//! on, cumulatively). Percentiles re-derived from a rendering — by the
//! router's fleet merge, or by Prometheus' `histogram_quantile` over the
//! text — therefore interpolate from the same lower edge as the live
//! histogram, and a one-shard fleet reports exactly the shard's own
//! p50/p95/p99.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;
pub mod trace;

pub use metrics::{
    quantile_from_buckets, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsRegistry, RegistrySnapshot,
};
pub use span::SpanTimer;
pub use trace::{SpanRecord, TraceBuffer, TraceContext};

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// The process-wide registry every instrumented crate records into.
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

/// Time a scope into a `<name>_seconds` histogram of the global registry.
///
/// ```
/// {
///     let _span = l2q_obs::span!("graph_solve");
///     // ... timed work ...
/// } // recorded into histogram "graph_solve_seconds" here
/// ```
///
/// Labels take literal values (zero-cost series lookup) or arbitrary
/// expressions rendered with `ToString` (dynamic series — shard names,
/// ops, strategies):
///
/// ```
/// let shard = String::from("alpha");
/// let _s = l2q_obs::span!("router_forward", "shard" => shard);
/// ```
///
/// When a [`trace`] context is active on the thread, the guard also
/// records a trace span named `$name` (labels included) parented under
/// the current span.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::SpanTimer::start_named(
            $crate::global().histogram(concat!($name, "_seconds")),
            $name,
        )
    };
    ($name:literal, $($k:literal => $v:literal),+ $(,)?) => {
        $crate::SpanTimer::start_named_labeled(
            $crate::global().histogram_with(concat!($name, "_seconds"), &[$(($k, $v)),+]),
            $name,
            &[$(($k, $v)),+],
        )
    };
    ($name:literal, $($k:literal => $v:expr),+ $(,)?) => {{
        let __vals = [$(::std::string::ToString::to_string(&$v)),+];
        let __labels: ::std::vec::Vec<(&str, &str)> = [$($k),+]
            .iter()
            .copied()
            .zip(__vals.iter().map(|v| v.as_str()))
            .collect();
        $crate::SpanTimer::start_named_labeled(
            $crate::global().histogram_with(concat!($name, "_seconds"), &__labels),
            $name,
            &__labels,
        )
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_records_into_global_registry() {
        {
            let _s = crate::span!("obs_selftest");
        }
        {
            let _s = crate::span!("obs_selftest", "kind" => "labeled");
        }
        let snap = crate::global().snapshot();
        let plain = snap
            .histograms
            .iter()
            .find(|h| h.name == "obs_selftest_seconds" && h.labels.is_empty())
            .expect("plain span histogram registered");
        assert!(plain.count >= 1);
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "obs_selftest_seconds"
                && h.labels == vec![("kind".to_string(), "labeled".to_string())]));
    }

    #[test]
    fn span_macro_accepts_expression_labels() {
        let shard = String::from("alpha-7");
        let n = 3u32;
        {
            let _s = crate::span!("obs_expr_label", "shard" => shard, "n" => n);
        }
        // Mixed literal + expression values go through the expr arm too.
        {
            let _s = crate::span!("obs_expr_label", "shard" => format!("b{}", 1), "n" => "lit");
        }
        let snap = crate::global().snapshot();
        let series: Vec<_> = snap
            .histograms
            .iter()
            .filter(|h| h.name == "obs_expr_label_seconds")
            .collect();
        assert!(series.iter().any(|h| h.labels
            == vec![
                ("n".to_string(), "3".to_string()),
                ("shard".to_string(), "alpha-7".to_string())
            ]));
        assert!(series.iter().any(|h| h.labels
            == vec![
                ("n".to_string(), "lit".to_string()),
                ("shard".to_string(), "b1".to_string())
            ]));
    }

    #[test]
    fn span_macro_records_trace_spans_under_an_active_context() {
        let ctx = crate::trace::TraceContext::new_root();
        {
            let _g = crate::trace::enter(ctx);
            let _outer = crate::span!("obs_traced_outer");
            let _inner = crate::span!("obs_traced_inner", "shard" => String::from("x"));
        }
        let spans = crate::trace::buffer().by_trace(ctx.trace_id);
        let outer = spans.iter().find(|s| s.name == "obs_traced_outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "obs_traced_inner").unwrap();
        assert_eq!(outer.parent_span_id, None);
        assert_eq!(inner.parent_span_id, Some(outer.span_id));
        assert_eq!(inner.labels, vec![("shard".to_string(), "x".to_string())]);
        // The traced sample left an exemplar pointing back at the trace.
        let snap = crate::global().snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "obs_traced_outer_seconds")
            .unwrap();
        assert!(h.exemplars.iter().any(|&(_, tid)| tid == ctx.trace_id));
    }
}
