//! Op handling that `l2q-serve` and `l2q-router` share: the per-op
//! instrumentation both dispatchers wrap every request in, the `metrics`
//! op, and the local half of the `trace` op.

use crate::proto::{Request, Response, SpanBody};
use l2q_obs::{Counter, Histogram, RegistrySnapshot, SpanTimer, TraceContext};
use std::sync::{Arc, OnceLock};

/// A dispatcher's fixed op table: one request counter and one latency
/// histogram per op, labeled `op=...`. The last op is the catch-all that
/// every unlisted op string counts under, so arbitrary client-supplied
/// ops cannot inflate metric-label cardinality.
pub struct OpTable {
    span: &'static str,
    counter: &'static str,
    histogram: &'static str,
    ops: &'static [&'static str],
    handles: OnceLock<Vec<(Arc<Counter>, Arc<Histogram>)>>,
}

impl OpTable {
    /// A table recording `counter{op}` and `histogram{op}` in the global
    /// registry and tracing each request as a `span` span (const: usable
    /// in statics; handles register on first use).
    pub const fn new(
        span: &'static str,
        counter: &'static str,
        histogram: &'static str,
        ops: &'static [&'static str],
    ) -> Self {
        Self {
            span,
            counter,
            histogram,
            ops,
            handles: OnceLock::new(),
        }
    }

    /// Run `handle` as one instrumented request: count it under its op,
    /// time it into the op's histogram as a span (entered under `ctx`
    /// when the request carries a trace), and echo the span's trace id in
    /// the response unless the handler set one.
    pub fn run(
        &self,
        op: &str,
        ctx: Option<TraceContext>,
        handle: impl FnOnce() -> Response,
    ) -> Response {
        let handles = self.handles.get_or_init(|| {
            let reg = l2q_obs::global();
            self.ops
                .iter()
                .map(|&op| {
                    (
                        reg.counter_with(self.counter, &[("op", op)]),
                        reg.histogram_with(self.histogram, &[("op", op)]),
                    )
                })
                .collect()
        });
        let idx = self
            .ops
            .iter()
            .position(|&known| known == op)
            .unwrap_or(self.ops.len() - 1);
        let (requests, latency) = &handles[idx];
        requests.inc();
        let _trace_guard = ctx.map(l2q_obs::trace::enter);
        let timer =
            SpanTimer::start_named_labeled(latency.clone(), self.span, &[("op", self.ops[idx])]);
        let mut resp = handle();
        if resp.trace_id.is_none() {
            resp.trace_id = timer.trace_context().map(|c| c.trace_id);
        }
        resp
    }
}

/// The `metrics` op over `snapshot`: JSON in `metrics` (the default
/// `format`), or Prometheus text in `metrics_text` for `"text"` /
/// `"prometheus"`.
pub fn metrics(req: &Request, snapshot: &RegistrySnapshot) -> Response {
    match req.format.as_deref().unwrap_or("json") {
        "json" => match serde_json::parse_value(&snapshot.render_json()) {
            Ok(v) => Response {
                ok: true,
                metrics: Some(v),
                ..Response::default()
            },
            Err(e) => Response::fail(format!("metrics render failed: {e}")),
        },
        "text" | "prometheus" => Response {
            ok: true,
            metrics_text: Some(snapshot.render_text()),
            ..Response::default()
        },
        other => Response::fail(format!("unknown metrics format '{other}' (json|text)")),
    }
}

/// The `trace` op over this process's span ring buffer, each span
/// stamped with `source` (a shard id, or `"router"`).
///
/// Modes: `by_id` (the default when `trace_id` is present) returns every
/// buffered span of one trace ordered by start time; `recent` returns the
/// newest spans; `slow` returns the slowest root spans. `limit` bounds
/// the `recent`/`slow` result count (default 32).
pub fn local_trace(req: &Request, source: &str) -> Response {
    let buffer = l2q_obs::trace::buffer();
    let limit = req.limit.unwrap_or(32).clamp(1, 4096) as usize;
    let default_mode = if req.trace_id.is_some() {
        "by_id"
    } else {
        "recent"
    };
    let records = match req.mode.as_deref().unwrap_or(default_mode) {
        "by_id" => match req.trace_id {
            Some(tid) => buffer.by_trace(tid),
            None => return Response::fail("trace mode 'by_id' requires 'trace_id'"),
        },
        "recent" => buffer.recent(limit),
        "slow" => buffer.slow_roots(limit),
        other => {
            return Response::fail(format!("unknown trace mode '{other}' (by_id|recent|slow)"))
        }
    };
    Response {
        ok: true,
        trace_id: req.trace_id,
        spans: Some(
            records
                .iter()
                .map(|r| SpanBody::from_record(r, source))
                .collect(),
        ),
        ..Response::default()
    }
}
