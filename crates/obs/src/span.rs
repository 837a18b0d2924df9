//! RAII scope timing: a [`SpanTimer`] records its lifetime into a
//! histogram when dropped. The [`span!`](crate::span!) macro is the
//! ergonomic front end over the global registry.
//!
//! A timer started through one of the `start_named*` constructors is also
//! a *tracing* span: when a [`trace::TraceContext`](crate::trace) is
//! active on the thread, the timer additionally appends a
//! [`SpanRecord`](crate::trace::SpanRecord) (a child of the current span)
//! to the process trace buffer, and tags the histogram sample with the
//! trace id as an exemplar. Without an active context the named
//! constructors cost exactly what [`SpanTimer::start`] does — one
//! thread-local read on start, one histogram record on drop.

use crate::metrics::Histogram;
use crate::trace;
use std::sync::Arc;
use std::time::Instant;

/// Times a scope into a histogram; records on drop.
#[derive(Debug)]
pub struct SpanTimer {
    hist: Arc<Histogram>,
    start: Instant,
    armed: bool,
    traced: Option<trace::ActiveSpan>,
    status: &'static str,
}

impl SpanTimer {
    /// Start timing into `hist` (metrics only — never traced).
    pub fn start(hist: Arc<Histogram>) -> Self {
        Self {
            hist,
            start: Instant::now(),
            armed: true,
            traced: None,
            status: "ok",
        }
    }

    /// Start a named span: timed into `hist`, and recorded as a trace
    /// span called `name` when a trace context is active on this thread.
    pub fn start_named(hist: Arc<Histogram>, name: &'static str) -> Self {
        Self::start_named_labeled(hist, name, &[])
    }

    /// [`start_named`](Self::start_named) with labels attached to the
    /// trace span (label materialization is skipped when untraced).
    pub fn start_named_labeled(
        hist: Arc<Histogram>,
        name: &'static str,
        labels: &[(&str, &str)],
    ) -> Self {
        let traced = trace::begin(name, labels);
        Self {
            hist,
            start: Instant::now(),
            armed: true,
            traced,
            status: "ok",
        }
    }

    /// The trace context of this span, when it is traced.
    pub fn trace_context(&self) -> Option<trace::TraceContext> {
        self.traced.as_ref().map(|s| s.ctx)
    }

    /// Mark the span's trace status (e.g. `"error"`, `"maxed"`); shows up
    /// in the recorded span, not in the histogram. No-op when untraced.
    pub fn set_status(&mut self, status: &'static str) {
        self.status = status;
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Record now and disarm (drop becomes a no-op). Returns the recorded
    /// duration.
    pub fn finish(mut self) -> std::time::Duration {
        self.record()
    }

    /// Disarm without recording (e.g. an error path that should not skew
    /// the latency distribution). A traced span is abandoned unrecorded.
    pub fn cancel(mut self) {
        self.armed = false;
        if let Some(span) = self.traced.take() {
            trace::abandon(span);
        }
    }

    fn record(&mut self) -> std::time::Duration {
        let d = self.start.elapsed();
        self.armed = false;
        match self.traced.take() {
            None => self.hist.record_duration(d),
            Some(span) => {
                self.hist
                    .record_with_exemplar(d.as_secs_f64(), span.ctx.trace_id);
                trace::end(span, d, self.status);
            }
        }
        d
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if self.armed {
            self.record();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::{buffer, enter, TraceContext};

    #[test]
    fn drop_records_exactly_once() {
        let r = MetricsRegistry::new();
        let h = r.histogram("s_seconds");
        {
            let _t = SpanTimer::start(h.clone());
        }
        assert_eq!(h.count(), 1);
        let d = SpanTimer::start(h.clone()).finish();
        assert_eq!(h.count(), 2);
        assert!(d.as_secs_f64() >= 0.0);
        SpanTimer::start(h.clone()).cancel();
        assert_eq!(h.count(), 2, "canceled span must not record");
    }

    #[test]
    fn elapsed_is_monotone() {
        let r = MetricsRegistry::new();
        let t = SpanTimer::start(r.histogram("m_seconds"));
        let a = t.elapsed();
        let b = t.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn named_span_without_context_records_no_trace() {
        let r = MetricsRegistry::new();
        let h = r.histogram("plain_seconds");
        let t = SpanTimer::start_named(h.clone(), "plain");
        assert!(t.trace_context().is_none());
        drop(t);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn named_span_under_context_builds_a_parented_record() {
        let r = MetricsRegistry::new();
        let root_ctx = TraceContext::new_root();
        let _g = enter(root_ctx);
        let outer = SpanTimer::start_named(r.histogram("outer_seconds"), "outer");
        let outer_id = outer.trace_context().expect("traced").span_id;
        {
            let mut inner = SpanTimer::start_named_labeled(
                r.histogram("inner_seconds"),
                "inner",
                &[("k", "v")],
            );
            inner.set_status("maxed");
        }
        drop(outer);
        let spans = buffer().by_trace(root_ctx.trace_id);
        let outer_rec = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner_rec = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer_rec.parent_span_id, None, "anchored span is a root");
        assert_eq!(inner_rec.parent_span_id, Some(outer_id));
        assert_eq!(inner_rec.labels, vec![("k".into(), "v".into())]);
        assert_eq!(inner_rec.status, "maxed");
        assert_eq!(outer_rec.status, "ok");
    }

    #[test]
    fn canceled_traced_span_leaves_no_record_and_pops_context() {
        let r = MetricsRegistry::new();
        let ctx = TraceContext::new_root();
        let _g = enter(ctx);
        let t = SpanTimer::start_named(r.histogram("c_seconds"), "cancel_me");
        t.cancel();
        assert_eq!(
            crate::trace::current().map(|c| c.span_id),
            Some(0),
            "cancel must restore the anchor context"
        );
        assert!(buffer()
            .by_trace(ctx.trace_id)
            .iter()
            .all(|s| s.name != "cancel_me"));
    }
}
