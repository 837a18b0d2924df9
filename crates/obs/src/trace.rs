//! Distributed tracing: per-request trace contexts, RAII span records,
//! and a bounded per-process ring buffer of finished spans.
//!
//! A trace is born at the edge (the router, or the server when a client
//! talks to it directly) as a [`TraceContext`] and is carried across
//! process boundaries on the wire (`trace_id` + `parent_span_id` request
//! fields). Inside a process the active context lives in a thread-local
//! stack: [`enter`] adopts a context for the current thread (RAII guard),
//! and every [`SpanTimer`](crate::SpanTimer) started through the
//! [`span!`](crate::span!) macro while a context is active appends one
//! [`SpanRecord`] — a child of whatever span was current — into the
//! process-wide [`TraceBuffer`] when it drops.
//!
//! The buffer is bounded and overwrite-oldest: an atomic cursor
//! `fetch_add` claims a slot, so recording never blocks on readers and
//! old spans age out instead of growing memory. When **no** context is
//! active, none of this runs — the untraced fast path of a span is
//! exactly what it was before tracing existed (one histogram record).
//!
//! Ids are 48-bit outputs of a splitmix64 stream (seeded per process), so
//! they survive a JSON `f64` round-trip exactly.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Ids are masked to 48 bits so they survive JSON number (`f64`)
/// round-trips bit-exactly (f64 is integral-exact through 2^53).
const ID_MASK: u64 = (1 << 48) - 1;

/// Default ring capacity (spans); override with [`configure_capacity`].
pub const DEFAULT_BUFFER_CAPACITY: usize = 8192;

/// The cross-process trace coordinates of the *current* span.
///
/// `span_id == 0` is the anchor sentinel: a context adopted at the edge
/// before any span has started. The first span recorded under an anchor
/// becomes a root span (no parent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Identity of the whole request tree (shared by every span in it).
    pub trace_id: u64,
    /// The current span (0 = anchor: no span started yet).
    pub span_id: u64,
    /// The current span's parent, when it has one.
    pub parent_span_id: Option<u64>,
}

impl TraceContext {
    /// A fresh trace rooted here: new trace id, no spans yet. Counts one
    /// `traces_recorded_total`.
    pub fn new_root() -> Self {
        crate::global().counter("traces_recorded_total").inc();
        Self {
            trace_id: next_id(),
            span_id: 0,
            parent_span_id: None,
        }
    }

    /// Adopt a context received over the wire: spans started under it
    /// become children of `parent_span_id` (recorded by the sender), or
    /// roots of `trace_id` when the sender did not name a parent.
    pub fn remote(trace_id: u64, parent_span_id: Option<u64>) -> Self {
        Self {
            trace_id,
            span_id: parent_span_id.unwrap_or(0),
            parent_span_id: None,
        }
    }

    /// The wire fields to propagate downstream from this context:
    /// `(trace_id, parent_span_id)` for the receiver's spans.
    pub fn wire_parent(&self) -> (u64, Option<u64>) {
        let parent = if self.span_id == 0 {
            None
        } else {
            Some(self.span_id)
        };
        (self.trace_id, parent)
    }
}

/// One finished span, as stored in the [`TraceBuffer`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the process's id stream).
    pub span_id: u64,
    /// Parent span, `None` for a root.
    pub parent_span_id: Option<u64>,
    /// Span name (the `span!` name, without the `_seconds` suffix).
    pub name: &'static str,
    /// Labels captured at span start.
    pub labels: Vec<(String, String)>,
    /// Wall-clock start, nanoseconds since the Unix epoch (for ordering
    /// across processes; durations come from the monotone clock).
    pub start_unix_ns: u64,
    /// Monotone duration of the span in nanoseconds.
    pub dur_ns: u64,
    /// `"ok"` unless the span was explicitly marked otherwise.
    pub status: &'static str,
}

// ---------------------------------------------------------------------------
// Id generation: one atomic counter through the splitmix64 finalizer,
// seeded per process so two shards never collide in practice.

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

static ID_STATE: OnceLock<AtomicU64> = OnceLock::new();

fn id_state() -> &'static AtomicU64 {
    ID_STATE.get_or_init(|| {
        let pid = std::process::id() as u64;
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        AtomicU64::new(splitmix64(pid ^ now))
    })
}

/// A fresh 48-bit, non-zero trace/span id.
pub fn next_id() -> u64 {
    loop {
        let raw = id_state().fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(raw) & ID_MASK;
        if id != 0 {
            return id;
        }
    }
}

/// Nanoseconds since the Unix epoch right now.
pub fn now_unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Thread-local context stack.

thread_local! {
    static CURRENT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost active context on this thread, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.borrow().last().copied())
}

/// Make `ctx` the current context for this thread until the returned
/// guard drops. Used at process edges (request dispatch, scheduler
/// workers) to adopt a wire-carried or freshly rooted context.
pub fn enter(ctx: TraceContext) -> ContextGuard {
    CURRENT.with(|c| c.borrow_mut().push(ctx));
    ContextGuard { ctx }
}

/// RAII guard for [`enter`]; restores the previous context on drop.
#[derive(Debug)]
pub struct ContextGuard {
    ctx: TraceContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        remove_ctx(&self.ctx);
    }
}

/// Remove the innermost stack entry matching `ctx` (tolerates
/// out-of-order drops of sibling guards).
fn remove_ctx(ctx: &TraceContext) {
    CURRENT.with(|c| {
        let mut stack = c.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|e| e == ctx) {
            stack.remove(pos);
        }
    });
}

// ---------------------------------------------------------------------------
// Span lifecycle used by SpanTimer (crate-internal).

/// A started, not-yet-recorded span (crate-internal: SpanTimer state).
#[derive(Debug)]
pub(crate) struct ActiveSpan {
    pub(crate) ctx: TraceContext,
    pub(crate) name: &'static str,
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) start_unix_ns: u64,
}

/// Start a span as a child of the current context (or a root under an
/// anchor). Returns `None` — and does nothing — when no context is
/// active: the untraced fast path.
pub(crate) fn begin(name: &'static str, labels: &[(&str, &str)]) -> Option<ActiveSpan> {
    let parent = current()?;
    let ctx = TraceContext {
        trace_id: parent.trace_id,
        span_id: next_id(),
        parent_span_id: if parent.span_id == 0 {
            None
        } else {
            Some(parent.span_id)
        },
    };
    CURRENT.with(|c| c.borrow_mut().push(ctx));
    Some(ActiveSpan {
        ctx,
        name,
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        start_unix_ns: now_unix_ns(),
    })
}

/// Finish a started span: pop it off the context stack and append its
/// record to the process buffer.
pub(crate) fn end(span: ActiveSpan, dur: Duration, status: &'static str) {
    remove_ctx(&span.ctx);
    buffer().record(SpanRecord {
        trace_id: span.ctx.trace_id,
        span_id: span.ctx.span_id,
        parent_span_id: span.ctx.parent_span_id,
        name: span.name,
        labels: span.labels,
        start_unix_ns: span.start_unix_ns,
        dur_ns: dur.as_nanos() as u64,
        status,
    });
}

/// Abandon a started span without recording it (SpanTimer::cancel).
pub(crate) fn abandon(span: ActiveSpan) {
    remove_ctx(&span.ctx);
}

/// Record an already-measured duration as a completed child span of the
/// current context — for durations that cross threads and cannot be an
/// RAII scope (e.g. scheduler queue wait, measured from the enqueue
/// timestamp). No-op (returns `None`) without an active context.
pub fn record_span(name: &'static str, dur: Duration) -> Option<u64> {
    let parent = current()?;
    let span_id = next_id();
    let dur_ns = dur.as_nanos() as u64;
    buffer().record(SpanRecord {
        trace_id: parent.trace_id,
        span_id,
        parent_span_id: if parent.span_id == 0 {
            None
        } else {
            Some(parent.span_id)
        },
        name,
        labels: Vec::new(),
        start_unix_ns: now_unix_ns().saturating_sub(dur_ns),
        dur_ns,
        status: "ok",
    });
    Some(span_id)
}

// ---------------------------------------------------------------------------
// The bounded span ring buffer.

/// A bounded, overwrite-oldest ring of finished spans.
///
/// Writers claim a slot with one atomic `fetch_add`; each slot is guarded
/// by its own (uncontended) mutex because a [`SpanRecord`] is not a
/// fixed-size atomic cell and this crate forbids unsafe code. Readers
/// walk the slots and clone what matches.
#[derive(Debug)]
pub struct TraceBuffer {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    cursor: AtomicUsize,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Append one span, overwriting the oldest when full.
    pub fn record(&self, rec: SpanRecord) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let mut slot = self.slots[i]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = Some(rec);
        crate::global().counter("trace_spans_recorded_total").inc();
    }

    fn scan<T>(&self, mut f: impl FnMut(&SpanRecord) -> Option<T>) -> Vec<T> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let guard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(rec) = guard.as_ref() {
                if let Some(v) = f(rec) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Every buffered span of one trace, ordered by start time.
    pub fn by_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut spans = self.scan(|r| (r.trace_id == trace_id).then(|| r.clone()));
        spans.sort_by_key(|r| (r.start_unix_ns, r.span_id));
        spans
    }

    /// The most recently started `limit` spans, newest first.
    pub fn recent(&self, limit: usize) -> Vec<SpanRecord> {
        let mut spans = self.scan(|r| Some(r.clone()));
        spans.sort_by_key(|s| std::cmp::Reverse(s.start_unix_ns));
        spans.truncate(limit);
        spans
    }

    /// The slowest `limit` *root* spans (no parent), slowest first — the
    /// entry point for "what were my worst requests".
    pub fn slow_roots(&self, limit: usize) -> Vec<SpanRecord> {
        let mut roots = self.scan(|r| r.parent_span_id.is_none().then(|| r.clone()));
        roots.sort_by_key(|r| std::cmp::Reverse(r.dur_ns));
        roots.truncate(limit);
        roots
    }
}

static BUFFER: OnceLock<TraceBuffer> = OnceLock::new();
static CONFIGURED_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_BUFFER_CAPACITY);

/// Set the global buffer's capacity. Effective only before the first
/// span is recorded (the ring is built once); later calls are ignored.
pub fn configure_capacity(capacity: usize) {
    CONFIGURED_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

/// The process-wide span ring buffer.
pub fn buffer() -> &'static TraceBuffer {
    BUFFER.get_or_init(|| TraceBuffer::new(CONFIGURED_CAPACITY.load(Ordering::Relaxed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_48bit_and_distinct() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert!(a <= ID_MASK && b <= ID_MASK);
    }

    #[test]
    fn context_stack_nests_and_restores() {
        assert_eq!(current(), None);
        let root = TraceContext::new_root();
        {
            let _g = enter(root);
            assert_eq!(current(), Some(root));
            let inner = TraceContext {
                trace_id: root.trace_id,
                span_id: next_id(),
                parent_span_id: None,
            };
            {
                let _g2 = enter(inner);
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(root));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn remote_context_parents_spans_under_the_wire_parent() {
        let ctx = TraceContext::remote(77, Some(42));
        let _g = enter(ctx);
        let span = begin("child", &[]).expect("context active");
        assert_eq!(span.ctx.trace_id, 77);
        assert_eq!(span.ctx.parent_span_id, Some(42));
        abandon(span);

        // An anchor (no wire parent) roots the first span.
        let _g2 = enter(TraceContext::remote(78, None));
        let span = begin("root", &[]).expect("context active");
        assert_eq!(span.ctx.parent_span_id, None);
        abandon(span);
    }

    #[test]
    fn ring_overwrites_oldest_and_queries_work() {
        let buf = TraceBuffer::new(4);
        for i in 0..6u64 {
            buf.record(SpanRecord {
                trace_id: 9,
                span_id: 100 + i,
                parent_span_id: if i == 0 { None } else { Some(100) },
                name: "t",
                labels: Vec::new(),
                start_unix_ns: 1_000 + i,
                dur_ns: 10 * (i + 1),
                status: "ok",
            });
        }
        // Capacity 4: spans 0 and 1 were overwritten.
        let spans = buf.by_trace(9);
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.span_id >= 102));
        // Ordered by start time.
        assert!(spans
            .windows(2)
            .all(|w| w[0].start_unix_ns <= w[1].start_unix_ns));
        // recent() is newest-first and bounded.
        let recent = buf.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].span_id, 105);

        // A root span in another trace shows up in slow_roots.
        buf.record(SpanRecord {
            trace_id: 10,
            span_id: 500,
            parent_span_id: None,
            name: "root",
            labels: Vec::new(),
            start_unix_ns: 2_000,
            dur_ns: 999_999,
            status: "ok",
        });
        let slow = buf.slow_roots(8);
        assert_eq!(slow.first().map(|s| s.span_id), Some(500));
        assert!(slow.iter().all(|s| s.parent_span_id.is_none()));
    }

    #[test]
    fn record_span_attaches_to_current_context() {
        assert_eq!(record_span("orphan", Duration::from_millis(1)), None);
        let root = TraceContext::new_root();
        let _g = enter(root);
        let id = record_span("queued", Duration::from_millis(2)).expect("context active");
        let spans = buffer().by_trace(root.trace_id);
        let rec = spans.iter().find(|s| s.span_id == id).expect("recorded");
        assert_eq!(rec.name, "queued");
        assert_eq!(rec.parent_span_id, None, "anchor context roots the span");
        assert!(rec.dur_ns >= 2_000_000);
    }
}
