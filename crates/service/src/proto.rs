//! The line-delimited JSON wire protocol.
//!
//! One request JSON object per line in, one response object per line out.
//! Requests are a single flat struct with an `op` discriminator plus
//! optional fields (only those the op needs are read); responses mirror
//! that shape. Ops:
//!
//! | op         | consumes                                             |
//! |------------|------------------------------------------------------|
//! | `ping`     | —                                                    |
//! | `create`   | `entity`, `aspect`, `selector`, `n_queries?`, `domain_size?` |
//! | `step`     | `session`, `steps?`                                  |
//! | `status`   | `session`                                            |
//! | `snapshot` | `session`                                            |
//! | `close`    | `session`                                            |
//! | `stats`    | —                                                    |
//! | `metrics`  | `format?` (`"json"` default, or `"text"` for Prometheus exposition) |
//! | `persist`  | `session` — force a durable snapshot (needs `--data-dir`) |
//! | `restore`  | `session` — load a stored session into residency     |
//! | `detach`   | `session` — drain + spill + drop residency, keeping durable state (migration drain hook) |
//! | `list_sessions` | — every resident and durably stored session     |
//! | `trace`    | `trace_id` (fetch one span tree), or `mode` (`"recent"`/`"slow"`) + `limit?` |
//! | `shutdown` | —                                                    |
//!
//! Any request may set `trace: true` to have the edge root a distributed
//! trace for it (the assigned id comes back in the response `trace_id`);
//! `trace_id` + `parent_span_id` carry an existing context across hops.
//!
//! The `l2q-router` front door speaks the same protocol and adds fleet
//! admin ops on top: `fleet_status` (topology + health), `join_shard`
//! (`shard`, `shard_addr`), `drain_shard` (`shard`), `migrate`
//! (`session`, optional `shard` target), `fleet_metrics` (every
//! healthy shard's registry merged under a `shard` label, histograms
//! bucket-wise), `supervisor_status` (one row per supervised child
//! process), and `rolling_restart` (drain → restart → rejoin each
//! shard in turn, aborting below quorum). Routed session ops
//! additionally carry the serving
//! shard's name back in the response's `shard` field; the router's
//! `trace` op fans `by_id` out to all shards and stitches the subtrees.

use crate::session::{ServiceError, SessionStatus};
use l2q_core::StopReason;
use serde::{Deserialize, Serialize};

/// A client request (one JSON line).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Request {
    /// Operation name (see module docs).
    pub op: String,
    /// Target session id (`step`/`status`/`snapshot`/`close`).
    pub session: Option<u64>,
    /// Entity index (`create`).
    pub entity: Option<u32>,
    /// Aspect name, e.g. `"RESEARCH"` (`create`).
    pub aspect: Option<String>,
    /// Selector name: `l2qp`, `l2qr`, `l2qbal`, `l2qw=<w>` (`create`).
    pub selector: Option<String>,
    /// Steps to run in this batch (`step`; default 1, server-capped).
    pub steps: Option<u32>,
    /// Per-session query budget override (`create`).
    pub n_queries: Option<u32>,
    /// Domain peer-set size, 0 = no domain phase (`create`).
    pub domain_size: Option<u32>,
    /// Output format for `metrics`: `"json"` (default) or `"text"`.
    pub format: Option<String>,
    /// Client-chosen correlation id, echoed verbatim in the response
    /// (any op; lets a pipelining client match responses to requests).
    pub request_id: Option<u64>,
    /// Per-request deadline in milliseconds (`step`). When the batch
    /// misses it the server answers `ok:false` with a deadline error and
    /// the batch finishes in the background; 0 or absent waits for the
    /// batch however long it takes.
    pub deadline_ms: Option<u64>,
    /// Shard name (`join_shard`/`drain_shard`, and the optional explicit
    /// target of `migrate`). Router-only; ignored by `l2q-serve`.
    pub shard: Option<String>,
    /// Shard address, `host:port` (`join_shard`). Router-only.
    pub shard_addr: Option<String>,
    /// Ask the edge (router, or server when addressed directly) to trace
    /// this request: a fresh trace is rooted and its id echoed back in
    /// the response's `trace_id`.
    pub trace: Option<bool>,
    /// Propagated trace id: set together with `parent_span_id` by an
    /// upstream hop (the router), or alone by the `trace` op to fetch a
    /// span tree by id.
    pub trace_id: Option<u64>,
    /// The upstream span the receiver's spans attach under (set by the
    /// hop that forwarded this request).
    pub parent_span_id: Option<u64>,
    /// `trace` op mode: `"by_id"` (default when `trace_id` is set),
    /// `"recent"`, or `"slow"` (slowest root spans).
    pub mode: Option<String>,
    /// Max spans returned by the `trace` op (`recent`/`slow`).
    pub limit: Option<u64>,
}

impl Request {
    /// A request with only the op set.
    pub fn op(op: &str) -> Self {
        Self {
            op: op.into(),
            ..Self::default()
        }
    }

    /// A request targeting one session.
    pub fn for_session(op: &str, session: u64) -> Self {
        Self {
            op: op.into(),
            session: Some(session),
            ..Self::default()
        }
    }

    /// The trace context this request runs under: an incoming `trace_id`
    /// is adopted (a router hop, or a client propagating its own ids),
    /// `trace: true` roots a fresh trace, and anything else stays on the
    /// untraced fast path. The `trace` op is exempt: there `trace_id` is
    /// the lookup key, and adopting it would append the fetch's spans to
    /// the trace being fetched. Each call mints a new root, so call this
    /// once per request.
    pub fn trace_context(&self) -> Option<l2q_obs::TraceContext> {
        if self.op == "trace" {
            return None;
        }
        match self.trace_id {
            Some(tid) => Some(l2q_obs::TraceContext::remote(tid, self.parent_span_id)),
            None if self.trace == Some(true) => Some(l2q_obs::TraceContext::new_root()),
            None => None,
        }
    }
}

/// A server response (one JSON line).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Echo of the request's `request_id`, when it carried one.
    pub request_id: Option<u64>,
    /// Human-readable failure description when `ok` is false.
    pub error: Option<String>,
    /// Backoff hint in milliseconds (set on overload rejections).
    pub retry_after_ms: Option<u64>,
    /// Session id (`create` and session-targeted ops).
    pub session: Option<u64>,
    /// `"running"` or `"finished:<reason>"`.
    pub state: Option<String>,
    /// Entity the session harvests for.
    pub entity: Option<u32>,
    /// Aspect name the session harvests for.
    pub aspect: Option<String>,
    /// Selector iterations completed so far.
    pub steps_taken: Option<u64>,
    /// Pages gathered so far.
    pub gathered: Option<u64>,
    /// Steps that advanced in this batch (`step`).
    pub advanced: Option<u64>,
    /// Previously unseen pages added in this batch (`step`).
    pub new_pages: Option<u64>,
    /// Harvested page ids in first-retrieval order (`snapshot`).
    pub pages: Option<Vec<u32>>,
    /// Fired queries rendered as text, seed excluded (`snapshot`).
    pub queries: Option<Vec<String>>,
    /// Service-wide counters (`stats`).
    pub stats: Option<StatsBody>,
    /// Known sessions, resident and stored (`list_sessions`).
    pub sessions: Option<Vec<SessionEntryBody>>,
    /// Full metrics-registry snapshot (`metrics` with `format: "json"`).
    pub metrics: Option<serde_json::Value>,
    /// Prometheus-style text exposition (`metrics` with `format: "text"`).
    pub metrics_text: Option<String>,
    /// Name of the shard that served a routed session op (router only).
    pub shard: Option<String>,
    /// Fleet topology + per-shard health (`fleet_status`, router only).
    pub fleet: Option<FleetStatusBody>,
    /// Sessions moved by a `drain_shard`/`migrate` (router only).
    pub migrated: Option<u64>,
    /// Shards cycled by a `rolling_restart` (router only).
    pub restarted: Option<u64>,
    /// Supervised child processes (`supervisor_status`, router only).
    pub supervised: Option<Vec<SupervisedShardBody>>,
    /// The trace id assigned to (or fetched by) this request, when the
    /// request was traced or used the `trace` op.
    pub trace_id: Option<u64>,
    /// Span records of the fetched trace(s) (`trace` op).
    pub spans: Option<Vec<SpanBody>>,
}

/// One span of a `trace` response.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SpanBody {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
    /// Parent span, absent for a root.
    pub parent_span_id: Option<u64>,
    /// Span name (`router_dispatch`, `harvest_step`, ...).
    pub name: String,
    /// Rendered labels, `k=v` space-joined (absent when unlabeled).
    pub labels: Option<String>,
    /// Wall-clock start, nanoseconds since the Unix epoch.
    pub start_unix_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// `"ok"` unless marked otherwise by the recording site.
    pub status: String,
    /// Which process recorded the span: a shard id, or `"router"`.
    pub source: Option<String>,
}

impl SpanBody {
    /// Wire form of a recorded span, stamped with the recording process's
    /// identity (`--shard-id`, or `"router"`).
    pub fn from_record(rec: &l2q_obs::SpanRecord, source: &str) -> Self {
        let labels = if rec.labels.is_empty() {
            None
        } else {
            Some(
                rec.labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        };
        Self {
            trace_id: rec.trace_id,
            span_id: rec.span_id,
            parent_span_id: rec.parent_span_id,
            name: rec.name.to_string(),
            labels,
            start_unix_ns: rec.start_unix_ns,
            dur_ns: rec.dur_ns,
            status: rec.status.to_string(),
            source: Some(source.to_string()),
        }
    }
}

/// One row of a `list_sessions` response.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SessionEntryBody {
    /// Session id.
    pub session: u64,
    /// Whether the session is resident in memory (vs stored-only).
    pub resident: bool,
    /// Steps taken (omitted for stored-only or mid-step sessions).
    pub steps_taken: Option<u64>,
    /// Pages gathered (omitted for stored-only or mid-step sessions).
    pub gathered: Option<u64>,
    /// `"running"` / `"finished:<reason>"` (omitted when unknown).
    pub state: Option<String>,
    /// Restorability class: `"resident"` / `"stored"` / `"failed"`.
    /// Lets router failover and operators tell restorable sessions from
    /// terminally failed ones. (`resident`/`state` stay for backward
    /// compat; absent when talking to a pre-fleet server.)
    pub health: Option<String>,
}

impl From<&crate::session::SessionEntry> for SessionEntryBody {
    fn from(e: &crate::session::SessionEntry) -> Self {
        Self {
            session: e.id,
            resident: e.resident,
            steps_taken: e.steps_taken,
            gathered: e.gathered,
            state: e.state.clone(),
            health: Some(e.health.clone()),
        }
    }
}

/// Payload of a router `fleet_status` response.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FleetStatusBody {
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: u64,
    /// One row per registered shard.
    pub shards: Vec<ShardStatusBody>,
}

/// One shard row of a `fleet_status` response.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ShardStatusBody {
    /// Shard name (stable ring identity).
    pub name: String,
    /// `host:port` the shard serves on.
    pub addr: String,
    /// `"healthy"` / `"suspect"` / `"dead"` / `"draining"`.
    pub health: String,
    /// Resident sessions on the shard (absent when unreachable).
    pub active_sessions: Option<u64>,
}

/// One row of a router `supervisor_status` response: a shard child
/// process under supervision.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SupervisedShardBody {
    /// Shard name (stable ring identity).
    pub name: String,
    /// `host:port` the child serves on.
    pub addr: String,
    /// OS pid of the running child (absent while down / breaker open).
    pub pid: Option<u64>,
    /// Times the supervisor respawned this child.
    pub restarts: u64,
    /// Consecutive rapid crashes (resets after a stable run).
    pub crash_streak: u64,
    /// Whether the crash-loop circuit breaker gave up on this child.
    pub breaker_open: bool,
    /// Shard health as the router sees it (`"healthy"` / ... ).
    pub health: String,
    /// Last observed exit status, e.g. `"exit code 1"` / `"signal 9"`.
    pub last_exit: Option<String>,
    /// Milliseconds until the next respawn attempt, when backing off.
    pub next_respawn_ms: Option<u64>,
}

/// Payload of a `stats` response.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StatsBody {
    /// Live sessions.
    pub active_sessions: u64,
    /// Sessions ever created.
    pub sessions_created: u64,
    /// Sessions closed by clients.
    pub sessions_closed: u64,
    /// Sessions evicted for idleness.
    pub sessions_evicted: u64,
    /// Selector iterations executed.
    pub steps_executed: u64,
    /// Queries fired (seeds + steps).
    pub queries_fired: u64,
    /// Step jobs rejected for backpressure.
    pub jobs_rejected: u64,
    /// Jobs waiting in the scheduler queue.
    pub queue_depth: u64,
    /// Worker threads.
    pub workers: u64,
    /// Retrieval-cache hits.
    pub retrieval_cache_hits: u64,
    /// Retrieval-cache misses.
    pub retrieval_cache_misses: u64,
    /// hits / (hits + misses), 0 when empty.
    pub retrieval_cache_hit_rate: f64,
    /// Domain-solve cache hits.
    pub domain_cache_hits: u64,
    /// Domain-solve cache misses.
    pub domain_cache_misses: u64,
    /// Whether the server runs with a durable store (`--data-dir`).
    pub store_enabled: bool,
    /// Sessions spilled to the durable store.
    pub sessions_spilled: u64,
    /// Sessions restored from the durable store.
    pub sessions_restored: u64,
    /// Idle evictions refused to avoid data loss (no store).
    pub eviction_refusals: u64,
    /// The serving shard's `--shard-id`, when it runs as a fleet member.
    pub shard_id: Option<String>,
}

/// Render a stop reason for the `state` field.
pub fn state_string(finished: Option<StopReason>) -> String {
    match finished {
        None => "running".into(),
        Some(reason) => format!("finished:{}", reason.as_str()),
    }
}

/// The `state` string for a full status: `"failed"` dominates (a session
/// whose step batch panicked is terminal regardless of its stop reason).
pub fn session_state_string(status: &SessionStatus) -> String {
    if status.failed.is_some() {
        "failed".into()
    } else {
        state_string(status.finished)
    }
}

impl Response {
    /// A bare success.
    pub fn ok() -> Self {
        Self {
            ok: true,
            ..Self::default()
        }
    }

    /// A failure carrying `msg` as its error text.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self {
            ok: false,
            error: Some(msg.into()),
            ..Self::default()
        }
    }

    /// A failure carrying the error text (and retry hint on overload).
    pub fn err(e: &ServiceError) -> Self {
        Self {
            ok: false,
            error: Some(e.to_string()),
            retry_after_ms: match e {
                ServiceError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
                _ => None,
            },
            ..Self::default()
        }
    }

    /// A success describing a session's status.
    pub fn from_status(status: &SessionStatus, aspect_name: &str) -> Self {
        Self {
            ok: true,
            session: Some(status.id),
            state: Some(session_state_string(status)),
            entity: Some(status.entity.0),
            aspect: Some(aspect_name.to_string()),
            steps_taken: Some(status.steps_taken as u64),
            gathered: Some(status.gathered as u64),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let mut req = Request::op("create");
        req.entity = Some(7);
        req.aspect = Some("RESEARCH".into());
        req.selector = Some("l2qbal".into());
        req.domain_size = Some(4);
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back.op, "create");
        assert_eq!(back.entity, Some(7));
        assert_eq!(back.aspect.as_deref(), Some("RESEARCH"));
        assert_eq!(back.selector.as_deref(), Some("l2qbal"));
        assert_eq!(back.n_queries, None);
        assert_eq!(back.domain_size, Some(4));
    }

    #[test]
    fn missing_optional_fields_deserialize_to_none() {
        let back: Request = serde_json::from_str(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(back.op, "ping");
        assert_eq!(back.session, None);
        assert_eq!(back.steps, None);
    }

    #[test]
    fn overload_response_carries_retry_hint() {
        let resp = Response::err(&ServiceError::Overloaded { retry_after_ms: 25 });
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(!back.ok);
        assert_eq!(back.retry_after_ms, Some(25));
        assert!(back.error.unwrap().contains("retry"));
    }

    #[test]
    fn request_id_and_deadline_roundtrip() {
        let mut req = Request::for_session("step", 3);
        req.request_id = Some(41);
        req.deadline_ms = Some(250);
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back.request_id, Some(41));
        assert_eq!(back.deadline_ms, Some(250));
        // Absent on the wire stays absent.
        let bare: Request = serde_json::from_str(r#"{"op":"step","session":3}"#).unwrap();
        assert_eq!(bare.request_id, None);
        assert_eq!(bare.deadline_ms, None);

        let mut resp = Response::ok();
        resp.request_id = Some(41);
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back.request_id, Some(41));
    }

    #[test]
    fn deadline_error_renders_and_failed_state_dominates() {
        let resp = Response::err(&ServiceError::Deadline { deadline_ms: 50 });
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("deadline"));

        let mut status = SessionStatus {
            id: 1,
            entity: l2q_corpus::EntityId(0),
            aspect: l2q_corpus::AspectId(0),
            steps_taken: 2,
            gathered: 3,
            finished: None,
            failed: Some("boom".into()),
        };
        assert_eq!(session_state_string(&status), "failed");
        status.failed = None;
        assert_eq!(session_state_string(&status), "running");
    }

    #[test]
    fn trace_fields_roundtrip_exactly() {
        // Ids are 48-bit by construction so they survive JSON's f64.
        let tid = l2q_obs::trace::next_id();
        let mut req = Request::for_session("step", 3);
        req.trace = Some(true);
        req.trace_id = Some(tid);
        req.parent_span_id = Some(0x1234_5678_9abc);
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back.trace, Some(true));
        assert_eq!(back.trace_id, Some(tid));
        assert_eq!(back.parent_span_id, Some(0x1234_5678_9abc));
        let bare: Request = serde_json::from_str(r#"{"op":"step","session":3}"#).unwrap();
        assert_eq!(bare.trace, None);
        assert_eq!(bare.trace_id, None);

        let mut resp = Response::ok();
        resp.trace_id = Some(tid);
        resp.spans = Some(vec![SpanBody {
            trace_id: tid,
            span_id: 7,
            parent_span_id: None,
            name: "harvest_step".into(),
            labels: Some("op=step".into()),
            start_unix_ns: 1_700_000_000_000_000_000,
            dur_ns: 1234,
            status: "ok".into(),
            source: Some("alpha".into()),
        }]);
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back.trace_id, Some(tid));
        let spans = back.spans.unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "harvest_step");
        assert_eq!(spans[0].parent_span_id, None);
        assert_eq!(spans[0].source.as_deref(), Some("alpha"));
    }

    #[test]
    fn span_body_from_record_renders_labels() {
        let rec = l2q_obs::SpanRecord {
            trace_id: 1,
            span_id: 2,
            parent_span_id: Some(3),
            name: "router_forward",
            labels: vec![
                ("shard".into(), "alpha".into()),
                ("op".into(), "step".into()),
            ],
            start_unix_ns: 10,
            dur_ns: 20,
            status: "ok",
        };
        let body = SpanBody::from_record(&rec, "router");
        assert_eq!(body.labels.as_deref(), Some("shard=alpha op=step"));
        assert_eq!(body.source.as_deref(), Some("router"));
        assert_eq!(body.parent_span_id, Some(3));
    }

    #[test]
    fn state_strings_cover_every_stop_reason() {
        assert_eq!(state_string(None), "running");
        assert_eq!(
            state_string(Some(StopReason::BudgetExhausted)),
            "finished:budget_exhausted"
        );
        assert_eq!(
            state_string(Some(StopReason::SelectorExhausted)),
            "finished:selector_exhausted"
        );
    }
}
