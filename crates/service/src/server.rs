//! The TCP front end: accept loop, wire dispatch, idle sweeper.
//!
//! The listener runs nonblocking and polls a shutdown flag between
//! accepts, so `ServerHandle::shutdown` stops the server without a
//! sentinel connection. Accepted connections are handed to the
//! [`reactor`](crate::reactor): one thread multiplexes every connection
//! over an epoll readiness loop, reads newline-delimited JSON requests,
//! and writes one JSON response line per request. Ops that never block
//! run inline on the reactor thread; everything else (step batches,
//! session and store ops) runs on the shared [`Scheduler`]'s workers,
//! so neither a slow session nor a slow peer starves the others.
//!
//! The wire boundary is hardened against misbehaving peers: request
//! framing is a bounded [`LineBuffer`](crate::framing::LineBuffer)
//! (partial requests stay buffered however slowly they arrive; a line
//! past `max_line_bytes` gets an `ok:false` error and a graceful close
//! instead of unbounded buffering), admission control caps concurrent
//! connections with a polite `"server at capacity"` refusal line, `step`
//! requests honor a deadline after which the caller gets a `Deadline`
//! error while the batch finishes in the background, and shutdown drains
//! in-flight connections within a bounded timeout.

use crate::bundle::ServingBundle;
use crate::framing::DEFAULT_MAX_LINE_BYTES;
use crate::proto::{Request, Response, StatsBody};
use crate::reactor::{EngineConfig, EngineHandle, Injector, ReplyHandle, WireHandler};
use crate::scheduler::Scheduler;
use crate::session::{
    lock_recover, SelectorKind, ServiceError, ServiceMetrics, SessionManager, SessionSpec,
    SessionStatus,
};
use l2q_corpus::{AspectId, EntityId};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Step-executing worker threads.
    pub workers: usize,
    /// Bounded step-queue capacity (backpressure threshold).
    pub queue_cap: usize,
    /// Sessions idle longer than this are evicted.
    pub idle_timeout: Duration,
    /// How often the sweeper scans for idle sessions.
    pub sweep_interval: Duration,
    /// Hard cap on `steps` per request (protects the queue from hogs).
    pub max_steps_per_request: usize,
    /// Concurrent-connection cap; connections beyond it get a one-line
    /// `"server at capacity"` refusal and a close.
    pub max_connections: usize,
    /// Hard cap on one request line's bytes; an oversized line gets an
    /// `ok:false` error and the connection is closed.
    pub max_line_bytes: usize,
    /// Default `step` deadline in milliseconds (0 = wait indefinitely);
    /// requests may override with their own `deadline_ms`.
    pub request_deadline_ms: u64,
    /// How long `shutdown` waits for in-flight connections to finish
    /// before returning anyway.
    pub drain_timeout: Duration,
    /// Fleet identity of this server (`l2q-serve --shard-id`), echoed in
    /// `stats` so a router can tell which shard answered. None = not a
    /// fleet member.
    pub shard_id: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_cap: 64,
            idle_timeout: Duration::from_secs(300),
            sweep_interval: Duration::from_secs(5),
            max_steps_per_request: 64,
            max_connections: 256,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            request_deadline_ms: 0,
            drain_timeout: Duration::from_secs(5),
            shard_id: None,
        }
    }
}

/// A running harvest server; dropping the handle shuts it down.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
    sweeper_thread: Option<JoinHandle<()>>,
    engine: EngineHandle,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested (e.g. by a client's
    /// `shutdown` op) — the accept loop is stopping or stopped.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Connections currently admitted (the admission-control count).
    pub fn active_connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }

    /// Stop accepting, drain in-flight connections (the reactor bounds
    /// the drain by the configured drain timeout), join service threads.
    /// In-flight requests finish and flush first; idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.engine.wake(); // start the reactor's bounded drain promptly
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        self.engine.join();
        if let Some(h) = self.sweeper_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Shared state every request dispatches against.
struct ServerCore {
    manager: SessionManager,
    scheduler: Scheduler,
    metrics: Arc<ServiceMetrics>,
    max_steps_per_request: usize,
    max_connections: usize,
    request_deadline_ms: u64,
    shard_id: Option<String>,
    /// Connections currently being served (admission-control semaphore).
    connections: Arc<AtomicUsize>,
}

/// Wire-boundary hardening metrics, registered once per process.
struct WireObs {
    connections_active: Arc<l2q_obs::Gauge>,
    connections_refused: Arc<l2q_obs::Counter>,
    oversized_requests: Arc<l2q_obs::Counter>,
    deadline_exceeded: Arc<l2q_obs::Counter>,
}

fn wire_boundary_obs() -> &'static WireObs {
    static OBS: OnceLock<WireObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = l2q_obs::global();
        WireObs {
            connections_active: reg.gauge("wire_connections_active"),
            connections_refused: reg.counter("wire_connections_refused_total"),
            oversized_requests: reg.counter("wire_oversized_requests_total"),
            deadline_exceeded: reg.counter("wire_deadline_exceeded_total"),
        }
    })
}

/// An occupied admission slot; releases the connection count (and the
/// active gauge) however the reactor closes the connection.
struct ConnSlot {
    connections: Arc<AtomicUsize>,
}

impl ConnSlot {
    /// Try to occupy a slot; `None` means the server is at capacity.
    fn acquire(connections: &Arc<AtomicUsize>, max: usize) -> Option<Self> {
        let mut current = connections.load(Ordering::SeqCst);
        loop {
            if current >= max {
                return None;
            }
            match connections.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    wire_boundary_obs().connections_active.inc();
                    return Some(Self {
                        connections: connections.clone(),
                    });
                }
                Err(observed) => current = observed,
            }
        }
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.connections.fetch_sub(1, Ordering::SeqCst);
        wire_boundary_obs().connections_active.dec();
    }
}

/// A server over a bundle.
pub struct HarvestServer;

impl HarvestServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// the bundle until the returned handle shuts down.
    pub fn spawn(
        bundle: Arc<ServingBundle>,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ServerHandle> {
        Self::spawn_with_store(bundle, cfg, None, addr)
    }

    /// [`spawn`](Self::spawn) with an optional durable session store
    /// (`l2q-serve --data-dir`). Sessions stored by a previous process are
    /// visible immediately (`list_sessions`) and restored transparently on
    /// first touch.
    pub fn spawn_with_store(
        bundle: Arc<ServingBundle>,
        cfg: ServerConfig,
        store: Option<Arc<l2q_store::SessionStore>>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicUsize::new(0));
        let metrics = Arc::new(ServiceMetrics::default());
        let core = Arc::new(ServerCore {
            manager: SessionManager::with_store(bundle, cfg.idle_timeout, metrics.clone(), store),
            scheduler: Scheduler::new(cfg.workers, cfg.queue_cap, metrics.clone()),
            metrics,
            max_steps_per_request: cfg.max_steps_per_request.max(1),
            max_connections: cfg.max_connections.max(1),
            request_deadline_ms: cfg.request_deadline_ms,
            shard_id: cfg.shard_id.clone(),
            connections: connections.clone(),
        });

        let engine = crate::reactor::spawn_engine(
            Arc::new(ServiceWire { core: core.clone() }),
            EngineConfig {
                name: "l2q-reactor".into(),
                max_line_bytes: cfg.max_line_bytes.max(1),
                drain_timeout: cfg.drain_timeout,
                stop: stop.clone(),
            },
        )?;
        let injector = engine.injector();

        let accept_core = core.clone();
        let accept_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("l2q-accept".into())
            .spawn(move || accept_loop(listener, accept_core, accept_stop, injector))?;

        let sweep_core = core;
        let sweep_stop = stop.clone();
        let sweep_every = cfg.sweep_interval;
        let sweeper_thread = std::thread::Builder::new()
            .name("l2q-sweeper".into())
            .spawn(move || {
                // Poll in short slices so shutdown is prompt even with a
                // long sweep interval.
                let slice = Duration::from_millis(20).min(sweep_every);
                let mut slept = Duration::ZERO;
                while !sweep_stop.load(Ordering::SeqCst) {
                    std::thread::sleep(slice);
                    slept += slice;
                    if slept >= sweep_every {
                        slept = Duration::ZERO;
                        sweep_core.manager.evict_idle();
                    }
                }
            })?;

        Ok(ServerHandle {
            addr: local,
            stop,
            connections,
            accept_thread: Some(accept_thread),
            sweeper_thread: Some(sweeper_thread),
            engine,
        })
    }
}

/// Admission: occupy a slot and hand the socket to the reactor (which
/// releases the slot on every close path, socket errors included), or
/// hand it over with a one-shot refusal line written by the reactor's
/// nonblocking writer — the accept thread never blocks on a peer either
/// way.
fn accept_loop(
    listener: TcpListener,
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    injector: Injector,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                match ConnSlot::acquire(&core.connections, core.max_connections) {
                    Some(slot) => injector.hand_off(stream, Some(Box::new(slot)), None),
                    None => {
                        wire_boundary_obs().connections_refused.inc();
                        injector.hand_off(stream, None, Some(capacity_refusal()));
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn capacity_refusal() -> Response {
    Response {
        ok: false,
        error: Some("server at capacity".into()),
        retry_after_ms: Some(100),
        ..Response::default()
    }
}

/// The service's [`WireHandler`]: ops that never block (no session
/// locks, no disk) run inline on the reactor thread; everything else is
/// dispatched through the scheduler's bounded queue.
struct ServiceWire {
    core: Arc<ServerCore>,
}

impl WireHandler for ServiceWire {
    fn run_inline(&self, req: &Request) -> Option<Response> {
        match req.op.as_str() {
            "ping" | "stats" | "metrics" | "trace" | "shutdown" => {
                Some(dispatch(req, &self.core, trace_ctx_for(req)))
            }
            _ => None,
        }
    }

    fn deadline_ms(&self, req: &Request) -> u64 {
        if req.op == "step" {
            req.deadline_ms
                .filter(|&d| d > 0)
                .unwrap_or(self.core.request_deadline_ms)
        } else {
            0
        }
    }

    fn dispatch(&self, req: Request, reply: ReplyHandle) {
        // The reply stays outside the closure until submission succeeds,
        // so a full queue answers `Overloaded` with a retry hint instead
        // of a dropped-reply internal error.
        let slot = Arc::new(Mutex::new(Some(reply)));
        let task_slot = slot.clone();
        let core = self.core.clone();
        // One trace context for the whole request: entered here so the
        // scheduler captures it at enqueue (queue-wait spans join the
        // caller's trace), re-entered by the worker when the task runs.
        let ctx = trace_ctx_for(&req);
        let task: Box<dyn FnOnce() + Send> = Box::new(move || {
            let reply = task_slot.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(reply) = reply {
                reply.complete(dispatch(&req, &core, ctx));
            }
        });
        let _trace_guard = ctx.map(l2q_obs::trace::enter);
        if let Err(e) = self.core.scheduler.submit_task(task) {
            if let Some(reply) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                reply.complete(Response::err(&e));
            }
        }
    }

    fn on_oversized(&self) {
        wire_boundary_obs().oversized_requests.inc();
    }

    fn on_deadline(&self) {
        wire_boundary_obs().deadline_exceeded.inc();
    }
}

/// The wire ops, plus a catch-all bucket so arbitrary client-supplied op
/// strings cannot inflate metric-label cardinality.
const WIRE_OPS: [&str; 15] = [
    "ping",
    "create",
    "step",
    "status",
    "snapshot",
    "close",
    "stats",
    "metrics",
    "trace",
    "persist",
    "restore",
    "detach",
    "list_sessions",
    "shutdown",
    "unknown",
];

/// Per-op request counter + latency histogram, resolved once per process.
fn wire_obs(op: &str) -> &'static (Arc<l2q_obs::Counter>, Arc<l2q_obs::Histogram>) {
    type Handles = Vec<(Arc<l2q_obs::Counter>, Arc<l2q_obs::Histogram>)>;
    static M: OnceLock<Handles> = OnceLock::new();
    let by_op = M.get_or_init(|| {
        let reg = l2q_obs::global();
        WIRE_OPS
            .iter()
            .map(|&op| {
                (
                    reg.counter_with("wire_requests_total", &[("op", op)]),
                    reg.histogram_with("wire_request_seconds", &[("op", op)]),
                )
            })
            .collect()
    });
    let idx = WIRE_OPS
        .iter()
        .position(|&known| known == op)
        .unwrap_or(WIRE_OPS.len() - 1);
    &by_op[idx]
}

/// Adopt an incoming trace context (router-forwarded request), or start
/// a fresh trace when the client asked for one; otherwise stay on the
/// untraced fast path where span timers only feed histograms. The
/// `trace` op is exempt: there `trace_id` is the lookup key, and
/// adopting it would append fetch spans to the trace being fetched.
fn trace_ctx_for(req: &Request) -> Option<l2q_obs::TraceContext> {
    if req.op == "trace" {
        return None;
    }
    match req.trace_id {
        Some(tid) => Some(l2q_obs::TraceContext::remote(tid, req.parent_span_id)),
        None if req.trace == Some(true) => Some(l2q_obs::TraceContext::new_root()),
        None => None,
    }
}

fn dispatch(req: &Request, core: &ServerCore, ctx: Option<l2q_obs::TraceContext>) -> Response {
    let (requests, latency) = wire_obs(&req.op);
    requests.inc();
    let _trace_guard = ctx.map(l2q_obs::trace::enter);
    let known_op = WIRE_OPS
        .iter()
        .copied()
        .find(|&known| known == req.op)
        .unwrap_or("unknown");
    let _timer = l2q_obs::SpanTimer::start_named_labeled(
        latency.clone(),
        "wire_request",
        &[("op", known_op)],
    );
    let trace_id = _timer.trace_context().map(|c| c.trace_id);
    let mut resp = match req.op.as_str() {
        "ping" => Response::ok(),
        "create" => handle_create(req, core).unwrap_or_else(|e| Response::err(&e)),
        "step" => handle_step(req, core).unwrap_or_else(|e| Response::err(&e)),
        "status" => with_session_status(req, core, false).unwrap_or_else(|e| Response::err(&e)),
        "snapshot" => with_session_status(req, core, true).unwrap_or_else(|e| Response::err(&e)),
        "close" => handle_close(req, core).unwrap_or_else(|e| Response::err(&e)),
        "stats" => handle_stats(core),
        "metrics" => handle_metrics(req),
        "trace" => handle_trace(req, core),
        "persist" => handle_persist(req, core).unwrap_or_else(|e| Response::err(&e)),
        "restore" => handle_restore(req, core).unwrap_or_else(|e| Response::err(&e)),
        "detach" => handle_detach(req, core).unwrap_or_else(|e| Response::err(&e)),
        "list_sessions" => handle_list_sessions(core),
        "shutdown" => Response {
            ok: true,
            state: Some("shutting_down".into()),
            ..Response::default()
        },
        other => Response {
            ok: false,
            error: Some(format!("unknown op '{other}'")),
            ..Response::default()
        },
    };
    if resp.trace_id.is_none() {
        resp.trace_id = trace_id;
    }
    resp
}

fn want_session(req: &Request) -> Result<u64, ServiceError> {
    req.session
        .ok_or_else(|| ServiceError::BadConfig("missing 'session'".into()))
}

fn status_response(core: &ServerCore, status: &SessionStatus) -> Response {
    Response::from_status(
        status,
        core.manager.bundle().corpus.aspect_name(status.aspect),
    )
}

fn handle_create(req: &Request, core: &ServerCore) -> Result<Response, ServiceError> {
    let entity = req
        .entity
        .ok_or_else(|| ServiceError::BadConfig("missing 'entity'".into()))?;
    let aspect_name = req
        .aspect
        .as_deref()
        .ok_or_else(|| ServiceError::BadConfig("missing 'aspect'".into()))?;
    let aspect: AspectId = core
        .manager
        .bundle()
        .corpus
        .aspect_by_name(aspect_name)
        .ok_or_else(|| ServiceError::BadAspect(aspect_name.into()))?;
    let selector_name = req.selector.as_deref().unwrap_or("l2qbal");
    let selector = SelectorKind::parse(selector_name)
        .ok_or_else(|| ServiceError::BadSelector(selector_name.into()))?;
    let spec = SessionSpec {
        entity: EntityId(entity),
        aspect,
        selector,
        n_queries: req.n_queries.map(|n| n as usize),
        domain_size: req.domain_size.unwrap_or(0) as usize,
    };
    // A `create` carrying an explicit session id comes from a router that
    // allocates fleet-wide ids; plain clients omit it and get a local one.
    let status = match req.session {
        Some(id) => core.manager.create_with_id(id, &spec)?,
        None => core.manager.create(&spec)?,
    };
    Ok(status_response(core, &status))
}

/// `step`: this call already runs on a scheduler worker (the dispatched
/// task), so the batch executes right here instead of round-tripping
/// through the queue again. Deadline enforcement lives in the reactor:
/// when it fires, the caller gets the `Deadline` error while this batch
/// keeps running and its completion is tombstoned.
fn handle_step(req: &Request, core: &ServerCore) -> Result<Response, ServiceError> {
    let id = want_session(req)?;
    let steps = (req.steps.unwrap_or(1) as usize).clamp(1, core.max_steps_per_request);
    let session = core.manager.get(id)?;
    let report = crate::scheduler::execute_batch_spanned(&session, steps, &core.metrics)?;
    let mut resp = status_response(core, &report.status);
    resp.advanced = Some(report.advanced as u64);
    resp.new_pages = Some(report.new_pages as u64);
    Ok(resp)
}

fn with_session_status(
    req: &Request,
    core: &ServerCore,
    include_snapshot: bool,
) -> Result<Response, ServiceError> {
    let id = want_session(req)?;
    let session = core.manager.get(id)?;
    let mut guard = lock_recover(&session);
    let mut resp = status_response(core, &guard.status());
    if include_snapshot {
        let (pages, queries) = guard.snapshot();
        resp.pages = Some(pages);
        resp.queries = Some(queries);
    }
    Ok(resp)
}

fn handle_close(req: &Request, core: &ServerCore) -> Result<Response, ServiceError> {
    let id = want_session(req)?;
    let status = core.manager.close(id)?;
    Ok(status_response(core, &status))
}

fn handle_persist(req: &Request, core: &ServerCore) -> Result<Response, ServiceError> {
    let id = want_session(req)?;
    let status = core.manager.persist(id)?;
    Ok(status_response(core, &status))
}

fn handle_restore(req: &Request, core: &ServerCore) -> Result<Response, ServiceError> {
    let id = want_session(req)?;
    let status = core.manager.restore(id)?;
    Ok(status_response(core, &status))
}

fn handle_detach(req: &Request, core: &ServerCore) -> Result<Response, ServiceError> {
    let id = want_session(req)?;
    let status = core.manager.detach(id)?;
    Ok(status_response(core, &status))
}

fn handle_list_sessions(core: &ServerCore) -> Response {
    let entries = core.manager.list();
    Response {
        ok: true,
        sessions: Some(entries.iter().map(Into::into).collect()),
        ..Response::default()
    }
}

fn handle_metrics(req: &Request) -> Response {
    let reg = l2q_obs::global();
    match req.format.as_deref().unwrap_or("json") {
        "text" | "prometheus" => Response {
            ok: true,
            metrics_text: Some(reg.render_text()),
            ..Response::default()
        },
        "json" => match serde_json::from_str(&reg.render_json()) {
            Ok(v) => Response {
                ok: true,
                metrics: Some(v),
                ..Response::default()
            },
            Err(e) => Response {
                ok: false,
                error: Some(format!("metrics render failed: {e}")),
                ..Response::default()
            },
        },
        other => Response {
            ok: false,
            error: Some(format!("unknown metrics format '{other}' (json|text)")),
            ..Response::default()
        },
    }
}

/// `trace` op: query this process's in-memory span ring buffer.
///
/// Modes: `by_id` (default when `trace_id` is present) returns every
/// buffered span of one trace ordered by start time; `recent` returns the
/// newest spans; `slow` returns the slowest root spans. `limit` bounds the
/// `recent`/`slow` result count (default 32).
fn handle_trace(req: &Request, core: &ServerCore) -> Response {
    let source = core.shard_id.as_deref().unwrap_or("local");
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
            None => {
                return Response {
                    ok: false,
                    error: Some("trace mode 'by_id' requires 'trace_id'".into()),
                    ..Response::default()
                }
            }
        },
        "recent" => buffer.recent(limit),
        "slow" => buffer.slow_roots(limit),
        other => {
            return Response {
                ok: false,
                error: Some(format!("unknown trace mode '{other}' (by_id|recent|slow)")),
                ..Response::default()
            }
        }
    };
    Response {
        ok: true,
        trace_id: req.trace_id,
        spans: Some(
            records
                .iter()
                .map(|r| crate::proto::SpanBody::from_record(r, source))
                .collect(),
        ),
        ..Response::default()
    }
}

fn handle_stats(core: &ServerCore) -> Response {
    let bundle = core.manager.bundle();
    let rc = bundle.retrieval_cache();
    let dc = bundle.domain_cache();
    let m = &core.metrics;
    Response {
        ok: true,
        stats: Some(StatsBody {
            active_sessions: core.manager.active() as u64,
            sessions_created: ServiceMetrics::load(&m.sessions_created),
            sessions_closed: ServiceMetrics::load(&m.sessions_closed),
            sessions_evicted: ServiceMetrics::load(&m.sessions_evicted),
            steps_executed: ServiceMetrics::load(&m.steps_executed),
            queries_fired: ServiceMetrics::load(&m.queries_fired),
            jobs_rejected: ServiceMetrics::load(&m.jobs_rejected),
            queue_depth: core.scheduler.queue_depth() as u64,
            workers: core.scheduler.workers() as u64,
            retrieval_cache_hits: rc.hits(),
            retrieval_cache_misses: rc.misses(),
            retrieval_cache_hit_rate: rc.hit_rate(),
            domain_cache_hits: dc.hits(),
            domain_cache_misses: dc.misses(),
            store_enabled: core.manager.store().is_some(),
            sessions_spilled: ServiceMetrics::load(&m.sessions_spilled),
            sessions_restored: ServiceMetrics::load(&m.sessions_restored),
            eviction_refusals: ServiceMetrics::load(&m.eviction_refusals),
            shard_id: core.shard_id.clone(),
        }),
        ..Response::default()
    }
}
