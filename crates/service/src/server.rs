//! The TCP front end: wire dispatch and the idle sweeper.
//!
//! The [`reactor`](crate::reactor) owns the whole front door: one thread
//! accepts on the listener's readiness, admits or refuses each
//! connection, reads newline-delimited JSON requests over an epoll
//! readiness loop, and writes one JSON response line per request. Ops
//! that never block run inline on the reactor thread; everything else
//! (step batches, session and store ops) runs on the shared
//! [`Scheduler`]'s workers, so neither a slow session nor a slow peer
//! starves the others.
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
use crate::ops::{self, OpTable};
use crate::proto::{Request, Response, StatsBody};
use crate::reactor::{EngineConfig, EngineHandle, ReplyHandle, WireHandler};
use crate::scheduler::Scheduler;
use crate::session::{
    lock_recover, SelectorKind, ServiceError, ServiceMetrics, SessionManager, SessionSpec,
    SessionStatus,
};
use l2q_corpus::{AspectId, EntityId};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the sweeper scans for idle sessions.
const SWEEP_INTERVAL: Duration = Duration::from_secs(5);
/// Hard cap on `steps` per request (protects the queue from hogs).
const MAX_STEPS_PER_REQUEST: usize = 64;

/// Server sizing and policy knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Step-executing worker threads.
    pub workers: usize,
    /// Bounded step-queue capacity (backpressure threshold).
    pub queue_cap: usize,
    /// Sessions idle longer than this are evicted.
    pub idle_timeout: Duration,
    /// Concurrent-connection cap; connections beyond it get a one-line
    /// `"server at capacity"` refusal and a close.
    pub max_connections: usize,
    /// Hard cap on one request line's bytes; an oversized line gets an
    /// `ok:false` error and the connection is closed.
    pub max_line_bytes: usize,
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
            max_connections: 256,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            shard_id: None,
        }
    }
}

/// A running harvest server; dropping the handle shuts it down.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    sweeper_thread: Option<JoinHandle<()>>,
    engine: EngineHandle,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Block until a client's `shutdown` op stops the server (the
    /// reactor drains and exits), then join the other service threads.
    pub fn wait(mut self) {
        self.engine.join();
        self.shutdown();
    }

    /// Stop accepting, drain in-flight connections (the reactor bounds
    /// the drain), join service threads. In-flight requests finish and
    /// flush first; idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = &self.sweeper_thread {
            h.thread().unpark();
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
    shard_id: Option<String>,
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
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServiceMetrics::default());
        let core = Arc::new(ServerCore {
            manager: SessionManager::with_store(bundle, cfg.idle_timeout, metrics.clone(), store),
            scheduler: Scheduler::new(cfg.workers, cfg.queue_cap, metrics.clone()),
            metrics,
            shard_id: cfg.shard_id.clone(),
        });

        let engine = crate::reactor::spawn_engine(
            Arc::new(ServiceWire { core: core.clone() }),
            listener,
            EngineConfig {
                name: "l2q-reactor".into(),
                max_line_bytes: cfg.max_line_bytes,
                max_connections: cfg.max_connections,
                at_capacity: "server at capacity",
                stop: stop.clone(),
            },
        )?;

        let sweep_stop = stop.clone();
        let sweeper_thread = std::thread::Builder::new()
            .name("l2q-sweeper".into())
            .spawn(move || {
                // Parked between sweeps; `ServerHandle::shutdown` unparks
                // it. A spurious wake-up only sweeps early.
                loop {
                    std::thread::park_timeout(SWEEP_INTERVAL);
                    if sweep_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    core.manager.evict_idle();
                }
            })?;

        Ok(ServerHandle {
            addr: local,
            stop,
            sweeper_thread: Some(sweeper_thread),
            engine,
        })
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
                Some(dispatch(req, &self.core, req.trace_context()))
            }
            _ => None,
        }
    }

    fn deadline_ms(&self, req: &Request) -> u64 {
        if req.op == "step" {
            req.deadline_ms.unwrap_or(0)
        } else {
            0
        }
    }

    fn dispatch(&self, req: Request, reply: ReplyHandle) {
        // One trace context for the whole request: entered here so the
        // scheduler captures it at enqueue (the queue-wait span joins the
        // caller's trace), re-entered by the worker for the op itself.
        let ctx = req.trace_context();
        let _trace_guard = ctx.map(l2q_obs::trace::enter);
        let core = self.core.clone();
        self.core
            .scheduler
            .dispatch(reply, move || dispatch(&req, &core, ctx));
    }

    fn on_oversized(&self) {
        wire_boundary_obs().oversized_requests.inc();
    }

    fn on_deadline(&self) {
        wire_boundary_obs().deadline_exceeded.inc();
    }

    fn on_admission(&self, delta: i64) {
        wire_boundary_obs().connections_active.add(delta);
    }

    fn on_refused(&self) {
        wire_boundary_obs().connections_refused.inc();
    }
}

/// Per-op wire instrumentation: `wire_requests_total{op}`,
/// `wire_request_seconds{op}` and a `wire_request` span per request.
static WIRE_OPS: OpTable = OpTable::new(
    "wire_request",
    "wire_requests_total",
    "wire_request_seconds",
    &[
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
    ],
);

fn dispatch(req: &Request, core: &ServerCore, ctx: Option<l2q_obs::TraceContext>) -> Response {
    WIRE_OPS.run(&req.op, ctx, || match req.op.as_str() {
        "ping" => Response::ok(),
        "create" => handle_create(req, core).unwrap_or_else(|e| Response::err(&e)),
        "step" => handle_step(req, core).unwrap_or_else(|e| Response::err(&e)),
        "status" => with_session_status(req, core, false).unwrap_or_else(|e| Response::err(&e)),
        "snapshot" => with_session_status(req, core, true).unwrap_or_else(|e| Response::err(&e)),
        "close" => handle_close(req, core).unwrap_or_else(|e| Response::err(&e)),
        "stats" => handle_stats(core),
        "metrics" => ops::metrics(req, &l2q_obs::global().snapshot()),
        "trace" => ops::local_trace(req, core.shard_id.as_deref().unwrap_or("local")),
        "persist" => handle_persist(req, core).unwrap_or_else(|e| Response::err(&e)),
        "restore" => handle_restore(req, core).unwrap_or_else(|e| Response::err(&e)),
        "detach" => handle_detach(req, core).unwrap_or_else(|e| Response::err(&e)),
        "list_sessions" => handle_list_sessions(core),
        "shutdown" => Response {
            ok: true,
            state: Some("shutting_down".into()),
            ..Response::default()
        },
        other => Response::fail(format!("unknown op '{other}'")),
    })
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
    let steps = (req.steps.unwrap_or(1) as usize).clamp(1, MAX_STEPS_PER_REQUEST);
    let session = core.manager.get(id)?;
    let report = crate::scheduler::execute_batch(&session, steps, &core.metrics)?;
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
