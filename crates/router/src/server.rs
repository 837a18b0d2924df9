//! The router's front door: accept loop + health prober.
//!
//! Speaks the same line-delimited JSON protocol as `l2q-serve`, so any
//! existing client points at the router unchanged. Accepted connections
//! are served by the same readiness-loop engine as the shards
//! ([`l2q_service::reactor`]): local ops run inline, and every op that
//! touches a shard is forwarded through [`RouterCore`] from a bounded
//! pool of forward workers. A background prober pings every registered
//! shard on a jittered schedule so the whole fleet never probes in
//! lockstep and a dead shard is noticed within a couple of intervals.

use crate::router::RouterCore;
use crate::shard::Shard;
use l2q_service::reactor::{
    spawn_engine, EngineConfig, EngineHandle, Injector, ReplyHandle, TaskPool, WireHandler,
};
use l2q_service::{Request, Response};
use std::collections::HashMap;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running router; dropping the handle shuts it down.
pub struct RouterHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    prober_thread: Option<JoinHandle<()>>,
    rebalancer_thread: Option<JoinHandle<()>>,
    engine: EngineHandle,
}

impl RouterHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested (e.g. by a client's
    /// `shutdown` op).
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stop accepting, drain in-flight connections (the reactor bounds
    /// the drain by the configured drain timeout), join the prober;
    /// idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.engine.wake(); // start the reactor's bounded drain promptly
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        self.engine.join();
        if let Some(h) = self.prober_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.rebalancer_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The router server: binds, spawns the accept loop and the prober.
pub struct RouterServer;

impl RouterServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and route against `core` until
    /// the returned handle shuts down.
    pub fn spawn(core: Arc<RouterCore>, addr: impl ToSocketAddrs) -> std::io::Result<RouterHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = core.config().clone();

        let engine = spawn_engine(
            Arc::new(RouterWire {
                core: core.clone(),
                pool: TaskPool::new(cfg.forward_workers, cfg.forward_queue_cap, "l2q-router-fwd"),
            }),
            EngineConfig {
                name: "l2q-router-reactor".into(),
                max_line_bytes: cfg.max_line_bytes.max(1),
                drain_timeout: cfg.drain_timeout,
                stop: stop.clone(),
            },
        )?;
        let injector = engine.injector();

        let max_connections = cfg.max_connections.max(1);
        let accept_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("l2q-router-accept".into())
            .spawn(move || accept_loop(listener, max_connections, accept_stop, injector))?;

        let probe_core = core.clone();
        let probe_stop = stop.clone();
        let prober_thread = std::thread::Builder::new()
            .name("l2q-router-prober".into())
            .spawn(move || prober_loop(probe_core, probe_stop))?;

        // The load rebalancer is opt-in: a zero interval keeps the fleet
        // placement purely ring + explicit migrations.
        let rebalancer_thread = if cfg.rebalance_interval > Duration::ZERO {
            let rebalance_core = core;
            let rebalance_stop = stop.clone();
            Some(
                std::thread::Builder::new()
                    .name("l2q-router-rebalancer".into())
                    .spawn(move || rebalancer_loop(rebalance_core, rebalance_stop))?,
            )
        } else {
            None
        };

        Ok(RouterHandle {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            prober_thread: Some(prober_thread),
            rebalancer_thread,
            engine,
        })
    }
}

/// The router's [`WireHandler`]. Only purely local ops run inline on the
/// reactor thread; every shard-touching op blocks on shard sockets, so
/// it is forwarded from a dedicated bounded pool.
struct RouterWire {
    core: Arc<RouterCore>,
    pool: TaskPool,
}

impl WireHandler for RouterWire {
    fn run_inline(&self, req: &Request) -> Option<Response> {
        match req.op.as_str() {
            "ping" | "shutdown" => Some(self.core.dispatch(req)),
            _ => None,
        }
    }

    fn deadline_ms(&self, _req: &Request) -> u64 {
        // Deadlines are enforced end-to-end by the shard that executes
        // the step; the router does not double-time its forwards.
        0
    }

    fn dispatch(&self, req: Request, reply: ReplyHandle) {
        // Reply stays outside the closure until the pool accepts the
        // task, so a full forward queue answers `Overloaded`.
        let slot = Arc::new(Mutex::new(Some(reply)));
        let task_slot = slot.clone();
        let core = self.core.clone();
        let task: Box<dyn FnOnce() + Send> = Box::new(move || {
            let reply = task_slot.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(reply) = reply {
                reply.complete(core.dispatch(&req));
            }
        });
        if let Err(e) = self.pool.submit(task) {
            if let Some(reply) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
                reply.complete(Response::err(&e));
            }
        }
    }
}

/// Releases one front-door admission count however the reactor closes
/// the connection.
struct RouterConnGuard {
    connections: Arc<AtomicUsize>,
}

impl Drop for RouterConnGuard {
    fn drop(&mut self) {
        self.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Admission: count the connection and hand it to the reactor (whose
/// guard releases the count on every close path), or hand it over with a
/// one-shot refusal line when the front door is full.
fn accept_loop(
    listener: TcpListener,
    max_connections: usize,
    stop: Arc<AtomicBool>,
    injector: Injector,
) {
    let connections = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if connections.load(Ordering::SeqCst) >= max_connections {
                    injector.hand_off(stream, None, Some(capacity_refusal()));
                    continue;
                }
                connections.fetch_add(1, Ordering::SeqCst);
                let guard = RouterConnGuard {
                    connections: connections.clone(),
                };
                injector.hand_off(stream, Some(Box::new(guard)), None);
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
        error: Some("router at capacity".into()),
        retry_after_ms: Some(100),
        ..Response::default()
    }
}

/// Deterministic per-shard probe jitter: a splitmix of the shard name and
/// the probe round spreads deadlines over ±interval/4 so probes never
/// synchronize, without pulling in an RNG.
fn probe_jitter(name: &str, round: u64, interval: Duration) -> Duration {
    let quarter = (interval.as_millis() as u64 / 4).max(1);
    let mut z = round.wrapping_mul(0x9e3779b97f4a7c15);
    for b in name.as_bytes() {
        z = (z ^ u64::from(*b)).wrapping_mul(0xbf58476d1ce4e5b9);
    }
    z ^= z >> 31;
    Duration::from_millis(z % quarter)
}

fn prober_loop(core: Arc<RouterCore>, stop: Arc<AtomicBool>) {
    let interval = core.config().probe_interval;
    let client_cfg = core.config().client;
    // Per-shard next-probe deadline; new shards (join_shard) get probed
    // within one interval of appearing.
    let mut schedule: HashMap<String, (Instant, u64)> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        for shard in core.all_shards() {
            let (due, round) = *schedule
                .entry(shard.name().to_owned())
                .or_insert_with(|| (now + probe_jitter(shard.name(), 0, interval), 0));
            if now < due {
                continue;
            }
            probe_one(&core, &shard, &client_cfg);
            let next_round = round + 1;
            schedule.insert(
                shard.name().to_owned(),
                (
                    now + interval + probe_jitter(shard.name(), next_round, interval),
                    next_round,
                ),
            );
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn probe_one(core: &Arc<RouterCore>, shard: &Arc<Shard>, cfg: &l2q_service::ClientConfig) {
    if shard.probe(cfg) {
        shard.note_ok();
    } else {
        core.note_probe_failure(shard);
    }
}

/// Background load rebalancer: one [`RouterCore::rebalance_once`] pass
/// per interval. Hysteresis and the per-pass budget live in the core;
/// this loop only paces it (and sleeps in short slices so shutdown never
/// waits out a long interval).
fn rebalancer_loop(core: Arc<RouterCore>, stop: Arc<AtomicBool>) {
    let interval = core.config().rebalance_interval;
    let mut next = Instant::now() + interval;
    while !stop.load(Ordering::SeqCst) {
        if Instant::now() >= next {
            core.rebalance_once();
            next = Instant::now() + interval;
        }
        std::thread::sleep(Duration::from_millis(50).min(interval));
    }
}
