//! The router's front door: the reactor engine plus the health prober
//! and the optional rebalancer.
//!
//! Speaks the same line-delimited JSON protocol as `l2q-serve`, so any
//! existing client points at the router unchanged. The same
//! readiness-loop engine as the shards ([`l2q_service::reactor`]) owns
//! accept, admission (a `"router at capacity"` refusal past
//! `max_connections`) and every connection: local ops run inline, and
//! every op that touches a shard is forwarded through [`RouterCore`]
//! from a bounded pool of forward workers. A background prober pings
//! every registered shard on a jittered schedule so the whole fleet never
//! probes in lockstep and a dead shard is noticed within a couple of
//! intervals.

use crate::router::RouterCore;
use crate::shard::Shard;
use l2q_service::framing::DEFAULT_MAX_LINE_BYTES;
use l2q_service::reactor::{spawn_engine, EngineConfig, EngineHandle, ReplyHandle, WireHandler};
use l2q_service::{Request, Response, Scheduler};
use std::collections::HashMap;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Threads forwarding requests to shards. Each forward blocks on shard
/// I/O, so they live in their own pool, not on the reactor thread.
const FORWARD_WORKERS: usize = 16;

/// Bounded forward-queue capacity; a full queue answers `Overloaded`
/// with a retry hint.
const FORWARD_QUEUE_CAP: usize = 64;

/// A running router; dropping the handle shuts it down.
pub struct RouterHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    prober_thread: Option<JoinHandle<()>>,
    rebalancer_thread: Option<JoinHandle<()>>,
    engine: EngineHandle,
}

impl RouterHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Block until a client's `shutdown` op stops the router (the
    /// reactor drains and exits), then join the background loops.
    pub fn wait(mut self) {
        self.engine.join();
        self.shutdown();
    }

    /// Stop accepting, drain in-flight connections (the reactor bounds
    /// the drain), wake and join the prober and the rebalancer;
    /// idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in [&self.prober_thread, &self.rebalancer_thread]
            .into_iter()
            .flatten()
        {
            h.thread().unpark();
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

/// The router server: binds, spawns the engine and the prober.
pub struct RouterServer;

impl RouterServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and route against `core` until
    /// the returned handle shuts down.
    pub fn spawn(core: Arc<RouterCore>, addr: impl ToSocketAddrs) -> std::io::Result<RouterHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = core.config().clone();

        let engine = spawn_engine(
            Arc::new(RouterWire {
                core: core.clone(),
                pool: Scheduler::forwarder(FORWARD_WORKERS, FORWARD_QUEUE_CAP, "l2q-router-fwd"),
            }),
            listener,
            EngineConfig {
                name: "l2q-router-reactor".into(),
                max_line_bytes: DEFAULT_MAX_LINE_BYTES,
                max_connections: cfg.max_connections,
                at_capacity: "router at capacity",
                stop: stop.clone(),
            },
        )?;

        let probe_core = core.clone();
        let probe_stop = stop.clone();
        let prober_thread = std::thread::Builder::new()
            .name("l2q-router-prober".into())
            .spawn(move || prober_loop(probe_core, probe_stop))?;
        core.set_prober(prober_thread.thread().clone());

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
    pool: Scheduler,
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
        let core = self.core.clone();
        self.pool.dispatch(reply, move || core.dispatch(&req));
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
    // Per-shard next-probe deadline. The loop parks until the earliest
    // one; `RouterCore::add_shard` unparks it, so a shard that joins is
    // scheduled at once and first probed within a quarter interval.
    let mut schedule: HashMap<String, (Instant, u64)> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        let mut wake = now + interval;
        for shard in core.all_shards() {
            let (due, round) = *schedule
                .entry(shard.name().to_owned())
                .or_insert_with(|| (now + probe_jitter(shard.name(), 0, interval), 0));
            if now < due {
                wake = wake.min(due);
                continue;
            }
            probe_one(&core, &shard, &client_cfg);
            let next_round = round + 1;
            let next_due = now + interval + probe_jitter(shard.name(), next_round, interval);
            wake = wake.min(next_due);
            schedule.insert(shard.name().to_owned(), (next_due, next_round));
        }
        std::thread::park_timeout(wake.saturating_duration_since(Instant::now()));
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
/// this loop only paces it, parked between passes
/// (`RouterHandle::shutdown` unparks it).
fn rebalancer_loop(core: Arc<RouterCore>, stop: Arc<AtomicBool>) {
    let interval = core.config().rebalance_interval;
    let mut next = Instant::now() + interval;
    while !stop.load(Ordering::SeqCst) {
        if Instant::now() >= next {
            core.rebalance_once();
            next = Instant::now() + interval;
        }
        std::thread::park_timeout(next.saturating_duration_since(Instant::now()));
    }
}
