//! The router core: ring + shard registry + request dispatch.
//!
//! Session ops are proxied to the owning shard (consistent hash of the
//! session id, [`crate::ring`]), failing over down the ring's preference
//! order on transport errors. Admin ops (`fleet_status`, `join_shard`,
//! `drain_shard`, `migrate`) manage topology. The router holds **no
//! session state of its own** beyond a small placement-override map for
//! explicitly migrated sessions — failover needs no handoff protocol
//! because every shard shares one durable store and restores sessions
//! from it on first touch (fencing the store generation so the old owner
//! can never write behind the new one's back).

use crate::lock::{lock_recover, read_recover, write_recover};
use crate::ring::HashRing;
use crate::shard::{Health, Shard};
use crate::supervise::Supervisor;
use l2q_obs::RegistrySnapshot;
use l2q_service::ops::{self, OpTable};
use l2q_service::proto::{FleetStatusBody, ShardStatusBody};
use l2q_service::{ClientConfig, Request, Response, SessionEntryBody, StatsBody};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// How long a rolling restart waits for a restarted shard to answer
/// again before aborting.
const RESTART_RECOVERY_TIMEOUT: Duration = Duration::from_secs(30);

/// Consecutive transport failures before a shard is marked dead.
const FAIL_THRESHOLD: u32 = 2;

/// Rebalancer hysteresis: only migrate while the hottest and coldest
/// shards' resident-session counts differ by more than this gap, so a
/// converged fleet never thrashes.
const REBALANCE_MIN_GAP: usize = 2;

/// Migration budget per rebalancer pass.
const REBALANCE_BUDGET: usize = 4;

/// Router policy knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Interval between health probes per shard (jittered per shard so a
    /// fleet of probes never fires in lockstep).
    pub probe_interval: Duration,
    /// Socket/retry policy for shard connections.
    pub client: ClientConfig,
    /// Concurrent client connections the router front door accepts.
    pub max_connections: usize,
    /// Load-rebalancer cadence; `Duration::ZERO` disables the
    /// background task (`rebalance_once` stays callable).
    pub rebalance_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            probe_interval: Duration::from_secs(2),
            client: ClientConfig::default(),
            max_connections: 256,
            rebalance_interval: Duration::ZERO,
        }
    }
}

/// Per-op router instrumentation: `router_requests_total{op}`,
/// `router_op_seconds{op}` and a `router_dispatch` span per request.
static ROUTER_OPS: OpTable = OpTable::new(
    "router_dispatch",
    "router_requests_total",
    "router_op_seconds",
    &[
        "ping",
        "create",
        "step",
        "status",
        "snapshot",
        "close",
        "stats",
        "metrics",
        "fleet_metrics",
        "trace",
        "persist",
        "restore",
        "detach",
        "list_sessions",
        "fleet_status",
        "join_shard",
        "drain_shard",
        "migrate",
        "rolling_restart",
        "supervisor_status",
        "shutdown",
        "unknown",
    ],
);

/// Session-targeted ops the router proxies with failover.
const SESSION_OPS: [&str; 7] = [
    "step", "status", "snapshot", "close", "persist", "restore", "detach",
];

struct RouterObs {
    failovers: Arc<l2q_obs::Counter>,
    migrations: Arc<l2q_obs::Counter>,
    migration_pause: Arc<l2q_obs::Histogram>,
    probe_failures: Arc<l2q_obs::Counter>,
    shards: Arc<l2q_obs::Gauge>,
    stale_placements: Arc<l2q_obs::Counter>,
    rebalancer_migrations: Arc<l2q_obs::Counter>,
    rebalancer_passes: Arc<l2q_obs::Counter>,
    drain_duration: Arc<l2q_obs::Histogram>,
    rolling_restarts: Arc<l2q_obs::Counter>,
}

fn router_obs() -> &'static RouterObs {
    static M: OnceLock<RouterObs> = OnceLock::new();
    M.get_or_init(|| {
        let reg = l2q_obs::global();
        RouterObs {
            failovers: reg.counter("router_failovers_total"),
            migrations: reg.counter("router_migrations_total"),
            migration_pause: reg.histogram("router_migration_pause_seconds"),
            probe_failures: reg.counter("router_probe_failures_total"),
            shards: reg.gauge("router_shards"),
            stale_placements: reg.counter("router_stale_placements_cleared_total"),
            rebalancer_migrations: reg.counter("router_rebalancer_migrations_total"),
            rebalancer_passes: reg.counter("router_rebalancer_passes_total"),
            drain_duration: reg.histogram("router_drain_seconds"),
            rolling_restarts: reg.counter("router_rolling_restarts_total"),
        }
    })
}

/// Shard names become metric label values and trace sources, so they
/// may only use `[A-Za-z0-9_.-]`.
pub(crate) fn check_shard_name(name: &str) -> Result<(), String> {
    if name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    {
        Ok(())
    } else {
        Err(format!(
            "shard name '{name}' may only contain A-Z, a-z, 0-9, '_', '.' and '-'"
        ))
    }
}

/// Shared state every router connection dispatches against.
pub struct RouterCore {
    cfg: RouterConfig,
    ring: RwLock<HashRing>,
    shards: RwLock<HashMap<String, Arc<Shard>>>,
    /// Explicit placement overrides from `migrate`: routed ahead of the
    /// ring so a migrated session sticks to its target. Cleared on close.
    placements: Mutex<HashMap<u64, String>>,
    /// Fleet-wide session-id allocator, seeded above every id any shard
    /// already knows (shards' local counters would collide otherwise).
    next_id: AtomicU64,
    /// The shard supervisor, when this router spawned its own children
    /// (`--supervise`); `rolling_restart` and `supervisor_status` use it.
    supervisor: OnceLock<Arc<Supervisor>>,
}

impl RouterCore {
    /// An empty fleet; register shards with [`RouterCore::add_shard`].
    pub fn new(cfg: RouterConfig) -> Self {
        Self {
            cfg,
            ring: RwLock::new(HashRing::new(crate::ring::DEFAULT_VNODES)),
            shards: RwLock::new(HashMap::new()),
            placements: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            supervisor: OnceLock::new(),
        }
    }

    /// Attach the shard supervisor (once, at startup). Enables the
    /// `supervisor_status` op and real child restarts during
    /// `rolling_restart`.
    pub fn set_supervisor(&self, sup: Arc<Supervisor>) {
        let _ = self.supervisor.set(sup);
    }

    /// The attached supervisor, if this router supervises its shards.
    pub fn supervisor(&self) -> Option<&Arc<Supervisor>> {
        self.supervisor.get()
    }

    /// The router's policy knobs.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Register a shard and add it to the ring. Best-effort seeds the
    /// session-id allocator from the shard's known sessions so routed
    /// `create`s never collide with recovered or pre-existing ids.
    /// Names must match `[A-Za-z0-9_.-]+` (they become metric labels).
    pub fn add_shard(&self, name: &str, addr: &str) -> Result<(), String> {
        if name.is_empty() || addr.is_empty() {
            return Err("shard name and address must be non-empty".into());
        }
        check_shard_name(name)?;
        {
            let mut shards = write_recover(&self.shards);
            if shards.contains_key(name) {
                return Err(format!("shard '{name}' already registered"));
            }
            shards.insert(name.to_owned(), Arc::new(Shard::new(name, addr)));
        }
        write_recover(&self.ring).add(name);
        router_obs().shards.inc();
        // Seed the id allocator (unreachable shard: the prober will mark
        // it; ids stay safe because create retries allocation per call).
        if let Some(shard) = self.shard(name) {
            if let Ok(resp) = shard.request(&self.cfg.client, &Request::op("list_sessions")) {
                let max = resp
                    .sessions
                    .unwrap_or_default()
                    .iter()
                    .map(|s| s.session)
                    .max()
                    .unwrap_or(0);
                self.next_id.fetch_max(max + 1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Unregister a shard: drop it from the registry, the ring, and
    /// every placement override that targets it (a gone shard must
    /// never keep attracting routed traffic). Returns whether the name
    /// was registered.
    pub fn remove_shard(&self, name: &str) -> bool {
        if write_recover(&self.shards).remove(name).is_none() {
            return false;
        }
        write_recover(&self.ring).remove(name);
        lock_recover(&self.placements).retain(|_, target| target != name);
        router_obs().shards.dec();
        true
    }

    /// Handle to a registered shard.
    pub fn shard(&self, name: &str) -> Option<Arc<Shard>> {
        read_recover(&self.shards).get(name).cloned()
    }

    /// Every registered shard, for the prober.
    pub fn all_shards(&self) -> Vec<Arc<Shard>> {
        read_recover(&self.shards).values().cloned().collect()
    }

    /// Count a failed probe (prober bookkeeping lives with the core so
    /// the metric is registered once).
    pub fn note_probe_failure(&self, shard: &Shard) {
        router_obs().probe_failures.inc();
        shard.note_failure(FAIL_THRESHOLD);
    }

    /// The shards that may serve `session`, most-preferred first: an
    /// explicit placement override (from `migrate`) ahead of the ring's
    /// clockwise preference order. Includes non-routable shards — callers
    /// filter by what they need (routing skips them; owner discovery
    /// still wants draining shards).
    ///
    /// A **stale** override — its target no longer registered, or dead —
    /// is cleared here rather than honored: the session falls back to
    /// the ring walk and gets restored wherever it lands (store fencing
    /// keeps that safe). Honoring it would keep routing at a gone shard,
    /// and worse, a later revival of that shard (e.g. a supervisor
    /// restart) would resurrect the stale route and fence the session's
    /// legitimate current owner. Draining targets stay: they are still
    /// reachable and mid-drain migration moves their sessions anyway.
    fn candidates(&self, session: u64) -> Vec<Arc<Shard>> {
        let shards = read_recover(&self.shards);
        let ring = read_recover(&self.ring);
        let mut out: Vec<Arc<Shard>> = Vec::with_capacity(shards.len());
        let mut placements = lock_recover(&self.placements);
        if let Some(name) = placements.get(&session) {
            match shards.get(name) {
                Some(s) if s.health() != Health::Dead => out.push(s.clone()),
                _ => {
                    placements.remove(&session);
                    router_obs().stale_placements.inc();
                }
            }
        }
        drop(placements);
        for name in ring.ranked(session) {
            if let Some(s) = shards.get(name) {
                if !out.iter().any(|o| o.name() == s.name()) {
                    out.push(s.clone());
                }
            }
        }
        out
    }

    /// Dispatch one request (the router's front door calls this per
    /// line; tests call it directly).
    pub fn dispatch(&self, req: &Request) -> Response {
        // The router is the trace edge: a `trace:true` request roots its
        // trace here, and the id is echoed in the response.
        ROUTER_OPS.run(&req.op, req.trace_context(), || match req.op.as_str() {
            "ping" => Response::ok(),
            "create" => self.handle_create(req),
            op if SESSION_OPS.contains(&op) => self.forward_session_op(req),
            "stats" => self.handle_stats(),
            "metrics" => ops::metrics(req, &l2q_obs::global().snapshot()),
            "fleet_metrics" => self.handle_fleet_metrics(req),
            "trace" => self.handle_trace(req),
            "list_sessions" => self.handle_list_sessions(),
            "fleet_status" => self.handle_fleet_status(),
            "join_shard" => self.handle_join_shard(req),
            "drain_shard" => self.handle_drain_shard(req),
            "migrate" => self.handle_migrate(req),
            "rolling_restart" => self.rolling_restart(),
            "supervisor_status" => self.handle_supervisor_status(),
            "shutdown" => Response {
                ok: true,
                state: Some("shutting_down".into()),
                ..Response::default()
            },
            other => Response::fail(format!("unknown op '{other}'")),
        })
    }

    /// One shard attempt with the active trace context injected on the
    /// wire. Each attempt gets its own `router_forward` span labeled by
    /// shard, so failovers show up as sibling spans under the dispatch.
    fn forward(&self, shard: &Shard, req: &Request) -> Result<Response, l2q_service::ClientError> {
        let span = l2q_obs::span!("router_forward", "shard" => shard.name());
        let traced;
        let req = match span.trace_context() {
            Some(ctx) => {
                let (trace_id, parent_span_id) = ctx.wire_parent();
                let mut routed = req.clone();
                routed.trace_id = Some(trace_id);
                routed.parent_span_id = parent_span_id;
                // Downstream decides tracing by `trace_id`, not the flag.
                routed.trace = None;
                traced = routed;
                &traced
            }
            None => req,
        };
        shard.request(&self.cfg.client, req)
    }

    /// The failover walk behind `create` and every session op: send
    /// `req` to the first routable shard in `session`'s preference
    /// order, and on a transport error count the failure against that
    /// shard and try the next. An answer from anywhere but the first
    /// candidate counts as a failover. No handoff is needed: the next
    /// shard restores the session from the shared durable store on first
    /// touch (fencing the old owner), so the retried request continues
    /// from the last committed step. `target` names what was routed in
    /// the refusal when no shard answers.
    fn route(&self, session: u64, req: &Request, target: std::fmt::Arguments) -> Response {
        let mut failed_over = false;
        let mut last_err = String::new();
        for shard in self.candidates(session) {
            if !shard.routable() {
                failed_over = true;
                continue;
            }
            match self.forward(&shard, req) {
                Ok(mut resp) => {
                    if failed_over {
                        router_obs().failovers.inc();
                    }
                    resp.shard = Some(shard.name().to_owned());
                    return resp;
                }
                Err(e) => {
                    shard.note_failure(FAIL_THRESHOLD);
                    failed_over = true;
                    last_err = e.to_string();
                }
            }
        }
        Response::fail(if last_err.is_empty() {
            format!("no routable shard for {target}")
        } else {
            format!("no routable shard for {target} (last error: {last_err})")
        })
    }

    /// Proxy a session op to its owner; a successful `close` also drops
    /// the session's placement override.
    fn forward_session_op(&self, req: &Request) -> Response {
        let Some(id) = req.session else {
            return Response::fail("missing 'session'");
        };
        let resp = self.route(id, req, format_args!("session {id}"));
        if req.op == "close" && resp.ok {
            lock_recover(&self.placements).remove(&id);
        }
        resp
    }

    /// Create with a router-allocated fleet-wide id, placed by the ring.
    /// A shard that dies mid-create is skipped and the same id is retried
    /// on the next candidate (nothing durable exists for it yet).
    fn handle_create(&self, req: &Request) -> Response {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut routed = req.clone();
        routed.session = Some(id);
        self.route(id, &routed, format_args!("create"))
    }

    /// The fan-out behind every fleet-wide read: ask each registered
    /// shard that is not `Dead` for `req`, one after another in name
    /// order. Draining shards are asked too, since they hold sessions,
    /// metrics and spans until the drain has moved them. Every shard
    /// comes back, with `None` when it is dead or did not answer.
    fn fan_out(&self, req: &Request) -> Vec<(Arc<Shard>, Option<Response>)> {
        let mut shards = self.all_shards();
        shards.sort_by(|a, b| a.name().cmp(b.name()));
        shards
            .into_iter()
            .map(|shard| {
                let resp = if shard.health() == Health::Dead {
                    None
                } else {
                    shard.request(&self.cfg.client, req).ok()
                };
                (shard, resp)
            })
            .collect()
    }

    /// Fleet-aggregated stats: sums across reachable shards (hit rate
    /// recomputed from the summed hits/misses).
    fn handle_stats(&self) -> Response {
        let mut agg = StatsBody::default();
        let mut reachable = 0usize;
        let answers = self.fan_out(&Request::op("stats"));
        for s in answers.into_iter().filter_map(|(_, resp)| resp?.stats) {
            reachable += 1;
            agg.active_sessions += s.active_sessions;
            agg.sessions_created += s.sessions_created;
            agg.sessions_closed += s.sessions_closed;
            agg.sessions_evicted += s.sessions_evicted;
            agg.steps_executed += s.steps_executed;
            agg.queries_fired += s.queries_fired;
            agg.jobs_rejected += s.jobs_rejected;
            agg.queue_depth += s.queue_depth;
            agg.workers += s.workers;
            agg.retrieval_cache_hits += s.retrieval_cache_hits;
            agg.retrieval_cache_misses += s.retrieval_cache_misses;
            agg.domain_cache_hits += s.domain_cache_hits;
            agg.domain_cache_misses += s.domain_cache_misses;
            agg.store_enabled |= s.store_enabled;
            agg.sessions_spilled += s.sessions_spilled;
            agg.sessions_restored += s.sessions_restored;
            agg.eviction_refusals += s.eviction_refusals;
        }
        if reachable == 0 {
            return Response::fail("no reachable shard for stats");
        }
        let total = agg.retrieval_cache_hits + agg.retrieval_cache_misses;
        agg.retrieval_cache_hit_rate = if total == 0 {
            0.0
        } else {
            agg.retrieval_cache_hits as f64 / total as f64
        };
        Response {
            ok: true,
            stats: Some(agg),
            ..Response::default()
        }
    }

    /// Fleet-merged metrics: the router's own registry plus every
    /// reachable shard's `metrics` body, merged by
    /// [`RegistrySnapshot::merge`] (counters and gauges as
    /// `shard`-labeled series, histograms bucket-wise) and rendered like
    /// any other snapshot.
    fn handle_fleet_metrics(&self, req: &Request) -> Response {
        let mut sources = vec![("router".to_owned(), l2q_obs::global().snapshot())];
        let answers = self.fan_out(&Request::op("metrics"));
        sources.extend(answers.into_iter().filter_map(|(shard, resp)| {
            let body = resp?.metrics?;
            Some((
                shard.name().to_owned(),
                crate::metrics::parse_snapshot(&body),
            ))
        }));
        if sources.len() == 1 {
            return Response::fail("no reachable shard for fleet_metrics");
        }
        let fleet = RegistrySnapshot::merge(sources.iter().map(|(name, s)| (name.as_str(), s)));
        ops::metrics(req, &fleet)
    }

    /// `trace` op at the fleet edge: the router's own buffer, as on any
    /// shard ([`ops::local_trace`]). A `by_id` lookup also fans out to
    /// every live shard and stitches one trace, deduped by span id (an
    /// in-process fleet shares one buffer) and ordered by start time.
    fn handle_trace(&self, req: &Request) -> Response {
        let mut resp = ops::local_trace(req, "router");
        let by_id = resp.ok && req.mode.as_deref().unwrap_or("by_id") == "by_id";
        let Some(tid) = req.trace_id.filter(|_| by_id) else {
            return resp;
        };
        let mut fetch = Request::op("trace");
        fetch.trace_id = Some(tid);
        fetch.mode = Some("by_id".into());
        let spans = resp.spans.get_or_insert_with(Vec::new);
        for (_, shard_resp) in self.fan_out(&fetch) {
            spans.extend(shard_resp.and_then(|r| r.spans).unwrap_or_default());
        }
        let mut seen = std::collections::HashSet::new();
        spans.retain(|s| seen.insert(s.span_id));
        spans.sort_by_key(|s| s.start_unix_ns);
        resp
    }

    /// Union of every shard's sessions. All shards see the same stored
    /// set (shared data dir), so rows dedup by id with live (resident /
    /// failed) rows preferred over stored-only ones.
    fn handle_list_sessions(&self) -> Response {
        let mut by_id: HashMap<u64, SessionEntryBody> = HashMap::new();
        let mut reachable = 0usize;
        let answers = self.fan_out(&Request::op("list_sessions"));
        for resp in answers.into_iter().filter_map(|(_, resp)| resp) {
            reachable += 1;
            for row in resp.sessions.unwrap_or_default() {
                let live = row.health.as_deref() != Some("stored");
                match by_id.entry(row.session) {
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(row);
                    }
                    std::collections::hash_map::Entry::Occupied(mut slot) => {
                        if live && slot.get().health.as_deref() == Some("stored") {
                            slot.insert(row);
                        }
                    }
                }
            }
        }
        if reachable == 0 {
            return Response::fail("no reachable shard for list_sessions");
        }
        let mut sessions: Vec<SessionEntryBody> = by_id.into_values().collect();
        sessions.sort_by_key(|s| s.session);
        Response {
            ok: true,
            sessions: Some(sessions),
            ..Response::default()
        }
    }

    /// One row per registered shard; `active_sessions` is absent for a
    /// shard that is dead or did not answer.
    fn handle_fleet_status(&self) -> Response {
        let vnodes = read_recover(&self.ring).vnodes() as u64;
        let shards = self
            .fan_out(&Request::op("stats"))
            .into_iter()
            .map(|(shard, resp)| ShardStatusBody {
                name: shard.name().to_owned(),
                addr: shard.addr().to_owned(),
                health: shard.health().as_str().to_owned(),
                active_sessions: resp.and_then(|r| r.stats).map(|s| s.active_sessions),
            })
            .collect();
        Response {
            ok: true,
            fleet: Some(FleetStatusBody { vnodes, shards }),
            ..Response::default()
        }
    }

    fn handle_join_shard(&self, req: &Request) -> Response {
        let (Some(name), Some(addr)) = (req.shard.as_deref(), req.shard_addr.as_deref()) else {
            return Response::fail("join_shard needs 'shard' and 'shard_addr'");
        };
        match self.add_shard(name, addr) {
            Ok(()) => Response {
                ok: true,
                shard: Some(name.to_owned()),
                ..Response::default()
            },
            Err(e) => Response::fail(e),
        }
    }

    /// Mark a shard draining (no new routed traffic) and migrate its
    /// resident sessions to their ring-chosen new owners.
    fn handle_drain_shard(&self, req: &Request) -> Response {
        let Some(name) = req.shard.as_deref() else {
            return Response::fail("drain_shard needs 'shard'");
        };
        match self.drain_shard_inner(name) {
            Ok((moved, last_err)) => Response {
                ok: true,
                shard: Some(name.to_owned()),
                migrated: Some(moved),
                error: last_err,
                ..Response::default()
            },
            Err(e) => Response::fail(e),
        }
    }

    /// The drain flow shared by `drain_shard` and `rolling_restart`:
    /// mark the shard draining, migrate every resident session off it,
    /// and record the drain duration. Returns the migrated count and
    /// the last per-session migration error (drains are best-effort —
    /// unmoved sessions fail over on next touch anyway).
    fn drain_shard_inner(&self, name: &str) -> Result<(u64, Option<String>), String> {
        let Some(shard) = self.shard(name) else {
            return Err(format!("unknown shard '{name}'"));
        };
        let started = Instant::now();
        shard.set_health(Health::Draining);
        // Unreachable while draining: nothing resident to move — its
        // sessions already fail over on next touch.
        let resident = self.resident_sessions(&shard).unwrap_or_default();
        let mut moved = 0u64;
        let mut last_err = None;
        for id in resident {
            match self.migrate_session(id, None) {
                Ok(_) => moved += 1,
                Err(e) => last_err = Some(e),
            }
        }
        router_obs()
            .drain_duration
            .record(started.elapsed().as_secs_f64());
        Ok((moved, last_err))
    }

    /// One row per supervised child, or a refusal when this router does
    /// not supervise its shards.
    fn handle_supervisor_status(&self) -> Response {
        match self.supervisor() {
            Some(sup) => Response {
                ok: true,
                supervised: Some(sup.status()),
                ..Response::default()
            },
            None => Response::fail("router runs without --supervise; no supervisor"),
        }
    }

    /// Rolling restart: for each registered shard in name order — drain
    /// it, restart its supervised child, wait until it answers again,
    /// and undrain it (rejoining the ring) before moving to the next.
    /// Before touching each shard the fleet must keep majority quorum
    /// without it; otherwise the restart aborts with the shards cycled
    /// so far. Unsupervised shards get the same drain → wait → rejoin
    /// cycle without a process restart (their process is managed
    /// externally).
    pub fn rolling_restart(&self) -> Response {
        let mut names: Vec<String> = self
            .all_shards()
            .iter()
            .map(|s| s.name().to_owned())
            .collect();
        names.sort();
        if names.is_empty() {
            return Response::fail("no shards registered");
        }
        let total = names.len() as u64;
        let mut cycled = 0u64;
        for name in &names {
            if let Err(error) = self.restart_cycle(name, total) {
                return Response {
                    ok: false,
                    restarted: Some(cycled),
                    error: Some(error),
                    state: Some("aborted".into()),
                    ..Response::default()
                };
            }
            cycled += 1;
        }
        Response {
            ok: true,
            restarted: Some(cycled),
            state: Some("completed".into()),
            ..Response::default()
        }
    }

    /// One shard's turn in a rolling restart over `total` shards: quorum
    /// check, drain, supervised restart, wait until it answers, undrain.
    /// `Err` carries the reason the whole restart aborts.
    fn restart_cycle(&self, name: &str, total: u64) -> Result<(), String> {
        // Majority quorum: taking `name` down must leave at least
        // ceil(total/2) routable shards serving.
        let routable_others = self
            .all_shards()
            .iter()
            .filter(|s| s.name() != name && s.routable())
            .count() as u64;
        let needed = total.div_ceil(2);
        if routable_others < needed {
            return Err(format!(
                "aborted before '{name}': only {routable_others} routable shards \
                 would remain (quorum {needed} of {total})"
            ));
        }
        self.drain_shard_inner(name)
            .map_err(|e| format!("aborted at '{name}': {e}"))?;
        if let Some(sup) = self.supervisor().filter(|sup| sup.supervises(name)) {
            sup.restart(name)
                .map_err(|e| format!("aborted at '{name}': {e}"))?;
        }
        // Wait for the (re)started shard to answer, then undrain it so
        // it takes routed traffic again.
        let shard = self
            .shard(name)
            .ok_or_else(|| format!("aborted: shard '{name}' vanished mid-restart"))?;
        let deadline = Instant::now() + RESTART_RECOVERY_TIMEOUT;
        while !shard.probe(&self.cfg.client) {
            if Instant::now() >= deadline {
                return Err(format!(
                    "aborted: shard '{name}' did not answer within {:?} of restart",
                    RESTART_RECOVERY_TIMEOUT
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        shard.set_health(Health::Healthy);
        router_obs().rolling_restarts.inc();
        Ok(())
    }

    /// One load-rebalancer pass: read every routable shard's resident
    /// sessions, and while the hottest and coldest shards differ by more
    /// than the hysteresis gap, migrate sessions hot → cold within the
    /// per-pass budget. Returns the migrations performed; a balanced
    /// fleet returns 0, and because each move updates the counts it
    /// converges instead of ping-ponging (a moved session sticks to its
    /// target via the placement override).
    pub fn rebalance_once(&self) -> usize {
        router_obs().rebalancer_passes.inc();
        let mut loads: Vec<(String, Vec<u64>)> = self
            .all_shards()
            .iter()
            .filter(|shard| shard.routable())
            .filter_map(|shard| Some((shard.name().to_owned(), self.resident_sessions(shard)?)))
            .collect();
        if loads.len() < 2 {
            return 0;
        }
        let mut moved = 0usize;
        while moved < REBALANCE_BUDGET {
            let hot = loads
                .iter()
                .enumerate()
                .max_by_key(|(_, (_, v))| v.len())
                .map(|(i, _)| i)
                .unwrap_or(0);
            let cold = loads
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, v))| v.len())
                .map(|(i, _)| i)
                .unwrap_or(0);
            if loads[hot].1.len().saturating_sub(loads[cold].1.len()) <= REBALANCE_MIN_GAP {
                break;
            }
            // Deterministic pick: the hottest shard's highest session id.
            let Some(session) = loads[hot].1.pop() else {
                break;
            };
            let target = loads[cold].0.clone();
            match self.migrate_session(session, Some(&target)) {
                Ok(_) => {
                    loads[cold].1.push(session);
                    router_obs().rebalancer_migrations.inc();
                    moved += 1;
                }
                // A session that refuses to move (mid-step, just closed)
                // is skipped this pass; the next pass sees fresh counts.
                Err(_) => {
                    loads[hot].1.insert(0, session);
                    break;
                }
            }
        }
        moved
    }

    fn handle_migrate(&self, req: &Request) -> Response {
        let Some(id) = req.session else {
            return Response::fail("missing 'session'");
        };
        match self.migrate_session(id, req.shard.as_deref()) {
            Ok((target, mut resp)) => {
                resp.shard = Some(target);
                resp.migrated = Some(1);
                resp
            }
            Err(e) => Response::fail(e),
        }
    }

    /// The shard currently holding `session` resident, if any. Asks
    /// shards in preference order (draining shards included — drains are
    /// exactly when sessions must be found and moved).
    fn resident_owner(&self, session: u64) -> Option<Arc<Shard>> {
        self.candidates(session)
            .into_iter()
            .filter(|shard| shard.health() != Health::Dead)
            .find(|shard| {
                self.resident_sessions(shard)
                    .is_some_and(|ids| ids.contains(&session))
            })
    }

    /// The ids `shard` holds resident, ascending; `None` when it does
    /// not answer.
    fn resident_sessions(&self, shard: &Shard) -> Option<Vec<u64>> {
        let resp = shard
            .request(&self.cfg.client, &Request::op("list_sessions"))
            .ok()?;
        let mut ids: Vec<u64> = resp
            .sessions
            .unwrap_or_default()
            .iter()
            .filter(|r| r.health.as_deref() == Some("resident"))
            .map(|r| r.session)
            .collect();
        ids.sort_unstable();
        Some(ids)
    }

    /// Live migration: `detach` on the source (drains the in-flight step
    /// batch, spills, drops residency), then `restore` on the target
    /// (fences the store generation and rebuilds bit-identically). The
    /// placement override makes subsequent routing stick to the target.
    /// The client-observable pause is the whole flow, recorded in
    /// `router_migration_pause_seconds`.
    fn migrate_session(
        &self,
        session: u64,
        target: Option<&str>,
    ) -> Result<(String, Response), String> {
        let started = Instant::now();
        let source = self.resident_owner(session);

        // Pick the target before draining: explicit name, else the ring's
        // first routable choice that is not the source.
        let target_shard = match target {
            Some(name) => {
                let shard = self
                    .shard(name)
                    .ok_or_else(|| format!("unknown target shard '{name}'"))?;
                if !shard.routable() {
                    return Err(format!(
                        "target shard '{name}' is {}",
                        shard.health().as_str()
                    ));
                }
                shard
            }
            None => self
                .candidates(session)
                .into_iter()
                .filter(|s| s.routable())
                .find(|s| source.as_ref().is_none_or(|src| src.name() != s.name()))
                .ok_or_else(|| format!("no routable migration target for session {session}"))?,
        };

        if let Some(src) = &source {
            if src.name() == target_shard.name() {
                // Already where it should be; report current status.
                let resp = src
                    .request(&self.cfg.client, &Request::for_session("status", session))
                    .map_err(|e| format!("status on '{}' failed: {e}", src.name()))?;
                return Ok((src.name().to_owned(), resp));
            }
            let resp = src
                .request(&self.cfg.client, &Request::for_session("detach", session))
                .map_err(|e| format!("detach on '{}' failed: {e}", src.name()))?;
            if !resp.ok {
                return Err(format!(
                    "detach on '{}' refused: {}",
                    src.name(),
                    resp.error.unwrap_or_else(|| "unspecified".into())
                ));
            }
        }

        let resp = target_shard
            .request(&self.cfg.client, &Request::for_session("restore", session))
            .map_err(|e| format!("restore on '{}' failed: {e}", target_shard.name()))?;
        if !resp.ok {
            // The session stays durably stored and restorable anywhere;
            // routing falls back to the ring.
            return Err(format!(
                "restore on '{}' refused: {}",
                target_shard.name(),
                resp.error.unwrap_or_else(|| "unspecified".into())
            ));
        }
        lock_recover(&self.placements).insert(session, target_shard.name().to_owned());
        let obs = router_obs();
        obs.migrations.inc();
        obs.migration_pause.record(started.elapsed().as_secs_f64());
        Ok((target_shard.name().to_owned(), resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mirrors the selector's poisoned-lock regression: a panic while a
    /// thread holds a router lock must not cascade into every later
    /// route (the seed behavior of `lock().expect("placements")`).
    #[test]
    fn poisoned_placements_lock_recovers_instead_of_cascading() {
        let core = Arc::new(RouterCore::new(RouterConfig::default()));
        let poisoner = core.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.placements.lock().expect("first lock");
            panic!("poison the placement map");
        })
        .join();
        assert!(core.placements.is_poisoned());
        // Routing walks placements first; it must recover and answer a
        // clean refusal (no shards registered), not panic.
        let resp = core.dispatch(&Request::for_session("step", 7));
        assert!(!resp.ok);
        assert!(resp.error.unwrap_or_default().contains("no routable shard"));
        assert!(!core.placements.is_poisoned());
    }

    /// An override whose target shard is no longer registered is cleared
    /// on first touch instead of routing into the void forever.
    #[test]
    fn stale_placement_for_an_unregistered_target_is_cleared() {
        let core = RouterCore::new(RouterConfig::default());
        lock_recover(&core.placements).insert(9, "ghost".into());
        assert!(core.candidates(9).is_empty());
        assert!(!lock_recover(&core.placements).contains_key(&9));
    }
}
