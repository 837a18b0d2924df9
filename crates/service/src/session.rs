//! Session lifecycle: each session is one (entity, aspect, selector)
//! harvest, stepped incrementally against the shared bundle.
//!
//! The manager tracks sessions in a map of `Arc<Mutex<Session>>`; the
//! scheduler's workers lock a session only while executing its steps, so
//! different sessions progress in parallel while one session's steps stay
//! strictly ordered. Sessions die three ways: their query budget or
//! candidate pool runs out (`finished`), the client closes them, or the
//! idle sweeper evicts them.

use crate::bundle::ServingBundle;
use l2q_core::{
    DomainModel, HarvestState, Harvester, L2qConfig, L2qSelector, PortableCollective, Query,
    QuerySelector, SelectionInput, StepOutcome, StopReason,
};
use l2q_corpus::{AspectId, EntityId};
use l2q_retrieval::CachedSearch;
use l2q_store::{PortableSession, SessionStore, WalRecord, SESSION_FORMAT_VERSION};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which selector a session harvests with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SelectorKind {
    /// Precision-greedy (L2QP).
    L2qp,
    /// Recall-greedy (L2QR).
    L2qr,
    /// Balanced skyline (L2QBAL).
    L2qbal,
    /// Weighted interpolation L2QW(w).
    Weighted(f64),
    /// Diagnostic fault injector: panics on its first selection.
    PanicProbe,
    /// Diagnostic fault injector: sleeps the given milliseconds per
    /// selection, then yields no query.
    SleepProbe(u64),
}

impl SelectorKind {
    /// Parse a wire name: `l2qp`, `l2qr`, `l2qbal`, or `l2qw=<w>`.
    ///
    /// Two undocumented diagnostic names exist for fault-injection
    /// testing of the serving boundary: `panic` (panics on its first
    /// selection — proves worker panic isolation end-to-end) and
    /// `sleep=<ms>` (stalls each selection — proves request deadlines).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "l2qp" => Some(Self::L2qp),
            "l2qr" => Some(Self::L2qr),
            "l2qbal" => Some(Self::L2qbal),
            "panic" => Some(Self::PanicProbe),
            other => {
                if let Some(ms) = other.strip_prefix("sleep=") {
                    return ms.parse::<u64>().ok().map(Self::SleepProbe);
                }
                let w = other.strip_prefix("l2qw=")?.parse::<f64>().ok()?;
                (0.0..=1.0).contains(&w).then_some(Self::Weighted(w))
            }
        }
    }

    /// The canonical wire name ([`SelectorKind::parse`]'s inverse).
    pub fn wire_name(self) -> String {
        match self {
            Self::L2qp => "l2qp".into(),
            Self::L2qr => "l2qr".into(),
            Self::L2qbal => "l2qbal".into(),
            Self::Weighted(w) => format!("l2qw={w}"),
            Self::PanicProbe => "panic".into(),
            Self::SleepProbe(ms) => format!("sleep={ms}"),
        }
    }

    fn build(self) -> Box<dyn QuerySelector> {
        match self {
            Self::L2qp => Box::new(L2qSelector::l2qp()),
            Self::L2qr => Box::new(L2qSelector::l2qr()),
            Self::L2qbal => Box::new(L2qSelector::l2qbal()),
            Self::Weighted(w) => Box::new(L2qSelector::balanced_weighted(w)),
            Self::PanicProbe => Box::new(ProbeSelector::Panic),
            Self::SleepProbe(ms) => Box::new(ProbeSelector::Sleep(ms)),
        }
    }
}

/// Fault-injection selectors for serving-boundary tests (never pick a
/// real query). `Panic` exercises worker panic isolation; `Sleep` makes
/// a step batch reliably outlast a request deadline.
enum ProbeSelector {
    Panic,
    Sleep(u64),
}

impl QuerySelector for ProbeSelector {
    fn name(&self) -> String {
        match self {
            Self::Panic => "PANIC-PROBE".into(),
            Self::Sleep(ms) => format!("SLEEP-PROBE({ms}ms)"),
        }
    }

    fn select(&mut self, _input: &SelectionInput<'_>) -> Option<Query> {
        match self {
            Self::Panic => panic!("panic probe selector fired"),
            Self::Sleep(ms) => {
                std::thread::sleep(Duration::from_millis(*ms));
                None
            }
        }
    }
}

/// Parameters of a `create` request.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Target entity.
    pub entity: EntityId,
    /// Target aspect.
    pub aspect: AspectId,
    /// Selector family.
    pub selector: SelectorKind,
    /// Per-session query budget (None = bundle default `n_queries`).
    pub n_queries: Option<usize>,
    /// Peer entities for the domain phase: the first `domain_size` corpus
    /// entities excluding the target (0 disables domain awareness).
    pub domain_size: usize,
}

/// Service-level failure, carried back over the wire as `error`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Unknown entity index.
    BadEntity(u32),
    /// Unknown aspect name.
    BadAspect(String),
    /// Unknown selector name.
    BadSelector(String),
    /// Session id not found (never existed, closed, or evicted).
    NoSuchSession(u64),
    /// Invalid configuration (e.g. zero query budget).
    BadConfig(String),
    /// The step queue is full; retry after the hinted backoff.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The scheduler dropped the job (server shutting down).
    Canceled,
    /// The step batch missed its deadline (it keeps running in the
    /// background; poll `status` to see it land).
    Deadline {
        /// The deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
    /// The session is terminally failed: a step batch panicked and the
    /// session's state can no longer be trusted.
    SessionFailed {
        /// The captured panic message.
        message: String,
    },
    /// The durable store failed or holds unusable state for the session.
    Store(String),
    /// The op needs a durable store but the server runs without one
    /// (no `--data-dir`).
    NoStore,
    /// The local id allocator reached the top of the id range.
    IdsExhausted,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadEntity(e) => write!(f, "unknown entity index {e}"),
            Self::BadAspect(a) => write!(f, "unknown aspect '{a}'"),
            Self::BadSelector(s) => write!(f, "unknown selector '{s}' (l2qp|l2qr|l2qbal|l2qw=<w>)"),
            Self::NoSuchSession(id) => write!(f, "no such session {id}"),
            Self::BadConfig(msg) => write!(f, "bad config: {msg}"),
            Self::Overloaded { retry_after_ms } => {
                write!(f, "step queue full; retry after {retry_after_ms}ms")
            }
            Self::Canceled => write!(f, "job canceled (server shutting down)"),
            Self::Deadline { deadline_ms } => write!(
                f,
                "deadline exceeded after {deadline_ms}ms (batch continues in the background)"
            ),
            Self::SessionFailed { message } => write!(f, "session failed: {message}"),
            Self::Store(msg) => write!(f, "store error: {msg}"),
            Self::NoStore => write!(f, "server has no durable store (start with --data-dir)"),
            Self::IdsExhausted => write!(f, "session ids exhausted (none left below {})", u64::MAX),
        }
    }
}

/// Point-in-time public view of a session.
#[derive(Clone, Debug)]
pub struct SessionStatus {
    /// Session id.
    pub id: u64,
    /// Target entity.
    pub entity: EntityId,
    /// Target aspect.
    pub aspect: AspectId,
    /// Selector iterations completed.
    pub steps_taken: usize,
    /// Pages gathered so far (seed included).
    pub gathered: usize,
    /// Why the session stopped, once it has.
    pub finished: Option<StopReason>,
    /// The panic message that terminally failed the session, if a step
    /// batch panicked (`state` renders as `"failed"`).
    pub failed: Option<String>,
}

/// Result of one scheduled step batch.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Steps that advanced (fired a query).
    pub advanced: usize,
    /// Previously unseen pages those queries added.
    pub new_pages: usize,
    /// Status after the batch.
    pub status: SessionStatus,
}

/// The domain model a session of `domain_size` uses: the first
/// `domain_size` corpus entities excluding the target. Deterministic in
/// (entity, domain_size), so create and restore agree.
fn domain_for(
    bundle: &ServingBundle,
    entity: EntityId,
    domain_size: usize,
) -> Option<Arc<DomainModel>> {
    if domain_size == 0 {
        return None;
    }
    let peers: Vec<EntityId> = bundle
        .corpus
        .entity_ids()
        .filter(|&e| e != entity)
        .take(domain_size)
        .collect();
    Some(bundle.domain_model(&peers))
}

/// One live harvest session.
pub struct Session {
    id: u64,
    bundle: Arc<ServingBundle>,
    state: HarvestState,
    selector: Box<dyn QuerySelector>,
    kind: SelectorKind,
    domain: Option<Arc<DomainModel>>,
    domain_size: usize,
    cfg: L2qConfig,
    store: Option<Arc<SessionStore>>,
    /// Whether the finish record has been appended.
    finish_logged: bool,
    /// Whether the WAL (or a snapshot) already holds a base for this
    /// session. False only for brand-new sessions before their first
    /// commit: the first batch then carries a genesis record.
    genesis_logged: bool,
    /// Set when a step batch panicked: the session is terminal and its
    /// state is suspect — steps refuse, spills refuse, eviction drops.
    failed: Option<String>,
    /// Set when the durable store rejected a write because another shard
    /// fenced the session away (failover/migration): this resident copy
    /// is deposed — steps surface the fencing error instead of silently
    /// advancing state the new owner will never see, spills refuse, and
    /// eviction drops the copy without writing.
    fenced: Option<String>,
    last_touched: Instant,
}

impl Session {
    fn new(
        id: u64,
        bundle: Arc<ServingBundle>,
        spec: &SessionSpec,
        store: Option<Arc<SessionStore>>,
    ) -> Result<Self, ServiceError> {
        let mut cfg = bundle.cfg;
        if let Some(n) = spec.n_queries {
            if n == 0 {
                return Err(ServiceError::BadConfig("n_queries must be positive".into()));
            }
            cfg = cfg.with_n_queries(n);
        }
        let domain = domain_for(&bundle, spec.entity, spec.domain_size);
        let mut selector = spec.selector.build();
        selector.reset();
        let harvester = Harvester {
            corpus: &bundle.corpus,
            engine: &bundle.engine,
            oracle: &bundle.oracle,
            domain: domain.as_deref(),
            cfg,
        };
        let backend = CachedSearch::new(&bundle.engine, bundle.retrieval_cache());
        let state = HarvestState::begin_with(&harvester, spec.entity, spec.aspect, &backend);
        Ok(Self {
            id,
            bundle,
            state,
            selector,
            kind: spec.selector,
            domain,
            domain_size: spec.domain_size,
            cfg,
            store,
            finish_logged: false,
            genesis_logged: false,
            failed: None,
            fenced: None,
            last_touched: Instant::now(),
        })
    }

    /// Export the full session (envelope + harvest state) in portable
    /// form, with the selector's collective state captured bit-exactly.
    pub fn export(&self) -> PortableSession {
        PortableSession {
            version: SESSION_FORMAT_VERSION,
            id: self.id,
            selector: self.kind.wire_name(),
            domain_size: self.domain_size as u64,
            n_queries: self.cfg.n_queries as u64,
            state: self
                .state
                .export(&self.bundle.corpus, self.selector.collective_state()),
        }
    }

    /// Rebuild a live session from its portable form. The selector is
    /// reconstructed from its wire name and handed back its persisted
    /// collective state, and every derived cache rebuilds cold on the next
    /// step — so the restored session continues bit-identically (see
    /// `l2q_core::checkpoint`).
    pub fn restore(
        bundle: Arc<ServingBundle>,
        p: &PortableSession,
        store: Option<Arc<SessionStore>>,
    ) -> Result<Self, ServiceError> {
        if p.version != SESSION_FORMAT_VERSION {
            return Err(ServiceError::Store(format!(
                "unsupported session format version {}",
                p.version
            )));
        }
        let kind = SelectorKind::parse(&p.selector)
            .ok_or_else(|| ServiceError::Store(format!("unknown selector '{}'", p.selector)))?;
        if p.n_queries == 0 {
            return Err(ServiceError::Store(
                "zero n_queries in stored session".into(),
            ));
        }
        let cfg = bundle.cfg.with_n_queries(p.n_queries as usize);
        let (state, collective) = HarvestState::import(&p.state, &bundle.corpus)
            .map_err(|e| ServiceError::Store(e.to_string()))?;
        let mut selector = kind.build();
        selector.reset();
        if let Some(c) = collective {
            // Must come after reset: the restored recursion state IS the
            // context Φ the selector continues from.
            selector.restore_collective(c);
        }
        let domain = domain_for(&bundle, state.entity(), p.domain_size as usize);
        let finish_logged = state.stop_reason().is_some();
        Ok(Self {
            id: p.id,
            bundle,
            state,
            selector,
            kind,
            domain,
            domain_size: p.domain_size as usize,
            cfg,
            store,
            finish_logged,
            // Restored sessions were loaded from a snapshot or a WAL
            // genesis — a durable base already exists.
            genesis_logged: true,
            failed: None,
            fenced: None,
            last_touched: Instant::now(),
        })
    }

    fn query_words(&self, q: &Query) -> Vec<String> {
        q.words()
            .iter()
            .map(|&w| self.bundle.corpus.symbols.resolve(w).to_owned())
            .collect()
    }

    /// The WAL record for the step just taken (the last iteration).
    fn step_record(&self) -> WalRecord {
        let it = self.state.iterations().last().expect("just advanced");
        WalRecord {
            session: self.id,
            step_index: self.state.steps_taken() as u64 - 1,
            query: self.query_words(&it.query),
            new_pages: it.new_pages.iter().map(|p| p.0).collect(),
            selection_time_nanos: self.state.selection_time().as_nanos() as u64,
            collective: self
                .selector
                .collective_state()
                .map(|s| PortableCollective::from_state(&s)),
            finished: None,
            genesis: None,
        }
    }

    /// Append this batch's records; take a compacting snapshot when due.
    /// Store failures never fail the harvest — they are counted
    /// (`service_store_io_errors_total`) and the session stays live.
    fn commit_wal(&mut self, mut records: Vec<WalRecord>) {
        let Some(store) = self.store.clone() else {
            return;
        };
        if records.is_empty() {
            return;
        }
        if !self.genesis_logged {
            // First durable write of this session: lead the batch with a
            // genesis record carrying the full current state, so recovery
            // has a base without a separate (two-fsync) snapshot write.
            records.insert(
                0,
                WalRecord {
                    session: self.id,
                    step_index: 0,
                    query: Vec::new(),
                    new_pages: Vec::new(),
                    selection_time_nanos: 0,
                    collective: None,
                    finished: None,
                    genesis: Some(
                        serde_json::to_string(&self.export()).expect("serializable session"),
                    ),
                },
            );
        }
        let finished = records.iter().any(|r| r.finished.is_some());
        match store.append_steps(self.id, &records) {
            Ok(()) => {
                self.finish_logged |= finished;
                self.genesis_logged = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied => {
                // Another shard fenced this session away (failover or
                // migration): this copy is deposed. Record why so the
                // step that triggered the write surfaces a clean error
                // instead of an `ok:true` the durable owner never sees.
                if self.fenced.is_none() {
                    self.fenced = Some(e.to_string());
                    session_obs().fenced.inc();
                }
                return;
            }
            Err(_) => {
                session_obs().store_io_errors.inc();
                return;
            }
        }
        // Snapshots follow the cadence only — a finish record is already
        // WAL-durable, so sealing a session needs no extra snapshot.
        if store.needs_snapshot(self.id) && store.snapshot(self.id, &self.export()).is_err() {
            session_obs().store_io_errors.inc();
        }
    }

    /// Mark the session terminally failed (first panic message wins).
    /// Failed sessions refuse further steps and are never spilled — the
    /// panic may have left the harvest state mid-mutation.
    pub fn mark_failed(&mut self, message: &str) {
        if self.failed.is_none() {
            self.failed = Some(message.to_owned());
            session_obs().failed.inc();
        }
    }

    /// The panic message that failed this session, if any.
    pub fn failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// The store's fencing rejection, if another shard has taken write
    /// ownership of this session away from this process.
    pub fn fenced(&self) -> Option<&str> {
        self.fenced.as_deref()
    }

    /// Force a compacting snapshot of the current state (idle-eviction
    /// spill and the `persist` op).
    pub fn spill(&mut self) -> Result<(), ServiceError> {
        if let Some(message) = &self.failed {
            return Err(ServiceError::SessionFailed {
                message: message.clone(),
            });
        }
        if let Some(message) = &self.fenced {
            // The durable state belongs to another shard now; writing a
            // snapshot over it would be rejected anyway.
            return Err(ServiceError::Store(message.clone()));
        }
        let Some(store) = self.store.clone() else {
            return Err(ServiceError::NoStore);
        };
        store
            .snapshot(self.id, &self.export())
            .map_err(|e| ServiceError::Store(e.to_string()))?;
        self.genesis_logged = true;
        Ok(())
    }

    /// Execute up to `max_steps` selector iterations (stops early when the
    /// session finishes). Queries are fired through the bundle's shared
    /// retrieval cache.
    pub fn run_steps(&mut self, max_steps: usize) -> StepReport {
        self.last_touched = Instant::now();
        if self.failed.is_some() {
            // Terminal: never touch the (suspect) harvest state again.
            return StepReport {
                advanced: 0,
                new_pages: 0,
                status: self.status(),
            };
        }
        let bundle = self.bundle.clone();
        let harvester = Harvester {
            corpus: &bundle.corpus,
            engine: &bundle.engine,
            oracle: &bundle.oracle,
            domain: self.domain.as_deref(),
            cfg: self.cfg,
        };
        let backend = CachedSearch::new(&bundle.engine, bundle.retrieval_cache());
        let mut advanced = 0usize;
        let mut new_pages = 0usize;
        let mut wal: Vec<WalRecord> = Vec::new();
        for _ in 0..max_steps {
            match self
                .state
                .step_with(&harvester, self.selector.as_mut(), &backend)
            {
                StepOutcome::Advanced { new_pages: n } => {
                    advanced += 1;
                    new_pages += n;
                    if self.store.is_some() {
                        // Capture per step: the record's collective state
                        // must be the post-THIS-step value so a torn tail
                        // restores bit-identically mid-batch.
                        wal.push(self.step_record());
                    }
                }
                StepOutcome::Finished(_) => break,
            }
        }
        if self.store.is_some() && !self.finish_logged {
            if let Some(reason) = self.state.stop_reason() {
                wal.push(WalRecord {
                    session: self.id,
                    step_index: self.state.steps_taken() as u64,
                    query: Vec::new(),
                    new_pages: Vec::new(),
                    selection_time_nanos: self.state.selection_time().as_nanos() as u64,
                    collective: self
                        .selector
                        .collective_state()
                        .map(|s| PortableCollective::from_state(&s)),
                    finished: Some(reason.as_str().to_owned()),
                    genesis: None,
                });
            }
        }
        self.commit_wal(wal);
        self.last_touched = Instant::now();
        StepReport {
            advanced,
            new_pages,
            status: self.status(),
        }
    }

    /// Current status (refreshes the idle clock).
    pub fn status(&self) -> SessionStatus {
        SessionStatus {
            id: self.id,
            entity: self.state.entity(),
            aspect: self.state.aspect(),
            steps_taken: self.state.steps_taken(),
            gathered: self.state.gathered().len(),
            finished: self.state.stop_reason(),
            failed: self.failed.clone(),
        }
    }

    /// Harvested pages (first-retrieval order) and fired queries rendered
    /// as text.
    pub fn snapshot(&mut self) -> (Vec<u32>, Vec<String>) {
        self.last_touched = Instant::now();
        let pages = self.state.gathered().iter().map(|p| p.0).collect();
        let queries = self
            .state
            .iterations()
            .iter()
            .map(|it| it.query.render(&self.bundle.corpus.symbols))
            .collect();
        (pages, queries)
    }

    /// Time since the last client interaction.
    pub fn idle_for(&self) -> Duration {
        self.last_touched.elapsed()
    }
}

/// Lock a shared session, recovering a poisoned mutex instead of
/// propagating the panic: the poison is cleared and the session is
/// marked terminally `Failed`, so one panicking batch can never brick
/// every later op that touches the session (the seed behavior of
/// `lock().expect("session poisoned")`).
pub fn lock_recover(slot: &Mutex<Session>) -> std::sync::MutexGuard<'_, Session> {
    match slot.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            slot.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.mark_failed("session mutex poisoned by a worker panic");
            guard
        }
    }
}

/// [`lock_recover`]'s non-blocking twin: `None` only when the lock is
/// genuinely held (a poisoned-but-free mutex is recovered, not skipped).
pub fn try_lock_recover(slot: &Mutex<Session>) -> Option<std::sync::MutexGuard<'_, Session>> {
    match slot.try_lock() {
        Ok(guard) => Some(guard),
        Err(std::sync::TryLockError::Poisoned(poisoned)) => {
            slot.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.mark_failed("session mutex poisoned by a worker panic");
            Some(guard)
        }
        Err(std::sync::TryLockError::WouldBlock) => None,
    }
}

/// Service-wide counters surfaced by the `stats` endpoint.
#[derive(Default)]
pub struct ServiceMetrics {
    /// Sessions ever created.
    pub sessions_created: AtomicU64,
    /// Sessions closed by clients.
    pub sessions_closed: AtomicU64,
    /// Sessions evicted by the idle sweeper.
    pub sessions_evicted: AtomicU64,
    /// Selector iterations executed by workers.
    pub steps_executed: AtomicU64,
    /// Queries fired (seeds + advanced steps).
    pub queries_fired: AtomicU64,
    /// Step jobs rejected for backpressure.
    pub jobs_rejected: AtomicU64,
    /// Sessions spilled to the durable store by the idle sweeper.
    pub sessions_spilled: AtomicU64,
    /// Sessions restored from the durable store on touch.
    pub sessions_restored: AtomicU64,
    /// Idle evictions refused to avoid data loss (no store, session had
    /// stepped progress).
    pub eviction_refusals: AtomicU64,
}

impl ServiceMetrics {
    /// Relaxed load of one counter.
    pub fn load(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// Relaxed add.
    pub fn add(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }
}

/// Process-global session-lifecycle metrics mirroring the per-manager
/// [`ServiceMetrics`] (which stays the exact source for the `stats` op).
struct SessionObs {
    active: Arc<l2q_obs::Gauge>,
    created: Arc<l2q_obs::Counter>,
    closed: Arc<l2q_obs::Counter>,
    evicted: Arc<l2q_obs::Counter>,
    spilled: Arc<l2q_obs::Counter>,
    restored: Arc<l2q_obs::Counter>,
    eviction_refusals: Arc<l2q_obs::Counter>,
    store_io_errors: Arc<l2q_obs::Counter>,
    failed: Arc<l2q_obs::Counter>,
    detached: Arc<l2q_obs::Counter>,
    fenced: Arc<l2q_obs::Counter>,
}

fn session_obs() -> &'static SessionObs {
    static M: std::sync::OnceLock<SessionObs> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let reg = l2q_obs::global();
        SessionObs {
            active: reg.gauge("service_sessions_active"),
            created: reg.counter("service_sessions_created_total"),
            closed: reg.counter("service_sessions_closed_total"),
            evicted: reg.counter("service_sessions_evicted_total"),
            spilled: reg.counter("service_sessions_spilled_total"),
            restored: reg.counter("service_sessions_restored_total"),
            eviction_refusals: reg.counter("service_eviction_refusals_total"),
            store_io_errors: reg.counter("service_store_io_errors_total"),
            failed: reg.counter("service_sessions_failed_total"),
            detached: reg.counter("service_sessions_detached_total"),
            fenced: reg.counter("service_sessions_fenced_total"),
        }
    })
}

/// One row of a `list_sessions` response: a session that is resident,
/// durably stored, or both.
#[derive(Clone, Debug)]
pub struct SessionEntry {
    /// Session id.
    pub id: u64,
    /// Whether the session is currently resident in memory.
    pub resident: bool,
    /// Steps taken (resident sessions only; stored-only sessions are not
    /// loaded just to list them).
    pub steps_taken: Option<u64>,
    /// Pages gathered (resident sessions only).
    pub gathered: Option<u64>,
    /// `"running"` / `"finished:<reason>"` (resident sessions only).
    pub state: Option<String>,
    /// Coarse restorability class: `"resident"` (live in memory),
    /// `"stored"` (durable only — restorable on touch), or `"failed"`
    /// (terminally failed; not restorable).
    pub health: String,
}

/// Owner of all live sessions.
pub struct SessionManager {
    bundle: Arc<ServingBundle>,
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    idle_timeout: Duration,
    metrics: Arc<ServiceMetrics>,
    store: Option<Arc<SessionStore>>,
}

impl SessionManager {
    /// Create a manager over a bundle (no durable store).
    pub fn new(
        bundle: Arc<ServingBundle>,
        idle_timeout: Duration,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        Self::with_store(bundle, idle_timeout, metrics, None)
    }

    /// Create a manager backed by a durable store. Ids resume above the
    /// highest stored session so recovered and new sessions never collide.
    pub fn with_store(
        bundle: Arc<ServingBundle>,
        idle_timeout: Duration,
        metrics: Arc<ServiceMetrics>,
        store: Option<Arc<SessionStore>>,
    ) -> Self {
        let first_id = store
            .as_ref()
            .and_then(|s| s.max_session_id())
            .map_or(1, |max| max + 1);
        Self {
            bundle,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(first_id),
            idle_timeout,
            metrics,
            store,
        }
    }

    /// The bundle sessions run against.
    pub fn bundle(&self) -> &Arc<ServingBundle> {
        &self.bundle
    }

    /// The durable store, when the server runs with one.
    pub fn store(&self) -> Option<&Arc<SessionStore>> {
        self.store.as_ref()
    }

    /// Validate a spec and open a session (fires the seed query). With a
    /// store, nothing is written yet: the session's first committed batch
    /// leads with a genesis record that carries the base state, so
    /// creation costs no fsync and recovery still has a replay base.
    ///
    /// Local ids count up from above every stored and every explicit id
    /// and skip ids that are resident or stored (a shard sharing the data
    /// dir may have written them). They never reach 0 or `u64::MAX`: at
    /// the top of the range `create` refuses with
    /// [`ServiceError::IdsExhausted`] instead of wrapping.
    pub fn create(&self, spec: &SessionSpec) -> Result<SessionStatus, ServiceError> {
        loop {
            let id = self
                .next_id
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |id| {
                    (id < u64::MAX).then(|| id + 1)
                })
                .map_err(|_| ServiceError::IdsExhausted)?;
            if !self.taken(id) {
                return self.create_session(id, spec);
            }
        }
    }

    /// Whether `id` names a resident or durably stored session.
    fn taken(&self, id: u64) -> bool {
        self.sessions
            .lock()
            .expect("session map poisoned")
            .contains_key(&id)
            || self.store.as_ref().is_some_and(|s| s.contains(id))
    }

    /// Open a session under a caller-chosen id (the router allocates fleet
    /// ids so shards' local counters never collide). Rejects ids that are
    /// already resident or durably stored, and keeps the local allocator
    /// ahead of the explicit id.
    pub fn create_with_id(
        &self,
        id: u64,
        spec: &SessionSpec,
    ) -> Result<SessionStatus, ServiceError> {
        // 0 is never allocated, and the local allocator must move past
        // `id`, which leaves no room for the largest id.
        if id == 0 || id == u64::MAX {
            return Err(ServiceError::BadConfig(format!(
                "session id must be in 1..{}",
                u64::MAX
            )));
        }
        if self.taken(id) {
            return Err(ServiceError::BadConfig(format!(
                "session id {id} already exists"
            )));
        }
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        self.create_session(id, spec)
    }

    fn create_session(&self, id: u64, spec: &SessionSpec) -> Result<SessionStatus, ServiceError> {
        if spec.entity.index() >= self.bundle.corpus.entities.len() {
            return Err(ServiceError::BadEntity(spec.entity.0));
        }
        let session = Session::new(id, self.bundle.clone(), spec, self.store.clone())?;
        let status = session.status();
        {
            let mut map = self.sessions.lock().expect("session map poisoned");
            if map.contains_key(&id) {
                // Two explicit-id creates raced past the pre-check; the
                // first insert wins.
                return Err(ServiceError::BadConfig(format!(
                    "session id {id} already exists"
                )));
            }
            map.insert(id, Arc::new(Mutex::new(session)));
        }
        ServiceMetrics::add(&self.metrics.sessions_created, 1);
        ServiceMetrics::add(&self.metrics.queries_fired, 1); // the seed
        let obs = session_obs();
        obs.created.inc();
        obs.active.inc();
        Ok(status)
    }

    /// Shared handle to a live session. A session that was spilled to the
    /// store (idle eviction or a server restart) is transparently restored
    /// on touch.
    pub fn get(&self, id: u64) -> Result<Arc<Mutex<Session>>, ServiceError> {
        if let Some(slot) = self.sessions.lock().expect("session map poisoned").get(&id) {
            return Ok(slot.clone());
        }
        let Some(store) = &self.store else {
            return Err(ServiceError::NoSuchSession(id));
        };
        if !store.contains(id) {
            return Err(ServiceError::NoSuchSession(id));
        }
        // Fence before loading: bumping the generation token first means
        // any other shard still writing this session over a shared data
        // dir is cut off, and everything it committed before the bump is
        // in the WAL scan below — so a fleet failover/migration restores
        // the exact durable state with no second writer behind its back.
        store
            .fence(id)
            .map_err(|e| ServiceError::Store(e.to_string()))?;
        // Rebuild outside the map lock: store.load + HarvestState::import
        // are slow (disk reads, full cache rebuild), and holding the global
        // lock across them would stall every create/step/status dispatch.
        // Concurrent touches may both rebuild; the insert below picks one
        // winner and the loser's copy is dropped.
        let recovered = match store
            .load(id)
            .map_err(|e| ServiceError::Store(e.to_string()))?
        {
            Some(r) => r,
            None => {
                // A concurrent close() deleted the session between the
                // contains check and the load; the fence recreated an
                // empty directory — clear it rather than leave a phantom.
                store.remove(id).ok();
                return Err(ServiceError::NoSuchSession(id));
            }
        };
        let session =
            Session::restore(self.bundle.clone(), &recovered.session, self.store.clone())?;
        let mut map = self.sessions.lock().expect("session map poisoned");
        if let Some(slot) = map.get(&id) {
            return Ok(slot.clone());
        }
        if !store.contains(id) {
            // close() deleted the durable state while we were rebuilding;
            // inserting now would resurrect a closed session.
            return Err(ServiceError::NoSuchSession(id));
        }
        let slot = Arc::new(Mutex::new(session));
        map.insert(id, slot.clone());
        ServiceMetrics::add(&self.metrics.sessions_restored, 1);
        let obs = session_obs();
        obs.restored.inc();
        obs.active.inc();
        Ok(slot)
    }

    /// Force a durable snapshot of a session (`persist` op). Restores the
    /// session first if it is stored but not resident.
    pub fn persist(&self, id: u64) -> Result<SessionStatus, ServiceError> {
        if self.store.is_none() {
            return Err(ServiceError::NoStore);
        }
        let slot = self.get(id)?;
        let mut guard = lock_recover(&slot);
        guard.spill()?;
        ServiceMetrics::add(&self.metrics.sessions_spilled, 1);
        session_obs().spilled.inc();
        Ok(guard.status())
    }

    /// Explicitly restore a stored session into residency (`restore` op);
    /// a no-op returning current status when already resident.
    pub fn restore(&self, id: u64) -> Result<SessionStatus, ServiceError> {
        if self.store.is_none() {
            return Err(ServiceError::NoStore);
        }
        let slot = self.get(id)?;
        let status = lock_recover(&slot).status();
        Ok(status)
    }

    /// Drain a session out of residency while keeping its durable state
    /// (the `detach` wire op — the router's migration drain hook).
    /// Waiting on the session's own lock drains any in-flight step batch;
    /// a final spill then captures the post-batch state, and the resident
    /// instance is dropped. Unlike `close`, the session stays restorable —
    /// the next `restore` (on any shard sharing the data dir) fences the
    /// store generation and continues bit-identically.
    pub fn detach(&self, id: u64) -> Result<SessionStatus, ServiceError> {
        let Some(store) = self.store.clone() else {
            return Err(ServiceError::NoStore);
        };
        let resident = self
            .sessions
            .lock()
            .expect("session map poisoned")
            .get(&id)
            .cloned();
        let Some(slot) = resident else {
            // Already non-resident: idempotently report the durable status.
            let recovered = store
                .load(id)
                .map_err(|e| ServiceError::Store(e.to_string()))?
                .ok_or(ServiceError::NoSuchSession(id))?;
            return self.status_of_portable(&recovered.session);
        };
        let mut guard = lock_recover(&slot);
        guard.spill()?; // refuses failed sessions — their state is suspect
        let status = guard.status();
        drop(guard);
        if self
            .sessions
            .lock()
            .expect("session map poisoned")
            .remove(&id)
            .is_some()
        {
            store.release(id);
            ServiceMetrics::add(&self.metrics.sessions_spilled, 1);
            let obs = session_obs();
            obs.spilled.inc();
            obs.detached.inc();
            obs.active.dec();
        }
        Ok(status)
    }

    /// Every known session: resident ones with live status, stored-only
    /// ones by id.
    pub fn list(&self) -> Vec<SessionEntry> {
        let map = self.sessions.lock().expect("session map poisoned");
        let mut entries: Vec<SessionEntry> = Vec::new();
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (&id, slot) in map.iter() {
            seen.insert(id);
            // A session locked by a worker is mid-step; list it without
            // blocking on its status.
            let status = try_lock_recover(slot).map(|g| g.status());
            let health = match &status {
                Some(s) if s.failed.is_some() => "failed",
                _ => "resident",
            };
            entries.push(SessionEntry {
                id,
                resident: true,
                steps_taken: status.as_ref().map(|s| s.steps_taken as u64),
                gathered: status.as_ref().map(|s| s.gathered as u64),
                state: status.as_ref().map(crate::proto::session_state_string),
                health: health.into(),
            });
        }
        if let Some(store) = &self.store {
            for id in store.list_sessions() {
                if seen.insert(id) {
                    entries.push(SessionEntry {
                        id,
                        resident: false,
                        steps_taken: None,
                        gathered: None,
                        state: None,
                        health: "stored".into(),
                    });
                }
            }
        }
        entries.sort_by_key(|e| e.id);
        entries
    }

    /// Close a session, returning its final status. Removes both the
    /// resident session and any durable state (close means "done" — use
    /// `persist` + idle eviction to keep a session resumable).
    pub fn close(&self, id: u64) -> Result<SessionStatus, ServiceError> {
        let resident = self
            .sessions
            .lock()
            .expect("session map poisoned")
            .remove(&id);
        let status = match resident {
            Some(slot) => {
                let status = lock_recover(&slot).status();
                session_obs().active.dec();
                Some(status)
            }
            None => match &self.store {
                Some(store) if store.contains(id) => {
                    // Stored but not resident: report its durable status
                    // straight from the portable form (no full restore).
                    let recovered = store
                        .load(id)
                        .map_err(|e| ServiceError::Store(e.to_string()))?;
                    recovered
                        .map(|r| self.status_of_portable(&r.session))
                        .transpose()?
                }
                _ => None,
            },
        };
        let status = status.ok_or(ServiceError::NoSuchSession(id))?;
        if let Some(store) = &self.store {
            store
                .remove(id)
                .map_err(|e| ServiceError::Store(e.to_string()))?;
            // A concurrent get() may have restored the session between the
            // status read and the durable delete. Drop any such resident
            // now (get() holds the map lock across its insert, so after
            // this sweep a racing restore either already landed — and is
            // removed here — or will see the store empty and give up).
            // Otherwise a later spill would resurrect the closed session.
            if self
                .sessions
                .lock()
                .expect("session map poisoned")
                .remove(&id)
                .is_some()
            {
                session_obs().active.dec();
            }
        }
        ServiceMetrics::add(&self.metrics.sessions_closed, 1);
        session_obs().closed.inc();
        Ok(status)
    }

    /// Evict sessions idle past the timeout. Sessions currently locked by
    /// a worker are by definition active and are skipped.
    ///
    /// With a durable store, eviction *spills*: the session is
    /// snapshotted and transparently restored on its next touch. Without
    /// one, a session with stepped progress is **refused** eviction
    /// (counted in `eviction_refusals`) — dropping it would silently
    /// discard its harvest context Φ.
    pub fn evict_idle(&self) -> usize {
        let mut evicted = 0usize;
        let mut spilled = 0u64;
        let mut refused = 0u64;

        // Pass 1, under the map lock and free of disk I/O: without a store,
        // drop or refuse idle sessions in place; with one, just collect the
        // candidates to spill. Failed sessions are dropped either way — the
        // panic left their state suspect, so spilling would persist garbage.
        // `released` collects the stored sessions that leave residency.
        let mut released: Vec<u64> = Vec::new();
        let candidates: Vec<(u64, Arc<Mutex<Session>>)> = {
            let mut map = self.sessions.lock().expect("session map poisoned");
            if self.store.is_some() {
                let mut spill_candidates: Vec<(u64, Arc<Mutex<Session>>)> = Vec::new();
                map.retain(|&id, slot| {
                    let Some(s) = try_lock_recover(slot) else {
                        return true;
                    };
                    if s.idle_for() < self.idle_timeout {
                        return true;
                    }
                    if s.failure().is_some() || s.fenced().is_some() {
                        // Failed: state is suspect. Fenced: the durable
                        // copy belongs to another shard. Neither must be
                        // written back — drop the resident copy.
                        evicted += 1;
                        released.push(id);
                        return false;
                    }
                    spill_candidates.push((id, slot.clone()));
                    true
                });
                spill_candidates
            } else {
                map.retain(|_, slot| {
                    let Some(s) = try_lock_recover(slot) else {
                        return true;
                    };
                    if s.idle_for() < self.idle_timeout {
                        return true;
                    }
                    if s.failure().is_none() && s.status().steps_taken > 0 {
                        refused += 1;
                        true
                    } else {
                        evicted += 1;
                        false
                    }
                });
                Vec::new()
            }
        };

        // Pass 2, with only each session's own lock held: snapshot fsyncs
        // here no longer stall create/step/status dispatch for everyone.
        for (id, slot) in candidates {
            let Some(mut s) = try_lock_recover(&slot) else {
                continue; // a worker grabbed it — active again
            };
            if s.idle_for() < self.idle_timeout {
                continue; // touched since pass 1
            }
            if s.spill().is_err() {
                // Spilling failed: keep the session resident rather than
                // lose it.
                refused += 1;
                continue;
            }
            drop(s);
            // Pass 3: remove under the map lock unless a touch raced the
            // spill. (Removing after a touch would still be durable — steps
            // after a spill are WAL-logged on top of its snapshot — but an
            // actively-used session should stay resident.)
            let mut map = self.sessions.lock().expect("session map poisoned");
            let still_idle = map.get(&id).is_some_and(|slot| {
                try_lock_recover(slot).is_some_and(|s| s.idle_for() >= self.idle_timeout)
            });
            if still_idle {
                map.remove(&id);
                released.push(id);
                spilled += 1;
                evicted += 1;
            }
        }
        if let Some(store) = &self.store {
            for id in released {
                store.release(id);
            }
        }

        ServiceMetrics::add(&self.metrics.sessions_evicted, evicted as u64);
        ServiceMetrics::add(&self.metrics.sessions_spilled, spilled);
        ServiceMetrics::add(&self.metrics.eviction_refusals, refused);
        let obs = session_obs();
        if evicted > 0 {
            obs.evicted.add(evicted as u64);
            obs.active.add(-(evicted as i64));
        }
        if spilled > 0 {
            obs.spilled.add(spilled);
        }
        if refused > 0 {
            obs.eviction_refusals.add(refused);
        }
        evicted
    }

    /// Number of live sessions.
    pub fn active(&self) -> usize {
        self.sessions.lock().expect("session map poisoned").len()
    }

    /// A [`SessionStatus`] computed from stored state without rebuilding
    /// the live session.
    fn status_of_portable(&self, p: &PortableSession) -> Result<SessionStatus, ServiceError> {
        let s = &p.state;
        let aspect = self
            .bundle
            .corpus
            .aspect_by_name(&s.aspect)
            .ok_or_else(|| ServiceError::Store(format!("unknown aspect '{}'", s.aspect)))?;
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut gathered = 0usize;
        for &pg in &s.seed_results {
            if seen.insert(pg) {
                gathered += 1;
            }
        }
        gathered += s
            .iterations
            .iter()
            .map(|it| it.new_pages.len())
            .sum::<usize>();
        let finished = match &s.finished {
            None => None,
            Some(r) => Some(
                StopReason::parse(r)
                    .ok_or_else(|| ServiceError::Store(format!("unknown stop reason '{r}'")))?,
            ),
        };
        Ok(SessionStatus {
            id: p.id,
            entity: EntityId(s.entity),
            aspect,
            steps_taken: s.iterations.len(),
            gathered,
            finished,
            failed: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::BundleConfig;
    use l2q_aspect::RelevanceOracle;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig};

    fn manager(idle: Duration) -> SessionManager {
        let corpus = Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
        let oracle = RelevanceOracle::from_truth(&corpus);
        let bundle = Arc::new(ServingBundle::with_oracle(
            corpus,
            Vec::new(),
            oracle,
            L2qConfig::default(),
            BundleConfig::default(),
        ));
        SessionManager::new(bundle, idle, Arc::new(ServiceMetrics::default()))
    }

    fn spec(m: &SessionManager) -> SessionSpec {
        SessionSpec {
            entity: EntityId(0),
            aspect: m.bundle().corpus.aspect_by_name("RESEARCH").unwrap(),
            selector: SelectorKind::L2qbal,
            n_queries: Some(3),
            domain_size: 3,
        }
    }

    #[test]
    fn selector_kind_parses_wire_names() {
        assert_eq!(SelectorKind::parse("L2QP"), Some(SelectorKind::L2qp));
        assert_eq!(SelectorKind::parse("l2qbal"), Some(SelectorKind::L2qbal));
        assert_eq!(
            SelectorKind::parse("l2qw=0.25"),
            Some(SelectorKind::Weighted(0.25))
        );
        assert_eq!(SelectorKind::parse("l2qw=7"), None);
        assert_eq!(SelectorKind::parse("ideal"), None);
    }

    #[test]
    fn probe_selectors_parse_and_roundtrip() {
        assert_eq!(SelectorKind::parse("panic"), Some(SelectorKind::PanicProbe));
        assert_eq!(
            SelectorKind::parse("sleep=250"),
            Some(SelectorKind::SleepProbe(250))
        );
        for kind in [SelectorKind::PanicProbe, SelectorKind::SleepProbe(42)] {
            assert_eq!(SelectorKind::parse(&kind.wire_name()), Some(kind));
        }
        assert_eq!(SelectorKind::parse("sleep=abc"), None);
    }

    #[test]
    fn failed_sessions_refuse_steps_and_evict_without_refusal() {
        let m = manager(Duration::from_millis(20));
        let status = m.create(&spec(&m)).unwrap();
        let slot = m.get(status.id).unwrap();
        slot.lock().unwrap().run_steps(1); // real progress first
        lock_recover(&slot).mark_failed("test failure");

        let report = lock_recover(&slot).run_steps(5);
        assert_eq!(report.advanced, 0, "failed session must not step");
        assert_eq!(report.status.failed.as_deref(), Some("test failure"));

        // Failed sessions evict freely despite stepped progress: their
        // state is suspect, so the data-loss refusal does not apply.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(m.evict_idle(), 1);
        assert!(matches!(
            m.get(status.id),
            Err(ServiceError::NoSuchSession(_))
        ));
    }

    #[test]
    fn lock_recover_clears_poison_and_marks_failed() {
        let m = manager(Duration::from_secs(300));
        let status = m.create(&spec(&m)).unwrap();
        let slot = m.get(status.id).unwrap();
        let poisoner = slot.clone();
        let _ = std::thread::Builder::new()
            .name("poisoner".into())
            .spawn(move || {
                let _guard = poisoner.lock().unwrap();
                panic!("deliberate poison");
            })
            .unwrap()
            .join();
        assert!(slot.is_poisoned());

        let guard = lock_recover(&slot);
        assert!(guard.failure().is_some(), "recovery must mark Failed");
        drop(guard);
        assert!(!slot.is_poisoned(), "poison must be cleared");
        assert!(slot.lock().is_ok(), "plain locking works again");
    }

    #[test]
    fn session_lifecycle_create_step_close() {
        let m = manager(Duration::from_secs(300));
        let status = m.create(&spec(&m)).unwrap();
        assert!(status.gathered > 0, "seed must gather pages");
        assert_eq!(status.steps_taken, 0);
        assert_eq!(m.active(), 1);

        let slot = m.get(status.id).unwrap();
        let report = slot.lock().unwrap().run_steps(100);
        assert!(report.advanced <= 3, "budget caps steps");
        assert!(report.status.finished.is_some());

        let (pages, queries) = slot.lock().unwrap().snapshot();
        assert_eq!(pages.len(), report.status.gathered);
        assert_eq!(queries.len(), report.status.steps_taken);

        m.close(status.id).unwrap();
        assert_eq!(m.active(), 0);
        assert!(matches!(
            m.get(status.id),
            Err(ServiceError::NoSuchSession(_))
        ));
    }

    #[test]
    fn bad_specs_are_rejected() {
        let m = manager(Duration::from_secs(300));
        let mut bad = spec(&m);
        bad.entity = EntityId(10_000);
        assert!(matches!(m.create(&bad), Err(ServiceError::BadEntity(_))));
        let mut zero = spec(&m);
        zero.n_queries = Some(0);
        assert!(matches!(m.create(&zero), Err(ServiceError::BadConfig(_))));
    }

    /// A router-chosen id just below the top of the range leaves the local
    /// allocator nothing to hand out: it refuses instead of wrapping to
    /// `u64::MAX`, 0 and then ids that stored sessions may own.
    #[test]
    fn local_ids_refuse_at_the_top_of_the_range() {
        let m = manager(Duration::from_secs(300));
        let first = m.create(&spec(&m)).unwrap().id;
        assert_eq!(first, 1);
        let top = m.create_with_id(u64::MAX - 1, &spec(&m)).unwrap().id;
        assert_eq!(top, u64::MAX - 1);
        for _ in 0..3 {
            assert_eq!(m.create(&spec(&m)).unwrap_err(), ServiceError::IdsExhausted);
        }
        assert_eq!(m.active(), 2, "no refused create opened a session");
        assert!(m.get(first).is_ok() && m.get(top).is_ok());
    }

    #[test]
    fn idle_sessions_are_evicted() {
        let m = manager(Duration::from_millis(20));
        let status = m.create(&spec(&m)).unwrap();
        assert_eq!(m.evict_idle(), 0, "fresh session must survive");
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(m.evict_idle(), 1);
        assert!(matches!(
            m.get(status.id),
            Err(ServiceError::NoSuchSession(_))
        ));
    }

    #[test]
    fn domain_sessions_share_memoized_solves() {
        let m = manager(Duration::from_secs(300));
        let mut s = spec(&m);
        // Two targets outside the first-3 peer window share one peer set.
        s.entity = EntityId(5);
        m.create(&s).unwrap();
        s.entity = EntityId(6);
        m.create(&s).unwrap();
        assert_eq!(m.bundle().domain_cache().misses(), 1);
        assert_eq!(m.bundle().domain_cache().hits(), 1);
    }
}
