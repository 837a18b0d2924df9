//! The worker pool: a fixed set of threads draining closures from one
//! bounded crossbeam channel. It is the only pool in the serving stack:
//! `l2q-serve` runs its wire ops on one (a `step` runs its batch right
//! there), and `l2q-router` forwards to shards from another.
//!
//! The wire path hands a request over with [`Scheduler::dispatch`], which
//! completes the reactor's reply with the op's response — or, when the
//! queue refuses the job, with the refusal itself. In-process callers
//! enqueue a step batch directly ([`Scheduler::submit`], or
//! [`Scheduler::run`] to wait for the report).
//!
//! The bounded channel is the backpressure mechanism — when it is full,
//! submission fails immediately with [`ServiceError::Overloaded`] and a
//! retry hint instead of queueing unboundedly. Each batch locks its
//! session for its duration, so steps of one session serialize while
//! distinct sessions run on distinct workers.
//!
//! Workers are panic-isolated: every job runs inside `catch_unwind`, so
//! a worker thread never dies and the pool never shrinks. A step batch
//! that panics is caught inside the batch: the session's poisoned
//! mutex is recovered into a terminal `Failed` state, the caller gets a
//! [`ServiceError::SessionFailed`] reply instead of a hang, and
//! `worker_panics_total` counts the event.

use crate::proto::Response;
use crate::reactor::ReplyHandle;
use crate::session::{lock_recover, ServiceError, ServiceMetrics, Session, StepReport};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use l2q_obs::MetricsRegistry;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Backoff hint carried by an `Overloaded` refusal.
const RETRY_AFTER_MS: u64 = 25;

/// A queued unit of work.
type Task = Box<dyn FnOnce() + Send>;

/// Pool metric handles, resolved once; the hot path pays only relaxed
/// atomics.
struct SchedulerObs {
    queue_depth: Arc<l2q_obs::Gauge>,
    queue_wait_seconds: Arc<l2q_obs::Histogram>,
    batch_seconds: Arc<l2q_obs::Histogram>,
    jobs_total: Arc<l2q_obs::Counter>,
    jobs_rejected_total: Arc<l2q_obs::Counter>,
    worker_panics_total: Arc<l2q_obs::Counter>,
}

impl SchedulerObs {
    fn registered_in(reg: &MetricsRegistry) -> Self {
        Self {
            queue_depth: reg.gauge("scheduler_queue_depth"),
            queue_wait_seconds: reg.histogram("scheduler_queue_wait_seconds"),
            batch_seconds: reg.histogram("scheduler_batch_seconds"),
            jobs_total: reg.counter("scheduler_jobs_total"),
            jobs_rejected_total: reg.counter("scheduler_jobs_rejected_total"),
            worker_panics_total: reg.counter("worker_panics_total"),
        }
    }
}

/// The step schedulers' series, in the global registry.
fn scheduler_obs() -> &'static SchedulerObs {
    static M: OnceLock<SchedulerObs> = OnceLock::new();
    M.get_or_init(|| SchedulerObs::registered_in(l2q_obs::global()))
}

/// Forward pools' series, kept in a registry nothing renders so the
/// exported `scheduler_*` series describe step scheduling alone.
fn forwarder_obs() -> &'static SchedulerObs {
    static UNRENDERED: MetricsRegistry = MetricsRegistry::new();
    static M: OnceLock<SchedulerObs> = OnceLock::new();
    M.get_or_init(|| SchedulerObs::registered_in(&UNRENDERED))
}

/// Fixed worker pool over a bounded job queue.
pub struct Scheduler {
    tx: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<ServiceMetrics>,
    obs: &'static SchedulerObs,
}

impl Scheduler {
    /// The step scheduler: `workers` threads draining a queue of capacity
    /// `queue_cap`, recording the `scheduler_*` series and `metrics`.
    pub fn new(workers: usize, queue_cap: usize, metrics: Arc<ServiceMetrics>) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(queue_cap > 0, "need a positive queue capacity");
        Self::spawn(workers, queue_cap, "l2q-worker", metrics, scheduler_obs())
    }

    /// A forward pool for handlers whose jobs block on I/O (the router's
    /// shard forwards), with threads named `{name}-{i}`. Its metrics are
    /// not exported.
    pub fn forwarder(workers: usize, queue_cap: usize, name: &str) -> Self {
        let workers = workers.max(1);
        Self::spawn(workers, queue_cap, name, Arc::default(), forwarder_obs())
    }

    fn spawn(
        workers: usize,
        queue_cap: usize,
        name: &str,
        metrics: Arc<ServiceMetrics>,
        obs: &'static SchedulerObs,
    ) -> Self {
        let (tx, rx): (Sender<Task>, Receiver<Task>) = channel::bounded(queue_cap);
        let workers = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            // The job's reply path still answers (a dropped
                            // `ReplyHandle` sends an internal error), and
                            // the worker lives on.
                            if std::panic::catch_unwind(AssertUnwindSafe(task)).is_err() {
                                obs.worker_panics_total.inc();
                            }
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
            metrics,
            obs,
        }
    }

    /// Run `work` on a worker and complete `reply` with its response.
    /// A refused submission answers at once with the refusal:
    /// `Overloaded` with a retry hint on a full queue, `Canceled` after
    /// shutdown.
    pub fn dispatch(&self, reply: ReplyHandle, work: impl FnOnce() -> Response + Send + 'static) {
        // The reply stays reachable here until the queue accepts the job:
        // a refused job is dropped unrun, and dropping the reply with it
        // would answer a dropped-reply internal error instead.
        let slot = Arc::new(Mutex::new(Some(reply)));
        let job_slot = slot.clone();
        let take = |slot: &Mutex<Option<ReplyHandle>>| {
            slot.lock().unwrap_or_else(|e| e.into_inner()).take()
        };
        let job = move || {
            if let Some(reply) = take(&job_slot) {
                reply.complete(work());
            }
        };
        if let Err(e) = self.enqueue(job) {
            if let Some(reply) = take(&slot) {
                reply.complete(Response::err(&e));
            }
        }
    }

    /// Enqueue a step batch. Returns a receiver for the report, or
    /// `Overloaded` when the queue is full (the caller should relay the
    /// retry hint and drop the request).
    pub fn submit(
        &self,
        session: Arc<Mutex<Session>>,
        steps: usize,
    ) -> Result<Receiver<Result<StepReport, ServiceError>>, ServiceError> {
        let (reply_tx, reply_rx) = channel::unbounded();
        let metrics = self.metrics.clone();
        self.enqueue(move || {
            // The client may have hung up; a dead reply receiver is not
            // an error.
            let _ = reply_tx.send(execute_batch(&session, steps, &metrics));
        })?;
        Ok(reply_rx)
    }

    /// Enqueue and wait for the report (convenience over [`submit`]).
    ///
    /// [`submit`]: Scheduler::submit
    pub fn run(
        &self,
        session: Arc<Mutex<Session>>,
        steps: usize,
    ) -> Result<StepReport, ServiceError> {
        self.submit(session, steps)?
            .recv()
            .map_err(|_| ServiceError::Canceled)?
    }

    fn enqueue(&self, job: impl FnOnce() + Send + 'static) -> Result<(), ServiceError> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(ServiceError::Canceled);
        };
        let obs = self.obs;
        let enqueued = Instant::now();
        // The submitter's trace context, re-entered on the worker so the
        // queue-wait span and the job's spans join the caller's trace.
        let trace = l2q_obs::trace::current();
        let task: Task = Box::new(move || {
            obs.queue_depth.dec();
            let _trace_guard = trace.map(l2q_obs::trace::enter);
            let wait = enqueued.elapsed();
            match trace {
                Some(ctx) => {
                    obs.queue_wait_seconds
                        .record_with_exemplar(wait.as_secs_f64(), ctx.trace_id);
                    l2q_obs::trace::record_span("scheduler_queue_wait", wait);
                }
                None => obs.queue_wait_seconds.record_duration(wait),
            }
            job();
        });
        // Inc before the send so the gauge never under-reports a queued
        // job; undone on the failure paths below.
        obs.queue_depth.inc();
        match tx.try_send(task) {
            Ok(()) => {
                obs.jobs_total.inc();
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                obs.queue_depth.dec();
                obs.jobs_rejected_total.inc();
                ServiceMetrics::add(&self.metrics.jobs_rejected, 1);
                Err(ServiceError::Overloaded {
                    retry_after_ms: RETRY_AFTER_MS,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                obs.queue_depth.dec();
                Err(ServiceError::Canceled)
            }
        }
    }

    /// Jobs currently waiting (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.tx.as_ref().map(|tx| tx.len()).unwrap_or(0)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Drop the queue and join every worker. Queued jobs still drain;
    /// their reports go to any caller still holding a reply receiver.
    pub fn shutdown(&mut self) {
        self.tx.take(); // disconnects the channel once workers drain it
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run one step batch under the scheduler's batch span, converting a
/// panic into a `SessionFailed` reply: the poisoned session mutex is
/// recovered, the session is marked terminally `Failed`, and the panic
/// stops here instead of killing the worker. In-process step jobs and
/// the wire `step` op both run here.
pub(crate) fn execute_batch(
    session: &Arc<Mutex<Session>>,
    steps: usize,
    metrics: &ServiceMetrics,
) -> Result<StepReport, ServiceError> {
    let _batch_span =
        l2q_obs::SpanTimer::start_named(scheduler_obs().batch_seconds.clone(), "scheduler_batch");
    {
        let guard = lock_recover(session);
        if let Some(message) = guard.failure().map(str::to_owned) {
            return Err(ServiceError::SessionFailed { message });
        }
        if let Some(message) = guard.fenced().map(str::to_owned) {
            return Err(ServiceError::Store(message));
        }
    }
    let outcome =
        std::panic::catch_unwind(AssertUnwindSafe(|| lock_recover(session).run_steps(steps)));
    match outcome {
        Ok(report) => {
            // The batch commits to the WAL under the session lock; if the
            // durable store fenced us mid-batch (another shard took the
            // session), surface that instead of an ok — the advance never
            // became durable and the new owner will not see it.
            if let Some(message) = lock_recover(session).fenced().map(str::to_owned) {
                return Err(ServiceError::Store(message));
            }
            ServiceMetrics::add(&metrics.steps_executed, report.advanced as u64);
            ServiceMetrics::add(&metrics.queries_fired, report.advanced as u64);
            Ok(report)
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            scheduler_obs().worker_panics_total.inc();
            lock_recover(session).mark_failed(&message);
            Err(ServiceError::SessionFailed { message })
        }
    }
}

/// Best-effort text of a panic payload (`panic!` emits `&str`/`String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "step batch panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{BundleConfig, ServingBundle};
    use crate::session::{SelectorKind, SessionManager, SessionSpec};
    use l2q_aspect::RelevanceOracle;
    use l2q_core::L2qConfig;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};
    use std::time::Duration;

    fn setup() -> (SessionManager, Arc<ServiceMetrics>) {
        let corpus = Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
        let oracle = RelevanceOracle::from_truth(&corpus);
        let bundle = Arc::new(ServingBundle::with_oracle(
            corpus,
            Vec::new(),
            oracle,
            L2qConfig::default(),
            BundleConfig::default(),
        ));
        let metrics = Arc::new(ServiceMetrics::default());
        (
            SessionManager::new(bundle, Duration::from_secs(300), metrics.clone()),
            metrics,
        )
    }

    fn spec(m: &SessionManager, entity: u32) -> SessionSpec {
        SessionSpec {
            entity: EntityId(entity),
            aspect: m.bundle().corpus.aspect_by_name("RESEARCH").unwrap(),
            selector: SelectorKind::L2qbal,
            n_queries: Some(3),
            domain_size: 0,
        }
    }

    #[test]
    fn scheduler_executes_jobs_and_counts_steps() {
        let (manager, metrics) = setup();
        let scheduler = Scheduler::new(2, 8, metrics.clone());
        let ids: Vec<u64> = (0..4)
            .map(|e| manager.create(&spec(&manager, e)).unwrap().id)
            .collect();
        for &id in &ids {
            let report = scheduler.run(manager.get(id).unwrap(), 100).unwrap();
            assert!(report.status.finished.is_some(), "budget 3 must finish");
        }
        let executed = ServiceMetrics::load(&metrics.steps_executed);
        assert!(executed > 0 && executed <= 12, "executed {executed}");
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let (manager, metrics) = setup();
        let id = manager.create(&spec(&manager, 0)).unwrap().id;
        let session = manager.get(id).unwrap();

        // Hold the session lock so the single worker blocks on job #1,
        // leaving jobs #2 (queued) and #3 (rejected) to exercise the queue.
        let scheduler = Scheduler::new(1, 1, metrics.clone());
        let guard = session.lock().unwrap();
        let rx1 = scheduler.submit(manager.get(id).unwrap(), 1).unwrap();
        // Wait until the worker has pulled job #1 off the queue.
        while scheduler.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let rx2 = scheduler.submit(manager.get(id).unwrap(), 1).unwrap();
        let err = scheduler.submit(manager.get(id).unwrap(), 1).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { retry_after_ms } if retry_after_ms > 0));
        assert_eq!(ServiceMetrics::load(&metrics.jobs_rejected), 1);

        drop(guard);
        assert!(rx1.recv().unwrap().is_ok());
        assert!(rx2.recv().unwrap().is_ok());
    }

    #[test]
    fn panicking_batch_fails_its_session_but_pool_and_others_survive() {
        let (manager, metrics) = setup();
        let scheduler = Scheduler::new(2, 8, metrics);

        let mut panic_spec = spec(&manager, 0);
        panic_spec.selector = SelectorKind::PanicProbe;
        let panic_id = manager.create(&panic_spec).unwrap().id;

        // The panicking batch replies with SessionFailed, not a hang or a
        // propagated panic.
        let err = scheduler
            .run(manager.get(panic_id).unwrap(), 4)
            .unwrap_err();
        assert!(
            matches!(&err, ServiceError::SessionFailed { message } if message.contains("panic probe")),
            "got {err:?}"
        );

        // The session is terminally Failed and its mutex is usable again.
        let slot = manager.get(panic_id).unwrap();
        let status = crate::session::lock_recover(&slot).status();
        assert!(status.failed.is_some());
        assert!(!slot.is_poisoned());

        // Re-stepping the failed session refuses cheaply.
        let err = scheduler
            .run(manager.get(panic_id).unwrap(), 1)
            .unwrap_err();
        assert!(matches!(err, ServiceError::SessionFailed { .. }));

        // Both workers still execute jobs for healthy sessions: run more
        // sessions than one worker could interleave alone.
        for entity in 1..5 {
            let id = manager.create(&spec(&manager, entity)).unwrap().id;
            let report = scheduler.run(manager.get(id).unwrap(), 100).unwrap();
            assert!(report.status.finished.is_some(), "entity {entity} stuck");
        }
        assert_eq!(scheduler.workers(), 2);
    }

    #[test]
    fn shutdown_joins_workers_and_cancels_submissions() {
        let (manager, metrics) = setup();
        let id = manager.create(&spec(&manager, 0)).unwrap().id;
        let mut scheduler = Scheduler::new(2, 4, metrics);
        scheduler.shutdown();
        let err = scheduler.submit(manager.get(id).unwrap(), 1).unwrap_err();
        assert_eq!(err, ServiceError::Canceled);
        assert_eq!(scheduler.queue_depth(), 0);
    }
}
