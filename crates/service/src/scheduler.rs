//! The worker pool: a fixed set of threads draining jobs from one
//! bounded crossbeam channel.
//!
//! Two kinds of job share the queue. The wire server's reactor hands
//! every request that may block to the pool as a closure
//! ([`Scheduler::submit_task`]) that executes the op — a `step` runs its
//! batch right there — and completes the reply itself. In-process
//! callers enqueue a step batch directly ([`Scheduler::submit`], or
//! [`Scheduler::run`] to wait for the report).
//!
//! The bounded channel is the backpressure mechanism — when it is full,
//! submission fails immediately with [`ServiceError::Overloaded`] and a
//! retry hint instead of queueing unboundedly. Each batch locks its
//! session for its duration, so steps of one session serialize while
//! distinct sessions run on distinct workers.
//!
//! Workers are panic-isolated: a batch that panics is caught with
//! `catch_unwind`, the session's poisoned mutex is recovered into a
//! terminal `Failed` state, the caller gets a
//! [`ServiceError::SessionFailed`] reply instead of a hang, and
//! `worker_panics_total` counts the event. The worker thread itself
//! survives (and an outer supervisor loop respawns the drain loop if a
//! panic ever escapes it), so one poisonous session cannot silently
//! shrink the pool for the rest of the process.

use crate::session::{lock_recover, ServiceError, ServiceMetrics, Session, StepReport};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of work for the pool.
enum JobKind {
    /// Run up to `steps` selector iterations of one session and send the
    /// report to `reply`.
    Step {
        session: Arc<Mutex<Session>>,
        steps: usize,
        reply: Sender<Result<StepReport, ServiceError>>,
    },
    /// An opaque closure (the reactor's dispatch path). The closure owns
    /// its own reply channel; panics are caught so the worker survives.
    Task(Box<dyn FnOnce() + Send>),
}

struct Job {
    kind: JobKind,
    enqueued: Instant,
    /// Trace context captured on the submitting thread; the worker
    /// re-enters it so batch/step spans land in the caller's trace.
    trace: Option<l2q_obs::TraceContext>,
}

/// Global-registry handles shared by every scheduler in the process
/// (resolved once; the hot path pays only relaxed atomics).
struct SchedulerObs {
    queue_depth: Arc<l2q_obs::Gauge>,
    queue_wait_seconds: Arc<l2q_obs::Histogram>,
    batch_seconds: Arc<l2q_obs::Histogram>,
    jobs_total: Arc<l2q_obs::Counter>,
    jobs_rejected_total: Arc<l2q_obs::Counter>,
    worker_panics_total: Arc<l2q_obs::Counter>,
    worker_respawns_total: Arc<l2q_obs::Counter>,
}

fn scheduler_obs() -> &'static SchedulerObs {
    static M: OnceLock<SchedulerObs> = OnceLock::new();
    M.get_or_init(|| {
        let reg = l2q_obs::global();
        SchedulerObs {
            queue_depth: reg.gauge("scheduler_queue_depth"),
            queue_wait_seconds: reg.histogram("scheduler_queue_wait_seconds"),
            batch_seconds: reg.histogram("scheduler_batch_seconds"),
            jobs_total: reg.counter("scheduler_jobs_total"),
            jobs_rejected_total: reg.counter("scheduler_jobs_rejected_total"),
            worker_panics_total: reg.counter("worker_panics_total"),
            worker_respawns_total: reg.counter("worker_respawns_total"),
        }
    })
}

/// Fixed worker pool over a bounded job queue.
pub struct Scheduler {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<ServiceMetrics>,
    retry_after_ms: u64,
}

impl Scheduler {
    /// Spawn `workers` threads draining a queue of capacity `queue_cap`.
    pub fn new(workers: usize, queue_cap: usize, metrics: Arc<ServiceMetrics>) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(queue_cap > 0, "need a positive queue capacity");
        let (tx, rx): (Sender<Job>, Receiver<Job>) = channel::bounded(queue_cap);
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let metrics = metrics.clone();
                std::thread::Builder::new()
                    .name(format!("l2q-worker-{i}"))
                    .spawn(move || {
                        // Supervisor loop: per-job panics are caught inside
                        // worker_loop; should one ever escape it, respawn
                        // the drain loop instead of silently shrinking the
                        // pool. A clean return (channel disconnected) ends
                        // the thread.
                        loop {
                            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                worker_loop(rx.clone(), metrics.clone())
                            }));
                            match result {
                                Ok(()) => break,
                                Err(_) => scheduler_obs().worker_respawns_total.inc(),
                            }
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers: handles,
            metrics,
            retry_after_ms: 25,
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
        self.enqueue(JobKind::Step {
            session,
            steps,
            reply: reply_tx,
        })?;
        Ok(reply_rx)
    }

    /// Enqueue an opaque closure on the same bounded queue (the
    /// reactor's dispatch path) — in-process step batches and reactor
    /// tasks share one backpressure boundary. The closure is responsible
    /// for delivering its own reply; a panic inside it is caught by the
    /// worker.
    pub fn submit_task(&self, task: Box<dyn FnOnce() + Send>) -> Result<(), ServiceError> {
        self.enqueue(JobKind::Task(task))
    }

    fn enqueue(&self, kind: JobKind) -> Result<(), ServiceError> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(ServiceError::Canceled);
        };
        let job = Job {
            kind,
            enqueued: Instant::now(),
            trace: l2q_obs::trace::current(),
        };
        let obs = scheduler_obs();
        // Inc before the send so the gauge never under-reports a queued
        // job; undone on the failure paths below.
        obs.queue_depth.inc();
        match tx.try_send(job) {
            Ok(()) => {
                obs.jobs_total.inc();
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                obs.queue_depth.dec();
                obs.jobs_rejected_total.inc();
                ServiceMetrics::add(&self.metrics.jobs_rejected, 1);
                Err(ServiceError::Overloaded {
                    retry_after_ms: self.retry_after_ms,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                obs.queue_depth.dec();
                Err(ServiceError::Canceled)
            }
        }
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

fn worker_loop(rx: Receiver<Job>, metrics: Arc<ServiceMetrics>) {
    let obs = scheduler_obs();
    while let Ok(job) = rx.recv() {
        obs.queue_depth.dec();
        // Adopt the submitter's trace context for the whole batch so the
        // queue-wait and batch spans (and everything under the harvest
        // step) join the caller's trace.
        let _trace_guard = job.trace.map(l2q_obs::trace::enter);
        let wait = job.enqueued.elapsed();
        match l2q_obs::trace::current() {
            Some(ctx) => {
                obs.queue_wait_seconds
                    .record_with_exemplar(wait.as_secs_f64(), ctx.trace_id);
                l2q_obs::trace::record_span("scheduler_queue_wait", wait);
            }
            None => obs.queue_wait_seconds.record_duration(wait),
        }
        match job.kind {
            JobKind::Step {
                session,
                steps,
                reply,
            } => {
                let result = execute_batch_spanned(&session, steps, &metrics);
                // The client may have hung up; a dead reply receiver is
                // not an error.
                let _ = reply.send(result);
            }
            JobKind::Task(task) => {
                // The closure delivers its own reply (step panics are
                // already converted inside execute_batch; this guard
                // only covers dispatch plumbing).
                if std::panic::catch_unwind(AssertUnwindSafe(task)).is_err() {
                    obs.worker_panics_total.inc();
                }
            }
        }
    }
}

/// [`execute_batch`] under the scheduler's batch span, so queued step
/// jobs and the reactor's in-task `step` execution record identical
/// `scheduler_batch` latency and tracing.
pub(crate) fn execute_batch_spanned(
    session: &Arc<Mutex<Session>>,
    steps: usize,
    metrics: &ServiceMetrics,
) -> Result<StepReport, ServiceError> {
    let _batch_span =
        l2q_obs::SpanTimer::start_named(scheduler_obs().batch_seconds.clone(), "scheduler_batch");
    execute_batch(session, steps, metrics)
}

/// Run one step batch, converting a panic into a `SessionFailed` reply:
/// the poisoned session mutex is recovered, the session is marked
/// terminally `Failed`, and the panic stops here instead of killing the
/// worker.
fn execute_batch(
    session: &Arc<Mutex<Session>>,
    steps: usize,
    metrics: &ServiceMetrics,
) -> Result<StepReport, ServiceError> {
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
