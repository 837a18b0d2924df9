//! The event-driven serving engine: one reactor thread multiplexing
//! the listener and every connection over an epoll readiness loop
//! (vendored `mio` subset). It is the whole front door of both
//! `l2q-serve` and `l2q-router`: accept, admission, framing, dispatch
//! and writes all happen on this thread.
//!
//! Each connection is a nonblocking state machine: readable bytes feed
//! the bounded [`LineBuffer`] incrementally, complete request lines
//! dispatch either inline (cheap never-blocking ops, on the reactor
//! thread itself) or to the CPU worker pool via a [`WireHandler`], and
//! responses complete back through the reactor's completion queue — a
//! worker never blocks on a slow peer's socket. Writes are buffered;
//! `WouldBlock` re-registers the connection for write readiness and the
//! flush resumes on the next readiness event.
//!
//! The wire boundary's hardening lives here:
//!
//! * **Per-request deadlines** — the reactor owns the timer: an expired
//!   in-flight request gets its `Deadline` error written immediately,
//!   the eventual worker completion is tombstoned, and the batch keeps
//!   running in the background.
//! * **Oversized lines** — an `ok:false` error line, then a bounded
//!   drain to the line's terminating newline so the close is a graceful
//!   FIN.
//! * **Admission control** — the listener is registered under its own
//!   token and accepted on readiness. Admitted connections are counted
//!   on this thread at accept and released in `close`, on every close
//!   path (socket errors included), so the count needs no atomics. A
//!   connection past the cap is never registered: it gets the one
//!   capacity-refusal line in a single nonblocking write, then a close.
//!   An accept error other than `WouldBlock` (e.g. `EMFILE`) parks the
//!   listener for `ACCEPT_PAUSE` rather than spinning on its
//!   level-triggered readiness.
//! * **Bounded drain on shutdown** — once the stop flag is set the
//!   listener closes, in-flight requests finish and flush within
//!   `DRAIN_TIMEOUT`, and everything else closes.
//! * **Panic isolation** — pool dispatch runs under the worker pool's
//!   `catch_unwind`, and a reply handle dropped without completing
//!   (any backstop path) still delivers an internal-error response
//!   instead of hanging the connection.
//!
//! Backpressure: at most one pool request per connection is in flight
//! (pipelined requests wait in the socket and are answered in order),
//! and parsing pauses while more than `MAX_OUT_BUFFER` response bytes
//! await a slow reader — the registration drops read interest so
//! level-triggered epoll does not spin on the unread socket.

use crate::framing::{Frame, LineBuffer};
use crate::proto::{Request, Response};
use crate::session::ServiceError;
use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token, Waker};
use std::io::{self, ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WAKER_TOKEN: Token = Token(0);
const LISTENER_TOKEN: Token = Token(1);
/// Connection slab index `i` polls under `Token(i + CONN_TOKEN_BASE)`.
const CONN_TOKEN_BASE: usize = 2;
/// Idle poll tick: the upper bound on how stale a deadline/stop check
/// can get when no readiness events arrive.
const TICK: Duration = Duration::from_millis(200);
/// Per-read granularity off a ready socket.
const READ_CHUNK: usize = 4096;
/// Response bytes buffered for a slow reader before parsing pauses.
const MAX_OUT_BUFFER: usize = 256 * 1024;
/// How long an oversized-line drain may wait for the terminator.
const OVERSIZED_DRAIN: Duration = Duration::from_secs(2);
/// Backoff hint carried by the capacity refusal.
const REFUSAL_RETRY_AFTER_MS: u64 = 100;
/// How long the listener stays parked after an accept error other than
/// `WouldBlock` (e.g. `EMFILE`): the pending connection stays queued,
/// so level-triggered readiness would otherwise fire again at once.
const ACCEPT_PAUSE: Duration = Duration::from_millis(5);
/// Shutdown drain bound: in-flight requests get this long to finish and
/// flush before their connections are closed anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Reactor metrics, registered once per process.
struct ReactorObs {
    registered: Arc<l2q_obs::Gauge>,
    readiness_events: Arc<l2q_obs::Counter>,
    wakeups: Arc<l2q_obs::Counter>,
    write_stalls: Arc<l2q_obs::Counter>,
}

fn reactor_obs() -> &'static ReactorObs {
    static OBS: OnceLock<ReactorObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = l2q_obs::global();
        ReactorObs {
            registered: reg.gauge("reactor_registered_connections"),
            readiness_events: reg.counter("reactor_readiness_events_total"),
            wakeups: reg.counter("reactor_wakeups_total"),
            write_stalls: reg.counter("reactor_write_stalls_total"),
        }
    })
}

/// Protocol glue the engine serves: the service and the router each
/// implement this over their own dispatch core.
pub trait WireHandler: Send + Sync + 'static {
    /// Handle an op inline on the reactor thread if (and only if) it
    /// never blocks — no session locks, no disk, no network. `None`
    /// sends the request to [`WireHandler::dispatch`].
    fn run_inline(&self, req: &Request) -> Option<Response>;

    /// Effective deadline for a pool-dispatched request in milliseconds
    /// (0 = none). The reactor enforces it: on expiry the caller gets a
    /// `Deadline` error while the dispatched work keeps running.
    fn deadline_ms(&self, req: &Request) -> u64;

    /// Execute `req` off the reactor thread and complete `reply` with
    /// the response. Must not block the calling (reactor) thread: hand
    /// the work to a pool with
    /// [`Scheduler::dispatch`](crate::Scheduler::dispatch), which answers
    /// a queue refusal (`Overloaded`) immediately.
    fn dispatch(&self, req: Request, reply: ReplyHandle);

    /// A request line exceeded the configured cap (metrics hook).
    fn on_oversized(&self) {}

    /// A dispatched request missed its deadline (metrics hook).
    fn on_deadline(&self) {}

    /// The admitted-connection count moved by `delta`: `+1` at admission,
    /// `-1` when an admitted connection closes (metrics hook).
    fn on_admission(&self, _delta: i64) {}

    /// A connection past the cap got the capacity refusal (metrics hook).
    fn on_refused(&self) {}
}

struct Completion {
    token: usize,
    gen: u64,
    seq: u64,
    resp: Response,
}

struct Shared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Shared {
    fn complete(&self, token: usize, gen: u64, seq: u64, resp: Response) {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion {
                token,
                gen,
                seq,
                resp,
            });
        let _ = self.waker.wake();
    }
}

/// One in-flight dispatched request's reply path back into the reactor.
/// Completing (or dropping — the backstop sends an internal error so a
/// lost reply can never hang the connection) wakes the reactor, which
/// writes the response on the owning connection.
pub struct ReplyHandle {
    shared: Arc<Shared>,
    token: usize,
    gen: u64,
    seq: u64,
    done: bool,
}

impl ReplyHandle {
    /// Deliver the response for this request.
    pub fn complete(mut self, resp: Response) {
        self.done = true;
        self.shared.complete(self.token, self.gen, self.seq, resp);
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        if !self.done {
            let resp = Response {
                ok: false,
                error: Some("internal error: reply dropped".into()),
                ..Response::default()
            };
            self.shared.complete(self.token, self.gen, self.seq, resp);
        }
    }
}

/// Engine sizing and policy.
pub struct EngineConfig {
    /// Reactor thread name.
    pub name: String,
    /// Request-line byte cap: a longer line gets an `ok:false` error and
    /// a graceful close.
    pub max_line_bytes: usize,
    /// Admission cap: a connection accepted while this many are open
    /// gets the capacity refusal and a close.
    pub max_connections: usize,
    /// The capacity refusal's error text, e.g. `"server at capacity"`.
    pub at_capacity: &'static str,
    /// Shared stop flag; the engine stops accepting, drains and exits
    /// once it is set.
    pub stop: Arc<AtomicBool>,
}

/// A running reactor engine; join via [`EngineHandle::join`] after
/// setting the stop flag.
pub struct EngineHandle {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl EngineHandle {
    /// Wake the reactor and join its thread (idempotent). The engine
    /// exits on its own once the stop flag is set and the drain completes.
    pub fn join(&mut self) {
        let _ = self.shared.waker.wake();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        self.join();
    }
}

/// Spawn the reactor thread serving `handler` on `listener` under `cfg`.
pub fn spawn_engine(
    handler: Arc<dyn WireHandler>,
    listener: std::net::TcpListener,
    cfg: EngineConfig,
) -> io::Result<EngineHandle> {
    let poll = Poll::new()?;
    let waker = Waker::new(poll.registry(), WAKER_TOKEN)?;
    let mut listener = TcpListener::from_std(listener)?;
    poll.registry()
        .register(&mut listener, LISTENER_TOKEN, Interest::READABLE)?;
    let shared = Arc::new(Shared {
        completions: Mutex::new(Vec::new()),
        waker,
    });
    let mut engine = Engine {
        poll,
        handler,
        shared: shared.clone(),
        listener: Some(listener),
        accept_paused_until: None,
        admitted: 0,
        max_connections: cfg.max_connections.max(1),
        at_capacity: cfg.at_capacity,
        conns: Vec::new(),
        free: Vec::new(),
        next_gen: 1,
        max_line_bytes: cfg.max_line_bytes.max(1),
        stop: cfg.stop,
        drain_deadline: None,
    };
    let thread = std::thread::Builder::new()
        .name(cfg.name)
        .spawn(move || engine.run())?;
    Ok(EngineHandle {
        shared,
        thread: Some(thread),
    })
}

enum ConnState {
    /// Serving requests.
    Open,
    /// An oversized line was rejected; discarding until its terminator
    /// (bounded by `deadline`), then the connection closes gracefully.
    Draining { deadline: Instant },
    /// Flush whatever is buffered, then close.
    Closing,
}

struct Pending {
    seq: u64,
    deadline: Option<Instant>,
    deadline_ms: u64,
    request_id: Option<u64>,
}

struct Conn {
    stream: TcpStream,
    buf: LineBuffer,
    out: Vec<u8>,
    written: usize,
    state: ConnState,
    /// The one in-flight dispatched request (parsing pauses until it
    /// completes or its deadline fires).
    pending: Option<Pending>,
    /// Highest seq whose completion must be discarded (deadline fired
    /// first and the error response already went out).
    discard_through: u64,
    seq: u64,
    gen: u64,
    /// Peer sent FIN; close once in-flight work and writes finish.
    eof: bool,
    interest: Interest,
}

impl Conn {
    fn backlogged(&self) -> bool {
        self.out.len() - self.written >= MAX_OUT_BUFFER
    }

    fn has_output(&self) -> bool {
        self.written < self.out.len()
    }

    fn desired_interest(&self) -> Interest {
        let want_write = self.has_output();
        let want_read = match self.state {
            ConnState::Open => self.pending.is_none() && !self.backlogged() && !self.eof,
            ConnState::Draining { .. } => true,
            ConnState::Closing => false,
        };
        match (want_read, want_write) {
            (true, true) => Interest::READABLE | Interest::WRITABLE,
            (true, false) => Interest::READABLE,
            (false, true) => Interest::WRITABLE,
            // Parked: hangup/error notifications only. Level-triggered
            // epoll would spin if read interest stayed on while parsing
            // is paused with unread socket bytes.
            (false, false) => Interest::NONE,
        }
    }
}

struct Engine {
    poll: Poll,
    handler: Arc<dyn WireHandler>,
    shared: Arc<Shared>,
    /// `None` once the stop flag is seen: the socket closes and new
    /// connections are refused by the kernel.
    listener: Option<TcpListener>,
    /// Set while the listener is parked after an accept error.
    accept_paused_until: Option<Instant>,
    /// Open connections; every registered connection was admitted.
    admitted: usize,
    max_connections: usize,
    at_capacity: &'static str,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    max_line_bytes: usize,
    stop: Arc<AtomicBool>,
    drain_deadline: Option<Instant>,
}

impl Engine {
    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        let mut ready: Vec<(usize, bool, bool)> = Vec::new();
        loop {
            if self.shutdown_pass() {
                break;
            }
            let timeout = self.next_timeout();
            if self.poll.poll(&mut events, Some(timeout)).is_err() {
                // A failing selector is unrecoverable; drain and exit so
                // the process does not serve half-dead sockets forever.
                self.stop.store(true, Ordering::SeqCst);
                continue;
            }
            let obs = reactor_obs();
            ready.clear();
            let mut acceptable = false;
            for ev in &events {
                if ev.token() == WAKER_TOKEN {
                    obs.wakeups.inc();
                    continue;
                }
                obs.readiness_events.inc();
                if ev.token() == LISTENER_TOKEN {
                    acceptable = true;
                    continue;
                }
                let idx = ev.token().0 - CONN_TOKEN_BASE;
                ready.push((idx, ev.is_readable(), ev.is_writable()));
            }
            for &(idx, readable, writable) in &ready {
                if self.conns.get(idx).map(Option::is_some) != Some(true) {
                    continue; // closed earlier in this same batch
                }
                if writable {
                    self.flush(idx);
                }
                if readable && self.conns[idx].is_some() {
                    self.read_ready(idx);
                }
                self.settle(idx);
            }
            // After the batch: a slot closed above may be reused, and this
            // batch's events must not reach the connection that takes it.
            if acceptable {
                self.accept_ready();
            }
            self.drain_completions();
            self.check_deadlines();
        }
    }

    /// Stop-flag handling: start the bounded drain, close connections
    /// with nothing left in flight, and report whether the engine is
    /// done. In-flight requests get until the drain deadline to finish
    /// and flush.
    fn shutdown_pass(&mut self) -> bool {
        if !self.stop.load(Ordering::SeqCst) {
            return false;
        }
        if let Some(mut listener) = self.listener.take() {
            let _ = self.poll.registry().deregister(&mut listener);
        }
        let deadline = *self
            .drain_deadline
            .get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
        let expired = Instant::now() >= deadline;
        for idx in 0..self.conns.len() {
            let Some(conn) = &self.conns[idx] else {
                continue;
            };
            let in_flight = conn.pending.is_some() || conn.has_output();
            if expired || !in_flight {
                self.close(idx);
            }
        }
        self.conns.iter().all(Option::is_none)
    }

    fn next_timeout(&self) -> Duration {
        let conn_deadlines = self.conns.iter().flatten().flat_map(|conn| {
            let state = match conn.state {
                ConnState::Draining { deadline } => Some(deadline),
                _ => None,
            };
            [conn.pending.as_ref().and_then(|p| p.deadline), state]
        });
        let next = [self.drain_deadline, self.accept_paused_until]
            .into_iter()
            .chain(conn_deadlines)
            .flatten()
            .min();
        match next {
            Some(d) => d.saturating_duration_since(Instant::now()).min(TICK),
            None => TICK,
        }
    }

    /// Accept every queued connection. Admission is decided here, on the
    /// reactor thread: under the cap the connection is admitted and
    /// counted; at the cap it gets the capacity refusal.
    fn accept_ready(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _peer)) if self.admitted >= self.max_connections => self.refuse(stream),
                Ok((stream, _peer)) => self.register(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.set_listener_interest(Interest::NONE);
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
                    return;
                }
            }
        }
    }

    /// Re-arm (or park, with `Interest::NONE`) the listener. A listener
    /// that cannot be re-armed is closed: accepting stops rather than
    /// spins.
    fn set_listener_interest(&mut self, interest: Interest) {
        if let Some(listener) = self.listener.as_mut() {
            if self
                .poll
                .registry()
                .reregister(listener, LISTENER_TOKEN, interest)
                .is_err()
            {
                self.listener = None;
            }
        }
    }

    /// Past the cap: one refusal line, then a close. The short line
    /// always fits the empty send buffer of a fresh socket, so a single
    /// nonblocking write queues all of it ahead of the close.
    fn refuse(&self, mut stream: TcpStream) {
        self.handler.on_refused();
        let mut line = Vec::new();
        let resp = Response {
            ok: false,
            error: Some(self.at_capacity.into()),
            retry_after_ms: Some(REFUSAL_RETRY_AFTER_MS),
            ..Response::default()
        };
        push_response(&mut line, &resp);
        let _ = stream.write_all(&line);
    }

    fn register(&mut self, mut stream: TcpStream) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = Token(idx + CONN_TOKEN_BASE);
        if self
            .poll
            .registry()
            .register(&mut stream, token, Interest::READABLE)
            .is_err()
        {
            self.free.push(idx);
            return; // the socket closes as `stream` drops
        }
        self.conns[idx] = Some(Conn {
            stream,
            buf: LineBuffer::new(self.max_line_bytes),
            out: Vec::new(),
            written: 0,
            state: ConnState::Open,
            pending: None,
            discard_through: 0,
            seq: 0,
            gen: self.next_gen,
            eof: false,
            interest: Interest::READABLE,
        });
        self.next_gen += 1;
        reactor_obs().registered.inc();
        self.admitted += 1;
        self.handler.on_admission(1);
    }

    fn drain_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut q = self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *q)
        };
        for completion in batch {
            self.deliver(completion);
        }
    }

    fn deliver(&mut self, completion: Completion) {
        let idx = completion.token;
        let Some(Some(conn)) = self.conns.get_mut(idx) else {
            return; // connection already closed
        };
        if conn.gen != completion.gen || completion.seq <= conn.discard_through {
            return; // stale generation or tombstoned by a deadline
        }
        let Some(pending) = conn.pending.take_if(|p| p.seq == completion.seq) else {
            return;
        };
        let mut resp = completion.resp;
        resp.request_id = pending.request_id;
        let shutting_down = resp.state.as_deref() == Some("shutting_down");
        push_response(&mut conn.out, &resp);
        if shutting_down {
            conn.state = ConnState::Closing;
            self.stop.store(true, Ordering::SeqCst);
        }
        self.process_frames(idx);
        self.flush(idx);
        self.settle(idx);
    }

    fn check_deadlines(&mut self) {
        let now = Instant::now();
        if self.accept_paused_until.is_some_and(|t| now >= t) {
            self.accept_paused_until = None;
            self.set_listener_interest(Interest::READABLE);
        }
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if matches!(conn.state, ConnState::Draining { deadline } if now >= deadline) {
                // The oversized line never terminated in time; the error
                // response is flushed (or never will be).
                conn.state = ConnState::Closing;
            }
            let expired = conn
                .pending
                .as_ref()
                .and_then(|p| p.deadline)
                .is_some_and(|d| now >= d);
            if expired {
                let pending = conn.pending.take().expect("checked above");
                conn.discard_through = pending.seq;
                self.handler.on_deadline();
                let mut resp = Response::err(&ServiceError::Deadline {
                    deadline_ms: pending.deadline_ms,
                });
                resp.request_id = pending.request_id;
                push_response(&mut conn.out, &resp);
                // The dispatched batch keeps running; only this caller's
                // wait is cut short. Parsing resumes now.
                self.process_frames(idx);
                self.flush(idx);
            }
            self.settle(idx);
        }
    }

    fn read_ready(&mut self, idx: usize) {
        if self.stop.load(Ordering::SeqCst) {
            return; // draining: no new requests
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            // Backpressure: pause reading while a request is in flight
            // or a slow reader has a full output backlog.
            let paused = match conn.state {
                ConnState::Open => conn.pending.is_some() || conn.backlogged(),
                ConnState::Draining { .. } => false,
                ConnState::Closing => true,
            };
            if paused || conn.eof {
                return;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    self.finish_eof(idx);
                    return;
                }
                Ok(n) => {
                    conn.buf.feed(&chunk[..n]);
                    self.advance(idx);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// Post-feed progression: drain an overflow line or parse frames.
    fn advance(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        match conn.state {
            // Terminator found: the rejected line is fully consumed,
            // close gracefully after the flush.
            ConnState::Draining { .. } if conn.buf.discard_to_newline() => {
                conn.state = ConnState::Closing;
            }
            ConnState::Open => self.process_frames(idx),
            _ => {}
        }
    }

    /// Peer FIN: deliver any unterminated trailing line, then close
    /// once in-flight work and buffered output finish.
    fn finish_eof(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if matches!(conn.state, ConnState::Open) && conn.pending.is_none() {
            if let Some(line) = conn.buf.finish() {
                self.handle_line(idx, line);
            }
        }
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if matches!(conn.state, ConnState::Open) && conn.pending.is_none() {
            conn.state = ConnState::Closing;
        }
    }

    /// Parse and dispatch buffered frames until input runs dry, a
    /// request goes in flight, or the connection leaves `Open`.
    fn process_frames(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if !matches!(conn.state, ConnState::Open) || conn.pending.is_some() || conn.backlogged()
            {
                return;
            }
            match conn.buf.next_frame() {
                None => {
                    if conn.eof {
                        conn.state = ConnState::Closing;
                    }
                    return;
                }
                Some(Frame::Overflow { buffered }) => {
                    self.handler.on_oversized();
                    let max = self.max_line_bytes;
                    let Some(conn) = self.conns[idx].as_mut() else {
                        return;
                    };
                    let resp = Response {
                        ok: false,
                        error: Some(format!(
                            "request line exceeds {max} bytes ({buffered} read); closing connection"
                        )),
                        ..Response::default()
                    };
                    push_response(&mut conn.out, &resp);
                    conn.state = ConnState::Draining {
                        deadline: Instant::now() + OVERSIZED_DRAIN,
                    };
                    // Whatever is already buffered may hold the newline.
                    if conn.buf.discard_to_newline() {
                        conn.state = ConnState::Closing;
                    }
                    return;
                }
                Some(Frame::Line(line)) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.handle_line(idx, line);
                }
            }
        }
    }

    fn handle_line(&mut self, idx: usize, line: String) {
        let req = match serde_json::from_str::<Request>(&line) {
            Ok(req) => req,
            Err(e) => {
                let Some(conn) = self.conns[idx].as_mut() else {
                    return;
                };
                let resp = Response {
                    ok: false,
                    error: Some(format!("bad request: {e}")),
                    ..Response::default()
                };
                push_response(&mut conn.out, &resp);
                return;
            }
        };
        if let Some(mut resp) = self.handler.run_inline(&req) {
            resp.request_id = req.request_id;
            let shutting_down = resp.state.as_deref() == Some("shutting_down");
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            push_response(&mut conn.out, &resp);
            if shutting_down {
                conn.state = ConnState::Closing;
                self.stop.store(true, Ordering::SeqCst);
            }
            return;
        }
        let deadline_ms = self.handler.deadline_ms(&req);
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        conn.seq += 1;
        conn.pending = Some(Pending {
            seq: conn.seq,
            deadline: (deadline_ms > 0)
                .then(|| Instant::now() + Duration::from_millis(deadline_ms)),
            deadline_ms,
            request_id: req.request_id,
        });
        let reply = ReplyHandle {
            shared: self.shared.clone(),
            token: idx,
            gen: conn.gen,
            seq: conn.seq,
            done: false,
        };
        self.handler.dispatch(req, reply);
    }

    /// Write buffered output until done or `WouldBlock`.
    fn flush(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    reactor_obs().write_stalls.inc();
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        conn.out.clear();
        conn.written = 0;
        // Output drained: a paused parser may resume.
        self.process_frames(idx);
    }

    /// Reconcile registration interest with the connection's state and
    /// close connections that have finished.
    fn settle(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let done = !conn.has_output() && matches!(conn.state, ConnState::Closing);
        if done {
            self.close(idx);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest {
            conn.interest = desired;
            if self
                .poll
                .registry()
                .reregister(&mut conn.stream, Token(idx + CONN_TOKEN_BASE), desired)
                .is_err()
            {
                self.close(idx);
            }
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let _ = self.poll.registry().deregister(&mut conn.stream);
        reactor_obs().registered.dec();
        self.free.push(idx);
        self.admitted -= 1;
        self.handler.on_admission(-1);
        // conn drops here: the socket closes.
    }
}

fn push_response(out: &mut Vec<u8>, resp: &Response) {
    let line = serde_json::to_string(resp).unwrap_or_else(|_| "{\"ok\":false}".into());
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
}
