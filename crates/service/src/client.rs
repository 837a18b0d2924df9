//! A small blocking client for the wire protocol, used by `l2q-client`
//! and the integration tests.
//!
//! The client is hardened symmetrically with the server: connect, read,
//! and write all carry timeouts (the seed client could park forever on a
//! dead server), responses are framed through the same bounded
//! [`LineReader`] as the server, each request carries a monotonically
//! increasing `request_id` that the response must echo, and
//! [`Client::step`]'s overload retry backs off exponentially (capped,
//! with deterministic jitter) instead of hammering the server every
//! `retry_after_ms`.

use crate::framing::{LineReader, ReadOutcome};
use crate::proto::{Request, Response};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side socket and retry policy.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read-timeout slice; the overall wait per response is
    /// `response_timeout`, polled in slices this long.
    pub read_slice: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Total time to wait for one response line before giving up
    /// (`Duration::ZERO` = wait indefinitely).
    pub response_timeout: Duration,
    /// Response-line cap. Larger than the server's request cap because
    /// snapshot/metrics responses legitimately run to megabytes.
    pub max_line_bytes: usize,
    /// Ceiling for the exponential overload backoff.
    pub max_backoff_ms: u64,
    /// Local backoff base used only when a refusal carries no
    /// `retry_after_ms` hint — a server-provided hint always takes
    /// precedence. Either base escalates exponentially with the attempt
    /// count, capped at `max_backoff_ms`.
    pub default_backoff_ms: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(10),
            read_slice: Duration::from_millis(200),
            write_timeout: Duration::from_secs(10),
            response_timeout: Duration::from_secs(30),
            max_line_bytes: 16 * 1024 * 1024,
            max_backoff_ms: 1000,
            default_backoff_ms: 25,
        }
    }
}

/// One connection to a harvest server.
pub struct Client {
    reader: LineReader<TcpStream>,
    writer: TcpStream,
    cfg: ClientConfig,
    next_request_id: u64,
    /// The address actually connected to, for reconnecting after the
    /// server hangs up (capacity refusals close the connection).
    remote: std::net::SocketAddr,
}

/// Client-side failure: transport, timeout, or a server `ok:false`.
#[derive(Debug)]
pub enum ClientError {
    /// Socket / serialization trouble.
    Io(String),
    /// No response line arrived within the configured response timeout.
    Timeout {
        /// How long the client waited before giving up.
        waited_ms: u64,
    },
    /// The server answered but refused; retry hint included on overload.
    Refused {
        /// Server-provided error text.
        error: String,
        /// Backoff hint (overload only).
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Timeout { waited_ms } => {
                write!(f, "no response after {waited_ms}ms")
            }
            Self::Refused { error, .. } => write!(f, "server refused: {error}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Exponential backoff with a cap and deterministic jitter: the base
/// hint doubles per attempt (shift clamped so it cannot overflow), is
/// clamped to `cap_ms`, and gets up to `delay/4` of jitter mixed from
/// the attempt counter (splitmix64 finalizer) so a fleet of clients
/// rejected together does not retry in lockstep forever.
pub(crate) fn backoff_delay(hint_ms: u64, attempt: u32, cap_ms: u64) -> Duration {
    let hint = hint_ms.max(1);
    let cap = cap_ms.max(hint);
    let exp = hint
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
        .min(cap);
    let mut z = u64::from(attempt).wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    let jitter = (z ^ (z >> 31)) % (exp / 4 + 1);
    Duration::from_millis(exp + jitter)
}

/// The delay before retrying a refused request. Precedence: a server
/// `retry_after_ms` hint seeds the schedule (the server knows its own
/// load); only a hintless refusal falls back to the client's local
/// `default_backoff_ms`. Either base escalates exponentially with the
/// attempt count, capped at `max_backoff_ms`.
pub(crate) fn retry_delay(hint_ms: Option<u64>, attempt: u32, cfg: &ClientConfig) -> Duration {
    backoff_delay(
        hint_ms.unwrap_or(cfg.default_backoff_ms),
        attempt,
        cfg.max_backoff_ms,
    )
}

impl Client {
    /// Connect to a server with the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit socket/retry policy.
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, ClientError> {
        let mut last_err = None;
        let addrs = addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let mut stream = None;
        for candidate in addrs {
            match TcpStream::connect_timeout(&candidate, cfg.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            ClientError::Io(
                last_err
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "no addresses to connect to".into()),
            )
        })?;
        let read_slice = if cfg.read_slice.is_zero() {
            Duration::from_millis(200)
        } else {
            cfg.read_slice
        };
        stream
            .set_read_timeout(Some(read_slice))
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let write_timeout = if cfg.write_timeout.is_zero() {
            None
        } else {
            Some(cfg.write_timeout)
        };
        stream
            .set_write_timeout(write_timeout)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let writer = stream
            .try_clone()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let remote = stream
            .peer_addr()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(Self {
            reader: LineReader::new(stream, cfg.max_line_bytes),
            writer,
            cfg,
            next_request_id: 1,
            remote,
        })
    }

    /// The server address this client is connected to.
    pub fn remote_addr(&self) -> std::net::SocketAddr {
        self.remote
    }

    /// Re-dial the remembered server address, replacing the (possibly
    /// dead) connection. The request-id counter keeps counting up so ids
    /// stay unique across the reconnect.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let next_request_id = self.next_request_id;
        *self = Self::connect_with(self.remote, self.cfg)?;
        self.next_request_id = next_request_id;
        Ok(())
    }

    /// Send one request and read its response line. Transport errors and
    /// `ok:false` responses both surface as `Err`; use [`request_raw`] to
    /// inspect refusals (e.g. overload retry hints) yourself.
    ///
    /// [`request_raw`]: Client::request_raw
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let resp = self.request_raw(req)?;
        if resp.ok {
            Ok(resp)
        } else {
            Err(ClientError::Refused {
                error: resp.error.unwrap_or_else(|| "unspecified".into()),
                retry_after_ms: resp.retry_after_ms,
            })
        }
    }

    /// Send one request and return the raw response, `ok` or not. A
    /// `request_id` is stamped on the outgoing request (unless the caller
    /// set one) and the wait for the matching response is bounded by the
    /// configured `response_timeout`.
    pub fn request_raw(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut req = req.clone();
        if req.request_id.is_none() {
            req.request_id = Some(self.next_request_id);
            self.next_request_id += 1;
        }
        let mut line = serde_json::to_string(&req).map_err(|e| ClientError::Io(e.to_string()))?;
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let started = Instant::now();
        loop {
            match self.reader.read_line() {
                Ok(ReadOutcome::Line(resp_line)) => {
                    if resp_line.trim().is_empty() {
                        continue;
                    }
                    return serde_json::from_str(&resp_line)
                        .map_err(|e| ClientError::Io(e.to_string()));
                }
                Ok(ReadOutcome::Eof) => {
                    return Err(ClientError::Io("server closed connection".into()))
                }
                Ok(ReadOutcome::Idle) => {
                    let waited = started.elapsed();
                    if !self.cfg.response_timeout.is_zero() && waited >= self.cfg.response_timeout {
                        return Err(ClientError::Timeout {
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                }
                Ok(ReadOutcome::Overflow { buffered }) => {
                    return Err(ClientError::Io(format!(
                        "response line exceeds {} bytes ({buffered} read)",
                        self.cfg.max_line_bytes
                    )))
                }
                Err(e) => return Err(ClientError::Io(e.to_string())),
            }
        }
    }

    /// Open a session; returns its id.
    pub fn create(
        &mut self,
        entity: u32,
        aspect: &str,
        selector: &str,
        n_queries: Option<u32>,
        domain_size: u32,
    ) -> Result<u64, ClientError> {
        let mut req = Request::op("create");
        req.entity = Some(entity);
        req.aspect = Some(aspect.into());
        req.selector = Some(selector.into());
        req.n_queries = n_queries;
        req.domain_size = Some(domain_size);
        let resp = self.request(&req)?;
        resp.session
            .ok_or_else(|| ClientError::Io("create response missing session id".into()))
    }

    /// Run a step batch, retrying on overload with capped exponential
    /// backoff seeded by the server's hint (`max_retries` rejections
    /// before giving up).
    pub fn step(
        &mut self,
        session: u64,
        steps: u32,
        max_retries: usize,
    ) -> Result<Response, ClientError> {
        self.step_with_deadline(session, steps, max_retries, 0)
    }

    /// [`step`](Client::step) with a per-request deadline in
    /// milliseconds (0 = server default / unbounded). A deadline miss
    /// comes back as a `Refused` whose error mentions the deadline; the
    /// batch keeps running server-side.
    pub fn step_with_deadline(
        &mut self,
        session: u64,
        steps: u32,
        max_retries: usize,
        deadline_ms: u64,
    ) -> Result<Response, ClientError> {
        let mut req = Request::for_session("step", session);
        req.steps = Some(steps);
        if deadline_ms > 0 {
            req.deadline_ms = Some(deadline_ms);
        }
        self.request_with_overload_retries(&req, max_retries)
    }

    /// [`step`](Client::step) with tracing requested: the server starts
    /// a fresh trace at its edge and echoes the trace id in the
    /// response (`Response::trace_id`), ready for [`trace_by_id`].
    ///
    /// [`trace_by_id`]: Client::trace_by_id
    pub fn step_traced(
        &mut self,
        session: u64,
        steps: u32,
        max_retries: usize,
    ) -> Result<Response, ClientError> {
        let mut req = Request::for_session("step", session);
        req.steps = Some(steps);
        req.trace = Some(true);
        self.request_with_overload_retries(&req, max_retries)
    }

    /// The overload retry loop shared by the step variants: refusals
    /// that look like overload back off exponentially (server hint
    /// seeding the schedule) for up to `max_retries` rejections.
    fn request_with_overload_retries(
        &mut self,
        req: &Request,
        max_retries: usize,
    ) -> Result<Response, ClientError> {
        let mut rejections: u32 = 0;
        loop {
            match self.request(req) {
                Err(ClientError::Refused {
                    retry_after_ms,
                    error,
                }) if retry_after_ms.is_some() || error.contains("at capacity") => {
                    rejections += 1;
                    if rejections as usize > max_retries {
                        return Err(ClientError::Refused {
                            error,
                            retry_after_ms,
                        });
                    }
                    // The server's hint takes precedence over the local
                    // schedule; only a hintless refusal uses
                    // default_backoff_ms (see retry_delay).
                    std::thread::sleep(retry_delay(retry_after_ms, rejections, &self.cfg));
                    if error.contains("at capacity") {
                        // A capacity refusal closes the connection, so
                        // honoring the hint means re-dialing — retrying on
                        // the dead socket would turn the polite refusal
                        // into a transport error.
                        self.reconnect()?;
                    }
                }
                other => return other,
            }
        }
    }

    /// Fetch every buffered span of one trace (`trace` op, `by_id`
    /// mode). Against a router this stitches the router's spans with
    /// every shard's.
    pub fn trace_by_id(&mut self, trace_id: u64) -> Result<Response, ClientError> {
        let mut req = Request::op("trace");
        req.trace_id = Some(trace_id);
        req.mode = Some("by_id".into());
        self.request(&req)
    }

    /// Fetch the most recently recorded spans (`trace` op, `recent`).
    pub fn trace_recent(&mut self, limit: u64) -> Result<Response, ClientError> {
        let mut req = Request::op("trace");
        req.mode = Some("recent".into());
        req.limit = Some(limit);
        self.request(&req)
    }

    /// Fetch the slowest buffered root spans (`trace` op, `slow`).
    pub fn trace_slow(&mut self, limit: u64) -> Result<Response, ClientError> {
        let mut req = Request::op("trace");
        req.mode = Some("slow".into());
        req.limit = Some(limit);
        self.request(&req)
    }

    /// Fetch the fleet-merged metrics plane (router only): counters and
    /// gauges per shard as `shard`-labeled series, histograms merged
    /// bucket-wise for fleet percentiles.
    pub fn fleet_metrics(&mut self, format: &str) -> Result<Response, ClientError> {
        let mut req = Request::op("fleet_metrics");
        req.format = Some(format.into());
        self.request(&req)
    }

    /// Fetch a session's status.
    pub fn status(&mut self, session: u64) -> Result<Response, ClientError> {
        self.request(&Request::for_session("status", session))
    }

    /// Fetch a session's harvested pages and fired queries.
    pub fn snapshot(&mut self, session: u64) -> Result<Response, ClientError> {
        self.request(&Request::for_session("snapshot", session))
    }

    /// Close a session.
    pub fn close(&mut self, session: u64) -> Result<Response, ClientError> {
        self.request(&Request::for_session("close", session))
    }

    /// Fetch service-wide stats.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::op("stats"))
    }

    /// Fetch the server's metrics registry. `format` is `"json"` (the
    /// response's `metrics` field) or `"text"` (Prometheus exposition in
    /// `metrics_text`).
    pub fn metrics(&mut self, format: &str) -> Result<Response, ClientError> {
        let mut req = Request::op("metrics");
        req.format = Some(format.into());
        self.request(&req)
    }

    /// Force a durable snapshot of a session (server must run with
    /// `--data-dir`).
    pub fn persist(&mut self, session: u64) -> Result<Response, ClientError> {
        self.request(&Request::for_session("persist", session))
    }

    /// Restore a stored session into residency.
    pub fn restore(&mut self, session: u64) -> Result<Response, ClientError> {
        self.request(&Request::for_session("restore", session))
    }

    /// List every resident and durably stored session.
    pub fn list_sessions(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::op("list_sessions"))
    }

    /// Drain a session out of residency, keeping its durable state (the
    /// migration drain hook; server must run with `--data-dir`).
    pub fn detach(&mut self, session: u64) -> Result<Response, ClientError> {
        self.request(&Request::for_session("detach", session))
    }

    /// Fleet topology and per-shard health (router only).
    pub fn fleet_status(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::op("fleet_status"))
    }

    /// Mark a shard draining and migrate its resident sessions away
    /// (router only).
    pub fn drain_shard(&mut self, shard: &str) -> Result<Response, ClientError> {
        let mut req = Request::op("drain_shard");
        req.shard = Some(shard.into());
        self.request(&req)
    }

    /// Register a new shard on the ring (router only).
    pub fn join_shard(&mut self, shard: &str, addr: &str) -> Result<Response, ClientError> {
        let mut req = Request::op("join_shard");
        req.shard = Some(shard.into());
        req.shard_addr = Some(addr.into());
        self.request(&req)
    }

    /// Live-migrate a session: drain on its current shard, restore on
    /// `target` (or the ring's choice when `None`). Router only.
    pub fn migrate(&mut self, session: u64, target: Option<&str>) -> Result<Response, ClientError> {
        let mut req = Request::for_session("migrate", session);
        req.shard = target.map(Into::into);
        self.request(&req)
    }

    /// Rolling restart of the whole fleet: each shard in turn is
    /// drained, its supervised child restarted, and rejoined once it
    /// answers again; aborts below majority quorum. Blocks until the
    /// fleet has cycled (router only).
    pub fn rolling_restart(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::op("rolling_restart"))
    }

    /// One row per supervised shard child process (router only, needs
    /// `--supervise`).
    pub fn supervisor_status(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::op("supervisor_status"))
    }

    /// Ask the server to shut down.
    pub fn shutdown_server(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::op("shutdown"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let d1 = backoff_delay(25, 1, 1000);
        let d2 = backoff_delay(25, 2, 1000);
        let d5 = backoff_delay(25, 5, 1000);
        let d20 = backoff_delay(25, 20, 1000);
        // Base doubles: 25, 50, ..., within the jitter band [exp, 1.25*exp].
        assert!(d1.as_millis() >= 25 && d1.as_millis() <= 32, "{d1:?}");
        assert!(d2.as_millis() >= 50 && d2.as_millis() <= 63, "{d2:?}");
        assert!(d5.as_millis() >= 400 && d5.as_millis() <= 500, "{d5:?}");
        // Deep attempts are capped (plus at most 25% jitter).
        assert!(
            d20.as_millis() >= 1000 && d20.as_millis() <= 1250,
            "{d20:?}"
        );
    }

    #[test]
    fn backoff_is_deterministic_per_attempt() {
        assert_eq!(backoff_delay(25, 3, 1000), backoff_delay(25, 3, 1000));
        // Jitter varies across attempts even at the cap.
        let at_cap: Vec<_> = (10..14).map(|a| backoff_delay(25, a, 1000)).collect();
        assert!(
            at_cap.windows(2).any(|w| w[0] != w[1]),
            "jitter never varied: {at_cap:?}"
        );
    }

    #[test]
    fn backoff_survives_zero_hint_and_huge_attempts() {
        assert!(backoff_delay(0, 1, 1000).as_millis() >= 1);
        let huge = backoff_delay(25, u32::MAX, 1000);
        assert!(huge.as_millis() <= 1250, "{huge:?}");
    }

    /// Satellite regression: a server `retry_after_ms` hint must take
    /// precedence over the client's local backoff schedule — in both
    /// directions (a small hint shortens the wait a large local default
    /// would impose, a large hint stretches it).
    #[test]
    fn server_hint_takes_precedence_over_local_schedule() {
        let cfg = ClientConfig {
            default_backoff_ms: 400,
            max_backoff_ms: 10_000,
            ..ClientConfig::default()
        };
        // Hinted: the 100ms hint wins over the 400ms local default.
        let hinted = retry_delay(Some(100), 1, &cfg);
        assert!(
            hinted.as_millis() >= 100 && hinted.as_millis() <= 125,
            "{hinted:?}"
        );
        // A hint larger than the local default also wins.
        let big_hint = retry_delay(Some(800), 1, &cfg);
        assert!(big_hint.as_millis() >= 800, "{big_hint:?}");
        // Hintless: the local default schedule applies.
        let local = retry_delay(None, 1, &cfg);
        assert!(
            local.as_millis() >= 400 && local.as_millis() <= 500,
            "{local:?}"
        );
    }

    /// Both bases escalate exponentially under repeated refusals and
    /// respect the cap.
    #[test]
    fn retry_delay_escalates_whichever_base_applies() {
        let cfg = ClientConfig {
            default_backoff_ms: 50,
            max_backoff_ms: 1000,
            ..ClientConfig::default()
        };
        assert!(retry_delay(Some(100), 2, &cfg) >= Duration::from_millis(200));
        assert!(retry_delay(None, 2, &cfg) >= Duration::from_millis(100));
        assert!(retry_delay(Some(100), 30, &cfg) <= Duration::from_millis(1250));
    }
}
