//! The load generator. Every request goes through `Client::request_raw`,
//! never through `Client::step`, whose overload retries would hide
//! refusals: each request is counted as sent, succeeded, refused or timed
//! out, and a request that did not succeed enters the latency samples as
//! infinitely slow.

use crate::fleet::Trajectory;
use crate::plan::{Spec, SELECTORS};
use l2q_service::{Client, ClientError, Request, Response};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Create,
    Step,
    Migrate,
    Snapshot,
    Close,
}

pub const OPS: [Op; 5] = [Op::Create, Op::Step, Op::Migrate, Op::Snapshot, Op::Close];

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Step => "step",
            Op::Migrate => "migrate",
            Op::Snapshot => "snapshot",
            Op::Close => "close",
        }
    }
}

/// Error texts kept for the report.
const MAX_ERRORS: usize = 5;

/// What happened to the requests of one op.
#[derive(Clone, Copy, Debug, Default)]
pub struct Count {
    pub sent: u64,
    pub ok: u64,
    pub refused: u64,
    pub timed_out: u64,
    pub failed: u64,
}

impl Count {
    pub fn not_ok(&self) -> u64 {
        self.refused + self.timed_out + self.failed
    }
}

/// One harvest as the fleet returned it.
#[derive(Clone, Debug)]
pub struct Harvest {
    pub spec: Spec,
    pub wire: Trajectory,
    pub completed: bool,
}

/// Everything a generator observed.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub counts: [Count; 5],
    /// Client-observed latency per op, in ms (failures are infinite).
    pub lat: [Vec<f64>; 5],
    /// The first step after each migration, in ms.
    pub resume_ms: Vec<f64>,
    /// Sum of every request's round trip, in seconds.
    pub rtt_s: f64,
    /// For each step that advanced a harvest and was answered inside the
    /// window: when it was answered (seconds into the window) and its
    /// latency in ms. A failed step enters with infinite latency.
    pub timeline: Vec<(f64, f64)>,
    /// For each session closed inside the window: when (seconds into the
    /// window), paired with a count of 1.
    pub closed_at: Vec<(f64, f64)>,
    pub harvests: Vec<Harvest>,
    /// The first few refusal and transport errors, for the report.
    pub errors: Vec<String>,
    /// The machine's (steal, total) CPU ticks at each window edge.
    pub host: Vec<(f64, f64)>,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        for i in 0..OPS.len() {
            let c = &mut self.counts[i];
            let d = o.counts[i];
            c.sent += d.sent;
            c.ok += d.ok;
            c.refused += d.refused;
            c.timed_out += d.timed_out;
            c.failed += d.failed;
        }
        for (mine, theirs) in self.lat.iter_mut().zip(o.lat) {
            mine.extend(theirs);
        }
        self.resume_ms.extend(o.resume_ms);
        self.rtt_s += o.rtt_s;
        self.timeline.extend(o.timeline);
        self.closed_at.extend(o.closed_at);
        self.harvests.extend(o.harvests);
        self.errors.extend(o.errors);
        self.errors.truncate(MAX_ERRORS);
        self.host.extend(o.host);
    }

    pub fn attempted(&self) -> u64 {
        self.counts.iter().map(|c| c.sent).sum()
    }

    pub fn not_ok(&self) -> u64 {
        self.counts.iter().map(Count::not_ok).sum()
    }

    /// Count one answered (or failed) request. Returns the response when
    /// it succeeded.
    fn record(
        &mut self,
        op: Op,
        outcome: Result<Response, ClientError>,
        ms: f64,
    ) -> Option<Response> {
        let c = &mut self.counts[op as usize];
        c.sent += 1;
        self.rtt_s += ms / 1e3;
        let error = match outcome {
            Ok(r) if r.ok => {
                c.ok += 1;
                self.lat[op as usize].push(ms);
                return Some(r);
            }
            Ok(r) => {
                c.refused += 1;
                r.error.unwrap_or_default()
            }
            Err(e) => {
                match e {
                    ClientError::Timeout { .. } => c.timed_out += 1,
                    _ => c.failed += 1,
                }
                e.to_string()
            }
        };
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(format!("{}: {error}", op.name()));
        }
        self.lat[op as usize].push(f64::INFINITY);
        None
    }
}

/// Steal and total CPU time of the whole machine, in clock ticks, from
/// the first line of `/proc/stat`.
pub fn host_cpu() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

fn create_request(spec: &Spec, aspects: &[String]) -> Request {
    let mut req = Request::op("create");
    req.entity = Some(spec.entity);
    req.aspect = Some(aspects[spec.aspect].clone());
    req.selector = Some(SELECTORS[spec.selector].to_owned());
    req.n_queries = Some(spec.n_queries);
    req.domain_size = Some(spec.domain_size);
    req
}

fn step_request(session: u64) -> Request {
    let mut req = Request::for_session("step", session);
    req.steps = Some(1);
    req
}

fn trajectory(resp: &Response) -> Trajectory {
    Trajectory {
        queries: resp.queries.clone().unwrap_or_default(),
        pages: resp.pages.clone().unwrap_or_default(),
    }
}

fn running(resp: &Response) -> bool {
    resp.state.as_deref() == Some("running")
}

/// How a closed-loop session behaves.
#[derive(Clone, Copy, Debug)]
pub struct SessionShape {
    /// Close after this many steps (None: run the harvest to its end).
    pub steps: Option<u32>,
    /// Migrate to another shard after every this many steps.
    pub migrate_every: Option<u32>,
}

/// A closed loop: `threads` connections, each opening sessions one after
/// another and sending its next request only when the last one answered.
/// Thread `t` runs sessions `first + t`, `first + t + threads`, … of the
/// stream `session`, until `seconds` pass or, with `limit`, until the
/// stream index reaches it (warm-up passes).
pub struct ClosedLoop<'a> {
    pub addr: SocketAddr,
    pub aspects: &'a [String],
    pub threads: usize,
    pub traced: bool,
    pub session: &'a (dyn Fn(usize) -> (Spec, SessionShape) + Sync),
}

impl ClosedLoop<'_> {
    /// Run the loop. With `windows > 0`, the calling thread meanwhile
    /// reads the machine's CPU counters at the edges of that many equal
    /// windows of the run (into `Tally::host`).
    pub fn run(&self, first: usize, seconds: f64, limit: Option<usize>, windows: usize) -> Tally {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut host = Vec::new();
        let per_thread: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| s.spawn(move || self.thread(first + t, start, deadline, limit)))
                .collect();
            for k in (0..=windows).filter(|_| windows > 0) {
                let edge = start + Duration::from_secs_f64(seconds * k as f64 / windows as f64);
                std::thread::sleep(edge.saturating_duration_since(Instant::now()));
                host.push(host_cpu());
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        let mut tally = Tally {
            host,
            ..Tally::default()
        };
        for t in per_thread {
            tally.merge(t);
        }
        tally
    }

    fn call(
        &self,
        client: &mut Client,
        tally: &mut Tally,
        op: Op,
        mut req: Request,
    ) -> Option<(Response, f64)> {
        if self.traced {
            req.trace = Some(true);
        }
        let t = Instant::now();
        let outcome = client.request_raw(&req);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // A late answer would stay on the socket and be read as the next
        // request's, so a timed-out connection is replaced too.
        if matches!(
            outcome,
            Err(ClientError::Io(_) | ClientError::Timeout { .. })
        ) {
            client.reconnect().ok();
        }
        tally.record(op, outcome, ms).map(|r| (r, ms))
    }

    fn thread(
        &self,
        mut i: usize,
        start: Instant,
        deadline: Instant,
        limit: Option<usize>,
    ) -> Tally {
        let mut client = Client::connect(self.addr).expect("connect to router");
        let mut tally = Tally::default();
        let open = |i: usize| match limit {
            Some(n) => i < n,
            None => Instant::now() < deadline,
        };
        while open(i) {
            let (spec, shape) = (self.session)(i);
            i += self.threads;
            let req = create_request(&spec, self.aspects);
            let Some((resp, _)) = self.call(&mut client, &mut tally, Op::Create, req) else {
                continue;
            };
            let id = resp.session.expect("create answers a session id");
            let mut taken = 0u32;
            let mut resume = false;
            let mut completed = false;
            while limit.is_some() || Instant::now() < deadline {
                let Some((resp, ms)) =
                    self.call(&mut client, &mut tally, Op::Step, step_request(id))
                else {
                    let at = start.elapsed().as_secs_f64();
                    if Instant::now() <= deadline {
                        tally.timeline.push((at, f64::INFINITY));
                    }
                    break;
                };
                if resume {
                    tally.resume_ms.push(ms);
                    resume = false;
                }
                let now = Instant::now();
                if resp.advanced.unwrap_or(0) > 0 && now <= deadline {
                    tally.timeline.push(((now - start).as_secs_f64(), ms));
                }
                if !running(&resp) {
                    completed = true;
                    break;
                }
                taken += 1;
                if shape.steps.is_some_and(|n| taken >= n) {
                    break;
                }
                if shape.migrate_every.is_some_and(|k| taken.is_multiple_of(k)) {
                    let req = Request::for_session("migrate", id);
                    if self
                        .call(&mut client, &mut tally, Op::Migrate, req)
                        .is_none()
                    {
                        break;
                    }
                    resume = true;
                }
            }
            let snap = Request::for_session("snapshot", id);
            if let Some((resp, _)) = self.call(&mut client, &mut tally, Op::Snapshot, snap) {
                tally.harvests.push(Harvest {
                    spec,
                    wire: trajectory(&resp),
                    completed,
                });
            }
            let close = Request::for_session("close", id);
            if self
                .call(&mut client, &mut tally, Op::Close, close)
                .is_some()
                && Instant::now() <= deadline
            {
                tally.closed_at.push((start.elapsed().as_secs_f64(), 1.0));
            }
        }
        tally
    }
}
