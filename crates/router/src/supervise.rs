//! Shard supervision: spawn, monitor, and auto-restart `l2q-serve`
//! children.
//!
//! The supervisor owns one child process per [`ShardSpec`]. A monitor
//! thread checks every child: a crashed child is respawned after a capped
//! exponential backoff, a child that keeps crashing before reaching
//! stable uptime trips a crash-loop circuit breaker (the shard is then
//! removed from the ring and left for an operator), and a freshly
//! respawned child is pinged until it answers — at which point it
//! rejoins routing through the ordinary health machinery
//! ([`crate::shard::Shard::note_ok`] flips dead → healthy). Because all
//! shards share one durable store, a restarted child recovers its
//! sessions from the last committed step on first touch; nothing
//! acknowledged is lost across the crash.
//!
//! Rolling restarts ([`crate::router::RouterCore::rolling_restart`])
//! reuse the same machinery through [`Supervisor::restart`]:
//! an intentional kill + immediate respawn that neither backs off nor
//! counts toward the breaker.

use crate::lock::lock_recover;
use crate::router::RouterCore;
use crate::shard::Health;
use l2q_service::proto::SupervisedShardBody;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One supervised shard: ring name, serve address, and the command line
/// that (re)starts its `l2q-serve` process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard name (stable ring identity).
    pub name: String,
    /// `host:port` the child serves on.
    pub addr: String,
    /// Program + arguments to spawn, e.g. `["l2q-serve", "--port", ...]`.
    pub command: Vec<String>,
}

impl ShardSpec {
    /// Parse a `--supervise` spec: `NAME=HOST:PORT=CMD ARG...`. Only the
    /// first two `=` split; the command keeps any `=` of its own and is
    /// split on whitespace.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.splitn(3, '=');
        let (name, addr, cmd) = (parts.next(), parts.next(), parts.next());
        let (Some(name), Some(addr), Some(cmd)) = (name, addr, cmd) else {
            return Err(format!(
                "--supervise expects NAME=HOST:PORT=CMD ARG..., got '{spec}'"
            ));
        };
        let command: Vec<String> = cmd.split_whitespace().map(str::to_owned).collect();
        if name.is_empty() || addr.is_empty() || command.is_empty() {
            return Err(format!(
                "--supervise expects NAME=HOST:PORT=CMD ARG..., got '{spec}'"
            ));
        }
        crate::router::check_shard_name(name)?;
        Ok(Self {
            name: name.to_owned(),
            addr: addr.to_owned(),
            command,
        })
    }
}

/// Supervision policy knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// First respawn delay after a crash; doubles per rapid crash.
    pub backoff_base: Duration,
    /// Ceiling on the respawn delay.
    pub backoff_cap: Duration,
    /// Rapid crashes (child died before `min_uptime`) that trip the
    /// crash-loop breaker: the supervisor gives up on the child and
    /// removes the shard from the ring.
    pub breaker_threshold: u32,
    /// Uptime after which a child counts as stable and the crash streak
    /// resets.
    pub min_uptime: Duration,
    /// Monitor cadence while a respawned child has not yet answered a
    /// ping. Otherwise the monitor parks until the next respawn is due,
    /// and checks for exited children every 2 s.
    pub poll_interval: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            backoff_base: Duration::from_millis(500),
            backoff_cap: Duration::from_secs(8),
            breaker_threshold: 5,
            min_uptime: Duration::from_secs(5),
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// How often an otherwise idle monitor checks for exited children.
const IDLE_CHECK: Duration = Duration::from_secs(2);

/// Capped exponential backoff before respawn attempt `streak` (1-based):
/// `base << (streak-1)`, saturating at `cap`. Pure so tests can assert
/// the exact schedule.
pub fn respawn_backoff(base: Duration, cap: Duration, streak: u32) -> Duration {
    let shift = streak.saturating_sub(1).min(32);
    base.checked_mul(1u32 << shift.min(31))
        .unwrap_or(cap)
        .min(cap)
}

struct ChildState {
    spec: ShardSpec,
    child: Option<Child>,
    started_at: Instant,
    /// Total respawns performed (intentional restarts included).
    restarts: u64,
    /// Consecutive rapid crashes; resets after `min_uptime` of stability.
    streak: u32,
    /// Backoff deadline for the next respawn, while the child is down.
    next_respawn: Option<Instant>,
    breaker_open: bool,
    last_exit: Option<String>,
    /// Respawned but not yet seen answering a ping.
    awaiting_recovery: bool,
}

fn restart_counter() -> &'static Arc<l2q_obs::Counter> {
    static M: OnceLock<Arc<l2q_obs::Counter>> = OnceLock::new();
    M.get_or_init(|| l2q_obs::global().counter("router_supervisor_restarts_total"))
}

/// The shard supervisor: one child process per spec, plus the monitor
/// thread that keeps them alive.
pub struct Supervisor {
    core: Arc<RouterCore>,
    cfg: SupervisorConfig,
    children: Mutex<Vec<ChildState>>,
    stop: Arc<AtomicBool>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

impl Supervisor {
    /// Spawn every spec's child, register the shards with the router
    /// core (ignoring ones already registered via `--shard`), and start
    /// the monitor thread. The returned handle must be [`Supervisor::shutdown`]
    /// by its owner — children are killed on shutdown, never orphaned.
    pub fn start(
        core: Arc<RouterCore>,
        specs: Vec<ShardSpec>,
        cfg: SupervisorConfig,
    ) -> Result<Arc<Self>, String> {
        let mut children = Vec::with_capacity(specs.len());
        for spec in specs {
            let child = spawn_child(&spec)?;
            // Registration may race a prior `--shard` flag for the same
            // name; the spec's addr wins only for fresh names.
            let _ = core.add_shard(&spec.name, &spec.addr);
            children.push(ChildState {
                spec,
                child: Some(child),
                started_at: Instant::now(),
                restarts: 0,
                streak: 0,
                next_respawn: None,
                breaker_open: false,
                last_exit: None,
                awaiting_recovery: true,
            });
        }
        let sup = Arc::new(Self {
            core,
            cfg,
            children: Mutex::new(children),
            stop: Arc::new(AtomicBool::new(false)),
            monitor: Mutex::new(None),
        });
        let monitor_sup = sup.clone();
        let handle = std::thread::Builder::new()
            .name("l2q-router-supervisor".into())
            .spawn(move || monitor_sup.monitor_loop())
            .map_err(|e| format!("supervisor thread spawn failed: {e}"))?;
        *lock_recover(&sup.monitor) = Some(handle);
        Ok(sup)
    }

    /// Whether `name` is one of the supervised shards.
    pub fn supervises(&self, name: &str) -> bool {
        lock_recover(&self.children)
            .iter()
            .any(|c| c.spec.name == name)
    }

    /// One status row per supervised child.
    pub fn status(&self) -> Vec<SupervisedShardBody> {
        let now = Instant::now();
        lock_recover(&self.children)
            .iter()
            .map(|c| SupervisedShardBody {
                name: c.spec.name.clone(),
                addr: c.spec.addr.clone(),
                pid: c.child.as_ref().map(|ch| u64::from(ch.id())),
                restarts: c.restarts,
                crash_streak: u64::from(c.streak),
                breaker_open: c.breaker_open,
                health: self
                    .core
                    .shard(&c.spec.name)
                    .map(|s| s.health().as_str().to_owned())
                    .unwrap_or_else(|| "unregistered".to_owned()),
                last_exit: c.last_exit.clone(),
                next_respawn_ms: c
                    .next_respawn
                    .map(|due| due.saturating_duration_since(now).as_millis() as u64),
            })
            .collect()
    }

    /// Intentional restart (rolling restarts): kill the child, wait for
    /// it to exit, and respawn immediately — no backoff, no breaker
    /// accounting. The caller is responsible for having drained the
    /// shard first and for waiting until it answers again.
    pub fn restart(&self, name: &str) -> Result<(), String> {
        let mut children = lock_recover(&self.children);
        let state = children
            .iter_mut()
            .find(|c| c.spec.name == name)
            .ok_or_else(|| format!("shard '{name}' is not supervised"))?;
        if state.breaker_open {
            return Err(format!("shard '{name}' breaker is open; not restarting"));
        }
        if let Some(mut child) = state.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let child = spawn_child(&state.spec)?;
        state.child = Some(child);
        state.started_at = Instant::now();
        state.restarts += 1;
        state.next_respawn = None;
        state.awaiting_recovery = true;
        state.last_exit = Some("restarted (rolling)".into());
        restart_counter().inc();
        // The new child awaits its first answer: ping it at the poll
        // cadence, not after the idle check.
        if let Some(handle) = lock_recover(&self.monitor).as_ref() {
            handle.thread().unpark();
        }
        Ok(())
    }

    /// Stop the monitor and kill every child; idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = lock_recover(&self.monitor).take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        for state in lock_recover(&self.children).iter_mut() {
            if let Some(mut child) = state.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    /// Parked between passes until the next due event: a respawn
    /// deadline, the next ping of a child that has not answered yet, or
    /// the idle check. `restart` and `shutdown` unpark it.
    fn monitor_loop(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            let wake = self.tick(Instant::now());
            std::thread::park_timeout(wake.saturating_duration_since(Instant::now()));
        }
    }

    /// One monitor pass over every child; returns when the next is due.
    fn tick(&self, now: Instant) -> Instant {
        let mut wake = now + IDLE_CHECK;
        // Children alive but not yet seen answering, with the restart
        // count that identifies each spawn.
        let mut awaiting: Vec<(String, u64)> = Vec::new();
        let mut children = lock_recover(&self.children);
        for state in children.iter_mut() {
            if state.breaker_open {
                continue;
            }
            match &mut state.child {
                Some(child) => match child.try_wait() {
                    Ok(Some(status)) => self.on_exit(state, status, now),
                    Ok(None) if state.awaiting_recovery => {
                        awaiting.push((state.spec.name.clone(), state.restarts));
                        wake = wake.min(now + self.cfg.poll_interval);
                    }
                    Ok(None) => {
                        // Stable uptime clears the rapid-crash streak.
                        if state.streak > 0
                            && now.duration_since(state.started_at) >= self.cfg.min_uptime
                        {
                            state.streak = 0;
                        }
                    }
                    Err(_) => {}
                },
                None => {
                    let due = state.next_respawn.is_none_or(|due| now >= due);
                    if due {
                        match spawn_child(&state.spec) {
                            Ok(child) => {
                                state.child = Some(child);
                                state.started_at = now;
                                state.restarts += 1;
                                state.next_respawn = None;
                                state.awaiting_recovery = true;
                                restart_counter().inc();
                                wake = wake.min(now + self.cfg.poll_interval);
                            }
                            Err(e) => {
                                // Spawn failure counts like a rapid crash:
                                // back off and eventually trip the breaker.
                                state.last_exit = Some(e);
                                self.note_crash(state, now);
                            }
                        }
                    }
                }
            }
            if let Some(due) = state.next_respawn {
                wake = wake.min(due);
            }
        }
        drop(children);

        // Ping each awaiting child outside the lock: a child that accepts
        // but never answers holds its ping for the client's whole response
        // timeout, and `status`, `restart` and crash detection for every
        // other child must not wait on it. Success flips the shard healthy,
        // rejoining it to routing.
        for (name, restarts) in awaiting {
            let answered = self
                .core
                .shard(&name)
                .is_some_and(|shard| shard.probe(&self.core.config().client));
            if !answered {
                continue;
            }
            let mut children = lock_recover(&self.children);
            // A child respawned while its ping was in flight is a new
            // spawn; the answer belonged to the old one.
            let same_spawn = children
                .iter_mut()
                .find(|c| c.spec.name == name && c.restarts == restarts);
            if let Some(state) = same_spawn {
                state.awaiting_recovery = false;
                if now.duration_since(state.started_at) >= self.cfg.min_uptime {
                    state.streak = 0;
                }
            }
        }
        wake
    }

    fn on_exit(&self, state: &mut ChildState, status: std::process::ExitStatus, now: Instant) {
        state.child = None;
        state.last_exit = Some(exit_label(status));
        // The child is gone for sure — no need to wait out the probe
        // threshold before routing around it.
        if let Some(shard) = self.core.shard(&state.spec.name) {
            if shard.health() != Health::Draining {
                shard.set_health(Health::Dead);
            }
        }
        if now.duration_since(state.started_at) >= self.cfg.min_uptime {
            state.streak = 0;
        }
        self.note_crash(state, now);
    }

    fn note_crash(&self, state: &mut ChildState, now: Instant) {
        state.streak = state.streak.saturating_add(1);
        if state.streak > self.cfg.breaker_threshold {
            state.breaker_open = true;
            state.next_respawn = None;
            // The shard has left the fleet: drop it from ring + registry
            // so routing, placements, and fleet_status all forget it.
            // Supervisor status keeps the row for diagnosis.
            self.core.remove_shard(&state.spec.name);
        } else {
            state.next_respawn = Some(
                now + respawn_backoff(self.cfg.backoff_base, self.cfg.backoff_cap, state.streak),
            );
        }
    }
}

fn spawn_child(spec: &ShardSpec) -> Result<Child, String> {
    Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| {
            format!(
                "spawn '{}' for shard '{}' failed: {e}",
                spec.command[0], spec.name
            )
        })
}

fn exit_label(status: std::process::ExitStatus) -> String {
    match status.code() {
        Some(code) => format!("exit code {code}"),
        None => "killed by signal".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_name_addr_and_command_with_embedded_equals() {
        let spec = ShardSpec::parse("alpha=127.0.0.1:4401=l2q-serve --port 4401 --mode x=y")
            .expect("valid spec");
        assert_eq!(spec.name, "alpha");
        assert_eq!(spec.addr, "127.0.0.1:4401");
        assert_eq!(
            spec.command,
            vec!["l2q-serve", "--port", "4401", "--mode", "x=y"]
        );
    }

    #[test]
    fn spec_rejects_missing_parts() {
        assert!(ShardSpec::parse("alpha=127.0.0.1:4401").is_err());
        assert!(ShardSpec::parse("=addr=cmd").is_err());
        assert!(ShardSpec::parse("alpha=addr=").is_err());
        // A name that could not be a metric label value.
        assert!(ShardSpec::parse("al pha=127.0.0.1:4401=l2q-serve").is_err());
    }

    #[test]
    fn respawn_backoff_doubles_to_the_cap() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_millis(1500);
        let schedule: Vec<u64> = (1..=6)
            .map(|s| respawn_backoff(base, cap, s).as_millis() as u64)
            .collect();
        assert_eq!(schedule, vec![100, 200, 400, 800, 1500, 1500]);
        // Huge streaks saturate instead of overflowing.
        assert_eq!(respawn_backoff(base, cap, 64), cap);
    }
}
