//! `l2q-router` — fleet front door for `l2q-serve` shards.
//!
//! ```text
//! l2q-router [--port P] --shard NAME=HOST:PORT [--shard NAME=HOST:PORT ...]
//!            [--supervise NAME=HOST:PORT=CMD ARG...]
//!            [--probe-interval-ms MS] [--max-connections N] [--trace-buffer N]
//!            [--rebalance-interval-ms MS]
//!            [--supervise-backoff-ms MS] [--supervise-breaker N]
//!            [--supervise-min-uptime-ms MS]
//! ```
//!
//! Accepts the same JSON-over-TCP protocol as `l2q-serve` and routes
//! session ops onto the registered shards by consistent hash of the
//! session id. Prints `listening on <addr>` once ready (`--port 0` picks
//! an ephemeral port), then routes until a client sends
//! `{"op":"shutdown"}`. Shards can also join at runtime via the
//! `join_shard` op; `fleet_status` shows topology and health.
//!
//! `--supervise` makes the router **own** a shard's process: it spawns
//! the command, auto-restarts it on crash (capped exponential backoff,
//! crash-loop circuit breaker), and rejoins it to the ring once it
//! answers again. Supervised shards also get real process restarts from
//! the `rolling_restart` op. `--rebalance-interval-ms` enables the
//! background load rebalancer.
//!
//! For failover and migration to preserve sessions, every shard must run
//! with the same `--data-dir` (a shared durable store).

use l2q_router::{RouterConfig, RouterCore, RouterServer, ShardSpec, Supervisor, SupervisorConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
l2q-router — sharded harvest fleet front door (Learning to Query)

USAGE:
  l2q-router [--port P] --shard NAME=HOST:PORT [--shard NAME=HOST:PORT ...]
             [--supervise NAME=HOST:PORT=CMD ARG...]
             [--probe-interval-ms MS] [--max-connections N] [--trace-buffer N]
             [--rebalance-interval-ms MS]
             [--supervise-backoff-ms MS] [--supervise-breaker N]
             [--supervise-min-uptime-ms MS]

  --shard registers an externally managed shard; --supervise additionally
  spawns and supervises the shard's process (auto-restart with capped
  exponential backoff; a crash-loop circuit breaker gives up after
  --supervise-breaker rapid crashes). At least one of the two is required.
  Shard names become metric labels, so they may only use A-Z, a-z, 0-9,
  '_', '.' and '-'.

  --rebalance-interval-ms enables the background load rebalancer: each
  interval it migrates up to 4 sessions off the hottest shard while the
  hot/cold resident-count gap exceeds 2.

  Every router places sessions on a ring of 64 virtual nodes per shard,
  so routers over the same shards agree on each session's owner. A shard
  is marked dead after 2 consecutive failed probes or requests. Every
  client connection is served from one epoll readiness loop; requests
  bound for a shard are forwarded from a bounded pool of 16 threads.
";

fn parse_num<T: std::str::FromStr>(key: &str, args: &[String], default: T) -> Result<T, String> {
    match args
        .iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
    {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{key} expects a number, got '{v}'")),
    }
}

/// Every `--shard NAME=HOST:PORT` occurrence, in order.
fn parse_shards(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut shards = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--shard" {
            let spec = args
                .get(i + 1)
                .ok_or_else(|| "--shard expects NAME=HOST:PORT".to_string())?;
            let (name, addr) = spec
                .split_once('=')
                .ok_or_else(|| format!("--shard expects NAME=HOST:PORT, got '{spec}'"))?;
            if name.is_empty() || addr.is_empty() {
                return Err(format!("--shard expects NAME=HOST:PORT, got '{spec}'"));
            }
            shards.push((name.to_owned(), addr.to_owned()));
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(shards)
}

/// Every `--supervise NAME=HOST:PORT=CMD ARG...` occurrence, in order.
fn parse_supervised(args: &[String]) -> Result<Vec<ShardSpec>, String> {
    let mut specs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--supervise" {
            let spec = args
                .get(i + 1)
                .ok_or_else(|| "--supervise expects NAME=HOST:PORT=CMD ARG...".to_string())?;
            specs.push(ShardSpec::parse(spec)?);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(specs)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }

    let shards = parse_shards(&args)?;
    let supervised = parse_supervised(&args)?;
    if shards.is_empty() && supervised.is_empty() {
        return Err("at least one --shard NAME=HOST:PORT or --supervise spec is required".into());
    }
    let port: u16 = parse_num("--port", &args, 4418)?;
    let defaults = RouterConfig::default();
    let cfg = RouterConfig {
        probe_interval: Duration::from_millis(
            parse_num(
                "--probe-interval-ms",
                &args,
                defaults.probe_interval.as_millis() as u64,
            )?
            .max(50),
        ),
        max_connections: parse_num("--max-connections", &args, defaults.max_connections)?.max(1),
        rebalance_interval: Duration::from_millis(parse_num(
            "--rebalance-interval-ms",
            &args,
            0u64,
        )?),
        ..defaults
    };

    // Size the trace ring buffer before the first traced request touches
    // it (the capacity freezes on first use; 0 keeps the default).
    let trace_buffer: usize = parse_num("--trace-buffer", &args, 0usize)?;
    if trace_buffer > 0 {
        l2q_obs::trace::configure_capacity(trace_buffer);
    }

    let core = Arc::new(RouterCore::new(cfg));
    for (name, addr) in &shards {
        core.add_shard(name, addr)?;
        eprintln!("registered shard {name} at {addr}");
    }

    let supervisor = if supervised.is_empty() {
        None
    } else {
        let sup_defaults = SupervisorConfig::default();
        let sup_cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(
                parse_num(
                    "--supervise-backoff-ms",
                    &args,
                    sup_defaults.backoff_base.as_millis() as u64,
                )?
                .max(10),
            ),
            breaker_threshold: parse_num(
                "--supervise-breaker",
                &args,
                sup_defaults.breaker_threshold,
            )?
            .max(1),
            min_uptime: Duration::from_millis(parse_num(
                "--supervise-min-uptime-ms",
                &args,
                sup_defaults.min_uptime.as_millis() as u64,
            )?),
            ..sup_defaults
        };
        for spec in &supervised {
            eprintln!("supervising shard {} at {}", spec.name, spec.addr);
        }
        let sup = Supervisor::start(core.clone(), supervised, sup_cfg)?;
        core.set_supervisor(sup.clone());
        Some(sup)
    };

    let mut handle =
        RouterServer::spawn(core, ("127.0.0.1", port)).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on {}", handle.addr());

    while !handle.is_stopped() {
        std::thread::sleep(Duration::from_millis(100));
    }
    handle.shutdown();
    if let Some(sup) = supervisor {
        sup.shutdown();
    }
    eprintln!("router stopped");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
