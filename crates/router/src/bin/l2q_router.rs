//! `l2q-router` — fleet front door for `l2q-serve` shards.
//!
//! Takes the flags in [`USAGE`] (`l2q-router --help`) and refuses any
//! other. Accepts the same JSON-over-TCP protocol as `l2q-serve` and
//! routes session ops onto the registered shards by consistent hash of
//! the session id. Prints `listening on <addr>` once ready (`--port 0`
//! picks an ephemeral port), then routes until a client sends
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
use l2q_service::cli::Spec;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
l2q-router — sharded harvest fleet front door (Learning to Query)

USAGE:
  l2q-router [--port P] --shard NAME=HOST:PORT [--shard NAME=HOST:PORT ...]
             [--supervise NAME=HOST:PORT=CMD ARG...]
             [--max-connections N] [--rebalance-interval-ms MS]

  --shard registers an externally managed shard; --supervise additionally
  spawns and supervises the shard's process (auto-restart after a
  backoff that doubles from 0.5 s up to 8 s; a crash-loop circuit breaker
  gives up after 5 crashes in a row that each came within 5 s of a
  start). At least one of the two is required. Shard names become metric
  labels, so they may only use A-Z, a-z, 0-9, '_', '.' and '-'.

  --rebalance-interval-ms enables the background load rebalancer: each
  interval it migrates up to 4 sessions off the hottest shard while the
  hot/cold resident-count gap exceeds 2.

  Every router places sessions on a ring of 64 virtual nodes per shard,
  so routers over the same shards agree on each session's owner. Each
  shard is probed every 2 s and marked dead after 2 consecutive failed
  probes or requests. Every client connection is served from one epoll
  readiness loop; requests bound for a shard are forwarded from a
  bounded pool of 16 threads.
";

const SPEC: Spec = Spec {
    numbers: &["--port", "--max-connections", "--rebalance-interval-ms"],
    values: &[],
    repeated: &["--shard", "--supervise"],
    bare: &[],
    words: &[],
};

fn run() -> Result<(), String> {
    let args = SPEC.parse(std::env::args().skip(1))?;
    if args.help() {
        print!("{USAGE}");
        return Ok(());
    }

    let shards = args
        .all("--shard")
        .map(|spec| match spec.split_once('=') {
            Some((name, addr)) if !name.is_empty() && !addr.is_empty() => Ok((name, addr)),
            _ => Err(format!("--shard expects NAME=HOST:PORT, got '{spec}'")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let supervised = args
        .all("--supervise")
        .map(ShardSpec::parse)
        .collect::<Result<Vec<_>, _>>()?;
    if shards.is_empty() && supervised.is_empty() {
        return Err("at least one --shard NAME=HOST:PORT or --supervise spec is required".into());
    }
    let port: u16 = args.num("--port")?.unwrap_or(4418);
    let defaults = RouterConfig::default();
    let cfg = RouterConfig {
        max_connections: args
            .num("--max-connections")?
            .unwrap_or(defaults.max_connections)
            .max(1),
        rebalance_interval: Duration::from_millis(
            args.num("--rebalance-interval-ms")?.unwrap_or(0),
        ),
        ..defaults
    };

    let core = Arc::new(RouterCore::new(cfg));
    for (name, addr) in shards {
        core.add_shard(name, addr)?;
        eprintln!("registered shard {name} at {addr}");
    }

    let supervisor = if supervised.is_empty() {
        None
    } else {
        for spec in &supervised {
            eprintln!("supervising shard {} at {}", spec.name, spec.addr);
        }
        let sup = Supervisor::start(core.clone(), supervised, SupervisorConfig::default())?;
        core.set_supervisor(sup.clone());
        Some(sup)
    };

    let handle =
        RouterServer::spawn(core, ("127.0.0.1", port)).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on {}", handle.addr());

    handle.wait();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_declared_flag() {
        assert_eq!(l2q_service::cli::usage_flags(USAGE), SPEC.flags());
        assert_eq!(SPEC.flags().len(), 5);
    }
}
