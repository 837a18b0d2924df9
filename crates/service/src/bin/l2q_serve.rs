//! `l2q-serve` — stand up a harvest server over a synthetic corpus.
//!
//! ```text
//! l2q-serve [--domain researchers|cars] [--entities N] [--pages N] [--seed N]
//!           [--port P] [--workers N] [--queue-cap N] [--idle-timeout SECS]
//!           [--max-connections N] [--max-line-bytes N]
//!           [--request-deadline-ms MS] [--metrics-interval SECS]
//!           [--data-dir PATH] [--fsync always|never|every=N] [--snapshot-every N]
//!           [--shard-id NAME] [--trace-buffer N]
//! ```
//!
//! Prints `listening on <addr>` once ready (`--port 0` picks an
//! ephemeral port), then serves every connection from one epoll
//! readiness loop until a client sends `{"op":"shutdown"}`.
//! With `--metrics-interval N`, a one-line summary (active sessions, qps,
//! p95 step latency) is logged to stderr every N seconds.
//!
//! With `--data-dir`, every session is durably checkpointed (WAL +
//! snapshots) and sessions from a previous run of the same directory are
//! recovered on boot — resumable transparently on first touch. The
//! corpus parameters must match the previous run's for recovered state
//! to make sense.

use l2q_corpus::{cars_domain, generate, researchers_domain, CorpusConfig};
use l2q_service::{BundleConfig, HarvestServer, ServerConfig, ServingBundle};
use l2q_store::{FsyncPolicy, SessionStore, StoreConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
l2q-serve — concurrent harvest server (Learning to Query)

USAGE:
  l2q-serve [--domain researchers|cars] [--entities N] [--pages N] [--seed N]
            [--port P] [--workers N] [--queue-cap N] [--idle-timeout SECS]
            [--max-connections N] [--max-line-bytes N]
            [--request-deadline-ms MS] [--metrics-interval SECS]
            [--data-dir PATH] [--fsync always|never|every=N] [--snapshot-every N]
            [--shard-id NAME] [--trace-buffer N]
";

fn parse(key: &str, args: &[String]) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_num<T: std::str::FromStr>(key: &str, args: &[String], default: T) -> Result<T, String> {
    match parse(key, args) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{key} expects a number, got '{v}'")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }

    let domain = parse("--domain", &args).unwrap_or_else(|| "researchers".into());
    let spec = match domain.as_str() {
        "researchers" => researchers_domain(),
        "cars" => cars_domain(),
        other => return Err(format!("unknown domain '{other}' (researchers|cars)")),
    };
    let corpus_cfg = CorpusConfig {
        n_entities: parse_num("--entities", &args, 40)?,
        pages_per_entity: parse_num("--pages", &args, 20)?,
        seed: parse_num("--seed", &args, 42u64)?,
        ..CorpusConfig::default()
    };
    let port: u16 = parse_num("--port", &args, 4417)?;
    let defaults = ServerConfig::default();
    let server_cfg = ServerConfig {
        workers: parse_num("--workers", &args, 4usize)?.max(1),
        queue_cap: parse_num("--queue-cap", &args, 64usize)?.max(1),
        idle_timeout: Duration::from_secs(parse_num("--idle-timeout", &args, 300u64)?),
        max_connections: parse_num("--max-connections", &args, defaults.max_connections)?.max(1),
        max_line_bytes: parse_num("--max-line-bytes", &args, defaults.max_line_bytes)?.max(64),
        request_deadline_ms: parse_num("--request-deadline-ms", &args, 0u64)?,
        shard_id: parse("--shard-id", &args),
        ..defaults
    };

    eprintln!(
        "building corpus: domain={domain} entities={} pages={} seed={}",
        corpus_cfg.n_entities, corpus_cfg.pages_per_entity, corpus_cfg.seed
    );
    let corpus = Arc::new(generate(&spec, &corpus_cfg).map_err(|e| e.to_string())?);
    eprintln!("training aspect models + building serving bundle...");
    let bundle = Arc::new(ServingBundle::build(
        corpus,
        l2q_core::L2qConfig::default(),
        BundleConfig::default(),
    ));

    let metrics_interval: u64 = parse_num("--metrics-interval", &args, 0u64)?;

    // Size the trace ring buffer before the first traced request touches
    // it (the capacity freezes on first use; 0 keeps the default).
    let trace_buffer: usize = parse_num("--trace-buffer", &args, 0usize)?;
    if trace_buffer > 0 {
        l2q_obs::trace::configure_capacity(trace_buffer);
    }

    let store = match parse("--data-dir", &args) {
        None => None,
        Some(dir) => {
            let fsync = match parse("--fsync", &args) {
                None => FsyncPolicy::default(),
                Some(v) => FsyncPolicy::parse(&v)
                    .ok_or_else(|| format!("--fsync expects always|never|every=N, got '{v}'"))?,
            };
            let store_cfg = StoreConfig {
                fsync,
                snapshot_every: parse_num("--snapshot-every", &args, 8usize)?.max(1),
                ..StoreConfig::default()
            };
            let store = SessionStore::open(&dir, store_cfg)
                .map_err(|e| format!("cannot open data dir '{dir}': {e}"))?;
            let stored = store.list_sessions();
            eprintln!(
                "durable store at {dir}: {} stored session(s) recoverable{}",
                stored.len(),
                if stored.is_empty() {
                    String::new()
                } else {
                    format!(" (ids {:?})", stored)
                }
            );
            Some(Arc::new(store))
        }
    };

    let mut handle =
        HarvestServer::spawn_with_store(bundle, server_cfg, store, ("127.0.0.1", port))
            .map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on {}", handle.addr());

    // Serve until a client requests shutdown (or the process is killed),
    // logging a metrics summary every --metrics-interval seconds.
    let mut last_report = std::time::Instant::now();
    let mut last_queries = 0u64;
    while !handle.is_stopped() {
        std::thread::sleep(Duration::from_millis(100));
        if metrics_interval > 0 && last_report.elapsed() >= Duration::from_secs(metrics_interval) {
            let reg = l2q_obs::global();
            let queries = reg.counter("harvest_queries_fired_total").get();
            let qps = (queries - last_queries) as f64 / last_report.elapsed().as_secs_f64();
            let step_p95 = reg.histogram("harvest_step_seconds").quantile(0.95);
            eprintln!(
                "metrics: sessions={} qps={qps:.1} step_p95={:.1}ms queue_depth={}",
                reg.gauge("service_sessions_active").get(),
                step_p95 * 1e3,
                reg.gauge("scheduler_queue_depth").get(),
            );
            last_queries = queries;
            last_report = std::time::Instant::now();
        }
    }
    handle.shutdown();
    eprintln!("server stopped");
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
