//! `l2q-serve` — stand up a harvest server over a synthetic corpus.
//!
//! Takes the flags in [`USAGE`] (`l2q-serve --help`) and refuses any
//! other. Prints `listening on <addr>` once ready (`--port 0` picks an
//! ephemeral port), then serves every connection from one epoll
//! readiness loop until a client sends `{"op":"shutdown"}`.
//!
//! With `--data-dir`, every session is durably checkpointed (WAL +
//! snapshots) and sessions from a previous run of the same directory are
//! recovered on boot — resumable transparently on first touch. The
//! corpus parameters must match the previous run's for recovered state
//! to make sense.

use l2q_corpus::{cars_domain, generate, researchers_domain, CorpusConfig};
use l2q_service::cli::Spec;
use l2q_service::{BundleConfig, HarvestServer, ServerConfig, ServingBundle};
use l2q_store::{FsyncPolicy, SessionStore, StoreConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
l2q-serve — concurrent harvest server (Learning to Query)

USAGE:
  l2q-serve [--domain researchers|cars] [--entities N] [--pages N] [--seed N]
            [--port P] [--workers N] [--idle-timeout SECS]
            [--max-connections N] [--max-line-bytes N]
            [--data-dir PATH [--fsync always|never|every=N]] [--shard-id NAME]
";

const SPEC: Spec = Spec {
    numbers: &[
        "--entities",
        "--pages",
        "--seed",
        "--port",
        "--workers",
        "--idle-timeout",
        "--max-connections",
        "--max-line-bytes",
    ],
    values: &["--domain", "--data-dir", "--fsync", "--shard-id"],
    repeated: &[],
    bare: &[],
    words: &[],
};

fn run() -> Result<(), String> {
    let args = SPEC.parse(std::env::args().skip(1))?;
    if args.help() {
        print!("{USAGE}");
        return Ok(());
    }

    let domain = args.get("--domain").unwrap_or("researchers");
    let spec = match domain {
        "researchers" => researchers_domain(),
        "cars" => cars_domain(),
        other => return Err(format!("unknown domain '{other}' (researchers|cars)")),
    };
    let corpus_cfg = CorpusConfig {
        n_entities: args.num("--entities")?.unwrap_or(40),
        pages_per_entity: args.num("--pages")?.unwrap_or(20),
        seed: args.num("--seed")?.unwrap_or(42),
        ..CorpusConfig::default()
    };
    let port: u16 = args.num("--port")?.unwrap_or(4417);
    let defaults = ServerConfig::default();
    let server_cfg = ServerConfig {
        workers: args.num("--workers")?.unwrap_or(defaults.workers).max(1),
        idle_timeout: args
            .num("--idle-timeout")?
            .map_or(defaults.idle_timeout, Duration::from_secs),
        max_connections: args
            .num("--max-connections")?
            .unwrap_or(defaults.max_connections)
            .max(1),
        max_line_bytes: args
            .num("--max-line-bytes")?
            .unwrap_or(defaults.max_line_bytes)
            .max(64),
        shard_id: args.get("--shard-id").map(str::to_owned),
        ..defaults
    };
    let fsync = match (args.get("--fsync"), args.get("--data-dir")) {
        (None, _) => FsyncPolicy::default(),
        (Some(_), None) => return Err("--fsync needs --data-dir".into()),
        (Some(v), Some(_)) => FsyncPolicy::parse(v)
            .ok_or_else(|| format!("--fsync expects always|never|every=N, got '{v}'"))?,
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

    let store = match args.get("--data-dir") {
        None => None,
        Some(dir) => {
            let store_cfg = StoreConfig {
                fsync,
                ..StoreConfig::default()
            };
            let store = SessionStore::open(dir, store_cfg)
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

    let handle = HarvestServer::spawn_with_store(bundle, server_cfg, store, ("127.0.0.1", port))
        .map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on {}", handle.addr());

    // Serve until a client requests shutdown (or the process is killed).
    handle.wait();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_declared_flag() {
        assert_eq!(l2q_service::cli::usage_flags(USAGE), SPEC.flags());
        assert_eq!(SPEC.flags().len(), 12);
    }
}
