//! Fleet benchmark: what the router and tracing cost per step.
//!
//! * `fleet_of_8/direct` vs `fleet_of_8/routed` — the same 8-session wire
//!   workload (2-step batches round-robin to completion) against one
//!   `l2q-serve` directly and against an `l2q-router` fronting two
//!   shards. The recorded value is the **median per-step-request
//!   latency**; the routed/direct gap is the router's per-op overhead
//!   (budget: ≤15%).
//! * `fleet_of_8/routed_traced` — the routed workload again with every
//!   step carrying a distributed-trace context; the traced/routed gap is
//!   `trace_overhead_pct` (budget: ≤5%).
//!
//! Owns its `main` (the vendored criterion harness doesn't expose
//! medians programmatically) and always writes `BENCH_fleet.json` at the
//! repo root. `--quick` shrinks sample counts for CI.

use l2q_aspect::RelevanceOracle;
use l2q_core::L2qConfig;
use l2q_corpus::{generate, researchers_domain, CorpusConfig};
use l2q_router::{RouterConfig, RouterCore, RouterServer};
use l2q_service::{BundleConfig, Client, HarvestServer, ServerConfig, ServerHandle, ServingBundle};
use l2q_store::{SessionStore, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SESSIONS: u32 = 8;
const N_QUERIES: u32 = 4;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("l2q-fleet-bench-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bundle() -> Arc<ServingBundle> {
    let corpus = Arc::new(
        generate(
            &researchers_domain(),
            &CorpusConfig {
                n_entities: 24,
                pages_per_entity: 16,
                ..CorpusConfig::default()
            },
        )
        .unwrap(),
    );
    let oracle = RelevanceOracle::from_truth(&corpus);
    Arc::new(ServingBundle::with_oracle(
        corpus,
        Vec::new(),
        oracle,
        L2qConfig::default(),
        BundleConfig::default(),
    ))
}

fn start_shard(b: &Arc<ServingBundle>, dir: &Path, shard_id: &str) -> ServerHandle {
    let store = Arc::new(SessionStore::open(dir, StoreConfig::default()).unwrap());
    HarvestServer::spawn_with_store(
        b.clone(),
        ServerConfig {
            workers: 2,
            queue_cap: 64,
            shard_id: Some(shard_id.to_owned()),
            ..ServerConfig::default()
        },
        Some(store),
        "127.0.0.1:0",
    )
    .expect("bind shard")
}

/// The wire workload: 8 sessions (entities 3..11, `l2qbal`, 4 queries,
/// domain 3) driven round-robin in 2-step batches to completion. Pushes
/// each step request's client-observed latency into `latencies`. With
/// `traced`, every step requests a distributed trace (the
/// traced-vs-untraced gap is the tracing overhead).
fn drive_fleet_wire(client: &mut Client, latencies: &mut Vec<u128>, traced: bool) {
    let mut open: Vec<u64> = (0..SESSIONS)
        .map(|i| {
            client
                .create(3 + i, "RESEARCH", "l2qbal", Some(N_QUERIES), 3)
                .expect("create")
        })
        .collect();
    while !open.is_empty() {
        let mut still_open = Vec::with_capacity(open.len());
        for id in open {
            let t0 = Instant::now();
            let resp = if traced {
                client.step_traced(id, 2, 40).expect("traced step")
            } else {
                client.step(id, 2, 40).expect("step")
            };
            latencies.push(t0.elapsed().as_nanos());
            if resp.state.as_deref() == Some("running") {
                still_open.push(id);
            } else {
                client.close(id).expect("close");
            }
        }
        open = still_open;
    }
}

fn percentile_ns(samples: &[u128], p: f64) -> u128 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

fn human(ns: u128) -> String {
    if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fleet_rounds = if quick { 2 } else { 8 };

    eprintln!("building corpus + serving bundle...");
    let b = bundle();

    // --- direct: client -> one store-backed l2q-serve ------------------
    let direct_dir = bench_dir("direct");
    let mut direct = start_shard(&b, &direct_dir, "solo");
    let mut client = Client::connect(direct.addr()).expect("connect direct");
    // Warm the shared caches once, unmeasured, so every measured round
    // runs warm (the bundle — and its caches — is shared by every
    // server).
    let mut scratch = Vec::new();
    drive_fleet_wire(&mut client, &mut scratch, false);
    let mut direct_lat = Vec::new();
    for _ in 0..fleet_rounds.max(4) {
        drive_fleet_wire(&mut client, &mut direct_lat, false);
    }
    direct.shutdown();
    std::fs::remove_dir_all(&direct_dir).ok();
    let direct_med = percentile_ns(&direct_lat, 0.5);
    println!(
        "fleet_of_8/direct          step median: {} ({} requests)",
        human(direct_med),
        direct_lat.len()
    );

    // --- routed: client -> router -> two shards, shared store ----------
    let fleet_dir = bench_dir("routed");
    let shard_a = start_shard(&b, &fleet_dir, "alpha");
    let shard_b = start_shard(&b, &fleet_dir, "beta");
    let core = Arc::new(RouterCore::new(RouterConfig::default()));
    core.add_shard("alpha", &shard_a.addr().to_string())
        .unwrap();
    core.add_shard("beta", &shard_b.addr().to_string()).unwrap();
    let mut router = RouterServer::spawn(core, "127.0.0.1:0").expect("bind router");
    let mut client = Client::connect(router.addr()).expect("connect router");
    let mut routed_lat = Vec::new();
    for _ in 0..fleet_rounds {
        drive_fleet_wire(&mut client, &mut routed_lat, false);
    }
    let routed_med = percentile_ns(&routed_lat, 0.5);
    let overhead_pct = if direct_med == 0 {
        0.0
    } else {
        (routed_med as f64 - direct_med as f64) / direct_med as f64 * 100.0
    };
    println!(
        "fleet_of_8/routed          step median: {} ({} requests)",
        human(routed_med),
        routed_lat.len()
    );
    println!("routed_overhead_pct        {overhead_pct:+.1}%");

    // --- traced: the same routed workload with every step traced -------
    // The traced/untraced gap bounds the tracing cost (budget: ≤5%).
    let mut traced_lat = Vec::new();
    for _ in 0..fleet_rounds {
        drive_fleet_wire(&mut client, &mut traced_lat, true);
    }
    let traced_med = percentile_ns(&traced_lat, 0.5);
    let trace_overhead_pct = if routed_med == 0 {
        0.0
    } else {
        (traced_med as f64 - routed_med as f64) / routed_med as f64 * 100.0
    };
    println!(
        "fleet_of_8/routed_traced   step median: {} ({} requests)",
        human(traced_med),
        traced_lat.len()
    );
    println!("trace_overhead_pct         {trace_overhead_pct:+.1}%");

    router.shutdown();
    std::fs::remove_dir_all(&fleet_dir).ok();

    // Canonical perf-trajectory artifact at the repo root.
    use serde_json::Value;
    let lat_entry = |med: u128, n: usize| {
        Value::Object(vec![
            ("median_ns".into(), Value::Num(med as f64)),
            ("samples".into(), Value::Num(n as f64)),
        ])
    };
    let doc = Value::Object(vec![
        ("bench".to_string(), Value::Str("fleet".into())),
        ("quick".to_string(), Value::Bool(quick)),
        (
            "results".to_string(),
            Value::Object(vec![
                (
                    "fleet_of_8/direct".into(),
                    lat_entry(direct_med, direct_lat.len()),
                ),
                (
                    "fleet_of_8/routed".into(),
                    lat_entry(routed_med, routed_lat.len()),
                ),
                ("routed_overhead_pct".into(), Value::Num(overhead_pct)),
                (
                    "fleet_of_8/routed_traced".into(),
                    lat_entry(traced_med, traced_lat.len()),
                ),
                ("trace_overhead_pct".into(), Value::Num(trace_overhead_pct)),
            ]),
        ),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(out, serde_json::to_string_pretty(&doc).unwrap()).expect("write bench json");
    println!("wrote {out}");
}
