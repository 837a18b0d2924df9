//! Fleet benchmark: what the router costs and what migration pauses.
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
//! * `migration_pause` — client-observed `migrate` latency (drain on the
//!   source + restore on the target) for a mid-harvest session bounced
//!   between two shards; p50/p99 over the samples.
//! * `rebalance_convergence` — passes and migrations for the load
//!   rebalancer to level a 6/0 session skew, plus the wall time.
//! * `drain_to_rejoin_pause` — one full rolling restart of the routed
//!   fleet: total wall time and the per-shard out-of-ring pause.
//! * `idle_connections` — connection scale for the reactor engine: a
//!   re-exec'd child process holds 10k idle sockets open (client fds
//!   live in the child so both processes stay inside the fd limit)
//!   while this process's server multiplexes them on one readiness
//!   loop. Records thread count and RSS before/with the crowd plus the
//!   median step latency of a harvest driven **through** the crowd.
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
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const IDLE_CONNECTIONS: usize = 10_000;

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

/// `Threads:` and `VmRSS:` (kB) of this process, from `/proc/self/status`.
fn proc_threads_rss() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmRSS:"))
}

/// Child mode (`--hold-clients ADDR N`): open N idle connections to the
/// bench server and hold them until stdin closes. Run in a separate
/// process so the client-side fds don't count against the server
/// process's fd limit.
fn hold_clients(addr: &str, n: usize) -> ! {
    use std::io::Write;
    let mut held = Vec::with_capacity(n);
    for i in 0..n {
        let mut attempts = 0;
        loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => {
                    held.push(s);
                    break;
                }
                Err(e) => {
                    attempts += 1;
                    if attempts > 100 {
                        eprintln!("hold-clients: connect {i} failed after retries: {e}");
                        std::process::exit(1);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
        }
    }
    println!("held {}", held.len());
    std::io::stdout().flush().ok();
    // Park until the parent closes our stdin, then let the drop of
    // `held` hang up all the sockets at once.
    let mut sink = String::new();
    while std::io::stdin()
        .read_line(&mut sink)
        .map(|n| n > 0)
        .unwrap_or(false)
    {
        sink.clear();
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--hold-clients") {
        let addr = args.get(i + 1).expect("--hold-clients ADDR N");
        let n: usize = args
            .get(i + 2)
            .and_then(|v| v.parse().ok())
            .expect("--hold-clients ADDR N");
        hold_clients(addr, n);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let fleet_rounds = if quick { 2 } else { 8 };
    let migrations = if quick { 8 } else { 24 };

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
    let mut router = RouterServer::spawn(core.clone(), "127.0.0.1:0").expect("bind router");
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

    // --- migration pause: bounce one mid-harvest session ---------------
    let id = client
        .create(1, "RESEARCH", "l2qbal", Some(64), 3)
        .expect("create migration session");
    client.step(id, 2, 40).expect("warm the session");
    let owner = client.status(id).expect("status").shard.unwrap();
    let mut target = if owner == "alpha" { "beta" } else { "alpha" };
    let mut pause_lat = Vec::with_capacity(migrations);
    for _ in 0..migrations {
        let t0 = Instant::now();
        client.migrate(id, Some(target)).expect("migrate");
        pause_lat.push(t0.elapsed().as_nanos());
        target = if target == "alpha" { "beta" } else { "alpha" };
    }
    let pause_p50 = percentile_ns(&pause_lat, 0.5);
    let pause_p99 = percentile_ns(&pause_lat, 0.99);
    println!(
        "migration_pause            p50 {} / p99 {} ({} migrations)",
        human(pause_p50),
        human(pause_p99),
        pause_lat.len()
    );
    client.close(id).ok();

    // --- rebalance convergence: passes to level a skewed fleet ----------
    // Six live sessions all pinned onto one shard; `rebalance_once` runs
    // until a pass moves nothing. With the default hysteresis (min gap 2,
    // budget 4) a 6/0 skew levels to 4/2 in one working pass, so the
    // interesting numbers are how many passes did work and the wall time
    // of the whole convergence.
    let mut skewed = Vec::new();
    for i in 0..6u32 {
        let id = client
            .create(9 + i, "RESEARCH", "l2qbal", Some(64), 3)
            .expect("create skew session");
        client.step(id, 1, 40).expect("warm skew session");
        client.migrate(id, Some("alpha")).expect("pin to alpha");
        skewed.push(id);
    }
    let t0 = Instant::now();
    let mut rebalance_passes = 0u64;
    let mut rebalance_moves = 0u64;
    loop {
        let moved = core.rebalance_once() as u64;
        rebalance_passes += 1;
        rebalance_moves += moved;
        if moved == 0 || rebalance_passes >= 16 {
            break;
        }
    }
    let rebalance_ns = t0.elapsed().as_nanos();
    println!(
        "rebalance_convergence      {rebalance_moves} migrations over {rebalance_passes} passes \
         in {}",
        human(rebalance_ns)
    );

    // --- drain-to-rejoin pause: one full rolling restart ----------------
    // Drain -> wait healthy -> rejoin for every shard in turn, with the
    // skewed sessions still resident so the drains do real migration
    // work. The per-shard figure is the pause a client-facing shard
    // spends out of the ring during a fleet-wide restart.
    let t0 = Instant::now();
    let resp = core.rolling_restart();
    let rolling_ns = t0.elapsed().as_nanos();
    assert!(resp.ok, "rolling restart failed: {:?}", resp.error);
    let restarted = resp.restarted.unwrap_or(0);
    let pause_per_shard_ns = if restarted == 0 {
        0
    } else {
        rolling_ns / restarted as u128
    };
    println!(
        "drain_to_rejoin_pause      {} total / {} per shard ({restarted} shards cycled)",
        human(rolling_ns),
        human(pause_per_shard_ns)
    );
    for id in skewed {
        client.close(id).ok();
    }
    router.shutdown();
    std::fs::remove_dir_all(&fleet_dir).ok();

    // --- connection scale: a 10k-idle-socket crowd on the reactor -------
    // The acceptance claim: the readiness loop holds the crowd with zero
    // extra threads and flat memory, and a harvest stepped *through* the
    // crowd stays fast. Client fds live in a re-exec'd child process.
    let mut scale_srv = HarvestServer::spawn(
        b.clone(),
        ServerConfig {
            workers: 2,
            queue_cap: 64,
            max_connections: IDLE_CONNECTIONS + 64,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind scale server");
    let (threads_before, rss_before_kb) = proc_threads_rss();
    let exe = std::env::current_exe().expect("current_exe");
    let mut holder = std::process::Command::new(exe)
        .arg("--hold-clients")
        .arg(scale_srv.addr().to_string())
        .arg(IDLE_CONNECTIONS.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn client-holder child");
    let mut holder_out = std::io::BufReader::new(holder.stdout.take().expect("holder stdout"));
    let mut line = String::new();
    holder_out.read_line(&mut line).expect("holder handshake");
    let held: usize = line
        .trim()
        .strip_prefix("held ")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("client-holder failed: {line:?}"));
    // Let the accept churn settle before sampling memory.
    std::thread::sleep(std::time::Duration::from_millis(500));
    let (threads_with_held, rss_with_held_kb) = proc_threads_rss();

    let mut client = Client::connect(scale_srv.addr()).expect("connect through the crowd");
    let id = client
        .create(2, "RESEARCH", "l2qbal", Some(N_QUERIES), 3)
        .expect("create through the crowd");
    let mut crowd_lat = Vec::new();
    loop {
        let t0 = Instant::now();
        let resp = client.step(id, 1, 40).expect("step through the crowd");
        crowd_lat.push(t0.elapsed().as_nanos());
        if resp.state.as_deref() != Some("running") {
            break;
        }
    }
    client.close(id).ok();
    let crowd_med = percentile_ns(&crowd_lat, 0.5);
    let readiness_events = l2q_obs::global()
        .counter("reactor_readiness_events_total")
        .get();
    let rss_per_conn_bytes =
        rss_with_held_kb.saturating_sub(rss_before_kb) * 1024 / IDLE_CONNECTIONS as u64;
    println!(
        "idle_connections           held {held}: threads {threads_before} -> {threads_with_held}, \
         rss {rss_before_kb} kB -> {rss_with_held_kb} kB ({rss_per_conn_bytes} B/conn), \
         step median through the crowd {}",
        human(crowd_med)
    );
    drop(holder.stdin.take());
    holder.wait().ok();
    scale_srv.shutdown();

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
                (
                    "migration_pause".into(),
                    Value::Object(vec![
                        ("p50_ns".into(), Value::Num(pause_p50 as f64)),
                        ("p99_ns".into(), Value::Num(pause_p99 as f64)),
                        ("samples".into(), Value::Num(pause_lat.len() as f64)),
                    ]),
                ),
                (
                    "rebalance_convergence".into(),
                    Value::Object(vec![
                        ("passes".into(), Value::Num(rebalance_passes as f64)),
                        ("migrations".into(), Value::Num(rebalance_moves as f64)),
                        ("total_ns".into(), Value::Num(rebalance_ns as f64)),
                    ]),
                ),
                (
                    "drain_to_rejoin_pause".into(),
                    Value::Object(vec![
                        ("total_ns".into(), Value::Num(rolling_ns as f64)),
                        ("per_shard_ns".into(), Value::Num(pause_per_shard_ns as f64)),
                        ("shards_cycled".into(), Value::Num(restarted as f64)),
                    ]),
                ),
                (
                    "idle_connections".into(),
                    Value::Object(vec![
                        ("held".into(), Value::Num(held as f64)),
                        ("threads_before".into(), Value::Num(threads_before as f64)),
                        (
                            "threads_with_held".into(),
                            Value::Num(threads_with_held as f64),
                        ),
                        ("rss_before_kb".into(), Value::Num(rss_before_kb as f64)),
                        (
                            "rss_with_held_kb".into(),
                            Value::Num(rss_with_held_kb as f64),
                        ),
                        (
                            "rss_per_conn_bytes".into(),
                            Value::Num(rss_per_conn_bytes as f64),
                        ),
                        (
                            "step_median_through_crowd_ns".into(),
                            Value::Num(crowd_med as f64),
                        ),
                        (
                            "readiness_events_total".into(),
                            Value::Num(readiness_events as f64),
                        ),
                    ]),
                ),
            ]),
        ),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(out, serde_json::to_string_pretty(&doc).unwrap()).expect("write bench json");
    println!("wrote {out}");
}
