//! Fleet benchmark: drives a routed harvest fleet (client socket →
//! `l2q-router` → two store-backed `l2q-serve` shards → scheduler →
//! harvest step → WAL), all spawned in this process, and reports
//! end-to-end metrics (`--trace 0`) or per-layer attribution
//! (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload steady_harvest --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--workload all` runs every workload in turn. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. The run exits non-zero when a harvest's fired queries
//! differ from the in-process reference.

mod drive;
mod fleet;
mod layers;
mod plan;
mod stats;

use drive::{ClosedLoop, SessionShape, Tally, OPS};
use fleet::Fleet;
use plan::{base_specs, churn, cycled, Spec, DOMAIN_SIZE};
use stats::{median, tail, Delta};
use std::collections::BTreeMap;
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["steady_harvest", "session_churn", "migration_storm"];

/// Fleets set up per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Closed-loop runs are cut into this many equal windows ...
const WINDOWS: usize = 20;
/// ... and report on the calm ones: every window whose hypervisor CPU
/// steal is within `STEAL_TOLERANCE` of the least, and at least this many.
const CALM_WINDOWS: usize = 5;
/// Share of the machine's CPU time by which a window's steal may exceed
/// the calmest window's and still count as calm.
const STEAL_TOLERANCE: f64 = 0.02;
/// Queries per harvest in the long-harvest workloads.
const LONG_QUERIES: u32 = 32;
/// Steps between migrations in `migration_storm`.
const MIGRATE_EVERY: u32 = 4;
/// A seed never used while the benchmark was developed, for checking a
/// claim on fresh load of the same shape.
const HOLDOUT_SEED: u64 = 9001;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The result of one workload run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let out = run_workload(name, args.seed, args.seconds, args.trace);
        all_correct &= out.correct;
        let metrics: Vec<String> = out
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            out.correct,
            out.attempted,
            out.failed,
            metrics.join(", ")
        );
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}

/// A JSON number; a failed request's infinite latency prints as 1e12.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e12".into()
    }
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

fn provenance(workload: &str, seed: u64, seconds: f64, trace: bool, threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".into(), |s| s.trim().to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |s| s.trim().to_owned());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown (not a git checkout)".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let c = fleet::corpus_config();
    format!(
        "provenance: cpu=\"{cpu}\" cores={cores} kernel={kernel} commit={commit} \
         workload={workload} seed={seed} holdout_seed={HOLDOUT_SEED} seconds={seconds} \
         trace={} generator_threads={threads} shards={} shard_workers={} \
         corpus=researchers/{}x{}/seed{} long_queries={LONG_QUERIES} \
         migrate_every={MIGRATE_EVERY} windows={WINDOWS} min_calm_windows={CALM_WINDOWS} \
         steal_tolerance={STEAL_TOLERANCE}",
        trace as u8,
        fleet::SHARDS.len(),
        fleet::SHARD_WORKERS,
        c.n_entities,
        c.pages_per_entity,
        c.seed,
    )
}

const FULL: SessionShape = SessionShape {
    steps: None,
    migrate_every: None,
};

/// What the timed part of a run measured.
#[derive(Default)]
struct Measured {
    untraced: Tally,
    traced: Tally,
    delta: Delta,
    /// Peak resident memory over set-up and the timed part, in MB.
    peak_rss_mb: f64,
}

fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let root = PathBuf::from(".fleetbench-run").join(format!("{workload}-{}", std::process::id()));
    println!("workload {workload}");
    println!("{}", provenance(workload, seed, seconds, trace, threads));
    // Restart the process's peak-memory mark so that it covers this
    // workload only (the mark is per process).
    std::fs::write("/proc/self/clear_refs", "5").ok();

    // Set up several fleets and keep the last; setup_s is the median.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut fleet: Option<Fleet> = None;
    let mut misses_before = 0.0;
    for k in 0..SETUPS {
        if let Some(f) = fleet.take() {
            f.shutdown();
        }
        misses_before = domain_misses();
        let (f, t) = Fleet::spawn(&fleet::fresh_dir(&root, &format!("fleet-{k}")), DOMAIN_SIZE);
        setup_s.push(t.total);
        generate_s.push(t.generate);
        fleet = Some(f);
    }
    let fleet = fleet.expect("a fleet");
    let corpus = fleet.bundle.corpus.clone();
    let aspects: Vec<String> = corpus
        .aspects()
        .map(|a| corpus.aspect_name(a).to_owned())
        .collect();
    let n_entities = corpus.entities.len() as u32;
    let long = base_specs(n_entities, aspects.len(), LONG_QUERIES);
    let warm_seed = seed ^ 0x5741_524d;

    let n_aspects = aspects.len();
    let steady = |i: usize| (cycled(&long, seed, i), FULL);
    let storm = |i: usize| {
        let shape = SessionShape {
            steps: None,
            migrate_every: Some(MIGRATE_EVERY),
        };
        (cycled(&long, seed, i), shape)
    };
    let churn_stream = |s: u64| {
        move |i: usize| {
            let (spec, steps) = churn(s, i, n_entities, n_aspects);
            let shape = SessionShape {
                steps: Some(steps),
                migrate_every: None,
            };
            (spec, shape)
        }
    };
    let churn_timed = churn_stream(seed);

    // Warm the fleet's caches, untimed: one pass over the long-harvest
    // family, or a second of churn.
    let warm_churn = churn_stream(warm_seed);
    let warm_long = |i: usize| (cycled(&long, warm_seed, i), FULL);
    let closed = |session, traced| ClosedLoop {
        addr: fleet.addr,
        aspects: &aspects,
        threads,
        traced,
        session,
    };
    let warm = match workload {
        "session_churn" => closed(&warm_churn, false).run(0, 1.0, None, 0),
        _ => closed(&warm_long, false).run(0, 3600.0, Some(long.len()), 0),
    };

    // The timed part: with tracing, untraced and traced rounds alternate
    // so drift lands on both.
    let mut m = Measured::default();
    let host_before = drive::host_cpu();
    let session: &(dyn Fn(usize) -> (Spec, SessionShape) + Sync) = match workload {
        "steady_harvest" => &steady,
        "session_churn" => &churn_timed,
        _ => &storm,
    };
    let rounds: &[bool] = if trace {
        &[false, true, false, true]
    } else {
        &[false]
    };
    for (r, &traced) in rounds.iter().enumerate() {
        let secs = seconds / rounds.len() as f64;
        let before = l2q_obs::global().snapshot();
        let t = closed(session, traced).run(r * 1_000_000, secs, None, WINDOWS);
        if traced {
            m.delta
                .add(&Delta::between(&before, &l2q_obs::global().snapshot()));
            m.traced.merge(t);
        } else {
            m.untraced.merge(t);
        }
    }
    let misses = domain_misses() - misses_before;
    // Read before the reference harvests below, whose memory is the
    // checker's, not the program's.
    m.peak_rss_mb = proc_status_kb("VmHWM:") / 1024.0;
    let host_after = drive::host_cpu();
    // Time the hypervisor ran something else on this machine's CPUs: the
    // timings of a run with much of it are not comparable with others.
    println!(
        "host: cpu steal {:.1}% of the timed part",
        stats::ratio(host_after.0 - host_before.0, host_after.1 - host_before.1) * 100.0
    );

    // Check every harvest against its in-process reference.
    let mut harvests = warm.harvests.clone();
    harvests.extend(m.untraced.harvests.iter().cloned());
    harvests.extend(m.traced.harvests.iter().cloned());
    let mut depths: BTreeMap<Spec, usize> = BTreeMap::new();
    for h in &harvests {
        let need = if h.completed {
            usize::MAX
        } else {
            h.wire.queries.len()
        };
        let d = depths.entry(h.spec.clone()).or_insert(0);
        *d = (*d).max(need);
    }
    let (refs, core_times) = fleet::references(&fleet.bundle, &depths, threads);
    let bad: Vec<&drive::Harvest> = harvests
        .iter()
        .filter(|h| !fleet::matches(&h.wire, &refs[&h.spec], h.completed))
        .collect();
    let mismatches = bad.len() as u64;
    if let Some(h) = bad.first() {
        println!(
            "MISMATCH {:?}: wire {:?}, reference {:?}",
            h.spec, h.wire.queries, refs[&h.spec].queries
        );
    }
    println!(
        "correctness: {} harvests checked ({} completed), {} mismatches",
        harvests.len(),
        harvests.iter().filter(|h| h.completed).count(),
        mismatches
    );

    let probe = if trace {
        let specs: Vec<Spec> = (0..8).map(|i| cycled(&long, seed, i)).collect();
        layers::service_probe(&fleet.bundle, &fleet::fresh_dir(&root, "probe"), &specs)
    } else {
        layers::ProbeTimes::default()
    };
    fleet.shutdown();
    std::fs::remove_dir_all(&root).ok();
    // Removes the parent only when no other run is using it.
    std::fs::remove_dir(".fleetbench-run").ok();

    for (label, t) in [
        ("warm-up", &warm),
        ("untraced", &m.untraced),
        ("traced", &m.traced),
    ] {
        for (op, c) in OPS.iter().zip(&t.counts) {
            if c.sent > 0 {
                println!(
                    "ops {label} {}: sent {} ok {} refused {} timed_out {} failed {}",
                    op.name(),
                    c.sent,
                    c.ok,
                    c.refused,
                    c.timed_out,
                    c.failed
                );
            }
        }
    }
    for e in warm
        .errors
        .iter()
        .chain(&m.untraced.errors)
        .chain(&m.traced.errors)
    {
        println!("error {e}");
    }
    let attempted = warm.attempted() + m.untraced.attempted() + m.traced.attempted();
    let not_ok = warm.not_ok() + m.untraced.not_ok() + m.traced.not_ok();

    let metrics = if trace {
        let step = drive::Op::Step as usize;
        let (u, t) = (
            tail(&m.untraced.lat[step]).p50,
            tail(&m.traced.lat[step]).p50,
        );
        let trace_overhead_pct = stats::ratio(t - u, u) * 100.0;
        for (layer, s) in layers::budget(&m.delta, &m.traced) {
            println!(
                "budget {layer}: {:.3} s self ({:.1}% of client time)",
                s,
                stats::ratio(s, m.traced.rtt_s) * 100.0
            );
        }
        let inputs = layers::LayerInputs {
            delta: &m.delta,
            traced: &m.traced,
            core: &core_times,
            probe: &probe,
            generate_s: median(&generate_s),
            domain_misses: misses,
            trace_overhead_pct,
        };
        let values = layers::per_layer(&inputs);
        for ((name, unit, v), (_, _, _, moves)) in values.iter().zip(layers::LAYER_METRICS) {
            println!("layer {name} = {v:.6} {unit}  [moves: {moves}]");
        }
        values
    } else {
        end_to_end(&m, &setup_s, seconds)
    };
    Outcome {
        correct: mismatches == 0,
        attempted: attempted + harvests.len() as u64,
        failed: not_ok + mismatches,
        metrics,
    }
}

fn domain_misses() -> f64 {
    l2q_obs::global().counter("domain_cache_misses_total").get() as f64
}

/// The calm windows of a closed-loop run's `WINDOWS` equal windows: those
/// in which the hypervisor stole the least CPU (`host` holds the
/// machine's CPU counters at the window edges). A burst of load from
/// another tenant of the machine then does not move the result unless it
/// covers most of the run.
fn calm_windows(host: &[(f64, f64)]) -> Vec<usize> {
    let steal: Vec<f64> = host
        .windows(2)
        .map(|w| stats::ratio(w[1].0 - w[0].0, w[1].1 - w[0].1))
        .collect();
    let calm = stats::calmest(&steal, CALM_WINDOWS, STEAL_TOLERANCE);
    let shares: Vec<String> = steal.iter().map(|x| format!("{:.1}", x * 100.0)).collect();
    println!(
        "windows: host steal % per window [{}], kept {calm:?}",
        shares.join(" ")
    );
    calm
}

/// Latency and rate from `(time, ms)` samples of a `seconds`-long run,
/// over the windows in `calm`: the p50 and tail of their samples pooled
/// (failures included, as infinitely slow), and their successful samples
/// per second of those windows.
fn windowed(samples: &[(f64, f64)], seconds: f64, calm: &[usize]) -> (stats::Tail, f64) {
    let win_s = seconds / WINDOWS as f64;
    let windows = stats::split_windows(samples, seconds, WINDOWS);
    let pooled: Vec<f64> = calm.iter().flat_map(|&k| windows[k].clone()).collect();
    let answered = pooled.iter().filter(|v| v.is_finite()).count();
    (
        tail(&pooled),
        stats::ratio(answered as f64, calm.len() as f64 * win_s),
    )
}

/// The end-to-end metrics every workload reports, plus the workload's
/// own named figures printed alongside.
fn end_to_end(
    m: &Measured,
    setup_s: &[f64],
    seconds: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let t = &m.untraced;
    let line = |name: &str, s: stats::Tail| {
        if s.n > 0 {
            println!(
                "metric {name}_p50_ms = {:.4} ms, {name}_p99_ms = {:.4} ms (tail is p{:.1}; n = {})",
                s.p50,
                s.tail,
                s.tail_q * 100.0,
                s.n
            );
        }
    };
    let calm = calm_windows(&t.host);
    let (step, steps_per_s) = windowed(&t.timeline, seconds, &calm);
    let sessions_per_s = windowed(&t.closed_at, seconds, &calm).1;
    line("create", tail(&t.lat[drive::Op::Create as usize]));
    line("migrate", tail(&t.lat[drive::Op::Migrate as usize]));
    line("resume_step", tail(&t.resume_ms));
    line("snapshot", tail(&t.lat[drive::Op::Snapshot as usize]));
    println!(
        "metric failed_frac = {} (of {} requests)",
        stats::ratio(t.not_ok() as f64, t.attempted() as f64),
        t.attempted()
    );
    let metrics = vec![
        ("setup_s", "s", median(setup_s)),
        ("peak_rss_mb", "MB", m.peak_rss_mb),
        ("steps_per_s", "1/s", steps_per_s),
        ("sessions_per_s", "1/s", sessions_per_s),
        ("step_p50_ms", "ms", step.p50),
        ("step_p99_ms", "ms", step.tail),
    ];
    for (name, unit, v) in &metrics {
        println!("metric {name} = {v:.4} {unit}");
    }
    println!(
        "  (step tail is p{:.1} of n = {}; setup_s is the median of {SETUPS} set-ups)",
        step.tail_q * 100.0,
        step.n
    );
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_steps_are_slow_but_not_throughput() {
        // Window 0 of 20 (one second each): two answers and one failure.
        let s = [(0.1, 2.0), (0.5, 4.0), (0.9, f64::INFINITY)];
        let (lat, rate) = windowed(&s, WINDOWS as f64, &[0]);
        assert_eq!(rate, 2.0);
        assert_eq!(lat.n, 3);
        assert!(lat.p50 == 4.0);
    }
}
