//! `l2q-client` — drive a running harvest server from the command line.
//!
//! Takes the commands and flags in [`USAGE`] (`l2q-client --help`) and
//! refuses any other.
//!
//! `--router` is an alias for `--addr`: an `l2q-router` front door speaks
//! the same protocol, so every command works against a fleet
//! unchanged (routed responses additionally name the serving shard). The
//! `fleet` subcommands drive the router's admin ops: topology + health,
//! runtime shard join, drain (migrate everything off a shard), and live
//! migration of one session.
//!
//! `harvest` runs one full session — create, step until finished,
//! snapshot, close — and prints the fired queries and harvested pages.
//! The `create`/`step`/`snapshot` commands expose the same session ops
//! individually, leaving the session open between invocations (pair with
//! a server running `--data-dir` to survive restarts); `persist`,
//! `restore`, and `sessions` drive the durable store directly.
//! `metrics` prints the server's metrics registry as Prometheus-style
//! text (or the full JSON snapshot with `--json`). Against a `--router`
//! target, `metrics` defaults to the fleet-merged plane (`fleet_metrics`
//! op: counters/gauges per shard, histograms merged for fleet
//! percentiles); `--local` asks for the router's own registry instead.
//!
//! `step --trace` requests a distributed trace for the batch and prints
//! the trace id; `trace --id` fetches that trace (stitched across the
//! router and every shard when the target is a router) and renders it as
//! an indented duration tree. `trace --slow`/`--recent` list the slowest
//! root spans / newest spans in the target's ring buffer.
//!
//! `probe` runs adversarial batteries against a live server and fails
//! loudly if the server mishandles any of them: an oversized request
//! line must come back as a polite `ok:false` (not a hang or an OOM),
//! garbage before valid JSON must not poison the connection, a
//! panic-injected session must fail terminally while the server keeps
//! serving, a missed deadline must return a deadline error, and
//! connections past `--connections` must be refused with
//! `"server at capacity"`.

use l2q_service::cli::{Args, Spec};
use l2q_service::Client;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
l2q-client — wire client for l2q-serve

USAGE:
  l2q-client --addr HOST:PORT ping
  l2q-client --addr HOST:PORT harvest --entity N --aspect NAME
             [--selector l2qp|l2qr|l2qbal|l2qw=W] [--queries N] [--domain-size N]
  l2q-client --addr HOST:PORT create --entity N --aspect NAME
             [--selector l2qp|l2qr|l2qbal|l2qw=W] [--queries N] [--domain-size N]
  l2q-client --addr HOST:PORT step --session ID [--steps N] [--trace]
  l2q-client --addr HOST:PORT status --session ID
  l2q-client --addr HOST:PORT snapshot --session ID
  l2q-client --addr HOST:PORT persist --session ID
  l2q-client --addr HOST:PORT restore --session ID
  l2q-client --addr HOST:PORT sessions
  l2q-client --addr HOST:PORT stats
  l2q-client --addr HOST:PORT metrics [--json] [--local]
  l2q-client --addr HOST:PORT trace --id TRACE_ID
  l2q-client --addr HOST:PORT trace --slow|--recent [--limit N]
  l2q-client --addr HOST:PORT probe [--battery all|oversized|garbage|panic|deadline|slowloris|capacity]
             [--line-bytes N] [--connections N] [--slow-conns N] [--hold-ms MS]
  l2q-client --addr HOST:PORT shutdown
  l2q-client --router HOST:PORT fleet status
  l2q-client --router HOST:PORT fleet join --shard NAME --shard-addr HOST:PORT
  l2q-client --router HOST:PORT fleet drain --shard NAME
  l2q-client --router HOST:PORT fleet migrate --session ID [--target NAME]
  l2q-client --router HOST:PORT fleet rolling-restart
  l2q-client --router HOST:PORT fleet supervise

`--router` is an alias for `--addr` (any command works against an
l2q-router front door; `fleet` subcommands need one). Against a
`--router` target, `metrics` shows the fleet-merged plane by default;
pass `--local` for the router's own registry. `step --trace` prints a
trace id for `trace --id` (stitched across router and shards).
";

const SPEC: Spec = Spec {
    numbers: &[
        "--entity",
        "--queries",
        "--domain-size",
        "--session",
        "--steps",
        "--limit",
        "--line-bytes",
        "--connections",
        "--slow-conns",
        "--hold-ms",
    ],
    values: &[
        "--addr",
        "--router",
        "--aspect",
        "--selector",
        "--id",
        "--battery",
        "--shard",
        "--shard-addr",
        "--target",
    ],
    repeated: &[],
    bare: &["--trace", "--json", "--local", "--slow", "--recent"],
    words: &[
        "ping",
        "harvest",
        "create",
        "step",
        "status",
        "snapshot",
        "persist",
        "restore",
        "sessions",
        "stats",
        "metrics",
        "trace",
        "probe",
        "shutdown",
        "fleet",
        "join",
        "drain",
        "migrate",
        "rolling-restart",
        "supervise",
    ],
};

/// Write to stdout. A reader that hangs up early (`| head`, `| grep -q`)
/// already has what it wanted, so a broken pipe ends the process quietly
/// with success instead of a panic.
fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn run() -> Result<(), String> {
    let args = SPEC.parse(std::env::args().skip(1))?;
    if args.help() || std::env::args().len() == 1 {
        write_stdout(format_args!("{USAGE}"));
        return Ok(());
    }
    let addr = args
        .get("--addr")
        .or(args.get("--router"))
        .ok_or("--addr (or --router) is required")?;
    let (command, fleet_sub) = match args.words() {
        [] => return Err(
            "missing command (ping|harvest|create|step|status|snapshot|persist|restore|sessions|stats|metrics|trace|probe|fleet|shutdown)".into(),
        ),
        ["fleet"] => {
            return Err(
                "fleet needs a subcommand (status|join|drain|migrate|rolling-restart|supervise)"
                    .into(),
            )
        }
        ["fleet", sub] => ("fleet", *sub),
        [command] => (*command, ""),
        [_, extra, ..] => return Err(format!("unexpected argument '{extra}'")),
    };

    if command == "probe" {
        return run_probes(addr, &args);
    }

    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    match command {
        "ping" => {
            client
                .request(&l2q_service::Request::op("ping"))
                .map_err(|e| e.to_string())?;
            outln!("pong");
        }
        "harvest" => {
            let entity: u32 = args.num("--entity")?.ok_or("--entity is required")?;
            let aspect = args.get("--aspect").ok_or("--aspect is required")?;
            let selector = args.get("--selector").unwrap_or("l2qbal");
            let n_queries: Option<u32> = args.num("--queries")?;
            let domain_size: u32 = args.num("--domain-size")?.unwrap_or(0);

            let session = client
                .create(entity, aspect, selector, n_queries, domain_size)
                .map_err(|e| e.to_string())?;
            loop {
                let resp = client.step(session, 8, 40).map_err(|e| e.to_string())?;
                let state = resp.state.as_deref().unwrap_or("running");
                if state != "running" {
                    outln!(
                        "{state}: {} queries, {} pages",
                        resp.steps_taken.unwrap_or(0),
                        resp.gathered.unwrap_or(0)
                    );
                    break;
                }
            }
            let snap = client.snapshot(session).map_err(|e| e.to_string())?;
            for q in snap.queries.unwrap_or_default() {
                outln!("query: {q}");
            }
            outln!("pages: {:?}", snap.pages.unwrap_or_default());
            client.close(session).map_err(|e| e.to_string())?;
        }
        "create" => {
            let entity: u32 = args.num("--entity")?.ok_or("--entity is required")?;
            let aspect = args.get("--aspect").ok_or("--aspect is required")?;
            let selector = args.get("--selector").unwrap_or("l2qbal");
            let n_queries: Option<u32> = args.num("--queries")?;
            let domain_size: u32 = args.num("--domain-size")?.unwrap_or(0);
            let session = client
                .create(entity, aspect, selector, n_queries, domain_size)
                .map_err(|e| e.to_string())?;
            outln!("session: {session}");
        }
        "step" => {
            let session: u64 = args.num("--session")?.ok_or("--session is required")?;
            let steps: u32 = args.num("--steps")?.unwrap_or(1);
            let traced = args.has("--trace");
            let resp = if traced {
                client.step_traced(session, steps, 40)
            } else {
                client.step(session, steps, 40)
            }
            .map_err(|e| e.to_string())?;
            outln!(
                "{}: {} queries, {} pages (+{} steps, +{} pages){}",
                resp.state.as_deref().unwrap_or("running"),
                resp.steps_taken.unwrap_or(0),
                resp.gathered.unwrap_or(0),
                resp.advanced.unwrap_or(0),
                resp.new_pages.unwrap_or(0),
                shard_suffix(&resp),
            );
            if let Some(tid) = resp.trace_id {
                outln!("trace: {:#x}", tid);
            } else if traced {
                outln!("trace: none (server did not echo a trace id)");
            }
        }
        "status" => {
            let session: u64 = args.num("--session")?.ok_or("--session is required")?;
            let resp = client.status(session).map_err(|e| e.to_string())?;
            outln!(
                "session {session}: {} {} queries, {} pages{}",
                resp.state.as_deref().unwrap_or("running"),
                resp.steps_taken.unwrap_or(0),
                resp.gathered.unwrap_or(0),
                shard_suffix(&resp),
            );
        }
        "snapshot" => {
            let session: u64 = args.num("--session")?.ok_or("--session is required")?;
            let snap = client.snapshot(session).map_err(|e| e.to_string())?;
            for q in snap.queries.unwrap_or_default() {
                outln!("query: {q}");
            }
            outln!("pages: {:?}", snap.pages.unwrap_or_default());
        }
        "persist" => {
            let session: u64 = args.num("--session")?.ok_or("--session is required")?;
            let resp = client.persist(session).map_err(|e| e.to_string())?;
            outln!(
                "persisted session {session}: {} queries, {} pages",
                resp.steps_taken.unwrap_or(0),
                resp.gathered.unwrap_or(0)
            );
        }
        "restore" => {
            let session: u64 = args.num("--session")?.ok_or("--session is required")?;
            let resp = client.restore(session).map_err(|e| e.to_string())?;
            outln!(
                "restored session {session}: {}: {} queries, {} pages",
                resp.state.as_deref().unwrap_or("running"),
                resp.steps_taken.unwrap_or(0),
                resp.gathered.unwrap_or(0)
            );
        }
        "sessions" => {
            let resp = client.list_sessions().map_err(|e| e.to_string())?;
            let entries = resp.sessions.unwrap_or_default();
            if entries.is_empty() {
                outln!("no sessions");
            }
            for e in entries {
                // Prefer the restorability class from fleet-aware servers;
                // fall back to the legacy resident flag.
                let place = e
                    .health
                    .clone()
                    .unwrap_or_else(|| if e.resident { "resident" } else { "stored" }.into());
                match (e.steps_taken, e.gathered, e.state.as_deref()) {
                    (Some(steps), Some(pages), Some(state)) => outln!(
                        "session {}: {place} {state} {steps} queries {pages} pages",
                        e.session
                    ),
                    _ => outln!("session {}: {place}", e.session),
                }
            }
        }
        "fleet" => run_fleet(&mut client, fleet_sub, &args)?,
        "stats" => {
            let resp = client.stats().map_err(|e| e.to_string())?;
            let body = serde_json::to_string_pretty(&resp.stats.unwrap_or_default())
                .map_err(|e| e.to_string())?;
            outln!("{body}");
        }
        "metrics" => {
            // A --router target gets the fleet-merged plane by default;
            // --local asks for the target's own registry (the only
            // behavior --addr targets have).
            let fleet = args.get("--router").is_some() && !args.has("--local");
            let format = if args.has("--json") { "json" } else { "text" };
            let resp = if fleet {
                client.fleet_metrics(format)
            } else {
                client.metrics(format)
            }
            .map_err(|e| e.to_string())?;
            if format == "json" {
                let body = resp.metrics.ok_or("metrics response missing body")?;
                outln!(
                    "{}",
                    serde_json::to_string_pretty(&body).map_err(|e| e.to_string())?
                );
            } else {
                write_stdout(format_args!("{}", resp.metrics_text.unwrap_or_default()));
            }
        }
        "trace" => run_trace(&mut client, &args)?,
        "shutdown" => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            outln!("server shutting down");
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(())
}

/// Parse a trace id: hex with an `0x` prefix or plain decimal.
fn parse_trace_id(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--id expects a trace id (0x hex or decimal), got '{s}'"))
}

/// A span duration, humanized.
fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}µs", ns as f64 / 1e3)
    }
}

/// One rendered span line (shared by the tree and the flat listings).
fn span_line(s: &l2q_service::proto::SpanBody) -> String {
    let mut line = format!("{} {}", s.name, fmt_dur(s.dur_ns));
    if let Some(src) = s.source.as_deref() {
        line.push_str(&format!(" [{src}]"));
    }
    if let Some(labels) = s.labels.as_deref().filter(|l| !l.is_empty()) {
        line.push_str(&format!(" {{{labels}}}"));
    }
    if s.status != "ok" {
        line.push_str(&format!(" status={}", s.status));
    }
    line
}

/// The `trace` command: fetch one stitched trace (`--id`) and render it
/// as an indented duration tree, or list the slowest roots (`--slow`) /
/// newest spans (`--recent`) from the target's ring buffer.
fn run_trace(client: &mut Client, args: &Args) -> Result<(), String> {
    let limit: u64 = args.num("--limit")?.unwrap_or(16);
    if args.has("--slow") || args.has("--recent") {
        let slow = args.has("--slow");
        let resp = if slow {
            client.trace_slow(limit)
        } else {
            client.trace_recent(limit)
        }
        .map_err(|e| e.to_string())?;
        let spans = resp.spans.unwrap_or_default();
        if spans.is_empty() {
            outln!("no spans buffered");
            return Ok(());
        }
        for s in &spans {
            outln!("{:#014x} {}", s.trace_id, span_line(s));
        }
        outln!(
            "{} {} span(s); fetch a tree with: trace --id 0x<id>",
            if slow { "slowest" } else { "newest" },
            spans.len()
        );
        return Ok(());
    }
    let id_arg = args
        .get("--id")
        .ok_or("trace needs --id TRACE_ID (or --slow/--recent)")?;
    let trace_id = parse_trace_id(id_arg)?;
    let resp = client.trace_by_id(trace_id).map_err(|e| e.to_string())?;
    let spans = resp.spans.unwrap_or_default();
    if spans.is_empty() {
        return Err(format!(
            "no spans found for trace {trace_id:#x} (ring buffer may have wrapped)"
        ));
    }
    // Index spans and bucket children under their parents. A span whose
    // parent is not in the buffer (wrapped away) renders as an orphan at
    // top level, counted in the summary line.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut top: Vec<usize> = Vec::new();
    let mut roots = 0usize;
    let mut orphans = 0usize;
    for (i, s) in spans.iter().enumerate() {
        match s.parent_span_id {
            None => {
                roots += 1;
                top.push(i);
            }
            Some(p) => match spans.iter().position(|c| c.span_id == p) {
                Some(pi) => children[pi].push(i),
                None => {
                    orphans += 1;
                    top.push(i);
                }
            },
        }
    }
    outln!(
        "trace {:#014x}: spans={} roots={} orphans={}",
        trace_id,
        spans.len(),
        roots,
        orphans
    );
    fn render(
        idx: usize,
        depth: usize,
        spans: &[l2q_service::proto::SpanBody],
        children: &[Vec<usize>],
    ) {
        outln!("{}{}", "  ".repeat(depth + 1), span_line(&spans[idx]));
        for &c in &children[idx] {
            render(c, depth + 1, spans, children);
        }
    }
    for &i in &top {
        render(i, 0, &spans, &children);
    }
    Ok(())
}

/// ` [shard NAME]` when the response came through a router, else empty.
fn shard_suffix(resp: &l2q_service::Response) -> String {
    resp.shard
        .as_deref()
        .map(|s| format!(" [shard {s}]"))
        .unwrap_or_default()
}

/// The router admin surface: `fleet status|join|drain|migrate`.
fn run_fleet(client: &mut Client, sub: &str, args: &Args) -> Result<(), String> {
    match sub {
        "status" => {
            let resp = client.fleet_status().map_err(|e| e.to_string())?;
            let fleet = resp.fleet.ok_or("fleet_status response missing body")?;
            outln!(
                "fleet: {} shard(s), {} vnodes",
                fleet.shards.len(),
                fleet.vnodes
            );
            for s in fleet.shards {
                match s.active_sessions {
                    Some(n) => outln!("  {} at {}: {} ({n} resident)", s.name, s.addr, s.health),
                    None => outln!("  {} at {}: {} (unreachable)", s.name, s.addr, s.health),
                }
            }
        }
        "join" => {
            let shard = args.get("--shard").ok_or("--shard is required")?;
            let addr = args.get("--shard-addr").ok_or("--shard-addr is required")?;
            client.join_shard(shard, addr).map_err(|e| e.to_string())?;
            outln!("shard {shard} joined at {addr}");
        }
        "drain" => {
            let shard = args.get("--shard").ok_or("--shard is required")?;
            let resp = client.drain_shard(shard).map_err(|e| e.to_string())?;
            outln!(
                "shard {shard} draining: {} session(s) migrated",
                resp.migrated.unwrap_or(0)
            );
            if let Some(err) = resp.error {
                outln!("warning: {err}");
            }
        }
        "migrate" => {
            let session: u64 = args.num("--session")?.ok_or("--session is required")?;
            let resp = client
                .migrate(session, args.get("--target"))
                .map_err(|e| e.to_string())?;
            outln!(
                "session {session} migrated to shard {}: {} {} queries, {} pages",
                resp.shard.as_deref().unwrap_or("?"),
                resp.state.as_deref().unwrap_or("running"),
                resp.steps_taken.unwrap_or(0),
                resp.gathered.unwrap_or(0)
            );
        }
        "rolling-restart" => {
            let resp = client.rolling_restart().map_err(|e| e.to_string())?;
            let cycled = resp.restarted.unwrap_or(0);
            if resp.ok {
                outln!("rolling restart completed: {cycled} shard(s) cycled");
            } else {
                return Err(format!(
                    "rolling restart {} after {cycled} shard(s): {}",
                    resp.state.as_deref().unwrap_or("failed"),
                    resp.error.unwrap_or_else(|| "unspecified".into())
                ));
            }
        }
        "supervise" => {
            let resp = client.supervisor_status().map_err(|e| e.to_string())?;
            if !resp.ok {
                return Err(resp.error.unwrap_or_else(|| "unspecified".into()));
            }
            let rows = resp.supervised.unwrap_or_default();
            outln!("supervisor: {} child(ren)", rows.len());
            for r in rows {
                let pid = r
                    .pid
                    .map(|p| format!("pid {p}"))
                    .unwrap_or_else(|| "down".into());
                let mut extras = format!("{} restarts", r.restarts);
                if r.breaker_open {
                    extras.push_str(", breaker OPEN");
                }
                if let Some(ms) = r.next_respawn_ms {
                    extras.push_str(&format!(", respawn in {ms}ms"));
                }
                if let Some(exit) = r.last_exit {
                    extras.push_str(&format!(", last exit: {exit}"));
                }
                outln!(
                    "  {} at {}: {} ({}; {})",
                    r.name,
                    r.addr,
                    r.health,
                    pid,
                    extras
                );
            }
        }
        other => {
            return Err(format!(
                "unknown fleet subcommand '{other}' \
                 (status|join|drain|migrate|rolling-restart|supervise)"
            ))
        }
    }
    Ok(())
}

/// Read one newline-terminated response off a raw socket (bounded wait).
fn read_raw_line(stream: &mut TcpStream, timeout: Duration) -> Result<String, String> {
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed before a response line".into()),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    return Ok(String::from_utf8_lossy(&buf[..pos]).into_owned());
                }
                if buf.len() > 1 << 20 {
                    return Err("response line unreasonably large".into());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err("timed out waiting for a response line".into())
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// An oversized request line must get a polite `ok:false` (and a close),
/// not a hang, an OOM, or a reset that eats the error.
fn probe_oversized(addr: &str, line_bytes: usize) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut line = vec![b'x'; line_bytes];
    line.push(b'\n');
    stream.write_all(&line).map_err(|e| e.to_string())?;
    let resp = read_raw_line(&mut stream, Duration::from_secs(10))?;
    if resp.contains("\"ok\":false") && resp.contains("exceeds") {
        outln!("probe oversized: ok ({line_bytes}-byte line refused politely)");
        Ok(())
    } else {
        Err(format!("oversized probe got unexpected response: {resp}"))
    }
}

/// Garbage before valid JSON must produce a bad-request error without
/// poisoning the connection for the valid request that follows.
fn probe_garbage(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(b"this is not json\n")
        .map_err(|e| e.to_string())?;
    let first = read_raw_line(&mut stream, Duration::from_secs(10))?;
    if !first.contains("\"ok\":false") || !first.contains("bad request") {
        return Err(format!("garbage line got unexpected response: {first}"));
    }
    stream
        .write_all(b"{\"op\":\"ping\",\"request_id\":7}\n")
        .map_err(|e| e.to_string())?;
    let second = read_raw_line(&mut stream, Duration::from_secs(10))?;
    if second.contains("\"ok\":true") && second.contains("\"request_id\":7") {
        outln!("probe garbage: ok (bad request reported, connection stayed usable)");
        Ok(())
    } else {
        Err(format!(
            "ping after garbage got unexpected response: {second}"
        ))
    }
}

/// A panic-injected session must fail terminally while the server keeps
/// answering (the worker pool survives the panic).
fn probe_panic(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let session = client
        .create(0, "RESEARCH", "panic", Some(4), 0)
        .map_err(|e| format!("create with panic selector failed: {e}"))?;
    match client.step(session, 1, 0) {
        Err(e) if e.to_string().contains("failed") => {}
        other => {
            return Err(format!(
                "panic step expected a session-failed error, got {other:?}"
            ))
        }
    }
    let status = client.status(session).map_err(|e| e.to_string())?;
    if status.state.as_deref() != Some("failed") {
        return Err(format!("panicked session state: {:?}", status.state));
    }
    // The server must still be healthy enough to run a real harvest.
    let healthy = client
        .create(1, "RESEARCH", "l2qbal", Some(2), 0)
        .map_err(|e| format!("create after panic failed: {e}"))?;
    client
        .step(healthy, 4, 10)
        .map_err(|e| format!("step after panic failed: {e}"))?;
    outln!("probe panic: ok (session failed terminally, server survived)");
    Ok(())
}

/// A step batch that outlives its deadline must return a deadline error
/// while the batch finishes in the background.
fn probe_deadline(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let session = client
        .create(2, "RESEARCH", "sleep=400", Some(4), 0)
        .map_err(|e| format!("create with sleep selector failed: {e}"))?;
    match client.step_with_deadline(session, 1, 0, 50) {
        Err(e) if e.to_string().contains("deadline") => {
            outln!("probe deadline: ok (50ms deadline cut a 400ms batch short)");
            Ok(())
        }
        other => Err(format!(
            "deadline step expected a deadline error, got {other:?}"
        )),
    }
}

/// Slowloris: a herd of byte-at-a-time writers hold connections open
/// for seconds. The server must keep answering fresh clients promptly
/// the whole time — no serving thread may sit pinned on a slow reader —
/// and every dribbled request must still complete correctly once its
/// newline finally lands.
fn probe_slowloris(addr: &str, conns: usize, hold_ms: u64) -> Result<(), String> {
    let request = b"{\"op\":\"ping\",\"request_id\":41}\n";
    let pause = Duration::from_millis((hold_ms / request.len() as u64).max(1));
    let mut writers = Vec::new();
    for _ in 0..conns {
        let addr = addr.to_owned();
        writers.push(std::thread::spawn(move || -> Result<(), String> {
            let mut stream = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
            for &b in request.iter() {
                stream.write_all(&[b]).map_err(|e| e.to_string())?;
                std::thread::sleep(pause);
            }
            let resp = read_raw_line(&mut stream, Duration::from_secs(10))?;
            if resp.contains("\"ok\":true") && resp.contains("\"request_id\":41") {
                Ok(())
            } else {
                Err(format!("dribbled ping got unexpected response: {resp}"))
            }
        }));
    }

    // While the herd dribbles, a well-behaved client must see prompt
    // service: the slow sockets are parked on readiness, not holding a
    // thread each out of the serving path.
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let held_until = std::time::Instant::now() + Duration::from_millis(hold_ms);
    let mut pings = 0u32;
    let mut worst = Duration::ZERO;
    while std::time::Instant::now() < held_until {
        let started = std::time::Instant::now();
        client
            .request(&l2q_service::Request::op("ping"))
            .map_err(|e| format!("ping starved behind {conns} slow writers: {e}"))?;
        worst = worst.max(started.elapsed());
        pings += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    if worst > Duration::from_secs(2) {
        return Err(format!(
            "service degraded under slowloris: worst ping took {worst:?}"
        ));
    }

    for w in writers {
        w.join().map_err(|_| "slow writer thread panicked")??;
    }
    outln!(
        "probe slowloris: ok ({conns} dribbling connections held {hold_ms}ms; \
         {pings} concurrent pings served, worst {worst:?}; all dribbles completed)"
    );
    Ok(())
}

/// Connections past the server's cap must be refused with a one-line
/// `"server at capacity"` rather than queued or dropped silently.
fn probe_capacity(addr: &str, cap: usize) -> Result<(), String> {
    // Fill the admission slots with idle connections...
    let mut held = Vec::new();
    for _ in 0..cap {
        held.push(TcpStream::connect(addr).map_err(|e| e.to_string())?);
    }
    // ...then the next one must be politely refused. The held ones sit
    // ahead of it in the accept queue, so the first try should see the
    // refusal; a few more keep the probe tolerant of a slow server.
    let mut last = String::new();
    for _ in 0..20 {
        let mut extra = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = extra.write_all(b"{\"op\":\"ping\"}\n");
        match read_raw_line(&mut extra, Duration::from_secs(2)) {
            Ok(resp) if resp.contains("server at capacity") => {
                outln!(
                    "probe capacity: ok (connection {} refused politely)",
                    cap + 1
                );
                return Ok(());
            }
            Ok(resp) => last = resp,
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Err(format!("capacity probe never saw a refusal; last: {last}"))
}

fn run_probes(addr: &str, args: &Args) -> Result<(), String> {
    let battery = args.get("--battery").unwrap_or("all");
    let line_bytes: usize = args.num("--line-bytes")?.unwrap_or(512 * 1024);
    let connections: Option<usize> = args.num("--connections")?;
    let mut ran = 0;
    if matches!(battery, "all" | "oversized") {
        probe_oversized(addr, line_bytes)?;
        ran += 1;
    }
    if matches!(battery, "all" | "garbage") {
        probe_garbage(addr)?;
        ran += 1;
    }
    if matches!(battery, "all" | "panic") {
        probe_panic(addr)?;
        ran += 1;
    }
    if matches!(battery, "all" | "deadline") {
        probe_deadline(addr)?;
        ran += 1;
    }
    if matches!(battery, "all" | "slowloris") {
        let conns: usize = args.num("--slow-conns")?.unwrap_or(8);
        let hold_ms: u64 = args.num("--hold-ms")?.unwrap_or(3000);
        probe_slowloris(addr, conns, hold_ms)?;
        ran += 1;
    }
    // Capacity needs to know the server's cap, so it only runs when
    // --connections says what to fill.
    if battery == "capacity" || (battery == "all" && connections.is_some()) {
        let cap = connections.ok_or("--connections is required for the capacity battery")?;
        probe_capacity(addr, cap)?;
        ran += 1;
    }
    if ran == 0 {
        return Err(format!(
            "unknown battery '{battery}' (all|oversized|garbage|panic|deadline|slowloris|capacity)"
        ));
    }
    outln!("probe: {ran} batteries passed");
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
    }
}
