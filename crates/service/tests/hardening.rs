//! Adversarial-client tests for the hardened serving boundary: slow
//! writers, oversized and garbage requests, missed deadlines, panicking
//! step batches, and connection-capacity refusals — all against a real
//! `HarvestServer` on an ephemeral port.

use l2q_aspect::RelevanceOracle;
use l2q_core::L2qConfig;
use l2q_corpus::{generate, researchers_domain, Corpus, CorpusConfig};
use l2q_service::{
    BundleConfig, Client, ClientConfig, HarvestServer, Request, ServerConfig, ServerHandle,
    ServingBundle,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn corpus() -> Arc<Corpus> {
    Arc::new(
        generate(
            &researchers_domain(),
            &CorpusConfig {
                n_entities: 8,
                pages_per_entity: 10,
                seed: 11,
                ..CorpusConfig::tiny()
            },
        )
        .unwrap(),
    )
}

fn start_server(cfg: ServerConfig) -> ServerHandle {
    let corpus = corpus();
    let oracle = RelevanceOracle::from_truth(&corpus);
    let bundle = Arc::new(ServingBundle::with_oracle(
        corpus,
        Vec::new(),
        oracle,
        L2qConfig::default(),
        BundleConfig::default(),
    ));
    HarvestServer::spawn(bundle, cfg, "127.0.0.1:0").expect("bind ephemeral port")
}

fn default_cfg() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_cap: 32,
        ..ServerConfig::default()
    }
}

/// Read one newline-terminated line off a raw socket within `timeout`.
fn read_line_raw(stream: &mut TcpStream, timeout: Duration) -> std::io::Result<String> {
    stream.set_read_timeout(Some(timeout))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed before newline",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            return Ok(String::from_utf8_lossy(&buf[..pos]).into_owned());
        }
    }
}

/// The seed server cleared its line buffer on every read timeout, so a
/// request arriving slower than the 200ms read-timeout slices was
/// silently corrupted. A byte-at-a-time writer with 250ms pauses must
/// still get `ok:true`.
#[test]
fn slow_writer_request_survives_read_timeouts() {
    let mut handle = start_server(default_cfg());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");

    let request = b"{\"op\":\"ping\",\"request_id\":9}\n";
    // Pause between the first bytes (well past the server's 200ms read
    // timeout) to force several Idle cycles mid-line, then finish.
    for &b in &request[..4] {
        stream.write_all(&[b]).expect("write byte");
        std::thread::sleep(Duration::from_millis(250));
    }
    stream.write_all(&request[4..]).expect("write rest");

    let resp = read_line_raw(&mut stream, Duration::from_secs(5)).expect("response");
    assert!(
        resp.contains("\"ok\":true"),
        "slow-written ping was corrupted: {resp}"
    );
    assert!(
        resp.contains("\"request_id\":9"),
        "request_id not echoed: {resp}"
    );
    handle.shutdown();
}

/// A request line past `max_line_bytes` gets a polite structured error
/// and a graceful close — not unbounded buffering or a reset that eats
/// the error.
#[test]
fn oversized_request_line_is_refused_then_connection_closes() {
    let mut handle = start_server(ServerConfig {
        max_line_bytes: 4096,
        ..default_cfg()
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");

    let mut line = vec![b'x'; 64 * 1024];
    line.push(b'\n');
    stream.write_all(&line).expect("write oversized line");

    let resp = read_line_raw(&mut stream, Duration::from_secs(5)).expect("error response");
    assert!(resp.contains("\"ok\":false"), "expected refusal: {resp}");
    assert!(resp.contains("exceeds"), "unexpected error text: {resp}");

    // The server hangs up after the refusal: the next read sees EOF.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut rest = Vec::new();
    let closed = stream.read_to_end(&mut rest).is_ok();
    assert!(closed, "connection was reset, not closed gracefully");
    assert!(rest.is_empty(), "unexpected trailing bytes: {rest:?}");
    handle.shutdown();
}

/// Garbage before valid JSON yields a bad-request error without
/// poisoning the connection for the valid request that follows.
#[test]
fn garbage_then_valid_request_keeps_the_connection_usable() {
    let mut handle = start_server(default_cfg());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");

    stream.write_all(b"definitely not json\n").expect("garbage");
    let first = read_line_raw(&mut stream, Duration::from_secs(5)).expect("error response");
    assert!(first.contains("\"ok\":false"), "expected refusal: {first}");
    assert!(first.contains("bad request"), "unexpected error: {first}");

    stream
        .write_all(b"{\"op\":\"ping\",\"request_id\":3}\n")
        .expect("valid request");
    let second = read_line_raw(&mut stream, Duration::from_secs(5)).expect("ping response");
    assert!(
        second.contains("\"ok\":true"),
        "connection poisoned: {second}"
    );
    assert!(
        second.contains("\"request_id\":3"),
        "id not echoed: {second}"
    );
    handle.shutdown();
}

/// A step batch that misses its deadline returns a deadline error
/// immediately; the batch still completes in the background.
#[test]
fn deadline_exceeded_step_errors_while_batch_completes_in_background() {
    let mut handle = start_server(default_cfg());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The sleep probe selector stalls 300ms, then exhausts.
    let session = client
        .create(0, "RESEARCH", "sleep=300", Some(4), 0)
        .expect("create sleep session");
    let err = client
        .step_with_deadline(session, 1, 0, 50)
        .expect_err("50ms deadline must cut a 300ms batch short");
    assert!(
        err.to_string().contains("deadline"),
        "unexpected error: {err}"
    );

    // The batch keeps running server-side and finishes the session.
    let mut state = String::new();
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        state = client
            .status(session)
            .expect("status")
            .state
            .unwrap_or_default();
        if state != "running" {
            break;
        }
    }
    assert_eq!(
        state, "finished:selector_exhausted",
        "background batch never completed"
    );
    handle.shutdown();
}

/// A panicking step batch fails only its own session: the worker pool
/// keeps its full complement, other sessions keep harvesting, and the
/// panic is visible in `worker_panics_total`.
#[test]
fn panicking_batch_fails_session_but_server_keeps_serving() {
    let mut handle = start_server(default_cfg());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let doomed = client
        .create(0, "RESEARCH", "panic", Some(4), 0)
        .expect("create panic session");
    let err = client
        .step(doomed, 1, 0)
        .expect_err("panic batch must refuse");
    assert!(
        err.to_string().contains("failed"),
        "unexpected error: {err}"
    );
    let status = client.status(doomed).expect("status");
    assert_eq!(status.state.as_deref(), Some("failed"));

    // Re-stepping a failed session refuses without executing anything.
    let err = client.step(doomed, 1, 0).expect_err("failed session steps");
    assert!(err.to_string().contains("failed"), "unexpected: {err}");

    // The pool survived: full worker count, and a healthy session still
    // harvests to completion.
    let stats = client.stats().expect("stats").stats.unwrap();
    assert_eq!(stats.workers, 2, "worker died without respawn");
    let healthy = client
        .create(1, "RESEARCH", "l2qbal", Some(3), 0)
        .expect("create healthy session");
    loop {
        let resp = client.step(healthy, 4, 40).expect("healthy step");
        if resp.state.as_deref() != Some("running") {
            break;
        }
    }

    // The panic is accounted for in the metrics registry.
    let text = client
        .metrics("text")
        .expect("metrics")
        .metrics_text
        .unwrap();
    let panics = text
        .lines()
        .find(|l| l.starts_with("worker_panics_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(panics >= 1, "worker_panics_total not incremented:\n{text}");
    handle.shutdown();
}

/// Connections past `max_connections` get a one-line polite refusal; a
/// freed slot admits new connections again.
#[test]
fn connections_past_the_cap_are_politely_refused() {
    let mut handle = start_server(ServerConfig {
        max_connections: 2,
        ..default_cfg()
    });
    let addr = handle.addr();

    // Occupy both slots and prove they are being served.
    let mut held: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for conn in held.iter_mut() {
        conn.write_all(b"{\"op\":\"ping\"}\n").expect("ping");
        let resp = read_line_raw(conn, Duration::from_secs(5)).expect("pong");
        assert!(resp.contains("\"ok\":true"), "holder not served: {resp}");
    }

    // The third connection is refused with the capacity error.
    let mut extra = TcpStream::connect(addr).expect("connect");
    let resp = read_line_raw(&mut extra, Duration::from_secs(5)).expect("refusal line");
    assert!(
        resp.contains("server at capacity"),
        "expected capacity refusal: {resp}"
    );
    assert!(resp.contains("retry_after_ms"), "no retry hint: {resp}");

    // Releasing a slot re-admits: drop one holder, then a fresh
    // connection gets served (allow the accept loop a few tries to
    // observe the freed slot).
    drop(held.pop());
    let mut admitted = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"{\"op\":\"ping\"}\n").expect("ping");
        match read_line_raw(&mut conn, Duration::from_secs(2)) {
            Ok(resp) if resp.contains("\"ok\":true") => {
                admitted = true;
                break;
            }
            _ => continue,
        }
    }
    assert!(admitted, "freed slot never re-admitted a connection");
    handle.shutdown();
}

/// The client's response wait is bounded: a server that never answers
/// yields `ClientError::Timeout`, not an eternal hang.
#[test]
fn client_times_out_instead_of_hanging_forever() {
    // A bare listener that accepts and then stays silent.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (_conn, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(3));
    });

    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            response_timeout: Duration::from_millis(300),
            read_slice: Duration::from_millis(50),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let started = std::time::Instant::now();
    let err = client
        .request(&Request::op("ping"))
        .expect_err("silent server must time out");
    assert!(
        err.to_string().contains("no response"),
        "unexpected error: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "timeout took {:?}",
        started.elapsed()
    );
    server.join().unwrap();
}

/// The `deadline_ms` clock starts when the request enters the server,
/// so time spent *waiting for a worker* counts against the deadline: the
/// reactor stamps the deadline at parse time. With one worker occupied
/// by a slow batch, a small-deadline step on another session must come
/// back as a deadline error on time — not wait out the whole queue —
/// and the cut-short batch must still complete in the background.
#[test]
fn queue_wait_counts_against_the_deadline() {
    let mut handle = start_server(ServerConfig {
        workers: 1,
        queue_cap: 32,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Both sessions exist before the single worker gets busy.
    let blocker = client
        .create(0, "RESEARCH", "sleep=600", Some(4), 0)
        .expect("create blocker");
    let victim = client
        .create(1, "RESEARCH", "l2qbal", Some(3), 0)
        .expect("create victim");

    // Occupy the only worker with the 600ms sleeping batch.
    let blocker_thread = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect blocker client");
        let _ = c.step(blocker, 1, 0);
    });
    std::thread::sleep(Duration::from_millis(100));

    let started = std::time::Instant::now();
    let err = client
        .step_with_deadline(victim, 1, 0, 100)
        .expect_err("queued step must miss its 100ms deadline");
    let elapsed = started.elapsed();
    assert!(
        err.to_string().contains("deadline"),
        "unexpected error: {err}"
    );
    assert!(
        elapsed < Duration::from_millis(450),
        "deadline ignored queue wait: errored only after {elapsed:?}"
    );

    // The victim's batch still runs once the worker frees up.
    let mut stepped = false;
    for _ in 0..150 {
        std::thread::sleep(Duration::from_millis(20));
        let status = client.status(victim).expect("status");
        if status.steps_taken.unwrap_or(0) >= 1 {
            stepped = true;
            break;
        }
    }
    assert!(stepped, "cut-short batch never ran in background");

    blocker_thread.join().expect("blocker thread");
    handle.shutdown();
}
