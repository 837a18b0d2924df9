//! An accept error other than `WouldBlock` must not busy-loop the
//! level-triggered reactor: out of file descriptors, `accept` fails with
//! `EMFILE` while the connection stays queued and the listener readable.
//! Its own test binary, because it exhausts the process's descriptors.
#![cfg(target_os = "linux")]

use l2q_aspect::RelevanceOracle;
use l2q_core::L2qConfig;
use l2q_corpus::{generate, researchers_domain, CorpusConfig};
use l2q_service::{BundleConfig, HarvestServer, ServerConfig, ServingBundle};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

/// User + system CPU ticks of this process, read through a stat file
/// opened once up front: reading it later needs no free descriptor.
fn cpu_ticks(stat: &mut File) -> u64 {
    let mut text = String::new();
    stat.seek(SeekFrom::Start(0)).unwrap();
    stat.read_to_string(&mut text).unwrap();
    // After the parenthesised name: state is field 0, utime 11, stime 12.
    let fields: Vec<&str> = text[text.rfind(')').unwrap() + 2..].split(' ').collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn accept_errors_park_the_listener_instead_of_spinning() {
    let corpus = Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
    let oracle = RelevanceOracle::from_truth(&corpus);
    let bundle = Arc::new(ServingBundle::with_oracle(
        corpus,
        Vec::new(),
        oracle,
        L2qConfig::default(),
        BundleConfig::default(),
    ));
    let mut server = HarvestServer::spawn(bundle, ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut stat = File::open("/proc/self/stat").unwrap();

    // Cap the descriptor table a little above what is open, fill it, then
    // free exactly one descriptor: the client's socket takes it, and the
    // reactor's accept fails with EMFILE.
    let open = std::fs::read_dir("/proc/self/fd").unwrap().count();
    let pid = std::process::id();
    let prlimit = Command::new("prlimit")
        .args([format!("--pid={pid}"), format!("--nofile={}:", open + 16)])
        .status()
        .expect("run prlimit");
    assert!(prlimit.success(), "prlimit failed: {prlimit}");
    let mut hoard = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        hoard.push(f);
    }
    hoard.pop();
    let mut client = TcpStream::connect(server.addr()).expect("connect");
    client.write_all(b"{\"op\":\"ping\"}\n").expect("ping");

    // Every other thread blocks or sleeps; a reactor spinning on the
    // ready listener would burn the whole second (about 100 ticks).
    let before = cpu_ticks(&mut stat);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_ticks(&mut stat) - before;
    assert!(
        spent < 20,
        "reactor spun on accept errors: {spent} ticks in 1s"
    );

    // Descriptors free again: the queued connection is admitted and served.
    drop(hoard);
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(&client).read_line(&mut line).expect("pong");
    assert!(line.contains("\"ok\":true"), "not served: {line}");
    server.shutdown();
}
