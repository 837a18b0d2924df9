//! The `l2q` command line: it refuses a flag it does not know before
//! building a corpus (a misspelled `--queries` must not run a harvest
//! with the default budget), and `harvest` runs a method the way the
//! evaluation does.

use l2q::aspect::{train_aspect_models, RelevanceOracle, TrainConfig};
use l2q::baselines::RndSelector;
use l2q::core::{Harvester, L2qConfig};
use l2q::corpus::{generate, researchers_domain, CorpusConfig, EntityId};
use l2q::retrieval::SearchEngine;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn harvest_refuses_an_unknown_flag() {
    let args = [
        "harvest",
        "--domain",
        "researchers",
        "--entity",
        "3",
        "--aspect",
        "RESEARCH",
        "--entities",
        "12",
        "--pages",
        "5",
        "--querys",
        "5",
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_l2q"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("try_wait").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("l2q {args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited 0; stdout: {stdout}");
    assert!(stderr.contains("'--querys'"), "stderr: {stderr}");
    assert!(!stdout.contains("harvesting"), "stdout: {stdout}");
}

/// RND is domain-blind in the evaluation, so `l2q harvest --method rnd`
/// must not hand it the domain model either: with one, it also draws from
/// the frequent domain queries and fires different queries.
#[test]
fn harvest_runs_rnd_without_the_domain_model() {
    let out = Command::new(env!("CARGO_BIN_EXE_l2q"))
        .args([
            "harvest",
            "--domain",
            "researchers",
            "--entity",
            "3",
            "--aspect",
            "RESEARCH",
            "--method",
            "rnd",
            "--entities",
            "16",
            "--pages",
            "10",
            "--seed",
            "42",
        ])
        .stdin(Stdio::null())
        .output()
        .expect("run l2q harvest");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    let fired: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("query "))
        .filter_map(|rest| rest.split('"').nth(1))
        .collect();

    // The same corpus, oracle and budget as `l2q harvest`, with no domain
    // model.
    let corpus = std::sync::Arc::new(
        generate(
            &researchers_domain(),
            &CorpusConfig {
                n_entities: 16,
                pages_per_entity: 10,
                seed: 42,
                ..CorpusConfig::default()
            },
        )
        .unwrap(),
    );
    let models = train_aspect_models(&corpus, &TrainConfig::default());
    let oracle = RelevanceOracle::from_models(&corpus, &models);
    let engine = SearchEngine::with_defaults(corpus.clone());
    let harvester = Harvester {
        corpus: &corpus,
        engine: &engine,
        oracle: &oracle,
        domain: None,
        cfg: L2qConfig::default().with_n_queries(3),
    };
    let aspect = corpus.aspect_by_name("RESEARCH").unwrap();
    let rec = harvester.run(EntityId(3), aspect, &mut RndSelector::new(42));
    let expected: Vec<String> = rec
        .iterations
        .iter()
        .map(|it| it.query.render(&corpus.symbols))
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(fired, expected, "stdout: {stdout}");
}
