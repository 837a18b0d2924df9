//! `l2q` — command-line interface to the Learning-to-Query pipeline.
//!
//! Takes the commands and flags in [`USAGE`] (`l2q help`) and refuses
//! any other. Everything runs on the built-in synthetic corpora
//! (deterministic per seed); `harvest` prints the fired queries and the
//! resulting precision/recall, `export-model` persists a learned domain
//! model as portable JSON that `harvest --model` can reload.

use l2q::aspect::{train_aspect_models, RelevanceOracle, TrainConfig};
use l2q::core::{learn_domain, DomainModel, Harvester, L2qConfig};
use l2q::corpus::{
    cars_domain, explode_to_paragraphs, generate, researchers_domain, Corpus, CorpusConfig,
    EntityId,
};
use l2q::eval::{make_splits, page_metrics, Method, SplitEval};
use l2q::retrieval::SearchEngine;
use l2q_service::cli::{Args, Spec};
use std::process::ExitCode;

const USAGE: &str = "\
l2q — Learning to Query (ICDE 2016 reproduction)

USAGE:
  l2q corpus        --domain <researchers|cars> [--entities N] [--pages N] [--seed N]
  l2q aspects       --domain <researchers|cars> [--entities N] [--pages N] [--seed N]
  l2q harvest       --domain <researchers|cars> --entity <INDEX> --aspect <NAME>
                    [--method NAME] [--queries N] [--seed N] [--entities N]
                    [--pages N] [--paragraphs] [--model FILE]
  l2q eval          --domain <researchers|cars> [--methods a,b,c] [--queries N]
                    [--test N] [--entities N] [--pages N] [--seed N] [--paragraphs]
  l2q export-model  --domain <researchers|cars> --out FILE [--entities N] [--pages N]
                    [--seed N]

METHODS:
  l2qbal (default), l2qp, l2qr, p, r, p+t, r+t, p+q, r+q, lm, aq, hr, mq, rnd, ideal
";

const SPEC: Spec = Spec {
    numbers: &[
        "--entities",
        "--pages",
        "--seed",
        "--entity",
        "--queries",
        "--test",
    ],
    values: &[
        "--domain",
        "--aspect",
        "--method",
        "--model",
        "--methods",
        "--out",
    ],
    repeated: &[],
    bare: &["--paragraphs"],
    words: &[
        "corpus",
        "aspects",
        "harvest",
        "eval",
        "export-model",
        "help",
    ],
};

struct Session {
    corpus: std::sync::Arc<Corpus>,
    oracle: RelevanceOracle,
    accuracy: Vec<f64>,
}

fn build_session(args: &Args) -> Result<Session, String> {
    let domain = args.get("--domain").ok_or("--domain is required")?;
    let spec = match domain {
        "researchers" => researchers_domain(),
        "cars" => cars_domain(),
        other => return Err(format!("unknown domain '{other}' (researchers|cars)")),
    };
    let default_entities = if domain == "researchers" { 100 } else { 80 };
    let config = CorpusConfig {
        n_entities: args.num("--entities")?.unwrap_or(default_entities),
        pages_per_entity: args.num("--pages")?.unwrap_or(30),
        seed: args.num("--seed")?.unwrap_or(42),
        ..CorpusConfig::default()
    };
    let base = generate(&spec, &config).map_err(|e| e.to_string())?;
    let corpus = if args.has("--paragraphs") {
        explode_to_paragraphs(&base).0
    } else {
        base
    };
    let corpus = std::sync::Arc::new(corpus);
    let models = train_aspect_models(&corpus, &TrainConfig::default());
    let accuracy = models.iter().map(|m| m.accuracy).collect();
    let oracle = RelevanceOracle::from_models(&corpus, &models);
    Ok(Session {
        corpus,
        oracle,
        accuracy,
    })
}

fn cmd_corpus(args: &Args) -> Result<(), String> {
    let s = build_session(args)?;
    let c = &s.corpus;
    println!("domain:      {}", c.domain);
    println!("entities:    {}", c.entities.len());
    println!("pages:       {}", c.pages.len());
    println!("paragraphs:  {}", c.paragraph_count());
    println!("vocabulary:  {} symbols", c.symbols.len());
    println!("types:       {}", c.types.len());
    println!("\nfirst entities:");
    for e in c.entities.iter().take(5) {
        println!("  [{:>3}] {}  (seed: \"{}\")", e.id.0, e.name, e.seed_query);
    }
    Ok(())
}

fn cmd_aspects(args: &Args) -> Result<(), String> {
    let s = build_session(args)?;
    let freq = s.corpus.paragraph_frequency();
    println!("{:14} {:>10} {:>10}", "Aspect", "Frequency", "Accuracy");
    for a in s.corpus.aspects() {
        println!(
            "{:14} {:>10} {:>10.2}",
            s.corpus.aspect_name(a),
            freq[a.index()],
            s.accuracy[a.index()]
        );
    }
    Ok(())
}

fn cmd_harvest(args: &Args) -> Result<(), String> {
    let s = build_session(args)?;
    let c = &s.corpus;
    let entity_idx: u32 = args.num("--entity")?.ok_or("--entity is required")?;
    if entity_idx as usize >= c.entities.len() {
        return Err(format!(
            "entity index {entity_idx} out of range (corpus has {})",
            c.entities.len()
        ));
    }
    let entity = EntityId(entity_idx);
    let aspect_name = args.get("--aspect").ok_or("--aspect is required")?;
    let aspect = c
        .aspect_by_name(aspect_name)
        .ok_or_else(|| format!("unknown aspect '{aspect_name}'"))?;
    let method = Method::named(
        &args.get("--method").unwrap_or("l2qbal").to_lowercase(),
        args.num("--seed")?.unwrap_or(42),
    )?;

    let engine = SearchEngine::with_defaults(s.corpus.clone());
    let cfg = L2qConfig::default().with_n_queries(args.num("--queries")?.unwrap_or(3));

    // Domain phase from the other half of the corpus (excluding target).
    let domain_entities: Vec<EntityId> = c
        .entity_ids()
        .filter(|&e| e != entity)
        .take(c.entities.len() / 2)
        .collect();
    let domain = match args.get("--model") {
        Some(path) => {
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let (dm, stats) = DomainModel::from_json(&json, c).map_err(|e| e.to_string())?;
            println!(
                "loaded model: {} queries ({} dropped), {} templates ({} dropped)",
                stats.queries_resolved,
                stats.queries_dropped,
                stats.templates_resolved,
                stats.templates_dropped
            );
            dm
        }
        None => learn_domain(c, &domain_entities, &s.oracle, &cfg),
    };

    let harvester = Harvester {
        corpus: c,
        engine: &engine,
        oracle: &s.oracle,
        domain: method.domain(&domain),
        cfg,
    };
    let mut selector = method.selector();
    let rec = harvester.run(entity, aspect, selector.as_mut());

    println!(
        "harvesting {} / {} with {}",
        c.entity(entity).name,
        c.aspect_name(aspect),
        selector.name()
    );
    println!(
        "  seed \"{}\" retrieved {} units",
        c.entity(entity).seed_query,
        rec.seed_results.len()
    );
    for (i, it) in rec.iterations.iter().enumerate() {
        println!(
            "  query {}: \"{}\"  (+{} new)",
            i + 1,
            it.query.render(&c.symbols),
            it.new_pages.len()
        );
    }
    match page_metrics(c, &s.oracle, entity, aspect, &rec.gathered) {
        Some(m) => println!(
            "gathered {} units: precision {:.2}  recall {:.2}  F1 {:.2}  (selection {:?})",
            rec.gathered.len(),
            m.precision,
            m.recall,
            m.f1,
            rec.selection_time
        ),
        None => println!("entity has no relevant units for this aspect"),
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let s = build_session(args)?;
    let c = &s.corpus;
    let engine = SearchEngine::with_defaults(s.corpus.clone());
    let cfg = L2qConfig::default().with_n_queries(args.num("--queries")?.unwrap_or(3));
    let seed: u64 = args.num("--seed")?.unwrap_or(42);
    let methods = args
        .get("--methods")
        .unwrap_or("l2qbal,l2qp,l2qr,lm,aq,hr,mq,rnd")
        .split(',')
        .map(|m| Method::named(&m.trim().to_lowercase(), seed))
        .collect::<Result<Vec<_>, _>>()?;

    let split = make_splits(c.entities.len(), 1, seed ^ 0x51)
        .pop()
        .expect("one split");
    let test_cap = args.num("--test")?.unwrap_or(8);
    let se = SplitEval::prepare(&engine, &s.oracle, &split, test_cap, cfg);

    println!(
        "evaluating {} methods on {} test entities × {} aspects ({} queries, normalized)\n",
        methods.len(),
        se.test_entities().len(),
        c.aspect_count(),
        cfg.n_queries
    );
    println!(
        "{:10} {:>10} {:>8} {:>8} {:>8}",
        "method", "precision", "recall", "F1", "pairs"
    );
    for method in methods {
        let eval = se.evaluate(method);
        if let Some(it) = eval.at(cfg.n_queries) {
            println!(
                "{:10} {:>10.4} {:>8.4} {:>8.4} {:>8}",
                eval.name,
                it.normalized.precision,
                it.normalized.recall,
                it.normalized.f1,
                it.pairs
            );
        }
    }
    Ok(())
}

fn cmd_export_model(args: &Args) -> Result<(), String> {
    let s = build_session(args)?;
    let out = args.get("--out").ok_or("--out is required")?;
    let cfg = L2qConfig::default();
    let domain_entities: Vec<EntityId> = s
        .corpus
        .entity_ids()
        .take(s.corpus.entities.len() / 2)
        .collect();
    let dm = learn_domain(&s.corpus, &domain_entities, &s.oracle, &cfg);
    let json = dm.to_json(&s.corpus);
    std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "exported {} queries / {} templates from {} peers to {out} ({} KiB)",
        dm.query_count(),
        dm.template_count(),
        dm.domain_entity_count(),
        json.len() / 1024
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = SPEC.parse(std::env::args().skip(1))?;
    if args.help() {
        println!("{USAGE}");
        return Ok(());
    }
    match args.words() {
        [] | ["help"] => {
            println!("{USAGE}");
            Ok(())
        }
        ["corpus"] => cmd_corpus(&args),
        ["aspects"] => cmd_aspects(&args),
        ["harvest"] => cmd_harvest(&args),
        ["eval"] => cmd_eval(&args),
        ["export-model"] => cmd_export_model(&args),
        [.., extra] => Err(format!("unexpected argument '{extra}'")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
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

    #[test]
    fn every_documented_method_resolves() {
        let documented: Vec<&str> = USAGE
            .split("METHODS:")
            .nth(1)
            .expect("a METHODS section")
            .split(',')
            .map(|m| m.trim().trim_end_matches(" (default)"))
            .collect();
        assert_eq!(documented, Method::names().collect::<Vec<_>>());
        assert!(Method::named("nope", 1).is_err());
    }
}
