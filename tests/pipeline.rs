//! End-to-end integration tests: corpus → classifiers → engine → domain
//! phase → harvest → evaluation, across crates.

use l2q::aspect::{train_aspect_models, RelevanceOracle, TrainConfig};
use l2q::core::{learn_domain, Harvester, L2qConfig, L2qSelector};
use l2q::corpus::{cars_domain, generate, researchers_domain, Corpus, CorpusConfig, EntityId};
use l2q::eval::{page_metrics, Method, Split, SplitEval};
use l2q::retrieval::SearchEngine;

struct Pipeline {
    corpus: std::sync::Arc<Corpus>,
    oracle: RelevanceOracle,
}

fn researcher_pipeline() -> Pipeline {
    let corpus = generate(
        &researchers_domain(),
        &CorpusConfig {
            n_entities: 16,
            pages_per_entity: 16,
            seed: 99,
            ..CorpusConfig::tiny()
        },
    )
    .unwrap();
    let corpus = std::sync::Arc::new(corpus);
    let models = train_aspect_models(&corpus, &TrainConfig::default());
    let oracle = RelevanceOracle::from_models(&corpus, &models);
    Pipeline { corpus, oracle }
}

#[test]
fn full_pipeline_with_trained_classifiers() {
    let p = researcher_pipeline();
    let engine = SearchEngine::with_defaults(p.corpus.clone());
    let cfg = L2qConfig::default();
    let domain_entities: Vec<EntityId> = p.corpus.entity_ids().take(8).collect();
    let domain = learn_domain(&p.corpus, &domain_entities, &p.oracle, &cfg);
    assert!(domain.query_count() > 0);
    assert!(domain.template_count() > 0);

    let harvester = Harvester {
        corpus: &p.corpus,
        engine: &engine,
        oracle: &p.oracle,
        domain: Some(&domain),
        cfg,
    };
    let target = EntityId(12);
    for aspect in p.corpus.aspects() {
        let mut sel = L2qSelector::l2qbal();
        let rec = harvester.run(target, aspect, &mut sel);
        assert!(!rec.gathered.is_empty(), "no pages gathered");
        // Every gathered page belongs to the target entity (hard seed
        // focusing) and appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for &pg in &rec.gathered {
            assert!(seen.insert(pg));
            assert_eq!(p.corpus.page(pg).entity, target);
        }
    }
}

#[test]
fn every_selector_runs_on_every_aspect() {
    let p = researcher_pipeline();
    let engine = SearchEngine::with_defaults(p.corpus.clone());
    let cfg = L2qConfig::default();
    let domain_entities: Vec<EntityId> = p.corpus.entity_ids().take(8).collect();
    let domain = learn_domain(&p.corpus, &domain_entities, &p.oracle, &cfg);
    let aspect = p.corpus.aspect_by_name("RESEARCH").unwrap();
    for name in Method::names() {
        let method = Method::named(name, 3).unwrap();
        let harvester = Harvester {
            corpus: &p.corpus,
            engine: &engine,
            oracle: &p.oracle,
            domain: method.domain(&domain),
            cfg,
        };
        let mut sel = method.selector();
        let rec = harvester.run(EntityId(10), aspect, sel.as_mut());
        assert!(
            !rec.seed_results.is_empty(),
            "{}: seed retrieved nothing",
            sel.name()
        );
        // Queries never repeat within a run (includes the seed).
        let mut fired: Vec<_> = rec.queries().collect();
        fired.sort();
        let before = fired.len();
        fired.dedup();
        assert_eq!(before, fired.len(), "{} repeated a query", sel.name());
    }
}

#[test]
fn evaluation_normalizes_methods_between_zero_and_ideal() {
    let p = researcher_pipeline();
    let engine = SearchEngine::with_defaults(p.corpus.clone());
    let split = Split {
        domain: p.corpus.entity_ids().take(8).collect(),
        validation: Vec::new(),
        test: p.corpus.entity_ids().skip(8).take(4).collect(),
    };
    let se = SplitEval::prepare(&engine, &p.oracle, &split, 4, L2qConfig::default());

    let eval = se.evaluate(Method::named("p", 0).unwrap());
    assert_eq!(eval.name, "P");
    for it in &eval.per_iter {
        assert!(it.pairs > 0);
        assert!(it.raw.precision >= 0.0 && it.raw.precision <= 1.0);
        assert!(it.raw.recall >= 0.0 && it.raw.recall <= 1.0);
        assert!(it.normalized.precision.is_finite());
    }
}

#[test]
fn cars_domain_end_to_end() {
    let corpus = generate(
        &cars_domain(),
        &CorpusConfig {
            n_entities: 12,
            ..CorpusConfig::tiny()
        },
    )
    .unwrap();
    let corpus = std::sync::Arc::new(corpus);
    let models = train_aspect_models(&corpus, &TrainConfig::default());
    let oracle = RelevanceOracle::from_models(&corpus, &models);
    let engine = SearchEngine::with_defaults(corpus.clone());
    let cfg = L2qConfig::default();
    let domain_entities: Vec<EntityId> = corpus.entity_ids().take(6).collect();
    let domain = learn_domain(&corpus, &domain_entities, &oracle, &cfg);
    let harvester = Harvester {
        corpus: &corpus,
        engine: &engine,
        oracle: &oracle,
        domain: Some(&domain),
        cfg,
    };
    let aspect = corpus.aspect_by_name("SAFETY").unwrap();
    let mut sel = L2qSelector::l2qr();
    let rec = harvester.run(EntityId(9), aspect, &mut sel);
    let m = page_metrics(&corpus, &oracle, EntityId(9), aspect, &rec.gathered);
    assert!(m.is_some(), "SAFETY must have relevant pages");
}

#[test]
fn paragraph_granularity_pipeline_works_end_to_end() {
    // The paper's finer granularity: retrieval units = paragraphs. The
    // exploded corpus drives the identical pipeline.
    use l2q::corpus::explode_to_paragraphs;
    let p = researcher_pipeline();
    let (units, origin) = explode_to_paragraphs(&p.corpus);
    let units = std::sync::Arc::new(units);
    let models = train_aspect_models(&units, &TrainConfig::default());
    let oracle = RelevanceOracle::from_models(&units, &models);
    let engine = SearchEngine::with_defaults(units.clone());
    let cfg = L2qConfig::default();
    let domain_entities: Vec<EntityId> = units.entity_ids().take(8).collect();
    let domain = learn_domain(&units, &domain_entities, &oracle, &cfg);
    let harvester = Harvester {
        corpus: &units,
        engine: &engine,
        oracle: &oracle,
        domain: Some(&domain),
        cfg,
    };
    let aspect = units.aspect_by_name("RESEARCH").unwrap();
    let target = EntityId(12);
    let mut sel = L2qSelector::l2qbal();
    let rec = harvester.run(target, aspect, &mut sel);
    assert!(!rec.gathered.is_empty());
    // Gathered units map back to real (page, paragraph) positions of the
    // original corpus.
    for &u in &rec.gathered {
        let (src, pi) = origin.of(u);
        let page = p.corpus.page(src);
        assert_eq!(page.entity, target);
        assert!((pi as usize) < page.paragraphs.len());
    }
    let m = page_metrics(&units, &oracle, target, aspect, &rec.gathered);
    assert!(m.is_some());
}

#[test]
fn seed_only_baseline_is_weaker_than_l2q_on_average() {
    // Harvesting with L2QBAL must beat not harvesting at all (seed only)
    // in F1, averaged over entities — the most basic sanity of the whole
    // system.
    let p = researcher_pipeline();
    let engine = SearchEngine::with_defaults(p.corpus.clone());
    let cfg = L2qConfig::default();
    let domain_entities: Vec<EntityId> = p.corpus.entity_ids().take(8).collect();
    let domain = learn_domain(&p.corpus, &domain_entities, &p.oracle, &cfg);
    let harvester = Harvester {
        corpus: &p.corpus,
        engine: &engine,
        oracle: &p.oracle,
        domain: Some(&domain),
        cfg,
    };
    let aspect = p.corpus.aspect_by_name("RESEARCH").unwrap();

    let mut f_seed = 0.0;
    let mut f_l2q = 0.0;
    for e in p.corpus.entity_ids().skip(8) {
        let mut sel = L2qSelector::l2qbal();
        let rec = harvester.run(e, aspect, &mut sel);
        let m_all = page_metrics(&p.corpus, &p.oracle, e, aspect, &rec.gathered).unwrap();
        let m_seed = page_metrics(&p.corpus, &p.oracle, e, aspect, &rec.seed_results).unwrap();
        f_l2q += m_all.f1;
        f_seed += m_seed.f1;
    }
    assert!(
        f_l2q > f_seed,
        "harvesting must beat seed-only: {f_l2q:.3} vs {f_seed:.3}"
    );
}
