//! The domain phase (paper Sect. IV-B): learn template utilities from the
//! pages of peer entities, once per domain and aspect.
//!
//! A single reinforcement graph is built over all domain pages PD, their
//! enumerated queries QD and the templates TD abstracting those queries;
//! the fixpoint (Eq. 19) is then solved per aspect — the graph structure is
//! aspect-independent, only the page regularization changes — and per
//! utility (precision and recall), yielding `{U_D(t) | t ∈ T_D}` plus the
//! per-query domain utilities that the `+q` ablation baselines use.
//!
//! Page–query edges are exact bag containment (a page is retrievable by
//! every query whose words it contains with multiplicity), computed via an
//! inverted index over the domain pages.

use crate::candidates::page_queries;
use crate::config::L2qConfig;
use crate::fxhash::FxHashMap;
use crate::query::Query;
use crate::template::{templates_of, Template};
use l2q_aspect::RelevanceOracle;
use l2q_corpus::{AspectId, Corpus, EntityId};
use l2q_graph::{solve, Phase, Regularization, ReinforcementGraph, Rows, UtilityKind};
use l2q_retrieval::{DocId, InvertedIndex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Precision and recall utility of one vertex.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UtilityPair {
    /// Probabilistic precision P.
    pub precision: f64,
    /// Probabilistic recall R.
    pub recall: f64,
}

/// Per-aspect outputs of the domain phase.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct AspectDomainData {
    /// `P_D(q)` per domain-query index.
    pub query_precision: Vec<f64>,
    /// `R_D(q)` per domain-query index.
    pub query_recall: Vec<f64>,
    /// `P_D(t)` per template index.
    pub template_precision: Vec<f64>,
    /// `R_D(t)` per template index.
    pub template_recall: Vec<f64>,
    /// Per template: `(relevant pages covered, total pages covered)` across
    /// the domain — raw harvest statistics for the HR baseline.
    pub template_harvest: Vec<(u32, u32)>,
}

/// The learned domain model: template utilities (the paper's domain-phase
/// output), domain query statistics and the frequent-query candidate pool.
#[derive(Debug, Default)]
pub struct DomainModel {
    /// Process-unique identity of this model's contents (0 for the empty
    /// default): caches derived from a model compare ids, never
    /// addresses, which a later model may reuse.
    id: u64,
    queries: Vec<Query>,
    query_index: FxHashMap<Query, u32>,
    templates: Vec<Template>,
    template_index: FxHashMap<Template, u32>,
    /// Distinct-entity support per query.
    support: Vec<u32>,
    /// Query indices with support ≥ threshold, most supported first.
    frequent: Vec<u32>,
    per_aspect: Vec<AspectDomainData>,
    /// `R*_D(t)`: template recall when *every* domain page counts as
    /// relevant (aspect-independent). Regularizes the entity phase's
    /// Y*-walk so the collective-precision denominator sees the same
    /// domain knowledge as its numerator.
    template_recall_star: Vec<f64>,
    n_domain_entities: usize,
}

/// A fresh [`DomainModel::id`]; models are immutable once built, so a
/// new id per built model identifies its contents.
fn next_model_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl DomainModel {
    /// Process-unique identity of this model's contents.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Number of distinct domain queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Number of distinct templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Number of domain entities the model was learned from.
    pub fn domain_entity_count(&self) -> usize {
        self.n_domain_entities
    }

    /// Domain utilities of a template for an aspect, if the template was
    /// seen in the domain.
    pub fn template_utility(&self, aspect: AspectId, t: &Template) -> Option<UtilityPair> {
        let &i = self.template_index.get(t)?;
        let d = &self.per_aspect[aspect.index()];
        Some(UtilityPair {
            precision: d.template_precision[i as usize],
            recall: d.template_recall[i as usize],
        })
    }

    /// Domain utilities of a query for an aspect, if seen in the domain.
    pub fn query_utility(&self, aspect: AspectId, q: &Query) -> Option<UtilityPair> {
        let &i = self.query_index.get(q)?;
        let d = &self.per_aspect[aspect.index()];
        Some(UtilityPair {
            precision: d.query_precision[i as usize],
            recall: d.query_recall[i as usize],
        })
    }

    /// Raw harvest statistics of a template (HR baseline).
    pub fn template_harvest(&self, aspect: AspectId, t: &Template) -> Option<(u32, u32)> {
        let &i = self.template_index.get(t)?;
        Some(self.per_aspect[aspect.index()].template_harvest[i as usize])
    }

    /// `R*_D(t)`: the template's domain recall under Y* (every page
    /// relevant), if the template was seen in the domain.
    pub fn template_recall_star(&self, t: &Template) -> Option<f64> {
        let &i = self.template_index.get(t)?;
        self.template_recall_star.get(i as usize).copied()
    }

    /// The frequent domain queries (entity-phase candidate pool), most
    /// supported first.
    pub fn frequent_queries(&self) -> impl Iterator<Item = &Query> {
        self.frequent.iter().map(|&i| &self.queries[i as usize])
    }

    /// The `k`-th of [`DomainModel::frequent_queries`].
    pub(crate) fn frequent_query(&self, k: usize) -> &Query {
        &self.queries[self.frequent[k] as usize]
    }

    /// Rebuild a model from its parts (used by portable import).
    pub(crate) fn from_parts(
        queries: Vec<Query>,
        templates: Vec<Template>,
        support: Vec<u32>,
        frequent: Vec<u32>,
        per_aspect: Vec<AspectDomainData>,
        template_recall_star: Vec<f64>,
        n_domain_entities: usize,
    ) -> Self {
        let query_index = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (q.clone(), i as u32))
            .collect();
        let template_index = templates
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u32))
            .collect();
        Self {
            id: next_model_id(),
            queries,
            query_index,
            templates,
            template_index,
            support,
            frequent,
            per_aspect,
            template_recall_star,
            n_domain_entities,
        }
    }

    /// Raw query list (portable export).
    pub(crate) fn queries_raw(&self) -> &[Query] {
        &self.queries
    }

    /// Raw template list (portable export).
    pub(crate) fn templates_raw(&self) -> &[Template] {
        &self.templates
    }

    /// Raw support vector (portable export).
    pub(crate) fn support_raw(&self) -> &[u32] {
        &self.support
    }

    /// Raw frequent indices (portable export).
    pub(crate) fn frequent_raw(&self) -> &[u32] {
        &self.frequent
    }

    /// Raw per-aspect data (portable export).
    pub(crate) fn per_aspect_raw(&self) -> &[AspectDomainData] {
        &self.per_aspect
    }

    /// Raw Y* template recall (portable export).
    pub(crate) fn template_recall_star_raw(&self) -> &[f64] {
        &self.template_recall_star
    }

    /// Entity support of a query (0 if unseen).
    pub fn query_support(&self, q: &Query) -> u32 {
        self.query_index
            .get(q)
            .map(|&i| self.support[i as usize])
            .unwrap_or(0)
    }

    /// The `k` *frequent* domain queries with the best domain-phase
    /// utility for an aspect (`by_precision` picks P, else R) — the `+q`
    /// baselines' ranking. Restricting to the frequent pool mirrors the
    /// paper's ≥50-entity support threshold and keeps out one-page
    /// overfit queries whose walk utility is spuriously perfect. Ties
    /// break toward higher support then query order.
    pub fn best_queries(&self, aspect: AspectId, by_precision: bool, k: usize) -> Vec<Query> {
        let d = &self.per_aspect[aspect.index()];
        let score = |i: usize| {
            if by_precision {
                d.query_precision[i]
            } else {
                d.query_recall[i]
            }
        };
        let mut idx: Vec<usize> = self.frequent.iter().map(|&i| i as usize).collect();
        idx.sort_by(|&a, &b| {
            score(b)
                .partial_cmp(&score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| self.support[b].cmp(&self.support[a]))
                .then_with(|| a.cmp(&b))
        });
        idx.into_iter()
            .take(k)
            .map(|i| self.queries[i].clone())
            .collect()
    }
}

/// Learn the domain model from the pages of `domain_entities`.
pub fn learn_domain(
    corpus: &Corpus,
    domain_entities: &[EntityId],
    oracle: &RelevanceOracle,
    cfg: &L2qConfig,
) -> DomainModel {
    // Domain pages in a dense local order.
    let mut pages = Vec::new();
    for &e in domain_entities {
        pages.extend(corpus.pages_of(e).iter());
    }
    let n_pages = pages.len();
    if n_pages == 0 {
        return DomainModel::default();
    }

    // Enumerate queries, track per-entity support.
    let mut queries: Vec<Query> = Vec::new();
    let mut query_index: FxHashMap<Query, u32> = FxHashMap::default();
    let mut support: Vec<u32> = Vec::new();
    let mut last_entity: Vec<u32> = Vec::new();
    for page in &pages {
        let owner = page.entity.0;
        for q in page_queries(corpus, page, cfg.candidates.max_len) {
            let qi = *query_index.entry(q.clone()).or_insert_with(|| {
                queries.push(q);
                support.push(0);
                last_entity.push(u32::MAX);
                (queries.len() - 1) as u32
            }) as usize;
            if last_entity[qi] != owner {
                last_entity[qi] = owner;
                support[qi] += 1;
            }
        }
    }

    // One page row and one template row per query: containment via an
    // inverted index over domain pages, templates interned in order of
    // first occurrence.
    let index = InvertedIndex::build(pages.iter().map(|p| p.bow()));
    let mut qp = Rows::with_capacity(queries.len(), 0);
    let mut qt = Rows::with_capacity(queries.len(), 0);
    let mut templates: Vec<Template> = Vec::new();
    let mut template_index: FxHashMap<Template, u32> = FxHashMap::default();
    for q in &queries {
        qp.to
            .extend(containing_docs(&index, q).into_iter().map(|d| d.0));
        qp.end_row();
        for t in templates_of(q, corpus, cfg.template_mode) {
            let ti = *template_index.entry(t.clone()).or_insert_with(|| {
                templates.push(t);
                (templates.len() - 1) as u32
            });
            qt.to.push(ti);
        }
        qt.end_row();
    }

    // Per-template page coverage (for harvest statistics).
    let mut template_pages: Vec<HashSet<u32>> = vec![HashSet::new(); templates.len()];
    for q in 0..queries.len() {
        for &t in qt.row(q) {
            template_pages[t as usize].extend(qp.row(q));
        }
    }

    // Freeze the shared graph.
    let graph = ReinforcementGraph::from_unit_rows(n_pages, templates.len(), qp, qt);

    // Solve per aspect. The aspects are independent (each reads the
    // shared graph and its own relevance labels), so they run on scoped
    // threads; results are collected in aspect order, and each aspect's
    // own solve is untouched — the model does not depend on scheduling.
    let solve_aspect = |aspect: AspectId| -> AspectDomainData {
        let relevant: Vec<bool> = pages
            .iter()
            .map(|p| oracle.is_relevant(aspect, p.id))
            .collect();

        let preg = Regularization::precision_from_relevance(&graph, &relevant);
        let p = solve(
            &graph,
            UtilityKind::Precision,
            &preg,
            &cfg.walk,
            Phase::Domain,
        );
        let rreg = Regularization::recall_from_relevance(&graph, &relevant);
        let r = solve(&graph, UtilityKind::Recall, &rreg, &cfg.walk, Phase::Domain);

        let template_harvest = template_pages
            .iter()
            .map(|pages_of_t| {
                let total = pages_of_t.len() as u32;
                let rel = pages_of_t
                    .iter()
                    .filter(|&&pi| relevant[pi as usize])
                    .count() as u32;
                (rel, total)
            })
            .collect();

        AspectDomainData {
            query_precision: p.queries.clone(),
            query_recall: r.queries.clone(),
            template_precision: p.templates,
            template_recall: r.templates,
            template_harvest,
        }
    };
    let aspects: Vec<_> = corpus.aspects().collect();
    let per_aspect: Vec<AspectDomainData> = if aspects.len() > 1 {
        crossbeam::thread::scope(|scope| {
            let sa = &solve_aspect;
            let handles: Vec<_> = aspects
                .iter()
                .map(|&a| scope.spawn(move |_| sa(a)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("aspect solver panicked"))
                .collect()
        })
        .expect("crossbeam scope")
    } else {
        aspects.iter().map(|&a| solve_aspect(a)).collect()
    };

    // Aspect-independent Y* recall of templates.
    let all_relevant = vec![true; n_pages];
    let star_reg = Regularization::recall_from_relevance(&graph, &all_relevant);
    let template_recall_star = solve(
        &graph,
        UtilityKind::Recall,
        &star_reg,
        &cfg.walk,
        Phase::Domain,
    )
    .templates;

    // Frequent queries.
    let threshold = ((domain_entities.len() as f64 * cfg.candidates.min_entity_support_fraction)
        .ceil() as u32)
        .max(2);
    let mut frequent: Vec<u32> = (0..queries.len() as u32)
        .filter(|&i| support[i as usize] >= threshold)
        .collect();
    frequent.sort_by(|&a, &b| {
        support[b as usize]
            .cmp(&support[a as usize])
            .then_with(|| a.cmp(&b))
    });
    frequent.truncate(cfg.candidates.max_domain_queries);

    DomainModel {
        id: next_model_id(),
        queries,
        query_index,
        templates,
        template_index,
        support,
        frequent,
        per_aspect,
        template_recall_star,
        n_domain_entities: domain_entities.len(),
    }
}

/// Documents of `index` containing every word of `q` with multiplicity
/// (candidate docs from the rarest word's postings, verified by tf).
pub(crate) fn containing_docs(index: &InvertedIndex, q: &Query) -> Vec<DocId> {
    let bow = l2q_text::Bow::from_words(q.words());
    let mut terms: Vec<(l2q_text::Sym, u32)> = bow.iter().collect();
    if terms.is_empty() {
        return Vec::new();
    }
    // Drive from the rarest term.
    terms.sort_by_key(|&(w, _)| index.doc_freq(w));
    let (rarest, need) = terms[0];
    let mut out = Vec::new();
    for posting in index.postings(rarest) {
        if posting.tf < need {
            continue;
        }
        let ok = terms[1..]
            .iter()
            .all(|&(w, c)| index.tf(w, posting.doc) >= c);
        if ok {
            out.push(posting.doc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig};
    use l2q_text::Bow;

    fn setup() -> (Corpus, RelevanceOracle) {
        let c = generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap();
        let o = RelevanceOracle::from_truth(&c);
        (c, o)
    }

    fn domain_entities(c: &Corpus) -> Vec<EntityId> {
        c.entity_ids().take(c.entities.len() / 2).collect()
    }

    #[test]
    fn learns_templates_and_queries() {
        let (c, o) = setup();
        let model = learn_domain(&c, &domain_entities(&c), &o, &L2qConfig::default());
        assert!(
            model.query_count() > 100,
            "queries: {}",
            model.query_count()
        );
        assert!(
            model.template_count() > 10,
            "templates: {}",
            model.template_count()
        );
        assert!(model.frequent_queries().count() > 0);
    }

    #[test]
    fn research_templates_score_high_for_research_aspect() {
        let (c, o) = setup();
        let model = learn_domain(&c, &domain_entities(&c), &o, &L2qConfig::default());
        let research = c.aspect_by_name("RESEARCH").unwrap();
        let contact = c.aspect_by_name("CONTACT").unwrap();

        // Find a "<topic> research"-shaped template among the learned ones
        // by scanning a known generated phrase: any query of the form
        // (topic-word, "research") that occurred in the domain.
        let d = &model.per_aspect[research.index()];
        let mut best: Option<(f64, &Template)> = None;
        for (i, t) in model.templates.iter().enumerate() {
            let score = d.template_precision[i];
            if best.as_ref().map(|(s, _)| score > *s).unwrap_or(true) {
                best = Some((score, t));
            }
        }
        let (best_p_research, best_t) = best.expect("some template");
        assert!(best_p_research > 0.0);

        // The best RESEARCH-precision template should not be equally good
        // for CONTACT.
        let up = model.template_utility(contact, best_t).unwrap();
        assert!(
            best_p_research > up.precision,
            "aspect-specific template must differ across aspects"
        );
    }

    #[test]
    fn frequent_queries_have_support_above_threshold() {
        let (c, o) = setup();
        let cfg = L2qConfig::default();
        let entities = domain_entities(&c);
        let model = learn_domain(&c, &entities, &o, &cfg);
        let threshold =
            ((entities.len() as f64 * cfg.candidates.min_entity_support_fraction).ceil() as u32)
                .max(2);
        for q in model.frequent_queries() {
            assert!(model.query_support(q) >= threshold);
        }
    }

    #[test]
    fn best_queries_are_ranked_by_utility() {
        let (c, o) = setup();
        let model = learn_domain(&c, &domain_entities(&c), &o, &L2qConfig::default());
        let research = c.aspect_by_name("RESEARCH").unwrap();
        let best = model.best_queries(research, true, 10);
        assert_eq!(best.len(), 10);
        let scores: Vec<f64> = best
            .iter()
            .map(|q| model.query_utility(research, q).unwrap().precision)
            .collect();
        for w in scores.windows(2) {
            assert!(w[0] >= w[1], "not sorted: {scores:?}");
        }
    }

    #[test]
    fn containing_docs_respects_multiplicity() {
        let docs = [
            Bow::from_words(&[l2q_text::Sym(1), l2q_text::Sym(1)]),
            Bow::from_words(&[l2q_text::Sym(1), l2q_text::Sym(2)]),
        ];
        let index = InvertedIndex::build(docs.iter());
        let q = Query::new(&[l2q_text::Sym(1), l2q_text::Sym(1)]);
        let hits = containing_docs(&index, &q);
        assert_eq!(hits, vec![DocId(0)]);
        let q1 = Query::new(&[l2q_text::Sym(1)]);
        assert_eq!(containing_docs(&index, &q1).len(), 2);
        let missing = Query::new(&[l2q_text::Sym(9)]);
        assert!(containing_docs(&index, &missing).is_empty());
    }

    #[test]
    fn empty_domain_is_safe() {
        let (c, o) = setup();
        let model = learn_domain(&c, &[], &o, &L2qConfig::default());
        assert_eq!(model.query_count(), 0);
        assert_eq!(model.template_count(), 0);
    }

    #[test]
    fn domain_model_is_deterministic() {
        let (c, o) = setup();
        let e = domain_entities(&c);
        let a = learn_domain(&c, &e, &o, &L2qConfig::default());
        let b = learn_domain(&c, &e, &o, &L2qConfig::default());
        assert_eq!(a.query_count(), b.query_count());
        assert_eq!(a.template_count(), b.template_count());
        let research = c.aspect_by_name("RESEARCH").unwrap();
        assert_eq!(
            a.per_aspect[research.index()].template_precision,
            b.per_aspect[research.index()].template_precision
        );
    }
}
