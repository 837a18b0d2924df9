//! Candidate query enumeration.
//!
//! "To enumerate candidate queries from a page … we applied a sliding
//! window of ℓ words over the page for each ℓ ∈ {1, 2, …, L}" with L = 3
//! (paper Sect. VI-A). Degenerate all-stopword n-grams are pruned — they
//! carry no retrieval signal; the test reads the corpus's per-symbol
//! stopword flags ([`Corpus::is_stop_sym`]). In the entity phase,
//! candidates additionally include frequent domain queries ("we restrict
//! to queries that occur with at least 50 domain entities"), which is
//! handled by the domain phase's [`crate::domain_phase::DomainModel`].
//!
//! One enumerator serves [`page_queries`], [`pages_queries`] and
//! [`IncrementalCandidates`]: it probes its seen set with each n-gram's
//! sorted words and builds a [`Query`] only for an n-gram it has not
//! seen.

use crate::fxhash::FxHashSet;
use crate::query::Query;
use crate::selector::subset_of_seed;
use l2q_corpus::{Corpus, Page};
use l2q_text::{ngrams, Sym};

/// Candidate enumeration configuration.
#[derive(Clone, Copy, Debug)]
pub struct CandidateConfig {
    /// Maximum query length L (paper default 3).
    pub max_len: usize,
    /// Minimum number of distinct domain entities a domain query must
    /// occur with to become an entity-phase candidate. The paper uses 50
    /// of 498 domain entities (~10%); we default to a scale-relative 10%.
    pub min_entity_support_fraction: f64,
    /// Hard cap on how many frequent domain queries join the entity-phase
    /// candidate pool (most supported first).
    pub max_domain_queries: usize,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        Self {
            max_len: 3,
            min_entity_support_fraction: 0.10,
            max_domain_queries: 2000,
        }
    }
}

/// The one n-gram enumerator. Hands `new` every n-gram of `page`
/// (lengths `1..=max_len`, paragraph by paragraph, in [`ngrams`] order)
/// that is not all stopwords and not in `seen` yet, then adds it to
/// `seen`. The set is probed with the n-gram's sorted words, so a
/// [`Query`] is only built for an n-gram `seen` does not hold.
fn for_each_new_query(
    corpus: &Corpus,
    page: &Page,
    max_len: usize,
    seen: &mut FxHashSet<Query>,
    mut new: impl FnMut(&Query),
) {
    let mut key: Vec<Sym> = Vec::with_capacity(max_len);
    for para in &page.paragraphs {
        for gram in ngrams(&para.words, max_len) {
            if gram.iter().all(|&w| corpus.is_stop_sym(w)) {
                continue;
            }
            key.clear();
            key.extend_from_slice(gram);
            key.sort_unstable();
            if !seen.contains(&key[..]) {
                let q = Query::new(&key);
                new(&q);
                seen.insert(q);
            }
        }
    }
}

/// Enumerate the distinct candidate queries of one page (all-stopword
/// n-grams pruned). Order of first occurrence.
pub fn page_queries(corpus: &Corpus, page: &Page, max_len: usize) -> Vec<Query> {
    pages_queries(corpus, std::iter::once(page), max_len)
}

/// Enumerate distinct candidates across several pages, in first-occurrence
/// order (deterministic given page order).
pub fn pages_queries<'a, I>(corpus: &Corpus, pages: I, max_len: usize) -> Vec<Query>
where
    I: IntoIterator<Item = &'a Page>,
{
    let mut seen: FxHashSet<Query> = FxHashSet::default();
    let mut out = Vec::new();
    for page in pages {
        for_each_new_query(corpus, page, max_len, &mut seen, |q| out.push(q.clone()));
    }
    out
}

/// Cross-step page-candidate list: the harvester's
/// [`crate::selector::page_candidates`] kept live across steps.
///
/// [`pages_queries`] dedupes in first-occurrence order over pages in
/// order, so enumerating only the pages added since the last step and
/// appending their unseen queries yields the same list as enumerating
/// everything again. The fired and seed-subset filters are applied the
/// same way: a query is seed-tested once, when it first appears, and a
/// fired query leaves the list once, when it fires. A query fired
/// before any page enumerates it counts as already seen, so its later
/// enumeration never adds it. A step therefore costs the new pages'
/// enumeration plus one list removal, not a pass over every candidate.
///
/// Only valid while the page list and the fired list grow by appending
/// (the harvest loop's invariant); a shorter list or a different seed
/// resets the enumerator.
#[derive(Default, Debug)]
pub struct IncrementalCandidates {
    /// Every query enumerated or fired so far.
    seen: FxHashSet<Query>,
    /// Enumerated, never fired and not a seed subset, in first-occurrence
    /// order.
    live: Vec<Query>,
    /// The seed (`fired[0]`) the live list was filtered against.
    seed: Option<Query>,
    pages_done: usize,
    fired_done: usize,
}

impl IncrementalCandidates {
    /// An empty enumerator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold the pages and fired queries beyond the already-processed
    /// prefixes into the live list. `pages` and `fired` must extend the
    /// previously passed lists by appending; a shorter list or another
    /// seed resets the enumerator first.
    pub fn update<'a, I>(&mut self, corpus: &Corpus, pages: I, fired: &[Query], max_len: usize)
    where
        I: IntoIterator<Item = &'a Page>,
        I::IntoIter: ExactSizeIterator,
    {
        let iter = pages.into_iter();
        let seed = fired.first();
        if iter.len() < self.pages_done
            || fired.len() < self.fired_done
            || seed != self.seed.as_ref()
        {
            self.reset();
            self.seed = seed.cloned();
        }
        for q in &fired[self.fired_done..] {
            if !self.seen.insert(q.clone()) {
                // Enumerated before it fired: it leaves the live list.
                if let Some(i) = self.live.iter().position(|c| c == q) {
                    self.live.remove(i);
                }
            }
        }
        self.fired_done = fired.len();
        let skip = self.pages_done;
        self.pages_done = iter.len();
        let live = &mut self.live;
        for page in iter.skip(skip) {
            for_each_new_query(corpus, page, max_len, &mut self.seen, |q| {
                if !seed.is_some_and(|s| subset_of_seed(q, s, corpus)) {
                    live.push(q.clone());
                }
            });
        }
    }

    /// The live candidates, in first-occurrence order — identical to
    /// [`crate::selector::page_candidates`] over the same pages and fired
    /// queries (and to [`pages_queries`] when nothing has fired).
    pub fn queries(&self) -> &[Query] {
        &self.live
    }

    /// Forget everything (next [`IncrementalCandidates::update`] starts over).
    pub fn reset(&mut self) {
        self.seen.clear();
        self.live.clear();
        self.seed = None;
        self.pages_done = 0;
        self.fired_done = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig, EntityId};
    use l2q_text::is_stopword;
    use std::collections::HashSet;

    fn corpus() -> Corpus {
        generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap()
    }

    #[test]
    fn page_queries_are_distinct_and_bounded_in_length() {
        let c = corpus();
        let page = &c.pages_of(EntityId(0))[0];
        let qs = page_queries(&c, page, 3);
        assert!(!qs.is_empty());
        let set: HashSet<_> = qs.iter().cloned().collect();
        assert_eq!(set.len(), qs.len(), "queries must be distinct");
        for q in &qs {
            assert!(!q.is_empty() && q.len() <= 3);
        }
    }

    #[test]
    fn all_stopword_ngrams_are_pruned() {
        let c = corpus();
        for page in c.pages.iter().take(20) {
            for q in page_queries(&c, page, 3) {
                assert!(
                    !q.words().iter().all(|&w| is_stopword(c.symbols.resolve(w))),
                    "all-stopword query {} survived",
                    q.render(&c.symbols)
                );
            }
        }
    }

    #[test]
    fn multi_page_enumeration_dedupes_across_pages() {
        let c = corpus();
        let pages = c.pages_of(EntityId(0));
        let all = pages_queries(&c, pages.iter(), 3);
        let set: HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
        // Union must be at least as large as any single page's set.
        let single = page_queries(&c, &pages[0], 3);
        assert!(all.len() >= single.len());
    }

    #[test]
    fn enumeration_is_deterministic() {
        let c = corpus();
        let pages = c.pages_of(EntityId(1));
        let a = pages_queries(&c, pages.iter(), 3);
        let b = pages_queries(&c, pages.iter(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_enumeration_matches_batch_exactly() {
        let c = corpus();
        let pages = c.pages_of(EntityId(2));
        let mut inc = IncrementalCandidates::new();
        for k in 1..=pages.len() {
            inc.update(&c, pages[..k].iter(), &[], 3);
            let batch = pages_queries(&c, pages[..k].iter(), 3);
            assert_eq!(inc.queries(), &batch[..], "diverged at prefix {k}");
        }
    }

    /// The live list equals the cold `page_candidates` at every prefix
    /// while queries fire: one fired before any page enumerates it (it
    /// must never join), one fired after it was listed (it must leave).
    #[test]
    fn live_list_matches_page_candidates_as_queries_fire() {
        use crate::config::L2qConfig;
        use crate::selector::page_candidates;
        let c = corpus();
        let cfg = L2qConfig::default();
        let entity = EntityId(2);
        let pages = c.pages_of(entity);
        let seed = Query::new(c.seed_query(entity));
        let early = pages_queries(&c, pages[..pages.len() - 1].iter(), 3);
        let late = page_queries(&c, &pages[pages.len() - 1], 3)
            .into_iter()
            .find(|q| !early.contains(q) && !subset_of_seed(q, &seed, &c))
            .expect("the last page enumerates a query of its own");
        let mut fired = vec![seed, late.clone()];
        let mut inc = IncrementalCandidates::new();
        for k in 1..=pages.len() {
            if k == 3 {
                fired.push(inc.queries()[0].clone());
            }
            inc.update(&c, pages[..k].iter(), &fired, 3);
            let ids: Vec<_> = pages[..k].iter().map(|p| p.id).collect();
            let cold = page_candidates(&c, &ids, &fired, &cfg);
            assert_eq!(inc.queries(), &cold[..], "diverged at prefix {k}");
        }
        assert!(!inc.queries().contains(&late));
    }

    #[test]
    fn shrinking_page_list_resets_the_enumerator() {
        let c = corpus();
        let pages = c.pages_of(EntityId(2));
        assert!(pages.len() >= 2);
        let mut inc = IncrementalCandidates::new();
        inc.update(&c, pages.iter(), &[], 3);
        inc.update(&c, pages[..1].iter(), &[], 3);
        let batch = pages_queries(&c, pages[..1].iter(), 3);
        assert_eq!(inc.queries(), &batch[..]);
    }

    #[test]
    fn phrases_count_as_single_words() {
        let c = corpus();
        // Any multi-word typed value (e.g. "data mining") must appear as a
        // unigram query if it occurs in some page.
        let mut found_phrase_unigram = false;
        for page in c.pages.iter().take(50) {
            for q in page_queries(&c, page, 1) {
                if q.len() == 1 && c.symbols.resolve(q.words()[0]).contains(' ') {
                    found_phrase_unigram = true;
                }
            }
        }
        assert!(
            found_phrase_unigram,
            "no merged phrase appeared as a unigram"
        );
    }
}
