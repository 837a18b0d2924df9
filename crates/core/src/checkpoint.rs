//! Portable (JSON) serialization of a [`HarvestState`] — the per-session
//! checkpoint format used by the durable store (`l2q-store`).
//!
//! The same string-keyed approach as [`crate::portable`]: symbols and page
//! ids are process-local in principle, so queries are stored as word
//! strings and re-resolved on import. Unlike a domain model, a harvest
//! checkpoint cannot *drop* unresolvable entries — the fired queries are
//! the context Φ and the gathered pages are the session's result set — so
//! import fails loudly ([`ImportError::Vocabulary`] /
//! [`ImportError::Corrupt`]) instead of degrading silently.
//!
//! Only the *decisions* are persisted: fired queries, per-step page gains
//! and the collective-recall recursion state. The derived caches
//! ([`crate::IncrementalCandidates`] and the candidate table of the new
//! selector the session is restored into) are
//! rebuilt from scratch on the next step, and a build from scratch equals
//! the carried one for a given page prefix (the invariant proven by
//! `incremental_enumeration_matches_batch_exactly` and the `determinism`
//! integration suite) — so a restored session continues exactly as the
//! uninterrupted one would.
//!
//! Floats that must survive bit-for-bit (the collective state) are stored
//! as 16-hex-digit IEEE-754 bit patterns, not JSON numbers: the vendored
//! JSON value type is `f64`-backed and exact only where `f64` is.

use crate::candidates::IncrementalCandidates;
use crate::context::CollectiveState;
use crate::harvester::{HarvestState, IterationSnapshot, StopReason};
use crate::portable::ImportError;
use crate::query::Query;
use l2q_corpus::{Corpus, EntityId, PageId};
use l2q_text::Sym;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Duration;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Render an `f64` as its exact IEEE-754 bit pattern (16 hex digits).
pub fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parse a [`f64_to_hex`] bit pattern back, bit-for-bit.
pub fn f64_from_hex(s: &str) -> Option<f64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
        .map(f64::from_bits)
}

/// One selector iteration in portable form: the chosen query (word
/// strings) and the pages it newly retrieved.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
pub struct PortableIteration {
    /// The fired query as word strings (canonical order).
    pub query: Vec<String>,
    /// Pages first retrieved by this query, in retrieval order.
    pub new_pages: Vec<u32>,
}

/// The collective-recall recursion state (`R(Φ)`, `R^(Y*)(Φ)`) as exact
/// bit patterns, so restored sessions score candidates identically.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
pub struct PortableCollective {
    /// `R(Φ)` bits ([`f64_to_hex`]).
    pub r_phi: String,
    /// `R^(Y*)(Φ)` bits ([`f64_to_hex`]).
    pub rstar_phi: String,
}

impl PortableCollective {
    /// Export a [`CollectiveState`] bit-exactly.
    pub fn from_state(s: &CollectiveState) -> Self {
        Self {
            r_phi: f64_to_hex(s.recall_phi()),
            rstar_phi: f64_to_hex(s.recall_star_phi()),
        }
    }

    /// Reassemble the [`CollectiveState`] bit-exactly.
    pub fn to_state(&self) -> Result<CollectiveState, ImportError> {
        let r = f64_from_hex(&self.r_phi)
            .ok_or_else(|| ImportError::Corrupt(format!("bad r_phi bits '{}'", self.r_phi)))?;
        let rs = f64_from_hex(&self.rstar_phi).ok_or_else(|| {
            ImportError::Corrupt(format!("bad rstar_phi bits '{}'", self.rstar_phi))
        })?;
        Ok(CollectiveState::from_parts(r, rs))
    }
}

/// The portable form of a [`HarvestState`]: everything needed to continue
/// the session bit-identically on a process that shares the corpus.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
pub struct PortableHarvestState {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Target entity index.
    pub entity: u32,
    /// Target aspect name (e.g. `"RESEARCH"`).
    pub aspect: String,
    /// The seed query as word strings (integrity-checked on import).
    pub seed_query: Vec<String>,
    /// Pages the seed query retrieved, in engine order (may repeat).
    pub seed_results: Vec<u32>,
    /// Selector iterations so far, in order.
    pub iterations: Vec<PortableIteration>,
    /// Cumulative wall-clock nanoseconds spent inside selection.
    pub selection_time_nanos: u64,
    /// Stop reason once finished ([`StopReason::as_str`] form).
    pub finished: Option<String>,
    /// Collective-recall state of a context-aware selector, if any.
    pub collective: Option<PortableCollective>,
}

fn render_words(q: &Query, corpus: &Corpus) -> Vec<String> {
    q.words()
        .iter()
        .map(|&w| corpus.symbols.resolve(w).to_owned())
        .collect()
}

fn resolve_query(words: &[String], corpus: &Corpus) -> Result<Query, ImportError> {
    if words.is_empty() {
        return Err(ImportError::Corrupt("empty query".into()));
    }
    let syms: Vec<Sym> = words
        .iter()
        .map(|w| {
            corpus
                .symbols
                .get(w)
                .ok_or_else(|| ImportError::Vocabulary(w.clone()))
        })
        .collect::<Result<_, _>>()?;
    Ok(Query::new(&syms))
}

fn check_page(p: u32, corpus: &Corpus) -> Result<PageId, ImportError> {
    if (p as usize) < corpus.pages.len() {
        Ok(PageId(p))
    } else {
        Err(ImportError::Corrupt(format!("page id {p} out of range")))
    }
}

impl HarvestState {
    /// Export to the portable form. `collective` is the selector's
    /// recursion state (see
    /// [`crate::QuerySelector::collective_state`]); pass `None` for
    /// context-free selectors.
    pub fn export(
        &self,
        corpus: &Corpus,
        collective: Option<CollectiveState>,
    ) -> PortableHarvestState {
        PortableHarvestState {
            version: CHECKPOINT_VERSION,
            entity: self.entity.0,
            aspect: corpus.aspect_name(self.aspect).to_owned(),
            seed_query: self
                .fired
                .first()
                .map(|q| render_words(q, corpus))
                .unwrap_or_default(),
            seed_results: self.seed_results.iter().map(|p| p.0).collect(),
            iterations: self
                .iterations
                .iter()
                .map(|it| PortableIteration {
                    query: render_words(&it.query, corpus),
                    new_pages: it.new_pages.iter().map(|p| p.0).collect(),
                })
                .collect(),
            selection_time_nanos: self.selection_time.as_nanos() as u64,
            finished: self.finished.map(|r| r.as_str().to_owned()),
            collective: collective.map(|s| PortableCollective::from_state(&s)),
        }
    }

    /// Export as pretty JSON.
    pub fn export_json(&self, corpus: &Corpus, collective: Option<CollectiveState>) -> String {
        serde_json::to_string_pretty(&self.export(corpus, collective))
            .expect("serializable checkpoint")
    }

    /// Import from the portable form, re-resolving strings against
    /// `corpus` and rebuilding every derived cache cold.
    ///
    /// Returns the restored state plus the collective-recall state to hand
    /// back to the selector
    /// ([`crate::QuerySelector::restore_collective`]). The next
    /// [`HarvestState::step`] then continues exactly as the uninterrupted
    /// session would have.
    pub fn import(
        p: &PortableHarvestState,
        corpus: &Corpus,
    ) -> Result<(Self, Option<CollectiveState>), ImportError> {
        if p.version != CHECKPOINT_VERSION {
            return Err(ImportError::Version(p.version));
        }
        if (p.entity as usize) >= corpus.entities.len() {
            return Err(ImportError::Corrupt(format!(
                "entity index {} out of range",
                p.entity
            )));
        }
        let entity = EntityId(p.entity);
        let aspect = corpus
            .aspect_by_name(&p.aspect)
            .ok_or(ImportError::AspectMismatch)?;

        // The seed must be *this corpus's* seed query for the entity —
        // anything else means the checkpoint belongs to a different
        // corpus build and the replayed context would be meaningless.
        let seed = resolve_query(&p.seed_query, corpus)?;
        if seed != Query::new(corpus.seed_query(entity)) {
            return Err(ImportError::Corrupt(format!(
                "seed query mismatch for entity {}",
                p.entity
            )));
        }

        let seed_results: Vec<PageId> = p
            .seed_results
            .iter()
            .map(|&id| check_page(id, corpus))
            .collect::<Result<_, _>>()?;

        // Rebuild gathered/seen exactly as `begin_with` + each `step_with`
        // did: dedup seed results first, then append each step's new pages
        // (which must indeed be new — repeats mean corruption).
        let mut gathered: Vec<PageId> = Vec::new();
        let mut seen: HashSet<PageId> = HashSet::new();
        for &pg in &seed_results {
            if seen.insert(pg) {
                gathered.push(pg);
            }
        }

        let mut fired = vec![seed];
        let mut iterations = Vec::with_capacity(p.iterations.len());
        for it in &p.iterations {
            let query = resolve_query(&it.query, corpus)?;
            let mut new_pages = Vec::with_capacity(it.new_pages.len());
            for &id in &it.new_pages {
                let pg = check_page(id, corpus)?;
                if !seen.insert(pg) {
                    return Err(ImportError::Corrupt(format!(
                        "page {id} recorded as new twice"
                    )));
                }
                gathered.push(pg);
                new_pages.push(pg);
            }
            fired.push(query.clone());
            iterations.push(IterationSnapshot {
                query,
                new_pages,
                gathered_after: gathered.len(),
            });
        }

        let finished = match &p.finished {
            None => None,
            Some(s) => Some(
                StopReason::parse(s)
                    .ok_or_else(|| ImportError::Corrupt(format!("unknown stop reason '{s}'")))?,
            ),
        };
        let collective = p.collective.as_ref().map(|c| c.to_state()).transpose()?;

        Ok((
            Self {
                entity,
                aspect,
                seed_results,
                fired,
                gathered,
                seen,
                iterations,
                selection_time: Duration::from_nanos(p.selection_time_nanos),
                enumerated: IncrementalCandidates::new(),
                finished,
            },
            collective,
        ))
    }

    /// Import from JSON.
    pub fn import_json(
        json: &str,
        corpus: &Corpus,
    ) -> Result<(Self, Option<CollectiveState>), ImportError> {
        let portable: PortableHarvestState =
            serde_json::from_str(json).map_err(|e| ImportError::Json(e.to_string()))?;
        Self::import(&portable, corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::L2qConfig;
    use crate::harvester::Harvester;
    use crate::selector::{L2qSelector, QuerySelector};
    use l2q_aspect::RelevanceOracle;
    use l2q_corpus::{generate, researchers_domain, CorpusConfig};
    use l2q_retrieval::SearchEngine;
    use std::sync::Arc;

    #[test]
    fn f64_hex_round_trips_every_bit_pattern() {
        for x in [
            0.0,
            -0.0,
            1.0,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
        ] {
            let back = f64_from_hex(&f64_to_hex(x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        assert_eq!(f64_from_hex("nonsense").map(f64::to_bits), None);
        assert_eq!(f64_from_hex("123"), None);
    }

    #[test]
    fn export_import_round_trips_mid_session() {
        let corpus = Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
        let engine = SearchEngine::with_defaults(corpus.clone());
        let oracle = RelevanceOracle::from_truth(&corpus);
        let harvester = Harvester {
            corpus: &corpus,
            engine: &engine,
            oracle: &oracle,
            domain: None,
            cfg: L2qConfig::default(),
        };
        let aspect = corpus.aspect_by_name("RESEARCH").unwrap();
        let mut sel = L2qSelector::l2qbal();
        sel.reset();
        let mut state = HarvestState::begin(&harvester, EntityId(1), aspect);
        state.step(&harvester, &mut sel);
        state.step(&harvester, &mut sel);

        let portable = state.export(&corpus, sel.collective_state());
        assert_eq!(portable.iterations.len(), state.steps_taken());
        let (restored, collective) = HarvestState::import(&portable, &corpus).unwrap();
        assert_eq!(restored.entity(), state.entity());
        assert_eq!(restored.aspect(), state.aspect());
        assert_eq!(restored.gathered(), state.gathered());
        assert_eq!(restored.steps_taken(), state.steps_taken());
        assert_eq!(restored.fired, state.fired);
        assert_eq!(restored.stop_reason(), state.stop_reason());
        // The collective state survives bit-for-bit.
        let (a, b) = (collective.unwrap(), sel.collective_state().unwrap());
        assert_eq!(a.recall_phi().to_bits(), b.recall_phi().to_bits());
        assert_eq!(a.recall_star_phi().to_bits(), b.recall_star_phi().to_bits());

        // JSON round trip too.
        let json = state.export_json(&corpus, sel.collective_state());
        let (from_json, _) = HarvestState::import_json(&json, &corpus).unwrap();
        assert_eq!(from_json.gathered(), state.gathered());
    }

    #[test]
    fn import_rejects_bad_inputs() {
        let corpus = Arc::new(generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap());
        let engine = SearchEngine::with_defaults(corpus.clone());
        let oracle = RelevanceOracle::from_truth(&corpus);
        let harvester = Harvester {
            corpus: &corpus,
            engine: &engine,
            oracle: &oracle,
            domain: None,
            cfg: L2qConfig::default(),
        };
        let aspect = corpus.aspect_by_name("RESEARCH").unwrap();
        let mut sel = L2qSelector::l2qbal();
        let mut state = HarvestState::begin(&harvester, EntityId(0), aspect);
        state.step(&harvester, &mut sel);
        let good = state.export(&corpus, None);

        let mut bad = good.clone();
        bad.version = 9;
        assert!(matches!(
            HarvestState::import(&bad, &corpus),
            Err(ImportError::Version(9))
        ));

        let mut bad = good.clone();
        bad.aspect = "NOPE".into();
        assert!(matches!(
            HarvestState::import(&bad, &corpus),
            Err(ImportError::AspectMismatch)
        ));

        let mut bad = good.clone();
        bad.seed_query = vec!["zzz_never_interned".into()];
        assert!(matches!(
            HarvestState::import(&bad, &corpus),
            Err(ImportError::Vocabulary(_))
        ));

        let mut bad = good.clone();
        bad.seed_results.push(u32::MAX);
        assert!(matches!(
            HarvestState::import(&bad, &corpus),
            Err(ImportError::Corrupt(_))
        ));

        let mut bad = good.clone();
        if let Some(first) = bad.iterations.first_mut() {
            first.new_pages = bad.seed_results.clone();
            assert!(matches!(
                HarvestState::import(&bad, &corpus),
                Err(ImportError::Corrupt(_))
            ));
        }

        let mut bad = good.clone();
        bad.finished = Some("gave_up".into());
        assert!(matches!(
            HarvestState::import(&bad, &corpus),
            Err(ImportError::Corrupt(_))
        ));

        let mut bad = good;
        bad.collective = Some(PortableCollective {
            r_phi: "xyz".into(),
            rstar_phi: f64_to_hex(0.5),
        });
        assert!(matches!(
            HarvestState::import(&bad, &corpus),
            Err(ImportError::Corrupt(_))
        ));
    }
}
