//! The corpus container: entities, pages, shared symbol table, tokenizer
//! and (extended) type system for one domain.

use crate::aspect::AspectId;
use crate::entity::{Entity, EntityId};
use crate::page::{Page, PageId};
use crate::types::{TypeId, TypeSystem};
use l2q_text::{is_stopword, Sym, SymbolTable, Tokenizer};

/// A fully generated, frozen corpus for one domain.
///
/// All queries in the evaluation "retrieve pages from this corpus only"
/// (paper Sect. VI-A). The corpus owns the domain's symbol table and
/// tokenizer so that every downstream component speaks the same `Sym`
/// language.
pub struct Corpus {
    /// Domain name (`researchers` / `cars`).
    pub domain: &'static str,
    /// Aspect names in id order (Fig. 9 column).
    pub aspect_names: Vec<&'static str>,
    /// Type system, extended with entity names and synthesized values.
    pub types: TypeSystem,
    /// The tokenizer (phrase dictionary baked in).
    pub tokenizer: Tokenizer,
    /// Interner shared by all pages.
    pub symbols: SymbolTable,
    /// All entities.
    pub entities: Vec<Entity>,
    /// All pages, grouped contiguously by entity.
    pub pages: Vec<Page>,
    /// Per-entity `(start, end)` index range into `pages`.
    page_range: Vec<(u32, u32)>,
    /// Tokenized seed query per entity.
    seed_words: Vec<Vec<Sym>>,
    /// `Sym → type` cache covering every interned symbol.
    sym_types: Vec<Option<TypeId>>,
    /// `Sym → is stopword` flags covering every interned symbol.
    sym_stops: Vec<bool>,
}

impl Corpus {
    /// Assemble a corpus (used by the generator; fields must be coherent).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        domain: &'static str,
        aspect_names: Vec<&'static str>,
        types: TypeSystem,
        tokenizer: Tokenizer,
        symbols: SymbolTable,
        entities: Vec<Entity>,
        pages: Vec<Page>,
        page_range: Vec<(u32, u32)>,
        seed_words: Vec<Vec<Sym>>,
    ) -> Self {
        let sym_types = symbols
            .iter()
            .map(|(_, name)| types.type_of(name))
            .collect();
        let sym_stops = symbols.iter().map(|(_, name)| is_stopword(name)).collect();
        Self {
            domain,
            aspect_names,
            types,
            tokenizer,
            symbols,
            entities,
            pages,
            page_range,
            seed_words,
            sym_types,
            sym_stops,
        }
    }

    /// Number of aspects.
    pub fn aspect_count(&self) -> usize {
        self.aspect_names.len()
    }

    /// All aspect ids.
    pub fn aspects(&self) -> impl Iterator<Item = AspectId> {
        (0..self.aspect_names.len()).map(|i| AspectId(i as u8))
    }

    /// Aspect id by (case-insensitive) name.
    pub fn aspect_by_name(&self, name: &str) -> Option<AspectId> {
        self.aspect_names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))
            .map(|i| AspectId(i as u8))
    }

    /// Name of an aspect.
    pub fn aspect_name(&self, a: AspectId) -> &'static str {
        self.aspect_names[a.index()]
    }

    /// The pages of one entity.
    pub fn pages_of(&self, e: EntityId) -> &[Page] {
        let (s, t) = self.page_range[e.index()];
        &self.pages[s as usize..t as usize]
    }

    /// A page by id.
    pub fn page(&self, p: PageId) -> &Page {
        &self.pages[p.index()]
    }

    /// An entity by id.
    pub fn entity(&self, e: EntityId) -> &Entity {
        &self.entities[e.index()]
    }

    /// All entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entities.len() as u32).map(EntityId)
    }

    /// Tokenized seed query of an entity.
    pub fn seed_query(&self, e: EntityId) -> &[Sym] {
        &self.seed_words[e.index()]
    }

    /// The type of an interned word, if any. O(1) via a cache for symbols
    /// present at assembly; symbols interned later fall back to a live
    /// dictionary lookup.
    pub fn type_of_sym(&self, s: Sym) -> Option<TypeId> {
        match self.sym_types.get(s.index()) {
            Some(cached) => *cached,
            None => self.types.type_of(self.symbols.resolve(s)),
        }
    }

    /// Whether an interned word is a stopword. O(1) via flags for symbols
    /// present at assembly; symbols interned later fall back to a live
    /// list lookup, like [`Corpus::type_of_sym`].
    pub fn is_stop_sym(&self, s: Sym) -> bool {
        match self.sym_stops.get(s.index()) {
            Some(&stop) => stop,
            None => is_stopword(self.symbols.resolve(s)),
        }
    }

    /// Ground-truth paragraph count per aspect across the whole corpus
    /// (the "Frequency" column of Fig. 9).
    pub fn paragraph_frequency(&self) -> Vec<usize> {
        let mut freq = vec![0usize; self.aspect_count()];
        for page in &self.pages {
            for para in &page.paragraphs {
                if let Some(a) = para.label.aspect() {
                    freq[a.index()] += 1;
                }
            }
        }
        freq
    }

    /// Total paragraphs (including background).
    pub fn paragraph_count(&self) -> usize {
        self.pages.iter().map(|p| p.paragraphs.len()).sum()
    }

    /// Ground-truth: pages of `e` relevant to `aspect`.
    pub fn truth_relevant_pages(&self, e: EntityId, aspect: AspectId) -> Vec<PageId> {
        self.pages_of(e)
            .iter()
            .filter(|p| p.truth_relevant(aspect))
            .map(|p| p.id)
            .collect()
    }
}

impl std::fmt::Debug for Corpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Corpus")
            .field("domain", &self.domain)
            .field("entities", &self.entities.len())
            .field("pages", &self.pages.len())
            .field("symbols", &self.symbols.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{generate, researchers_domain, CorpusConfig};
    use l2q_text::is_stopword;

    /// The assembly-time flags and the live fallback for symbols interned
    /// later both agree with the stopword list, symbol by symbol.
    #[test]
    fn stop_flags_match_the_stopword_list_for_every_symbol() {
        let mut c = generate(&researchers_domain(), &CorpusConfig::tiny()).unwrap();
        let assembled = c.symbols.len();
        let fresh = ["whom", "theirs", "yours", "nor", "qzxv", "overfitting-free"];
        let late_stop = fresh
            .iter()
            .any(|w| c.symbols.get(w).is_none() && is_stopword(w));
        for w in fresh {
            c.symbols.intern(w);
        }
        assert!(c.symbols.len() > assembled, "no symbol was interned late");
        assert!(late_stop, "no stopword was interned after assembly");
        let mut stops = 0;
        for (s, name) in c.symbols.iter() {
            assert_eq!(c.is_stop_sym(s), is_stopword(name), "{name:?}");
            stops += usize::from(c.is_stop_sym(s));
        }
        assert!(stops > 0, "the corpus interns no stopword at all");
    }
}
