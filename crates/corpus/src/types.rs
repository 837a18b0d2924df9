//! Type system / knowledge base.
//!
//! Templates abstract queries by replacing words with *types* (paper
//! Def. 1): a type is a set of words, such as ⟨topic⟩ = {hpc, data mining,
//! ai, …}. The paper sources types from Freebase/Microsoft Academic Search
//! dictionaries, CoreNLP NER and regular expressions; we substitute a
//! self-contained [`TypeSystem`] combining
//!
//! 1. a **dictionary** mapping words/phrases to types (the Freebase/MAS/NER
//!    replacement — the corpus generator registers every vocabulary word it
//!    can emit), and
//! 2. **lexical recognizers** for well-formed tokens: ⟨year⟩ and
//!    ⟨phonenum⟩-style all-digit tokens (the regex replacement).
//!
//! Multi-word dictionary entries double as tokenizer phrases so that e.g.
//! `data mining` is one word unit everywhere.

use l2q_text::PhraseDict;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a type within a [`TypeSystem`] (dense, starts at 0).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u16);

impl TypeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypeId({})", self.0)
    }
}

/// A lexical recognizer for well-formed tokens (the paper's regex channel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LexicalRule {
    /// A four-digit token starting with 19 or 20 (e.g. `2009`).
    Year,
    /// An all-digit token with length in `min_len..=max_len` (e.g. a phone
    /// number `6581234567` or a price `24999`).
    Digits {
        /// Minimum token length (inclusive).
        min_len: usize,
        /// Maximum token length (inclusive).
        max_len: usize,
    },
}

impl LexicalRule {
    /// Whether `word` matches this rule.
    pub fn matches(&self, word: &str) -> bool {
        match *self {
            LexicalRule::Year => {
                word.len() == 4
                    && word.bytes().all(|b| b.is_ascii_digit())
                    && (word.starts_with("19") || word.starts_with("20"))
            }
            LexicalRule::Digits { min_len, max_len } => {
                !word.is_empty()
                    && word.len() >= min_len
                    && word.len() <= max_len
                    && word.bytes().all(|b| b.is_ascii_digit())
            }
        }
    }
}

/// A word → type knowledge base with dictionary and lexical channels.
#[derive(Default, Clone, Debug)]
pub struct TypeSystem {
    names: Vec<String>,
    by_name: HashMap<String, TypeId>,
    dict: HashMap<String, TypeId>,
    vocab: Vec<Vec<String>>,
    lexical: Vec<(TypeId, LexicalRule)>,
}

impl TypeSystem {
    /// Create an empty type system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a type by name, e.g. `"topic"`.
    pub fn declare(&mut self, name: &str) -> TypeId {
        if let Some(&t) = self.by_name.get(name) {
            return t;
        }
        let t = TypeId(u16::try_from(self.names.len()).expect("too many types"));
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), t);
        self.vocab.push(Vec::new());
        t
    }

    /// Look up a type id by name.
    pub fn get(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// Name of a type.
    pub fn name(&self, t: TypeId) -> &str {
        &self.names[t.index()]
    }

    /// Number of declared types.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no types are declared.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Add a dictionary word (normalized: lower-case; multi-word phrases
    /// space-joined) to a type's vocabulary.
    ///
    /// First registration wins if a word is claimed by two types — the
    /// dictionary maps each word to exactly one type, mirroring the paper's
    /// keyword → type dictionary.
    pub fn add_word(&mut self, t: TypeId, word: &str) {
        let norm = normalize(word);
        if norm.is_empty() {
            return;
        }
        if !self.dict.contains_key(&norm) {
            self.dict.insert(norm.clone(), t);
            self.vocab[t.index()].push(norm);
        }
    }

    /// Add many words at once.
    pub fn add_words<'a, I: IntoIterator<Item = &'a str>>(&mut self, t: TypeId, words: I) {
        for w in words {
            self.add_word(t, w);
        }
    }

    /// Attach a lexical recognizer to a type. Rules are tried in
    /// registration order after the dictionary.
    pub fn add_lexical(&mut self, t: TypeId, rule: LexicalRule) {
        self.lexical.push((t, rule));
    }

    /// The type of a word (dictionary first, then lexical rules).
    pub fn type_of(&self, word: &str) -> Option<TypeId> {
        if let Some(&t) = self.dict.get(word) {
            return Some(t);
        }
        self.lexical
            .iter()
            .find(|(_, r)| r.matches(word))
            .map(|&(t, _)| t)
    }

    /// The registered vocabulary of a type (dictionary channel only).
    pub fn vocabulary(&self, t: TypeId) -> &[String] {
        &self.vocab[t.index()]
    }

    /// Build the tokenizer phrase dictionary from all multi-word entries.
    pub fn phrase_dict(&self) -> PhraseDict {
        let mut d = PhraseDict::new();
        for word in self.dict.keys() {
            if word.contains(' ') {
                d.add(word);
            }
        }
        d
    }

    /// Iterate `(TypeId, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (TypeId(i as u16), n.as_str()))
    }
}

/// Normalize a dictionary entry the same way the tokenizer does: lower-case,
/// alphanumeric terms, space-joined.
fn normalize(word: &str) -> String {
    let lower = word.to_lowercase();
    lower
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_is_idempotent() {
        let mut ts = TypeSystem::new();
        let a = ts.declare("topic");
        let b = ts.declare("topic");
        let c = ts.declare("venue");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.name(a), "topic");
    }

    #[test]
    fn dictionary_lookup() {
        let mut ts = TypeSystem::new();
        let topic = ts.declare("topic");
        ts.add_words(topic, ["hpc", "Data Mining", "ai"]);
        assert_eq!(ts.type_of("hpc"), Some(topic));
        assert_eq!(ts.type_of("data mining"), Some(topic));
        assert_eq!(ts.type_of("unknown"), None);
        assert_eq!(ts.vocabulary(topic).len(), 3);
    }

    #[test]
    fn first_registration_wins_on_conflict() {
        let mut ts = TypeSystem::new();
        let a = ts.declare("a");
        let b = ts.declare("b");
        ts.add_word(a, "shared");
        ts.add_word(b, "shared");
        assert_eq!(ts.type_of("shared"), Some(a));
        assert!(ts.vocabulary(b).is_empty());
    }

    #[test]
    fn year_recognizer() {
        let r = LexicalRule::Year;
        assert!(r.matches("2009"));
        assert!(r.matches("1998"));
        assert!(!r.matches("2200"));
        assert!(!r.matches("209"));
        assert!(!r.matches("20091"));
        assert!(!r.matches("200a"));
    }

    #[test]
    fn digits_recognizer() {
        let r = LexicalRule::Digits {
            min_len: 7,
            max_len: 12,
        };
        assert!(r.matches("6581234567"));
        assert!(!r.matches("123456"));
        assert!(!r.matches("65812345678901"));
        assert!(!r.matches("658123456x"));
    }

    #[test]
    fn lexical_rules_apply_after_dictionary() {
        let mut ts = TypeSystem::new();
        let year = ts.declare("year");
        let phone = ts.declare("phonenum");
        ts.add_lexical(year, LexicalRule::Year);
        ts.add_lexical(
            phone,
            LexicalRule::Digits {
                min_len: 7,
                max_len: 12,
            },
        );
        assert_eq!(ts.type_of("2009"), Some(year));
        assert_eq!(ts.type_of("6581234567"), Some(phone));
        // Dictionary overrides lexical.
        let special = ts.declare("special");
        ts.add_word(special, "2009");
        assert_eq!(ts.type_of("2009"), Some(special));
    }

    #[test]
    fn phrase_dict_contains_only_multiword_entries() {
        let mut ts = TypeSystem::new();
        let t = ts.declare("topic");
        ts.add_words(t, ["hpc", "data mining", "machine learning"]);
        let d = ts.phrase_dict();
        assert_eq!(d.len(), 2);
        assert_eq!(d.max_len(), 2);
    }

    #[test]
    fn normalization_matches_tokenizer() {
        let mut ts = TypeSystem::new();
        let t = ts.declare("venue");
        ts.add_word(t, "  Car-and-Driver ");
        assert_eq!(ts.type_of("car and driver"), Some(t));
    }
}
