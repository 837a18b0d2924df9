//! Query values.
//!
//! A query is a short word sequence of length ≤ L = 3 (paper Def. 1), but
//! the data model "views … each query as a bag of words": keyword
//! retrieval is order-insensitive, so `hpc research` and `research hpc`
//! are the *same* query. [`Query`] therefore canonicalizes to a sorted
//! word multiset — sliding-window n-grams that are permutations of each
//! other collapse into one candidate, and a fired query can never be
//! re-fired as a permutation of itself.

use l2q_text::{Sym, SymbolTable};
use std::borrow::Borrow;
use std::fmt;

/// An immutable keyword query (canonical sorted bag of words).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Query(Box<[Sym]>);

impl Query {
    /// Build from a word sequence (canonicalized by sorting).
    pub fn new(words: &[Sym]) -> Self {
        let mut v: Vec<Sym> = words.to_vec();
        v.sort_unstable();
        Self(v.into_boxed_slice())
    }

    /// The query's words.
    pub fn words(&self) -> &[Sym] {
        &self.0
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the query has no words.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Render for display.
    pub fn render(&self, table: &SymbolTable) -> String {
        table.render(&self.0)
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Query({:?})", self.0)
    }
}

/// A set of queries can be probed with a sorted word slice, without
/// building a `Query` (the derived `Hash` and `Eq` are the slice's).
impl Borrow<[Sym]> for Query {
    fn borrow(&self) -> &[Sym] {
        &self.0
    }
}

impl From<Vec<Sym>> for Query {
    fn from(mut v: Vec<Sym>) -> Self {
        v.sort_unstable();
        Self(v.into_boxed_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_and_hashing_by_word_bag() {
        use std::collections::HashSet;
        let a = Query::new(&[Sym(1), Sym(2)]);
        let b = Query::new(&[Sym(1), Sym(2)]);
        let c = Query::new(&[Sym(2), Sym(1)]);
        let d = Query::new(&[Sym(2), Sym(1), Sym(1)]);
        assert_eq!(a, b);
        assert_eq!(a, c, "queries are bags: permutations are equal");
        assert_ne!(a, d, "multiplicity still matters");
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(set.contains(&c));
    }

    #[test]
    fn sets_of_queries_are_probed_by_sorted_words() {
        use std::collections::HashSet;
        let set: HashSet<Query> = [Query::new(&[Sym(3), Sym(1)])].into_iter().collect();
        assert!(set.contains(&[Sym(1), Sym(3)][..]));
        assert!(
            !set.contains(&[Sym(3), Sym(1)][..]),
            "probes must be sorted"
        );
        assert!(!set.contains(&[Sym(1)][..]));
    }

    #[test]
    fn render_uses_symbol_table() {
        let mut t = SymbolTable::new();
        let q = Query::new(&[t.intern("hpc"), t.intern("research")]);
        assert_eq!(q.render(&t), "hpc research");
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
