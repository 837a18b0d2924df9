//! The method table: every selector the reproduction runs, by its
//! command-line name, with whether it sees the domain model.
//!
//! The paper's domain-blind methods are RND, the ablations P and R and
//! the baselines LM, AQ and MQ ("only HR exploits domain data" among the
//! baselines). A selector that is handed a domain model uses
//! it — RND, for one, then also draws from the frequent domain queries —
//! so every evaluation and every single harvest takes the rule from this
//! table.

use crate::ideal::IdealSelector;
use l2q_baselines::{
    AqSelector, DomainQuerySelector, HrSelector, LmSelector, MqSelector, RndSelector,
};
use l2q_core::{DomainModel, L2qSelector, QuerySelector};

/// One row: command-line name, whether the selector sees the domain
/// model, and the selector factory (only RND reads the seed).
type Row = (&'static str, bool, fn(u64) -> Box<dyn QuerySelector>);

#[rustfmt::skip]
static TABLE: [Row; 15] = [
    ("l2qbal", true,  |_| Box::new(L2qSelector::l2qbal())),
    ("l2qp",   true,  |_| Box::new(L2qSelector::l2qp())),
    ("l2qr",   true,  |_| Box::new(L2qSelector::l2qr())),
    ("p",      false, |_| Box::new(L2qSelector::precision_only())),
    ("r",      false, |_| Box::new(L2qSelector::recall_only())),
    ("p+t",    true,  |_| Box::new(L2qSelector::precision_templates())),
    ("r+t",    true,  |_| Box::new(L2qSelector::recall_templates())),
    ("p+q",    true,  |_| Box::new(DomainQuerySelector::precision())),
    ("r+q",    true,  |_| Box::new(DomainQuerySelector::recall())),
    ("lm",     false, |_| Box::new(LmSelector::new())),
    ("aq",     false, |_| Box::new(AqSelector::new())),
    ("hr",     true,  |_| Box::new(HrSelector::new())),
    ("mq",     false, |_| Box::new(MqSelector::new())),
    ("rnd",    false, |seed| Box::new(RndSelector::new(seed))),
    ("ideal",  true,  |_| Box::new(IdealSelector::new())),
];

/// A method from the table, bound to the seed its selectors start from.
#[derive(Clone, Copy)]
pub struct Method {
    row: &'static Row,
    seed: u64,
}

impl Method {
    /// The table row named `name`, whose selectors start from `seed`.
    pub fn named(name: &str, seed: u64) -> Result<Self, String> {
        TABLE
            .iter()
            .find(|row| row.0 == name)
            .map(|row| Self { row, seed })
            .ok_or_else(|| format!("unknown method '{name}'"))
    }

    /// Every name in the table, in table order.
    pub fn names() -> impl Iterator<Item = &'static str> {
        TABLE.iter().map(|row| row.0)
    }

    /// A fresh selector.
    pub fn selector(&self) -> Box<dyn QuerySelector> {
        (self.row.2)(self.seed)
    }

    /// `model` if this method sees the domain model, else `None`.
    pub fn domain<'d>(&self, model: &'d DomainModel) -> Option<&'d DomainModel> {
        self.row.1.then_some(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_blind_methods_never_see_the_domain_model() {
        let blind: Vec<&str> = TABLE.iter().filter(|row| !row.1).map(|row| row.0).collect();
        assert_eq!(blind, ["p", "r", "lm", "aq", "mq", "rnd"]);
        assert!(Method::named("nope", 1).is_err());
    }

    #[test]
    fn every_name_builds_its_selector() {
        let labels: Vec<String> = Method::names()
            .map(|name| Method::named(name, 1).unwrap().selector().name())
            .collect();
        assert_eq!(
            labels,
            [
                "L2QBAL", "L2QP", "L2QR", "P", "R", "P+t", "R+t", "P+q", "R+q", "LM", "AQ", "HR",
                "MQ", "RND", "IDEAL"
            ]
        );
    }
}
