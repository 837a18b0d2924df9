//! Command-line options shared by the figure binaries.

use l2q_service::cli::Spec;

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Tiny configuration for smoke runs.
    pub quick: bool,
    /// The paper's corpus scale (996 researchers / 143 cars × 50 pages).
    pub paper_scale: bool,
    /// Master seed.
    pub seed: u64,
    /// Number of random splits (paper: 10).
    pub splits: usize,
    /// Cap on test entities evaluated per split (bounds wall-clock; the
    /// paper evaluates all, which `--paper-scale` restores).
    pub max_test_entities: usize,
    /// Override the entity count of both domains.
    pub entities: Option<usize>,
    /// Dump the global metrics registry as JSON to this path after a run.
    pub emit_metrics: Option<String>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            quick: false,
            paper_scale: false,
            seed: 42,
            splits: 3,
            max_test_entities: 10,
            entities: None,
            emit_metrics: None,
        }
    }
}

const SPEC: Spec = Spec {
    numbers: &["--seed", "--splits", "--max-test", "--entities"],
    values: &["--emit-metrics"],
    repeated: &[],
    bare: &["--quick", "--paper-scale"],
    words: &[],
};

impl BenchOpts {
    /// Parse from `std::env::args` (skipping the binary name). A bad
    /// command line aborts with a usage message.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{}", Self::usage());
            std::process::exit(2);
        })
    }

    /// Parse from an explicit iterator (testable); `--help` prints the
    /// usage and exits. `--paper-scale` and `--quick` set the split and
    /// test-entity defaults that `--splits` and `--max-test` override.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let args = SPEC.parse(args)?;
        if args.help() {
            eprintln!("{}", Self::usage());
            std::process::exit(0);
        }
        let quick = args.has("--quick");
        let paper_scale = args.has("--paper-scale");
        let defaults = Self::default();
        let (splits, max_test_entities) = if paper_scale {
            (10, usize::MAX)
        } else if quick {
            (1, 6)
        } else {
            (defaults.splits, defaults.max_test_entities)
        };
        Ok(Self {
            quick,
            paper_scale,
            seed: args.num("--seed")?.unwrap_or(defaults.seed),
            splits: args.num("--splits")?.unwrap_or(splits),
            max_test_entities: args.num("--max-test")?.unwrap_or(max_test_entities),
            entities: args.num("--entities")?,
            emit_metrics: args.get("--emit-metrics").map(str::to_owned),
        })
    }

    /// Usage text.
    pub fn usage() -> &'static str {
        "usage: <fig binary> [--quick] [--paper-scale] [--seed N] [--splits N] \
         [--max-test N] [--entities N] [--emit-metrics PATH]"
    }

    /// Entity count for a domain given the flags.
    pub fn entity_count(&self, paper_default: usize, bench_default: usize) -> usize {
        if let Some(n) = self.entities {
            return n;
        }
        if self.paper_scale {
            paper_default
        } else if self.quick {
            (bench_default / 3).max(24)
        } else {
            bench_default
        }
    }

    /// Pages per entity given the flags.
    pub fn pages_per_entity(&self) -> usize {
        if self.paper_scale {
            50
        } else if self.quick {
            20
        } else {
            30
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchOpts {
        BenchOpts::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn usage_lists_every_declared_flag() {
        let usage = l2q_service::cli::usage_flags(BenchOpts::usage());
        assert_eq!(usage, SPEC.flags());
    }

    #[test]
    fn default_and_flags() {
        let o = parse(&[]);
        assert!(!o.quick);
        assert_eq!(o.splits, 3);

        let o = parse(&["--quick", "--seed", "7"]);
        assert!(o.quick);
        assert_eq!(o.seed, 7);
        assert_eq!(o.splits, 1);

        let o = parse(&["--paper-scale"]);
        assert_eq!(o.splits, 10);
        assert_eq!(o.pages_per_entity(), 50);

        let o = parse(&["--emit-metrics", "/tmp/m.json"]);
        assert_eq!(o.emit_metrics.as_deref(), Some("/tmp/m.json"));

        let err = BenchOpts::parse(["--quik".to_string()]).unwrap_err();
        assert_eq!(err, "unknown flag '--quik'");
        let err = BenchOpts::parse(["--json".to_string()]).unwrap_err();
        assert_eq!(err, "unknown flag '--json'");
    }

    #[test]
    fn entity_count_resolution() {
        assert_eq!(parse(&[]).entity_count(996, 150), 150);
        assert_eq!(parse(&["--paper-scale"]).entity_count(996, 150), 996);
        assert_eq!(parse(&["--quick"]).entity_count(996, 150), 50);
        assert_eq!(parse(&["--entities", "64"]).entity_count(996, 150), 64);
    }
}
