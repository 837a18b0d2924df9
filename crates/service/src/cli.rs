//! The one command-line parser behind every binary in the workspace.
//!
//! A binary declares what it accepts in a [`Spec`]: flags that take a
//! number, flags that take any other value, value flags that may repeat,
//! bare flags, and the words that name its commands. [`Spec::parse`]
//! refuses anything else — an unknown flag, a value flag with no value, a
//! number flag with a non-number, a single flag given twice, a word that
//! names no command — before the binary does any work, so a misspelled
//! flag is an error instead of a silent default. `--help` and `-h` are
//! always accepted.

use std::collections::BTreeSet;
use std::str::FromStr;

/// What one binary accepts on its command line.
pub struct Spec {
    /// Flags that take a non-negative integer: `--port 4417`.
    pub numbers: &'static [&'static str],
    /// Flags that take any other value: `--domain cars`.
    pub values: &'static [&'static str],
    /// Value flags that may repeat, kept in order: `--shard A --shard B`.
    pub repeated: &'static [&'static str],
    /// Flags that take no value: `--json`.
    pub bare: &'static [&'static str],
    /// Words that name a command or subcommand: `ping`, `fleet`.
    pub words: &'static [&'static str],
}

/// A command line that matched its [`Spec`].
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(&'static str, String)>,
    bare: Vec<&'static str>,
    words: Vec<&'static str>,
    help: bool,
}

fn declared(list: &'static [&'static str], arg: &str) -> Option<&'static str> {
    list.iter().copied().find(|f| *f == arg)
}

impl Spec {
    /// Parse `args` (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(&self, args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                out.help = true;
            } else if let Some(word) = declared(self.words, &arg) {
                out.words.push(word);
            } else if !arg.starts_with('-') {
                return Err(format!("unexpected argument '{arg}'"));
            } else if !self.repeated.contains(&arg.as_str())
                && (out.has(&arg) || out.get(&arg).is_some())
            {
                return Err(format!("{arg} given more than once"));
            } else if let Some(flag) = declared(self.bare, &arg) {
                out.bare.push(flag);
            } else if let Some(flag) = declared(self.numbers, &arg)
                .or_else(|| declared(self.values, &arg))
                .or_else(|| declared(self.repeated, &arg))
            {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} expects a value"))?;
                if self.numbers.contains(&flag) && value.parse::<u64>().is_err() {
                    return Err(format!("{flag} expects a number, got '{value}'"));
                }
                out.values.push((flag, value));
            } else {
                return Err(format!("unknown flag '{arg}'"));
            }
        }
        Ok(out)
    }

    /// Every flag this spec declares.
    pub fn flags(&self) -> BTreeSet<&'static str> {
        [self.numbers, self.values, self.repeated, self.bare]
            .concat()
            .into_iter()
            .collect()
    }
}

/// Every `--flag` a usage text mentions; a binary's tests compare it
/// with [`Spec::flags`] so the two cannot drift apart.
pub fn usage_flags(usage: &str) -> BTreeSet<&str> {
    usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.len() > 2 && w.starts_with("--"))
        .collect()
}

impl Args {
    /// Whether `--help` or `-h` was given.
    pub fn help(&self) -> bool {
        self.help
    }

    /// The command words, in order.
    pub fn words(&self) -> &[&'static str] {
        &self.words
    }

    /// Whether the bare `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.bare.contains(&flag)
    }

    /// The value of `flag` (the first, for a repeatable flag).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of the repeatable `flag`, in order.
    pub fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.values
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The number `flag` carries, if given.
    pub fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} is out of range: '{v}'"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        numbers: &["--entity", "--entities"],
        values: &["--domain"],
        repeated: &["--shard"],
        bare: &["--paragraphs"],
        words: &["corpus", "harvest"],
    };

    fn parse(parts: &[&str]) -> Result<Args, String> {
        SPEC.parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_bare_flags_and_words_parse() {
        let a = parse(&[
            "harvest",
            "--domain",
            "cars",
            "--entity",
            "3",
            "--paragraphs",
        ])
        .unwrap();
        assert_eq!(a.words(), ["harvest"]);
        assert_eq!(a.get("--domain"), Some("cars"));
        assert!(a.has("--paragraphs"));
        assert_eq!(a.num::<u32>("--entity").unwrap(), Some(3));
        assert_eq!(a.num::<u32>("--entities").unwrap(), None);
        assert!(!a.help());
        assert!(parse(&["-h"]).unwrap().help());
    }

    #[test]
    fn unknown_flag_is_named() {
        let err = parse(&["harvest", "--entitys", "3"]).unwrap_err();
        assert_eq!(err, "unknown flag '--entitys'");
    }

    #[test]
    fn value_flag_without_a_value_is_an_error() {
        assert_eq!(
            parse(&["--domain"]).unwrap_err(),
            "--domain expects a value"
        );
        let err = parse(&["--domain", "--paragraphs"]).unwrap_err();
        assert_eq!(err, "--domain expects a value");
    }

    #[test]
    fn bare_flag_leaves_the_next_word_a_command() {
        let a = parse(&["--paragraphs", "corpus"]).unwrap();
        assert!(a.has("--paragraphs"));
        assert_eq!(a.words(), ["corpus"]);
    }

    #[test]
    fn repeatable_flags_keep_order_and_single_flags_refuse_a_repeat() {
        let a = parse(&["--shard", "a=h:1", "--shard", "b=h:2"]).unwrap();
        assert_eq!(a.all("--shard").collect::<Vec<_>>(), ["a=h:1", "b=h:2"]);
        let err = parse(&["--entity", "1", "--entity", "2"]).unwrap_err();
        assert_eq!(err, "--entity given more than once");
        let err = parse(&["--paragraphs", "--paragraphs"]).unwrap_err();
        assert_eq!(err, "--paragraphs given more than once");
    }

    #[test]
    fn non_number_is_an_error() {
        let err = parse(&["corpus", "--entities", "abc"]).unwrap_err();
        assert_eq!(err, "--entities expects a number, got 'abc'");
        let err = parse(&["--entity", "-1"]).unwrap_err();
        assert_eq!(err, "--entity expects a number, got '-1'");
        let a = parse(&["--entity", "300"]).unwrap();
        assert!(a.num::<u8>("--entity").is_err());
    }

    #[test]
    fn stray_word_is_an_error() {
        let err = parse(&["harvest", "oops"]).unwrap_err();
        assert_eq!(err, "unexpected argument 'oops'");
    }

    #[test]
    fn usage_flags_reads_every_flag_mention() {
        let usage = "x [--domain D] --entity N [--slow|--recent] `--shard` l2q-serve -- --";
        let flags: Vec<_> = usage_flags(usage).into_iter().collect();
        assert_eq!(
            flags,
            ["--domain", "--entity", "--recent", "--shard", "--slow"]
        );
    }
}
