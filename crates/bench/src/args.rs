//! Minimal `--key value` / `--flag` argument parsing for the bench bins.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args` (skipping the binary name), warning about
    /// and ignoring positional arguments.
    pub fn from_env() -> Self {
        let args = Self::parse(std::env::args().skip(1));
        for item in &args.positional {
            eprintln!("warning: ignoring positional argument {item:?}");
        }
        args
    }

    /// Parse from an explicit iterator (used by tests).
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Self {
        let mut out = Args::default();
        let mut iter = items.into_iter().peekable();
        while let Some(item) = iter.next() {
            if let Some(key) = item.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        out.values.insert(key.to_string(), iter.next().unwrap());
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else {
                out.positional.push(item);
            }
        }
        out
    }

    /// Refuse anything but the `--key value` options in `values` and the
    /// `--flag`s in `flags`: an unknown key, a value key given no value, a
    /// flag given one, or a positional argument. For commands that must not
    /// run on a misspelt option.
    pub fn expect_only(&self, values: &[&str], flags: &[&str]) -> Result<(), String> {
        let mut keys: Vec<&String> = self.values.keys().collect();
        keys.sort();
        for key in keys {
            if !values.contains(&key.as_str()) {
                return Err(if flags.contains(&key.as_str()) {
                    format!("--{key} takes no value")
                } else {
                    format!("unknown option --{key}")
                });
            }
        }
        for flag in &self.flags {
            if !flags.contains(&flag.as_str()) {
                return Err(if values.contains(&flag.as_str()) {
                    format!("--{flag} needs a value")
                } else {
                    format!("unknown option --{flag}")
                });
            }
        }
        match self.positional.first() {
            Some(item) => Err(format!("unexpected argument {item:?}")),
            None => Ok(()),
        }
    }

    /// Boolean flag (`--full`).
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Typed value with default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.values.get(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{name}: cannot parse {v:?}")),
            None => default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_values_and_flags() {
        let a = parse("--runs 50 --full --seed 7");
        assert_eq!(a.get("runs", 0usize), 50);
        assert_eq!(a.get("seed", 1u64), 7);
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("");
        assert_eq!(a.get("runs", 10usize), 10);
        assert_eq!(a.get("scale", 1.5f64), 1.5);
    }

    #[test]
    fn expect_only_refuses_what_the_command_does_not_read() {
        let (values, flags) = (&["seed", "out"][..], &["full"][..]);
        assert_eq!(parse("--seed 3 --full").expect_only(values, flags), Ok(()));
        let err = |s: &str| parse(s).expect_only(values, flags).unwrap_err();
        assert_eq!(err("--sede 3"), "unknown option --sede");
        assert_eq!(err("--quick"), "unknown option --quick");
        assert_eq!(err("--out"), "--out needs a value");
        assert_eq!(err("--full yes"), "--full takes no value");
        assert_eq!(err("--seed 3 stray"), "unexpected argument \"stray\"");
    }

    #[test]
    #[should_panic(expected = "cannot parse")]
    fn bad_value_panics() {
        parse("--runs abc").get("runs", 0usize);
    }
}
