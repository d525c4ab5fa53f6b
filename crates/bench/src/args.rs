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
    /// A bench bin's command line, read by `read` into what the bin runs
    /// on. `values` and `flags` name every option the bin reads; its usage
    /// line lists them. `--help` prints the usage and exits 0; any other
    /// option, or a value `read` cannot parse, prints the error and the
    /// usage to stderr and exits 2, before the bin does any work.
    pub fn read_env<T>(
        values: &[&str],
        flags: &[&str],
        read: impl FnOnce(&Args) -> Result<T, String>,
    ) -> T {
        let mut argv = std::env::args();
        let path = argv.next().unwrap_or_default();
        let bin = path.rsplit('/').next().unwrap_or_default();
        let options = flags.iter().map(|f| format!(" [--{f}]"));
        let options = options.chain(values.iter().map(|v| format!(" [--{v} VALUE]")));
        let usage = format!("usage: {bin}{}\n", options.collect::<String>());
        let args = Self::parse(argv);
        if args.flag("help") {
            print!("{usage}");
            std::process::exit(0);
        }
        match args.expect_only(values, flags).and_then(|()| read(&args)) {
            Ok(t) => t,
            Err(e) => {
                eprint!("error: {e}\n{usage}");
                std::process::exit(2);
            }
        }
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

    /// Typed value with default; a value that does not parse is an error.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
            None => Ok(default),
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
        assert_eq!(a.get("runs", 0usize), Ok(50));
        assert_eq!(a.get("seed", 1u64), Ok(7));
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("");
        assert_eq!(a.get("runs", 10usize), Ok(10));
        assert_eq!(a.get("scale", 1.5f64), Ok(1.5));
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
    fn bad_value_is_an_error() {
        assert_eq!(
            parse("--runs abc").get("runs", 0usize),
            Err("--runs: cannot parse \"abc\"".to_string())
        );
    }
}
