//! A tiny hand-rolled flag parser for the deployment binaries.
//!
//! The workspace is fully offline (no clap); `icg-replicad` and
//! `icg-loadgen` need exactly `--key value`, `--key=value`, and bare
//! boolean `--flag` forms, which this covers in a few dozen lines.
//! Unknown flags are an error so a typo'd option fails loudly instead
//! of silently running with a default.

use std::collections::HashMap;

/// Parsed command-line flags.
pub struct Flags {
    values: HashMap<String, String>,
    bools: Vec<String>,
    /// Flag names the binary accepts, for the unknown-flag check.
    known: Vec<&'static str>,
}

impl Flags {
    /// Parses `args` (without the program name). `known` lists every
    /// accepted flag name, bare (no `--`).
    ///
    /// Returns an error string naming the offending token on unknown
    /// flags, missing values, or non-flag positional arguments.
    pub fn parse(
        args: impl Iterator<Item = String>,
        known: &[&'static str],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            values: HashMap::new(),
            bools: Vec::new(),
            known: known.to_vec(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{arg}'"));
            };
            let (name, inline) = match name.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (name.to_string(), None),
            };
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown flag '--{name}'"));
            }
            match inline {
                Some(v) => {
                    flags.values.insert(name, v);
                }
                None => {
                    // A following token that is not itself a flag is this
                    // flag's value; otherwise it is a boolean switch.
                    if args.peek().is_some_and(|next| !next.starts_with("--")) {
                        flags.values.insert(name, args.next().expect("peeked"));
                    } else {
                        flags.bools.push(name);
                    }
                }
            }
        }
        Ok(flags)
    }

    /// The value of `--name`, if one was given.
    pub fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(self.known.contains(&name), "undeclared flag '{name}'");
        self.values.get(name).map(String::as_str)
    }

    /// The value of `--name`, or `default`.
    pub fn get_or(&self, name: &str, default: &str) -> String {
        self.get(name).unwrap_or(default).to_string()
    }

    /// `--name` parsed as `u64`, or `default`. Exits with a message on a
    /// malformed value.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("--{name} expects an integer, got '{v}'"))),
        }
    }

    /// `--name` parsed as `f64`, or `default`.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("--{name} expects a number, got '{v}'"))),
        }
    }

    /// Whether switch `--name` is on: bare `--name`, or the value
    /// `true`. Any value but `true` or `false` (`--confirm 1`) is an
    /// error, not a quiet "off".
    pub fn switch(&self, name: &str) -> Result<bool, String> {
        if self.bools.iter().any(|b| b == name) {
            return Ok(true);
        }
        match self.get(name) {
            None | Some("false") => Ok(false),
            Some("true") => Ok(true),
            Some(v) => Err(format!("--{name} is a switch (true or false), got '{v}'")),
        }
    }

    /// [`Flags::switch`], exiting with its message on a stray value.
    pub fn has(&self, name: &str) -> bool {
        self.switch(name).unwrap_or_else(|e| die(&e))
    }
}

/// Prints `msg` to stderr and exits nonzero. Used by the binaries for
/// flag errors; never returns.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Flags, String> {
        Flags::parse(
            tokens.iter().map(|s| s.to_string()),
            &["id", "listen", "peers", "confirm", "ops"],
        )
    }

    #[test]
    fn value_and_bool_forms() {
        let f = parse(&["--id", "2", "--listen=127.0.0.1:4701", "--confirm"]).unwrap();
        assert_eq!(f.get("id"), Some("2"));
        assert_eq!(f.get_u64("id", 0), 2);
        assert_eq!(f.get("listen"), Some("127.0.0.1:4701"));
        assert!(f.has("confirm"));
        assert!(!f.has("peers"));
        assert_eq!(f.get_or("peers", ""), "");
    }

    #[test]
    fn bool_flag_before_another_flag() {
        let f = parse(&["--confirm", "--ops", "10"]).unwrap();
        assert!(f.has("confirm"));
        assert_eq!(f.get_u64("ops", 0), 10);
    }

    #[test]
    fn a_switch_takes_only_true_or_false() {
        assert_eq!(
            parse(&["--confirm", "true"]).unwrap().switch("confirm"),
            Ok(true)
        );
        assert_eq!(
            parse(&["--confirm=false"]).unwrap().switch("confirm"),
            Ok(false)
        );
        let err = parse(&["--confirm", "1"])
            .unwrap()
            .switch("confirm")
            .unwrap_err();
        assert!(err.contains("'1'"), "{err}");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse(&["--bogus", "1"]).is_err());
        assert!(parse(&["positional"]).is_err());
    }
}
