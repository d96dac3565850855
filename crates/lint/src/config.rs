//! `lint.toml` — the checked-in pass configuration, parsed by a
//! deliberately tiny TOML-subset reader.
//!
//! The workspace builds fully offline with no registry dependencies, so
//! the linter cannot pull in a TOML crate; it reads exactly the subset
//! the config uses — `[section]` headers, `key = "string"`,
//! `key = ["a", "b"]` (single- or multi-line), and comments — and
//! rejects anything else loudly rather than misreading it.

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed `lint.toml`.
#[derive(Debug, Default)]
pub struct Config {
    /// Crates (directory names under `crates/`) whose `src/` trees the
    /// determinism pass scans.
    pub determinism_crates: Vec<String>,
    /// Individual workspace-relative files the determinism pass scans,
    /// for determinism islands inside otherwise wall-clock-bound crates
    /// (e.g. the reactor's seeded-jitter backoff inside `net`).
    pub determinism_files: Vec<String>,
    /// Workspace-relative files the panic-path pass scans.
    pub panic_path_files: Vec<String>,
    /// Crates whose `src/` trees the lock-discipline pass scans.
    pub lock_discipline_crates: Vec<String>,
    /// Crates whose `src/` trees the unsafe-audit pass scans.
    pub unsafe_audit_crates: Vec<String>,
    /// Crates whose `src/` trees the level-lattice pass scans for
    /// closed matches over consistency levels.
    pub level_lattice_crates: Vec<String>,
    /// Enum names the wire pass cross-checks.
    pub wire_enums: Vec<String>,
    /// The codec file holding the `wire!` schema.
    pub wire_codec: String,
    /// The proptest file every variant must appear in.
    pub wire_proptests: String,
}

/// A config-file syntax or schema error.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Reads and parses the config file.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("{}: {e}", path.display())))?;
        Config::parse(&src)
    }

    /// Parses config text (see the module docs for the accepted subset).
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let raw = parse_sections(src)?;
        let mut cfg = Config::default();
        for (section, keys) in &raw {
            for (key, value) in keys {
                let slot = (section.as_str(), key.as_str());
                match slot {
                    ("determinism", "crates") => cfg.determinism_crates = value.as_list()?,
                    ("determinism", "files") => cfg.determinism_files = value.as_list()?,
                    ("panic_path", "files") => cfg.panic_path_files = value.as_list()?,
                    ("lock_discipline", "crates") => {
                        cfg.lock_discipline_crates = value.as_list()?
                    }
                    ("unsafe_audit", "crates") => cfg.unsafe_audit_crates = value.as_list()?,
                    ("level_lattice", "crates") => cfg.level_lattice_crates = value.as_list()?,
                    ("wire", "enums") => cfg.wire_enums = value.as_list()?,
                    ("wire", "codec") => cfg.wire_codec = value.as_string()?,
                    ("wire", "proptests") => cfg.wire_proptests = value.as_string()?,
                    _ => {
                        return Err(ConfigError(format!(
                            "unknown key `{key}` in section [{section}]"
                        )))
                    }
                }
            }
        }
        Ok(cfg)
    }
}

/// A parsed value: string or list of strings.
enum Value {
    Str(String),
    List(Vec<String>),
}

impl Value {
    fn as_list(&self) -> Result<Vec<String>, ConfigError> {
        match self {
            Value::List(v) => Ok(v.clone()),
            Value::Str(_) => Err(ConfigError("expected a list, found a string".into())),
        }
    }

    fn as_string(&self) -> Result<String, ConfigError> {
        match self {
            Value::Str(s) => Ok(s.clone()),
            Value::List(_) => Err(ConfigError("expected a string, found a list".into())),
        }
    }
}

fn parse_sections(src: &str) -> Result<BTreeMap<String, Vec<(String, Value)>>, ConfigError> {
    let mut out: BTreeMap<String, Vec<(String, Value)>> = BTreeMap::new();
    let mut section = String::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((n, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            out.entry(section.clone()).or_default();
            continue;
        }
        let Some((key, rest)) = line.split_once('=') else {
            return Err(ConfigError(format!("line {}: expected `key = …`", n + 1)));
        };
        let key = key.trim().to_string();
        let mut rest = rest.trim().to_string();
        // A list may span lines until the closing `]`.
        if rest.starts_with('[') && !rest.ends_with(']') {
            for (_, cont) in lines.by_ref() {
                let cont = strip_comment(cont).trim().to_string();
                rest.push(' ');
                rest.push_str(&cont);
                if cont.ends_with(']') {
                    break;
                }
            }
        }
        let value = parse_value(&rest)
            .map_err(|e| ConfigError(format!("line {}: {} (value: {rest})", n + 1, e.0)))?;
        if section.is_empty() {
            return Err(ConfigError(format!(
                "line {}: key `{key}` outside any [section]",
                n + 1
            )));
        }
        out.get_mut(&section)
            .expect("section entry exists")
            .push((key, value));
    }
    Ok(out)
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str) -> Result<Value, ConfigError> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix('[').and_then(|x| x.strip_suffix(']')) {
        let mut items = Vec::new();
        for piece in body.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue; // trailing comma
            }
            items.push(unquote(piece)?);
        }
        return Ok(Value::List(items));
    }
    Ok(Value::Str(unquote(s)?))
}

fn unquote(s: &str) -> Result<String, ConfigError> {
    s.strip_prefix('"')
        .and_then(|x| x.strip_suffix('"'))
        .map(|x| x.to_string())
        .ok_or_else(|| ConfigError(format!("expected a quoted string, found `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shipped_schema() {
        let cfg = Config::parse(
            r#"
# comment
[determinism]
crates = ["simnet", "oracle"] # trailing comment
files = ["crates/net/src/reactor/backoff.rs"]

[panic_path]
files = [
    "crates/net/src/reactor/server.rs",
    "crates/net/src/reactor/conn.rs",
]

[wire]
codec = "crates/net/src/wire.rs"
enums = ["Msg"]
"#,
        )
        .expect("parses");
        assert_eq!(cfg.determinism_crates, vec!["simnet", "oracle"]);
        assert_eq!(
            cfg.determinism_files,
            vec!["crates/net/src/reactor/backoff.rs"]
        );
        assert_eq!(cfg.panic_path_files.len(), 2);
        assert_eq!(cfg.wire_codec, "crates/net/src/wire.rs");
        assert_eq!(cfg.wire_enums, vec!["Msg"]);
        // The fixture names real files, so deleting one of them fails here.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = (cfg.determinism_files.iter())
            .chain(&cfg.panic_path_files)
            .chain([&cfg.wire_codec]);
        for f in files {
            assert!(root.join(f).is_file(), "{f} does not exist");
        }
    }

    #[test]
    fn unknown_keys_are_errors() {
        assert!(Config::parse("[determinism]\ntypo = [\"x\"]\n").is_err());
    }

    #[test]
    fn unquoted_values_are_errors() {
        assert!(Config::parse("[wire]\ncodec = nope\n").is_err());
    }
}
