//! `lint.toml`: the committed suppression allowlist and budgets.
//!
//! The parser accepts the small TOML subset the file needs — `[[allow]]`
//! array-of-tables, the `[budgets.unwrap]` table, `key = "string"` and
//! `key = integer` pairs, quoted keys, and `#` comments. Two policies
//! are enforced at load time, not merely documented:
//!
//! * every `[[allow]]` entry must carry a non-empty `justification`
//!   (finding `unjustified-suppression` otherwise), and
//! * an entry that suppresses nothing is itself flagged
//!   (`stale-suppression`), so the allowlist can only shrink as hazards
//!   are fixed.

use std::collections::BTreeMap;

/// One `[[allow]]` suppression entry.
#[derive(Debug, Default, Clone)]
pub struct Allow {
    /// Rule id the entry suppresses (e.g. `wall-clock`).
    pub rule: String,
    /// Relative path the entry applies to, `/`-separated.
    pub path: String,
    /// Optional item name (e.g. a method) narrowing the suppression.
    pub item: Option<String>,
    /// Why the site is safe. Required, non-empty.
    pub justification: String,
    /// 1-based line of the entry header in `lint.toml`.
    pub line: u32,
}

/// Parsed configuration.
#[derive(Debug, Default)]
pub struct Config {
    pub allows: Vec<Allow>,
    /// Per-file `unwrap()/expect()` ceilings for hot-path modules.
    pub unwrap_budgets: BTreeMap<String, u32>,
}

impl Config {
    /// Load `<root>/lint.toml` if present; an absent file is an empty
    /// config (the lint then runs with zero suppressions).
    pub fn load(root: &std::path::Path) -> Result<Config, String> {
        let path = root.join("lint.toml");
        match std::fs::read_to_string(&path) {
            Ok(text) => parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }
}

enum Section {
    None,
    Allow(usize),
    UnwrapBudgets,
}

/// Parse the `lint.toml` text.
pub fn parse(text: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut section = Section::None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            cfg.allows.push(Allow {
                line: lineno,
                ..Allow::default()
            });
            section = Section::Allow(cfg.allows.len() - 1);
            continue;
        }
        if line == "[budgets.unwrap]" {
            section = Section::UnwrapBudgets;
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("lint.toml:{lineno}: unknown section `{line}`"));
        }
        let Some((key, value)) = split_kv(&line) else {
            return Err(format!("lint.toml:{lineno}: expected `key = value`"));
        };
        match &section {
            Section::None => {
                return Err(format!(
                    "lint.toml:{lineno}: key `{key}` outside any section"
                ));
            }
            Section::Allow(i) => {
                let entry = &mut cfg.allows[*i];
                let v = unquote(&value)
                    .ok_or_else(|| format!("lint.toml:{lineno}: `{key}` wants a quoted string"))?;
                match key.as_str() {
                    "rule" => entry.rule = v,
                    "path" => entry.path = v,
                    "item" => entry.item = Some(v),
                    "justification" => entry.justification = v,
                    other => {
                        return Err(format!(
                            "lint.toml:{lineno}: unknown [[allow]] key `{other}`"
                        ));
                    }
                }
            }
            Section::UnwrapBudgets => {
                let path = unquote(&key).unwrap_or(key);
                let n: u32 = value.parse().map_err(|_| {
                    format!("lint.toml:{lineno}: budget for `{path}` must be an integer")
                })?;
                cfg.unwrap_budgets.insert(path, n);
            }
        }
    }
    for a in &cfg.allows {
        if a.rule.is_empty() || a.path.is_empty() {
            return Err(format!(
                "lint.toml:{}: [[allow]] needs both `rule` and `path`",
                a.line
            ));
        }
    }
    Ok(cfg)
}

/// Strip a `#` comment, respecting quoted strings.
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

fn split_kv(line: &str) -> Option<(String, String)> {
    // Split on the first `=` outside quotes.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '=' if !in_str => {
                return Some((
                    line[..i].trim().to_string(),
                    line[i + 1..].trim().to_string(),
                ));
            }
            _ => {}
        }
    }
    None
}

fn unquote(v: &str) -> Option<String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Some(v[1..v.len() - 1].to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_allows_and_budgets() {
        let cfg = parse(
            r#"
# header comment
[[allow]]
rule = "wall-clock"
path = "src/bin/sweep.rs"
justification = "perf timing" # trailing comment

[[allow]]
rule = "event-class-order"
path = "crates/net/src/network.rs"
item = "OBSERVE"
justification = "sample text"

[budgets.unwrap]
"crates/net/src/link.rs" = 14
"crates/sim/src/queue.rs" = 9
"#,
        )
        .unwrap();
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].rule, "wall-clock");
        assert_eq!(cfg.allows[1].item.as_deref(), Some("OBSERVE"));
        assert_eq!(cfg.unwrap_budgets["crates/net/src/link.rs"], 14);
        assert_eq!(cfg.unwrap_budgets.len(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("[[allow]]\nrule: nope\n").is_err());
        assert!(parse("stray = \"key\"\n").is_err());
        assert!(parse("[mystery]\n").is_err());
        assert!(parse("[[allow]]\njustification = \"no rule or path\"\n").is_err());
        assert!(parse("[budgets.unwrap]\n\"a.rs\" = \"not a number\"\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg =
            parse("[[allow]]\nrule = \"r\"\npath = \"p#1.rs\"\njustification = \"has # inside\"\n")
                .unwrap();
        assert_eq!(cfg.allows[0].path, "p#1.rs");
        assert_eq!(cfg.allows[0].justification, "has # inside");
    }
}
