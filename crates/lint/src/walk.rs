//! Workspace source discovery and file classification.
//!
//! The walker collects every `.rs` file under the root in sorted path
//! order (determinism of the report is itself a byte-identity
//! artifact), skipping `target/`, VCS metadata, and the lint's own
//! known-bad fixture corpus. Each file carries a [`Tier`] derived from
//! its path — the rules key their applicability on it — plus a map of
//! the lines occupied by `#[cfg(test)]` items, so test-only code can be
//! exempted from production-path rules.

use crate::lexer::{lex, Lexed, Tok};
use std::path::{Path, PathBuf};

/// Determinism tier of a source file, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Determinism-critical: code on the artifact path. `crates/sim`,
    /// `crates/net`, `crates/sched`, `crates/sweep`, `crates/obs`.
    Core,
    /// Perf tooling where wall-clock reads are the point:
    /// `crates/bench`.
    Bench,
    /// Offline dependency shims (`shims/`): tooling tier, wall-clock
    /// allowed (a stand-in for a timing crate *is* a timer).
    Shim,
    /// Test, bench-harness, and example code: any path with a `tests`,
    /// `benches`, or `examples` component, plus `testutil` modules.
    Test,
    /// Everything else (`crates/core`, `crates/topo`, bins, ...).
    Other,
}

/// One discovered source file, lexed and classified.
pub struct SourceFile {
    /// Path relative to the lint root, with `/` separators.
    pub rel: String,
    pub tier: Tier,
    pub lexed: Lexed,
    /// Half-open index ranges into `lexed.tokens` occupied by
    /// `#[cfg(test)]` items.
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// True when token index `i` sits inside a `#[cfg(test)]` item or
    /// the whole file is test-tier.
    pub fn is_test_tok(&self, i: usize) -> bool {
        self.tier == Tier::Test || self.test_spans.iter().any(|&(lo, hi)| i >= lo && i < hi)
    }

    /// Shorthand for the token slice.
    pub fn toks(&self) -> &[Tok] {
        &self.lexed.tokens
    }
}

/// Classify a relative path into its tier.
pub fn tier_of(rel: &str) -> Tier {
    let comps: Vec<&str> = rel.split('/').collect();
    if comps
        .iter()
        .any(|c| *c == "tests" || *c == "benches" || *c == "examples")
        || rel.ends_with("testutil.rs")
    {
        return Tier::Test;
    }
    if comps.first() == Some(&"shims") {
        return Tier::Shim;
    }
    match (comps.first(), comps.get(1)) {
        (Some(&"crates"), Some(&"bench")) => Tier::Bench,
        (Some(&"crates"), Some(&"sim" | &"net" | &"sched" | &"sweep" | &"obs")) => Tier::Core,
        _ => Tier::Other,
    }
}

/// Directories never descended into. `fixtures` holds the lint's own
/// deliberately-bad test corpus.
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | ".git" | ".github" | "fixtures")
}

/// Collect every `.rs` file under `root`, sorted by relative path.
pub fn walk(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect(root, &mut paths)?;
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&p)?;
        let lexed = lex(&src);
        let test_spans = find_test_spans(&lexed.tokens);
        out.push(SourceFile {
            tier: tier_of(&rel),
            rel,
            lexed,
            test_spans,
        });
    }
    Ok(out)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Find the token spans of `#[cfg(test)]` items: the attribute, any
/// further stacked attributes, then the item itself up to its matching
/// close brace (or trailing semicolon for brace-less items).
fn find_test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            let start = i;
            // Skip this attribute and any stacked ones.
            let mut j = skip_attr(toks, i);
            while j < toks.len() && toks[j].is_punct('#') {
                j = skip_attr(toks, j);
            }
            // Consume the item: to the matching `}` of its first brace,
            // or to `;` if none opens first.
            let mut depth = 0usize;
            let mut opened = false;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('{') {
                    depth += 1;
                    opened = true;
                } else if t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        j += 1;
                        break;
                    }
                } else if t.is_punct(';') && !opened {
                    j += 1;
                    break;
                }
                j += 1;
            }
            spans.push((start, j));
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// True when tokens at `i` spell exactly `#[cfg(test)]`. Deliberately
/// exact: `#[cfg(not(test))]` or `#[cfg(all(test, ...))]` must NOT be
/// treated as test-only code.
fn is_cfg_test_attr(toks: &[Tok], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
        && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
        && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
        && toks.get(i + 6).is_some_and(|t| t.is_punct(']'))
}

/// Index just past an attribute starting at `#` token `i`.
fn skip_attr(toks: &[Tok], i: usize) -> usize {
    debug_assert!(toks[i].is_punct('#'));
    let mut j = i + 1;
    let mut depth = 0usize;
    while j < toks.len() {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_follow_paths() {
        assert_eq!(tier_of("crates/sim/src/queue.rs"), Tier::Core);
        assert_eq!(tier_of("crates/sweep/src/artifact.rs"), Tier::Core);
        assert_eq!(tier_of("crates/bench/src/runners.rs"), Tier::Bench);
        assert_eq!(tier_of("benchmark/benches/walk.rs"), Tier::Test);
        assert_eq!(tier_of("crates/net/src/testutil.rs"), Tier::Test);
        assert_eq!(tier_of("shims/proptest/src/lib.rs"), Tier::Shim);
        assert_eq!(tier_of("tests/sweep_diff.rs"), Tier::Test);
        assert_eq!(tier_of("src/bin/sweep.rs"), Tier::Other);
        assert_eq!(tier_of("crates/topo/src/fattree.rs"), Tier::Other);
    }

    #[test]
    fn cfg_test_items_are_spanned() {
        let src = "fn prod() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n\
                   fn prod2() {}\n";
        let lexed = lex(src);
        let spans = find_test_spans(&lexed.tokens);
        assert_eq!(spans.len(), 1);
        let sf = SourceFile {
            rel: "crates/net/src/x.rs".into(),
            tier: Tier::Core,
            lexed,
            test_spans: spans,
        };
        // The second `unwrap` is inside the test span; the first is not.
        let unwraps: Vec<usize> = sf
            .toks()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!sf.is_test_tok(unwraps[0]));
        assert!(sf.is_test_tok(unwraps[1]));
        // prod2 after the module is production code again.
        let p2 = sf.toks().iter().position(|t| t.is_ident("prod2")).unwrap();
        assert!(!sf.is_test_tok(p2));
    }

    #[test]
    fn stacked_attrs_and_braceless_items() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nuse std::collections::HashMap;\nfn f() {}\n";
        let lexed = lex(src);
        let spans = find_test_spans(&lexed.tokens);
        assert_eq!(spans.len(), 1);
        let hm = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("HashMap"))
            .unwrap();
        assert!(hm >= spans[0].0 && hm < spans[0].1);
        let f = lexed.tokens.iter().position(|t| t.is_ident("f")).unwrap();
        assert!(f >= spans[0].1);
    }
}
