//! Never-panic properties of the hand-rolled parsers: `sweep diff`'s
//! JSON reader ([`ups_sweep::Json::parse`]) and the determinism lint's
//! `lint.toml` reader ([`ups_lint::config::parse`]). Whatever text they
//! are handed, they answer `Ok` or `Err` — a malformed artifact or config
//! is a usage error, never a backtrace.
//!
//! Two input shapes per parser: arbitrary bytes (lossily decoded, as a
//! file read would be), and a token soup drawn from the grammar's own
//! punctuation and keywords, which reaches the nested and escaped paths
//! random bytes almost never do.

use proptest::prelude::*;
use ups_sweep::Json;

/// Fragments of the JSON grammar, including its edge cases: escapes,
/// `\u` with and without four hex digits, lone surrogates, literals cut
/// short, multi-byte characters, and number shapes `f64` rejects.
const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    " ",
    "\n",
    "\\",
    "\\u",
    "\\u00e9",
    "\\ud800",
    "\\u+abc",
    "null",
    "nul",
    "-",
    "0",
    "12",
    ".",
    "e",
    "E",
    "+",
    "é",
    "\u{10348}",
    "\"k\"",
];

/// Fragments of the `lint.toml` subset: both section headers, an
/// unknown one, every `[[allow]]` key, quotes, comments and numbers.
const TOML_TOKENS: &[&str] = &[
    "[[allow]]",
    "[budgets.unwrap]",
    "[mystery]",
    "[",
    "rule",
    "path",
    "item",
    "justification",
    " = ",
    "=",
    "\"",
    "\"a.rs\"",
    "#",
    "\n",
    "12",
    "-1",
    "99999999999",
    "é",
];

fn soup(tokens: &[&str], picks: &[usize]) -> String {
    picks.iter().map(|&i| tokens[i % tokens.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_parse_never_panics_on_token_soup(
        picks in proptest::collection::vec(0usize..JSON_TOKENS.len(), 0..128),
    ) {
        let text = soup(JSON_TOKENS, &picks);
        // Whatever parses renders back to a document that parses.
        if let Ok(v) = Json::parse(&text) {
            prop_assert!(Json::parse(&v.render()).is_ok(), "{text:?}");
        }
    }

    #[test]
    fn lint_config_parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let _ = ups_lint::config::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn lint_config_parse_never_panics_on_token_soup(
        picks in proptest::collection::vec(0usize..TOML_TOKENS.len(), 0..128),
    ) {
        let _ = ups_lint::config::parse(&soup(TOML_TOKENS, &picks));
    }
}
