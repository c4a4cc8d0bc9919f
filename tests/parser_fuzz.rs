//! Never-panic properties of `sweep diff`'s hand-rolled JSON reader
//! ([`ups_sweep::Json::parse`]). Whatever text it is handed, it answers
//! `Ok` or `Err` — a malformed artifact is a usage error, never a
//! backtrace. (The `sweep` flag parser has its own never-panic property
//! in `src/bin/sweep.rs`.)
//!
//! Two input shapes: arbitrary bytes (lossily decoded, as a file read
//! would be), and a token soup drawn from the grammar's own punctuation
//! and keywords, which reaches the nested and escaped paths random bytes
//! almost never do.

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
        let text: String = picks.iter().map(|&i| JSON_TOKENS[i]).collect();
        // Whatever parses renders back to a document that parses.
        if let Ok(v) = Json::parse(&text) {
            prop_assert!(Json::parse(&v.render()).is_ok(), "{text:?}");
        }
    }
}
