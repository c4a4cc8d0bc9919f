//! Markdown link checker for the docs surface.
//!
//! The docs CI job catches broken rustdoc, but nothing verified that
//! `README.md` and `docs/*.md` point at files that exist — a renamed
//! doc or example silently strands every link to it. This test scans
//! the repo's markdown, extracts relative links, and asserts each
//! target exists. External URLs and intra-page anchors are skipped
//! (the suite runs offline). It also holds docs/SCENARIOS.md to the
//! grids `sweep --grid` can run, every markdown file a Rust doc
//! comment names to a file that exists, the baseline list in
//! docs/EXPERIMENTS.md to `baselines/` and CI's diff steps, every
//! experiment to its baseline, every type-like code name in the docs
//! to the sources, the crate tables to the workspace members, and
//! `sweep`'s flags between its parser, its usage text and the docs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every markdown file the repo's docs surface comprises.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files
}

/// Extract `](target)` links from a whole document as `(line, target)`
/// pairs. Scanning the full text (not line by line) keeps hard-wrapped
/// links — `[text\n](path)` — visible to the checker; a newline inside
/// the captured target is trimmed away.
fn link_targets(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(i) = text[pos..].find("](") {
        let start = pos + i + 2;
        let Some(j) = text[start..].find(')') else {
            break;
        };
        let line = text[..start].matches('\n').count() + 1;
        let target: String = text[start..start + j]
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        out.push((line, target));
        pos = start + j + 1;
    }
    out
}

#[test]
fn every_relative_markdown_link_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    let mut checked = 0;
    for file in doc_files(root) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        let dir = file.parent().expect("doc file has a parent");
        for (lineno, target) in link_targets(&text) {
            // Offline test: only relative file links are checkable.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
            {
                continue;
            }
            let path_part = target.split('#').next().unwrap_or(&target);
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(path_part).exists() {
                broken.push(format!(
                    "{}:{}: broken link `{target}`",
                    file.display(),
                    lineno
                ));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken doc links:\n{}",
        broken.join("\n")
    );
    assert!(
        checked > 0,
        "link checker found no links — extractor broken?"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `*.md` paths a line of Rust names, if it is a doc comment
/// (`///` or `//!`): every run of path characters ending in `.md`,
/// glob fragments such as the `.md` of `docs/*.md` aside.
fn md_paths_in_doc_comment(line: &str) -> Vec<&str> {
    let t = line.trim_start();
    if !(t.starts_with("///") || t.starts_with("//!")) {
        return Vec::new();
    }
    t.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
        .filter(|w| w.ends_with(".md") && !w.starts_with('.'))
        .collect()
}

/// A doc comment that cites a markdown file cites one that exists, so
/// an argument is never left behind in a document nobody can open.
/// Paths are taken from the repository root (`docs/SCENARIOS.md`,
/// `README.md`).
#[test]
fn every_markdown_file_a_doc_comment_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut missing = Vec::new();
    let mut checked = 0;
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        for (k, line) in text.lines().enumerate() {
            for md in md_paths_in_doc_comment(line) {
                checked += 1;
                if !root.join(md).exists() {
                    missing.push(format!("{}:{}: `{md}`", file.display(), k + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "doc comments name missing files:\n{}",
        missing.join("\n")
    );
    assert!(
        checked > 0,
        "no doc comment names a markdown file — extractor broken?"
    );
    assert_eq!(
        md_paths_in_doc_comment("  //! see `docs/A.md`, README.md and docs/*.md"),
        ["docs/A.md", "README.md"]
    );
    assert!(md_paths_in_doc_comment("let s = \"docs/A.md\";").is_empty());
}

/// The contents of a markdown text's code spans, CommonMark-style: a
/// run of `n` backticks opens a span that the next run of exactly `n`
/// closes; a run with no closing partner is literal text.
fn code_spans(text: &str) -> Vec<&str> {
    let b = text.as_bytes();
    let run_end = |i: usize| i + b[i..].iter().take_while(|&&c| c == b'`').count();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'`' {
            i += 1;
            continue;
        }
        let open = run_end(i);
        let (n, mut k) = (open - i, open);
        i = open;
        while k < b.len() {
            if b[k] != b'`' {
                k += 1;
                continue;
            }
            let close = run_end(k);
            if close - k == n {
                out.push(&text[open..k]);
                i = close;
                break;
            }
            k = close;
        }
    }
    out
}

/// The CamelCase name a code span leads with: its first `::` segment,
/// if that is an identifier starting upper-case with a lower-case
/// letter in it (`Scheme::Fifo` gives `Scheme`; `LSTF`, `README.md`
/// and `Box<Packet>` give nothing).
fn camel_name(span: &str) -> Option<&str> {
    let seg = span.trim().split("::").next()?;
    let ident = seg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let camel = seg.starts_with(|c: char| c.is_ascii_uppercase())
        && seg.chars().any(|c| c.is_ascii_lowercase());
    (ident && camel).then_some(seg)
}

/// Every type, trait or variant name the docs put in backticks exists
/// in the code: it appears as a whole word in some `.rs` file under
/// `crates/`, `src/`, `tests/` or `examples/`, or in `clippy.toml`. A
/// deleted or renamed item left behind in prose fails here.
#[test]
fn every_code_name_in_the_docs_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("clippy.toml")];
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut words = BTreeSet::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        words.extend(
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .map(str::to_string),
        );
    }
    let mut missing = Vec::new();
    let mut checked = BTreeSet::new();
    for file in doc_files(root) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        for name in code_spans(&text).into_iter().filter_map(camel_name) {
            if checked.insert(name.to_string()) && !words.contains(name) {
                missing.push(format!("{}: `{name}`", file.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "the docs name code that does not exist:\n{}",
        missing.join("\n")
    );
    assert!(
        checked.len() > 30,
        "only {} names found — extractor broken?",
        checked.len()
    );
    assert_eq!(code_spans("a `X` b ``## `y` `` c ``` d"), ["X", "## `y` "]);
    let names: Vec<_> = [
        "Scheme::Fifo",
        " Network ",
        "LSTF",
        "README.md",
        "Box<Packet>",
        "fifo",
    ]
    .into_iter()
    .filter_map(camel_name)
    .collect();
    assert_eq!(names, ["Scheme", "Network"]);
}

/// What `sweep --grid` runs and its catalogue cannot drift apart: every
/// named grid, registered scenario and experiment of the paper appears
/// backticked in docs/SCENARIOS.md, and every ``## `name` `` heading
/// there names one of them.
#[test]
fn every_runnable_grid_is_catalogued_and_every_heading_is_runnable() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/SCENARIOS.md");
    let doc = std::fs::read_to_string(&path).expect("reading docs/SCENARIOS.md");
    let grids = ups::sweep::SweepSpec::named().map(|s| s.name);
    let mut names: Vec<&str> = grids.iter().map(String::as_str).collect();
    names.extend(ups::sweep::scenario::names());
    names.extend(ups::sweep::EXPERIMENTS.iter().map(|e| e.name));
    names.push("paper"); // Table 1, then every experiment
    let missing: Vec<_> = names
        .iter()
        .filter(|n| !doc.contains(&format!("`{n}`")))
        .collect();
    assert!(missing.is_empty(), "not in docs/SCENARIOS.md: {missing:?}");
    let stale: Vec<_> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("## `")?.split('`').next())
        .filter(|h| !names.contains(h))
        .collect();
    assert!(
        stale.is_empty(),
        "headings naming nothing runnable: {stale:?}"
    );
}

/// The `baselines/NAME` files a text names: `NAME` is a run of
/// file-name characters ending in `.json`, so the directory itself and
/// shell patterns such as `baselines/${g}_quick.json` are not names.
fn baseline_names(text: &str) -> BTreeSet<String> {
    text.match_indices("baselines/")
        .filter_map(|(i, m)| {
            text[i + m.len()..]
                .split(|c: char| !(c.is_ascii_alphanumeric() || "_.-".contains(c)))
                .next()
        })
        .filter(|n| n.ends_with(".json"))
        .map(str::to_string)
        .collect()
}

/// The baseline list has one home, docs/EXPERIMENTS.md, and CI gates
/// every entry: the files in `baselines/`, the `baselines/…` names in
/// that document and the names the diff steps of `ci.yml` compare
/// against are one set. A stray or unlisted baseline, or a deleted
/// diff step, fails here.
#[test]
fn every_baseline_is_listed_and_gated() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
    };
    let committed: BTreeSet<String> = std::fs::read_dir(root.join("baselines"))
        .expect("baselines/ exists")
        .map(|e| {
            let name = e.expect("readable baselines/ entry").file_name();
            name.to_string_lossy().into_owned()
        })
        .collect();
    let listed = baseline_names(&read("docs/EXPERIMENTS.md"));
    let ci = read(".github/workflows/ci.yml");
    let diff_steps: Vec<&str> = ci
        .lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("- run:") && l.contains("diff "))
        .collect();
    let gated = baseline_names(&diff_steps.join("\n"));
    assert!(!committed.is_empty(), "no committed baselines");
    assert_eq!(listed, committed, "docs/EXPERIMENTS.md vs baselines/");
    assert_eq!(gated, committed, "ci.yml diff steps vs baselines/");
    assert_eq!(
        baseline_names("`baselines/` cp a baselines/x_quick.json baselines/${g}_quick.json"),
        BTreeSet::from(["x_quick.json".to_string()])
    );
    assert!(baseline_names("diff baselines/x_quick.txt out.txt").is_empty());
}

/// Every experiment of the paper is value-gated: each entry of
/// `EXPERIMENTS` (which `paper`, running them all, is not one of) has a
/// committed `baselines/<name>_quick.json`, so a new entry cannot land
/// without a baseline, and through the test above, a CI diff step.
#[test]
fn every_experiment_has_a_committed_baseline() {
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let missing: Vec<_> = ups::sweep::EXPERIMENTS
        .iter()
        .map(|e| format!("{}_quick.json", e.name))
        .filter(|f| !baselines.join(f).is_file())
        .collect();
    assert!(
        missing.is_empty(),
        "experiments without a baseline: {missing:?}"
    );
}

/// The `crates/…` paths of the crate table under `heading` in a
/// markdown text: every row, up to the next `## ` heading, whose second
/// cell is a backticked `crates/` path, in document order.
fn crate_table_paths(doc: &str, heading: &str) -> Vec<String> {
    let section = doc.split(heading).nth(1).unwrap_or("");
    let section = section.split("\n## ").next().unwrap_or("");
    section
        .lines()
        .filter_map(|l| l.strip_prefix('|')?.split('|').nth(1))
        .map(|cell| cell.trim().trim_matches('`'))
        .filter(|path| path.starts_with("crates/"))
        .map(str::to_string)
        .collect()
}

/// The workspace's crates and their two tables cannot drift apart: the
/// `crates/*` members of the root `Cargo.toml` are exactly the crate
/// rows of README's *Crate map* and of docs/ARCHITECTURE.md's crate
/// table, each crate once. A crate added, deleted or renamed in one
/// place only fails here.
#[test]
fn every_workspace_crate_has_one_row_in_each_crate_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
    };
    let manifest = read("Cargo.toml");
    let members = manifest
        .split("members = [")
        .nth(1)
        .and_then(|m| m.split(']').next())
        .expect("Cargo.toml has a members list");
    let mut crates: Vec<String> = members
        .split('"')
        .filter(|m| m.starts_with("crates/"))
        .map(str::to_string)
        .collect();
    crates.sort();
    assert!(crates.len() > 5, "only {crates:?} — extractor broken?");
    for (doc, heading) in [
        ("README.md", "## Crate map"),
        ("docs/ARCHITECTURE.md", "## Crate dependency graph"),
    ] {
        let mut rows = crate_table_paths(&read(doc), heading);
        rows.sort();
        assert_eq!(rows, crates, "{doc}'s crate table vs Cargo.toml members");
    }
    assert_eq!(
        crate_table_paths(
            "## T\n| `a` | `crates/a` | x |\n| `b` | `src/b` | y |\n## U\n| `c` | `crates/c` |",
            "## T"
        ),
        ["crates/a"]
    );
}

/// Every `--flag` in `text` with its byte offset: two dashes that do
/// not continue a word or a longer dash run, then a lower-case word of
/// letters, digits and dashes. `--chaos-*` gives the prefix `--chaos-`.
fn flags(text: &str) -> Vec<(usize, &str)> {
    let b = text.as_bytes();
    let word = |c: u8| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'-';
    text.match_indices("--")
        .filter(|&(i, _)| i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'-'))
        .filter(|&(i, _)| b.get(i + 2).is_some_and(u8::is_ascii_lowercase))
        .map(|(i, _)| {
            let len = b[i + 2..].iter().take_while(|&&c| word(c)).count();
            (i, &text[i..i + 2 + len])
        })
        .collect()
}

/// The flags of other tools that the docs quote: cargo's and the
/// benchmark harness's. Any other `--flag` in the docs is `sweep`'s.
const OTHER_TOOLS_FLAGS: &[&str] = &[
    "--all",
    "--all-targets",
    "--bin",
    "--check",
    "--example",
    "--locked",
    "--manifest-path",
    "--no-deps",
    "--open",
    "--release",
    "--workload",
    "--workspace",
];

/// `sweep`'s flags cannot drift between its parser, its usage text and
/// the docs: the flags `Args::parse` matches in `src/bin/sweep.rs` are
/// exactly the flags its `USAGE` lists, and every `--flag` that
/// README.md or `docs/*.md` quotes is one `USAGE` lists. The one
/// exception is a flag of another tool (`OTHER_TOOLS_FLAGS`) quoted
/// before any `sweep` on its line, as cargo's are in
/// `cargo run --release --bin sweep -- --grid fig1`.
#[test]
fn every_sweep_flag_is_parsed_listed_and_documented_alike() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("src/bin/sweep.rs")).expect("reading sweep.rs");
    let usage = src
        .split("const USAGE: &str = \"")
        .nth(1)
        .and_then(|u| u.split("\";").next())
        .expect("src/bin/sweep.rs defines USAGE");
    let listed: BTreeSet<&str> = flags(usage).into_iter().map(|(_, f)| f).collect();
    let parsed: BTreeSet<&str> = src
        .match_indices("\" =>")
        .filter_map(|(end, _)| {
            let arm = &src[src[..end].rfind('"')? + 1..end];
            arm.starts_with("--").then_some(arm)
        })
        .collect();
    assert!(
        parsed.len() > 10,
        "only {parsed:?} parsed — extractor broken?"
    );
    assert_eq!(
        parsed, listed,
        "flags Args::parse matches vs flags USAGE lists"
    );

    // `--chaos-` stands for every flag it prefixes.
    let in_usage = |f: &str| {
        if f.ends_with('-') {
            listed.iter().any(|l| l.starts_with(f))
        } else {
            listed.contains(f)
        }
    };
    let mut stray = Vec::new();
    for file in doc_files(root) {
        let text = std::fs::read_to_string(&file).expect("readable doc");
        for (n, line) in text.lines().enumerate() {
            for (at, flag) in flags(line) {
                let before = &line[..at];
                let sweeps = before
                    .rfind("sweep")
                    .is_some_and(|s| before.rfind("cargo").is_none_or(|c| c < s));
                if !(in_usage(flag) || !sweeps && OTHER_TOOLS_FLAGS.contains(&flag)) {
                    stray.push(format!("{}:{}: {flag}", file.display(), n + 1));
                }
            }
        }
    }
    assert!(
        stray.is_empty(),
        "flags USAGE does not list:\n{}",
        stray.join("\n")
    );
    assert_eq!(
        flags("sweep --grid x --chaos-* | --- a--b --9 `--jobs`"),
        [(6, "--grid"), (15, "--chaos-"), (41, "--jobs")]
    );
}

#[test]
fn extractor_handles_multiple_links_and_wrapped_links() {
    let targets = link_targets("see [a](x.md) and [b](y.md#sec) or [c](https://z)");
    assert_eq!(
        targets,
        vec![
            (1, "x.md".to_string()),
            (1, "y.md#sec".to_string()),
            (1, "https://z".to_string())
        ]
    );
    // A hard-wrapped link is still extracted, anchored to the line the
    // target starts on.
    let wrapped = link_targets("intro [text\n](docs/A.md) tail\nand [d](B.md)");
    assert_eq!(
        wrapped,
        vec![(2, "docs/A.md".to_string()), (3, "B.md".to_string())]
    );
    assert!(link_targets("no links here").is_empty());
}
