//! Findings, the machine-readable JSON report, and the human table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, kebab-case (e.g. `hash-collections`).
    pub rule: &'static str,
    /// Path relative to the lint root, `/`-separated.
    pub file: String,
    /// 1-based line; 0 when the finding is file-scoped.
    pub line: u32,
    /// Optional item name (fn, constant, scenario) the finding is about.
    pub item: Option<String>,
    /// What is wrong.
    pub message: String,
    /// How to fix or justify it.
    pub hint: &'static str,
}

/// Counts of what the structural rules actually verified — the self-run
/// test asserts these so "clean" can never silently mean "the anchors
/// moved and nothing was checked".
#[derive(Debug, Default, Clone)]
pub struct Checked {
    pub files_scanned: usize,
    pub event_classes: usize,
    pub scenarios: usize,
    pub unsafe_blocks: usize,
    pub suppressions_used: usize,
}

/// The full result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub suppressed: usize,
    pub checked: Checked,
}

impl Report {
    /// True when no findings survived suppression.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic order: by file, then line, then rule.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Render the human-facing table: one `file:line  rule  message`
    /// row per finding with the remediation hint beneath, then a
    /// summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .findings
            .iter()
            .map(|f| f.file.len() + 1 + digits(f.line))
            .max()
            .unwrap_or(0);
        for f in &self.findings {
            let loc = format!("{}:{}", f.file, f.line);
            let _ = writeln!(out, "{loc:<width$}  [{}] {}", f.rule, f.message);
            let _ = writeln!(out, "{:<width$}  fix: {}", "", f.hint);
        }
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &self.findings {
            *by_rule.entry(f.rule).or_insert(0) += 1;
        }
        if !by_rule.is_empty() {
            let _ = writeln!(out);
            for (rule, n) in &by_rule {
                let _ = writeln!(out, "  {n:>3} × {rule}");
            }
        }
        let _ = writeln!(
            out,
            "{} finding(s), {} suppressed · {} files · checked: {} event classes, \
             {} scenarios, {} unsafe blocks",
            self.findings.len(),
            self.suppressed,
            self.checked.files_scanned,
            self.checked.event_classes,
            self.checked.scenarios,
            self.checked.unsafe_blocks,
        );
        out
    }

    /// The machine-readable JSON report (`"kind": "lint"`), written
    /// with the same hand-rolled escaping discipline as the sweep
    /// artifacts: key order fixed, findings pre-sorted, no floats.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"kind\": \"lint\",\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"rule\": {}, \"file\": {}, \"line\": {}",
                json_str(f.rule),
                json_str(&f.file),
                f.line
            );
            if let Some(item) = &f.item {
                let _ = write!(out, ", \"item\": {}", json_str(item));
            }
            let _ = write!(
                out,
                ", \"message\": {}, \"hint\": {}}}",
                json_str(&f.message),
                json_str(f.hint)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        let c = &self.checked;
        let _ = write!(
            out,
            "  \"suppressed\": {},\n  \"checked\": {{\"files_scanned\": {}, \
             \"event_classes\": {}, \"scenarios\": {}, \
             \"unsafe_blocks\": {}, \"suppressions_used\": {}}}\n}}\n",
            self.suppressed,
            c.files_scanned,
            c.event_classes,
            c.scenarios,
            c.unsafe_blocks,
            c.suppressions_used,
        );
        out
    }
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: &'static str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            item: None,
            message: "msg".to_string(),
            hint: "hint",
        }
    }

    #[test]
    fn sort_is_total_and_render_mentions_each() {
        let mut r = Report {
            findings: vec![
                finding("b.rs", 2, "wall-clock"),
                finding("a.rs", 9, "hash-collections"),
                finding("b.rs", 2, "ambient-entropy"),
            ],
            ..Report::default()
        };
        r.sort();
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[1].rule, "ambient-entropy");
        let table = r.render();
        assert!(table.contains("a.rs:9"));
        assert!(table.contains("3 finding(s)"));
    }

    #[test]
    fn json_escapes_and_is_stable() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "unsafe-safety-comment",
            file: "x.rs".into(),
            line: 3,
            item: Some("we\"ird".into()),
            message: "line1\nline2".into(),
            hint: "h",
        });
        let j = r.to_json();
        assert!(j.contains("\"kind\": \"lint\""));
        assert!(j.contains("we\\\"ird"));
        assert!(j.contains("line1\\nline2"));
        assert_eq!(j, r.to_json());
    }
}
