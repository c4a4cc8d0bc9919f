//! Dependency-free JSON and CSV serialization for sweep reports, so
//! results land in `target/sweep/*.{json,csv}` for the benchmarking
//! trajectory instead of only stdout tables — plus the matching
//! [`Json::parse`] reader that `sweep diff` uses to load artifacts
//! back for cross-run comparison.
//!
//! Determinism contract: object keys render in insertion order and
//! floats use Rust's shortest round-trip `Display`, so two structurally
//! equal reports serialize to byte-identical artifacts.
//!
//! See the crate-level docs for the field-by-field artifact schema.

// Debug output is not format-stable across toolchains, so no `{:?}` may
// reach an artifact: every `write!`/`writeln!` here goes through an
// explicit Display path. (`format!` is not covered by this lint.)
#![deny(clippy::use_debug)]

use crate::engine::{FigReport, Stat, SweepReport, SweepResult};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// A minimal JSON value with *ordered* object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the rendering of non-finite numbers).
    Null,
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// An unsigned integer (seeds, counts) — rendered without a dot.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Num(x) => {
                if x.is_finite() {
                    write!(out, "{x}").expect("write to String");
                } else {
                    out.push_str("null");
                }
            }
            Json::UInt(n) => write!(out, "{n}").expect("write to String"),
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parse a JSON document (the inverse of [`Json::render`], used by
    /// `sweep diff` to load artifacts back).
    ///
    /// Supports the subset this crate emits — `null`, numbers, strings,
    /// arrays, objects — which is all any sweep artifact contains.
    /// Numbers without a sign, fraction, or exponent parse as
    /// [`Json::UInt`]; everything else numeric as [`Json::Num`].
    /// Trailing non-whitespace after the document is an error, and so
    /// is nesting deeper than 128 arrays/objects (artifacts nest a
    /// handful of levels; the limit keeps a hostile file from exhausting
    /// the stack).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(p.err("trailing data after JSON document"));
        }
        Ok(v)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts.
const MAX_DEPTH: usize = 128;

/// Byte-cursor recursive-descent parser for [`Json::parse`]. The cursor
/// only ever rests on a char boundary: every non-ASCII advance consumes
/// a whole `char`, everything else is ASCII.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn bytes(&self) -> &[u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => {
                self.depth += 1;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'{') => {
                self.depth += 1;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.input[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut plain_uint = true; // no sign, fraction, or exponent
        if self.peek() == Some(b'-') {
            plain_uint = false;
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    plain_uint = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if plain_uint {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("malformed number `{text}`")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // Exactly four hex digits (`from_str_radix`
                            // would also take a sign).
                            let code = self
                                .input
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| {
                                    hex.chars()
                                        .try_fold(0, |acc, c| Some(acc * 16 + c.to_digit(16)?))
                                })
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unsupported escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 character — an O(1) slice,
                    // the input is already known-valid UTF-8.
                    let c = self.input[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn stat_json(s: &Stat) -> Json {
    Json::obj(vec![
        ("mean", Json::Num(s.mean)),
        ("stddev", Json::Num(s.stddev)),
        ("stderr", Json::Num(s.stderr)),
    ])
}

fn cell_json(r: &SweepResult) -> Json {
    let mut members = vec![
        ("topo", Json::Str(r.coord.topo.label())),
        ("original", Json::Str(r.coord.sched.label().to_string())),
        ("util", Json::Num(r.coord.util)),
    ];
    // The chaos coordinate appears only on perturbed cells, so clean
    // grids (every committed baseline) keep the pre-chaos schema.
    if r.coord.chaos.enabled() {
        members.push(("chaos_drop_ppm", Json::UInt(r.coord.chaos.drop_ppm as u64)));
    }
    members.extend([
        ("replicates", Json::UInt(r.replicates as u64)),
        ("total_packets", stat_json(&r.total)),
        ("frac_overdue", stat_json(&r.frac_overdue)),
        ("frac_overdue_gt_t", stat_json(&r.frac_gt_t)),
        ("t_us", stat_json(&r.t_us)),
        ("max_congestion_points", stat_json(&r.max_cp)),
        ("mean_slack_us", stat_json(&r.mean_slack_us)),
    ]);
    // Deadline members appear only for deadline-tagged workloads, so
    // deadline-free artifacts (every committed baseline) stay
    // byte-identical to the pre-deadline schema.
    if let Some(d) = &r.deadline {
        members.push(("deadline_tagged", stat_json(&d.tagged)));
        members.push(("deadline_miss_rate", stat_json(&d.miss_rate)));
        members.push(("mean_lateness_us", stat_json(&d.mean_lateness_us)));
        members.push(("p99_lateness_us", stat_json(&d.p99_lateness_us)));
    }
    // Chaos outcome members, likewise only on perturbed cells — the
    // degradation-curve payload (fidelity and loss vs drop rate).
    if let Some(c) = &r.chaos {
        members.push(("fidelity", stat_json(&c.fidelity)));
        members.push(("frac_lost", stat_json(&c.frac_lost)));
        members.push(("chaos_drops", stat_json(&c.chaos_drops)));
        members.push(("chaos_outage_us", stat_json(&c.outage_us)));
    }
    Json::obj(members)
}

/// Quote a CSV field if it contains a comma, quote, or newline.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// `<dir>/<name>.json` + `<dir>/<name>.csv` writer shared by both
/// report kinds; returns the two paths.
fn write_pair(dir: &Path, name: &str, json: String, csv: String) -> io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{name}.json"));
    let csv_path = dir.join(format!("{name}.csv"));
    std::fs::write(&json_path, json)?;
    std::fs::write(&csv_path, csv)?;
    Ok((json_path, csv_path))
}

impl SweepReport {
    /// The full report as a JSON document (ends with a newline).
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("kind", Json::Str("table".to_string())),
            ("name", Json::Str(self.name.clone())),
            ("scale", Json::Str(self.scale.clone())),
            ("base_seed", Json::UInt(self.base_seed)),
            ("replicates", Json::UInt(self.replicates as u64)),
            (
                "cells",
                Json::Arr(self.results.iter().map(cell_json).collect()),
            ),
        ])
        .render()
    }

    /// The per-cell table as CSV: one header line, one line per cell,
    /// mean and stddev columns for every metric.
    pub fn to_csv(&self) -> String {
        // Deadline and chaos columns extend the header only when some
        // cell has the data, keeping classic CSVs byte-identical.
        let has_deadline = self.results.iter().any(|r| r.deadline.is_some());
        let has_chaos = self.results.iter().any(|r| r.chaos.is_some());
        let mut out = String::from("topo,original,util,");
        if has_chaos {
            out.push_str("chaos_drop_ppm,");
        }
        out.push_str(
            "replicates,\
             total_mean,total_stddev,\
             frac_overdue_mean,frac_overdue_stddev,\
             frac_overdue_gt_t_mean,frac_overdue_gt_t_stddev,\
             t_us_mean,t_us_stddev,\
             max_cp_mean,max_cp_stddev,\
             mean_slack_us_mean,mean_slack_us_stddev",
        );
        if has_deadline {
            out.push_str(
                ",deadline_tagged_mean,deadline_tagged_stddev,\
                 deadline_miss_rate_mean,deadline_miss_rate_stddev,\
                 mean_lateness_us_mean,mean_lateness_us_stddev,\
                 p99_lateness_us_mean,p99_lateness_us_stddev",
            );
        }
        if has_chaos {
            out.push_str(
                ",fidelity_mean,fidelity_stddev,\
                 frac_lost_mean,frac_lost_stddev,\
                 chaos_drops_mean,chaos_drops_stddev,\
                 chaos_outage_us_mean,chaos_outage_us_stddev",
            );
        }
        out.push('\n');
        for r in &self.results {
            let mut stats = vec![
                &r.total,
                &r.frac_overdue,
                &r.frac_gt_t,
                &r.t_us,
                &r.max_cp,
                &r.mean_slack_us,
            ];
            if let Some(d) = &r.deadline {
                stats.extend([
                    &d.tagged,
                    &d.miss_rate,
                    &d.mean_lateness_us,
                    &d.p99_lateness_us,
                ]);
            }
            write!(
                out,
                "{},{},{}",
                csv_field(&r.coord.topo.label()),
                csv_field(r.coord.sched.label()),
                r.coord.util,
            )
            .expect("write to String");
            if has_chaos {
                write!(out, ",{}", r.coord.chaos.drop_ppm).expect("write to String");
            }
            write!(out, ",{}", r.replicates).expect("write to String");
            for s in stats {
                write!(out, ",{},{}", s.mean, s.stddev).expect("write to String");
            }
            // A deadline-free cell in a mixed grid keeps its columns
            // aligned with empty fields.
            if has_deadline && r.deadline.is_none() {
                out.push_str(&",".repeat(8));
            }
            if has_chaos {
                match &r.chaos {
                    Some(c) => {
                        for s in [&c.fidelity, &c.frac_lost, &c.chaos_drops, &c.outage_us] {
                            write!(out, ",{},{}", s.mean, s.stddev).expect("write to String");
                        }
                    }
                    // A clean control cell in a chaos grid keeps its
                    // columns aligned with empty fields.
                    None => out.push_str(&",".repeat(8)),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Write `<dir>/<name>.json` and `<dir>/<name>.csv` (creating `dir`
    /// if needed); returns the two paths.
    pub fn write(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        write_pair(dir, &self.name, self.to_json(), self.to_csv())
    }
}

impl FigReport {
    /// The full figure report as a JSON document (ends with a newline).
    ///
    /// Points are objects carrying their own `x` (and `label` on
    /// categorical axes) so `sweep diff` can match them by coordinate
    /// rather than array position.
    pub fn to_json(&self) -> String {
        let series = self
            .results
            .iter()
            .map(|r| {
                let scalars = self
                    .scalar_names
                    .iter()
                    .zip(&r.scalars)
                    .map(|(name, s)| (name.clone(), stat_json(s)))
                    .collect();
                let points = self
                    .axis
                    .xs
                    .iter()
                    .zip(&r.points)
                    .enumerate()
                    .map(|(i, (&x, s))| {
                        let mut members = vec![("x".to_string(), Json::Num(x))];
                        if let Some(labels) = &self.axis.labels {
                            members.push(("label".to_string(), Json::Str(labels[i].clone())));
                        }
                        members.push(("mean".to_string(), Json::Num(s.mean)));
                        members.push(("stddev".to_string(), Json::Num(s.stddev)));
                        members.push(("stderr".to_string(), Json::Num(s.stderr)));
                        Json::Obj(members)
                    })
                    .collect();
                Json::obj(vec![
                    ("series", Json::Str(r.series.clone())),
                    ("replicates", Json::UInt(r.replicates as u64)),
                    ("scalars", Json::Obj(scalars)),
                    ("points", Json::Arr(points)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("kind", Json::Str("figure".to_string())),
            ("name", Json::Str(self.name.clone())),
            ("title", Json::Str(self.title.clone())),
            ("scale", Json::Str(self.scale.clone())),
            ("base_seed", Json::UInt(self.base_seed)),
            ("replicates", Json::UInt(self.replicates as u64)),
            ("axis", Json::Str(self.axis.name.clone())),
            ("series", Json::Arr(series)),
        ])
        .render()
    }

    /// The figure as long-format CSV: one row per (series, scalar) and
    /// per (series, point), with mean/stddev/stderr columns.
    ///
    /// `metric` is the scalar name for scalar rows and the axis name
    /// for point rows; `x`/`label` are empty on scalar rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,metric,x,label,mean,stddev,stderr\n");
        for r in &self.results {
            for (name, s) in self.scalar_names.iter().zip(&r.scalars) {
                writeln!(
                    out,
                    "{},{},,,{},{},{}",
                    csv_field(&r.series),
                    csv_field(name),
                    s.mean,
                    s.stddev,
                    s.stderr
                )
                .expect("write to String");
            }
            for (i, (&x, s)) in self.axis.xs.iter().zip(&r.points).enumerate() {
                let label = self
                    .axis
                    .labels
                    .as_ref()
                    .map_or(String::new(), |l| csv_field(&l[i]));
                writeln!(
                    out,
                    "{},{},{},{},{},{},{}",
                    csv_field(&r.series),
                    csv_field(&self.axis.name),
                    x,
                    label,
                    s.mean,
                    s.stddev,
                    s.stderr
                )
                .expect("write to String");
            }
        }
        out
    }

    /// Write `<dir>/<name>.json` and `<dir>/<name>.csv` (creating `dir`
    /// if needed); returns the two paths.
    pub fn write(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        write_pair(dir, &self.name, self.to_json(), self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep_with;
    use crate::grid::{Job, SweepSpec};
    use crate::CellMetrics;

    #[test]
    fn json_renders_ordered_and_escaped() {
        let v = Json::obj(vec![
            ("b", Json::UInt(2)),
            ("a", Json::Str("x\"y\n".to_string())),
            ("arr", Json::Arr(vec![Json::Num(0.5), Json::Null])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let s = v.render();
        // Insertion order preserved: "b" before "a".
        assert!(s.find("\"b\"").unwrap() < s.find("\"a\"").unwrap());
        assert!(s.contains("\"x\\\"y\\n\""));
        assert!(s.contains("0.5"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
    }

    fn tiny_report() -> SweepReport {
        let spec = SweepSpec::smoke().with_replicates(2);
        run_sweep_with(&spec, "test", 1, |job: &Job| CellMetrics {
            total: 10 * (job.cell + 1),
            frac_overdue: 0.25,
            frac_gt_t: 0.125,
            t_us: 12.0,
            max_cp: 1,
            mean_slack_us: 3.5,
            deadline: None,
            chaos: None,
        })
    }

    #[test]
    fn report_serializations_have_expected_shape() {
        let report = tiny_report();
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"kind\": \"table\",\n  \"name\": \"smoke\""));
        assert!(json.contains("\"frac_overdue\""));
        assert!(json.contains("\"mean\": 0.25"));
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + report.results.len());
        assert!(lines[0].starts_with("topo,original,util,replicates"));
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header/row column mismatch"
        );
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let report = tiny_report();
        for doc in [report.to_json(), fig_report().to_json()] {
            let parsed = Json::parse(&doc).expect("parse own artifact");
            assert_eq!(parsed.render(), doc, "render(parse(x)) != x");
        }
    }

    #[test]
    fn parse_handles_escapes_numbers_and_rejects_garbage() {
        let v = Json::parse("{\"a\\n\": [-1.5e3, 7, null, \"\\u0041\"]}").unwrap();
        let Json::Obj(members) = &v else {
            panic!("expected object")
        };
        assert_eq!(members[0].0, "a\n");
        let Json::Arr(items) = &members[0].1 else {
            panic!("expected array")
        };
        assert_eq!(items[0], Json::Num(-1500.0));
        assert_eq!(items[1], Json::UInt(7));
        assert_eq!(items[2], Json::Null);
        assert_eq!(items[3], Json::Str("A".to_string()));
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2] trailing").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("\"\\u+041\"").is_err());
        assert!(Json::parse("\"\\u004\"").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Far past the limit, and unterminated: an error, not a stack
        // overflow.
        assert!(Json::parse(&"[{\"k\": ".repeat(100_000)).is_err());
    }

    fn fig_report() -> crate::engine::FigReport {
        use crate::engine::run_fig_with;
        use crate::grid::{FigAxis, FigSpec};
        let spec = FigSpec::new(
            "figtiny",
            "Tiny figure",
            vec!["A".into(), "B".into()],
            FigAxis::categorical("bucket", vec!["<=1".into(), ">1".into()]),
        )
        .with_scalars(&["median"])
        .with_replicates(2);
        run_fig_with(&spec, "test", 1, |job| crate::DistMetrics {
            scalars: vec![job.seed as f64],
            points: vec![job.series as f64, job.replicate as f64],
        })
    }

    #[test]
    fn fig_serializations_have_expected_shape() {
        let report = fig_report();
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"kind\": \"figure\",\n  \"name\": \"figtiny\""));
        assert!(json.contains("\"axis\": \"bucket\""));
        assert!(json.contains("\"label\": \"<=1\""));
        assert!(json.contains("\"median\""));
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Header + per series: 1 scalar row + 2 point rows.
        assert_eq!(lines.len(), 1 + 2 * 3);
        assert_eq!(lines[0], "series,metric,x,label,mean,stddev,stderr");
        assert!(lines[1].starts_with("A,median,,,"));
        assert!(lines[2].starts_with("A,bucket,0,<=1,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), lines[0].split(',').count());
        }
    }

    #[test]
    fn write_creates_both_artifacts() {
        let report = tiny_report();
        // Keyed by pid so concurrent test runs on one machine don't race.
        let dir =
            std::env::temp_dir().join(format!("ups-sweep-artifact-test-{}", std::process::id()));
        let (json_path, csv_path) = report.write(&dir).expect("write artifacts");
        assert_eq!(
            std::fs::read_to_string(&json_path).unwrap(),
            report.to_json()
        );
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), report.to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }
}
