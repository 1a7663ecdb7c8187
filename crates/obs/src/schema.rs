//! Output schemas: one checker per file format this workspace writes, and
//! the small JSON reader they share.
//!
//! Each format is decided here, next to the code that writes it:
//!
//! * [`metrics_lines`] — JSON-lines telemetry ([`crate::Snapshot::to_json_lines`]
//!   plus span events);
//! * [`chrome_trace`] — the trace timeline ([`crate::trace::export_json`]);
//! * [`exposition`] and [`sample`] — the `/metrics` body
//!   ([`crate::Snapshot::to_prometheus`]);
//! * [`access_log`] — per-request lines ([`crate::reqctx::finish`]).
//!
//! The serve report (`isrec.serve_report.v5`, [`ServeReport`]), the
//! `/healthz` body ([`Health`]) and the request record ([`Exemplar`]) are
//! documents: each struct's fields are its keys, and one writer and one
//! reader ([`Field`]) follow them.
//!
//! Every checker returns `Err` with a message naming the offending line,
//! event or field. The scenario checks that CI runs on top of these
//! formats (required probes, request counts, bars) are the kinds of
//! [`validate`], the engine of `isrec validate <kind> <file>…`.

use std::collections::{BTreeMap, BTreeSet};

/// Returns `Err(format!(…))` from the enclosing function unless `cond`
/// holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

mod kinds;
mod report;

pub use kinds::{soak_final, soak_health, soak_step, validate, SERVE_REQUESTS};
pub(crate) use report::write_string;
pub use report::{
    Batches, Cache, Config, EngineHealth, Exemplar, Field, Health, Latency, Resilience,
    ServeReport, Show, SloSnapshot,
};

/// The kinds a serve request may fail with (`ServeError::kind`), as the
/// access log, the report's `resilience.errors` and its exemplars name
/// them.
pub const ERROR_KINDS: [&str; 6] = [
    "invalid", "deadline", "shed", "panic", "internal", "shutdown",
];

/// A parsed JSON value. Objects keep their fields in document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (every value this workspace writes fits an
    /// `f64`).
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

/// Nesting bound of [`Json::parse`]: deeper documents are rejected rather
/// than recursed into. This workspace writes at most three levels.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error. An
    /// error names the byte offset where reading stopped.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            at: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.ws();
        ensure!(p.at == text.len(), "{}", p.err("trailing characters"));
        Ok(v)
    }

    /// The value of `key` when `self` is an object holding it (the last
    /// occurrence, as most readers take it), or the item at index `key`
    /// when `self` is an array.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            Json::Arr(items) => items.get(key.parse::<usize>().ok()?),
            _ => None,
        }
    }

    /// The value at a dot-separated path (`"resilience.answered"`,
    /// `"exemplars.0.req"`); the error names the path.
    pub fn at(&self, path: &str) -> Result<&Json, String> {
        path.split('.')
            .try_fold(self, |v, key| v.get(key))
            .ok_or_else(|| format!("lacks {path}"))
    }

    /// The number at `path`.
    pub fn num(&self, path: &str) -> Result<f64, String> {
        match self.at(path)? {
            Json::Num(v) => Ok(*v),
            other => Err(format!("{path} is not a number: {other}")),
        }
    }

    /// The non-negative integer at `path`.
    pub fn uint(&self, path: &str) -> Result<u64, String> {
        let v = self.num(path)?;
        if v >= 0.0 && v.fract() == 0.0 && v < 2f64.powi(64) {
            Ok(v as u64)
        } else {
            Err(format!("{path} is not a non-negative integer: {v}"))
        }
    }

    /// The bool at `path`.
    pub fn flag(&self, path: &str) -> Result<bool, String> {
        match self.at(path)? {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{path} is not a bool: {other}")),
        }
    }

    /// The array at `path`.
    pub fn items(&self, path: &str) -> Result<&[Json], String> {
        match self.at(path)? {
            Json::Arr(items) => Ok(items),
            other => Err(format!("{path} is not an array: {other}")),
        }
    }

    /// The object fields at `path`.
    pub fn fields(&self, path: &str) -> Result<&[(String, Json)], String> {
        match self.at(path)? {
            Json::Obj(fields) => Ok(fields),
            other => Err(format!("{path} is not an object: {other}")),
        }
    }

    /// The string at `path`.
    pub fn text(&self, path: &str) -> Result<&str, String> {
        match self.at(path)? {
            Json::Str(s) => Ok(s),
            other => Err(format!("{path} is not a string: {other}")),
        }
    }
}

/// Compact JSON through the documents' writer ([`Field`]); `{:#}` puts
/// each top-level field of an object on its own line. Non-finite numbers,
/// which JSON cannot hold, are written as `null`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write(f)
    }
}

/// A cursor over the document; `at` only ever rests on a char boundary.
struct Parser<'a> {
    text: &'a str,
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.text.as_bytes()[self.at..].starts_with(lit.as_bytes());
        self.at += if hit { lit.len() } else { 0 };
        hit
    }

    /// Skips whitespace, then `lit`, or fails with `what`.
    fn expect(&mut self, lit: &str, what: &str) -> Result<(), String> {
        self.ws();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        Ok(match self.peek() {
            None => return Err(self.err("unexpected end of input")),
            Some(b'{' | b'[') => self.nested()?,
            Some(b'"') => Json::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(_) if self.eat("true") => Json::Bool(true),
            Some(_) if self.eat("false") => Json::Bool(false),
            Some(_) if self.eat("null") => Json::Null,
            Some(_) => return Err(self.err("unexpected character")),
        })
    }

    /// An object or array: items separated by `,` up to the closing byte.
    fn nested(&mut self) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        let object = self.peek() == Some(b'{');
        let close = if object { "}" } else { "]" };
        let (mut fields, mut items) = (Vec::new(), Vec::new());
        self.depth += 1;
        self.at += 1;
        self.ws();
        let mut more = !self.eat(close);
        while more {
            if object {
                self.ws();
                if self.peek() != Some(b'"') {
                    return Err(self.err("expected a string key"));
                }
                let key = self.string()?;
                self.expect(":", "expected ':'")?;
                fields.push((key, self.value()?));
            } else {
                items.push(self.value()?);
            }
            self.ws();
            more = !self.eat(close);
            if more {
                self.expect(",", &format!("expected ',' or '{close}'"))?;
            }
        }
        self.depth -= 1;
        Ok(if object {
            Json::Obj(fields)
        } else {
            Json::Arr(items)
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1;
        let mut out = String::new();
        loop {
            let start = self.at;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.at += 1;
            }
            // Runs stop only at ASCII bytes, so they end on char boundaries.
            out.push_str(&self.text[start..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The escape after a backslash; a surrogate pair decodes to one
    /// char, a lone surrogate to U+FFFD.
    fn escape(&mut self) -> Result<char, String> {
        self.at += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.at += 1;
                let mut code = self.hex4()?;
                let pair_at = self.at;
                if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
                    match self.hex4()? {
                        lo @ 0xDC00..0xE000 => {
                            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00)
                        }
                        _ => self.at = pair_at,
                    }
                }
                return Ok(char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.at += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.get(self.at..self.at + 4);
        let digits = digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = digits.and_then(|d| u32::from_str_radix(d, 16).ok());
        let code = code.ok_or_else(|| self.err("bad \\u escape"))?;
        self.at += 4;
        Ok(code)
    }

    /// Skips digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at > start
    }

    /// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        self.eat("-");
        let int = self.eat("0") || self.digits();
        let frac = !self.eat(".") || self.digits();
        let exp = !(self.eat("e") || self.eat("E")) || {
            let _ = self.eat("+") || self.eat("-");
            self.digits()
        };
        let num = self.text[start..self.at].parse().ok();
        num.filter(|v: &f64| int && frac && exp && v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// The non-blank lines of `text`, numbered from 1.
fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    lines.filter(|(_, l)| !l.trim().is_empty())
}

/// `line` as a JSON value; the error names the line.
fn parse_line(i: usize, line: &str) -> Result<Json, String> {
    Json::parse(line).map_err(|e| format!("line {i} is not valid JSON ({e}): {line}"))
}

/// What [`metrics_lines`] read from a JSON-lines telemetry file.
#[derive(Debug, Default)]
pub struct MetricsLines {
    /// Non-blank lines.
    pub lines: usize,
    /// Every histogram name.
    pub histograms: BTreeSet<String>,
    /// Each span aggregate's `count` (the last aggregate line of a name).
    pub aggregates: BTreeMap<String, u64>,
    /// Event lines (spans without `count`) per span name.
    pub events: BTreeMap<String, u64>,
}

impl MetricsLines {
    /// Whether any span line, event or aggregate, names `span`.
    pub fn has_span(&self, span: &str) -> bool {
        self.aggregates.contains_key(span) || self.events.contains_key(span)
    }
}

/// Checks JSON-lines telemetry: at least one line; every line an object
/// that is a span (`span` + `elapsed_us`; an aggregate also carries
/// `count`), a counter or gauge (`counter` + `value`) or a histogram
/// (`histogram` + `count`, `p50`, `p95`, `p99`); and every span that
/// emitted events has an aggregate whose `count` equals its event count.
pub fn metrics_lines(text: &str) -> Result<MetricsLines, String> {
    let mut out = MetricsLines::default();
    for (i, line) in numbered_lines(text) {
        out.lines += 1;
        let obj = parse_line(i, line)?;
        let (what, keys): (_, &[&str]) = if obj.get("span").is_some() {
            ("span", &["elapsed_us"])
        } else if obj.get("counter").is_some() {
            ("counter", &["value"])
        } else if obj.get("histogram").is_some() {
            ("histogram", &["count", "p50", "p95", "p99"])
        } else {
            return Err(format!("line {i} is not a span/counter/histogram: {line}"));
        };
        if let Some(k) = keys.iter().find(|k| obj.get(k).is_none()) {
            return Err(format!("{what} line {i} lacks {k}: {line}"));
        }
        let name = obj
            .text(what)
            .map_err(|e| format!("line {i}: {e}"))?
            .to_string();
        match what {
            "span" if obj.get("count").is_some() => {
                let count = obj.uint("count").map_err(|e| format!("line {i}: {e}"))?;
                out.aggregates.insert(name, count);
            }
            "span" => *out.events.entry(name).or_default() += 1,
            "histogram" => drop(out.histograms.insert(name)),
            _ => {}
        }
    }
    ensure!(out.lines > 0, "metrics file is empty");
    for (span, n) in &out.events {
        let Some(c) = out.aggregates.get(span) else {
            return Err(format!("no aggregate line with a count for span {span}"));
        };
        ensure!(
            c == n,
            "{span} aggregate counts {c} but {n} events were emitted"
        );
    }
    Ok(out)
}

/// What [`chrome_trace`] read from a trace timeline.
#[derive(Debug)]
pub struct Trace {
    /// Events in the array, metadata included.
    pub events: usize,
    /// Names of every `B` event.
    pub names: BTreeSet<String>,
}

/// Checks a chrome-trace document: a non-empty array of events, each with
/// `ph` and `pid`, phases `M`/`X`/`B`/`E`/`I` only, every `X` carrying
/// `dur`; the `B`/`E`/`I` events in `ts` order, every `E` closing the
/// innermost open `B` of the same name on its `tid`, nothing left open, and
/// one pid throughout.
pub fn chrome_trace(text: &str) -> Result<Trace, String> {
    let doc = Json::parse(text)?;
    let events = match &doc {
        Json::Arr(events) if !events.is_empty() => events,
        _ => return Err("trace is not a non-empty JSON array".into()),
    };
    let mut stacks: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    let (mut names, mut pids) = (BTreeSet::new(), BTreeSet::new());
    let (mut last_ts, mut begins, mut ends) = (f64::NEG_INFINITY, 0, 0);
    for (i, ev) in events.iter().enumerate() {
        let field = |e: String| format!("event {i}: {e}");
        let ph = ev.text("ph").map_err(field)?;
        pids.insert(ev.uint("pid").map_err(field)?);
        // Complete events (slow-request exemplars) carry their own dur and
        // sit on their own track, outside B/E ordering and stacks.
        match ph {
            "M" => continue,
            "X" => {
                ev.num("dur").map_err(field)?;
                continue;
            }
            "B" | "E" | "I" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
        let ts = ev.num("ts").map_err(field)?;
        ensure!(
            ts >= last_ts,
            "events out of timestamp order at ts={ts} (event {i})"
        );
        last_ts = ts;
        if ph == "I" {
            continue;
        }
        let (name, tid) = (
            ev.text("name").map_err(field)?,
            ev.uint("tid").map_err(field)?,
        );
        let stack = stacks.entry(tid).or_default();
        if ph == "B" {
            begins += 1;
            names.insert(name.to_string());
            stack.push(name);
            continue;
        }
        ends += 1;
        let Some(open) = stack.pop() else {
            return Err(format!("E without B on tid {tid} (event {i})"));
        };
        ensure!(
            open == name,
            "mismatched B/E pair on tid {tid}: {open:?} closed by {name:?} (event {i})"
        );
    }
    let balanced = begins == ends && stacks.values().all(|s| s.is_empty());
    ensure!(balanced, "unbalanced B/E events ({begins} vs {ends})");
    ensure!(pids.len() == 1, "inconsistent pids {pids:?}");
    Ok(Trace {
        events: events.len(),
        names,
    })
}

/// Checks Prometheus text exposition: every non-blank line is a `# TYPE`
/// comment or `name[{labels}] value`, the name matching
/// `[A-Za-z_:][A-Za-z0-9_:]*` and the value a number.
pub fn exposition(body: &str) -> Result<(), String> {
    for (i, line) in numbered_lines(body) {
        if line.starts_with('#') {
            ensure!(
                line.starts_with("# TYPE "),
                "line {i}: unknown comment line: {line:?}"
            );
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap_or(("", line));
        let bare = name.split('{').next().unwrap_or("");
        let name_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
        let name_ok =
            bare.chars().all(name_char) && bare.starts_with(|c: char| !c.is_ascii_digit());
        ensure!(name_ok, "line {i}: bad metric name in: {line:?}");
        ensure!(
            value.parse::<f64>().is_ok(),
            "line {i}: bad value in: {line:?}"
        );
    }
    Ok(())
}

/// The value of the first sample named exactly `name` (no labels) in an
/// exposition body.
pub fn sample(body: &str, name: &str) -> Option<f64> {
    let line = body.lines().find(|l| l.split(' ').next() == Some(name))?;
    line.rsplit(' ').next()?.parse().ok()
}

/// Checks access-log lines: each a request record ([`Exemplar`]), `req`
/// unique, the stages summing to at most `total_us`.
pub fn access_log(text: &str) -> Result<Vec<Exemplar>, String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (i, line) in numbered_lines(text) {
        let rec = Exemplar::read(&parse_line(i, line)?, "")
            .map_err(|e| format!("access-log line {i} {e}: {line}"))?;
        let (req, total, stages) = (rec.req, rec.total_us, rec.stage_us().iter().sum::<u64>());
        ensure!(seen.insert(req), "duplicate trace id {req} on line {i}");
        ensure!(
            stages <= total,
            "line {i}: stage breakdown {stages}us exceeds total latency {total}us: {line}"
        );
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_handles_every_value_kind() {
        let doc = r#" {"a": [1, -2.5e3, 0.25], "s": "q\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00", "t": true, "f": false, "n": null, "o": {}} "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.at("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(-2500.0), Json::Num(0.25)])
        );
        assert_eq!(v.text("s").unwrap(), "q\"\\/\u{8}\u{c}\n\r\té😀");
        assert!(v.flag("t").unwrap() && !v.flag("f").unwrap());
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(v.get("o"), Some(&Json::Obj(vec![])));
        assert_eq!(Json::parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn reader_errors_name_the_byte_offset() {
        for (doc, want) in [
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("[1, 2", "expected ',' or ']' at byte 5"),
            ("[01]", "expected ',' or ']' at byte 2"),
            ("1.", "bad number at byte 2"),
            ("\"ab", "unterminated string at byte 3"),
            ("\"\\x\"", "bad escape at byte 2"),
            ("{1: 2}", "expected a string key at byte 1"),
            ("[] x", "trailing characters at byte 3"),
            ("1e999", "bad number at byte 5"),
            ("nul", "unexpected character at byte 0"),
            ("\"\\u12x4\"", "bad \\u escape at byte 3"),
        ] {
            assert_eq!(Json::parse(doc).unwrap_err(), want, "{doc}");
        }
        assert_eq!(
            Json::parse(r#""\ud83d\u0041""#),
            Ok(Json::Str("\u{fffd}A".into()))
        );
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&deep)
            .unwrap_err()
            .contains("nested too deeply"));
    }

    #[test]
    fn path_accessors_name_the_field() {
        let v = Json::parse(r#"{"a": {"b": 3, "c": "x", "d": 1.5}}"#).unwrap();
        assert_eq!(v.uint("a.b"), Ok(3));
        assert_eq!(v.uint("a.x").unwrap_err(), "lacks a.x");
        assert!(v
            .uint("a.d")
            .unwrap_err()
            .contains("a.d is not a non-negative integer"));
        assert!(v.num("a.c").unwrap_err().contains("a.c is not a number"));
    }

    #[test]
    fn serve_report_requires_every_v5_field() {
        /// Every field path of `doc`, nested blocks before the block
        /// itself; `errors`' counts and `exemplars`' items are data, not
        /// fields.
        fn paths(prefix: &str, doc: &Json, out: &mut Vec<String>) {
            let Json::Obj(fields) = doc else { return };
            for (key, value) in fields {
                let path = format!("{prefix}{key}");
                if key != "errors" && key != "exemplars" {
                    paths(&format!("{path}."), value, out);
                }
                out.push(path);
            }
        }
        /// Removes the field at the dotted `path`.
        fn remove(doc: &mut Json, path: &str) {
            let Json::Obj(fields) = doc else { return };
            match path.split_once('.') {
                None => fields.retain(|(k, _)| k != path),
                Some((head, rest)) => {
                    let inner = fields.iter_mut().filter(|(k, _)| k == head);
                    inner.for_each(|(_, v)| remove(v, rest));
                }
            }
        }
        let good = include_str!("../tests/fixtures/serve-report/good.json");
        let text = format!("{:#}", Show(&ServeReport::parse(good).unwrap()));
        let doc = Json::parse(&text).unwrap();
        assert_eq!(format!("{doc:#}"), text);
        let mut all = Vec::new();
        paths("", &doc, &mut all);
        assert_eq!(all.len(), 54);
        for path in [
            "slo.error_burn",
            "slo.p99_us",
            "resilience.shed",
            "latency_us.p99",
        ] {
            assert!(all.iter().any(|p| p == path), "{path}");
        }
        // The fixture's numbers carry the decimals the format writes, so
        // rendering keeps every value (exemplar keys come in record order).
        let fixture = Json::parse(good).unwrap();
        for path in all.iter().filter(|p| *p != "exemplars") {
            assert_eq!(doc.at(path), fixture.at(path), "{path}");
        }
        for path in all {
            let mut doc = doc.clone();
            remove(&mut doc, &path);
            let err = ServeReport::read(&doc, "").unwrap_err();
            assert!(err.starts_with(&format!("lacks {path}")), "{path}: {err}");
        }
    }

    #[test]
    fn exposition_grammar_and_sample() {
        let body = "# TYPE a_total counter\na_total 3\nb_bucket{le=\"+Inf\"} 4\n";
        assert_eq!(exposition(body), Ok(()));
        assert_eq!(sample(body, "a_total"), Some(3.0));
        assert_eq!(sample(body, "b_bucket"), None);
        assert!(exposition("# HELP a x\n").is_err());
        assert!(exposition("9a 1\n").is_err());
        assert!(exposition("a one\n").is_err());
        assert!(exposition("lonely\n").is_err());
    }
}
