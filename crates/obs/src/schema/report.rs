//! The documents the program writes whole: the serve report
//! ([`ServeReport`], `isrec.serve_report.v5`), the `/healthz` body
//! ([`Health`]) and the request record ([`Exemplar`]: an access-log line,
//! the args of an exemplar's trace event, an entry of the report's
//! `exemplars`).
//!
//! Each is declared once, by `document!`: its struct's fields, in order,
//! are its JSON object's keys, and a nested block is a nested document.
//! The one writer ([`Field::write`], shown by [`Show`]) and the one reader
//! ([`Field::read`]) both follow that declaration, so a renamed field is
//! renamed in what the program writes and in what `isrec validate` reads
//! alike.

use std::collections::BTreeMap;
use std::fmt::{self, Formatter};

use super::{Json, ERROR_KINDS};

/// A value one key of a document holds.
pub trait Field {
    /// Writes the value as JSON. Under `{:#}` an object puts each of its
    /// fields on its own line; what it nests stays compact.
    fn write(&self, f: &mut Formatter<'_>) -> fmt::Result;

    /// Reads the value at the dotted `path` of `doc`; the error names the
    /// path.
    fn read(doc: &Json, path: &str) -> Result<Self, String>
    where
        Self: Sized;
}

/// Displays a [`Field`] as its JSON: `format!("{:#}", Show(&report))`.
pub struct Show<'a, T: ?Sized>(pub &'a T);

impl<T: Field + ?Sized> fmt::Display for Show<'_, T> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        self.0.write(f)
    }
}

/// Writes `s` as a JSON string.
pub(crate) fn write_string(out: &mut dyn fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(out, "\\{c}")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Writes an object; under `{:#}` each field goes on its own line.
fn write_object<'a>(
    f: &mut Formatter<'_>,
    fields: impl IntoIterator<Item = (&'a str, &'a dyn Field)>,
) -> fmt::Result {
    let (open, sep, colon, close) = match f.alternate() {
        true => ("{\n  ", ",\n  ", ": ", "\n}"),
        false => ("{", ",", ":", "}"),
    };
    let mut lead = None;
    for (key, value) in fields {
        f.write_str(lead.unwrap_or(open))?;
        write_string(f, key)?;
        write!(f, "{colon}{}", Show(value))?;
        lead = Some(sep);
    }
    f.write_str(lead.map_or("{}", |_| close))
}

/// `v` rounded to `decimals` places.
fn round(v: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (v * scale).round() / scale
}

/// A document field's value as written: rounded when it names decimals.
macro_rules! value {
    ($v:expr) => {
        $v
    };
    ($v:expr, $decimals:literal) => {
        round($v, $decimals)
    };
}

/// Declares a document: a struct whose fields, in order, are its JSON
/// object's keys, and its [`Field`] impl. `key: f64 [d]` is written
/// rounded to `d` decimals.
macro_rules! document {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$doc:meta])* $key:ident: $ty:ty $([$d:literal])?,)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default)]
        pub struct $name {
            $($(#[$doc])* pub $key: $ty,)*
        }

        impl Field for $name {
            fn write(&self, f: &mut Formatter<'_>) -> fmt::Result {
                write_object(f, [$((stringify!($key), &value!(self.$key $(, $d)?) as &dyn Field),)*])
            }

            fn read(doc: &Json, path: &str) -> Result<$name, String> {
                let at = |key: &str| match path {
                    "" => String::from(key),
                    _ => format!("{path}.{key}"),
                };
                Ok($name { $($key: Field::read(doc, &at(stringify!($key)))?,)* })
            }
        }
    };
}

/// Fields that are one JSON scalar written by their `Display`, read by
/// the [`Json`] accessor named.
macro_rules! scalar {
    ($($ty:ty => $read:ident),*) => {$(
        impl Field for $ty {
            fn write(&self, f: &mut Formatter<'_>) -> fmt::Result {
                write!(f, "{self}")
            }

            fn read(doc: &Json, path: &str) -> Result<$ty, String> {
                doc.$read(path)
            }
        }
    )*};
}

scalar!(u64 => uint, bool => flag);

/// Non-finite numbers, which JSON cannot hold, are written as `null`. A
/// `null` reads back as +∞ only at an SLO block's `error_burn`, the one
/// number that is +∞: any failure against a 0% error target.
impl Field for f64 {
    fn write(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self.is_finite() {
            true => write!(f, "{self}"),
            false => f.write_str("null"),
        }
    }

    fn read(doc: &Json, path: &str) -> Result<f64, String> {
        match doc.at(path)? {
            Json::Null if path.ends_with("slo.error_burn") => Ok(f64::INFINITY),
            _ => doc.num(path),
        }
    }
}

impl Field for String {
    fn write(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write_string(f, self)
    }

    fn read(doc: &Json, path: &str) -> Result<String, String> {
        doc.text(path).map(String::from)
    }
}

/// A request outcome: `ok` or one of [`ERROR_KINDS`].
impl Field for &'static str {
    fn write(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write_string(f, self)
    }

    fn read(doc: &Json, path: &str) -> Result<&'static str, String> {
        let s = doc.text(path)?;
        let known = std::iter::once("ok").chain(ERROR_KINDS).find(|k| *k == s);
        known.ok_or_else(|| format!("unknown {path} {s:?}"))
    }
}

/// `null` for `None`.
impl<T: Field> Field for Option<T> {
    fn write(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Some(v) => v.write(f),
            None => f.write_str("null"),
        }
    }

    fn read(doc: &Json, path: &str) -> Result<Option<T>, String> {
        match doc.at(path)? {
            Json::Null => Ok(None),
            _ => T::read(doc, path).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.iter().enumerate() {
            write!(f, "{}{}", if i == 0 { "" } else { "," }, Show(v))?;
        }
        f.write_str("]")
    }

    fn read(doc: &Json, path: &str) -> Result<Vec<T>, String> {
        let n = doc.items(path)?.len();
        (0..n)
            .map(|i| T::read(doc, &format!("{path}.{i}")))
            .collect()
    }
}

impl<T: Field> Field for BTreeMap<String, T> {
    fn write(&self, f: &mut Formatter<'_>) -> fmt::Result {
        write_object(f, self.iter().map(|(k, v)| (k.as_str(), v as &dyn Field)))
    }

    fn read(doc: &Json, path: &str) -> Result<Self, String> {
        let keys = doc.fields(path)?.iter().map(|(k, _)| k);
        keys.map(|k| Ok((k.clone(), T::read(doc, &format!("{path}.{k}"))?)))
            .collect()
    }
}

impl Field for Json {
    fn write(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => b.write(f),
            Json::Num(v) => v.write(f),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => items.write(f),
            Json::Obj(fields) => {
                write_object(f, fields.iter().map(|(k, v)| (k.as_str(), v as &dyn Field)))
            }
        }
    }

    fn read(doc: &Json, path: &str) -> Result<Json, String> {
        doc.at(path).cloned()
    }
}

document! {
    /// The `isrec.serve_report.v5` document `isrec serve --report` writes;
    /// its [`Display`](fmt::Display) is the run's stdout summary. `schema`
    /// is [`ServeReport::SCHEMA`]; `epoch` is `None` for a snapshot;
    /// `exemplars` are the slowest requests, slowest first; `scores_crc` is
    /// the CRC-32 over every answered request's ranked (item, score bits),
    /// in request order.
    pub struct ServeReport {
        schema: String, dataset: String, source: String, epoch: Option<u64>,
        requests: u64, clients: u64, k: u64, elapsed_s: f64 [3], throughput_rps: f64 [1],
        latency_us: Latency, batch: Batches, cache: Cache, resilience: Resilience,
        config: Config, slo: SloSnapshot, exemplars: Vec<Exemplar>, scores_crc: u64,
    }
}

document! {
    /// The report's `latency_us` block: exact client-side quantiles.
    pub struct Latency { p50: u64, p95: u64, p99: u64, mean: f64 [1], max: u64, }
}

document! {
    /// The report's `batch` block: the engine's forward passes.
    pub struct Batches { count: u64, avg: f64 [3], max: u64, }
}

document! {
    /// The report's `cache` block: representation-cache lookups.
    pub struct Cache { hits: u64, misses: u64, hit_rate: f64 [4], }
}

document! {
    /// The report's `resilience` block: how every request ended (`errors`
    /// counts the failed ones per kind) and the engine's fault counters.
    pub struct Resilience {
        answered: u64, failed: u64, degraded_answers: u64, shed: u64, timed_out: u64,
        scorer_panics: u64, respawns: u64, reload_skipped: u64, degraded: bool,
        errors: BTreeMap<String, u64>,
    }
}

document! {
    /// The report's `config` block: the engine configuration served with.
    pub struct Config {
        max_batch: u64, batch_timeout_us: u64, cache_entries: u64, deadline_ms: u64,
        queue_cap: u64, max_respawns: u64,
    }
}

impl ServeReport {
    /// The report's schema tag.
    pub const SCHEMA: &'static str = "isrec.serve_report.v5";

    /// Reads a report file's text.
    pub fn parse(text: &str) -> Result<ServeReport, String> {
        let report = ServeReport::read(&Json::parse(text)?, "")?;
        ensure!(
            report.schema == Self::SCHEMA,
            "unexpected schema {:?}",
            report.schema
        );
        Ok(report)
    }
}

impl Latency {
    /// The nearest-rank quantiles of `samples`, which it sorts; all zero
    /// when empty.
    pub fn of(samples: &mut [u64]) -> Latency {
        samples.sort_unstable();
        let last = samples.len().saturating_sub(1) as f64;
        let q = |q: f64| samples.get((q * last).round() as usize).map_or(0, |v| *v);
        let mean = samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;
        let (p50, p95, p99, max) = (q(0.50), q(0.95), q(0.99), q(1.0));
        Latency {
            p50,
            p95,
            p99,
            mean,
            max,
        }
    }
}

/// The stdout summary of a serve run.
impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let (n, k, clients, secs, rps) = (
            self.requests,
            self.k,
            self.clients,
            self.elapsed_s,
            self.throughput_rps,
        );
        let Latency {
            p50,
            p95,
            p99,
            mean,
            max,
        } = self.latency_us;
        let (b, c, r, s) = (&self.batch, &self.cache, &self.resilience, &self.slo);
        writeln!(
            f,
            "served {n} requests (k={k}) from {clients} clients in {secs:.2}s \
             ({rps:.0} req/s) — {}\n\
             latency µs: p50 {p50} / p95 {p95} / p99 {p99} / mean {mean:.0} / max {max}\n\
             batches: {} (avg {:.2} req/batch, max {}); \
             cache: {} hits / {} misses ({:.1}% hit rate)",
            self.source,
            b.count,
            b.avg,
            b.max,
            c.hits,
            c.misses,
            c.hit_rate * 100.0
        )?;
        writeln!(
            f,
            "resilience: {}/{n} answered ({} degraded), {} failed; shed {} / timed_out {} / \
             panics {} / respawns {} / reload_skipped {}{}",
            r.answered,
            r.degraded_answers,
            r.failed,
            r.shed,
            r.timed_out,
            r.scorer_panics,
            r.respawns,
            r.reload_skipped,
            if r.degraded {
                " — engine still degraded"
            } else {
                ""
            }
        )?;
        if !r.errors.is_empty() {
            let detail: Vec<String> = r.errors.iter().map(|(k, n)| format!("{k}: {n}")).collect();
            writeln!(f, "typed errors: {}", detail.join(", "))?;
        }
        writeln!(f, "scores_crc: {:#010x}", self.scores_crc)?;
        if s.active {
            writeln!(
                f,
                "slo: p99 {}µs vs {}ms target (latency burn {:.2}), errors {:.2}% vs {:.2}% \
                 target (error burn {:.2}) — {}",
                s.p99_us,
                s.target_ms,
                s.latency_burn,
                s.error_pct,
                s.target_err_pct,
                s.error_burn,
                if s.breached { "BREACHED" } else { "within SLO" }
            )?;
        }
        Ok(())
    }
}

document! {
    /// A point-in-time evaluation of an SLO monitor's window against its
    /// targets: the serve report's `slo` block and `/healthz`'s
    /// `engine.slo`.
    pub struct SloSnapshot {
        /// True when the monitor was observing (any observability enabled
        /// at engine start); a default/dark snapshot reports all zeros.
        active: bool,
        /// Latency target, milliseconds.
        target_ms: u64,
        /// Error-rate target, percent.
        target_err_pct: f64 [3],
        /// Requests currently in the window.
        window: u64,
        /// Requests observed over the engine's lifetime.
        total_observed: u64,
        /// p99 latency over the window, microseconds.
        p99_us: u64,
        /// Error rate over the window, percent.
        error_pct: f64 [4],
        /// p99 / target (1.0 = exactly on target).
        latency_burn: f64 [4],
        /// error rate / target rate; +∞ when the target is 0 and any
        /// request failed.
        error_burn: f64 [4],
        /// True when either burn rate exceeds 1.0.
        breached: bool,
    }
}

document! {
    /// The `/healthz` body of a serving engine: `status` is `degraded`
    /// (served with 503) while the fallback ranker answers, else `ok`.
    pub struct Health { status: String, engine: EngineHealth, }
}

document! {
    /// `/healthz`'s `engine` block; `queue_depth` counts the requests
    /// waiting to be scored.
    pub struct EngineHealth {
        degraded: bool, respawns: u64, scorer_panics: u64, queue_depth: u64, slo: SloSnapshot,
    }
}

document! {
    /// One finished request, fully attributed: its access-log line, the
    /// args of its chrome-trace event and its entry in the serve report's
    /// `exemplars`. `req` is its trace id, `outcome` `ok` or the
    /// `ServeError::kind` string, `degraded` whether the fallback ranker
    /// answered, `hist` the history length, `cache_hit` whether the
    /// representation came from cache, `batch` the coalesced batch size it
    /// rode in; then its end-to-end and per-stage micros, the stages in
    /// [`crate::reqctx::Stage`] order.
    pub struct Exemplar {
        req: u64, outcome: &'static str, degraded: bool, hist: u64, k: u64, cache_hit: bool,
        batch: u64, total_us: u64, queue_us: u64, batch_us: u64, cache_us: u64,
        encode_us: u64, score_us: u64, merge_us: u64, reply_us: u64,
    }
}

impl Exemplar {
    /// The per-stage micros, in [`crate::reqctx::Stage`] order.
    pub fn stage_us(&self) -> [u64; crate::reqctx::NUM_STAGES] {
        let e = self;
        [
            e.queue_us,
            e.batch_us,
            e.cache_us,
            e.encode_us,
            e.score_us,
            e.merge_us,
            e.reply_us,
        ]
    }
}
