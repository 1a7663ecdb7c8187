//! # ist-obs
//!
//! Zero-dependency observability for the ISRec workspace: RAII spans,
//! atomic counters/gauges, and aggregating timers behind one global
//! registry, emitted as JSON-lines and/or a human-readable end-of-run
//! summary table.
//!
//! ## Cost model
//!
//! Telemetry is **off by default** and env-gated: set `IST_METRICS=json`
//! (machine-readable JSON-lines) or `IST_METRICS=summary` (end-of-run
//! table) to enable it. The disabled path is designed to vanish in hot
//! loops: every instrumentation entry point ([`Counter::add`],
//! [`Timer::start`], [`Span::enter`], [`Gauge::set`]) starts with a single
//! branch on one relaxed atomic load ([`enabled`]) and returns immediately
//! — no clock read, no allocation, no locking. Registration of the static
//! handles happens lazily on *first enabled use*, so a disabled process
//! never touches the registry at all.
//!
//! ## Events and aggregates
//!
//! Every probe feeds an *aggregate*; only [`Span`] also emits *events*.
//!
//! * Aggregates — [`Timer`] (count, total time, optional work units such
//!   as FLOPs), [`Histogram`], [`Counter`] and [`Gauge`] — accumulate in
//!   atomics and are reported only when a sink reads them. A span's
//!   elapsed time aggregates into the timer of the span's name, so a span
//!   is reported exactly like a timer.
//! * Events — in `json` mode, dropping a [`Span`] emits one line with its
//!   own elapsed time and fields. Use spans for coarse phases worth a line
//!   each: a training epoch, a checkpoint write, an eval-protocol pass.
//!
//! ## One snapshot, three renderers
//!
//! [`snapshot`] is the only reader of the aggregates: it runs the
//! registered [`FlushHook`]s, then reads the registry into a [`Snapshot`]
//! of timer rows, histogram rows, counters and gauges. The three sinks
//! render that value and compute nothing of their own:
//! [`Snapshot::to_json_lines`] (json-mode [`flush`], [`snapshot_json`]),
//! [`Snapshot::to_summary`] (summary-mode [`flush`], [`render_summary`])
//! and [`Snapshot::to_prometheus`] (`/metrics`, see [`export`]).
//!
//! A [`FlushHook`] lets another crate contribute to every snapshot. It has
//! three fields: `name` (registration is idempotent per name), `collect`
//! (adds rows to the snapshot, or refreshes gauges, before the registry is
//! read) and `reset` (clears the hook's own state on [`reset`]).
//!
//! ## Output
//!
//! JSON-lines go to the sink: `IST_METRICS_OUT=<path>` (or
//! [`set_output_path`] / the CLI's `--metrics-out`) writes to a file,
//! otherwise lines land on stderr. Every line is a single JSON object:
//! timers as `"span"` + `"elapsed_us"` + `"count"`, span events as
//! `"span"` + `"elapsed_us"` (no `"count"`), counters and gauges as
//! `"counter"` + `"value"`, histograms as `"histogram"` + quantiles; extra
//! fields ride alongside. Call [`flush`] once at the end of a run to emit
//! the aggregates (json mode) or render the summary table (summary mode,
//! to stderr).

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod env;
pub mod export;
pub mod reqctx;
pub mod schema;
pub mod trace;

pub use trace::{trace_enabled, TraceScope};

/// Telemetry mode, resolved once from `IST_METRICS` (or forced with
/// [`set_mode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No telemetry (default): every probe is a single relaxed-load branch.
    Off,
    /// Emit JSON-lines to the sink as spans close; `flush` appends
    /// aggregate timer/counter lines.
    Json,
    /// Aggregate only; `flush` renders a human-readable table to stderr.
    Summary,
    /// Aggregate only, and `flush` emits nothing — for live scrapers
    /// ([`export`]) that render [`snapshot`]s. Forced automatically
    /// when a scrape endpoint starts while metrics are otherwise off.
    Collect,
}

const MODE_UNINIT: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_JSON: u8 = 2;
const MODE_SUMMARY: u8 = 3;
const MODE_COLLECT: u8 = 4;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// Current mode; initialises from the environment on first call.
#[inline]
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        MODE_OFF => Mode::Off,
        MODE_JSON => Mode::Json,
        MODE_SUMMARY => Mode::Summary,
        MODE_COLLECT => Mode::Collect,
        _ => init_mode_from_env(),
    }
}

/// True when any telemetry mode is active. The steady-state disabled path
/// is one relaxed atomic load plus a compare.
#[inline]
pub fn enabled() -> bool {
    !matches!(mode(), Mode::Off)
}

/// Forces the mode programmatically (CLI flags, benchmarks, tests). Safe to
/// call at any point; instrumentation picks the new mode up on the next
/// probe.
pub fn set_mode(mode: Mode) {
    let raw = match mode {
        Mode::Off => MODE_OFF,
        Mode::Json => MODE_JSON,
        Mode::Summary => MODE_SUMMARY,
        Mode::Collect => MODE_COLLECT,
    };
    MODE.store(raw, Ordering::Relaxed);
}

#[cold]
fn init_mode_from_env() -> Mode {
    let mode = |v: &str| match v {
        "json" => Ok(Mode::Json),
        "summary" => Ok(Mode::Summary),
        "collect" => Ok(Mode::Collect),
        "off" | "0" => Ok(Mode::Off),
        _ => Err("expected json|summary|collect|off".to_string()),
    };
    let resolved = env::parsed("IST_METRICS", "off", mode).unwrap_or(Mode::Off);
    set_mode(resolved);
    resolved
}

// ---------------------------------------------------------------------------
// Registry & sink
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    timers: Vec<&'static Timer>,
    histograms: Vec<&'static Histogram>,
}

impl Registry {
    /// The timer a [`Span`] called `name` aggregates into: the registered
    /// timer of that name, or a new one on first use. Span names are
    /// `'static`, so at most one timer per distinct name is leaked.
    fn timer_named(&mut self, name: &'static str) -> &'static Timer {
        if let Some(t) = self.timers.iter().find(|t| t.name == name) {
            return t;
        }
        let t: &'static Timer = Box::leak(Box::new(Timer::new(name)));
        t.registered.store(true, Ordering::Relaxed);
        self.timers.push(t);
        t
    }
}

/// Locks an observability mutex, tolerating poisoning: telemetry must never
/// cascade a panic elsewhere in the process into a second failure here.
pub(crate) fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

enum SinkTarget {
    Stderr,
    Writer(Box<dyn Write + Send>),
}

fn sink() -> &'static Mutex<SinkTarget> {
    static SINK: OnceLock<Mutex<SinkTarget>> = OnceLock::new();
    SINK.get_or_init(|| {
        let open = |path: &str| std::fs::File::create(path).map_err(|e| e.to_string());
        let file = env::parsed("IST_METRICS_OUT", "stderr", open);
        Mutex::new(file.map_or(SinkTarget::Stderr, |f| SinkTarget::Writer(Box::new(f))))
    })
}

/// Redirects JSON-lines output to an arbitrary writer (tests, in-memory
/// capture).
pub fn set_output(writer: Box<dyn Write + Send>) {
    *lock_tolerant(sink()) = SinkTarget::Writer(writer);
}

/// Redirects JSON-lines output to a file (the CLI's `--metrics-out`).
pub fn set_output_path(path: &str) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
    set_output(Box::new(f));
    Ok(())
}

fn emit_line(line: &str) {
    match &mut *lock_tolerant(sink()) {
        SinkTarget::Stderr => eprintln!("{line}"),
        SinkTarget::Writer(w) => {
            // Telemetry write failures must never take the run down.
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// Counter & Gauge
// ---------------------------------------------------------------------------

/// A named monotonically increasing atomic counter. Declare as a `static`
/// and call [`Counter::add`]; the handle self-registers on first enabled
/// use.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Const constructor for `static` declarations.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n`; a no-op (one relaxed-load branch) when telemetry is off.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock_tolerant(registry()).counters.push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 — shorthand for `add(1)` on event counters.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named last-value-wins gauge (e.g. configured pool size).
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// Const constructor for `static` declarations.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Stores `v`; a no-op when telemetry is off.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock_tolerant(registry()).gauges.push(self);
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Timer (aggregating hot-path probe)
// ---------------------------------------------------------------------------

/// A static aggregating timer for hot operations: accumulates call count,
/// total nanoseconds and optional work units (FLOPs, elements, parameters)
/// without emitting anything per call. [`flush`] reports the aggregate with
/// a derived `rate_per_s` (units per second — GFLOP/s when the unit is
/// `flop`).
pub struct Timer {
    name: &'static str,
    unit: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    units: AtomicU64,
    registered: AtomicBool,
}

impl Timer {
    /// Const constructor without a work unit.
    pub const fn new(name: &'static str) -> Timer {
        Timer::with_unit(name, "")
    }

    /// Const constructor with a work-unit label (`"flop"`, `"elem"`, …).
    pub const fn with_unit(name: &'static str, unit: &'static str) -> Timer {
        Timer {
            name,
            unit,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            units: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Starts timing one call; the guard records on drop. Inert (no clock
    /// read) when telemetry is off.
    #[inline]
    pub fn start(&'static self) -> TimerGuard {
        self.start_with(0)
    }

    /// Starts timing one call that performs `units` units of work. When
    /// tracing is on ([`trace_enabled`]) the guard also records a timeline
    /// scope, so hot-op timers show up in the chrome-trace view without
    /// separate instrumentation.
    #[inline]
    pub fn start_with(&'static self, units: u64) -> TimerGuard {
        let trace = trace::scope_cat(self.name, "timer");
        if !enabled() {
            return TimerGuard {
                rec: None,
                _trace: trace,
            };
        }
        TimerGuard {
            rec: Some((self, Instant::now(), units)),
            _trace: trace,
        }
    }

    fn record(&'static self, ns: u64, units: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock_tolerant(registry()).timers.push(self);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        if units > 0 {
            self.units.fetch_add(units, Ordering::Relaxed);
        }
    }

    /// Number of recorded calls.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn row(&self) -> TimerRow {
        TimerRow {
            name: self.name.to_string(),
            count: self.count(),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
            unit: self.unit,
            fields: Vec::new(),
        }
    }
}

/// RAII guard returned by [`Timer::start`]; records elapsed time on drop.
/// Carries a [`TraceScope`] so the same probe feeds the timeline when
/// tracing is on.
pub struct TimerGuard {
    rec: Option<(&'static Timer, Instant, u64)>,
    _trace: trace::TraceScope,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some((timer, start, units)) = self.rec.take() {
            timer.record(start.elapsed().as_nanos() as u64, units);
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram (lock-free log2-bucket latency distribution)
// ---------------------------------------------------------------------------

/// Number of log2 buckets. Bucket 0 holds the value 0; bucket `i` (1..63)
/// holds `[2^(i-1), 2^i)`; the last bucket absorbs everything above.
const HIST_BUCKETS: usize = 64;

/// A static, lock-free distribution of `u64` samples over log2 buckets —
/// built for latency quantiles (p50/p95/p99) where a [`Timer`]'s mean hides
/// the tail. Recording is one relaxed `fetch_add` on the sum plus one on
/// the bucket; the count is the bucket total. Quantiles are computed on a
/// [`HistogramRow`] read from it.
///
/// Like every probe here it is inert when telemetry is off and
/// self-registers on first enabled use.
pub struct Histogram {
    name: &'static str,
    unit: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// Const constructor with a sample-unit label (`"us"`, `"rows"`, …).
    pub const fn with_unit(name: &'static str, unit: &'static str) -> Histogram {
        // Array-repeat needs a const item on rust 1.75 (AtomicU64 is not
        // Copy). Interior mutability is harmless here: the const exists
        // only to seed the array; each element is a distinct atomic.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            unit,
            buckets: [ZERO; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one sample; a no-op (one relaxed-load branch) when telemetry
    /// is off.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            lock_tolerant(registry()).histograms.push(self);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Reads the histogram once: each bucket is one relaxed load, and the
    /// row's count is the sum of the loaded buckets, so every figure a
    /// renderer derives from the row agrees even while recording races it.
    pub(crate) fn row(&self) -> HistogramRow {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramRow {
            name: self.name.to_string(),
            unit: self.unit,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Span (event-emitting RAII scope)
// ---------------------------------------------------------------------------

/// One JSON field value carried by a [`Span`].
#[derive(Clone, Debug)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Floating point (non-finite values serialise as `null`).
    F64(f64),
    /// String (JSON-escaped on emission).
    Str(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Field {
        Field::U64(v)
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Field {
        Field::U64(v as u64)
    }
}
impl From<f64> for Field {
    fn from(v: f64) -> Field {
        Field::F64(v)
    }
}
impl From<f32> for Field {
    fn from(v: f32) -> Field {
        Field::F64(v as f64)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Field {
        Field::Str(v.to_string())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}

struct SpanInner {
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, Field)>,
}

/// An RAII scope: in `json` mode, dropping the span emits one line
/// `{"span": <name>, "elapsed_us": <n>, …fields}`; in every enabled mode
/// the elapsed time also aggregates into the timer of the span's name.
/// Inert when telemetry is off.
pub struct Span {
    inner: Option<SpanInner>,
    _trace: trace::TraceScope,
}

impl Span {
    /// Opens a span. Inert (no clock read, no allocation) when telemetry
    /// is off. When tracing is on the span also records a timeline scope.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        let _trace = trace::scope_cat(name, "span");
        if !enabled() {
            return Span {
                inner: None,
                _trace,
            };
        }
        Span {
            inner: Some(SpanInner {
                name,
                start: Instant::now(),
                fields: Vec::new(),
            }),
            _trace,
        }
    }

    /// Attaches a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Field>) -> Span {
        self.add_field(key, value);
        self
    }

    /// Attaches a field to an open span (for values only known at scope
    /// end).
    pub fn add_field(&mut self, key: &'static str, value: impl Into<Field>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into()));
        }
    }

    /// True when telemetry is on and the span will record.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Seconds since the span opened (0.0 when inert).
    pub fn elapsed_secs(&self) -> f64 {
        self.inner
            .as_ref()
            .map(|i| i.start.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let ns = inner.start.elapsed().as_nanos() as u64;
        let timer = lock_tolerant(registry()).timer_named(inner.name);
        timer.record(ns, 0);
        if mode() == Mode::Json {
            let mut line = format!(
                "{{\"span\":{},\"elapsed_us\":{}",
                json_string(inner.name),
                ns / 1_000
            );
            push_json_fields(&mut line, &inner.fields);
            line.push('}');
            emit_line(&line);
        }
    }
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

/// `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = schema::write_string(&mut out, s);
    out
}

fn json_value(f: &Field) -> String {
    match f {
        Field::U64(v) => v.to_string(),
        Field::F64(v) if v.is_finite() => format!("{v:.6}"),
        Field::F64(_) => "null".to_string(),
        Field::Str(s) => json_string(s),
    }
}

/// Appends `,"key":value` per field to an open JSON object.
fn push_json_fields(line: &mut String, fields: &[(&'static str, Field)]) {
    for (key, value) in fields {
        line.push_str(&format!(",{}:{}", json_string(key), json_value(value)));
    }
}

// ---------------------------------------------------------------------------
// Snapshot: the one reading of every aggregate, and its renderers
// ---------------------------------------------------------------------------

/// One timer's aggregate: a [`Timer`], the spans of one name, or a row a
/// [`FlushHook`] contributes (the autograd profiler's per-op table).
#[derive(Clone, Debug, Default)]
pub struct TimerRow {
    /// Probe name.
    pub name: String,
    /// Recorded calls.
    pub count: u64,
    /// Total recorded nanoseconds.
    pub total_ns: u64,
    /// Total work units (0 for a timer without a unit).
    pub units: u64,
    /// Work-unit label (`"flop"`, `"elem"`, …; empty without one).
    pub unit: &'static str,
    /// Extra columns, rendered after the standard ones by every sink.
    pub fields: Vec<(&'static str, Field)>,
}

impl TimerRow {
    /// Work units per second, when the row has both units and time.
    fn rate_per_s(&self) -> Option<f64> {
        (self.units > 0 && self.total_ns > 0)
            .then(|| self.units as f64 / (self.total_ns as f64 / 1e9))
    }
}

/// One histogram's log₂ buckets, each read once.
#[derive(Clone, Debug, Default)]
pub struct HistogramRow {
    /// Probe name.
    pub name: String,
    /// Sample-unit label.
    pub unit: &'static str,
    /// Samples per log₂ bucket: bucket 0 holds the value 0, bucket `i`
    /// holds `[2^(i-1), 2^i)`, the last bucket everything above.
    pub buckets: Vec<u64>,
    /// Sum of the samples.
    pub sum: u64,
}

impl HistogramRow {
    /// Number of samples (the bucket total).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `[lo, hi]` value range covered by bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            _ if i == HIST_BUCKETS - 1 => (1u64 << (i - 1), u64::MAX),
            _ => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum as f64 / n as f64,
        }
    }

    /// The `q`-quantile (`q` in `[0,1]`) with linear interpolation inside
    /// the hit bucket, so it is exact to within one octave; 0.0 when
    /// empty. `quantile(0.99)` is the p99.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based (ceil, so q=1.0 → the max).
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket >= rank {
                let (lo, hi) = Self::bucket_range(i);
                // Assume samples spread evenly across the bucket's range.
                // The last bucket is open-ended (`hi == u64::MAX`), so
                // interpolating inside it would explode the estimate; no
                // single sample can exceed the recorded sum, so the sum is
                // a tight upper bound when one outlier landed there.
                let hi = if i == HIST_BUCKETS - 1 {
                    self.sum.max(lo)
                } else {
                    hi
                };
                let into = (rank - seen) as f64 / in_bucket as f64;
                return lo as f64 + (hi - lo) as f64 * into;
            }
            seen += in_bucket;
        }
        0.0
    }
}

/// One point-in-time reading of every aggregate, built by [`snapshot`].
/// Each sink renders it and computes nothing of its own, so JSON lines,
/// the summary table and `/metrics` always report the same rows.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Timers with at least one call: the registry's (span aggregates
    /// included), then rows contributed by [`FlushHook`]s.
    pub timers: Vec<TimerRow>,
    /// Histograms with at least one sample.
    pub histograms: Vec<HistogramRow>,
    /// Counters `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges `(name, value)`.
    pub gauges: Vec<(String, u64)>,
}

impl Snapshot {
    /// One JSON object per row: timers as `"span"` + `"elapsed_us"` +
    /// `"count"` (+ `"units"`, `"unit"`, `"rate_per_s"`, and the row's
    /// fields), histograms with quantiles, counters and gauges as
    /// `"counter"` + `"value"`.
    pub fn to_json_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.timers {
            let mut line = format!(
                "{{\"span\":{},\"elapsed_us\":{},\"count\":{}",
                json_string(&t.name),
                t.total_ns / 1_000,
                t.count
            );
            if t.units > 0 {
                line.push_str(&format!(
                    ",\"units\":{},\"unit\":{}",
                    t.units,
                    json_string(t.unit)
                ));
            }
            if let Some(rate) = t.rate_per_s() {
                line.push_str(&format!(",\"rate_per_s\":{rate:.1}"));
            }
            push_json_fields(&mut line, &t.fields);
            line.push('}');
            out.push(line);
        }
        for h in &self.histograms {
            out.push(format!(
                "{{\"histogram\":{},\"count\":{},\"mean\":{:.1},\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1},\"unit\":{}}}",
                json_string(&h.name),
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                json_string(h.unit)
            ));
        }
        for (name, value) in self.counters.iter().chain(&self.gauges) {
            out.push(format!(
                "{{\"counter\":{},\"value\":{value}}}",
                json_string(name)
            ));
        }
        out
    }

    /// The human-readable aggregate table (what `summary` mode prints on
    /// [`flush`]). A timer row's fields follow its columns as `key=value`.
    pub fn to_summary(&self) -> String {
        let mut out =
            String::from("\n── ist-obs summary ──────────────────────────────────────────\n");
        if !self.timers.is_empty() {
            out.push_str(&format!(
                "{:<36} {:>8} {:>12} {:>12} {:>16}\n",
                "timer", "count", "total ms", "mean µs", "throughput"
            ));
            for t in &self.timers {
                let total_ms = t.total_ns as f64 / 1e6;
                let mean_us = t.total_ns as f64 / 1e3 / t.count.max(1) as f64;
                let rate = t
                    .rate_per_s()
                    .map_or_else(|| "-".to_string(), |r| format!("{r:.3e} {}/s", t.unit));
                out.push_str(&format!(
                    "{:<36} {:>8} {total_ms:>12.3} {mean_us:>12.1} {rate:>16}",
                    t.name, t.count
                ));
                for (key, value) in &t.fields {
                    out.push_str(&format!(" {key}={}", json_value(value)));
                }
                out.push('\n');
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "{:<36} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                "histogram", "count", "mean", "p50", "p95", "p99"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<36} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                    format!("{} ({})", h.name, h.unit),
                    h.count(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99)
                ));
            }
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str(&format!("{:<36} {:>8}\n", "counter", "value"));
            for (name, value) in self.counters.iter().chain(&self.gauges) {
                out.push_str(&format!("{name:<36} {value:>8}\n"));
            }
        }
        out
    }
}

/// A contribution to every [`snapshot`], registered by another crate (the
/// autograd op profiler, tensor memory accounting, the SLO monitor). Both
/// members are plain `fn` pointers so hooks are `Copy` and callable
/// without holding any obs lock.
#[derive(Clone, Copy)]
pub struct FlushHook {
    /// Unique hook name; re-registration under the same name is a no-op.
    pub name: &'static str,
    /// Runs before the registry is read: push rows into the snapshot, or
    /// refresh gauges derived from the hook's own state.
    pub collect: fn(&mut Snapshot),
    /// Clears the hook's own aggregates (called by [`reset`]).
    pub reset: fn(),
}

fn hooks() -> &'static Mutex<Vec<FlushHook>> {
    static HOOKS: OnceLock<Mutex<Vec<FlushHook>>> = OnceLock::new();
    HOOKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a [`FlushHook`]; duplicate names are ignored so lazy
/// registration on first probe use is idempotent.
pub fn register_flush_hook(hook: FlushHook) {
    let mut hs = lock_tolerant(hooks());
    if hs.iter().all(|h| h.name != hook.name) {
        hs.push(hook);
    }
}

fn hooks_snapshot() -> Vec<FlushHook> {
    lock_tolerant(hooks()).clone()
}

/// Reads every aggregate once. The only code that runs the flush hooks'
/// `collect` or reads the registry for reporting. Hooks run first, with no
/// obs lock held, because refreshing a gauge may register it (which takes
/// the registry lock); their rows follow the registry's. Timers without
/// calls and histograms without samples are left out, in every sink.
pub fn snapshot() -> Snapshot {
    let mut hooked = Snapshot::default();
    for h in hooks_snapshot() {
        (h.collect)(&mut hooked);
    }
    let reg = lock_tolerant(registry());
    let timers = reg.timers.iter().map(|t| t.row()).chain(hooked.timers);
    let histograms = reg.histograms.iter().map(|h| h.row());
    let counters = reg.counters.iter().map(|c| (c.name.to_string(), c.get()));
    let gauges = reg.gauges.iter().map(|g| (g.name.to_string(), g.get()));
    Snapshot {
        timers: timers.filter(|t| t.count > 0).collect(),
        histograms: histograms
            .chain(hooked.histograms)
            .filter(|h| h.count() > 0)
            .collect(),
        counters: counters.chain(hooked.counters).collect(),
        gauges: gauges.chain(hooked.gauges).collect(),
    }
}

/// [`snapshot`] as JSON object strings, one per row — for embedding in
/// bespoke reports (the bench binaries' `BENCH_*.json`).
pub fn snapshot_json() -> Vec<String> {
    snapshot().to_json_lines()
}

/// [`snapshot`] as the summary table (what `summary` mode prints on
/// [`flush`]).
pub fn render_summary() -> String {
    snapshot().to_summary()
}

/// Emits end-of-run output: in `json` mode, one aggregate line per
/// snapshot row (span events were already emitted as they closed); in
/// `summary` mode, the table on stderr. Also writes the chrome-trace file
/// when tracing is on ([`trace::flush`]) — tracing is independent of the
/// metrics mode. Call once at the end of a binary.
pub fn flush() {
    match mode() {
        // Collect aggregates for live scrapers but emits nothing at exit.
        Mode::Off | Mode::Collect => {}
        Mode::Json => {
            for line in snapshot_json() {
                emit_line(&line);
            }
        }
        Mode::Summary => {
            eprint!("{}", render_summary());
        }
    }
    trace::flush();
}

/// Clears every aggregate (counters, gauges, timers — span aggregates
/// included — histograms, and registered hooks' own state). Intended for
/// tests that assert on freshly collected values.
pub fn reset() {
    {
        let reg = lock_tolerant(registry());
        for c in &reg.counters {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in &reg.gauges {
            g.value.store(0, Ordering::Relaxed);
        }
        for t in &reg.timers {
            t.count.store(0, Ordering::Relaxed);
            t.total_ns.store(0, Ordering::Relaxed);
            t.units.store(0, Ordering::Relaxed);
        }
        for h in &reg.histograms {
            h.sum.store(0, Ordering::Relaxed);
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
    for h in hooks_snapshot() {
        (h.reset)();
    }
}

#[cfg(test)]
pub(crate) fn test_mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    lock_tolerant(LOCK.get_or_init(|| Mutex::new(())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mode_lock() -> MutexGuard<'static, ()> {
        test_mode_lock()
    }

    /// A sink capture usable across the `Box<dyn Write + Send>` boundary.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock_tolerant(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            // Lossy on purpose: an arbitrary writer may receive (or a test
            // may inject) non-UTF-8 bytes, and inspecting telemetry output
            // must never itself abort the process.
            String::from_utf8_lossy(&lock_tolerant(&self.0)).into_owned()
        }
    }

    #[test]
    fn disabled_probes_are_inert() {
        let _guard = mode_lock();
        set_mode(Mode::Off);
        static C: Counter = Counter::new("test.inert_counter");
        static T: Timer = Timer::new("test.inert_timer");
        C.add(5);
        {
            let _g = T.start_with(100);
        }
        let span = Span::enter("test.inert_span");
        assert!(!span.active());
        assert_eq!(span.elapsed_secs(), 0.0);
        drop(span);
        assert_eq!(C.get(), 0);
        assert_eq!(T.count(), 0);
    }

    #[test]
    fn counters_and_timers_aggregate_when_enabled() {
        let _guard = mode_lock();
        set_mode(Mode::Summary);
        static C: Counter = Counter::new("test.counter");
        static G: Gauge = Gauge::new("test.gauge");
        static T: Timer = Timer::with_unit("test.timer", "elem");
        reset();
        C.add(2);
        C.add(3);
        G.set(7);
        G.set(9);
        {
            let _g = T.start_with(1000);
        }
        assert_eq!(C.get(), 5);
        assert_eq!(G.get(), 9);
        assert_eq!(T.count(), 1);
        assert_eq!(T.row().units, 1000);
        let table = render_summary();
        assert!(table.contains("test.counter"), "{table}");
        assert!(table.contains("test.timer"), "{table}");
        set_mode(Mode::Off);
    }

    #[test]
    fn spans_emit_parseable_json_lines() {
        let _guard = mode_lock();
        set_mode(Mode::Json);
        let buf = SharedBuf::default();
        set_output(Box::new(buf.clone()));
        reset();
        {
            let _span = Span::enter("test.span")
                .field("epoch", 3u64)
                .field("loss", 1.25f64)
                .field("model", "quoted \"name\"\n");
        }
        flush();
        set_mode(Mode::Off);
        let text = buf.contents();
        let span_line = text
            .lines()
            .find(|l| l.contains("\"test.span\""))
            .expect("span line emitted");
        assert!(span_line.starts_with("{\"span\":\"test.span\",\"elapsed_us\":"));
        assert!(span_line.contains("\"epoch\":3"));
        assert!(span_line.contains("\"loss\":1.250000"));
        assert!(span_line.contains("\\\"name\\\"\\n"), "{span_line}");
        assert!(span_line.ends_with('}'));
    }

    #[test]
    fn flush_emits_timer_and_counter_aggregates() {
        let _guard = mode_lock();
        set_mode(Mode::Json);
        let buf = SharedBuf::default();
        set_output(Box::new(buf.clone()));
        reset();
        static T: Timer = Timer::with_unit("test.flush_timer", "flop");
        static C: Counter = Counter::new("test.flush_counter");
        {
            let _g = T.start_with(1_000_000);
        }
        C.add(42);
        flush();
        set_mode(Mode::Off);
        let text = buf.contents();
        let timer_line = text
            .lines()
            .find(|l| l.contains("test.flush_timer"))
            .expect("timer aggregate emitted");
        assert!(timer_line.contains("\"count\":1"));
        assert!(timer_line.contains("\"units\":1000000"));
        assert!(timer_line.contains("\"rate_per_s\":"));
        let counter_line = text
            .lines()
            .find(|l| l.contains("test.flush_counter"))
            .expect("counter aggregate emitted");
        assert!(counter_line.contains("\"value\":42"));
    }

    #[test]
    fn histogram_quantiles_bound_the_true_values() {
        let _guard = mode_lock();
        set_mode(Mode::Summary);
        static H: Histogram = Histogram::with_unit("test.hist", "us");
        reset();
        // 1..=1000 → true p50=500, p95=950, p99=990; log2 buckets must land
        // within one octave of each.
        for v in 1..=1000u64 {
            H.record(v);
        }
        assert_eq!(H.count(), 1000);
        let row = H.row();
        assert!((row.mean() - 500.5).abs() < 1e-9);
        for (q, truth) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = row.quantile(q);
            assert!(
                est >= truth / 2.0 && est <= truth * 2.0,
                "q={q}: est {est} vs true {truth}"
            );
        }
        assert!(row.quantile(0.99).is_finite());
        let table = render_summary();
        assert!(table.contains("test.hist"), "{table}");
        reset();
        assert_eq!(H.count(), 0);
        assert_eq!(H.row().quantile(0.5), 0.0);
        set_mode(Mode::Off);
    }

    #[test]
    fn histogram_flush_emits_a_parseable_line() {
        let _guard = mode_lock();
        set_mode(Mode::Json);
        let buf = SharedBuf::default();
        set_output(Box::new(buf.clone()));
        reset();
        static H: Histogram = Histogram::with_unit("test.hist_json", "us");
        for v in [1u64, 10, 100, 1000, 10_000] {
            H.record(v);
        }
        flush();
        set_mode(Mode::Off);
        let text = buf.contents();
        let line = text
            .lines()
            .find(|l| l.contains("test.hist_json"))
            .expect("histogram line emitted");
        assert!(line.starts_with("{\"histogram\":\"test.hist_json\",\"count\":5"));
        assert!(line.contains("\"p99\":"));
        assert!(line.contains("\"unit\":\"us\""));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn histogram_top_bucket_quantile_is_sum_clamped() {
        let _guard = mode_lock();
        set_mode(Mode::Summary);
        static H: Histogram = Histogram::with_unit("test.hist_top_bucket", "us");
        reset();
        // One huge sample in the open-ended top bucket: before the sum
        // clamp, interpolation against the bucket's nominal upper bound
        // produced estimates past the sample itself (absurd for anything
        // ≥ 2^62). With the clamp, the estimate can never exceed the
        // recorded sum — here, the sample's own value.
        let huge = 1u64 << 62;
        H.record(huge);
        let est = H.row().quantile(1.0);
        assert!(
            (est - huge as f64).abs() <= huge as f64 * 1e-9,
            "single-sample max must be ~exact, got {est} vs {huge}"
        );
        // A second small sample raises the sum slightly; the top-bucket
        // bound must still stay within the sum, not the octave above.
        H.record(100);
        let est = H.row().quantile(1.0);
        assert!(
            est >= huge as f64 && est <= (huge + 100) as f64,
            "max estimate {est} escaped the sum bound"
        );
        reset();
        set_mode(Mode::Off);
    }

    #[test]
    fn histogram_edge_buckets() {
        // Bucket maths: 0 and u64::MAX must not panic or misplace.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let (lo, hi) = HistogramRow::bucket_range(HIST_BUCKETS - 1);
        assert!(lo < hi);
    }

    #[test]
    fn json_escaping_covers_control_chars() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_value(&Field::F64(f64::NAN)), "null");
        assert_eq!(json_value(&Field::U64(7)), "7");
    }
}
