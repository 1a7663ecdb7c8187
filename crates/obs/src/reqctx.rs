//! Per-request context: trace-ID propagation, a per-stage latency
//! breakdown, a structured access log, and a slowest-N exemplar reservoir.
//!
//! A [`ReqCtx`] is allocated once per request at the serving front door
//! (when [`active`] — any of access log, metrics, or tracing on) and rides
//! the request through admission queue → batcher → scorer → catalog GEMM →
//! top-K → reply. Each pipeline stage records its wall time into a slot of
//! the context ([`ReqCtx::record`]); when the request finishes, exactly one
//! JSON line describing it is appended to the access log
//! (`IST_SERVE_ACCESS_LOG=<path>` or [`set_access_log_path`]) and the
//! request is offered to a bounded reservoir keeping the slowest
//! [`EXEMPLAR_CAP`] requests seen, whose full breakdowns land in the chrome
//! trace (as `"X"` complete events) and the serve report.
//!
//! ## Cost and invisibility
//!
//! When nothing is enabled, the only per-request cost is the [`active`]
//! check — three relaxed atomic loads, no allocation, no clock read beyond
//! what the engine already does. Nothing here touches scores: stage
//! recording is measurement-only, and the access line is emitted by the
//! *caller* after its response is already decided, so enabling any of it
//! cannot perturb `scores_crc` (the CI serve stage enforces this bitwise).
//!
//! ## Stage accounting
//!
//! The seven stages are disjoint sub-intervals of the request's lifetime:
//! `queue` (admission → batcher pop), `batch` (pop → batch dispatch),
//! `cache`/`encode`/`score`/`merge` (the scorer's pipeline; cache and
//! encode are batch-level intervals shared by every request in the batch),
//! and `reply` (response slot filled → caller woken). [`finish`] snapshots
//! the stage slots *before* reading the end-of-request clock, so the sum
//! of the reported stage micros can never exceed `total_us` — a property
//! the CI access-log validator asserts per line.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::{json_string, lock_tolerant};

/// Pipeline stages of one request, in lifecycle order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Admission queue wait: enqueue → batcher pop.
    Queue,
    /// Batch assembly: pop → the batch dispatching to the scorer.
    Batch,
    /// Representation-cache lookup (batch-level interval).
    Cache,
    /// Encoder forward over the batch's cache misses (batch-level).
    Encode,
    /// Catalog GEMM over the batch's representations (batch-level).
    Score,
    /// Per-row bounded-heap top-K over the scores (batch-level).
    Merge,
    /// Response slot filled → the waiting caller woke up.
    Reply,
}

/// Number of [`Stage`] variants.
pub const NUM_STAGES: usize = 7;

/// Stage key names, in [`Stage`] order, as they appear in access-log lines
/// and exemplar records (`"<name>_us"`).
pub const STAGE_NAMES: [&str; NUM_STAGES] = [
    "queue", "batch", "cache", "encode", "score", "merge", "reply",
];

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The per-request observability context. Shared `Arc` between the caller
/// and the queued request; all fields are written with relaxed atomics —
/// the response slot's mutex already orders scorer writes before the
/// caller's [`finish`] snapshot.
pub struct ReqCtx {
    id: u64,
    start: Instant,
    /// Trace-epoch nanoseconds at request start (for exemplar placement on
    /// the chrome-trace timeline).
    start_ns: u64,
    history_len: u64,
    k: u64,
    stage_ns: [AtomicU64; NUM_STAGES],
    /// Nanoseconds from `start` when the response slot was filled; 0 until
    /// then. The reply stage is derived as `end − filled`.
    filled_ns: AtomicU64,
    cache_hit: AtomicBool,
    batch: AtomicU64,
}

/// True when request contexts should be allocated: any of the access log,
/// the metrics registry (including a live [`crate::export`] endpoint, which
/// forces collection), or tracing is on. Three relaxed loads.
#[inline]
pub fn active() -> bool {
    access_log_enabled() || crate::enabled() || crate::trace_enabled()
}

impl ReqCtx {
    /// Allocates a context and assigns the next monotonic request id, or
    /// `None` (no allocation, no id burned) when observability is off.
    pub fn start(history_len: usize, k: usize) -> Option<Arc<ReqCtx>> {
        if !active() {
            return None;
        }
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Some(Arc::new(ReqCtx {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            start_ns: crate::trace::now_ns(),
            history_len: history_len as u64,
            k: k as u64,
            stage_ns: [ZERO; NUM_STAGES],
            filled_ns: AtomicU64::new(0),
            cache_hit: AtomicBool::new(false),
            batch: AtomicU64::new(0),
        }))
    }

    /// The request's monotonic trace id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Adds `dur` to a stage's accounted time.
    pub fn record(&self, stage: Stage, dur: Duration) {
        self.stage_ns[stage as usize].fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Marks the response slot as filled now; the reply stage measures from
    /// here to the caller's wake-up.
    pub fn mark_filled(&self) {
        self.filled_ns
            .store(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records how the batch the request rode in looked: whether its
    /// representation was a cache hit, and the coalesced batch size.
    pub fn set_batch_info(&self, cache_hit: bool, batch: usize) {
        self.cache_hit.store(cache_hit, Ordering::Relaxed);
        self.batch.store(batch as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Access log sink
// ---------------------------------------------------------------------------

const ACCESS_UNINIT: u8 = 0;
const ACCESS_OFF: u8 = 1;
const ACCESS_ON: u8 = 2;

static ACCESS_STATE: AtomicU8 = AtomicU8::new(ACCESS_UNINIT);

fn access_sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// True when finished requests append a line to the access log. One relaxed
/// load in steady state; first call resolves `IST_SERVE_ACCESS_LOG`.
#[inline]
pub fn access_log_enabled() -> bool {
    match ACCESS_STATE.load(Ordering::Relaxed) {
        ACCESS_ON => true,
        ACCESS_OFF => false,
        _ => init_access_from_env(),
    }
}

#[cold]
fn init_access_from_env() -> bool {
    let on = match std::env::var("IST_SERVE_ACCESS_LOG") {
        Ok(path) if !path.trim().is_empty() => match set_access_log_path(path.trim()) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("warning: IST_SERVE_ACCESS_LOG: {e}; access log disabled");
                false
            }
        },
        _ => false,
    };
    if !on {
        ACCESS_STATE.store(ACCESS_OFF, Ordering::Relaxed);
    }
    on
}

/// Opens (truncating) `path` as the access log and enables per-request
/// lines (the CLI's `--access-log`).
pub fn set_access_log_path(path: &str) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
    *lock_tolerant(access_sink()) = Some(Box::new(f));
    ACCESS_STATE.store(ACCESS_ON, Ordering::Relaxed);
    Ok(())
}

/// Redirects access-log lines to an arbitrary writer (tests).
pub fn set_access_log_writer(writer: Box<dyn Write + Send>) {
    *lock_tolerant(access_sink()) = Some(writer);
    ACCESS_STATE.store(ACCESS_ON, Ordering::Relaxed);
}

/// Disables the access log and drops the sink (tests restoring global
/// state).
pub fn disable_access_log() {
    *lock_tolerant(access_sink()) = None;
    ACCESS_STATE.store(ACCESS_OFF, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Finish: access line + exemplar reservoir
// ---------------------------------------------------------------------------

/// How many slowest-request exemplars the reservoir keeps.
pub const EXEMPLAR_CAP: usize = 8;

/// One fully-attributed slow request, kept by the reservoir and flushed
/// into the chrome trace and the serve report.
#[derive(Clone, Debug)]
pub struct Exemplar {
    /// Trace id.
    pub id: u64,
    /// End-to-end latency, microseconds.
    pub total_us: u64,
    /// Trace-epoch start, nanoseconds (timeline placement).
    pub start_ns: u64,
    /// Outcome tag: `"ok"` or a typed `ServeError` kind.
    pub outcome: &'static str,
    /// True when the degraded-mode fallback produced the answer.
    pub degraded: bool,
    /// Request shape: history length and requested k.
    pub history_len: u64,
    /// Requested top-K.
    pub k: u64,
    /// Whether the representation was served from cache.
    pub cache_hit: bool,
    /// Coalesced batch size the request rode in.
    pub batch: u64,
    /// Per-stage micros, [`STAGE_NAMES`] order.
    pub stage_us: [u64; NUM_STAGES],
}

fn reservoir() -> &'static Mutex<Vec<Exemplar>> {
    static RESERVOIR: OnceLock<Mutex<Vec<Exemplar>>> = OnceLock::new();
    RESERVOIR.get_or_init(|| Mutex::new(Vec::new()))
}

/// The current slowest-N exemplars, slowest first.
pub fn exemplars() -> Vec<Exemplar> {
    lock_tolerant(reservoir()).clone()
}

/// Clears the reservoir (tests; process-global like everything here).
pub fn reset_exemplars() {
    lock_tolerant(reservoir()).clear();
}

/// Closes out a request: derives the reply stage and total, appends one
/// access-log line (when enabled), and offers the request to the exemplar
/// reservoir. Call exactly once per request, caller-side, after the
/// response is decided — every outcome (ok or any typed error) takes this
/// path, so "one line per finished request" holds by construction.
pub fn finish(ctx: &ReqCtx, outcome: &'static str, degraded: bool) -> u64 {
    // Snapshot the stage slots and fill time *before* reading the end
    // clock: every snapshotted interval then ended before `end_ns`, which
    // bounds the reported stage sum by the reported total even if a
    // post-timeout scorer is still racing to record stages.
    let mut stage_us = [0u64; NUM_STAGES];
    for (us, slot) in stage_us.iter_mut().zip(&ctx.stage_ns) {
        *us = slot.load(Ordering::Relaxed) / 1_000;
    }
    let filled_ns = ctx.filled_ns.load(Ordering::Relaxed);
    let end_ns = ctx.start.elapsed().as_nanos() as u64;
    if filled_ns > 0 {
        stage_us[Stage::Reply as usize] = end_ns.saturating_sub(filled_ns) / 1_000;
    }
    let total_us = end_ns / 1_000;

    let cache_hit = ctx.cache_hit.load(Ordering::Relaxed);
    let batch = ctx.batch.load(Ordering::Relaxed);

    if access_log_enabled() {
        let mut line = format!(
            "{{\"req\":{},\"outcome\":{},\"degraded\":{degraded},\"hist\":{},\"k\":{},\
             \"cache_hit\":{cache_hit},\"batch\":{batch},\
             \"total_us\":{total_us}",
            ctx.id,
            json_string(outcome),
            ctx.history_len,
            ctx.k,
        );
        for (name, us) in STAGE_NAMES.iter().zip(&stage_us) {
            line.push_str(&format!(",\"{name}_us\":{us}"));
        }
        line.push('}');
        if let Some(w) = &mut *lock_tolerant(access_sink()) {
            // Log write failures must never take serving down.
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }

    offer_exemplar(Exemplar {
        id: ctx.id,
        total_us,
        start_ns: ctx.start_ns,
        outcome,
        degraded,
        history_len: ctx.history_len,
        k: ctx.k,
        cache_hit,
        batch,
        stage_us,
    });
    total_us
}

fn offer_exemplar(e: Exemplar) {
    let mut res = lock_tolerant(reservoir());
    if res.len() >= EXEMPLAR_CAP {
        // Reservoir full: replace the fastest kept exemplar if this one is
        // slower (ids break ties so churn stays deterministic).
        let (fastest, _) = res
            .iter()
            .enumerate()
            .min_by_key(|(_, x)| (x.total_us, u64::MAX - x.id))
            .expect("non-empty reservoir");
        if res[fastest].total_us >= e.total_us {
            return;
        }
        res[fastest] = e;
    } else {
        res.push(e);
    }
    res.sort_by_key(|x| (u64::MAX - x.total_us, x.id));
}

/// Renders the reservoir as chrome-trace `"X"` (complete) events on a
/// dedicated track, for [`crate::trace::export_json`]. Empty when no
/// requests finished.
pub(crate) fn exemplar_trace_events() -> Vec<String> {
    let res = lock_tolerant(reservoir());
    if res.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(res.len() + 1);
    out.push(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"slow-request exemplars\"}}"
            .to_string(),
    );
    for e in res.iter() {
        let mut args = format!(
            "{{\"req\":{},\"outcome\":{},\"degraded\":{},\"hist\":{},\"k\":{},\
             \"cache_hit\":{},\"batch\":{}",
            e.id,
            json_string(e.outcome),
            e.degraded,
            e.history_len,
            e.k,
            e.cache_hit,
            e.batch
        );
        for (name, us) in STAGE_NAMES.iter().zip(&e.stage_us) {
            args.push_str(&format!(",\"{name}_us\":{us}"));
        }
        args.push('}');
        out.push(format!(
            "{{\"name\":\"serve.exemplar\",\"cat\":\"exemplar\",\"ph\":\"X\",\"ts\":{:.3},\
             \"dur\":{},\"pid\":1,\"tid\":0,\"args\":{args}}}",
            e.start_ns as f64 / 1_000.0,
            e.total_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_start_allocates_nothing() {
        // Off is the default in unit tests; ensure the access env var is
        // not consulted repeatedly by forcing the resolved state.
        let _guard = crate::test_mode_lock();
        crate::set_mode(crate::Mode::Off);
        disable_access_log();
        crate::trace::set_enabled(false);
        assert!(ReqCtx::start(5, 10).is_none());
    }

    #[test]
    fn finish_emits_one_parseable_line_with_bounded_stage_sum() {
        let _guard = crate::test_mode_lock();
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                lock_tolerant(&self.0).extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        set_access_log_writer(Box::new(buf.clone()));
        reset_exemplars();

        let ctx = ReqCtx::start(6, 10).expect("access log on → ctx active");
        // Record *real* sub-intervals so the stage-sum ≤ total invariant is
        // meaningful, exactly as the engine does.
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        ctx.record(Stage::Queue, t0.elapsed());
        let t1 = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        ctx.record(Stage::Score, t1.elapsed());
        ctx.set_batch_info(true, 4);
        ctx.mark_filled();
        let total = finish(&ctx, "ok", false);

        let text = String::from_utf8(lock_tolerant(&buf.0).clone()).unwrap();
        let recs = crate::schema::access_log(&text).unwrap();
        let r = &recs[0];
        assert_eq!((recs.len(), r.req, r.outcome.as_str()), (1, ctx.id(), "ok"));
        assert_eq!((r.cache_hit, r.batch), (true, 4));
        assert!(text.contains("\"hist\":6"), "{text}");
        // Recorded stage micros cannot exceed the request's total.
        let ex = exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].total_us, total);
        assert!(ex[0].stage_us.iter().sum::<u64>() <= total);
        assert!(ex[0].stage_us[Stage::Queue as usize] >= 2_000);
        disable_access_log();
    }

    #[test]
    fn reservoir_keeps_the_slowest_n() {
        let _guard = crate::test_mode_lock();
        reset_exemplars();
        for i in 0..(EXEMPLAR_CAP as u64 + 20) {
            offer_exemplar(Exemplar {
                id: i,
                total_us: i * 10,
                start_ns: 0,
                outcome: "ok",
                degraded: false,
                history_len: 1,
                k: 1,
                cache_hit: false,
                batch: 1,
                stage_us: [0; NUM_STAGES],
            });
        }
        let ex = exemplars();
        assert_eq!(ex.len(), EXEMPLAR_CAP);
        // Slowest first, and only the slowest CAP survive.
        assert!(ex.windows(2).all(|w| w[0].total_us >= w[1].total_us));
        assert_eq!(ex[0].total_us, (EXEMPLAR_CAP as u64 + 19) * 10);
        assert_eq!(ex.last().unwrap().total_us, 200);
        reset_exemplars();
    }
}
