//! Chrome-trace timeline recording.
//!
//! A bounded in-memory ring of scope records (one record = one begin/end
//! pair), exported as **Chrome Trace Event Format** JSON — load the file in
//! `chrome://tracing` or <https://ui.perfetto.dev> to see the run as a
//! per-thread timeline.
//!
//! ## Cost model
//!
//! Tracing follows the same contract as the metrics layer: **off by
//! default**, and the disabled path of every probe ([`scope`] /
//! [`scope_cat`]) is a single relaxed atomic load plus a branch — no clock
//! read, no allocation, no locking. Enable it with `IST_TRACE=<path>` (the
//! trace is written there on [`flush`], which [`crate::flush`] calls) or
//! programmatically with [`set_trace_path`] / [`set_enabled`]. Tracing is
//! independent of `IST_METRICS`: either can be on without the other.
//!
//! ## Ring-buffer semantics
//!
//! Records live in a ring bounded by `IST_TRACE_CAP` (default 65 536
//! records ≈ a few MB). When full, the **oldest record is dropped** — a
//! long run keeps its most recent window rather than growing without
//! bound. Because one record holds both timestamps of a scope, eviction
//! can never orphan a `B` without its `E`: pairing survives drop-oldest by
//! construction. The number of evicted records is reported in the exported
//! file as a `trace.dropped` instant event.
//!
//! ## Timestamps
//!
//! All timestamps are nanoseconds from a process-wide monotonic epoch (the
//! first probe), exported as fractional microseconds. A monotonic clock —
//! not wall time — is the only clock that is safe to subtract across
//! threads and immune to NTP steps mid-run; trace viewers only need
//! relative placement anyway.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::{json_string, lock_tolerant};

const TRACE_UNINIT: u8 = 0;
const TRACE_OFF: u8 = 1;
const TRACE_ON: u8 = 2;

static TRACE_STATE: AtomicU8 = AtomicU8::new(TRACE_UNINIT);

/// Default ring capacity in records (override with `IST_TRACE_CAP`).
const DEFAULT_CAP: usize = 65_536;

/// One completed scope: both endpoints of a `B`/`E` pair.
struct Rec {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
    tid: u32,
    depth: u32,
}

struct Ring {
    recs: VecDeque<Rec>,
    cap: usize,
    dropped: u64,
}

struct TraceShared {
    ring: Ring,
    /// Output path for [`flush`]; `None` = in-memory only (tests).
    path: Option<String>,
    /// Registered `(tid, thread name)` pairs for metadata events.
    threads: Vec<(u32, String)>,
}

fn shared() -> &'static Mutex<TraceShared> {
    static SHARED: OnceLock<Mutex<TraceShared>> = OnceLock::new();
    SHARED.get_or_init(|| {
        // A malformed (or zero) cap warns once and falls back, rather than
        // silently shrinking or disabling the ring.
        let cap = crate::env::positive_usize_or("IST_TRACE_CAP", DEFAULT_CAP);
        Mutex::new(TraceShared {
            ring: Ring {
                recs: VecDeque::new(),
                cap,
                dropped: 0,
            },
            path: None,
            threads: Vec::new(),
        })
    })
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (shared with
/// [`crate::reqctx`] so exemplars land on the same timeline).
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// True when trace recording is active. The steady-state disabled path is
/// one relaxed atomic load plus a compare.
#[inline]
pub fn trace_enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        TRACE_ON => true,
        TRACE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let path = crate::env::value("IST_TRACE");
    let on = path.is_some();
    if on {
        lock_tolerant(shared()).path = path;
    }
    TRACE_STATE.store(if on { TRACE_ON } else { TRACE_OFF }, Ordering::Relaxed);
    on
}

/// Enables tracing and directs [`flush`] to write the trace to `path`
/// (the CLI's `--trace-out`).
pub fn set_trace_path(path: &str) {
    lock_tolerant(shared()).path = Some(path.to_string());
    TRACE_STATE.store(TRACE_ON, Ordering::Relaxed);
}

/// Enables or disables recording without touching the output path
/// (tests / in-memory capture via [`export_json`]).
pub fn set_enabled(on: bool) {
    TRACE_STATE.store(if on { TRACE_ON } else { TRACE_OFF }, Ordering::Relaxed);
}

// Per-thread trace identity: a small dense tid plus the current scope
// nesting depth (used only to order same-timestamp events on export).
std::thread_local! {
    static THREAD_TID: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
    static THREAD_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

fn thread_tid() -> u32 {
    THREAD_TID.with(|t| {
        let cur = t.get();
        if cur != u32::MAX {
            return cur;
        }
        let mut sh = lock_tolerant(shared());
        let tid = sh.threads.len() as u32 + 1;
        let name = std::thread::current()
            .name()
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("thread-{tid}"));
        sh.threads.push((tid, name));
        t.set(tid);
        tid
    })
}

/// RAII trace scope: records one ring entry (a `B`/`E` pair) on drop.
/// Inert — holding no clock reading at all — when tracing is off.
pub struct TraceScope(Option<ScopeInner>);

struct ScopeInner {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    tid: u32,
    depth: u32,
}

/// Opens a scope in the default category.
#[inline]
pub fn scope(name: &'static str) -> TraceScope {
    scope_cat(name, "scope")
}

/// Opens a scope with an explicit category (shown as the event colour
/// grouping in trace viewers).
#[inline]
pub fn scope_cat(name: &'static str, cat: &'static str) -> TraceScope {
    if !trace_enabled() {
        return TraceScope(None);
    }
    let tid = thread_tid();
    let depth = THREAD_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    TraceScope(Some(ScopeInner {
        name,
        cat,
        start_ns: now_ns(),
        tid,
        depth,
    }))
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(inner.start_ns);
        THREAD_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let mut sh = lock_tolerant(shared());
        let ring = &mut sh.ring;
        if ring.recs.len() >= ring.cap {
            ring.recs.pop_front();
            ring.dropped += 1;
        }
        ring.recs.push_back(Rec {
            name: inner.name,
            cat: inner.cat,
            start_ns: inner.start_ns,
            dur_ns,
            tid: inner.tid,
            depth: inner.depth,
        });
    }
}

/// `(records currently buffered, records evicted so far)` — test hook.
pub fn record_counts() -> (usize, u64) {
    let sh = lock_tolerant(shared());
    (sh.ring.recs.len(), sh.ring.dropped)
}

/// Discards all buffered records, eviction counts and thread registrations
/// (tests). Does not change the enabled state or output path.
pub fn reset() {
    let mut sh = lock_tolerant(shared());
    sh.ring.recs.clear();
    sh.ring.dropped = 0;
    sh.threads.clear();
    THREAD_TID.with(|t| t.set(u32::MAX));
    THREAD_DEPTH.with(|d| d.set(0));
}

/// Renders every buffered record as a Chrome Trace Event Format JSON array:
/// metadata (`"ph":"M"`) events naming the process and each thread, then
/// time-ordered `"B"`/`"E"` duration events.
///
/// Records are captured on scope *drop*, so a child scope lands in the ring
/// before its parent; export restores viewer-required stream order by
/// sorting on `(timestamp, phase rank)` where a `B` ranks by depth and an
/// `E` by reverse depth — at equal timestamps parents open before children
/// and children close before parents.
pub fn export_json() -> String {
    let sh = lock_tolerant(shared());
    let mut out = String::from("[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"isrec\"}}",
    );
    for (tid, name) in &sh.threads {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_string(name)
        ));
    }
    if sh.ring.dropped > 0 {
        out.push_str(&format!(
            ",\n{{\"name\":\"trace.dropped\",\"ph\":\"I\",\"ts\":0,\"pid\":1,\"tid\":0,\
             \"s\":\"g\",\"args\":{{\"count\":{}}}}}",
            sh.ring.dropped
        ));
    }
    // Slow-request exemplars render as "X" (complete) events on their own
    // track, with the full per-stage breakdown in args.
    for ev in crate::reqctx::exemplar_trace_events() {
        out.push_str(",\n");
        out.push_str(&ev);
    }
    // (timestamp ns, phase rank, record index, is_begin); see doc above.
    let mut events: Vec<(u64, u32, usize, bool)> = Vec::with_capacity(sh.ring.recs.len() * 2);
    for (i, r) in sh.ring.recs.iter().enumerate() {
        events.push((r.start_ns, r.depth, i, true));
        events.push((r.start_ns + r.dur_ns, u32::MAX - r.depth, i, false));
    }
    events.sort_by_key(|&(ts, rank, _, _)| (ts, rank));
    for (ts_ns, _, i, is_begin) in events {
        let r = &sh.ring.recs[i];
        out.push_str(&format!(
            ",\n{{\"name\":{},\"cat\":{},\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}}}",
            json_string(r.name),
            json_string(r.cat),
            if is_begin { 'B' } else { 'E' },
            ts_ns as f64 / 1_000.0,
            r.tid
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Writes the buffered trace to the configured path (`IST_TRACE` /
/// [`set_trace_path`]), if tracing is on, a path is set, and anything was
/// recorded. Failures are reported on stderr but never panic — profiling
/// must not take the run down. Called by [`crate::flush`].
pub fn flush() {
    if !trace_enabled() {
        return;
    }
    let path = match &lock_tolerant(shared()).path {
        Some(p) => p.clone(),
        None => return,
    };
    if record_counts().0 == 0 {
        return;
    }
    let json = export_json();
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: cannot write trace to {path:?}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scope_is_inert() {
        let _guard = crate::test_mode_lock();
        set_enabled(false);
        let s = scope("test.inert");
        assert!(s.0.is_none());
    }

    #[test]
    fn ring_drops_oldest_in_whole_records() {
        let _guard = crate::test_mode_lock();
        set_enabled(true);
        reset();
        {
            let mut sh = lock_tolerant(shared());
            sh.ring.cap = 4;
        }
        for _ in 0..10 {
            let _s = scope("test.ring");
        }
        let (len, dropped) = record_counts();
        assert_eq!(len, 4);
        assert_eq!(dropped, 6);
        // Every surviving record still expands to a B and a matching E.
        let json = export_json();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 4);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 4);
        {
            let mut sh = lock_tolerant(shared());
            sh.ring.cap = DEFAULT_CAP;
        }
        reset();
        set_enabled(false);
    }
}
