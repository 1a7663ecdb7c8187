//! Autograd op profiler: attributes forward/backward wall time and
//! output-tensor bytes to each op kind.
//!
//! Every op in [`crate::ops`] / [`crate::fused`] opens an [`OpGuard`] on
//! entry; [`crate::Tape::backward`] opens one per node around its backward
//! rule. Guards record into a per-op table that an `ist-obs` flush hook
//! adds to every snapshot as timer rows, so every sink (JSON lines, the
//! summary table, `/metrics`) shows them: one `autograd.op.<kind>` row per
//! op kind, and an `autograd.coverage` row relating attributed time to the
//! enclosing forward/backward windows (the trainer opens the forward
//! window, the tape sweep the backward one).
//!
//! ## Attribution rules
//!
//! * Only the *outermost* forward guard on a thread records: composite ops
//!   (`mean_all` delegating to `sum_all` + `scale`) attribute their whole
//!   cost to the composite, never double-counting.
//! * A thread-local op-name stack is maintained even when profiling is off
//!   (a few ns per op, no atomics) so every tape node always knows its op
//!   kind — [`crate::Tape::to_dot`] labels nodes from it.
//! * Timing/byte recording is gated like every other probe: inert but for
//!   two relaxed atomic loads unless `IST_METRICS` or `IST_TRACE` is set.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ist_obs::{Field, FlushHook, Snapshot, TimerRow};

/// Aggregate stats for one op kind.
#[derive(Default, Clone, Copy)]
pub struct OpStat {
    /// Forward wall time (outermost guards only).
    pub fwd_ns: u64,
    /// Forward calls recorded.
    pub fwd_count: u64,
    /// Backward wall time (per-node rule + gradient accumulation).
    pub bwd_ns: u64,
    /// Backward invocations recorded.
    pub bwd_count: u64,
    /// Bytes of output tensors produced by this op kind.
    pub out_bytes: u64,
}

static FWD_WINDOW_NS: AtomicU64 = AtomicU64::new(0);
static BWD_WINDOW_NS: AtomicU64 = AtomicU64::new(0);
static WINDOWS: AtomicU64 = AtomicU64::new(0);
static HOOKED: AtomicBool = AtomicBool::new(false);

fn stats() -> &'static Mutex<BTreeMap<&'static str, OpStat>> {
    static STATS: OnceLock<Mutex<BTreeMap<&'static str, OpStat>>> = OnceLock::new();
    STATS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock_stats() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, OpStat>> {
    stats()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

std::thread_local! {
    /// Innermost-first stack of active forward ops (always maintained).
    static OP_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// True when any profiling sink (metrics or trace) is active.
#[inline]
pub(crate) fn on() -> bool {
    ist_obs::enabled() || ist_obs::trace_enabled()
}

/// The op currently being recorded on this thread (`"op"` outside any
/// guard) — [`crate::Tape::push`] tags nodes with it.
pub(crate) fn current_op() -> &'static str {
    OP_STACK.with(|s| s.borrow().last().copied().unwrap_or("op"))
}

fn ensure_hooked() {
    if !HOOKED.swap(true, Ordering::Relaxed) {
        ist_obs::register_flush_hook(FlushHook {
            name: "autograd.profile",
            collect,
            reset,
        });
    }
}

/// RAII guard for one forward op invocation. Also opens a trace scope so
/// the op appears in the chrome-trace timeline.
pub struct OpGuard {
    pops_stack: bool,
    rec: Option<(&'static str, Instant, bool)>, // (op, start, is_backward)
    _trace: ist_obs::TraceScope,
}

/// Opens a forward-op guard; call at the top of every op function, and of
/// composites built outside this crate whose own work (such as sampling a
/// dropout mask) would otherwise run outside every op.
#[inline]
pub fn fwd(op: &'static str) -> OpGuard {
    let depth = OP_STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(op);
        s.len()
    });
    if !on() {
        return OpGuard {
            pops_stack: true,
            rec: None,
            _trace: ist_obs::trace::scope_cat(op, "autograd"),
        };
    }
    OpGuard {
        pops_stack: true,
        // Outermost only: nested (composite) calls are part of the outer op.
        rec: (depth == 1).then(|| (op, Instant::now(), false)),
        _trace: ist_obs::trace::scope_cat(op, "autograd"),
    }
}

/// Opens a backward guard for one tape node (the reverse sweep calls this
/// per node around rule execution + gradient accumulation).
#[inline]
pub(crate) fn bwd(op: &'static str) -> OpGuard {
    if !on() {
        return OpGuard {
            pops_stack: false,
            rec: None,
            _trace: ist_obs::trace::scope_cat(op, "autograd.bwd"),
        };
    }
    OpGuard {
        pops_stack: false,
        rec: Some((op, Instant::now(), true)),
        _trace: ist_obs::trace::scope_cat(op, "autograd.bwd"),
    }
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        if self.pops_stack {
            OP_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
        if let Some((op, start, is_bwd)) = self.rec.take() {
            let ns = start.elapsed().as_nanos() as u64;
            ensure_hooked();
            let mut map = lock_stats();
            let stat = map.entry(op).or_default();
            if is_bwd {
                stat.bwd_ns += ns;
                stat.bwd_count += 1;
            } else {
                stat.fwd_ns += ns;
                stat.fwd_count += 1;
            }
        }
    }
}

/// Records the output-tensor size of a freshly pushed node.
#[inline]
pub(crate) fn note_output(op: &'static str, bytes: u64) {
    if !on() {
        return;
    }
    ensure_hooked();
    lock_stats().entry(op).or_default().out_bytes += bytes;
}

/// Which window a [`WindowGuard`] accumulates into.
enum Window {
    Forward,
    Backward,
}

/// RAII window over a whole forward (or backward) pass; attributed op time
/// is reported as a fraction of the window total (`autograd.coverage`).
pub struct WindowGuard {
    start: Option<(Instant, Window)>,
}

/// Opens the forward window — the trainer wraps each step's forward + loss
/// construction in this.
pub fn forward_window() -> WindowGuard {
    WindowGuard {
        start: on().then(|| (Instant::now(), Window::Forward)),
    }
}

pub(crate) fn backward_window() -> WindowGuard {
    WindowGuard {
        start: on().then(|| (Instant::now(), Window::Backward)),
    }
}

impl Drop for WindowGuard {
    fn drop(&mut self) {
        if let Some((start, window)) = self.start.take() {
            let ns = start.elapsed().as_nanos() as u64;
            ensure_hooked();
            WINDOWS.fetch_add(1, Ordering::Relaxed);
            match window {
                Window::Forward => FWD_WINDOW_NS.fetch_add(ns, Ordering::Relaxed),
                Window::Backward => BWD_WINDOW_NS.fetch_add(ns, Ordering::Relaxed),
            };
        }
    }
}

/// Attribution totals (test hook + coverage reporting).
#[derive(Default, Clone, Copy)]
pub struct Totals {
    /// Op-attributed forward nanoseconds.
    pub attributed_fwd_ns: u64,
    /// Op-attributed backward nanoseconds.
    pub attributed_bwd_ns: u64,
    /// Wall time inside [`forward_window`] guards.
    pub fwd_window_ns: u64,
    /// Wall time inside the tape's backward sweeps.
    pub bwd_window_ns: u64,
}

impl Totals {
    /// Fraction of window time attributed to named ops (1.0 when no window
    /// has been recorded).
    pub fn coverage(&self) -> f64 {
        let window = self.fwd_window_ns + self.bwd_window_ns;
        if window == 0 {
            return 1.0;
        }
        (self.attributed_fwd_ns + self.attributed_bwd_ns) as f64 / window as f64
    }
}

/// Current attribution totals.
pub fn totals() -> Totals {
    let map = lock_stats();
    let mut t = Totals {
        fwd_window_ns: FWD_WINDOW_NS.load(Ordering::Relaxed),
        bwd_window_ns: BWD_WINDOW_NS.load(Ordering::Relaxed),
        ..Totals::default()
    };
    for s in map.values() {
        t.attributed_fwd_ns += s.fwd_ns;
        t.attributed_bwd_ns += s.bwd_ns;
    }
    t
}

/// Snapshot of per-op stats, sorted by total (fwd+bwd) time, descending.
pub fn op_table() -> Vec<(&'static str, OpStat)> {
    let map = lock_stats();
    let mut rows: Vec<(&'static str, OpStat)> = map.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.fwd_ns + s.bwd_ns));
    rows
}

fn reset() {
    lock_stats().clear();
    FWD_WINDOW_NS.store(0, Ordering::Relaxed);
    BWD_WINDOW_NS.store(0, Ordering::Relaxed);
    WINDOWS.store(0, Ordering::Relaxed);
}

/// Adds one timer row per op kind (calls and time over forward and
/// backward, with the split and the output bytes as fields) and the
/// `autograd.coverage` row (attributed time over the recorded windows).
fn collect(snap: &mut Snapshot) {
    for (op, s) in op_table() {
        snap.timers.push(TimerRow {
            name: format!("autograd.op.{op}"),
            count: s.fwd_count + s.bwd_count,
            total_ns: s.fwd_ns + s.bwd_ns,
            fields: vec![
                ("fwd_us", Field::U64(s.fwd_ns / 1_000)),
                ("fwd_count", Field::U64(s.fwd_count)),
                ("bwd_us", Field::U64(s.bwd_ns / 1_000)),
                ("bwd_count", Field::U64(s.bwd_count)),
                ("out_bytes", Field::U64(s.out_bytes)),
            ],
            ..TimerRow::default()
        });
    }
    let t = totals();
    snap.timers.push(TimerRow {
        name: "autograd.coverage".into(),
        count: WINDOWS.load(Ordering::Relaxed),
        total_ns: t.attributed_fwd_ns + t.attributed_bwd_ns,
        fields: vec![
            (
                "window_us",
                Field::U64((t.fwd_window_ns + t.bwd_window_ns) / 1_000),
            ),
            ("coverage", Field::F64(t.coverage())),
        ],
        ..TimerRow::default()
    });
}
