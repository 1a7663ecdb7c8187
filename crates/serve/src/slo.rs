//! Rolling-window SLO monitor: live p99 and error rate against configured
//! targets, surfaced as burn-rate gauges in `/metrics`, in `/healthz`, and
//! in the serve report.
//!
//! The targets come from `IST_SERVE_SLO_MS` (p99 latency target, default
//! 100ms) and `IST_SERVE_SLO_ERR_PCT` (error-rate target, default 1.0%),
//! evaluated over a ring of the last `IST_SERVE_SLO_WINDOW` (default 1024)
//! finished requests — every outcome counts, typed errors as failures.
//! A *burn rate* is observed/target: `latency_burn = p99 / slo`,
//! `error_burn = error_rate / target_rate`; above 1.0 the budget is
//! burning faster than the target allows and [`SloSnapshot::breached`]
//! flips. Burn rates export as milli-unit gauges
//! (`serve.slo_latency_burn_milli` = 1000 × burn) because the registry's
//! gauges are integers.
//!
//! Observation is gated on the same activation as the rest of the
//! request-level observability ([`ist_obs::reqctx::active`], checked once
//! at engine start): a fully dark process pays one relaxed load per
//! request and never touches the ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ist_obs::env as obs_env;

/// Live p99 over the rolling window, microseconds.
static SLO_P99_US: ist_obs::Gauge = ist_obs::Gauge::new("serve.slo_p99_us");
/// 1000 × (rolling p99 / latency target).
static SLO_LATENCY_BURN: ist_obs::Gauge = ist_obs::Gauge::new("serve.slo_latency_burn_milli");
/// 1000 × (rolling error rate / error-rate target).
static SLO_ERROR_BURN: ist_obs::Gauge = ist_obs::Gauge::new("serve.slo_error_burn_milli");
/// 1 while either burn rate exceeds 1.0, else 0.
static SLO_BREACHED: ist_obs::Gauge = ist_obs::Gauge::new("serve.slo_breached");

/// SLO targets and window size; [`SloConfig::from_env`] reads the
/// `IST_SERVE_SLO_*` environment.
#[derive(Clone, Debug)]
pub struct SloConfig {
    /// p99 latency target, milliseconds (`IST_SERVE_SLO_MS`, default 100).
    pub slo_ms: u64,
    /// Error-rate target, percent (`IST_SERVE_SLO_ERR_PCT`, default 1.0).
    pub err_pct: f64,
    /// Rolling-window size in requests (`IST_SERVE_SLO_WINDOW`,
    /// default 1024, minimum 1).
    pub window: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            slo_ms: 100,
            err_pct: 1.0,
            window: 1024,
        }
    }
}

impl SloConfig {
    /// Reads `IST_SERVE_SLO_MS`, `IST_SERVE_SLO_ERR_PCT` and
    /// `IST_SERVE_SLO_WINDOW` (malformed values warn once and fall back).
    pub fn from_env() -> SloConfig {
        let d = SloConfig::default();
        SloConfig {
            slo_ms: obs_env::u64_or("IST_SERVE_SLO_MS", d.slo_ms).max(1),
            err_pct: obs_env::f64_or("IST_SERVE_SLO_ERR_PCT", d.err_pct).max(0.0),
            window: obs_env::positive_usize_or("IST_SERVE_SLO_WINDOW", d.window),
        }
    }
}

/// A point-in-time evaluation of the window against the targets.
#[derive(Clone, Debug, Default)]
pub struct SloSnapshot {
    /// True when the monitor was observing (any observability enabled at
    /// engine start); a default/dark snapshot reports all zeros.
    pub active: bool,
    /// Latency target, milliseconds.
    pub target_ms: u64,
    /// Error-rate target, percent.
    pub target_err_pct: f64,
    /// Requests currently in the window.
    pub window: usize,
    /// Requests observed over the engine's lifetime.
    pub total_observed: u64,
    /// p99 latency over the window, microseconds.
    pub p99_us: u64,
    /// Error rate over the window, percent.
    pub error_pct: f64,
    /// p99 / target (1.0 = exactly on target).
    pub latency_burn: f64,
    /// error rate / target rate.
    pub error_burn: f64,
    /// True when either burn rate exceeds 1.0.
    pub breached: bool,
}

impl SloSnapshot {
    /// Renders the snapshot as a JSON object (the serve report's `slo`
    /// block and `/healthz`'s `slo` field share this shape).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"active\":{},\"target_ms\":{},\"target_err_pct\":{:.3},\"window\":{},\
             \"total_observed\":{},\"p99_us\":{},\"error_pct\":{:.4},\
             \"latency_burn\":{:.4},\"error_burn\":{:.4},\"breached\":{}}}",
            self.active,
            self.target_ms,
            self.target_err_pct,
            self.window,
            self.total_observed,
            self.p99_us,
            self.error_pct,
            self.latency_burn,
            self.error_burn,
            self.breached
        )
    }
}

struct Ring {
    /// `(latency_us, ok)` per finished request, oldest first.
    samples: VecDeque<(u64, bool)>,
    total_observed: u64,
}

pub(crate) struct SloState {
    cfg: SloConfig,
    ring: Mutex<Ring>,
    active: AtomicBool,
}

/// The per-engine SLO monitor. Cheap to clone (shared state).
#[derive(Clone)]
pub struct SloMonitor {
    state: Arc<SloState>,
}

impl SloMonitor {
    /// Builds a monitor with explicit targets (inactive until
    /// [`SloMonitor::set_active`]).
    pub fn new(cfg: SloConfig) -> SloMonitor {
        SloMonitor {
            state: Arc::new(SloState {
                cfg,
                ring: Mutex::new(Ring {
                    samples: VecDeque::new(),
                    total_observed: 0,
                }),
                active: AtomicBool::new(false),
            }),
        }
    }

    /// Enables or disables observation. The engine sets this once at
    /// start from the global observability activation.
    pub fn set_active(&self, on: bool) {
        self.state.active.store(on, Ordering::Relaxed);
    }

    /// Feeds one finished request. One relaxed load when inactive.
    #[inline]
    pub fn observe(&self, latency_us: u64, ok: bool) {
        if !self.state.active.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = self.state.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.total_observed += 1;
        if ring.samples.len() >= self.state.cfg.window {
            ring.samples.pop_front();
        }
        ring.samples.push_back((latency_us, ok));
    }

    /// Evaluates the current window against the targets.
    pub fn snapshot(&self) -> SloSnapshot {
        snapshot_state(&self.state)
    }
}

fn snapshot_state(state: &SloState) -> SloSnapshot {
    let cfg = &state.cfg;
    let ring = state.ring.lock().unwrap_or_else(|p| p.into_inner());
    let n = ring.samples.len();
    let mut snap = SloSnapshot {
        active: state.active.load(Ordering::Relaxed),
        target_ms: cfg.slo_ms,
        target_err_pct: cfg.err_pct,
        window: n,
        total_observed: ring.total_observed,
        ..SloSnapshot::default()
    };
    if n == 0 {
        return snap;
    }
    let mut lats: Vec<u64> = ring.samples.iter().map(|&(us, _)| us).collect();
    let errors = ring.samples.iter().filter(|&&(_, ok)| !ok).count();
    drop(ring);
    lats.sort_unstable();
    let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
    snap.p99_us = lats[rank - 1];
    snap.error_pct = errors as f64 / n as f64 * 100.0;
    snap.latency_burn = snap.p99_us as f64 / (cfg.slo_ms as f64 * 1_000.0);
    // A zero error target means any error at all is a breach.
    snap.error_burn = if cfg.err_pct > 0.0 {
        snap.error_pct / cfg.err_pct
    } else if errors > 0 {
        f64::INFINITY
    } else {
        0.0
    };
    snap.breached = snap.latency_burn > 1.0 || snap.error_burn > 1.0;
    snap
}

// ---------------------------------------------------------------------------
// Global wiring: the flush hook reads whichever engine installed last
// ---------------------------------------------------------------------------

fn current() -> &'static Mutex<Option<Arc<SloState>>> {
    static CURRENT: OnceLock<Mutex<Option<Arc<SloState>>>> = OnceLock::new();
    CURRENT.get_or_init(|| Mutex::new(None))
}

fn sync_gauges() {
    // Clone the Arc out and release the `current()` guard before taking
    // the ring lock, keeping the lock order trivial.
    let state = {
        let cur = current().lock().unwrap_or_else(|p| p.into_inner());
        cur.as_ref().map(Arc::clone)
    };
    let Some(state) = state else { return };
    let snap = snapshot_state(&state);
    SLO_P99_US.set(snap.p99_us);
    SLO_LATENCY_BURN.set((snap.latency_burn * 1_000.0) as u64);
    SLO_ERROR_BURN.set(if snap.error_burn.is_finite() {
        (snap.error_burn * 1_000.0) as u64
    } else {
        u64::MAX
    });
    SLO_BREACHED.set(u64::from(snap.breached));
}

/// Makes `monitor` the process-wide source for the SLO gauges and
/// registers the flush hook (idempotent).
pub(crate) fn install(monitor: &SloMonitor) {
    ist_obs::register_flush_hook(ist_obs::FlushHook {
        name: "serve.slo",
        collect: |_| sync_gauges(),
        reset: || {},
    });
    *current().lock().unwrap_or_else(|p| p.into_inner()) = Some(Arc::clone(&monitor.state));
}

/// Detaches `monitor` from the gauges if it is still the installed source.
pub(crate) fn uninstall(monitor: &SloMonitor) {
    let mut cur = current().lock().unwrap_or_else(|p| p.into_inner());
    if cur.as_ref().is_some_and(|s| Arc::ptr_eq(s, &monitor.state)) {
        *cur = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon(cfg: SloConfig) -> SloMonitor {
        let m = SloMonitor::new(cfg);
        m.set_active(true);
        m
    }

    #[test]
    fn inactive_monitor_observes_nothing() {
        let m = SloMonitor::new(SloConfig::default());
        m.observe(1_000, true);
        let s = m.snapshot();
        assert!(!s.active);
        assert_eq!(s.window, 0);
        assert_eq!(s.total_observed, 0);
    }

    #[test]
    fn p99_and_error_rate_track_the_window() {
        let m = mon(SloConfig {
            slo_ms: 10,
            err_pct: 5.0,
            window: 100,
        });
        // 99 fast successes + 1 slow failure: p99 lands on the tail.
        for _ in 0..99 {
            m.observe(1_000, true);
        }
        m.observe(50_000, false);
        let s = m.snapshot();
        assert_eq!(s.window, 100);
        assert_eq!(s.p99_us, 1_000, "p99 of 99×1ms + 1×50ms is 1ms");
        assert!((s.error_pct - 1.0).abs() < 1e-9);
        assert!(s.latency_burn < 1.0);
        assert!(s.error_burn < 1.0);
        assert!(!s.breached);
    }

    #[test]
    fn breach_flips_on_either_burn_rate() {
        let lat = mon(SloConfig {
            slo_ms: 1,
            err_pct: 50.0,
            window: 10,
        });
        for _ in 0..10 {
            lat.observe(5_000, true); // 5ms vs a 1ms target
        }
        let s = lat.snapshot();
        assert!(s.latency_burn > 1.0);
        assert!(s.breached);

        let err = mon(SloConfig {
            slo_ms: 1_000,
            err_pct: 1.0,
            window: 10,
        });
        for i in 0..10 {
            err.observe(100, i % 2 == 0); // 50% errors vs a 1% target
        }
        let s = err.snapshot();
        assert!(s.error_burn > 1.0);
        assert!(s.breached);
    }

    #[test]
    fn window_evicts_oldest() {
        let m = mon(SloConfig {
            slo_ms: 100,
            err_pct: 1.0,
            window: 4,
        });
        for _ in 0..4 {
            m.observe(10, false);
        }
        for _ in 0..4 {
            m.observe(10, true);
        }
        let s = m.snapshot();
        assert_eq!(s.window, 4);
        assert_eq!(s.total_observed, 8);
        assert_eq!(s.error_pct, 0.0, "old failures must age out");
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = mon(SloConfig::default());
        m.observe(500, true);
        let json = m.snapshot().to_json();
        assert!(json.starts_with("{\"active\":true"));
        assert!(json.contains("\"p99_us\":500"));
        assert!(json.contains("\"breached\":false"));
        assert!(json.ends_with('}'));
    }
}
