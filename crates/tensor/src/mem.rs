//! Tensor memory accounting.
//!
//! Every tensor buffer reports its size here once when it is created (or
//! copied by a copy-on-write) and once when its last holder drops it, so
//! tensors that share a buffer count it once. That gives live/peak tensor
//! bytes plus allocation counts. A flush hook adds them to every `ist-obs`
//! snapshot (gauges `tensor.live_bytes` / `tensor.peak_bytes`, counters
//! `tensor.allocs` / `tensor.alloc_bytes`),
//! and the trainer stamps the per-epoch peak into its `train.epoch` span.
//!
//! ## Cost model
//!
//! Accounting is active only while profiling is on (`IST_METRICS` or
//! `IST_TRACE`); the disabled path is two relaxed atomic loads per buffer
//! creation/drop — no locking, no syscalls. Frees saturate at zero so
//! tensors allocated before profiling was enabled can never wrap the live
//! gauge; consequently, when profiling is switched on mid-process the live
//! value is approximate until pre-existing tensors have drained.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ist_obs::{FlushHook, Snapshot};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static EPOCH_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static HOOKED: AtomicBool = AtomicBool::new(false);

#[inline]
fn profiling() -> bool {
    ist_obs::enabled() || ist_obs::trace_enabled()
}

/// Called when a tensor buffer is created or copied, with its element count.
#[inline]
pub(crate) fn on_alloc(elems: usize) {
    if !profiling() {
        return;
    }
    track_alloc(elems as u64 * 4);
}

/// Called when a tensor buffer is dropped (or handed off by `into_vec`)
/// with its element count.
#[inline]
pub(crate) fn on_free(elems: usize) {
    if !profiling() {
        return;
    }
    let bytes = elems as u64 * 4;
    let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(bytes))
    });
}

#[cold]
fn track_alloc(bytes: u64) {
    if !HOOKED.swap(true, Ordering::Relaxed) {
        ist_obs::register_flush_hook(FlushHook {
            name: "tensor.mem",
            collect,
            reset,
        });
    }
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    EPOCH_PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Adds the accounting state to an obs snapshot.
fn collect(snap: &mut Snapshot) {
    let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
    snap.gauges.extend([
        ("tensor.live_bytes".into(), read(&LIVE_BYTES)),
        ("tensor.peak_bytes".into(), read(&PEAK_BYTES)),
    ]);
    snap.counters.extend([
        ("tensor.allocs".into(), read(&ALLOC_COUNT)),
        ("tensor.alloc_bytes".into(), read(&ALLOC_BYTES)),
    ]);
}

fn reset() {
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    EPOCH_PEAK_BYTES.store(0, Ordering::Relaxed);
    ALLOC_COUNT.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
}

/// Bytes currently held by live tensors (0 unless profiling is on).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Process-wide high-water mark of live tensor bytes.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restarts the per-epoch peak from the current live value; the trainer
/// calls this at the top of every epoch.
pub fn begin_epoch() {
    EPOCH_PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// High-water mark since the last [`begin_epoch`].
pub fn epoch_peak_bytes() -> u64 {
    EPOCH_PEAK_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Tensor;

    /// Held by this module's test and by the tests in this binary that
    /// allocate tensors larger than its headroom (a column-split sweep
    /// builds a 120 MB operand), so those never overlap it.
    pub(crate) static ACCOUNTING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn accounting_tracks_alloc_and_free() {
        let _g = ACCOUNTING.lock().unwrap_or_else(|e| e.into_inner());
        // Other tests in this binary may allocate concurrently, so use a
        // buffer far larger than their combined churn and assert with
        // headroom rather than exact equality.
        const ELEMS: usize = 2 * 1024 * 1024; // 8 MB
        const BYTES: u64 = ELEMS as u64 * 4;
        ist_obs::set_mode(ist_obs::Mode::Summary);
        let before = live_bytes();
        let t = Tensor::zeros(&[ELEMS]);
        let after_alloc = live_bytes();
        assert!(
            after_alloc + BYTES / 2 >= before + BYTES,
            "live bytes should grow by roughly the tensor size \
             (before={before}, after={after_alloc})"
        );
        assert!(peak_bytes() + BYTES / 2 >= after_alloc);
        drop(t);
        let after_free = live_bytes();
        assert!(
            after_free <= after_alloc - BYTES / 2,
            "live bytes should shrink by roughly the tensor size \
             (alloc={after_alloc}, free={after_free})"
        );

        // A clone and a reshape share the buffer: it is counted once.
        let base = live_bytes();
        let t = Tensor::zeros(&[ELEMS]);
        let mut shared = t.clone();
        let reshaped = t.reshape(&[2, ELEMS / 2]);
        let once = live_bytes();
        assert!(
            once + BYTES / 2 >= base + BYTES && once < base + BYTES + BYTES / 2,
            "a shared buffer should count once (base={base}, now={once})"
        );
        // Writing the shared clone copies it: one more buffer.
        shared.data_mut()[0] = 1.0;
        let twice = live_bytes();
        assert!(
            twice + BYTES / 2 >= once + BYTES && twice < once + BYTES + BYTES / 2,
            "a copy-on-write should add one buffer (once={once}, now={twice})"
        );
        // `into_vec` on a still-shared tensor leaves the other holder's
        // bytes live (the returned Vec is outside accounting).
        let v = t.into_vec();
        assert!(
            live_bytes() + BYTES / 2 >= twice,
            "into_vec on a shared tensor must not free the buffer"
        );
        drop(v);
        // Dropping every holder returns to the start.
        drop((shared, reshaped));
        let end = live_bytes();
        assert!(
            end < base + BYTES / 2,
            "every buffer should be freed (base={base}, end={end})"
        );
        ist_obs::set_mode(ist_obs::Mode::Off);
    }
}
