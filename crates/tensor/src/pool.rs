//! A shared, persistent worker pool for data-parallel tensor work.
//!
//! Every large operation in the workspace (GEMM, `bmm`, big elementwise
//! maps, row-wise reductions, the experiment runner's model grid) used to
//! spawn and tear down scoped threads per call. This module replaces that
//! with one lazily-initialised pool of long-lived workers fed through a
//! shared injector queue (chunk dealing: callers enqueue coarse tasks, idle
//! workers pull them in order).
//!
//! Sizing: `IST_THREADS` if set, else `std::thread::available_parallelism()`
//! capped at 8. `IST_THREADS=1` keeps a single worker, which — together with
//! partition rules that never depend on the thread count where order matters
//! (see [`parallel_map_chunks`]) — makes every result bit-identical across
//! pool sizes.
//!
//! Deadlock freedom: a caller blocked in [`ThreadPool::run`] *helps*, i.e.
//! it executes queued tasks (its own or another run's) while waiting, so
//! nested `run` calls from inside worker tasks always make progress.

#![allow(unsafe_code)] // one audited transmute; see the SAFETY note in `run`

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send>;

/// Pool telemetry (`ist-obs`, env-gated): fan-out calls, tasks enqueued,
/// and how many queued jobs the *blocked caller* executed while waiting —
/// `pool.helped_jobs / pool.tasks` is a direct utilisation signal (a high
/// ratio means the workers were saturated and the caller did the work).
static POOL_RUNS: ist_obs::Counter = ist_obs::Counter::new("pool.runs");
static POOL_TASKS: ist_obs::Counter = ist_obs::Counter::new("pool.tasks");
static POOL_HELPED: ist_obs::Counter = ist_obs::Counter::new("pool.helped_jobs");
static POOL_THREADS: ist_obs::Gauge = ist_obs::Gauge::new("pool.threads");

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when jobs are enqueued.
    available: Condvar,
}

/// A persistent pool of worker threads executing boxed tasks.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
}

struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: AtomicUsize::new(count),
            panicked: AtomicBool::new(false),
            done: Mutex::new(count == 0),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, task_panicked: bool) {
        if task_panicked {
            self.panicked.store(true, Ordering::Relaxed);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().expect("latch poisoned") = true;
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

impl ThreadPool {
    /// Spawns a pool with exactly `threads` workers (at least 1).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ist-pool-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
        }
        ThreadPool { shared, threads }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task to completion before returning. Tasks may borrow from
    /// the caller's stack. The calling thread helps execute queued work while
    /// it waits, so nesting `run` inside a task cannot deadlock. Panics if
    /// any task panicked.
    pub fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        POOL_RUNS.add(1);
        POOL_TASKS.add(tasks.len() as u64);
        let latch = Arc::new(Latch::new(tasks.len()));
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            for task in tasks {
                // SAFETY: `run` does not return until `latch` has counted
                // every task complete (the wait loop below), so all `'scope`
                // borrows captured by the task strictly outlive its
                // execution. Worker panics are caught (`catch_unwind`) and
                // recorded, so a panicking task still completes the latch
                // and cannot leave borrows live past this frame.
                let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
                let l = Arc::clone(&latch);
                q.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    l.complete(result.is_err());
                }));
            }
        }
        self.shared.available.notify_all();

        // Help-while-wait: drain queued jobs until our latch is done. We may
        // execute jobs belonging to other concurrent `run` calls — that is
        // fine (it only speeds them up) and it is what makes nested
        // parallelism deadlock-free.
        loop {
            if latch.is_done() {
                break;
            }
            let job = self
                .shared
                .queue
                .lock()
                .expect("pool queue poisoned")
                .pop_front();
            match job {
                Some(job) => {
                    POOL_HELPED.add(1);
                    // Help-steals carry their own trace category so a
                    // timeline shows which thread actually ran each task.
                    let _t = ist_obs::trace::scope_cat("pool.task", "pool.help");
                    job();
                }
                None => {
                    let guard = latch.done.lock().expect("latch poisoned");
                    if !*guard {
                        // Short timeout: a helped-along job from another run
                        // may finish our tasks without notifying us.
                        let _ = latch
                            .cv
                            .wait_timeout(guard, Duration::from_millis(1))
                            .expect("latch poisoned");
                    }
                }
            }
        }
        assert!(
            !latch.panicked.load(Ordering::Relaxed),
            "pool task panicked"
        );
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                match q.pop_front() {
                    Some(job) => break job,
                    None => {
                        q = shared.available.wait(q).expect("pool queue poisoned");
                    }
                }
            }
        };
        let _t = ist_obs::trace::scope_cat("pool.task", "pool");
        job();
    }
}

/// The lazily-initialised global pool shared by all tensor ops.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool = ThreadPool::new(configured_threads());
        POOL_THREADS.set(pool.threads() as u64);
        pool
    })
}

/// Most workers `IST_THREADS` may ask for; larger values are clamped.
pub const MAX_THREADS: usize = 256;

/// Pool size: the `IST_THREADS` override, else the detected size,
/// `available_parallelism` capped at 8 (the cap the workspace has always
/// used). A malformed override or `0` warns once and takes the detected
/// size; one above [`MAX_THREADS`] warns once and is clamped.
pub fn configured_threads() -> usize {
    let detected = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let Some(v) = ist_obs::env::value("IST_THREADS") else {
        return detected;
    };
    let (threads, warning) = pool_size(&v, detected);
    if let Some(warning) = warning {
        ist_obs::env::warn_once("IST_THREADS", warning);
    }
    threads
}

/// The pool size an `IST_THREADS` value asks for, and the warning when it
/// is not taken as given. A pure function, so the extreme values are
/// tested without building a pool.
fn pool_size(value: &str, detected: usize) -> (usize, Option<String>) {
    match value.parse::<usize>() {
        Ok(n @ 1..=MAX_THREADS) => (n, None),
        Ok(0) | Err(_) => (
            detected,
            Some(format!(
                "ignoring malformed IST_THREADS={value:?} (need a positive integer); \
                 using the detected {detected}"
            )),
        ),
        Ok(_) => (
            MAX_THREADS,
            Some(format!(
                "IST_THREADS={value} is above the maximum; using {MAX_THREADS}"
            )),
        ),
    }
}

/// GEMM parallel-crossover grain: minimum multiply-add count *per worker*
/// before the pool is engaged.
pub const GEMM_GRAIN: usize = 1 << 18;

/// Small-GEMM serial cutoff: total multiply-add count below which a row-
/// or depth-split matmul never engages the pool, regardless of thread
/// count. Short or wide products take `matmul`'s column split instead and
/// are gated by [`GEMM_GRAIN`] alone.
///
/// 2²² (≈4.2 M) is the measured crossover. Timed on a 2-core avx512 host
/// (release build, medians of 61 interleaved calls per side, two sweeps),
/// a two-worker row split of `[m, k]·[k, n]` against the serial product
/// at `(k, n)` = (8, 8), (32, 32), (8, 32), (32, 16), (16, 32), (64, 64)
/// took 0.94–1.24× the serial time at 2²⁰ multiply-adds, 0.62–1.10× at
/// 2²¹, 0.65–1.06× at 2²² and 0.63–0.88× at 2²³. At 2²² the split is
/// no slower within the spread on every shape, and the GCN's
/// `[R·K, d′]·[d′, d′]` products of training (5.2 M) take it; serving's
/// products (at most ~0.2 M) stay far below it.
pub const GEMM_SERIAL_CUTOFF: usize = 1 << 22;

/// Elementwise/reduction crossover grain: minimum element count per worker
/// before the pool is engaged.
pub const ELEM_GRAIN: usize = 1 << 15;

/// True when `work` units (flops, elements — caller's choice of `grain`)
/// justify fanning out over the global pool.
pub fn should_parallelize(work: usize, grain: usize) -> bool {
    let threads = global().threads();
    threads > 1 && work >= grain.saturating_mul(threads)
}

/// Grow-only per-thread scratch for GEMM panel packing. Buffers keep their
/// high-water capacity across calls, so steady-state GEMM performs zero
/// packing allocations (the `tensor.gemm.pack_reuse` counter in
/// [`crate::matmul`] proves it).
#[derive(Default)]
pub struct Workspace {
    /// Packed B-panel scratch (`NC·KC` floats at full size).
    pub panel: Vec<f32>,
    /// Per-row all-zero flags for the current `a`.
    pub row_zero: Vec<bool>,
}

thread_local! {
    /// One workspace per thread — pool workers and the helping caller each
    /// get their own, so no synchronisation is needed. `Cell` + take/put
    /// (rather than `RefCell` + borrow) degrades gracefully if a kernel
    /// ever re-enters `with_workspace` on the same thread: the nested call
    /// sees `None` and works with a fresh (then discarded) workspace
    /// instead of panicking.
    static WORKSPACE: std::cell::Cell<Option<Box<Workspace>>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with this thread's grow-only [`Workspace`], creating it on
/// first use. The workspace is returned to the slot afterwards (even if a
/// nested use took it, the outer one wins — the inner allocation is simply
/// dropped), so capacity persists for the life of the thread.
pub fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut ws = WORKSPACE
        .with(|slot| slot.take())
        .unwrap_or_else(|| Box::new(Workspace::default()));
    let out = f(&mut ws);
    WORKSPACE.with(|slot| slot.set(Some(ws)));
    out
}

/// Splits `data` into `chunk_len`-sized chunks and processes them on the
/// global pool: `f(chunk_index, chunk)`. The partition depends only on
/// `chunk_len`, never on the pool size, so callers that pick a fixed
/// `chunk_len` get thread-count-independent (bitwise deterministic) results.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(i, chunk)| Box::new(move || f(i, chunk)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    global().run(tasks);
}

/// Maps fixed-size chunks of `data` to values, in chunk order. The chunking
/// (and therefore each partial result and the order they are combined in)
/// is independent of the pool size — the building block for deterministic
/// parallel reductions.
pub fn parallel_map_chunks<T, R, F>(data: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if data.is_empty() {
        return Vec::new();
    }
    let n_chunks = data.len().div_ceil(chunk_len);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n_chunks);
    out.resize_with(n_chunks, || None);
    {
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .chunks_mut(1)
            .zip(data.chunks(chunk_len))
            .map(|(slot, chunk)| {
                Box::new(move || slot[0] = Some(f(chunk))) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        global().run(tasks);
    }
    out.into_iter()
        .map(|r| r.expect("pool task did not fill its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_size_falls_back_or_clamps_without_building_a_pool() {
        assert_eq!(pool_size("4", 2), (4, None));
        assert_eq!(pool_size("256", 2), (MAX_THREADS, None));
        for (value, want) in [("abc", 2), ("0", 2), ("-3", 2), ("257", 256), ("1e9", 2)] {
            let (n, warning) = pool_size(value, 2);
            assert_eq!(n, want, "{value}");
            assert!(
                warning.is_some_and(|w| w.contains("IST_THREADS")),
                "{value}"
            );
        }
        let huge = pool_size("18446744073709551615", 2);
        assert_eq!(huge.0, MAX_THREADS);
    }

    #[test]
    fn run_executes_all_tasks_with_borrows() {
        let pool = ThreadPool::new(3);
        let mut out = vec![0usize; 16];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .chunks_mut(4)
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for (j, v) in chunk.iter_mut().enumerate() {
                            *v = i * 4 + j;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        let total: AtomicUsize = AtomicUsize::new(0);
        {
            let total = &total;
            let pool_ref = &pool;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    Box::new(move || {
                        let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                            .map(|_| {
                                Box::new(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                }) as Box<dyn FnOnce() + Send + '_>
                            })
                            .collect();
                        pool_ref.run(inner);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(tasks);
        }
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    #[should_panic(expected = "pool task panicked")]
    fn task_panic_propagates() {
        let pool = ThreadPool::new(2);
        pool.run(vec![Box::new(|| panic!("boom"))]);
    }

    #[test]
    fn pool_survives_a_panicked_task() {
        let pool = ThreadPool::new(2);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![Box::new(|| panic!("boom"))]);
        }));
        let counter = AtomicUsize::new(0);
        pool.run(
            (0..8)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn parallel_map_chunks_is_ordered_and_partition_stable() {
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let partials = parallel_map_chunks(&data, 64, |chunk| chunk.iter().sum::<f32>());
        assert_eq!(partials.len(), 1000usize.div_ceil(64));
        let total: f32 = partials.iter().sum();
        assert_eq!(total, (0..1000).sum::<i32>() as f32);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
