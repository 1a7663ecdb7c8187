//! The score engine: a supervised scorer thread owning the (`!Send`) model,
//! fed by a bounded micro-batching request queue with per-request
//! deadlines, load shedding, panic recovery, and a degraded-mode fallback.
//!
//! ## Resilience model
//!
//! A supervisor thread owns the scorer: each scorer *incarnation* builds
//! the model, loads weights, and serves batches with `catch_unwind` around
//! every batch and reload. A panic fails only the poisoned batch's
//! requests (typed [`ServeError::ScorerPanic`]); the supervisor then
//! respawns a fresh incarnation with freshly-loaded weights, up to
//! `IST_SERVE_MAX_RESPAWNS` times. When the budget is exhausted the
//! circuit breaker trips into **degraded mode**: a zero-dependency
//! popularity/recency ranker ([`FallbackRanker`]) keeps answering (marked
//! `degraded: true`) until a [`reload`](ScoreEngine::reload) succeeds in
//! spawning a healthy scorer again.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use isrec_core::{snapshot, CheckpointManager, Isrec, IsrecConfig};
use ist_data::SequentialDataset;
use ist_nn::Module as _;
use ist_obs::env::parse_or;
use ist_obs::reqctx::{self, ReqCtx, Stage};
use ist_obs::schema::{EngineHealth, Health, Show};
use ist_tensor::matmul::{matmul_packed, PackedRhs};
use ist_tensor::pool;
use ist_tensor::Tensor;

use crate::cache::ReprCache;
use crate::error::ServeError;
use crate::fallback::FallbackRanker;
use crate::resilience::ServeFaultPlan;
use crate::slo::{self, SloConfig, SloMonitor, SloSnapshot};
use crate::topk::top_k;

/// End-to-end request latency (enqueue → response), microseconds; the
/// summary table renders its p50/p95/p99.
static REQUEST_US: ist_obs::Histogram = ist_obs::Histogram::with_unit("serve.request_us", "us");
/// Requests coalesced per forward pass.
static BATCH_SIZE: ist_obs::Histogram = ist_obs::Histogram::with_unit("serve.batch_size", "req");
/// Requests shed by admission control (queue full).
static SHED: ist_obs::Counter = ist_obs::Counter::new("serve.shed");
/// Requests whose deadline passed before an answer.
static TIMED_OUT: ist_obs::Counter = ist_obs::Counter::new("serve.timed_out");
/// Scorer-thread panics caught by the supervisor.
static SCORER_PANICS: ist_obs::Counter = ist_obs::Counter::new("serve.scorer_panic");
/// Scorer incarnations respawned after a panic.
static RESPAWNS: ist_obs::Counter = ist_obs::Counter::new("serve.respawn");
/// Requests answered by the degraded-mode fallback ranker.
static DEGRADED_SERVED: ist_obs::Counter = ist_obs::Counter::new("serve.degraded_served");
/// Corrupt/torn checkpoints skipped during weight loads.
static RELOAD_SKIPPED: ist_obs::Counter = ist_obs::Counter::new("serve.reload_skipped");
/// 1 while the engine is serving fallback answers, 0 when healthy.
static DEGRADED: ist_obs::Gauge = ist_obs::Gauge::new("serve.degraded");
/// Finished requests, every outcome (exports as `serve_requests_total`;
/// the CI serve stage checks it against the driver's request count).
static REQUESTS: ist_obs::Counter = ist_obs::Counter::new("serve.requests");
/// Admission-queue depth after the latest enqueue/dispatch.
static QUEUE_DEPTH: ist_obs::Gauge = ist_obs::Gauge::new("serve.queue_depth");

/// Sentinel for "no checkpoint epoch" in the shared atomic.
const NO_EPOCH: u64 = u64::MAX;

/// Where the engine's weights come from.
#[derive(Clone, Debug)]
pub enum ModelSource {
    /// A single value-only snapshot file (what `isrec train --snapshot`
    /// writes). [`ScoreEngine::reload`] re-reads and re-validates it.
    Snapshot(PathBuf),
    /// A checkpoint directory: newest-valid-wins discovery at startup, and
    /// [`ScoreEngine::reload`] picks up strictly newer valid checkpoints.
    CheckpointDir(PathBuf),
}

/// Everything the scorer thread needs to build its model. The model itself
/// is `!Send`, so this spec crosses the thread boundary instead.
pub struct ModelSpec {
    /// Dataset the model was trained on (vocabulary + concept graph).
    pub dataset: SequentialDataset,
    /// Architecture hyper-parameters — must match the trained weights.
    pub config: IsrecConfig,
    /// Init seed (irrelevant once weights load, but kept for parity with
    /// the CLI's model construction).
    pub seed: u64,
    /// Weight source.
    pub source: ModelSource,
}

/// Engine knobs; [`ServeConfig::from_env`] reads the `IST_SERVE_*`
/// environment.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum requests coalesced into one forward pass
    /// (`IST_SERVE_BATCH`, default 32, minimum 1).
    pub max_batch: usize,
    /// How long the scorer waits for more requests after the first one
    /// (`IST_SERVE_BATCH_TIMEOUT_US`, default 200µs; 0 scores whatever is
    /// already queued).
    pub batch_timeout: Duration,
    /// LRU capacity of the history→representation cache
    /// (`IST_SERVE_CACHE`, default 1024 entries; 0 disables caching).
    pub cache_entries: usize,
    /// Default per-request deadline applied by
    /// [`recommend`](ScoreEngine::recommend) (`IST_SERVE_DEADLINE_MS`;
    /// unset or 0 means no deadline).
    pub deadline: Option<Duration>,
    /// Admission-queue bound (`IST_SERVE_QUEUE`, default 1024; 0 means
    /// unbounded). When full, the queued request with the oldest deadline
    /// is shed with [`ServeError::Shed`].
    pub queue_cap: usize,
    /// How many scorer respawns a panic streak may consume before the
    /// circuit breaker trips into degraded mode
    /// (`IST_SERVE_MAX_RESPAWNS`, default 3). A successful degraded-mode
    /// recovery resets the budget.
    pub max_respawns: u32,
    /// Injected fault schedule. `None` reads `IST_SERVE_FAULTS` at
    /// [`ScoreEngine::start`]; tests pass an explicit plan.
    pub faults: Option<ServeFaultPlan>,
    /// SLO targets for the rolling monitor. `None` reads
    /// `IST_SERVE_SLO_MS` / `IST_SERVE_SLO_ERR_PCT` /
    /// `IST_SERVE_SLO_WINDOW` at [`ScoreEngine::start`]; tests pass an
    /// explicit config. The monitor never affects scores or scheduling —
    /// it only observes.
    pub slo: Option<SloConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            batch_timeout: Duration::from_micros(200),
            cache_entries: 1024,
            deadline: None,
            queue_cap: 1024,
            max_respawns: 3,
            faults: None,
            slo: None,
        }
    }
}

impl ServeConfig {
    /// Reads `IST_SERVE_BATCH`, `IST_SERVE_BATCH_TIMEOUT_US`,
    /// `IST_SERVE_CACHE`, `IST_SERVE_DEADLINE_MS`, `IST_SERVE_QUEUE`,
    /// and `IST_SERVE_MAX_RESPAWNS`, falling back to the defaults above.
    pub fn from_env() -> Self {
        let d = ServeConfig::default();
        let deadline_ms = parse_or("IST_SERVE_DEADLINE_MS", 0);
        let timeout_us = parse_or(
            "IST_SERVE_BATCH_TIMEOUT_US",
            d.batch_timeout.as_micros() as u64,
        );
        ServeConfig {
            max_batch: parse_or("IST_SERVE_BATCH", d.max_batch).max(1),
            batch_timeout: Duration::from_micros(timeout_us),
            cache_entries: parse_or("IST_SERVE_CACHE", d.cache_entries),
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            queue_cap: parse_or("IST_SERVE_QUEUE", d.queue_cap),
            max_respawns: parse_or("IST_SERVE_MAX_RESPAWNS", d.max_respawns),
            faults: None,
            slo: None,
        }
    }
}

/// One ranked item.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// Item id.
    pub item: usize,
    /// Model score (higher is better).
    pub score: f32,
}

/// A served answer: the ranking plus how it was produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeResponse {
    /// Top-K items, best first.
    pub items: Vec<Recommendation>,
    /// True when the degraded-mode fallback ranker (not the model)
    /// produced this answer.
    pub degraded: bool,
}

/// A point-in-time view of the engine's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Delivered responses: requests answered by the model or by the
    /// degraded fallback. A failed request counts under its error's kind
    /// (`shed`, `timed_out`) or not at all, never here.
    pub requests: u64,
    /// Forward passes run.
    pub batches: u64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// Representation-cache hits.
    pub cache_hits: u64,
    /// Representation-cache misses.
    pub cache_misses: u64,
    /// Successful weight swaps via [`ScoreEngine::reload`].
    pub reloads: u64,
    /// Checkpoint epoch currently serving (None for snapshot sources).
    pub epoch: Option<u64>,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests whose deadline passed before an answer.
    pub timed_out: u64,
    /// Scorer panics caught (each fails only its own batch).
    pub scorer_panics: u64,
    /// Scorer incarnations respawned after panics.
    pub respawns: u64,
    /// Requests answered by the fallback ranker while degraded.
    pub degraded_served: u64,
    /// Corrupt/torn checkpoints skipped during weight loads.
    pub reload_skipped: u64,
    /// True while the engine is serving fallback answers.
    pub degraded: bool,
}

impl EngineStats {
    /// Mean requests per forward pass.
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.requests as f64 / self.batches as f64
    }

    /// Cache hits / lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }
}

/// What a request ends in: an answer or a typed error.
type Outcome<T> = Result<T, ServeError>;

/// A response slot's life. [`Slot::settle`] is its one transition out of
/// `Pending`; the caller then takes the outcome exactly once.
enum State<T> {
    Pending,
    Settled(Outcome<T>),
    Taken,
}

/// One-shot response slot shared by a caller and whichever engine thread
/// answers it.
struct Slot<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Slot<T> {
        Slot {
            state: Mutex::new(State::Pending),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The only write into a slot: `Pending → Settled(outcome)`. The first
    /// call wins; a later one drops its outcome and returns false. `on_win`
    /// runs under the slot lock before the caller is woken, so a caller
    /// that wakes to this outcome already sees its effects.
    fn settle(&self, outcome: Outcome<T>, on_win: impl FnOnce(&Outcome<T>)) -> bool {
        let mut state = self.lock();
        if !matches!(*state, State::Pending) {
            return false;
        }
        on_win(&outcome);
        *state = State::Settled(outcome);
        self.ready.notify_all();
        true
    }

    fn is_pending(&self) -> bool {
        matches!(*self.lock(), State::Pending)
    }

    /// Waits until the slot is settled and takes its outcome; `None` once
    /// `deadline` passes with the slot still pending. `deadline: None`
    /// waits forever.
    fn take(&self, deadline: Option<Instant>) -> Option<Outcome<T>> {
        let pending = |state: &mut State<T>| matches!(state, State::Pending);
        let mut state = match deadline {
            None => self
                .ready
                .wait_while(self.lock(), pending)
                .unwrap_or_else(|p| p.into_inner()),
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                let waited = self.ready.wait_timeout_while(self.lock(), left, pending);
                waited.unwrap_or_else(|p| p.into_inner()).0
            }
        };
        match std::mem::replace(&mut *state, State::Taken) {
            State::Settled(out) => Some(out),
            other => {
                *state = other;
                None
            }
        }
    }
}

impl Slot<ServeResponse> {
    /// Settles a score request. A winning settle, and nothing else, counts
    /// the outcome in `tally` and marks the trace context filled.
    fn settle_score(
        &self,
        tally: &Tally,
        ctx: Option<&ReqCtx>,
        outcome: Outcome<ServeResponse>,
    ) -> bool {
        self.settle(outcome, |out| {
            tally.count(out);
            if let Some(c) = ctx {
                c.mark_filled();
            }
        })
    }
}

/// Per-engine outcome counts, each paired with its `ist_obs` twin. Only a
/// winning [`Slot::settle_score`] writes them, so each request counts once.
#[derive(Default)]
struct Tally {
    /// Delivered responses, model or fallback.
    requests: AtomicU64,
    degraded_served: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
}

impl Tally {
    fn count(&self, outcome: &Outcome<ServeResponse>) {
        let bump = |n: &AtomicU64, twin: &'static ist_obs::Counter| {
            n.fetch_add(1, Ordering::Relaxed);
            twin.inc();
        };
        match outcome {
            Ok(resp) => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                if resp.degraded {
                    bump(&self.degraded_served, &DEGRADED_SERVED);
                }
            }
            Err(ServeError::Shed) => bump(&self.shed, &SHED),
            Err(ServeError::DeadlineExceeded { .. }) => bump(&self.timed_out, &TIMED_OUT),
            Err(_) => {}
        }
    }
}

/// A queued recommendation request, carrying everything admission control
/// and the batcher need to expire or shed it.
struct QueuedScore {
    history: Vec<usize>,
    k: usize,
    /// The deadline budget the caller asked for (for the error message).
    budget: Option<Duration>,
    /// Absolute deadline (admission time + budget).
    deadline: Option<Instant>,
    /// When the request entered the queue.
    admitted: Instant,
    /// Admission order, the shed/expiry tiebreaker.
    seq: u64,
    slot: Arc<Slot<ServeResponse>>,
    /// Per-request trace context (None when observability is inactive —
    /// the whole pipeline then skips every stage probe).
    ctx: Option<Arc<ReqCtx>>,
    /// When the batcher popped this request off the queue — the boundary
    /// between its queue-wait and batch-assembly stages. Only taken when
    /// traced.
    popped: Option<Instant>,
}

impl QueuedScore {
    fn settle(&self, tally: &Tally, outcome: Outcome<ServeResponse>) -> bool {
        self.slot.settle_score(tally, self.ctx.as_deref(), outcome)
    }
}

/// Shed priority: the request whose deadline (or, lacking one, admission
/// time) is oldest goes first; admission order breaks ties.
fn shed_key(s: &QueuedScore) -> (Instant, u64) {
    (s.deadline.unwrap_or(s.admitted), s.seq)
}

enum Job {
    Score(QueuedScore),
    Reload { slot: Arc<Slot<Option<u64>>> },
}

impl Job {
    /// Answers a job refused at admission, shed, or drained on shutdown.
    fn fail(&self, tally: &Tally, err: ServeError) {
        match self {
            Job::Score(js) => js.settle(tally, Err(err)),
            Job::Reload { slot } => slot.settle(Err(err), |_| {}),
        };
    }
}

/// What [`QueueState::pop`] hands back: overdue requests, and a reload.
type Popped = (Vec<QueuedScore>, Option<Arc<Slot<Option<u64>>>>);

/// The admission queue. Its methods are the decisions taken under the
/// queue lock; they never settle a slot themselves, but hand back the
/// requests their caller must settle.
struct QueueState {
    jobs: VecDeque<Job>,
    /// Number of `Job::Score` entries in `jobs` (reload jobs are control
    /// plane and never count against the admission cap).
    score_len: usize,
    shutdown: bool,
}

impl QueueState {
    /// Admission control: refuses on shutdown; when the bounded queue is
    /// full, sheds the queued request with the oldest deadline — the
    /// newcomer itself when its deadline is the soonest. Reload jobs are
    /// control plane and never count against `cap`. Returns the refused or
    /// shed job with its error.
    fn admit(&mut self, job: Job, cap: usize) -> Option<(Job, ServeError)> {
        if self.shutdown {
            return Some((job, ServeError::Shutdown));
        }
        let mut shed = None;
        if let Job::Score(js) = &job {
            if cap > 0 && self.score_len >= cap {
                // A request whose caller already settled it sorts first:
                // evicting it sheds no one.
                let victim = self
                    .jobs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, job)| match job {
                        Job::Score(s) => Some(((s.slot.is_pending(), shed_key(s)), i)),
                        Job::Reload { .. } => None,
                    })
                    .min();
                match victim {
                    Some(((false, _), i)) => drop(self.jobs.remove(i)),
                    Some(((_, key), i)) if key <= shed_key(js) => {
                        shed = self.jobs.remove(i).map(|v| (v, ServeError::Shed));
                    }
                    _ => return Some((job, ServeError::Shed)),
                }
                self.score_len -= 1;
            }
            self.score_len += 1;
        }
        self.jobs.push_back(job);
        shed
    }

    /// Pop and expire: moves score jobs off the front into `batch` until
    /// it holds `max_batch` or a reload is next, and pops that reload if
    /// the batch is still empty. Drops jobs whose caller already settled
    /// them. Returns the jobs overdue at `now`, to be answered without
    /// wasting a forward pass, and the popped reload.
    #[must_use]
    fn pop(&mut self, now: Instant, max_batch: usize, batch: &mut Vec<QueuedScore>) -> Popped {
        let mut expired = Vec::new();
        while batch.len() < max_batch {
            let mut js = match self.jobs.pop_front() {
                Some(Job::Score(js)) => js,
                Some(Job::Reload { slot }) if batch.is_empty() => return (expired, Some(slot)),
                Some(reload) => {
                    self.jobs.push_front(reload);
                    break;
                }
                None => break,
            };
            self.score_len -= 1;
            if !js.slot.is_pending() {
                continue;
            }
            if let Some(c) = &js.ctx {
                c.record(Stage::Queue, now.saturating_duration_since(js.admitted));
            }
            if js.deadline.is_some_and(|d| now >= d) {
                expired.push(js);
                continue;
            }
            js.popped = js.ctx.is_some().then_some(now);
            batch.push(js);
        }
        (expired, None)
    }

    /// The batch-window check: a batch of `len` runs once it is full, its
    /// window has closed, the engine is shutting down, or a reload waits
    /// behind it.
    fn batch_ready(&self, len: usize, max_batch: usize, now: Instant, window: Instant) -> bool {
        len >= max_batch
            || now >= window
            || self.shutdown
            || matches!(self.jobs.front(), Some(Job::Reload { .. }))
    }

    /// Shutdown drain: empties the queue, handing back every job to be
    /// answered `Shutdown`.
    fn drain(&mut self) -> Vec<Job> {
        self.score_len = 0;
        self.jobs.drain(..).collect()
    }
}

struct Shared {
    queue: Mutex<QueueState>,
    cond: Condvar,
    tally: Tally,
    batches: AtomicU64,
    max_batch: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    reloads: AtomicU64,
    epoch: AtomicU64,
    scorer_panics: AtomicU64,
    respawns: AtomicU64,
    reload_skipped: AtomicU64,
    degraded: AtomicBool,
    /// Admission sequence numbers (shed/expiry tiebreaker).
    seq: AtomicU64,
    /// Catalog size, for request validation off the scorer thread.
    num_items: usize,
    /// Degraded-mode ranker, built once at startup.
    fallback: FallbackRanker,
    /// Injected fault schedule (ordinal counters live inside the plan).
    faults: Mutex<ServeFaultPlan>,
    /// Fast path: false once the plan drains, so the healthy path never
    /// takes the fault lock.
    faults_active: AtomicBool,
    /// Rolling p99/error-rate monitor (inactive unless observability is
    /// on — one relaxed load per finished request then).
    slo: SloMonitor,
}

impl Shared {
    fn new(
        num_items: usize,
        fallback: FallbackRanker,
        faults: ServeFaultPlan,
        slo: SloMonitor,
    ) -> Shared {
        let faults_active = AtomicBool::new(!faults.is_empty());
        Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                score_len: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
            tally: Tally::default(),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            epoch: AtomicU64::new(NO_EPOCH),
            scorer_panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            reload_skipped: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            num_items,
            fallback,
            faults: Mutex::new(faults),
            faults_active,
            slo,
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running inference engine. Construction ([`ScoreEngine::start`]) spawns
/// the supervisor + scorer threads, builds the model there, and loads
/// weights; dropping the engine shuts both down. `&ScoreEngine` is
/// shareable across client threads — [`recommend`](ScoreEngine::recommend)
/// is `&self` and every call returns a typed result before its deadline:
/// the engine never leaves a caller blocked past its budget and never
/// propagates a scorer panic across the API boundary.
pub struct ScoreEngine {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    cfg: ServeConfig,
}

impl ScoreEngine {
    /// Builds the model on a fresh scorer thread and loads its weights.
    /// Returns only once the model is ready to serve (or failed to load).
    pub fn start(spec: ModelSpec, cfg: ServeConfig) -> Result<ScoreEngine, String> {
        let fallback = FallbackRanker::build(&spec.dataset);
        let faults = cfg.faults.clone().unwrap_or_else(ServeFaultPlan::from_env);
        let monitor = SloMonitor::new(cfg.slo.clone().unwrap_or_else(SloConfig::from_env));
        // The monitor samples only while something can read it (metrics,
        // access log, trace, or a scrape endpoint): off means one relaxed
        // load per request and an all-zero snapshot.
        monitor.set_active(reqctx::active() || ist_obs::export::active());
        let shared = Arc::new(Shared::new(
            spec.dataset.num_items,
            fallback,
            faults,
            monitor.clone(),
        ));
        slo::install(&monitor);
        install_health_provider(&shared);
        let worker_shared = Arc::clone(&shared);
        let worker_cfg = cfg.clone();
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
        let worker = std::thread::Builder::new()
            .name("ist-serve-supervisor".into())
            .spawn(move || supervisor_thread(spec, worker_cfg, worker_shared, ready_tx))
            .map_err(|e| format!("spawn supervisor thread: {e}"))?;
        let mut engine = ScoreEngine {
            shared,
            worker: Some(worker),
            cfg,
        };
        match ready_rx.recv() {
            Ok(Ok(())) => Ok(engine),
            Ok(Err(e)) => {
                engine.join_worker();
                Err(e)
            }
            Err(_) => {
                engine.join_worker();
                Err("scorer thread died during startup".into())
            }
        }
    }

    /// Scores `history` against the full catalog and returns the top `k`
    /// items, best first. Applies the configured default deadline
    /// (`ServeConfig::deadline` / `IST_SERVE_DEADLINE_MS`) when set.
    pub fn recommend(&self, history: &[usize], k: usize) -> Result<ServeResponse, ServeError> {
        self.recommend_opt(history, k, self.cfg.deadline)
    }

    /// Like [`recommend`](ScoreEngine::recommend), but with an explicit
    /// per-request deadline. Returns [`ServeError::DeadlineExceeded`] no
    /// later than (approximately) `budget` after the call, whatever state
    /// the queue or scorer is in.
    pub fn recommend_with_deadline(
        &self,
        history: &[usize],
        k: usize,
        budget: Duration,
    ) -> Result<ServeResponse, ServeError> {
        self.recommend_opt(history, k, Some(budget))
    }

    fn recommend_opt(
        &self,
        history: &[usize],
        k: usize,
        budget: Option<Duration>,
    ) -> Result<ServeResponse, ServeError> {
        // The trace context is born before validation so invalid requests
        // still land in the access log (outcome "invalid"); None when
        // observability is off, which turns every probe below into a
        // single branch. Its clock starts before `start`, from which the
        // queue wait is measured, so every recorded stage falls inside the
        // request's total.
        let ctx = ReqCtx::start(history.len(), k);
        let start = Instant::now();
        let out = self.recommend_inner(history, k, budget, start, &ctx);
        REQUESTS.inc();
        let (outcome, degraded) = match &out {
            Ok(resp) => ("ok", resp.degraded),
            Err(e) => (e.kind(), false),
        };
        let total_us = match ctx {
            Some(c) => reqctx::finish(&c, outcome, degraded),
            None => start.elapsed().as_micros() as u64,
        };
        REQUEST_US.record(total_us);
        self.shared.slo.observe(total_us, out.is_ok());
        out
    }

    fn recommend_inner(
        &self,
        history: &[usize],
        k: usize,
        budget: Option<Duration>,
        start: Instant,
        ctx: &Option<Arc<ReqCtx>>,
    ) -> Result<ServeResponse, ServeError> {
        if history.is_empty() {
            return Err(ServeError::InvalidRequest(
                "empty history: nothing to condition the model on".into(),
            ));
        }
        if k == 0 {
            return Err(ServeError::InvalidRequest(
                "k == 0: no items requested".into(),
            ));
        }
        if let Some(&bad) = history.iter().find(|&&item| item >= self.shared.num_items) {
            return Err(ServeError::InvalidRequest(format!(
                "item id {bad} outside the catalog ({} items)",
                self.shared.num_items
            )));
        }
        let mut span = ist_obs::Span::enter("serve.request");
        span.add_field("k", k);
        if let Some(c) = ctx {
            span.add_field("req", c.id() as usize);
        }
        let deadline = budget.map(|b| start + b);
        let slot = Arc::new(Slot::new());
        admit(
            &self.shared,
            self.cfg.queue_cap,
            Job::Score(QueuedScore {
                history: history.to_vec(),
                k,
                budget,
                deadline,
                admitted: start,
                seq: self.shared.seq.fetch_add(1, Ordering::Relaxed),
                slot: Arc::clone(&slot),
                ctx: ctx.clone(),
                popped: None,
            }),
        );
        let out = slot.take(deadline).unwrap_or_else(|| {
            // The wait timed out. The batcher may be settling this request
            // right now: if its answer wins, the caller takes that answer.
            let budget = budget.unwrap_or_default();
            let expired = Err(ServeError::DeadlineExceeded { budget });
            slot.settle_score(&self.shared.tally, ctx.as_deref(), expired);
            slot.take(None).unwrap_or(Err(ServeError::Shutdown))
        });
        if let Ok(resp) = &out {
            span.add_field("items", resp.items.len());
            span.add_field("degraded", resp.degraded as u64);
        }
        out
    }

    /// Point-in-time SLO snapshot (all-zero/inactive when observability is
    /// off). See [`crate::slo`] for the burn-rate semantics.
    pub fn slo(&self) -> SloSnapshot {
        self.shared.slo.snapshot()
    }

    /// Re-checks the weight source. For a checkpoint dir, a strictly newer
    /// checkpoint that passes every integrity check is swapped in (and its
    /// epoch returned); corrupt or torn files are skipped with a warning
    /// and `Ok(None)` — the old model keeps serving. For a snapshot file,
    /// the file is re-validated and re-applied (returns `Ok(None)`).
    /// Every swap clears the representation cache.
    ///
    /// While degraded, a successful reload is also the recovery path: it
    /// spawns a fresh scorer, resets the respawn budget, and returns the
    /// epoch now serving.
    pub fn reload(&self) -> Result<Option<u64>, ServeError> {
        let slot = Arc::new(Slot::new());
        admit(&self.shared, 0, Job::Reload { slot: slot.clone() });
        slot.take(None).unwrap_or(Err(ServeError::Shutdown))
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        let epoch = self.shared.epoch.load(Ordering::Relaxed);
        EngineStats {
            requests: self.shared.tally.requests.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            max_batch: self.shared.max_batch.load(Ordering::Relaxed),
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.shared.cache_misses.load(Ordering::Relaxed),
            reloads: self.shared.reloads.load(Ordering::Relaxed),
            epoch: (epoch != NO_EPOCH).then_some(epoch),
            shed: self.shared.tally.shed.load(Ordering::Relaxed),
            timed_out: self.shared.tally.timed_out.load(Ordering::Relaxed),
            scorer_panics: self.shared.scorer_panics.load(Ordering::Relaxed),
            respawns: self.shared.respawns.load(Ordering::Relaxed),
            degraded_served: self.shared.tally.degraded_served.load(Ordering::Relaxed),
            reload_skipped: self.shared.reload_skipped.load(Ordering::Relaxed),
            degraded: self.shared.degraded.load(Ordering::Relaxed),
        }
    }

    fn join_worker(&mut self) {
        {
            let mut q = self.shared.lock_queue();
            q.shutdown = true;
        }
        self.shared.cond.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for ScoreEngine {
    fn drop(&mut self) {
        self.join_worker();
        ist_obs::export::clear_health_provider();
        slo::uninstall(&self.shared.slo);
    }
}

/// Queues a job and answers whichever job admission refused or shed (see
/// [`QueueState::admit`]).
fn admit(shared: &Shared, cap: usize, job: Job) {
    let mut q = shared.lock_queue();
    let refused = q.admit(job, cap);
    QUEUE_DEPTH.set(q.score_len as u64);
    drop(q);
    shared.cond.notify_all();
    if let Some((job, err)) = refused {
        job.fail(&shared.tally, err);
    }
}

/// `/healthz` for this engine: 503 + `"degraded"` while the fallback is
/// serving, 200 otherwise, with respawn/panic/queue-depth counts and the
/// live SLO snapshot in the body.
fn install_health_provider(shared: &Arc<Shared>) {
    let shared = Arc::clone(shared);
    ist_obs::export::set_health_provider(Box::new(move || {
        let degraded = shared.degraded.load(Ordering::Relaxed);
        let health = Health {
            status: if degraded { "degraded" } else { "ok" }.into(),
            engine: EngineHealth {
                degraded,
                respawns: shared.respawns.load(Ordering::Relaxed),
                scorer_panics: shared.scorer_panics.load(Ordering::Relaxed),
                queue_depth: shared.lock_queue().score_len as u64,
                slo: shared.slo.snapshot(),
            },
        };
        (
            if degraded { 503 } else { 200 },
            format!("{}\n", Show(&health)),
        )
    }));
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// Why a scorer incarnation returned.
enum Exit {
    /// Clean shutdown (or a startup failure already reported via the
    /// handshake channel).
    Shutdown,
    /// A batch or reload panicked; the poisoned work was already answered
    /// with [`ServeError::ScorerPanic`].
    Panicked(String),
}

fn panic_msg(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Spawns one scorer incarnation and waits for its load handshake. On a
/// handshake failure the incarnation is joined before returning `Err`, so
/// a failed (re)spawn never leaks a thread.
fn spawn_scorer<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    spec: &'env ModelSpec,
    cfg: &'env ServeConfig,
    shared: &'env Shared,
    incarnation: u64,
) -> Result<std::thread::ScopedJoinHandle<'scope, Exit>, String> {
    let (ready_tx, ready_rx) = mpsc::channel::<Result<(), String>>();
    let handle = std::thread::Builder::new()
        .name(format!("ist-serve-scorer-{incarnation}"))
        .spawn_scoped(scope, move || {
            scorer_incarnation(spec, cfg, shared, ready_tx)
        })
        .map_err(|e| format!("spawn scorer thread: {e}"))?;
    match ready_rx.recv() {
        Ok(Ok(())) => Ok(handle),
        Ok(Err(e)) => {
            let _ = handle.join();
            Err(e)
        }
        Err(_) => {
            let _ = handle.join();
            Err("scorer thread died during startup".into())
        }
    }
}

/// Owns the scorer's lifecycle: spawn, forward the startup handshake,
/// respawn on panic (bounded), trip into degraded mode when the budget is
/// exhausted, and drain the queue with typed errors on shutdown.
fn supervisor_thread(
    spec: ModelSpec,
    cfg: ServeConfig,
    shared: Arc<Shared>,
    startup_tx: mpsc::Sender<Result<(), String>>,
) {
    let spec = &spec;
    let cfg = &cfg;
    let shared = &*shared;
    std::thread::scope(|scope| {
        let mut incarnation: u64 = 0;
        let mut handle = match spawn_scorer(scope, spec, cfg, shared, incarnation) {
            Ok(handle) => {
                let _ = startup_tx.send(Ok(()));
                handle
            }
            Err(e) => {
                let _ = startup_tx.send(Err(e));
                return;
            }
        };
        let mut respawns_left = cfg.max_respawns;
        loop {
            let exit = match handle.join() {
                Ok(exit) => exit,
                // A panic that escaped the per-batch guards (e.g. in the
                // queue machinery itself) still only costs an incarnation.
                Err(payload) => Exit::Panicked(panic_msg(payload.as_ref())),
            };
            let why = match exit {
                Exit::Shutdown => return,
                Exit::Panicked(why) => why,
            };
            shared.scorer_panics.fetch_add(1, Ordering::Relaxed);
            SCORER_PANICS.inc();
            eprintln!("warning: scorer panicked ({why}); supervisor recovering");
            if shared.lock_queue().shutdown {
                drain_queue_on_shutdown(shared);
                return;
            }
            let mut respawned = None;
            while respawns_left > 0 {
                respawns_left -= 1;
                incarnation += 1;
                shared.respawns.fetch_add(1, Ordering::Relaxed);
                RESPAWNS.inc();
                match spawn_scorer(scope, spec, cfg, shared, incarnation) {
                    Ok(handle) => {
                        respawned = Some(handle);
                        break;
                    }
                    Err(e) => eprintln!("warning: scorer respawn failed: {e}"),
                }
            }
            match respawned {
                Some(h) => handle = h,
                None => {
                    // Circuit breaker: answer from the fallback until a
                    // reload brings a healthy scorer back.
                    match degraded_loop(scope, spec, cfg, shared, &mut incarnation) {
                        Some(h) => {
                            handle = h;
                            respawns_left = cfg.max_respawns;
                        }
                        None => return,
                    }
                }
            }
        }
    });
}

/// Degraded mode: the supervisor itself answers requests from the
/// [`FallbackRanker`] (marked `degraded: true`) and treats each reload
/// request as a recovery attempt. Returns the healthy scorer's handle on
/// recovery, or `None` on shutdown (queue fully drained either way).
fn degraded_loop<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    spec: &'env ModelSpec,
    cfg: &'env ServeConfig,
    shared: &'env Shared,
    incarnation: &mut u64,
) -> Option<std::thread::ScopedJoinHandle<'scope, Exit>> {
    shared.degraded.store(true, Ordering::Relaxed);
    DEGRADED.set(1);
    eprintln!(
        "warning: scorer respawn budget exhausted — serving popularity fallback \
         (degraded) until a reload succeeds"
    );
    loop {
        match next_work(shared, 1, Duration::ZERO) {
            Work::Quit => return None,
            Work::Batch(batch) => {
                for js in batch {
                    if let Some(c) = &js.ctx {
                        // Fallback answers are unbatched.
                        c.set_batch_info(false, 1);
                    }
                    let answer = shared.fallback.rank(&js.history, js.k);
                    let answer = answer.map(|items| ServeResponse {
                        items,
                        degraded: true,
                    });
                    js.settle(&shared.tally, answer);
                }
            }
            Work::Reload(slot) => {
                *incarnation += 1;
                match spawn_scorer(scope, spec, cfg, shared, *incarnation) {
                    Ok(handle) => {
                        shared.degraded.store(false, Ordering::Relaxed);
                        DEGRADED.set(0);
                        shared.reloads.fetch_add(1, Ordering::Relaxed);
                        let epoch = shared.epoch.load(Ordering::Relaxed);
                        slot.settle(Ok((epoch != NO_EPOCH).then_some(epoch)), |_| {});
                        return Some(handle);
                    }
                    Err(e) => {
                        let why = format!("reload failed, engine still degraded: {e}");
                        slot.settle(Err(ServeError::Internal(why)), |_| {});
                    }
                }
            }
        }
    }
}

/// Answers every queued job with [`ServeError::Shutdown`] so no caller is
/// left blocked when the engine dies mid-panic-recovery.
fn drain_queue_on_shutdown(shared: &Shared) {
    let jobs = shared.lock_queue().drain();
    for job in jobs {
        job.fail(&shared.tally, ServeError::Shutdown);
    }
}

// ---------------------------------------------------------------------------
// Scorer incarnation
// ---------------------------------------------------------------------------

/// Loads weights into `model` from `source`. Validation is all-before-apply
/// (see `snapshot::load_full` / `load_latest_values_report`), so an invalid
/// source leaves the parameters untouched. Returns the checkpoint epoch
/// loaded, when the source has one. Subject to `corrupt_reload` fault
/// injection.
fn load_weights(
    model: &Isrec,
    source: &ModelSource,
    newer_than: Option<u64>,
    shared: &Shared,
) -> Result<Option<u64>, String> {
    if take_fault(shared, ServeFaultPlan::take_corrupt_reload) {
        return Err("fault injection: weight load treated as corrupt".into());
    }
    let params = model.params();
    match source {
        ModelSource::Snapshot(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("read snapshot {path:?}: {e}"))?;
            let (restored, _) = snapshot::load_full(&params, bytes)?;
            if restored != params.len() {
                return Err(format!(
                    "snapshot {path:?} restored {restored}/{} params — wrong file or config?",
                    params.len()
                ));
            }
            Ok(None)
        }
        ModelSource::CheckpointDir(dir) => {
            let mgr = CheckpointManager::new(dir, 3)?;
            let report = mgr.load_latest_values_report(&params, newer_than);
            if report.skipped > 0 {
                shared
                    .reload_skipped
                    .fetch_add(report.skipped as u64, Ordering::Relaxed);
                RELOAD_SKIPPED.add(report.skipped as u64);
            }
            Ok(report.epoch)
        }
    }
}

enum Work {
    Batch(Vec<QueuedScore>),
    Reload(Arc<Slot<Option<u64>>>),
    Quit,
}

/// Blocks for the next unit of work: a reload, or a batch of admitted
/// requests. After the first request it waits up to `batch_timeout` for
/// more, up to `max_batch`, stopping at a reload so it runs between
/// batches. Overdue requests are answered here, never scored. The schedule
/// explorer (`engine/explore.rs`) replays this loop one step at a time.
fn next_work(shared: &Shared, max_batch: usize, batch_timeout: Duration) -> Work {
    let max_batch = max_batch.max(1);
    let mut batch = Vec::new();
    let mut window = None;
    let mut q = shared.lock_queue();
    loop {
        let now = Instant::now();
        let (expired, reload) = q.pop(now, max_batch, &mut batch);
        for js in expired {
            let budget = js.budget.unwrap_or_default();
            js.settle(&shared.tally, Err(ServeError::DeadlineExceeded { budget }));
        }
        if let Some(slot) = reload {
            return Work::Reload(slot);
        }
        if batch.is_empty() {
            if q.shutdown {
                return Work::Quit;
            }
            q = shared.cond.wait(q).unwrap_or_else(|p| p.into_inner());
            continue;
        }
        let closes = *window.get_or_insert(now + batch_timeout);
        if q.batch_ready(batch.len(), max_batch, now, closes) {
            QUEUE_DEPTH.set(q.score_len as u64);
            for js in &batch {
                if let (Some(c), Some(p)) = (&js.ctx, js.popped) {
                    c.record(Stage::Batch, p.elapsed());
                }
            }
            return Work::Batch(batch);
        }
        let (guard, _) = shared
            .cond
            .wait_timeout(q, closes - now)
            .unwrap_or_else(|p| p.into_inner());
        q = guard;
    }
}

/// One scorer incarnation: build + load (handshaked back to the
/// supervisor), then serve batches and reloads until shutdown or a panic.
/// Every batch and reload runs under `catch_unwind`, and a panic fails only
/// the work that was executing — its requests get a typed
/// [`ServeError::ScorerPanic`] before the incarnation exits.
fn scorer_incarnation(
    spec: &ModelSpec,
    cfg: &ServeConfig,
    shared: &Shared,
    ready_tx: mpsc::Sender<Result<(), String>>,
) -> Exit {
    let built = catch_unwind(AssertUnwindSafe(
        || -> Result<(Isrec, Option<u64>), String> {
            let model = Isrec::new(&spec.dataset, spec.config.clone(), spec.seed);
            let epoch = match load_weights(&model, &spec.source, None, shared)? {
                Some(epoch) => Some(epoch),
                None => match &spec.source {
                    ModelSource::CheckpointDir(dir) => {
                        return Err(format!("no valid checkpoint in {dir:?}"));
                    }
                    ModelSource::Snapshot(_) => None,
                },
            };
            Ok((model, epoch))
        },
    ));
    let (model, mut epoch) = match built {
        Ok(Ok(ok)) => ok,
        Ok(Err(e)) => {
            let _ = ready_tx.send(Err(e));
            return Exit::Shutdown;
        }
        Err(payload) => {
            let _ = ready_tx.send(Err(format!(
                "scorer startup panicked: {}",
                panic_msg(payload.as_ref())
            )));
            return Exit::Shutdown;
        }
    };
    if let Some(e) = epoch {
        shared.epoch.store(e, Ordering::Relaxed);
    }
    let mut catalog = model.output_item_panels();
    let mut cache = ReprCache::new(cfg.cache_entries);
    let _ = ready_tx.send(Ok(()));

    loop {
        match next_work(shared, cfg.max_batch, cfg.batch_timeout) {
            Work::Quit => return Exit::Shutdown,
            Work::Reload(slot) => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    reload_model(spec, &model, &mut epoch, &mut catalog, &mut cache, shared)
                }));
                match outcome {
                    Ok(result) => {
                        if matches!(result, Ok(Some(_)))
                            || matches!(&spec.source, ModelSource::Snapshot(_) if result.is_ok())
                        {
                            shared.reloads.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Ok(Some(e)) = &result {
                            shared.epoch.store(*e, Ordering::Relaxed);
                        }
                        slot.settle(result.map_err(ServeError::Internal), |_| {});
                    }
                    Err(payload) => {
                        let why = panic_msg(payload.as_ref());
                        slot.settle(Err(ServeError::ScorerPanic(why.clone())), |_| {});
                        return Exit::Panicked(why);
                    }
                }
            }
            Work::Batch(batch) => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    process_batch(&model, &catalog, &mut cache, shared, &batch)
                }));
                if let Err(payload) = outcome {
                    // Fail only the poisoned batch: each of its requests
                    // gets a typed error; everyone still queued is served
                    // by the respawned incarnation.
                    let why = panic_msg(payload.as_ref());
                    for js in &batch {
                        js.settle(&shared.tally, Err(ServeError::ScorerPanic(why.clone())));
                    }
                    return Exit::Panicked(why);
                }
            }
        }
    }
}

/// Applies a reload request. The scorer is single-threaded, so swapping the
/// weights + catalog panels between batches is atomic from every caller's
/// view.
fn reload_model(
    spec: &ModelSpec,
    model: &Isrec,
    epoch: &mut Option<u64>,
    catalog: &mut PackedRhs,
    cache: &mut ReprCache,
    shared: &Shared,
) -> Result<Option<u64>, String> {
    let mut swap_catalog = |catalog: &mut PackedRhs| {
        *catalog = model.output_item_panels();
        cache.clear();
    };
    match load_weights(model, &spec.source, *epoch, shared)? {
        Some(new_epoch) => {
            *epoch = Some(new_epoch);
            swap_catalog(catalog);
            Ok(Some(new_epoch))
        }
        None => match &spec.source {
            // Snapshot reload always re-applies the (validated) file.
            ModelSource::Snapshot(_) => {
                swap_catalog(catalog);
                Ok(None)
            }
            ModelSource::CheckpointDir(_) => Ok(None),
        },
    }
}

/// Advances one of the injected fault plan's ordinals. Fast path: one
/// relaxed load once the plan has drained.
fn take_fault<R: Default>(shared: &Shared, take: impl FnOnce(&mut ServeFaultPlan) -> R) -> R {
    if !shared.faults_active.load(Ordering::Relaxed) {
        return R::default();
    }
    let mut plan = shared.faults.lock().unwrap_or_else(|p| p.into_inner());
    let fault = take(&mut plan);
    if plan.is_empty() {
        shared.faults_active.store(false, Ordering::Relaxed);
    }
    fault
}

fn process_batch(
    model: &Isrec,
    catalog: &PackedRhs,
    cache: &mut ReprCache,
    shared: &Shared,
    batch: &[QueuedScore],
) {
    // Fault injection fires before any cache mutation so a poisoned batch
    // leaves no half-written state behind.
    let fault = take_fault(shared, ServeFaultPlan::take_batch);
    if let Some(stall) = fault.slow {
        eprintln!("fault injection: stalling batch {}ms", stall.as_millis());
        std::thread::sleep(stall);
    }
    if fault.panic {
        panic!("fault injection: scorer panic mid-batch");
    }

    let m = batch.len();
    let d = catalog.k();
    let max_len = model.max_len();
    let mut span = ist_obs::Span::enter("serve.batch");
    span.add_field("size", m);
    BATCH_SIZE.record(m as u64);
    // Stage probes are batch-granular: the cache/encode/score work is
    // shared by every request in the batch, so each traced request gets
    // the same interval. One branch when nothing in the batch is traced.
    let any_ctx = batch.iter().any(|r| r.ctx.is_some());
    let stage_started = any_ctx.then(Instant::now);

    // Cache lookup on the *effective* history — the last max_len items are
    // all the encoder ever sees, so longer keys would only split hits.
    let keys: Vec<Vec<usize>> = batch
        .iter()
        .map(|r| r.history[r.history.len().saturating_sub(max_len)..].to_vec())
        .collect();
    let mut rows: Vec<Option<Vec<f32>>> = keys
        .iter()
        .map(|key| cache.get(key).map(<[f32]>::to_vec))
        .collect();
    let hits: Vec<bool> = rows.iter().map(Option::is_some).collect();
    let encode_started = stage_started.map(|t| {
        let now = Instant::now();
        for req in batch {
            if let Some(c) = &req.ctx {
                c.record(Stage::Cache, now.saturating_duration_since(t));
            }
        }
        now
    });

    // One forward pass over the unique missing histories.
    let mut miss_keys: Vec<&[usize]> = Vec::new();
    let mut miss_index: HashMap<&[usize], usize> = HashMap::new();
    for (row, key) in rows.iter().zip(&keys) {
        if row.is_none() && !miss_index.contains_key(key.as_slice()) {
            miss_index.insert(key, miss_keys.len());
            miss_keys.push(key);
        }
    }
    span.add_field("misses", miss_keys.len());
    if !miss_keys.is_empty() {
        let fresh = model.infer_last_repr(&miss_keys);
        for (row, key) in rows.iter_mut().zip(&keys) {
            if row.is_none() {
                let at = miss_index[key.as_slice()];
                *row = Some(fresh.data()[at * d..(at + 1) * d].to_vec());
            }
        }
        for (key, &at) in &miss_index {
            cache.insert(key.to_vec(), fresh.data()[at * d..(at + 1) * d].to_vec());
        }
    }
    if let Some(t) = encode_started {
        let dur = t.elapsed();
        for (req, &hit) in batch.iter().zip(&hits) {
            if let Some(c) = &req.ctx {
                c.record(Stage::Encode, dur);
                c.set_batch_info(hit, m);
            }
        }
    }

    // Publish counters *before* settling any slot: a caller that wakes up
    // from its response must already see this batch in `stats()`.
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared.max_batch.fetch_max(m as u64, Ordering::Relaxed);
    let (hits, misses) = cache.stats();
    shared.cache_hits.store(hits, Ordering::Relaxed);
    shared.cache_misses.store(misses, Ordering::Relaxed);

    // Catalog scoring is one GEMM that reads the item table's panels,
    // packed once per load, in place — the GEMM splits a short batch by
    // columns across the pool — then one bounded-heap top-K per row, row
    // blocks spread over the pool. Each score's bits depend only on its
    // own representation row, so ranking is bitwise independent of the
    // batch makeup and the pool size. A row that failed to resolve fails
    // only its own request.
    let mut resolved: Vec<usize> = Vec::with_capacity(m);
    let mut stacked: Vec<f32> = Vec::with_capacity(m * d);
    for (i, (row, req)) in rows.iter().zip(batch).enumerate() {
        match row {
            Some(r) => {
                resolved.push(i);
                stacked.extend_from_slice(r);
            }
            None => {
                let why = "representation row unresolved after forward pass".to_string();
                req.settle(&shared.tally, Err(ServeError::Internal(why)));
            }
        }
    }
    if resolved.is_empty() {
        return;
    }
    let reprs = Tensor::from_vec(stacked, &[resolved.len(), d]);
    let score_started = Instant::now();
    let scores = matmul_packed(&reprs, catalog);
    let merge_started = Instant::now();
    let n = catalog.n();
    let row_scores: Vec<(&[f32], usize)> = resolved
        .iter()
        .enumerate()
        .map(|(r, &i)| (&scores.data()[r * n..(r + 1) * n], batch[i].k))
        .collect();
    let rank = |rows: &[(&[f32], usize)]| -> Vec<Result<Vec<Recommendation>, String>> {
        rows.iter().map(|&(row, k)| top_k(row, k)).collect()
    };
    // Rows rank independently: a batch with enough scores to scan spreads
    // contiguous row blocks over the pool.
    let rows_per = row_scores.len().div_ceil(pool::global().threads());
    let ranked = if rows_per < row_scores.len()
        && pool::should_parallelize(row_scores.len() * n, pool::ELEM_GRAIN)
    {
        pool::parallel_map_chunks(&row_scores, rows_per, rank)
            .into_iter()
            .flatten()
            .collect()
    } else {
        rank(&row_scores)
    };
    let (score_dur, merge_dur) = (merge_started - score_started, merge_started.elapsed());

    for (&i, items) in resolved.iter().zip(ranked) {
        let req = &batch[i];
        if let Some(c) = &req.ctx {
            c.record(Stage::Score, score_dur);
            c.record(Stage::Merge, merge_dur);
        }
        let answer = items
            .map_err(ServeError::Internal)
            .map(|items| ServeResponse {
                items,
                degraded: false,
            });
        req.settle(&shared.tally, answer);
    }
}

#[cfg(test)]
mod explore;
