//! # ist-serve
//!
//! Batched online inference for ISRec: the missing piece between "a model
//! that scores batches offline" and "a service that answers recommendation
//! requests". The centrepiece is [`ScoreEngine`], which owns a model on a
//! dedicated scorer thread and exposes a thread-safe
//! [`recommend`](ScoreEngine::recommend) answering top-K requests.
//!
//! ## Architecture
//!
//! The model is `!Send` (its parameters are `Rc`-shared with the tape
//! machinery), so the engine never moves it: a [`ModelSpec`] — dataset,
//! config, seed, and a weight [`ModelSource`] — is shipped to a scorer
//! thread that builds and owns the model for its lifetime. Callers talk to
//! it through a queue:
//!
//! * **Micro-batching** — the scorer drains the queue into one forward
//!   pass: after the first request arrives it waits up to
//!   `IST_SERVE_BATCH_TIMEOUT_US` for more, up to `IST_SERVE_BATCH`
//!   requests per batch. Because every stage of the inference forward is
//!   row-independent (see `Isrec::infer_last_repr`), batching **never
//!   changes scores** — a guarantee the CI serve stage enforces bitwise.
//! * **Repr caching** — the expensive half of a request (transformer +
//!   intent pipeline) depends only on the effective history (its last
//!   `max_len` items), so final-position representations are cached in an
//!   LRU ([`ReprCache`], capacity `IST_SERVE_CACHE`). Hits skip the
//!   encoder entirely and re-score via the same GEMM as misses, so a
//!   cached answer is bitwise identical to a cold one.
//! * **Catalog scoring** — one `ist_tensor` GEMM of the batch's
//!   representations against the item table, which is packed into the
//!   GEMM's panel layout once per model load and reload and read in
//!   place by every batch. At serving batch sizes the product is short
//!   and wide, and the GEMM itself splits it into column blocks across
//!   the pool; each score's bits depend only on its own representation
//!   row, whatever the pool size.
//! * **Top-K retrieval** — each row of scores is reduced by a bounded
//!   binary heap ([`top_k`]): `O(n log k)`, no full sort, non-finite
//!   scores rejected, ties broken toward the smaller item id. A cached
//!   threshold (the worst kept score) keeps the scan to one compare per
//!   item; a multi-row batch over a large catalog ranks row blocks on the
//!   pool.
//! * **Hot reload** — [`ScoreEngine::reload`] re-checks the weight source;
//!   a strictly newer checkpoint that passes *all* integrity checks swaps
//!   the weights atomically (validate-before-apply) and clears the cache,
//!   while a torn/corrupt file is skipped and the old model keeps serving.
//!
//! ## Resilience
//!
//! Every call returns a typed [`ServeError`] rather than blocking forever
//! or propagating a panic:
//!
//! * **Deadlines** — [`ScoreEngine::recommend_with_deadline`] (default via
//!   `IST_SERVE_DEADLINE_MS`) is enforced at admission, at batch-assembly
//!   time, and caller-side, answering `DeadlineExceeded` on time whatever
//!   state the scorer is in.
//! * **Load shedding** — the admission queue is bounded
//!   (`IST_SERVE_QUEUE`); when full, the queued request with the oldest
//!   deadline is answered `Shed` (counter `serve.shed`).
//! * **Panic recovery** — batches run under `catch_unwind`; a panic fails
//!   only the poisoned batch (`ScorerPanic`) and a supervisor respawns the
//!   scorer with freshly-loaded weights, up to `IST_SERVE_MAX_RESPAWNS`
//!   times.
//! * **Degraded mode** — once the respawn budget is exhausted, a
//!   zero-dependency popularity/recency [`FallbackRanker`] keeps answering
//!   (responses marked `degraded: true`, gauge `serve.degraded`) until a
//!   [`reload`](ScoreEngine::reload) brings a healthy scorer back.
//! * **Fault injection** — `IST_SERVE_FAULTS`
//!   (`panic@batchN|slow@batchN:MS|corrupt_reload@K`, see
//!   [`ServeFaultPlan`]) makes all of the above deterministic enough for
//!   ordinary tests and the CI chaos gate. With no faults injected, the
//!   resilience layer never changes a score: fault-free serving stays
//!   bitwise identical.
//!
//! ## Observability
//!
//! Instrumentation rides on `ist-obs`: a `serve.request` span + latency
//! histogram (p50/p95/p99 in the summary table) per request and a
//! `serve.batch` span per forward pass. On top of that, every request can
//! carry a trace context (`ist_obs::reqctx`) through the whole pipeline —
//! queue wait, batch assembly, cache lookup, encode, score (the catalog
//! GEMM), merge (per-row top-K), reply — feeding a structured access log
//! (`IST_SERVE_ACCESS_LOG`), a slowest-request exemplar reservoir, a live
//! `/metrics` + `/healthz` endpoint (`IST_METRICS_ADDR`,
//! `ist_obs::export`), and a rolling
//! p99/error-rate [`SloMonitor`] ([`slo`], `IST_SERVE_SLO_MS` /
//! `IST_SERVE_SLO_ERR_PCT`). All of it is bitwise invisible to scores:
//! when off, each probe costs one relaxed atomic load, and when on it only
//! observes — the CI serve stage enforces identical `scores_crc` either
//! way.

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod fallback;
pub mod resilience;
pub mod slo;
pub mod topk;

pub use cache::ReprCache;
pub use engine::{
    EngineStats, ModelSource, ModelSpec, Recommendation, ScoreEngine, ServeConfig, ServeResponse,
};
pub use error::ServeError;
pub use fallback::FallbackRanker;
pub use resilience::{BatchFault, ServeFaultPlan};
pub use slo::{SloConfig, SloMonitor, SloSnapshot};
pub use topk::top_k;
