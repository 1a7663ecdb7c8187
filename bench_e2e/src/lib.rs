//! End-to-end and per-layer benchmark of the ISRec system.
//!
//! Three seeded workloads drive the public API — `Isrec::fit` on the
//! training side, `ScoreEngine::start` + `recommend` on the serving side —
//! and report user-visible numbers from untraced runs. With `trace` set, a
//! second, fully instrumented pass (metrics registry, in-memory access log,
//! chrome-trace ring) plus direct timings of each layer's public functions
//! give the per-layer breakdown. Nothing here adds a probe to the program:
//! every per-layer number is either timed from this crate or read from
//! registry data the program already exposes.
//!
//! `layers.json` beside this crate records why each workload exists and
//! which end-to-end metric each per-layer metric should move.

use std::collections::BTreeMap;

pub mod host;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod serve;
pub mod stats;
pub mod train;

/// Client threads of every serve workload: a closed loop, each client
/// sending its next request only after the previous one returned, as the
/// `isrec serve` replay clients do.
pub const CLIENTS: usize = 2;

/// Top-K depth of every request.
pub const K: usize = 10;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
///
/// `throughput_per_s` is optimizer steps per second on `train-beauty` and
/// completed requests per second on the serve workloads; the latencies are
/// per optimizer step and per request (client-side) respectively.
/// The bounded upper percentile is p75. On a shared 2-core host, other
/// tenants' CPU bursts delay a few percent of requests by milliseconds: a
/// neighbour burning a quarter of one core raised `serve-catalog`'s p95 by
/// 60–70% and its p75 by under 10%. The untraced p95 and p99 are reported,
/// unbounded, as the per-layer `e2e.latency_p95_us` and
/// `e2e.latency_p99_us`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p75_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Autograd op kinds reported per optimizer step: the twelve costliest
/// (forward + backward) in a `train-beauty` profile.
pub const AUTOGRAD_OPS: [&str; 12] = [
    "matmul",
    "sum_lastdim",
    "mul",
    "reshape",
    "transpose_01",
    "cross_entropy_rows",
    "gumbel_topk_st",
    "add",
    "relu",
    "bmm",
    "softmax_lastdim",
    "cosine_similarity_rows",
];

/// Serving stages of the reqctx access log, in pipeline order.
pub const STAGES: [&str; 7] = [
    "queue", "batch", "cache", "encode", "score", "merge", "reply",
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// the workload does not exercise reads 0 (e.g. the trainer on a serve
/// workload, the encoder on `serve-catalog`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for stage in STAGES {
        out.push((format!("serve.{stage}_us.p50"), "us"));
        out.push((format!("serve.{stage}_us.p99"), "us"));
    }
    for (name, unit) in [
        ("serve.batch_size.mean", "req"),
        ("serve.cache.hit_ratio", "ratio"),
        ("serve.topk_us", "us"),
        ("serve.cache.get_ns", "ns"),
        ("serve.cache.insert_ns", "ns"),
        ("core.infer_last_repr.us_per_row.b1", "us"),
        ("core.infer_last_repr.us_per_row.b2", "us"),
        ("core.output_item_table_t_ms", "ms"),
        ("nn.attention.ms", "ms"),
        ("nn.ffn.ms", "ms"),
        ("nn.gcn.ms", "ms"),
        ("nn.intent_mlp.ms", "ms"),
        ("tensor.matmul.catalog_us.b1", "us"),
        ("tensor.matmul.catalog_us.b2", "us"),
        ("tensor.gemm.gflops", "GFLOP/s"),
        ("serve.shard.gflops", "GFLOP/s"),
        ("tensor.peak_mb", "MB"),
        ("data.inference_batch_us", "us"),
        ("train.steps", "count"),
        ("train.forward_ms", "ms"),
        ("train.backward_ms", "ms"),
        ("train.opt_ms", "ms"),
    ] {
        out.push((name.to_string(), unit));
    }
    for op in AUTOGRAD_OPS {
        out.push((format!("autograd.op.{op}.fwd_ms"), "ms"));
        out.push((format!("autograd.op.{op}.bwd_ms"), "ms"));
    }
    out.push(("autograd.coverage".to_string(), "ratio"));
    out.push(("obs.overhead_pct".to_string(), "%"));
    out.push(("e2e.latency_p95_us".to_string(), "us"));
    out.push(("e2e.latency_p99_us".to_string(), "us"));
    out
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Isrec::fit`, 2 epochs on the beauty-like world at scale 1.
    TrainBeauty,
    /// Distinct histories against a model trained for one epoch: every
    /// request misses the representation cache and runs the encoder.
    ServeMiss,
    /// A 128× catalog and a working set below the cache size: every timed
    /// request hits the cache, so time goes to catalog GEMM and top-K.
    ServeCatalog,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TrainBeauty,
        Workload::ServeMiss,
        Workload::ServeCatalog,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainBeauty => "train-beauty",
            Workload::ServeMiss => "serve-miss",
            Workload::ServeCatalog => "serve-catalog",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes the benchmark runs this workload at.
    pub fn sizing(self) -> Sizing {
        match self {
            Workload::TrainBeauty => Sizing {
                world_scale: 1.0,
                epochs: 2,
                setup_reps: 3,
            },
            Workload::ServeMiss => Sizing {
                world_scale: 1.0,
                epochs: 1,
                setup_reps: 21,
            },
            Workload::ServeCatalog => Sizing {
                world_scale: 128.0,
                epochs: 0,
                setup_reps: 5,
            },
        }
    }
}

/// How big one workload run is. Tests shrink these; the benchmark uses
/// [`Workload::sizing`].
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// `WorldConfig::beauty_like().scaled(world_scale)`.
    pub world_scale: f64,
    /// Training epochs: per timed fit on `train-beauty`, of the one-time
    /// weight preparation on `serve-miss`; unused on `serve-catalog`.
    pub epochs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Workload seed: world, request stream and model initialisation.
    pub seed: u64,
    /// Length of the timed phase (and of the traced pass), seconds.
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Workload size.
    pub sizing: Sizing,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (optimizer steps or
    /// requests).
    pub attempted: u64,
    /// Attempted operations that failed (non-finite steps or error
    /// responses).
    pub failed: u64,
    /// Untraced end-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub per_layer: BTreeMap<String, f64>,
    /// Human-readable report lines (sample counts, fingerprints, host).
    pub notes: Vec<String>,
    /// Failed output checks; the run is correct only when this is empty.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Runs `workload` once. `Err` means the run could not be set up at all
/// (no result is printed for it); failed output checks land in
/// [`Outcome::problems`] instead.
pub fn run(workload: Workload, opts: &RunOpts) -> Result<Outcome, String> {
    match workload {
        Workload::TrainBeauty => train::run(opts),
        Workload::ServeMiss | Workload::ServeCatalog => serve::run(workload, opts),
    }
}

/// The model configuration every workload uses: the defaults, with the
/// serving stack's `max_len` of 20.
pub fn model_config() -> isrec_core::IsrecConfig {
    isrec_core::IsrecConfig {
        max_len: 20,
        d: 32,
        ..Default::default()
    }
}

/// The world every workload draws from.
pub fn world(scale: f64, seed: u64) -> ist_data::SequentialDataset {
    ist_data::IntentWorld::new(ist_data::WorldConfig::beauty_like().scaled(scale)).generate(seed)
}
