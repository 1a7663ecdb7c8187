//! Per-layer numbers: arming the program's existing probes for a traced
//! pass, reading what they recorded, and timing each layer's public
//! functions directly from here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::{Arc, Mutex};

use isrec_core::Isrec;
use ist_obs::reqctx;
use ist_serve::{top_k, ReprCache};
use ist_tensor::matmul::matmul;

use crate::json;
use crate::stats::{median, median_secs, quantile, sorted};
use crate::{K, STAGES};

/// Capacity of the engine's default representation cache.
pub const CACHE_ENTRIES: usize = 1024;

/// An in-memory access-log sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("access-log buffer lock")
            .extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every probe the program has, armed for one traced pass: the metrics
/// registry (`Mode::Collect`, which also feeds the autograd op profiler
/// and tensor memory accounting), the reqctx access log (into memory) and
/// the chrome-trace ring. Dropping it turns everything dark again.
pub struct Armed {
    log: SharedBuf,
}

impl Armed {
    /// Clears every aggregate and arms the probes. Engines must be started
    /// after this: the SLO monitor latches `reqctx::active()` at start.
    pub fn arm() -> Armed {
        ist_obs::reset();
        ist_obs::trace::reset();
        reqctx::reset_exemplars();
        let log = SharedBuf::default();
        reqctx::set_access_log_writer(Box::new(log.clone()));
        ist_obs::set_mode(ist_obs::Mode::Collect);
        ist_obs::trace::set_enabled(true);
        Armed { log }
    }

    /// Removes and returns the access-log lines written so far.
    pub fn take_access_lines(&self) -> Vec<String> {
        let bytes = std::mem::take(&mut *self.log.0.lock().expect("access-log buffer lock"));
        String::from_utf8_lossy(&bytes)
            .lines()
            .map(str::to_string)
            .collect()
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        ist_obs::set_mode(ist_obs::Mode::Off);
        ist_obs::trace::set_enabled(false);
        reqctx::disable_access_log();
    }
}

/// One registry timer's aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimerStat {
    /// Total recorded time, microseconds.
    pub elapsed_us: f64,
    /// Recorded calls.
    pub count: f64,
    /// Recorded work units (FLOPs for `tensor.gemm`).
    pub units: f64,
}

impl TimerStat {
    /// The activity between `earlier` and `self`.
    pub fn since(self, earlier: TimerStat) -> TimerStat {
        TimerStat {
            elapsed_us: self.elapsed_us - earlier.elapsed_us,
            count: self.count - earlier.count,
            units: self.units - earlier.units,
        }
    }

    /// Mean milliseconds per call (0 without calls).
    pub fn ms_per_call(self) -> f64 {
        if self.count > 0.0 {
            self.elapsed_us / 1e3 / self.count
        } else {
            0.0
        }
    }
}

/// The registry's timers and counters/gauges, parsed from
/// `ist_obs::snapshot_json()`.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    /// Timers by name.
    pub timers: BTreeMap<String, TimerStat>,
    /// Counters and gauges by name.
    pub counters: BTreeMap<String, f64>,
}

impl Registry {
    /// Reads the registry now.
    pub fn snapshot() -> Registry {
        let mut reg = Registry::default();
        for line in ist_obs::snapshot_json() {
            let Some(obj) = json::parse_flat(&line) else {
                continue;
            };
            if let (Some(name), Some(count)) = (json::str(&obj, "span"), json::num(&obj, "count")) {
                reg.timers.insert(
                    name.to_string(),
                    TimerStat {
                        elapsed_us: json::num(&obj, "elapsed_us").unwrap_or(0.0),
                        count,
                        units: json::num(&obj, "units").unwrap_or(0.0),
                    },
                );
            } else if let (Some(name), Some(value)) =
                (json::str(&obj, "counter"), json::num(&obj, "value"))
            {
                reg.counters.insert(name.to_string(), value);
            }
        }
        reg
    }

    /// A timer's aggregate (zero when it never fired).
    pub fn timer(&self, name: &str) -> TimerStat {
        self.timers.get(name).copied().unwrap_or_default()
    }

    /// Records the registry-derived layer metrics for the activity since
    /// `earlier`: the `nn.*` timers (ms per call), the GEMM rate and the
    /// tensor high-water mark.
    pub fn layer_metrics_since(&self, earlier: &Registry, m: &mut BTreeMap<String, f64>) {
        for name in ["nn.attention", "nn.ffn", "nn.gcn", "nn.intent_mlp"] {
            let t = self.timer(name).since(earlier.timer(name));
            m.insert(format!("{name}.ms"), t.ms_per_call());
        }
        // `tensor.gemm` times `matmul`; catalog scoring runs column blocks
        // through `gemm_cols` under `serve.shard` instead.
        for (timer, metric) in [
            ("tensor.gemm", "tensor.gemm.gflops"),
            ("serve.shard", "serve.shard.gflops"),
        ] {
            let t = self.timer(timer).since(earlier.timer(timer));
            let gflops = if t.elapsed_us > 0.0 {
                t.units / (t.elapsed_us * 1e-6) / 1e9
            } else {
                0.0
            };
            m.insert(metric.into(), gflops);
        }
        let peak = self
            .counters
            .get("tensor.peak_bytes")
            .copied()
            .unwrap_or(0.0);
        m.insert("tensor.peak_mb".into(), peak / (1024.0 * 1024.0));
    }
}

/// Serving-stage metrics from reqctx access-log lines: p50/p99 of each
/// stage's micros, the hit ratio, and the mean batch size per forward pass
/// (each request line carries the size `b` of its batch, so a batch
/// contributes `b · 1/b = 1` to `Σ 1/b`). Returns how many lines counted;
/// lines that are not successful requests are reported in `problems`.
pub fn stage_metrics(
    lines: &[String],
    m: &mut BTreeMap<String, f64>,
    problems: &mut Vec<String>,
) -> usize {
    let mut stage_us: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let (mut n, mut hits, mut inv_batch) = (0usize, 0usize, 0.0f64);
    for line in lines {
        let Some(obj) = json::parse_flat(line) else {
            problems.push(format!("unparseable access-log line: {line}"));
            continue;
        };
        if json::str(&obj, "outcome") != Some("ok") {
            problems.push(format!("traced request did not succeed: {line}"));
            continue;
        }
        n += 1;
        for (samples, stage) in stage_us.iter_mut().zip(STAGES) {
            samples.push(json::num(&obj, &format!("{stage}_us")).unwrap_or(0.0));
        }
        if json::bool(&obj, "cache_hit") == Some(true) {
            hits += 1;
        }
        let batch = json::num(&obj, "batch").unwrap_or(1.0).max(1.0);
        inv_batch += 1.0 / batch;
    }
    for (samples, stage) in stage_us.into_iter().zip(STAGES) {
        let s = sorted(samples);
        m.insert(format!("serve.{stage}_us.p50"), quantile(&s, 0.5));
        m.insert(format!("serve.{stage}_us.p99"), quantile(&s, 0.99));
    }
    if n > 0 {
        m.insert("serve.cache.hit_ratio".into(), hits as f64 / n as f64);
        m.insert("serve.batch_size.mean".into(), n as f64 / inv_batch);
    }
    n
}

/// Times the public functions of each layer on `model` with the workload's
/// `histories`, and the representation cache with the workload's
/// `cache_keys` (effective histories in request order), recording:
/// `core.*`, `tensor.matmul.catalog_us.*`, `serve.topk_us`,
/// `serve.cache.*` and `data.inference_batch_us`. Run with probes dark.
pub fn time_layers(
    model: &Isrec,
    histories: &[Vec<usize>],
    cache_keys: &[Vec<usize>],
    m: &mut BTreeMap<String, f64>,
) {
    assert!(histories.len() >= 2, "layer timings need two histories");
    let mut table_t = None;
    let secs = median_secs(3, 10, 0.5, || table_t = Some(model.output_item_table_t()));
    m.insert("core.output_item_table_t_ms".into(), secs * 1e3);
    let table_t = table_t.expect("timed at least once");

    let h = |i: usize| histories[i % histories.len()].as_slice();
    let mut i = 0;
    let secs = median_secs(5, 400, 0.25, || {
        black_box(model.infer_last_repr(&[h(i)]));
        i += 1;
    });
    m.insert("core.infer_last_repr.us_per_row.b1".into(), secs * 1e6);
    let secs = median_secs(5, 400, 0.25, || {
        black_box(model.infer_last_repr(&[h(i), h(i + 1)]));
        i += 2;
    });
    m.insert(
        "core.infer_last_repr.us_per_row.b2".into(),
        secs * 1e6 / 2.0,
    );

    let r1 = model.infer_last_repr(&[h(0)]);
    let r2 = model.infer_last_repr(&[h(0), h(1)]);
    let secs = median_secs(5, 400, 0.25, || {
        black_box(matmul(&r1, &table_t));
    });
    m.insert("tensor.matmul.catalog_us.b1".into(), secs * 1e6);
    let secs = median_secs(5, 400, 0.25, || {
        black_box(matmul(&r2, &table_t));
    });
    m.insert("tensor.matmul.catalog_us.b2".into(), secs * 1e6);

    let scores = matmul(&r1, &table_t);
    let secs = median_secs(5, 1000, 0.1, || {
        black_box(top_k(scores.data(), K).expect("finite scores"));
    });
    m.insert("serve.topk_us".into(), secs * 1e6);

    const BLOCK: usize = 64;
    let batcher = model.batcher(1);
    let secs = median_secs(5, 1000, 0.05, || {
        for j in 0..BLOCK {
            black_box(batcher.inference_batch(&[h(j)]));
        }
    });
    m.insert("data.inference_batch_us".into(), secs * 1e6 / BLOCK as f64);

    let (get_ns, insert_ns) = time_cache(cache_keys, r1.data());
    m.insert("serve.cache.get_ns".into(), get_ns);
    m.insert("serve.cache.insert_ns".into(), insert_ns);
}

/// `ReprCache` at the engine's default capacity, replaying `keys` the way
/// the scorer does. After a warming pass the cache holds the last
/// [`CACHE_ENTRIES`] distinct keys; the timed pass re-inserts every key
/// (an insert plus an eviction when the stream cycles through more keys
/// than the cache holds, an overwrite otherwise), and the lookup pass
/// gets the keys that came before the resident tail (all misses on a
/// stream of distinct keys, all hits on a small working set). Returns
/// median ns per `(get, insert)` over five repetitions.
fn time_cache(keys: &[Vec<usize>], repr: &[f32]) -> (f64, f64) {
    assert!(!keys.is_empty(), "cache timing needs keys");
    let lookups = &keys[..keys.len().saturating_sub(CACHE_ENTRIES).max(1)];
    let (mut gets, mut inserts) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut cache = ReprCache::new(CACHE_ENTRIES);
        for key in keys {
            cache.insert(key.clone(), repr.to_vec());
        }
        let entries: Vec<(Vec<usize>, Vec<f32>)> =
            keys.iter().map(|k| (k.clone(), repr.to_vec())).collect();
        let t = std::time::Instant::now();
        for (key, value) in entries {
            cache.insert(key, value);
        }
        inserts.push(t.elapsed().as_nanos() as f64 / keys.len() as f64);
        let t = std::time::Instant::now();
        for key in lookups {
            black_box(cache.get(key).is_some());
        }
        gets.push(t.elapsed().as_nanos() as f64 / lookups.len() as f64);
    }
    (median(&gets), median(&inserts))
}
