//! The serve workloads: a closed loop of [`CLIENTS`] threads calling
//! `ScoreEngine::recommend` against an engine started with
//! `ServeConfig::default()`.
//!
//! * `serve-miss` — weights from one training epoch; every request is a
//!   distinct history, so the representation cache never hits and each
//!   request runs the encoder.
//! * `serve-catalog` — seeded untrained weights over a 128× catalog; a
//!   working set smaller than the cache is replayed once before timing, so
//!   every timed request hits and the time goes to catalog scoring.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use isrec_core::{snapshot, Isrec, IsrecConfig, SequentialRecommender as _, TrainConfig};
use ist_data::{LeaveOneOut, SequentialDataset};
use ist_nn::Module as _;
use ist_serve::engine::{ModelSource, ModelSpec, ServeResponse};
use ist_serve::{ScoreEngine, ServeConfig, ServeError};
use ist_tensor::rng::{SeedRng, SeedRngExt as _};
use rand::seq::SliceRandom;

use crate::host::{peak_rss_mb, Host};
use crate::layers::{self, Armed, Registry};
use crate::oracle;
use crate::stats::{median, quantile, sorted};
use crate::{model_config, world, Outcome, RunOpts, Workload, CLIENTS, K};

/// Untimed warm-up requests on `serve-miss` (histories kept out of the
/// timed stream, so the timed requests still miss).
const MISS_WARM: usize = 64;
/// `serve-catalog`'s working set: below the 1 024-entry cache.
pub const WORKING_SET: usize = 256;
/// Timed `serve-catalog` requests before the stream repeats (seeded
/// passes over the working set).
const CATALOG_STREAM: usize = 16 * WORKING_SET;
/// Requests per run compared against the offline reference.
const REFERENCE_SAMPLE: usize = 16;
/// Leading requests whose `scores_crc` must match between the untraced and
/// the traced pass.
const CRC_REQUESTS: usize = 256;
/// Salt separating the request-stream RNG from the world and model seeds.
const STREAM_SALT: u64 = 0x5eed_5e7e;

/// A workload's request histories.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Streams {
    /// Sent once, untimed, after the engine starts.
    pub warm: Vec<Vec<usize>>,
    /// The timed stream; request `i` sends `timed[i % timed.len()]`.
    pub timed: Vec<Vec<usize>>,
}

/// The last `max_len` items: all the encoder sees, and the cache key.
fn effective(history: &[usize], max_len: usize) -> &[usize] {
    &history[history.len().saturating_sub(max_len)..]
}

/// `serve-miss` inputs: every prefix of every user whose effective history
/// no earlier prefix shares, in seeded order; the last [`MISS_WARM`] are
/// the warm-up. The pool is many times the cache size, so a history comes
/// round again only long after LRU evicted it.
pub fn miss_streams(ds: &SequentialDataset, max_len: usize, seed: u64) -> Streams {
    let mut seen: HashSet<&[usize]> = HashSet::new();
    let mut pool: Vec<Vec<usize>> = Vec::new();
    for seq in &ds.sequences {
        for end in 1..=seq.len() {
            if seen.insert(effective(&seq[..end], max_len)) {
                pool.push(seq[..end].to_vec());
            }
        }
    }
    pool.shuffle(&mut SeedRng::seed(seed ^ STREAM_SALT));
    let warm = pool.split_off(pool.len().saturating_sub(MISS_WARM));
    Streams { warm, timed: pool }
}

/// `serve-catalog` inputs: [`WORKING_SET`] users' histories with distinct
/// effective histories, chosen by the seed, as the warm-up; the timed
/// stream is seeded passes over that working set.
pub fn catalog_streams(ds: &SequentialDataset, max_len: usize, seed: u64) -> Streams {
    let mut rng = SeedRng::seed(seed ^ STREAM_SALT);
    let mut users: Vec<usize> = (0..ds.sequences.len()).collect();
    users.shuffle(&mut rng);
    let mut seen: HashSet<&[usize]> = HashSet::new();
    let working: Vec<Vec<usize>> = users
        .into_iter()
        .map(|u| ds.sequences[u].as_slice())
        .filter(|h| !h.is_empty() && seen.insert(effective(h, max_len)))
        .take(WORKING_SET)
        .map(<[usize]>::to_vec)
        .collect();
    let mut timed = Vec::with_capacity(CATALOG_STREAM);
    while timed.len() < CATALOG_STREAM {
        let mut pass = working.clone();
        pass.shuffle(&mut rng);
        timed.extend(pass);
    }
    Streams {
        warm: working,
        timed,
    }
}

/// One request of a closed loop.
pub struct Record {
    /// Position in the request stream.
    pub index: usize,
    /// When it was sent, seconds after the loop started.
    pub sent_s: f64,
    /// Client-side latency, microseconds.
    pub latency_us: f64,
    /// What the engine answered.
    pub result: Result<ServeResponse, ServeError>,
}

/// A closed loop's requests (ordered by stream index) and wall time.
pub struct LoopRun {
    /// Every request sent.
    pub records: Vec<Record>,
    /// First send to last answer, seconds.
    pub elapsed_s: f64,
}

/// Runs [`CLIENTS`] closed-loop clients over `stream` (request `i` sends
/// `stream[i % len]`) until `limit` requests were sent or `seconds`
/// passed, whichever comes first.
pub fn closed_loop(
    engine: &ScoreEngine,
    stream: &[Vec<usize>],
    limit: Option<usize>,
    seconds: f64,
) -> LoopRun {
    assert!(!stream.is_empty(), "empty request stream");
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds.min(1e6));
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if limit.is_some_and(|n| index >= n) {
                            break;
                        }
                        let t = Instant::now();
                        let result = engine.recommend(&stream[index % stream.len()], K);
                        let latency_us = t.elapsed().as_secs_f64() * 1e6;
                        out.push(Record {
                            index,
                            sent_s: (t - started).as_secs_f64(),
                            latency_us,
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("serve client panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    records.sort_by_key(|r| r.index);
    LoopRun { records, elapsed_s }
}

/// A timed loop's end-to-end numbers. The loop is cut into one-second
/// windows by send time and each number is the median over windows, so a
/// burst of interference from other tenants of a shared host moves one
/// window rather than the run.
struct Windowed {
    throughput: f64,
    p50: f64,
    p75: f64,
    p95: f64,
    p99: f64,
    windows: usize,
}

fn windowed(run: &LoopRun, seconds: f64) -> Windowed {
    let n = (seconds.floor() as usize).max(1);
    let len = seconds / n as f64;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n];
    for r in &run.records {
        windows[((r.sent_s / len) as usize).min(n - 1)].push(r.latency_us);
    }
    windows.retain(|w| !w.is_empty());
    let rate: Vec<f64> = windows.iter().map(|w| w.len() as f64 / len).collect();
    let lat: Vec<Vec<f64>> = windows.iter().map(|w| sorted(w.clone())).collect();
    let over_windows = |q: f64| median(&lat.iter().map(|l| quantile(l, q)).collect::<Vec<_>>());
    Windowed {
        throughput: median(&rate),
        p50: over_windows(0.5),
        p75: over_windows(0.75),
        p95: over_windows(0.95),
        p99: over_windows(0.99),
        windows: windows.len(),
    }
}

/// A per-process scratch directory inside the working directory (the
/// engine loads weights from a file), removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// One set-up's products.
struct Live {
    ds: SequentialDataset,
    model: Isrec,
    streams: Streams,
    engine: ScoreEngine,
    snapshot: PathBuf,
}

fn start_engine(
    ds: &SequentialDataset,
    cfg: &IsrecConfig,
    seed: u64,
    snapshot: &Path,
) -> Result<ScoreEngine, String> {
    ScoreEngine::start(
        ModelSpec {
            dataset: ds.clone(),
            config: cfg.clone(),
            seed,
            source: ModelSource::Snapshot(snapshot.to_path_buf()),
        },
        ServeConfig::default(),
    )
}

/// Sends `warm` once; every request must succeed.
fn warm_pass(engine: &ScoreEngine, warm: &[Vec<usize>]) -> Result<(), String> {
    for r in closed_loop(engine, warm, Some(warm.len()), f64::INFINITY).records {
        r.result
            .map_err(|e| format!("warm-up request {} failed: {e}", r.index))?;
    }
    Ok(())
}

/// World generation, model build, snapshot, engine start and warm pass:
/// what `setup_s` times.
fn set_up(
    workload: Workload,
    opts: &RunOpts,
    cfg: &IsrecConfig,
    trained: Option<&[u8]>,
    snapshot_path: PathBuf,
) -> Result<Live, String> {
    let ds = world(opts.sizing.world_scale, opts.seed);
    let model = Isrec::new(&ds, cfg.clone(), opts.seed);
    let bytes = match trained {
        Some(bytes) => {
            snapshot::load(&model.params(), bytes.to_vec().into())?;
            bytes.to_vec()
        }
        None => snapshot::save(&model.params())?.to_vec(),
    };
    std::fs::write(&snapshot_path, &bytes).map_err(|e| format!("write {snapshot_path:?}: {e}"))?;
    let streams = match workload {
        Workload::ServeMiss => miss_streams(&ds, cfg.max_len, opts.seed),
        _ => catalog_streams(&ds, cfg.max_len, opts.seed),
    };
    let engine = start_engine(&ds, cfg, opts.seed, &snapshot_path)?;
    warm_pass(&engine, &streams.warm)?;
    Ok(Live {
        ds,
        model,
        streams,
        engine,
        snapshot: snapshot_path,
    })
}

/// Weights for `serve-miss`: `Isrec::fit` for `epochs` on the seed's world,
/// snapshotted. Done once per run, before (and outside) the timed set-ups.
fn train_weights(opts: &RunOpts, cfg: &IsrecConfig) -> Result<Vec<u8>, String> {
    let ds = world(opts.sizing.world_scale, opts.seed);
    let split = LeaveOneOut::split(&ds.sequences);
    let mut model = Isrec::new(&ds, cfg.clone(), opts.seed);
    let report = model.fit(
        &ds,
        &split,
        &TrainConfig {
            epochs: opts.sizing.epochs,
            batch_size: 64,
            seed: opts.seed,
            ..Default::default()
        },
    );
    if report.epoch_losses.iter().any(|l| !l.is_finite()) || !report.recovery.is_empty() {
        return Err(format!(
            "weight preparation did not train cleanly: {report:?}"
        ));
    }
    Ok(snapshot::save(&model.params())?.to_vec())
}

/// Checks every record of a loop: a failed request counts as failed and
/// is a problem; every answer must pass [`oracle::check_ranking`].
fn check_records(run: &LoopRun, num_items: usize, out: &mut Outcome, pass: &str) -> u64 {
    let mut failed = 0;
    for r in &run.records {
        match &r.result {
            Ok(resp) => {
                if let Err(e) = oracle::check_ranking(&resp.items, K, num_items) {
                    out.problems
                        .push(format!("{pass} request {}: {e}", r.index));
                }
                out.check(!resp.degraded, || {
                    format!("{pass} request {} was answered degraded", r.index)
                });
            }
            Err(e) => {
                failed += 1;
                out.problems
                    .push(format!("{pass} request {} failed: {e}", r.index));
            }
        }
    }
    failed
}

/// `scores_crc` of the first [`CRC_REQUESTS`] answers (`None` when fewer
/// were answered).
fn leading_crc(run: &LoopRun) -> Option<u32> {
    let rows: Vec<&[ist_serve::engine::Recommendation]> = run
        .records
        .iter()
        .take(CRC_REQUESTS)
        .map(|r| r.result.as_ref().ok().map(|resp| resp.items.as_slice()))
        .collect::<Option<_>>()?;
    (rows.len() == CRC_REQUESTS).then(|| oracle::scores_crc(rows))
}

/// Runs one serve workload.
pub fn run(workload: Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let host = Host::detect();
    host.check(CLIENTS)?;
    let mut out = Outcome::default();
    out.notes.push(host.describe());
    let scratch = Scratch::new()?;
    let cfg = model_config();

    let trained = match workload {
        Workload::ServeMiss => {
            let t = Instant::now();
            let bytes = train_weights(opts, &cfg)?;
            out.notes.push(format!(
                "weights: Isrec::fit {} epoch(s) in {:.2} s (not part of setup_s)",
                opts.sizing.epochs,
                t.elapsed().as_secs_f64()
            ));
            Some(bytes)
        }
        _ => None,
    };

    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..opts.sizing.setup_reps.max(1) {
        // Tear the previous engine down outside the timed interval.
        drop(live.take());
        let path = scratch.0.join(format!("model-{rep}.bin"));
        let t = Instant::now();
        live = Some(set_up(workload, opts, &cfg, trained.as_deref(), path)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Live {
        ds,
        model,
        streams,
        engine,
        snapshot,
    } = live.expect("at least one set-up");
    out.notes.push(format!(
        "world: {} users, {} items, {} concepts; {} timed histories ({} distinct in the stream)",
        ds.sequences.len(),
        ds.num_items,
        ds.num_concepts(),
        streams.timed.len(),
        streams
            .timed
            .iter()
            .map(|h| effective(h, cfg.max_len))
            .collect::<HashSet<_>>()
            .len()
    ));

    // --- Timed, untraced ---------------------------------------------------
    let before = engine.stats();
    let timed = closed_loop(&engine, &streams.timed, None, opts.seconds);
    let after = engine.stats();
    drop(engine);
    let n = timed.records.len();
    out.attempted = n as u64;
    out.failed = check_records(&timed, ds.num_items, &mut out, "timed");
    let (hits, misses) = (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    match workload {
        Workload::ServeMiss => out.check(hits == 0, || format!("{hits} cache hits on serve-miss")),
        _ => out.check(misses == 0, || {
            format!("{misses} cache misses on serve-catalog")
        }),
    }
    out.notes.push(format!(
        "timed: {n} requests in {:.3} s from {CLIENTS} clients; cache {hits} hits / {misses} misses; \
         avg batch {:.2}",
        timed.elapsed_s,
        (after.requests - before.requests) as f64 / (after.batches - before.batches).max(1) as f64
    ));

    let table_t = model.output_item_table_t();
    let sample = oracle::sample_indices(n, REFERENCE_SAMPLE, opts.seed ^ STREAM_SALT);
    for &i in &sample {
        let r = &timed.records[i];
        if let Ok(resp) = &r.result {
            let want = oracle::reference(
                &model,
                &table_t,
                &streams.timed[r.index % streams.timed.len()],
                K,
            );
            out.check(oracle::same_bits(&resp.items, &want), || {
                format!("request {} differs from the offline reference", r.index)
            });
        }
    }
    let crc = leading_crc(&timed);
    out.check(crc.is_some(), || {
        format!("fewer than {CRC_REQUESTS} requests answered")
    });
    out.notes.push(format!(
        "oracle: {} rankings checked, {} compared bitwise with the offline reference; \
         scores_crc(first {CRC_REQUESTS}) {}",
        n,
        sample.len(),
        crc.map_or("-".into(), |c| format!("{c:#010x}"))
    ));

    let stats = windowed(&timed, opts.seconds);
    let throughput = stats.throughput;
    out.notes.push(format!(
        "latency: {n} samples in {} one-second windows; medians over windows: {:.1} req/s, \
         p50 {:.1} us, p75 {:.1} us, p95 {:.1} us, p99 {:.1} us",
        stats.windows, stats.throughput, stats.p50, stats.p75, stats.p95, stats.p99
    ));
    out.per_layer.insert("e2e.latency_p95_us".into(), stats.p95);
    out.per_layer.insert("e2e.latency_p99_us".into(), stats.p99);
    out.end_to_end.insert("setup_s", median(&setup_s));
    out.end_to_end.insert("throughput_per_s", throughput);
    out.end_to_end.insert("latency_p50_us", stats.p50);
    out.end_to_end.insert("latency_p75_us", stats.p75);
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb()?);
    out.notes.push(format!(
        "setup_s: median of {} set-ups {:?}",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));

    if opts.trace {
        traced_pass(
            workload, opts, &cfg, &ds, &streams, &snapshot, throughput, crc, &mut out,
        )?;
        let keys: Vec<Vec<usize>> = streams
            .timed
            .iter()
            .take(4 * layers::CACHE_ENTRIES)
            .map(|h| effective(h, cfg.max_len).to_vec())
            .collect();
        let histories = &streams.timed[..streams.timed.len().min(WORKING_SET)];
        layers::time_layers(&model, histories, &keys, &mut out.per_layer);
    }
    drop(scratch);
    Ok(out)
}

/// The traced pass: every probe armed, a fresh engine (the SLO monitor
/// latches `reqctx::active()` at start), the same warm-up and a closed
/// loop of the same length. Reads the stage breakdown from the access log
/// and the layer timers from the registry.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    workload: Workload,
    opts: &RunOpts,
    cfg: &IsrecConfig,
    ds: &SequentialDataset,
    streams: &Streams,
    snapshot: &Path,
    untraced_rps: f64,
    untraced_crc: Option<u32>,
    out: &mut Outcome,
) -> Result<(), String> {
    let armed = Armed::arm();
    let engine = start_engine(ds, cfg, opts.seed, snapshot)?;
    warm_pass(&engine, &streams.warm)?;
    let _ = armed.take_access_lines();
    let reg_before = Registry::snapshot();
    let run = closed_loop(&engine, &streams.timed, None, opts.seconds);
    let reg_after = Registry::snapshot();
    let lines = armed.take_access_lines();
    drop(engine);
    let (records, dropped) = ist_obs::trace::record_counts();
    drop(armed);

    let failed = check_records(&run, ds.num_items, out, "traced");
    out.check(failed == 0, || format!("{failed} traced requests failed"));
    let crc = leading_crc(&run);
    out.check(crc.is_some() && crc == untraced_crc, || {
        format!(
            "scores_crc differs between untraced ({untraced_crc:x?}) and traced ({crc:x?}) passes"
        )
    });
    let mut m = BTreeMap::new();
    let logged = layers::stage_metrics(&lines, &mut m, &mut out.problems);
    out.check(logged == run.records.len(), || {
        format!(
            "{logged} access-log lines for {} traced requests",
            run.records.len()
        )
    });
    reg_after.layer_metrics_since(&reg_before, &mut m);
    let traced_rps = windowed(&run, opts.seconds).throughput;
    m.insert(
        "obs.overhead_pct".into(),
        (untraced_rps - traced_rps) / untraced_rps * 100.0,
    );
    let hit_ratio = m.get("serve.cache.hit_ratio").copied().unwrap_or(f64::NAN);
    match workload {
        Workload::ServeMiss => out.check(hit_ratio == 0.0, || {
            format!("traced hit ratio {hit_ratio} on serve-miss")
        }),
        _ => out.check(hit_ratio == 1.0, || {
            format!("traced hit ratio {hit_ratio} on serve-catalog")
        }),
    }
    out.notes.push(format!(
        "traced: {} requests at {traced_rps:.1} req/s vs {untraced_rps:.1} untraced; \
         {logged} access-log lines; trace ring {records} records ({dropped} dropped)",
        run.records.len()
    ));
    let stages: BTreeMap<&str, f64> = crate::STAGES
        .iter()
        .map(|s| {
            (
                *s,
                m.get(&format!("serve.{s}_us.p50")).copied().unwrap_or(0.0),
            )
        })
        .collect();
    out.notes.push(format!("traced stage p50 us: {stages:?}"));
    out.per_layer.extend(m);
    Ok(())
}
