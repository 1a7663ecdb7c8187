//! Integration tests of request-level observability: the access log gets
//! exactly one well-formed line per finished request with a consistent
//! per-stage breakdown, the exemplar reservoir keeps the slowest requests,
//! and the engine's SLO monitor tracks outcomes. All tests manipulate
//! process-global obs state, so they serialize on a local lock.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use isrec_core::{snapshot, Isrec, IsrecConfig};
use ist_data::{IntentWorld, SequentialDataset, WorldConfig};
use ist_nn::Module as _;
use ist_obs::reqctx;
use ist_serve::{ModelSource, ModelSpec, ScoreEngine, ServeConfig, SloConfig};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A `Write` sink the test can read back after handing ownership to obs.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn tiny_dataset() -> SequentialDataset {
    IntentWorld::new(WorldConfig::beauty_like().scaled(0.1)).generate(5)
}

fn tiny_config() -> IsrecConfig {
    IsrecConfig {
        d: 16,
        d_prime: 4,
        lambda: 4,
        max_len: 8,
        layers: 1,
        heads: 2,
        gcn_layers: 1,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ist-serve-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn snapshot_spec(dir: &Path, seed: u64) -> ModelSpec {
    let ds = tiny_dataset();
    let model = Isrec::new(&ds, tiny_config(), seed);
    let path = dir.join("model.bin");
    std::fs::write(&path, snapshot::save(&model.params()).unwrap()).unwrap();
    ModelSpec {
        dataset: ds,
        config: tiny_config(),
        seed,
        source: ModelSource::Snapshot(path),
    }
}

#[test]
fn access_log_has_one_consistent_line_per_request() {
    let _g = serial();
    let buf = SharedBuf::default();
    reqctx::set_access_log_writer(Box::new(buf.clone()));
    reqctx::reset_exemplars();

    let dir = tmpdir("access-log");
    let engine = ScoreEngine::start(
        snapshot_spec(&dir, 7),
        ServeConfig {
            slo: Some(SloConfig::default()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let ds = tiny_dataset();
    let n = 12usize;
    for i in 0..n {
        let seq = &ds.sequences[i % ds.sequences.len()];
        engine.recommend(&seq[..seq.len().min(6)], 5).unwrap();
    }
    // One invalid request must still produce a line, outcome "invalid".
    assert!(engine.recommend(&[], 5).is_err());
    drop(engine);
    reqctx::disable_access_log();

    // Each line passes the access-log schema: every key present, unique
    // trace ids, stage breakdown within the end-to-end latency.
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let recs = ist_obs::schema::access_log(&text).unwrap();
    assert_eq!(recs.len(), n + 1, "one line per finished request:\n{text}");
    let outcomes = |o: &str| recs.iter().filter(|r| r.outcome == o).count();
    assert_eq!(
        (outcomes("ok"), outcomes("invalid")),
        (n, 1),
        "outcomes miscounted:\n{text}"
    );
    for r in recs.iter().filter(|r| r.outcome == "ok") {
        assert!(r.batch >= 1, "answered without a batch: {r:?}");
    }

    // The reservoir kept the slowest finished requests, slowest first.
    let exs = reqctx::exemplars();
    assert!(!exs.is_empty() && exs.len() <= reqctx::EXEMPLAR_CAP);
    assert!(
        exs.windows(2).all(|w| w[0].total_us >= w[1].total_us),
        "exemplars must sort slowest-first"
    );
    reqctx::reset_exemplars();
}

#[test]
fn slo_monitor_counts_outcomes_and_flags_error_breach() {
    let _g = serial();
    // Activate request observability for the engine via an access-log sink
    // (discarded); the SLO monitor reads the activation at start.
    let buf = SharedBuf::default();
    reqctx::set_access_log_writer(Box::new(buf.clone()));

    let dir = tmpdir("slo");
    let engine = ScoreEngine::start(
        snapshot_spec(&dir, 7),
        ServeConfig {
            slo: Some(SloConfig {
                slo_ms: 10_000, // lenient latency target: only errors breach
                err_pct: 1.0,
                window: 64,
            }),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let ds = tiny_dataset();
    let seq = &ds.sequences[0];
    for _ in 0..8 {
        engine.recommend(&seq[..seq.len().min(6)], 5).unwrap();
    }
    let s = engine.slo();
    assert!(s.active);
    assert_eq!(s.total_observed, 8);
    assert_eq!(s.error_pct, 0.0);
    assert!(!s.breached);

    // 4 invalid requests out of 12 ≫ the 1% error target.
    for _ in 0..4 {
        assert!(engine.recommend(&[], 5).is_err());
    }
    let s = engine.slo();
    assert_eq!(s.total_observed, 12);
    assert!(s.error_burn > 1.0, "error burn must exceed 1.0: {s:?}");
    assert!(s.breached);

    drop(engine);
    reqctx::disable_access_log();
}

#[test]
fn dark_engine_keeps_slo_and_access_log_silent() {
    let _g = serial();
    reqctx::disable_access_log();
    let dir = tmpdir("dark");
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), ServeConfig::default()).unwrap();
    let ds = tiny_dataset();
    let seq = &ds.sequences[0];
    engine.recommend(&seq[..seq.len().min(6)], 5).unwrap();
    let s = engine.slo();
    assert!(!s.active, "observability off must leave the monitor dark");
    assert_eq!(s.total_observed, 0);
}
