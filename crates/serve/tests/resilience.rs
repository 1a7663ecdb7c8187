//! Integration tests of the serving resilience layer: typed validation,
//! deadlines, load shedding, scorer panic recovery, degraded-mode
//! fallback + recovery, hot reload under concurrency, and a small
//! deterministic chaos soak.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use isrec_core::{snapshot, CheckpointManager, FaultPlan, Isrec, IsrecConfig};
use ist_data::{IntentWorld, SequentialDataset, WorldConfig};
use ist_nn::Module as _;
use ist_serve::{ModelSource, ModelSpec, ScoreEngine, ServeConfig, ServeError, ServeFaultPlan};

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
    let dir = std::env::temp_dir().join(format!("ist-resil-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a model, snapshots it to `dir`, and returns a spec serving it.
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

/// A config with deterministic (serial, uncached) batching and an explicit
/// fault plan, so batch ordinals in tests are exact.
fn serial_cfg(faults: &str) -> ServeConfig {
    ServeConfig {
        max_batch: 1,
        batch_timeout: Duration::ZERO,
        cache_entries: 0,
        faults: Some(ServeFaultPlan::parse(faults).unwrap()),
        ..ServeConfig::default()
    }
}

#[test]
fn invalid_requests_get_typed_rejections() {
    let dir = tmpdir("validation");
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), ServeConfig::default()).unwrap();
    let ds = tiny_dataset();
    let hist = &ds.sequences[0][..3];

    let empty = engine.recommend(&[], 5).unwrap_err();
    assert!(matches!(empty, ServeError::InvalidRequest(_)), "{empty}");
    assert_eq!(empty.kind(), "invalid");

    let zero_k = engine.recommend(hist, 0).unwrap_err();
    assert!(matches!(zero_k, ServeError::InvalidRequest(_)), "{zero_k}");

    let out_of_catalog = engine.recommend(&[0, ds.num_items], 5).unwrap_err();
    assert!(
        matches!(out_of_catalog, ServeError::InvalidRequest(_)),
        "{out_of_catalog}"
    );
    // Rejections never touch the scorer.
    assert_eq!(engine.stats().requests, 0);
    // A valid request still works fine afterwards.
    assert!(engine.recommend(hist, 5).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_is_enforced_under_a_slow_batch() {
    let dir = tmpdir("deadline");
    // Batch 1 (the no-deadline request below) stalls 400ms on the scorer.
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), serial_cfg("slow@batch1:400")).unwrap();
    let ds = tiny_dataset();
    let hist = ds.sequences[0][..4].to_vec();

    std::thread::scope(|scope| {
        let stalled = scope.spawn(|| engine.recommend(&hist, 5));
        // Give the scorer time to pick the first request up and stall.
        std::thread::sleep(Duration::from_millis(60));
        let t0 = Instant::now();
        let hurried = engine.recommend_with_deadline(&hist, 5, Duration::from_millis(80));
        let waited = t0.elapsed();
        match hurried {
            Err(ServeError::DeadlineExceeded { budget }) => {
                assert_eq!(budget, Duration::from_millis(80));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            waited < Duration::from_millis(300),
            "deadline answered only after {waited:?} — not enforced caller-side"
        );
        // The stalled request itself has no deadline and must still answer.
        let slow = stalled.join().unwrap().unwrap();
        assert!(!slow.degraded);
    });
    // Exactly one timeout counted, no matter which side noticed first.
    assert_eq!(engine.stats().timed_out, 1);
    assert_eq!(engine.stats().scorer_panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deadline_inside_a_stalled_batch_counts_only_as_timed_out() {
    let dir = tmpdir("deadline-once");
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), serial_cfg("slow@batch1:300")).unwrap();
    let ds = tiny_dataset();
    let hurried =
        engine.recommend_with_deadline(&ds.sequences[0][..4], 5, Duration::from_millis(60));
    assert!(
        matches!(hurried, Err(ServeError::DeadlineExceeded { .. })),
        "{hurried:?}"
    );
    // The scorer runs this reload only after the stalled batch, whose late
    // answer must lose to the caller's deadline.
    engine.reload().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.requests, 0, "{stats:?}");
    assert_eq!(stats.timed_out, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_the_oldest_request() {
    let dir = tmpdir("shed");
    let cfg = ServeConfig {
        queue_cap: 1,
        ..serial_cfg("slow@batch1:400")
    };
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), cfg).unwrap();
    let ds = tiny_dataset();
    let hist = ds.sequences[0][..4].to_vec();

    std::thread::scope(|scope| {
        // A occupies the scorer (stalled batch 1). B fills the queue. C
        // arrives last: B is older, so B is the shed victim and C queues.
        let a = scope.spawn(|| engine.recommend(&hist, 5));
        std::thread::sleep(Duration::from_millis(60));
        let b = scope.spawn(|| {
            let t0 = Instant::now();
            (engine.recommend(&hist, 5), t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(60));
        let c = engine.recommend(&hist, 5);
        let (b_result, b_waited) = b.join().unwrap();
        assert!(matches!(b_result, Err(ServeError::Shed)), "{b_result:?}");
        assert!(
            b_waited < Duration::from_millis(300),
            "shed must answer immediately, waited {b_waited:?}"
        );
        assert!(c.is_ok(), "{c:?}");
        assert!(a.join().unwrap().is_ok());
    });
    assert_eq!(engine.stats().shed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scorer_panic_fails_only_its_batch_and_respawns() {
    let dir = tmpdir("respawn");
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), serial_cfg("panic@batch2")).unwrap();
    let ds = tiny_dataset();
    let hist = ds.sequences[0][..4].to_vec();
    let other = ds.sequences[1][..4].to_vec();

    // Batch 1: clean baseline.
    let baseline = engine.recommend(&hist, 10).unwrap();
    // Batch 2: poisoned — only this request fails, with a typed error.
    let poisoned = engine.recommend(&other, 10).unwrap_err();
    assert!(matches!(poisoned, ServeError::ScorerPanic(_)), "{poisoned}");
    assert_eq!(poisoned.kind(), "panic");

    // Batch 3 runs on the respawned scorer with freshly-loaded weights:
    // untouched requests are bitwise unchanged.
    let after = engine.recommend(&hist, 10).unwrap();
    assert_eq!(after.items.len(), baseline.items.len());
    for (b, a) in baseline.items.iter().zip(&after.items) {
        assert_eq!(b.item, a.item);
        assert_eq!(
            b.score.to_bits(),
            a.score.to_bits(),
            "scores must be bitwise identical across a respawn"
        );
    }
    assert!(!after.degraded, "respawn is full recovery, not degradation");
    let stats = engine.stats();
    assert_eq!(stats.scorer_panics, 1);
    assert_eq!(stats.respawns, 1);
    assert!(!stats.degraded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_respawns_trip_into_degraded_mode_until_reload() {
    let dir = tmpdir("degraded");
    // Load 1 (startup) is clean; the panic then burns all three respawn
    // attempts on corrupt loads 2–4 and the circuit breaker trips.
    let engine = ScoreEngine::start(
        snapshot_spec(&dir, 7),
        serial_cfg("panic@batch1,corrupt_reload@2,corrupt_reload@3,corrupt_reload@4"),
    )
    .unwrap();
    let ds = tiny_dataset();
    let hist = ds.sequences[0][..4].to_vec();

    let poisoned = engine.recommend(&hist, 10).unwrap_err();
    assert!(matches!(poisoned, ServeError::ScorerPanic(_)), "{poisoned}");

    // Degraded mode: the fallback ranker answers, marked as such, and
    // never recommends items from the request's own history.
    let fallback = engine.recommend(&hist, 10).unwrap();
    assert!(fallback.degraded, "response must be marked degraded");
    assert_eq!(fallback.items.len(), 10);
    assert!(fallback.items.iter().all(|r| !hist.contains(&r.item)));
    let stats = engine.stats();
    assert!(stats.degraded);
    assert_eq!(stats.scorer_panics, 1);
    assert_eq!(stats.respawns, 3);
    assert!(stats.degraded_served >= 1);

    // Recovery: load 5 is clean, so a reload brings a healthy scorer back.
    engine.reload().unwrap();
    let healthy = engine.recommend(&hist, 10).unwrap();
    assert!(!healthy.degraded, "reload must restore the real model");
    assert!(!engine.stats().degraded);

    // The recovered answer matches an engine that never faulted, bitwise.
    let clean = ScoreEngine::start(snapshot_spec(&dir, 7), ServeConfig::default()).unwrap();
    let want = clean.recommend(&hist, 10).unwrap();
    for (w, g) in want.items.iter().zip(&healthy.items) {
        assert_eq!(w.item, g.item);
        assert_eq!(w.score.to_bits(), g.score.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_races_concurrent_recommends_without_deadlock() {
    let dir = tmpdir("reload-race");
    let ckpt_dir = dir.join("ckpts");
    let ds = tiny_dataset();
    let old = Isrec::new(&ds, tiny_config(), 7);
    let mut mgr = CheckpointManager::new(&ckpt_dir, 10).unwrap();
    mgr.save(
        0,
        &snapshot::save(&old.params()).unwrap(),
        &mut FaultPlan::default(),
    )
    .unwrap();

    let engine = ScoreEngine::start(
        ModelSpec {
            dataset: ds.clone(),
            config: tiny_config(),
            seed: 7,
            source: ModelSource::CheckpointDir(ckpt_dir.clone()),
        },
        ServeConfig::default(),
    )
    .unwrap();
    let hist = ds.sequences[0][..4].to_vec();
    let before = engine.recommend(&hist, 10).unwrap();

    // Clients hammer the engine while the weights are swapped under them.
    let after = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    (0..40)
                        .map(|_| engine.recommend(&hist, 10).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let newer = Isrec::new(&ds, tiny_config(), 99);
        mgr.save(
            2,
            &snapshot::save(&newer.params()).unwrap(),
            &mut FaultPlan::default(),
        )
        .unwrap();
        assert_eq!(engine.reload().unwrap(), Some(2));
        let after = engine.recommend(&hist, 10).unwrap();
        // Every concurrent answer is exactly the old or the new ranking —
        // a swap is atomic, never a torn mixture.
        for client in clients {
            for resp in client.join().unwrap() {
                assert!(
                    resp == before || resp == after,
                    "concurrent response is neither old nor new weights"
                );
                assert!(!resp.degraded);
            }
        }
        after
    });
    assert_ne!(after, before, "different weights must change the ranking");
    assert_eq!(engine.stats().epoch, Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_soak_answers_every_request_with_a_typed_result() {
    let dir = tmpdir("soak");
    let cfg = ServeConfig {
        max_batch: 4,
        batch_timeout: Duration::from_micros(500),
        cache_entries: 64,
        queue_cap: 64,
        faults: Some(
            ServeFaultPlan::parse("slow@batch3:120,panic@batch5,corrupt_reload@2").unwrap(),
        ),
        ..ServeConfig::default()
    };
    let engine = ScoreEngine::start(snapshot_spec(&dir, 7), cfg).unwrap();
    let ds = tiny_dataset();
    let budget = Duration::from_secs(5);

    let outcomes: Vec<&'static str> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|c| {
                let engine = &engine;
                let ds = &ds;
                scope.spawn(move || {
                    let mut kinds = Vec::new();
                    for i in 0..30 {
                        let seq = &ds.sequences[(c * 31 + i) % ds.sequences.len()];
                        let hist = &seq[..seq.len().min(6)];
                        let t0 = Instant::now();
                        let result = engine.recommend_with_deadline(hist, 10, budget);
                        assert!(
                            t0.elapsed() < budget + Duration::from_secs(1),
                            "request blocked past its deadline"
                        );
                        kinds.push(match result {
                            Ok(resp) if resp.degraded => "degraded",
                            Ok(_) => "ok",
                            Err(e) => e.kind(),
                        });
                    }
                    kinds
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client must never see a panic"))
            .collect()
    });
    assert_eq!(outcomes.len(), 180, "every request got a typed outcome");
    assert!(
        outcomes.iter().filter(|&&k| k == "ok").count() >= 150,
        "most requests should survive the injected faults: {outcomes:?}"
    );
    for kind in &outcomes {
        assert!(
            ["ok", "degraded", "panic", "shed", "deadline"].contains(kind),
            "unexpected outcome kind {kind}"
        );
    }
    // Each outcome a caller saw is counted once, under its own kind.
    let stats = engine.stats();
    let count = |kind| outcomes.iter().filter(|&&k| k == kind).count() as u64;
    assert_eq!(count("ok") + count("degraded"), stats.requests, "{stats:?}");
    assert_eq!(count("degraded"), stats.degraded_served, "{stats:?}");
    assert_eq!(count("shed"), stats.shed, "{stats:?}");
    assert_eq!(count("deadline"), stats.timed_out, "{stats:?}");
    // The engine is still healthy after the storm…
    let seq = &ds.sequences[0];
    assert!(!engine.recommend(&seq[..4], 10).unwrap().degraded);
    assert!(stats.scorer_panics >= 1, "{stats:?}");
    assert!(stats.respawns >= 1, "{stats:?}");
    // …and dropping it must not deadlock (implicit: test completes).
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
