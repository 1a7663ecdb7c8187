//! Catalog scoring on a multi-worker pool, end to end: a catalog wide
//! enough that the GEMM splits every serving batch by column blocks, in
//! dense sub-blocks once a batch has several rows, must rank exactly as
//! the serial product does — before and after a reload to new weights,
//! which must repack the catalog panels.
//!
//! The global pool is sized once per process from `IST_THREADS`, so this
//! file holds a single test that sets it before anything touches the pool.

use std::sync::Barrier;

use isrec_core::{snapshot, Isrec, IsrecConfig};
use ist_data::{IntentWorld, WorldConfig};
use ist_nn::Module as _;
use ist_serve::{top_k, ModelSource, ModelSpec, Recommendation, ScoreEngine, ServeConfig};
use ist_tensor::matmul::matmul_in;
use ist_tensor::pool::{self, ThreadPool, GEMM_GRAIN};

const THREADS: usize = 4;

/// A ranking as `(item, score bits)`, for bitwise comparison.
fn bits(ranking: &[Recommendation]) -> Vec<(usize, u32)> {
    ranking
        .iter()
        .map(|r| (r.item, r.score.to_bits()))
        .collect()
}

#[test]
fn pooled_catalog_scoring_matches_serial_product() {
    std::env::set_var("IST_THREADS", THREADS.to_string());
    assert_eq!(pool::global().threads(), THREADS);

    let ds = IntentWorld::new(WorldConfig::beauty_like().scaled(20.0)).generate(5);
    let cfg = IsrecConfig {
        d: 64,
        d_prime: 4,
        lambda: 4,
        max_len: 8,
        layers: 1,
        heads: 2,
        gcn_layers: 1,
        ..Default::default()
    };
    let model = Isrec::new(&ds, cfg.clone(), 11);
    let (d, n) = (cfg.d, ds.num_items);
    // The column split needs `n ≥ threads·NC` (NC = 64) and `m·n·d ≥
    // GEMM_GRAIN·threads`; a single row must already qualify. Every batch
    // of up to 16 rows is then wide (`n ≥ m·threads·NC`).
    assert!(
        n >= 16 * THREADS * 64 && n * d >= GEMM_GRAIN * THREADS,
        "catalog too small for the column split: n={n} d={d}"
    );

    let hists: Vec<Vec<usize>> = ds
        .sequences
        .iter()
        .take(16)
        .map(|seq| seq[..seq.len().min(6)].to_vec())
        .collect();
    let serial = ThreadPool::new(1);
    // Each history's top 10 under `model`, from the serial product with
    // the transposed table.
    let rankings = |model: &Isrec| -> Vec<Vec<(usize, u32)>> {
        let table_t = model.output_item_table_t();
        hists
            .iter()
            .map(|h| {
                let repr = model.infer_last_repr(&[h.as_slice()]);
                bits(&top_k(matmul_in(&serial, &repr, &table_t).data(), 10).unwrap())
            })
            .collect()
    };
    let want = rankings(&model);
    // Different weights for the reload: a model of the same shape and a
    // different seed.
    let reloaded = Isrec::new(&ds, cfg.clone(), 12);
    let want_reloaded = rankings(&reloaded);
    assert_ne!(want, want_reloaded, "the reload must change the rankings");

    let dir = std::env::temp_dir().join(format!("ist-serve-wide-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.bin");
    let save = |model: &Isrec| std::fs::write(&path, snapshot::save(&model.params()).unwrap());

    // Single rows are written in place; batches of several rows go
    // through the dense sub-blocks and rank on the pool.
    for max_batch in [1usize, 12, 32] {
        save(&model).unwrap();
        let spec = ModelSpec {
            dataset: ds.clone(),
            config: cfg.clone(),
            seed: 11,
            source: ModelSource::Snapshot(path.clone()),
        };
        let config = ServeConfig {
            max_batch,
            batch_timeout: std::time::Duration::from_millis(100),
            cache_entries: 0,
            ..ServeConfig::default()
        };
        let engine = ScoreEngine::start(spec, config).unwrap();
        let serve_all = || -> Vec<Vec<(usize, u32)>> {
            let barrier = Barrier::new(hists.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = hists
                    .iter()
                    .map(|h| {
                        scope.spawn(|| {
                            barrier.wait();
                            bits(&engine.recommend(h, 10).unwrap().items)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        assert_eq!(
            serve_all(),
            want,
            "batch={max_batch}: rankings differ from the serial product"
        );
        let stats = engine.stats();
        assert!(
            stats.max_batch <= max_batch as u64 && (max_batch == 1 || stats.max_batch > 1),
            "batch={max_batch}: micro-batcher never coalesced or overflowed: {stats:?}"
        );
        if max_batch <= 12 {
            // A reload swaps in new weights and must repack the panels at
            // catalog width: a stale panel set scores the new
            // representations against the old table.
            save(&reloaded).unwrap();
            engine.reload().unwrap();
            assert_eq!(
                serve_all(),
                want_reloaded,
                "batch={max_batch}: rankings after the reload differ from the serial product"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
