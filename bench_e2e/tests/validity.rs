//! Workload validity at reduced sizes: request streams are a function of
//! the seed, each workload stresses the layer it claims to, and the metric
//! names agree with `BENCHMARK.json` and `layers.json`.

use std::sync::Mutex;

use bench_e2e::serve::{catalog_streams, miss_streams, WORKING_SET};
use bench_e2e::{per_layer, run, world, Outcome, RunOpts, Sizing, Workload, END_TO_END};

/// The observability switches are process-global: runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const MAX_LEN: usize = 20;

fn small(workload: Workload) -> Sizing {
    let world_scale = match workload {
        Workload::TrainBeauty => 0.2,
        Workload::ServeMiss => 0.3,
        Workload::ServeCatalog => 4.0,
    };
    Sizing {
        world_scale,
        epochs: 2,
        setup_reps: 1,
    }
}

fn run_small(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let opts = RunOpts {
        seed,
        seconds,
        trace: true,
        sizing: small(workload),
    };
    let out = run(workload, &opts).expect("workload runs");
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    assert_eq!(out.failed, 0);
    for (name, _) in END_TO_END {
        assert!(out.end_to_end[name] > 0.0, "{name} should be positive");
    }
    for (name, _) in per_layer() {
        assert!(
            out.per_layer.contains_key(&name) || !applies(workload, &name),
            "{name} missing"
        );
    }
    out
}

/// Whether a per-layer metric is measured on `workload` (the rest read 0).
fn applies(workload: Workload, name: &str) -> bool {
    let training = name.starts_with("train.") || name.starts_with("autograd.");
    let engine = name.starts_with("serve.")
        && !name.contains("topk")
        && !name.contains("cache.get")
        && !name.contains("cache.insert");
    match workload {
        Workload::TrainBeauty => !engine,
        _ => !training,
    }
}

#[test]
fn request_streams_are_a_function_of_the_seed() {
    let ds = world(0.3, 5);
    let again = world(0.3, 5);
    let other = world(0.3, 6);
    let miss = miss_streams(&ds, MAX_LEN, 5);
    assert_eq!(miss, miss_streams(&again, MAX_LEN, 5));
    assert_ne!(miss, miss_streams(&other, MAX_LEN, 6));
    assert_ne!(
        miss,
        miss_streams(&ds, MAX_LEN, 6),
        "the seed also orders the stream"
    );

    let catalog = catalog_streams(&ds, MAX_LEN, 5);
    assert_eq!(catalog, catalog_streams(&again, MAX_LEN, 5));
    assert_ne!(catalog, catalog_streams(&other, MAX_LEN, 6));
    assert_ne!(catalog, catalog_streams(&ds, MAX_LEN, 6));
}

#[test]
fn streams_have_the_claimed_reuse() {
    let ds = world(0.3, 9);
    let key = |h: &Vec<usize>| h[h.len().saturating_sub(MAX_LEN)..].to_vec();

    let miss = miss_streams(&ds, MAX_LEN, 9);
    let mut keys: Vec<Vec<usize>> = miss.timed.iter().chain(&miss.warm).map(key).collect();
    let n = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(
        keys.len(),
        n,
        "serve-miss histories are all distinct, warm-up included"
    );
    assert!(
        miss.timed.len() > 2 * 1024,
        "the stream cycles through far more keys than the cache holds"
    );

    let catalog = catalog_streams(&ds, MAX_LEN, 9);
    assert_eq!(catalog.warm.len(), WORKING_SET);
    assert!(
        catalog.timed.iter().all(|h| catalog.warm.contains(h)),
        "timed requests replay the working set"
    );
}

#[test]
fn serve_miss_runs_the_encoder_on_every_request() {
    let out = run_small(Workload::ServeMiss, 3, 1.0);
    let m = &out.per_layer;
    assert_eq!(m["serve.cache.hit_ratio"], 0.0);
    let encode = m["serve.encode_us.p50"];
    for stage in bench_e2e::STAGES {
        assert!(
            m[&format!("serve.{stage}_us.p50")] <= encode,
            "{stage} above encode: {m:?}"
        );
    }
    assert!(m["core.infer_last_repr.us_per_row.b1"] > 0.0);
}

#[test]
fn serve_catalog_hits_on_every_timed_request() {
    let out = run_small(Workload::ServeCatalog, 4, 1.0);
    let m = &out.per_layer;
    assert_eq!(m["serve.cache.hit_ratio"], 1.0);
    assert_eq!(m["serve.encode_us.p50"], 0.0);
    assert!(m["serve.score_us.p50"] > 0.0);
    assert!(m["serve.topk_us"] > 0.0);
}

#[test]
fn train_beauty_takes_optimizer_steps() {
    let out = run_small(Workload::TrainBeauty, 5, 0.1);
    assert!(out.attempted > 0);
    assert!(out.per_layer["train.steps"] > 0.0);
    assert!(out.per_layer["train.forward_ms"] > 0.0);
}

/// `"name": "<x>"` values of a JSON text, in order.
fn names(text: &str) -> Vec<String> {
    text.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn metric_names_match_benchmark_json_and_layer_map() {
    let root = env!("CARGO_MANIFEST_DIR");
    let bench =
        std::fs::read_to_string(format!("{root}/../BENCHMARK.json")).expect("BENCHMARK.json");
    let mut want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    want.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
    want.extend(per_layer().into_iter().map(|(n, _)| n));
    assert_eq!(names(&bench), want);

    let map = std::fs::read_to_string(format!("{root}/layers.json")).expect("layers.json");
    for (name, _) in per_layer() {
        assert!(
            map.contains(&format!("\"{name}\"")),
            "layers.json does not map {name}"
        );
    }
    for w in Workload::ALL {
        assert!(
            map.contains(&format!("\"{}\"", w.name())),
            "layers.json lacks {}",
            w.name()
        );
    }
}
