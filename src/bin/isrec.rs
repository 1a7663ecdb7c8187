//! `isrec` — command-line interface to the ISRec reproduction.
//!
//! ```text
//! isrec generate --world beauty --out data/beauty [--scale 1.0] [--seed 42]
//! isrec import   --interactions log.tsv --out data/mine [--name mine]
//! isrec stats    --data data/beauty
//! isrec train    --data data/beauty --snapshot model.bin [--epochs 12]
//!                [--lr 0.005] [--max-len 20] [--seed 42]
//!                [--checkpoint-dir ckpts/] [--checkpoint-every 1]
//!                [--checkpoint-retain 3] [--resume true|false]
//! isrec eval     --data data/beauty --snapshot model.bin [--max-users 250]
//! isrec explain  --data data/beauty --snapshot model.bin [--user 0] [--top 5]
//! isrec profile  [--steps 24] [--scale 0.12] [--trace-out trace.json]
//! isrec graph-dump [--out tape.dot] [--batch-size 4]
//! isrec serve    --data data/beauty (--snapshot model.bin | --checkpoint-dir ckpts/)
//!                [--synthetic 2000 | --requests stream.txt] [--clients 8]
//!                [--k 10] [--report results/serve_report.json]
//!                [--access-log access.jsonl] [--linger-ms 0]
//! isrec validate <kind> <file>…
//! ```
//!
//! Every subcommand accepts `--metrics-out <path>`: telemetry (spans,
//! counters, throughput) is written there as JSON lines, as if
//! `IST_METRICS=json IST_METRICS_OUT=<path>` had been set. Every subcommand
//! also accepts `--trace-out <path>`: a chrome-trace timeline (load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>) is written there on
//! exit, as if `IST_TRACE=<path>` had been set. `--metrics-addr <host:port>`
//! (or `IST_METRICS_ADDR`) starts the live `/metrics` + `/healthz` scrape
//! endpoint — port `0` picks a free port, printed to stderr. `--access-log
//! <path>` (or `IST_SERVE_ACCESS_LOG`) writes one JSON line per finished
//! request with its trace id and per-stage latency breakdown. `profile`
//! runs a short profiled training session on synthetic data and emits both
//! artifacts; `graph-dump` prints one training step's autograd tape as
//! Graphviz DOT. See README §Observability. `validate` checks the files
//! those subcommands write, one CI check per kind
//! (`ist_obs::schema::validate`).
//!
//! `import` accepts `user,item,timestamp` (comma or tab separated) logs —
//! the path for running the model on *real* datasets.

use std::path::PathBuf;
use std::process::ExitCode;

use isrec_suite::data::stats::{
    concept_stats, dataset_stats, render_concept_table, render_dataset_table,
};
use isrec_suite::data::{io as dio, IntentWorld, LeaveOneOut, WorldConfig};
use isrec_suite::eval::{EvalProtocol, ProtocolConfig};
use isrec_suite::isrec::{
    explain, snapshot, CheckpointConfig, Isrec, IsrecConfig, SequentialRecommender, TrainConfig,
};
use isrec_suite::nn::Module;
use isrec_suite::obs::schema::{self, ServeReport, Show};

/// Minimal `--flag value` argument parser.
struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = iter.next().unwrap_or_default();
                flags.insert(name.to_string(), value);
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
        }
    }
}

fn world_by_name(name: &str) -> Result<WorldConfig, String> {
    Ok(match name {
        "beauty" => WorldConfig::beauty_like(),
        "steam" => WorldConfig::steam_like(),
        "epinions" => WorldConfig::epinions_like(),
        "ml1m" => WorldConfig::ml1m_like(),
        "ml20m" => WorldConfig::ml20m_like(),
        other => {
            return Err(format!(
                "unknown world `{other}` (beauty|steam|epinions|ml1m|ml20m)"
            ))
        }
    })
}

fn load(args: &Args) -> Result<isrec_suite::data::SequentialDataset, String> {
    dio::load_dataset(&PathBuf::from(args.require("data")?))
}

fn build_model(ds: &isrec_suite::data::SequentialDataset, args: &Args) -> Result<Isrec, String> {
    let cfg = IsrecConfig {
        max_len: args.num("max-len", 20usize)?,
        d: args.num("dim", 32usize)?,
        d_prime: args.num("d-prime", 8usize)?,
        lambda: args.num("lambda", 10usize)?,
        ..Default::default()
    };
    Ok(Isrec::new(ds, cfg, args.num("seed", 7u64)?))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let world = world_by_name(args.require("world")?)?;
    let scale: f64 = args.num("scale", 1.0)?;
    let seed: u64 = args.num("seed", 42)?;
    let out = PathBuf::from(args.require("out")?);
    let ds = IntentWorld::new(world.scaled(scale)).generate(seed);
    dio::save_dataset(&ds, &out)?;
    println!(
        "wrote `{}` to {out:?}: {} users, {} items, {} interactions, {} concepts",
        ds.name,
        ds.num_users(),
        ds.num_items,
        ds.num_interactions(),
        ds.num_concepts()
    );
    Ok(())
}

fn cmd_import(args: &Args) -> Result<(), String> {
    let path = PathBuf::from(args.require("interactions")?);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
    let records = dio::parse_interactions(&text)?;
    let (sequences, num_items) = dio::sequences_from_interactions(&records);
    let core = isrec_suite::data::preprocess::five_core(&sequences, num_items, 5);
    let ds = isrec_suite::data::SequentialDataset {
        name: args.get("name").unwrap_or("imported").to_string(),
        domain: isrec_suite::graph::lexicon::Domain::Consumer,
        num_items: core.num_items,
        item_concepts: vec![Vec::new(); core.num_items],
        sequences: core.sequences,
        concept_graph: isrec_suite::graph::ConceptGraph::empty(0),
        concept_names: Vec::new(),
    };
    ds.validate()?;
    let out = PathBuf::from(args.require("out")?);
    dio::save_dataset(&ds, &out)?;
    println!(
        "imported {} records → {} users / {} items after 5-core; wrote {out:?}\n\
         note: no item descriptions provided, so the concept set is empty —\n\
         ISRec will run with intent modules effectively disabled.",
        records.len(),
        ds.num_users(),
        ds.num_items
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    println!("{}", render_dataset_table(&[dataset_stats(&ds)]));
    println!("{}", render_concept_table(&[concept_stats(&ds)]));
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let split = LeaveOneOut::split(&ds.sequences);
    let mut model = build_model(&ds, args)?;
    let checkpoint = match args.get("checkpoint-dir") {
        Some(dir) => CheckpointConfig {
            dir: Some(PathBuf::from(dir)),
            every_epochs: args.num("checkpoint-every", 1usize)?.max(1),
            retain: args.num("checkpoint-retain", 3usize)?.max(1),
            resume: args.num("resume", true)?,
        },
        None => CheckpointConfig::default(),
    };
    let train = TrainConfig {
        epochs: args.num("epochs", 12usize)?,
        lr: args.num("lr", 5e-3f32)?,
        batch_size: args.num("batch-size", 64usize)?,
        seed: args.num("seed", 42u64)?,
        verbose: true,
        checkpoint,
        ..Default::default()
    };
    let report = model.fit(&ds, &split, &train);
    if let Some(epoch) = report.resumed_from {
        println!("resumed from checkpoint at epoch {epoch}");
    }
    for event in &report.recovery {
        println!("recovery: {event}");
    }
    println!(
        "trained {} epochs: loss {:.4} → {:.4}",
        report.epoch_losses.len(),
        report.epoch_losses.first().copied().unwrap_or(0.0),
        report.epoch_losses.last().copied().unwrap_or(0.0)
    );
    let snap_path = PathBuf::from(args.require("snapshot")?);
    std::fs::write(&snap_path, snapshot::save(&model.params())?)
        .map_err(|e| format!("write snapshot: {e}"))?;
    println!(
        "snapshot written to {snap_path:?} ({} params)",
        model.num_parameters()
    );
    Ok(())
}

fn restore_model(args: &Args, ds: &isrec_suite::data::SequentialDataset) -> Result<Isrec, String> {
    let model = build_model(ds, args)?;
    let snap_path = PathBuf::from(args.require("snapshot")?);
    let bytes = std::fs::read(&snap_path).map_err(|e| format!("read snapshot: {e}"))?;
    let restored = snapshot::load(&model.params(), bytes)?;
    if restored == 0 {
        return Err("snapshot restored 0 parameters — wrong file or config?".into());
    }
    Ok(model)
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let split = LeaveOneOut::split(&ds.sequences);
    let model = restore_model(args, &ds)?;
    let proto = EvalProtocol::build(
        &ds,
        &split,
        &ProtocolConfig {
            max_users: args.num("max-users", 250usize)?,
            ..Default::default()
        },
    );
    let m = proto.evaluate(&model);
    println!(
        "evaluated {} users (leave-one-out, 100 negatives):",
        proto.len()
    );
    for (name, value) in m.named() {
        println!("  {name:<8} {value:.4}");
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let split = LeaveOneOut::split(&ds.sequences);
    let model = restore_model(args, &ds)?;
    let user: usize = args.num("user", split.test_users().first().copied().unwrap_or(0))?;
    let top: usize = args.num("top", 5usize)?;
    let history = split.test_history(user);
    if history.is_empty() {
        return Err(format!("user {user} has no history"));
    }
    let trace = explain::explain(&model, &ds, &history, top);
    print!("{}", explain::render_trace(&trace, &ds));
    Ok(())
}

/// Synthetic dataset shared by `profile` and `graph-dump`: small enough to
/// generate in milliseconds, large enough that attention/GCN/GEMM dominate.
fn synthetic_dataset(args: &Args) -> Result<isrec_suite::data::SequentialDataset, String> {
    let scale: f64 = args.num("scale", 0.12)?;
    let seed: u64 = args.num("seed", 42)?;
    Ok(IntentWorld::new(WorldConfig::epinions_like().scaled(scale)).generate(seed))
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    // `profile` always produces both artifacts: default the trace path and
    // the metrics mode unless the user (or the environment) already chose.
    if !isrec_suite::obs::trace_enabled() {
        isrec_suite::obs::trace::set_trace_path(
            args.get("trace-out").unwrap_or("isrec-trace.json"),
        );
    }
    if !isrec_suite::obs::enabled() {
        isrec_suite::obs::set_mode(isrec_suite::obs::Mode::Summary);
    }

    let steps: usize = args.num("steps", 24)?;
    let ds = synthetic_dataset(args)?;
    let split = LeaveOneOut::split(&ds.sequences);
    let mut model = build_model(&ds, args)?;
    let batch_size: usize = args.num("batch-size", 32)?;
    let steps_per_epoch = split.train.len().div_ceil(batch_size).max(1);
    let train = TrainConfig {
        epochs: steps.div_ceil(steps_per_epoch).max(1),
        batch_size,
        seed: args.num("seed", 42)?,
        ..TrainConfig::smoke()
    };
    let report = model.fit(&ds, &split, &train);
    println!(
        "profiled {} epochs (~{} steps each) on `{}`: loss {:.4} → {:.4}",
        report.epoch_losses.len(),
        steps_per_epoch,
        ds.name,
        report.epoch_losses.first().copied().unwrap_or(0.0),
        report.epoch_losses.last().copied().unwrap_or(0.0)
    );
    let totals = isrec_suite::autograd::profile::totals();
    println!(
        "autograd op attribution: {:.1}% of measured forward+backward time",
        totals.coverage() * 100.0
    );
    let (scopes, dropped) = isrec_suite::obs::trace::record_counts();
    println!("trace: {scopes} scopes recorded ({dropped} dropped by the ring)");
    Ok(())
}

fn cmd_graph_dump(args: &Args) -> Result<(), String> {
    let ds = synthetic_dataset(args)?;
    let split = LeaveOneOut::split(&ds.sequences);
    let model = build_model(&ds, args)?;
    let batcher = model.batcher(args.num("batch-size", 4)?);
    let user_ids: Vec<usize> = (0..split.train.len()).collect();
    let batches = batcher.batches(&split.train, &user_ids);
    let batch = batches
        .first()
        .ok_or("synthetic dataset produced no batch")?;

    // One training step's tape: forward + loss (backward adds no nodes).
    let mut ctx = isrec_suite::nn::Ctx::train(args.num("seed", 42)?);
    let (logits, _) = model.forward_logits(&mut ctx, batch, false);
    let loss =
        isrec_suite::autograd::fused::cross_entropy_rows(&logits, &batch.targets, &batch.weights);
    let dot = ctx.tape.to_dot();
    eprintln!(
        "tape: {} nodes, loss {:.4}",
        ctx.tape.len(),
        loss.value().item()
    );
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &dot).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {} bytes of DOT to {path}", dot.len());
        }
        None => print!("{dot}"),
    }
    Ok(())
}

/// Request-stream replay against a [`ScoreEngine`]: loads the model from a
/// snapshot or checkpoint dir, replays `--requests <file>` (one
/// space/comma-separated history per line) or a `--synthetic N` stream from
/// `--clients` concurrent threads, and prints a throughput/latency report.
/// `--deadline-ms N` sets a per-request deadline (0 disables; default from
/// `IST_SERVE_DEADLINE_MS`). `--allow-errors 1` keeps the run alive when
/// requests fail with typed errors (sheds, timeouts, scorer panics — the
/// chaos gate's bread and butter) and reports them per kind instead. Either
/// way the run fails if the engine's `requests`/`shed`/`timed_out`
/// counters differ from the outcomes the callers got.
/// `--report <path>` additionally writes the machine-readable
/// `isrec.serve_report.v5` JSON consumed by the CI serve and chaos stages
/// (latency/batch/cache/resilience blocks plus the SLO snapshot and
/// slowest-request exemplars). `--linger-ms N` keeps the process (and its
/// scrape endpoint) alive N ms after the report, for external scrapers.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use isrec_suite::serve::{ModelSource, ModelSpec, ScoreEngine, ServeConfig, ServeResponse};

    let ds = load(args)?;
    let source = match (args.get("snapshot"), args.get("checkpoint-dir")) {
        (Some(snap), None) => ModelSource::Snapshot(PathBuf::from(snap)),
        (None, Some(dir)) => ModelSource::CheckpointDir(PathBuf::from(dir)),
        (Some(_), Some(_)) => return Err("pass --snapshot or --checkpoint-dir, not both".into()),
        (None, None) => return Err("missing weight source: --snapshot or --checkpoint-dir".into()),
    };
    let k: usize = args.num("k", 10usize)?;
    let clients: usize = args.num("clients", 8usize)?.max(1);

    // The request stream: one history per line, or a deterministic
    // synthetic stream with user repetition (so the repr cache sees
    // realistic revisits).
    let requests: Vec<Vec<usize>> = match (args.get("requests"), args.get("synthetic")) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let mut out = Vec::new();
            for (ln, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let hist: Result<Vec<usize>, _> = line
                    .split(|c: char| c == ',' || c.is_whitespace())
                    .filter(|t| !t.is_empty())
                    .map(str::parse)
                    .collect();
                let hist = hist.map_err(|e| format!("{path}:{}: {e}", ln + 1))?;
                if let Some(&bad) = hist.iter().find(|&&i| i >= ds.num_items) {
                    return Err(format!(
                        "{path}:{}: item {bad} out of range (num_items={})",
                        ln + 1,
                        ds.num_items
                    ));
                }
                out.push(hist);
            }
            out
        }
        (None, maybe_n) => {
            let n: usize = match maybe_n {
                Some(v) => v.parse().map_err(|e| format!("--synthetic: {e}"))?,
                None => 2000,
            };
            // A fixed-stride walk over a sub-pool of users: every request
            // is deterministic, and pool < n guarantees repeated users.
            let pool = ds.num_users().min((n / 4).max(1)).max(1);
            (0..n)
                .map(|i| ds.sequences[(i * 7919) % pool].clone())
                .collect()
        }
        (Some(_), Some(_)) => return Err("pass --requests or --synthetic, not both".into()),
    };
    if requests.is_empty() {
        return Err("empty request stream".into());
    }

    let mut serve_cfg = ServeConfig::from_env();
    if let Some(ms) = args.get("deadline-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
        serve_cfg.deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    let allow_errors = args.get("allow-errors").is_some();
    let spec = ModelSpec {
        config: IsrecConfig {
            max_len: args.num("max-len", 20usize)?,
            d: args.num("dim", 32usize)?,
            d_prime: args.num("d-prime", 8usize)?,
            lambda: args.num("lambda", 10usize)?,
            ..Default::default()
        },
        seed: args.num("seed", 7u64)?,
        source,
        dataset: ds,
    };
    let source_desc = match &spec.source {
        ModelSource::Snapshot(p) => format!("snapshot:{}", p.display()),
        ModelSource::CheckpointDir(p) => format!("checkpoint:{}", p.display()),
    };
    let dataset_name = spec.dataset.name.clone();
    let engine = ScoreEngine::start(spec, serve_cfg.clone())?;

    // Replay: client c takes requests i ≡ c (mod clients); each thread
    // reports (request index, latency µs, typed result) so the merged
    // result is request-ordered regardless of scheduling.
    let total = requests.len();
    let wall = std::time::Instant::now();
    let mut results: Vec<Option<(u64, Result<ServeResponse, isrec_suite::serve::ServeError>)>> =
        vec![None; total];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let engine = &engine;
            let requests = &requests;
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                for i in (c..requests.len()).step_by(clients) {
                    let t0 = std::time::Instant::now();
                    let result = engine.recommend(&requests[i], k);
                    let us = t0.elapsed().as_micros() as u64;
                    out.push((i, us, result));
                }
                out
            }));
        }
        for handle in handles {
            for (i, us, result) in handle.join().expect("serve client panicked") {
                results[i] = Some((us, result));
            }
        }
    });
    let elapsed = wall.elapsed().as_secs_f64();

    // Exact client-side latency quantiles + a CRC over every ranked
    // (item, score-bits) pair of the *answered* requests, in request
    // order: any batching-, threading- or caching-dependent divergence
    // changes this fingerprint. (Fault-free, every request is answered, so
    // the fingerprint covers the full stream.)
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut fingerprint: Vec<u8> = Vec::new();
    let mut answered = 0u64;
    let mut degraded_answers = 0u64;
    let mut error_kinds = std::collections::BTreeMap::new();
    let mut first_error: Option<String> = None;
    for (i, slot) in results.iter().enumerate() {
        let (us, result) = slot.as_ref().expect("every request recorded");
        latencies.push(*us);
        match result {
            Ok(resp) => {
                answered += 1;
                if resp.degraded {
                    degraded_answers += 1;
                }
                for r in &resp.items {
                    fingerprint.extend_from_slice(&(r.item as u32).to_le_bytes());
                    fingerprint.extend_from_slice(&r.score.to_bits().to_le_bytes());
                }
            }
            Err(e) => {
                *error_kinds.entry(e.kind().to_string()).or_insert(0) += 1;
                if first_error.is_none() {
                    first_error = Some(format!("request {i}: {e}"));
                }
            }
        }
    }
    let failed = total as u64 - answered;
    if !allow_errors {
        if let Some(e) = first_error {
            return Err(format!("{failed} request(s) failed; first: {e}"));
        }
    }
    let stats = engine.stats();
    let report = ServeReport {
        schema: ServeReport::SCHEMA.into(),
        dataset: dataset_name,
        source: source_desc,
        epoch: stats.epoch,
        requests: total as u64,
        clients: clients as u64,
        k: k as u64,
        elapsed_s: elapsed,
        throughput_rps: total as f64 / elapsed,
        latency_us: schema::Latency::of(&mut latencies),
        batch: schema::Batches {
            count: stats.batches,
            avg: stats.avg_batch(),
            max: stats.max_batch,
        },
        cache: schema::Cache {
            hits: stats.cache_hits,
            misses: stats.cache_misses,
            hit_rate: stats.hit_rate(),
        },
        resilience: schema::Resilience {
            answered,
            failed,
            degraded_answers,
            shed: stats.shed,
            timed_out: stats.timed_out,
            scorer_panics: stats.scorer_panics,
            respawns: stats.respawns,
            reload_skipped: stats.reload_skipped,
            degraded: stats.degraded,
            errors: error_kinds,
        },
        config: schema::Config {
            max_batch: serve_cfg.max_batch as u64,
            batch_timeout_us: serve_cfg.batch_timeout.as_micros() as u64,
            cache_entries: serve_cfg.cache_entries as u64,
            deadline_ms: serve_cfg.deadline.map_or(0, |d| d.as_millis() as u64),
            queue_cap: serve_cfg.queue_cap as u64,
            max_respawns: u64::from(serve_cfg.max_respawns),
        },
        slo: engine.slo(),
        exemplars: isrec_suite::obs::reqctx::exemplars(),
        scores_crc: u64::from(isrec_suite::isrec::snapshot::crc32(&fingerprint)),
    };
    print!("{report}");
    if let Some(path) = args.get("report") {
        if let Some(parent) = PathBuf::from(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("create report dir {parent:?}: {e}"))?;
            }
        }
        std::fs::write(path, format!("{:#}\n", Show(&report)))
            .map_err(|e| format!("write report {path}: {e}"))?;
        println!("report written to {path}");
    }
    // Exactly one outcome per request: the engine's per-kind counters must
    // match what the callers got, whether or not errors are allowed.
    let seen = |kind: &str| report.resilience.errors.get(kind).copied().unwrap_or(0);
    let disagree: Vec<String> = [
        ("requests", report.resilience.answered, stats.requests),
        ("shed", seen("shed"), stats.shed),
        ("timed_out", seen("deadline"), stats.timed_out),
    ]
    .iter()
    .filter(|(_, callers, engine)| callers != engine)
    .map(|(name, callers, engine)| format!("{name}: engine {engine}, callers {callers}"))
    .collect();
    if !disagree.is_empty() {
        return Err(format!(
            "engine counters disagree with the request outcomes ({})",
            disagree.join("; ")
        ));
    }
    // Grace window for external scrapers (the CI soak polls /metrics
    // until the last request lands): keep the engine + endpoint up.
    let linger: u64 = args.num("linger-ms", 0u64)?;
    if linger > 0 {
        std::thread::sleep(std::time::Duration::from_millis(linger));
    }
    Ok(())
}

fn cmd_validate(args: &Args) -> Result<(), String> {
    let kind = args.positional.get(1).map_or("", |k| k.as_str());
    let files = args.positional.get(2..).unwrap_or_default();
    println!("{}", isrec_suite::obs::schema::validate(kind, files)?);
    Ok(())
}

const USAGE: &str =
    "usage: isrec <generate|import|stats|train|eval|explain|profile|graph-dump|serve|validate> [--flag value]…
run with a subcommand; see the module docs at the top of src/bin/isrec.rs";

fn main() -> ExitCode {
    let args = Args::parse();
    if let Some(path) = args.get("metrics-out") {
        if let Err(e) = isrec_suite::obs::set_output_path(path) {
            eprintln!("error: --metrics-out: {e}");
            return ExitCode::FAILURE;
        }
        // The flag implies JSON telemetry unless IST_METRICS already chose
        // a mode explicitly.
        if !isrec_suite::obs::enabled() {
            isrec_suite::obs::set_mode(isrec_suite::obs::Mode::Json);
        }
    }
    if let Some(path) = args.get("trace-out") {
        isrec_suite::obs::trace::set_trace_path(path);
    }
    if let Some(path) = args.get("access-log") {
        if let Err(e) = isrec_suite::obs::reqctx::set_access_log_path(path) {
            eprintln!("error: --access-log: {e}");
            return ExitCode::FAILURE;
        }
    }
    // The scrape endpoint: an explicit bad --metrics-addr is a hard error,
    // a bad IST_METRICS_ADDR only warns (a typo'd env knob should not take
    // a soak down).
    let endpoint = match args.get("metrics-addr") {
        Some(addr) => isrec_suite::obs::export::start(addr).map(Some),
        None => Ok(isrec_suite::obs::export::start_from_env()),
    };
    match endpoint {
        Ok(Some(bound)) => {
            eprintln!("metrics endpoint listening on http://{bound} (/metrics, /healthz)");
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: --metrics-addr: {e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(cmd) = args.positional.first().map(|s| s.as_str()) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd {
        "generate" => cmd_generate(&args),
        "import" => cmd_import(&args),
        "stats" => cmd_stats(&args),
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "explain" => cmd_explain(&args),
        "profile" => cmd_profile(&args),
        "graph-dump" => cmd_graph_dump(&args),
        "serve" => cmd_serve(&args),
        "validate" => cmd_validate(&args),
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    isrec_suite::obs::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
