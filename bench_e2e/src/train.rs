//! The `train-beauty` workload: ISRec training on the beauty-like world.
//!
//! The timed fits call `trainer::train_next_item` with
//! `Isrec::forward_logits` — exactly the body of `Isrec::fit` — so that
//! the closure can stamp the start of every optimizer step from outside
//! the program. The traced pass calls `Isrec::fit` itself, and its loss
//! stream must match the timed fits bit for bit, which keeps the two
//! paths from drifting apart.

use std::time::Instant;

use isrec_core::{trainer, Isrec, SequentialRecommender as _, TrainConfig, TrainReport};
use ist_autograd::profile;
use ist_data::{LeaveOneOut, SequentialDataset};
use ist_nn::Module as _;

use crate::host::{minor_faults, peak_rss_mb, Host};
use crate::layers::{self, Armed, Registry};
use crate::stats::{median, quantile, sorted};
use crate::{model_config, world, Outcome, RunOpts, AUTOGRAD_OPS};

/// Sequences per optimizer step.
const BATCH: usize = 64;

fn train_config(opts: &RunOpts) -> TrainConfig {
    TrainConfig {
        epochs: opts.sizing.epochs,
        batch_size: BATCH,
        seed: opts.seed,
        ..Default::default()
    }
}

/// One fit from a fresh model, with the wall-clock start of every
/// optimizer step (a step runs from its forward call to the next step's;
/// the last ends when the fit returns).
struct TimedFit {
    report: TrainReport,
    step_us: Vec<f64>,
    elapsed_s: f64,
    model: Isrec,
}

fn timed_fit(
    ds: &SequentialDataset,
    split: &LeaveOneOut,
    cfg: &TrainConfig,
    seed: u64,
) -> TimedFit {
    let model = Isrec::new(ds, model_config(), seed);
    let mut marks: Vec<Instant> = Vec::new();
    let started = Instant::now();
    let report = trainer::train_next_item(
        split,
        &model.batcher(cfg.batch_size),
        cfg,
        model.params(),
        |ctx, batch| {
            marks.push(Instant::now());
            model.forward_logits(ctx, batch, false).0
        },
    );
    let ended = Instant::now();
    marks.push(ended);
    let step_us = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect();
    TimedFit {
        report,
        step_us,
        elapsed_s: (ended - started).as_secs_f64(),
        model,
    }
}

fn same_losses(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `train-beauty`.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let host = Host::detect();
    host.check(1)?;
    let mut out = Outcome::default();
    out.notes.push(host.describe());
    let tcfg = train_config(opts);

    // Set-up: world generation, split, model build and one untimed warm-up
    // epoch on that model. Without the warm-up the first timed fit ran
    // about 20% slower than the ones after it (the allocator and the
    // pool's packing workspaces were still growing); it also makes a
    // set-up seconds long, where the rest alone takes ~8 ms and its median
    // spread 0.4 from run to run.
    let warm_cfg = TrainConfig {
        epochs: 1,
        ..tcfg.clone()
    };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..opts.sizing.setup_reps.max(1) {
        drop(prepared.take());
        let t = Instant::now();
        let ds = world(opts.sizing.world_scale, opts.seed);
        let split = LeaveOneOut::split(&ds.sequences);
        timed_fit(&ds, &split, &warm_cfg, opts.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((ds, split));
    }
    let (ds, split) = prepared.expect("at least one set-up");
    out.notes.push(format!(
        "world: {} users, {} items, {} concepts",
        ds.sequences.len(),
        ds.num_items,
        ds.num_concepts()
    ));

    // Timed fits, each from the same fresh initialisation, until the run's
    // seconds are used up (at least one).
    let faults_before = minor_faults();
    let started = Instant::now();
    let mut fits: Vec<TimedFit> = Vec::new();
    while fits.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        fits.push(timed_fit(&ds, &split, &tcfg, opts.seed));
    }
    let faults = minor_faults().zip(faults_before).map(|(a, b)| a - b);
    let losses = fits[0].report.epoch_losses.clone();
    let steps: usize = fits.iter().map(|f| f.step_us.len()).sum();
    let failed: usize = fits.iter().map(|f| f.report.recovery.len()).sum();
    out.attempted = steps as u64;
    out.failed = failed as u64;
    out.check(steps > 0, || "training took no optimizer steps".into());
    out.check(failed == 0, || {
        format!("{failed} non-finite steps rolled back")
    });
    out.check(
        losses.len() == tcfg.epochs && losses.iter().all(|l| l.is_finite()),
        || {
            format!(
                "loss stream {losses:?} is not {} finite epochs",
                tcfg.epochs
            )
        },
    );
    out.check(fits[0].report.improved(), || {
        format!("loss did not decrease: {losses:?}")
    });
    for (i, f) in fits.iter().enumerate().skip(1) {
        out.check(same_losses(&f.report.epoch_losses, &losses), || {
            format!(
                "fit {i} loss stream {:?} differs from fit 0 {losses:?}",
                f.report.epoch_losses
            )
        });
    }
    let fit_s: f64 = fits.iter().map(|f| f.elapsed_s).sum();
    let throughput = steps as f64 / fit_s;
    let lat = sorted(
        fits.iter()
            .flat_map(|f| f.step_us.iter().copied())
            .collect(),
    );
    out.notes.push(format!(
        "timed: {} fit(s) of {} epochs, {steps} steps in {fit_s:.3} s ({:?} steps/s per fit); \
         {faults:?} minor page faults; losses {losses:?}",
        fits.len(),
        tcfg.epochs,
        fits.iter()
            .map(|f| (f.step_us.len() as f64 / f.elapsed_s * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "step latency: {} samples, p50 {:.1} us, p75 {:.1} us, p95 {:.1} us",
        lat.len(),
        quantile(&lat, 0.5),
        quantile(&lat, 0.75),
        quantile(&lat, 0.95)
    ));
    out.end_to_end.insert("setup_s", median(&setup_s));
    out.end_to_end.insert("throughput_per_s", throughput);
    out.end_to_end.insert("latency_p50_us", quantile(&lat, 0.5));
    out.end_to_end
        .insert("latency_p75_us", quantile(&lat, 0.75));
    out.per_layer
        .insert("e2e.latency_p95_us".into(), quantile(&lat, 0.95));
    out.per_layer
        .insert("e2e.latency_p99_us".into(), quantile(&lat, 0.99));
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
        let steps_per_fit = fits[0].step_us.len();
        traced_pass(
            opts,
            &ds,
            &split,
            &tcfg,
            &losses,
            steps_per_fit,
            throughput,
            &mut out,
        );
        let model = &fits.last().expect("at least one fit").model;
        let histories: Vec<Vec<usize>> = (0..ds.sequences.len())
            .map(|u| split.test_history(u))
            .filter(|h| !h.is_empty())
            .collect();
        let keys: Vec<Vec<usize>> = histories
            .iter()
            .map(|h| h[h.len().saturating_sub(model.max_len())..].to_vec())
            .collect();
        layers::time_layers(model, &histories, &keys, &mut out.per_layer);
    }
    Ok(out)
}

/// The traced pass: `Isrec::fit` from the same initialisation with every
/// probe armed. Reads the trainer's phase timers, the `nn.*` timers and
/// the autograd op table, per optimizer step.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    opts: &RunOpts,
    ds: &SequentialDataset,
    split: &LeaveOneOut,
    tcfg: &TrainConfig,
    untraced_losses: &[f32],
    untraced_steps: usize,
    untraced_steps_per_s: f64,
    out: &mut Outcome,
) {
    let armed = Armed::arm();
    let mut model = Isrec::new(ds, model_config(), opts.seed);
    let t = Instant::now();
    let report = model.fit(ds, split, tcfg);
    let elapsed_s = t.elapsed().as_secs_f64();
    let reg = Registry::snapshot();
    let ops = profile::op_table();
    let coverage = profile::totals().coverage();
    let (records, dropped) = ist_obs::trace::record_counts();
    drop(armed);

    out.check(same_losses(&report.epoch_losses, untraced_losses), || {
        format!(
            "traced Isrec::fit loss stream {:?} differs from the untraced {untraced_losses:?}",
            report.epoch_losses
        )
    });
    let fwd = reg.timer("train.forward");
    let steps = fwd.count;
    out.check(steps == untraced_steps as f64, || {
        format!("traced Isrec::fit took {steps} steps, the untraced fits {untraced_steps}")
    });
    let m = &mut out.per_layer;
    m.insert("train.steps".into(), steps);
    m.insert("train.forward_ms".into(), fwd.ms_per_call());
    m.insert(
        "train.backward_ms".into(),
        reg.timer("train.backward").ms_per_call(),
    );
    m.insert("train.opt_ms".into(), reg.timer("train.opt").ms_per_call());
    reg.layer_metrics_since(&Registry::default(), m);
    let per_step = |ns: u64| {
        if steps > 0.0 {
            ns as f64 / 1e6 / steps
        } else {
            0.0
        }
    };
    for op in AUTOGRAD_OPS {
        let stat = ops
            .iter()
            .find(|(name, _)| *name == op)
            .map(|(_, s)| *s)
            .unwrap_or_default();
        m.insert(format!("autograd.op.{op}.fwd_ms"), per_step(stat.fwd_ns));
        m.insert(format!("autograd.op.{op}.bwd_ms"), per_step(stat.bwd_ns));
    }
    m.insert("autograd.coverage".into(), coverage);
    let traced_steps_per_s = steps / elapsed_s;
    m.insert(
        "obs.overhead_pct".into(),
        (untraced_steps_per_s - traced_steps_per_s) / untraced_steps_per_s * 100.0,
    );
    let top: Vec<&str> = ops
        .iter()
        .take(AUTOGRAD_OPS.len())
        .map(|(name, _)| *name)
        .collect();
    out.notes.push(format!(
        "traced: Isrec::fit {steps} steps at {traced_steps_per_s:.2} steps/s vs {untraced_steps_per_s:.2} \
         untraced; op coverage {coverage:.3}; trace ring {records} records ({dropped} dropped); \
         costliest ops {top:?}"
    ));
}
