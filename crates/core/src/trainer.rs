//! The one training loop (Eq. 13–14). Every Adam-trained model in the
//! workspace fits through [`train`]: ISRec, SASRec and GRU4Rec through its
//! next-item wrapper [`train_next_item`], and BERT4Rec, Caser, GRU4Rec⁺ and
//! NCF with their own batches and losses. The closed-form BPR-SGD trainers
//! (BPR-MF, FPMC, DGCF) have no tape and no optimizer and stay outside.

use ist_autograd::{fused, Param, Var};
use ist_data::sampling::{SeqBatch, SeqBatcher};
use ist_data::LeaveOneOut;
use ist_nn::optim::{clip_grad_norm, grad_norm, Adam, AdamState};
use ist_nn::Ctx;
use ist_tensor::rng::{SeedRng, SeedRngExt as _};
use ist_tensor::Tensor;
use rand::seq::SliceRandom;

use crate::checkpoint::CheckpointManager;
use crate::config::TrainConfig;
use crate::fault::FaultPlan;
use crate::recommender::{RecoveryEvent, RecoveryKind, TrainReport};
use crate::snapshot::{self, TrainerState};

/// Counts every rollback-and-retry the fault-tolerance path performs, so a
/// metrics stream records recoveries even when the caller drops the report.
static RECOVERIES: ist_obs::Counter = ist_obs::Counter::new("train.recoveries");

/// Per-step phase timers. Besides the aggregate numbers in the metrics
/// summary, each started timer opens a chrome-trace scope, so timelines
/// show forward / backward / optimizer segments inside every `train.epoch`
/// span (see `ist_obs::trace`).
static FWD_TIMER: ist_obs::Timer = ist_obs::Timer::new("train.forward");
static BWD_TIMER: ist_obs::Timer = ist_obs::Timer::new("train.backward");
static OPT_TIMER: ist_obs::Timer = ist_obs::Timer::new("train.opt");

/// Everything needed to rewind training to the start of an epoch: parameter
/// values, Adam's moments/step, and the shuffle-RNG cursor (captured
/// *before* the epoch shuffle, so a retried epoch revisits the same batch
/// order).
struct GoodState {
    values: Vec<Tensor>,
    adam: AdamState,
    rng: [u64; 4],
}

impl GoodState {
    fn capture(params: &[Param], opt: &Adam, rng: &SeedRng) -> GoodState {
        GoodState {
            values: params.iter().map(|p| p.value()).collect(),
            adam: opt.state(),
            rng: rng.state(),
        }
    }

    fn restore(&self, params: &[Param], opt: &mut Adam, rng: &mut SeedRng) {
        for (p, value) in params.iter().zip(&self.values) {
            p.set_value(value.clone());
        }
        opt.restore(self.adam.clone())
            .expect("rollback state was captured from this optimizer");
        *rng = SeedRng::from_state(self.rng);
    }
}

/// Trains `params` with Adam, minimising the scalar that `loss_of` maps
/// each batch to. The L2 term of Eq. (14) is applied as weight decay inside
/// Adam, and `cfg.grad_clip` bounds the global gradient norm.
///
/// `draw` builds one epoch's batches from the trainer's shuffle RNG, and
/// must depend on nothing else that changes between calls: a rolled-back
/// or resumed epoch restores the RNG and calls `draw` again, which then
/// replays the same order, masks and negatives. Step `s` of epoch `e` runs
/// `loss_of` once, on a [`Ctx`] seeded `cfg.seed ^ e << 32 ^ s`.
///
/// Threading: batch assembly and the tensor ops inside `loss_of`/backward
/// fan out over the shared worker pool, but the epoch RNG and the
/// optimizer step stay on this thread — gradients are applied in a fixed
/// order, so same-seed runs produce identical losses at any `IST_THREADS`.
///
/// Fault tolerance (always on): a non-finite loss or gradient norm aborts
/// the epoch, rolls parameters, optimizer and RNG back to the
/// start-of-epoch state, halves the learning rate, and retries (bounded by
/// `cfg.max_recovery_retries`); every action lands in
/// [`TrainReport::recovery`]. With `cfg.checkpoint` enabled, epochs are
/// durably checkpointed and the run resumes from the newest valid
/// checkpoint, reproducing the uninterrupted run's remaining epoch losses
/// bitwise. `cfg.faults` / `IST_FAULTS` inject deterministic faults to
/// exercise all of this (see `crate::fault`).
pub fn train<B, D, L>(cfg: &TrainConfig, params: Vec<Param>, draw: D, mut loss_of: L) -> TrainReport
where
    D: Fn(&mut SeedRng) -> Vec<B>,
    L: FnMut(&mut Ctx, &B) -> Var,
{
    let mut opt = Adam::new(params.clone(), cfg.lr, cfg.l2);
    let mut shuffle_rng = SeedRng::seed(cfg.seed ^ 0x00ffa17e);
    let mut report = TrainReport::default();
    let mut faults = match &cfg.faults {
        Some(spec) => FaultPlan::parse(spec).unwrap_or_else(|e| {
            eprintln!("warning: ignoring cfg.faults: {e}");
            FaultPlan::default()
        }),
        None => FaultPlan::from_env(),
    };

    let mut manager = match &cfg.checkpoint.dir {
        Some(dir) => match CheckpointManager::new(dir, cfg.checkpoint.retain) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("warning: checkpointing disabled: {e}");
                None
            }
        },
        None => None,
    };

    let mut start_epoch = 0usize;
    if cfg.checkpoint.resume {
        if let Some(mgr) = &manager {
            if let Some((epoch, state)) = mgr.load_latest(&params) {
                match opt.restore(AdamState {
                    t_step: state.adam_t,
                    m: state.adam_m,
                    v: state.adam_v,
                }) {
                    Ok(()) => {
                        opt.set_lr(state.lr);
                        shuffle_rng = SeedRng::from_state(state.rng_state);
                        start_epoch = epoch as usize + 1;
                        report.resumed_from = Some(epoch as usize);
                        if cfg.verbose {
                            eprintln!("resumed from checkpoint at epoch {epoch}");
                        }
                    }
                    Err(e) => eprintln!(
                        "warning: checkpoint does not fit this model ({e}); training from scratch"
                    ),
                }
            }
        }
    }

    'epochs: for epoch in start_epoch..cfg.epochs {
        let mut span = ist_obs::Span::enter("train.epoch").field("epoch", epoch);
        ist_tensor::mem::begin_epoch();
        let mut attempts = 0usize;
        let (mean, steps_done, last_gnorm) = loop {
            let good = GoodState::capture(&params, &opt, &shuffle_rng);
            let batches = draw(&mut shuffle_rng);
            let mut epoch_loss = 0.0f64;
            let mut last_gnorm = 0.0f32;
            let mut failure: Option<(usize, RecoveryKind)> = None;
            for (step, batch) in batches.iter().enumerate() {
                let mut ctx = Ctx::train(cfg.seed ^ ((epoch as u64) << 32) ^ step as u64);
                let loss = {
                    let _t = FWD_TIMER.start();
                    let _w = ist_autograd::profile::forward_window();
                    loss_of(&mut ctx, batch)
                };
                let mut loss_val = loss.value().item();
                if faults.take_loss_nan(epoch, step) {
                    loss_val = f32::NAN;
                }
                if !loss_val.is_finite() {
                    failure = Some((step, RecoveryKind::NonFiniteLoss));
                    break;
                }
                {
                    let _t = BWD_TIMER.start();
                    ctx.tape.backward(&loss);
                }
                // Free the tape before the update: its leaves share the
                // parameters' buffers, which the optimizer would otherwise
                // have to copy before writing.
                drop((loss, ctx));
                let _opt_t = OPT_TIMER.start();
                let mut gnorm = if cfg.grad_clip > 0.0 {
                    clip_grad_norm(&params, cfg.grad_clip)
                } else {
                    grad_norm(&params)
                };
                if faults.take_grad_inf(epoch, step) {
                    gnorm = f32::INFINITY;
                }
                if !gnorm.is_finite() {
                    for p in &params {
                        p.zero_grad();
                    }
                    failure = Some((step, RecoveryKind::NonFiniteGrad));
                    break;
                }
                opt.step();
                last_gnorm = gnorm;
                epoch_loss += loss_val as f64;
            }
            match failure {
                None => {
                    let steps = batches.len();
                    break if steps > 0 {
                        ((epoch_loss / steps as f64) as f32, steps, last_gnorm)
                    } else {
                        (0.0, 0, 0.0)
                    };
                }
                Some((step, kind)) => {
                    good.restore(&params, &mut opt, &mut shuffle_rng);
                    attempts += 1;
                    let lr_after = opt.lr() * 0.5;
                    opt.set_lr(lr_after);
                    let event = RecoveryEvent {
                        epoch,
                        step,
                        kind,
                        lr_after,
                    };
                    eprintln!("recovery: {event}");
                    RECOVERIES.add(1);
                    report.recovery.push(event);
                    if attempts > cfg.max_recovery_retries {
                        let abort = RecoveryEvent {
                            epoch,
                            step,
                            kind: RecoveryKind::RetriesExhausted,
                            lr_after,
                        };
                        eprintln!("recovery: {abort} — stopping training early");
                        report.recovery.push(abort);
                        break 'epochs;
                    }
                }
            }
        };
        if cfg.verbose {
            eprintln!("epoch {epoch:>3}: loss {mean:.4}");
        }
        report.epoch_losses.push(mean);
        if span.active() {
            span.add_field("loss", mean);
            span.add_field("steps", steps_done);
            span.add_field("grad_norm", last_gnorm);
            let secs = span.elapsed_secs();
            if secs > 0.0 {
                span.add_field("steps_per_s", steps_done as f64 / secs);
            }
            span.add_field("peak_mem_bytes", ist_tensor::mem::epoch_peak_bytes());
        }

        if let Some(mgr) = manager.as_mut() {
            let every = cfg.checkpoint.every_epochs.max(1);
            if (epoch + 1) % every == 0 || epoch + 1 == cfg.epochs {
                let adam = opt.state();
                let state = TrainerState {
                    epoch: epoch as u64,
                    rng_state: shuffle_rng.state(),
                    lr: opt.lr(),
                    adam_t: adam.t_step,
                    adam_m: adam.m,
                    adam_v: adam.v,
                };
                let written = snapshot::save_with_state(&params, Some(&state))
                    .and_then(|bytes| mgr.save(epoch as u64, &bytes, &mut faults));
                match written {
                    Ok(path) => report.checkpoints.push(path),
                    Err(e) => eprintln!("warning: checkpoint at epoch {epoch} failed: {e}"),
                }
            }
        }
    }
    report
}

/// Trains a next-item model through [`train`] on the weighted cross-entropy.
///
/// `forward` maps a training batch to full-vocabulary logits
/// (`[batch·len, num_items]`, aligned with the batch's `targets`/`weights`)
/// and is called once per step, in step order (again for the steps a
/// rolled-back epoch replays). ISRec, SASRec and GRU4Rec fit through here.
pub fn train_next_item<F>(
    split: &LeaveOneOut,
    batcher: &SeqBatcher,
    cfg: &TrainConfig,
    params: Vec<Param>,
    mut forward: F,
) -> TrainReport
where
    F: FnMut(&mut Ctx, &SeqBatch) -> Var,
{
    let draw = |rng: &mut SeedRng| shuffled_batches(split, batcher, rng);
    train(cfg, params, draw, |ctx, batch| {
        let logits = forward(ctx, batch);
        fused::cross_entropy_rows(&logits, &batch.targets, &batch.weights)
    })
}

/// One epoch of `batcher`'s batches over every training user, in an order
/// shuffled by `rng`. The batcher skips users without a transition, so
/// every batch has at least one target.
pub fn shuffled_batches(
    split: &LeaveOneOut,
    batcher: &SeqBatcher,
    rng: &mut SeedRng,
) -> Vec<SeqBatch> {
    let mut user_ids: Vec<usize> = (0..split.train.len()).collect();
    user_ids.shuffle(rng);
    batcher.batches(&split.train, &user_ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_autograd::ops;
    use ist_nn::Module;

    /// A minimal "model": logits = one embedding row per input item.
    struct Toy {
        table: ist_nn::embedding::Embedding,
        out: ist_nn::linear::Linear,
    }

    impl Toy {
        fn new(vocab: usize) -> Self {
            let mut rng = SeedRng::seed(3);
            Toy {
                table: ist_nn::embedding::Embedding::new("toy.emb", vocab + 1, 8, &mut rng),
                out: ist_nn::linear::Linear::new("toy.out", 8, vocab, &mut rng),
            }
        }
    }

    #[test]
    fn toy_model_learns_deterministic_transitions() {
        // World: 0→1→2→0→1→2…; the toy must learn the successor function.
        let vocab = 3;
        let sequences: Vec<Vec<usize>> = (0..24)
            .map(|u| (0..8).map(|t| (u + t) % vocab).collect())
            .collect();
        let split = LeaveOneOut::split(&sequences);
        let toy = Toy::new(vocab);
        let params = {
            let mut p = toy.table.params();
            p.extend(toy.out.params());
            p
        };
        let batcher = SeqBatcher::new(6, 8, vocab);
        let cfg = TrainConfig {
            epochs: 30,
            lr: 0.05,
            l2: 0.0,
            ..TrainConfig::smoke()
        };
        let report = train_next_item(&split, &batcher, &cfg, params, |ctx, batch| {
            let e = toy.table.forward(ctx, &batch.inputs);
            toy.out.forward(ctx, &e)
        });
        assert!(report.improved());
        assert!(
            *report.epoch_losses.last().unwrap() < 0.3,
            "deterministic successor should be learnable: {:?}",
            report.epoch_losses.last()
        );

        // And the prediction is right: after seeing item 1, predict 2.
        let ctx = Ctx::eval();
        let batch = batcher.inference_batch(&[&[0usize, 1][..]]);
        let e = toy.table.forward(&ctx, &batch.inputs);
        let logits = toy.out.forward(&ctx, &e);
        let last_row = logits.value();
        let row = &last_row.data()[(batch.len - 1) * vocab..batch.len * vocab];
        let argmax = ist_tensor::order::try_argmax(row).expect("logits are finite");
        assert_eq!(argmax, 2);
    }

    #[test]
    fn empty_epochs_do_not_panic() {
        let split = LeaveOneOut::split(&[vec![1usize]]); // too short to train
        let batcher = SeqBatcher::new(4, 8, 10);
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::smoke()
        };
        let report = train_next_item(&split, &batcher, &cfg, vec![], |ctx, _| {
            ctx.tape.leaf(ist_tensor::Tensor::zeros(&[1, 1]))
        });
        assert_eq!(report.epoch_losses, vec![0.0, 0.0]);
    }

    #[test]
    fn grad_clipping_engages_without_breaking_learning() {
        let vocab = 3;
        let sequences: Vec<Vec<usize>> = (0..12).map(|_| vec![0, 1, 2, 0, 1, 2]).collect();
        let split = LeaveOneOut::split(&sequences);
        let toy = Toy::new(vocab);
        let params = {
            let mut p = toy.table.params();
            p.extend(toy.out.params());
            p
        };
        let batcher = SeqBatcher::new(4, 4, vocab);
        let cfg = TrainConfig {
            epochs: 5,
            lr: 0.05,
            grad_clip: 0.01,
            l2: 0.0,
            ..TrainConfig::smoke()
        };
        let report = train_next_item(&split, &batcher, &cfg, params, |ctx, batch| {
            let e = toy.table.forward(ctx, &batch.inputs);
            let h = ops::relu(&e);
            toy.out.forward(ctx, &h)
        });
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }
}
