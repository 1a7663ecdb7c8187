//! Integration tests for the crash-safety stack: kill-and-resume bitwise
//! determinism, non-finite-loss recovery, checkpoint corruption fallback,
//! and property tests over the snapshot format.

use isrec_core::trainer::train_next_item;
use isrec_core::{snapshot, CheckpointConfig, RecoveryKind, TrainConfig, TrainReport};
use ist_autograd::Param;
use ist_data::sampling::SeqBatcher;
use ist_data::LeaveOneOut;
use ist_nn::Module;
use ist_tensor::rng::{SeedRng, SeedRngExt as _};
use ist_tensor::Tensor;
use proptest::prelude::*;

const VOCAB: usize = 5;

/// A minimal deterministic model: logits = Linear(Embedding(item)).
struct Toy {
    table: ist_nn::embedding::Embedding,
    out: ist_nn::linear::Linear,
}

impl Toy {
    fn new() -> Toy {
        let mut rng = SeedRng::seed(11);
        Toy {
            table: ist_nn::embedding::Embedding::new("toy.emb", VOCAB + 1, 8, &mut rng),
            out: ist_nn::linear::Linear::new("toy.out", 8, VOCAB, &mut rng),
        }
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.table.params();
        p.extend(self.out.params());
        p
    }
}

/// Fresh world + fresh model each run, so two [`run`] calls with the same
/// config are fully independent processes as far as the trainer can tell.
fn run(cfg: &TrainConfig) -> TrainReport {
    let sequences: Vec<Vec<usize>> = (0..20)
        .map(|u| (0..10).map(|t| (u + t) % VOCAB).collect())
        .collect();
    let split = LeaveOneOut::split(&sequences);
    let toy = Toy::new();
    let batcher = SeqBatcher::new(4, 8, VOCAB);
    train_next_item(&split, &batcher, cfg, toy.params(), |ctx, batch| {
        let e = toy.table.forward(ctx, &batch.inputs);
        toy.out.forward(ctx, &e)
    })
}

fn base_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 0.05,
        l2: 0.0,
        grad_clip: 0.0,
        seed: 42,
        // Explicit empty plan: keep these tests isolated from any
        // IST_FAULTS set in the surrounding environment.
        faults: Some(String::new()),
        ..TrainConfig::smoke()
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("isrec-ft-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bitwise view of a loss curve (`==` on f32 would also accept -0.0 == 0.0).
fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn kill_and_resume_is_bitwise_identical_to_uninterrupted_run() {
    let full = run(&base_cfg(6));
    assert_eq!(full.epoch_losses.len(), 6);

    // "Kill" after 3 epochs: a fresh process that only got that far.
    let dir = tmpdir("resume");
    let mut first_cfg = base_cfg(3);
    first_cfg.checkpoint = CheckpointConfig::in_dir(&dir);
    let first = run(&first_cfg);
    assert!(first.resumed_from.is_none());
    assert!(!first.checkpoints.is_empty());
    assert_eq!(bits(&first.epoch_losses), bits(&full.epoch_losses[..3]));

    // Restart with the full epoch budget: must pick up at epoch 3 and
    // replay the uninterrupted run's remaining losses bit for bit.
    let mut second_cfg = base_cfg(6);
    second_cfg.checkpoint = CheckpointConfig::in_dir(&dir);
    let second = run(&second_cfg);
    assert_eq!(second.resumed_from, Some(2));
    assert_eq!(bits(&second.epoch_losses), bits(&full.epoch_losses[3..]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_nan_loss_is_survived_and_recorded() {
    let mut cfg = base_cfg(3);
    cfg.faults = Some("loss_nan@e1s0".into());
    let report = run(&cfg);
    assert_eq!(report.epoch_losses.len(), 3, "all epochs must complete");
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    assert_eq!(report.recovery.len(), 1);
    let ev = &report.recovery[0];
    assert_eq!(ev.kind, RecoveryKind::NonFiniteLoss);
    assert_eq!((ev.epoch, ev.step), (1, 0));
    assert_eq!(ev.lr_after, cfg.lr * 0.5, "one backoff halves the LR");
}

#[test]
fn injected_infinite_gradient_is_survived_and_recorded() {
    let mut cfg = base_cfg(3);
    cfg.faults = Some("grad_inf@e0s1".into());
    let report = run(&cfg);
    assert_eq!(report.epoch_losses.len(), 3);
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    assert_eq!(report.recovery.len(), 1);
    assert_eq!(report.recovery[0].kind, RecoveryKind::NonFiniteGrad);
}

#[test]
fn exhausted_retries_stop_training_early() {
    let mut cfg = base_cfg(4);
    cfg.max_recovery_retries = 1;
    cfg.faults = Some("loss_nan@e0s0,loss_nan@e0s0".into());
    let report = run(&cfg);
    assert!(report.epoch_losses.is_empty(), "epoch 0 never succeeded");
    assert_eq!(
        report.recovery.last().map(|ev| ev.kind),
        Some(RecoveryKind::RetriesExhausted)
    );
}

#[test]
fn torn_checkpoint_write_falls_back_to_older_valid_resume_point() {
    let full = run(&base_cfg(6));

    // The newest of the three checkpoint writes is torn mid-file.
    let dir = tmpdir("torn");
    let mut first_cfg = base_cfg(3);
    first_cfg.checkpoint = CheckpointConfig::in_dir(&dir);
    first_cfg.faults = Some("torn_write@ckpt3".into());
    run(&first_cfg);

    // Resume skips the torn epoch-2 file, lands on epoch 1, and the
    // remaining losses still match the uninterrupted run bitwise.
    let mut second_cfg = base_cfg(6);
    second_cfg.checkpoint = CheckpointConfig::in_dir(&dir);
    let second = run(&second_cfg);
    assert_eq!(second.resumed_from, Some(1));
    assert_eq!(bits(&second.epoch_losses), bits(&full.epoch_losses[2..]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bitflipped_checkpoint_is_rejected_on_resume() {
    let full = run(&base_cfg(4));

    let dir = tmpdir("bitflip");
    let mut first_cfg = base_cfg(2);
    first_cfg.checkpoint = CheckpointConfig::in_dir(&dir);
    first_cfg.faults = Some("bitflip@ckpt2".into());
    run(&first_cfg);

    let mut second_cfg = base_cfg(4);
    second_cfg.checkpoint = CheckpointConfig::in_dir(&dir);
    let second = run(&second_cfg);
    assert_eq!(
        second.resumed_from,
        Some(0),
        "the flipped epoch-1 checkpoint must fail its checksum"
    );
    assert_eq!(bits(&second.epoch_losses), bits(&full.epoch_losses[1..]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic pseudo-random but well-behaved parameter values.
fn fill(seed: u64, i: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|j| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i * 8191 + j) as u64);
            ((h % 20_001) as f32 - 10_000.0) * 1e-3
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn snapshot_roundtrip_restores_arbitrary_params(
        specs in prop::collection::vec(
            (prop::collection::vec(97u8..123, 1..12), prop::collection::vec(1usize..5, 1..4)),
            1..6,
        ),
        seed in 0u64..1_000_000,
    ) {
        let params: Vec<Param> = specs
            .iter()
            .enumerate()
            .map(|(i, (name_bytes, shape))| {
                // Index prefix keeps randomly drawn names unique.
                let name = format!("{i}:{}", String::from_utf8(name_bytes.clone()).unwrap());
                let len = shape.iter().product();
                Param::new(name, Tensor::from_vec(fill(seed, i, len), shape))
            })
            .collect();
        let snap = snapshot::save(&params).unwrap();
        let fresh: Vec<Param> = params
            .iter()
            .map(|p| Param::new(p.name(), Tensor::zeros(&p.shape())))
            .collect();
        let restored = snapshot::load(&fresh, snap).unwrap();
        prop_assert_eq!(restored, params.len());
        for (orig, back) in params.iter().zip(&fresh) {
            let (ov, bv) = (orig.value(), back.value());
            prop_assert_eq!(ov.data(), bv.data());
        }
    }

    #[test]
    fn any_single_byte_corruption_is_rejected(
        pos_salt in 0usize..100_000,
        mask in 1u32..256,
        seed in 0u64..1_000_000,
    ) {
        let p = Param::new("w", Tensor::from_vec(fill(seed, 0, 12), &[3, 4]));
        let mut raw = snapshot::save(std::slice::from_ref(&p)).unwrap().to_vec();
        let pos = pos_salt % raw.len();
        raw[pos] ^= mask as u8;
        let target = Param::new("w", Tensor::zeros(&[3, 4]));
        let result = snapshot::load(std::slice::from_ref(&target), raw);
        prop_assert!(result.is_err(), "corruption at byte {} (mask {:#04x}) was accepted", pos, mask);
        // And the rejected snapshot must not have touched the model.
        prop_assert!(target.value().data().iter().all(|&v| v == 0.0));
    }
}
