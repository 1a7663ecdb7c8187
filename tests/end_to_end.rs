//! Cross-crate integration tests: the full pipeline from world generation
//! through training to evaluation, for ISRec and representative baselines.

use isrec_suite::data::{IntentWorld, LeaveOneOut, WorldConfig};
use isrec_suite::eval::{EvalProtocol, ModelSpec, ProtocolConfig};
use isrec_suite::isrec::{Isrec, IsrecConfig, IsrecVariant, SequentialRecommender, TrainConfig};

fn tiny_world(seed: u64) -> isrec_suite::data::SequentialDataset {
    IntentWorld::new(WorldConfig::steam_like().scaled(0.08)).generate(seed)
}

fn fast_train() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        lr: 5e-3,
        batch_size: 32,
        ..Default::default()
    }
}

#[test]
fn isrec_trains_and_beats_chance() {
    let ds = tiny_world(1);
    let split = LeaveOneOut::split(&ds.sequences);
    let proto = EvalProtocol::build(
        &ds,
        &split,
        &ProtocolConfig {
            max_users: 60,
            ..Default::default()
        },
    );

    let cfg = IsrecConfig {
        d: 24,
        max_len: 12,
        layers: 1,
        ..Default::default()
    };
    let mut model = Isrec::new(&ds, cfg, 3);
    let report = model.fit(&ds, &split, &fast_train());
    assert!(report.improved(), "losses: {:?}", report.epoch_losses);

    let m = proto.evaluate(&model);
    // Chance HR@10 with ~101 candidates is ≈ 0.10; a trained model must
    // comfortably clear it on intent-driven data.
    assert!(m.hr10 > 0.15, "HR@10 {:.3} barely above chance", m.hr10);
    assert!(m.mrr > 0.03);
}

#[test]
fn every_table2_model_runs_the_full_pipeline() {
    let ds = tiny_world(2);
    let split = LeaveOneOut::split(&ds.sequences);
    let proto = EvalProtocol::build(
        &ds,
        &split,
        &ProtocolConfig {
            max_users: 25,
            num_negatives: 50,
            ..Default::default()
        },
    );
    let train = TrainConfig {
        epochs: 1,
        batch_size: 32,
        ..Default::default()
    };
    for spec in ModelSpec::table2() {
        let mut model = spec.build(&ds, 10);
        let cfg = spec.train_config(&train);
        model.fit(&ds, &split, &cfg);
        let m = proto.evaluate(model.as_ref());
        assert!(
            (0.0..=1.0).contains(&m.hr10) && m.mrr.is_finite(),
            "{} produced invalid metrics {m:?}",
            model.name()
        );
    }
}

#[test]
fn ablation_variants_run_and_differ() {
    let ds = tiny_world(3);
    let split = LeaveOneOut::split(&ds.sequences);
    let hist = split.test_history(split.test_users()[0]);
    let cands: Vec<usize> = (0..ds.num_items.min(20)).collect();

    let mut scores = Vec::new();
    for variant in [
        IsrecVariant::Full,
        IsrecVariant::WithoutGnn,
        IsrecVariant::WithoutGnnAndIntent,
    ] {
        let cfg = IsrecConfig {
            d: 16,
            max_len: 10,
            layers: 1,
            variant,
            ..Default::default()
        };
        let mut model = Isrec::new(&ds, cfg, 5);
        model.fit(
            &ds,
            &split,
            &TrainConfig {
                epochs: 1,
                ..fast_train()
            },
        );
        scores.push(model.score(&hist, &cands));
    }
    assert_ne!(
        scores[0], scores[2],
        "intent modules must change the scores"
    );
}

#[test]
fn explanations_cover_history_and_name_real_concepts() {
    let ds = tiny_world(4);
    let split = LeaveOneOut::split(&ds.sequences);
    let cfg = IsrecConfig {
        d: 16,
        max_len: 10,
        layers: 1,
        lambda: 4,
        ..Default::default()
    };
    let mut model = Isrec::new(&ds, cfg, 6);
    model.fit(
        &ds,
        &split,
        &TrainConfig {
            epochs: 2,
            ..fast_train()
        },
    );

    let user = split.test_users()[0];
    let hist = split.test_history(user);
    let trace = isrec_suite::isrec::explain::explain(&model, &ds, &hist, 4);
    assert_eq!(trace.steps.len(), hist.len().min(10));
    assert_eq!(trace.recommended_items.len(), 4);
    let vocab: std::collections::HashSet<&String> = ds.concept_names.iter().collect();
    for step in &trace.steps {
        for name in step
            .activated_intents
            .iter()
            .chain(&step.predicted_next_intents)
        {
            assert!(vocab.contains(name), "unknown concept name {name}");
        }
    }
}

#[test]
fn snapshot_roundtrip_preserves_scores() {
    use isrec_suite::isrec::snapshot;
    use isrec_suite::nn::Module;

    let ds = tiny_world(5);
    let split = LeaveOneOut::split(&ds.sequences);
    let cfg = IsrecConfig {
        d: 16,
        max_len: 10,
        layers: 1,
        ..Default::default()
    };
    let mut model = Isrec::new(&ds, cfg.clone(), 8);
    model.fit(
        &ds,
        &split,
        &TrainConfig {
            epochs: 1,
            ..fast_train()
        },
    );

    let hist = split.test_history(split.test_users()[0]);
    let cands: Vec<usize> = (0..10).collect();
    let before = model.score(&hist, &cands);

    let bytes = snapshot::save(&model.params()).expect("save");
    let fresh = Isrec::new(&ds, cfg, 999); // different init seed
    let restored = snapshot::load(&fresh.params(), bytes).expect("load");
    assert_eq!(restored, fresh.params().len());
    let after = fresh.score(&hist, &cands);
    assert_eq!(before, after, "restored model must score identically");
}

#[test]
fn isrec_resume_replays_uninterrupted_losses_bitwise() {
    use isrec_suite::isrec::CheckpointConfig;

    let ds = tiny_world(9);
    let split = LeaveOneOut::split(&ds.sequences);
    let cfg = IsrecConfig {
        d: 16,
        max_len: 10,
        layers: 1,
        ..Default::default()
    };
    let train = |epochs: usize, checkpoint: CheckpointConfig| {
        let mut model = Isrec::new(&ds, cfg.clone(), 8);
        model.fit(
            &ds,
            &split,
            &TrainConfig {
                epochs,
                checkpoint,
                faults: Some(String::new()),
                ..fast_train()
            },
        )
    };
    let bits = |losses: &[f32]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();

    let full = train(4, CheckpointConfig::default());
    let dir = std::env::temp_dir().join(format!("isrec-e2e-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = train(2, CheckpointConfig::in_dir(&dir));
    assert_eq!(bits(&first.epoch_losses), bits(&full.epoch_losses[..2]));
    let second = train(4, CheckpointConfig::in_dir(&dir));
    assert_eq!(second.resumed_from, Some(1));
    assert_eq!(
        bits(&second.epoch_losses),
        bits(&full.epoch_losses[2..]),
        "resumed ISRec must replay the uninterrupted run's losses bitwise"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adam_baselines_recover_and_resume_like_isrec() {
    use isrec_suite::isrec::{CheckpointConfig, RecoveryKind};

    let ds = tiny_world(9);
    let split = LeaveOneOut::split(&ds.sequences);
    let bits = |losses: &[f32]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    for spec in [
        ModelSpec::Bert4Rec,
        ModelSpec::Caser,
        ModelSpec::Gru4RecPlus,
        ModelSpec::Ncf,
    ] {
        let train = |epochs: usize, checkpoint: CheckpointConfig, faults: &str| {
            let mut model = spec.build(&ds, 10);
            let report = model.fit(
                &ds,
                &split,
                &TrainConfig {
                    epochs,
                    checkpoint,
                    faults: Some(faults.into()),
                    ..fast_train()
                },
            );
            (model.name(), report)
        };

        let (name, faulted) = train(2, CheckpointConfig::default(), "loss_nan@e1s0");
        let kinds: Vec<RecoveryKind> = faulted.recovery.iter().map(|ev| ev.kind).collect();
        assert_eq!(kinds, [RecoveryKind::NonFiniteLoss], "{name}");
        assert_eq!(faulted.epoch_losses.len(), 2, "{name}");
        assert!(
            faulted.epoch_losses.iter().all(|l| l.is_finite()),
            "{name}: {:?}",
            faulted.epoch_losses
        );

        let (_, full) = train(4, CheckpointConfig::default(), "");
        let dir = std::env::temp_dir().join(format!(
            "isrec-e2e-resume-{}-{}",
            name.replace('+', "plus"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        train(2, CheckpointConfig::in_dir(&dir), "");
        let (_, resumed) = train(4, CheckpointConfig::in_dir(&dir), "");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(resumed.resumed_from, Some(1), "{name}");
        assert_eq!(
            bits(&resumed.epoch_losses),
            bits(&full.epoch_losses[2..]),
            "resumed {name} must replay the uninterrupted run's losses bitwise"
        );
    }
}

#[test]
fn suite_runner_produces_a_full_table_block() {
    let ds = tiny_world(6);
    let train = TrainConfig {
        epochs: 1,
        batch_size: 32,
        ..Default::default()
    };
    let proto = ProtocolConfig {
        max_users: 20,
        num_negatives: 30,
        ..Default::default()
    };
    let specs = [ModelSpec::PopRec, ModelSpec::Fpmc, ModelSpec::Isrec];
    let cells = isrec_suite::eval::run_suite(&specs, &ds, &train, &proto, 10, 3);
    let block = isrec_suite::eval::report::render_table2_block(&ds.name, &cells);
    assert!(block.contains("ISRec"));
    assert!(block.contains("HR@10"));
    assert!(block.contains("Improv."));
}
