//! Quickstart: generate an intent-driven world, train ISRec, and produce
//! an explained recommendation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use isrec_suite::data::{IntentWorld, LeaveOneOut, WorldConfig};
use isrec_suite::eval::{EvalProtocol, ProtocolConfig};
use isrec_suite::isrec::{
    explain, CheckpointConfig, Isrec, IsrecConfig, SequentialRecommender, TrainConfig,
};

fn main() {
    // 1. A small Amazon-Beauty-like world (synthetic; see DESIGN.md §2).
    let dataset = IntentWorld::new(WorldConfig::beauty_like().scaled(0.3)).generate(42);
    println!(
        "dataset `{}`: {} users, {} items, {} interactions, {} concepts",
        dataset.name,
        dataset.num_users(),
        dataset.num_items,
        dataset.num_interactions(),
        dataset.num_concepts()
    );

    // 2. Leave-one-out split and an ISRec model with the paper's defaults
    //    (d'=8, λ=10, two transformer layers, two GCN layers).
    let split = LeaveOneOut::split(&dataset.sequences);
    let mut model = Isrec::new(
        &dataset,
        IsrecConfig {
            max_len: 20,
            ..Default::default()
        },
        7,
    );

    // 3. Train with Adam on the next-item objective (Eq. 13–14). Setting
    //    IST_CKPT_DIR enables durable checkpoints + resume (and IST_FAULTS
    //    injects deterministic failures — see DESIGN.md).
    let mut train = TrainConfig {
        epochs: 8,
        lr: 5e-3,
        verbose: true,
        ..Default::default()
    };
    if let Some(dir) = isrec_suite::obs::env::value("IST_CKPT_DIR") {
        train.checkpoint = CheckpointConfig::in_dir(dir);
    }
    let report = model.fit(&dataset, &split, &train);
    if let Some(epoch) = report.resumed_from {
        println!("resumed from checkpoint at epoch {epoch}");
    }
    for event in &report.recovery {
        println!("recovery: {event}");
    }
    println!(
        "training: first-epoch loss {:.3} → last-epoch loss {:.3}",
        report.epoch_losses.first().unwrap(),
        report.epoch_losses.last().unwrap()
    );

    // 4. Rank under the leave-one-out + negatives protocol (§4.2.1) on a
    //    user subsample, to show where the headline metrics come from.
    let proto = EvalProtocol::build(
        &dataset,
        &split,
        &ProtocolConfig {
            max_users: 100,
            ..Default::default()
        },
    );
    let metrics = proto.evaluate(&model);
    println!("\nranking metrics over {} users:", proto.len());
    for (name, value) in metrics.named() {
        println!("  {name:<8} {value:.4}");
    }

    // 5. Recommend — with the intermediate intents that explain it.
    let user = split.test_users()[0];
    let history = split.test_history(user);
    let trace = explain::explain(&model, &dataset, &history, 5);
    println!("\nexplained recommendation for user {user}:");
    print!("{}", explain::render_trace(&trace, &dataset));

    // With IST_METRICS=json|summary set, drain the telemetry collected
    // across training and evaluation (a no-op when disabled).
    isrec_suite::obs::flush();
}
