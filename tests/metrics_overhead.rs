//! The observability layer's zero-cost contract: with telemetry disabled
//! the training loss stream is bitwise identical to a run that never knew
//! about `ist-obs`, and with JSON telemetry enabled the same run still
//! produces the same bits while emitting well-formed JSON lines.

use std::io::Write;
use std::sync::{Arc, Mutex};

use isrec_suite::baselines::SasRec;
use isrec_suite::data::{IntentWorld, LeaveOneOut, WorldConfig};
use isrec_suite::isrec::{SequentialRecommender, TrainConfig};
use isrec_suite::obs;

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

fn train_once() -> Vec<f32> {
    let ds = IntentWorld::new(WorldConfig::epinions_like().scaled(0.12)).generate(9);
    let split = LeaveOneOut::split(&ds.sequences);
    let mut model = SasRec::new(16, 10, 1, 1);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::smoke()
    };
    model.fit(&ds, &split, &cfg).epoch_losses
}

#[test]
fn metrics_do_not_perturb_training_and_emit_valid_json() {
    // Baseline: telemetry off (the default for every user who never sets
    // IST_METRICS) — probes must reduce to one relaxed atomic load.
    obs::set_mode(obs::Mode::Off);
    let base = train_once();
    assert!(!base.is_empty());

    // Same run with JSON telemetry into an in-memory sink.
    obs::reset();
    let buf = SharedBuf::default();
    obs::set_output(Box::new(buf.clone()));
    obs::set_mode(obs::Mode::Json);
    let with_metrics = train_once();
    obs::flush();
    obs::set_mode(obs::Mode::Off);

    assert_eq!(base.len(), with_metrics.len());
    for (i, (a, b)) in base.iter().zip(&with_metrics).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "epoch {i}: telemetry perturbed the loss stream ({a} vs {b})"
        );
    }

    // The emitted lines pass the telemetry schema, and the run covered
    // the trainer and the hot tensor/optim ops.
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines = obs::schema::metrics_lines(&text).unwrap();
    for probe in ["train.epoch", "nn.adam_step", "tensor.gemm"] {
        assert!(lines.has_span(probe), "no {probe} telemetry in:\n{text}");
    }
}
