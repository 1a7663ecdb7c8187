//! `fused::cross_entropy_rows`, which computes only the rows that carry a
//! weight, against the full-row computation it replaced: a log-softmax
//! over every row in the forward and a softmax over every row in the
//! backward. Loss and gradient must agree bit for bit, whatever the
//! zero-weight rows hold — NaN, ±inf, or an out-of-range target.

use ist_autograd::{fused, Tape};
use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::{reduce, Tensor};

/// The full-row loss and gradient (with an upstream gradient of 1).
fn full_rows(logits: &Tensor, targets: &[usize], weights: &[f32]) -> (f32, Tensor) {
    let (rows, classes) = (logits.shape()[0], logits.shape()[1]);
    let wsum: f32 = weights.iter().sum();
    let logp = reduce::log_softmax_lastdim(logits);
    let mut loss = 0.0f32;
    for r in 0..rows {
        if weights[r] == 0.0 {
            continue;
        }
        loss -= weights[r] * logp.data()[r * classes + targets[r]];
    }
    loss /= wsum;
    let scale = 1.0 / wsum;
    let mut dx = reduce::softmax_lastdim(logits).into_vec();
    for r in 0..rows {
        let w = weights[r] * scale;
        let row = &mut dx[r * classes..(r + 1) * classes];
        if weights[r] == 0.0 {
            row.fill(0.0);
            continue;
        }
        for v in row.iter_mut() {
            *v *= w;
        }
        row[targets[r]] -= w;
    }
    (loss, Tensor::from_vec(dx, &[rows, classes]))
}

fn weighted_rows(logits: &Tensor, targets: &[usize], weights: &[f32]) -> (f32, Tensor) {
    let tape = Tape::new();
    let x = tape.leaf(logits.clone());
    let loss = fused::cross_entropy_rows(&x, targets, weights);
    let grads = tape.backward(&loss);
    (
        loss.value().item(),
        grads[x.id()].clone().expect("logits gradient"),
    )
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A `[rows, classes]` batch where every row `r` with `weighted(r)` false
/// is padding: weight 0, an out-of-range target, and logits that hold a
/// NaN, ±inf or all-NaN values, so reading such a row would show.
fn batch(
    rows: usize,
    classes: usize,
    seed: u64,
    weighted: impl Fn(usize) -> bool,
) -> (Tensor, Vec<usize>, Vec<f32>) {
    let mut rng = SeedRng::seed(seed);
    let mut logits = uniform(&[rows, classes], -4.0, 4.0, &mut rng).into_vec();
    let mut targets = Vec::with_capacity(rows);
    let mut weights = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &mut logits[r * classes..(r + 1) * classes];
        if weighted(r) {
            targets.push((r * 7 + 3) % classes);
            weights.push(1.0 + (r % 3) as f32 * 0.5);
            continue;
        }
        match r % 4 {
            0 => row[r % classes] = f32::NAN,
            1 => row[0] = f32::INFINITY,
            2 => row[classes - 1] = f32::NEG_INFINITY,
            _ => row.fill(f32::NAN),
        }
        targets.push(classes + r);
        weights.push(if r % 2 == 0 { 0.0 } else { -0.0 });
    }
    (Tensor::from_vec(logits, &[rows, classes]), targets, weights)
}

fn assert_matches_full_rows(case: &str, logits: &Tensor, targets: &[usize], weights: &[f32]) {
    // The full-row code reads every target; give padded rows an in-range
    // one there, which it never uses.
    let classes = logits.shape()[1];
    let clamped: Vec<usize> = targets.iter().map(|&t| t % classes).collect();
    let (want_loss, want_grad) = full_rows(logits, &clamped, weights);
    let (got_loss, got_grad) = weighted_rows(logits, targets, weights);
    assert_eq!(
        got_loss.to_bits(),
        want_loss.to_bits(),
        "{case}: loss {got_loss} vs {want_loss}"
    );
    assert!(
        bits(&got_grad) == bits(&want_grad),
        "{case}: gradient bits differ"
    );
}

#[test]
fn weighted_rows_match_the_full_rows_bitwise() {
    // Left-padded sequences, like the training batches: the first
    // positions of each 20-step sequence carry no weight (a batch shorter
    // than one sequence keeps its last row). 1 280 rows of 891 classes is
    // the `train-beauty` shape and takes the pool.
    for (rows, classes) in [(3, 4), (40, 17), (1280, 891)] {
        let weighted = |r: usize| r % 20 >= 14 || r + 1 == rows;
        let (logits, targets, weights) = batch(rows, classes, rows as u64, weighted);
        assert_matches_full_rows(&format!("[{rows}, {classes}]"), &logits, &targets, &weights);
    }
}

#[test]
fn a_single_weighted_row_matches_the_full_rows_bitwise() {
    for (rows, classes, only) in [(1, 5, 0), (64, 33, 17), (1280, 891, 1279)] {
        let (logits, targets, weights) = batch(rows, classes, 7, |r| r == only);
        assert_matches_full_rows(
            &format!("[{rows}, {classes}] row {only}"),
            &logits,
            &targets,
            &weights,
        );
        let (_, grad) = weighted_rows(&logits, &targets, &weights);
        let nonzero_rows = (0..rows)
            .filter(|&r| {
                grad.data()[r * classes..(r + 1) * classes]
                    .iter()
                    .any(|&v| v != 0.0)
            })
            .count();
        assert_eq!(nonzero_rows, 1, "only the weighted row gets a gradient");
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn a_weighted_row_still_checks_its_target() {
    let (logits, mut targets, weights) = batch(4, 5, 3, |r| r == 2);
    targets[2] = 5;
    weighted_rows(&logits, &targets, &weights);
}
