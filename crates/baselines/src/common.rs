//! Shared helpers for the baseline implementations.

use ist_data::{LeaveOneOut, SequentialDataset};
use ist_tensor::rng::SeedRng;
use rand::Rng;

/// All `(user, prefix_end)` training positions: the model predicts
/// `train[u][prefix_end]` from what precedes it. Used by the pairwise
/// (BPR) trainers.
pub fn training_positions(split: &LeaveOneOut) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (u, seq) in split.train.iter().enumerate() {
        for t in 0..seq.len() {
            out.push((u, t));
        }
    }
    out
}

/// Uniformly samples an item different from `positive`.
pub fn sample_one_negative(num_items: usize, positive: usize, rng: &mut SeedRng) -> usize {
    debug_assert!(num_items >= 2);
    loop {
        let j = rng.gen_range(0..num_items);
        if j != positive {
            return j;
        }
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Numerically stable `σ(x)`.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// A flat, manually updated embedding matrix (for the closed-form BPR
/// trainers, which bypass the autodiff tape for speed).
#[derive(Clone, Debug)]
pub struct FlatEmbedding {
    data: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl FlatEmbedding {
    /// `N(0, std²)` initialised table.
    pub fn new(rows: usize, dim: usize, std: f32, rng: &mut SeedRng) -> Self {
        let data = ist_tensor::rng::randn(&[rows.max(1), dim], std, rng).into_vec();
        FlatEmbedding {
            data,
            rows: rows.max(1),
            dim,
        }
    }

    /// Row accessor.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// SGD update `row += lr · grad_direction` with L2 shrinkage applied by
    /// the caller inside `f`.
    pub fn update_row(&mut self, r: usize, f: impl FnOnce(&mut [f32])) {
        f(&mut self.data[r * self.dim..(r + 1) * self.dim]);
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// One BPR-SGD update on a pair of row sets: given the preference score
/// gap `x_uij = s(u,i) − s(u,j)`, every passed (vector, gradient) pair is
/// updated with `v += lr · (σ(−x)·g − reg·v)`.
pub fn bpr_step(x_uij: f32, lr: f32, reg: f32, pairs: &mut [(&mut [f32], Vec<f32>)]) {
    let coeff = sigmoid(-x_uij);
    for (v, g) in pairs.iter_mut() {
        for (vi, gi) in v.iter_mut().zip(g.iter()) {
            *vi += lr * (coeff * gi - reg * *vi);
        }
    }
}

/// The BPR loss value for monitoring: `−ln σ(x_uij)`.
pub fn bpr_loss(x_uij: f32) -> f32 {
    // −ln σ(x) = softplus(−x), computed stably.
    let x = -x_uij;
    if x > 0.0 {
        x + (1.0 + (-x).exp()).ln()
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Popularity counts over the training split only (no test leakage).
pub fn train_popularity(dataset: &SequentialDataset, split: &LeaveOneOut) -> Vec<usize> {
    let mut pop = vec![0usize; dataset.num_items];
    for seq in &split.train {
        for &it in seq {
            pop[it] += 1;
        }
    }
    pop
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::rng::SeedRngExt as _;

    #[test]
    fn positions_enumerate_training_tokens() {
        let split = LeaveOneOut::split(&[vec![1, 2, 3, 4, 5], vec![1, 2]]);
        // User 0 trains on [1,2,3]; user 1 on [1].
        let pos = training_positions(&split);
        assert_eq!(pos.len(), 4);
        assert!(pos.contains(&(0, 2)));
        assert!(pos.contains(&(1, 0)));
    }

    #[test]
    fn negative_sampling_avoids_positive() {
        let mut rng = SeedRng::seed(1);
        for _ in 0..100 {
            assert_ne!(sample_one_negative(5, 3, &mut rng), 3);
        }
    }

    #[test]
    fn bpr_math() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!((bpr_loss(0.0) - std::f32::consts::LN_2).abs() < 1e-6);
        // Large positive gap → tiny loss; large negative → ≈ linear.
        assert!(bpr_loss(10.0) < 1e-3);
        assert!((bpr_loss(-10.0) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn bpr_step_moves_towards_preference() {
        // s = p·q; increasing gap means p should move towards (q_i - q_j).
        let mut p = vec![0.0f32, 0.0];
        let qi = [1.0f32, 0.0];
        let qj = [0.0f32, 1.0];
        let g: Vec<f32> = qi.iter().zip(&qj).map(|(a, b)| a - b).collect();
        bpr_step(0.0, 0.1, 0.0, &mut [(&mut p, g)]);
        assert!(p[0] > 0.0 && p[1] < 0.0);
    }

    #[test]
    fn flat_embedding_roundtrip() {
        let mut rng = SeedRng::seed(2);
        let mut e = FlatEmbedding::new(3, 4, 0.1, &mut rng);
        assert_eq!(e.dim(), 4);
        assert_eq!(e.rows(), 3);
        e.update_row(1, |r| r.fill(7.0));
        assert_eq!(e.row(1), &[7.0; 4]);
        assert_ne!(e.row(0), &[7.0; 4]);
    }
}
