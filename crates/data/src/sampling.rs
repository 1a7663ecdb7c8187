//! Weighted sampling, negative sampling and padded batch construction.

use std::collections::HashSet;

use ist_tensor::pool;
use ist_tensor::rng::SeedRng;
use rand::Rng;

/// Why a [`WeightedSampler`] could not be built: every variant was an
/// `assert!` (process abort) before the constructor became fallible.
#[derive(Clone, Debug, PartialEq)]
pub enum WeightedSamplerError {
    /// No weights at all (`zipf(0, s)` lands here).
    Empty,
    /// A weight is negative, NaN, or infinite.
    Invalid {
        /// Offending position.
        index: usize,
        /// The weight found there.
        weight: f64,
    },
    /// Every weight is zero: no distribution to draw from.
    ZeroMass,
}

impl std::fmt::Display for WeightedSamplerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightedSamplerError::Empty => write!(f, "no weights given"),
            WeightedSamplerError::Invalid { index, weight } => {
                write!(f, "invalid weight {weight} at index {index}")
            }
            WeightedSamplerError::ZeroMass => write!(f, "all weights are zero"),
        }
    }
}

impl std::error::Error for WeightedSamplerError {}

/// Cumulative-weight sampler over `0..n` (binary search on prefix sums).
#[derive(Clone, Debug)]
pub struct WeightedSampler {
    cumulative: Vec<f64>,
}

impl WeightedSampler {
    /// Builds from non-negative weights. Empty input, any negative or
    /// non-finite weight, or an all-zero vector is a typed
    /// [`WeightedSamplerError`] instead of a panic.
    pub fn new(weights: &[f64]) -> Result<Self, WeightedSamplerError> {
        if weights.is_empty() {
            return Err(WeightedSamplerError::Empty);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        for (index, &w) in weights.iter().enumerate() {
            if !(w >= 0.0 && w.is_finite()) {
                return Err(WeightedSamplerError::Invalid { index, weight: w });
            }
            acc += w;
            cumulative.push(acc);
        }
        if acc <= 0.0 {
            return Err(WeightedSamplerError::ZeroMass);
        }
        Ok(WeightedSampler { cumulative })
    }

    /// Zipf weights `1/(rank+1)^s` over `n` entries, applied to identity
    /// ranks (callers shuffle ids separately to decorrelate id and rank).
    /// `n == 0` is [`WeightedSamplerError::Empty`] (formerly an assert).
    pub fn zipf(n: usize, s: f64) -> Result<Self, WeightedSamplerError> {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        Self::new(&weights)
    }

    /// Draws one index.
    ///
    /// The comparator is `total_cmp`, which is panic-free. On every value
    /// the constructor admits it agrees exactly with the historical
    /// `partial_cmp(..).expect("finite")`: prefix sums are finite and
    /// `+0.0`-or-positive (the accumulator starts at `+0.0` and adds
    /// non-negative weights, so `-0.0` is unreachable), and `x ∈ [0,
    /// total)` — pinned sampling streams are bit-identical.
    pub fn sample(&self, rng: &mut SeedRng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let x = rng.gen_range(0.0..total);
        match self.cumulative.binary_search_by(|c| c.total_cmp(&x)) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(self.cumulative.len() - 1)
    }
}

/// Draws `n` distinct uniform negatives from `0..num_items` avoiding
/// `exclude` (the paper's 100-negatives evaluation protocol).
///
/// Two regimes: when the item pool is comfortably larger than the request
/// (`exclude.len() + n ≤ num_items / 2`), the historical rejection sampler
/// runs — kept bit-for-bit so seeds pinned before the dense path landed
/// still reproduce the same negatives. When exclusions are dense, rejection
/// degenerates (its expected draw count diverges as the free pool shrinks),
/// so the complement is materialised and a partial Fisher–Yates takes
/// exactly `n` RNG draws regardless of density.
///
/// Panics if fewer than `n` candidates exist.
pub fn sample_negatives(
    num_items: usize,
    exclude: &HashSet<usize>,
    n: usize,
    rng: &mut SeedRng,
) -> Vec<usize> {
    assert!(
        num_items - exclude.len().min(num_items) >= n,
        "not enough negative candidates"
    );
    if exclude.len() + n > num_items / 2 {
        let mut candidates: Vec<usize> = (0..num_items).filter(|i| !exclude.contains(i)).collect();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let j = rng.gen_range(i..candidates.len());
            candidates.swap(i, j);
            out.push(candidates[i]);
        }
        return out;
    }
    let mut out = Vec::with_capacity(n);
    let mut seen = exclude.clone();
    while out.len() < n {
        let cand = rng.gen_range(0..num_items);
        if seen.insert(cand) {
            out.push(cand);
        }
    }
    out
}

/// A padded, batch-major training batch for next-item prediction.
///
/// Layout: all per-position vectors have length `batch · len`, index
/// `b·len + t`. The padding item id is `num_items` (one past the real item
/// range), so models allocate `num_items + 1` embedding rows.
#[derive(Clone, Debug)]
pub struct SeqBatch {
    /// Input item at each position (pad id = `num_items`).
    pub inputs: Vec<usize>,
    /// Target item (next item) at each position (pad id where unused).
    pub targets: Vec<usize>,
    /// 1.0 where a real prediction is scored, 0.0 at padding.
    pub weights: Vec<f32>,
    /// True at padding positions (for attention masks).
    pub pad: Vec<bool>,
    /// Number of sequences in the batch.
    pub batch: usize,
    /// Padded sequence length.
    pub len: usize,
    /// The users this batch covers (parallel to batch rows).
    pub users: Vec<usize>,
}

/// Builds left-padded next-item batches from training sequences.
///
/// For a sequence `[v1 … vn]` the inputs are `[v1 … v_{n-1}]` and targets
/// `[v2 … vn]` (the paper's training objective), truncated to the *last*
/// `max_len` steps and left-padded to exactly `max_len`.
pub struct SeqBatcher {
    max_len: usize,
    batch_size: usize,
    pad_id: usize,
}

impl SeqBatcher {
    /// `pad_id` should be `dataset.num_items`.
    pub fn new(max_len: usize, batch_size: usize, pad_id: usize) -> Self {
        assert!(max_len >= 1 && batch_size >= 1);
        SeqBatcher {
            max_len,
            batch_size,
            pad_id,
        }
    }

    /// Splits `user_ids` into batches over `sequences` (skipping sequences
    /// with fewer than 2 items, which admit no transition).
    ///
    /// Batch assembly is RNG-free, so it is dealt to the shared worker pool
    /// for large epochs: each batch is built by exactly one task and the
    /// results come back in order, making the output identical for every
    /// pool size (the epoch shuffle that produced `user_ids` stays with the
    /// caller, on the main thread).
    pub fn batches(&self, sequences: &[Vec<usize>], user_ids: &[usize]) -> Vec<SeqBatch> {
        let usable: Vec<usize> = user_ids
            .iter()
            .copied()
            .filter(|&u| sequences[u].len() >= 2)
            .collect();
        // Work ≈ max_len items copied per usable user.
        if pool::should_parallelize(usable.len() * self.max_len, pool::ELEM_GRAIN) {
            pool::parallel_map_chunks(&usable, self.batch_size, |chunk| {
                self.build(sequences, chunk)
            })
        } else {
            usable
                .chunks(self.batch_size)
                .map(|chunk| self.build(sequences, chunk))
                .collect()
        }
    }

    fn build(&self, sequences: &[Vec<usize>], users: &[usize]) -> SeqBatch {
        let t = self.max_len;
        let b = users.len();
        let mut inputs = vec![self.pad_id; b * t];
        let mut targets = vec![self.pad_id; b * t];
        let mut weights = vec![0.0f32; b * t];
        let mut pad = vec![true; b * t];
        for (bi, &u) in users.iter().enumerate() {
            let seq = &sequences[u];
            // Transitions: (seq[i] → seq[i+1]); keep the last `t` of them.
            let n_trans = seq.len() - 1;
            let take = n_trans.min(t);
            let start = n_trans - take; // first transition index used
            for j in 0..take {
                let pos = t - take + j; // left padding
                inputs[bi * t + pos] = seq[start + j];
                targets[bi * t + pos] = seq[start + j + 1];
                weights[bi * t + pos] = 1.0;
                pad[bi * t + pos] = false;
            }
        }
        SeqBatch {
            inputs,
            targets,
            weights,
            pad,
            batch: b,
            len: t,
            users: users.to_vec(),
        }
    }

    /// Builds a single *inference* batch: the full (truncated) sequence is
    /// the input; no targets. Used when scoring the next item after `seq`.
    pub fn inference_batch(&self, full_sequences: &[&[usize]]) -> SeqBatch {
        let t = self.max_len;
        let b = full_sequences.len();
        let mut inputs = vec![self.pad_id; b * t];
        let mut pad = vec![true; b * t];
        for (bi, seq) in full_sequences.iter().enumerate() {
            let take = seq.len().min(t);
            let start = seq.len() - take;
            for j in 0..take {
                let pos = t - take + j;
                inputs[bi * t + pos] = seq[start + j];
                pad[bi * t + pos] = false;
            }
        }
        SeqBatch {
            inputs,
            targets: vec![self.pad_id; b * t],
            weights: vec![0.0; b * t],
            pad,
            batch: b,
            len: t,
            users: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::rng::SeedRngExt as _;

    #[test]
    fn weighted_sampler_matches_distribution() {
        let s = WeightedSampler::new(&[1.0, 0.0, 3.0]).unwrap();
        let mut rng = SeedRng::seed(1);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[s.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn zipf_is_head_heavy() {
        let s = WeightedSampler::zipf(100, 1.0).unwrap();
        let mut rng = SeedRng::seed(2);
        let mut head = 0usize;
        for _ in 0..10_000 {
            if s.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // First 10 of 100 ranks carry ≈ H(10)/H(100) ≈ 56 % of the mass.
        assert!(head > 4_500, "head draws {head}");
    }

    #[test]
    fn degenerate_weights_are_typed_errors_not_panics() {
        assert_eq!(
            WeightedSampler::new(&[]).unwrap_err(),
            WeightedSamplerError::Empty
        );
        // `zipf(0, s)` used to abort on `assert!(!weights.is_empty())`.
        assert_eq!(
            WeightedSampler::zipf(0, 1.0).unwrap_err(),
            WeightedSamplerError::Empty
        );
        assert_eq!(
            WeightedSampler::new(&[0.0, 0.0]).unwrap_err(),
            WeightedSamplerError::ZeroMass
        );
        match WeightedSampler::new(&[1.0, -2.0]).unwrap_err() {
            WeightedSamplerError::Invalid { index, weight } => {
                assert_eq!(index, 1);
                assert_eq!(weight, -2.0);
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(matches!(
            WeightedSampler::new(&[f64::NAN]).unwrap_err(),
            WeightedSamplerError::Invalid { index: 0, .. }
        ));
        assert!(matches!(
            WeightedSampler::new(&[f64::INFINITY]).unwrap_err(),
            WeightedSamplerError::Invalid { index: 0, .. }
        ));
    }

    #[test]
    fn total_cmp_search_preserves_pinned_streams() {
        // The binary search moved from partial_cmp().expect() to
        // total_cmp; draws from a pinned seed must not move.
        let s = WeightedSampler::new(&[2.0, 0.0, 1.0, 5.0]).unwrap();
        let mut rng = SeedRng::seed(1);
        let got: Vec<usize> = (0..16).map(|_| s.sample(&mut rng)).collect();

        // Reference: the historical comparator, same seed.
        let cumulative = [2.0f64, 2.0, 3.0, 8.0];
        let mut reference_rng = SeedRng::seed(1);
        let reference: Vec<usize> = (0..16)
            .map(|_| {
                let x = reference_rng.gen_range(0.0..8.0);
                match cumulative.binary_search_by(|c| c.partial_cmp(&x).expect("finite")) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                }
                .min(cumulative.len() - 1)
            })
            .collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn negatives_avoid_exclusions_and_duplicates() {
        let mut rng = SeedRng::seed(3);
        let exclude: HashSet<usize> = [0, 1, 2].into_iter().collect();
        let negs = sample_negatives(50, &exclude, 30, &mut rng);
        assert_eq!(negs.len(), 30);
        let set: HashSet<_> = negs.iter().collect();
        assert_eq!(set.len(), 30, "duplicates drawn");
        assert!(negs.iter().all(|n| !exclude.contains(n)));
    }

    #[test]
    fn sparse_path_preserves_rng_stream() {
        // The sparse regime must stay bit-identical to the original
        // rejection sampler, so pre-existing pinned seeds keep reproducing
        // the same candidate lists.
        let exclude: HashSet<usize> = [5, 6].into_iter().collect();
        let mut rng = SeedRng::seed(41);
        let got = sample_negatives(1000, &exclude, 10, &mut rng);

        let mut reference_rng = SeedRng::seed(41);
        let mut reference = Vec::new();
        let mut seen = exclude.clone();
        while reference.len() < 10 {
            let cand = reference_rng.gen_range(0..1000);
            if seen.insert(cand) {
                reference.push(cand);
            }
        }
        assert_eq!(got, reference);
        // And the RNG cursor itself advanced identically.
        assert_eq!(rng.gen_range(0..1000), reference_rng.gen_range(0..1000));
    }

    #[test]
    fn dense_exclusion_samples_exactly_the_complement() {
        // All but 10 of 10k items excluded: rejection sampling would need
        // ~1000 draws per accept; the dense path takes exactly n draws and
        // must return precisely the complement (in some order).
        let num_items = 10_000;
        let exclude: HashSet<usize> = (0..num_items - 10).collect();
        let mut rng = SeedRng::seed(9);
        let mut negs = sample_negatives(num_items, &exclude, 10, &mut rng);
        negs.sort_unstable();
        assert_eq!(negs, (num_items - 10..num_items).collect::<Vec<_>>());
    }

    #[test]
    fn dense_exclusion_property() {
        // Dense regime across a spread of pool sizes: exact count, no
        // duplicates, nothing excluded, everything in range.
        let mut rng = SeedRng::seed(11);
        for trial in 0..20 {
            let num_items = 60 + trial;
            let exclude: HashSet<usize> = (0..num_items).filter(|i| i % 3 != 0).collect();
            let n = 15;
            assert!(exclude.len() + n > num_items / 2, "must hit the dense path");
            let negs = sample_negatives(num_items, &exclude, n, &mut rng);
            assert_eq!(negs.len(), n);
            let distinct: HashSet<usize> = negs.iter().copied().collect();
            assert_eq!(distinct.len(), n, "duplicates drawn");
            assert!(negs.iter().all(|v| !exclude.contains(v) && *v < num_items));
        }
    }

    #[test]
    fn batch_layout_left_padded() {
        let sequences = vec![vec![10, 11, 12, 13], vec![20, 21]];
        let b = SeqBatcher::new(5, 8, 99);
        let batches = b.batches(&sequences, &[0, 1]);
        assert_eq!(batches.len(), 1);
        let batch = &batches[0];
        assert_eq!(batch.batch, 2);
        // User 0 has 3 transitions: positions 2,3,4 filled.
        assert_eq!(batch.inputs[0..5], [99, 99, 10, 11, 12]);
        assert_eq!(batch.targets[0..5], [99, 99, 11, 12, 13]);
        assert_eq!(batch.weights[0..5], [0.0, 0.0, 1.0, 1.0, 1.0]);
        // User 1 has 1 transition at the last position.
        assert_eq!(batch.inputs[5..10], [99, 99, 99, 99, 20]);
        assert_eq!(batch.targets[9], 21);
        assert!(batch.pad[8] && !batch.pad[9]);
    }

    #[test]
    fn batch_truncates_to_recent_history() {
        let sequences = vec![(0..10).collect::<Vec<_>>()];
        let b = SeqBatcher::new(4, 8, 99);
        let batch = &b.batches(&sequences, &[0])[0];
        // Last 4 transitions: 5→6, 6→7, 7→8, 8→9.
        assert_eq!(batch.inputs, vec![5, 6, 7, 8]);
        assert_eq!(batch.targets, vec![6, 7, 8, 9]);
    }

    #[test]
    fn short_sequences_skipped() {
        let sequences = vec![vec![1], vec![2, 3]];
        let b = SeqBatcher::new(3, 8, 99);
        let batches = b.batches(&sequences, &[0, 1]);
        assert_eq!(batches[0].batch, 1);
        assert_eq!(batches[0].users, vec![1]);
    }

    #[test]
    fn inference_batch_uses_full_sequence() {
        let b = SeqBatcher::new(3, 8, 99);
        let seq = vec![1usize, 2, 3, 4];
        let batch = b.inference_batch(&[&seq]);
        // Last 3 items of the sequence, left-aligned to the right edge.
        assert_eq!(batch.inputs, vec![2, 3, 4]);
        assert!(!batch.pad[2]);
    }
}
