//! Output oracle for served rankings: structural checks on every
//! response, and a bitwise offline reference for a seeded sample.

use isrec_core::Isrec;
use ist_serve::engine::Recommendation;
use ist_tensor::matmul::matmul;
use ist_tensor::rng::{SeedRng, SeedRngExt as _};
use ist_tensor::Tensor;
use rand::seq::SliceRandom;

/// Checks one served ranking: `min(k, num_items)` distinct in-catalog
/// items with finite scores in the engine's rank order (score
/// descending, smaller item id first among equal scores).
pub fn check_ranking(items: &[Recommendation], k: usize, num_items: usize) -> Result<(), String> {
    if items.len() != k.min(num_items) {
        return Err(format!(
            "{} items returned, expected {}",
            items.len(),
            k.min(num_items)
        ));
    }
    let mut seen = std::collections::HashSet::with_capacity(items.len());
    for r in items {
        if r.item >= num_items {
            return Err(format!(
                "item {} outside the {num_items}-item catalog",
                r.item
            ));
        }
        if !seen.insert(r.item) {
            return Err(format!("item {} returned twice", r.item));
        }
        if !r.score.is_finite() {
            return Err(format!("item {} has non-finite score {}", r.item, r.score));
        }
    }
    for w in items.windows(2) {
        let ordered =
            w[0].score > w[1].score || (w[0].score == w[1].score && w[0].item < w[1].item);
        if !ordered {
            return Err(format!(
                "ranking out of order: ({}, {}) before ({}, {})",
                w[0].item, w[0].score, w[1].item, w[1].score
            ));
        }
    }
    Ok(())
}

/// The offline reference ranking for `history`: `infer_last_repr` →
/// `matmul` with `output_item_table_t` (`table_t`) → a full sort by
/// (score descending, item id ascending) → the first `k`.
pub fn reference(
    model: &Isrec,
    table_t: &Tensor,
    history: &[usize],
    k: usize,
) -> Vec<Recommendation> {
    let repr = model.infer_last_repr(&[history]);
    let scores = matmul(&repr, table_t);
    let mut ranked: Vec<Recommendation> = scores
        .data()
        .iter()
        .enumerate()
        .map(|(item, &score)| Recommendation { item, score })
        .collect();
    ranked.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
    ranked.truncate(k);
    ranked
}

/// True when both rankings hold the same items with bit-identical scores.
pub fn same_bits(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

/// The serve report's `scores_crc`: CRC32 over (item id LE u32, score bits
/// LE) of every ranking, in order.
pub fn scores_crc<'a>(rows: impl IntoIterator<Item = &'a [Recommendation]>) -> u32 {
    let mut bytes = Vec::new();
    for row in rows {
        for r in row {
            bytes.extend_from_slice(&(r.item as u32).to_le_bytes());
            bytes.extend_from_slice(&r.score.to_bits().to_le_bytes());
        }
    }
    isrec_core::snapshot::crc32(&bytes)
}

/// `count` distinct indices below `n`, drawn from `seed` (all of them when
/// `n <= count`), ascending.
pub fn sample_indices(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    all.shuffle(&mut SeedRng::seed(seed));
    all.truncate(count);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(item: usize, score: f32) -> Recommendation {
        Recommendation { item, score }
    }

    #[test]
    fn rankings_are_checked_for_shape_and_order() {
        assert!(check_ranking(&[rec(3, 2.0), rec(1, 1.0)], 2, 5).is_ok());
        assert!(check_ranking(&[rec(1, 1.0), rec(3, 1.0)], 2, 5).is_ok());
        assert!(check_ranking(&[rec(3, 1.0), rec(1, 1.0)], 2, 5).is_err());
        assert!(check_ranking(&[rec(3, 1.0), rec(3, 0.5)], 2, 5).is_err());
        assert!(check_ranking(&[rec(7, 1.0), rec(3, 0.5)], 2, 5).is_err());
        assert!(check_ranking(&[rec(1, f32::NAN), rec(3, 0.5)], 2, 5).is_err());
        assert!(check_ranking(&[rec(1, 1.0)], 2, 5).is_err());
        assert!(check_ranking(&[rec(0, 1.0)], 10, 1).is_ok());
    }

    #[test]
    fn samples_are_seeded_and_distinct() {
        let a = sample_indices(100, 10, 7);
        assert_eq!(a, sample_indices(100, 10, 7));
        assert_ne!(a, sample_indices(100, 10, 8));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(3, 10, 1), vec![0, 1, 2]);
    }
}
