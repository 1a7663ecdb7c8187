//! Bounded binary-heap top-K over a full-catalog score vector.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::Recommendation;

/// Heap entry ordered so the binary max-heap keeps the *worst* kept item at
/// the root: `greater` means lower score, or equal score with a larger item
/// id (ties rank the smaller id first, keeping results deterministic).
/// Scores are checked finite before they reach the heap; a NaN would
/// compare `Equal` and fall through to the id tie-break rather than panic.
#[derive(PartialEq)]
struct Worst {
    score: f32,
    item: usize,
}

impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then(self.item.cmp(&other.item))
    }
}

/// The `k` best items of a dense score vector (index = item id), best
/// first; ties rank the smaller item id first. `k >= scores.len()` returns
/// the whole catalog sorted. Any non-finite score is an error naming the
/// first such item — a NaN would silently poison heap ordering, so it must
/// never reach ranking.
///
/// `O(n log k)` time, `O(k)` space. After a lane-wise finiteness pre-pass,
/// the scan compares each score with the cached score of the worst kept
/// entry and touches the heap only when it is strictly greater: ids
/// ascend, so a candidate that ties the threshold always ranks below the
/// kept entry it ties (`+0.0` and `-0.0` tie too).
pub fn top_k(scores: &[f32], k: usize) -> Result<Vec<Recommendation>, String> {
    let k = k.min(scores.len());
    if k == 0 {
        return Ok(Vec::new());
    }
    if let Some(item) = first_non_finite(scores) {
        return Err(format!("non-finite score {} for item {item}", scores[item]));
    }
    let mut heap: BinaryHeap<Worst> = scores[..k]
        .iter()
        .enumerate()
        .map(|(item, &score)| Worst { score, item })
        .collect();
    let mut threshold = heap.peek().expect("heap holds k > 0 entries").score;
    for (chunk_idx, chunk) in scores[k..].chunks(LANES).enumerate() {
        // Non-short-circuiting, so the common all-below case vectorises.
        if !chunk.iter().fold(false, |hit, &s| hit | (s > threshold)) {
            continue;
        }
        for (off, &score) in chunk.iter().enumerate() {
            if score > threshold {
                let item = k + chunk_idx * LANES + off;
                *heap.peek_mut().expect("heap holds k > 0 entries") = Worst { score, item };
                threshold = heap.peek().expect("heap holds k > 0 entries").score;
            }
        }
    }
    // Ascending by worse-first order = best first.
    Ok(heap
        .into_sorted_vec()
        .into_iter()
        .map(|w| Recommendation {
            item: w.item,
            score: w.score,
        })
        .collect())
}

/// Scores examined per vectorised step of [`top_k`]'s scans.
const LANES: usize = 16;

/// Index of the first non-finite score, checking [`LANES`] scores per
/// branch.
fn first_non_finite(scores: &[f32]) -> Option<usize> {
    let (chunk_idx, chunk) = scores
        .chunks(LANES)
        .enumerate()
        .find(|(_, chunk)| !chunk.iter().fold(true, |ok, s| ok & s.is_finite()))?;
    let off = chunk.iter().position(|s| !s.is_finite())?;
    Some(chunk_idx * LANES + off)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(scores: &[f32], k: usize) -> Vec<(usize, f32)> {
        let mut all: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn matches_full_sort_on_a_small_vector() {
        let scores = [0.5, -1.0, 3.0, 3.0, 2.0, 0.0];
        let got = top_k(&scores, 3).unwrap();
        let want = brute_force(&scores, 3);
        assert_eq!(
            got.iter().map(|r| (r.item, r.score)).collect::<Vec<_>>(),
            want
        );
        // Tie between items 2 and 3 at score 3.0 → smaller id first.
        assert_eq!(got[0].item, 2);
        assert_eq!(got[1].item, 3);
    }

    #[test]
    fn k_at_least_catalog_returns_everything_sorted() {
        let scores = [0.5, -2.0, 3.0, 0.5];
        for k in [4, 5, 100] {
            let got = top_k(&scores, k).unwrap();
            assert_eq!(
                got.iter().map(|r| (r.item, r.score)).collect::<Vec<_>>(),
                brute_force(&scores, 4)
            );
        }
    }

    #[test]
    fn k_zero_and_empty_catalog() {
        assert!(top_k(&[1.0], 0).unwrap().is_empty());
        // k = 0 asks for nothing, so nothing is scanned or rejected.
        assert!(top_k(&[1.0, f32::NAN], 0).unwrap().is_empty());
        assert!(top_k(&[], 5).unwrap().is_empty());
    }

    #[test]
    fn non_finite_scores_are_rejected() {
        assert!(top_k(&[1.0, f32::NAN, 2.0], 2).is_err());
        assert!(top_k(&[1.0, f32::INFINITY], 1).is_err());
        assert!(top_k(&[f32::NEG_INFINITY], 1).is_err());
        // After position k, below or above the threshold: the error names
        // the first bad item.
        let mut scores: Vec<f32> = (0..100).map(|i| i as f32).collect();
        scores[57] = f32::NAN;
        scores[90] = f32::INFINITY;
        let err = top_k(&scores, 3).unwrap_err();
        assert!(err.contains("item 57"), "{err}");
        scores[57] = 0.0;
        scores[4] = f32::NEG_INFINITY;
        let err = top_k(&scores, 2).unwrap_err();
        assert!(err.contains("item 4"), "{err}");
    }

    #[test]
    fn ties_at_the_threshold_keep_the_smaller_ids() {
        // Once the heap holds items 0..3, the threshold is 1.0; every later
        // 1.0 ties it with a larger id and must be dropped, while a later
        // 1.5 displaces the worst kept entry (item 2, the largest id at 1.0).
        let mut scores = vec![2.0, 1.0, 1.0];
        scores.extend([1.0; 40]);
        scores.push(1.5);
        scores.extend([1.0; 40]);
        let got = top_k(&scores, 3).unwrap();
        let items: Vec<usize> = got.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![0, 43, 1]);
        assert_eq!(
            got.iter().map(|r| (r.item, r.score)).collect::<Vec<_>>(),
            brute_force(&scores, 3)
        );
    }

    #[test]
    fn signed_zeros_tie() {
        // -0.0 == +0.0: neither displaces the other, the smaller id wins
        // and keeps its own sign bit.
        let got = top_k(&[-0.0, 0.0, -1.0], 1).unwrap();
        assert_eq!(got[0].item, 0);
        assert_eq!(got[0].score.to_bits(), (-0.0f32).to_bits());
        let got = top_k(&[-1.0, 0.0, -0.0, 0.0], 2).unwrap();
        assert_eq!(got.iter().map(|r| r.item).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(got[1].score.to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn matches_full_sort_across_lane_boundaries() {
        // Few distinct values, so ties straddle every LANES boundary.
        let scores: Vec<f32> = (0..1000u32)
            .map(|i| ((i.wrapping_mul(2_654_435_761) >> 7) % 13) as f32 - 6.0)
            .collect();
        for k in [1, 5, 16, 17, 64, 999, 1000] {
            let got = top_k(&scores, k).unwrap();
            assert_eq!(
                got.iter().map(|r| (r.item, r.score)).collect::<Vec<_>>(),
                brute_force(&scores, k),
                "k={k}"
            );
        }
    }
}
