//! Differential test of the products that read a transposed operand in
//! place: `matmul_nt`, `matmul_tn`, `bmm_nt` and `bmm_tn` against the
//! path they replace — materialise the transpose, then multiply. Every
//! operand keeps its left/right role, so the results must agree bit for
//! bit: at every SIMD level this host supports, on pools of 1, 2 and 4
//! workers, across remainder rows, KC depth panels, NR column tails, the
//! row split and the column split, all-zero rows in either operand and
//! non-finite values in either operand.
//!
//! `simd::set_level` is process-global, so the tests serialise on one
//! mutex.

use std::sync::{Mutex, MutexGuard};

use ist_tensor::matmul::{bmm_in, bmm_nt_in, bmm_tn_in, matmul_in, matmul_nt_in, matmul_tn_in};
use ist_tensor::pool::ThreadPool;
use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::simd;
use ist_tensor::Tensor;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn level_guard() -> MutexGuard<'static, ()> {
    LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every remainder row count and MR block up to 9, then a tall product
/// the pool splits by rows.
const ROWS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 64, 512];
/// One depth, a few, exactly one KC (256) panel, a KC panel plus a
/// partial one, and the decoder's 1 280-row batch (five panels).
const DEPTHS: [usize; 5] = [1, 8, 256, 263, 1280];
/// NR (16) tails of 1, 15, 1 and 12 columns; 300 is at least 4·NC (64)
/// wide, so short products take the column split on 2 and 4 workers.
const WIDTHS: [usize; 4] = [1, 15, 33, 300];
/// Products above this many multiply-adds are skipped to bound the run
/// time; every (rows, depth) and (rows, width) pair still appears.
const MAX_WORK: usize = 1 << 25;

/// `[r, c]` values with an all-zero row (the row-zero skip on the left,
/// an all-zero column of the product on the right), scattered zeros (the
/// remainder rows' per-element skip), and one non-finite value.
fn operand(r: usize, c: usize, seed: u64, non_finite: f32) -> Tensor {
    let mut t = uniform(&[r, c], -1.0, 1.0, &mut SeedRng::seed(seed)).into_vec();
    for (e, v) in t.iter_mut().enumerate() {
        if e % 7 == 3 {
            *v = 0.0;
        }
    }
    if r >= 2 {
        t[c..2 * c].fill(0.0);
    }
    let last = t.len() - 1;
    t[last] = non_finite;
    Tensor::from_vec(t, &[r, c])
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `check(pool)` on pools of 1, 2 and 4 workers at every SIMD level.
fn at_every_level_and_pool(mut check: impl FnMut(&ThreadPool)) {
    let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
    let prev = simd::level();
    for level in simd::available_levels() {
        simd::set_level(level);
        for pool in &pools {
            check(pool);
        }
    }
    simd::set_level(prev);
}

#[test]
fn matmul_nt_and_tn_match_the_materialised_transpose_bitwise() {
    let _g = level_guard();
    let mut shapes = 0;
    for m in ROWS {
        for k in DEPTHS {
            for n in WIDTHS.into_iter().filter(|&n| m * k * n <= MAX_WORK) {
                shapes += 1;
                let seed = (m * 10_000 + k * 10 + n) as u64;
                // a · bᵀ: the NaN sits in the left operand, the infinity
                // in the right one; a · b swaps them.
                let a = operand(m, k, seed, f32::NAN);
                let b_rows = operand(n, k, seed + 1, f32::INFINITY);
                // aᵀ · b: `a_cols` is the stored `[k, m]` matrix.
                let a_cols = operand(k, m, seed + 2, f32::INFINITY);
                let b = operand(k, n, seed + 3, f32::NAN);
                let (b_t, a_t) = (b_rows.t(), a_cols.t());
                at_every_level_and_pool(|pool| {
                    let threads = pool.threads();
                    let (got, want) = (matmul_nt_in(pool, &a, &b_rows), matmul_in(pool, &a, &b_t));
                    assert_eq!(got.shape(), &[m, n]);
                    assert!(
                        bits(&got) == bits(&want),
                        "nt m={m} k={k} n={n} threads={threads} level={}",
                        simd::level()
                    );
                    let (got, want) = (matmul_tn_in(pool, &a_cols, &b), matmul_in(pool, &a_t, &b));
                    assert_eq!(got.shape(), &[m, n]);
                    assert!(
                        bits(&got) == bits(&want),
                        "tn m={m} k={k} n={n} threads={threads} level={}",
                        simd::level()
                    );
                });
            }
        }
    }
    assert!(shapes > 200, "only {shapes} shapes ran");
}

#[test]
fn bmm_nt_and_tn_match_the_materialised_transpose_bitwise() {
    let _g = level_guard();
    // Attention-like batches: many small products, short sequences and
    // head widths with NR tails, and one batch deeper than a KC panel.
    for (batch, m, k, n) in [
        (1, 1, 1, 1),
        (3, 5, 8, 17),
        (6, 20, 16, 20),
        (64, 20, 16, 20),
        (4, 9, 263, 33),
        (2, 13, 40, 300),
    ] {
        let seed = (batch * 1_000 + m * 100 + k + n) as u64;
        let stack = |r: usize, c: usize, seed: u64, non_finite: f32| {
            let t = operand(batch * r, c, seed, non_finite);
            t.reshape(&[batch, r, c])
        };
        let a = stack(m, k, seed, f32::NAN);
        let b_rows = stack(n, k, seed + 1, f32::NEG_INFINITY);
        let a_cols = stack(k, m, seed + 2, f32::INFINITY);
        let b = stack(k, n, seed + 3, f32::NAN);
        let (b_t, a_t) = (b_rows.transpose_last2(), a_cols.transpose_last2());
        at_every_level_and_pool(|pool| {
            let threads = pool.threads();
            let (got, want) = (bmm_nt_in(pool, &a, &b_rows), bmm_in(pool, &a, &b_t));
            assert_eq!(got.shape(), &[batch, m, n]);
            assert!(
                bits(&got) == bits(&want),
                "bmm_nt {batch}x[{m},{k},{n}] threads={threads} level={}",
                simd::level()
            );
            let (got, want) = (bmm_tn_in(pool, &a_cols, &b), bmm_in(pool, &a_t, &b));
            assert_eq!(got.shape(), &[batch, m, n]);
            assert!(
                bits(&got) == bits(&want),
                "bmm_tn {batch}x[{m},{k},{n}] threads={threads} level={}",
                simd::level()
            );
        });
    }
}

#[test]
#[should_panic(expected = "inner dims disagree")]
fn matmul_nt_checks_the_shared_depth() {
    matmul_nt_in(
        &ThreadPool::new(1),
        &Tensor::zeros(&[2, 3]),
        &Tensor::zeros(&[4, 2]),
    );
}

#[test]
#[should_panic(expected = "inner dims disagree")]
fn matmul_tn_checks_the_shared_depth() {
    matmul_tn_in(
        &ThreadPool::new(1),
        &Tensor::zeros(&[3, 2]),
        &Tensor::zeros(&[4, 2]),
    );
}
