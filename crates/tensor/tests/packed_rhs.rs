//! Differential test of the pre-packed right-hand side: `matmul_packed_in`
//! must reproduce `matmul_in` with the unpacked operand bit for bit, on
//! every path the shared split decision can pick (serial, row split,
//! column split with in-place rows or dense sub-blocks), and packing the
//! `[n, k]` rows must give exactly the panels of the transposed `[k, n]`
//! tensor.

use ist_tensor::matmul::{matmul_in, matmul_packed_in, PackedRhs};
use ist_tensor::pool::ThreadPool;
use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::simd::MR;
use ist_tensor::Tensor;

/// Every remainder row count and one full MR block (`m ≤ 9`).
const ROWS: std::ops::RangeInclusive<usize> = 1..=9;
/// Both sides of the NR (16) and NC (64) boundaries, a catalog wider than
/// a column-split worker's dense sub-block, and one above a full NC·KC
/// panel per worker.
const WIDTHS: [usize; 9] = [1, 15, 16, 17, 63, 64, 65, 1_000, 18_000];
/// One, two and three KC (256) depth panels.
const DEPTHS: [usize; 6] = [1, 8, 32, 256, 257, 520];

/// `a: [m, k]` with an all-zero row (the row-zero skip) and, in the
/// `m % MR` remainder rows that take the single-row path, one zero element
/// inside an otherwise non-zero row (the per-element skip).
fn lhs(m: usize, k: usize, rng: &mut SeedRng) -> Tensor {
    let mut a = uniform(&[m, k], -1.0, 1.0, rng).into_vec();
    if m >= 2 {
        a[k..2 * k].fill(0.0);
    }
    // The first remainder row is row 0, 4 or 8, never the zero row 1.
    if !m.is_multiple_of(MR) {
        a[(m - m % MR) * k + k / 2] = 0.0;
    }
    Tensor::from_vec(a, &[m, k])
}

#[test]
fn packed_product_matches_matmul_bitwise() {
    let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
    let mut rng = SeedRng::seed(41);
    for n in WIDTHS {
        for k in DEPTHS {
            let rows = uniform(&[n, k], -1.0, 1.0, &mut rng);
            let b = rows.t();
            let packed = PackedRhs::pack_rows(&rows);
            assert_eq!(
                packed,
                PackedRhs::pack(&b),
                "n={n} k={k}: packing the rows differs from packing the transpose"
            );
            assert_eq!((packed.k(), packed.n()), (k, n));
            for m in ROWS {
                let a = lhs(m, k, &mut rng);
                for pool in &pools {
                    let want = matmul_in(pool, &a, &b);
                    let got = matmul_packed_in(pool, &a, &packed);
                    assert_eq!(got.shape(), want.shape());
                    let same = got
                        .data()
                        .iter()
                        .zip(want.data())
                        .all(|(g, w)| g.to_bits() == w.to_bits());
                    assert!(same, "m={m} k={k} n={n} threads={}", pool.threads());
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "inner dims disagree")]
fn packed_product_checks_the_inner_dimension() {
    let packed = PackedRhs::pack(&Tensor::zeros(&[4, 2]));
    matmul_packed_in(&ThreadPool::new(1), &Tensor::zeros(&[2, 3]), &packed);
}
