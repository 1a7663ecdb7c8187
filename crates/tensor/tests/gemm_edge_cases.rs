//! Edge-case and property tests for the cache-blocked GEMM kernel: shapes
//! that don't divide the tile sizes, degenerate K/N, zero padded rows, and
//! a random-shape equivalence sweep against the serial reference kernel.

use std::sync::Mutex;

use ist_tensor::matmul::{bmm, gemm_blocked, gemm_serial, matmul};
use ist_tensor::pool::ThreadPool;
use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::simd;
use ist_tensor::{assert_close, Tensor};
use proptest::prelude::*;

/// Depth of one packed panel in `ist_tensor::matmul` (its `KC`).
const KC: usize = 256;

/// `simd::set_level` is process-global; level sweeps take turns.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Runs both kernels on the same random problem, with one all-zero row and
/// scattered zero entries in `a`, at every dispatch level this host
/// supports. Within one KC panel each output element is the same `acc + x·b`
/// chain from zero in both kernels (skipping a zero entry adds nothing to a
/// finite sum), so the results must match bit for bit, NR tails included.
/// Deeper products add per-panel partial sums into `out` and are compared
/// within a tolerance.
fn check_blocked_vs_serial(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = SeedRng::seed(seed);
    let mut a = uniform(&[m, k], -1.0, 1.0, &mut rng).into_vec();
    let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
    if m > 1 {
        a[k..2 * k].fill(0.0);
    }
    a.iter_mut().skip(3).step_by(7).for_each(|v| *v = 0.0);
    // `gemm_serial` skips zero entries and the 4-row micro-kernel does
    // not, so `0 × ±inf` differs by design: only finite inputs are
    // compared bitwise.
    let bitwise = k <= KC && a.iter().chain(b.data()).all(|v| v.is_finite());
    let mut serial = vec![0.0f32; m * n];
    gemm_serial(&a, b.data(), &mut serial, m, k, n);

    let _g = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = simd::level();
    for level in simd::available_levels() {
        simd::set_level(level);
        let mut blocked = vec![0.0f32; m * n];
        gemm_blocked(&a, b.data(), &mut blocked, m, k, n);
        if bitwise {
            for (i, (x, y)) in blocked.iter().zip(&serial).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "({m}, {k}, {n}) at {level}: element {i} is {x}, serial {y}"
                );
            }
        } else {
            assert_close(&blocked, &serial, 1e-4);
        }
    }
    simd::set_level(prev);
}

#[test]
fn non_divisible_tile_sizes() {
    // NC=64, KC=256, MR=4, NR=16: pick shapes that straddle each boundary.
    for &(m, k, n) in &[
        (5, 3, 7),      // everything smaller than one tile
        (4, 256, 64),   // exact single panel
        (7, 257, 65),   // one past each panel edge
        (63, 300, 97),  // m % MR = 3, n % NR = 1
        (66, 511, 130), // k one short of two KC panels
        (1, 400, 19),   // single row
    ] {
        check_blocked_vs_serial(m, k, n, (m * 1000 + k * 10 + n) as u64);
    }
    // Every NR tail width up to three blocks, against every row count up
    // to two MR blocks plus a remainder row, at depths up to one panel.
    for n in 1..=48 {
        for m in 1..=9 {
            for k in [1, 5, 37, KC] {
                check_blocked_vs_serial(m, k, n, (m * 1000 + k * 10 + n) as u64);
            }
        }
    }
}

#[test]
fn k_equals_one() {
    // Outer product: every panel has depth 1.
    check_blocked_vs_serial(37, 1, 53, 7);
}

#[test]
fn n_equals_one() {
    // Single output column: the whole panel is tail (n < NR).
    check_blocked_vs_serial(41, 129, 1, 8);
}

#[test]
fn m_equals_one_k_equals_one_n_equals_one() {
    check_blocked_vs_serial(1, 1, 1, 9);
}

#[test]
fn all_zero_padded_rows_are_skipped_correctly() {
    // Half the rows of `a` are zero (left-padded sequence batch shape).
    let (m, k, n) = (24, 80, 50);
    let mut rng = SeedRng::seed(11);
    let mut a = uniform(&[m, k], -1.0, 1.0, &mut rng).into_vec();
    for i in (0..m).step_by(2) {
        a[i * k..(i + 1) * k].fill(0.0);
    }
    let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
    let mut blocked = vec![0.0f32; m * n];
    let mut serial = vec![0.0f32; m * n];
    gemm_blocked(&a, b.data(), &mut blocked, m, k, n);
    gemm_serial(&a, b.data(), &mut serial, m, k, n);
    assert_close(&blocked, &serial, 1e-4);
    for i in (0..m).step_by(2) {
        assert!(
            blocked[i * n..(i + 1) * n].iter().all(|&v| v == 0.0),
            "zero row {i} must produce a zero output row"
        );
    }
}

#[test]
fn all_zero_lhs_yields_zero() {
    let b = Tensor::from_vec((0..35).map(|v| v as f32).collect(), &[5, 7]);
    let c = matmul(&Tensor::zeros(&[9, 5]), &b);
    assert!(c.data().iter().all(|&v| v == 0.0));
}

#[test]
fn empty_dims_produce_empty_outputs() {
    let c = matmul(&Tensor::zeros(&[0, 4]), &Tensor::zeros(&[4, 3]));
    assert_eq!(c.shape(), &[0, 3]);
    assert!(c.data().is_empty());
}

#[test]
fn results_are_identical_across_pool_sizes() {
    // Bit-for-bit, not merely close: row partitioning must not change the
    // accumulation order of any output element.
    let mut rng = SeedRng::seed(21);
    let a = uniform(&[131, 210], -1.0, 1.0, &mut rng);
    let b = uniform(&[210, 77], -1.0, 1.0, &mut rng);
    let reference = matmul(&a, &b);
    for threads in [1, 2, 3, 8] {
        let pool = ThreadPool::new(threads);
        let c = ist_tensor::matmul::matmul_in(&pool, &a, &b);
        assert_eq!(
            c.data(),
            reference.data(),
            "pool size {threads} changed the result"
        );
    }
}

#[test]
fn bmm_odd_shapes() {
    let mut rng = SeedRng::seed(23);
    let p = uniform(&[5, 3, 17], -1.0, 1.0, &mut rng);
    let q = uniform(&[5, 17, 9], -1.0, 1.0, &mut rng);
    let c = bmm(&p, &q);
    for bi in 0..5 {
        let a2 = Tensor::from_vec(p.data()[bi * 51..(bi + 1) * 51].to_vec(), &[3, 17]);
        let b2 = Tensor::from_vec(q.data()[bi * 153..(bi + 1) * 153].to_vec(), &[17, 9]);
        assert_close(
            &c.data()[bi * 27..(bi + 1) * 27],
            matmul(&a2, &b2).data(),
            1e-4,
        );
    }
}

proptest! {
    #[test]
    fn blocked_matches_serial_on_random_shapes(
        (m, k, n, seed) in (1usize..40, 1usize..300, 1usize..80, 0u64..1000),
    ) {
        let mut rng = SeedRng::seed(seed);
        let a = uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
        let mut blocked = vec![0.0f32; m * n];
        let mut serial = vec![0.0f32; m * n];
        gemm_blocked(a.data(), b.data(), &mut blocked, m, k, n);
        gemm_serial(a.data(), b.data(), &mut serial, m, k, n);
        for (i, (&x, &y)) in blocked.iter().zip(&serial).enumerate() {
            let scale = 1.0f32.max(y.abs());
            prop_assert!(
                (x - y).abs() <= 1e-4 * scale,
                "mismatch at {} for ({}, {}, {}): {} vs {}", i, m, k, n, x, y
            );
        }
    }
}
