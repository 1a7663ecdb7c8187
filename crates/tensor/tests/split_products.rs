//! Differential test of the products that now split over the pool below
//! the old serial cutoff: the GCN's `[R·K, d′]` weight products, which
//! split by rows, and the weight gradient `[R·K, d′]ᵀ · [R·K, d′]`, which
//! splits by depth. Each must equal the serial blocked product these
//! shapes took before, bit for bit: at every SIMD level this host
//! supports, on pools of 1, 2 and 4 workers, with all-zero rows, rows
//! zero in one KC panel only, and NaN and ±inf in either operand.
//! `split_gate_picks_each_path` in `matmul.rs` pins which path each
//! shape takes; the forced depth-split sweep over small depths is
//! `depth_split_matches_blocked_bitwise` there.
//!
//! `simd::set_level` is process-global, so the tests serialise on one
//! mutex.

use std::sync::{Mutex, MutexGuard};

use ist_tensor::matmul::{gemm_blocked, matmul_in, matmul_nt_in, matmul_tn_in};
use ist_tensor::pool::ThreadPool;
use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::simd;
use ist_tensor::Tensor;

/// Depth of one packed panel in `ist_tensor::matmul` (its `KC`).
const KC: usize = 256;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn level_guard() -> MutexGuard<'static, ()> {
    LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `[r, c]` values with row 1 zero at every depth, row 2 zero over the
/// first KC columns only, scattered zeros and one non-finite value at the
/// end.
fn operand(r: usize, c: usize, seed: u64, non_finite: f32) -> Vec<f32> {
    let mut t = uniform(&[r, c], -1.0, 1.0, &mut SeedRng::seed(seed)).into_vec();
    for v in t.iter_mut().skip(3).step_by(7) {
        *v = 0.0;
    }
    if r >= 3 {
        t[c..2 * c].fill(0.0);
        t[2 * c..2 * c + KC.min(c)].fill(0.0);
    }
    let last = t.len() - 1;
    t[last] = non_finite;
    t
}

/// The serial blocked product `a · b` of row-major operands.
fn serial(a: &[f32], b: &[f32], [m, k, n]: [usize; 3]) -> Vec<u32> {
    let mut out = vec![0.0f32; m * n];
    gemm_blocked(a, b, &mut out, m, k, n);
    out.iter().map(|v| v.to_bits()).collect()
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

/// Tall products between the new cutoff (2²²) and the old one (2²³)
/// multiply-adds: the GCN's forward `H·W` and input gradient `G·Wᵀ` at
/// training size, a partial last batch, and wider weights.
#[test]
fn row_split_below_the_old_cutoff_matches_the_serial_product() {
    let _g = level_guard();
    for (m, k, n) in [
        (81_920, 8, 8),
        (69_123, 8, 8),
        (8_192, 32, 32),
        (4_097, 64, 64),
    ] {
        let seed = (m + k * n) as u64;
        let (a, b) = (
            operand(m, k, seed, f32::NAN),
            operand(k, n, seed + 1, f32::INFINITY),
        );
        let want = serial(&a, &b, [m, k, n]);
        let (a, b) = (Tensor::from_vec(a, &[m, k]), Tensor::from_vec(b, &[k, n]));
        let b_rows = b.t();
        at_every_level_and_pool(|pool| {
            let threads = pool.threads();
            let level = simd::level();
            let got = bits(&matmul_in(pool, &a, &b));
            assert!(got == want, "[{m},{k}]·[{k},{n}] threads={threads} {level}");
            let got = bits(&matmul_nt_in(pool, &a, &b_rows));
            assert!(
                got == want,
                "nt [{m},{k}]·[{n},{k}]ᵀ threads={threads} {level}"
            );
        });
    }
}

/// The GCN weight gradient `Hᵀ·G` through the gate: 320 KC panels, the
/// same plus a partial panel, and a partial last batch, with the
/// non-finite values in either operand.
#[test]
fn depth_split_weight_gradient_matches_the_serial_product() {
    let _g = level_guard();
    for (k, m, n) in [
        (320 * KC, 8, 8),
        (81_920 + 3, 8, 8),
        (69_120, 8, 8),
        (81_920, 5, 7),
    ] {
        for (lhs_bad, rhs_bad) in [(f32::NAN, f32::INFINITY), (f32::NEG_INFINITY, f32::NAN)] {
            let seed = (k + m * n) as u64;
            // `h` is the stored `[k, m]` matrix whose transpose is
            // multiplied: its column 1 is zero at every depth and its
            // column 2 over the first KC depths, so rows 1 and 2 of `hᵀ`
            // are too.
            let (mut h, g) = (
                operand(k, m, seed, lhs_bad),
                operand(k, n, seed + 1, rhs_bad),
            );
            for (p, depth) in h.chunks_exact_mut(m).enumerate() {
                depth[1] = 0.0;
                if p < KC {
                    depth[2] = 0.0;
                }
            }
            let h_t = Tensor::from_vec(h.clone(), &[k, m]).t().into_vec();
            let want = serial(&h_t, &g, [m, k, n]);
            let (h, g) = (Tensor::from_vec(h, &[k, m]), Tensor::from_vec(g, &[k, n]));
            at_every_level_and_pool(|pool| {
                let got = bits(&matmul_tn_in(pool, &h, &g));
                let threads = pool.threads();
                let level = simd::level();
                assert!(
                    got == want,
                    "[{k},{m}]ᵀ·[{k},{n}] threads={threads} {level}"
                );
            });
        }
    }
}
