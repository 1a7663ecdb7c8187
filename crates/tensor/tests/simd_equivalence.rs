//! Bitwise-equivalence tests for the runtime SIMD dispatch levels.
//!
//! The contract under test: for every kernel, **every dispatch level this
//! host supports produces bit-identical output to the scalar reference** —
//! including zero-padded NR tails, remainder rows, zero-row skips, K
//! spanning multiple packing panels, and non-finite inputs. The serving CRC
//! identity and the training determinism gates all rest on this, so the
//! comparisons here are `to_bits()`, never tolerances.
//!
//! `simd::set_level` is process-global, so every test that sweeps levels
//! serialises on one mutex.

use std::sync::{Mutex, MutexGuard};

use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::simd::{self, Level};
use ist_tensor::{matmul, ops, reduce, Tensor};
use proptest::prelude::*;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn level_guard() -> MutexGuard<'static, ()> {
    // A failed test poisons the mutex; the lock only serialises, so
    // continuing is correct.
    LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` once per supported level and asserts every result's bits match
/// the scalar reference (the first level in the sweep).
fn assert_levels_bitwise<R: AsRef<[f32]>>(what: &str, f: impl Fn() -> R) {
    let prev = simd::level();
    let mut reference: Option<(Vec<u32>, Level)> = None;
    for l in simd::available_levels() {
        simd::set_level(l);
        let bits: Vec<u32> = f().as_ref().iter().map(|v| v.to_bits()).collect();
        match &reference {
            None => reference = Some((bits, l)),
            Some((want, base)) => {
                assert_eq!(want, &bits, "{what}: {l} diverged bitwise from {base}")
            }
        }
    }
    simd::set_level(prev);
}

/// An `a` matrix exercising the zero-skip machinery: whole zero rows (the
/// row_zero scan) and scattered zero elements (the remainder-row
/// per-element skip).
fn gemm_lhs(m: usize, k: usize, seed: u64) -> Vec<f32> {
    let mut rng = SeedRng::seed(seed);
    let mut a = uniform(&[m.max(1), k.max(1)], -1.0, 1.0, &mut rng)
        .data()
        .to_vec();
    a.truncate(m * k);
    if m > 1 && k > 0 {
        a[k..2 * k].fill(0.0); // one all-zero row
    }
    for (i, v) in a.iter_mut().enumerate() {
        if i % 7 == 3 {
            *v = 0.0; // scattered zeros hit the per-element skip branch
        }
    }
    a
}

#[test]
fn gemm_blocked_bitwise_across_levels() {
    let _g = level_guard();
    // Shapes covering: m < MR, m % MR != 0, NR tails, NC crossings, and
    // K spanning multiple KC panels.
    for &(m, k, n) in &[
        (1usize, 5usize, 3usize),
        (3, 17, 16),
        (4, 64, 64),
        (6, 300, 67), // k > KC: multiple packing panels
        (9, 31, 203), // n crosses NC with an NR tail
    ] {
        let a = gemm_lhs(m, k, 11);
        let b = uniform(&[k, n], -1.0, 1.0, &mut SeedRng::seed(13))
            .data()
            .to_vec();
        assert_levels_bitwise(&format!("gemm {m}x{k}x{n}"), || {
            let mut out = vec![0.0f32; m * n];
            matmul::gemm_blocked(&a, &b, &mut out, m, k, n);
            out
        });
    }
}

#[test]
fn gemm_blocked_bitwise_with_non_finite_b() {
    let _g = level_guard();
    // NaN/±∞/-0.0 in `b` interact with the remainder-row zero skip (a
    // skipped `0 * NaN` never becomes NaN); every level must make the
    // same choice, bit for bit.
    let (m, k, n) = (3usize, 20usize, 37usize);
    let a = gemm_lhs(m, k, 29);
    let mut b = uniform(&[k, n], -1.0, 1.0, &mut SeedRng::seed(31))
        .data()
        .to_vec();
    b[5] = f32::NAN;
    b[n + 3] = f32::INFINITY;
    b[2 * n + 9] = f32::NEG_INFINITY;
    b[3 * n + 1] = -0.0;
    assert_levels_bitwise("gemm non-finite", || {
        let mut out = vec![0.0f32; m * n];
        matmul::gemm_blocked(&a, &b, &mut out, m, k, n);
        out
    });
}

#[test]
fn gemm_blocked_k_zero_is_identity_everywhere() {
    let _g = level_guard();
    assert_levels_bitwise("gemm k=0", || {
        let mut out = vec![1.25f32; 3 * 4];
        matmul::gemm_blocked(&[], &[], &mut out, 3, 0, 4);
        out
    });
}

#[test]
fn gemm_packed_bitwise_across_levels() {
    let _g = level_guard();
    // Pre-packed panels: serial, row split, and a column split over a
    // catalog-shaped operand, with one and two KC depth panels.
    for &(m, k, n) in &[
        (1usize, 32usize, 18_000usize),
        (2, 32, 18_000),
        (5, 300, 203),
        (9, 31, 1_000),
    ] {
        let a = Tensor::from_vec(gemm_lhs(m, k, 37), &[m, k]);
        let rows = uniform(&[n, k], -1.0, 1.0, &mut SeedRng::seed(39));
        let packed = matmul::PackedRhs::pack_rows(&rows);
        assert_levels_bitwise(&format!("gemm packed {m}x{k}x{n}"), || {
            matmul::matmul_packed(&a, &packed).into_vec()
        });
    }
}

#[test]
fn gemm_sub_mr_rows_bitwise_across_levels() {
    let _g = level_guard();
    // Remainder rows accumulate four NR blocks per pass, then one block at
    // a time: 1–9 NR blocks (panels of 1–4 blocks, so a four-block group
    // and every leftover count), with and without a zero-padded tail, at
    // depths from 1 to a full KC panel. Within one KC panel every column
    // is the serial kernel's chain — from +0.0 over the depth ascending,
    // zero terms skipped — so `gemm_serial` is a bit oracle too (the 4-row
    // tile of m = 5 does not skip zeros, so its `b` stays finite).
    for m in [1usize, 2, 3, 5] {
        for blocks in 1..=9usize {
            for n in [blocks * 16, blocks * 16 - 5] {
                for k in [1usize, 7, 32, 255, 256] {
                    let a = gemm_lhs(m, k, 43);
                    let mut b = uniform(&[k, n], -1.0, 1.0, &mut SeedRng::seed(47))
                        .data()
                        .to_vec();
                    if m < 4 {
                        // Only remainder rows: an infinity meets a zero
                        // element of `a` (k = 7; k = 32 and 256 at m = 3)
                        // that both kernels must skip rather than turn
                        // into NaN.
                        b[k / 2 * n + n / 2] = f32::INFINITY;
                    }
                    let mut serial = vec![0.0f32; m * n];
                    matmul::gemm_serial(&a, &b, &mut serial, m, k, n);
                    let what = format!("gemm sub-MR {m}x{k}x{n}");
                    assert_levels_bitwise(&what, || {
                        let mut out = vec![0.0f32; m * n];
                        matmul::gemm_blocked(&a, &b, &mut out, m, k, n);
                        let same = out
                            .iter()
                            .zip(&serial)
                            .all(|(o, s)| o.to_bits() == s.to_bits());
                        assert!(
                            same,
                            "{what} at {}: differs from gemm_serial",
                            simd::level()
                        );
                        out
                    });
                }
            }
        }
    }
}

#[test]
fn softmax_and_row_sums_bitwise_across_levels() {
    let _g = level_guard();
    for &(rows, n) in &[(1usize, 1usize), (3, 7), (4, 8), (2, 67)] {
        let t = uniform(&[rows, n], -4.0, 4.0, &mut SeedRng::seed(37));
        assert_levels_bitwise(&format!("softmax {rows}x{n}"), || {
            reduce::softmax_lastdim(&t).into_vec()
        });
        assert_levels_bitwise(&format!("sum_lastdim {rows}x{n}"), || {
            reduce::sum_lastdim(&t).into_vec()
        });
    }
    // Non-finite scores: the NaN-skipping row max must agree everywhere.
    let mut bad = uniform(&[2, 19], -1.0, 1.0, &mut SeedRng::seed(41))
        .data()
        .to_vec();
    bad[3] = f32::NAN;
    bad[20] = f32::INFINITY;
    let bad = Tensor::from_vec(bad, &[2, 19]);
    assert_levels_bitwise("softmax non-finite", || {
        reduce::softmax_lastdim(&bad).into_vec()
    });
}

#[test]
fn elementwise_bitwise_across_levels() {
    let _g = level_guard();
    for &n in &[1usize, 7, 8, 9, 64, 130] {
        let a = uniform(&[n], -2.0, 2.0, &mut SeedRng::seed(43));
        let b = uniform(&[n], -2.0, 2.0, &mut SeedRng::seed(47));
        assert_levels_bitwise(&format!("add {n}"), || ops::add(&a, &b).into_vec());
        assert_levels_bitwise(&format!("mul {n}"), || ops::mul(&a, &b).into_vec());
        assert_levels_bitwise(&format!("div {n}"), || ops::div(&a, &b).into_vec());
        assert_levels_bitwise(&format!("scale {n}"), || ops::scale(&a, 1.7).into_vec());
        assert_levels_bitwise(&format!("axpy {n}"), || {
            let mut acc = a.clone();
            ops::axpy(&mut acc, 0.3, &b);
            acc.into_vec()
        });
    }
}

#[test]
fn adam_step_bitwise_across_levels_and_vs_reference() {
    let _g = level_guard();
    let n = 67usize;
    let value0 = uniform(&[n], -1.0, 1.0, &mut SeedRng::seed(53))
        .data()
        .to_vec();
    let grad = uniform(&[n], -0.5, 0.5, &mut SeedRng::seed(59))
        .data()
        .to_vec();
    let c = simd::AdamConsts {
        b1: 0.9,
        b2: 0.999,
        bc1: 1.0 - 0.9f32.powi(3),
        bc2: 1.0 - 0.999f32.powi(3),
        eps: 1e-8,
        wd: 0.01,
        lr: 1e-3,
    };

    // Reference: the historical scalar update loop, element by element.
    let mut want_val = value0.clone();
    let mut want_m = vec![0.01f32; n];
    let mut want_v = vec![0.002f32; n];
    for i in 0..n {
        let g = grad[i];
        want_m[i] = c.b1 * want_m[i] + (1.0 - c.b1) * g;
        want_v[i] = c.b2 * want_v[i] + (1.0 - c.b2) * g * g;
        let mut upd = (want_m[i] / c.bc1) / ((want_v[i] / c.bc2).sqrt() + c.eps);
        upd += c.wd * want_val[i];
        want_val[i] -= c.lr * upd;
    }

    assert_levels_bitwise("adam", || {
        let mut val = value0.clone();
        let mut m = vec![0.01f32; n];
        let mut v = vec![0.002f32; n];
        simd::adam_step(&mut val, &grad, &mut m, &mut v, c);
        assert_eq!(
            val.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want_val.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "adam diverged from the scalar reference loop"
        );
        val.extend_from_slice(&m);
        val.extend_from_slice(&v);
        val
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn gemm_bitwise_across_levels_prop(
        m in 1usize..10,
        k in 0usize..40,
        n in 1usize..80,
        seed in 0u64..500,
    ) {
        let _g = level_guard();
        let a = gemm_lhs(m, k, seed);
        let b = if k * n > 0 {
            uniform(&[k.max(1), n], -1.0, 1.0, &mut SeedRng::seed(seed + 1))
                .data()[..k * n].to_vec()
        } else {
            vec![]
        };
        let prev = simd::level();
        let mut reference: Option<Vec<u32>> = None;
        for l in simd::available_levels() {
            simd::set_level(l);
            let mut out = vec![0.0f32; m * n];
            matmul::gemm_blocked(&a, &b, &mut out, m, k, n);
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(want) => prop_assert_eq!(want, &bits, "{} diverged", l),
            }
        }
        simd::set_level(prev);
    }

    #[test]
    fn softmax_axpy_bitwise_across_levels_prop(
        rows in 1usize..5,
        n in 1usize..40,
        seed in 0u64..500,
    ) {
        let _g = level_guard();
        let t = uniform(&[rows, n], -3.0, 3.0, &mut SeedRng::seed(seed));
        let y0 = uniform(&[rows * n], -1.0, 1.0, &mut SeedRng::seed(seed + 2));
        let prev = simd::level();
        let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
        for l in simd::available_levels() {
            simd::set_level(l);
            let sm: Vec<u32> = reduce::softmax_lastdim(&t)
                .data().iter().map(|v| v.to_bits()).collect();
            let mut y = y0.clone();
            ops::axpy(&mut y, -0.25, &ops::mul(&t.reshape(&[rows * n]), &y0));
            let ax: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some((sm, ax)),
                Some((wsm, wax)) => {
                    prop_assert_eq!(wsm, &sm, "softmax {} diverged", l);
                    prop_assert_eq!(wax, &ax, "axpy {} diverged", l);
                }
            }
        }
        simd::set_level(prev);
    }
}
