//! Differential test of the pooled, SIMD broadcast arithmetic and of the
//! pooled `mul_reduce_to` against the element-at-a-time definitions they
//! replace: `out[i] = x[ia(i)] op y[ib(i)]`, and each reduced element as
//! one chain from +0.0 over its products in ascending flat order. Results
//! must agree bit for bit at every SIMD level this host supports, for
//! every step pattern of a broadcast run, zero extents, chunk edges
//! inside a run and across the pooled output blocks, zero rows, and NaN
//! and ±inf in either operand.
//!
//! The ops run on the global pool, so
//! `every_case_matches_on_pools_of_1_2_and_4` re-runs this binary's
//! `every_case_matches_the_elementwise_definition` with `IST_THREADS` set
//! to 1, 2 and 4.

use std::process::Command;

use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};
use ist_tensor::{broadcast_shapes, ops, simd, strides_for, Tensor};

/// The flat index in `dims` of the element under flat output index
/// `flat` of `out` (right-aligned NumPy broadcasting).
fn source_index(flat: usize, out: &[usize], dims: &[usize]) -> usize {
    let (out_strides, own) = (strides_for(out), strides_for(dims));
    let lead = out.len() - dims.len();
    (0..out.len())
        .filter_map(|axis| {
            let coord = flat / out_strides[axis] % out[axis];
            let i = axis.checked_sub(lead)?;
            (dims[i] != 1).then(|| coord * own[i])
        })
        .sum()
}

/// Values in `dims` with zeros every fifth element, an all-zero leading
/// row when there are two, and `bad` at the last element.
fn values(dims: &[usize], seed: u64, bad: f32) -> Tensor {
    let n: usize = dims.iter().product();
    let mut v = uniform(&[n.max(1)], -2.0, 2.0, &mut SeedRng::seed(seed)).into_vec();
    v.truncate(n);
    for x in v.iter_mut().step_by(5) {
        *x = 0.0;
    }
    if let [rows, .., last] = *dims {
        if rows >= 2 {
            v[..last.min(n)].fill(0.0);
        }
    }
    if let Some(x) = v.last_mut() {
        *x = bad;
    }
    Tensor::from_vec(v, dims)
}

type Op = (
    &'static str,
    fn(&Tensor, &Tensor) -> Tensor,
    fn(f32, f32) -> f32,
);

const OPS: [Op; 4] = [
    ("add", ops::add, |x, y| x + y),
    ("sub", ops::sub, |x, y| x - y),
    ("mul", ops::mul, |x, y| x * y),
    ("div", ops::div, |x, y| x / y),
];

/// Operand shape pairs: each step pattern of a run (slice·slice across a
/// broadcast outer axis, slice·value, value·slice, value·value), the
/// intent gate and bias shapes, zero extents, and outputs big enough for
/// the pool whose chunk edges fall inside runs (98 637 = 1 281·77, and
/// 2·3·64·131 elements).
const SHAPES: [(&[usize], &[usize]); 14] = [
    (&[2, 3, 5], &[3, 5]),
    (&[4, 9], &[4, 1]),
    (&[4, 1], &[4, 9]),
    (&[3, 1], &[1]),
    (&[20, 64, 8], &[20, 64, 1]),
    (&[40, 32], &[32]),
    (&[1, 7], &[5, 1, 1]),
    (&[0, 5], &[5]),
    (&[3, 0], &[1]),
    (&[2, 0, 4], &[2, 1, 4]),
    (&[1_281, 77], &[77]),
    (&[1_281, 77], &[1_281, 1]),
    (&[1_281, 1], &[1, 77]),
    (&[2, 3, 64, 131], &[3, 1, 131]),
];

/// Reduction cases `(a, b, dims)`: trailing reductions (pooled over
/// output blocks; 257·67 outputs of 9 products split at block edges), a
/// reduction to a leading axis, inner and leading reductions (walked
/// serially), and zero extents.
const REDUCTIONS: [(&[usize], &[usize], &[usize]); 8] = [
    (&[257, 67, 9], &[257, 67, 9], &[257, 67, 1]),
    (&[257, 67, 9], &[257, 67, 1], &[257, 1, 1]),
    (&[1_280, 64, 8], &[1_280, 64, 8], &[1_280, 64, 1]),
    (&[257, 67, 9], &[67, 9], &[1, 67, 1]),
    (&[257, 67, 9], &[257, 67, 9], &[9]),
    (&[33, 517], &[33, 517], &[517]),
    (&[0, 3, 4], &[0, 3, 4], &[0, 3, 1]),
    (&[5, 3, 0], &[5, 3, 0], &[5, 3, 1]),
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn check_arithmetic() {
    for (case, (da, db)) in SHAPES.into_iter().enumerate() {
        let out = broadcast_shapes(da, db).unwrap();
        let total: usize = out.iter().product();
        // NaN and ±inf in either operand, never at the same element of
        // the output (both NaN would leave the payload to operand order).
        for (bad_a, bad_b) in [(f32::NAN, f32::INFINITY), (f32::NEG_INFINITY, f32::NAN)] {
            let a = values(da, case as u64 * 2, bad_a);
            let b = values(db, case as u64 * 2 + 1, bad_b);
            for (name, op, f) in OPS {
                let want: Vec<f32> = (0..total)
                    .map(|i| {
                        let (x, y) = (source_index(i, &out, da), source_index(i, &out, db));
                        f(a.data()[x], b.data()[y])
                    })
                    .collect();
                let got = op(&a, &b);
                assert_eq!(got.shape(), out.as_slice());
                assert!(
                    bits(got.data()) == bits(&want),
                    "{name} {da:?} {db:?} at {}",
                    simd::level()
                );
            }
        }
    }
}

fn check_reductions() {
    for (case, (da, db, dims)) in REDUCTIONS.into_iter().enumerate() {
        let out = broadcast_shapes(da, db).unwrap();
        // NaN ends `a` and -inf starts `b`, so they land in different
        // output chains: a chain meeting two different NaNs (0 × -inf
        // makes one) would leave the payload to the order of an add's
        // operands.
        let a = values(da, 100 + case as u64, f32::NAN);
        let mut b = values(db, 200 + case as u64, 1.0).into_vec();
        if let Some(x) = b.first_mut() {
            *x = f32::NEG_INFINITY;
        }
        let b = Tensor::from_vec(b, db);
        let mut want = vec![0.0f32; dims.iter().product()];
        for i in 0..out.iter().product() {
            let (x, y) = (source_index(i, &out, da), source_index(i, &out, db));
            let o = source_index(i, &out, dims);
            want[o] += a.data()[x] * b.data()[y];
        }
        let got = ops::mul_reduce_to(&a, &b, dims);
        assert_eq!(got.shape(), dims);
        assert!(
            bits(got.data()) == bits(&want),
            "mul_reduce_to {da:?} {db:?} -> {dims:?} at {}",
            simd::level()
        );
    }
}

/// Every case at every SIMD level on this process's pool.
#[test]
fn every_case_matches_the_elementwise_definition() {
    let prev = simd::level();
    for level in simd::available_levels() {
        simd::set_level(level);
        check_arithmetic();
        check_reductions();
    }
    simd::set_level(prev);
}

#[test]
fn every_case_matches_on_pools_of_1_2_and_4() {
    let exe = std::env::current_exe().unwrap();
    for threads in ["1", "2", "4"] {
        let out = Command::new(&exe)
            .args(["--exact", "every_case_matches_the_elementwise_definition"])
            .env("IST_THREADS", threads)
            .output()
            .unwrap();
        let log = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && log.contains("1 passed"),
            "IST_THREADS={threads}:\n{log}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
