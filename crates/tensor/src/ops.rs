//! Element-wise arithmetic (with broadcasting) and transcendental maps.
//!
//! Large maps are dealt to the shared worker pool ([`crate::pool`]) in
//! contiguous chunks. Every element is computed independently, so the
//! result is identical for every pool size. The arithmetic entry points
//! (`add`/`sub`/`mul`/`div`, `axpy`, `scale`, …) run through the
//! runtime-dispatched SIMD kernels in [`crate::simd`], broadcast operands
//! included: each broadcast run is one kernel call with a step-1 side as a
//! slice and a step-0 side as one repeated value.

use std::ops::Range;

use crate::pool;
use crate::shape::{broadcast_blocks, broadcast_shapes, num_elements};
use crate::simd::{self, BinOp, Side};
use crate::Tensor;

/// The single chunked-fill entry point for elementwise output buffers:
/// picks the pooled or serial path once, then hands `(base_index, chunk)`
/// pairs to `kernel`. `work` is the element count the gate weighs (the
/// output's length, or more where each output element costs several).
/// The partition depends only on the length and pool size gates — and
/// since every output element is computed whole inside one chunk, results
/// are identical however the buffer is split.
fn fill_chunks(out: &mut [f32], work: usize, kernel: &(impl Fn(usize, &mut [f32]) + Sync)) {
    if pool::should_parallelize(work, pool::ELEM_GRAIN) {
        let chunk = out.len().div_ceil(pool::global().threads()).max(1);
        pool::parallel_chunks_mut(out, chunk, |ci, o| kernel(ci * chunk, o));
    } else {
        kernel(0, out);
    }
}

/// Applies `f` to every element, producing a new tensor.
pub fn map(t: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let src = t.data();
    let mut data = vec![0.0f32; src.len()];
    fill_chunks(&mut data, src.len(), &|base, out| {
        for (o, &v) in out.iter_mut().zip(&src[base..]) {
            *o = f(v);
        }
    });
    Tensor::from_vec(data, t.shape())
}

/// The broadcast of `a` and `b`, filled a block of runs at a time:
/// `block(out, n, x, y)` writes the runs of `n` in `out` from their
/// operands (see [`Side`]). Chunks of the output go to the pool through
/// [`fill_chunks`]' gate; a chunk edge may fall inside a run, and each
/// piece is then a run of its own. `what` names the op in the panic for
/// shapes that do not broadcast.
fn broadcast_runs(
    a: &Tensor,
    b: &Tensor,
    what: &dyn std::fmt::Debug,
    block: &(impl Fn(&mut [f32], usize, Side<'_>, Side<'_>) + Sync),
) -> Tensor {
    let out_dims = broadcast_shapes(a.shape(), b.shape()).unwrap_or_else(|| {
        panic!(
            "incompatible shapes for {what:?}: {:?} vs {:?}",
            a.shape(),
            b.shape()
        )
    });
    let (xs, ys) = (a.data(), b.data());
    let mut data = vec![0.0f32; num_elements(&out_dims)];
    let len = data.len();
    fill_chunks(&mut data, len, &|base, out| {
        let range = base..base + out.len();
        broadcast_blocks(
            &out_dims,
            [a.shape(), b.shape()],
            range,
            |o, n, rows, [x, y]| {
                let out = &mut out[o - base..o - base + n * rows];
                block(out, n, side(xs, x), side(ys, y));
            },
        );
    });
    Tensor::from_vec(data, &out_dims)
}

/// An operand's `(start, step, row)` in a broadcast block, as a [`Side`].
fn side(data: &[f32], (start, step, row): (usize, usize, usize)) -> Side<'_> {
    Side {
        data,
        start,
        row,
        step,
    }
}

/// Applies `f(a_i, b_i)` pairwise with NumPy broadcasting.
///
/// Panics when the shapes are not broadcast-compatible.
pub fn zip_map(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    if a.shape() == b.shape() {
        // Hot path: identical shapes need no index arithmetic.
        let (xs, ys) = (a.data(), b.data());
        let mut data = vec![0.0f32; xs.len()];
        fill_chunks(&mut data, xs.len(), &|base, out| {
            for (i, o) in out.iter_mut().enumerate() {
                *o = f(xs[base + i], ys[base + i]);
            }
        });
        return Tensor::from_vec(data, a.shape());
    }
    broadcast_runs(a, b, &"zip_map", &|out, n, x, y| {
        for (r, out) in out.chunks_exact_mut(n).enumerate() {
            let (xi, yi) = (x.start + r * x.row, y.start + r * y.row);
            // One loop per step pattern, so each vectorises.
            match (x.step, y.step) {
                (1, 1) => {
                    let (x, y) = (&x.data[xi..xi + n], &y.data[yi..yi + n]);
                    for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                        *o = f(x, y);
                    }
                }
                (1, _) => {
                    let (x, y) = (&x.data[xi..xi + n], y.data[yi]);
                    for (o, &x) in out.iter_mut().zip(x) {
                        *o = f(x, y);
                    }
                }
                (_, 1) => {
                    let (x, y) = (x.data[xi], &y.data[yi..yi + n]);
                    for (o, &y) in out.iter_mut().zip(y) {
                        *o = f(x, y);
                    }
                }
                _ => out.fill(f(x.data[xi], y.data[yi])),
            }
        }
    })
}

/// `a op b` with broadcasting, through one SIMD kernel resolved per call:
/// same-shape operands in pooled chunks, broadcast ones a block of runs
/// at a time.
fn arith(op: BinOp, a: &Tensor, b: &Tensor) -> Tensor {
    let kernel = simd::binary_kernel(op);
    if a.shape() != b.shape() {
        return broadcast_runs(a, b, &op, &|out, n, x, y| kernel.call(x, y, n, out));
    }
    let (xs, ys) = (a.data(), b.data());
    let mut data = vec![0.0f32; xs.len()];
    fill_chunks(&mut data, xs.len(), &|base, out| {
        let at = base..base + out.len();
        let (x, y) = (Side::run(&xs[at.clone()]), Side::run(&ys[at]));
        kernel.call(x, y, out.len(), out);
    });
    Tensor::from_vec(data, a.shape())
}

/// `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    arith(BinOp::Add, a, b)
}

/// `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    arith(BinOp::Sub, a, b)
}

/// Element-wise `a * b` with broadcasting (Hadamard product).
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    arith(BinOp::Mul, a, b)
}

/// Element-wise `a / b` with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Tensor {
    arith(BinOp::Div, a, b)
}

/// `mul(a, b).reduce_to(dims)` without building the full-size product: one
/// broadcast walk multiplies each pair and adds it into the reduced
/// output. Each output element starts at +0.0 and adds its products in
/// ascending flat index of the product, as [`Tensor::reduce_to`] does, so
/// the bits equal the two-step form's. This is the gradient of a
/// broadcasting `mul` with respect to its smaller operand.
///
/// When `dims` reduces only trailing axes, each output element's products
/// are one contiguous block of the product, so blocks of output elements
/// are dealt to the pool, each walked by one task in the same order.
///
/// Panics when the shapes are not broadcast-compatible or `dims` does not
/// broadcast to the product's shape.
pub fn mul_reduce_to(a: &Tensor, b: &Tensor, dims: &[usize]) -> Tensor {
    let out_dims = broadcast_shapes(a.shape(), b.shape()).unwrap_or_else(|| {
        panic!(
            "incompatible shapes for mul_reduce_to: {:?} vs {:?}",
            a.shape(),
            b.shape()
        )
    });
    if out_dims == dims {
        return mul(a, b);
    }
    let (xs, ys) = (a.data(), b.data());
    // Adds the products `range` covers into `acc`, whose first element is
    // output element `base`.
    let add_products = |acc: &mut [f32], base: usize, range: Range<usize>| {
        let operands = [a.shape(), b.shape(), dims];
        broadcast_blocks(&out_dims, operands, range, |_, n, rows, [x, y, o]| {
            let ((ia, sa, ra), (ib, sb, rb), (io, so, ro)) = (x, y, o);
            let prod = |r: usize, t: usize| xs[ia + r * ra + t * sa] * ys[ib + r * rb + t * sb];
            let at = |r: usize| io - base + r * ro;
            let mut r = 0;
            if so == 0 && ro != 0 {
                // Each run is its own output element's chain: advance
                // eight of them together, each still in ascending order.
                while r + CHAINS <= rows {
                    let mut sums: [f32; CHAINS] = std::array::from_fn(|q| acc[at(r + q)]);
                    for t in 0..n {
                        for (q, sum) in sums.iter_mut().enumerate() {
                            *sum += prod(r + q, t);
                        }
                    }
                    for (q, sum) in sums.into_iter().enumerate() {
                        acc[at(r + q)] = sum;
                    }
                    r += CHAINS;
                }
            }
            for r in r..rows {
                let io = at(r);
                if so == 0 {
                    acc[io] = (0..n).fold(acc[io], |s, t| s + prod(r, t));
                } else {
                    for (t, slot) in acc[io..io + n].iter_mut().enumerate() {
                        *slot += prod(r, t);
                    }
                }
            }
        })
    };
    let mut acc = vec![0.0f32; num_elements(dims)];
    let total = num_elements(&out_dims);
    match trailing_block(&out_dims, dims) {
        Some(block) => fill_chunks(&mut acc, total, &|base, out| {
            add_products(out, base, base * block..(base + out.len()) * block)
        }),
        None => add_products(&mut acc, 0, 0..total),
    }
    Tensor::from_vec(acc, dims)
}

/// Independent reduction chains [`mul_reduce_to`] advances together.
const CHAINS: usize = 8;

/// When `dims` equals `out` on leading axes and is 1 on every axis after
/// them (right-aligned, missing axes counting as 1), output element `j` of
/// a reduction from `out` to `dims` sums the block `[j·B, (j+1)·B)` of
/// `out`'s flat indices; returns that block length `B`.
fn trailing_block(out: &[usize], dims: &[usize]) -> Option<usize> {
    let lead = out.len().checked_sub(dims.len())?;
    let dim = |axis: usize| axis.checked_sub(lead).map_or(1, |i| dims[i]);
    let split = (0..out.len())
        .rev()
        .find(|&axis| dim(axis) != 1)
        .map_or(0, |a| a + 1);
    (0..split)
        .all(|axis| dim(axis) == out[axis])
        .then(|| out[split..].iter().product())
}

/// `t op s` for a scalar `s`, in pooled chunks.
fn scalar_rhs(op: BinOp, t: &Tensor, s: f32) -> Tensor {
    let kernel = simd::binary_kernel(op);
    let src = t.data();
    let mut data = vec![0.0f32; src.len()];
    fill_chunks(&mut data, src.len(), &|base, out| {
        let x = Side::run(&src[base..base + out.len()]);
        kernel.call(x, Side::splat(std::slice::from_ref(&s)), out.len(), out);
    });
    Tensor::from_vec(data, t.shape())
}

/// `t + s` for a scalar `s`.
pub fn add_scalar(t: &Tensor, s: f32) -> Tensor {
    scalar_rhs(BinOp::Add, t, s)
}

/// `t * s` for a scalar `s`.
pub fn scale(t: &Tensor, s: f32) -> Tensor {
    scalar_rhs(BinOp::Mul, t, s)
}

/// In-place `a += b` (same shape only; the hot accumulation path).
pub fn add_assign(a: &mut Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "add_assign requires identical shapes");
    simd::add_assign(a.data_mut(), b.data());
}

/// In-place `a += s * b` (axpy).
pub fn axpy(a: &mut Tensor, s: f32, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "axpy requires identical shapes");
    simd::axpy(a.data_mut(), s, b.data());
}

/// Rectified linear unit.
pub fn relu(t: &Tensor) -> Tensor {
    map(t, |v| v.max(0.0))
}

/// Logistic sigmoid, computed in a numerically stable branch-free-ish form.
pub fn sigmoid(t: &Tensor) -> Tensor {
    map(t, |v| {
        if v >= 0.0 {
            1.0 / (1.0 + (-v).exp())
        } else {
            let e = v.exp();
            e / (1.0 + e)
        }
    })
}

/// Hyperbolic tangent.
pub fn tanh(t: &Tensor) -> Tensor {
    map(t, f32::tanh)
}

/// Element-wise natural exponential.
pub fn exp(t: &Tensor) -> Tensor {
    map(t, f32::exp)
}

/// Element-wise natural logarithm.
pub fn ln(t: &Tensor) -> Tensor {
    map(t, f32::ln)
}

/// Element-wise square root.
pub fn sqrt(t: &Tensor) -> Tensor {
    map(t, f32::sqrt)
}

/// Element-wise square.
pub fn square(t: &Tensor) -> Tensor {
    map(t, |v| v * v)
}

/// Element-wise negation.
pub fn neg(t: &Tensor) -> Tensor {
    map(t, |v| -v)
}

/// Clamps every element into `[lo, hi]`.
pub fn clamp(t: &Tensor, lo: f32, hi: f32) -> Tensor {
    map(t, |v| v.clamp(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn arithmetic_same_shape() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let b = Tensor::from_vec(vec![4., 5., 6.], &[3]);
        assert_eq!(add(&a, &b).data(), &[5., 7., 9.]);
        assert_eq!(sub(&b, &a).data(), &[3., 3., 3.]);
        assert_eq!(mul(&a, &b).data(), &[4., 10., 18.]);
        assert_eq!(div(&b, &a).data(), &[4., 2.5, 2.]);
    }

    #[test]
    fn arithmetic_broadcast() {
        let m = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let row = Tensor::from_vec(vec![10., 20., 30.], &[3]);
        let col = Tensor::from_vec(vec![100., 200.], &[2, 1]);
        assert_eq!(add(&m, &row).data(), &[11., 22., 33., 14., 25., 36.]);
        assert_eq!(add(&m, &col).data(), &[101., 102., 103., 204., 205., 206.]);
        // Broadcasting is symmetric for +.
        assert_eq!(add(&row, &m).data(), add(&m, &row).data());
    }

    #[test]
    fn scalar_ops_and_axpy() {
        let a = Tensor::from_vec(vec![1., 2.], &[2]);
        assert_eq!(add_scalar(&a, 1.0).data(), &[2., 3.]);
        assert_eq!(scale(&a, 3.0).data(), &[3., 6.]);
        let mut acc = Tensor::zeros(&[2]);
        axpy(&mut acc, 2.0, &a);
        assert_eq!(acc.data(), &[2., 4.]);
        add_assign(&mut acc, &a);
        assert_eq!(acc.data(), &[3., 6.]);
    }

    #[test]
    fn nonlinearities() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]);
        assert_eq!(relu(&t).data(), &[0., 0., 1.]);
        assert_close(sigmoid(&t).data(), &[0.26894143, 0.5, 0.7310586], 1e-5);
        assert_close(tanh(&t).data(), &[-0.7615942, 0.0, 0.7615942], 1e-5);
        // Stable sigmoid matches at extremes.
        let big = Tensor::from_vec(vec![-50.0, 50.0], &[2]);
        let s = sigmoid(&big);
        assert!(s.data()[0] < 1e-20 && (s.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transcendentals() {
        let t = Tensor::from_vec(vec![1.0, 4.0], &[2]);
        assert_close(sqrt(&t).data(), &[1.0, 2.0], 1e-6);
        assert_close(square(&t).data(), &[1.0, 16.0], 1e-6);
        assert_close(exp(&ln(&t)).data(), t.data(), 1e-5);
        assert_eq!(neg(&t).data(), &[-1.0, -4.0]);
        assert_eq!(clamp(&t, 0.0, 2.0).data(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn incompatible_broadcast_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        add(&a, &b);
    }
}
