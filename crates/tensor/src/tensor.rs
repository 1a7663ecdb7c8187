//! The [`Tensor`] type: a contiguous, row-major, dynamically shaped `f32`
//! array, plus structural operations (reshape, transpose, gather/scatter,
//! concatenation, slicing).

use std::sync::Arc;

use crate::mem;
use crate::shape::{broadcast_walk, check_reshape, num_elements, strides_for};

/// A dense, contiguous, row-major `f32` tensor.
///
/// Invariant: `data().len() == shape.iter().product()` at all times.
///
/// The elements live in a shared, reference-counted buffer. `clone` and
/// [`Tensor::reshape`] share it (a reference-count bump, no copy), and
/// [`Tensor::data_mut`] is copy-on-write: it copies the buffer only while
/// another tensor still holds it, so a write never shows through another
/// holder. Memory accounting ([`crate::mem`]) happens per buffer: creating
/// or copying a buffer reports an allocation and dropping its last holder
/// reports the free, so shared tensors are counted once. The hooks cost
/// two relaxed atomic loads each when profiling is off.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    buf: Arc<Buffer>,
    shape: Vec<usize>,
}

/// The storage behind one or more [`Tensor`]s, and the unit of memory
/// accounting: every buffer is reported to [`crate::mem`] once when it is
/// created (or copied by a copy-on-write) and once when it is dropped.
#[derive(PartialEq)]
struct Buffer(Vec<f32>);

impl Buffer {
    fn new(data: Vec<f32>) -> Buffer {
        mem::on_alloc(data.len());
        Buffer(data)
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Buffer {
        Buffer::new(self.0.clone())
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        mem::on_free(self.0.len());
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print at most a handful of leading elements: tensors can be huge.
        let head: Vec<f32> = self.data().iter().take(8).copied().collect();
        let ellipsis = if self.len() > 8 { ", …" } else { "" };
        write!(f, "Tensor{:?} {:?}{}", self.shape, head, ellipsis)
    }
}

impl Tensor {
    // ----- constructors -------------------------------------------------

    /// Wraps a freshly built buffer; takes `data` without copying it.
    fn owning(data: Vec<f32>, shape: Vec<usize>) -> Tensor {
        Tensor {
            buf: Arc::new(Buffer::new(data)),
            shape,
        }
    }

    /// Builds a tensor from raw data and a shape. Panics if sizes disagree.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        check_reshape(data.len(), shape);
        Tensor::owning(data, shape.to_vec())
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor::owning(vec![value; num_elements(shape)], shape.to_vec())
    }

    /// All zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// All ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Rank-0 scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor::owning(vec![value], vec![])
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::owning(data, vec![n, n])
    }

    // ----- accessors ----------------------------------------------------

    /// Shape extents, outermost first.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data().len()
    }

    /// True when the tensor holds no elements (some axis has extent 0).
    pub fn is_empty(&self) -> bool {
        self.data().is_empty()
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.buf.0
    }

    /// Mutable view of the backing buffer (row-major). Copy-on-write: the
    /// buffer is copied first if another tensor shares it.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut Arc::make_mut(&mut self.buf).0
    }

    /// Consumes the tensor and returns the backing buffer: taken as is when
    /// this tensor is its only holder, copied otherwise.
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.buf) {
            Ok(mut buf) => {
                // The buffer leaves tensor accounting here; its Drop then
                // sees an empty vec and subtracts nothing.
                mem::on_free(buf.0.len());
                std::mem::take(&mut buf.0)
            }
            Err(shared) => shared.0.clone(),
        }
    }

    /// The single value of a scalar or 1-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "item() requires exactly one element, shape {:?}",
            self.shape
        );
        self.data()[0]
    }

    /// Element accessor for 2-D tensors.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data()[i * self.shape[1] + j]
    }

    /// Element accessor for 3-D tensors.
    pub fn at3(&self, i: usize, j: usize, k: usize) -> f32 {
        debug_assert_eq!(self.rank(), 3);
        self.data()[(i * self.shape[1] + j) * self.shape[2] + k]
    }

    // ----- structure ----------------------------------------------------

    /// Returns the same data under a new shape with equal element count.
    /// The result shares this tensor's buffer.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        check_reshape(self.len(), shape);
        Tensor {
            buf: Arc::clone(&self.buf),
            shape: shape.to_vec(),
        }
    }

    /// 2-D transpose: `[m, n] → [n, m]`.
    pub fn t(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "t() requires a 2-D tensor, got {:?}",
            self.shape
        );
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        transpose_into(self.data(), m, n, &mut out);
        Tensor::owning(out, vec![n, m])
    }

    /// Transposes the last two axes of a tensor of rank ≥ 2
    /// (`[..., m, n] → [..., n, m]`).
    pub fn transpose_last2(&self) -> Tensor {
        let r = self.rank();
        assert!(
            r >= 2,
            "transpose_last2 requires rank ≥ 2, got {:?}",
            self.shape
        );
        let m = self.shape[r - 2];
        let n = self.shape[r - 1];
        let mut out = vec![0.0f32; self.len()];
        if m * n > 0 {
            for (src, dst) in self
                .data()
                .chunks_exact(m * n)
                .zip(out.chunks_exact_mut(m * n))
            {
                transpose_into(src, m, n, dst);
            }
        }
        let mut shape = self.shape.clone();
        shape.swap(r - 2, r - 1);
        Tensor::owning(out, shape)
    }

    /// Extracts row `i` of a 2-D tensor as a `[n]` tensor.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.rank(), 2);
        let n = self.shape[1];
        Tensor::owning(self.data()[i * n..(i + 1) * n].to_vec(), vec![n])
    }

    /// Gathers rows of a 2-D tensor: `out[r, :] = self[indices[r], :]`.
    ///
    /// This is the embedding-lookup primitive.
    pub fn index_select_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "index_select_rows needs 2-D, got {:?}",
            self.shape
        );
        let n = self.shape[1];
        let mut data = Vec::with_capacity(indices.len() * n);
        for &ix in indices {
            assert!(
                ix < self.shape[0],
                "row index {} out of bounds for {:?}",
                ix,
                self.shape
            );
            data.extend_from_slice(&self.data()[ix * n..(ix + 1) * n]);
        }
        Tensor::owning(data, vec![indices.len(), n])
    }

    /// Scatter-add of rows: `self[indices[r], :] += src[r, :]`.
    ///
    /// The adjoint of [`Tensor::index_select_rows`]; duplicate indices
    /// accumulate.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Tensor) {
        assert_eq!(self.rank(), 2);
        assert_eq!(src.rank(), 2);
        assert_eq!(src.shape[0], indices.len());
        assert_eq!(src.shape[1], self.shape[1]);
        let n = self.shape[1];
        let data = self.data_mut();
        for (r, &ix) in indices.iter().enumerate() {
            let dst = &mut data[ix * n..(ix + 1) * n];
            let s = &src.data()[r * n..(r + 1) * n];
            for (d, v) in dst.iter_mut().zip(s) {
                *d += v;
            }
        }
    }

    /// Concatenates 2-D tensors along axis 0 (rows).
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let n = parts[0].shape[1];
        let mut rows = 0usize;
        for p in parts {
            assert_eq!(p.rank(), 2);
            assert_eq!(p.shape[1], n, "column mismatch in concat_rows");
            rows += p.shape[0];
        }
        let mut data = Vec::with_capacity(rows * n);
        for p in parts {
            data.extend_from_slice(p.data());
        }
        Tensor::owning(data, vec![rows, n])
    }

    /// Slices rows `[start, end)` of a 2-D tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert!(start <= end && end <= self.shape[0]);
        let n = self.shape[1];
        Tensor::owning(
            self.data()[start * n..end * n].to_vec(),
            vec![end - start, n],
        )
    }

    /// Materialises this tensor broadcast to `dims` (NumPy rules).
    pub fn broadcast_to(&self, dims: &[usize]) -> Tensor {
        if self.shape == dims {
            return self.clone();
        }
        let mut data = vec![0.0f32; num_elements(dims)];
        broadcast_walk(dims, [&self.shape], 0..data.len(), |o, n, [(s, step)]| {
            let out = &mut data[o..o + n];
            if step == 1 {
                out.copy_from_slice(&self.data()[s..s + n]);
            } else {
                out.fill(self.data()[s]);
            }
        });
        Tensor::owning(data, dims.to_vec())
    }

    /// Sums a tensor that was broadcast from `orig_dims` back down to
    /// `orig_dims` (the adjoint of [`Tensor::broadcast_to`]).
    ///
    /// Each output element starts at +0.0 and adds its contributions in
    /// ascending flat index of `self`, whatever the broadcast pattern.
    pub fn reduce_to(&self, orig_dims: &[usize]) -> Tensor {
        if self.shape == orig_dims {
            return self.clone();
        }
        let mut out = vec![0.0f32; num_elements(orig_dims)];
        let len = self.data().len();
        broadcast_walk(&self.shape, [orig_dims], 0..len, |o, n, [(s, step)]| {
            let src = &self.data()[o..o + n];
            if step == 1 {
                for (acc, v) in out[s..s + n].iter_mut().zip(src) {
                    *acc += v;
                }
            } else {
                out[s] = src.iter().fold(out[s], |acc, v| acc + v);
            }
        });
        Tensor::owning(out, orig_dims.to_vec())
    }

    /// Frobenius / L2 norm of the whole tensor.
    pub fn norm2(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True if any element is NaN or infinite. Used by training sanity checks.
    pub fn has_non_finite(&self) -> bool {
        self.data().iter().any(|v| !v.is_finite())
    }

    /// Strides of this tensor (row-major).
    pub fn strides(&self) -> Vec<usize> {
        strides_for(&self.shape)
    }
}

/// Side of the square tiles [`transpose_into`] copies: a 32×32 tile of
/// either side is 4 KiB, so both stay in L1 while it is copied.
const TILE: usize = 32;

/// Writes the transpose of the row-major `[m, n]` matrix `src` into `dst`
/// (`[n, m]`), tile by tile, so reads and writes both stay within a few
/// cache lines per row instead of striding the whole output.
fn transpose_into(src: &[f32], m: usize, n: usize, dst: &mut [f32]) {
    for i0 in (0..m).step_by(TILE) {
        for j0 in (0..n).step_by(TILE) {
            for i in i0..(i0 + TILE).min(m) {
                for j in j0..(j0 + TILE).min(n) {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.row(1).data(), &[4., 5., 6.]);
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
        assert_eq!(Tensor::eye(3).at2(2, 2), 1.0);
        assert_eq!(Tensor::eye(3).at2(0, 2), 0.0);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let tt = t.t();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[1., 4., 2., 5., 3., 6.]);
        // Double transpose is identity.
        assert_eq!(tt.t(), t);
    }

    #[test]
    fn transpose_last2_batched() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let tt = t.transpose_last2();
        assert_eq!(tt.shape(), &[2, 3, 2]);
        assert_eq!(tt.at3(0, 2, 1), t.at3(0, 1, 2));
        assert_eq!(tt.at3(1, 0, 1), t.at3(1, 1, 0));
    }

    #[test]
    fn tiled_transposes_match_the_index_loop_across_tile_edges() {
        for (m, n) in [
            (1, 1),
            (TILE, TILE),
            (TILE + 1, 2 * TILE + 7),
            (70, 3),
            (0, 5),
        ] {
            let t = Tensor::from_vec((0..3 * m * n).map(|v| v as f32).collect(), &[3, m, n]);
            let tt = t.transpose_last2();
            assert_eq!(tt.shape(), &[3, n, m]);
            for b in 0..3 {
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(tt.at3(b, j, i), t.at3(b, i, j), "({m},{n}) at {b},{i},{j}");
                    }
                }
            }
            let first = Tensor::from_vec(t.data()[..m * n].to_vec(), &[m, n]);
            assert_eq!(first.t().data(), &tt.data()[..m * n]);
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let emb = Tensor::from_vec(vec![0., 0., 1., 1., 2., 2.], &[3, 2]);
        let got = emb.index_select_rows(&[2, 0, 2]);
        assert_eq!(got.data(), &[2., 2., 0., 0., 2., 2.]);

        let mut grad = Tensor::zeros(&[3, 2]);
        grad.scatter_add_rows(&[2, 0, 2], &Tensor::ones(&[3, 2]));
        // Row 2 selected twice accumulates 2.
        assert_eq!(grad.data(), &[1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn broadcast_and_reduce_are_adjoint() {
        let bias = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let b = bias.broadcast_to(&[4, 3]);
        assert_eq!(b.shape(), &[4, 3]);
        assert_eq!(b.at2(3, 1), 2.0);
        let r = Tensor::ones(&[4, 3]).reduce_to(&[3]);
        assert_eq!(r.data(), &[4., 4., 4.]);
        let r2 = Tensor::ones(&[4, 3]).reduce_to(&[4, 1]);
        assert_eq!(r2.data(), &[3., 3., 3., 3.]);
    }

    #[test]
    fn reduce_starts_from_positive_zero_for_every_pattern() {
        let neg = Tensor::from_vec(vec![-0.0; 6], &[2, 3]);
        for dims in [&[2, 1][..], &[3], &[1, 3], &[1, 1]] {
            let r = neg.reduce_to(dims);
            assert!(
                r.data().iter().all(|v| v.to_bits() == 0.0f32.to_bits()),
                "reduce_to({dims:?}) gave {:?}",
                r.data()
            );
        }
    }

    #[test]
    fn concat_and_slice() {
        let a = Tensor::from_vec(vec![1., 2.], &[1, 2]);
        let b = Tensor::from_vec(vec![3., 4., 5., 6.], &[2, 2]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.slice_rows(1, 3), b);
    }

    #[test]
    fn reshape_checks() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.reshape(&[3, 2]).shape(), &[3, 2]);
        assert_eq!(t.reshape(&[6]).shape(), &[6]);
    }

    #[test]
    #[should_panic]
    fn reshape_bad_panics() {
        Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn clone_and_reshape_share_the_buffer() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert_eq!(t.clone().data().as_ptr(), t.data().as_ptr());
        assert_eq!(t.reshape(&[3, 2]).data().as_ptr(), t.data().as_ptr());
    }

    #[test]
    fn copy_on_write_never_shows_through_another_holder() {
        let orig = Tensor::from_vec(vec![1.0, -0.0, 2.5, f32::NAN], &[2, 2]);
        let want = bits(&orig);
        type Write = fn(&mut Tensor);
        let writes: [(&str, Write); 3] = [
            ("data_mut", |t| t.data_mut()[1] = 7.0),
            ("scatter_add_rows", |t| {
                t.scatter_add_rows(&[0], &Tensor::ones(&[1, 2]));
            }),
            ("add_assign", |t| {
                let one = Tensor::ones(t.shape());
                crate::ops::add_assign(t, &one);
            }),
        ];
        for (name, write) in writes {
            // The writer is a clone of `holder`, then a reshape of it.
            for via_reshape in [false, true] {
                let holder = orig.clone();
                let mut writer = if via_reshape {
                    holder.reshape(&[2, 2])
                } else {
                    holder.clone()
                };
                write(&mut writer);
                assert_ne!(bits(&writer), want, "{name} wrote nothing");
                assert_ne!(writer.data().as_ptr(), holder.data().as_ptr());
                assert_eq!(bits(&holder), want, "{name} showed through");
                // And the other way round: the writer's buffer is its own
                // now, so writing the holder leaves the writer alone.
                let written = bits(&writer);
                let mut holder = holder;
                write(&mut holder);
                assert_eq!(bits(&writer), written, "{name} showed back");
                assert_eq!(bits(&orig), want);
            }
        }
    }

    #[test]
    fn writing_an_unshared_tensor_keeps_its_buffer() {
        let mut t = Tensor::zeros(&[2, 2]);
        let ptr = t.data().as_ptr();
        t.data_mut()[0] = 1.0;
        t.scatter_add_rows(&[1], &Tensor::ones(&[1, 2]));
        crate::ops::add_assign(&mut t, &Tensor::ones(&[2, 2]));
        assert_eq!(t.data().as_ptr(), ptr);
        assert_eq!(t.data(), &[2., 1., 2., 2.]);
        // A clone that has since been dropped no longer shares the buffer.
        drop(t.clone());
        t.data_mut()[0] = 0.0;
        assert_eq!(t.data().as_ptr(), ptr);
    }

    #[test]
    fn into_vec_takes_an_unshared_buffer_and_copies_a_shared_one() {
        let t = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let ptr = t.data().as_ptr();
        let other = t.clone();
        let copied = t.into_vec();
        assert_ne!(copied.as_ptr(), ptr);
        assert_eq!(other.data().as_ptr(), ptr);
        assert_eq!(other.data(), &copied[..]);
        let taken = other.into_vec();
        assert_eq!(taken.as_ptr(), ptr);
    }

    #[test]
    fn tensor_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Tensor>();
    }

    #[test]
    fn norm_and_finite() {
        let t = Tensor::from_vec(vec![3., 4.], &[2]);
        assert!((t.norm2() - 5.0).abs() < 1e-6);
        assert!(!t.has_non_finite());
        let bad = Tensor::from_vec(vec![f32::NAN], &[1]);
        assert!(bad.has_non_finite());
    }
}
