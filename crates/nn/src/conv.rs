//! Caser-style sequence convolutions, expressed as unfold + GEMM.

use ist_autograd::{fused, ops, Param, Var};
use ist_tensor::rng::SeedRng;

use crate::init;
use crate::module::Module;
use crate::Ctx;

/// Horizontal convolution bank: for each window height `h`, `n_filters`
/// filters of shape `[h, d]` slide down the item-embedding matrix; each
/// filter's responses are max-pooled over time.
///
/// Output per sequence: `heights.len() · n_filters` features.
pub struct HorizontalConv {
    /// One `[h·d, n_filters]` weight per window height.
    filters: Vec<Param>,
    heights: Vec<usize>,
    n_filters: usize,
    d: usize,
}

impl HorizontalConv {
    /// Filter bank over the given window heights.
    pub fn new(
        name: &str,
        d: usize,
        heights: &[usize],
        n_filters: usize,
        rng: &mut SeedRng,
    ) -> Self {
        assert!(!heights.is_empty());
        let filters = heights
            .iter()
            .map(|&h| {
                Param::new(
                    format!("{name}.h{h}"),
                    init::xavier_uniform(&[h * d, n_filters], rng),
                )
            })
            .collect();
        HorizontalConv {
            filters,
            heights: heights.to_vec(),
            n_filters,
            d,
        }
    }

    /// `x: [B·L, d]` batch-major → pooled features `[B, heights·n_filters]`.
    pub fn forward(&self, ctx: &Ctx, x: &Var, batch: usize, len: usize) -> Var {
        debug_assert_eq!(x.shape(), vec![batch * len, self.d]);
        let mut parts: Vec<Var> = Vec::with_capacity(self.heights.len());
        for (h, w) in self.heights.iter().zip(&self.filters) {
            assert!(*h <= len, "window {h} larger than sequence {len}");
            let windows = len - h + 1;
            let unfolded = fused::unfold_rows_batched(x, batch, len, *h);
            let conv = ops::relu(&ops::matmul(&unfolded, &w.leaf(&ctx.tape)));
            parts.push(fused::segment_max_rows(&conv, windows)); // [B, nF]
        }
        // Concatenate along features by stacking rows then reshaping:
        // [heights·B, nF] (height-major) → gather to [B, heights·nF].
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let stacked = ops::concat_rows(&parts);
        let nh = self.heights.len();
        // Row r of output block layout: want out[b] = [part0[b] | part1[b] | …];
        // realise via index_select into [B·nh, nF] then reshape.
        let perm: Vec<usize> = (0..batch * nh)
            .map(|r| {
                let (b, p) = (r / nh, r % nh);
                p * batch + b
            })
            .collect();
        let interleaved = ops::index_select_rows(&stacked, &perm);
        ops::reshape(&interleaved, &[batch, nh * self.n_filters])
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.heights.len() * self.n_filters
    }
}

impl Module for HorizontalConv {
    fn params(&self) -> Vec<Param> {
        self.filters.clone()
    }
}

/// Vertical convolution: `n_filters` column filters of shape `[L, 1]`; each
/// produces a weighted sum of the `L` item embeddings → `[B, n_filters·d]`.
pub struct VerticalConv {
    /// `[n_filters, L]` filter matrix.
    pub weight: Param,
    len: usize,
    n_filters: usize,
    d: usize,
}

impl VerticalConv {
    /// Vertical filters over a fixed window length `len`.
    pub fn new(name: &str, d: usize, len: usize, n_filters: usize, rng: &mut SeedRng) -> Self {
        VerticalConv {
            weight: Param::new(
                format!("{name}.weight"),
                init::xavier_uniform(&[n_filters, len], rng),
            ),
            len,
            n_filters,
            d,
        }
    }

    /// `x: [B·L, d]` batch-major → `[B, n_filters·d]`.
    pub fn forward(&self, ctx: &Ctx, x: &Var, batch: usize) -> Var {
        debug_assert_eq!(x.shape(), vec![batch * self.len, self.d]);
        // W [nF, L] applied to each sequence's [L, d] block in place: the
        // filters are a rectangular adjacency from positions to filters.
        let x3 = ops::reshape(x, &[batch, self.len, self.d]);
        let out = ops::propagate(&self.weight.leaf(&ctx.tape), &x3); // [B, nF, d]
        ops::reshape(&out, &[batch, self.n_filters * self.d])
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.n_filters * self.d
    }
}

impl Module for VerticalConv {
    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::rng::{uniform, SeedRngExt as _};
    use ist_tensor::Tensor;

    #[test]
    fn horizontal_shapes() {
        let mut rng = SeedRng::seed(1);
        let conv = HorizontalConv::new("h", 4, &[2, 3], 5, &mut rng);
        assert_eq!(conv.out_dim(), 10);
        let ctx = Ctx::eval();
        let mut rng2 = SeedRng::seed(2);
        let x = ctx.tape.leaf(uniform(&[2 * 6, 4], -1.0, 1.0, &mut rng2));
        let y = conv.forward(&ctx, &x, 2, 6);
        assert_eq!(y.shape(), vec![2, 10]);
    }

    #[test]
    fn horizontal_single_height_matches_manual() {
        let mut rng = SeedRng::seed(3);
        let conv = HorizontalConv::new("h", 2, &[1], 3, &mut rng);
        let ctx = Ctx::eval();
        let x = ctx
            .tape
            .leaf(Tensor::from_vec(vec![1., 0., 0., 1.], &[2, 2]));
        // batch 1, len 2, h=1 → relu(x·W) max over the two rows.
        let y = conv.forward(&ctx, &x, 1, 2).value();
        let w = conv.filters[0].value();
        for f in 0..3 {
            let r0 = (1.0 * w.at2(0, f)).max(0.0);
            let r1 = (1.0 * w.at2(1, f)).max(0.0);
            assert!((y.at2(0, f) - r0.max(r1)).abs() < 1e-6);
        }
    }

    #[test]
    fn vertical_is_weighted_sum_of_rows() {
        let mut rng = SeedRng::seed(4);
        let conv = VerticalConv::new("v", 3, 2, 1, &mut rng);
        conv.weight
            .set_value(Tensor::from_vec(vec![0.25, 0.75], &[1, 2]));
        let ctx = Ctx::eval();
        let x = ctx.tape.leaf(Tensor::from_vec(
            vec![1., 2., 3., 5., 6., 7., 0., 0., 0., 4., 4., 4.],
            &[4, 3],
        ));
        let y = conv.forward(&ctx, &x, 2).value();
        assert_eq!(y.shape(), &[2, 3]);
        // batch0: 0.25·[1,2,3] + 0.75·[5,6,7]
        ist_tensor::assert_close(&y.data()[0..3], &[4.0, 5.0, 6.0], 1e-5);
        // batch1: 0.25·0 + 0.75·[4,4,4]
        ist_tensor::assert_close(&y.data()[3..6], &[3.0, 3.0, 3.0], 1e-5);
    }

    /// `[A, B, C] → [B, A, C]` by an index loop, recorded as a
    /// self-adjoint tape node.
    fn transpose_01(v: &Var) -> Var {
        fn swap01(t: &Tensor) -> Tensor {
            let (a, b, c) = (t.shape()[0], t.shape()[1], t.shape()[2]);
            let mut out = vec![0.0f32; t.len()];
            for i in 0..a {
                for j in 0..b {
                    for k in 0..c {
                        out[(j * a + i) * c + k] = t.data()[(i * b + j) * c + k];
                    }
                }
            }
            Tensor::from_vec(out, &[b, a, c])
        }
        v.tape().push_for_tests(
            swap01(&v.value()),
            vec![v.id()],
            Some(Box::new(|g, _| vec![Some(swap01(g))])),
        )
    }

    /// The vertical convolution as it was computed before `propagate`: the
    /// window transposed to `[L, B·d]`, one GEMM with `W`, transposed back.
    fn vertical_gemm_path(conv: &VerticalConv, ctx: &Ctx, x: &Var, batch: usize) -> Var {
        let (len, d, nf) = (conv.len, conv.d, conv.n_filters);
        let x3 = ops::reshape(x, &[batch, len, d]);
        let xk = ops::reshape(&transpose_01(&x3), &[len, batch * d]);
        let out = ops::matmul(&conv.weight.leaf(&ctx.tape), &xk);
        let out = transpose_01(&ops::reshape(&out, &[nf, batch, d]));
        ops::reshape(&out, &[batch, nf * d])
    }

    #[test]
    fn vertical_matches_the_gemm_path_bitwise() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = SeedRng::seed(7);
        let (batch, len, d, nf) = (70, 5, 6, 4);
        let conv = VerticalConv::new("v", d, len, nf, &mut rng);
        let x = uniform(&[batch * len, d], -1.0, 1.0, &mut rng);
        let wts = uniform(&[batch, nf * d], -1.0, 1.0, &mut rng);
        let run = |path: &dyn Fn(&Ctx, &Var) -> Var| {
            conv.weight.zero_grad();
            let ctx = Ctx::eval();
            let xv = ctx.tape.leaf(x.clone());
            let out = path(&ctx, &xv);
            let loss = ops::sum_all(&ops::mul(&out, &ctx.tape.constant(wts.clone())));
            let grads = ctx.tape.backward(&loss);
            let gx = grads[xv.id()].clone().expect("x gradient");
            assert!(
                conv.weight.grad().norm2() > 0.0,
                "W must receive a gradient"
            );
            (bits(&out.value()), bits(&conv.weight.grad()), bits(&gx))
        };
        let new = run(&|ctx, xv| conv.forward(ctx, xv, batch));
        let old = run(&|ctx, xv| vertical_gemm_path(&conv, ctx, xv, batch));
        assert!(new.0 == old.0, "conv output bits differ");
        assert!(new.1 == old.1, "W gradient bits differ");
        assert!(new.2 == old.2, "x gradient bits differ");
    }

    #[test]
    fn gradients_reach_filters() {
        let mut rng = SeedRng::seed(5);
        let h = HorizontalConv::new("h", 3, &[2], 4, &mut rng);
        let v = VerticalConv::new("v", 3, 4, 2, &mut rng);
        let ctx = Ctx::eval();
        let mut rng2 = SeedRng::seed(6);
        let x = ctx.tape.leaf(uniform(&[8, 3], -1.0, 1.0, &mut rng2));
        let hy = h.forward(&ctx, &x, 2, 4);
        let vy = v.forward(&ctx, &x, 2);
        let loss = ops::add(&ops::sum_squares(&hy), &ops::sum_squares(&vy));
        ctx.tape.backward(&loss);
        assert!(h.filters[0].grad().norm2() > 0.0);
        assert!(v.weight.grad().norm2() > 0.0);
    }
}
