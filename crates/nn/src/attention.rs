//! Multi-head self-attention and transformer encoder blocks (Eq. 3–4).
//!
//! Layout convention: activations are `[B·T, d]` (batch-major flattening of
//! `[B, T, d]`); attention internally reshapes to `[B, T, ·]` and uses
//! batched matmuls. Each head owns its `[d, d_h]` projections, and the
//! output projection is decomposed per head (`Concat(heads)·Wo ≡
//! Σ_h head_h·Wo_h`), avoiding 4-D permutes entirely.

use ist_autograd::{fused, ops, Param, Var};
use ist_tensor::pool;
use ist_tensor::rng::SeedRng;
use ist_tensor::Tensor;

use crate::ctx::dropout;
use crate::init;
use crate::linear::Linear;
use crate::module::Module;
use crate::norm::LayerNorm;
use crate::Ctx;

/// Large negative used as the additive mask "−∞".
const NEG_INF: f32 = -1e9;

/// Aggregate attention timing (env-gated; see `ist-obs`). Units are tokens
/// (`B·T`), so the summary reports tokens-per-second forward throughput.
static ATTN_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("nn.attention", "tok");

/// Position-wise feed-forward timing for the transformer block, mirroring
/// [`ATTN_TIMER`] so the chrome-trace timeline separates the two halves of
/// each block.
static FFN_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("nn.ffn", "tok");

/// Builds the additive attention mask `[B, T, T]`.
///
/// `pad[b·T + k] == true` marks position `k` of sequence `b` as padding:
/// nobody may attend *to* it. With `causal`, query `q` may only attend to
/// keys `k ≤ q` (the footnote-2 constraint of the paper).
pub fn attention_mask(batch: usize, len: usize, pad: &[bool], causal: bool) -> Tensor {
    assert_eq!(pad.len(), batch * len);
    let mut m = vec![0.0f32; batch * len * len];
    let fill = |b0: usize, chunk: &mut [f32]| {
        for (i, sq) in chunk.chunks_mut(len * len).enumerate() {
            let b = b0 + i;
            for q in 0..len {
                for k in 0..len {
                    let blocked = (causal && k > q) || pad[b * len + k];
                    if blocked {
                        sq[q * len + k] = NEG_INF;
                    }
                }
            }
        }
    };
    // One pool task per batch-block; each sequence's mask square is written
    // by exactly one task, so the pool size never changes the result.
    if pool::should_parallelize(m.len(), pool::ELEM_GRAIN) && batch > 1 {
        let per = batch.div_ceil(pool::global().threads()).max(1);
        pool::parallel_chunks_mut(&mut m, per * len * len, |ci, chunk| fill(ci * per, chunk));
    } else {
        fill(0, &mut m);
    }
    Tensor::from_vec(m, &[batch, len, len])
}

/// Multi-head scaled-dot-product self-attention.
pub struct MultiHeadSelfAttention {
    wq: Vec<Param>,
    wk: Vec<Param>,
    wv: Vec<Param>,
    wo: Vec<Param>,
    heads: usize,
    d: usize,
    dh: usize,
}

impl MultiHeadSelfAttention {
    /// `heads` must divide `d`.
    pub fn new(name: &str, d: usize, heads: usize, rng: &mut SeedRng) -> Self {
        assert!(
            heads >= 1 && d.is_multiple_of(heads),
            "heads {heads} must divide d {d}"
        );
        let dh = d / heads;
        let make = |tag: &str, rows: usize, cols: usize, rng: &mut SeedRng| {
            (0..heads)
                .map(|h| {
                    Param::new(
                        format!("{name}.{tag}{h}"),
                        init::xavier_uniform(&[rows, cols], rng),
                    )
                })
                .collect::<Vec<_>>()
        };
        MultiHeadSelfAttention {
            wq: make("wq", d, dh, rng),
            wk: make("wk", d, dh, rng),
            wv: make("wv", d, dh, rng),
            wo: make("wo", dh, d, rng),
            heads,
            d,
            dh,
        }
    }

    /// Attends over `x: [B·T, d]` under the additive `mask: [B, T, T]`.
    pub fn forward(
        &self,
        ctx: &mut Ctx,
        x: &Var,
        batch: usize,
        len: usize,
        mask: &Tensor,
        attn_dropout: f32,
    ) -> Var {
        self.attend(ctx, x, x, batch, len, mask, attn_dropout)
    }

    /// Attention for a subset of query rows: `q_x: [B·Q, d]` holds `Q`
    /// query positions per sequence, `x: [B·T, d]` every key/value
    /// position, and `mask: [B, Q, T]` the matching mask rows. Returns
    /// `[B·Q, d]`. With `q_x = x` and `Q = T` this is [`Self::forward`];
    /// a query row's output depends only on that row of `q_x` and `mask`.
    #[allow(clippy::too_many_arguments)]
    fn attend(
        &self,
        ctx: &mut Ctx,
        q_x: &Var,
        x: &Var,
        batch: usize,
        len: usize,
        mask: &Tensor,
        attn_dropout: f32,
    ) -> Var {
        let q_len = mask.shape()[1];
        debug_assert_eq!(q_x.shape(), vec![batch * q_len, self.d]);
        debug_assert_eq!(x.shape(), vec![batch * len, self.d]);
        debug_assert_eq!(mask.shape(), &[batch, q_len, len]);
        let _timing = ATTN_TIMER.start_with((batch * q_len) as u64);
        let mask_var = ctx.tape.constant(mask.clone());
        let scale = 1.0 / (self.dh as f32).sqrt();

        let mut out: Option<Var> = None;
        for h in 0..self.heads {
            let q = ops::matmul(q_x, &self.wq[h].leaf(&ctx.tape));
            let k = ops::matmul(x, &self.wk[h].leaf(&ctx.tape));
            let v = ops::matmul(x, &self.wv[h].leaf(&ctx.tape));
            let q3 = ops::reshape(&q, &[batch, q_len, self.dh]);
            let k3 = ops::reshape(&k, &[batch, len, self.dh]);
            let v3 = ops::reshape(&v, &[batch, len, self.dh]);

            let scores = ops::scale(&ops::bmm_nt(&q3, &k3), scale);
            let masked = ops::add(&scores, &mask_var);
            let attn = fused::softmax_lastdim(&masked);
            let attn = dropout(ctx, &attn, attn_dropout);

            let ctx_h = ops::bmm(&attn, &v3); // [B, Q, dh]
            let flat = ops::reshape(&ctx_h, &[batch * q_len, self.dh]);
            let proj = ops::matmul(&flat, &self.wo[h].leaf(&ctx.tape));
            out = Some(match out {
                Some(acc) => ops::add(&acc, &proj),
                None => proj,
            });
        }
        out.expect("at least one head")
    }
}

impl Module for MultiHeadSelfAttention {
    fn params(&self) -> Vec<Param> {
        self.wq
            .iter()
            .chain(&self.wk)
            .chain(&self.wv)
            .chain(&self.wo)
            .cloned()
            .collect()
    }
}

/// One transformer encoder block: post-LN residual attention + position-wise
/// feed-forward (Eq. 3–4 with the paper's dropout/residual/layer-norm note).
pub struct TransformerBlock {
    attn: MultiHeadSelfAttention,
    ffn1: Linear,
    ffn2: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
    dropout_p: f32,
}

impl TransformerBlock {
    /// Block over model width `d` with `heads` attention heads.
    pub fn new(name: &str, d: usize, heads: usize, dropout_p: f32, rng: &mut SeedRng) -> Self {
        TransformerBlock {
            attn: MultiHeadSelfAttention::new(&format!("{name}.attn"), d, heads, rng),
            ffn1: Linear::new(&format!("{name}.ffn1"), d, d, rng),
            ffn2: Linear::new(&format!("{name}.ffn2"), d, d, rng),
            ln1: LayerNorm::new(&format!("{name}.ln1"), d),
            ln2: LayerNorm::new(&format!("{name}.ln2"), d),
            dropout_p,
        }
    }

    /// Applies the block to `x: [B·T, d]`.
    pub fn forward(&self, ctx: &mut Ctx, x: &Var, batch: usize, len: usize, mask: &Tensor) -> Var {
        let a = self.attn.forward(ctx, x, batch, len, mask, self.dropout_p);
        self.residual_ffn(ctx, x, &a)
    }

    /// The block's output for the newest position of each sequence only,
    /// `[B, d]`: keys and values span all of `x: [B·T, d]`, while the
    /// query, both layer norms and the feed-forward run on rows `b·T + T−1`.
    /// `last` lists those rows and `mask_last: [B, 1, T]` holds row `T−1`
    /// of each mask square.
    fn forward_last(
        &self,
        ctx: &mut Ctx,
        x: &Var,
        batch: usize,
        len: usize,
        last: &[usize],
        mask_last: &Tensor,
    ) -> Var {
        let x_last = ops::index_select_rows(x, last);
        let a = self
            .attn
            .attend(ctx, &x_last, x, batch, len, mask_last, self.dropout_p);
        self.residual_ffn(ctx, &x_last, &a)
    }

    /// Post-LN residual around the attention output `a`, then the
    /// position-wise feed-forward; row-wise over `x` and `a`.
    fn residual_ffn(&self, ctx: &mut Ctx, x: &Var, a: &Var) -> Var {
        let a = dropout(ctx, a, self.dropout_p);
        let s = self.ln1.forward(ctx, &ops::add(x, &a));

        let _timing = FFN_TIMER.start_with(x.shape()[0] as u64);
        let f = self.ffn1.forward(ctx, &s);
        let f = ops::relu(&f);
        let f = dropout(ctx, &f, self.dropout_p);
        let f = self.ffn2.forward(ctx, &f);
        let f = dropout(ctx, &f, self.dropout_p);
        self.ln2.forward(ctx, &ops::add(&s, &f))
    }
}

impl Module for TransformerBlock {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.attn.params();
        ps.extend(self.ffn1.params());
        ps.extend(self.ffn2.params());
        ps.extend(self.ln1.params());
        ps.extend(self.ln2.params());
        ps
    }
}

/// A stack of [`TransformerBlock`]s.
pub struct TransformerEncoder {
    blocks: Vec<TransformerBlock>,
}

impl TransformerEncoder {
    /// `layers` blocks of width `d` with `heads` heads each.
    pub fn new(
        name: &str,
        layers: usize,
        d: usize,
        heads: usize,
        dropout_p: f32,
        rng: &mut SeedRng,
    ) -> Self {
        let blocks = (0..layers)
            .map(|l| TransformerBlock::new(&format!("{name}.block{l}"), d, heads, dropout_p, rng))
            .collect();
        TransformerEncoder { blocks }
    }

    /// Runs all blocks over `x: [B·T, d]`.
    pub fn forward(&self, ctx: &mut Ctx, x: &Var, batch: usize, len: usize, mask: &Tensor) -> Var {
        let mut h = x.clone();
        for block in &self.blocks {
            h = block.forward(ctx, &h, batch, len, mask);
        }
        h
    }

    /// [`Self::forward`]'s rows `b·T + T−1` — the newest position of each
    /// sequence — as `[B, d]`, bitwise equal to gathering them from the
    /// full output. Every block but the last runs as in `forward`, since
    /// the last block's keys and values need all positions; the last block
    /// computes its query, attention, layer norms and feed-forward for the
    /// newest rows only. Every one of those stages is row-wise, and each
    /// GEMM row keeps its accumulation order whatever the row count.
    pub fn forward_last(
        &self,
        ctx: &mut Ctx,
        x: &Var,
        batch: usize,
        len: usize,
        mask: &Tensor,
    ) -> Var {
        let last: Vec<usize> = (0..batch).map(|b| b * len + len - 1).collect();
        let Some((final_block, blocks)) = self.blocks.split_last() else {
            return ops::index_select_rows(x, &last);
        };
        let mut h = x.clone();
        for block in blocks {
            h = block.forward(ctx, &h, batch, len, mask);
        }
        // Row `T−1` of each `[T, T]` mask square: the newest query's mask.
        let mask_last = mask
            .reshape(&[batch * len, len])
            .index_select_rows(&last)
            .reshape(&[batch, 1, len]);
        final_block.forward_last(ctx, &h, batch, len, &last, &mask_last)
    }
}

impl Module for TransformerEncoder {
    fn params(&self) -> Vec<Param> {
        self.blocks.iter().flat_map(|b| b.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::rng::{uniform, SeedRngExt as _};

    #[test]
    fn mask_semantics() {
        let pad = vec![true, false, false, false, false, false]; // b0: pos0 padded
        let m = attention_mask(2, 3, &pad, true);
        // b0: q=1 cannot see k=2 (causal) nor k=0 (pad).
        assert_eq!(m.at3(0, 1, 2), NEG_INF);
        assert_eq!(m.at3(0, 1, 0), NEG_INF);
        assert_eq!(m.at3(0, 1, 1), 0.0);
        // b1 has no pads: only causal structure.
        assert_eq!(m.at3(1, 2, 0), 0.0);
        assert_eq!(m.at3(1, 0, 2), NEG_INF);
    }

    #[test]
    fn attention_shapes_and_causality() {
        let mut rng = SeedRng::seed(1);
        let d = 8;
        let attn = MultiHeadSelfAttention::new("a", d, 2, &mut rng);
        let (b, t) = (2, 4);
        let mask = attention_mask(b, t, &vec![false; b * t], true);

        let run = |x: Tensor| {
            let mut ctx = Ctx::eval();
            let xv = ctx.tape.leaf(x);
            attn.forward(&mut ctx, &xv, b, t, &mask, 0.0).value()
        };
        let mut rng2 = SeedRng::seed(2);
        let x0 = uniform(&[b * t, d], -1.0, 1.0, &mut rng2);
        let y0 = run(x0.clone());
        assert_eq!(y0.shape(), &[b * t, d]);

        // Causality: perturbing the LAST position must not change outputs at
        // earlier positions.
        let mut x1 = x0.clone();
        for j in 0..d {
            x1.data_mut()[(t - 1) * d + j] += 1.0; // batch 0, last position
        }
        let y1 = run(x1);
        for pos in 0..t - 1 {
            for j in 0..d {
                assert!(
                    (y0.at2(pos, j) - y1.at2(pos, j)).abs() < 1e-5,
                    "future leaked into position {pos}"
                );
            }
        }
    }

    #[test]
    fn bidirectional_mask_lets_information_flow_backward() {
        let mut rng = SeedRng::seed(3);
        let d = 8;
        let attn = MultiHeadSelfAttention::new("a", d, 1, &mut rng);
        let (b, t) = (1, 3);
        let mask = attention_mask(b, t, &[false; 3], false);
        let mut rng2 = SeedRng::seed(4);
        let x0 = uniform(&[t, d], -1.0, 1.0, &mut rng2);
        let mut x1 = x0.clone();
        x1.data_mut()[2 * d] += 1.0; // perturb last position
        let run = |x: Tensor| {
            let mut ctx = Ctx::eval();
            let xv = ctx.tape.leaf(x);
            attn.forward(&mut ctx, &xv, b, t, &mask, 0.0).value()
        };
        let (y0, y1) = (run(x0), run(x1));
        // Position 0 must change under a bidirectional mask.
        let delta: f32 = (0..d).map(|j| (y0.at2(0, j) - y1.at2(0, j)).abs()).sum();
        assert!(
            delta > 1e-6,
            "bidirectional attention should see the future"
        );
    }

    /// `forward_last` must reproduce the newest row of each sequence of
    /// the full forward bit for bit: heads 1/2/4, one and two blocks,
    /// batch sizes 1 and 5, and left padding from none to a fully padded
    /// sequence.
    #[test]
    fn forward_last_matches_last_rows_of_forward_bitwise() {
        let (d, t) = (8, 6);
        for heads in [1, 2, 4] {
            for layers in [1, 2] {
                let mut rng = SeedRng::seed(40 + heads as u64);
                let enc = TransformerEncoder::new("enc", layers, d, heads, 0.1, &mut rng);
                // Valid positions per sequence; the rest are left padding.
                for valid in [&[3usize][..], &[0, 1, 4, t, 2]] {
                    let b = valid.len();
                    let pad: Vec<bool> = valid
                        .iter()
                        .flat_map(|&v| (0..t).map(move |p| p < t - v))
                        .collect();
                    let mask = attention_mask(b, t, &pad, true);
                    let x = uniform(&[b * t, d], -1.0, 1.0, &mut rng);
                    let mut ctx = Ctx::eval();
                    let xv = ctx.tape.leaf(x);
                    let full = enc.forward(&mut ctx, &xv, b, t, &mask).value();
                    let last = enc.forward_last(&mut ctx, &xv, b, t, &mask).value();
                    assert_eq!(last.shape(), &[b, d]);
                    for bi in 0..b {
                        let want = &full.data()[(bi * t + t - 1) * d..(bi * t + t) * d];
                        let got = &last.data()[bi * d..(bi + 1) * d];
                        assert!(
                            got.iter()
                                .zip(want)
                                .all(|(g, w)| g.to_bits() == w.to_bits()),
                            "heads={heads} layers={layers} valid={valid:?} row {bi}: \
                             {got:?} != {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encoder_trains() {
        let mut rng = SeedRng::seed(5);
        let d = 8;
        let enc = TransformerEncoder::new("enc", 2, d, 2, 0.1, &mut rng);
        assert!(enc.num_parameters() > 0);
        let (b, t) = (2, 3);
        let mask = attention_mask(b, t, &vec![false; b * t], true);
        let mut ctx = Ctx::train(0);
        let mut rng2 = SeedRng::seed(6);
        let x = ctx.tape.leaf(uniform(&[b * t, d], -1.0, 1.0, &mut rng2));
        let y = enc.forward(&mut ctx, &x, b, t, &mask);
        let loss = ops::sum_squares(&y);
        ctx.tape.backward(&loss);
        // Every block parameter participates.
        let with_grad = enc
            .params()
            .iter()
            .filter(|p| p.grad().norm2() > 0.0)
            .count();
        assert!(
            with_grad > enc.params().len() / 2,
            "{with_grad} params with grads"
        );
    }
}
