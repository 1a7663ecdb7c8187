//! Fused differentiable operations with bespoke backward rules.
//!
//! These are the numerically sensitive or hot composite operations where a
//! hand-derived adjoint is both faster and more stable than composing
//! primitives: softmax, the full-vocabulary cross-entropy of Eq. (13),
//! layer normalisation, the cosine-similarity scoring of Eq. (6), and the
//! Gumbel-Softmax top-λ straight-through sampler of Eq. (5).

use ist_tensor::{ops as t, reduce, rng::SeedRng, Tensor};

use crate::tape::Var;

/// Row-wise softmax along the last axis.
///
/// Backward: `dx = (g - ⟨g, y⟩) ⊙ y` per row, where `y` is the output.
pub fn softmax_lastdim(a: &Var) -> Var {
    let _p = crate::profile::fwd("softmax_lastdim");
    let out = reduce::softmax_lastdim(&a.value());
    let y = out.clone();
    a.tape().clone().push_node(
        out,
        vec![a.id()],
        Box::new(move |g, _| vec![Some(softmax_backward(g, &y, 1.0))]),
        a.requires_grad(),
    )
}

/// Shared softmax adjoint: for each last-axis row,
/// `dx = (g - Σ g·y) ⊙ y / τ`.
fn softmax_backward(g: &Tensor, y: &Tensor, tau: f32) -> Tensor {
    let n = *y.shape().last().expect("softmax needs rank ≥ 1");
    let rows = y.len() / n;
    let mut dx = vec![0.0f32; y.len()];
    for r in 0..rows {
        let gr = &g.data()[r * n..(r + 1) * n];
        let yr = &y.data()[r * n..(r + 1) * n];
        let dot: f32 = gr.iter().zip(yr).map(|(a, b)| a * b).sum();
        for ((d, &gv), &yv) in dx[r * n..(r + 1) * n].iter_mut().zip(gr).zip(yr) {
            *d = (gv - dot) * yv / tau;
        }
    }
    Tensor::from_vec(dx, y.shape())
}

/// Row-wise log-softmax along the last axis.
///
/// Backward: `dx = g - softmax(x) · Σ g` per row.
pub fn log_softmax_lastdim(a: &Var) -> Var {
    let _p = crate::profile::fwd("log_softmax_lastdim");
    let av = a.value();
    let out = reduce::log_softmax_lastdim(&av);
    let y = reduce::softmax_lastdim(&av);
    a.tape().clone().push_node(
        out,
        vec![a.id()],
        Box::new(move |g, _| {
            let n = *y.shape().last().unwrap();
            let rows = y.len() / n;
            let mut dx = vec![0.0f32; y.len()];
            for r in 0..rows {
                let gr = &g.data()[r * n..(r + 1) * n];
                let yr = &y.data()[r * n..(r + 1) * n];
                let gsum: f32 = gr.iter().sum();
                for ((d, &gv), &yv) in dx[r * n..(r + 1) * n].iter_mut().zip(gr).zip(yr) {
                    *d = gv - yv * gsum;
                }
            }
            vec![Some(Tensor::from_vec(dx, y.shape()))]
        }),
        a.requires_grad(),
    )
}

/// Weighted next-item cross-entropy over full-vocabulary logits (Eq. 13).
///
/// `logits` is `[R, V]`; row `r` is scored against class `targets[r]` with
/// weight `weights[r]` (0 for padded positions). The loss is the weighted
/// mean `Σ w_r · (-log p_r[t_r]) / Σ w_r`.
///
/// Only rows with a nonzero weight are computed: the forward takes their
/// log-sum-exp and the backward their softmax, through the same per-row
/// code as [`reduce::log_softmax_lastdim`] and [`reduce::softmax_lastdim`],
/// so the loss and gradient bits equal the full-row computation's. A
/// zero-weight row is never read (it may hold non-finite logits or an
/// out-of-range target) and gets a zero gradient.
pub fn cross_entropy_rows(logits: &Var, targets: &[usize], weights: &[f32]) -> Var {
    let _p = crate::profile::fwd("cross_entropy_rows");
    let lv = logits.value();
    assert_eq!(lv.rank(), 2, "cross_entropy_rows expects [rows, classes]");
    let (rows, classes) = (lv.shape()[0], lv.shape()[1]);
    assert_eq!(targets.len(), rows);
    assert_eq!(weights.len(), rows);
    let wsum: f32 = weights.iter().sum();
    assert!(
        wsum > 0.0,
        "cross_entropy_rows needs at least one positive weight"
    );

    let weighted: Vec<bool> = weights.iter().map(|&w| w != 0.0).collect();
    for r in (0..rows).filter(|&r| weighted[r]) {
        assert!(
            targets[r] < classes,
            "target {} out of range {classes}",
            targets[r]
        );
    }
    let lse = reduce::logsumexp_lastdim_where(&lv, &weighted);
    let mut loss = 0.0f32;
    for r in (0..rows).filter(|&r| weighted[r]) {
        // Element `t_r` of the row's log-softmax.
        loss -= weights[r] * (lv.data()[r * classes + targets[r]] - lse[r]);
    }
    loss /= wsum;

    let targets_owned = targets.to_vec();
    let weights_owned = weights.to_vec();
    logits.tape().clone().push_node(
        Tensor::scalar(loss),
        vec![logits.id()],
        Box::new(move |g, _| {
            let scale = g.item() / wsum;
            // d loss / d logits_r = w_r/W · (softmax(logits_r) - onehot).
            let mut dx = reduce::softmax_lastdim_where(&lv, &weighted).into_vec();
            for r in (0..rows).filter(|&r| weighted[r]) {
                let w = weights_owned[r] * scale;
                let row = &mut dx[r * classes..(r + 1) * classes];
                for v in row.iter_mut() {
                    *v *= w;
                }
                row[targets_owned[r]] -= w;
            }
            vec![Some(Tensor::from_vec(dx, &[rows, classes]))]
        }),
        logits.requires_grad(),
    )
}

/// Layer normalisation over the last axis with learnable `gamma`/`beta`.
///
/// `x` is `[..., n]`, `gamma` and `beta` are `[n]`.
pub fn layer_norm_rows(x: &Var, gamma: &Var, beta: &Var, eps: f32) -> Var {
    let _p = crate::profile::fwd("layer_norm_rows");
    let xv = x.value();
    let gv = gamma.value();
    let bv = beta.value();
    let n = *xv.shape().last().expect("layer_norm needs rank ≥ 1");
    assert_eq!(gv.shape(), &[n]);
    assert_eq!(bv.shape(), &[n]);
    let rows = xv.len() / n;

    // Forward: save x̂ and the inverse std per row for the backward pass.
    let mut xhat = vec![0.0f32; xv.len()];
    let mut inv_std = vec![0.0f32; rows];
    let mut out = vec![0.0f32; xv.len()];
    for r in 0..rows {
        let row = &xv.data()[r * n..(r + 1) * n];
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let istd = 1.0 / (var + eps).sqrt();
        inv_std[r] = istd;
        for (j, &v) in row.iter().enumerate() {
            let xh = (v - mean) * istd;
            xhat[r * n + j] = xh;
            out[r * n + j] = gv.data()[j] * xh + bv.data()[j];
        }
    }

    let xhat = Tensor::from_vec(xhat, xv.shape());
    let shape = xv.shape().to_vec();
    x.tape().clone().push_node(
        Tensor::from_vec(out, &shape),
        vec![x.id(), gamma.id(), beta.id()],
        Box::new(move |g, needs| {
            let mut dgamma = vec![0.0f32; n];
            let mut dbeta = vec![0.0f32; n];
            let mut dx = vec![0.0f32; xhat.len()];
            for r in 0..rows {
                let gr = &g.data()[r * n..(r + 1) * n];
                let xh = &xhat.data()[r * n..(r + 1) * n];
                // Accumulate parameter grads.
                for j in 0..n {
                    dgamma[j] += gr[j] * xh[j];
                    dbeta[j] += gr[j];
                }
                if needs[0] {
                    // dx̂ = γ ⊙ g; dx = (dx̂ - mean(dx̂) - x̂·mean(dx̂ ⊙ x̂)) · istd
                    let dxhat: Vec<f32> = (0..n).map(|j| gv.data()[j] * gr[j]).collect();
                    let m1 = dxhat.iter().sum::<f32>() / n as f32;
                    let m2 = dxhat.iter().zip(xh).map(|(a, b)| a * b).sum::<f32>() / n as f32;
                    for j in 0..n {
                        dx[r * n + j] = (dxhat[j] - m1 - xh[j] * m2) * inv_std[r];
                    }
                }
            }
            vec![
                needs[0].then(|| Tensor::from_vec(dx, &shape)),
                needs[1].then(|| Tensor::from_vec(dgamma, &[n])),
                needs[2].then(|| Tensor::from_vec(dbeta, &[n])),
            ]
        }),
        x.requires_grad() || gamma.requires_grad() || beta.requires_grad(),
    )
}

/// Cosine similarity between every row of `x` (`[m, d]`) and every row of
/// `c` (`[k, d]`), producing `[m, k]` — Eq. (6) of the paper.
///
/// Norms are clamped below by `1e-8` to keep gradients finite near zero.
#[allow(clippy::needless_range_loop)] // index math mirrors the adjoint formulas
pub fn cosine_similarity_rows(x: &Var, c: &Var) -> Var {
    let _p = crate::profile::fwd("cosine_similarity_rows");
    let xv = x.value();
    let cv = c.value();
    assert_eq!(xv.rank(), 2);
    assert_eq!(cv.rank(), 2);
    assert_eq!(xv.shape()[1], cv.shape()[1]);
    let (m, d) = (xv.shape()[0], xv.shape()[1]);
    let k = cv.shape()[0];

    let nx: Vec<f32> = (0..m)
        .map(|i| {
            xv.data()[i * d..(i + 1) * d]
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt()
                .max(1e-8)
        })
        .collect();
    let nc: Vec<f32> = (0..k)
        .map(|j| {
            cv.data()[j * d..(j + 1) * d]
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt()
                .max(1e-8)
        })
        .collect();

    let dots = ist_tensor::matmul::matmul_nt(&xv, &cv);
    let mut out = vec![0.0f32; m * k];
    for i in 0..m {
        for j in 0..k {
            out[i * k + j] = dots.data()[i * k + j] / (nx[i] * nc[j]);
        }
    }
    let sims = Tensor::from_vec(out, &[m, k]);
    let sims_saved = sims.clone();

    x.tape().clone().push_node(
        sims,
        vec![x.id(), c.id()],
        Box::new(move |g, needs| {
            let s = &sims_saved;
            let gx = needs[0].then(|| {
                let mut dx = vec![0.0f32; m * d];
                for i in 0..m {
                    let xi = &xv.data()[i * d..(i + 1) * d];
                    for j in 0..k {
                        let gij = g.data()[i * k + j];
                        if gij == 0.0 {
                            continue;
                        }
                        let cj = &cv.data()[j * d..(j + 1) * d];
                        let sij = s.data()[i * k + j];
                        let a = gij / (nx[i] * nc[j]);
                        let b = gij * sij / (nx[i] * nx[i]);
                        for l in 0..d {
                            dx[i * d + l] += a * cj[l] - b * xi[l];
                        }
                    }
                }
                Tensor::from_vec(dx, &[m, d])
            });
            let gc = needs[1].then(|| {
                let mut dc = vec![0.0f32; k * d];
                for i in 0..m {
                    let xi = &xv.data()[i * d..(i + 1) * d];
                    for j in 0..k {
                        let gij = g.data()[i * k + j];
                        if gij == 0.0 {
                            continue;
                        }
                        let cj = &cv.data()[j * d..(j + 1) * d];
                        let sij = s.data()[i * k + j];
                        let a = gij / (nx[i] * nc[j]);
                        let b = gij * sij / (nc[j] * nc[j]);
                        for l in 0..d {
                            dc[j * d + l] += a * xi[l] - b * cj[l];
                        }
                    }
                }
                Tensor::from_vec(dc, &[k, d])
            });
            vec![gx, gc]
        }),
        x.requires_grad() || c.requires_grad(),
    )
}

/// Result of the Gumbel top-λ straight-through sampler: the multi-hot mask
/// variable plus, for inspection/explainability, the per-row activated
/// concept indices and the underlying soft probabilities.
pub struct GumbelTopK {
    /// Multi-hot `[rows, K]` mask variable (exactly λ ones per row).
    pub mask: Var,
    /// Activated indices per row, in decreasing soft-probability order.
    pub indices: Vec<Vec<usize>>,
    /// The relaxed softmax probabilities used for the backward pass.
    pub soft: Tensor,
}

/// Gumbel-Softmax top-λ straight-through sampler (Eq. 5).
///
/// Forward: `y = softmax((scores + Gumbel noise)/τ)` per row; the output
/// *value* is the hard multi-hot mask of the λ largest entries of `y`.
/// Backward: gradients flow as if the output were the relaxed `y`
/// (straight-through), i.e. the softmax adjoint scaled by `1/τ`.
///
/// With `deterministic = true` the noise is omitted (used at inference so
/// explanations are stable).
pub fn gumbel_topk_st(
    scores: &Var,
    tau: f32,
    k: usize,
    rng: &mut SeedRng,
    deterministic: bool,
) -> GumbelTopK {
    let _p = crate::profile::fwd("gumbel_topk_st");
    let sv = scores.value();
    assert_eq!(sv.rank(), 2, "gumbel_topk_st expects [rows, K] scores");
    assert!(tau > 0.0);
    let perturbed = if deterministic {
        t::scale(&sv, 1.0 / tau)
    } else {
        let noise = ist_tensor::rng::gumbel(sv.shape(), rng);
        t::scale(&t::add(&sv, &noise), 1.0 / tau)
    };
    let soft = reduce::softmax_lastdim(&perturbed);
    let indices = reduce::topk_lastdim(&soft, k);

    let kdim = sv.shape()[1];
    let mut hard = Tensor::zeros(sv.shape());
    for (r, row_idx) in indices.iter().enumerate() {
        for &j in row_idx {
            hard.data_mut()[r * kdim + j] = 1.0;
        }
    }

    let soft_saved = soft.clone();
    let mask = scores.tape().clone().push_node(
        hard,
        vec![scores.id()],
        Box::new(move |g, _| vec![Some(softmax_backward(g, &soft_saved, tau))]),
        scores.requires_grad(),
    );
    GumbelTopK {
        mask,
        indices,
        soft,
    }
}

/// Column-wise max over rows: `[R, C] → [C]` (Caser's max-over-time pool).
///
/// Backward routes each column's gradient to its (first) argmax row.
#[allow(clippy::needless_range_loop)]
pub fn max_over_rows(a: &Var) -> Var {
    let _p = crate::profile::fwd("max_over_rows");
    let av = a.value();
    assert_eq!(av.rank(), 2);
    let (r, c) = (av.shape()[0], av.shape()[1]);
    assert!(r > 0);
    let mut out = vec![f32::NEG_INFINITY; c];
    let mut arg = vec![0usize; c];
    for i in 0..r {
        for j in 0..c {
            let v = av.data()[i * c + j];
            if v > out[j] {
                out[j] = v;
                arg[j] = i;
            }
        }
    }
    a.tape().clone().push_node(
        Tensor::from_vec(out, &[c]),
        vec![a.id()],
        Box::new(move |g, _| {
            let mut dx = Tensor::zeros(&[r, c]);
            for j in 0..c {
                dx.data_mut()[arg[j] * c + j] = g.data()[j];
            }
            vec![Some(dx)]
        }),
        a.requires_grad(),
    )
}

/// Unfolds rows into sliding windows: `[T, d] → [T-h+1, h·d]`.
///
/// Window `w` is the concatenation of rows `w .. w+h`. This turns Caser's
/// horizontal convolutions into a single GEMM.
pub fn unfold_rows(a: &Var, h: usize) -> Var {
    let _p = crate::profile::fwd("unfold_rows");
    let av = a.value();
    assert_eq!(av.rank(), 2);
    let (rows, d) = (av.shape()[0], av.shape()[1]);
    assert!(h >= 1 && h <= rows, "window {h} invalid for {rows} rows");
    let windows = rows - h + 1;
    let mut out = Vec::with_capacity(windows * h * d);
    for w in 0..windows {
        out.extend_from_slice(&av.data()[w * d..(w + h) * d]);
    }
    a.tape().clone().push_node(
        Tensor::from_vec(out, &[windows, h * d]),
        vec![a.id()],
        Box::new(move |g, _| {
            let mut dx = Tensor::zeros(&[rows, d]);
            for w in 0..windows {
                let gw = &g.data()[w * h * d..(w + 1) * h * d];
                for (o, v) in dx.data_mut()[w * d..(w + h) * d].iter_mut().zip(gw) {
                    *o += v;
                }
            }
            vec![Some(dx)]
        }),
        a.requires_grad(),
    )
}

/// Batched sliding-window unfold: treats `a: [B·L, d]` as `B` sequences of
/// `L` rows and unfolds each into windows of `h` rows, giving
/// `[B·(L-h+1), h·d]`. Windows never cross sequence boundaries.
pub fn unfold_rows_batched(a: &Var, batch: usize, len: usize, h: usize) -> Var {
    let _p = crate::profile::fwd("unfold_rows_batched");
    let av = a.value();
    assert_eq!(av.rank(), 2);
    assert_eq!(av.shape()[0], batch * len, "rows must equal batch·len");
    let d = av.shape()[1];
    assert!(h >= 1 && h <= len);
    let w = len - h + 1;
    let mut out = Vec::with_capacity(batch * w * h * d);
    for b in 0..batch {
        let base = b * len;
        for s in 0..w {
            out.extend_from_slice(&av.data()[(base + s) * d..(base + s + h) * d]);
        }
    }
    a.tape().clone().push_node(
        Tensor::from_vec(out, &[batch * w, h * d]),
        vec![a.id()],
        Box::new(move |g, _| {
            let mut dx = Tensor::zeros(&[batch * len, d]);
            for b in 0..batch {
                let base = b * len;
                for s in 0..w {
                    let gw = &g.data()[(b * w + s) * h * d..(b * w + s + 1) * h * d];
                    let dst = &mut dx.data_mut()[(base + s) * d..(base + s + h) * d];
                    for (o, v) in dst.iter_mut().zip(gw) {
                        *o += v;
                    }
                }
            }
            vec![Some(dx)]
        }),
        a.requires_grad(),
    )
}

/// Max over each consecutive segment of `seg` rows: `[B·seg, C] → [B, C]`.
/// Backward routes each (segment, column) gradient to its argmax row.
pub fn segment_max_rows(a: &Var, seg: usize) -> Var {
    let _p = crate::profile::fwd("segment_max_rows");
    let av = a.value();
    assert_eq!(av.rank(), 2);
    let c = av.shape()[1];
    let rows = av.shape()[0];
    assert!(
        seg >= 1 && rows.is_multiple_of(seg),
        "rows {rows} not divisible by segment {seg}"
    );
    let b = rows / seg;
    let mut out = vec![f32::NEG_INFINITY; b * c];
    let mut arg = vec![0usize; b * c];
    for bi in 0..b {
        for s in 0..seg {
            let r = bi * seg + s;
            for j in 0..c {
                let v = av.data()[r * c + j];
                if v > out[bi * c + j] {
                    out[bi * c + j] = v;
                    arg[bi * c + j] = r;
                }
            }
        }
    }
    a.tape().clone().push_node(
        Tensor::from_vec(out, &[b, c]),
        vec![a.id()],
        Box::new(move |g, _| {
            let mut dx = Tensor::zeros(&[rows, c]);
            for bi in 0..b {
                for j in 0..c {
                    dx.data_mut()[arg[bi * c + j] * c + j] += g.data()[bi * c + j];
                }
            }
            vec![Some(dx)]
        }),
        a.requires_grad(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_grads;
    use crate::ops::{sum_all, sum_squares};
    use ist_tensor::assert_close;
    use ist_tensor::rng::{uniform, SeedRngExt as _};

    fn rt(seed: u64, shape: &[usize]) -> Tensor {
        let mut rng = SeedRng::seed(seed);
        uniform(shape, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn grad_softmax_and_log_softmax() {
        check_grads(&[rt(1, &[3, 4])], |_, xs| {
            sum_squares(&softmax_lastdim(&xs[0]))
        });
        check_grads(&[rt(2, &[3, 4])], |_, xs| {
            sum_squares(&log_softmax_lastdim(&xs[0]))
        });
    }

    #[test]
    fn grad_cross_entropy() {
        let targets = vec![1usize, 0, 3];
        let weights = vec![1.0f32, 0.0, 2.0];
        check_grads(&[rt(3, &[3, 4])], move |_, xs| {
            cross_entropy_rows(&xs[0], &targets, &weights)
        });
    }

    #[test]
    fn cross_entropy_value_matches_manual() {
        let tape = crate::Tape::new();
        let logits = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 0.0, 0.0], &[2, 2]));
        let loss = cross_entropy_rows(&logits, &[0, 1], &[1.0, 1.0]);
        // Row 0: -log σ = log(1+e¹) - 1·(1 - 1) → -log(e¹/(e¹+e²))
        let p0 = (1.0f32).exp() / ((1.0f32).exp() + (2.0f32).exp());
        let p1 = 0.5f32;
        let expected = (-(p0.ln()) - p1.ln()) / 2.0;
        assert!((loss.value().item() - expected).abs() < 1e-5);
    }

    #[test]
    fn padded_rows_get_zero_gradient() {
        let tape = crate::Tape::new();
        let logits = tape.leaf(rt(4, &[3, 5]));
        let loss = cross_entropy_rows(&logits, &[0, 1, 2], &[1.0, 0.0, 1.0]);
        let grads = tape.backward(&loss);
        let g = grads[logits.id()].as_ref().unwrap();
        assert!(
            g.data()[5..10].iter().all(|&v| v == 0.0),
            "masked row must not receive grad"
        );
    }

    #[test]
    fn grad_layer_norm() {
        check_grads(&[rt(5, &[4, 6]), rt(6, &[6]), rt(7, &[6])], |_, xs| {
            sum_squares(&layer_norm_rows(&xs[0], &xs[1], &xs[2], 1e-5))
        });
    }

    #[test]
    fn layer_norm_output_normalised() {
        let tape = crate::Tape::new();
        let x = tape.leaf(rt(8, &[3, 16]));
        let gamma = tape.constant(Tensor::ones(&[16]));
        let beta = tape.constant(Tensor::zeros(&[16]));
        let y = layer_norm_rows(&x, &gamma, &beta, 1e-5).value();
        for r in 0..3 {
            let row = &y.data()[r * 16..(r + 1) * 16];
            let mean = row.iter().sum::<f32>() / 16.0;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4, "row mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row var {var}");
        }
    }

    #[test]
    fn grad_cosine_similarity() {
        check_grads(&[rt(9, &[3, 4]), rt(10, &[5, 4])], |_, xs| {
            sum_squares(&cosine_similarity_rows(&xs[0], &xs[1]))
        });
    }

    #[test]
    fn cosine_matches_tensor_impl() {
        let x = rt(11, &[3, 4]);
        let c = rt(12, &[5, 4]);
        let tape = crate::Tape::new();
        let s = cosine_similarity_rows(&tape.leaf(x.clone()), &tape.leaf(c.clone()));
        let expected = reduce::cosine_similarity_rows(&x, &c);
        assert_close(s.value().data(), expected.data(), 1e-5);
    }

    #[test]
    fn gumbel_topk_mask_is_multihot() {
        let tape = crate::Tape::new();
        let scores = tape.leaf(rt(13, &[4, 10]));
        let mut rng = SeedRng::seed(0);
        let g = gumbel_topk_st(&scores, 0.5, 3, &mut rng, false);
        let m = g.mask.value();
        for r in 0..4 {
            let row = &m.data()[r * 10..(r + 1) * 10];
            assert_eq!(row.iter().filter(|&&v| v == 1.0).count(), 3);
            assert!(row.iter().all(|&v| v == 0.0 || v == 1.0));
            assert_eq!(g.indices[r].len(), 3);
        }
    }

    #[test]
    fn gumbel_topk_deterministic_selects_top_scores() {
        let tape = crate::Tape::new();
        let scores = tape.leaf(Tensor::from_vec(vec![0.1, 5.0, -2.0, 4.0, 0.0], &[1, 5]));
        let mut rng = SeedRng::seed(0);
        let g = gumbel_topk_st(&scores, 1.0, 2, &mut rng, true);
        assert_eq!(g.indices[0], vec![1, 3]);
    }

    #[test]
    fn gumbel_topk_gradient_is_softmax_st() {
        // With deterministic noise the backward must equal the softmax
        // adjoint at temperature τ — verify against a manual computation.
        let tape = crate::Tape::new();
        let scores = tape.leaf(Tensor::from_vec(vec![0.3, -0.2, 0.9], &[1, 3]));
        let mut rng = SeedRng::seed(0);
        let tau = 0.7;
        let g = gumbel_topk_st(&scores, tau, 1, &mut rng, true);
        let loss = sum_all(&crate::ops::mul(
            &g.mask,
            &tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3])),
        ));
        let grads = tape.backward(&loss);
        let got = grads[scores.id()].as_ref().unwrap().clone();
        let expected = softmax_backward(
            &Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]),
            &g.soft,
            tau,
        );
        assert_close(got.data(), expected.data(), 1e-5);
    }

    #[test]
    fn grad_max_over_rows_and_unfold() {
        check_grads(&[rt(14, &[5, 3])], |_, xs| {
            sum_squares(&max_over_rows(&xs[0]))
        });
        check_grads(&[rt(15, &[6, 2])], |_, xs| {
            sum_squares(&unfold_rows(&xs[0], 3))
        });
    }

    #[test]
    fn grad_batched_unfold_and_segment_max() {
        check_grads(&[rt(16, &[6, 2])], |_, xs| {
            sum_squares(&unfold_rows_batched(&xs[0], 2, 3, 2))
        });
        check_grads(&[rt(17, &[6, 3])], |_, xs| {
            sum_squares(&segment_max_rows(&xs[0], 3))
        });
    }

    #[test]
    fn batched_unfold_respects_boundaries() {
        let tape = crate::Tape::new();
        let a = tape.leaf(Tensor::from_vec(
            (0..8).map(|v| v as f32).collect(),
            &[4, 2],
        ));
        // 2 sequences of length 2, window 2 → one window per sequence.
        let u = unfold_rows_batched(&a, 2, 2, 2).value();
        assert_eq!(u.shape(), &[2, 4]);
        assert_eq!(&u.data()[0..4], &[0., 1., 2., 3.]);
        assert_eq!(&u.data()[4..8], &[4., 5., 6., 7.]);
    }

    #[test]
    fn segment_max_values() {
        let tape = crate::Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1., 5., 3., 2., -1., 0.], &[3, 2]));
        // Single segment of all 3 rows.
        let m = segment_max_rows(&a, 3).value();
        assert_eq!(m.shape(), &[1, 2]);
        assert_eq!(m.data(), &[3., 5.]);
    }

    #[test]
    fn unfold_shapes_and_values() {
        let tape = crate::Tape::new();
        let a = tape.leaf(Tensor::from_vec(
            (0..8).map(|v| v as f32).collect(),
            &[4, 2],
        ));
        let u = unfold_rows(&a, 2).value();
        assert_eq!(u.shape(), &[3, 4]);
        assert_eq!(&u.data()[0..4], &[0., 1., 2., 3.]);
        assert_eq!(&u.data()[8..12], &[4., 5., 6., 7.]);
    }
}
