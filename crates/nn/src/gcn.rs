//! Graph convolution layers (Eq. 10) applied to batched node features.

use std::sync::Arc;

use ist_autograd::{ops, Param, Var};
use ist_tensor::matmul::Adjacency;
use ist_tensor::rng::SeedRng;

use crate::init;
use crate::module::Module;
use crate::Ctx;

/// One GCN layer `H' = σ(N · H · W)` where `N = D̂^{-1/2} Â D̂^{-1/2}` is the
/// symmetric-normalised adjacency with self-loops (precomputed, constant).
///
/// Supports a *batched* forward: `H: [R, K, d]` is `R` independent copies of
/// the node features (one per sequence position in ISRec). `N` is applied to
/// each in place in that layout, over `N`'s nonzeros
/// ([`ops::propagate_with`]), and `W` by one GEMM on the `[R·K, d]` view.
/// `N` comes prepared as an [`Adjacency`], so its compressed rows are built
/// once per adjacency, not once per layer call.
pub struct GcnLayer {
    /// Learnable weight `[d_in, d_out]`.
    pub weight: Param,
    relu: bool,
}

impl GcnLayer {
    /// Xavier-initialised layer; `relu` selects the σ nonlinearity (the
    /// final layer of a stack conventionally omits it).
    pub fn new(name: &str, d_in: usize, d_out: usize, relu: bool, rng: &mut SeedRng) -> Self {
        GcnLayer {
            weight: Param::new(
                format!("{name}.weight"),
                init::xavier_uniform(&[d_in, d_out], rng),
            ),
            relu,
        }
    }

    /// Identity-initialised square layer: at initialisation the layer
    /// computes the pure structural propagation `N·H`, a sensible prior
    /// when the adjacency itself is the inductive bias (ISRec's intent
    /// transition). A small Xavier perturbation keeps symmetry broken.
    pub fn new_identity(name: &str, d: usize, relu: bool, rng: &mut SeedRng) -> Self {
        let mut w = init::xavier_uniform(&[d, d], rng);
        for v in w.data_mut().iter_mut() {
            *v *= 0.05;
        }
        for i in 0..d {
            w.data_mut()[i * d + i] += 1.0;
        }
        GcnLayer {
            weight: Param::new(format!("{name}.weight"), w),
            relu,
        }
    }

    /// `h: [R, K, d_in]`, `norm_adj: [K, K]` constant → `[R, K, d_out]`.
    pub fn forward(&self, ctx: &Ctx, h: &Var, norm_adj: &Arc<Adjacency>) -> Var {
        let n = ctx.tape.constant(norm_adj.dense().clone());
        self.forward_adj_var(ctx, h, &n, norm_adj)
    }

    /// Like [`GcnLayer::forward`] but the adjacency is itself a variable —
    /// used by the learned-relations extension (the paper's §3.5 note that
    /// the method "can also be extended to … learning the relation").
    /// `prepared` holds `norm_adj`'s value.
    pub fn forward_adj_var(
        &self,
        ctx: &Ctx,
        h: &Var,
        norm_adj: &Var,
        prepared: &Arc<Adjacency>,
    ) -> Var {
        let shape = h.shape();
        assert_eq!(shape.len(), 3, "GcnLayer expects [R, K, d], got {shape:?}");
        let (r, k, d) = (shape[0], shape[1], shape[2]);
        assert_eq!(norm_adj.shape(), vec![k, k]);

        // (N·H)·W: propagate every copy in place, then one flat GEMM.
        let propagated = ops::propagate_with(norm_adj, prepared, h);
        let flat = ops::reshape(&propagated, &[r * k, d]);
        let w = self.weight.leaf(&ctx.tape);
        let out = ops::matmul(&flat, &w);
        let out = if self.relu { ops::relu(&out) } else { out };
        let d_out = self.weight.shape()[1];
        ops::reshape(&out, &[r, k, d_out])
    }
}

impl Module for GcnLayer {
    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone()]
    }
}

/// Aggregate GCN-stack timing (env-gated; see `ist-obs`). Units are node
/// rows (`R·K`) so the summary reports node throughput.
static GCN_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("nn.gcn", "node");

/// A stack of [`GcnLayer`]s; ReLU between layers, linear final layer.
pub struct Gcn {
    layers: Vec<GcnLayer>,
}

impl Gcn {
    /// `layers` GCN layers of constant width `d` (matching the paper's
    /// `Z_{t+1} = H^L_G` with `H^0_G = Z_t`).
    pub fn new(name: &str, layers: usize, d: usize, rng: &mut SeedRng) -> Self {
        assert!(layers >= 1);
        let layers = (0..layers)
            .map(|l| GcnLayer::new(&format!("{name}.{l}"), d, d, l + 1 < layers, rng))
            .collect();
        Gcn { layers }
    }

    /// Identity-initialised stack (see [`GcnLayer::new_identity`]).
    pub fn new_identity(name: &str, layers: usize, d: usize, rng: &mut SeedRng) -> Self {
        assert!(layers >= 1);
        let layers = (0..layers)
            .map(|l| GcnLayer::new_identity(&format!("{name}.{l}"), d, l + 1 < layers, rng))
            .collect();
        Gcn { layers }
    }

    /// Message-passing transition `Z_{t+1} = F(Z_t, A)` of Eq. (9), under
    /// a fixed adjacency prepared once by the caller.
    pub fn forward(&self, ctx: &Ctx, h: &Var, norm_adj: &Arc<Adjacency>) -> Var {
        let n = ctx.tape.constant(norm_adj.dense().clone());
        self.run(ctx, h, &n, norm_adj)
    }

    /// Transition under a *variable* adjacency (learned-relations mode),
    /// prepared once here for every layer.
    pub fn forward_adj_var(&self, ctx: &Ctx, h: &Var, norm_adj: &Var) -> Var {
        let prepared = Arc::new(Adjacency::new(norm_adj.value()));
        self.run(ctx, h, norm_adj, &prepared)
    }

    fn run(&self, ctx: &Ctx, h: &Var, norm_adj: &Var, prepared: &Arc<Adjacency>) -> Var {
        let shape = h.shape();
        let _timing = GCN_TIMER.start_with(shape.iter().take(2).product::<usize>() as u64);
        let mut out = h.clone();
        for layer in &self.layers {
            out = layer.forward_adj_var(ctx, &out, norm_adj, prepared);
        }
        out
    }
}

impl Module for Gcn {
    fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::rng::{uniform, SeedRngExt as _};
    use ist_tensor::Tensor;

    /// Normalised adjacency of a 3-node path graph with self-loops.
    fn path3_norm_adj() -> Arc<Adjacency> {
        // Â = A + I for path 0-1-2; D̂ = diag(2,3,2).
        let ahat = [[1., 1., 0.], [1., 1., 1.], [0., 1., 1.]];
        let deg = [2.0f32, 3.0, 2.0];
        let mut n = vec![0.0f32; 9];
        for i in 0..3 {
            for j in 0..3 {
                n[i * 3 + j] = ahat[i][j] / (deg[i] * deg[j]).sqrt();
            }
        }
        Arc::new(Adjacency::new(Tensor::from_vec(n, &[3, 3])))
    }

    #[test]
    fn batched_forward_matches_single() {
        let mut rng = SeedRng::seed(1);
        let layer = GcnLayer::new("g", 4, 4, true, &mut rng);
        let adj = path3_norm_adj();
        let ctx = Ctx::eval();
        let mut rng2 = SeedRng::seed(2);
        let h = uniform(&[2, 3, 4], -1.0, 1.0, &mut rng2);
        let batched = layer.forward(&ctx, &ctx.tape.leaf(h.clone()), &adj).value();
        for r in 0..2 {
            let single = Tensor::from_vec(h.data()[r * 12..(r + 1) * 12].to_vec(), &[1, 3, 4]);
            let out = layer.forward(&ctx, &ctx.tape.leaf(single), &adj).value();
            ist_tensor::assert_close(&batched.data()[r * 12..(r + 1) * 12], out.data(), 1e-5);
        }
    }

    #[test]
    fn information_propagates_along_edges() {
        // A one-hot feature on node 0 must reach node 1 (neighbour) after one
        // layer but not node 2 (two hops) — and reach node 2 after two layers.
        let mut rng = SeedRng::seed(3);
        let mk_identity_weight = |layer: &GcnLayer| {
            layer.weight.set_value(Tensor::eye(2));
        };
        let l1 = GcnLayer::new("l1", 2, 2, false, &mut rng);
        mk_identity_weight(&l1);
        let adj = path3_norm_adj();
        let ctx = Ctx::eval();
        let mut h = Tensor::zeros(&[1, 3, 2]);
        h.data_mut()[0] = 1.0; // node 0, feature 0
        let one = l1.forward(&ctx, &ctx.tape.leaf(h), &adj).value();
        assert!(one.at3(0, 1, 0) > 0.0, "neighbour should receive signal");
        assert_eq!(one.at3(0, 2, 0), 0.0, "two-hop node must not (1 layer)");
        let two = l1.forward(&ctx, &ctx.tape.leaf(one), &adj).value();
        assert!(
            two.at3(0, 2, 0) > 0.0,
            "two-hop node reached after 2 layers"
        );
    }

    #[test]
    fn stack_trains() {
        let mut rng = SeedRng::seed(4);
        let gcn = Gcn::new("gcn", 2, 4, &mut rng);
        let adj = path3_norm_adj();
        let ctx = Ctx::eval();
        let mut rng2 = SeedRng::seed(5);
        let h = ctx.tape.leaf(uniform(&[2, 3, 4], -1.0, 1.0, &mut rng2));
        let y = gcn.forward(&ctx, &h, &adj);
        assert_eq!(y.shape(), vec![2, 3, 4]);
        let loss = ops::sum_squares(&y);
        ctx.tape.backward(&loss);
        for p in gcn.params() {
            assert!(p.grad().norm2() > 0.0);
        }
    }
}
