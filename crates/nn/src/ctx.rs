//! Forward-pass context: tape + train/eval mode + step RNG, and dropout.

use ist_autograd::{Tape, Var};
use ist_tensor::rng::{SeedRng, SeedRngExt as _};
use ist_tensor::{ops as t, Tensor};

/// Everything a forward pass needs besides its inputs.
///
/// A fresh `Ctx` is created per optimisation step (or per evaluation batch);
/// dropping it drops the tape and all recorded activations.
pub struct Ctx {
    /// The gradient tape for this step.
    pub tape: Tape,
    /// Whether stochastic regularisers (dropout, Gumbel noise) are active.
    pub training: bool,
    /// The step RNG; all stochasticity inside the forward pass draws here.
    pub rng: SeedRng,
}

impl Ctx {
    /// Training-mode context with a seeded RNG.
    pub fn train(seed: u64) -> Self {
        Ctx {
            tape: Tape::new(),
            training: true,
            rng: SeedRng::seed(seed),
        }
    }

    /// Evaluation-mode context (dropout off, deterministic sampling).
    pub fn eval() -> Self {
        Ctx {
            tape: Tape::new(),
            training: false,
            rng: SeedRng::seed(0),
        }
    }

    /// Inference-mode context: like [`Ctx::eval`] but on a
    /// [`Tape::no_grad`] tape, so the forward pass records no backward
    /// closures or parent links — the memory-lean path for online serving,
    /// where the tape is dropped right after the scores are read.
    pub fn inference() -> Self {
        Ctx {
            tape: Tape::no_grad(),
            training: false,
            rng: SeedRng::seed(0),
        }
    }

    /// Records a constant on this context's tape.
    pub fn constant(&self, t: Tensor) -> Var {
        self.tape.constant(t)
    }
}

/// Inverted dropout: in training mode, zeroes each element with probability
/// `p` and scales survivors by `1/(1-p)`; identity in eval mode or at `p=0`.
pub fn dropout(ctx: &mut Ctx, x: &Var, p: f32) -> Var {
    assert!(
        (0.0..1.0).contains(&p),
        "dropout p must be in [0,1), got {p}"
    );
    if !ctx.training || p == 0.0 {
        return x.clone();
    }
    // Sampling the mask is part of the op: attribute it with the `mul`.
    let _p = ist_autograd::profile::fwd("dropout");
    let keep = 1.0 - p;
    let mask = ist_tensor::rng::bernoulli(&x.shape(), keep, &mut ctx.rng);
    let mask = t::scale(&mask, 1.0 / keep);
    ist_autograd::ops::mul(x, &ctx.tape.constant(mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_ctx_is_eval_mode_on_a_no_grad_tape() {
        let mut ctx = Ctx::inference();
        assert!(!ctx.training);
        assert!(!ctx.tape.grad_enabled());
        let x = ctx.tape.leaf(Tensor::ones(&[3, 3]));
        let y = dropout(&mut ctx, &x, 0.5);
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn eval_mode_is_identity() {
        let mut ctx = Ctx::eval();
        let x = ctx.tape.leaf(Tensor::ones(&[4, 4]));
        let y = dropout(&mut ctx, &x, 0.5);
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut ctx = Ctx::train(7);
        let x = ctx.tape.leaf(Tensor::ones(&[100, 100]));
        let y = dropout(&mut ctx, &x, 0.3).value();
        let mean = ist_tensor::reduce::mean(&y);
        assert!(
            (mean - 1.0).abs() < 0.05,
            "dropout should be unbiased, mean={mean}"
        );
        // Survivors are scaled by 1/keep.
        assert!(y
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-5));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut ctx = Ctx::train(seed);
            let x = ctx.tape.leaf(Tensor::ones(&[8, 8]));
            dropout(&mut ctx, &x, 0.5).value()
        };
        assert_eq!(run(3).data(), run(3).data());
    }
}
