//! GRU4Rec (Hidasi et al.) and GRU4Rec⁺.
//!
//! Both share the GRU encoder over item embeddings; they differ exactly
//! where the papers differ:
//!
//! * **GRU4Rec** trains with the full-softmax cross-entropy;
//! * **GRU4Rec⁺** trains with the BPR-max ranking loss over sampled
//!   negatives (the "improved loss function + sampling" of the follow-up
//!   paper), which is what lifts it above the original in Table 2.

use isrec_core::{trainer, SequentialRecommender, TrainConfig, TrainReport};
use ist_autograd::ops;
use ist_data::sampling::SeqBatcher;
use ist_data::{LeaveOneOut, SequentialDataset};
use ist_nn::embedding::Embedding;
use ist_nn::linear::Linear;
use ist_nn::rnn::Gru;
use ist_nn::{Ctx, Module};
use ist_tensor::rng::{SeedRng, SeedRngExt as _};
use ist_tensor::Tensor;
use rand::Rng;

/// Loss variant selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gru4RecLoss {
    /// Full-softmax cross-entropy (original GRU4Rec).
    CrossEntropy,
    /// BPR-max with sampled negatives (GRU4Rec⁺).
    BprMax,
}

/// GRU-based session recommender.
pub struct Gru4Rec {
    dim: usize,
    max_len: usize,
    loss: Gru4RecLoss,
    /// Negatives per positive for the BPR-max loss.
    num_negatives: usize,
    state: Option<State>,
}

struct State {
    items: Embedding,
    gru: Gru,
    out: Linear,
    num_items: usize,
    pad_id: usize,
}

impl Gru4Rec {
    /// New model; `loss` selects GRU4Rec vs GRU4Rec⁺.
    pub fn new(dim: usize, max_len: usize, loss: Gru4RecLoss) -> Self {
        Gru4Rec {
            dim,
            max_len,
            loss,
            num_negatives: 32,
            state: None,
        }
    }

    fn build(&mut self, dataset: &SequentialDataset, seed: u64) {
        let mut rng = SeedRng::seed(seed);
        let pad_id = dataset.num_items;
        self.state = Some(State {
            items: Embedding::new("gru4rec.items", dataset.num_items + 1, self.dim, &mut rng),
            gru: Gru::new("gru4rec.gru", self.dim, self.dim, &mut rng),
            out: Linear::new("gru4rec.out", self.dim, dataset.num_items, &mut rng),
            num_items: dataset.num_items,
            pad_id,
        });
    }

    /// Hidden states for a batch: `[B·T, dim]`.
    fn encode(
        &self,
        ctx: &mut Ctx,
        inputs: &[usize],
        batch: usize,
        len: usize,
    ) -> ist_autograd::Var {
        let st = self.state.as_ref().expect("fit first");
        let e = st.items.forward(ctx, inputs);
        st.gru.forward(ctx, &e, batch, len)
    }

    fn params(&self) -> Vec<ist_autograd::Param> {
        let st = self.state.as_ref().expect("fit first");
        let mut p = st.items.params();
        p.extend(st.gru.params());
        p.extend(st.out.params());
        p
    }

    /// BPR-max fit (GRU4Rec⁺). Each step samples `n_neg` negatives per
    /// position from its `Ctx` RNG, whose seed depends only on the seed,
    /// epoch and step, so rollback and resume replay them without an epoch
    /// of `rows × n_neg` ids held in memory.
    fn fit_bpr_max(
        &self,
        dataset: &SequentialDataset,
        split: &LeaveOneOut,
        train: &TrainConfig,
    ) -> TrainReport {
        let st = self.state.as_ref().expect("built");
        let batcher = SeqBatcher::new(self.max_len, train.batch_size, st.pad_id);
        let n_neg = self
            .num_negatives
            .min(dataset.num_items.saturating_sub(1))
            .max(1);
        let draw = |rng: &mut SeedRng| trainer::shuffled_batches(split, &batcher, rng);
        trainer::train(train, self.params(), draw, |ctx, batch| {
            let rows = batch.batch * batch.len;
            let h = self.encode(ctx, &batch.inputs, batch.batch, batch.len);
            let table = st.items.full(ctx);

            // Positive scores: ⟨h_r, e_{target_r}⟩ (pad targets map to the
            // pad row; their weight is 0 so they cancel).
            let pos_e = ops::index_select_rows(&table, &batch.targets);
            let s_pos = ops::sum_lastdim(&ops::mul(&h, &pos_e)); // [rows]

            // Negative scores: n_neg sampled items per row.
            let mut neg_ids = Vec::with_capacity(rows * n_neg);
            for &target in &batch.targets {
                for _ in 0..n_neg {
                    let mut j = ctx.rng.gen_range(0..st.num_items);
                    while j == target {
                        j = ctx.rng.gen_range(0..st.num_items);
                    }
                    neg_ids.push(j);
                }
            }
            let neg_e = ops::index_select_rows(&table, &neg_ids); // [rows·n, d]
            let neg_e = ops::reshape(&neg_e, &[rows, n_neg, self.dim]);
            let h3 = ops::reshape(&h, &[rows, 1, self.dim]);
            let s_neg = ops::sum_lastdim(&ops::mul(&h3, &neg_e)); // [rows, n]

            // BPR-max: −ln Σⱼ softmax(s_neg)ⱼ · σ(s_pos − s_negⱼ) + reg.
            let a = ist_autograd::fused::softmax_lastdim(&s_neg);
            let diff = ops::sub(&ops::reshape(&s_pos, &[rows, 1]), &s_neg);
            let inner = ops::sum_lastdim(&ops::mul(&a, &ops::sigmoid(&diff)));
            let nll = ops::neg(&ops::ln(&ops::add_scalar(&inner, 1e-8)));
            let reg = ops::sum_lastdim(&ops::mul(&a, &ops::mul(&s_neg, &s_neg)));
            let per_row = ops::add(&nll, &ops::scale(&reg, 0.05));

            // Weighted mean over the real (non-pad) positions.
            let w = ctx.constant(Tensor::from_vec(batch.weights.clone(), &[rows]));
            let wsum: f32 = batch.weights.iter().sum();
            ops::scale(&ops::sum_all(&ops::mul(&per_row, &w)), 1.0 / wsum)
        })
    }
}

impl SequentialRecommender for Gru4Rec {
    fn name(&self) -> String {
        match self.loss {
            Gru4RecLoss::CrossEntropy => "GRU4Rec".into(),
            Gru4RecLoss::BprMax => "GRU4Rec+".into(),
        }
    }

    fn fit(
        &mut self,
        dataset: &SequentialDataset,
        split: &LeaveOneOut,
        train: &TrainConfig,
    ) -> TrainReport {
        self.build(dataset, train.seed);
        match self.loss {
            Gru4RecLoss::CrossEntropy => {
                let pad = self.state.as_ref().expect("built").pad_id;
                let batcher = SeqBatcher::new(self.max_len, train.batch_size, pad);
                let params = self.params();
                trainer::train_next_item(split, &batcher, train, params, |ctx, batch| {
                    let h = self.encode(ctx, &batch.inputs, batch.batch, batch.len);
                    let st = self.state.as_ref().expect("built");
                    st.out.forward(ctx, &h)
                })
            }
            Gru4RecLoss::BprMax => self.fit_bpr_max(dataset, split, train),
        }
    }

    fn score_batch(
        &self,
        _users: &[usize],
        histories: &[&[usize]],
        candidates: &[&[usize]],
    ) -> Vec<Vec<f32>> {
        let st = self.state.as_ref().expect("fit first");
        let batcher = SeqBatcher::new(self.max_len, 1, st.pad_id);
        let mut out = Vec::with_capacity(histories.len());
        for (hists, cands) in histories.chunks(128).zip(candidates.chunks(128)) {
            let batch = batcher.inference_batch(hists);
            let mut ctx = Ctx::eval();
            let h = self.encode(&mut ctx, &batch.inputs, batch.batch, batch.len);
            // Scores against items: CE head uses the output layer; BPR-max
            // scores against the embedding table (as trained).
            let logits = match self.loss {
                Gru4RecLoss::CrossEntropy => st.out.forward(&ctx, &h),
                Gru4RecLoss::BprMax => {
                    let table = st.items.full(&ctx);
                    let items = ops::slice_rows(&table, 0, st.num_items);
                    ops::matmul_nt(&h, &items)
                }
            };
            let lv = logits.value();
            for (bi, cs) in cands.iter().enumerate() {
                let row = bi * batch.len + (batch.len - 1);
                out.push(cs.iter().map(|&c| lv.at2(row, c)).collect());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_dataset() -> SequentialDataset {
        let sequences: Vec<Vec<usize>> = (0..16)
            .map(|u| (0..8).map(|t| (u + t) % 4).collect())
            .collect();
        SequentialDataset {
            name: "cycle".into(),
            domain: ist_graph::lexicon::Domain::Movies,
            sequences,
            num_items: 4,
            item_concepts: vec![vec![]; 4],
            concept_graph: ist_graph::ConceptGraph::empty(0),
            concept_names: vec![],
        }
    }

    #[test]
    fn ce_variant_learns_cycle() {
        let ds = cycle_dataset();
        let split = LeaveOneOut::split(&ds.sequences);
        let mut m = Gru4Rec::new(16, 6, Gru4RecLoss::CrossEntropy);
        let cfg = TrainConfig {
            epochs: 15,
            lr: 0.02,
            batch_size: 8,
            ..TrainConfig::smoke()
        };
        let report = m.fit(&ds, &split, &cfg);
        assert!(report.improved());
        let s = m.score(&[0, 1, 2], &[3, 0, 1]);
        let best = ist_tensor::order::try_argmax(&s).expect("trained scores are finite");
        assert_eq!(best, 0, "after …,2 the next is 3: {s:?}");
    }

    #[test]
    fn bpr_max_variant_learns_cycle() {
        let ds = cycle_dataset();
        let split = LeaveOneOut::split(&ds.sequences);
        let mut m = Gru4Rec::new(16, 6, Gru4RecLoss::BprMax);
        let cfg = TrainConfig {
            epochs: 15,
            lr: 0.02,
            batch_size: 8,
            ..TrainConfig::smoke()
        };
        let report = m.fit(&ds, &split, &cfg);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        let s = m.score(&[1, 2, 3], &[0, 2]);
        assert!(s[0] > s[1], "after …,3 the next is 0: {s:?}");
    }

    #[test]
    fn names_differ() {
        assert_ne!(
            Gru4Rec::new(8, 4, Gru4RecLoss::CrossEntropy).name(),
            Gru4Rec::new(8, 4, Gru4RecLoss::BprMax).name()
        );
    }
}
