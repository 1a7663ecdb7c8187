//! NCF (He et al.): neural collaborative filtering — an MLP over the
//! concatenation of user and item embeddings, trained with the logistic
//! loss on sampled negatives.

use isrec_core::{trainer, SequentialRecommender, TrainConfig, TrainReport};
use ist_autograd::ops;
use ist_data::{LeaveOneOut, SequentialDataset};
use ist_nn::embedding::Embedding;
use ist_nn::linear::Mlp;
use ist_nn::{Ctx, Module};
use ist_tensor::rng::{SeedRng, SeedRngExt as _};
use rand::seq::SliceRandom;

use crate::common::{sample_one_negative, training_positions};

/// Neural collaborative filtering.
pub struct Ncf {
    dim: usize,
    hidden: Vec<usize>,
    state: Option<NcfState>,
}

struct NcfState {
    users: Embedding,
    items: Embedding,
    mlp: Mlp,
}

impl Ncf {
    /// `dim` per embedding; `hidden` MLP widths after the concat layer.
    pub fn new(dim: usize, hidden: Vec<usize>) -> Self {
        Ncf {
            dim,
            hidden,
            state: None,
        }
    }

    /// Scores `(user, item)` pairs in one forward pass.
    fn forward_pairs(&self, ctx: &mut Ctx, users: &[usize], items: &[usize]) -> ist_autograd::Var {
        let st = self.state.as_ref().expect("fit before scoring");
        let pu = st.users.forward(ctx, users);
        let qi = st.items.forward(ctx, items);
        // The MLP input is [p ⊙ q ; implicit interaction]: we use the GMF-style
        // element-wise product concatenated with the sum — realised without a
        // concat op as two parallel projections inside the first MLP layer by
        // feeding [p ⊙ q] and adding a second projection of (p + q).
        let prod = ops::mul(&pu, &qi);
        let sum = ops::add(&pu, &qi);
        // Single fused input: x = [p⊙q] + 0.5·(p+q) keeps one tower while
        // retaining both GMF and MLP-style signal paths.
        let x = ops::add(&prod, &ops::scale(&sum, 0.5));
        st.mlp.forward(ctx, &x, 0.0)
    }
}

impl SequentialRecommender for Ncf {
    fn name(&self) -> String {
        "NCF".into()
    }

    fn fit(
        &mut self,
        dataset: &SequentialDataset,
        split: &LeaveOneOut,
        train: &TrainConfig,
    ) -> TrainReport {
        let mut rng = SeedRng::seed(train.seed);
        let mut widths = vec![self.dim];
        widths.extend(&self.hidden);
        widths.push(1);
        let st = NcfState {
            users: Embedding::new("ncf.users", dataset.num_users().max(1), self.dim, &mut rng),
            items: Embedding::new("ncf.items", dataset.num_items.max(1), self.dim, &mut rng),
            mlp: Mlp::new("ncf.mlp", &widths, &mut rng),
        };
        self.state = Some(st);
        let params = {
            let st = self.state.as_ref().expect("just set");
            let mut p = st.users.params();
            p.extend(st.items.params());
            p.extend(st.mlp.params());
            p
        };
        let positions = training_positions(split);
        let draw = |rng: &mut SeedRng| {
            let mut positions = positions.clone();
            positions.shuffle(rng);
            positions
                .chunks(train.batch_size.max(1))
                .map(|chunk| {
                    let mut users = Vec::with_capacity(chunk.len() * 2);
                    let mut items = Vec::with_capacity(chunk.len() * 2);
                    let mut labels = Vec::with_capacity(chunk.len() * 2);
                    for &(u, t) in chunk {
                        let pos = split.train[u][t];
                        users.push(u);
                        items.push(pos);
                        labels.push(1.0f32);
                        users.push(u);
                        items.push(sample_one_negative(dataset.num_items, pos, rng));
                        labels.push(0.0);
                    }
                    (users, items, labels)
                })
                .collect()
        };
        trainer::train(train, params, draw, |ctx, (users, items, labels)| {
            let logits = self.forward_pairs(ctx, users, items);
            // Logistic loss: −y·lnσ(s) − (1−y)·ln(1−σ(s)), stabilised by
            // clamping the sigmoid away from {0, 1}.
            let probs = ops::sigmoid(&logits);
            let probs = ops::add_scalar(&ops::scale(&probs, 1.0 - 2e-6), 1e-6);
            let y = ctx.constant(ist_tensor::Tensor::from_vec(
                labels.clone(),
                &[labels.len(), 1],
            ));
            let one_minus_y = ops::add_scalar(&ops::neg(&y), 1.0);
            let term_pos = ops::mul(&y, &ops::ln(&probs));
            let term_neg = ops::mul(
                &one_minus_y,
                &ops::ln(&ops::add_scalar(&ops::neg(&probs), 1.0)),
            );
            ops::neg(&ops::mean_all(&ops::add(&term_pos, &term_neg)))
        })
    }

    fn score_batch(
        &self,
        users: &[usize],
        _histories: &[&[usize]],
        candidates: &[&[usize]],
    ) -> Vec<Vec<f32>> {
        let mut flat_users = Vec::new();
        let mut flat_items = Vec::new();
        for (&u, cands) in users.iter().zip(candidates) {
            for &c in *cands {
                flat_users.push(u);
                flat_items.push(c);
            }
        }
        let mut ctx = Ctx::eval();
        let scores = self.forward_pairs(&mut ctx, &flat_users, &flat_items);
        let sv = scores.value();
        let mut out = Vec::with_capacity(users.len());
        let mut cursor = 0usize;
        for cands in candidates {
            out.push(sv.data()[cursor..cursor + cands.len()].to_vec());
            cursor += cands.len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_user_item_affinity() {
        // Two user groups with disjoint item support.
        let mut sequences = Vec::new();
        for u in 0..10 {
            let base = if u < 5 { 0 } else { 4 };
            sequences.push(vec![base, base + 1, base + 2, base + 3, base, base + 1]);
        }
        let ds = SequentialDataset {
            name: "t".into(),
            domain: ist_graph::lexicon::Domain::Movies,
            sequences,
            num_items: 8,
            item_concepts: vec![vec![]; 8],
            concept_graph: ist_graph::ConceptGraph::empty(0),
            concept_names: vec![],
        };
        let split = LeaveOneOut::split(&ds.sequences);
        let mut m = Ncf::new(8, vec![16]);
        let cfg = TrainConfig {
            epochs: 25,
            lr: 0.01,
            batch_size: 32,
            ..TrainConfig::smoke()
        };
        let report = m.fit(&ds, &split, &cfg);
        assert!(report.improved(), "{:?}", report.epoch_losses);

        let s = m.score_batch(&[0], &[&[]], &[&[0, 1, 2, 3, 4, 5, 6, 7]]);
        let own: f32 = s[0][0..4].iter().sum();
        let other: f32 = s[0][4..8].iter().sum();
        assert!(own > other, "own {own} vs other {other}");
    }
}
