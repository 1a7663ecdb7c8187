//! Caser (Tang & Wang): convolutional sequence embedding — horizontal and
//! vertical convolutions over the embedding matrix of the last `L` items,
//! combined with a user embedding.

use isrec_core::{trainer, SequentialRecommender, TrainConfig, TrainReport};
use ist_autograd::{fused, ops};
use ist_data::{LeaveOneOut, SequentialDataset};
use ist_nn::conv::{HorizontalConv, VerticalConv};
use ist_nn::embedding::Embedding;
use ist_nn::linear::Linear;
use ist_nn::{ctx::dropout, Ctx, Module};
use ist_tensor::rng::{SeedRng, SeedRngExt as _};
use rand::seq::SliceRandom;

/// Convolutional sequence recommender.
pub struct Caser {
    dim: usize,
    /// Markov window length `L`.
    window: usize,
    n_h_filters: usize,
    n_v_filters: usize,
    dropout_p: f32,
    state: Option<State>,
}

struct State {
    items: Embedding,
    users: Embedding,
    hconv: HorizontalConv,
    vconv: VerticalConv,
    fc_h: Linear,
    fc_v: Linear,
    out_z: Linear,
    out_u: Linear,
    pad_id: usize,
}

impl Caser {
    /// Caser with window `L` and the given filter counts.
    pub fn new(dim: usize, window: usize, n_h_filters: usize, n_v_filters: usize) -> Self {
        Caser {
            dim,
            window,
            n_h_filters,
            n_v_filters,
            dropout_p: 0.2,
            state: None,
        }
    }

    fn build(&mut self, dataset: &SequentialDataset, seed: u64) {
        let mut rng = SeedRng::seed(seed);
        let heights: Vec<usize> = (1..=self.window.min(4)).collect();
        let hconv = HorizontalConv::new("caser.h", self.dim, &heights, self.n_h_filters, &mut rng);
        let vconv = VerticalConv::new("caser.v", self.dim, self.window, self.n_v_filters, &mut rng);
        let (h_out, v_out) = (hconv.out_dim(), vconv.out_dim());
        self.state = Some(State {
            items: Embedding::new("caser.items", dataset.num_items + 1, self.dim, &mut rng),
            users: Embedding::new(
                "caser.users",
                dataset.num_users().max(1),
                self.dim,
                &mut rng,
            ),
            hconv,
            vconv,
            fc_h: Linear::new("caser.fc_h", h_out, self.dim, &mut rng),
            fc_v: Linear::new("caser.fc_v", v_out, self.dim, &mut rng),
            out_z: Linear::new("caser.out_z", self.dim, dataset.num_items, &mut rng),
            out_u: Linear::with_bias("caser.out_u", self.dim, dataset.num_items, false, &mut rng),
            pad_id: dataset.num_items,
        });
    }

    /// Logits for a batch of `(user, window)` pairs.
    fn logits(&self, ctx: &mut Ctx, users: &[usize], windows: &[usize]) -> ist_autograd::Var {
        let st = self.state.as_ref().expect("fit first");
        let b = users.len();
        debug_assert_eq!(windows.len(), b * self.window);
        let e = st.items.forward(ctx, windows); // [B·L, d]
        let h_feat = st.hconv.forward(ctx, &e, b, self.window);
        let v_feat = st.vconv.forward(ctx, &e, b);
        // z = relu(W_h·h + W_v·v) — the fc layer over the (virtual) concat.
        let z = ops::relu(&ops::add(
            &st.fc_h.forward(ctx, &h_feat),
            &st.fc_v.forward(ctx, &v_feat),
        ));
        let z = dropout(ctx, &z, self.dropout_p);
        let pu = st.users.forward(ctx, users);
        // logits = W2·[z ; p_u] + b, decomposed into two projections.
        ops::add(&st.out_z.forward(ctx, &z), &st.out_u.forward(ctx, &pu))
    }

    fn params(&self) -> Vec<ist_autograd::Param> {
        let st = self.state.as_ref().expect("fit first");
        let mut p = st.items.params();
        p.extend(st.users.params());
        p.extend(st.hconv.params());
        p.extend(st.vconv.params());
        p.extend(st.fc_h.params());
        p.extend(st.fc_v.params());
        p.extend(st.out_z.params());
        p.extend(st.out_u.params());
        p
    }

    /// The last `window` items of `hist`, left-padded with the pad id.
    fn window_of(&self, hist: &[usize], pad_id: usize) -> Vec<usize> {
        let mut w = vec![pad_id; self.window];
        let take = hist.len().min(self.window);
        let start = hist.len() - take;
        for j in 0..take {
            w[self.window - take + j] = hist[start + j];
        }
        w
    }
}

impl SequentialRecommender for Caser {
    fn name(&self) -> String {
        "Caser".into()
    }

    fn fit(
        &mut self,
        dataset: &SequentialDataset,
        split: &LeaveOneOut,
        train: &TrainConfig,
    ) -> TrainReport {
        self.build(dataset, train.seed);
        let pad_id = self.state.as_ref().expect("built").pad_id;

        // Training samples: every position with ≥1 predecessor.
        let samples: Vec<(usize, usize)> = split
            .train
            .iter()
            .enumerate()
            .flat_map(|(u, seq)| (1..seq.len()).map(move |t| (u, t)))
            .collect();
        let draw = |rng: &mut SeedRng| {
            let mut samples = samples.clone();
            samples.shuffle(rng);
            samples
                .chunks(train.batch_size.max(1))
                .map(|chunk| {
                    let mut users = Vec::with_capacity(chunk.len());
                    let mut windows = Vec::with_capacity(chunk.len() * self.window);
                    let mut targets = Vec::with_capacity(chunk.len());
                    for &(u, t) in chunk {
                        users.push(u);
                        windows.extend(self.window_of(&split.train[u][..t], pad_id));
                        targets.push(split.train[u][t]);
                    }
                    (users, windows, targets)
                })
                .collect()
        };
        trainer::train(
            train,
            self.params(),
            draw,
            |ctx, (users, windows, targets)| {
                let logits = self.logits(ctx, users, windows);
                fused::cross_entropy_rows(&logits, targets, &vec![1.0; targets.len()])
            },
        )
    }

    fn score_batch(
        &self,
        users: &[usize],
        histories: &[&[usize]],
        candidates: &[&[usize]],
    ) -> Vec<Vec<f32>> {
        let st = self.state.as_ref().expect("fit first");
        let mut out = Vec::with_capacity(users.len());
        for ((us, hists), cands) in users
            .chunks(128)
            .zip(histories.chunks(128))
            .zip(candidates.chunks(128))
        {
            let mut windows = Vec::with_capacity(us.len() * self.window);
            for hist in hists {
                windows.extend(self.window_of(hist, st.pad_id));
            }
            let mut ctx = Ctx::eval();
            let logits = self.logits(&mut ctx, us, &windows);
            let lv = logits.value();
            for (bi, cs) in cands.iter().enumerate() {
                out.push(cs.iter().map(|&c| lv.at2(bi, c)).collect());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_cycle() {
        let sequences: Vec<Vec<usize>> = (0..16)
            .map(|u| (0..8).map(|t| (u + t) % 4).collect())
            .collect();
        let ds = SequentialDataset {
            name: "cycle".into(),
            domain: ist_graph::lexicon::Domain::Movies,
            sequences,
            num_items: 4,
            item_concepts: vec![vec![]; 4],
            concept_graph: ist_graph::ConceptGraph::empty(0),
            concept_names: vec![],
        };
        let split = LeaveOneOut::split(&ds.sequences);
        let mut m = Caser::new(16, 4, 4, 2);
        let cfg = TrainConfig {
            epochs: 20,
            lr: 0.01,
            batch_size: 16,
            ..TrainConfig::smoke()
        };
        let report = m.fit(&ds, &split, &cfg);
        assert!(report.improved(), "{:?}", report.epoch_losses);
        let s = m.score_batch(&[0], &[&[2, 3, 0]], &[&[1, 3]]);
        assert!(s[0][0] > s[0][1], "after …,0 comes 1: {:?}", s[0]);
    }

    #[test]
    fn short_history_is_padded() {
        let m = Caser::new(8, 5, 2, 1);
        let w = m.window_of(&[42], 99);
        assert_eq!(w, vec![99, 99, 99, 99, 42]);
        let w = m.window_of(&[1, 2, 3, 4, 5, 6, 7], 99);
        assert_eq!(w, vec![3, 4, 5, 6, 7]);
    }
}
