//! SASRec (Kang & McAuley): left-to-right self-attentive sequential
//! recommendation, with an optional `+concept` variant (Table 5) that adds
//! the same summed concept embeddings ISRec uses in Eq. (1).

use isrec_core::{trainer, SequentialRecommender, TrainConfig, TrainReport};
use ist_autograd::ops;
use ist_data::sampling::SeqBatcher;
use ist_data::{LeaveOneOut, SequentialDataset};
use ist_nn::attention::{attention_mask, TransformerEncoder};
use ist_nn::embedding::{Embedding, PositionalEmbedding};
use ist_nn::{ctx::dropout, Ctx, Module};
use ist_tensor::rng::{SeedRng, SeedRngExt as _};

/// Self-attentive sequential recommender.
pub struct SasRec {
    dim: usize,
    max_len: usize,
    layers: usize,
    heads: usize,
    dropout_p: f32,
    use_concepts: bool,
    state: Option<State>,
}

struct State {
    items: Embedding,
    concepts: Option<Embedding>,
    pos: PositionalEmbedding,
    encoder: TransformerEncoder,
    item_concepts: Vec<Vec<usize>>,
    num_items: usize,
    pad_id: usize,
}

impl SasRec {
    /// Plain SASRec.
    pub fn new(dim: usize, max_len: usize, layers: usize, heads: usize) -> Self {
        SasRec {
            dim,
            max_len,
            layers,
            heads,
            dropout_p: 0.2,
            use_concepts: false,
            state: None,
        }
    }

    /// The "SASRec + concept" Table-5 variant.
    pub fn with_concepts(dim: usize, max_len: usize, layers: usize, heads: usize) -> Self {
        SasRec {
            use_concepts: true,
            ..Self::new(dim, max_len, layers, heads)
        }
    }

    fn build(&mut self, dataset: &SequentialDataset, seed: u64) {
        let mut rng = SeedRng::seed(seed);
        let mut item_concepts = dataset.item_concepts.clone();
        item_concepts.push(Vec::new()); // pad
        self.state = Some(State {
            items: Embedding::new("sasrec.items", dataset.num_items + 1, self.dim, &mut rng),
            concepts: self.use_concepts.then(|| {
                Embedding::new(
                    "sasrec.concepts",
                    dataset.num_concepts().max(1),
                    self.dim,
                    &mut rng,
                )
            }),
            pos: PositionalEmbedding::new("sasrec.pos", self.max_len, self.dim, &mut rng),
            encoder: TransformerEncoder::new(
                "sasrec.encoder",
                self.layers,
                self.dim,
                self.heads,
                self.dropout_p,
                &mut rng,
            ),
            item_concepts,
            num_items: dataset.num_items,
            pad_id: dataset.num_items,
        });
    }

    fn logits(&self, ctx: &mut Ctx, batch: &ist_data::sampling::SeqBatch) -> ist_autograd::Var {
        let st = self.state.as_ref().expect("fit first");
        let item_e = st.items.forward(ctx, &batch.inputs);
        let pos_e = st.pos.forward(ctx, batch.batch, batch.len);
        let mut h0 = ops::add(&item_e, &pos_e);
        if let Some(ce) = &st.concepts {
            let bags: Vec<Vec<usize>> = batch
                .inputs
                .iter()
                .map(|&it| st.item_concepts[it].clone())
                .collect();
            h0 = ops::add(&h0, &ce.forward_bags(ctx, &bags));
        }
        let h0 = dropout(ctx, &h0, self.dropout_p);
        let mask = attention_mask(batch.batch, batch.len, &batch.pad, true);
        let x = st.encoder.forward(ctx, &h0, batch.batch, batch.len, &mask);
        // Weight-tied output layer, as in the original paper.
        let table = st.items.full(ctx);
        let items = ops::slice_rows(&table, 0, st.num_items);
        ops::matmul_nt(&x, &items)
    }

    fn params(&self) -> Vec<ist_autograd::Param> {
        let st = self.state.as_ref().expect("fit first");
        let mut p = st.items.params();
        if let Some(c) = &st.concepts {
            p.extend(c.params());
        }
        p.extend(st.pos.params());
        p.extend(st.encoder.params());
        p
    }
}

impl SequentialRecommender for SasRec {
    fn name(&self) -> String {
        if self.use_concepts {
            "SASRec + concept".into()
        } else {
            "SASRec".into()
        }
    }

    fn fit(
        &mut self,
        dataset: &SequentialDataset,
        split: &LeaveOneOut,
        train: &TrainConfig,
    ) -> TrainReport {
        self.build(dataset, train.seed);
        let pad = self.state.as_ref().expect("built").pad_id;
        let batcher = SeqBatcher::new(self.max_len, train.batch_size, pad);
        let params = self.params();
        trainer::train_next_item(split, &batcher, train, params, |ctx, batch| {
            self.logits(ctx, batch)
        })
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
            let logits = self.logits(&mut ctx, &batch);
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
            item_concepts: vec![vec![0], vec![1], vec![0, 1], vec![]],
            concept_graph: ist_graph::ConceptGraph::from_edges(2, &[(0, 1)]),
            concept_names: vec!["a".into(), "b".into()],
        }
    }

    #[test]
    fn learns_cycle() {
        let ds = cycle_dataset();
        let split = LeaveOneOut::split(&ds.sequences);
        let mut m = SasRec::new(16, 6, 1, 2);
        let cfg = TrainConfig {
            epochs: 20,
            lr: 0.01,
            batch_size: 8,
            ..TrainConfig::smoke()
        };
        let report = m.fit(&ds, &split, &cfg);
        assert!(report.improved());
        let s = m.score(&[0, 1], &[2, 3, 0]);
        let best = ist_tensor::order::try_argmax(&s).expect("trained scores are finite");
        assert_eq!(best, 0, "after …,1 comes 2: {s:?}");
    }

    #[test]
    fn concept_variant_differs_and_trains() {
        let ds = cycle_dataset();
        let split = LeaveOneOut::split(&ds.sequences);
        let mut m = SasRec::with_concepts(16, 6, 1, 2);
        assert_eq!(m.name(), "SASRec + concept");
        let cfg = TrainConfig {
            epochs: 3,
            lr: 0.01,
            batch_size: 8,
            ..TrainConfig::smoke()
        };
        let report = m.fit(&ds, &split, &cfg);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        // Concept embeddings must be trained parameters.
        assert!(m.params().iter().any(|p| p.name().contains("concepts")));
    }
}
