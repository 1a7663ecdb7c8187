//! The ISRec model: encoder → intent extraction → structured transition →
//! intent decoder.

use std::sync::Arc;

use ist_autograd::{fused, ops, Param, Var};
use ist_data::sampling::{SeqBatch, SeqBatcher};
use ist_data::{LeaveOneOut, SequentialDataset};
use ist_graph::normalized_adjacency;
use ist_nn::attention::{attention_mask, TransformerEncoder};
use ist_nn::embedding::{Embedding, PositionalEmbedding};
use ist_nn::linear::Linear;
use ist_nn::{ctx::dropout, init, Ctx, Module};
use ist_tensor::matmul::{matmul_packed, Adjacency, PackedRhs};
use ist_tensor::rng::{SeedRng, SeedRngExt as _};
use ist_tensor::{reduce, Tensor};

use crate::config::{AdjacencyMode, IsrecConfig, IsrecVariant, TrainConfig};
use crate::recommender::{SequentialRecommender, TrainReport};
use crate::trainer;

/// Timings for the intent-MLP stages of the pipeline (env-gated; see
/// `ist-obs`). Two scopes per forward: the per-concept lifting of Eq. (7–8)
/// and the decoder of Eq. (11); units are batch rows. The GCN between them
/// carries its own `nn.gcn` timer, so traces show lift → gcn → decode.
static INTENT_MLP_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("nn.intent_mlp", "row");

/// Raw per-row intent information captured during a forward pass, used by
/// the explainability layer (Fig. 2).
#[derive(Clone, Debug, Default)]
pub struct RawTrace {
    /// Candidate intents per row: concept ids ranked by the relaxed
    /// probability (the "candidate intent(s) generation" of Fig. 2).
    pub candidates: Vec<Vec<usize>>,
    /// Activated intents `m_t` per row.
    pub activated_now: Vec<Vec<usize>>,
    /// Predicted next intents `m_{t+1}` per row (top-λ feature norms).
    pub activated_next: Vec<Vec<usize>>,
}

/// The ISRec model over one dataset's vocabulary and concept graph.
pub struct Isrec {
    cfg: IsrecConfig,
    num_items: usize,
    k: usize,
    lambda: usize,
    pad_id: usize,
    item_emb: Embedding,
    concept_emb: Embedding,
    pos_emb: PositionalEmbedding,
    encoder: TransformerEncoder,
    concept_pre: Option<Linear>,
    up_w: Param,
    up_b: Param,
    gcn: ist_nn::gcn::Gcn,
    down_w: Param,
    down_b: Param,
    anchor_gamma: Param,
    /// The concept graph's normalised adjacency, prepared once for the
    /// GCN's propagations.
    norm_adj: Arc<Adjacency>,
    /// Learnable adjacency logits (only in `Learned`/`Mixed` modes),
    /// row-softmaxed at forward time; initialised from the concept graph.
    adj_logits: Option<Param>,
    /// Concept bags per item id, with an empty bag appended for the pad id.
    item_concepts: Vec<Vec<usize>>,
}

impl Isrec {
    /// Builds the model for `dataset` (embeddings sized to its vocabulary,
    /// the GCN bound to its normalised concept graph).
    pub fn new(dataset: &SequentialDataset, cfg: IsrecConfig, seed: u64) -> Self {
        let mut rng = SeedRng::seed(seed);
        let num_items = dataset.num_items;
        let k = dataset.num_concepts().max(1);
        let lambda = cfg.lambda.min(k).max(1);
        let pad_id = num_items;

        let mut item_concepts = dataset.item_concepts.clone();
        item_concepts.push(Vec::new()); // pad item carries no concepts

        let up_in = cfg.concept_hidden.unwrap_or(cfg.d);
        let concept_pre = cfg
            .concept_hidden
            .map(|h| Linear::new("isrec.concept_pre", cfg.d, h, &mut rng));

        Isrec {
            num_items,
            k,
            lambda,
            pad_id,
            item_emb: Embedding::new("isrec.items", num_items + 1, cfg.d, &mut rng),
            concept_emb: Embedding::new("isrec.concepts", k, cfg.d, &mut rng),
            pos_emb: PositionalEmbedding::new("isrec.pos", cfg.max_len, cfg.d, &mut rng),
            encoder: TransformerEncoder::new(
                "isrec.encoder",
                cfg.layers,
                cfg.d,
                cfg.heads,
                cfg.dropout,
                &mut rng,
            ),
            concept_pre,
            up_w: Param::new(
                "isrec.up_w",
                init::xavier_uniform(&[up_in, k * cfg.d_prime], &mut rng),
            ),
            up_b: Param::new("isrec.up_b", Tensor::zeros(&[k * cfg.d_prime])),
            gcn: ist_nn::gcn::Gcn::new_identity(
                "isrec.gcn",
                cfg.gcn_layers.max(1),
                cfg.d_prime,
                &mut rng,
            ),
            down_w: Param::new(
                "isrec.down_w",
                init::xavier_uniform(&[k * cfg.d_prime, cfg.d], &mut rng),
            ),
            down_b: Param::new("isrec.down_b", Tensor::zeros(&[cfg.d])),
            anchor_gamma: Param::new("isrec.anchor_gamma", Tensor::from_vec(vec![0.5], &[1])),
            adj_logits: (cfg.adjacency != AdjacencyMode::Fixed).then(|| {
                // Initialise logits so the row-softmax starts close to the
                // concept graph: edges (and the diagonal) get a head start.
                let mut logits = Tensor::full(&[k, k], -2.0);
                for v in 0..k {
                    logits.data_mut()[v * k + v] = 2.0;
                    for &w in dataset.concept_graph.neighbors(v) {
                        logits.data_mut()[v * k + w] = 2.0;
                    }
                }
                Param::new("isrec.adj_logits", logits)
            }),
            norm_adj: Arc::new(Adjacency::new(normalized_adjacency(&dataset.concept_graph))),
            item_concepts,
            cfg,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &IsrecConfig {
        &self.cfg
    }

    /// Number of activated intents λ actually in use (clamped to K).
    pub fn lambda(&self) -> usize {
        self.lambda
    }

    /// Number of concepts K.
    pub fn num_concepts(&self) -> usize {
        self.k
    }

    /// Encoder input (Eq. 1–2): item + positional + summed concept
    /// embeddings per position, plus the causal padding mask. Shared by
    /// [`Self::encode`] and [`Self::infer_last_repr`].
    fn embed(&self, ctx: &mut Ctx, batch: &SeqBatch) -> (Var, Tensor) {
        let item_e = self.item_emb.forward(ctx, &batch.inputs);
        let pos_e = self.pos_emb.forward(ctx, batch.batch, batch.len);
        let bags: Vec<Vec<usize>> = batch
            .inputs
            .iter()
            .map(|&it| self.item_concepts[it].clone())
            .collect();
        let concept_e = self.concept_emb.forward_bags(ctx, &bags);

        let h0 = ops::add(&ops::add(&item_e, &pos_e), &concept_e);
        let h0 = dropout(ctx, &h0, self.cfg.dropout);
        let mask = attention_mask(batch.batch, batch.len, &batch.pad, true);
        (h0, mask)
    }

    /// Embedding of the behaviour sequence (Eq. 1–4): item + positional +
    /// summed concept embeddings through the causal transformer.
    fn encode(&self, ctx: &mut Ctx, batch: &SeqBatch) -> Var {
        let (h0, mask) = self.embed(ctx, batch);
        self.encoder
            .forward(ctx, &h0, batch.batch, batch.len, &mask)
    }

    /// Intent extraction + structured transition + decoding (Eq. 5–11).
    ///
    /// Returns the next sequence representation `x_{t+1}` per row, plus a
    /// raw trace when `collect` is set.
    fn intent_pipeline(&self, ctx: &mut Ctx, x: &Var, collect: bool) -> (Var, Option<RawTrace>) {
        if self.cfg.variant == IsrecVariant::WithoutGnnAndIntent {
            // Ablation: x_{t+1} = x_t.
            return (x.clone(), collect.then(RawTrace::default));
        }
        let rows = x.shape()[0];
        let (k, dp) = (self.k, self.cfg.d_prime);

        // --- Intent extraction (Eq. 5–6) --------------------------------
        let c = self.concept_emb.full(ctx);
        let sims = fused::cosine_similarity_rows(x, &c);
        // Gumbel noise draws from the per-step `ctx.rng` (never model
        // state), so a run resumed from a checkpoint replays the exact
        // noise stream of the uninterrupted run.
        let hard_eval = !ctx.training;
        let sample =
            fused::gumbel_topk_st(&sims, self.cfg.tau, self.lambda, &mut ctx.rng, hard_eval);
        // The intent gate m_t: relaxed λ-scaled probabilities in soft mode,
        // the hard straight-through multi-hot otherwise.
        let m_now = if self.cfg.soft_intents {
            // Differentiable relaxed gate: λ·softmax((sims + g)/τ). At
            // inference the noise is zero, so the gate ranks exactly like
            // the trace indices reported for explanations.
            let noise = if ctx.training {
                ist_tensor::rng::gumbel(&[rows, k], &mut ctx.rng)
            } else {
                Tensor::zeros(&[rows, k])
            };
            let perturbed = ops::scale(
                &ops::add(&sims, &ctx.tape.constant(noise)),
                1.0 / self.cfg.tau,
            );
            ops::scale(&fused::softmax_lastdim(&perturbed), self.lambda as f32)
        } else {
            sample.mask.clone() // [rows, K], multi-hot
        };

        // --- Per-concept feature lifting (Eq. 7–8) ------------------------
        let z_now = {
            let _t = INTENT_MLP_TIMER.start_with(rows as u64);
            let pre = match &self.concept_pre {
                Some(l) => ops::relu(&l.forward(ctx, x)),
                None => x.clone(),
            };
            let lifted = ops::add(
                &ops::matmul(&pre, &self.up_w.leaf(&ctx.tape)),
                &self.up_b.leaf(&ctx.tape),
            );
            let z = ops::reshape(&lifted, &[rows, k, dp]);
            let gate_now = ops::reshape(&m_now, &[rows, k, 1]);
            ops::mul(&z, &gate_now)
        };

        // --- Structured intent transition (Eq. 9–10) ----------------------
        let (z_next, m_next_mask, next_idx) = if self.cfg.variant == IsrecVariant::Full {
            let z_next = match self.cfg.adjacency {
                AdjacencyMode::Fixed => self.gcn.forward(ctx, &z_now, &self.norm_adj),
                mode => {
                    let logits = self
                        .adj_logits
                        .as_ref()
                        .expect("learned modes carry logits")
                        .leaf(&ctx.tape);
                    let learned = fused::softmax_lastdim(&logits);
                    let adj = match mode {
                        AdjacencyMode::Learned => learned,
                        _ => {
                            // Mixed: average with the fixed normalisation.
                            let fixed = ctx.tape.constant(self.norm_adj.dense().clone());
                            ops::scale(&ops::add(&learned, &fixed), 0.5)
                        }
                    };
                    self.gcn.forward_adj_var(ctx, &z_now, &adj)
                }
            };
            // m_{t+1} from the feature norms ‖z_{t+1,k}‖₂ (§3.5): hard
            // top-λ in hard mode; in soft mode a λ-scaled softmax over the
            // squared norms (differentiable through the GCN).
            let idx = {
                // Plain-tensor work, so profile it as an op of its own.
                let _p = ist_autograd::profile::fwd("intent_topk");
                let norms = reduce::norm2_lastdim(&z_next.value()); // [rows, K]
                reduce::topk_lastdim(&norms, self.lambda)
            };
            let mask_var = if self.cfg.soft_intents {
                let sq = ops::sum_lastdim(&ops::mul(&z_next, &z_next)); // [rows, K]
                let w = fused::softmax_lastdim(&ops::scale(&sq, 1.0 / self.cfg.tau));
                ops::scale(&w, self.lambda as f32)
            } else {
                let mut mask = Tensor::zeros(&[rows, k]);
                for (r, row_idx) in idx.iter().enumerate() {
                    for &j in row_idx {
                        mask.data_mut()[r * k + j] = 1.0;
                    }
                }
                ctx.constant(mask)
            };
            (z_next, mask_var, idx)
        } else {
            // "w/o GNN": Z_{t+1} = Z_t, m_{t+1} = m_t.
            let gate = if self.cfg.soft_intents {
                m_now.clone()
            } else {
                m_now.detach()
            };
            (z_now.clone(), gate, sample.indices.clone())
        };

        // --- Intent decoder (Eq. 11) --------------------------------------
        let _t_decode = INTENT_MLP_TIMER.start_with(rows as u64);
        let gate_next = ops::reshape(&m_next_mask, &[rows, k, 1]);
        let z_gated = ops::mul(&z_next, &gate_next);
        let flat = ops::reshape(&z_gated, &[rows, k * dp]);
        let mut decoded = ops::add(
            &ops::matmul(&flat, &self.down_w.leaf(&ctx.tape)),
            &self.down_b.leaf(&ctx.tape),
        );
        // Intent anchor: the decoded representation carries the activated
        // next-intent concept embeddings (γ learnable). Combined with the
        // concept-tied output of Eq. (12), this directly boosts items that
        // carry the predicted next intents — the transition's route into
        // the ranking.
        let anchor = ops::matmul(&m_next_mask, &c);
        decoded = ops::add(
            &decoded,
            &ops::mul(&anchor, &self.anchor_gamma.leaf(&ctx.tape)),
        );
        let x_next = if self.cfg.residual_decoder {
            ops::add(x, &decoded)
        } else {
            decoded
        };

        let trace = collect.then(|| {
            // Candidate intents: concepts ranked by relaxed probability;
            // keep a shortlist a bit larger than λ, as in Fig. 2.
            let shortlist = (self.lambda + 4).min(k);
            let candidates = reduce::topk_lastdim(&sample.soft, shortlist);
            RawTrace {
                candidates,
                activated_now: sample.indices.clone(),
                activated_next: next_idx,
            }
        });
        (x_next, trace)
    }

    /// Full-vocabulary next-item logits (Eq. 12) for every position.
    pub fn forward_logits(
        &self,
        ctx: &mut Ctx,
        batch: &SeqBatch,
        collect: bool,
    ) -> (Var, Option<RawTrace>) {
        let x = self.encode(ctx, batch);
        let (x_next, trace) = self.intent_pipeline(ctx, &x, collect);
        let items = self.output_item_table(ctx);
        let logits = ops::matmul_nt(&x_next, &items);
        (logits, trace)
    }

    /// The Eq.-12 output item table `[num_items, d]`: the real items' rows
    /// of the item embedding (the pad row dropped), plus their summed
    /// concept embeddings when `tie_concept_output` is set.
    fn output_item_table(&self, ctx: &Ctx) -> Var {
        let table = self.item_emb.full(ctx);
        let items = ops::slice_rows(&table, 0, self.num_items);
        if !self.cfg.tie_concept_output {
            return items;
        }
        // Tie the output representation to Eq. (1): v_i + Σ_j c_j, so
        // intent-aligned predictions directly boost concept-matching items.
        let cbags = ops::bag_select_sum(
            &self.concept_emb.full(ctx),
            &self.item_concepts[..self.num_items],
        );
        ops::add(&items, &cbags)
    }

    /// No-tape inference forward for online serving: encodes each history
    /// and returns the next-step representation `x_{t+1}` of its *newest*
    /// position, one row per history (`[m, d]`).
    ///
    /// Runs on [`Ctx::inference`] (a `no_grad` tape), so no backward
    /// closures are recorded; dropout is off and the Gumbel noise is zero,
    /// making the result deterministic. Every stage of the eval forward is
    /// row-wise (embeddings, per-row attention masks, per-row softmax/
    /// layer-norm, and a GEMM whose per-row accumulation order is fixed),
    /// so a history's row is **bitwise identical** regardless of which —
    /// or how many — other histories share the batch. The serving engine's
    /// batching and caching guarantees rest on this invariant (pinned by
    /// `infer_last_repr_is_batch_size_invariant` below and the CI serve
    /// stage).
    ///
    /// The same invariant lets this path compute only what the newest
    /// position needs. Histories are left-padded, so that position is row
    /// `max_len − 1` of each history. All encoder blocks but the last run
    /// over every position (the last block's keys and values need them);
    /// the last block runs its query, attention, layer norms and
    /// feed-forward for the newest rows alone
    /// ([`TransformerEncoder::forward_last`]), and the intent pipeline —
    /// cosine sims, top-λ, lifting, GCN, decoder — sees only those `m`
    /// rows. A row's value does not depend on which other rows a stage
    /// processes, and the GEMM micro-kernel's single-row and 4-row paths
    /// (`ist_tensor::simd::gemm_kernel`) agree bitwise on finite inputs,
    /// so the result equals the newest rows of the all-position forward
    /// bit for bit (`infer_last_repr_matches_the_all_position_forward`
    /// below).
    pub fn infer_last_repr(&self, histories: &[&[usize]]) -> Tensor {
        let m = histories.len();
        if m == 0 {
            return Tensor::zeros(&[0, self.cfg.d]);
        }
        let batch = self.batcher(m).inference_batch(histories);
        let mut ctx = Ctx::inference();
        let (h0, mask) = self.embed(&mut ctx, &batch);
        let x = self
            .encoder
            .forward_last(&mut ctx, &h0, batch.batch, batch.len, &mask);
        let (x_next, _) = self.intent_pipeline(&mut ctx, &x, false);
        x_next.value()
    }

    /// The Eq.-12 output item table — item embeddings plus, when
    /// `tie_concept_output` is set, the summed concept embeddings —
    /// **transposed** to `[d, num_items]`. Scoring, offline and served,
    /// uses [`Isrec::output_item_panels`]; this copy is the reference the
    /// tests and the benchmark multiply against.
    pub fn output_item_table_t(&self) -> Tensor {
        self.output_item_table(&Ctx::inference()).value().t()
    }

    /// The same table as [`Isrec::output_item_table_t`], packed straight
    /// from its `[num_items, d]` rows into the GEMM's panel layout, so
    /// [`matmul_packed`](ist_tensor::matmul::matmul_packed) scores a stack
    /// of representations against it without repacking, and the
    /// transposed `[d, num_items]` copy is never built. Serving packs it
    /// once per model load/reload.
    pub fn output_item_panels(&self) -> PackedRhs {
        PackedRhs::pack_rows(&self.output_item_table(&Ctx::inference()).value())
    }

    /// Pad item id (`num_items`).
    pub fn pad_id(&self) -> usize {
        self.pad_id
    }

    /// Maximum history length the encoder consumes; older interactions are
    /// truncated away, which also bounds the serving cache key.
    pub fn max_len(&self) -> usize {
        self.cfg.max_len
    }

    /// The batcher matching this model's `max_len`/pad conventions.
    pub fn batcher(&self, batch_size: usize) -> SeqBatcher {
        SeqBatcher::new(self.cfg.max_len, batch_size, self.pad_id)
    }

    /// Dataset vocabulary size this model was built for.
    pub fn num_items(&self) -> usize {
        self.num_items
    }
}

impl Module for Isrec {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.item_emb.params();
        ps.extend(self.concept_emb.params());
        ps.extend(self.pos_emb.params());
        ps.extend(self.encoder.params());
        if let Some(l) = &self.concept_pre {
            ps.extend(l.params());
        }
        ps.push(self.up_w.clone());
        ps.push(self.up_b.clone());
        ps.extend(self.gcn.params());
        ps.push(self.down_w.clone());
        ps.push(self.down_b.clone());
        ps.push(self.anchor_gamma.clone());
        if let Some(a) = &self.adj_logits {
            ps.push(a.clone());
        }
        ps
    }
}

impl SequentialRecommender for Isrec {
    fn name(&self) -> String {
        match self.cfg.variant {
            IsrecVariant::Full => "ISRec".to_string(),
            IsrecVariant::WithoutGnn => "ISRec w/o GNN".to_string(),
            IsrecVariant::WithoutGnnAndIntent => "ISRec w/o GNN&Intent".to_string(),
        }
    }

    fn fit(
        &mut self,
        _dataset: &SequentialDataset,
        split: &LeaveOneOut,
        train: &TrainConfig,
    ) -> TrainReport {
        let batcher = self.batcher(train.batch_size);
        let params = self.params();
        trainer::train_next_item(split, &batcher, train, params, |ctx, batch| {
            self.forward_logits(ctx, batch, false).0
        })
    }

    fn score_batch(
        &self,
        _users: &[usize],
        histories: &[&[usize]],
        candidates: &[&[usize]],
    ) -> Vec<Vec<f32>> {
        assert_eq!(histories.len(), candidates.len());
        // The serving engine's catalog scoring: bitwise equal to `matmul`
        // with the transposed table (the `PackedRhs` contract).
        let catalog = self.output_item_panels();
        let mut out = Vec::with_capacity(histories.len());
        const CHUNK: usize = 128;
        for (hist_chunk, cand_chunk) in histories.chunks(CHUNK).zip(candidates.chunks(CHUNK)) {
            let scores = matmul_packed(&self.infer_last_repr(hist_chunk), &catalog);
            for (bi, cands) in cand_chunk.iter().enumerate() {
                out.push(cands.iter().map(|&c| scores.at2(bi, c)).collect());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_data::{IntentWorld, WorldConfig};

    fn tiny_dataset() -> SequentialDataset {
        let cfg = WorldConfig::beauty_like().scaled(0.15);
        IntentWorld::new(cfg).generate(11)
    }

    fn tiny_model(ds: &SequentialDataset, variant: IsrecVariant) -> Isrec {
        let cfg = IsrecConfig {
            d: 16,
            d_prime: 4,
            lambda: 4,
            max_len: 10,
            layers: 1,
            heads: 2,
            gcn_layers: 2,
            dropout: 0.1,
            variant,
            ..Default::default()
        };
        Isrec::new(ds, cfg, 7)
    }

    #[test]
    fn forward_shapes() {
        let ds = tiny_dataset();
        let model = tiny_model(&ds, IsrecVariant::Full);
        let split = LeaveOneOut::split(&ds.sequences);
        let batcher = model.batcher(8);
        let users: Vec<usize> = (0..8).collect();
        let batch = &batcher.batches(&split.train, &users)[0];
        let mut ctx = Ctx::train(0);
        let (logits, trace) = model.forward_logits(&mut ctx, batch, true);
        assert_eq!(logits.shape(), vec![batch.batch * batch.len, ds.num_items]);
        let trace = trace.unwrap();
        assert_eq!(trace.activated_now.len(), batch.batch * batch.len);
        assert!(trace.activated_now[0].len() == model.lambda());
    }

    #[test]
    fn all_core_parameters_receive_gradients() {
        let ds = tiny_dataset();
        let model = tiny_model(&ds, IsrecVariant::Full);
        let split = LeaveOneOut::split(&ds.sequences);
        let batcher = model.batcher(8);
        let users: Vec<usize> = (0..8).collect();
        let batch = &batcher.batches(&split.train, &users)[0];
        let mut ctx = Ctx::train(1);
        let (logits, _) = model.forward_logits(&mut ctx, batch, false);
        let loss = fused::cross_entropy_rows(&logits, &batch.targets, &batch.weights);
        ctx.tape.backward(&loss);
        let mut missing = Vec::new();
        for p in model.params() {
            if p.grad().norm2() == 0.0 {
                missing.push(p.name());
            }
        }
        for key in ["items", "concepts", "up_w", "down_w", "gcn"] {
            assert!(
                !missing.iter().any(|m| m.contains(key)),
                "no gradient reached {key}: missing={missing:?}"
            );
        }
    }

    #[test]
    fn scoring_is_deterministic_and_finite() {
        let ds = tiny_dataset();
        let mut model = tiny_model(&ds, IsrecVariant::Full);
        let split = LeaveOneOut::split(&ds.sequences);
        model.fit(
            &ds,
            &split,
            &TrainConfig {
                epochs: 1,
                ..TrainConfig::smoke()
            },
        );
        let hist = split.test_history(0);
        let cands: Vec<usize> = (0..ds.num_items.min(10)).collect();
        let s1 = model.score(&hist, &cands);
        let s2 = model.score(&hist, &cands);
        assert_eq!(s1, s2, "eval scoring must be deterministic");
        assert_eq!(s1.len(), cands.len());
        assert!(s1.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn variants_change_the_computation() {
        let ds = tiny_dataset();
        let split = LeaveOneOut::split(&ds.sequences);
        let hist = split.test_history(0);
        let cands: Vec<usize> = (0..5).collect();
        let mut scores = Vec::new();
        for v in [
            IsrecVariant::Full,
            IsrecVariant::WithoutGnn,
            IsrecVariant::WithoutGnnAndIntent,
        ] {
            let model = tiny_model(&ds, v);
            scores.push(model.score(&hist, &cands));
        }
        assert_ne!(scores[0], scores[2], "full vs w/o GNN&Intent must differ");
    }

    #[test]
    fn learned_adjacency_extension_trains() {
        let ds = tiny_dataset();
        let split = LeaveOneOut::split(&ds.sequences);
        for mode in [AdjacencyMode::Learned, AdjacencyMode::Mixed] {
            let cfg = IsrecConfig {
                d: 16,
                d_prime: 4,
                lambda: 4,
                max_len: 10,
                layers: 1,
                adjacency: mode,
                ..Default::default()
            };
            let mut model = Isrec::new(&ds, cfg, 7);
            // The adjacency logits must be trainable parameters…
            assert!(model
                .params()
                .iter()
                .any(|p| p.name().contains("adj_logits")));
            let report = model.fit(
                &ds,
                &split,
                &TrainConfig {
                    epochs: 2,
                    ..TrainConfig::smoke()
                },
            );
            assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
            // …and they must actually receive gradients.
            let batcher = model.batcher(8);
            let users: Vec<usize> = (0..8).collect();
            let batch = &batcher.batches(&split.train, &users)[0];
            let mut ctx = Ctx::train(0);
            let (logits, _) = model.forward_logits(&mut ctx, batch, false);
            let loss = fused::cross_entropy_rows(&logits, &batch.targets, &batch.weights);
            ctx.tape.backward(&loss);
            let adj = model
                .params()
                .into_iter()
                .find(|p| p.name().contains("adj_logits"))
                .expect("adj param");
            assert!(
                adj.grad().norm2() > 0.0,
                "no gradient reached the learned adjacency"
            );
        }
    }

    #[test]
    fn infer_last_repr_is_batch_size_invariant() {
        // The serving engine's batching/caching correctness rests on a
        // history's representation being bitwise identical no matter what
        // else shares the forward batch.
        let ds = tiny_dataset();
        let model = tiny_model(&ds, IsrecVariant::Full);
        let split = LeaveOneOut::split(&ds.sequences);
        let hists: Vec<Vec<usize>> = (0..4).map(|u| split.test_history(u)).collect();
        let refs: Vec<&[usize]> = hists.iter().map(|h| h.as_slice()).collect();
        let batched = model.infer_last_repr(&refs);
        let d = batched.shape()[1];
        for (i, h) in refs.iter().enumerate() {
            let single = model.infer_last_repr(&[h]);
            assert_eq!(
                single.data(),
                &batched.data()[i * d..(i + 1) * d],
                "row {i} differs between batch sizes 1 and {}",
                refs.len()
            );
        }
    }

    #[test]
    fn output_item_table_t_matches_forward_logits() {
        // Scoring a representation against the transposed table must agree
        // with the training-path Eq. 12 logits for the same position.
        let ds = tiny_dataset();
        let model = tiny_model(&ds, IsrecVariant::Full);
        let split = LeaveOneOut::split(&ds.sequences);
        let hist = split.test_history(0);
        let table_t = model.output_item_table_t();
        assert_eq!(table_t.shape(), vec![16, ds.num_items]);
        let repr = model.infer_last_repr(&[&hist]);
        let scores = ist_tensor::matmul::matmul(&repr, &table_t);

        let batcher = model.batcher(1);
        let batch = batcher.inference_batch(&[&hist]);
        let mut ctx = Ctx::eval();
        let (logits, _) = model.forward_logits(&mut ctx, &batch, false);
        let last = (batch.len - 1) * ds.num_items;
        assert_eq!(
            scores.data(),
            &logits.value().data()[last..last + ds.num_items]
        );
    }

    #[test]
    fn output_item_panels_pack_the_transposed_table() {
        let ds = tiny_dataset();
        let model = tiny_model(&ds, IsrecVariant::Full);
        let panels = model.output_item_panels();
        assert_eq!((panels.k(), panels.n()), (16, ds.num_items));
        assert_eq!(panels, PackedRhs::pack(&model.output_item_table_t()));
    }

    /// The plain path `infer_last_repr` replaces: encode every position,
    /// run the intent pipeline over all rows, keep each history's newest
    /// row.
    fn all_position_last_repr(model: &Isrec, histories: &[&[usize]]) -> Vec<f32> {
        let batch = model.batcher(histories.len()).inference_batch(histories);
        let mut ctx = Ctx::inference();
        let x = model.encode(&mut ctx, &batch);
        let (x_next, _) = model.intent_pipeline(&mut ctx, &x, false);
        let (v, t, d) = (x_next.value(), batch.len, model.cfg.d);
        (0..histories.len())
            .flat_map(|b| v.data()[(b * t + t - 1) * d..(b * t + t) * d].to_vec())
            .collect()
    }

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn infer_last_repr_matches_the_all_position_forward() {
        let ds = tiny_dataset();
        let (d, max_len) = (16, 10);
        // Shorter than, equal to and longer than max_len, plus empty.
        let hists: Vec<Vec<usize>> = [3usize, max_len, 17, 0, 1]
            .iter()
            .enumerate()
            .map(|(s, &len)| (0..len).map(|i| (7 * i + 5 * s) % ds.num_items).collect())
            .collect();
        let refs: Vec<&[usize]> = hists.iter().map(|h| h.as_slice()).collect();
        let variants = [
            IsrecVariant::Full,
            IsrecVariant::WithoutGnn,
            IsrecVariant::WithoutGnnAndIntent,
        ];
        let modes = [
            AdjacencyMode::Fixed,
            AdjacencyMode::Learned,
            AdjacencyMode::Mixed,
        ];
        for variant in variants {
            for adjacency in modes {
                for soft_intents in [false, true] {
                    for concept_hidden in [None, Some(8)] {
                        for residual_decoder in [false, true] {
                            for layers in [1, 2] {
                                let cfg = IsrecConfig {
                                    d,
                                    d_prime: 4,
                                    lambda: 4,
                                    max_len,
                                    layers,
                                    heads: 2,
                                    variant,
                                    adjacency,
                                    soft_intents,
                                    concept_hidden,
                                    residual_decoder,
                                    ..Default::default()
                                };
                                let case = format!("{cfg:?}");
                                let model = Isrec::new(&ds, cfg, 7);
                                let batched = model.infer_last_repr(&refs);
                                let want = all_position_last_repr(&model, &refs);
                                assert!(same_bits(batched.data(), &want), "batch of 5: {case}");
                                for (i, h) in refs.iter().enumerate() {
                                    let one = model.infer_last_repr(&[h]);
                                    assert!(
                                        same_bits(one.data(), &want[i * d..(i + 1) * d]),
                                        "history {i} alone: {case}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn score_batch_matches_forward_logits_last_rows() {
        let ds = tiny_dataset();
        let split = LeaveOneOut::split(&ds.sequences);
        let hists: Vec<Vec<usize>> = (0..5).map(|u| split.test_history(u)).collect();
        let refs: Vec<&[usize]> = hists.iter().map(|h| h.as_slice()).collect();
        let cands: Vec<Vec<usize>> = (0..5)
            .map(|u| (0..12).map(|j| (3 * j + u) % ds.num_items).collect())
            .collect();
        let cand_refs: Vec<&[usize]> = cands.iter().map(|c| c.as_slice()).collect();
        for variant in [
            IsrecVariant::Full,
            IsrecVariant::WithoutGnn,
            IsrecVariant::WithoutGnnAndIntent,
        ] {
            let model = tiny_model(&ds, variant);
            let got = model.score_batch(&[], &refs, &cand_refs);

            let batch = model.batcher(1).inference_batch(&refs);
            let mut ctx = Ctx::eval();
            let (logits, _) = model.forward_logits(&mut ctx, &batch, false);
            let lv = logits.value();
            for (bi, c) in cands.iter().enumerate() {
                let row = bi * batch.len + batch.len - 1;
                let want: Vec<f32> = c.iter().map(|&j| lv.at2(row, j)).collect();
                assert!(same_bits(&got[bi], &want), "{variant:?} history {bi}");
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = tiny_dataset();
        let mut model = tiny_model(&ds, IsrecVariant::Full);
        let split = LeaveOneOut::split(&ds.sequences);
        let report = model.fit(
            &ds,
            &split,
            &TrainConfig {
                epochs: 3,
                ..TrainConfig::smoke()
            },
        );
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(report.improved(), "losses: {:?}", report.epoch_losses);
    }
}
