//! Model and training configuration.

use std::path::PathBuf;

/// How the intention graph's adjacency enters the GCN transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjacencyMode {
    /// The fixed, symmetric-normalised concept graph (the paper's default).
    Fixed,
    /// A fully learned adjacency: row-softmax of a `K×K` parameter,
    /// initialised from the concept graph — the extension the paper
    /// sketches in §3.5 ("learning the relation").
    Learned,
    /// The element-wise mean of the fixed and learned adjacencies.
    Mixed,
}

/// Which parts of the intent pipeline are active (Table 5's ablations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsrecVariant {
    /// The full model.
    Full,
    /// "w/o GNN": intent extraction kept, transition disabled
    /// (`Z_{t+1} = Z_t`).
    WithoutGnn,
    /// "w/o GNN & Intent": the intent modules removed entirely
    /// (`x_{t+1} = x_t`); degenerates to the transformer encoder.
    WithoutGnnAndIntent,
}

/// Hyperparameters of the ISRec model.
#[derive(Clone, Debug)]
pub struct IsrecConfig {
    /// Item/concept embedding width `d`.
    pub d: usize,
    /// Intent feature width `d'` (paper's sensitivity peak: 8, Fig. 3).
    pub d_prime: usize,
    /// Number of activated intents `λ` (paper's peak: 10, Fig. 4);
    /// clamped to the dataset's concept count at build time.
    pub lambda: usize,
    /// Maximum sequence length `T` (Table 6).
    pub max_len: usize,
    /// Transformer encoder layers (the paper uses two).
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// GCN layers `L` in the structured transition.
    pub gcn_layers: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Gumbel-Softmax temperature `τ`.
    pub tau: f32,
    /// Ablation selector.
    pub variant: IsrecVariant,
    /// Optional shared ReLU pre-projection width before the per-concept
    /// affine maps (None = the exact single-affine-per-concept grouping).
    pub concept_hidden: Option<usize>,
    /// Decode as `x_{t+1} = x_t + sum_k m_{t+1,k} MLP'_k(z_{t+1,k})`
    /// instead of the pure Eq. (11). With the residual, the full model is
    /// a strict superset of the "w/o GNN&Intent" ablation
    /// (`x_{t+1} = x_t`), which is required for the Table-5 ordering to be
    /// trainable at this scale; ablated in `ablation_extra`.
    pub residual_decoder: bool,
    /// Use the *relaxed* Gumbel-Softmax gates (`m ≈ λ·softmax((s+g)/τ)`)
    /// end-to-end instead of hard straight-through masks. The hard top-λ
    /// selection is still computed for the explanation traces; `false`
    /// recovers the straight-through estimator (ablated in
    /// `ablation_extra`).
    pub soft_intents: bool,
    /// Adjacency source for the structured transition.
    pub adjacency: AdjacencyMode,
    /// Score against the item's full Eq.-1 representation (item embedding
    /// plus summed concept embeddings) instead of the bare item embedding
    /// in Eq. (12). This output tying lets the predicted next-intent
    /// features boost items *carrying* those concepts — the direct route
    /// by which the structured transition influences ranking. Ablated in
    /// `ablation_extra`.
    pub tie_concept_output: bool,
}

impl Default for IsrecConfig {
    fn default() -> Self {
        IsrecConfig {
            d: 32,
            d_prime: 8,
            lambda: 10,
            max_len: 30,
            layers: 2,
            heads: 2,
            gcn_layers: 2,
            dropout: 0.2,
            tau: 0.75,
            variant: IsrecVariant::Full,
            concept_hidden: None,
            residual_decoder: true,
            soft_intents: true,
            adjacency: AdjacencyMode::Fixed,
            tie_concept_output: true,
        }
    }
}

/// Durable-checkpoint settings for [`TrainConfig`]. Disabled unless `dir`
/// is set; see `crate::checkpoint` for the write/retention/resume protocol.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory for checkpoint files (`None` disables checkpointing).
    pub dir: Option<PathBuf>,
    /// Write a checkpoint every this many epochs (the final epoch is
    /// always checkpointed when enabled).
    pub every_epochs: usize,
    /// How many checkpoint files to keep (older ones are pruned).
    pub retain: usize,
    /// Resume from the newest valid checkpoint in `dir` before training.
    pub resume: bool,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            dir: None,
            every_epochs: 1,
            retain: 3,
            resume: true,
        }
    }
}

impl CheckpointConfig {
    /// Checkpointing into `dir` with the default cadence and retention.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: Some(dir.into()),
            ..Default::default()
        }
    }

    /// True when a checkpoint directory is configured.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }
}

/// Optimisation settings shared by every model in the workspace. Every
/// Adam-trained model fits through `crate::trainer::train`, which reads
/// every field but `batch_size` (the model's own batches take that one);
/// the closed-form BPR-SGD trainers (BPR-MF, FPMC, DGCF) read only
/// `epochs`, `lr`, `l2` and `seed`.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training users.
    pub epochs: usize,
    /// Sequences per batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 regularisation coefficient `α` of Eq. (14), applied as weight
    /// decay (exact for SGD, standard practice for Adam).
    pub l2: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Seed for initialisation, shuffling, dropout and Gumbel noise.
    pub seed: u64,
    /// Print per-epoch losses to stderr.
    pub verbose: bool,
    /// Durable checkpointing + resume (disabled by default).
    pub checkpoint: CheckpointConfig,
    /// How many times one epoch may roll back and retry (with the learning
    /// rate halved each time) after a non-finite loss or gradient before
    /// training stops early.
    pub max_recovery_retries: usize,
    /// Fault-injection spec (see `crate::fault`); when `None`, the
    /// `IST_FAULTS` environment variable is consulted instead.
    pub faults: Option<String>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 64,
            lr: 1e-3,
            l2: 1e-5,
            grad_clip: 5.0,
            seed: 42,
            verbose: false,
            checkpoint: CheckpointConfig::default(),
            max_recovery_retries: 4,
            faults: None,
        }
    }
}

impl TrainConfig {
    /// A tiny configuration for unit tests.
    pub fn smoke() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_peaks() {
        let c = IsrecConfig::default();
        assert_eq!(c.d_prime, 8, "Fig. 3 peak");
        assert_eq!(c.lambda, 10, "Fig. 4 peak");
        assert_eq!(c.layers, 2, "two-layer transformer per §3.2");
        assert_eq!(c.variant, IsrecVariant::Full);
    }

    #[test]
    fn train_config_smoke_is_small() {
        assert!(TrainConfig::smoke().epochs <= 3);
    }
}
