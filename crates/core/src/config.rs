//! Model and training configuration.

use slime_json::{obj, FromJson, JsonError, ToJson, Value};

/// Serialize a field-less enum as its variant-name string (the format serde
/// used for these enums, so existing config.json files keep loading).
macro_rules! unit_enum_json {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                Value::Str(
                    match self {
                        $($ty::$variant => stringify!($variant),)+
                    }
                    .to_string(),
                )
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    _ => Err(JsonError(format!(
                        "invalid {}: {v:?}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

/// Which direction each filter bank slides across the spectrum over depth
/// (paper Table IV). `HighToLow` (`<-`) starts at the high-frequency end in
/// layer 0 and slides toward low frequencies with depth; `LowToHigh` (`->`)
/// is the mirror image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlideDirection {
    /// `<-`: high frequencies first, low frequencies in deep layers.
    HighToLow,
    /// `->`: low frequencies first, high frequencies in deep layers.
    LowToHigh,
}

unit_enum_json!(SlideDirection {
    HighToLow,
    LowToHigh
});

/// The four slide-mode combinations of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlideMode {
    /// Mode 1: DFS `<-`, SFS `->`.
    Mode1,
    /// Mode 2: DFS `->`, SFS `<-`.
    Mode2,
    /// Mode 3: DFS `->`, SFS `->`.
    Mode3,
    /// Mode 4 (the paper's best and default): DFS `<-`, SFS `<-`.
    Mode4,
}

impl SlideMode {
    /// `(dfs_direction, sfs_direction)`.
    pub fn directions(self) -> (SlideDirection, SlideDirection) {
        use SlideDirection::*;
        match self {
            SlideMode::Mode1 => (HighToLow, LowToHigh),
            SlideMode::Mode2 => (LowToHigh, HighToLow),
            SlideMode::Mode3 => (LowToHigh, LowToHigh),
            SlideMode::Mode4 => (HighToLow, HighToLow),
        }
    }
}

unit_enum_json!(SlideMode {
    Mode1,
    Mode2,
    Mode3,
    Mode4
});

/// How the auxiliary contrastive task builds its second view
/// (Section III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContrastiveMode {
    /// No contrastive loss (the `SLIME4Rec_w/oC` ablation).
    None,
    /// Unsupervised only: the same batch re-encoded under fresh dropout.
    Unsupervised,
    /// The paper's full setting: the second view encodes a *semantic
    /// positive* — a training sequence with the same target (DuoRec-style
    /// supervised positives), which still differs by dropout from the
    /// first view.
    Supervised,
}

unit_enum_json!(ContrastiveMode {
    None,
    Unsupervised,
    Supervised,
});

/// Full SLIME4Rec hyper-parameter set (defaults follow Section IV-D).
#[derive(Debug, Clone)]
pub struct SlimeConfig {
    /// Number of real items (ids `1..=num_items`; 0 pads).
    pub num_items: usize,
    /// Hidden size `d` (paper default 64).
    pub hidden: usize,
    /// Maximum sequence length `N` (paper searches {25, 50, 75, 100}).
    pub max_len: usize,
    /// Number of filter-mixer blocks `L` (paper searches {2, 4, 8}).
    pub layers: usize,
    /// Dynamic filter size ratio `alpha` in `(0, 1]` (Eq. 19).
    pub alpha: f32,
    /// Mixing coefficient `gamma` between DFS and SFS branches (Eq. 26).
    pub gamma: f32,
    /// Learn `gamma` per layer instead of fixing it (an extension beyond
    /// the paper: the mix coefficient becomes `sigmoid(g_l)` with trainable
    /// `g_l`, initialized so `sigmoid(g_l) = gamma`).
    pub learnable_gamma: bool,
    /// Slide mode of the frequency ramp (Table IV; Mode 4 is the default).
    pub slide_mode: SlideMode,
    /// Enable the dynamic frequency selection branch.
    pub use_dfs: bool,
    /// Enable the static frequency split branch.
    pub use_sfs: bool,
    /// Contrastive task configuration.
    pub contrastive: ContrastiveMode,
    /// Contrastive loss weight `lambda` (Eq. 36).
    pub lambda: f32,
    /// InfoNCE softmax temperature.
    pub temperature: f32,
    /// Dropout on the embedding layer (Eq. 10).
    pub dropout_emb: f32,
    /// Dropout inside filter-mixer blocks and the FFN.
    pub dropout_block: f32,
    /// Amplitude of uniform noise added to layer inputs (Fig. 6's
    /// `epsilon`; 0 disables).
    pub noise_eps: f32,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl SlimeConfig {
    /// Paper-default configuration for a given item-space size.
    pub fn new(num_items: usize) -> Self {
        SlimeConfig {
            num_items,
            hidden: 64,
            max_len: 50,
            layers: 2,
            alpha: 0.4,
            gamma: 0.5,
            learnable_gamma: false,
            slide_mode: SlideMode::Mode4,
            use_dfs: true,
            use_sfs: true,
            contrastive: ContrastiveMode::Supervised,
            lambda: 0.1,
            temperature: 0.2,
            dropout_emb: 0.2,
            dropout_block: 0.2,
            noise_eps: 0.0,
            seed: 42,
        }
    }

    /// A small configuration for quick experiments and tests.
    pub fn small(num_items: usize) -> Self {
        SlimeConfig {
            hidden: 32,
            max_len: 20,
            ..Self::new(num_items)
        }
    }

    /// Model vocabulary (items + padding id).
    pub fn vocab_size(&self) -> usize {
        self.num_items + 1
    }

    /// Number of retained frequency bins `M = N/2 + 1` (Eq. 13 for even N).
    pub fn freq_bins(&self) -> usize {
        self.max_len / 2 + 1
    }

    /// The first out-of-range hyper-parameter, if any, as a message. A
    /// config read from outside the program goes through this.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (self.num_items >= 1, "need at least one item"),
            (self.hidden >= 1, "hidden size must be positive"),
            (self.max_len >= 2, "max_len must be >= 2"),
            (self.layers >= 1, "need at least one layer"),
            (
                self.alpha > 0.0 && self.alpha <= 1.0,
                "alpha must be in (0, 1]",
            ),
            ((0.0..=1.0).contains(&self.gamma), "gamma must be in [0, 1]"),
            (self.temperature > 0.0, "temperature must be positive"),
            (self.use_dfs || self.use_sfs, "enable at least one branch"),
            (
                (0.0..1.0).contains(&self.dropout_emb),
                "dropout_emb must be in [0, 1)",
            ),
            (
                (0.0..1.0).contains(&self.dropout_block),
                "dropout_block must be in [0, 1)",
            ),
            (self.noise_eps >= 0.0, "noise_eps must be >= 0"),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            Some((_, msg)) => Err(msg.to_string()),
            None => Ok(()),
        }
    }

    /// Validate invariants; call before building a model.
    ///
    /// # Panics
    /// Panics on out-of-range hyper-parameters (see [`SlimeConfig::check`]).
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }
}

impl ToJson for SlimeConfig {
    fn to_json(&self) -> Value {
        obj([
            ("num_items", self.num_items.to_json()),
            ("hidden", self.hidden.to_json()),
            ("max_len", self.max_len.to_json()),
            ("layers", self.layers.to_json()),
            ("alpha", self.alpha.to_json()),
            ("gamma", self.gamma.to_json()),
            ("learnable_gamma", self.learnable_gamma.to_json()),
            ("slide_mode", self.slide_mode.to_json()),
            ("use_dfs", self.use_dfs.to_json()),
            ("use_sfs", self.use_sfs.to_json()),
            ("contrastive", self.contrastive.to_json()),
            ("lambda", self.lambda.to_json()),
            ("temperature", self.temperature.to_json()),
            ("dropout_emb", self.dropout_emb.to_json()),
            ("dropout_block", self.dropout_block.to_json()),
            ("noise_eps", self.noise_eps.to_json()),
            ("seed", self.seed.to_json()),
        ])
    }
}

impl FromJson for SlimeConfig {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(SlimeConfig {
            num_items: FromJson::from_json(v.field("num_items")?)?,
            hidden: FromJson::from_json(v.field("hidden")?)?,
            max_len: FromJson::from_json(v.field("max_len")?)?,
            layers: FromJson::from_json(v.field("layers")?)?,
            alpha: FromJson::from_json(v.field("alpha")?)?,
            gamma: FromJson::from_json(v.field("gamma")?)?,
            learnable_gamma: FromJson::from_json(v.field("learnable_gamma")?)?,
            slide_mode: FromJson::from_json(v.field("slide_mode")?)?,
            use_dfs: FromJson::from_json(v.field("use_dfs")?)?,
            use_sfs: FromJson::from_json(v.field("use_sfs")?)?,
            contrastive: FromJson::from_json(v.field("contrastive")?)?,
            lambda: FromJson::from_json(v.field("lambda")?)?,
            temperature: FromJson::from_json(v.field("temperature")?)?,
            dropout_emb: FromJson::from_json(v.field("dropout_emb")?)?,
            dropout_block: FromJson::from_json(v.field("dropout_block")?)?,
            noise_eps: FromJson::from_json(v.field("noise_eps")?)?,
            seed: FromJson::from_json(v.field("seed")?)?,
        })
    }
}

/// Optimization/evaluation settings shared by SLIME4Rec and the baselines.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (paper: 0.001).
    pub lr: f32,
    /// Evaluate on validation every this many epochs (0 disables).
    pub valid_every: usize,
    /// Stop after this many non-improving validations (0 disables).
    pub patience: usize,
    /// Metric cutoffs (paper: 5 and 10).
    pub cutoffs: Vec<usize>,
    /// Seed for batching/dropout.
    pub seed: u64,
    /// Print progress lines.
    pub verbose: bool,
    /// Keep every `stride`-th training prefix per user (1 = all; see
    /// `TrainSet::with_stride`). Dense long-sequence datasets train at a
    /// fraction of the cost with stride > 1.
    pub example_stride: usize,
    /// Optional global gradient-norm clip applied before each optimizer
    /// step (useful for RNN baselines; `None` disables).
    pub clip_norm: Option<f32>,
}

impl ToJson for TrainConfig {
    fn to_json(&self) -> Value {
        obj([
            ("epochs", self.epochs.to_json()),
            ("batch_size", self.batch_size.to_json()),
            ("lr", self.lr.to_json()),
            ("valid_every", self.valid_every.to_json()),
            ("patience", self.patience.to_json()),
            ("cutoffs", self.cutoffs.to_json()),
            ("seed", self.seed.to_json()),
            ("verbose", self.verbose.to_json()),
            ("example_stride", self.example_stride.to_json()),
            ("clip_norm", self.clip_norm.to_json()),
        ])
    }
}

impl FromJson for TrainConfig {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(TrainConfig {
            epochs: FromJson::from_json(v.field("epochs")?)?,
            batch_size: FromJson::from_json(v.field("batch_size")?)?,
            lr: FromJson::from_json(v.field("lr")?)?,
            valid_every: FromJson::from_json(v.field("valid_every")?)?,
            patience: FromJson::from_json(v.field("patience")?)?,
            cutoffs: FromJson::from_json(v.field("cutoffs")?)?,
            seed: FromJson::from_json(v.field("seed")?)?,
            verbose: FromJson::from_json(v.field("verbose")?)?,
            example_stride: FromJson::from_json(v.field("example_stride")?)?,
            clip_norm: FromJson::from_json(v.field("clip_norm")?)?,
        })
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 128,
            lr: 1e-3,
            valid_every: 0,
            patience: 0,
            cutoffs: vec![5, 10],
            seed: 7,
            verbose: false,
            example_stride: 1,
            clip_norm: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        SlimeConfig::new(100).validate();
        SlimeConfig::small(10).validate();
    }

    #[test]
    fn freq_bins_matches_rfft_len() {
        let mut c = SlimeConfig::new(10);
        c.max_len = 50;
        assert_eq!(c.freq_bins(), 26);
        c.max_len = 25;
        assert_eq!(c.freq_bins(), 13);
    }

    #[test]
    fn mode4_is_double_high_to_low() {
        let (d, s) = SlideMode::Mode4.directions();
        assert_eq!(d, SlideDirection::HighToLow);
        assert_eq!(s, SlideDirection::HighToLow);
        let (d1, s1) = SlideMode::Mode1.directions();
        assert_eq!(d1, SlideDirection::HighToLow);
        assert_eq!(s1, SlideDirection::LowToHigh);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_zero_alpha() {
        let mut c = SlimeConfig::new(10);
        c.alpha = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn rejects_no_branches() {
        let mut c = SlimeConfig::new(10);
        c.use_dfs = false;
        c.use_sfs = false;
        c.validate();
    }
}
