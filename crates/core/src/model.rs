//! The SLIME4Rec model (paper Section III, Figure 2): embedding layer,
//! a stack of filter-mixer blocks (DFS + SFS with the frequency ramp),
//! point-wise feed-forward networks, and the full-softmax prediction head.

use slime_nn::{
    dropout, Embedding, FeedForward, LayerNorm, Module, ParamCollector, PositionalEmbedding,
    TrainContext,
};
use slime_rng::rngs::StdRng;
use slime_rng::{Rng, SeedableRng};
use slime_tensor::{init, ops, NdArray, Tensor};

use crate::config::SlimeConfig;
use crate::ramp::{dfs_window, sfs_window, window_mask};
use crate::NextItemModel;

/// One filter-mixer block (Figure 2, right): a masked learnable dynamic
/// filter, a masked learnable static filter, a gamma-mix, inverse FFT
/// (all fused in `spectral_filter_mix`), then residual + layer norm and a
/// point-wise FFN with the densely residual connection of Eq. 30.
pub struct FilterMixerBlock {
    /// Dynamic filter, real part `[M, d]`.
    pub wd_re: Tensor,
    /// Dynamic filter, imaginary part `[M, d]`.
    pub wd_im: Tensor,
    /// Static filter, real part `[M, d]`.
    pub ws_re: Tensor,
    /// Static filter, imaginary part `[M, d]`.
    pub ws_im: Tensor,
    /// DFS indicator window for this layer (Eq. 16).
    pub mask_d: Vec<f32>,
    /// SFS indicator window for this layer (Eq. 23–24).
    pub mask_s: Vec<f32>,
    ln_filter: LayerNorm,
    ffn: FeedForward,
    ln_out: LayerNorm,
    p_drop: f32,
    use_dfs: bool,
    use_sfs: bool,
    gamma: f32,
    /// Pre-sigmoid logit of the learnable mix coefficient (extension; see
    /// `SlimeConfig::learnable_gamma`). `None` when gamma is fixed.
    gamma_logit: Option<Tensor>,
}

impl FilterMixerBlock {
    fn new(cfg: &SlimeConfig, layer: usize, rng: &mut StdRng) -> Self {
        let m = cfg.freq_bins();
        let d = cfg.hidden;
        let (dfs_dir, sfs_dir) = cfg.slide_mode.directions();
        // Filters initialized like FMLP-Rec: small complex Gaussians.
        let mk = |rng: &mut StdRng| Tensor::param(init::normal(vec![m, d], 0.02, rng));
        FilterMixerBlock {
            wd_re: mk(rng),
            wd_im: mk(rng),
            ws_re: mk(rng),
            ws_im: mk(rng),
            mask_d: window_mask(dfs_window(layer, cfg.layers, m, cfg.alpha, dfs_dir), m),
            mask_s: window_mask(sfs_window(layer, cfg.layers, m, sfs_dir), m),
            ln_filter: LayerNorm::new(d),
            ffn: FeedForward::new(d, cfg.dropout_block, rng),
            ln_out: LayerNorm::new(d),
            p_drop: cfg.dropout_block,
            use_dfs: cfg.use_dfs,
            use_sfs: cfg.use_sfs,
            gamma: cfg.gamma,
            gamma_logit: (cfg.learnable_gamma && cfg.use_dfs && cfg.use_sfs).then(|| {
                // logit(gamma) so training starts at the configured mix.
                let g = cfg.gamma.clamp(1e-4, 1.0 - 1e-4);
                Tensor::param(NdArray::scalar((g / (1.0 - g)).ln()))
            }),
        }
    }

    /// Current effective mix coefficient `gamma` (fixed or learned).
    pub fn effective_gamma(&self) -> f32 {
        match &self.gamma_logit {
            Some(g) => 1.0 / (1.0 + (-g.item()).exp()),
            None => self.gamma,
        }
    }

    /// Both branches at unit coefficient (learnable-gamma path mixes them
    /// in-graph instead).
    fn branches_unit_coef(&self) -> Vec<ops::SpectralBranch> {
        vec![
            ops::SpectralBranch {
                w_re: self.wd_re.clone(),
                w_im: self.wd_im.clone(),
                mask: self.mask_d.clone(),
                coef: 1.0,
            },
            ops::SpectralBranch {
                w_re: self.ws_re.clone(),
                w_im: self.ws_im.clone(),
                mask: self.mask_s.clone(),
                coef: 1.0,
            },
        ]
    }

    /// The filter branches active in this block, with their mix
    /// coefficients (Eq. 26; a lone branch gets coefficient 1).
    fn branches(&self) -> Vec<ops::SpectralBranch> {
        let mut out = Vec::with_capacity(2);
        if self.use_dfs {
            let coef = if self.use_sfs { 1.0 - self.gamma } else { 1.0 };
            out.push(ops::SpectralBranch {
                w_re: self.wd_re.clone(),
                w_im: self.wd_im.clone(),
                mask: self.mask_d.clone(),
                coef,
            });
        }
        if self.use_sfs {
            let coef = if self.use_dfs { self.gamma } else { 1.0 };
            out.push(ops::SpectralBranch {
                w_re: self.ws_re.clone(),
                w_im: self.ws_im.clone(),
                mask: self.mask_s.clone(),
                coef,
            });
        }
        out
    }

    /// One block: Eqs. 21/25/26/27/28/29/30.
    pub fn forward(&self, h: &Tensor, ctx: &mut TrainContext) -> Tensor {
        // Block-level timing on top of the per-op timers: one row for the
        // whole mixer block (filters + norms + FFN).
        let _prof = slime_trace::prof::timer_n(
            "filter_mixer.forward",
            slime_trace::prof::Phase::Forward,
            h.len() as u64,
        );
        let filtered = self.filtered(h, ops::spectral_filter_mix);
        self.residual_ffn(h, &filtered, ctx)
    }

    /// The block's output at the last position only: `[B, N, d] -> [B, d]`,
    /// equal to `index_axis(forward(h), 1, N - 1)` up to rounding (and to
    /// the dropout draws, which cover only the rows computed). The filter
    /// runs as its last-step correlation; the norms and the FFN are
    /// position-wise, so they run on the one row.
    pub fn forward_last(&self, h: &Tensor, ctx: &mut TrainContext) -> Tensor {
        let _prof = slime_trace::prof::timer_n(
            "filter_mixer.forward_last",
            slime_trace::prof::Phase::Forward,
            h.len() as u64,
        );
        let filtered = self.filtered(h, ops::spectral_filter_mix_last);
        let last = ops::index_axis(h, 1, h.shape()[1] - 1);
        self.residual_ffn(&last, &filtered, ctx)
    }

    /// The filter-mixer output (Eqs. 21/25/26/27) through `filter`, the
    /// full-sequence op or its last-step form.
    fn filtered(
        &self,
        h: &Tensor,
        filter: fn(&Tensor, &[ops::SpectralBranch]) -> Tensor,
    ) -> Tensor {
        match &self.gamma_logit {
            // Learnable gamma: run each branch separately and mix in-graph
            // so the coefficient receives gradient.
            Some(logit) => {
                let g = ops::sigmoid(logit); // scalar in (0, 1)
                let branches = self.branches_unit_coef();
                let yd = filter(h, &branches[..1]);
                let ys = filter(h, &branches[1..]);
                if slime_tensor::simd::fuse::enabled() {
                    slime_tensor::fusion::gate_mix(&yd, &ys, &g)
                } else {
                    let one_minus_g = ops::add_scalar(&ops::neg(&g), 1.0);
                    ops::add(&ops::mul(&yd, &one_minus_g), &ops::mul(&ys, &g))
                }
            }
            None => filter(h, &self.branches()),
        }
    }

    /// Eqs. 28–30 on the filter output: residual + layer norm, the FFN,
    /// and the densely residual norm. Position-wise, so `h` and `filtered`
    /// may be whole sequences or single rows.
    fn residual_ffn(&self, h: &Tensor, filtered: &Tensor, ctx: &mut TrainContext) -> Tensor {
        let a = self
            .ln_filter
            .forward_add(h, &dropout(filtered, self.p_drop, ctx));
        let f = self.ffn.forward(&a, ctx);
        // Densely residual: LayerNorm(H^l + \hat H^l + Dropout(FFN)).
        self.ln_out
            .forward_add(&ops::add(h, &a), &dropout(&f, self.p_drop, ctx))
    }
}

impl Module for FilterMixerBlock {
    fn collect(&self, out: &mut ParamCollector) {
        out.push("wd_re", &self.wd_re);
        out.push("wd_im", &self.wd_im);
        out.push("ws_re", &self.ws_re);
        out.push("ws_im", &self.ws_im);
        if let Some(g) = &self.gamma_logit {
            out.push("gamma_logit", g);
        }
        out.child("ln_filter", &self.ln_filter);
        out.child("ffn", &self.ffn);
        out.child("ln_out", &self.ln_out);
    }
}

/// The full SLIME4Rec model.
pub struct Slime4Rec {
    /// Configuration the model was built with.
    pub cfg: SlimeConfig,
    /// Item embedding table `M^V` (Eq. 9); also the prediction head (Eq. 31).
    pub item_emb: Embedding,
    /// Positional table `P` (Eq. 10).
    pub pos_emb: PositionalEmbedding,
    emb_ln: LayerNorm,
    /// The filter-mixer stack.
    pub blocks: Vec<FilterMixerBlock>,
}

impl Slime4Rec {
    /// Build a model from a validated configuration.
    pub fn new(cfg: SlimeConfig) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let item_emb = Embedding::new(cfg.vocab_size(), cfg.hidden, &mut rng);
        let pos_emb = PositionalEmbedding::new(cfg.max_len, cfg.hidden, &mut rng);
        let emb_ln = LayerNorm::new(cfg.hidden);
        let blocks = (0..cfg.layers)
            .map(|l| FilterMixerBlock::new(&cfg, l, &mut rng))
            .collect();
        Slime4Rec {
            cfg,
            item_emb,
            pos_emb,
            emb_ln,
            blocks,
        }
    }

    /// Encode a flattened `[batch * max_len]` id batch into hidden states
    /// `[batch, max_len, d]`.
    pub fn encode(&self, inputs: &[usize], batch: usize, ctx: &mut TrainContext) -> Tensor {
        let mut h = self.embed(inputs, batch, ctx);
        for block in &self.blocks {
            h = block.forward(&self.with_layer_noise(h, ctx), ctx);
        }
        h
    }

    /// The embedding layer (Eqs. 9–10): item plus position embeddings,
    /// layer norm and dropout, `[batch, max_len, d]`.
    fn embed(&self, inputs: &[usize], batch: usize, ctx: &mut TrainContext) -> Tensor {
        let n = self.cfg.max_len;
        assert_eq!(inputs.len(), batch * n, "input length vs batch * max_len");
        let e = self.item_emb.forward(inputs, &[batch, n]);
        let p = self.pos_emb.forward(n);
        dropout(
            &self.emb_ln.forward(&ops::add(&e, &p)),
            self.cfg.dropout_emb,
            ctx,
        )
    }

    /// `h` plus the robustness experiment's layer noise, when it is on.
    fn with_layer_noise(&self, h: Tensor, ctx: &mut TrainContext) -> Tensor {
        if self.cfg.noise_eps > 0.0 {
            ops::add(&h, &self.layer_noise(h.shape(), ctx))
        } else {
            h
        }
    }

    /// Uniform noise injected at layer inputs for the robustness
    /// experiment (Fig. 6).
    fn layer_noise(&self, shape: Vec<usize>, ctx: &mut TrainContext) -> Tensor {
        let eps = self.cfg.noise_eps;
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|_| ctx.rng.gen_range(-eps..=eps)).collect();
        Tensor::constant(NdArray::from_vec(shape, data))
    }

    /// Per-layer mean filter amplitude across the hidden dimension:
    /// `(|W_D * sigma_D|, |W_S * sigma_S|)` per frequency bin — the data
    /// behind the paper's Fig. 7 visualization.
    pub fn filter_amplitudes(&self) -> Vec<(Vec<f32>, Vec<f32>)> {
        self.blocks
            .iter()
            .map(|b| {
                let amp = |re: &Tensor, im: &Tensor, mask: &[f32]| {
                    let re = re.value();
                    let im = im.value();
                    let m = mask.len();
                    let d = re.len() / m;
                    (0..m)
                        .map(|k| {
                            let mut s = 0.0f32;
                            for c in 0..d {
                                let r = re.data()[k * d + c];
                                let i = im.data()[k * d + c];
                                s += (r * r + i * i).sqrt();
                            }
                            s / d as f32 * mask[k]
                        })
                        .collect::<Vec<f32>>()
                };
                (
                    amp(&b.wd_re, &b.wd_im, &b.mask_d),
                    amp(&b.ws_re, &b.ws_im, &b.mask_s),
                )
            })
            .collect()
    }
}

impl Module for Slime4Rec {
    fn collect(&self, out: &mut ParamCollector) {
        out.child("item_emb", &self.item_emb);
        out.child("pos_emb", &self.pos_emb);
        out.child("emb_ln", &self.emb_ln);
        for (l, b) in self.blocks.iter().enumerate() {
            out.child(&format!("block{l}"), b);
        }
    }
}

impl NextItemModel for Slime4Rec {
    fn max_len(&self) -> usize {
        self.cfg.max_len
    }

    /// The last hidden vector of the top block (Eq. 31's `h^L`): the
    /// blocks below run over every position, the top one only at the last.
    fn user_repr(&self, inputs: &[usize], batch: usize, ctx: &mut TrainContext) -> Tensor {
        let mut h = self.embed(inputs, batch, ctx);
        let Some((top, below)) = self.blocks.split_last() else {
            return ops::index_axis(&h, 1, self.cfg.max_len - 1);
        };
        for block in below {
            h = block.forward(&self.with_layer_noise(h, ctx), ctx);
        }
        top.forward_last(&self.with_layer_noise(h, ctx), ctx)
    }

    fn score_all(&self, repr: &Tensor) -> Tensor {
        // [B, d] x [V, d]^T, reading the embedding table in place — the old
        // permute copied the whole [d, V] table on every scoring call.
        ops::matmul_nt(repr, &self.item_emb.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContrastiveMode;

    fn tiny_cfg() -> SlimeConfig {
        let mut c = SlimeConfig::small(20);
        c.hidden = 8;
        c.max_len = 6;
        c.layers = 2;
        c.contrastive = ContrastiveMode::None;
        c
    }

    #[test]
    fn encode_shapes() {
        let m = Slime4Rec::new(tiny_cfg());
        let mut ctx = TrainContext::eval();
        let inputs = vec![0, 0, 1, 2, 3, 4, 0, 0, 0, 5, 6, 7];
        let h = m.encode(&inputs, 2, &mut ctx);
        assert_eq!(h.shape(), vec![2, 6, 8]);
        let r = m.user_repr(&inputs, 2, &mut ctx);
        assert_eq!(r.shape(), vec![2, 8]);
        let s = m.score_all(&r);
        assert_eq!(s.shape(), vec![2, 21]); // vocab = items + pad
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let m = Slime4Rec::new(tiny_cfg());
        let inputs = vec![0, 1, 2, 3, 4, 5];
        let a = m.user_repr(&inputs, 1, &mut TrainContext::eval()).value();
        let b = m.user_repr(&inputs, 1, &mut TrainContext::eval()).value();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn train_mode_dropout_gives_different_views() {
        // The mechanism behind the unsupervised contrastive pair.
        let m = Slime4Rec::new(tiny_cfg());
        let inputs = vec![0, 1, 2, 3, 4, 5];
        let mut ctx = TrainContext::train(1);
        let a = m.user_repr(&inputs, 1, &mut ctx).value();
        let b = m.user_repr(&inputs, 1, &mut ctx).value();
        let diff: f32 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-6, "two dropout passes must differ");
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let m = Slime4Rec::new(tiny_cfg());
        let mut ctx = TrainContext::train(2);
        let inputs = vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        let r = m.user_repr(&inputs, 2, &mut ctx);
        let logits = m.score_all(&r);
        ops::cross_entropy(&logits, &[3, 7]).backward();
        let mut missing = Vec::new();
        let mut pc = ParamCollector::new();
        m.collect(&mut pc);
        for (name, t) in pc.entries() {
            if t.grad().is_none() {
                missing.push(name.clone());
            }
        }
        assert!(missing.is_empty(), "no grad for {missing:?}");
    }

    #[test]
    fn ablation_variants_have_expected_branch_counts() {
        let mut c = tiny_cfg();
        c.use_sfs = false;
        let m = Slime4Rec::new(c);
        assert_eq!(m.blocks[0].branches().len(), 1);
        assert_eq!(m.blocks[0].branches()[0].coef, 1.0);

        let mut c2 = tiny_cfg();
        c2.use_dfs = false;
        let m2 = Slime4Rec::new(c2);
        assert_eq!(m2.blocks[0].branches().len(), 1);

        let m3 = Slime4Rec::new(tiny_cfg());
        let br = m3.blocks[0].branches();
        assert_eq!(br.len(), 2);
        assert!((br[0].coef + br[1].coef - 1.0).abs() < 1e-6);
    }

    #[test]
    fn filter_amplitudes_respect_masks() {
        let m = Slime4Rec::new(tiny_cfg());
        let amps = m.filter_amplitudes();
        assert_eq!(amps.len(), 2);
        for (l, (dfs, sfs)) in amps.iter().enumerate() {
            assert_eq!(dfs.len(), 4); // M = 6/2 + 1
            for (k, &a) in dfs.iter().enumerate() {
                if m.blocks[l].mask_d[k] == 0.0 {
                    assert_eq!(a, 0.0);
                }
            }
            for (k, &a) in sfs.iter().enumerate() {
                if m.blocks[l].mask_s[k] == 0.0 {
                    assert_eq!(a, 0.0);
                }
            }
        }
    }

    #[test]
    fn learnable_gamma_starts_at_configured_mix_and_gets_gradients() {
        let mut c = tiny_cfg();
        c.gamma = 0.3;
        c.learnable_gamma = true;
        let m = Slime4Rec::new(c);
        for b in &m.blocks {
            assert!((b.effective_gamma() - 0.3).abs() < 1e-5);
        }
        let inputs = vec![0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 6];
        let mut ctx = TrainContext::train(1);
        let r = m.user_repr(&inputs, 2, &mut ctx);
        let logits = m.score_all(&r);
        ops::cross_entropy(&logits, &[3, 6]).backward();
        // gamma logits participate in the graph.
        let mut pc = ParamCollector::new();
        m.collect(&mut pc);
        let gamma_params: Vec<_> = pc
            .entries()
            .iter()
            .filter(|(n, _)| n.contains("gamma_logit"))
            .collect();
        assert_eq!(gamma_params.len(), 2);
        for (name, t) in gamma_params {
            assert!(t.grad().is_some(), "no grad for {name}");
        }
    }

    #[test]
    fn learnable_gamma_matches_fixed_gamma_at_init() {
        let mut fixed = tiny_cfg();
        fixed.gamma = 0.4;
        let mut learn = fixed.clone();
        learn.learnable_gamma = true;
        let a = Slime4Rec::new(fixed);
        let b = Slime4Rec::new(learn);
        let inputs = vec![0, 1, 2, 3, 4, 5];
        let ra = a.user_repr(&inputs, 1, &mut TrainContext::eval()).value();
        let rb = b.user_repr(&inputs, 1, &mut TrainContext::eval()).value();
        for (x, y) in ra.data().iter().zip(rb.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn noise_eps_perturbs_output() {
        let mut c = tiny_cfg();
        let clean = Slime4Rec::new(c.clone());
        c.noise_eps = 0.5;
        let noisy = Slime4Rec::new(c);
        let inputs = vec![0, 1, 2, 3, 4, 5];
        let a = clean
            .user_repr(&inputs, 1, &mut TrainContext::eval())
            .value();
        let b = noisy
            .user_repr(&inputs, 1, &mut TrainContext::eval())
            .value();
        let diff: f32 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-6);
    }

    #[test]
    fn user_repr_is_the_last_row_of_encode() {
        // The top block's last-row path against the full-sequence reference
        // across slide modes, learnable gamma, layer noise, even/odd N and
        // one or two blocks. Eval mode: no dropout, and a fresh context per
        // call so both paths draw the same layer noise.
        use crate::config::SlideMode;
        let modes = [
            SlideMode::Mode1,
            SlideMode::Mode2,
            SlideMode::Mode3,
            SlideMode::Mode4,
        ];
        for n in [7usize, 50, 200] {
            for layers in [1usize, 2] {
                for (i, &mode) in modes.iter().enumerate() {
                    let mut c = tiny_cfg();
                    c.max_len = n;
                    c.layers = layers;
                    c.slide_mode = mode;
                    c.learnable_gamma = i % 2 == 1;
                    c.noise_eps = if i >= 2 { 0.3 } else { 0.0 };
                    let m = Slime4Rec::new(c);
                    let batch = 3;
                    let inputs: Vec<usize> = (0..batch * n).map(|t| (t * 7 + t / n) % 21).collect();
                    let h = m.encode(&inputs, batch, &mut TrainContext::eval());
                    let want = ops::index_axis(&h, 1, n - 1).value();
                    let got = m
                        .user_repr(&inputs, batch, &mut TrainContext::eval())
                        .value();
                    assert_eq!(got.shape(), want.shape());
                    for (a, b) in got.data().iter().zip(want.data()) {
                        assert!(
                            (a - b).abs() < 1e-5,
                            "n={n} layers={layers} {mode:?}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_mode4_windows_leave_half_the_bins_in_band() {
        // alpha = 0.4, Mode 4, 2 layers: each layer's two windows span
        // about half of M, so its spectral transforms skip the rest.
        for (n, bands) in [(200usize, [51..101, 0..51]), (50, [13..26, 0..13])] {
            let mut c = SlimeConfig::new(20);
            c.max_len = n;
            let m = Slime4Rec::new(c);
            for (b, band) in m.blocks.iter().zip(bands) {
                let live = |k: &usize| b.mask_d[*k] != 0.0 || b.mask_s[*k] != 0.0;
                let m_bins = b.mask_d.len();
                let lo = (0..m_bins).find(live).unwrap();
                let hi = (0..m_bins).rev().find(live).unwrap() + 1;
                assert_eq!(lo..hi, band, "n={n}");
            }
        }
    }

    #[test]
    fn state_dict_roundtrip_preserves_scores() {
        let m = Slime4Rec::new(tiny_cfg());
        let inputs = vec![0, 1, 2, 3, 4, 5];
        let before = m
            .score_all(&m.user_repr(&inputs, 1, &mut TrainContext::eval()))
            .value();
        let sd = m.state_dict();
        let m2 = Slime4Rec::new(tiny_cfg());
        m2.load_state_dict(&sd);
        let after = m2
            .score_all(&m2.user_repr(&inputs, 1, &mut TrainContext::eval()))
            .value();
        assert_eq!(before.data(), after.data());
    }
}
