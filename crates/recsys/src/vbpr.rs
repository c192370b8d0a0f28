//! Visual Bayesian Personalized Ranking (He & McAuley, AAAI 2016).

use rand::Rng;
use serde::{Deserialize, Serialize};
use taamr_data::Triplet;
use taamr_tensor::{dot_blocked, with_gemm_scratch, Tensor, Transpose, GEMM_KC};

use crate::scoring::{scoring_gemm, tensor_2d};
use crate::train::{bpr_loss_and_coeff, PairwiseModel};
use crate::{CatalogPlan, Recommender, VisualRecommender};

/// Hyper-parameters of [`Vbpr`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VbprConfig {
    /// Collaborative latent dimension K.
    pub factors: usize,
    /// Visual latent dimension A (the embedding `E f_i` lives here).
    pub visual_factors: usize,
    /// L2 regularisation λ on all parameters.
    pub reg: f32,
}

impl Default for VbprConfig {
    fn default() -> Self {
        VbprConfig { factors: 16, visual_factors: 16, reg: 1e-4 }
    }
}

/// VBPR (paper Eq. 6):
///
/// ```text
/// ŝ_ui = b_i + p_uᵀ q_i + α_uᵀ (E f_i) + βᵀ f_i
/// ```
///
/// where `f_i ∈ R^D` are deep image features, `E ∈ R^{D×A}` projects them
/// into a visual latent space, `α_u` are per-user visual factors, and `β`
/// captures the global visual bias. The user bias and global offset of the
/// paper's `b_ui` cancel inside the pairwise BPR difference and are omitted,
/// as in the reference implementation.
///
/// Item features are *owned* by the model and can be swapped at any time via
/// [`VisualRecommender::set_item_feature`] — re-scoring with attacked
/// features is exactly how TAaMR's perturbations reach the recommendation
/// lists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vbpr {
    num_users: usize,
    num_items: usize,
    config: VbprConfig,
    feature_dim: usize,
    /// `num_users × K`.
    user_factors: Vec<f32>,
    /// `num_items × K`.
    item_factors: Vec<f32>,
    /// `num_users × A` — the visual user factors α_u.
    visual_user_factors: Vec<f32>,
    /// `D × A` projection E, row-major by feature dimension.
    projection: Vec<f32>,
    /// `D` global visual bias β.
    visual_bias: Vec<f32>,
    /// Item biases.
    item_bias: Vec<f32>,
    /// `num_items × D` deep image features (row-major).
    features: Vec<f32>,
    /// Monotone mutation counter for scoring-cache invalidation: bumped by
    /// every SGD step and feature swap (see
    /// [`Recommender::scoring_version`]).
    version: u64,
}

impl Vbpr {
    /// Creates a VBPR model over fixed item features.
    ///
    /// `features` is row-major `num_items × feature_dim`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `features.len()` differs from
    /// `num_items * feature_dim`.
    pub fn new(
        num_users: usize,
        num_items: usize,
        feature_dim: usize,
        features: Vec<f32>,
        config: VbprConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_users > 0 && num_items > 0, "empty model dimensions");
        assert!(feature_dim > 0 && config.factors > 0 && config.visual_factors > 0);
        assert_eq!(
            features.len(),
            num_items * feature_dim,
            "features must be num_items × feature_dim"
        );
        let init = |n: usize, rng: &mut dyn rand::RngCore| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-0.05..0.05)).collect()
        };
        Vbpr {
            num_users,
            num_items,
            feature_dim,
            user_factors: init(num_users * config.factors, rng),
            item_factors: init(num_items * config.factors, rng),
            visual_user_factors: init(num_users * config.visual_factors, rng),
            projection: init(feature_dim * config.visual_factors, rng),
            visual_bias: vec![0.0; feature_dim],
            item_bias: vec![0.0; num_items],
            features,
            config,
            version: 0,
        }
    }

    /// The hyper-parameters.
    pub fn config(&self) -> &VbprConfig {
        &self.config
    }

    /// Stable FNV-1a content hash of the model: dimensions,
    /// hyper-parameters, every parameter block, and the owned item
    /// features, folded in by IEEE-754 bit pattern. The mutation counter
    /// (`version`) is scoring-cache bookkeeping, not model content, and is
    /// excluded — a trained model hashes equal to the same parameters
    /// restored from a checkpoint.
    pub fn artifact_hash(&self) -> u64 {
        let mut h = taamr_replay::Fnv::new();
        h.usize(self.num_users)
            .usize(self.num_items)
            .usize(self.config.factors)
            .usize(self.config.visual_factors)
            .f32(self.config.reg)
            .usize(self.feature_dim)
            .f32s(&self.user_factors)
            .f32s(&self.item_factors)
            .f32s(&self.visual_user_factors)
            .f32s(&self.projection)
            .f32s(&self.visual_bias)
            .f32s(&self.item_bias)
            .f32s(&self.features);
        h.finish()
    }

    fn user(&self, u: usize) -> &[f32] {
        let k = self.config.factors;
        &self.user_factors[u * k..(u + 1) * k]
    }

    fn item(&self, i: usize) -> &[f32] {
        let k = self.config.factors;
        &self.item_factors[i * k..(i + 1) * k]
    }

    fn alpha(&self, u: usize) -> &[f32] {
        let a = self.config.visual_factors;
        &self.visual_user_factors[u * a..(u + 1) * a]
    }

    fn feature(&self, i: usize) -> &[f32] {
        &self.features[i * self.feature_dim..(i + 1) * self.feature_dim]
    }

    /// `E f` — projects a feature vector into the visual latent space.
    pub(crate) fn project(&self, feature: &[f32]) -> Vec<f32> {
        let a = self.config.visual_factors;
        let mut out = vec![0.0f32; a];
        for (d, &fv) in feature.iter().enumerate() {
            if fv == 0.0 {
                continue;
            }
            let row = &self.projection[d * a..(d + 1) * a];
            for (o, &e) in out.iter_mut().zip(row) {
                *o += e * fv;
            }
        }
        out
    }

    /// `E f` in the GEMM kernel's canonical element order: per
    /// [`GEMM_KC`]-block of the feature dimension, a partial accumulated
    /// from zero, then added to the output — the exact scalar replication
    /// of the item-embedding cache's `V = F·E` GEMM, so scores built from
    /// this are bitwise identical to the batched engine. Unlike
    /// [`Vbpr::project`] (the training path), zero feature entries are
    /// *not* skipped: the kernel adds their products too.
    fn embed_feature_into(&self, feature: &[f32], out: &mut [f32], partial: &mut [f32]) {
        let a = self.config.visual_factors;
        out.fill(0.0);
        let mut d0 = 0;
        while d0 < feature.len() {
            let d1 = (d0 + GEMM_KC).min(feature.len());
            partial.fill(0.0);
            for (dd, &fv) in feature.iter().enumerate().take(d1).skip(d0) {
                let row = &self.projection[dd * a..(dd + 1) * a];
                for (p, &e) in partial.iter_mut().zip(row) {
                    *p += fv * e;
                }
            }
            for (o, &p) in out.iter_mut().zip(partial.iter()) {
                *o += p;
            }
            d0 = d1;
        }
    }

    /// The user-independent score term of `item`: `b_i + βᵀ f_i`, with the
    /// visual bias dot in canonical [`dot_blocked`] order. This is the value
    /// the scoring engine caches per item as the plan's static term.
    fn static_score_term(&self, item: usize) -> f32 {
        self.item_bias[item] + dot_blocked(0.0, self.feature(item), &self.visual_bias)
    }

    /// Score of a feature vector for a user, with the item's collaborative
    /// part taken from `item` — used by AMR for adversarially perturbed
    /// features.
    pub(crate) fn score_with_feature(&self, user: usize, item: usize, feature: &[f32]) -> f32 {
        let dot: f32 =
            self.user(user).iter().zip(self.item(item)).map(|(&a, &b)| a * b).sum();
        let proj = self.project(feature);
        let visual: f32 = self.alpha(user).iter().zip(&proj).map(|(&a, &b)| a * b).sum();
        let bias: f32 = self.visual_bias.iter().zip(feature).map(|(&a, &b)| a * b).sum();
        self.item_bias[item] + dot + visual + bias
    }

    /// One SGD step on a triplet whose item features are supplied by the
    /// caller (AMR passes perturbed features; plain VBPR passes the stored
    /// ones). `weight` scales the gradient (AMR's adversarial term uses γ).
    pub(crate) fn sgd_step_with_features(
        &mut self,
        t: &Triplet,
        f_i: &[f32],
        f_j: &[f32],
        lr: f32,
        weight: f32,
    ) -> f32 {
        self.version = self.version.wrapping_add(1);
        let x = self.score_with_feature(t.user, t.positive, f_i)
            - self.score_with_feature(t.user, t.negative, f_j);
        let (loss, raw_coeff) = bpr_loss_and_coeff(x);
        let coeff = raw_coeff * weight;
        let reg = self.config.reg;
        let k = self.config.factors;
        let a = self.config.visual_factors;
        let d = self.feature_dim;

        // Collaborative part (same as BPR-MF).
        let (ub, ib, jb) = (t.user * k, t.positive * k, t.negative * k);
        for f in 0..k {
            let pu = self.user_factors[ub + f];
            let qi = self.item_factors[ib + f];
            let qj = self.item_factors[jb + f];
            self.user_factors[ub + f] += lr * (coeff * (qi - qj) - reg * pu);
            self.item_factors[ib + f] += lr * (coeff * pu - reg * qi);
            self.item_factors[jb + f] += lr * (-coeff * pu - reg * qj);
        }
        self.item_bias[t.positive] += lr * (coeff - reg * self.item_bias[t.positive]);
        self.item_bias[t.negative] -= lr * (coeff + reg * self.item_bias[t.negative]);

        // Visual part: gradients flow through E, α_u and β with the feature
        // difference δ = f_i − f_j.
        let delta: Vec<f32> = f_i.iter().zip(f_j).map(|(&x1, &x2)| x1 - x2).collect();
        let proj_delta = self.project(&delta);
        let alpha_base = t.user * a;
        // α_u ← α_u + lr (coeff · E δ − λ α_u)
        for (v, &pd) in proj_delta.iter().enumerate().take(a) {
            let al = self.visual_user_factors[alpha_base + v];
            self.visual_user_factors[alpha_base + v] += lr * (coeff * pd - reg * al);
        }
        // E ← E + lr (coeff · δ ⊗ α_u − λ E); use α_u *before* its update
        // would be ideal, but the standard implementations update in-place —
        // the bias is O(lr²) and immaterial.
        for (dd, &dval) in delta.iter().enumerate().take(d) {
            if dval == 0.0 {
                continue;
            }
            let row = dd * a;
            for v in 0..a {
                let e = self.projection[row + v];
                self.projection[row + v] +=
                    lr * (coeff * dval * self.visual_user_factors[alpha_base + v] - reg * e);
            }
        }
        // β ← β + lr (coeff · δ − λ β)
        for (dd, &dval) in delta.iter().enumerate().take(d) {
            let b = self.visual_bias[dd];
            self.visual_bias[dd] += lr * (coeff * dval - reg * b);
        }
        loss
    }

    /// Gradient of the triplet BPR loss with respect to the *positive item's
    /// feature vector*: `∂L/∂f_i = −σ(−x) · (E α_u + β)`.
    ///
    /// This is the direction AMR's adversarial perturbation uses (Eq. 9).
    pub(crate) fn loss_feature_grad(&self, t: &Triplet) -> Vec<f32> {
        // Deliberately uses the training-path scorer (`score_with_feature`)
        // rather than the canonical `score`, so attack directions — and the
        // AMR training trajectory built on them — keep their exact
        // pre-engine numerics.
        let x = self.score_with_feature(t.user, t.positive, self.feature(t.positive))
            - self.score_with_feature(t.user, t.negative, self.feature(t.negative));
        let (_, coeff) = bpr_loss_and_coeff(x);
        let a = self.config.visual_factors;
        let alpha = self.alpha(t.user);
        let mut grad = vec![0.0f32; self.feature_dim];
        for (dd, g) in grad.iter_mut().enumerate() {
            let row = &self.projection[dd * a..(dd + 1) * a];
            let e_alpha: f32 = row.iter().zip(alpha).map(|(&e, &al)| e * al).sum();
            *g = -coeff * (e_alpha + self.visual_bias[dd]);
        }
        grad
    }
}

impl Recommender for Vbpr {
    fn num_users(&self) -> usize {
        self.num_users
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    /// Canonical (engine-order) score: static term, then the collaborative
    /// and visual bilinear terms, each in [`dot_blocked`] order — bitwise
    /// identical to a [`crate::ScoringEngine`] score block at any thread
    /// count. (The training path keeps the historical summation order in
    /// [`Vbpr::score_with_feature`].)
    fn score(&self, user: usize, item: usize) -> f32 {
        let a = self.config.visual_factors;
        let mut v_i = vec![0.0f32; a];
        let mut partial = vec![0.0f32; a];
        self.embed_feature_into(self.feature(item), &mut v_i, &mut partial);
        let s = dot_blocked(self.static_score_term(item), self.user(user), self.item(item));
        dot_blocked(s, self.alpha(user), &v_i)
    }

    fn score_into(&self, user: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.num_items, "score buffer length mismatch");
        let a = self.config.visual_factors;
        let pu = self.user(user);
        let alpha = self.alpha(user);
        let mut v_i = vec![0.0f32; a];
        let mut partial = vec![0.0f32; a];
        for (i, slot) in out.iter_mut().enumerate() {
            self.embed_feature_into(self.feature(i), &mut v_i, &mut partial);
            let s = dot_blocked(self.static_score_term(i), pu, self.item(i));
            *slot = dot_blocked(s, alpha, &v_i);
        }
    }

    fn scoring_version(&self) -> u64 {
        self.version
    }

    fn catalog_plan(&self) -> CatalogPlan {
        let (ni, d) = (self.num_items, self.feature_dim);
        let (k, a) = (self.config.factors, self.config.visual_factors);
        let features = tensor_2d(self.features.clone(), ni, d);
        // V = F·E — every item's visual embedding in one GEMM.
        let projection = tensor_2d(self.projection.clone(), d, a);
        let mut visual_items = Tensor::zeros(&[ni, a]);
        // b_vis = F·β — the per-item visual bias term in one GEMM.
        let beta = tensor_2d(self.visual_bias.clone(), d, 1);
        let mut b_vis = Tensor::zeros(&[ni, 1]);
        with_gemm_scratch(|scratch| {
            scoring_gemm(&features, &projection, Transpose::No, 0.0, &mut visual_items, scratch);
            scoring_gemm(&features, &beta, Transpose::No, 0.0, &mut b_vis, scratch);
        });
        let static_term: Vec<f32> =
            self.item_bias.iter().zip(b_vis.as_slice()).map(|(&b, &bv)| b + bv).collect();
        // Term order must match `score`: collaborative p·q first, then the
        // visual α·(E f) pathway.
        CatalogPlan::gemm(self.num_users, ni, static_term)
            .with_term(&self.item_factors, k)
            .with_term(visual_items.as_slice(), a)
    }

    fn user_term_rows(&self, term: usize, users: std::ops::Range<usize>) -> &[f32] {
        match term {
            0 => {
                let k = self.config.factors;
                &self.user_factors[users.start * k..users.end * k]
            }
            1 => {
                let a = self.config.visual_factors;
                &self.visual_user_factors[users.start * a..users.end * a]
            }
            _ => &[],
        }
    }
}

impl VisualRecommender for Vbpr {
    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn item_feature(&self, item: usize) -> &[f32] {
        self.feature(item)
    }

    fn set_item_feature(&mut self, item: usize, feature: &[f32]) {
        assert!(item < self.num_items, "item {item} out of range");
        assert_eq!(feature.len(), self.feature_dim, "feature dimension mismatch");
        self.features[item * self.feature_dim..(item + 1) * self.feature_dim]
            .copy_from_slice(feature);
        self.version = self.version.wrapping_add(1);
    }

    fn score_feature_grad(&self, user: usize, item: usize) -> Vec<f32> {
        assert!(user < self.num_users, "user {user} out of range");
        assert!(item < self.num_items, "item {item} out of range");
        // ∂ŝ/∂f_i[d] = E[d,·]·α_u + β[d]; the VBPR score is linear in f_i,
        // so the item argument only participates in the range check.
        let a = self.config.visual_factors;
        let alpha = self.alpha(user);
        let mut grad = vec![0.0f32; self.feature_dim];
        for (dd, g) in grad.iter_mut().enumerate() {
            let row = &self.projection[dd * a..(dd + 1) * a];
            let e_alpha: f32 = row.iter().zip(alpha).map(|(&e, &al)| e * al).sum();
            *g = e_alpha + self.visual_bias[dd];
        }
        grad
    }
}

impl PairwiseModel for Vbpr {
    fn sgd_step(&mut self, t: &Triplet, lr: f32) -> f32 {
        let f_i = self.feature(t.positive).to_vec();
        let f_j = self.feature(t.negative).to_vec();
        self.sgd_step_with_features(t, &f_i, &f_j, lr, 1.0)
    }

    fn is_finite_state(&self) -> bool {
        self.user_factors
            .iter()
            .chain(&self.item_factors)
            .chain(&self.visual_user_factors)
            .chain(&self.projection)
            .chain(&self.visual_bias)
            .chain(&self.item_bias)
            .all(|v| v.is_finite())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{PairwiseConfig, PairwiseTrainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taamr_data::ImplicitDataset;

    /// A dataset where preference is driven by a 1-hot "visual" feature:
    /// users consume items whose feature matches their community.
    pub(crate) fn visual_dataset() -> (ImplicitDataset, Vec<f32>, usize) {
        let d = 4usize;
        let num_items = 16;
        // Items 0..8 have feature e0, items 8..16 have feature e1.
        let mut features = vec![0.0f32; num_items * d];
        for i in 0..num_items {
            if i < 8 {
                features[i * d] = 1.0;
            } else {
                features[i * d + 1] = 1.0;
            }
        }
        let mut users = Vec::new();
        for u in 0..12usize {
            if u < 6 {
                users.push(vec![0, 1, 2, 3]); // e0 community, items 4..8 held out
            } else {
                users.push(vec![8, 9, 10, 11]); // e1 community
            }
        }
        (ImplicitDataset::new(users, vec![0; num_items], 1), features, d)
    }

    #[test]
    fn training_generalises_through_visual_features() {
        let (data, features, d) = visual_dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Vbpr::new(
            data.num_users(),
            data.num_items(),
            d,
            features,
            VbprConfig { factors: 4, visual_factors: 4, reg: 1e-4 },
            &mut rng,
        );
        let trainer = PairwiseTrainer::new(PairwiseConfig {
            epochs: 60,
            triplets_per_epoch: Some(200),
            lr: 0.1,
        });
        let losses = trainer.fit(&mut model, &data, &mut rng).unwrap();
        assert!(losses.last().unwrap() < &losses[0]);
        // User 0 never saw items 4..8, but they share the community feature:
        // VBPR should score them above the other community's unseen items.
        let unseen_same: f32 = (4..8).map(|i| model.score(0, i)).sum();
        let unseen_other: f32 = (12..16).map(|i| model.score(0, i)).sum();
        assert!(
            unseen_same > unseen_other,
            "visual generalisation failed: {unseen_same} vs {unseen_other}"
        );
    }

    #[test]
    fn swapping_features_changes_scores_and_ranking() {
        let (data, features, d) = visual_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = Vbpr::new(
            data.num_users(),
            data.num_items(),
            d,
            features,
            VbprConfig { factors: 4, visual_factors: 4, reg: 1e-4 },
            &mut rng,
        );
        let trainer = PairwiseTrainer::new(PairwiseConfig {
            epochs: 40,
            triplets_per_epoch: Some(200),
            lr: 0.1,
        });
        trainer.fit(&mut model, &data, &mut rng).unwrap();
        // Give item 12 (other community) the community-0 feature: its score
        // for user 0 must rise — this is the TAaMR mechanism in miniature.
        let before = model.score(0, 12);
        let mut stolen = vec![0.0f32; d];
        stolen[0] = 1.0;
        model.set_item_feature(12, &stolen);
        let after = model.score(0, 12);
        assert!(after > before, "feature swap should raise the score: {before} -> {after}");
        assert_eq!(model.item_feature(12), stolen.as_slice());
    }

    #[test]
    fn score_all_matches_pointwise_scores() {
        let (data, features, d) = visual_dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let model = Vbpr::new(
            data.num_users(),
            data.num_items(),
            d,
            features,
            VbprConfig::default(),
            &mut rng,
        );
        let all = model.score_all(3);
        for (i, &s) in all.iter().enumerate().take(data.num_items()) {
            assert_eq!(s.to_bits(), model.score(3, i).to_bits(), "item {i}");
        }
    }

    #[test]
    fn canonical_score_tracks_training_scorer() {
        // `score` (engine order) and `score_with_feature` (training order)
        // sum the same four terms with different association — equal up to
        // rounding, and that is all the qualitative tests rely on.
        let (data, features, d) = visual_dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let model = Vbpr::new(
            data.num_users(),
            data.num_items(),
            d,
            features,
            VbprConfig::default(),
            &mut rng,
        );
        for u in 0..data.num_users() {
            for i in 0..data.num_items() {
                let canonical = model.score(u, i);
                let training = model.score_with_feature(u, i, model.feature(i));
                assert!(
                    (canonical - training).abs() <= 1e-5 * (1.0 + training.abs()),
                    "user {u} item {i}: {canonical} vs {training}"
                );
            }
        }
    }

    #[test]
    fn mutations_bump_the_scoring_version() {
        let (data, features, d) = visual_dataset();
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = Vbpr::new(
            data.num_users(),
            data.num_items(),
            d,
            features,
            VbprConfig { factors: 4, visual_factors: 4, reg: 1e-4 },
            &mut rng,
        );
        assert_eq!(model.scoring_version(), 0);
        let t = taamr_data::Triplet { user: 0, positive: 1, negative: 12 };
        model.sgd_step(&t, 0.05);
        assert_eq!(model.scoring_version(), 1);
        model.set_item_feature(0, &vec![0.5; d]);
        assert_eq!(model.scoring_version(), 2);
    }

    #[test]
    fn feature_gradient_matches_finite_differences() {
        let (data, features, d) = visual_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = Vbpr::new(
            data.num_users(),
            data.num_items(),
            d,
            features,
            VbprConfig { factors: 4, visual_factors: 4, reg: 0.0 },
            &mut rng,
        );
        // A couple of training steps so parameters are not at init noise.
        let t = taamr_data::Triplet { user: 0, positive: 1, negative: 12 };
        for _ in 0..5 {
            let f_i = model.feature(1).to_vec();
            let f_j = model.feature(12).to_vec();
            model.sgd_step_with_features(&t, &f_i, &f_j, 0.05, 1.0);
        }
        let analytic = model.loss_feature_grad(&t);
        let eps = 1e-3f32;
        let loss_of = |m: &Vbpr, fi: &[f32]| -> f32 {
            let x = m.score_with_feature(t.user, t.positive, fi)
                - m.score(t.user, t.negative);
            bpr_loss_and_coeff(x).0
        };
        let base_feature = model.feature(1).to_vec();
        for dd in 0..d {
            let mut fp = base_feature.clone();
            fp[dd] += eps;
            let mut fm = base_feature.clone();
            fm[dd] -= eps;
            let numeric = (loss_of(&model, &fp) - loss_of(&model, &fm)) / (2.0 * eps);
            assert!(
                (analytic[dd] - numeric).abs() < 1e-3,
                "dim {dd}: {} vs {numeric}",
                analytic[dd]
            );
        }
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn set_feature_validates_length() {
        let (data, features, d) = visual_dataset();
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = Vbpr::new(
            data.num_users(),
            data.num_items(),
            d,
            features,
            VbprConfig::default(),
            &mut rng,
        );
        model.set_item_feature(0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "num_items × feature_dim")]
    fn constructor_validates_feature_length() {
        Vbpr::new(2, 3, 4, vec![0.0; 10], VbprConfig::default(), &mut StdRng::seed_from_u64(0));
    }
}
