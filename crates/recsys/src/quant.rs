//! Opt-in i8-quantized catalog scoring.
//!
//! A [`QuantizedPlan`] is an immutable, compressed snapshot of a
//! [`ScoringEngine`](crate::ScoringEngine)'s catalog plan: every item-side
//! factor row is quantized `f32 → i8` with one scale per item row
//! (symmetric, `max_abs / 127`), shrinking the item-embedding cache ~4× —
//! the difference between a 100k-item catalog plan fitting in L3 or not.
//! User rows are quantized per block at score time with one scale per user
//! row, products are accumulated in `f32` (the integer products are exact
//! in `f32` for every realistic latent dimension), and each term's
//! contribution is rescaled by `u_scale · i_scale` before being added to
//! the f32 static term.
//!
//! # Accuracy contract
//!
//! Quantized scores are **approximate** — nothing here is bitwise. The
//! meaningful metric is *top-N overlap* against the exact f32 path
//! ([`top_n_overlap`]), which the `scale_grid` suite pins a floor for and
//! the `scale_grid` bench reports per model family. What *is* exact:
//! determinism. Quantization is a pure element-wise function of the plan,
//! so quantized results are bitwise identical across thread counts and
//! shard plans, exactly like the f32 path.

use std::ops::Range;

use crate::recommend::top_n_with;
use crate::scoring::{stream_user_shards, PlanKind, ScoreBlock, StaleEngine};
use crate::shard::ShardPlan;
use crate::{CatalogPlan, Recommender};

/// One i8-quantized bilinear pathway: `num_items × dim` codes plus one
/// scale per item row.
#[derive(Debug, Clone)]
struct QuantTerm {
    dim: usize,
    /// Row-major `num_items × dim` quantized item factors.
    codes: Vec<i8>,
    /// Per-item-row dequantization scales.
    scales: Vec<f32>,
}

/// Symmetric per-row i8 quantization: `scale = max_abs / 127`,
/// `code = round(v / scale)`. An all-zero row gets scale 0 and zero codes.
fn quantize_row(row: &[f32], codes: &mut [i8]) -> f32 {
    let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        codes.fill(0);
        return 0.0;
    }
    let scale = max_abs / 127.0;
    for (c, &v) in codes.iter_mut().zip(row) {
        *c = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// An i8-quantized snapshot of one model version's catalog plan.
///
/// Built via [`ScoringEngine::quantized`](crate::ScoringEngine::quantized);
/// scoring entry points revalidate the model's version on every call, so a
/// stale snapshot surfaces as a typed [`StaleEngine`] exactly like the f32
/// engine.
#[derive(Debug, Clone)]
pub struct QuantizedPlan {
    version: u64,
    num_users: usize,
    num_items: usize,
    /// The user-independent term stays f32 — it is added once per score, so
    /// compressing it would cost accuracy for no memory win worth having.
    static_term: Vec<f32>,
    terms: Vec<QuantTerm>,
}

impl QuantizedPlan {
    /// Quantizes a catalog plan built at `version`; `None` when there are
    /// no factor matrices to compress — scalar (oracle) plans and
    /// zero-term static plans like popularity, whose exact path is already
    /// as small as scoring gets.
    pub(crate) fn from_plan(plan: &CatalogPlan, version: u64) -> Option<Self> {
        if plan.kind != PlanKind::Gemm || plan.terms.is_empty() {
            return None;
        }
        let terms = plan
            .terms
            .iter()
            .map(|t| {
                // The plan holds each term packed for the GEMM kernel;
                // item `i`'s factor row is column `i` of the packed operand.
                let (rows, dim) = (plan.num_items(), t.k());
                let mut codes = vec![0i8; rows * dim];
                let mut scales = vec![0.0f32; rows];
                let mut row = vec![0.0f32; dim];
                for i in 0..rows {
                    for (p, v) in row.iter_mut().enumerate() {
                        *v = t.at(p, i);
                    }
                    scales[i] = quantize_row(&row, &mut codes[i * dim..(i + 1) * dim]);
                }
                QuantTerm { dim, codes, scales }
            })
            .collect();
        Some(QuantizedPlan {
            version,
            num_users: plan.num_users(),
            num_items: plan.num_items(),
            static_term: plan.static_term.clone(),
            terms,
        })
    }

    /// The model version this snapshot was quantized from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of items the snapshot covers.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Bytes of quantized item-factor storage (codes + scales), the number
    /// to compare against [`QuantizedPlan::f32_factor_bytes`].
    pub fn factor_bytes(&self) -> usize {
        self.terms
            .iter()
            .map(|t| t.codes.len() + t.scales.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Bytes the same item factors occupy in the f32 plan
    /// (`4 · items · Σ dim`).
    pub fn f32_factor_bytes(&self) -> usize {
        self.terms.iter().map(|t| t.codes.len() * std::mem::size_of::<f32>()).sum()
    }

    fn check<M: Recommender + ?Sized>(&self, model: &M) -> Result<(), StaleEngine> {
        if model.scoring_version() != self.version
            || model.num_users() != self.num_users
            || model.num_items() != self.num_items
        {
            return Err(StaleEngine {
                cached: Some(self.version),
                live: model.scoring_version(),
            });
        }
        Ok(())
    }

    /// Approximate scores for a contiguous user block, same shape and
    /// buffer reuse as
    /// [`ScoringEngine::score_block`](crate::ScoringEngine::score_block).
    /// Deterministic (thread- and shard-invariant), *not* bitwise equal to
    /// the f32 path. Counted in the `quantized_score_blocks` telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`StaleEngine`] when the model mutated after this snapshot
    /// was quantized.
    ///
    /// # Panics
    ///
    /// Panics if `users` is out of range.
    pub fn score_block<M: Recommender + ?Sized>(
        &self,
        model: &M,
        users: Range<usize>,
        out: &mut ScoreBlock,
    ) -> Result<(), StaleEngine> {
        self.check(model)?;
        assert!(
            users.start <= users.end && users.end <= self.num_users,
            "user block {users:?} out of range for {} users",
            self.num_users
        );
        taamr_obs::incr(taamr_obs::Counter::QuantizedScoreBlocks);
        let b = users.len();
        let ni = self.num_items;
        out.users = users.clone();
        out.scores.reset_to_rows(&[b, ni], &self.static_term);
        let rows = out.scores.as_mut_slice();
        for (t, term) in self.terms.iter().enumerate() {
            let user_rows = model.user_term_rows(t, users.clone());
            assert_eq!(
                user_rows.len(),
                b * term.dim,
                "model returned a mis-sized user factor block for term {t}"
            );
            out.user_codes.resize(b * term.dim, 0);
            out.user_scales.resize(b, 0.0);
            for r in 0..b {
                out.user_scales[r] = quantize_row(
                    &user_rows[r * term.dim..(r + 1) * term.dim],
                    &mut out.user_codes[r * term.dim..(r + 1) * term.dim],
                );
            }
            for r in 0..b {
                let u_codes = &out.user_codes[r * term.dim..(r + 1) * term.dim];
                let u_scale = out.user_scales[r];
                if u_scale == 0.0 {
                    continue;
                }
                let row = &mut rows[r * ni..(r + 1) * ni];
                for (i, slot) in row.iter_mut().enumerate() {
                    let i_codes = &term.codes[i * term.dim..(i + 1) * term.dim];
                    // f32 accumulation of exact integer products.
                    let mut acc = 0.0f32;
                    for (&u, &v) in u_codes.iter().zip(i_codes) {
                        acc += f32::from(u) * f32::from(v);
                    }
                    *slot += acc * u_scale * term.scales[i];
                }
            }
        }
        Ok(())
    }

    /// Approximate top-`n` lists for every user under the default
    /// [`ShardPlan`]; compare against the f32 engine with [`top_n_overlap`].
    ///
    /// # Errors
    ///
    /// Returns [`StaleEngine`] when the model mutated after quantization.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn par_top_n_all<'a, M, F>(
        &self,
        model: &M,
        n: usize,
        seen_of: F,
    ) -> Result<Vec<Vec<usize>>, StaleEngine>
    where
        M: Recommender + ?Sized,
        F: Fn(usize) -> &'a [usize] + Sync,
    {
        self.par_top_n_all_sharded(model, n, seen_of, &ShardPlan::default_for(self.num_users))
    }

    /// [`QuantizedPlan::par_top_n_all`] streaming over an explicit
    /// [`ShardPlan`] — the same driver and memory bound as the f32 engine's
    /// sharded entry points.
    ///
    /// # Errors
    ///
    /// Returns [`StaleEngine`] when the model mutated after quantization.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `plan` does not cover the model's users.
    pub fn par_top_n_all_sharded<'a, M, F>(
        &self,
        model: &M,
        n: usize,
        seen_of: F,
        plan: &ShardPlan,
    ) -> Result<Vec<Vec<usize>>, StaleEngine>
    where
        M: Recommender + ?Sized,
        F: Fn(usize) -> &'a [usize] + Sync,
    {
        assert!(n > 0, "n must be positive");
        self.check(model)?;
        stream_user_shards(self.num_users, plan, |(block, sel), users| {
            self.score_block(model, users.clone(), block)?;
            Ok(users.map(|u| top_n_with(block.row(u), n, seen_of(u), sel)).collect())
        })
    }
}

/// Mean per-user overlap between two top-N result sets: 1.0 means identical
/// item sets (order ignored) for every user, 0.0 means disjoint. The
/// accuracy metric the quantized path is validated with.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn top_n_overlap(exact: &[Vec<usize>], approx: &[Vec<usize>]) -> f64 {
    assert_eq!(exact.len(), approx.len(), "top-N overlap needs one list per user on both sides");
    if exact.is_empty() {
        return 1.0;
    }
    let mut total = 0.0f64;
    for (e, a) in exact.iter().zip(approx) {
        let denom = e.len().max(a.len());
        if denom == 0 {
            total += 1.0;
            continue;
        }
        let hits = a.iter().filter(|i| e.contains(i)).count();
        total += hits as f64 / denom as f64;
    }
    total / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BprMf, ScoringEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> BprMf {
        BprMf::new(12, 40, 8, &mut StdRng::seed_from_u64(21))
    }

    #[test]
    fn quantize_row_round_trips_extremes() {
        let row = [1.0f32, -1.0, 0.5, 0.0];
        let mut codes = [0i8; 4];
        let scale = quantize_row(&row, &mut codes);
        assert_eq!(codes[0], 127);
        assert_eq!(codes[1], -127);
        assert!((f32::from(codes[2]) * scale - 0.5).abs() < scale);
        assert_eq!(codes[3], 0);
        let mut zeros = [0i8; 3];
        assert_eq!(quantize_row(&[0.0; 3], &mut zeros), 0.0);
        assert_eq!(zeros, [0; 3]);
    }

    #[test]
    fn quantized_scores_stay_close_to_f32() {
        let m = model();
        let engine = ScoringEngine::for_model(&m);
        let q = engine.quantized(&m).unwrap().expect("BPR-MF has a gemm plan");
        let mut exact = ScoreBlock::new();
        let mut approx = ScoreBlock::new();
        engine.score_block(&m, 0..12, &mut exact).unwrap();
        q.score_block(&m, 0..12, &mut approx).unwrap();
        for (u, row) in exact.rows() {
            let max_abs = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
            for (i, (&e, &a)) in row.iter().zip(approx.row(u)).enumerate() {
                // ~2/127 relative error budget per quantized factor pair.
                assert!(
                    (e - a).abs() <= 0.05 * max_abs.max(1.0),
                    "user {u} item {i}: {e} vs {a}"
                );
            }
        }
    }

    #[test]
    fn quantized_plan_is_deterministic_across_threads_and_shards() {
        let m = model();
        let engine = ScoringEngine::for_model(&m);
        let q = engine.quantized(&m).unwrap().unwrap();
        let base = q.par_top_n_all(&m, 5, |_| &[][..]).unwrap();
        for threads in [1usize, 2, 8] {
            for shard in [1usize, 5, 64] {
                let got = rayon::with_threads(threads, || {
                    q.par_top_n_all_sharded(&m, 5, |_| &[][..], &ShardPlan::new(12, shard))
                })
                .unwrap();
                assert_eq!(got, base, "threads={threads} shard={shard}");
            }
        }
    }

    #[test]
    fn stale_quantized_plan_is_a_typed_error() {
        let mut m = model();
        let engine = ScoringEngine::for_model(&m);
        let q = engine.quantized(&m).unwrap().unwrap();
        crate::PairwiseModel::sgd_step(
            &mut m,
            &taamr_data::Triplet { user: 0, positive: 1, negative: 2 },
            0.05,
        );
        let mut block = ScoreBlock::new();
        let err = q.score_block(&m, 0..1, &mut block).unwrap_err();
        assert_eq!(err.cached, Some(q.version()));
        assert!(q.par_top_n_all(&m, 3, |_| &[][..]).is_err());
    }

    #[test]
    fn factor_bytes_report_the_compression() {
        let m = model();
        let engine = ScoringEngine::for_model(&m);
        let q = engine.quantized(&m).unwrap().unwrap();
        // codes (1 B/entry) + scales vs 4 B/entry f32.
        assert_eq!(q.factor_bytes(), 40 * 8 + 40 * 4);
        assert!(q.factor_bytes() < 4 * 40 * 8);
    }

    #[test]
    fn overlap_metric_bounds() {
        let a = vec![vec![1, 2, 3], vec![4, 5, 6]];
        assert_eq!(top_n_overlap(&a, &a), 1.0);
        let b = vec![vec![7, 8, 9], vec![4, 5, 6]];
        assert_eq!(top_n_overlap(&a, &b), 0.5);
        assert_eq!(top_n_overlap(&[], &[]), 1.0);
    }
}
