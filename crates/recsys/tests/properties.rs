//! Property-based tests of the recommender layer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use taamr_data::ImplicitDataset;
use taamr_recsys::{
    item_rank, top_n_indices, BprMf, PairwiseConfig, PairwiseTrainer, Recommender, Vbpr,
    VbprConfig, VisualRecommender,
};

/// Scores with ties, `±0.0`, `±inf` and NaN alongside continuous values.
fn score() -> impl Strategy<Value = f32> {
    (0u8..10, -10.0f32..10.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::NAN,
        5 | 6 => x.round().clamp(-2.0, 2.0),
        _ => x,
    })
}

/// Whether item `a` ranks above item `b`: higher score first, NaN below
/// every number, `-0.0 == +0.0`, ties to the lower index.
fn ranks_above(scores: &[f32], a: usize, b: usize) -> bool {
    let (x, y) = (scores[a], scores[b]);
    match (x.is_nan(), y.is_nan()) {
        (false, true) => true,
        (true, false) => false,
        (true, true) => a < b,
        (false, false) => x > y || (x == y && a < b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn top_n_is_sorted_and_disjoint_from_excluded(
        scores in proptest::collection::vec(score(), 1..40),
        n in 1usize..10,
        exclude in proptest::collection::vec(0usize..40, 0..10)
    ) {
        let top = top_n_indices(&scores, n, &exclude);
        prop_assert!(top.len() <= n);
        // Sorted best-first, ties by index.
        for w in top.windows(2) {
            prop_assert!(ranks_above(&scores, w[0], w[1]));
        }
        // Disjoint from excluded, no duplicates.
        for &i in &top {
            prop_assert!(!exclude.contains(&i));
        }
        let mut dedup = top.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), top.len());
        // Nothing outside the list (and not excluded) beats the last entry.
        if let Some(&last) = top.last() {
            if top.len() == n {
                for i in 0..scores.len() {
                    if !exclude.contains(&i) && !top.contains(&i) {
                        prop_assert!(ranks_above(&scores, last, i));
                    }
                }
            }
        }
    }

    #[test]
    fn item_rank_agrees_with_top_n(
        scores in proptest::collection::vec(score(), 2..30),
    ) {
        // The item at rank r must appear at position r−1 of a long-enough
        // top-N (ties handled identically by construction).
        let n = scores.len();
        let top = top_n_indices(&scores, n, &[]);
        for (pos, &item) in top.iter().enumerate() {
            prop_assert_eq!(item_rank(&scores, item, &[]), Some(pos + 1));
        }
    }

    #[test]
    fn bpr_scores_are_finite_after_training(
        seed in 0u64..50,
        factors in 1usize..12
    ) {
        let d = ImplicitDataset::new(
            vec![vec![0, 1], vec![2, 3], vec![0, 3]],
            vec![0; 5],
            1,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = BprMf::new(d.num_users(), d.num_items(), factors, &mut rng);
        let trainer = PairwiseTrainer::new(PairwiseConfig {
            epochs: 5,
            triplets_per_epoch: Some(50),
            lr: 0.1,
        });
        trainer.fit(&mut model, &d, &mut rng).unwrap();
        for u in 0..d.num_users() {
            prop_assert!(model.score_all(u).iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn vbpr_feature_swap_only_affects_that_item(
        seed in 0u64..50,
        item in 0usize..5,
        feat in proptest::collection::vec(-1.0f32..1.0, 4)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let features: Vec<f32> = (0..5 * 4).map(|i| (i as f32 * 0.13).sin()).collect();
        let mut model = Vbpr::new(
            3,
            5,
            4,
            features,
            VbprConfig { factors: 2, visual_factors: 2, reg: 0.0 },
            &mut rng,
        );
        let before: Vec<Vec<f32>> = (0..3).map(|u| model.score_all(u)).collect();
        model.set_item_feature(item, &feat);
        let after: Vec<Vec<f32>> = (0..3).map(|u| model.score_all(u)).collect();
        for u in 0..3 {
            for i in 0..5 {
                if i != item {
                    prop_assert!(
                        (before[u][i] - after[u][i]).abs() < 1e-6,
                        "swap of item {} changed item {}", item, i
                    );
                }
            }
        }
        prop_assert_eq!(model.item_feature(item), feat.as_slice());
    }

    #[test]
    fn vbpr_score_all_matches_score(seed in 0u64..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let features: Vec<f32> = (0..6 * 3).map(|i| (i as f32 * 0.7).cos()).collect();
        let model = Vbpr::new(
            2,
            6,
            3,
            features,
            VbprConfig { factors: 2, visual_factors: 2, reg: 1e-4 },
            &mut rng,
        );
        for u in 0..2 {
            let all = model.score_all(u);
            for (i, &s) in all.iter().enumerate().take(6) {
                prop_assert!((s - model.score(u, i)).abs() < 1e-5);
            }
        }
    }
}
