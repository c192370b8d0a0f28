//! Differential tests of top-N selection.
//!
//! `top_n_with` is a threshold scan over packed order keys. These tests
//! hold it to the earlier selection algorithm, kept here as an oracle: a
//! vector of every non-excluded candidate, `select_nth_unstable_by` on an
//! indirect score comparator, and a sort of the selected prefix. On
//! NaN-free rows the two must return bitwise-equal lists. Rows with NaN are
//! checked against a full sort under the documented order (NaN below every
//! number, ties by index), which the old comparator did not define.

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taamr_recsys::{item_rank, item_rank_with, top_n_indices, top_n_with, SelectionScratch};

/// The pre-threshold-scan `top_n_with`: candidates, partial selection on an
/// indirect comparator, exact sort of the prefix. Defined for NaN-free rows.
fn oracle_top_n(scores: &[f32], n: usize, exclude: &[usize]) -> Vec<usize> {
    let by_score_desc = |&a: &usize, &b: &usize| {
        scores[b].partial_cmp(&scores[a]).unwrap_or(Ordering::Equal).then(a.cmp(&b))
    };
    let mut candidates: Vec<usize> =
        (0..scores.len()).filter(|i| !exclude.contains(i)).collect();
    let take = n.min(candidates.len());
    if take == 0 {
        return Vec::new();
    }
    candidates.select_nth_unstable_by(take - 1, by_score_desc);
    let top = &mut candidates[..take];
    top.sort_unstable_by(by_score_desc);
    top.to_vec()
}

/// The documented order on scores: descending, NaN below every number,
/// `-0.0 == +0.0`.
fn score_desc(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.partial_cmp(&a).unwrap_or(Ordering::Equal),
    }
}

/// Full-sort reference under the documented order, NaN rows included.
fn sorted_top_n(scores: &[f32], n: usize, exclude: &[usize]) -> Vec<usize> {
    let mut all: Vec<usize> = (0..scores.len()).filter(|i| !exclude.contains(i)).collect();
    all.sort_by(|&a, &b| score_desc(scores[a], scores[b]).then(a.cmp(&b)));
    all.truncate(n);
    all
}

#[derive(Clone, Copy, Debug)]
enum Row {
    /// Continuous values, almost never tied.
    Continuous,
    /// A few integer levels, like Popularity's interaction counts.
    Levels(u32),
    /// Levels mixed with `±0.0` and `±inf`.
    Specials,
    /// Specials plus NaN.
    WithNan,
}

fn row(rng: &mut StdRng, kind: Row, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match kind {
            Row::Continuous => rng.gen_range(-10.0f32..10.0),
            Row::Levels(k) => rng.gen_range(0..k) as f32,
            Row::Specials | Row::WithNan => match rng.gen_range(0..9) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 if matches!(kind, Row::WithNan) => f32::NAN,
                _ => rng.gen_range(-2i32..3) as f32,
            },
        })
        .collect()
}

/// Unsorted, duplicated exclusions, some past the end of the row.
fn exclusions(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let count = rng.gen_range(0..=len / 3 + 2);
    (0..count).map(|_| rng.gen_range(0..len + 4)).collect()
}

/// The `n` values the cases must cover for a row of `len` items.
fn sizes(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let mut ns = vec![1, len.saturating_sub(1).max(1), len.max(1), len + rng.gen_range(1..5)];
    ns.push(rng.gen_range(1..=len + 1));
    ns
}

fn check(
    scores: &[f32],
    n: usize,
    exclude: &[usize],
    scratch: &mut SelectionScratch,
    reference: fn(&[f32], usize, &[usize]) -> Vec<usize>,
) {
    let got = top_n_with(scores, n, exclude, scratch);
    let want = reference(scores, n, exclude);
    assert_eq!(got, want, "scores {scores:?}, n {n}, exclude {exclude:?}");
    assert_eq!(top_n_indices(scores, n, exclude), got);
}

#[test]
fn matches_oracle_on_nan_free_rows() {
    let mut rng = StdRng::seed_from_u64(0x005e_1ec7);
    let mut scratch = SelectionScratch::new();
    let kinds = [Row::Continuous, Row::Levels(2), Row::Levels(5), Row::Specials];
    for case in 0..4000 {
        let kind = kinds[case % kinds.len()];
        // About one case in 48 is an empty row.
        let len = rng.gen_range(0..48);
        let scores = row(&mut rng, kind, len);
        let exclude = exclusions(&mut rng, len);
        for n in sizes(&mut rng, len) {
            check(&scores, n, &exclude, &mut scratch, oracle_top_n);
            check(&scores, n, &[], &mut scratch, oracle_top_n);
        }
    }
}

#[test]
fn matches_oracle_on_long_rows() {
    // Long rows at the serving and sweep ratios compact the buffer many
    // times; the best items often arrive after the threshold has risen.
    let mut rng = StdRng::seed_from_u64(0x0010_6e57);
    let mut scratch = SelectionScratch::new();
    for (case, kind) in [Row::Continuous, Row::Levels(7), Row::Specials].into_iter().enumerate() {
        for len in [200, 2000] {
            let scores = row(&mut rng, kind, len);
            let mut exclude: Vec<usize> = (0..10).map(|_| rng.gen_range(0..len)).collect();
            if case % 2 == 0 {
                exclude.sort_unstable();
                exclude.dedup();
            }
            for n in [1, 10, 100, len / 6, len - 1] {
                check(&scores, n, &exclude, &mut scratch, oracle_top_n);
            }
        }
    }
}

#[test]
fn ascending_and_descending_rows_match_oracle() {
    // Ascending rows raise the threshold at every compaction; descending
    // rows reject almost everything after the first one.
    let mut scratch = SelectionScratch::new();
    let up: Vec<f32> = (0..500).map(|i| i as f32).collect();
    let down: Vec<f32> = up.iter().rev().copied().collect();
    for scores in [&up, &down] {
        for n in [1, 3, 64, 499, 500, 501] {
            check(scores, n, &[0, 499, 250], &mut scratch, oracle_top_n);
        }
    }
}

#[test]
fn nan_rows_follow_the_documented_order() {
    let mut rng = StdRng::seed_from_u64(0xa4a4);
    let mut scratch = SelectionScratch::new();
    for _ in 0..2000 {
        let len = rng.gen_range(0..40);
        let scores = row(&mut rng, Row::WithNan, len);
        let exclude = exclusions(&mut rng, len);
        for n in sizes(&mut rng, len) {
            check(&scores, n, &exclude, &mut scratch, sorted_top_n);
        }
    }
}

#[test]
fn ranks_agree_with_full_lists() {
    let mut rng = StdRng::seed_from_u64(0x4a4e);
    let mut scratch = SelectionScratch::new();
    let kinds = [Row::Continuous, Row::Levels(3), Row::Specials, Row::WithNan];
    for case in 0..1000 {
        let len = rng.gen_range(0..30);
        let scores = row(&mut rng, kinds[case % kinds.len()], len);
        let exclude = exclusions(&mut rng, len);
        let full = top_n_with(&scores, len + 1, &exclude, &mut scratch);
        for (pos, &item) in full.iter().enumerate() {
            assert_eq!(item_rank_with(&scores, item, &exclude, &mut scratch), Some(pos + 1));
        }
        for item in 0..len + 2 {
            if !full.contains(&item) {
                assert_eq!(item_rank(&scores, item, &exclude), None);
            }
        }
    }
}
