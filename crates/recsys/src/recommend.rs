//! Top-N selection utilities.
//!
//! The selection primitives come in two layers: the original allocating
//! entry points ([`top_n_indices`] / [`item_rank`]) and allocation-free
//! `_with` variants that reuse a caller-owned [`SelectionScratch`]. The
//! batched scoring engine ([`crate::ScoringEngine`]) drives the `_with`
//! variants with one scratch per worker thread, so full-catalog top-N
//! evaluation allocates only the output lists.
//!
//! # Order
//!
//! Every list and rank here follows one total order: score descending,
//! then index ascending. NaN ranks below every number, `-inf` included,
//! and NaNs break ties among themselves by index; `-0.0` ties with `+0.0`.
//!
//! Both functions compare packed `u64` keys. The high half is an
//! order-preserving map of the score: `-0.0` is canonicalised to `+0.0`,
//! a non-negative float gets its sign bit set, a negative one has all its
//! bits flipped, and NaN maps to 1, below `-inf`'s `0x007F_FFFF`. The low
//! half is `u32::MAX - index`. Descending `u64` order is then exactly
//! (score desc, index asc), and every comparison is one integer compare.
//!
//! # Threshold scan
//!
//! [`top_n_with`] makes one pass over the row in ascending index order and
//! keeps at most `2n` keys. When the buffer fills, `select_nth_unstable`
//! compacts it to the best `n`, and the score half of the `n`-th best key
//! becomes the admission threshold. From then on a score is admitted only
//! if its score key is strictly above the threshold. A score equal to the
//! threshold always loses: the scan runs in index order, so every held key
//! with that score has a lower index, and the candidate would rank below
//! the `n`-th best. Most scores are therefore rejected by one integer
//! compare. The pass ends with a sort of at most `n` keys.
//!
//! Exclusion lists are treated as sets. Already-sorted, duplicate-free
//! exclusion slices (which is what `ImplicitDataset::user_items` returns)
//! are consumed by a direct merge walk with no copying at all; unsorted
//! slices are normalised once into the scratch. The walk runs only for
//! candidates that pass the threshold, and its pointer only moves forward.

use crate::scoring::ScoringEngine;
use crate::Recommender;

/// Reusable buffers for [`top_n_with`] / [`item_rank_with`]. The buffers
/// grow to the high-water mark of `2n` and of the exclusion sizes and are
/// then reused, so steady-state selection performs no allocation (beyond
/// each returned top-N list itself).
#[derive(Debug, Default)]
pub struct SelectionScratch {
    /// Packed order keys of the best candidates held by the threshold scan.
    keys: Vec<u64>,
    /// Normalised (sorted, deduplicated) exclusions, used only when the
    /// caller's exclusion slice is not already strictly increasing.
    exclude: Vec<usize>,
}

impl SelectionScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        SelectionScratch::default()
    }
}

/// Returns `exclude` itself when it is already strictly increasing (sorted,
/// no duplicates), otherwise normalises it into `buf` and returns that.
fn normalised_exclude<'a>(exclude: &'a [usize], buf: &'a mut Vec<usize>) -> &'a [usize] {
    if exclude.windows(2).all(|w| w[0] < w[1]) {
        exclude
    } else {
        buf.clear();
        buf.extend_from_slice(exclude);
        buf.sort_unstable();
        buf.dedup();
        buf
    }
}

/// Score key of NaN: below the key of every number, above the scan's
/// initial admit-everything threshold of 0.
const NAN_KEY: u32 = 1;

/// Order-preserving map of a score onto `u32` (see the module docs).
#[inline]
fn score_key(s: f32) -> u32 {
    // `+ 0.0` turns `-0.0` into `+0.0` and leaves every other value alone.
    let bits = (s + 0.0).to_bits();
    // Negative: flip every bit. Non-negative: set the sign bit.
    let key = bits ^ (((bits as i32 >> 31) as u32) | (1 << 31));
    // A select, not an early return: the scan loop stays branch-free here.
    if s.is_nan() {
        NAN_KEY
    } else {
        key
    }
}

/// Packs a score key and an index so that descending key order is (score
/// desc, index asc). `index` must fit in `u32`.
#[inline]
fn pack(score_key: u32, index: usize) -> u64 {
    (u64::from(score_key) << 32) | u64::from(u32::MAX - index as u32)
}

#[inline]
fn unpack_index(key: u64) -> usize {
    (u32::MAX - key as u32) as usize
}

/// Panics unless every index of `scores` fits in the low half of a key.
fn check_row_len(scores: &[f32]) {
    assert!(scores.len() as u64 <= 1 << 32, "score rows are limited to 2^32 items");
}

/// Keeps the `n` largest of `keys` (unordered) and returns the score key of
/// the smallest kept one.
fn keep_best(keys: &mut Vec<u64>, n: usize) -> u32 {
    keys.select_nth_unstable_by(n - 1, |a, b| b.cmp(a));
    keys.truncate(n);
    (keys[n - 1] >> 32) as u32
}

/// Top-`n` recommendation lists for every user, computed on worker threads.
///
/// `seen_of(u)` supplies the items to exclude for user `u` (typically the
/// user's training interactions). Scoring runs through a
/// [`ScoringEngine`](crate::ScoringEngine) built for this call — batched
/// GEMM score blocks consumed by per-thread selection scratch — and the
/// output is identical to calling [`Recommender::top_n`] in a serial loop,
/// for every thread count. Callers evaluating the same model repeatedly
/// should hold a [`ScoringEngine`](crate::ScoringEngine) themselves and use
/// [`ScoringEngine::par_top_n_all`](crate::ScoringEngine::par_top_n_all) to
/// reuse the item-embedding cache across calls.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn par_top_n_all<'a, R, F>(model: &R, n: usize, seen_of: F) -> Vec<Vec<usize>>
where
    R: Recommender + ?Sized,
    F: Fn(usize) -> &'a [usize] + Sync,
{
    let engine = ScoringEngine::for_model(model);
    match engine.par_top_n_all(model, n, seen_of) {
        Ok(lists) => lists,
        // The engine was built for this call against a model borrowed for
        // the whole call, so staleness is unreachable.
        Err(e) => unreachable!("scoring engine stale under a shared model borrow: {e}"),
    }
}

/// Returns the indices of the `n` highest scores, excluding `exclude`,
/// ordered best-first. Ties break toward the lower index for determinism,
/// and NaN ranks below every number (see the module docs).
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Example
///
/// ```
/// use taamr_recsys::top_n_indices;
///
/// let scores = [0.1, 0.9, 0.5, 0.7];
/// assert_eq!(top_n_indices(&scores, 2, &[1]), vec![3, 2]);
/// ```
pub fn top_n_indices(scores: &[f32], n: usize, exclude: &[usize]) -> Vec<usize> {
    top_n_with(scores, n, exclude, &mut SelectionScratch::new())
}

/// [`top_n_indices`] writing its intermediates into a reusable
/// [`SelectionScratch`]. Semantics are identical.
///
/// # Panics
///
/// Panics if `n` is zero, or if `scores` holds more than 2^32 items.
pub fn top_n_with(
    scores: &[f32],
    n: usize,
    exclude: &[usize],
    scratch: &mut SelectionScratch,
) -> Vec<usize> {
    assert!(n > 0, "n must be positive");
    check_row_len(scores);
    let SelectionScratch { keys, exclude: exclude_buf } = scratch;
    let excluded = normalised_exclude(exclude, exclude_buf);
    keys.clear();
    let cap = n.saturating_mul(2);
    let mut threshold = 0;
    let mut e = 0;
    for (i, &s) in scores.iter().enumerate() {
        let key = score_key(s);
        if key <= threshold {
            continue;
        }
        while e < excluded.len() && excluded[e] < i {
            e += 1;
        }
        if e < excluded.len() && excluded[e] == i {
            continue;
        }
        keys.push(pack(key, i));
        if keys.len() == cap {
            threshold = keep_best(keys, n);
        }
    }
    if keys.len() > n {
        keep_best(keys, n);
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys.iter().map(|&k| unpack_index(k)).collect()
}

/// 1-based rank of `item` among all non-excluded items for the given score
/// vector (rank 1 = highest score), in the same order as [`top_n_indices`].
/// Returns `None` if `item` is excluded or out of range.
///
/// Used for the paper's Fig. 2 ("rec. position: 180th → 14th").
pub fn item_rank(scores: &[f32], item: usize, exclude: &[usize]) -> Option<usize> {
    item_rank_with(scores, item, exclude, &mut SelectionScratch::new())
}

/// [`item_rank`] writing its intermediates into a reusable
/// [`SelectionScratch`]. Semantics are identical.
pub fn item_rank_with(
    scores: &[f32],
    item: usize,
    exclude: &[usize],
    scratch: &mut SelectionScratch,
) -> Option<usize> {
    if item >= scores.len() {
        return None;
    }
    check_row_len(scores);
    let excluded = normalised_exclude(exclude, &mut scratch.exclude);
    if excluded.binary_search(&item).is_ok() {
        return None;
    }
    let target = pack(score_key(scores[item]), item);
    let mut e = 0;
    let mut better = 0;
    for (i, &s) in scores.iter().enumerate() {
        if pack(score_key(s), i) <= target {
            continue;
        }
        while e < excluded.len() && excluded[e] < i {
            e += 1;
        }
        if e < excluded.len() && excluded[e] == i {
            continue;
        }
        better += 1;
    }
    Some(better + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_best_first() {
        let scores = [0.3, 0.1, 0.9, 0.5];
        assert_eq!(top_n_indices(&scores, 3, &[]), vec![2, 3, 0]);
    }

    #[test]
    fn excludes_seen_items() {
        let scores = [0.3, 0.1, 0.9, 0.5];
        assert_eq!(top_n_indices(&scores, 2, &[2]), vec![3, 0]);
    }

    #[test]
    fn handles_fewer_candidates_than_n() {
        let scores = [0.3, 0.1];
        assert_eq!(top_n_indices(&scores, 5, &[1]), vec![0]);
        assert!(top_n_indices(&scores, 5, &[0, 1]).is_empty());
    }

    #[test]
    fn ties_break_to_lower_index() {
        let scores = [0.5, 0.5, 0.5];
        assert_eq!(top_n_indices(&scores, 2, &[]), vec![0, 1]);
    }

    #[test]
    fn unsorted_and_duplicated_exclusions_behave_as_a_set() {
        let scores = [0.3, 0.1, 0.9, 0.5, 0.2];
        let sorted = top_n_indices(&scores, 3, &[1, 3]);
        assert_eq!(top_n_indices(&scores, 3, &[3, 1, 3, 1]), sorted);
        assert_eq!(item_rank(&scores, 2, &[3, 1, 3]), item_rank(&scores, 2, &[1, 3]));
    }

    #[test]
    fn out_of_range_exclusions_are_ignored() {
        let scores = [0.3, 0.1, 0.9];
        assert_eq!(top_n_indices(&scores, 2, &[99]), vec![2, 0]);
        assert_eq!(item_rank(&scores, 0, &[99]), Some(2));
    }

    #[test]
    fn scratch_reuse_matches_fresh_calls() {
        let mut scratch = SelectionScratch::new();
        let a = [0.3, 0.1, 0.9, 0.5];
        let b = [0.9, 0.5, 0.7, 0.5, 0.1];
        assert_eq!(top_n_with(&a, 2, &[2, 0, 2], &mut scratch), top_n_indices(&a, 2, &[2, 0, 2]));
        assert_eq!(top_n_with(&b, 3, &[], &mut scratch), top_n_indices(&b, 3, &[]));
        assert_eq!(item_rank_with(&b, 3, &[4, 0], &mut scratch), item_rank(&b, 3, &[4, 0]));
    }

    #[test]
    fn rank_counts_strictly_better() {
        let scores = [0.9, 0.5, 0.7, 0.5];
        assert_eq!(item_rank(&scores, 0, &[]), Some(1));
        assert_eq!(item_rank(&scores, 2, &[]), Some(2));
        assert_eq!(item_rank(&scores, 1, &[]), Some(3)); // tie: index 1 < 3
        assert_eq!(item_rank(&scores, 3, &[]), Some(4));
    }

    #[test]
    fn nan_ranks_below_every_number() {
        let scores = [2.0, f32::NAN, 1.0, 3.0];
        assert_eq!(top_n_indices(&scores, 4, &[]), vec![3, 0, 2, 1]);
        let ranks: Vec<_> = (0..4).map(|i| item_rank(&scores, i, &[])).collect();
        assert_eq!(ranks, vec![Some(2), Some(4), Some(3), Some(1)]);
        let scores = [f32::NAN, f32::NEG_INFINITY, f32::NAN, -1.0];
        assert_eq!(top_n_indices(&scores, 4, &[]), vec![3, 1, 0, 2]);
        assert_eq!(top_n_indices(&scores, 3, &[1]), vec![3, 0, 2]);
        assert_eq!(item_rank(&scores, 0, &[]), Some(3));
        assert_eq!(item_rank(&scores, 2, &[]), Some(4));
        assert_eq!(item_rank(&scores, 2, &[0]), Some(3));
    }

    #[test]
    fn score_keys_preserve_order() {
        let ordered = [
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0,
            -f32::MIN_POSITIVE,
            -1e-45,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        assert!(NAN_KEY < score_key(f32::NEG_INFINITY));
        assert_eq!(score_key(f32::NAN), NAN_KEY);
        assert_eq!(score_key(-f32::NAN), NAN_KEY);
        assert_eq!(score_key(-0.0), score_key(0.0));
        for w in ordered.windows(2) {
            assert!(score_key(w[0]) < score_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(unpack_index(pack(7, 12)), 12);
        assert!(pack(7, 3) > pack(7, 4));
        assert!(pack(8, 4) > pack(7, 3));
    }

    #[test]
    fn rank_respects_exclusions() {
        let scores = [0.9, 0.5, 0.7];
        assert_eq!(item_rank(&scores, 1, &[0]), Some(2));
        assert_eq!(item_rank(&scores, 0, &[0]), None);
        assert_eq!(item_rank(&scores, 9, &[]), None);
    }

    #[test]
    fn rank_one_item_is_in_top_one() {
        let scores = [0.2, 0.8, 0.4];
        let top = top_n_indices(&scores, 1, &[]);
        assert_eq!(item_rank(&scores, top[0], &[]), Some(1));
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn zero_n_panics() {
        top_n_indices(&[1.0], 0, &[]);
    }

    #[test]
    fn par_top_n_matches_serial_loop() {
        use crate::BprMf;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let model = BprMf::new(9, 40, 4, &mut rng);
        let seen: Vec<Vec<usize>> = (0..9).map(|u| vec![u, (u + 3) % 40]).collect();
        let serial: Vec<Vec<usize>> =
            (0..9).map(|u| model.top_n(u, 5, &seen[u])).collect();
        for threads in [1usize, 2, 8] {
            let par = rayon::with_threads(threads, || {
                par_top_n_all(&model, 5, |u| seen[u].as_slice())
            });
            assert_eq!(par, serial, "thread count {threads}");
        }
    }
}
