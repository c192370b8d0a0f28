//! Seeded input generators for every workload.
//!
//! Everything the system under test receives — master seeds, user streams,
//! the swap/kill schedule and the swapped model versions — is generated
//! here from the workload seed alone, so the same `--seed` always yields
//! the same inputs. The system only ever sees the generated values, never
//! the seed.

use rand::SeedableRng;
use taamr_recsys::BprMf;

/// SplitMix64: a tiny, well-mixed generator for deriving seeds and streams.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no modulo bias.
    pub fn below(&mut self, n: usize) -> usize {
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }
}

/// A seed derived from `seed` for a named purpose, so streams that share a
/// workload seed stay independent of each other.
pub fn derive(seed: u64, purpose: &str) -> u64 {
    let mut h = taamr_replay::Fnv::new();
    h.u64(seed).str(purpose);
    SplitMix::new(h.finish()).next_u64()
}

/// The master seeds a `paper_tiny` run cycles through, used as-is.
pub fn paper_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix::new(derive(seed, "paper-seeds"));
    (0..count).map(|_| rng.next_u64()).collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut SplitMix, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm
}

/// The `serve_uniform` user stream: a seeded permutation of the user space,
/// so no user repeats within a run.
pub fn uniform_users(seed: u64, num_users: usize) -> Vec<usize> {
    permutation(&mut SplitMix::new(derive(seed, "uniform-users")), num_users)
}

/// A Zipf(`s`) distribution over `num_users` users. Rank `k` (0-based)
/// has weight `1 / (k + 1)^s`; ranks map to user ids through a seeded
/// permutation, so the hot users are scattered over the id space.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    users: Vec<usize>,
}

impl Zipf {
    pub fn new(seed: u64, num_users: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=num_users).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let users = permutation(&mut SplitMix::new(derive(seed, "zipf-ranks")), num_users);
        Zipf { cdf, users }
    }

    /// Smallest number of top-ranked users that carries `mass` of the
    /// request probability.
    #[cfg(test)]
    pub fn hot_set_size(&self, mass: f64) -> usize {
        self.cdf.partition_point(|&c| c < mass) + 1
    }

    /// `count` users drawn from the distribution.
    pub fn stream(&self, seed: u64, count: usize) -> Vec<usize> {
        let mut rng = SplitMix::new(derive(seed, "zipf-stream"));
        (0..count)
            .map(|_| {
                let u = rng.next_f64();
                let rank = self
                    .cdf
                    .partition_point(|&c| c <= u)
                    .min(self.users.len() - 1);
                self.users[rank]
            })
            .collect()
    }
}

/// A write beside the reads on `serve_zipf_churn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// `Supervisor::swap` to the given model version.
    Swap { version: u64 },
    /// `Supervisor::kill` of the slot's actor.
    Kill,
}

/// The churn schedule of one pass: two swaps and two kills at fixed
/// fractions of the step that carries them, alternating kinds, with the
/// seed choosing which kind goes first. Swapped versions are numbered from
/// `first_version`.
pub fn churn_plan(seed: u64, pass: usize, first_version: u64) -> Vec<(f64, Churn)> {
    let mut rng = SplitMix::new(derive(seed, &format!("churn-{pass}")));
    let swap_first = rng.next_u64() & 1 == 0;
    let mut version = first_version;
    [0.15, 0.35, 0.55, 0.75]
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            if (i % 2 == 0) == swap_first {
                version += 1;
                (
                    at,
                    Churn::Swap {
                        version: version - 1,
                    },
                )
            } else {
                (at, Churn::Kill)
            }
        })
        .collect()
}

/// Seed of served model version `version` (version 1 is the initial slot).
fn version_seed(seed: u64, version: u64) -> u64 {
    derive(seed, &format!("model-version-{version}"))
}

/// The served BPR-MF model at `version`.
pub fn bpr_version(seed: u64, version: u64, users: usize, items: usize, factors: usize) -> BprMf {
    let mut rng = rand::rngs::StdRng::seed_from_u64(version_seed(seed, version));
    BprMf::new(users, items, factors, &mut rng)
}

/// Per-user consumed items excluded from recommendation lists: `per_user`
/// distinct items each, sorted.
pub fn seen_lists(seed: u64, users: usize, items: usize, per_user: usize) -> Vec<Vec<usize>> {
    let mut rng = SplitMix::new(derive(seed, "seen"));
    (0..users)
        .map(|_| {
            let mut seen: Vec<usize> = Vec::with_capacity(per_user);
            while seen.len() < per_user.min(items) {
                let i = rng.below(items);
                if !seen.contains(&i) {
                    seen.push(i);
                }
            }
            seen.sort_unstable();
            seen
        })
        .collect()
}

/// Row-major `rows × dim` features in `[0, 1)`.
pub fn features(seed: u64, rows: usize, dim: usize) -> Vec<f32> {
    let mut rng = SplitMix::new(derive(seed, "features"));
    (0..rows * dim).map(|_| rng.next_f64() as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use taamr_serve::SupervisorConfig;

    #[test]
    fn paper_seed_list_is_a_pure_function_of_the_seed() {
        assert_eq!(paper_seeds(7, 8), paper_seeds(7, 8));
        assert_ne!(paper_seeds(7, 8), paper_seeds(8, 8));
        let distinct: HashSet<u64> = paper_seeds(7, 8).into_iter().collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn uniform_stream_is_seeded_and_never_repeats_a_user() {
        let a = uniform_users(3, 20_000);
        assert_eq!(a, uniform_users(3, 20_000));
        assert_ne!(a, uniform_users(4, 20_000));
        let distinct: HashSet<usize> = a.iter().copied().collect();
        assert_eq!(distinct.len(), a.len());
        assert!(a.iter().all(|&u| u < 20_000));
    }

    #[test]
    fn zipf_stream_is_seeded_and_its_hot_set_fits_the_cache() {
        let zipf = Zipf::new(11, 20_000, 1.1);
        let a = zipf.stream(11, 50_000);
        assert_eq!(a, Zipf::new(11, 20_000, 1.1).stream(11, 50_000));
        assert_ne!(a, Zipf::new(12, 20_000, 1.1).stream(12, 50_000));
        assert!(a.iter().all(|&u| u < 20_000));
        // The users carrying 90% of the requests fit the default result
        // cache, so the mix reads mostly from it.
        let capacity = SupervisorConfig::new("unused").cache_capacity;
        let hot = zipf.hot_set_size(0.9);
        assert!(
            hot <= capacity,
            "hot set {hot} exceeds cache capacity {capacity}"
        );
        // Empirically too: the `capacity` most requested users take >= 85%.
        let mut counts = std::collections::HashMap::new();
        for &u in &a {
            *counts.entry(u).or_insert(0usize) += 1;
        }
        let mut by_count: Vec<usize> = counts.into_values().collect();
        by_count.sort_unstable_by(|x, y| y.cmp(x));
        let top: usize = by_count.iter().take(capacity).sum();
        assert!(
            top as f64 >= 0.85 * a.len() as f64,
            "top {capacity} users took {top}"
        );
    }

    #[test]
    fn churn_schedule_is_seeded_and_alternates_swap_and_kill() {
        for pass in 0..4 {
            let plan = churn_plan(5, pass, 2);
            assert_eq!(plan, churn_plan(5, pass, 2));
            let kinds: Vec<bool> = plan.iter().map(|e| e.1 == Churn::Kill).collect();
            assert_eq!(kinds.len(), 4);
            assert!(kinds.windows(2).all(|w| w[0] != w[1]), "kinds alternate");
            let swaps: Vec<Churn> = plan
                .iter()
                .map(|e| e.1)
                .filter(|e| *e != Churn::Kill)
                .collect();
            assert_eq!(
                swaps,
                [Churn::Swap { version: 2 }, Churn::Swap { version: 3 }]
            );
            assert!(plan.windows(2).all(|w| w[0].0 < w[1].0));
        }
        let firsts: HashSet<bool> = (0..16)
            .map(|s| churn_plan(s, 0, 2)[0].1 == Churn::Kill)
            .collect();
        assert_eq!(firsts.len(), 2, "both orders occur across seeds");
    }

    #[test]
    fn swapped_model_versions_are_seeded_and_distinct() {
        let v2 = bpr_version(9, 2, 50, 80, 4);
        assert_eq!(
            v2.artifact_hash(),
            bpr_version(9, 2, 50, 80, 4).artifact_hash()
        );
        assert_ne!(
            v2.artifact_hash(),
            bpr_version(9, 3, 50, 80, 4).artifact_hash()
        );
        assert_ne!(
            v2.artifact_hash(),
            bpr_version(10, 2, 50, 80, 4).artifact_hash()
        );
    }

    #[test]
    fn seen_lists_are_seeded_sorted_and_distinct() {
        let seen = seen_lists(2, 100, 40, 5);
        assert_eq!(seen, seen_lists(2, 100, 40, 5));
        for list in &seen {
            assert_eq!(list.len(), 5);
            assert!(list.windows(2).all(|w| w[0] < w[1]));
            assert!(list.iter().all(|&i| i < 40));
        }
    }
}
