//! Differential harness: packed-panel GEMM vs a canonical-order scalar model.
//!
//! The packed kernel in `taamr_tensor::gemm` promises more than approximate
//! correctness — it promises an exact, *fixed summation order*: for every
//! element `C[i,j]`, beta-scale first, then for each `GEMM_KC`-aligned block
//! of the shared dimension in ascending order, add a block partial sum
//! accumulated from zero over `p` ascending as `(alpha·op(A)[i,p])·op(B)[p,j]`.
//! That order depends only on `GEMM_KC` — never on the cache blocking, the
//! micro-tile, or the thread count.
//!
//! The reference model below replicates that contract with three nested
//! scalar loops and nothing else. If the two ever differ by a single bit on
//! any shape, transpose combination, or alpha/beta, either the kernel's
//! packing or its dispatch (including the AVX2 clone) broke the contract.

use proptest::prelude::*;
use taamr_tensor::{
    gemm, gemm_blocked, gemm_blocked_scheduled, gemm_packed, seeded_rng,
    GemmSchedule, GemmScratch, PackedB, Tensor, Transpose, GEMM_BLOCKING, GEMM_KC, NR,
};

/// Scalar model of the kernel's summation-order contract.
///
/// Deliberately mirrors the public semantics, not the implementation: beta
/// pre-scale (exact zero fill when `beta == 0`), early-out when
/// `alpha == 0` or any dimension is empty, then KC-blocked ascending
/// accumulation with alpha folded into the A operand.
fn reference_gemm(
    alpha: f32,
    a: &Tensor,
    ta: Transpose,
    b: &Tensor,
    tb: Transpose,
    beta: f32,
    c: &mut Tensor,
) {
    let (m, k) = match ta {
        Transpose::No => (a.dims()[0], a.dims()[1]),
        Transpose::Yes => (a.dims()[1], a.dims()[0]),
    };
    let n = match tb {
        Transpose::No => b.dims()[1],
        Transpose::Yes => b.dims()[0],
    };
    let at = |i: usize, p: usize| match ta {
        Transpose::No => a.at(&[i, p]),
        Transpose::Yes => a.at(&[p, i]),
    };
    let bt = |p: usize, j: usize| match tb {
        Transpose::No => b.at(&[p, j]),
        Transpose::Yes => b.at(&[j, p]),
    };

    if beta == 0.0 {
        for v in c.as_mut_slice() {
            *v = 0.0;
        }
    } else if beta != 1.0 {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    for i in 0..m {
        for j in 0..n {
            for p0 in (0..k).step_by(GEMM_KC) {
                let mut block = 0.0f32;
                for p in p0..(p0 + GEMM_KC).min(k) {
                    block += (alpha * at(i, p)) * bt(p, j);
                }
                let slot = i * n + j;
                c.as_mut_slice()[slot] += block;
            }
        }
    }
}

fn operand(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::rand_uniform(&[rows, cols], -2.0, 2.0, &mut seeded_rng(seed))
}

/// Bit patterns of a tensor's elements, for exact comparison with NaN safety.
fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Dimension pool stressing every boundary the blocking can mishandle:
/// empty, single, primes straddling `MR`/`NR`/`MC`, and sizes past `KC`.
const DIMS: &[usize] = &[0, 1, 2, 3, 5, 7, 8, 13, 16, 17, 31, 33, 64, 65, 131, 257];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_kernel_is_bitwise_identical_to_reference(
        m in proptest::sample::select(DIMS.to_vec()),
        k in proptest::sample::select(DIMS.to_vec()),
        n in proptest::sample::select(DIMS.to_vec()),
        ta in proptest::sample::select(vec![Transpose::No, Transpose::Yes]),
        tb in proptest::sample::select(vec![Transpose::No, Transpose::Yes]),
        alpha in proptest::sample::select(vec![0.0f32, 1.0, 0.5, -1.25]),
        beta in proptest::sample::select(vec![0.0f32, 1.0, 0.375, -0.5]),
        seed in 0u64..1000,
    ) {
        let a = match ta {
            Transpose::No => operand(m, k, seed),
            Transpose::Yes => operand(k, m, seed),
        };
        let b = match tb {
            Transpose::No => operand(k, n, seed + 1),
            Transpose::Yes => operand(n, k, seed + 1),
        };
        let c0 = operand(m, n, seed + 2);

        let mut got = c0.clone();
        gemm(alpha, &a, ta, &b, tb, beta, &mut got).expect("shapes are consistent");
        let mut want = c0.clone();
        reference_gemm(alpha, &a, ta, &b, tb, beta, &mut want);

        prop_assert!(
            bits(&got) == bits(&want),
            "kernel diverged from canonical order: m={} k={} n={} ta={:?} tb={:?} alpha={} beta={}",
            m, k, n, ta, tb, alpha, beta
        );
    }
}

/// The parallel schedules (row panels and column stripes) must also land on
/// the reference bits — partitioning may only move *where* work happens,
/// never the per-element accumulation sequence.
#[test]
fn parallel_schedules_match_reference_bitwise() {
    // (m, k, n): a cube that takes the row-panel path at 2 threads, and a
    // short-wide product that forces the column-stripe path at 8.
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (16, 144, 4096)] {
        for &(ta, tb) in
            &[(Transpose::No, Transpose::No), (Transpose::Yes, Transpose::No), (Transpose::No, Transpose::Yes)]
        {
            let a = match ta {
                Transpose::No => operand(m, k, 11),
                Transpose::Yes => operand(k, m, 11),
            };
            let b = match tb {
                Transpose::No => operand(k, n, 12),
                Transpose::Yes => operand(n, k, 12),
            };
            let c0 = operand(m, n, 13);

            let mut want = c0.clone();
            reference_gemm(0.75, &a, ta, &b, tb, 0.25, &mut want);

            for threads in [1usize, 2, 5, 8] {
                let mut got = c0.clone();
                rayon::with_threads(threads, || {
                    gemm(0.75, &a, ta, &b, tb, 0.25, &mut got).expect("shapes are consistent");
                });
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "threads={threads} m={m} k={k} n={n} ta={ta:?} tb={tb:?}"
                );
            }
        }
    }
}

/// The explicit packing schedules — shared `op(B)` arena vs per-task
/// packing — are pure work-placement choices. Both must land on the
/// reference bits for every shape, transpose combination, and thread
/// count, with and without a warm reused scratch.
#[test]
fn explicit_pack_schedules_match_reference_bitwise() {
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (16, 144, 4096)] {
        for &(ta, tb) in
            &[(Transpose::No, Transpose::No), (Transpose::Yes, Transpose::No), (Transpose::No, Transpose::Yes)]
        {
            let a = match ta {
                Transpose::No => operand(m, k, 21),
                Transpose::Yes => operand(k, m, 21),
            };
            let b = match tb {
                Transpose::No => operand(k, n, 22),
                Transpose::Yes => operand(n, k, 22),
            };
            let c0 = operand(m, n, 23);

            let mut want = c0.clone();
            reference_gemm(0.75, &a, ta, &b, tb, 0.25, &mut want);

            for schedule in [GemmSchedule::Auto, GemmSchedule::SharedPack, GemmSchedule::PerTaskPack] {
                // One scratch per schedule: the second thread count below
                // reuses a warm (already-grown) arena, pinning that reuse
                // never leaks stale panel data into the product.
                let mut scratch = GemmScratch::new();
                for threads in [1usize, 2, 8] {
                    let mut got = c0.clone();
                    rayon::with_threads(threads, || {
                        gemm_blocked_scheduled(
                            0.75, &a, ta, &b, tb, 0.25, &mut got, GEMM_BLOCKING, &mut scratch,
                            schedule,
                        )
                        .expect("shapes are consistent");
                    });
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "schedule={schedule:?} threads={threads} m={m} k={k} n={n} ta={ta:?} tb={tb:?}"
                    );
                }
            }
        }
    }
}

/// Tight packed length of a `k × n` operand: `Σ kcb · ceil(ncb/NR)·NR` over
/// its `KC × NC` slivers on the production blocking, written out as the sum
/// it is.
fn tight_len(k: usize, n: usize) -> usize {
    let bs = GEMM_BLOCKING;
    let mut len = 0;
    for jc in (0..n).step_by(bs.nc) {
        let ncb = bs.nc.min(n - jc);
        for pc in (0..k).step_by(bs.kc) {
            len += bs.kc.min(k - pc) * ncb.div_ceil(NR) * NR;
        }
    }
    len
}

/// A product against a once-packed `op(B)` must land on exactly the bits of
/// the per-call-packing kernel: `k` and `n` at 0, 1, a prime and past
/// `KC`/`NC`, row counts 1–5 (partial `MR` panels), both `op(B)`
/// transposes, nonzero alpha/beta, at 1/2/8 threads. One packed operand
/// serves every row count and thread count, as a scoring plan's does.
#[test]
fn prepacked_b_matches_per_call_packing_bitwise() {
    let ks = [0usize, 1, 7, 31, 257, 300];
    let ns = [0usize, 1, 13, 257, 600];
    let mut scratch = GemmScratch::new();
    for (ki, &k) in ks.iter().enumerate() {
        for (ni, &n) in ns.iter().enumerate() {
            for tb in [Transpose::No, Transpose::Yes] {
                let seed = (ki * 16 + ni) as u64 * 4;
                let b = match tb {
                    Transpose::No => operand(k, n, seed),
                    Transpose::Yes => operand(n, k, seed),
                };
                let dims = [b.dims()[0], b.dims()[1]];
                let packed = PackedB::new(b.as_slice(), dims, tb).expect("dims match");
                assert_eq!((packed.k(), packed.n()), (k, n));
                assert_eq!(packed.len(), tight_len(k, n), "k={k} n={n}");
                for m in 1..=5 {
                    let a = operand(m, k, seed + 1);
                    let c0 = operand(m, n, seed + 2);
                    let mut want = c0.clone();
                    gemm_blocked(
                        0.75, &a, Transpose::No, &b, tb, 0.25, &mut want, GEMM_BLOCKING,
                        &mut scratch,
                    )
                    .expect("shapes are consistent");
                    for threads in [1usize, 2, 8] {
                        let mut got = c0.clone();
                        rayon::with_threads(threads, || {
                            gemm_packed(0.75, &a, Transpose::No, &packed, 0.25, &mut got, &mut scratch)
                                .expect("shapes are consistent");
                        });
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "threads={threads} m={m} k={k} n={n} tb={tb:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The parallel grid engages only past a work threshold the small shapes
/// above stay under, so the catalog-scoring shape (many users, 20k items,
/// 32 factors) checks the threaded `gemm_packed` path against both the
/// per-call-packing schedules, `op(A)` transposed included.
#[test]
fn prepacked_b_matches_threaded_schedules_bitwise() {
    let (m, k, n) = (13usize, 32usize, 20_000usize);
    let items = operand(n, k, 41);
    let packed =
        PackedB::new(items.as_slice(), [n, k], Transpose::Yes).expect("dims match");
    for ta in [Transpose::No, Transpose::Yes] {
        let a = match ta {
            Transpose::No => operand(m, k, 42),
            Transpose::Yes => operand(k, m, 42),
        };
        let c0 = operand(m, n, 43);
        let mut want = c0.clone();
        gemm(1.5, &a, ta, &items, Transpose::Yes, -0.5, &mut want).expect("shapes are consistent");
        for threads in [1usize, 2, 8] {
            for schedule in [GemmSchedule::SharedPack, GemmSchedule::PerTaskPack] {
                let mut got = c0.clone();
                rayon::with_threads(threads, || {
                    gemm_blocked_scheduled(
                        1.5, &a, ta, &items, Transpose::Yes, -0.5, &mut got, GEMM_BLOCKING,
                        &mut GemmScratch::new(), schedule,
                    )
                    .expect("shapes are consistent");
                });
                assert_eq!(bits(&got), bits(&want), "schedule={schedule:?} threads={threads} ta={ta:?}");
            }
            let mut got = c0.clone();
            rayon::with_threads(threads, || {
                gemm_packed(1.5, &a, ta, &packed, -0.5, &mut got, &mut GemmScratch::new())
                    .expect("shapes are consistent");
            });
            assert_eq!(bits(&got), bits(&want), "gemm_packed threads={threads} ta={ta:?}");
        }
    }
}

/// `PackedB::at` reads `op(B)` back out of the panel layout, and a shape
/// that disagrees with the packed operand is a typed error.
#[test]
fn packed_b_reads_back_and_rejects_bad_shapes() {
    let b = operand(300, 270, 51);
    for tb in [Transpose::No, Transpose::Yes] {
        let packed = PackedB::new(b.as_slice(), [300, 270], tb).expect("dims match");
        for (p, j) in [(0usize, 0usize), (1, 16), (255, 255), (256, 17), (263, 259), (269, 269)] {
            let want = match tb {
                Transpose::No => b.at(&[p, j]),
                Transpose::Yes => b.at(&[j, p]),
            };
            assert_eq!(packed.at(p, j).to_bits(), want.to_bits(), "tb={tb:?} ({p}, {j})");
        }
    }
    assert!(PackedB::new(b.as_slice(), [300, 271], Transpose::No).is_err());
    let packed = PackedB::new(b.as_slice(), [300, 270], Transpose::No).expect("dims match");
    let mut c = Tensor::zeros(&[2, 270]);
    let short = operand(2, 299, 52);
    assert!(gemm_packed(1.0, &short, Transpose::No, &packed, 0.0, &mut c, &mut GemmScratch::new()).is_err());
}

/// The shared-pack schedule packs `op(B)` in the same tight layout: for a
/// single-user catalog product (1 × 32 × 20000) its scratch high-water mark
/// stays within 2× the tight size, so the arena holds the operand, not
/// `KC`-padded slivers of it.
#[test]
fn shared_pack_scratch_stays_near_tight_size() {
    let (m, k, n) = (1usize, 32usize, 20_000usize);
    let a = operand(m, k, 61);
    let items = operand(n, k, 62);
    let tight = tight_len(k, n);
    for threads in [2usize, 8] {
        let mut scratch = GemmScratch::new();
        let mut c = Tensor::zeros(&[m, n]);
        rayon::with_threads(threads, || {
            gemm_blocked_scheduled(
                1.0, &a, Transpose::No, &items, Transpose::Yes, 0.0, &mut c, GEMM_BLOCKING,
                &mut scratch, GemmSchedule::SharedPack,
            )
            .expect("shapes are consistent");
        });
        if rayon::serial_feature_enabled() {
            // The `serial` feature pins one thread: the per-task schedule
            // ran, whose scratch is a single KC × NC sliver pair.
            continue;
        }
        assert!(
            scratch.capacity() >= tight && scratch.capacity() <= 2 * tight,
            "threads={threads}: scratch {} floats for a {tight}-float packed operand",
            scratch.capacity()
        );
    }
}
