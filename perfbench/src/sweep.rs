//! `sweep_catalog`: top-100 for every user, closed loop with one caller.
//!
//! One op is a sweep *round*: `ScoringEngine::par_top_n_all` over a
//! VBPR-shaped model (two GEMM terms) and then over `Popularity` (no GEMM
//! term), with more users than one default `ShardPlan` shard holds. This
//! is the contiguous `score_block` path that the serving mixes never take.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::SeedableRng;
use rayon::prelude::*;
use taamr_data::ImplicitDataset;
use taamr_recsys::{
    top_n_indices, top_n_with, Popularity, Recommender, ScoreBlock, ScoringEngine,
    SelectionScratch, ShardPlan, Vbpr, VbprConfig, SCORE_BLOCK_USERS,
};

use crate::gen::{self, SplitMix};
use crate::stats::{median, ratio};
use crate::trace::{Obs, Tracer};
use crate::{Args, Outcome};

/// Two default shards: 8192 + 1808 users.
const USERS: usize = 10_000;
const ITEMS: usize = 2_000;
const FEATURE_DIM: usize = 64;
const SEEN_PER_USER: usize = 10;
const N: usize = 100;
const SETUPS: usize = 15;
/// Users per model checked against the scalar reference.
const SAMPLED: usize = 64;
/// How far score + select busy time, per round, may stray from the threads'
/// share of `par_top_n_all`'s wall time per round.
const TOLERANCE: f64 = 0.15;

struct Catalog {
    vbpr: Vbpr,
    popularity: Popularity,
    seen: Vec<Vec<usize>>,
    vbpr_engine: ScoringEngine,
    popularity_engine: ScoringEngine,
}

/// Set-up: model generation and both engines' `ensure`.
fn set_up(seed: u64) -> Catalog {
    let seen = gen::seen_lists(seed, USERS, ITEMS, SEEN_PER_USER);
    let features = gen::features(seed, ITEMS, FEATURE_DIM);
    let mut rng = rand::rngs::StdRng::seed_from_u64(gen::derive(seed, "vbpr"));
    let vbpr = Vbpr::new(
        USERS,
        ITEMS,
        FEATURE_DIM,
        features,
        VbprConfig::default(),
        &mut rng,
    );
    let dataset = ImplicitDataset::new(seen.clone(), vec![0; ITEMS], 1);
    let popularity = Popularity::from_dataset(&dataset);
    let vbpr_engine = ScoringEngine::for_model(&vbpr);
    let popularity_engine = ScoringEngine::for_model(&popularity);
    Catalog {
        vbpr,
        popularity,
        seen,
        vbpr_engine,
        popularity_engine,
    }
}

fn sweep(
    engine: &ScoringEngine,
    model: &dyn Recommender,
    seen: &[Vec<usize>],
) -> Result<Vec<Vec<usize>>, String> {
    engine
        .par_top_n_all(model, N, |u| seen[u].as_slice())
        .map_err(|e| e.to_string())
}

/// The scoring gate: sampled users' lists equal the scalar
/// `top_n_indices` over `Recommender::score_all`.
fn reference_gate(
    lists: &[Vec<usize>],
    model: &dyn Recommender,
    seen: &[Vec<usize>],
    seed: u64,
) -> usize {
    let mut rng = SplitMix::new(gen::derive(seed, "sweep-sample"));
    (0..SAMPLED)
        .map(|_| rng.below(USERS))
        .filter(|&u| lists[u] != top_n_indices(&model.score_all(u), N, &seen[u]))
        .count()
}

/// `score_block` and `top_n_with` timed apart over the same shard and block
/// layout `par_top_n_all` uses: `(score busy, select busy)` seconds.
fn decompose(engine: &ScoringEngine, model: &dyn Recommender, seen: &[Vec<usize>]) -> (f64, f64) {
    let score_ns = AtomicU64::new(0);
    let select_ns = AtomicU64::new(0);
    for shard in ShardPlan::default_for(USERS).shards() {
        let blocks: Vec<Range<usize>> = shard
            .clone()
            .step_by(SCORE_BLOCK_USERS)
            .map(|s| s..(s + SCORE_BLOCK_USERS).min(shard.end))
            .collect();
        let _: Vec<()> = blocks
            .into_par_iter()
            .map_init(
                || (ScoreBlock::new(), SelectionScratch::new()),
                |(block, scratch), users| {
                    let a = Instant::now();
                    engine
                        .score_block(model, users.clone(), block)
                        .expect("engine is fresh");
                    let b = Instant::now();
                    for u in users {
                        std::hint::black_box(top_n_with(block.row(u), N, &seen[u], scratch));
                    }
                    let c = Instant::now();
                    score_ns.fetch_add((b - a).as_nanos() as u64, Ordering::Relaxed);
                    select_ns.fetch_add((c - b).as_nanos() as u64, Ordering::Relaxed);
                },
            )
            .collect();
    }
    (
        score_ns.into_inner() as f64 / 1e9,
        select_ns.into_inner() as f64 / 1e9,
    )
}

struct Pass {
    rounds: Vec<f64>,
    /// `par_top_n_all` wall time per round, both models.
    sweeps: Vec<f64>,
    elapsed: f64,
    failed: u64,
    attempted: u64,
    /// Decomposition totals (traced pass only): score and select busy time.
    parts: (f64, f64),
    /// Decomposed score + select busy time per round (traced pass only).
    busy: Vec<f64>,
}

fn pass(c: &Catalog, seconds: f64, pinned: &[u64; 2], tracer: &Tracer, decomposed: bool) -> Pass {
    let mut p = Pass {
        rounds: Vec::new(),
        sweeps: Vec::new(),
        elapsed: 0.0,
        failed: 0,
        attempted: 0,
        parts: (0.0, 0.0),
        busy: Vec::new(),
    };
    let models: [(&ScoringEngine, &dyn Recommender, &'static str); 2] = [
        (&c.vbpr_engine, &c.vbpr, "recsys.sweep.vbpr"),
        (
            &c.popularity_engine,
            &c.popularity,
            "recsys.sweep.popularity",
        ),
    ];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let round = p.rounds.len() as u64;
        let round_span = tracer.open("sweep.round", None, round);
        let t_round = Instant::now();
        let mut swept = 0.0;
        for (i, (engine, model, name)) in models.iter().enumerate() {
            p.attempted += 1;
            let t0 = Instant::now();
            let lists = sweep(engine, *model, &c.seen);
            let t1 = Instant::now();
            tracer.record(name, round_span, round, t0, t1);
            swept += (t1 - t0).as_secs_f64();
            // Every round must reproduce the gated first round exactly.
            if lists.map(|l| taamr_replay::hash_lists(&l)) != Ok(pinned[i]) {
                p.failed += 1;
            }
        }
        tracer.close(round_span);
        p.rounds.push(t_round.elapsed().as_secs_f64());
        p.sweeps.push(swept);
        if decomposed {
            let mut busy = 0.0;
            for (engine, model, _) in &models {
                let (s, l) = decompose(engine, *model, &c.seen);
                p.parts = (p.parts.0 + s, p.parts.1 + l);
                busy += s + l;
            }
            p.busy.push(busy);
        }
    }
    p.elapsed = start.elapsed().as_secs_f64();
    p
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut catalog = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let c = set_up(args.seed);
        let t1 = Instant::now();
        tracer.record("sweep.setup", None, i as u64, t0, t1);
        setups.push((t1 - t0).as_secs_f64());
        catalog = Some(c);
    }
    let c = catalog.expect("at least one set-up");
    out.e2e.insert("setup_s", median(&setups));

    // Gate, untimed: sampled lists equal the scalar reference; the lists'
    // hash pins every timed round.
    let mut pinned = [0u64; 2];
    for (i, (engine, model)) in [
        (&c.vbpr_engine, &c.vbpr as &dyn Recommender),
        (&c.popularity_engine, &c.popularity),
    ]
    .into_iter()
    .enumerate()
    {
        let lists = sweep(engine, model, &c.seen)?;
        let wrong = reference_gate(&lists, model, &c.seen, args.seed);
        out.gate(
            &format!("sweep lists equal the scalar reference (model {i})"),
            wrong == 0,
        );
        pinned[i] = taamr_replay::hash_lists(&lists);
    }

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = pass(&c, seconds, &pinned, &Tracer::new(false), false);
    let traced = args.trace.then(|| {
        taamr_obs::set_enabled(true);
        let before = Obs::now();
        let p = pass(&c, seconds, &pinned, tracer, true);
        let after = Obs::now();
        taamr_obs::set_enabled(false);
        (p, before, after)
    });
    for p in std::iter::once(&plain).chain(traced.as_ref().map(|t| &t.0)) {
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    out.gate(
        "every sweep round reproduces the gated lists",
        out.failed == 0,
    );

    let pairs_per_round = (2 * USERS * ITEMS) as f64;
    let pairs_per_s = ratio(plain.rounds.len() as f64 * pairs_per_round, plain.elapsed);
    out.e2e.insert("throughput_per_s", pairs_per_s);
    out.e2e
        .insert("latency_p50_us", median(&plain.rounds) * 1e6);
    out.note(format!(
        "sweep_pairs_per_s {pairs_per_s:.4e} ({} rounds of {USERS} users x {ITEMS} items x 2 models in {:.2} s; {} threads)",
        plain.rounds.len(),
        plain.elapsed,
        rayon::current_num_threads()
    ));

    if let Some((p, before, after)) = &traced {
        let rounds = p.rounds.len().max(1) as f64;
        let pairs = rounds * pairs_per_round;
        let (score, select) = p.parts;
        let threads = rayon::current_num_threads() as f64;
        out.layers
            .insert("recsys.block_score_ns", score / pairs * 1e9);
        out.layers.insert("recsys.select_ns", select / pairs * 1e9);
        out.layers.insert(
            "recsys.scoring_shards",
            after.counter(before, "scoring_shards") / rounds,
        );
        out.layers.insert(
            "recsys.scoring_gemm_calls",
            after.counter(before, "scoring_gemm_calls") / rounds,
        );
        out.layers.insert(
            "tensor.gemm_calls",
            after.counter(before, "gemm_calls") / rounds,
        );
        let traced_round = median(&p.rounds);
        let plain_round = median(&plain.rounds);
        out.layers
            .insert("obs.overhead_ratio", ratio(traced_round, plain_round));
        // The decomposed layers against the real sweep: the median round's
        // score + select busy time, shared over the threads, must account
        // for `par_top_n_all`'s median wall time per round in the same pass.
        let busy = median(&p.busy) / threads;
        let swept = median(&p.sweeps);
        out.note(format!(
            "per round (mean score {:.4} s + select {:.4} s): median busy / {threads} threads = {busy:.4} s vs par_top_n_all {swept:.4} s (medians of {rounds} rounds, both models; {:.1}%, tolerance {:.0}%); score {:.1}% + select {:.1}% of busy time",
            score / rounds,
            select / rounds,
            100.0 * ratio(busy, swept),
            TOLERANCE * 100.0,
            100.0 * ratio(score, score + select),
            100.0 * ratio(select, score + select),
        ));
        out.gate(
            "sweep layers: score + select account for par_top_n_all's wall time",
            (busy - swept).abs() <= TOLERANCE * swept,
        );
        out.note(format!(
            "block_score_ns and select_ns are busy ns per user x item pair over {pairs:.3e} pairs"
        ));
        out.note(format!(
            "obs.overhead_ratio {:.3} = traced round p50 {traced_round:.4} s / untraced {plain_round:.4} s",
            ratio(traced_round, plain_round)
        ));
    }
    Ok(out)
}
