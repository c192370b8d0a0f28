//! `paper_tiny`: the paper itself, closed loop with one caller.
//!
//! One op is a paper *round*: `Pipeline::build` plus `run_paper_experiment`
//! (44 attack cells) on the Amazon-Men and then the Amazon-Women profile
//! at `ExperimentScale::Tiny`, under one master seed. Rounds cycle through
//! a fixed list of master seeds derived from the workload seed; the seeds
//! are used as they come, and a run that diverges counts as failed.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use taamr::experiment::paper_datasets;
use taamr::golden::GoldenProfile;
use taamr::{ExperimentScale, Pipeline, PipelineConfig};
use taamr_replay::{diff, json_hash, read_record};

use crate::gen;
use crate::stats::{median, ratio};
use crate::trace::{Obs, Tracer};
use crate::{Args, Outcome};

/// Master seeds per workload seed.
const SEEDS: usize = 8;
const SETUPS: usize = 9;
/// Cells of one profile's grid: 2 models × 2 scenarios × 11 attacks.
const CELLS: usize = 44;
/// How far the stage spans may fall short of `Pipeline::build`'s wall time,
/// and the cell spans of `run_paper_experiment`'s, each as a share of it.
const TOLERANCE: f64 = 0.05;

fn config(profile: &taamr_data::SyntheticConfig, seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::for_scale_with_dataset(ExperimentScale::Tiny, profile.clone());
    config.seed = seed;
    config
}

/// The golden-record gate: both Tiny profiles replay bit-identically
/// against `tests/golden_records`.
fn golden_gate(out: &mut Outcome) -> Result<(), String> {
    for profile in GoldenProfile::all() {
        let path = Path::new("tests/golden_records").join(profile.file_name());
        let golden = read_record(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let ok = match profile.run_recorded() {
            Ok(replayed) => {
                let report = diff(&golden, &replayed);
                if !report.is_match() {
                    out.note(format!("golden {} diverged: {report}", profile.name));
                }
                report.is_match()
            }
            Err(e) => {
                out.note(format!("golden {} failed to run: {e}", profile.name));
                false
            }
        };
        out.gate(&format!("golden replay {}", profile.name), ok);
    }
    Ok(())
}

struct Pass {
    rounds: Vec<f64>,
    runs: u64,
    failed: u64,
    build_s: f64,
    grid_s: f64,
    elapsed: f64,
}

/// Runs paper rounds for `seconds` (finishing the round in progress).
/// `hashes` pins each (profile, seed) report: a repeat must be identical.
fn pass(
    seconds: f64,
    seeds: &[u64],
    first_round: usize,
    hashes: &mut HashMap<(usize, u64), u64>,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Pass {
    let profiles = paper_datasets();
    let mut p = Pass {
        rounds: Vec::new(),
        runs: 0,
        failed: 0,
        build_s: 0.0,
        grid_s: 0.0,
        elapsed: 0.0,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let round = first_round + p.rounds.len();
        let seed = seeds[round % seeds.len()];
        let round_span = tracer.open("paper.round", None, round as u64);
        let t_round = Instant::now();
        for (which, profile) in profiles.iter().enumerate() {
            p.runs += 1;
            let run_span = tracer.open("paper.run", round_span, round as u64);
            let t0 = Instant::now();
            let built = Pipeline::build(&config(profile, seed));
            let t1 = Instant::now();
            tracer.record("core.build", run_span, round as u64, t0, t1);
            p.build_s += (t1 - t0).as_secs_f64();
            let report = built.and_then(|mut pipeline| pipeline.run_paper_experiment(None));
            let t2 = Instant::now();
            tracer.record("core.grid", run_span, round as u64, t1, t2);
            tracer.close(run_span);
            p.grid_s += (t2 - t1).as_secs_f64();
            let problem = match report {
                Err(e) => Some(format!("pipeline error: {e}")),
                Ok(r) if !r.errors.is_empty() => Some(format!("cell error: {}", r.errors[0])),
                Ok(r) if r.outcomes.len() != CELLS => {
                    Some(format!("{} outcomes, expected {CELLS}", r.outcomes.len()))
                }
                Ok(r) => {
                    let h = json_hash(&r);
                    let pinned = *hashes.entry((which, seed)).or_insert(h);
                    (pinned != h)
                        .then(|| "report differs from the same seed's earlier run".to_owned())
                }
            };
            if let Some(problem) = problem {
                p.failed += 1;
                out.note(format!("{} seed {seed:#x}: {problem}", profile.name));
            }
        }
        tracer.close(round_span);
        p.rounds.push(t_round.elapsed().as_secs_f64());
    }
    p.elapsed = start.elapsed().as_secs_f64();
    p
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    golden_gate(&mut out)?;

    let seeds = gen::paper_seeds(args.seed, SEEDS);
    let men = &paper_datasets()[0];
    // No model to load: set-up is one warm-up build, which brings up the
    // thread pool and the allocator's working set before the first round.
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let built = Pipeline::build(&config(men, seeds[0]));
        let t1 = Instant::now();
        tracer.record("paper.setup", None, i as u64, t0, t1);
        built.map_err(|e| format!("warm-up build: {e}"))?;
        setups.push((t1 - t0).as_secs_f64());
    }
    out.e2e.insert("setup_s", median(&setups));

    let mut hashes = HashMap::new();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = pass(
        seconds,
        &seeds,
        0,
        &mut hashes,
        &Tracer::new(false),
        &mut out,
    );
    let mut passes = vec![&plain];
    let traced = args.trace.then(|| {
        taamr_obs::set_enabled(true);
        let before = Obs::now();
        let p = pass(
            seconds,
            &seeds,
            plain.rounds.len(),
            &mut hashes,
            tracer,
            &mut out,
        );
        let after = Obs::now();
        taamr_obs::set_enabled(false);
        (p, before, after)
    });
    if let Some((p, ..)) = &traced {
        passes.push(p);
    }
    for p in &passes {
        out.attempted += p.runs;
        out.failed += p.failed;
    }
    out.gate(
        "paper runs succeed and repeat bit-identically per seed",
        passes.iter().all(|p| p.failed == 0),
    );

    let runs_per_s = ratio(plain.runs as f64, plain.elapsed);
    out.e2e.insert("throughput_per_s", runs_per_s);
    out.e2e
        .insert("latency_p50_us", median(&plain.rounds) * 1e6);
    out.note(format!(
        "paper_runs_per_min {:.2} ({} runs in {:.2} s; round p50 {:.3} s over {} rounds)",
        runs_per_s * 60.0,
        plain.runs,
        plain.elapsed,
        median(&plain.rounds),
        plain.rounds.len()
    ));

    if let Some((p, before, after)) = &traced {
        layers(&plain, p, before, after, &mut out);
    }
    Ok(out)
}

fn layers(plain: &Pass, p: &Pass, before: &Obs, after: &Obs, out: &mut Outcome) {
    let runs = p.runs.max(1) as f64;
    let span = |name: &str| after.span(before, name);
    let counter = |name: &str| after.counter(before, name);
    let dataset = span("stage:dataset").1;
    let cnn = span("stage:cnn").1;
    let features = span("stage:catalog-features").1;
    let train = span("stage:vbpr-warmup").1 + span("stage:vbpr-finetune").1 + span("stage:amr").1;
    let (cells, cell_s) = span("attack-cell");
    let total = p.build_s + p.grid_s;
    let stages = dataset + cnn + features + train;
    let grid_rest = p.grid_s - cell_s;
    let build_rest = p.build_s - stages;
    let set = |out: &mut Outcome, name: &'static str, v: f64| {
        out.layers.insert(name, v);
    };
    set(out, "core.build_s", p.build_s / runs);
    set(out, "core.grid_s", p.grid_s / runs);
    set(out, "core.dataset_s", dataset / runs);
    set(out, "nn.cnn_train_s", cnn / runs);
    set(out, "nn.features_s", features / runs);
    set(out, "recsys.train_s", train / runs);
    set(out, "attack.cell_s", cell_s / runs);
    set(out, "attack.cells", cells / runs);
    for (name, counter_name) in [
        ("tensor.gemm_calls", "gemm_calls"),
        ("tensor.im2col_calls", "im2col_calls"),
        ("tensor.gemm_panel_packs", "gemm_panel_packs"),
        ("attack.grad_steps", "attack_grad_steps"),
        ("recsys.scoring_gemm_calls", "scoring_gemm_calls"),
    ] {
        set(out, name, counter(counter_name) / runs);
    }
    let (hits, grows) = (counter("scratch_reuse_hits"), counter("scratch_grows"));
    set(out, "tensor.scratch_reuse_ratio", ratio(hits, hits + grows));
    set(out, "tensor.scratch_requests", (hits + grows) / runs);
    let (oracle_hits, queries) = (
        counter("attack_oracle_cache_hits"),
        counter("attack_queries"),
    );
    set(
        out,
        "attack.oracle_hit_ratio",
        ratio(oracle_hits, oracle_hits + queries),
    );
    set(out, "attack.oracle_queries", (oracle_hits + queries) / runs);
    set(out, "nn.rollbacks", counter("cnn_rollbacks"));
    set(out, "recsys.rollbacks", counter("pairwise_rollbacks"));
    let plain_run = ratio(plain.build_s + plain.grid_s, plain.runs as f64);
    set(out, "obs.overhead_ratio", ratio(total / runs, plain_run));

    let pct = |v: f64| 100.0 * ratio(v, total);
    out.note(format!(
        "traced {} runs, {total:.3} s in build+grid: dataset {:.1}%, cnn {:.1}%, features {:.1}%, recsys train {:.1}%, build rest {:.1}%, attack cells {:.1}% ({cells} cells), grid rest {:.1}%",
        p.runs, pct(dataset), pct(cnn), pct(features), pct(train), pct(build_rest), pct(cell_s), pct(grid_rest)
    ));
    // Build and grid are accounted for apart: the stage spans against
    // `Pipeline::build`'s wall time, the cell spans against the grid's. A
    // span sum may not exceed its wall time, nor fall short by more than
    // the tolerance.
    for (what, parts, wall) in [
        ("stage spans", stages, p.build_s),
        ("attack-cell spans", cell_s, p.grid_s),
    ] {
        let within = parts <= wall && wall - parts <= TOLERANCE * wall;
        out.note(format!(
            "{what} = {parts:.3} s of {wall:.3} s ({:.1}%, tolerance {:.0}%)",
            100.0 * ratio(parts, wall),
            TOLERANCE * 100.0
        ));
        out.gate(
            &format!("paper layers: {what} account for their wall time"),
            within,
        );
    }
    out.note(format!(
        "scratch_reuse_ratio {:.4} = hits {hits} / (hits {hits} + grows {grows}); oracle_hit_ratio {:.4} = hits {oracle_hits} / (hits + debited queries {queries})",
        ratio(hits, hits + grows),
        ratio(oracle_hits, oracle_hits + queries)
    ));
    out.note(format!(
        "obs.overhead_ratio {:.3} = traced {:.4} s/run / untraced {plain_run:.4} s/run",
        ratio(total / runs, plain_run),
        total / runs
    ));
}
