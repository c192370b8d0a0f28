//! The repository benchmark: four seeded workloads, each checked for
//! correct output, with end-to-end metrics from untraced runs and
//! per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_tiny|serve_uniform|serve_zipf_churn|sweep_catalog> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); the
//! readable report goes to standard error, and the run's spans, report
//! and environment to `.bench_out/`. See `perfbench/README.md`.

mod gen;
mod paper;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde::{Serialize, Value};

/// Where a run writes its trace file and scratch state, relative to the
/// repository root it runs from.
pub const OUT_DIR: &str = ".bench_out";
/// Longest `--seconds` accepted: the uniform mix's user space must outlast
/// one run's requests (see `serve::tests`).
pub const MAX_SECONDS: f64 = 30.0;

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
];

/// One per open-loop ladder rate of the serving mixes.
pub const BACKLOG_SLOPES: [&str; 4] = [
    "serve.backlog_slope.r1",
    "serve.backlog_slope.r2",
    "serve.backlog_slope.r3",
    "serve.backlog_slope.r4",
];

/// The per-layer metrics, reported by every traced run. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.build_s", "s"),
    ("core.grid_s", "s"),
    ("core.dataset_s", "s"),
    ("nn.cnn_train_s", "s"),
    ("nn.features_s", "s"),
    ("recsys.train_s", "s"),
    ("attack.cell_s", "s"),
    ("attack.cells", "count"),
    ("tensor.gemm_calls", "count"),
    ("tensor.im2col_calls", "count"),
    ("tensor.gemm_panel_packs", "count"),
    ("tensor.scratch_reuse_ratio", "ratio"),
    ("tensor.scratch_requests", "count"),
    ("attack.grad_steps", "count"),
    ("attack.oracle_hit_ratio", "ratio"),
    ("attack.oracle_queries", "count"),
    ("nn.rollbacks", "count"),
    ("recsys.rollbacks", "count"),
    ("recsys.gather_us.b1", "us"),
    ("recsys.gather_us.b2", "us"),
    ("recsys.select_us", "us"),
    ("recsys.block_score_ns", "ns"),
    ("recsys.select_ns", "ns"),
    ("recsys.scoring_shards", "count"),
    ("recsys.scoring_gemm_calls", "count"),
    ("recsys.embed_build_ms", "ms"),
    ("serve.snapshot_save_ms", "ms"),
    ("serve.snapshot_restore_ms", "ms"),
    ("serve.supervisor_us", "us"),
    ("serve.http_us", "us"),
    ("serve.front_door_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_lookups", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.coalesce_mean", "ratio"),
    ("serve.coalesced_batches", "count"),
    ("serve.retries", "count"),
    ("serve.restarts", "count"),
    ("serve.timeouts", "count"),
    ("serve.sheds", "count"),
    ("serve.swap_ms", "ms"),
    ("serve.restart_ms", "ms"),
    ("serve.gen_late_p99_us", "us"),
    (BACKLOG_SLOPES[0], "ratio"),
    (BACKLOG_SLOPES[1], "ratio"),
    (BACKLOG_SLOPES[2], "ratio"),
    (BACKLOG_SLOPES[3], "ratio"),
    ("obs.overhead_ratio", "ratio"),
];

const WORKLOADS: [&str; 4] = [
    "paper_tiny",
    "serve_uniform",
    "serve_zipf_churn",
    "sweep_catalog",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1.0..=MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds must be within 1..={MAX_SECONDS}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<(String, bool)>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn gate(&mut self, name: &str, ok: bool) {
        self.gates.push((name.to_owned(), ok));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The machine and build a result was measured on.
#[derive(Serialize)]
struct Environment {
    available_parallelism: usize,
    rayon_threads: usize,
    /// The CPU the run was pinned to; `None` when pinning failed.
    pinned_cpu: Option<usize>,
    commit: String,
    build_profile: &'static str,
}

/// The commit, read from `.git` when the checkout is a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_owned(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown (not a git checkout)".to_owned()
    } else {
        id.to_owned()
    }
}

/// Call inside the pool the workload runs in, so the thread count is the
/// one it used; `available_parallelism` must be read before pinning.
fn environment(available_parallelism: usize, pinned_cpu: Option<usize>) -> Environment {
    Environment {
        available_parallelism,
        rayon_threads: rayon::current_num_threads(),
        pinned_cpu,
        commit: commit(),
        build_profile: if cfg!(debug_assertions) {
            "dev"
        } else {
            "release"
        },
    }
}

/// CPUs this process may run on, from `Cpus_allowed_list`.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let mut ends = part
            .split('-')
            .filter_map(|x| x.trim().parse::<usize>().ok());
        if let Some(lo) = ends.next() {
            cpus.extend(lo..=ends.next().unwrap_or(lo));
        }
    }
    cpus
}

/// Pins the calling thread (and every thread it spawns afterwards) to
/// `cpu`, with `taskset` on the thread id.
fn pin_current_thread(cpu: usize) -> Result<(), String> {
    let link = std::fs::read_link("/proc/thread-self").map_err(|e| format!("thread id: {e}"))?;
    let tid = link
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or("thread id")?
        .to_owned();
    let out = std::process::Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &tid])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!("taskset: {}", String::from_utf8_lossy(&out.stderr)));
    }
    Ok(())
}

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// the last CPU the process may use (CPU 0 tends to take the machine's
/// interrupts and housekeeping). Returns that CPU, or `None` and why
/// not when that is not possible; the run then goes on unpinned.
fn pin_to_one_cpu() -> (Option<usize>, String) {
    match allowed_cpus()
        .last()
        .map(|&cpu| (cpu, pin_current_thread(cpu)))
    {
        Some((cpu, Ok(()))) => (Some(cpu), format!("pinned to CPU {cpu}")),
        Some((_, Err(e))) => (None, format!("running UNPINNED: {e}")),
        None => (None, "running UNPINNED: no allowed CPU list".to_owned()),
    }
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A measured value as JSON; a non-finite one (a latency quantile that
/// landed on failed requests) reads as the largest finite number.
fn number(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { f64::MAX })
}

fn run(args: &Args) -> Result<(), String> {
    // The checkout must hold the repository, not just the benchmark.
    if !Path::new("tests/golden_records").is_dir() {
        return Err("run from the repository root (tests/golden_records not found)".to_owned());
    }
    let started = Instant::now();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Every workload runs on one CPU with one rayon worker; see the README
    // for the run-to-run spread this removes on a 2-vCPU VM.
    let (pinned_cpu, pinned) = pin_to_one_cpu();
    let tracer = trace::Tracer::new(args.trace);
    let (env, out) = taamr::parallel::with_threads(1, || {
        let env = environment(parallelism, pinned_cpu);
        let out = match args.workload.as_str() {
            "paper_tiny" => paper::run(args, &tracer),
            "serve_uniform" => serve::run(&serve::UNIFORM, args, &tracer),
            "serve_zipf_churn" => serve::run(&serve::ZIPF_CHURN, args, &tracer),
            "sweep_catalog" => sweep::run(args, &tracer),
            other => Err(format!("unknown workload {other}")),
        };
        (env, out)
    });
    let mut out = out?;
    out.notes.insert(0, pinned);
    out.e2e.insert("peak_rss_mb", peak_rss_mb()?);
    let fail_ratio = stats::ratio(out.failed as f64, out.attempted as f64);
    let gates_failed = out.gates.iter().filter(|g| !g.1).count();

    eprintln!(
        "== {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    eprintln!(
        "environment: available_parallelism {}, rayon threads {}, pinned CPU {}, commit {}, build {}",
        env.available_parallelism,
        env.rayon_threads,
        env.pinned_cpu.map_or("none".to_owned(), |c| c.to_string()),
        env.commit,
        env.build_profile
    );
    for (name, ok) in &out.gates {
        eprintln!("gate {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    for line in &out.notes {
        eprintln!("{line}");
    }
    eprintln!(
        "fail_ratio {fail_ratio} = failed {} / attempted {}",
        out.failed, out.attempted
    );
    let (declared, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER[..], &out.layers)
    } else {
        (&END_TO_END[..], &out.e2e)
    };
    let mut metrics = Vec::new();
    for &(name, unit) in declared {
        let value = match values.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        eprintln!("metric {name} = {value} {unit}");
        metrics.push((
            name,
            object(vec![
                ("value", number(value)),
                ("unit", Value::Str(unit.to_owned())),
            ]),
        ));
    }
    eprintln!("wall {:.2} s", started.elapsed().as_secs_f64());
    let line = object(vec![
        ("correct", Value::Bool(gates_failed == 0 && out.failed == 0)),
        ("attempted", Value::UInt(out.attempted.max(1))),
        ("failed", Value::UInt(out.failed)),
        ("metrics", object(metrics)),
    ]);
    let file = object(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", number(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("environment", env.to_json_value()),
        ("gates", out.gates.to_json_value()),
        ("report", out.notes.to_json_value()),
        ("result", line.clone()),
        ("spans", tracer.take().to_json_value()),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string(&JsonValue(file)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}",
        serde_json::to_string(&JsonValue(line)).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Lets a hand-built [`Value`] tree go through `serde_json::to_string`.
struct JsonValue(Value);

impl Serialize for JsonValue {
    fn to_json_value(&self) -> Value {
        self.0.clone()
    }
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric registry here and `BENCHMARK.json` at the repository root
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn registry_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = serde_json::parse_value(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<Value> {
            match json.get_field(key) {
                Some(Value::Array(items)) => items.clone(),
                other => panic!("{key} is not a list: {other:?}"),
            }
        };
        let field = |v: &Value, k: &str| v.get_field(k).and_then(Value::as_str).unwrap().to_owned();
        let named = |key: &str| -> Vec<(String, String)> {
            list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(named("end_to_end"), own(&END_TO_END));
        assert_eq!(named("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
