//! `serve_uniform` and `serve_zipf_churn`: `/recommend` under an open-loop
//! rate ladder and a closed-loop saturation step, through the HTTP front
//! door of an in-process server.
//!
//! Two generator threads each own one kept-alive connection. On a ladder
//! step, request `k` is due at `start + k / rate` and goes out on
//! connection `k % 2` as soon as it is due and that connection is free;
//! its latency runs from the due time, so a stall also charges the
//! requests queued behind it. The saturation step runs in waves: both
//! connections send at once and wait for their answers, and the rate of
//! OK answers is the serving capacity. A pass is several rounds of the
//! ladder and the saturation step; steps run one after another, each once
//! the previous one has drained. On `serve_zipf_churn` each pass ends with
//! a churn phase: seeded swaps and kills beside reads at a fixed rate.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use taamr_recsys::{top_n_with, BprMf, Recommender, ScoreBlock, ScoringEngine, SelectionScratch};
use taamr_serve::{
    HttpClient, LedgerSnapshot, Server, ServerConfig, SnapshotStore, Supervisor, SupervisorConfig,
    TopNResponse,
};

use crate::gen::{self, Churn};
use crate::stats::{interquartile_mean, median, quantile, ratio};
use crate::trace::{Obs, Tracer};
use crate::{Args, Outcome};

const USERS: usize = 20_000;
const ITEMS: usize = 20_000;
const FACTORS: usize = 32;
const SEEN_PER_USER: usize = 20;
const SLOT: &str = "bpr";
const CONNS: usize = 2;
const SETUPS: usize = 5;
/// A step's backlog grows when the generator falls behind its schedule by
/// more than this many seconds per second of the step.
const BACKLOG_SLOPE_MAX: f64 = 0.05;
/// Responses checked against the in-process reference per pass, at most
/// (plus every response right after a swap or kill).
const REFERENCE_SAMPLE: usize = 800;
/// Requests per window of the windowed tail.
const WINDOW: usize = 250;
/// Requests of each kind the layer probes send, outside the timed region.
const PROBES: usize = 400;
/// How far the unloaded `/recommend` round trip may stray from its measured
/// parts (direct supervisor call, answer encoding, `/healthz` round trip),
/// as a share of it. What is left is parsing the route and moving the
/// longer answer over the socket.
const PROBE_TOLERANCE: f64 = 0.15;

/// One serving mix.
pub struct Mix {
    pub name: &'static str,
    /// List length asked for (`?n=`).
    pub n: usize,
    /// Zipf exponent of the user stream; `None` walks a permutation.
    pub zipf: Option<f64>,
    /// Open-loop ladder rates in requests per second, all below capacity;
    /// the latency at the middle one (index 2) is reported.
    pub ladder: [f64; 4],
    /// Most requests one saturation step may send (it stops earlier when
    /// its time is up): on the uniform mix, what the user space leaves.
    pub saturation_cap: usize,
    /// Share of the pass given to the churn phase after the last round,
    /// where swaps and kills run beside reads at `churn_rate` (0: no
    /// churn).
    pub churn_share: f64,
    pub churn_rate: f64,
    /// Requests sent before timing starts (fills the cache on Zipf).
    pub warmup: usize,
}

/// Rounds of ladder and saturation per pass. Latencies are pooled over the
/// rounds and capacity is their interquartile mean, so a slow stretch of
/// the machine during one round does not decide a metric.
const ROUNDS: usize = 16;
/// Share of a round each ladder step runs for: the middle step, where the
/// reported latency is read, runs longest.
const WEIGHTS: [f64; 4] = [0.05, 0.1, 0.35, 0.1];
/// Share of a round the saturation step runs for.
const SATURATION_SHARE: f64 = 0.4;
/// The limit the windowed tail (from due time) must meet at a ladder rate
/// for that rate to count as sustained.
const TAIL_LIMIT: Duration = Duration::from_millis(50);

pub const UNIFORM: Mix = Mix {
    name: "serve_uniform",
    n: 100,
    zipf: None,
    ladder: [100.0, 200.0, 300.0, 450.0],
    saturation_cap: 400,
    churn_share: 0.0,
    churn_rate: 0.0,
    warmup: 200,
};

pub const ZIPF_CHURN: Mix = Mix {
    name: "serve_zipf_churn",
    n: 10,
    zipf: Some(1.1),
    ladder: [100.0, 200.0, 300.0, 1000.0],
    saturation_cap: 12_500,
    churn_share: 0.4,
    churn_rate: 300.0,
    // The LRU miss rate of this stream settles after about 20k requests.
    warmup: 20_000,
};

/// What one step of a pass does.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// Open loop at this many requests per second.
    Ladder(f64),
    /// Closed loop in waves: every connection sends at once, and the next
    /// wave starts when all are answered.
    Saturate,
    /// Open loop beside the seeded swaps and kills.
    Churn(f64),
}

impl Phase {
    /// The open-loop rate; `None` for the closed-loop saturation step.
    fn rate(self) -> Option<f64> {
        match self {
            Phase::Ladder(r) | Phase::Churn(r) => Some(r),
            Phase::Saturate => None,
        }
    }

    fn label(self) -> String {
        match self {
            Phase::Ladder(r) => format!("ladder {r} qps"),
            Phase::Saturate => "saturation (closed-loop waves)".to_owned(),
            Phase::Churn(r) => format!("churn phase {r} qps"),
        }
    }
}

impl Mix {
    /// `(phase, seconds)` of each step of a pass: [`ROUNDS`] rounds of the
    /// ladder and the saturation step, then the churn phase if the mix has
    /// one.
    fn steps(&self, seconds: f64) -> Vec<(Phase, f64)> {
        let round_s = seconds * (1.0 - self.churn_share) / ROUNDS as f64;
        let mut steps = Vec::new();
        for _ in 0..ROUNDS {
            steps.extend(
                self.ladder
                    .iter()
                    .zip(WEIGHTS)
                    .map(|(&r, w)| (Phase::Ladder(r), w * round_s)),
            );
            steps.push((Phase::Saturate, SATURATION_SHARE * round_s));
        }
        if self.churn_share > 0.0 {
            steps.push((Phase::Churn(self.churn_rate), seconds * self.churn_share));
        }
        steps
    }

    /// Users a step takes from the stream: its schedule, or the cap.
    fn step_requests(&self, phase: Phase, seconds: f64) -> usize {
        match phase.rate() {
            Some(rate) => (rate * seconds).round() as usize,
            None => self.saturation_cap,
        }
    }
}

/// Where the user stream comes from: a cursor over pre-generated users.
struct Users {
    users: Vec<usize>,
    next: usize,
}

impl Users {
    fn new(mix: &Mix, seed: u64) -> Self {
        let users = match mix.zipf {
            None => gen::uniform_users(seed, USERS),
            Some(s) => gen::Zipf::new(seed, USERS, s).stream(seed, 1_000_000),
        };
        Users { users, next: 0 }
    }

    fn take(&mut self, count: usize) -> Result<Vec<usize>, String> {
        let end = self.next + count;
        if end > self.users.len() {
            return Err(format!(
                "user stream exhausted ({} users)",
                self.users.len()
            ));
        }
        let out = self.users[self.next..end].to_vec();
        self.next = end;
        Ok(out)
    }
}

/// The request target for one generated user.
fn target(user: usize, n: usize) -> String {
    format!("/recommend/{SLOT}/{user}?n={n}")
}

/// A served slot behind a running server.
struct Served {
    sup: Arc<Supervisor<BprMf>>,
    server: Server,
    dir: PathBuf,
}

impl Served {
    fn stop(self) {
        self.server.shutdown();
        self.sup.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: CONNS,
        deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

/// Set-up, up to the first answered request: model generation, `add_slot`
/// (snapshot write and actor spawn), `Server::start`, and the actor's
/// `ensure` on the first request.
fn set_up(seed: u64, dir: &Path, first_user: usize, n: usize) -> Result<(Served, f64), String> {
    let t0 = Instant::now();
    let model = gen::bpr_version(seed, 1, USERS, ITEMS, FACTORS);
    let seen = gen::seen_lists(seed, USERS, ITEMS, SEEN_PER_USER);
    let sup = Arc::new(Supervisor::new(SupervisorConfig::new(dir)));
    sup.add_slot(SLOT, model, seen)
        .map_err(|e| format!("add_slot: {e}"))?;
    let server =
        Server::start(server_config(), Arc::clone(&sup)).map_err(|e| format!("server: {e}"))?;
    let (status, _) = HttpClient::new(server.addr())
        .get(&target(first_user, n))
        .map_err(|e| format!("first request: {e}"))?;
    let elapsed = t0.elapsed().as_secs_f64();
    let served = Served {
        sup,
        server,
        dir: dir.to_path_buf(),
    };
    if status != 200 {
        served.stop();
        return Err(format!("first request answered {status}"));
    }
    Ok((served, elapsed))
}

/// One request as the generator saw it. Times are seconds since the step
/// started.
struct Sample {
    due: f64,
    sent: f64,
    done: f64,
    /// Sent late because the generator itself woke late (not because the
    /// connection was busy).
    late: f64,
    ok: bool,
}

/// A parsed answer kept for the correctness gates.
struct Answer {
    user: usize,
    version: u64,
    incarnation: u64,
    items: Vec<usize>,
    scores: Vec<u32>,
    /// Absolute times (seconds since the pass started).
    sent: f64,
    done: f64,
}

struct ChurnOp {
    kind: Churn,
    /// Seconds since the pass started.
    at: f64,
    done: f64,
    /// Slot incarnation just before a kill.
    incarnation_before: u64,
    /// Version a swap installed (0 for a kill).
    version: u64,
}

struct StepResult {
    phase: Phase,
    samples: Vec<Sample>,
    answers: Vec<Answer>,
    errors: Vec<String>,
}

impl StepResult {
    fn latencies_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| {
                if s.ok {
                    (s.done - s.due) * 1e6
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    fn rtts_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| (s.done - s.sent) * 1e6)
            .collect()
    }

    /// Seconds from the step's start to its last answer.
    fn span(&self) -> f64 {
        self.samples.iter().map(|s| s.done).fold(0.0, f64::max)
    }

    /// OK answers per second over the step.
    fn ok_rate(&self) -> f64 {
        ratio(
            self.samples.iter().filter(|s| s.ok).count() as f64,
            self.span(),
        )
    }

    /// How fast the generator fell behind its schedule over the step:
    /// median lag of the last quarter minus that of the first, per second.
    fn backlog_slope(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let q = (self.samples.len() / 4).max(1);
        let lag = |s: &[Sample]| -> (f64, f64) {
            let lags: Vec<f64> = s.iter().map(|x| x.sent - x.due).collect();
            let dues: Vec<f64> = s.iter().map(|x| x.due).collect();
            (median(&lags), median(&dues))
        };
        let (first, t_first) = lag(&self.samples[..q]);
        let (last, t_last) = lag(&self.samples[self.samples.len() - q..]);
        ratio(last - first, t_last - t_first)
    }
}

/// One phase's steps over all rounds of a pass.
struct PhaseView<'a> {
    phase: Phase,
    steps: Vec<&'a StepResult>,
}

impl PhaseView<'_> {
    fn latencies_us(&self) -> Vec<f64> {
        self.steps.iter().flat_map(|s| s.latencies_us()).collect()
    }

    fn rtts_us(&self) -> Vec<f64> {
        self.steps.iter().flat_map(|s| s.rtts_us()).collect()
    }

    fn requests(&self) -> usize {
        self.steps.iter().map(|s| s.samples.len()).sum()
    }

    fn failed(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.samples.iter().filter(|x| !x.ok).count())
            .sum()
    }

    /// Requests per second over the phase's steps.
    fn achieved_rate(&self) -> f64 {
        ratio(
            self.requests() as f64,
            self.steps.iter().map(|s| s.span()).sum(),
        )
    }

    /// The worst step's backlog slope.
    fn backlog_slope(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| s.backlog_slope())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The tail: each window of [`WINDOW`] consecutive requests (by due
    /// time, round after round) has a p95 with over ten samples beyond it;
    /// report the median over windows, so one scheduler stall does not
    /// decide the run.
    fn windowed_p95_us(&self) -> f64 {
        let per_window: Vec<f64> = self
            .latencies_us()
            .chunks(WINDOW)
            .filter(|w| w.len() == WINDOW)
            .map(|w| quantile(w, 0.95))
            .collect();
        median(&per_window)
    }

    fn sustained(&self) -> bool {
        self.windowed_p95_us() <= TAIL_LIMIT.as_secs_f64() * 1e6
            && self.backlog_slope() <= BACKLOG_SLOPE_MAX
    }
}

/// A pass's steps grouped by phase, in the order the phases first ran.
fn phases(pass: &PassResult) -> Vec<PhaseView<'_>> {
    let mut views: Vec<PhaseView> = Vec::new();
    for step in &pass.steps {
        match views.iter_mut().find(|v| v.phase == step.phase) {
            Some(v) => v.steps.push(step),
            None => views.push(PhaseView {
                phase: step.phase,
                steps: vec![step],
            }),
        }
    }
    views
}

/// The steps of `phase` in `pass`.
fn phase(pass: &PassResult, phase: Phase) -> PhaseView<'_> {
    PhaseView {
        phase,
        steps: pass.steps.iter().filter(|s| s.phase == phase).collect(),
    }
}

struct PassResult {
    steps: Vec<StepResult>,
    churn: Vec<ChurnOp>,
    /// Swaps and kills run, and those that failed or served an unplanned
    /// version.
    churn_attempted: u64,
    churn_failed: u64,
    ledger: LedgerSnapshot,
}

/// How long before a due time the generator stops sleeping and yields
/// instead: a timer wake-up on a VM can overshoot by tens of µs, a large
/// share of a cache hit's round trip.
const SPIN: Duration = Duration::from_micros(200);

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

fn parse_answer(body: &str, user: usize, n: usize) -> Result<TopNResponse, String> {
    let resp: TopNResponse =
        serde_json::from_str(body).map_err(|e| format!("unparseable answer: {e}"))?;
    if resp.user != user || resp.items.len() != n || resp.scores.len() != n {
        return Err(format!(
            "answer for user {} with {} items, asked user {user} n={n}",
            resp.user,
            resp.items.len()
        ));
    }
    Ok(resp)
}

/// How the connections pace their requests on a step.
#[derive(Clone, Copy)]
enum Pace<'a> {
    /// Open loop: request `k` is due at `start + k / rate`.
    Open(f64),
    /// Closed loop in waves: after a barrier every connection sends at once
    /// and waits for its answer, until the step's time is up. Each wave
    /// starts afresh, so whether the server happens to coalesce one wave
    /// does not carry over to the next.
    Waves {
        barrier: &'a Barrier,
        /// `stop[w % 2]`: the wave-`w` decision, written by the leader of
        /// wave `w - 1` before anyone can pass barrier `w`.
        stop: &'a [AtomicBool; 2],
    },
}

/// Drives one connection through its share of a step.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut HttpClient,
    conn: usize,
    users: &[usize],
    n: usize,
    pace: Pace,
    start: Instant,
    end: Instant,
    pass_start: Instant,
    keep: &dyn Fn(usize) -> bool,
    tracer: &Tracer,
    step_span: Option<u64>,
    first_request: u64,
) -> (Vec<Sample>, Vec<Answer>, Vec<String>) {
    let mut samples = Vec::new();
    let mut answers = Vec::new();
    let mut errors = Vec::new();
    let mut prev_done = start;
    let rel = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    // Every connection gets the same number of waves.
    let waves = users.len() / CONNS;
    for (wave, k) in (conn..users.len()).step_by(CONNS).enumerate() {
        let due = match pace {
            Pace::Open(rate) => {
                let due = start + Duration::from_secs_f64(k as f64 / rate);
                sleep_until(due);
                due
            }
            Pace::Waves { barrier, stop } => {
                if wave >= waves {
                    break;
                }
                if wave == 0 {
                    sleep_until(start);
                }
                let leader = barrier.wait().is_leader();
                if stop[wave % 2].load(Ordering::Acquire) {
                    break;
                }
                if leader {
                    stop[(wave + 1) % 2].store(Instant::now() >= end, Ordering::Release);
                }
                Instant::now()
            }
        };
        let sent = Instant::now();
        let result = client.get(&target(users[k], n));
        let done = Instant::now();
        tracer.record(
            "serve.request",
            step_span,
            first_request + k as u64,
            sent,
            done,
        );
        let ready = due.max(prev_done);
        prev_done = done;
        let ok = match result {
            Ok((200, body)) => match parse_answer(&body, users[k], n) {
                Ok(resp) => {
                    if keep(k) {
                        answers.push(Answer {
                            user: resp.user,
                            version: resp.model_version,
                            incarnation: resp.incarnation,
                            items: resp.items,
                            scores: resp.scores.iter().map(|s| s.to_bits()).collect(),
                            sent: sent.saturating_duration_since(pass_start).as_secs_f64(),
                            done: done.saturating_duration_since(pass_start).as_secs_f64(),
                        });
                    }
                    true
                }
                Err(e) => {
                    errors.push(e);
                    false
                }
            },
            Ok((status, body)) => {
                errors.push(format!(
                    "status {status}: {}",
                    body.chars().take(120).collect::<String>()
                ));
                false
            }
            Err(e) => {
                errors.push(format!("transport: {e}"));
                false
            }
        };
        samples.push(Sample {
            due: rel(due),
            sent: rel(sent),
            done: rel(done),
            late: sent.saturating_duration_since(ready).as_secs_f64(),
            ok,
        });
    }
    (samples, answers, errors)
}

/// Everything one pass over the ladder needs.
struct Ctx<'a> {
    mix: &'a Mix,
    seed: u64,
    served: &'a Served,
    clients: Vec<HttpClient>,
    users: Users,
    /// Served model versions, by the supervisor's version number.
    versions: BTreeMap<u64, BprMf>,
    /// Ladder steps run so far, over all passes.
    steps_run: usize,
    /// Passes run so far (indexes the churn plan).
    passes_run: usize,
    requests_sent: u64,
}

/// Untimed warm-up before each pass: the connections are open and, on
/// Zipf, the cache holds the hot set again after the previous pass's churn.
fn warm_up(ctx: &mut Ctx) -> Result<(), String> {
    let warm = ctx.users.take(ctx.mix.warmup)?;
    for (k, &u) in warm.iter().enumerate() {
        let (status, _) = ctx.clients[k % CONNS]
            .get(&target(u, ctx.mix.n))
            .map_err(|e| format!("warm-up: {e}"))?;
        if status != 200 {
            return Err(format!("warm-up answered {status}"));
        }
    }
    Ok(())
}

/// One timed pass; call [`warm_up`] first.
fn run_pass(ctx: &mut Ctx, seconds: f64, tracer: &Tracer) -> Result<PassResult, String> {
    let mix = ctx.mix;
    let ledger_before = ctx.served.sup.accountant().snapshot();
    let pass_start = Instant::now();
    let pass_span = tracer.open("serve.pass", None, 0);
    let mut steps = Vec::new();
    let mut churn = Vec::new();
    let mut churn_attempted = 0;
    let mut churn_failed = 0;
    let pass_total: usize = mix
        .steps(seconds)
        .iter()
        .map(|&(phase, s)| mix.step_requests(phase, s))
        .sum();
    for (phase, step_s) in mix.steps(seconds) {
        let count = mix.step_requests(phase, step_s);
        let users = ctx.users.take(count)?;
        // Swapped versions are generated before the step, outside its timing.
        let plan = if matches!(phase, Phase::Churn(_)) {
            let next = ctx.versions.keys().last().copied().unwrap_or(1) + 1;
            gen::churn_plan(ctx.seed, ctx.passes_run, next)
        } else {
            Vec::new()
        };
        let mut fresh: Vec<(u64, BprMf)> = plan
            .iter()
            .filter_map(|(_, ev)| match *ev {
                Churn::Swap { version } => Some((
                    version,
                    gen::bpr_version(ctx.seed, version, USERS, ITEMS, FACTORS),
                )),
                Churn::Kill => None,
            })
            .collect();
        // Keep every answer on Zipf (they repeat, and the restart timing
        // needs them all); sample the uniform stream.
        let stride = if mix.churn_share > 0.0 {
            1
        } else {
            (pass_total / REFERENCE_SAMPLE).max(1)
        };
        let keep = move |k: usize| k.is_multiple_of(stride);
        let step_span = tracer.open("serve.step", pass_span, ctx.steps_run as u64);
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + Duration::from_secs_f64(step_s);
        let barrier = Barrier::new(CONNS);
        let stop = [AtomicBool::new(false), AtomicBool::new(false)];
        let pace = match phase.rate() {
            Some(rate) => Pace::Open(rate),
            None => Pace::Waves {
                barrier: &barrier,
                stop: &stop,
            },
        };
        let first_request = ctx.requests_sent;
        let sup = &ctx.served.sup;
        let mut outputs = Vec::new();
        let mut ops = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = ctx
                .clients
                .iter_mut()
                .enumerate()
                .map(|(conn, client)| {
                    let users = &users;
                    let keep = &keep;
                    scope.spawn(move || {
                        drive(
                            client,
                            conn,
                            users,
                            mix.n,
                            pace,
                            start,
                            end,
                            pass_start,
                            keep,
                            tracer,
                            step_span,
                            first_request,
                        )
                    })
                })
                .collect();
            for (frac, ev) in &plan {
                let model = match *ev {
                    Churn::Swap { version } => fresh
                        .iter()
                        .find(|(v, _)| *v == version)
                        .map(|(_, m)| m.clone()),
                    Churn::Kill => None,
                };
                sleep_until(start + Duration::from_secs_f64(frac * step_s));
                let t0 = Instant::now();
                let incarnation_before = sup.slot_incarnation(SLOT).unwrap_or(0);
                let result = match (*ev, model) {
                    (Churn::Swap { .. }, Some(model)) => {
                        sup.swap(SLOT, model).map_err(|e| e.to_string())
                    }
                    (Churn::Swap { .. }, None) => Err("swap model missing".to_owned()),
                    (Churn::Kill, _) => sup.kill(SLOT).map(|()| 0).map_err(|e| e.to_string()),
                };
                let t1 = Instant::now();
                let name = if matches!(ev, Churn::Kill) {
                    "serve.kill"
                } else {
                    "serve.swap"
                };
                tracer.record(name, step_span, 0, t0, t1);
                ops.push((*ev, t0, t1, incarnation_before, result));
            }
            for h in handles {
                outputs.push(h.join().expect("generator thread panicked"));
            }
        });
        tracer.close(step_span);
        let mut step = StepResult {
            phase,
            samples: Vec::new(),
            answers: Vec::new(),
            errors: Vec::new(),
        };
        for (samples, answers, errors) in outputs {
            step.samples.extend(samples);
            step.answers.extend(answers);
            step.errors.extend(errors);
        }
        step.samples.sort_by(|a, b| a.due.total_cmp(&b.due));
        churn_attempted += ops.len() as u64;
        for (kind, t0, t1, incarnation_before, result) in ops {
            let rel = |t: Instant| t.saturating_duration_since(pass_start).as_secs_f64();
            let version = match result {
                Ok(v) => v,
                Err(e) => {
                    churn_failed += 1;
                    step.errors.push(format!("{kind:?}: {e}"));
                    continue;
                }
            };
            if let Churn::Swap { version: planned } = kind {
                if version != planned {
                    churn_failed += 1;
                    step.errors
                        .push(format!("swap served version {version}, planned {planned}"));
                }
                if let Some(i) = fresh.iter().position(|(v, _)| *v == planned) {
                    let (_, model) = fresh.swap_remove(i);
                    ctx.versions.insert(version, model);
                }
            }
            churn.push(ChurnOp {
                kind,
                at: rel(t0),
                done: rel(t1),
                incarnation_before,
                version,
            });
        }
        ctx.requests_sent += count as u64;
        ctx.steps_run += 1;
        steps.push(step);
    }
    tracer.close(pass_span);
    ctx.passes_run += 1;
    let ledger = delta(&ledger_before, &ctx.served.sup.accountant().snapshot());
    Ok(PassResult {
        steps,
        churn,
        churn_attempted,
        churn_failed,
        ledger,
    })
}

fn delta(a: &LedgerSnapshot, b: &LedgerSnapshot) -> LedgerSnapshot {
    LedgerSnapshot {
        requests: b.requests - a.requests,
        ok: b.ok - a.ok,
        timeouts: b.timeouts - a.timeouts,
        sheds: b.sheds - a.sheds,
        retries: b.retries - a.retries,
        restarts: b.restarts - a.restarts,
        swaps: b.swaps - a.swaps,
        snapshot_writes: b.snapshot_writes - a.snapshot_writes,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        cache_evictions: b.cache_evictions - a.cache_evictions,
        coalesced_batches: b.coalesced_batches - a.coalesced_batches,
        coalesced_requests: b.coalesced_requests - a.coalesced_requests,
    }
}

/// The correctness gates of one pass: every kept answer equals the
/// in-process reference top-N of the version it claims (scalar scores,
/// bit for bit); no request sent after a swap completed is answered by an
/// older version. Returns the number of wrong answers.
fn check_answers(
    pass: &PassResult,
    versions: &BTreeMap<u64, BprMf>,
    seen: &[Vec<usize>],
    n: usize,
    errors: &mut Vec<String>,
) -> u64 {
    let swaps: Vec<(f64, u64)> = pass
        .churn
        .iter()
        .filter(|op| matches!(op.kind, Churn::Swap { .. }))
        .map(|op| (op.done, op.version))
        .collect();
    let events: Vec<f64> = pass.churn.iter().map(|op| op.at).collect();
    let answers: Vec<&Answer> = pass.steps.iter().flat_map(|s| &s.answers).collect();
    // Reference-check every answer of a sampled subset of users, plus every
    // answer in the first 50 ms after each swap or kill.
    let sample_every = (answers.len() / REFERENCE_SAMPLE).max(1);
    let mut reference: HashMap<(u64, usize), (Vec<usize>, Vec<u32>)> = HashMap::new();
    let mut wrong = 0;
    for a in answers {
        let required = swaps
            .iter()
            .filter(|(done, _)| *done < a.sent)
            .map(|s| s.1)
            .max();
        if required.is_some_and(|v| a.version < v) {
            wrong += 1;
            errors.push(format!(
                "stale answer: version {} after swap to {required:?}",
                a.version
            ));
            continue;
        }
        let after_event = events.iter().any(|&t| a.sent >= t && a.sent - t < 0.05);
        if !(after_event || a.user.is_multiple_of(sample_every)) {
            continue;
        }
        let Some(model) = versions.get(&a.version) else {
            wrong += 1;
            errors.push(format!("answer claims unknown version {}", a.version));
            continue;
        };
        let expect = reference.entry((a.version, a.user)).or_insert_with(|| {
            let items = model.top_n(a.user, n, &seen[a.user]);
            let scores = items
                .iter()
                .map(|&i| model.score(a.user, i).to_bits())
                .collect();
            (items, scores)
        });
        if expect.0 != a.items || expect.1 != a.scores {
            wrong += 1;
            errors.push(format!(
                "user {} version {}: list differs from reference",
                a.user, a.version
            ));
        }
    }
    wrong
}

/// Layer probes on the live slot, outside the timed region and one request
/// at a time: direct supervisor calls, JSON encoding of their answers, the
/// HTTP front door alone (`/healthz`), `/recommend` through it, the scoring
/// engine's gather and selection, the item-embedding build, and snapshot
/// save/restore.
struct Probes {
    supervisor_us: f64,
    encode_us: f64,
    front_door_us: f64,
    recommend_us: f64,
    gather_b1_us: f64,
    gather_b2_us: f64,
    select_us: f64,
    embed_build_ms: f64,
    save_ms: f64,
    restore_ms: f64,
}

fn probe(ctx: &mut Ctx, tracer: &Tracer, errors: &mut Vec<String>) -> Result<Probes, String> {
    let n = ctx.mix.n;
    let sup = &ctx.served.sup;
    // Separate users for the direct and the HTTP calls, so that neither
    // finds the other's answer in the cache on the uniform mix.
    let users = ctx.users.take(PROBES)?;
    let http_users = ctx.users.take(PROBES)?;
    // Interleaved, so that all parts see the same machine.
    let client = &mut ctx.clients[0];
    let (mut sup_us, mut encode_us) = (Vec::new(), Vec::new());
    let (mut front_us, mut rec_us) = (Vec::new(), Vec::new());
    for (i, (&u, &v)) in users.iter().zip(&http_users).enumerate() {
        let t0 = Instant::now();
        let result = sup.top_n(SLOT, u, n, Duration::from_secs(2));
        let t1 = Instant::now();
        tracer.record("serve.supervisor", None, i as u64, t0, t1);
        match result {
            Ok(resp) => {
                sup_us.push((t1 - t0).as_secs_f64() * 1e6);
                let body = serde_json::to_string(&resp);
                let t2 = Instant::now();
                tracer.record("serve.encode", None, i as u64, t1, t2);
                std::hint::black_box(body.map_err(|e| e.to_string())?);
                encode_us.push((t2 - t1).as_secs_f64() * 1e6);
            }
            Err(e) => errors.push(format!("direct top_n: {e}")),
        }
        for (path, name, times) in [
            ("/healthz".to_owned(), "serve.front_door", &mut front_us),
            (target(v, n), "serve.recommend", &mut rec_us),
        ] {
            let t0 = Instant::now();
            let result = client.get(&path);
            let t1 = Instant::now();
            tracer.record(name, None, i as u64, t0, t1);
            match result {
                Ok((200, _)) => times.push((t1 - t0).as_secs_f64() * 1e6),
                Ok((status, _)) => errors.push(format!("probe {path}: status {status}")),
                Err(e) => errors.push(format!("probe {path}: {e}")),
            }
        }
    }
    let live = sup.slot_version(SLOT).map_err(|e| e.to_string())?;
    let model = ctx.versions.get(&live).ok_or("live version unknown")?;
    let seen = gen::seen_lists(ctx.seed, USERS, ITEMS, SEEN_PER_USER);
    let engine = ScoringEngine::for_model(model);
    let mut block = ScoreBlock::new();
    let mut scratch = SelectionScratch::new();
    let (mut b1, mut b2, mut sel) = (Vec::new(), Vec::new(), Vec::new());
    for pair in users.chunks(2).take(100) {
        let t0 = Instant::now();
        engine
            .score_gather(model, &pair[..1], &mut block)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let items = top_n_with(block.row(0), n, &seen[pair[0]], &mut scratch);
        let t2 = Instant::now();
        std::hint::black_box(items);
        engine
            .score_gather(model, pair, &mut block)
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        tracer.record("recsys.gather.b1", None, 0, t0, t1);
        tracer.record("recsys.select", None, 0, t1, t2);
        tracer.record("recsys.gather.b2", None, 0, t2, t3);
        b1.push((t1 - t0).as_secs_f64() * 1e6);
        sel.push((t2 - t1).as_secs_f64() * 1e6);
        b2.push((t3 - t2).as_secs_f64() * 1e6 / pair.len() as f64);
    }
    let mut embed = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        std::hint::black_box(ScoringEngine::for_model(model));
        let t1 = Instant::now();
        tracer.record("recsys.embed_build", None, 0, t0, t1);
        embed.push((t1 - t0).as_secs_f64() * 1e3);
    }
    let dir = ctx.served.dir.join("probe");
    let mut store = SnapshotStore::open(&dir, "probe").map_err(|e| e.to_string())?;
    let (mut save, mut restore) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        store.save(model, live).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let back = store.restore::<BprMf>().map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        tracer.record("serve.snapshot_save", None, 0, t0, t1);
        tracer.record("serve.snapshot_restore", None, 0, t1, t2);
        if back.model.artifact_hash() != model.artifact_hash() {
            errors.push("snapshot restore changed the model".to_owned());
        }
        save.push((t1 - t0).as_secs_f64() * 1e3);
        restore.push((t2 - t1).as_secs_f64() * 1e3);
    }
    Ok(Probes {
        supervisor_us: median(&sup_us),
        encode_us: median(&encode_us),
        front_door_us: median(&front_us),
        recommend_us: median(&rec_us),
        gather_b1_us: median(&b1),
        gather_b2_us: median(&b2),
        select_us: median(&sel),
        embed_build_ms: median(&embed),
        save_ms: median(&save),
        restore_ms: median(&restore),
    })
}

/// Median swap wall time, and median time from a kill to the slot's first
/// OK answer, both in ms.
fn churn_times(pass: &PassResult) -> (f64, f64) {
    let answers: Vec<&Answer> = pass.steps.iter().flat_map(|s| &s.answers).collect();
    let mut swaps = Vec::new();
    let mut restarts = Vec::new();
    for op in &pass.churn {
        match op.kind {
            Churn::Swap { .. } => swaps.push((op.done - op.at) * 1e3),
            Churn::Kill => {
                let first = answers
                    .iter()
                    .filter(|a| a.done > op.at && a.incarnation > op.incarnation_before)
                    .map(|a| a.done)
                    .fold(f64::INFINITY, f64::min);
                if first.is_finite() {
                    restarts.push((first - op.at) * 1e3);
                }
            }
        }
    }
    (median(&swaps), median(&restarts))
}

pub fn run(mix: &Mix, args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = PathBuf::from(crate::OUT_DIR).join(format!("{}-{}", mix.name, std::process::id()));
    let mut users = Users::new(mix, args.seed);

    // Set-up, repeated; the last one serves the run.
    let mut setups = Vec::new();
    let mut served = None;
    for i in 0..SETUPS {
        let first = users.take(1)?[0];
        let t0 = Instant::now();
        let (s, secs) = set_up(args.seed, &dir.join(format!("setup-{i}")), first, mix.n)?;
        tracer.record("serve.setup", None, i as u64, t0, Instant::now());
        setups.push(secs);
        if let Some(prev) = served.replace(s) {
            Served::stop(prev);
        }
    }
    let served = served.expect("at least one set-up");
    out.e2e.insert("setup_s", median(&setups));

    let mut versions = BTreeMap::new();
    versions.insert(1, gen::bpr_version(args.seed, 1, USERS, ITEMS, FACTORS));
    let clients = (0..CONNS)
        .map(|_| HttpClient::new(served.server.addr()))
        .collect();
    let mut ctx = Ctx {
        mix,
        seed: args.seed,
        served: &served,
        clients,
        users,
        versions,
        steps_run: 0,
        passes_run: 0,
        requests_sent: 0,
    };

    let seen = gen::seen_lists(args.seed, USERS, ITEMS, SEEN_PER_USER);
    let mut errors = Vec::new();
    let pass_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    warm_up(&mut ctx)?;
    let plain = run_pass(&mut ctx, pass_seconds, &Tracer::new(false))?;
    let traced = if args.trace {
        warm_up(&mut ctx)?;
        taamr_obs::set_enabled(true);
        let before = Obs::now();
        let pass = run_pass(&mut ctx, pass_seconds, tracer)?;
        let after = Obs::now();
        // A swap or kill late in the pass leaves a cold cache; warm it
        // again, so that the probes see the mix's steady hit rate and
        // their medians do not sit between the hit and the miss times.
        warm_up(&mut ctx)?;
        let probes = probe(&mut ctx, tracer, &mut errors)?;
        taamr_obs::set_enabled(false);
        Some((pass, probes, before, after))
    } else {
        None
    };

    for pass in std::iter::once(&plain).chain(traced.as_ref().map(|t| &t.0)) {
        for step in &pass.steps {
            out.attempted += step.samples.len() as u64;
            out.failed += step.samples.iter().filter(|s| !s.ok).count() as u64;
            errors.extend(step.errors.iter().cloned());
        }
        out.attempted += pass.churn_attempted;
        out.failed += pass.churn_failed;
        let wrong = check_answers(pass, &ctx.versions, &seen, mix.n, &mut errors);
        out.failed += wrong;
        out.gate(
            &format!("{}: served answers equal the reference", mix.name),
            wrong == 0,
        );
    }

    report_pass(&plain, &mut out, "untraced");
    let mid_phase = Phase::Ladder(mix.ladder[MIDDLE]);
    let mid = phase(&plain, mid_phase);
    let mid_lat = mid.latencies_us();
    out.e2e.insert("latency_p50_us", median(&mid_lat));
    // Capacity: the rate of OK answers on the saturation steps, the
    // interquartile mean over rounds.
    let saturated = phase(&plain, Phase::Saturate);
    let rates: Vec<f64> = saturated.steps.iter().map(|s| s.ok_rate()).collect();
    let throughput = interquartile_mean(&rates);
    out.gate(
        &format!("{}: the saturation steps were answered", mix.name),
        rates.iter().all(|&r| r > 0.0),
    );
    out.e2e.insert("throughput_per_s", throughput);
    let (swap_ms, restart_ms) = churn_times(&plain);
    if mix.churn_share > 0.0 {
        let swaps = plain
            .churn
            .iter()
            .filter(|op| op.kind != Churn::Kill)
            .count();
        out.note(format!("swap_ms {swap_ms:.1} (median of {swaps} swaps)"));
        out.note(format!(
            "restart_ms {restart_ms:.1} (kill to first OK answer, median)"
        ));
    }
    out.note(format!(
        "recommend_p50_us {:.1}, recommend_p99_us {:.1} (windowed p95 {:.1}) at {} ({} samples over {ROUNDS} rounds); recommend_max_qps {throughput:.1} (interquartile mean over rounds of OK answers per second on the saturation step, {CONNS} connections in closed-loop waves: {})",
        median(&mid_lat),
        quantile(&mid_lat, 0.99),
        mid.windowed_p95_us(),
        mid_phase.label(),
        mid_lat.len(),
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(", "),
    ));

    if let Some((pass, probes, before, after)) = &traced {
        report_pass(pass, &mut out, "traced");
        layers(mid_phase, &plain, pass, probes, before, after, &mut out);
    }
    for e in errors.iter().take(10) {
        out.note(format!("error: {e}"));
    }
    drop(ctx);
    served.stop();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Index of the ladder rate whose latency is reported.
const MIDDLE: usize = 2;

fn report_pass(pass: &PassResult, out: &mut Outcome, label: &str) {
    for view in phases(pass) {
        let lat = view.latencies_us();
        let verdict = match view.phase {
            Phase::Ladder(_) if view.sustained() => " (sustained)",
            Phase::Ladder(_) => " (not sustained)",
            _ => "",
        };
        out.note(format!(
            "{label} {}: achieved {:.1}/s, p50 {:.1} us, p99 {:.1} us, windowed p95 {:.1} us from due, worst backlog slope {:.4}, {} requests in {} steps, {} failed{verdict}",
            view.phase.label(),
            view.achieved_rate(),
            median(&lat),
            quantile(&lat, 0.99),
            view.windowed_p95_us(),
            view.backlog_slope(),
            view.requests(),
            view.steps.len(),
            view.failed(),
        ));
    }
    let l = &pass.ledger;
    out.note(format!(
        "{label} ledger: requests {} ok {} hits {} misses {} evictions {} coalesced {}/{} batches, retries {} restarts {} timeouts {} sheds {} swaps {}",
        l.requests, l.ok, l.cache_hits, l.cache_misses, l.cache_evictions, l.coalesced_requests,
        l.coalesced_batches, l.retries, l.restarts, l.timeouts, l.sheds, l.swaps
    ));
}

fn layers(
    mid: Phase,
    plain: &PassResult,
    pass: &PassResult,
    probes: &Probes,
    before: &Obs,
    after: &Obs,
    out: &mut Outcome,
) {
    let rtt = median(&phase(pass, mid).rtts_us());
    let l = &pass.ledger;
    let lookups = (l.cache_hits + l.cache_misses) as f64;
    let requests: f64 = pass.steps.iter().map(|s| s.samples.len() as f64).sum();
    let (swap_ms, restart_ms) = churn_times(pass);
    let late: Vec<f64> = pass
        .steps
        .iter()
        .flat_map(|s| s.samples.iter().map(|x| x.late * 1e6))
        .collect();
    let set = |out: &mut Outcome, name: &'static str, v: f64| {
        out.layers.insert(name, v);
    };
    set(out, "recsys.gather_us.b1", probes.gather_b1_us);
    set(out, "recsys.gather_us.b2", probes.gather_b2_us);
    set(out, "recsys.select_us", probes.select_us);
    set(out, "recsys.embed_build_ms", probes.embed_build_ms);
    set(out, "serve.snapshot_save_ms", probes.save_ms);
    set(out, "serve.snapshot_restore_ms", probes.restore_ms);
    set(out, "serve.supervisor_us", probes.supervisor_us);
    set(
        out,
        "serve.http_us",
        probes.recommend_us - probes.supervisor_us,
    );
    set(out, "serve.front_door_us", probes.front_door_us);
    set(out, "serve.encode_us", probes.encode_us);
    set(
        out,
        "serve.cache_hit_ratio",
        ratio(l.cache_hits as f64, lookups),
    );
    set(out, "serve.cache_lookups", lookups);
    set(out, "serve.cache_evictions", l.cache_evictions as f64);
    set(
        out,
        "serve.coalesce_mean",
        ratio(l.coalesced_requests as f64, l.coalesced_batches as f64),
    );
    set(out, "serve.coalesced_batches", l.coalesced_batches as f64);
    set(out, "serve.retries", l.retries as f64);
    set(out, "serve.restarts", l.restarts as f64);
    set(out, "serve.timeouts", l.timeouts as f64);
    set(out, "serve.sheds", l.sheds as f64);
    set(out, "serve.swap_ms", swap_ms);
    set(out, "serve.restart_ms", restart_ms);
    set(out, "serve.gen_late_p99_us", quantile(&late, 0.99));
    let ladder = phases(pass)
        .into_iter()
        .filter(|v| matches!(v.phase, Phase::Ladder(_)));
    for (name, view) in crate::BACKLOG_SLOPES.iter().zip(ladder) {
        set(out, name, view.backlog_slope());
    }
    let per_request = |name: &str| ratio(after.counter(before, name), requests);
    set(
        out,
        "recsys.scoring_gemm_calls",
        per_request("scoring_gemm_calls"),
    );
    set(out, "tensor.gemm_calls", per_request("gemm_calls"));
    let plain_p50 = median(&phase(plain, mid).latencies_us());
    let traced_p50 = median(&phase(pass, mid).latencies_us());
    set(out, "obs.overhead_ratio", ratio(traced_p50, plain_p50));

    // Under load the split is printed, not checked: the remainder of the
    // round trip also holds the queue, and coalesced batches score a user
    // in about half the gather time of a lone request, while the
    // supervisor time comes from the probes, measured one at a time and
    // at another moment of a shared machine. On `serve_uniform` the two
    // are close and either may be the larger.
    let share = ratio(probes.supervisor_us, rtt);
    out.note(format!(
        "layers at {}: RTT p50 {rtt:.1} us = supervisor (unloaded) {:.1} us ({:.0}%) + http+queue {:.1} us ({:.0}%)",
        mid.label(),
        probes.supervisor_us,
        share * 100.0,
        rtt - probes.supervisor_us,
        (1.0 - share) * 100.0,
    ));
    // Unloaded, each part is measured on its own: the supervisor by direct
    // calls, the encoding of their answers, the front door by `/healthz`.
    // Their sum must account for the `/recommend` round trip.
    let parts = probes.supervisor_us + probes.encode_us + probes.front_door_us;
    let within = (probes.recommend_us - parts).abs() <= PROBE_TOLERANCE * probes.recommend_us;
    out.note(format!(
        "unloaded, one request at a time: /recommend RTT p50 {:.1} us vs supervisor {:.1} us + encode {:.1} us + front door (/healthz RTT p50) {:.1} us = {parts:.1} us ({:.1}%, tolerance {:.0}%)",
        probes.recommend_us,
        probes.supervisor_us,
        probes.encode_us,
        probes.front_door_us,
        100.0 * ratio(parts, probes.recommend_us),
        PROBE_TOLERANCE * 100.0,
    ));
    out.gate(
        "serve layers: supervisor + encode + front door account for the unloaded round trip",
        within,
    );
    out.note(format!(
        "cache_hit_ratio {:.4} = hits {} / lookups {}; coalesce_mean {:.2} = coalesced requests {} / coalesced batches {} (of {} requests); scoring gemm calls per request {:.3} (base {} requests)",
        ratio(l.cache_hits as f64, lookups), l.cache_hits, lookups, ratio(l.coalesced_requests as f64, l.coalesced_batches as f64),
        l.coalesced_requests, l.coalesced_batches, l.requests, per_request("scoring_gemm_calls"), requests
    ));
    out.note(format!(
        "obs.overhead_ratio {:.3} = traced p50 {traced_p50:.1} us / untraced p50 {plain_p50:.1} us at {}",
        ratio(traced_p50, plain_p50),
        mid.label()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_targets_carry_only_generated_users() {
        let mut users = Users::new(&UNIFORM, 21);
        let first = users.take(100).unwrap();
        assert_eq!(first, gen::uniform_users(21, USERS)[..100].to_vec());
        for &u in &first {
            assert_eq!(target(u, UNIFORM.n), format!("/recommend/bpr/{u}?n=100"));
        }
        let mut zipf = Users::new(&ZIPF_CHURN, 21);
        assert_eq!(
            zipf.take(50).unwrap(),
            gen::Zipf::new(21, USERS, 1.1).stream(21, 50)
        );
    }

    #[test]
    fn one_run_fits_the_uniform_user_space() {
        // Set-ups, warm-ups, every step (the saturation step at its cap)
        // and the probes, untraced or traced at the longest allowed
        // `--seconds`: no user is needed twice.
        let per_pass = |seconds: f64| -> usize {
            UNIFORM
                .steps(seconds)
                .iter()
                .map(|&(phase, s)| UNIFORM.step_requests(phase, s))
                .sum()
        };
        let untraced = SETUPS + UNIFORM.warmup + per_pass(crate::MAX_SECONDS);
        let traced =
            SETUPS + 3 * UNIFORM.warmup + 2 * per_pass(crate::MAX_SECONDS / 2.0) + 2 * PROBES;
        let needed = untraced.max(traced);
        assert!(
            needed <= USERS,
            "{needed} requests need more than {USERS} users"
        );
    }
}
