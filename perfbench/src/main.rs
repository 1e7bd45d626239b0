//! Host-time benchmark of the Mekong toolchain and runtime.
//!
//! ```text
//! perfbench --workload <functional|replay|resolve|tenants> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! when any output check fails. See `perfbench/README.md` for what each
//! workload and metric means.

mod backend;
mod compile;
mod runner;
mod script;
mod trace;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use mekong_core::CompiledProgram;
use mekong_gpusim::MachineSpec;
use mekong_runtime::RuntimeConfig;
use mekong_serve::{FleetConfig, FleetServer};

use runner::{Calibration, Job, JobResult, Tally, Target};
use script::{Prog, Rng, Script};
use trace::{Kind, Phase, Totals};

/// Set-ups per run, spread over the timed phase; `setup_s` is the
/// median of the faster half.
const SETUP_REPS: usize = 16;
/// Traced set-ups per traced run; per-layer set-up times are their mean.
const TRACED_SETUP_REPS: usize = 3;
/// Percentiles need this many samples beyond them: p99 of launches needs
/// 1000 launches and p90 of jobs 100 jobs per run.
const MIN_LAUNCHES: usize = 1000;
const MIN_JOBS: usize = 100;
/// Live tenants in the `tenants` closed loop.
const TENANT_CLIENTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Functional,
    Replay,
    Resolve,
    Tenants,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "functional" => Workload::Functional,
            "replay" => Workload::Replay,
            "resolve" => Workload::Resolve,
            "tenants" => Workload::Tenants,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Functional => "functional",
            Workload::Replay => "replay",
            Workload::Resolve => "resolve",
            Workload::Tenants => "tenants",
        }
    }

    /// The round's jobs: a fixed multiset of (program, size, launches),
    /// in an order and with inputs drawn from `seed`. Keeping the
    /// multiset fixed keeps the cost of a round the same across seeds.
    fn deck(self, seed: u64) -> Vec<Script> {
        let mut rng = Rng::new(seed);
        let jobs: Vec<(Prog, usize, usize)> = match self {
            Workload::Functional => vec![
                (Prog::Hotspot, 64, 24),
                (Prog::Hotspot, 64, 24),
                (Prog::NBody, 128, 6),
                (Prog::NBody, 128, 6),
                (Prog::Spmv, 1024, 12),
                (Prog::Spmv, 1024, 12),
            ],
            Workload::Replay | Workload::Resolve => vec![
                (Prog::Hotspot, 8192, 512),
                (Prog::Hotspot, 8192, 512),
                (Prog::Hotspot, 8192, 512),
                (Prog::Blur, 8192, 256),
            ],
            Workload::Tenants => [
                (Prog::Hotspot, 256, 48),
                (Prog::Hotspot, 384, 48),
                (Prog::Blur, 128, 8),
                (Prog::Blur, 256, 8),
                (Prog::NBody, 1024, 8),
                (Prog::NBody, 2048, 8),
                (Prog::Matmul, 64, 8),
                (Prog::Matmul, 128, 8),
            ]
            .repeat(2),
        };
        let payload = matches!(self, Workload::Functional | Workload::Tenants);
        jobs.into_iter()
            .map(|(p, n, iters)| Script::new(p, n, iters, payload, &mut rng))
            .collect()
    }

    fn target(self) -> Target {
        match self {
            Workload::Functional => Target {
                spec: MachineSpec::kepler_system(4),
                functional: true,
                config: RuntimeConfig::tuned(),
            },
            Workload::Replay | Workload::Resolve => Target {
                spec: MachineSpec::kepler_system(16),
                functional: false,
                config: RuntimeConfig {
                    capture_plans: self == Workload::Replay,
                    ..RuntimeConfig::alpha()
                },
            },
            Workload::Tenants => Target {
                spec: MachineSpec::kepler_system(8),
                functional: false,
                config: RuntimeConfig::tuned(),
            },
        }
    }

    fn fleet(self) -> FleetConfig {
        FleetConfig::performance_fleet(self.target().spec.n_devices)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut tr, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                tr = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: tr.ok_or("--trace is required")?,
        out,
    })
}

type Programs = BTreeMap<Prog, CompiledProgram>;

/// Compile every program the deck uses and build the workload's runtime
/// (or fleet): what `setup_s` measures.
fn setup(w: Workload, deck: &[Script]) -> Result<Programs, String> {
    let mut programs = Programs::new();
    for s in deck {
        if let std::collections::btree_map::Entry::Vacant(e) = programs.entry(s.prog) {
            e.insert(compile::compile(s.prog.source())?);
        }
    }
    match w {
        Workload::Tenants => drop(trace::span(Kind::ServeSubmit, || {
            FleetServer::new(w.fleet())
        })),
        _ => drop(trace::span(Kind::RuntimeOther, || w.target().runtime())),
    }
    Ok(programs)
}

/// The order round `round` runs the deck in, drawn from the seed: each
/// round draws anew, so a run samples many orders (for `tenants`, many
/// different sets of concurrently live tenants). The draw is stratified:
/// the order is a series of waves, each holding one job of each program
/// (while they last) in random order, so that every stretch of a
/// `tenants` round has a similar mix of live tenants and a round's
/// figures depend less on the draw.
fn order(seed: u64, round: usize, deck: &[Script]) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut by_prog: BTreeMap<Prog, Vec<usize>> = BTreeMap::new();
    for (i, s) in deck.iter().enumerate() {
        by_prog.entry(s.prog).or_default().push(i);
    }
    by_prog.values_mut().for_each(|v| rng.shuffle(v));
    let mut out = Vec::with_capacity(deck.len());
    for wave in 0.. {
        let mut w: Vec<usize> = by_prog
            .values()
            .filter_map(|v| v.get(wave).copied())
            .collect();
        if w.is_empty() {
            return out;
        }
        rng.shuffle(&mut w);
        out.extend(w);
    }
    unreachable!("the waves end when the deck does")
}

fn run_round(
    w: Workload,
    deck: &[Script],
    order: &[usize],
    programs: &Programs,
    tally: &mut Tally,
) -> Result<Vec<Job>, String> {
    match w {
        Workload::Tenants => {
            let mut round_tally = Tally::default();
            let r = catch_unwind(AssertUnwindSafe(|| {
                runner::run_tenants(deck, order, &w.fleet(), TENANT_CLIENTS, &mut round_tally)
            }));
            tally.attempted += round_tally.attempted;
            tally.failed += round_tally.failed;
            r.unwrap_or_else(|_| {
                tally.failed += 1;
                Err("tenant round panicked".into())
            })
        }
        _ => runner::run_sequential(deck, order, programs, &w.target(), tally),
    }
}

/// Yardstick time of the reference host: the host the end-to-end times
/// are scaled to (see `yardstick`).
const YARDSTICK_REF_S: f64 = 3e-3;

/// Host time of a fixed piece of work that runs none of the program's
/// code: ordered-map inserts, small allocations and number formatting,
/// the kinds of host work the toolchain and runtime do.
///
/// On a shared host the program's speed changes by up to 1.8x from one
/// minute to the next with other load on the machine. The yardstick's
/// time follows that change (a log-log correlation of 0.8 to 0.95 with
/// the round times, over stretches of 2 s on a 2-vCPU Xeon VM), so each
/// round's times are scaled by `YARDSTICK_REF_S / yardstick()`, measured
/// next to the round. That removes half or more of the host's drift
/// and leaves a change in the program's own speed in full.
fn yardstick() -> f64 {
    let t = Instant::now();
    let mut rng = Rng::new(42);
    let mut map = BTreeMap::new();
    for i in 0..10_000u64 {
        map.insert(rng.below(50_000), i);
    }
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(512);
    for (&k, &i) in map.iter().take(8_000) {
        live.push(vec![k ^ i; (k % 24) as usize + 1]);
        if live.len() == 512 {
            live.swap_remove((k % 512) as usize);
        }
    }
    let mut text = String::with_capacity(64);
    for (j, v) in live.iter().enumerate().cycle().take(4_000) {
        use std::fmt::Write;
        text.clear();
        let _ = write!(text, "{{\"v{j}\": [{}, {:?}]}}", v.len(), v[0] as f64 / 7.0);
        std::hint::black_box(text.len());
    }
    std::hint::black_box(&live);
    t.elapsed().as_secs_f64()
}

/// Time `f`, scaled to the reference host by the yardsticks before and
/// after it.
fn scaled_time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = yardstick();
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    let yard = (before + yardstick()) / 2.0;
    (r, secs * YARDSTICK_REF_S / yard)
}

/// What one timed round measured, in host seconds and microseconds.
struct Round {
    wall: f64,
    /// The yardstick time next to the round.
    yard: f64,
    jobs: usize,
    launches: usize,
    launch_p50_us: f64,
    launch_p99_us: f64,
    job_p50_s: f64,
    job_p90_s: f64,
}

/// What a timed pass measured.
#[derive(Default)]
struct Pass {
    rounds: Vec<Round>,
    /// The first round's results by deck position.
    first: Vec<JobResult>,
    /// The first round's read-back bytes by deck position.
    outputs: Vec<Vec<Vec<u8>>>,
    /// Per round, a digest of its results by deck position.
    digests: Vec<u64>,
}

impl Round {
    /// The factor that scales the round's times to the reference host.
    fn scale(&self) -> f64 {
        YARDSTICK_REF_S / self.yard
    }
}

impl Pass {
    fn walls(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.wall).collect()
    }

    fn seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall).sum()
    }

    /// The median over the rounds of `f`, scaled to the reference host.
    fn scaled_median(&self, f: impl Fn(&Round) -> f64) -> f64 {
        median(
            &self
                .rounds
                .iter()
                .map(|r| f(r) * r.scale())
                .collect::<Vec<_>>(),
        )
    }
}

/// A digest of a round's results (`OpCounters` is not `Hash`, so the
/// digest is taken over the results' debug form).
fn digest(results: &[JobResult]) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{results:?}").hash(&mut h);
    h.finish()
}

/// A round's results as a multiset. Tenants that run the same program
/// at the same size share plans, and which of them captures and which
/// replays depends on the order, so only the multiset repeats across
/// rounds of different orders.
fn canonical(results: &[JobResult]) -> Vec<String> {
    let mut v: Vec<String> = results.iter().map(|r| format!("{r:?}")).collect();
    v.sort_unstable();
    v
}

/// Run rounds for `budget` seconds (and, if `min_counts`, until the
/// percentiles have enough samples), calling `between` before each round
/// with the share of the budget used so far. Every round must give the same
/// results as the first (as a multiset); with a `reference` pass, each
/// round must give exactly what the reference's round of the same index
/// (and order) gave, and the pass runs no more rounds than the reference.
#[allow(clippy::too_many_arguments)]
fn timed_pass(
    w: Workload,
    seed: u64,
    deck: &[Script],
    programs: &Programs,
    budget: f64,
    min_counts: bool,
    reference: Option<&Pass>,
    between: &mut dyn FnMut(f64) -> Result<(), String>,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let (mut jobs_seen, mut launches_seen) = (0, 0);
    loop {
        let r = pass.rounds.len();
        between(pass.seconds() / budget)?;
        let yard = yardstick();
        let t = Instant::now();
        let jobs = run_round(w, deck, &order(seed, r, deck), programs, tally)?;
        let wall = t.elapsed().as_secs_f64();
        // The round's yardstick is the mean of the ones before and after it.
        let yard = (yard + yardstick()) / 2.0;
        let mut results = Vec::with_capacity(jobs.len());
        let mut job_s = Vec::with_capacity(jobs.len());
        let mut launch_us = Vec::new();
        for job in jobs {
            job_s.push(job.latency_s);
            launch_us.extend_from_slice(&job.launch_us);
            results.push(job.result);
            if r == 0 {
                pass.outputs.push(job.outputs);
            }
        }
        let mismatch = match reference {
            Some(reference) => {
                (digest(&results) != reference.digests[r]).then_some("the untraced run")
            }
            None => (r > 0 && canonical(&results) != canonical(&pass.first))
                .then_some("the first round"),
        };
        if let Some(what) = mismatch {
            tally.failed += 1;
            return Err(format!(
                "round {r} differs from {what} in model time, counters or output bytes"
            ));
        }
        jobs_seen += job_s.len();
        launches_seen += launch_us.len();
        pass.rounds.push(Round {
            wall,
            yard,
            jobs: job_s.len(),
            launches: results.iter().map(|r| r.launches as usize).sum(),
            launch_p50_us: percentile(&launch_us, 0.5),
            launch_p99_us: percentile(&launch_us, 0.99),
            job_p50_s: percentile(&job_s, 0.5),
            job_p90_s: percentile(&job_s, 0.9),
        });
        pass.digests.push(digest(&results));
        if r == 0 {
            pass.first = results;
        }
        let elapsed = pass.seconds();
        let enough = !min_counts || (jobs_seen >= MIN_JOBS && launches_seen >= MIN_LAUNCHES);
        let last = reference.is_some_and(|p| pass.rounds.len() == p.rounds.len());
        if (elapsed >= budget && enough) || elapsed >= 4.0 * budget || last {
            return Ok(pass);
        }
    }
}

/// Output checks beyond round-to-round equality: CPU references for
/// `functional`; for `replay`/`resolve`, a round in the other plan mode
/// (same launches, d2d copies and d2d bytes) and a round of another
/// seed's deck (same model times).
fn verify(
    w: Workload,
    seed: u64,
    deck: &[Script],
    programs: &Programs,
    pass: &Pass,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut check = |ok: bool, what: String| {
        tally.attempted += 1;
        if ok {
            Ok(())
        } else {
            tally.failed += 1;
            Err(what)
        }
    };
    match w {
        Workload::Functional => {
            for (s, out) in deck.iter().zip(&pass.outputs) {
                let r = s.check(out);
                check(r.is_ok(), r.err().unwrap_or_default())?;
            }
            Ok(())
        }
        Workload::Replay | Workload::Resolve => {
            let other = if w == Workload::Replay {
                Workload::Resolve
            } else {
                Workload::Replay
            };
            let ord = order(seed, 0, deck);
            let mut other_tally = Tally::default();
            let theirs = run_round(other, deck, &ord, programs, &mut other_tally);
            let key = |r: &JobResult| {
                (
                    r.launches,
                    r.counters.launches,
                    r.counters.d2d_copies,
                    r.counters.d2d_bytes,
                )
            };
            let same = theirs.as_ref().is_ok_and(|t| {
                pass.first
                    .iter()
                    .map(key)
                    .eq(t.iter().map(|j| key(&j.result)))
            });
            check(
                same,
                format!(
                    "{} and {} issue different launches or d2d copies",
                    w.name(),
                    other.name()
                ),
            )?;
            let alt_seed = seed.wrapping_add(1);
            let alt = w.deck(alt_seed);
            let alt_jobs = run_round(
                w,
                &alt,
                &order(alt_seed, 0, &alt),
                programs,
                &mut other_tally,
            );
            let sorted = |mut m: Vec<u64>| {
                m.sort_unstable();
                m
            };
            let same = alt_jobs.as_ref().is_ok_and(|a| {
                sorted(pass.first.iter().map(|r| r.model_bits).collect())
                    == sorted(a.iter().map(|j| j.result.model_bits).collect())
            });
            check(
                same,
                "performance-mode model time differs between seeds".into(),
            )
        }
        Workload::Tenants => Ok(()),
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Σ model time of a round's runtimes, summed in a fixed order.
fn model_s(results: &[JobResult]) -> f64 {
    let mut bits: Vec<u64> = results.iter().map(|r| r.model_bits).collect();
    bits.sort_unstable();
    bits.into_iter().map(f64::from_bits).sum()
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics, in reference-host time (`yardstick`):
/// `setup_s` is the median of the faster half of the set-ups; the
/// latencies and `wall_s` are medians over the rounds of each round's
/// figure, and the rates are totals over the scaled round times.
fn end_to_end(setups: &[f64], pass: &Pass) -> Metrics {
    let secs: f64 = pass.rounds.iter().map(|r| r.wall * r.scale()).sum();
    let total = |f: fn(&Round) -> usize| pass.rounds.iter().map(f).sum::<usize>() as f64;
    vec![
        ("setup_s".into(), percentile(setups, 0.25), "s"),
        ("wall_s".into(), pass.scaled_median(|r| r.wall), "s"),
        ("launches_per_s".into(), total(|r| r.launches) / secs, "1/s"),
        (
            "launch_p50_us".into(),
            pass.scaled_median(|r| r.launch_p50_us),
            "us",
        ),
        (
            "launch_p99_us".into(),
            pass.scaled_median(|r| r.launch_p99_us),
            "us",
        ),
        ("jobs_per_s".into(), total(|r| r.jobs) / secs, "1/s"),
        (
            "job_p50_ms".into(),
            pass.scaled_median(|r| r.job_p50_s) * 1e3,
            "ms",
        ),
        (
            "job_p90_ms".into(),
            pass.scaled_median(|r| r.job_p90_s) * 1e3,
            "ms",
        ),
        ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
    ]
}

const COMPILE_KINDS: [Kind; 8] = [
    Kind::FrontendParse,
    Kind::AnalysisAnalyze,
    Kind::EnumgenBuild,
    Kind::CheckSafeAxes,
    Kind::PartitionTransform,
    Kind::RewriterRewrite,
    Kind::CoreCompile,
    Kind::CoreModelJson,
];

#[allow(clippy::too_many_arguments)]
fn per_layer(
    spec: &MachineSpec,
    setup: &Totals,
    timed: &Totals,
    traced: &Pass,
    untraced: &Pass,
    calib: Calibration,
    candidates: u64,
    memo: (u64, u64),
    spans: u64,
) -> Metrics {
    let rounds = traced.rounds.len() as f64;
    let reps = TRACED_SETUP_REPS as f64;
    let per = |k: Kind| setup.self_s(k) / reps + timed.self_s(k) / rounds;
    let calls = |k: Kind| setup.calls(k) as f64 / reps + timed.calls(k) as f64 / rounds;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let per_call_ns = |k: Kind| ratio(timed.self_s(k) * 1e9, timed.calls(k) as f64);
    let first = &traced.first;
    let sum = |f: &dyn Fn(&JobResult) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let hits = sum(&|r| r.counters.plan_hits);
    let misses = sum(&|r| r.counters.plan_misses);
    let gpusim_s = [Kind::GpusimLaunch, Kind::GpusimCopy, Kind::GpusimSync]
        .iter()
        .map(|&k| timed.self_s(k))
        .sum::<f64>();
    let probe_s = timed.probe_ns as f64 * 1e-9;
    let traced_wall = traced.seconds() - probe_s;
    let layer_self: f64 = trace::KINDS
        .iter()
        .filter(|&&k| k != Kind::Bench)
        .map(|&k| timed.self_s(k))
        .sum::<f64>()
        - probe_s;
    let compile_timed: f64 = COMPILE_KINDS.iter().map(|&k| timed.self_s(k)).sum();
    let replay_ns = per_call_ns(Kind::RuntimeReplay);
    let resolve_ns = per_call_ns(Kind::RuntimeResolve);
    let model_replay_ns = ratio(calib.model_replay_s * 1e9, calib.replays as f64);
    let model_resolve_ns = ratio(calib.model_resolve_s * 1e9, calib.resolves as f64);
    let mut m: Metrics = vec![
        ("frontend.parse_s".into(), per(Kind::FrontendParse), "s"),
        ("analysis.analyze_s".into(), per(Kind::AnalysisAnalyze), "s"),
        ("enumgen.build_s".into(), per(Kind::EnumgenBuild), "s"),
        ("check.safe_axes_s".into(), per(Kind::CheckSafeAxes), "s"),
        (
            "partition.transform_s".into(),
            per(Kind::PartitionTransform),
            "s",
        ),
        ("rewriter.rewrite_s".into(), per(Kind::RewriterRewrite), "s"),
        (
            "core.compile_s".into(),
            COMPILE_KINDS.iter().map(|&k| per(k)).sum(),
            "s",
        ),
        ("core.compile_self_s".into(), per(Kind::CoreCompile), "s"),
        ("core.model_json_s".into(), per(Kind::CoreModelJson), "s"),
        (
            "core.compile_calls".into(),
            calls(Kind::CoreCompile),
            "count",
        ),
        ("tuner.rank_s".into(), per(Kind::TunerRank), "s"),
        (
            "tuner.candidates".into(),
            candidates as f64 / rounds,
            "count",
        ),
        (
            "tuner.first_launch_s".into(),
            per(Kind::TunerFirstLaunch),
            "s",
        ),
        (
            "runtime.launch_self_s".into(),
            per(Kind::RuntimeReplay) + per(Kind::RuntimeResolve),
            "s",
        ),
        ("runtime.replay_host_ns".into(), replay_ns, "ns"),
        ("runtime.resolve_host_ns".into(), resolve_ns, "ns"),
        (
            "runtime.plan_hit_rate".into(),
            ratio(hits, hits + misses),
            "ratio",
        ),
        (
            "runtime.plan_shared_hit_rate".into(),
            ratio(sum(&|r| r.counters.plan_shared_hits), hits),
            "ratio",
        ),
        (
            "runtime.tracker_segments".into(),
            sum(&|r| r.segments),
            "count",
        ),
        (
            "enumgen.range_memo_hit_rate".into(),
            ratio(memo.0 as f64, (memo.0 + memo.1) as f64),
            "ratio",
        ),
        ("runtime.memcpy_s".into(), per(Kind::RuntimeMemcpy), "s"),
        ("runtime.sync_s".into(), per(Kind::RuntimeSync), "s"),
        ("runtime.other_s".into(), per(Kind::RuntimeOther), "s"),
        (
            "runtime.d2d_bytes".into(),
            sum(&|r| r.counters.d2d_bytes),
            "bytes",
        ),
        ("model_s".into(), model_s(first), "s"),
        (
            "runtime.d2d_copies".into(),
            sum(&|r| r.counters.d2d_copies),
            "count",
        ),
        ("gpusim.launch_s".into(), per(Kind::GpusimLaunch), "s"),
        (
            "gpusim.launch_calls".into(),
            calls(Kind::GpusimLaunch),
            "count",
        ),
        ("gpusim.copy_s".into(), per(Kind::GpusimCopy), "s"),
        ("gpusim.copy_calls".into(), calls(Kind::GpusimCopy), "count"),
        ("gpusim.sync_s".into(), per(Kind::GpusimSync), "s"),
        ("gpusim.sync_calls".into(), calls(Kind::GpusimSync), "count"),
        (
            "kernel.threads".into(),
            timed.threads as f64 / rounds,
            "count",
        ),
        (
            "kernel.threads_per_s".into(),
            ratio(timed.threads as f64, gpusim_s),
            "1/s",
        ),
        ("serve.register_s".into(), per(Kind::ServeRegister), "s"),
        (
            "serve.register_calls".into(),
            calls(Kind::ServeRegister),
            "count",
        ),
        (
            "serve.register_unattributed_s".into(),
            if timed.calls(Kind::ServeRegister) > 0 {
                (timed.self_s(Kind::ServeRegister) - compile_timed - timed.self_s(Kind::TunerRank))
                    / rounds
            } else {
                0.0
            },
            "s",
        ),
        ("serve.step_s".into(), per(Kind::ServeStep), "s"),
        ("serve.step_calls".into(), calls(Kind::ServeStep), "count"),
        ("serve.remove_s".into(), per(Kind::ServeRemove), "s"),
        (
            "serve.remove_calls".into(),
            calls(Kind::ServeRemove),
            "count",
        ),
        ("serve.submit_s".into(), per(Kind::ServeSubmit), "s"),
        ("trace.wall_s".into(), traced_wall / rounds, "s"),
        (
            "trace.overhead_s".into(),
            median(&traced.walls()) - probe_s / rounds - median(&untraced.walls()),
            "s",
        ),
        (
            "trace.attributed_share".into(),
            ratio(layer_self, traced_wall),
            "ratio",
        ),
        ("trace.spans".into(), spans as f64, "count"),
        (
            "host.yardstick_ms".into(),
            median(
                &traced
                    .rounds
                    .iter()
                    .map(|r| r.yard * 1e3)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        (
            "calibration.host_per_replay_ns".into(),
            spec.host_per_replay * 1e9,
            "ns",
        ),
        (
            "calibration.host_per_range_ns".into(),
            spec.host_per_range * 1e9,
            "ns",
        ),
        (
            "calibration.host_per_segment_ns".into(),
            spec.host_per_segment * 1e9,
            "ns",
        ),
        ("calibration.model_replay_ns".into(), model_replay_ns, "ns"),
        (
            "calibration.model_resolve_ns".into(),
            model_resolve_ns,
            "ns",
        ),
        (
            "calibration.replay_ratio".into(),
            ratio(replay_ns, model_replay_ns),
            "ratio",
        ),
        (
            "calibration.resolve_ratio".into(),
            ratio(resolve_ns, model_resolve_ns),
            "ratio",
        ),
    ];
    for layer in trace::LAYERS {
        let errors = setup.errors(layer) + timed.errors(layer);
        m.push((format!("{layer}.errors"), errors as f64, "count"));
    }
    m
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn report(tally: Tally, ok: bool, metrics: &Metrics) {
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ok && tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        json_metrics(metrics)
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    match run(&args, &mut tally) {
        Ok(metrics) => {
            let ok = tally.failed == 0;
            report(tally, ok, &metrics);
            if !ok {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            tally.failed = tally.failed.max(1);
            report(tally, false, &Metrics::new());
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let w = args.workload;
    let deck = w.deck(args.seed);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let (programs, secs) = scaled_time(|| setup(w, &deck));
    let programs = programs?;
    setups.push(secs);
    // The other set-ups are spread over the timed phase, so that a busy
    // stretch of a shared host does not slow all of them.
    let mut more_setups = |progress: f64| -> Result<(), String> {
        let due = if args.trace {
            0
        } else {
            ((SETUP_REPS as f64 * progress).ceil() as usize).min(SETUP_REPS)
        };
        while setups.len() < due {
            let (r, secs) = scaled_time(|| setup(w, &deck));
            r?;
            setups.push(secs);
        }
        Ok(())
    };

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = timed_pass(
        w,
        args.seed,
        &deck,
        &programs,
        budget,
        !args.trace,
        None,
        &mut more_setups,
        tally,
    )?;
    more_setups(1.0)?;
    verify(w, args.seed, &deck, &programs, &untraced, tally)?;
    println!("model_s {:?}", model_s(&untraced.first));
    println!(
        "host yardstick_ms {:?} (reference {:?})",
        median(
            &untraced
                .rounds
                .iter()
                .map(|r| r.yard * 1e3)
                .collect::<Vec<_>>()
        ),
        YARDSTICK_REF_S * 1e3
    );
    if !args.trace {
        return Ok(end_to_end(&setups, &untraced));
    }

    runner::take_tuner_candidates();
    Calibration::take();
    trace::start();
    let mut traced_programs = Programs::new();
    for _ in 0..TRACED_SETUP_REPS {
        traced_programs = setup(w, &deck)?;
    }
    for (p, prog) in &traced_programs {
        compile::check_same(prog, &programs[p])?;
    }
    trace::set_phase(Phase::Timed);
    let traced = timed_pass(
        w,
        args.seed,
        &deck,
        &traced_programs,
        budget,
        false,
        Some(&untraced),
        &mut |_| Ok(()),
        tally,
    );
    let dump = args
        .out
        .as_ref()
        .map(|dir| dir.join(format!("{}-seed{}.trace.csv", w.name(), args.seed)));
    let ([setup_totals, timed_totals], spans) =
        trace::finish(dump.as_deref()).map_err(|e| format!("writing the trace: {e}"))?;
    let traced = traced?;
    let memo = if w == Workload::Tenants {
        (0, 0)
    } else {
        traced_programs
            .values()
            .flat_map(|p| &p.kernels)
            .map(|k| k.range_cache_stats())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    let calib = Calibration::take();
    let metrics = per_layer(
        &MachineSpec::kepler_system(1),
        &setup_totals,
        &timed_totals,
        &traced,
        &untraced,
        calib,
        runner::take_tuner_candidates(),
        memo,
        spans,
    );
    print_calibration(&metrics);
    Ok(metrics)
}

/// The calibration table: measured host time per launch next to the
/// model's constants and charges.
fn print_calibration(m: &Metrics) {
    let get = |n: &str| {
        m.iter()
            .find(|(k, _, _)| k == n)
            .map_or(0.0, |(_, v, _)| *v)
    };
    println!("calibration (MachineSpec::kepler_system host constants vs measured host time)");
    println!(
        "  host_per_replay   {:>10.1} ns | model charge per replay  {:>10.1} ns | measured replay  {:>10.1} ns | ratio {:>7.2}",
        get("calibration.host_per_replay_ns"),
        get("calibration.model_replay_ns"),
        get("runtime.replay_host_ns"),
        get("calibration.replay_ratio"),
    );
    println!(
        "  host_per_range    {:>10.1} ns | model charge per resolve {:>10.1} ns | measured resolve {:>10.1} ns | ratio {:>7.2}",
        get("calibration.host_per_range_ns"),
        get("calibration.model_resolve_ns"),
        get("runtime.resolve_host_ns"),
        get("calibration.resolve_ratio"),
    );
    println!(
        "  host_per_segment  {:>10.1} ns",
        get("calibration.host_per_segment_ns")
    );
}
