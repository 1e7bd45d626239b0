//! Ablation A6: launch-plan capture & replay.
//!
//! **Part A** runs the 100-iteration ping-pong Hotspot stencil on a
//! functional 4-GPU machine with `capture_plans` on and off. Replay is a
//! pure host-side shortcut: both runs must produce byte-identical output
//! (checked against the CPU reference as well) and identical simulated
//! kernel/transfer work, while the capturing run hits the plan cache on
//! ≥ 90% of launches — ping-pong trackers reach a periodic fixed point
//! after warm-up, so only the first occurrence of each (buffer order,
//! tracker signature) key walks the trackers.
//!
//! **Part B** repeats the comparison in performance mode and measures
//! what replay buys: simulated host (Pattern) time per launch drops —
//! the flat `host_per_replay` charge replaces the per-range/per-segment
//! pattern cost — and the measured wall-clock of the bench loop drops
//! with it, because a hit skips the tracker walks, enumerator queries
//! and transfer planning entirely.
//!
//! Emits `BENCH_replay.json` for the perf trajectory.

use mekong_bench::BenchArgs;
use mekong_core::prelude::*;
use mekong_gpusim::{Machine, OpCounters};
use mekong_workloads::harness::Benchmark;
use mekong_workloads::hotspot::{self, Hotspot};
use serde::Serialize;
use std::time::Instant;

/// One functional run: output bytes + counters + hit rate.
struct FuncRun {
    output: Vec<f32>,
    counters: OpCounters,
}

fn run_functional(capture: bool, n: usize, iters: usize) -> FuncRun {
    let program = compile_source(hotspot::SOURCE).expect("hotspot compiles");
    let ck = program.kernel("hotspot").unwrap();
    let (grid, block) = hotspot::geometry(n);
    let bytes = n * n * 4;

    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(4), true));
    rt.set_config(RuntimeConfig {
        capture_plans: capture,
        ..RuntimeConfig::beta()
    });
    let a = rt.malloc(bytes, 4).unwrap();
    let b = rt.malloc(bytes, 4).unwrap();
    let p = rt.malloc(bytes, 4).unwrap();
    let temp: Vec<u8> = (0..n * n)
        .flat_map(|i| (((i * 31) % 173) as f32 * 0.1).to_le_bytes())
        .collect();
    let power: Vec<u8> = (0..n * n)
        .flat_map(|i| (((i * 17) % 97) as f32 * 0.01).to_le_bytes())
        .collect();
    rt.memcpy_h2d(a, &temp).unwrap();
    rt.memcpy_h2d(b, &temp).unwrap();
    rt.memcpy_h2d(p, &power).unwrap();
    let (mut src, mut dst) = (a, b);
    for _ in 0..iters {
        rt.launch(
            ck,
            grid,
            block,
            &[
                LaunchArg::Scalar(Value::I64(n as i64)),
                LaunchArg::Scalar(Value::F32(hotspot::CAP)),
                LaunchArg::Buf(src),
                LaunchArg::Buf(p),
                LaunchArg::Buf(dst),
            ],
        )
        .expect("hotspot launch");
        std::mem::swap(&mut src, &mut dst);
    }
    rt.synchronize();
    let mut out = vec![0u8; bytes];
    rt.memcpy_d2h(src, &mut out).unwrap();
    FuncRun {
        output: out
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect(),
        counters: rt.machine().counters(),
    }
}

fn hit_rate(c: &OpCounters) -> f64 {
    let total = c.plan_hits + c.plan_misses;
    if total == 0 {
        0.0
    } else {
        c.plan_hits as f64 / total as f64
    }
}

/// Best-of-`reps` wall-clock (ms) and the outcome of one perf-mode run.
fn run_perf(
    capture: bool,
    n: usize,
    iters: usize,
    reps: usize,
) -> (f64, mekong_workloads::harness::RunOutcome) {
    let cfg = RuntimeConfig {
        capture_plans: capture,
        ..RuntimeConfig::beta()
    };
    let mut best_ms = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = Hotspot.mgpu_run_spec(MachineSpec::kepler_system(4), n, iters, cfg);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        outcome = Some(out);
    }
    (best_ms, outcome.unwrap())
}

#[derive(Serialize)]
struct FunctionalReport {
    n: usize,
    iters: usize,
    hit_rate: f64,
    plan_hits: u64,
    plan_misses: u64,
    launches: u64,
    d2d_copies: u64,
    d2d_bytes: u64,
}

#[derive(Serialize)]
struct PerfReport {
    n: usize,
    iters: usize,
    hit_rate_on: f64,
    wall_ms_on: f64,
    wall_ms_off: f64,
    pattern_per_launch_on: f64,
    pattern_per_launch_off: f64,
    sim_elapsed_on: f64,
    sim_elapsed_off: f64,
}

#[derive(Serialize)]
struct Report {
    functional: FunctionalReport,
    perf: PerfReport,
}

fn main() {
    let args = BenchArgs::parse();

    // Part A: functional equivalence + hit rate, 100-iteration ping-pong.
    let n_func = 256usize;
    let iters_func = 100usize;
    println!("Ablation A6a: capture/replay equivalence (hotspot {n_func}x{n_func}, {iters_func} iters, 4 functional GPUs)");
    println!();
    let on = run_functional(true, n_func, iters_func);
    let off = run_functional(false, n_func, iters_func);
    let temp: Vec<f32> = (0..n_func * n_func)
        .map(|i| ((i * 31) % 173) as f32 * 0.1)
        .collect();
    let power: Vec<f32> = (0..n_func * n_func)
        .map(|i| ((i * 17) % 97) as f32 * 0.01)
        .collect();
    let want = hotspot::cpu_reference(n_func, &temp, &power, iters_func);
    assert_eq!(on.output, off.output, "replay must not change results");
    assert!(
        on.output
            .iter()
            .zip(&want)
            .all(|(g, w)| (g - w).abs() <= 1e-3 * w.abs().max(1.0)),
        "replayed run diverges from the CPU reference"
    );
    assert_eq!(on.counters.launches, off.counters.launches);
    assert_eq!(
        on.counters.d2d_copies, off.counters.d2d_copies,
        "replay must issue the same transfers"
    );
    assert_eq!(on.counters.d2d_bytes, off.counters.d2d_bytes);
    assert_eq!(off.counters.plan_hits, 0, "capture off cannot hit");
    let rate = hit_rate(&on.counters);
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>12}",
        "capture_plans", "hits", "misses", "d2d", "d2d bytes"
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>12}",
        "on",
        on.counters.plan_hits,
        on.counters.plan_misses,
        on.counters.d2d_copies,
        on.counters.d2d_bytes
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>12}",
        "off",
        off.counters.plan_hits,
        off.counters.plan_misses,
        off.counters.d2d_copies,
        off.counters.d2d_bytes
    );
    println!();
    println!(
        "identical outputs (and == CPU reference); hit rate {:.1}%",
        rate * 100.0
    );
    assert!(
        rate >= 0.90,
        "ping-pong steady state must hit ≥ 90%: {rate}"
    );

    // Part B: what replay buys, in simulated Pattern time and wall-clock.
    let n_perf = 2048usize;
    let iters_perf = ((300.0 * args.iter_scale.max(0.02)) as usize).max(20);
    let reps = 3;
    println!();
    println!("Ablation A6b: per-launch overhead (hotspot {n_perf}x{n_perf}, {iters_perf} iters, 4 perf GPUs, best of {reps})");
    println!();
    let (wall_on, out_on) = run_perf(true, n_perf, iters_perf, reps);
    let (wall_off, out_off) = run_perf(false, n_perf, iters_perf, reps);
    let launches = out_on.counters.launches as f64;
    let ppl_on = out_on.breakdown.pattern / launches;
    let ppl_off = out_off.breakdown.pattern / out_off.counters.launches as f64;
    println!(
        "{:>14} {:>12} {:>18} {:>12}",
        "capture_plans", "wall [ms]", "pattern/launch [s]", "hit rate"
    );
    println!(
        "{:>14} {:>12.1} {:>18.3e} {:>11.1}%",
        "on",
        wall_on,
        ppl_on,
        out_on.plan_hit_rate() * 100.0
    );
    println!(
        "{:>14} {:>12.1} {:>18.3e} {:>11.1}%",
        "off",
        wall_off,
        ppl_off,
        out_off.plan_hit_rate() * 100.0
    );
    assert_eq!(out_on.counters.launches, out_off.counters.launches);
    assert_eq!(out_on.counters.d2d_bytes, out_off.counters.d2d_bytes);
    assert!(
        ppl_on < ppl_off,
        "replay must charge strictly less Pattern time per launch: {ppl_on} vs {ppl_off}"
    );
    assert!(
        wall_on < wall_off,
        "replay must lower the measured wall-clock: {wall_on}ms vs {wall_off}ms"
    );
    println!();
    println!(
        "replay cuts simulated host overhead x{:.3} per launch and wall-clock x{:.3}.",
        ppl_on / ppl_off,
        wall_on / wall_off
    );

    let report = Report {
        functional: FunctionalReport {
            n: n_func,
            iters: iters_func,
            hit_rate: rate,
            plan_hits: on.counters.plan_hits,
            plan_misses: on.counters.plan_misses,
            launches: on.counters.launches,
            d2d_copies: on.counters.d2d_copies,
            d2d_bytes: on.counters.d2d_bytes,
        },
        perf: PerfReport {
            n: n_perf,
            iters: iters_perf,
            hit_rate_on: out_on.plan_hit_rate(),
            wall_ms_on: wall_on,
            wall_ms_off: wall_off,
            pattern_per_launch_on: ppl_on,
            pattern_per_launch_off: ppl_off,
            sim_elapsed_on: out_on.elapsed,
            sim_elapsed_off: out_off.elapsed,
        },
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    mekong_bench::write_record(args.quick, "BENCH_replay.json", &json);
}
