//! Ablation A9: launch-ahead pipelined scheduling.
//!
//! The Figure 4 replay path is fully synchronous: every iteration pays
//! `halo exchange + compute` because a global barrier sits between the
//! read-sync and launch phases. With `RuntimeConfig::launch_ahead > 0`,
//! captured-plan replays instead record per-device command segments with
//! event edges (see `mekong_runtime::pipeline`), so iteration *i+1*'s
//! halo exchange drains on the copy engines while iteration *i*'s
//! compute still occupies the SM clocks — steady state approaches
//! `max(halo, compute)` per iteration instead of their sum.
//!
//! **Part A (correctness)** runs the ping-pong Hotspot stencil and the
//! separable Blur pipeline on *functional* machines at
//! `launch_ahead ∈ {0, 2, 4}` and asserts byte-identical outputs and
//! identical plan-cache behaviour — pipelining must be invisible to
//! everything but the device clocks. This is the CI gate: `--quick`
//! runs fail loudly on any divergence.
//!
//! **Part B (performance)** repeats both workloads on perf machines at
//! 2 and 4 GPUs and compares simulated wall-clock for
//! `launch_ahead = 2` vs `0`. The sizes put halo time and compute time
//! in the same regime, where overlap pays most; the acceptance bar is a
//! ≥ 15% reduction on at least one ping-pong stencil at 4 GPUs, with
//! every counter (transfers, launches, plan hits) unchanged.
//!
//! Emits `BENCH_pipeline.json`.

use mekong_bench::BenchArgs;
use mekong_core::prelude::*;
use mekong_gpusim::{Machine, OpCounters};
use mekong_workloads::{blur, hotspot};
use serde::Serialize;

fn config(launch_ahead: u32) -> RuntimeConfig {
    RuntimeConfig {
        capture_plans: true,
        launch_ahead,
        ..RuntimeConfig::default()
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

/// One run of a workload at a given launch-ahead depth. On functional
/// machines `output` holds the gathered result bytes; on perf machines
/// it is empty and only the clocks and counters are meaningful.
struct PipeRun {
    elapsed: f64,
    counters: OpCounters,
    output: Vec<u8>,
}

/// Ping-pong Hotspot: `src/dst` swap each iteration, `power` is
/// read-only — the canonical halo-exchange loop.
fn run_hotspot(ahead: u32, gpus: usize, n: usize, iters: usize, functional: bool) -> PipeRun {
    let program = compile_source(hotspot::SOURCE).expect("hotspot compiles");
    let ck = program.kernel("hotspot").unwrap();
    let (grid, block) = hotspot::geometry(n);
    let bytes = n * n * 4;

    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), functional));
    rt.set_config(config(ahead));
    let a = rt.malloc(bytes, 4).unwrap();
    let b = rt.malloc(bytes, 4).unwrap();
    let p = rt.malloc(bytes, 4).unwrap();
    if functional {
        let temp: Vec<u8> = (0..n * n)
            .flat_map(|i| (((i * 31) % 173) as f32 * 0.1).to_le_bytes())
            .collect();
        let power: Vec<u8> = (0..n * n)
            .flat_map(|i| (((i * 17) % 97) as f32 * 0.01).to_le_bytes())
            .collect();
        rt.memcpy_h2d(a, &temp).unwrap();
        rt.memcpy_h2d(b, &temp).unwrap();
        rt.memcpy_h2d(p, &power).unwrap();
    } else {
        rt.memcpy_h2d_sim(a).unwrap();
        rt.memcpy_h2d_sim(b).unwrap();
        rt.memcpy_h2d_sim(p).unwrap();
    }
    // Time only the iteration loop, not the uploads.
    rt.machine_mut().reset_clock();
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
    let elapsed = rt.elapsed();
    let mut output = Vec::new();
    if functional {
        output = vec![0u8; bytes];
        rt.memcpy_d2h(src, &mut output).unwrap();
    }
    PipeRun {
        elapsed,
        counters: rt.machine().counters(),
        output,
    }
}

/// Separable Blur (`row` then `col`, ping-ponging through `tmp`): the
/// column pass reads across the row partitions, so every iteration
/// re-syncs halos of `tmp`.
fn run_blur(ahead: u32, gpus: usize, n: usize, iters: usize, functional: bool) -> PipeRun {
    let program = compile_source(blur::SOURCE).expect("blur compiles");
    let row = program.kernel("blur_row").unwrap();
    let col = program.kernel("blur_col").unwrap();
    let (grid, block) = blur::geometry(n);
    let bytes = n * n * 4;

    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), functional));
    rt.set_config(config(ahead));
    let a = rt.malloc(bytes, 4).unwrap();
    let tmp = rt.malloc(bytes, 4).unwrap();
    if functional {
        let img: Vec<u8> = (0..n * n)
            .flat_map(|i| (((i * 41) % 211) as f32).to_le_bytes())
            .collect();
        rt.memcpy_h2d(a, &img).unwrap();
    } else {
        rt.memcpy_h2d_sim(a).unwrap();
    }
    rt.machine_mut().reset_clock();
    let n_arg = LaunchArg::Scalar(Value::I64(n as i64));
    for _ in 0..iters {
        rt.launch(
            row,
            grid,
            block,
            &[n_arg, LaunchArg::Buf(a), LaunchArg::Buf(tmp)],
        )
        .expect("blur_row launch");
        rt.launch(
            col,
            grid,
            block,
            &[n_arg, LaunchArg::Buf(tmp), LaunchArg::Buf(a)],
        )
        .expect("blur_col launch");
    }
    rt.synchronize();
    let elapsed = rt.elapsed();
    let mut output = Vec::new();
    if functional {
        output = vec![0u8; bytes];
        rt.memcpy_d2h(a, &mut output).unwrap();
    }
    PipeRun {
        elapsed,
        counters: rt.machine().counters(),
        output,
    }
}

#[derive(Serialize)]
struct CorrectnessReport {
    workload: &'static str,
    gpus: usize,
    n: usize,
    iters: usize,
    identical_outputs: bool,
    plan_hits: u64,
    plan_misses: u64,
}

#[derive(Serialize)]
struct PerfReport {
    workload: &'static str,
    gpus: usize,
    n: usize,
    iters: usize,
    elapsed_sync_ms: f64,
    elapsed_pipelined_ms: f64,
    reduction_pct: f64,
    hit_rate: f64,
}

#[derive(Serialize)]
struct Report {
    correctness: Vec<CorrectnessReport>,
    perf: Vec<PerfReport>,
}

type WorkloadFn = fn(u32, usize, usize, usize, bool) -> PipeRun;

/// Functional differential at `launch_ahead ∈ {0, 2, 4}`: identical
/// bytes, identical plan-cache behaviour.
fn check_correctness(
    workload: &'static str,
    run: WorkloadFn,
    gpus: usize,
    n: usize,
    iters: usize,
) -> CorrectnessReport {
    let base = run(0, gpus, n, iters, true);
    for ahead in [2u32, 4] {
        let r = run(ahead, gpus, n, iters, true);
        assert_eq!(
            base.output, r.output,
            "{workload}: launch_ahead={ahead} diverged from synchronous output"
        );
        assert_eq!(
            (base.counters.plan_hits, base.counters.plan_misses),
            (r.counters.plan_hits, r.counters.plan_misses),
            "{workload}: launch_ahead={ahead} changed plan-cache behaviour"
        );
        assert_eq!(
            base.counters, r.counters,
            "{workload}: launch_ahead={ahead} changed machine counters"
        );
    }
    println!("{workload:>10} {gpus:>5} {n:>6} {iters:>6}   outputs byte-identical at ahead 0/2/4");
    CorrectnessReport {
        workload,
        gpus,
        n,
        iters,
        identical_outputs: true,
        plan_hits: base.counters.plan_hits,
        plan_misses: base.counters.plan_misses,
    }
}

/// Perf differential at `launch_ahead = 2` vs `0`: identical counters,
/// reduced simulated wall-clock.
fn check_perf(
    workload: &'static str,
    run: WorkloadFn,
    gpus: usize,
    n: usize,
    iters: usize,
) -> PerfReport {
    let sync = run(0, gpus, n, iters, false);
    let pipe = run(2, gpus, n, iters, false);
    assert_eq!(
        sync.counters, pipe.counters,
        "{workload}@{gpus}: pipelining must not change any counter"
    );
    let reduction = 100.0 * (1.0 - pipe.elapsed / sync.elapsed);
    println!(
        "{workload:>10} {gpus:>5} {n:>6} {iters:>6} {:>12.3} {:>12.3} {reduction:>9.1}%",
        sync.elapsed * 1e3,
        pipe.elapsed * 1e3,
    );
    PerfReport {
        workload,
        gpus,
        n,
        iters,
        elapsed_sync_ms: sync.elapsed * 1e3,
        elapsed_pipelined_ms: pipe.elapsed * 1e3,
        reduction_pct: reduction,
        hit_rate: hit_rate(&pipe.counters),
    }
}

fn main() {
    let args = BenchArgs::parse();
    let (fn_iters, perf_iters) = if args.quick { (8, 12) } else { (24, 48) };
    let perf_n = if args.quick { 1024 } else { 2048 };

    println!("Ablation A9: launch-ahead pipelined scheduling");
    println!();
    println!("Part A: functional differential (launch_ahead 0 vs 2 vs 4)");
    println!("{:>10} {:>5} {:>6} {:>6}", "workload", "gpus", "n", "iters");
    let correctness = vec![
        check_correctness("hotspot", run_hotspot, 4, 260, fn_iters),
        check_correctness("blur", run_blur, 3, 200, fn_iters),
        check_correctness("hotspot", run_hotspot, 2, 260, fn_iters),
    ];

    println!();
    println!("Part B: simulated wall-clock, launch_ahead 2 vs 0 (perf machines)");
    println!(
        "{:>10} {:>5} {:>6} {:>6} {:>12} {:>12} {:>10}",
        "workload", "gpus", "n", "iters", "sync [ms]", "pipe [ms]", "saved"
    );
    let mut perf = Vec::new();
    for gpus in [2usize, 4] {
        perf.push(check_perf("hotspot", run_hotspot, gpus, perf_n, perf_iters));
        perf.push(check_perf("blur", run_blur, gpus, perf_n, perf_iters));
    }

    let best = perf
        .iter()
        .filter(|p| p.gpus == 4)
        .map(|p| p.reduction_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        best >= 15.0,
        "launch-ahead must cut ≥15% wall-clock on a ping-pong stencil at 4 GPUs, best was {best:.1}%"
    );
    for p in &perf {
        assert!(
            p.hit_rate > 0.5,
            "{}@{}: replay must dominate for the overlap to matter",
            p.workload,
            p.gpus
        );
    }

    println!();
    println!(
        "pipelining is invisible to outputs and counters; halo exchange overlaps compute \
         for a {best:.1}% wall-clock cut at 4 GPUs."
    );

    let report = Report { correctness, perf };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    mekong_bench::write_record(args.quick, "BENCH_pipeline.json", &json);
}
