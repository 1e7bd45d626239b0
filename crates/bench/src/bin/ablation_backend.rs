//! Ablation A13: backend comparison — tuned mixed CPU+GPU shares vs
//! GPU-only vs CPU-only execution.
//!
//! One `Machine` hosts either device class: sim-GPU dies, host CPU
//! sockets (`MachineSpec::cpu_system`), or a mix of both. This ablation answers three questions for hotspot and
//! nbody:
//!
//! 1. **Functional equivalence** — the bytes produced on a pure sim-GPU
//!    machine, on a CPU-only machine, and on a mixed CPU+GPU machine
//!    must be identical (every device class shares the block-parallel
//!    interpreter, so divergence is a machine bug).
//! 2. **Heterogeneous shares** — on the mixed machine the autotuner
//!    must notice the class imbalance. For nbody (compute-bound, and
//!    every partition re-reads all positions, so the transfer bill is
//!    layout-invariant) it must pick *weighted* shares sized by the
//!    per-class rooflines. For hotspot the h2d upload already lands in
//!    even slabs and the stencil reads are layout-local, so the even
//!    split's near-zero redistribution beats the weighted split's
//!    one-time reshuffle in the greedy first-launch ranking — the
//!    chosen shares are recorded either way.
//! 3. **Placement sanity** — CPU-only nbody is slower than GPU-only
//!    (host sockets trail Kepler dies ~8x in flops), quantifying why
//!    mixed placement gives the CPU only a sliver of the grid. For
//!    transfer-dominated sizes of hotspot the CPU-only machine can
//!    *win*: host↔host halo memcpys skip the PCIe hop entirely, which
//!    is exactly what the host-memory cost model is about — the ratio
//!    is reported, not asserted.
//!
//! Emits `BENCH_backend.json`.

use mekong_bench::BenchArgs;
use mekong_core::prelude::*;
use mekong_workloads::harness::RunOutcome;
use mekong_workloads::{hotspot, nbody, Benchmark};
use serde::Serialize;

type StepFn = Box<dyn FnMut(&mut MgpuRuntime)>;

/// A constructed workload instance on some backend: runtime with
/// uploaded buffers plus a closure performing one iteration.
struct Prepared {
    rt: MgpuRuntime,
    step: StepFn,
}

struct Bench {
    name: &'static str,
    n_full: usize,
    n_quick: usize,
    /// Iterations to absorb the initial redistribution before the
    /// steady-state measurement window.
    warmup: usize,
    measure_full: usize,
    measure_quick: usize,
    make: fn(Box<dyn Backend>, RuntimeConfig, usize) -> Prepared,
    workload: fn() -> Box<dyn Benchmark>,
    /// Must the tuner pick weighted shares on the mixed machine?
    /// (Only where the transfer bill is layout-invariant; see the
    /// module docs.)
    expect_weighted: bool,
    /// Must CPU-only lose to GPU-only? (Only for compute-bound
    /// kernels; transfer-bound ones may win on host memcpys.)
    expect_cpu_slower: bool,
}

fn make_hotspot(machine: Box<dyn Backend>, cfg: RuntimeConfig, n: usize) -> Prepared {
    let program = compile_source(hotspot::SOURCE).expect("hotspot compiles");
    let ck = program.kernel("hotspot").unwrap().clone();
    let (grid, block) = hotspot::geometry(n);
    let bytes = n * n * 4;
    let mut rt = MgpuRuntime::from_boxed(machine);
    rt.set_config(cfg);
    let a = rt.malloc(bytes, 4).unwrap();
    let b = rt.malloc(bytes, 4).unwrap();
    let p = rt.malloc(bytes, 4).unwrap();
    for buf in [a, b, p] {
        rt.memcpy_h2d_sim(buf).unwrap();
    }
    let args = move |src, dst| {
        vec![
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Scalar(Value::F32(hotspot::CAP)),
            LaunchArg::Buf(src),
            LaunchArg::Buf(p),
            LaunchArg::Buf(dst),
        ]
    };
    let (mut src, mut dst) = (a, b);
    let step: StepFn = Box::new(move |rt| {
        rt.launch(&ck, grid, block, &args(src, dst))
            .expect("hotspot launch");
        std::mem::swap(&mut src, &mut dst);
    });
    Prepared { rt, step }
}

fn make_nbody(machine: Box<dyn Backend>, cfg: RuntimeConfig, n: usize) -> Prepared {
    let program = compile_source(nbody::SOURCE).expect("nbody compiles");
    let ck = program.kernel("nbody").unwrap().clone();
    let (grid, block) = nbody::geometry(n);
    let bytes = n * 4 * 4;
    let mut rt = MgpuRuntime::from_boxed(machine);
    rt.set_config(cfg);
    let a = rt.malloc(bytes, 4).unwrap();
    let b = rt.malloc(bytes, 4).unwrap();
    let v = rt.malloc(bytes, 4).unwrap();
    rt.memcpy_h2d_sim(a).unwrap();
    rt.memcpy_h2d_sim(v).unwrap();
    let args = move |src, dst| {
        vec![
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Scalar(Value::F32(nbody::DT)),
            LaunchArg::Scalar(Value::F32(nbody::EPS)),
            LaunchArg::Buf(src),
            LaunchArg::Buf(v),
            LaunchArg::Buf(dst),
        ]
    };
    let (mut src, mut dst) = (a, b);
    let step: StepFn = Box::new(move |rt| {
        rt.launch(&ck, grid, block, &args(src, dst))
            .expect("nbody launch");
        std::mem::swap(&mut src, &mut dst);
    });
    Prepared { rt, step }
}

const BENCHES: &[Bench] = &[
    Bench {
        name: "hotspot",
        n_full: 2048,
        n_quick: 512,
        warmup: 3,
        measure_full: 12,
        measure_quick: 4,
        make: make_hotspot,
        workload: || Box::new(mekong_workloads::Hotspot),
        expect_weighted: false,
        expect_cpu_slower: false,
    },
    Bench {
        name: "nbody",
        n_full: 65_536,
        n_quick: 8_192,
        warmup: 2,
        measure_full: 8,
        measure_quick: 3,
        make: make_nbody,
        workload: || Box::new(mekong_workloads::NBody),
        expect_weighted: true,
        expect_cpu_slower: true,
    },
];

#[derive(Serialize)]
struct ExecRow {
    executor: String,
    elapsed: f64,
    strategy: Option<String>,
    /// Per-device grid-share fractions of the chosen strategy.
    chosen_shares: Vec<f64>,
    predict_bytes_per_launch: u64,
    measured_bytes_per_launch: u64,
    prediction_error: f64,
}

#[derive(Serialize)]
struct WorkloadReport {
    name: String,
    n: usize,
    iters: usize,
    byte_identical: bool,
    executors: Vec<ExecRow>,
    mixed_strategy: String,
    cpu_vs_gpu_slowdown: f64,
}

#[derive(Serialize)]
struct Report {
    quick: bool,
    gpus: usize,
    cpu_sockets: usize,
    workloads: Vec<WorkloadReport>,
}

/// Prediction error of the tuner's chosen strategy: |predicted −
/// measured| steady-state peer-transfer bytes, relative to measured.
fn prediction_error(o: &RunOutcome) -> f64 {
    (o.tuner_predict_bytes as f64 - o.tuner_measured_bytes as f64).abs()
        / (o.tuner_measured_bytes as f64).max(1.0)
}

/// Run `iters` iterations, returning the outcome plus the chosen
/// strategy's share vector normalized to fractions (even splits report
/// `1/k` each; weighted splits the proportional weights).
fn run(prep: Prepared, iters: usize) -> (RunOutcome, Vec<f64>) {
    let Prepared { mut rt, mut step } = prep;
    for _ in 0..iters {
        step(&mut rt);
    }
    rt.synchronize();
    let shares = rt
        .tuner()
        .entries()
        .next()
        .map(|(_, e)| {
            let s = &e.strategy().shares;
            let total: f64 = s.iter().sum();
            s.iter().map(|w| w / total).collect()
        })
        .unwrap_or_default();
    (RunOutcome::from_runtime(&rt), shares)
}

fn row(executor: &str, o: &RunOutcome, shares: &[f64]) -> ExecRow {
    let err = prediction_error(o);
    let share_str = shares
        .iter()
        .map(|s| format!("{s:.2}"))
        .collect::<Vec<_>>()
        .join("/");
    println!(
        "{:>12} {:>12.3} {:>9} {:>16} {:>15} {:>15} {:>8.1}%",
        executor,
        o.elapsed * 1e3,
        o.strategy_chosen.as_deref().unwrap_or("-"),
        share_str,
        o.tuner_predict_bytes,
        o.tuner_measured_bytes,
        err * 100.0
    );
    ExecRow {
        executor: executor.to_string(),
        elapsed: o.elapsed,
        strategy: o.strategy_chosen.clone(),
        chosen_shares: shares.to_vec(),
        predict_bytes_per_launch: o.tuner_predict_bytes,
        measured_bytes_per_launch: o.tuner_measured_bytes,
        prediction_error: err,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let (gpus, cpus) = (2usize, 1usize);

    println!("Ablation A13: Backend trait — GPU-only vs CPU-only vs mixed CPU+GPU");
    let mut workloads = Vec::new();
    for bench in BENCHES {
        let n = if args.quick {
            bench.n_quick
        } else {
            bench.n_full
        };
        let measure = if args.quick {
            bench.measure_quick
        } else {
            bench.measure_full
        };
        let iters = bench.warmup + measure;

        // Functional equivalence across backends (small fixed-size
        // instances in functional mode, independent of `n`).
        let w = (bench.workload)();
        let gpu_out = w.verify_output(Box::new(Machine::new(
            MachineSpec::kepler_system(gpus + cpus),
            true,
        )));
        let cpu_out = w.verify_output(Box::new(Machine::new(
            MachineSpec::cpu_system(gpus + cpus),
            true,
        )));
        let mixed_out = w.verify_output(Box::new(Machine::new(
            MachineSpec::hybrid_system(gpus, cpus),
            true,
        )));
        let byte_identical = gpu_out == cpu_out && gpu_out == mixed_out;
        assert!(
            byte_identical,
            "{}: backends disagree on output bytes",
            bench.name
        );

        // Tuned performance runs on the three executors.
        println!();
        println!("{} (n = {n}, {iters} iterations, tuned)", bench.name);
        println!(
            "{:>12} {:>12} {:>9} {:>16} {:>15} {:>15} {:>9}",
            "executor",
            "elapsed [ms]",
            "strategy",
            "shares",
            "predict [B/l]",
            "measured [B/l]",
            "pred err"
        );
        let (gpu, gpu_shares) = run(
            (bench.make)(
                Box::new(Machine::new(MachineSpec::kepler_system(gpus), false)),
                RuntimeConfig::tuned(),
                n,
            ),
            iters,
        );
        let (cpu, cpu_shares) = run(
            (bench.make)(
                Box::new(Machine::new(MachineSpec::cpu_system(2), false)),
                RuntimeConfig::tuned(),
                n,
            ),
            iters,
        );
        let (mixed, mixed_shares) = run(
            (bench.make)(
                Box::new(Machine::new(MachineSpec::hybrid_system(gpus, cpus), false)),
                RuntimeConfig::tuned(),
                n,
            ),
            iters,
        );

        let rows = vec![
            row(&format!("gpu:{gpus}"), &gpu, &gpu_shares),
            row("cpu:2", &cpu, &cpu_shares),
            row(&format!("gpu:{gpus}+cpu:{cpus}"), &mixed, &mixed_shares),
        ];

        // Every executor must have consulted the tuner and recorded a
        // choice — the per-class pricing ran, whatever it picked.
        for (o, who) in [(&gpu, "gpu"), (&cpu, "cpu"), (&mixed, "mixed")] {
            assert!(
                o.strategy_chosen.is_some(),
                "{}: no tuner decision recorded on the {who} executor",
                bench.name
            );
        }
        let mixed_strategy = mixed.strategy_chosen.clone().unwrap_or_default();
        if bench.expect_weighted {
            assert!(
                mixed_strategy.ends_with(":w"),
                "{}: expected weighted shares on the mixed machine, got {mixed_strategy:?}",
                bench.name
            );
            // The host socket (last device) gets a real but strictly
            // smallest sliver of the grid.
            let cpu_share = *mixed_shares.last().unwrap();
            assert!(
                cpu_share > 0.0 && mixed_shares[..gpus].iter().all(|&g| g > cpu_share),
                "{}: CPU share must be the smallest non-zero share: {mixed_shares:?}",
                bench.name
            );
            // Layout-invariant transfers also mean the decision-time
            // prediction must track the measured steady state.
            assert!(
                prediction_error(&mixed) <= 0.10,
                "{}: mixed prediction off by {:.0}%",
                bench.name,
                prediction_error(&mixed) * 100.0
            );
        }
        let slowdown = cpu.elapsed / gpu.elapsed;
        if bench.expect_cpu_slower {
            assert!(
                slowdown > 1.0,
                "{}: CPU-only should be slower than GPU-only ({} vs {})",
                bench.name,
                cpu.elapsed,
                gpu.elapsed
            );
        }
        println!(
            "mixed strategy {mixed_strategy}, CPU-only/GPU-only elapsed ratio {slowdown:.2}x, \
             outputs byte-identical"
        );

        workloads.push(WorkloadReport {
            name: bench.name.to_string(),
            n,
            iters,
            byte_identical,
            executors: rows,
            mixed_strategy,
            cpu_vs_gpu_slowdown: slowdown,
        });
    }

    let report = Report {
        quick: args.quick,
        gpus,
        cpu_sockets: 2,
        workloads,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    mekong_bench::write_record(args.quick, "BENCH_backend.json", &json);
}
