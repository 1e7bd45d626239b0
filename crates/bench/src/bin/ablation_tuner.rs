//! Ablation A7: the cost-model-driven partitioning autotuner.
//!
//! **Part A** validates the static cost model candidate by candidate:
//! for each workload every enumerated strategy is *forced* in turn and
//! the steady-state measured peer-transfer bytes per iteration (after a
//! warm-up that absorbs the initial redistribution) are compared against
//! the model's prediction. The chosen (cheapest-predicted) strategy must
//! land within 10 % of the measurement on every workload. Non-chosen
//! candidates are reported too — e.g. forced X splits refetch read-only
//! arrays every launch, which the steady-state ownership model knowingly
//! underestimates; the table quantifies that gap.
//!
//! **Part B** runs each workload end-to-end with the autotuner on
//! ([`RuntimeConfig::tuned`]) against a fixed even X split, the "always
//! split the innermost dimension" strategy a naive runtime hardcodes.
//! Tuned must never lose, and must win by > 5 % on at least one
//! workload.
//!
//! **Part C** demonstrates weighted shares: on a heterogeneous 2-GPU
//! machine (device 1 at half rate) the tuner shifts work toward the
//! faster device instead of splitting evenly.
//!
//! Emits `BENCH_tuner.json`.

use mekong_bench::BenchArgs;
use mekong_core::prelude::*;
use mekong_gpusim::DeviceSpec;
use mekong_runtime::PartitionStrategy;
use mekong_workloads::harness::RunOutcome;
use mekong_workloads::{blur, hotspot, matmul, nbody};
use serde::Serialize;

type StepFn = Box<dyn FnMut(&mut MgpuRuntime)>;

/// One launch site of a workload, as the tuner sees it.
struct Site {
    ck: CompiledKernel,
    grid: Dim3,
    block: Dim3,
    args: Vec<LaunchArg>,
}

/// A constructed workload instance: runtime with uploaded buffers, a
/// closure performing one iteration, and the launch sites for candidate
/// enumeration.
struct Prepared {
    rt: MgpuRuntime,
    step: StepFn,
    sites: Vec<Site>,
}

struct Bench {
    name: &'static str,
    /// Kernel names to pin when forcing a strategy.
    kernels: &'static [&'static str],
    n_full: usize,
    n_quick: usize,
    /// Iterations to absorb the initial redistribution.
    warmup: usize,
    measure_full: usize,
    measure_quick: usize,
    make: fn(MachineSpec, RuntimeConfig, usize) -> Prepared,
}

fn make_hotspot(spec: MachineSpec, cfg: RuntimeConfig, n: usize) -> Prepared {
    let program = compile_source(hotspot::SOURCE).expect("hotspot compiles");
    let ck = program.kernel("hotspot").unwrap().clone();
    let (grid, block) = hotspot::geometry(n);
    let bytes = n * n * 4;
    let mut rt = MgpuRuntime::new(Machine::new(spec, false));
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
    let sites = vec![Site {
        ck: ck.clone(),
        grid,
        block,
        args: args(a, b),
    }];
    let (mut src, mut dst) = (a, b);
    let step: StepFn = Box::new(move |rt| {
        rt.launch(&ck, grid, block, &args(src, dst))
            .expect("hotspot launch");
        std::mem::swap(&mut src, &mut dst);
    });
    Prepared { rt, step, sites }
}

fn make_blur(spec: MachineSpec, cfg: RuntimeConfig, n: usize) -> Prepared {
    let program = compile_source(blur::SOURCE).expect("blur compiles");
    let row = program.kernel("blur_row").unwrap().clone();
    let col = program.kernel("blur_col").unwrap().clone();
    let (grid, block) = blur::geometry(n);
    let bytes = n * n * 4;
    let mut rt = MgpuRuntime::new(Machine::new(spec, false));
    rt.set_config(cfg);
    let a = rt.malloc(bytes, 4).unwrap();
    let tmp = rt.malloc(bytes, 4).unwrap();
    rt.memcpy_h2d_sim(a).unwrap();
    let n_arg = LaunchArg::Scalar(Value::I64(n as i64));
    let sites = vec![
        Site {
            ck: row.clone(),
            grid,
            block,
            args: vec![n_arg, LaunchArg::Buf(a), LaunchArg::Buf(tmp)],
        },
        Site {
            ck: col.clone(),
            grid,
            block,
            args: vec![n_arg, LaunchArg::Buf(tmp), LaunchArg::Buf(a)],
        },
    ];
    let step: StepFn = Box::new(move |rt| {
        rt.launch(
            &row,
            grid,
            block,
            &[n_arg, LaunchArg::Buf(a), LaunchArg::Buf(tmp)],
        )
        .expect("blur_row launch");
        rt.launch(
            &col,
            grid,
            block,
            &[n_arg, LaunchArg::Buf(tmp), LaunchArg::Buf(a)],
        )
        .expect("blur_col launch");
    });
    Prepared { rt, step, sites }
}

fn make_matmul(spec: MachineSpec, cfg: RuntimeConfig, n: usize) -> Prepared {
    let program = compile_source(matmul::SOURCE).expect("matmul compiles");
    let ck = program.kernel("matmul").unwrap().clone();
    let (grid, block) = matmul::geometry(n);
    let bytes = n * n * 4;
    let mut rt = MgpuRuntime::new(Machine::new(spec, false));
    rt.set_config(cfg);
    let a = rt.malloc(bytes, 4).unwrap();
    let b = rt.malloc(bytes, 4).unwrap();
    let c = rt.malloc(bytes, 4).unwrap();
    rt.memcpy_h2d_sim(a).unwrap();
    rt.memcpy_h2d_sim(b).unwrap();
    let args = vec![
        LaunchArg::Scalar(Value::I64(n as i64)),
        LaunchArg::Buf(a),
        LaunchArg::Buf(b),
        LaunchArg::Buf(c),
    ];
    let sites = vec![Site {
        ck: ck.clone(),
        grid,
        block,
        args: args.clone(),
    }];
    let step: StepFn = Box::new(move |rt| {
        rt.launch(&ck, grid, block, &args).expect("matmul launch");
    });
    Prepared { rt, step, sites }
}

fn make_nbody(spec: MachineSpec, cfg: RuntimeConfig, n: usize) -> Prepared {
    let program = compile_source(nbody::SOURCE).expect("nbody compiles");
    let ck = program.kernel("nbody").unwrap().clone();
    let (grid, block) = nbody::geometry(n);
    let bytes = n * 4 * 4;
    let mut rt = MgpuRuntime::new(Machine::new(spec, false));
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
    let sites = vec![Site {
        ck: ck.clone(),
        grid,
        block,
        args: args(a, b),
    }];
    let (mut src, mut dst) = (a, b);
    let step: StepFn = Box::new(move |rt| {
        rt.launch(&ck, grid, block, &args(src, dst))
            .expect("nbody launch");
        std::mem::swap(&mut src, &mut dst);
    });
    Prepared { rt, step, sites }
}

const BENCHES: &[Bench] = &[
    Bench {
        name: "blur",
        kernels: &["blur_row", "blur_col"],
        n_full: 2048,
        n_quick: 512,
        warmup: 3,
        measure_full: 12,
        measure_quick: 4,
        make: make_blur,
    },
    Bench {
        name: "hotspot",
        kernels: &["hotspot"],
        n_full: 2048,
        n_quick: 1024,
        warmup: 3,
        measure_full: 12,
        measure_quick: 4,
        make: make_hotspot,
    },
    Bench {
        name: "matmul",
        kernels: &["matmul"],
        n_full: 1024,
        n_quick: 256,
        warmup: 0,
        measure_full: 1,
        measure_quick: 1,
        make: make_matmul,
    },
    Bench {
        name: "nbody",
        kernels: &["nbody"],
        n_full: 65_536,
        n_quick: 8_192,
        warmup: 2,
        measure_full: 8,
        measure_quick: 3,
        make: make_nbody,
    },
];

#[derive(Serialize)]
struct CandidateRow {
    strategy: String,
    predicted_bytes_per_iter: u64,
    measured_bytes_per_iter: u64,
    predicted_time: f64,
}

#[derive(Serialize)]
struct WorkloadReport {
    name: String,
    n: usize,
    measured_iters: usize,
    candidates: Vec<CandidateRow>,
    chosen: String,
    prediction_error: f64,
    tuned_strategies: Vec<String>,
    tuned_elapsed: f64,
    fixed_x_elapsed: f64,
    improvement: f64,
}

#[derive(Serialize)]
struct HetReport {
    machine: String,
    n: usize,
    strategy: String,
    weighted_elapsed: f64,
    even_elapsed: f64,
    improvement: f64,
}

#[derive(Serialize)]
struct Report {
    gpus: usize,
    quick: bool,
    workloads: Vec<WorkloadReport>,
    heterogeneous: HetReport,
}

/// Run `iters` iterations, then return `(outcome, per-iteration d2d
/// bytes over the last `iters - warmup` iterations)`.
fn run_iters(prep: Prepared, warmup: usize, measure: usize) -> (RunOutcome, Vec<String>, u64) {
    let Prepared {
        mut rt, mut step, ..
    } = prep;
    for _ in 0..warmup {
        step(&mut rt);
    }
    let before = rt.machine().counters().d2d_bytes;
    for _ in 0..measure {
        step(&mut rt);
    }
    rt.synchronize();
    let moved = rt.machine().counters().d2d_bytes - before;
    let strategies = rt
        .tuner_report()
        .iter()
        .map(|r| r.strategy.clone())
        .collect();
    (
        RunOutcome::from_runtime(&rt),
        strategies,
        moved / measure.max(1) as u64,
    )
}

fn main() {
    let args = BenchArgs::parse();
    let gpus = 4usize;
    let spec = || MachineSpec::kepler_system(gpus);
    let cfg_fixed = RuntimeConfig {
        capture_plans: true,
        ..RuntimeConfig::alpha()
    };

    println!("Ablation A7: cost-model-driven partitioning autotuner ({gpus} perf GPUs)");
    let mut workloads = Vec::new();
    let mut best_improvement = 0.0f64;
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

        // Model predictions per candidate (summed over launch sites for
        // multi-kernel pipelines), queried after the same warm-up the
        // measurement runs get: ping-pong arrays then carry the
        // kernel-written provenance that selects steady-state
        // `SelfWrites` ownership, while read-only uploads keep their
        // tracker layout — exactly the state the decision is about.
        let Prepared {
            mut rt,
            mut step,
            sites,
        } = (bench.make)(spec(), cfg_fixed, n);
        for _ in 0..bench.warmup {
            step(&mut rt);
        }
        rt.synchronize();
        let mut per_strategy: Vec<(PartitionStrategy, u64, f64)> = Vec::new();
        for site in &sites {
            let cands = rt
                .tuner_candidates(&site.ck, site.grid, site.block, &site.args)
                .expect("candidate enumeration");
            for c in cands {
                match per_strategy.iter_mut().find(|(s, _, _)| *s == c.strategy) {
                    Some(e) => {
                        e.1 += c.predict.transfer_bytes;
                        e.2 += c.predict.total_time();
                    }
                    None => per_strategy.push((
                        c.strategy,
                        c.predict.transfer_bytes,
                        c.predict.total_time(),
                    )),
                }
            }
        }
        drop(rt);

        // Part A: force each candidate, measure steady-state traffic.
        println!();
        println!("{} (n = {n}, {measure} measured iterations)", bench.name);
        println!(
            "{:>10} {:>18} {:>18} {:>14}",
            "strategy", "predicted [B/it]", "measured [B/it]", "pred time [ms]"
        );
        let mut rows = Vec::new();
        for (strategy, pred_bytes, pred_time) in &per_strategy {
            let mut p = (bench.make)(spec(), cfg_fixed, n);
            for k in bench.kernels {
                p.rt.force_strategy(k, strategy.clone());
            }
            let (_, _, measured) = run_iters(p, bench.warmup, measure);
            println!(
                "{:>10} {:>18} {:>18} {:>14.3}",
                strategy.describe(),
                pred_bytes,
                measured,
                pred_time * 1e3
            );
            rows.push(CandidateRow {
                strategy: strategy.describe(),
                predicted_bytes_per_iter: *pred_bytes,
                measured_bytes_per_iter: measured,
                predicted_time: *pred_time,
            });
        }
        let chosen_idx = per_strategy
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .2.total_cmp(&b.1 .2))
            .map(|(i, _)| i)
            .unwrap();
        let chosen = rows[chosen_idx].strategy.clone();
        let (pred, meas) = (
            rows[chosen_idx].predicted_bytes_per_iter,
            rows[chosen_idx].measured_bytes_per_iter,
        );
        let err = (pred as f64 - meas as f64).abs() / (meas as f64).max(1.0);
        println!("chosen {chosen}: prediction off by {:.1}%", err * 100.0);
        assert!(
            err <= 0.10,
            "{}: chosen strategy {chosen} predicted {pred} B/it but measured {meas} B/it",
            bench.name
        );

        // Part B: autotuned end-to-end vs the fixed even X split.
        let iters = bench.warmup + measure;
        let tuned_prep = (bench.make)(spec(), RuntimeConfig::tuned(), n);
        let (tuned_out, tuned_strategies, _) = run_iters(tuned_prep, 0, iters);
        let mut fixed_prep = (bench.make)(spec(), cfg_fixed, n);
        for k in bench.kernels {
            fixed_prep
                .rt
                .force_strategy(k, PartitionStrategy::even(SplitAxis::X, gpus));
        }
        let (fixed_out, _, _) = run_iters(fixed_prep, 0, iters);
        let improvement = 1.0 - tuned_out.elapsed / fixed_out.elapsed;
        best_improvement = best_improvement.max(improvement);
        println!(
            "tuned {:?} {:.3} ms vs fixed x:{gpus} {:.3} ms ({:+.1}%)",
            tuned_strategies,
            tuned_out.elapsed * 1e3,
            fixed_out.elapsed * 1e3,
            improvement * 100.0
        );
        assert!(
            tuned_out.elapsed <= fixed_out.elapsed * 1.0001,
            "{}: tuned run slower than the fixed X split: {} vs {}",
            bench.name,
            tuned_out.elapsed,
            fixed_out.elapsed
        );

        workloads.push(WorkloadReport {
            name: bench.name.to_string(),
            n,
            measured_iters: measure,
            candidates: rows,
            chosen,
            prediction_error: err,
            tuned_strategies,
            tuned_elapsed: tuned_out.elapsed,
            fixed_x_elapsed: fixed_out.elapsed,
            improvement,
        });
    }
    assert!(
        best_improvement > 0.05,
        "tuning must beat the fixed X split by > 5% somewhere: best {:.1}%",
        best_improvement * 100.0
    );

    // Part C: heterogeneous machine — the tuner shifts work toward the
    // faster device via proportional shares.
    let base = MachineSpec::kepler_system(2);
    let slow = DeviceSpec {
        flops: base.device.flops / 2.0,
        int_ops: base.device.int_ops / 2.0,
        mem_bw: base.device.mem_bw / 2.0,
        ..base.device.clone()
    };
    let het = base.with_device_override(1, slow);
    // N-Body: every partition reads all positions, so the transfer bill is
    // the same for every share split and the compute-balanced weighted
    // split wins outright — the cleanest heterogeneity demonstration.
    let n_het = if args.quick { 8192 } else { 65536 };
    let iters_het = if args.quick { 8 } else { 16 };
    let (tuned_out, tuned_strategies, _) = run_iters(
        make_nbody(het.clone(), RuntimeConfig::tuned(), n_het),
        0,
        iters_het,
    );
    let mut even_prep = make_nbody(het.clone(), cfg_fixed, n_het);
    even_prep
        .rt
        .force_strategy("nbody", PartitionStrategy::even(SplitAxis::X, 2));
    let (even_out, _, _) = run_iters(even_prep, 0, iters_het);
    let het_strategy = tuned_strategies.first().cloned().unwrap_or_default();
    let het_improvement = 1.0 - tuned_out.elapsed / even_out.elapsed;
    println!();
    println!(
        "heterogeneous 2-GPU (device 1 half rate), nbody n = {n_het}: tuned {} \
         {:.3} ms vs even x:2 {:.3} ms ({:+.1}%)",
        het_strategy,
        tuned_out.elapsed * 1e3,
        even_out.elapsed * 1e3,
        het_improvement * 100.0
    );
    assert!(
        het_strategy.ends_with(":w"),
        "expected a weighted split on the heterogeneous machine, got {het_strategy}"
    );
    assert!(
        tuned_out.elapsed <= even_out.elapsed * 1.0001,
        "weighted split must not lose to the even split: {} vs {}",
        tuned_out.elapsed,
        even_out.elapsed
    );

    let report = Report {
        gpus,
        quick: args.quick,
        workloads,
        heterogeneous: HetReport {
            machine: "2x Kepler, device 1 at half rate".to_string(),
            n: n_het,
            strategy: het_strategy,
            weighted_elapsed: tuned_out.elapsed,
            even_elapsed: even_out.elapsed,
            improvement: het_improvement,
        },
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    mekong_bench::write_record(args.quick, "BENCH_tuner.json", &json);
}
