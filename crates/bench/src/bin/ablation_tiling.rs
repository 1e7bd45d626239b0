//! Ablation A10: 2-D rectangular grid tilings vs 1-D slab splits.
//!
//! A slab split pays halo traffic proportional to the *full* grid edge
//! on every internal interface; a rectangular X×Y tiling pays the tile
//! *perimeter*, which is smaller — but its column faces are strided, so
//! the win only materializes on fabrics whose per-transaction latency
//! is low enough that perimeter bytes dominate transaction count. On
//! the paper's host-staged PCIe tree (15 µs per staged copy) slabs stay
//! optimal and A7 shows the tuner keeping them; this ablation runs the
//! same workloads on a hypothetical switched fabric (direct peer links,
//! 25 GB/s, 50 ns setup) where the perimeter term wins.
//!
//! **Part A** evaluates every candidate strategy *self-consistently*:
//! each candidate is forced, warmed into its steady state (so the
//! one-time redistribution is not billed to the per-iteration cost),
//! then the cost model is queried from exactly that tracker state and
//! the next iterations are measured. This is the fixed point the
//! autotuner's drift-retuning converges to. Asserted on hotspot:
//!
//! * the cheapest-predicted candidate is a 2-D tiling;
//! * its measured per-iteration D2D bytes are strictly below the best
//!   1-D slab's;
//! * its prediction lands within ±15 % of the measured bytes.
//!
//! Blur rides along unasserted: its row/col kernels each have a
//! halo-free 1-D axis, so slabs remain competitive and the table simply
//! records how close the tilings come.
//!
//! **Part B** replays the chosen tiling on a functional machine: a 2×2
//! device lattice must produce byte-identical results to a single
//! device across a multi-iteration ping-pong run.
//!
//! Emits `BENCH_tiling.json`.

use mekong_bench::BenchArgs;
use mekong_core::prelude::*;
use mekong_gpusim::LinkSpec;
use mekong_runtime::PartitionStrategy;
use mekong_workloads::{blur, hotspot};
use serde::Serialize;

/// Direct-peer switched fabric: same device silicon as the Kepler
/// testbed, but links that make strided column halos cheap.
fn switched_fabric(n: usize) -> MachineSpec {
    let mut spec = MachineSpec::kepler_system(n);
    spec.link = LinkSpec {
        bandwidth: 25.0e9,
        latency: 0.05e-6,
        host_staged: false,
    };
    spec
}

type StepFn = Box<dyn FnMut(&mut MgpuRuntime)>;

struct Site {
    ck: CompiledKernel,
    grid: Dim3,
    block: Dim3,
    args: Vec<LaunchArg>,
}

struct Prepared {
    rt: MgpuRuntime,
    step: StepFn,
    sites: Vec<Site>,
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

struct Bench {
    name: &'static str,
    kernels: &'static [&'static str],
    n_full: usize,
    n_quick: usize,
    warmup: usize,
    measure_full: usize,
    measure_quick: usize,
    make: fn(MachineSpec, RuntimeConfig, usize) -> Prepared,
}

const BENCHES: &[Bench] = &[
    Bench {
        name: "hotspot",
        kernels: &["hotspot"],
        n_full: 2048,
        n_quick: 512,
        warmup: 4,
        measure_full: 12,
        measure_quick: 4,
        make: make_hotspot,
    },
    Bench {
        name: "blur",
        kernels: &["blur_row", "blur_col"],
        n_full: 2048,
        n_quick: 512,
        warmup: 4,
        measure_full: 12,
        measure_quick: 4,
        make: make_blur,
    },
];

#[derive(Serialize)]
struct CandidateRow {
    strategy: String,
    tiled: bool,
    predicted_bytes_per_iter: u64,
    measured_bytes_per_iter: u64,
    predicted_time: f64,
    elapsed_per_iter: f64,
}

#[derive(Serialize)]
struct WorkloadReport {
    name: String,
    n: usize,
    measured_iters: usize,
    candidates: Vec<CandidateRow>,
    chosen: String,
    chosen_is_tiled: bool,
    best_slab: String,
    tiled_vs_slab_bytes: f64,
    prediction_error: f64,
}

#[derive(Serialize)]
struct FunctionalReport {
    n: usize,
    iters: usize,
    strategy: String,
    identical: bool,
}

#[derive(Serialize)]
struct Report {
    gpus: usize,
    quick: bool,
    fabric_bandwidth: f64,
    fabric_latency: f64,
    fabric_host_staged: bool,
    workloads: Vec<WorkloadReport>,
    functional: FunctionalReport,
}

/// Force `strategy` on every kernel of a fresh instance, warm it into
/// steady state, query the cost model *from that state*, then measure.
/// Returns `(predicted bytes/iter, predicted time, measured bytes/iter,
/// elapsed secs/iter)`.
fn evaluate(
    bench: &Bench,
    spec: &MachineSpec,
    cfg: &RuntimeConfig,
    n: usize,
    measure: usize,
    strategy: &PartitionStrategy,
) -> (u64, f64, u64, f64) {
    let Prepared {
        mut rt,
        mut step,
        sites,
    } = (bench.make)(spec.clone(), *cfg, n);
    for k in bench.kernels {
        rt.force_strategy(k, strategy.clone());
    }
    for _ in 0..bench.warmup {
        step(&mut rt);
    }
    rt.synchronize();
    let (mut pred_bytes, mut pred_time) = (0u64, 0.0f64);
    for site in &sites {
        let cands = rt
            .tuner_candidates(&site.ck, site.grid, site.block, &site.args)
            .expect("candidate enumeration");
        let own = cands
            .iter()
            .find(|c| c.strategy == *strategy)
            .expect("forced strategy is an enumerated candidate");
        pred_bytes += own.predict.transfer_bytes;
        pred_time += own.predict.total_time();
    }
    let bytes0 = rt.machine().counters().d2d_bytes;
    let t0 = rt.elapsed();
    for _ in 0..measure {
        step(&mut rt);
    }
    rt.synchronize();
    let moved = (rt.machine().counters().d2d_bytes - bytes0) / measure.max(1) as u64;
    let per_iter = (rt.elapsed() - t0) / measure.max(1) as f64;
    (pred_bytes, pred_time, moved, per_iter)
}

/// Functional differential: hotspot on a 2×2 device lattice under the
/// chosen tiling must be byte-identical to a single device.
fn functional_differential(n: usize, iters: usize, strategy: &PartitionStrategy) -> bool {
    let run = |devices: usize, force: Option<&PartitionStrategy>| -> Vec<u8> {
        let program = compile_source(hotspot::SOURCE).expect("hotspot compiles");
        let ck = program.kernel("hotspot").unwrap().clone();
        let (grid, block) = hotspot::geometry(n);
        let bytes = n * n * 4;
        let mut rt = MgpuRuntime::new(Machine::new(switched_fabric(devices), true));
        rt.set_config(RuntimeConfig {
            capture_plans: true,
            ..RuntimeConfig::default()
        });
        let a = rt.malloc(bytes, 4).unwrap();
        let b = rt.malloc(bytes, 4).unwrap();
        let p = rt.malloc(bytes, 4).unwrap();
        let temp: Vec<u8> = (0..n * n)
            .flat_map(|i| (300.0 + (i as f32 * 0.37).sin()).to_le_bytes())
            .collect();
        let power: Vec<u8> = (0..n * n)
            .flat_map(|i| (0.1 * (i as f32 * 0.11).cos().abs()).to_le_bytes())
            .collect();
        rt.memcpy_h2d(a, &temp).unwrap();
        rt.memcpy_h2d(b, &temp).unwrap();
        rt.memcpy_h2d(p, &power).unwrap();
        if let Some(s) = force {
            rt.force_strategy("hotspot", s.clone());
        }
        let (mut src, mut dst) = (a, b);
        for _ in 0..iters {
            rt.launch(
                &ck,
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
        out
    };
    run(1, None) == run(4, Some(strategy))
}

fn main() {
    let args = BenchArgs::parse();
    let gpus = 4usize;
    let spec = switched_fabric(gpus);
    let cfg = RuntimeConfig {
        capture_plans: true,
        ..RuntimeConfig::alpha()
    };

    println!(
        "Ablation A10: rectangular tilings vs slabs ({gpus} perf GPUs, switched fabric \
         {:.0} GB/s, {:.0} ns, direct)",
        spec.link.bandwidth / 1e9,
        spec.link.latency * 1e9
    );

    let mut workloads = Vec::new();
    let mut hotspot_tiled: Option<PartitionStrategy> = None;
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

        // The candidate set does not depend on tracker state — grab it
        // from a fresh instance.
        let fresh = (bench.make)(spec.clone(), cfg, n);
        let strategies: Vec<PartitionStrategy> = {
            let site = &fresh.sites[0];
            fresh
                .rt
                .tuner_candidates(&site.ck, site.grid, site.block, &site.args)
                .expect("candidate enumeration")
                .into_iter()
                .map(|c| c.strategy)
                .collect()
        };
        drop(fresh);

        println!();
        println!("{} (n = {n}, {measure} measured iterations)", bench.name);
        println!(
            "{:>10} {:>18} {:>18} {:>14} {:>14}",
            "strategy", "predicted [B/it]", "measured [B/it]", "pred time [ms]", "meas time [ms]"
        );
        let mut rows = Vec::new();
        for strategy in &strategies {
            let (pb, pt, mb, mt) = evaluate(bench, &spec, &cfg, n, measure, strategy);
            println!(
                "{:>10} {:>18} {:>18} {:>14.4} {:>14.4}",
                strategy.describe(),
                pb,
                mb,
                pt * 1e3,
                mt * 1e3
            );
            rows.push(CandidateRow {
                strategy: strategy.describe(),
                tiled: strategy.is_tiled(),
                predicted_bytes_per_iter: pb,
                measured_bytes_per_iter: mb,
                predicted_time: pt,
                elapsed_per_iter: mt,
            });
        }

        let chosen_idx = (0..rows.len())
            .min_by(|&a, &b| rows[a].predicted_time.total_cmp(&rows[b].predicted_time))
            .unwrap();
        let slab_idx = (0..rows.len())
            .filter(|&i| !rows[i].tiled)
            .min_by(|&a, &b| rows[a].predicted_time.total_cmp(&rows[b].predicted_time))
            .unwrap();
        let chosen = &rows[chosen_idx];
        let slab = &rows[slab_idx];
        let err = (chosen.predicted_bytes_per_iter as f64 - chosen.measured_bytes_per_iter as f64)
            .abs()
            / (chosen.measured_bytes_per_iter as f64).max(1.0);
        let bytes_ratio =
            chosen.measured_bytes_per_iter as f64 / (slab.measured_bytes_per_iter as f64).max(1.0);
        println!(
            "chosen {} (best slab {}): {:.0}% of the slab's halo bytes, prediction off by {:.1}%",
            chosen.strategy,
            slab.strategy,
            bytes_ratio * 100.0,
            err * 100.0
        );

        if bench.name == "hotspot" {
            assert!(
                chosen.tiled,
                "hotspot on the switched fabric must choose a 2-D tiling, got {}",
                chosen.strategy
            );
            assert!(
                chosen.measured_bytes_per_iter < slab.measured_bytes_per_iter,
                "tiling must move fewer halo bytes than the best slab: {} vs {}",
                chosen.measured_bytes_per_iter,
                slab.measured_bytes_per_iter
            );
            assert!(
                err <= 0.15,
                "perimeter prediction out of the ±15% band: predicted {} measured {}",
                chosen.predicted_bytes_per_iter,
                chosen.measured_bytes_per_iter
            );
            hotspot_tiled = Some(strategies[chosen_idx].clone());
        }

        workloads.push(WorkloadReport {
            name: bench.name.to_string(),
            n,
            measured_iters: measure,
            chosen: chosen.strategy.clone(),
            chosen_is_tiled: chosen.tiled,
            best_slab: slab.strategy.clone(),
            tiled_vs_slab_bytes: bytes_ratio,
            prediction_error: err,
            candidates: rows,
        });
    }

    // Part B: byte-identical functional replay under the chosen tiling.
    let tiled = hotspot_tiled.expect("hotspot ran");
    let n_fn = if args.quick { 192 } else { 384 };
    let iters_fn = if args.quick { 6 } else { 10 };
    let identical = functional_differential(n_fn, iters_fn, &tiled);
    println!();
    println!(
        "functional hotspot n = {n_fn}, {iters_fn} iters, 2x2 lattice {}: byte-identical = \
         {identical}",
        tiled.describe()
    );
    assert!(
        identical,
        "2-D tiling must be byte-identical to the single-device run"
    );

    let report = Report {
        gpus,
        quick: args.quick,
        fabric_bandwidth: spec.link.bandwidth,
        fabric_latency: spec.link.latency,
        fabric_host_staged: spec.link.host_staged,
        workloads,
        functional: FunctionalReport {
            n: n_fn,
            iters: iters_fn,
            strategy: tiled.describe(),
            identical,
        },
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    mekong_bench::write_record(args.quick, "BENCH_tiling.json", &json);
}
