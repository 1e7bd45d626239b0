//! Ablation A8: replica-aware coherence.
//!
//! `memcpy_h2d` distributes host data linearly across devices, and the
//! paper's single-owner tracker keeps those bytes owned by wherever the
//! upload put them: every partition whose read set crosses an upload
//! slice (or a halo) re-fetches the same remote bytes on *every* launch,
//! because reads never change ownership. Replica-aware coherence
//! (validity sets, `RuntimeConfig::replica_coherence`) records read-sync
//! destinations as valid holders, so a host-uploaded read-only array is
//! fetched once and then served locally forever.
//!
//! **Part A** runs the ping-pong Hotspot stencil on 4 functional GPUs
//! and samples the per-launch D2D bytes flowing *into* the read-only
//! `power` array: with replicas the refetch must drop to zero after the
//! first launch, without them it recurs identically every launch. Both
//! runs must produce byte-identical temperature output.
//!
//! **Part B** repeats the experiment with a non-ping-pong Blur pipeline
//! (`img → tmp → out`, `img` never written) on 3 GPUs, where the 3-way
//! linear upload of `img` misaligns with the block-granular row
//! partitions — steady-state refetch again must vanish with replicas.
//!
//! Both parts run with plan capture on, and the plan-cache hit rate with
//! replicas enabled must stay at the A6 (`ablation_replay`) level:
//! holder sets are part of the tracker signature, so ping-pong launches
//! still reach a periodic fixed point.
//!
//! Emits `BENCH_replica.json`.

use mekong_bench::BenchArgs;
use mekong_core::prelude::*;
use mekong_gpusim::{Machine, OpCounters};
use mekong_workloads::{blur, hotspot};
use serde::Serialize;

/// One functional run with per-launch transfer sampling on one buffer.
struct ReplicaRun {
    output: Vec<u8>,
    /// D2D bytes copied into the sampled read-only buffer, per iteration.
    refetch_per_iter: Vec<u64>,
    counters: OpCounters,
}

fn config(replica: bool) -> RuntimeConfig {
    RuntimeConfig {
        replica_coherence: replica,
        capture_plans: true,
        ..RuntimeConfig::beta()
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

/// Hotspot on 4 functional GPUs, sampling refetch into `power`.
fn run_hotspot(replica: bool, n: usize, iters: usize) -> ReplicaRun {
    let program = compile_source(hotspot::SOURCE).expect("hotspot compiles");
    let ck = program.kernel("hotspot").unwrap();
    let (grid, block) = hotspot::geometry(n);
    let bytes = n * n * 4;

    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(4), true));
    rt.set_config(config(replica));
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
    let mut refetch = Vec::with_capacity(iters);
    let mut last = rt.d2d_bytes_into(p);
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
        let now = rt.d2d_bytes_into(p);
        refetch.push(now - last);
        last = now;
        std::mem::swap(&mut src, &mut dst);
    }
    rt.synchronize();
    let mut out = vec![0u8; bytes];
    rt.memcpy_d2h(src, &mut out).unwrap();
    ReplicaRun {
        output: out,
        refetch_per_iter: refetch,
        counters: rt.machine().counters(),
    }
}

/// Blur as a non-ping-pong pipeline `img → tmp → out` on 3 functional
/// GPUs: `img` is uploaded once, read by every row pass, never written.
/// `n` is chosen indivisible by 3 so the element-linear upload slices
/// misalign with the block-granular row partitions.
fn run_blur(replica: bool, n: usize, iters: usize) -> ReplicaRun {
    let program = compile_source(blur::SOURCE).expect("blur compiles");
    let row = program.kernel("blur_row").unwrap();
    let col = program.kernel("blur_col").unwrap();
    let (grid, block) = blur::geometry(n);
    let bytes = n * n * 4;

    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(3), true));
    rt.set_config(config(replica));
    let img = rt.malloc(bytes, 4).unwrap();
    let tmp = rt.malloc(bytes, 4).unwrap();
    let out = rt.malloc(bytes, 4).unwrap();
    let img_h: Vec<u8> = (0..n * n)
        .flat_map(|i| (((i * 41) % 211) as f32).to_le_bytes())
        .collect();
    rt.memcpy_h2d(img, &img_h).unwrap();
    let n_arg = LaunchArg::Scalar(Value::I64(n as i64));
    let mut refetch = Vec::with_capacity(iters);
    let mut last = rt.d2d_bytes_into(img);
    for _ in 0..iters {
        rt.launch(
            row,
            grid,
            block,
            &[n_arg, LaunchArg::Buf(img), LaunchArg::Buf(tmp)],
        )
        .expect("blur_row launch");
        rt.launch(
            col,
            grid,
            block,
            &[n_arg, LaunchArg::Buf(tmp), LaunchArg::Buf(out)],
        )
        .expect("blur_col launch");
        let now = rt.d2d_bytes_into(img);
        refetch.push(now - last);
        last = now;
    }
    rt.synchronize();
    let mut o = vec![0u8; bytes];
    rt.memcpy_d2h(out, &mut o).unwrap();
    ReplicaRun {
        output: o,
        refetch_per_iter: refetch,
        counters: rt.machine().counters(),
    }
}

#[derive(Serialize)]
struct SectionReport {
    n: usize,
    iters: usize,
    gpus: usize,
    first_launch_refetch_on: u64,
    steady_refetch_on: u64,
    steady_refetch_off: u64,
    replica_hits: u64,
    refetch_bytes_saved: u64,
    replica_invalidations: u64,
    hit_rate_on: f64,
    hit_rate_off: f64,
}

#[derive(Serialize)]
struct Report {
    hotspot: SectionReport,
    blur: SectionReport,
}

/// Check one workload's on/off pair and build its report section.
fn check(
    name: &str,
    gpus: usize,
    n: usize,
    iters: usize,
    on: ReplicaRun,
    off: ReplicaRun,
) -> SectionReport {
    assert_eq!(
        on.output, off.output,
        "{name}: replica coherence must not change results"
    );
    assert!(
        on.refetch_per_iter[0] > 0,
        "{name}: the first launch must fetch the misaligned upload slices"
    );
    let steady_on: u64 = on.refetch_per_iter[1..].iter().sum();
    assert_eq!(
        steady_on,
        0,
        "{name}: replicas must eliminate steady-state refetch, got {:?}",
        &on.refetch_per_iter[1..]
    );
    let off0 = off.refetch_per_iter[0];
    assert!(off0 > 0, "{name}: single-owner must fetch on launch 1 too");
    assert!(
        off.refetch_per_iter.iter().all(|&d| d == off0),
        "{name}: single-owner refetch must recur identically every launch: {:?}",
        off.refetch_per_iter
    );
    assert!(
        on.counters.replica_hits > 0 && on.counters.refetch_bytes_saved > 0,
        "{name}: replica hits must be counted"
    );
    assert_eq!(off.counters.replica_hits, 0, "{name}: off cannot hit");
    assert_eq!(off.counters.refetch_bytes_saved, 0);
    let (hr_on, hr_off) = (hit_rate(&on.counters), hit_rate(&off.counters));
    // Holder sets are hashed into the tracker signature, so the launch
    // states must still reach a periodic fixed point: only the warm-up
    // launches miss, independent of the iteration count. At full scale
    // that is the A6 ≥ 90% hit-rate bar; `--quick` truncates the run so
    // the constant warm-up is checked directly.
    assert!(
        on.counters.plan_misses <= 6,
        "{name}: replicas must not break plan-cache convergence: {} misses",
        on.counters.plan_misses
    );
    if on.counters.plan_hits + on.counters.plan_misses >= 50 {
        assert!(
            hr_on >= 0.90,
            "{name}: hit rate with replicas must stay at the A6 level: {hr_on}"
        );
    }
    println!(
        "{:>10} {:>6} {:>12} {:>14} {:>14} {:>10} {:>9.1}% {:>9.1}%",
        name,
        gpus,
        on.refetch_per_iter[0],
        steady_on / (iters as u64 - 1).max(1),
        off0,
        on.counters.replica_hits,
        hr_on * 100.0,
        hr_off * 100.0,
    );
    SectionReport {
        n,
        iters,
        gpus,
        first_launch_refetch_on: on.refetch_per_iter[0],
        steady_refetch_on: steady_on,
        steady_refetch_off: off0,
        replica_hits: on.counters.replica_hits,
        refetch_bytes_saved: on.counters.refetch_bytes_saved,
        replica_invalidations: on.counters.replica_invalidations,
        hit_rate_on: hr_on,
        hit_rate_off: hr_off,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let (hs_iters, bl_iters) = if args.quick { (20, 5) } else { (100, 30) };
    // Both side lengths make the element-linear upload slices misalign
    // with the block-granular row partitions (4- and 3-way): without the
    // misalignment the pointwise `power`/`img` reads would be partition-
    // local from the start and there would be nothing to re-fetch.
    let (hs_n, bl_n) = (260usize, 200usize);

    println!("Ablation A8: replica-aware coherence (per-launch refetch into the read-only array)");
    println!();
    println!(
        "{:>10} {:>6} {:>12} {:>14} {:>14} {:>10} {:>10} {:>10}",
        "workload",
        "gpus",
        "launch1 [B]",
        "steady on [B]",
        "steady off [B]",
        "hits",
        "hit% on",
        "hit% off"
    );

    let hs_on = run_hotspot(true, hs_n, hs_iters);
    let hs_off = run_hotspot(false, hs_n, hs_iters);
    let hotspot = check("hotspot", 4, hs_n, hs_iters, hs_on, hs_off);

    let bl_on = run_blur(true, bl_n, bl_iters);
    let bl_off = run_blur(false, bl_n, bl_iters);
    let blur = check("blur", 3, bl_n, bl_iters, bl_on, bl_off);

    println!();
    println!(
        "host-uploaded read-only arrays are fetched once and then served from replicas; \
         identical outputs on both workloads."
    );

    let report = Report { hotspot, blur };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    mekong_bench::write_record(args.quick, "BENCH_replica.json", &json);
}
