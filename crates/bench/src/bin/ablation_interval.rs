//! Ablation A12: interval abstract interpretation for non-affine
//! kernels.
//!
//! The polyhedral domain alone cannot model data-dependent reads —
//! histogram's `val[k]` with `k ∈ [off[b], off[b+1])` and SpMV's
//! gather `x[cols[r][j]]` — so without the interval interpreter those
//! workloads would be unpartitionable (or priced as whole-array reads).
//! With `@mekong … range` annotations the interpreter derives **bounded
//! may-read boxes**, and the runtime fetches the box instead of exact
//! ranges.
//!
//! Three claims, all load-bearing for §4 soundness:
//!
//! * **Correctness.** Histogram and SpMV partitioned across 2 and 4
//!   functional devices produce output byte-identical to the 1-device
//!   run (and to the CPU reference) — over-approximated reads never
//!   change results.
//! * **Bounded over-fetch.** `mayread_overfetch_bytes` (box bytes
//!   beyond the single-device baseline) is zero on 1 device by
//!   construction, strictly positive on multi-device runs (the seam
//!   halos), and a small fraction of `mayread_fetch_bytes` — the box is
//!   banded, not the whole array.
//! * **Writes stay exact.** A scatter kernel whose *write* index is
//!   data-dependent — even with a range annotation bounding it — is
//!   rejected at every layer: analysis verdict, `mekong-check` error
//!   diagnostic, and the runtime launch gate.
//!
//! Emits `BENCH_interval.json`.

use mekong_bench::BenchArgs;
use mekong_check::{check_kernel, codes, Severity};
use mekong_core::prelude::*;
use mekong_gpusim::{Machine, OpCounters};
use mekong_workloads::{histogram, spmv};
use serde::Serialize;

/// One functional partitioned run of an irregular workload.
struct IrregularRun {
    output: Vec<u8>,
    counters: OpCounters,
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        capture_plans: true,
        ..RuntimeConfig::beta()
    }
}

/// Histogram on `gpus` functional devices, `iters` identical launches
/// (so captured plans replay and re-note the may-read counters).
fn run_histogram(gpus: usize, nbins: usize, iters: usize) -> IrregularRun {
    let program = compile_source(histogram::SOURCE).expect("histogram compiles");
    let ck = program.kernel("histogram").unwrap();
    let (grid, block) = histogram::geometry(nbins);
    let off = histogram::offsets(nbins);
    let val = histogram::values(nbins);

    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
    rt.set_config(config());
    let off_b = rt.malloc((nbins + 1) * 8, 8).unwrap();
    let val_b = rt.malloc(val.len() * 4, 4).unwrap();
    let hist_b = rt.malloc(nbins * 4, 4).unwrap();
    let off_h: Vec<u8> = off.iter().flat_map(|v| v.to_le_bytes()).collect();
    let val_h: Vec<u8> = val.iter().flat_map(|v| v.to_le_bytes()).collect();
    rt.memcpy_h2d(off_b, &off_h).unwrap();
    rt.memcpy_h2d(val_b, &val_h).unwrap();
    for _ in 0..iters {
        rt.launch(
            ck,
            grid,
            block,
            &[
                LaunchArg::Scalar(Value::I64(nbins as i64)),
                LaunchArg::Scalar(Value::I64(nbins as i64 + 1)),
                LaunchArg::Scalar(Value::I64(val.len() as i64)),
                LaunchArg::Buf(off_b),
                LaunchArg::Buf(val_b),
                LaunchArg::Buf(hist_b),
            ],
        )
        .expect("histogram launch");
    }
    rt.synchronize();
    let mut out = vec![0u8; nbins * 4];
    rt.memcpy_d2h(hist_b, &mut out).unwrap();
    IrregularRun {
        output: out,
        counters: rt.machine().counters(),
    }
}

/// SpMV on `gpus` functional devices.
fn run_spmv(gpus: usize, n: usize, iters: usize) -> IrregularRun {
    let program = compile_source(spmv::SOURCE).expect("spmv compiles");
    let ck = program.kernel("spmv").unwrap();
    let (grid, block) = spmv::geometry(n);
    let m = spmv::M;
    let cols = spmv::columns(n);
    let vals = spmv::matrix_values(n);
    let x = spmv::vector(n);

    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(gpus), true));
    rt.set_config(config());
    let cols_b = rt.malloc(n * m * 8, 8).unwrap();
    let vals_b = rt.malloc(n * m * 4, 4).unwrap();
    let x_b = rt.malloc(n * 4, 4).unwrap();
    let y_b = rt.malloc(n * 4, 4).unwrap();
    let cols_h: Vec<u8> = cols.iter().flat_map(|v| v.to_le_bytes()).collect();
    let vals_h: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    let x_h: Vec<u8> = x.iter().flat_map(|v| v.to_le_bytes()).collect();
    rt.memcpy_h2d(cols_b, &cols_h).unwrap();
    rt.memcpy_h2d(vals_b, &vals_h).unwrap();
    rt.memcpy_h2d(x_b, &x_h).unwrap();
    for _ in 0..iters {
        rt.launch(
            ck,
            grid,
            block,
            &[
                LaunchArg::Scalar(Value::I64(n as i64)),
                LaunchArg::Scalar(Value::I64(m as i64)),
                LaunchArg::Scalar(Value::I64(spmv::W)),
                LaunchArg::Buf(cols_b),
                LaunchArg::Buf(vals_b),
                LaunchArg::Buf(x_b),
                LaunchArg::Buf(y_b),
            ],
        )
        .expect("spmv launch");
    }
    rt.synchronize();
    let mut out = vec![0u8; n * 4];
    rt.memcpy_d2h(y_b, &mut out).unwrap();
    IrregularRun {
        output: out,
        counters: rt.machine().counters(),
    }
}

#[derive(Serialize)]
struct GpuPoint {
    gpus: usize,
    mayread_fetch_bytes: u64,
    mayread_overfetch_bytes: u64,
    /// Over-fetch as a fraction of the box fetch.
    overfetch_ratio: f64,
}

#[derive(Serialize)]
struct SectionReport {
    n: usize,
    iters: usize,
    byte_identical: bool,
    matches_cpu_reference: bool,
    points: Vec<GpuPoint>,
}

#[derive(Serialize)]
struct Report {
    histogram: SectionReport,
    spmv: SectionReport,
    inexact_write_rejected: bool,
}

/// Run one workload over the device counts and check the A12 claims.
fn section(
    name: &str,
    n: usize,
    iters: usize,
    reference: &[u8],
    run: impl Fn(usize) -> IrregularRun,
) -> SectionReport {
    let runs: Vec<(usize, IrregularRun)> = [1usize, 2, 4].iter().map(|&g| (g, run(g))).collect();
    let base = &runs[0].1;
    assert_eq!(
        base.output, reference,
        "{name}: 1-device run must match the CPU reference"
    );
    assert_eq!(
        base.counters.mayread_overfetch_bytes, 0,
        "{name}: one device fetches exactly the whole-grid box"
    );
    let mut points = Vec::new();
    for (gpus, r) in &runs {
        assert_eq!(
            r.output, base.output,
            "{name}: {gpus}-device output must be byte-identical to 1 device"
        );
        assert!(
            r.counters.mayread_fetch_bytes > 0,
            "{name}: boxed reads must be fetched through the may-read path"
        );
        if *gpus > 1 {
            assert!(
                r.counters.mayread_overfetch_bytes > 0,
                "{name}: partition seams must over-fetch on {gpus} devices"
            );
            assert!(
                r.counters.mayread_overfetch_bytes * 4 < r.counters.mayread_fetch_bytes,
                "{name}: over-fetch must stay bounded: {} of {}",
                r.counters.mayread_overfetch_bytes,
                r.counters.mayread_fetch_bytes
            );
        }
        let ratio =
            r.counters.mayread_overfetch_bytes as f64 / r.counters.mayread_fetch_bytes as f64;
        println!(
            "{:>10} {:>6} {:>16} {:>16} {:>9.2}%",
            name,
            gpus,
            r.counters.mayread_fetch_bytes,
            r.counters.mayread_overfetch_bytes,
            ratio * 100.0,
        );
        points.push(GpuPoint {
            gpus: *gpus,
            mayread_fetch_bytes: r.counters.mayread_fetch_bytes,
            mayread_overfetch_bytes: r.counters.mayread_overfetch_bytes,
            overfetch_ratio: ratio,
        });
    }
    SectionReport {
        n,
        iters,
        byte_identical: true,
        matches_cpu_reference: true,
        points,
    }
}

/// A data-dependent *write* must be rejected even when annotated: range
/// annotations widen reads soundly, but §4 requires writes exact.
fn check_scatter_rejected() -> bool {
    const SCATTER: &str = r#"
// @mekong scatter range idx : $0 - 1 .. $0 + 1
__global__ void scatter(int n, int idx[n], float out[n]) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    int j = idx[i];
    out[j] = 1.0f;
}

int main() {
    scatter<<<grid, block>>>(n, idx, out);
    return 0;
}
"#;
    let program = compile_source(SCATTER).expect("scatter compiles (analysis may still reject)");
    let ck = program.kernel("scatter").unwrap();
    assert!(
        !ck.is_partitionable(),
        "scatter verdict must reject: {:?}",
        ck.model.verdict
    );
    let kc = check_kernel(&ck.model).expect("check runs");
    assert!(
        kc.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.code == codes::INEXACT_WRITE),
        "mekong-check must flag the inexact write: {:?}",
        kc.diagnostics
    );
    // And the runtime launch gate refuses it on a multi-device machine.
    let n = 64usize;
    let mut rt = MgpuRuntime::new(Machine::new(MachineSpec::kepler_system(2), true));
    let idx = rt.malloc(n * 8, 8).unwrap();
    let out = rt.malloc(n * 4, 4).unwrap();
    let idx_h: Vec<u8> = (0..n as i64).flat_map(|v| v.to_le_bytes()).collect();
    rt.memcpy_h2d(idx, &idx_h).unwrap();
    let res = rt.launch(
        ck,
        Dim3::new1(n as u32 / 8),
        Dim3::new1(8),
        &[
            LaunchArg::Scalar(Value::I64(n as i64)),
            LaunchArg::Buf(idx),
            LaunchArg::Buf(out),
        ],
    );
    assert!(res.is_err(), "launch gate must refuse the inexact write");
    true
}

fn main() {
    let args = BenchArgs::parse();
    let (hist_nbins, spmv_n, iters) = if args.quick {
        (2_048usize, 8_192usize, 3usize)
    } else {
        (16_384, 65_536, 10)
    };

    println!("Ablation A12: interval abstract interpretation (bounded may-read boxes)");
    println!();
    println!(
        "{:>10} {:>6} {:>16} {:>16} {:>10}",
        "workload", "gpus", "fetch [B]", "over-fetch [B]", "over%"
    );

    let off = histogram::offsets(hist_nbins);
    let val = histogram::values(hist_nbins);
    let hist_ref: Vec<u8> = histogram::cpu_reference(hist_nbins, &off, &val)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let hist = section("histogram", hist_nbins, iters, &hist_ref, |g| {
        run_histogram(g, hist_nbins, iters)
    });

    let cols = spmv::columns(spmv_n);
    let vals = spmv::matrix_values(spmv_n);
    let x = spmv::vector(spmv_n);
    let spmv_ref: Vec<u8> = spmv::cpu_reference(spmv_n, &cols, &vals, &x)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let spmv_sec = section("spmv", spmv_n, iters, &spmv_ref, |g| {
        run_spmv(g, spmv_n, iters)
    });

    let rejected = check_scatter_rejected();
    println!();
    println!(
        "irregular workloads partition byte-identically with bounded over-fetch; \
         annotated *writes* remain rejected at analysis, check, and launch."
    );

    let report = Report {
        histogram: hist,
        spmv: spmv_sec,
        inexact_write_rejected: rejected,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    mekong_bench::write_record(args.quick, "BENCH_interval.json", &json);
}
