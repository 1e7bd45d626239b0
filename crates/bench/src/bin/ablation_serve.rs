//! Ablation A11: the multi-tenant serving runtime.
//!
//! Three pairs of tenants — hotspot, blur, n-body, identical geometry
//! within each pair but different input data — run interleaved through
//! one [`mekong_serve::FleetServer`] on 4 functional devices, with the
//! tuned runtime configuration (autotuner, plan capture, replica
//! coherence, launch-ahead) and the shared sharded plan cache. Checked:
//!
//! 1. **Cross-tenant sharing** — the second tenant of each pair replays
//!    plans its partner captured (`plan_shared_hits > 0` fleet-wide);
//!    plan keys are data-independent, so differing inputs still share.
//! 2. **Isolation** — every tenant's read-backs are byte-identical to
//!    the same workload run alone on an idle fleet (sequential
//!    baseline).
//! 3. **Warm start** — the shared cache is snapshotted to JSON, loaded
//!    into a fresh server, and the whole tenant mix re-runs with *zero*
//!    plan captures (`plan_misses == 0`) and identical outputs — the
//!    CI determinism gate.
//!
//! Emits `BENCH_serve.json`.

use mekong_bench::BenchArgs;
use mekong_core::prelude::*;
use mekong_serve::{FleetConfig, FleetServer, Probe, ProbeArg, TenantId, Ticket};
use mekong_workloads::{blur, hotspot, nbody};
use serde::Serialize;

/// One tenant's workload description.
#[derive(Clone)]
enum Workload {
    Hotspot { n: usize, iters: usize, seed: u32 },
    Blur { n: usize, iters: usize, seed: u32 },
    NBody { n: usize, iters: usize, seed: u32 },
}

impl Workload {
    fn label(&self) -> &'static str {
        match self {
            Workload::Hotspot { .. } => "hotspot",
            Workload::Blur { .. } => "blur",
            Workload::NBody { .. } => "nbody",
        }
    }
}

fn pattern(len: usize, seed: u32, modulus: u32, scale: f32) -> Vec<u8> {
    (0..len)
        .flat_map(|i| {
            (((i as u32).wrapping_mul(31).wrapping_add(seed) % modulus) as f32 * scale)
                .to_le_bytes()
        })
        .collect()
}

/// Register the tenant and queue its whole run; returns the read-back
/// tickets (final result buffers).
fn submit(server: &mut FleetServer, name: &str, w: &Workload) -> (TenantId, Vec<Ticket>) {
    match *w {
        Workload::Hotspot { n, iters, seed } => {
            let (grid, block) = hotspot::geometry(n);
            let bytes = n * n * 4;
            let buf = ProbeArg::Buf {
                bytes,
                elem_size: 4,
            };
            let probe = Probe {
                kernel: "hotspot".into(),
                grid,
                block,
                args: vec![
                    ProbeArg::Scalar(Value::I64(n as i64)),
                    ProbeArg::Scalar(Value::F32(hotspot::CAP)),
                    buf.clone(),
                    buf.clone(),
                    buf,
                ],
            };
            let t = server
                .register_tenant(name, hotspot::SOURCE, &probe)
                .expect("register hotspot");
            let a = server.malloc(t, bytes, 4).unwrap();
            let b = server.malloc(t, bytes, 4).unwrap();
            let p = server.malloc(t, bytes, 4).unwrap();
            let temp = pattern(n * n, seed, 173, 0.1);
            server.submit_h2d(t, a, temp.clone()).unwrap();
            server.submit_h2d(t, b, temp).unwrap();
            server
                .submit_h2d(t, p, pattern(n * n, seed ^ 5, 97, 0.01))
                .unwrap();
            let (mut src, mut dst) = (a, b);
            for _ in 0..iters {
                server
                    .submit_launch(
                        t,
                        "hotspot",
                        grid,
                        block,
                        vec![
                            LaunchArg::Scalar(Value::I64(n as i64)),
                            LaunchArg::Scalar(Value::F32(hotspot::CAP)),
                            LaunchArg::Buf(src),
                            LaunchArg::Buf(p),
                            LaunchArg::Buf(dst),
                        ],
                    )
                    .unwrap();
                std::mem::swap(&mut src, &mut dst);
            }
            server.submit_sync(t).unwrap();
            let ticket = server.submit_d2h(t, src).unwrap();
            (t, vec![ticket])
        }
        Workload::Blur { n, iters, seed } => {
            let (grid, block) = blur::geometry(n);
            let bytes = n * n * 4;
            let buf = ProbeArg::Buf {
                bytes,
                elem_size: 4,
            };
            let probe = Probe {
                kernel: "blur_row".into(),
                grid,
                block,
                args: vec![ProbeArg::Scalar(Value::I64(n as i64)), buf.clone(), buf],
            };
            let t = server
                .register_tenant(name, blur::SOURCE, &probe)
                .expect("register blur");
            let img = server.malloc(t, bytes, 4).unwrap();
            let tmp = server.malloc(t, bytes, 4).unwrap();
            let start = pattern(n * n, seed, 211, 0.05);
            server.submit_h2d(t, img, start.clone()).unwrap();
            server.submit_h2d(t, tmp, start).unwrap();
            for _ in 0..iters {
                for (kernel, a, b) in [("blur_row", img, tmp), ("blur_col", tmp, img)] {
                    server
                        .submit_launch(
                            t,
                            kernel,
                            grid,
                            block,
                            vec![
                                LaunchArg::Scalar(Value::I64(n as i64)),
                                LaunchArg::Buf(a),
                                LaunchArg::Buf(b),
                            ],
                        )
                        .unwrap();
                }
            }
            server.submit_sync(t).unwrap();
            let ticket = server.submit_d2h(t, img).unwrap();
            (t, vec![ticket])
        }
        Workload::NBody { n, iters, seed } => {
            let (grid, block) = nbody::geometry(n);
            let bytes = n * 4 * 4;
            let buf = ProbeArg::Buf {
                bytes,
                elem_size: 4,
            };
            let probe = Probe {
                kernel: "nbody".into(),
                grid,
                block,
                args: vec![
                    ProbeArg::Scalar(Value::I64(n as i64)),
                    ProbeArg::Scalar(Value::F32(nbody::DT)),
                    ProbeArg::Scalar(Value::F32(nbody::EPS)),
                    buf.clone(),
                    buf.clone(),
                    buf,
                ],
            };
            let t = server
                .register_tenant(name, nbody::SOURCE, &probe)
                .expect("register nbody");
            let posm = server.malloc(t, bytes, 4).unwrap();
            let out = server.malloc(t, bytes, 4).unwrap();
            let vel = server.malloc(t, bytes, 4).unwrap();
            server
                .submit_h2d(t, posm, pattern(n * 4, seed, 157, 0.01))
                .unwrap();
            server
                .submit_h2d(t, vel, pattern(n * 4, seed ^ 9, 113, 0.001))
                .unwrap();
            let (mut src, mut dst) = (posm, out);
            for _ in 0..iters {
                server
                    .submit_launch(
                        t,
                        "nbody",
                        grid,
                        block,
                        vec![
                            LaunchArg::Scalar(Value::I64(n as i64)),
                            LaunchArg::Scalar(Value::F32(nbody::DT)),
                            LaunchArg::Scalar(Value::F32(nbody::EPS)),
                            LaunchArg::Buf(src),
                            LaunchArg::Buf(vel),
                            LaunchArg::Buf(dst),
                        ],
                    )
                    .unwrap();
                std::mem::swap(&mut src, &mut dst);
            }
            server.submit_sync(t).unwrap();
            let tickets = vec![
                server.submit_d2h(t, src).unwrap(),
                server.submit_d2h(t, vel).unwrap(),
            ];
            (t, tickets)
        }
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig::functional_fleet(4)
}

/// Run the whole tenant mix through one server; returns per-tenant
/// outputs and the server for stats/snapshot inspection.
fn run_fleet(
    mix: &[(String, Workload)],
    snapshot: Option<&str>,
) -> (FleetServer, Vec<Vec<Vec<u8>>>) {
    let mut server = FleetServer::new(fleet_config());
    if let Some(json) = snapshot {
        let loaded = server.load_plans(json).expect("snapshot loads");
        assert!(loaded > 0, "warm start requires a non-empty snapshot");
    }
    let placed: Vec<(TenantId, Vec<Ticket>)> = mix
        .iter()
        .map(|(name, w)| submit(&mut server, name, w))
        .collect();
    server.drain().expect("drain");
    let outputs = placed
        .iter()
        .map(|(t, tickets)| {
            tickets
                .iter()
                .map(|&k| server.take_output(*t, k).unwrap().expect("executed"))
                .collect()
        })
        .collect();
    (server, outputs)
}

#[derive(Serialize)]
struct TenantReport {
    name: String,
    workload: &'static str,
    devices: Vec<usize>,
    wall_time_s: f64,
    plan_hits: u64,
    plan_misses: u64,
    plan_shared_hits: u64,
    plan_evictions: u64,
    bytes_h2d: u64,
    bytes_d2h: u64,
}

#[derive(Serialize)]
struct Report {
    gpus: usize,
    tenants: Vec<TenantReport>,
    fleet_shared_hits: u64,
    plan_cache_entries: usize,
    snapshot_bytes: usize,
    sequential_outputs_identical: bool,
    warm_start_plan_misses: u64,
    warm_start_outputs_identical: bool,
}

fn main() {
    let args = BenchArgs::parse();
    let (hs, bl, nb) = if args.quick {
        ((128usize, 6usize), (128usize, 4usize), (256usize, 2usize))
    } else {
        ((256, 24), (256, 12), (512, 4))
    };
    // Pairs: identical geometry within a pair, different input seeds —
    // plan keys are data-independent, so partners share plans.
    let mix: Vec<(String, Workload)> = vec![
        (
            "hotspot-a",
            Workload::Hotspot {
                n: hs.0,
                iters: hs.1,
                seed: 1,
            },
        ),
        (
            "hotspot-b",
            Workload::Hotspot {
                n: hs.0,
                iters: hs.1,
                seed: 2,
            },
        ),
        (
            "blur-a",
            Workload::Blur {
                n: bl.0,
                iters: bl.1,
                seed: 3,
            },
        ),
        (
            "blur-b",
            Workload::Blur {
                n: bl.0,
                iters: bl.1,
                seed: 4,
            },
        ),
        (
            "nbody-a",
            Workload::NBody {
                n: nb.0,
                iters: nb.1,
                seed: 5,
            },
        ),
        (
            "nbody-b",
            Workload::NBody {
                n: nb.0,
                iters: nb.1,
                seed: 6,
            },
        ),
    ]
    .into_iter()
    .map(|(n, w)| (n.to_string(), w))
    .collect();

    println!("Ablation A11: multi-tenant serving (4 functional GPUs, shared sharded plan cache)");
    println!();

    // (1) Interleaved fleet run.
    let (server, fleet_outputs) = run_fleet(&mix, None);
    let stats = server.fleet_stats();
    let fleet_shared: u64 = stats.iter().map(|s| s.plan_shared_hits).sum();
    assert!(
        fleet_shared > 0,
        "tenant pairs must replay each other's plans"
    );

    println!(
        "{:>10} {:>9} {:>12} {:>8} {:>8} {:>8} {:>12}",
        "tenant", "workload", "devices", "hits", "misses", "shared", "elapsed [ms]"
    );
    let tenants: Vec<TenantReport> = mix
        .iter()
        .zip(&stats)
        .map(|((name, w), s)| {
            println!(
                "{:>10} {:>9} {:>12} {:>8} {:>8} {:>8} {:>12.3}",
                name,
                w.label(),
                format!("{:?}", s.devices),
                s.plan_hits,
                s.plan_misses,
                s.plan_shared_hits,
                s.wall_time * 1e3,
            );
            TenantReport {
                name: name.clone(),
                workload: w.label(),
                devices: s.devices.clone(),
                wall_time_s: s.wall_time,
                plan_hits: s.plan_hits,
                plan_misses: s.plan_misses,
                plan_shared_hits: s.plan_shared_hits,
                plan_evictions: s.plan_evictions,
                bytes_h2d: s.bytes_h2d,
                bytes_d2h: s.bytes_d2h,
            }
        })
        .collect();

    // (2) Sequential baselines: each tenant alone must agree byte for
    // byte with its interleaved outputs.
    let mut sequential_identical = true;
    for (i, (name, w)) in mix.iter().enumerate() {
        let (_, solo) = run_fleet(std::slice::from_ref(&(name.clone(), w.clone())), None);
        assert_eq!(
            solo[0], fleet_outputs[i],
            "{name}: interleaved serving diverged from the solo run"
        );
        sequential_identical &= solo[0] == fleet_outputs[i];
    }
    println!();
    println!(
        "sequential baselines: all {} tenants byte-identical",
        mix.len()
    );

    // (3) Warm start: snapshot, fresh server, zero captures.
    let snapshot = server.snapshot_plans();
    let (warm_server, warm_outputs) = run_fleet(&mix, Some(&snapshot));
    let warm_misses: u64 = warm_server
        .fleet_stats()
        .iter()
        .map(|s| s.plan_misses)
        .sum();
    assert_eq!(
        warm_misses, 0,
        "warm-started server must replay every launch from the snapshot"
    );
    assert_eq!(
        warm_outputs, fleet_outputs,
        "warm start must reproduce the cold run byte for byte"
    );
    println!(
        "warm start: {} plans loaded ({} KiB snapshot), 0 captures, identical outputs",
        server.plan_cache().len(),
        snapshot.len() / 1024,
    );

    let report = Report {
        gpus: 4,
        tenants,
        fleet_shared_hits: fleet_shared,
        plan_cache_entries: server.plan_cache().len(),
        snapshot_bytes: snapshot.len(),
        sequential_outputs_identical: sequential_identical,
        warm_start_plan_misses: warm_misses,
        warm_start_outputs_identical: true,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    mekong_bench::write_record(args.quick, "BENCH_serve.json", &json);
}
