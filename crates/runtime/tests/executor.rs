//! The single plan executor, observed from below: a recording `Backend`
//! wrapper logs every machine call a launch makes.
//!
//! * A `launch_ahead = 0` replay issues exactly the copy, barrier and
//!   launch calls of the miss that captured its plan; only the pattern
//!   charges differ (one flat `host_per_replay`).
//! * A launch with plan capture off issues the same call log as a
//!   capturing miss — capturing a plan is only keeping it.
//! * A cached plan that names a device or a range this runtime does not
//!   have (a mutated snapshot) is refused with an error before anything
//!   is issued, and the runtime keeps launching correctly afterwards.

use std::sync::{Arc, Mutex};

use mekong_gpusim::machine::{DevBuf, OpCounters, SimArg, SimTime, TimeBreakdown, TimeCat};
use mekong_gpusim::{Backend, Machine, MachineSpec, ObservedWriteSets};
use mekong_kernel::builder::*;
use mekong_kernel::{Dim3, Kernel, Value};
use mekong_runtime::{
    load_snapshot_json, snapshot_to_json, CompiledKernel, LaunchArg, MgpuRuntime, RuntimeConfig,
    RuntimeError, VBufId,
};

const N: usize = 256;
const N_DEV: usize = 4;

type Log = Arc<Mutex<Vec<String>>>;

/// A `Machine` that appends `name(args)` to a shared log for every
/// call that may change machine state.
struct Recorder {
    inner: Machine,
    log: Log,
}

/// Forward `&mut self` methods to the machine, logging each call.
macro_rules! logged {
    ($(fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)*) => {$(
        fn $name(&mut self $(, $arg: $ty)*) -> $ret {
            let call = format!("{}{:?}", stringify!($name), ($(&$arg,)*));
            self.log.lock().unwrap().push(call);
            self.inner.$name($($arg),*)
        }
    )*};
}

/// Forward `&self` queries to the machine unlogged.
macro_rules! forwarded {
    ($(fn $name:ident(&self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)*) => {$(
        fn $name(&self $(, $arg: $ty)*) -> $ret {
            self.inner.$name($($arg),*)
        }
    )*};
}

impl Backend for Recorder {
    forwarded! {
        fn spec(&self) -> &MachineSpec;
        fn n_devices(&self) -> usize;
        fn is_functional(&self) -> bool;
        fn is_streamed(&self) -> bool;
        fn now(&self) -> SimTime;
        fn breakdown(&self) -> TimeBreakdown;
        fn counters(&self) -> OpCounters;
        fn stream_mark(&self, d: usize) -> u64;
        fn debug_read(&self, buf: DevBuf) -> Option<Vec<u8>>;
    }
    logged! {
        fn set_streamed(&mut self, on: bool) -> ();
        fn set_transfer_timing(&mut self, on: bool) -> ();
        fn set_pattern_timing(&mut self, on: bool) -> ();
        fn reset_clock(&mut self) -> ();
        fn note_plan_hit(&mut self) -> ();
        fn note_plan_miss(&mut self) -> ();
        fn note_plan_shared_hit(&mut self) -> ();
        fn note_plan_evictions(&mut self, n: u64) -> ();
        fn note_tuner_choice(&mut self, encoded: u32, predict_bytes: u64) -> ();
        fn note_tuner_measured(&mut self, bytes_per_launch: u64) -> ();
        fn note_check_safe(&mut self) -> ();
        fn note_check_rejected(&mut self) -> ();
        fn note_replica_hits(&mut self, runs: u64, bytes_saved: u64) -> ();
        fn note_replica_invalidations(&mut self, n: u64) -> ();
        fn note_mayread(&mut self, fetch_bytes: u64, overfetch_bytes: u64) -> ();
        fn alloc(&mut self, d: usize, bytes: usize) -> mekong_gpusim::Result<DevBuf>;
        fn charge_host(&mut self, seconds: SimTime, cat: TimeCat) -> ();
        fn copy_h2d(&mut self, src: &[u8], dst: DevBuf, dst_offset: usize, async_: bool)
            -> mekong_gpusim::Result<()>;
        fn copy_d2h(&mut self, src: DevBuf, src_offset: usize, dst: &mut [u8], async_: bool)
            -> mekong_gpusim::Result<()>;
        fn copy_h2d_timed(&mut self, dst: DevBuf, dst_offset: usize, len: usize, async_: bool)
            -> mekong_gpusim::Result<()>;
        fn copy_d2h_timed(&mut self, src: DevBuf, src_offset: usize, len: usize, async_: bool)
            -> mekong_gpusim::Result<()>;
        fn copy_d2d(&mut self, src: DevBuf, src_offset: usize, dst: DevBuf, dst_offset: usize,
            len: usize) -> mekong_gpusim::Result<()>;
        fn copy_d2d_pipelined(&mut self, src: DevBuf, src_offset: usize, dst: DevBuf,
            dst_offset: usize, len: usize, deps: &[SimTime]) -> mekong_gpusim::Result<SimTime>;
        fn copy_d2d_strided(&mut self, src: DevBuf, dst: DevBuf, offset: usize, run: usize,
            stride: usize, count: usize) -> mekong_gpusim::Result<()>;
        fn copy_d2d_strided_pipelined(&mut self, src: DevBuf, dst: DevBuf, offset: usize,
            run: usize, stride: usize, count: usize, deps: &[SimTime])
            -> mekong_gpusim::Result<SimTime>;
        fn launch(&mut self, d: usize, kernel: &Kernel, args: &[SimArg], grid_dim: Dim3,
            block_dim: Dim3) -> mekong_gpusim::Result<()>;
        fn launch_with_traffic(&mut self, d: usize, kernel: &Kernel, args: &[SimArg],
            grid_dim: Dim3, block_dim: Dim3, traffic: Option<u64>) -> mekong_gpusim::Result<()>;
        fn launch_pipelined(&mut self, d: usize, kernel: &Kernel, args: &[SimArg],
            grid_dim: Dim3, block_dim: Dim3, traffic: Option<u64>, deps: &[SimTime])
            -> mekong_gpusim::Result<SimTime>;
        fn launch_recording(&mut self, d: usize, kernel: &Kernel, args: &[SimArg],
            grid_dim: Dim3, block_dim: Dim3) -> mekong_gpusim::Result<ObservedWriteSets>;
        fn sync_device(&mut self, d: usize) -> mekong_gpusim::Result<()>;
        fn sync_all(&mut self) -> ();
        fn try_sync_all(&mut self) -> mekong_gpusim::Result<()>;
        fn join_host(&mut self, t: SimTime) -> ();
        fn stream_wait_cross(&mut self, waiter: usize, source: usize, event: u64) -> ();
        fn debug_write(&mut self, buf: DevBuf, data: &[u8]) -> ();
    }
}

fn stencil_kernel() -> Kernel {
    Kernel {
        name: "stencil".into(),
        params: vec![
            scalar("n"),
            array_f32("input", &[ext("n")]),
            array_f32("output", &[ext("n")]),
        ],
        body: vec![
            let_("i", global_x()),
            guard_return(v("i").ge(v("n"))),
            if_(
                v("i").eq_(i(0)).or(v("i").eq_(v("n") - i(1))),
                vec![store("output", vec![v("i")], load("input", vec![v("i")]))],
                vec![store(
                    "output",
                    vec![v("i")],
                    (load("input", vec![v("i") - i(1)])
                        + load("input", vec![v("i")])
                        + load("input", vec![v("i") + i(1)]))
                        / f(3.0),
                )],
            ),
        ],
    }
}

fn init() -> Vec<u8> {
    (0..N)
        .flat_map(|i| (((i * 37) % 251) as f32).to_le_bytes())
        .collect()
}

/// A ping-pong stencil on a recording 4-device machine.
struct Run {
    rt: MgpuRuntime,
    log: Log,
    ck: CompiledKernel,
    src: VBufId,
    dst: VBufId,
}

impl Run {
    fn new(capture_plans: bool) -> Run {
        let log = Log::default();
        let mut rt = MgpuRuntime::new(Recorder {
            inner: Machine::new(MachineSpec::kepler_system(N_DEV), true),
            log: log.clone(),
        });
        rt.set_config(RuntimeConfig {
            capture_plans,
            launch_ahead: 0,
            ..RuntimeConfig::default()
        });
        let src = rt.malloc(N * 4, 4).unwrap();
        let dst = rt.malloc(N * 4, 4).unwrap();
        rt.memcpy_h2d(src, &init()).unwrap();
        rt.memcpy_h2d(dst, &init()).unwrap();
        Run {
            rt,
            log,
            ck: CompiledKernel::compile(&stencil_kernel()).unwrap(),
            src,
            dst,
        }
    }

    /// One stencil step; returns its call log and whether it was a plan
    /// hit. The buffers swap only when the launch succeeded.
    fn step(&mut self) -> Result<(Vec<String>, bool), RuntimeError> {
        self.log.lock().unwrap().clear();
        let hits = self.rt.machine().counters().plan_hits;
        self.rt.launch(
            &self.ck,
            Dim3::new1((N / 64) as u32),
            Dim3::new1(64),
            &[
                LaunchArg::Scalar(Value::I64(N as i64)),
                LaunchArg::Buf(self.src),
                LaunchArg::Buf(self.dst),
            ],
        )?;
        std::mem::swap(&mut self.src, &mut self.dst);
        let hit = self.rt.machine().counters().plan_hits > hits;
        Ok((std::mem::take(&mut *self.log.lock().unwrap()), hit))
    }

    fn read_src(&mut self) -> Vec<u8> {
        let mut out = vec![0u8; N * 4];
        self.rt.memcpy_d2h(self.src, &mut out).unwrap();
        out
    }
}

/// The copy, barrier and launch calls of a log, in order.
fn commands(log: &[String]) -> Vec<&String> {
    log.iter()
        .filter(|c| c.starts_with("copy_d2d") || c.starts_with("sync_") || c.starts_with("launch"))
        .collect()
}

#[test]
fn eager_replay_issues_the_commands_of_its_capturing_miss() {
    let mut run = Run::new(true);
    let logs: Vec<(Vec<String>, bool)> = (0..10).map(|_| run.step().unwrap()).collect();
    let mut replays = 0;
    for (k, (log, hit)) in logs.iter().enumerate() {
        if !hit {
            continue;
        }
        // Ping-pong: a launch can only replay a plan captured by an
        // earlier launch with the same buffer roles.
        let miss = (0..k)
            .rev()
            .skip(1)
            .step_by(2)
            .find(|&j| !logs[j].1)
            .expect("a hit follows its capturing miss");
        assert!(!commands(log).is_empty());
        assert_eq!(
            commands(log),
            commands(&logs[miss].0),
            "replay {k} vs miss {miss}"
        );
        // The replay's only pattern charge is the flat replay fee, paid
        // before any command.
        let charges: Vec<usize> = (0..log.len())
            .filter(|&i| log[i].starts_with("charge_host"))
            .collect();
        assert_eq!(charges.len(), 1, "{log:#?}");
        assert!(log[..charges[0]].iter().all(|c| c.starts_with("note_")));
        replays += 1;
    }
    assert!(replays >= 4, "expected steady-state replays, got {replays}");
}

#[test]
fn capture_off_issues_the_call_log_of_a_capturing_miss() {
    let mut on = Run::new(true);
    let mut off = Run::new(false);
    let mut misses = 0;
    for _ in 0..10 {
        let (on_log, hit) = on.step().unwrap();
        let (off_log, _) = off.step().unwrap();
        if !hit {
            assert_eq!(on_log, off_log);
            misses += 1;
        }
    }
    assert!(misses >= 2);
    assert_eq!(on.read_src(), off.read_src());
}

/// Rewrite the number after every `"<field>": ` in a snapshot.
fn set_field(json: &str, field: &str, value: u64) -> String {
    let tag = format!("\"{field}\": ");
    let mut parts = json.split(&tag);
    let mut out = parts.next().unwrap().to_string();
    for rest in parts {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(&format!("{tag}{value}{}", &rest[digits..]));
    }
    out
}

/// Warm-start a runtime from a snapshot with `field` set to `value`
/// everywhere, retry every refused launch, and compare the result with
/// the run that took the snapshot.
fn refuse_mutated_snapshot(field: &str, value: u64) {
    let mut donor = Run::new(true);
    for _ in 0..10 {
        donor.step().unwrap();
    }
    let snapshot = snapshot_to_json(&donor.rt.plan_cache_handle());
    let mutated = set_field(&snapshot, field, value);
    assert_ne!(mutated, snapshot);

    let mut run = Run::new(true);
    load_snapshot_json(&run.rt.plan_cache_handle(), &mutated).unwrap();
    let mut refused = 0;
    for _ in 0..10 {
        match run.step() {
            Ok(_) => {}
            Err(RuntimeError::Snapshot(_)) => {
                refused += 1;
                // The refused plan is gone: the retry resolves afresh.
                run.step().unwrap();
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert!(refused > 0, "the mutated plans must be refused");
    assert_eq!(run.read_src(), donor.read_src());
}

#[test]
fn snapshot_plans_naming_a_missing_device_or_range_are_refused() {
    refuse_mutated_snapshot("dst_gpu", 99);
    refuse_mutated_snapshot("end", (N * 4 + 64) as u64);
}
