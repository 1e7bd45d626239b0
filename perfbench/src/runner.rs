//! Running jobs: on a runtime of their own (`functional`, `replay`,
//! `resolve`) or as tenants of a fleet server in a closed loop
//! (`tenants`). Every call into the program is timed from here; in the
//! traced run the same calls also open spans.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mekong_core::CompiledProgram;
use mekong_gpusim::{Machine, MachineSpec, OpCounters};
use mekong_runtime::{LaunchArg, MgpuRuntime, RuntimeConfig, VBufId};
use mekong_serve::{FleetConfig, FleetServer, Probe, ProbeArg, TenantId, Ticket};

use crate::backend::TimedBackend;
use crate::script::{Arg, Prog, Script};
use crate::trace::{self, Kind};

/// What one job left behind that must repeat exactly: across rounds, and
/// between the untraced and the traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Simulated makespan of the job's runtime, as IEEE bits.
    pub model_bits: u64,
    /// Device-operation counters (single-runtime jobs) or the tenant's
    /// plan-cache and byte counters (tenant jobs: all that serve exposes).
    pub counters: OpCounters,
    /// Digest of the read-back bytes.
    pub outputs: u64,
    /// Σ tracker segments over the job's buffers at its end.
    pub segments: u64,
    pub launches: u64,
}

/// One finished job.
#[derive(Debug, Clone)]
pub struct Job {
    pub result: JobResult,
    /// The read-back bytes.
    pub outputs: Vec<Vec<u8>>,
    /// Host time from acquiring the runtime (or registering) to the last
    /// read-back.
    pub latency_s: f64,
    /// Host time of each launch call (tenants: of each step that ran a
    /// launch).
    pub launch_us: Vec<f64>,
}

impl Job {
    fn new(result: JobResult, outputs: Vec<Vec<u8>>, latency_s: f64, launch_us: Vec<f64>) -> Job {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        outputs.hash(&mut h);
        Job {
            result: JobResult {
                outputs: h.finish(),
                ..result
            },
            outputs,
            latency_s,
            launch_us,
        }
    }
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Where a job's runtime comes from and how it is configured.
#[derive(Debug, Clone)]
pub struct Target {
    pub spec: MachineSpec,
    pub functional: bool,
    pub config: RuntimeConfig,
}

impl Target {
    /// A fresh runtime; in the traced run its machine sits behind the
    /// timing wrapper.
    pub fn runtime(&self) -> MgpuRuntime {
        let machine = Machine::new(self.spec.clone(), self.functional);
        let mut rt = if trace::enabled() {
            MgpuRuntime::from_boxed(Box::new(TimedBackend(machine)))
        } else {
            MgpuRuntime::new(machine)
        };
        rt.set_config(self.config);
        rt
    }
}

fn launch_args(args: &[Arg], bufs: &[VBufId]) -> Vec<LaunchArg> {
    args.iter()
        .map(|a| match *a {
            Arg::S(v) => LaunchArg::Scalar(v),
            Arg::B(i) => LaunchArg::Buf(bufs[i]),
        })
        .collect()
}

/// Count an op; an `Err` fails it and ends the job.
fn op<T, E: std::fmt::Display>(
    tally: &mut Tally,
    what: &str,
    r: Result<T, E>,
) -> Result<T, String> {
    tally.attempted += 1;
    r.map_err(|e| {
        tally.failed += 1;
        format!("{what}: {e}")
    })
}

/// Run one job on a runtime of its own.
fn run_job(
    s: &Script,
    prog: &CompiledProgram,
    target: &Target,
    tally: &mut Tally,
) -> Result<Job, String> {
    let t0 = Instant::now();
    let mut rt = trace::span(Kind::RuntimeOther, || target.runtime());
    let mut bufs = Vec::with_capacity(s.bufs.len());
    for &(bytes, elem) in &s.bufs {
        let b = trace::span_res(Kind::RuntimeOther, || rt.malloc(bytes, elem));
        bufs.push(op(tally, "malloc", b)?);
    }
    for (i, data) in &s.uploads {
        let r = trace::span_res(Kind::RuntimeMemcpy, || match data {
            Some(d) => rt.memcpy_h2d(bufs[*i], d),
            None => rt.memcpy_h2d_sim(bufs[*i]),
        });
        op(tally, "memcpy_h2d", r)?;
    }
    let mut launch_us = Vec::with_capacity(s.launches.len());
    let mut seen = HashSet::new();
    let mut calib = Calibration::default();
    for l in &s.launches {
        let ck = prog
            .kernel(l.kernel)
            .ok_or_else(|| format!("program lacks kernel {}", l.kernel))?;
        let args = launch_args(&l.args, &bufs);
        let first = seen.insert((l.kernel, l.grid, l.block)) && target.config.autotune;
        let r = if trace::enabled() {
            calib.traced_launch(&mut rt, first, |rt| rt.launch(ck, l.grid, l.block, &args))
        } else {
            let t = Instant::now();
            let r = rt.launch(ck, l.grid, l.block, &args);
            launch_us.push(t.elapsed().as_secs_f64() * 1e6);
            r
        };
        op(tally, "launch", r)?;
    }
    tally.attempted += 1;
    trace::span(Kind::RuntimeSync, || rt.synchronize());
    let mut outputs = Vec::with_capacity(s.readbacks.len());
    for &i in &s.readbacks {
        let r = trace::span_res(Kind::RuntimeMemcpy, || {
            if target.functional {
                let mut out = vec![0u8; s.bufs[i].0];
                rt.memcpy_d2h(bufs[i], &mut out).map(|()| out)
            } else {
                rt.memcpy_d2h_sim(bufs[i]).map(|()| Vec::new())
            }
        });
        outputs.push(op(tally, "memcpy_d2h", r)?);
    }
    let latency_s = t0.elapsed().as_secs_f64();
    calib.flush();
    let result = JobResult {
        model_bits: rt.elapsed().to_bits(),
        counters: rt.machine().counters(),
        outputs: 0,
        segments: bufs.iter().map(|&b| rt.segment_count(b) as u64).sum(),
        launches: s.launches.len() as u64,
    };
    Ok(Job::new(result, outputs, latency_s, launch_us))
}

/// Per-launch bookkeeping of the traced run: classifies each launch as a
/// plan replay, a resolve, or a tuner first launch, and keeps the model's
/// charged host (pattern) time next to the measured one.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calibration {
    pub replays: u64,
    pub resolves: u64,
    pub model_replay_s: f64,
    pub model_resolve_s: f64,
}

thread_local! {
    static CALIB: std::cell::Cell<Calibration> = std::cell::Cell::new(Calibration::default());
    static TUNER_CANDIDATES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Calibration {
    fn traced_launch<E>(
        &mut self,
        rt: &mut MgpuRuntime,
        first: bool,
        f: impl FnOnce(&mut MgpuRuntime) -> Result<(), E>,
    ) -> Result<(), E> {
        let hits0 = rt.machine().counters().plan_hits;
        let pattern0 = rt.machine().breakdown().pattern;
        trace::enter();
        let r = f(rt);
        let hit = rt.machine().counters().plan_hits > hits0;
        let kind = if first {
            Kind::TunerFirstLaunch
        } else if hit {
            Kind::RuntimeReplay
        } else {
            Kind::RuntimeResolve
        };
        trace::exit_as(kind);
        if r.is_err() {
            trace::error(kind.layer());
        }
        let model = rt.machine().breakdown().pattern - pattern0;
        match kind {
            Kind::RuntimeReplay => {
                self.replays += 1;
                self.model_replay_s += model;
            }
            Kind::RuntimeResolve => {
                self.resolves += 1;
                self.model_resolve_s += model;
            }
            _ => {}
        }
        r
    }

    fn flush(self) {
        CALIB.with(|c| {
            let mut t = c.get();
            t.replays += self.replays;
            t.resolves += self.resolves;
            t.model_replay_s += self.model_replay_s;
            t.model_resolve_s += self.model_resolve_s;
            c.set(t);
        });
    }

    /// Take the totals gathered since the last call.
    pub fn take() -> Calibration {
        CALIB.with(|c| c.take())
    }
}

/// Candidates the traced run's tuner probes ranked since the last call.
pub fn take_tuner_candidates() -> u64 {
    TUNER_CANDIDATES.with(|c| c.replace(0))
}

/// A round's jobs in `order`, one after another, each on a fresh
/// runtime. Returns the jobs by deck position. A panic inside the program
/// fails the job's remaining ops and the round.
pub fn run_sequential(
    deck: &[Script],
    order: &[usize],
    programs: &BTreeMap<Prog, CompiledProgram>,
    target: &Target,
    tally: &mut Tally,
) -> Result<Vec<Job>, String> {
    let mut jobs: Vec<Option<Job>> = vec![None; deck.len()];
    for &j in order {
        let s = &deck[j];
        trace::set_job(j as u32);
        let mut job_tally = Tally::default();
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_job(s, &programs[&s.prog], target, &mut job_tally)
        }));
        tally.attempted += job_tally.attempted;
        tally.failed += job_tally.failed;
        match r {
            Ok(r) => jobs[j] = Some(r?),
            Err(_) => {
                let left = (s.ops() as u64).saturating_sub(job_tally.attempted).max(1);
                tally.attempted += left;
                tally.failed += left;
                return Err(format!("job {j} ({}) panicked", s.prog.name()));
            }
        }
    }
    collect(jobs)
}

fn collect(jobs: Vec<Option<Job>>) -> Result<Vec<Job>, String> {
    jobs.into_iter()
        .enumerate()
        .map(|(j, r)| r.ok_or_else(|| format!("job {j} never ran")))
        .collect()
}

/// The tenant probe: the script's first launch, with buffers described by
/// size, as `register_tenant` ranks it.
fn probe_of(s: &Script) -> Probe {
    let l = &s.launches[0];
    Probe {
        kernel: l.kernel.to_string(),
        grid: l.grid,
        block: l.block,
        args: l
            .args
            .iter()
            .map(|a| match *a {
                Arg::S(v) => ProbeArg::Scalar(v),
                Arg::B(i) => ProbeArg::Buf {
                    bytes: s.bufs[i].0,
                    elem_size: s.bufs[i].1,
                },
            })
            .collect(),
    }
}

/// The traced run's attribution probe for a registration: the compile
/// and the tuner ranking `register_tenant` performs inside, repeated on
/// the same inputs under their own spans.
fn probe_registration(s: &Script, fleet: &FleetConfig) -> Result<(), String> {
    trace::probe(|| {
        let program = crate::compile::compile(s.prog.source())?;
        let p = probe_of(s);
        let ck = program
            .kernel(&p.kernel)
            .ok_or_else(|| format!("program lacks kernel {}", p.kernel))?;
        let mut scout = trace::span(Kind::RuntimeOther, || {
            let mut rt = MgpuRuntime::new(Machine::new(fleet.spec.clone(), false));
            rt.set_config(fleet.runtime);
            rt
        });
        let mut args = Vec::with_capacity(p.args.len());
        for a in &p.args {
            args.push(match a {
                ProbeArg::Scalar(v) => LaunchArg::Scalar(*v),
                ProbeArg::Buf { bytes, elem_size } => LaunchArg::Buf(
                    trace::span_res(Kind::RuntimeOther, || scout.malloc(*bytes, *elem_size))
                        .map_err(|e| e.to_string())?,
                ),
            });
        }
        let cands = trace::span_res(Kind::TunerRank, || {
            scout.tuner_candidates(ck, p.grid, p.block, &args)
        })
        .map_err(|e| e.to_string())?;
        TUNER_CANDIDATES.with(|c| c.set(c.get() + cands.len() as u64));
        Ok(())
    })
}

/// A client's job in flight through the fleet.
struct Live {
    job: usize,
    tenant: TenantId,
    /// Whether each still-queued op is a launch, oldest first.
    pending: VecDeque<bool>,
    tickets: Vec<Ticket>,
    start: Instant,
    launch_us: Vec<f64>,
}

/// Register job `j` as a tenant and queue all its ops.
fn start_tenant(
    server: &mut FleetServer,
    deck: &[Script],
    j: usize,
    fleet: &FleetConfig,
    tally: &mut Tally,
) -> Result<Live, String> {
    let s = &deck[j];
    trace::set_job(j as u32);
    if trace::enabled() {
        probe_registration(s, fleet)?;
    }
    let start = Instant::now();
    let probe = probe_of(s);
    let reg = trace::span_res(Kind::ServeRegister, || {
        server.register_tenant(s.prog.name(), s.prog.source(), &probe)
    });
    let t = op(tally, "register_tenant", reg)?;
    let mut bufs = Vec::with_capacity(s.bufs.len());
    for &(bytes, elem) in &s.bufs {
        let b = trace::span_res(Kind::ServeSubmit, || server.malloc(t, bytes, elem));
        bufs.push(op(tally, "malloc", b)?);
    }
    let mut pending = VecDeque::with_capacity(s.ops());
    for (i, data) in &s.uploads {
        // Serve takes the upload by value; performance-mode tenants get
        // zeros of the right length.
        let data = trace::span(Kind::Bench, || {
            data.clone().unwrap_or_else(|| vec![0; s.bufs[*i].0])
        });
        let r = trace::span_res(Kind::ServeSubmit, || server.submit_h2d(t, bufs[*i], data));
        op(tally, "submit_h2d", r)?;
        pending.push_back(false);
    }
    for l in &s.launches {
        let args = launch_args(&l.args, &bufs);
        let r = trace::span_res(Kind::ServeSubmit, || {
            server.submit_launch(t, l.kernel, l.grid, l.block, args)
        });
        op(tally, "submit_launch", r)?;
        pending.push_back(true);
    }
    let r = trace::span_res(Kind::ServeSubmit, || server.submit_sync(t));
    op(tally, "submit_sync", r)?;
    pending.push_back(false);
    let mut tickets = Vec::with_capacity(s.readbacks.len());
    for &i in &s.readbacks {
        let r = trace::span_res(Kind::ServeSubmit, || server.submit_d2h(t, bufs[i]));
        tickets.push(op(tally, "submit_d2h", r)?);
        pending.push_back(false);
    }
    Ok(Live {
        job: j,
        tenant: t,
        pending,
        tickets,
        start,
        launch_us: Vec::with_capacity(s.launches.len()),
    })
}

/// Collect a drained tenant's read-backs, check it completed every op,
/// and remove it.
fn finish_tenant(
    server: &mut FleetServer,
    s: &Script,
    live: Live,
    tally: &mut Tally,
) -> Result<Job, String> {
    let mut outputs = Vec::with_capacity(live.tickets.len());
    for ticket in &live.tickets {
        let out = trace::span_res(Kind::ServeSubmit, || {
            server.take_output(live.tenant, *ticket)
        })
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("tenant job {}: read-back missing", live.job))?;
        outputs.push(out);
    }
    let latency_s = live.start.elapsed().as_secs_f64();
    let stats = trace::span_res(Kind::ServeSubmit, || server.stats(live.tenant))
        .map_err(|e| e.to_string())?;
    let complete = stats.ops_completed == stats.ops_submitted
        && stats.ops_submitted == s.ops() as u64
        && outputs
            .iter()
            .zip(&s.readbacks)
            .all(|(o, &i)| o.len() == s.bufs[i].0);
    tally.attempted += 1;
    if !complete {
        tally.failed += 1;
        return Err(format!(
            "tenant job {}: {} of {} ops completed",
            live.job, stats.ops_completed, stats.ops_submitted
        ));
    }
    let removed = trace::span_res(Kind::ServeRemove, || server.remove_tenant(live.tenant));
    op(tally, "remove_tenant", removed)?;
    let result = JobResult {
        model_bits: stats.wall_time.to_bits(),
        counters: OpCounters {
            plan_hits: stats.plan_hits,
            plan_misses: stats.plan_misses,
            plan_shared_hits: stats.plan_shared_hits,
            plan_evictions: stats.plan_evictions,
            h2d_bytes: stats.bytes_h2d,
            d2h_bytes: stats.bytes_d2h,
            ..OpCounters::default()
        },
        outputs: 0,
        segments: 0,
        launches: s.launches.len() as u64,
    };
    Ok(Job::new(result, outputs, latency_s, live.launch_us))
}

/// A round of tenant jobs through one fresh fleet, as a closed loop:
/// `clients` callers each register the next job of `order`, queue its
/// ops, wait for its read-back, remove it, and take the next job. The
/// executor steps the live tenants round-robin, one op each per sweep,
/// as `FleetServer::drain` does. Returns the jobs by deck position.
pub fn run_tenants(
    deck: &[Script],
    order: &[usize],
    fleet: &FleetConfig,
    clients: usize,
    tally: &mut Tally,
) -> Result<Vec<Job>, String> {
    let mut server = trace::span(Kind::ServeSubmit, || FleetServer::new(fleet.clone()));
    let mut jobs: Vec<Option<Job>> = vec![None; deck.len()];
    let mut slots: Vec<Option<Live>> = (0..clients).map(|_| None).collect();
    let mut next = order.iter();
    loop {
        for slot in slots.iter_mut().filter(|s| s.is_none()) {
            if let Some(&j) = next.next() {
                *slot = Some(start_tenant(&mut server, deck, j, fleet, tally)?);
            }
        }
        if slots.iter().all(Option::is_none) {
            return collect(jobs);
        }
        for slot in slots.iter_mut() {
            let Some(live) = slot.as_mut() else { continue };
            trace::set_job(live.job as u32);
            let is_launch = live.pending.pop_front().unwrap_or(false);
            let t = Instant::now();
            let stepped = trace::span_res(Kind::ServeStep, || server.step(live.tenant));
            if is_launch {
                live.launch_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            if !op(tally, "step", stepped)? {
                return Err(format!("tenant job {} ran out of ops early", live.job));
            }
            if live.pending.is_empty() {
                let live = slot.take().expect("slot is live");
                let j = live.job;
                jobs[j] = Some(finish_tenant(&mut server, &deck[j], live, tally)?);
            }
        }
    }
}
