//! Span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer's public
//! functions, from the benchmark's own code. A span's self time is its
//! duration minus the durations of the spans it encloses; self times are
//! folded into per-kind totals as spans close, so memory stays bounded
//! however long the run. The first `RAW_CAP` spans are also kept whole
//! (name, start, end, parent, job) and written out when the run ends.
//!
//! When tracing is off every entry point is a thread-local flag test.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// What a span covers. Each kind belongs to one layer of the program,
/// except `Bench`, which marks the benchmark's own glue inside a traced
/// pass (input cloning, output capture) so it can be told apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FrontendParse,
    AnalysisAnalyze,
    EnumgenBuild,
    CheckSafeAxes,
    PartitionTransform,
    RewriterRewrite,
    CoreCompile,
    CoreModelJson,
    TunerRank,
    TunerFirstLaunch,
    RuntimeReplay,
    RuntimeResolve,
    RuntimeMemcpy,
    RuntimeSync,
    RuntimeOther,
    GpusimLaunch,
    GpusimCopy,
    GpusimSync,
    ServeRegister,
    ServeStep,
    ServeRemove,
    ServeSubmit,
    Bench,
}

pub const KINDS: [Kind; 23] = [
    Kind::FrontendParse,
    Kind::AnalysisAnalyze,
    Kind::EnumgenBuild,
    Kind::CheckSafeAxes,
    Kind::PartitionTransform,
    Kind::RewriterRewrite,
    Kind::CoreCompile,
    Kind::CoreModelJson,
    Kind::TunerRank,
    Kind::TunerFirstLaunch,
    Kind::RuntimeReplay,
    Kind::RuntimeResolve,
    Kind::RuntimeMemcpy,
    Kind::RuntimeSync,
    Kind::RuntimeOther,
    Kind::GpusimLaunch,
    Kind::GpusimCopy,
    Kind::GpusimSync,
    Kind::ServeRegister,
    Kind::ServeStep,
    Kind::ServeRemove,
    Kind::ServeSubmit,
    Kind::Bench,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::FrontendParse => "frontend.parse",
            Kind::AnalysisAnalyze => "analysis.analyze",
            Kind::EnumgenBuild => "enumgen.build",
            Kind::CheckSafeAxes => "check.safe_axes",
            Kind::PartitionTransform => "partition.transform",
            Kind::RewriterRewrite => "rewriter.rewrite",
            Kind::CoreCompile => "core.compile",
            Kind::CoreModelJson => "core.model_json",
            Kind::TunerRank => "tuner.rank",
            Kind::TunerFirstLaunch => "tuner.first_launch",
            Kind::RuntimeReplay => "runtime.launch_replay",
            Kind::RuntimeResolve => "runtime.launch_resolve",
            Kind::RuntimeMemcpy => "runtime.memcpy",
            Kind::RuntimeSync => "runtime.sync",
            Kind::RuntimeOther => "runtime.other",
            Kind::GpusimLaunch => "gpusim.launch",
            Kind::GpusimCopy => "gpusim.copy",
            Kind::GpusimSync => "gpusim.sync",
            Kind::ServeRegister => "serve.register",
            Kind::ServeStep => "serve.step",
            Kind::ServeRemove => "serve.remove",
            Kind::ServeSubmit => "serve.submit",
            Kind::Bench => "bench",
        }
    }

    /// The layer (crate) the span's self time is charged to.
    pub fn layer(self) -> &'static str {
        self.name().split('.').next().unwrap_or("bench")
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The layers errors are counted for, in report order.
pub const LAYERS: [&str; 11] = [
    "frontend",
    "analysis",
    "enumgen",
    "check",
    "partition",
    "rewriter",
    "core",
    "tuner",
    "runtime",
    "gpusim",
    "serve",
];

/// Span totals of one phase of the run.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub self_ns: [u64; KINDS.len()],
    pub calls: [u64; KINDS.len()],
    pub errors: [u64; LAYERS.len()],
    /// Σ grid × block over device launches seen by the timed backend.
    pub threads: u64,
    /// Time spent in spans marked as attribution probes (duplicate calls
    /// made only to split an opaque call's time, see `probe`).
    pub probe_ns: u64,
}

impl Totals {
    pub fn self_s(&self, k: Kind) -> f64 {
        self.self_ns[k.index()] as f64 * 1e-9
    }
    pub fn calls(&self, k: Kind) -> u64 {
        self.calls[k.index()]
    }
    pub fn errors(&self, layer: &str) -> u64 {
        LAYERS
            .iter()
            .position(|l| *l == layer)
            .map_or(0, |i| self.errors[i])
    }
}

/// One whole span as written to the trace file.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    id: u32,
    parent: u32,
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    job: u32,
}

struct Open {
    id: u32,
    start: Instant,
    child_ns: u64,
}

const RAW_CAP: usize = 200_000;

struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u32,
    job: u32,
    probe_depth: u32,
    phase: usize,
    totals: [Totals; 2],
    raw: Vec<RawSpan>,
    spans_total: u64,
}

/// Phases spans are accumulated under.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    Setup = 0,
    Timed = 1,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Start recording; discards anything recorded before.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            stack: Vec::new(),
            next_id: 1,
            job: 0,
            probe_depth: 0,
            phase: Phase::Setup as usize,
            totals: Default::default(),
            raw: Vec::new(),
            spans_total: 0,
        })
    });
    ON.with(|on| on.set(true));
}

fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    TRACER.with(|t| t.borrow_mut().as_mut().map(f))
}

pub fn set_phase(p: Phase) {
    with(|t| t.phase = p as usize);
}

/// Tag the spans opened from now on with a job id (tenants: one per job).
pub fn set_job(job: u32) {
    with(|t| t.job = job);
}

pub fn add_threads(n: u64) {
    with(|t| t.totals[t.phase].threads += n);
}

/// Count an `Err` returned at a call into `layer`.
pub fn error(layer: &str) {
    with(|t| {
        if let Some(i) = LAYERS.iter().position(|l| *l == layer) {
            t.totals[t.phase].errors[i] += 1;
        }
    });
}

/// Open a span; its kind is given when it closes ([`exit_as`]).
pub fn enter() {
    with(|t| {
        let id = t.next_id;
        t.next_id = t.next_id.wrapping_add(1);
        t.stack.push(Open {
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    });
}

/// Close the innermost span, charging its self time to `kind`. (A launch
/// is classified as a replay or a resolve only once it returns.)
pub fn exit_as(kind: Kind) {
    with(|t| {
        let end = Instant::now();
        let open = t.stack.pop().expect("span stack underflow");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let self_ns = dur.saturating_sub(open.child_ns);
        let parent = match t.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let phase = t.phase;
        let tot = &mut t.totals[phase];
        tot.self_ns[kind.index()] += self_ns;
        tot.calls[kind.index()] += 1;
        if t.probe_depth > 0 {
            tot.probe_ns += self_ns;
        }
        t.spans_total += 1;
        if t.raw.len() < RAW_CAP {
            let start_ns = open.start.duration_since(t.epoch).as_nanos() as u64;
            t.raw.push(RawSpan {
                id: open.id,
                parent,
                kind,
                start_ns,
                end_ns: start_ns + dur,
                job: t.job,
            });
        }
    });
}

/// Run `f` inside a span of `kind`.
pub fn span<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    enter();
    let r = f();
    exit_as(kind);
    r
}

/// [`span`] for a call returning `Result`: an `Err` counts against the
/// span's layer.
pub fn span_res<T, E>(kind: Kind, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    let r = span(kind, f);
    if r.is_err() {
        error(kind.layer());
    }
    r
}

/// Run `f` as an attribution probe: a duplicate of work that an opaque
/// call (for example `FleetServer::register_tenant`) does internally,
/// made only so the traced run can split that call's time by layer. Its
/// spans count like any other, and their total is also kept apart so
/// the probe time can be taken out of the traced wall time.
pub fn probe<T>(f: impl FnOnce() -> T) -> T {
    with(|t| t.probe_depth += 1);
    let r = f();
    with(|t| t.probe_depth -= 1);
    r
}

/// Stop recording and return the per-phase totals.
pub fn finish(dump: Option<&std::path::Path>) -> std::io::Result<([Totals; 2], u64)> {
    ON.with(|on| on.set(false));
    let t = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("trace::finish without trace::start");
    debug_assert!(t.stack.is_empty(), "unclosed spans at end of trace");
    if let Some(path) = dump {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,start_ns,end_ns,job")?;
        for s in &t.raw {
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.id,
                s.parent,
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.job
            )?;
        }
        w.flush()?;
    }
    Ok((t.totals, t.spans_total))
}
