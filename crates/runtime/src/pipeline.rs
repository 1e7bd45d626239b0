//! Launch-ahead pipelined scheduling: a dependency DAG across replayed
//! launches.
//!
//! The Figure 4 sequence is fully synchronous — `sync-reads → launch →
//! update-trackers` with a global barrier between the sync and launch
//! phases — so peer-copy latency sits on the critical path of every
//! iteration. But a captured plan already *is* the static dependence
//! structure of one launch: which copies feed which partitions, and which
//! buffers each partition reads and writes. When such a plan replays with
//! [`crate::RuntimeConfig::launch_ahead`] > 0, the runtime records its
//! per-device command segments with **event edges** instead of barriers.
//! The plan executor (`MgpuRuntime::issue`, one for every partitioned
//! launch) makes that choice per issued op — `copy_d2d_pipelined` for
//! `copy_d2d`, event edges for the barrier, `launch_pipelined` for
//! `launch_with_traffic` — and this module holds the window state it
//! consults:
//!
//! * a read-sync copy of buffer `b` from device `s` to device `g` waits
//!   for `b`'s producer launch on `s` (`ready_at[b,s]`, read-after-write)
//!   and for prior readers of `b` on `g` (`read_until[b,g]`,
//!   write-after-read);
//! * a partition launch on `g` waits for the incoming copies of every
//!   buffer it reads (`ready_at[r,g]`) and for in-flight readers of every
//!   buffer it writes (`read_until[w,g]`).
//!
//! Copies are charged to per-device **copy-engine clocks**
//! ([`mekong_gpusim::Machine::copy_d2d_pipelined`]), so iteration *i+1*'s
//! halo exchange streams while iteration *i*'s compute still occupies the
//! SM clocks. There is deliberately **no write-after-write edge between a
//! halo copy and the destination's own partition launch**: the partition
//! invariant guarantees disjointness (a device's kernel writes its own
//! partition; the plan only copies in segments whose freshest copy is
//! remote, i.e. bytes the destination did *not* just write), and the plan
//! was captured against exactly the tracker state the key's signatures
//! pin.
//!
//! **Deferred tracker commit:** trackers (and the plan-cache signatures
//! derived from them) advance at *submit* time, exactly as in the eager
//! path — the tracker models the submitted state of the machine, not the
//! drained state. That keeps plan keys, hit rates and counters identical
//! to `launch_ahead = 0`. The flip side is that any operation observing
//! real bytes or host-side clocks mid-window — D2H/H2D, a freshly
//! resolved launch, a config change, direct machine access — must first flush
//! the window (`MgpuRuntime::pipeline_flush`). One exception is carved
//! out: a D2H gather of a buffer with **no in-flight writer** (no
//! queued halo copy into it, no queued launch writing it — see
//! `Pipeline::writes_in_flight`) skips the flush, so periodic
//! result downloads of a spectator buffer do not stall the window.
//!
//! Functional ordering across streams is handled with the same event
//! tokens the streamed engine already uses: each pipelined copy records
//! itself as an in-flight *reader* of its source instance, and a later
//! kernel writing that buffer on the source device submits a
//! [`mekong_gpusim::stream::StreamOp::WaitEvent`] first, so the copy's
//! snapshot always precedes the overwrite. Waits only ever reference
//! strictly-earlier submissions, so the wait graph stays a DAG.

use crate::vbuf::{MgpuRuntime, VBufId};
use std::collections::{HashMap, VecDeque};

/// Key of one whole-buffer × device dependency slot.
type Slot = (usize, usize);

/// In-flight window state of the launch-ahead scheduler. All times are
/// simulated completion times ([`mekong_gpusim::SimTime`]).
#[derive(Debug, Default)]
pub(crate) struct Pipeline {
    /// Completion time of each in-flight launch, oldest first. The
    /// window is depth-limited: exceeding `launch_ahead` joins the host
    /// clock to the oldest entry (the host blocks, as on a full CUDA
    /// stream).
    in_flight: VecDeque<f64>,
    /// When `(buffer, device)` last became fully valid (producer kernel
    /// or incoming halo copies) — read-after-write edges.
    ready_at: HashMap<Slot, f64>,
    /// Until when `(buffer, device)` is being read (kernel reads, peer
    /// copies sourcing from it) — write-after-read edges.
    read_until: HashMap<Slot, f64>,
    /// In-flight functional readers of `(buffer, source device)`: the
    /// destination device and its stream event token after the copy was
    /// queued. A later kernel writing the buffer on the source device
    /// must cross-stream-wait on these.
    readers: HashMap<Slot, Vec<(usize, u64)>>,
}

impl Pipeline {
    /// Number of in-flight launches.
    pub(crate) fn depth(&self) -> usize {
        self.in_flight.len()
    }

    pub(crate) fn ready_at(&self, vb: VBufId, device: usize) -> f64 {
        self.ready_at
            .get(&(vb.index(), device))
            .copied()
            .unwrap_or(0.0)
    }

    pub(crate) fn read_until(&self, vb: VBufId, device: usize) -> f64 {
        self.read_until
            .get(&(vb.index(), device))
            .copied()
            .unwrap_or(0.0)
    }

    fn raise(map: &mut HashMap<Slot, f64>, slot: Slot, t: f64) {
        let e = map.entry(slot).or_insert(0.0);
        if t > *e {
            *e = t;
        }
    }

    /// Record a completed-at-`end` copy of `vb` from `src` into `dst`.
    pub(crate) fn note_copy(&mut self, vb: VBufId, src: usize, dst: usize, end: f64) {
        Self::raise(&mut self.ready_at, (vb.index(), dst), end);
        Self::raise(&mut self.read_until, (vb.index(), src), end);
    }

    /// Record a kernel on `device` finishing at `end` that read `vb`.
    pub(crate) fn note_kernel_read(&mut self, vb: VBufId, device: usize, end: f64) {
        Self::raise(&mut self.read_until, (vb.index(), device), end);
    }

    /// Record a kernel on `device` finishing at `end` that wrote `vb`.
    pub(crate) fn note_kernel_write(&mut self, vb: VBufId, device: usize, end: f64) {
        Self::raise(&mut self.ready_at, (vb.index(), device), end);
    }

    pub(crate) fn record_reader(&mut self, vb: VBufId, src: usize, dst: usize, token: u64) {
        self.readers
            .entry((vb.index(), src))
            .or_default()
            .push((dst, token));
    }

    pub(crate) fn take_readers(&mut self, vb: VBufId, device: usize) -> Vec<(usize, u64)> {
        self.readers
            .remove(&(vb.index(), device))
            .unwrap_or_default()
    }

    /// True when an in-flight operation may still be writing `vb` on
    /// some device — an incoming halo copy or a partition launch that
    /// writes it. Buffers only *read* inside the window never enter
    /// `ready_at`, so they stay cold. Conservative across retired
    /// launches: entries persist until the next drain.
    pub(crate) fn writes_in_flight(&self, vb: VBufId) -> bool {
        !self.in_flight.is_empty() && self.ready_at.keys().any(|&(b, _)| b == vb.index())
    }

    /// Drop all window state, returning the latest in-flight completion
    /// time (if any) for the caller to join the host clock to.
    fn drain(&mut self) -> Option<f64> {
        let latest = self
            .in_flight
            .iter()
            .copied()
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.max(t)))
            });
        self.in_flight.clear();
        self.ready_at.clear();
        self.read_until.clear();
        self.readers.clear();
        latest
    }
}

impl MgpuRuntime {
    /// Flush the launch-ahead window: the host clock joins the latest
    /// in-flight completion and all event-edge state is dropped. Called
    /// before any operation that observes real bytes or host-side clocks
    /// (D2H/H2D, uncaptured launches, synchronize, config changes,
    /// direct machine access). Cheap no-op when nothing is in flight.
    pub(crate) fn pipeline_flush(&mut self) {
        if let Some(t) = self.pipeline.drain() {
            self.machine.join_host(t);
        }
    }

    /// Current launch-ahead window depth: how many replayed launches
    /// are in flight right now. Read-only — unlike
    /// [`MgpuRuntime::machine_mut`], observing the depth does not flush.
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline.depth()
    }

    /// Admit one launch finishing at `completion` into the launch-ahead
    /// window. A window deeper than `launch_ahead` blocks the host on its
    /// oldest entry, as on a full CUDA stream.
    pub(crate) fn pipeline_admit(&mut self, completion: f64) {
        self.pipeline.in_flight.push_back(completion);
        while self.pipeline.depth() > self.config.launch_ahead as usize {
            if let Some(t) = self.pipeline.in_flight.pop_front() {
                self.machine.join_host(t);
            }
        }
    }
}
