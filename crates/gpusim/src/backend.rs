//! The machine-level executor abstraction.
//!
//! `Backend` is the op surface the partitioning runtime drives:
//! allocation, host↔device and peer copies (plain, strided, pipelined),
//! kernel launches (eager, pipelined, recording), stream events,
//! per-device clocks and the shared operation counters. Everything the
//! runtime does above this line — trackers, validity sets, plan
//! capture/replay, the tuner — is backend-agnostic: a "device" is any
//! unit that owns memory and executes a grid range.
//!
//! [`crate::Machine`] (alias [`SimMachine`]) is the one implementation:
//! the simulated machine, with async command streams and the
//! PCIe/NVLink timing model. Its device slots are sim-GPU dies, host CPU
//! sockets ([`crate::spec::MachineSpec::cpu_system`]) or a mix of both
//! ([`crate::spec::MachineSpec::hybrid_system`]); each copy is priced by
//! its endpoints' classes, so host↔host "transfers" are memcpys with no
//! PCIe hop. The trait stays the seam for instrumented wrappers (a
//! tracing backend, a call recorder in tests) around a `Machine`.

use crate::machine::{DevBuf, OpCounters, SimArg, SimTime, TimeBreakdown, TimeCat};
use crate::spec::MachineSpec;
use crate::Result;
use mekong_kernel::{Dim3, Kernel};
use std::collections::HashMap;

/// Element ranges observed per buffer handle by a recording launch.
pub type ObservedWriteSets = HashMap<usize, Vec<(u64, u64)>>;

/// A machine-level executor: device memories, copies, launches, clocks.
///
/// Object-safe — the runtime holds a `Box<dyn Backend>` and dispatches
/// every copy and launch through it, eager and launch-ahead alike.
pub trait Backend {
    /// The machine specification (devices, links, host-cost constants).
    fn spec(&self) -> &MachineSpec;
    /// Number of devices.
    fn n_devices(&self) -> usize;
    /// Does this backend materialize bytes (vs. timing-only)?
    fn is_functional(&self) -> bool;

    /// Streamed (deferred-effect) execution, if the backend has it.
    fn is_streamed(&self) -> bool;
    /// Enable/disable streamed execution (no-op without streams).
    fn set_streamed(&mut self, on: bool);
    /// β configuration: charge (or zero) transfer time.
    fn set_transfer_timing(&mut self, on: bool);
    /// γ configuration: charge (or zero) pattern time.
    fn set_pattern_timing(&mut self, on: bool);

    /// Current host clock.
    fn now(&self) -> SimTime;
    /// Informational time breakdown.
    fn breakdown(&self) -> TimeBreakdown;
    /// Operation counters.
    fn counters(&self) -> OpCounters;
    /// Reset clocks, breakdown and counters (memory contents stay).
    fn reset_clock(&mut self);

    // Runtime-reported statistics (see the [`OpCounters`] fields).
    fn note_plan_hit(&mut self);
    fn note_plan_miss(&mut self);
    fn note_plan_shared_hit(&mut self);
    fn note_plan_evictions(&mut self, n: u64);
    fn note_tuner_choice(&mut self, encoded: u32, predict_bytes: u64);
    fn note_tuner_measured(&mut self, bytes_per_launch: u64);
    fn note_check_safe(&mut self);
    fn note_check_rejected(&mut self);
    fn note_replica_hits(&mut self, runs: u64, bytes_saved: u64);
    fn note_replica_invalidations(&mut self, n: u64);
    fn note_mayread(&mut self, fetch_bytes: u64, overfetch_bytes: u64);

    /// Allocate `bytes` on device `d`.
    fn alloc(&mut self, d: usize, bytes: usize) -> Result<DevBuf>;
    /// Charge host-side work (advances the host clock; devices keep
    /// running).
    fn charge_host(&mut self, seconds: SimTime, cat: TimeCat);

    /// Host → device copy. Synchronous unless `async_`.
    fn copy_h2d(&mut self, src: &[u8], dst: DevBuf, dst_offset: usize, async_: bool) -> Result<()>;
    /// Device → host copy. Synchronous unless `async_`.
    fn copy_d2h(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: &mut [u8],
        async_: bool,
    ) -> Result<()>;
    /// Host → device copy without host data (timing + counters only).
    fn copy_h2d_timed(
        &mut self,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
        async_: bool,
    ) -> Result<()>;
    /// Device → host copy without a host destination (timing + counters).
    fn copy_d2h_timed(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        len: usize,
        async_: bool,
    ) -> Result<()>;

    /// Peer copy (asynchronous; compute-clock charged).
    fn copy_d2d(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
    ) -> Result<()>;
    /// Pipelined peer copy on the copy-engine clocks with event-edge
    /// dependencies; returns the completion time.
    fn copy_d2d_pipelined(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
        deps: &[SimTime],
    ) -> Result<SimTime>;
    /// Strided (rectangular) peer copy as one DMA transaction.
    fn copy_d2d_strided(
        &mut self,
        src: DevBuf,
        dst: DevBuf,
        offset: usize,
        run: usize,
        stride: usize,
        count: usize,
    ) -> Result<()>;
    /// Pipelined strided peer copy; returns the completion time.
    #[allow(clippy::too_many_arguments)]
    fn copy_d2d_strided_pipelined(
        &mut self,
        src: DevBuf,
        dst: DevBuf,
        offset: usize,
        run: usize,
        stride: usize,
        count: usize,
        deps: &[SimTime],
    ) -> Result<SimTime>;

    /// Launch a kernel asynchronously on device `d`.
    fn launch(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
    ) -> Result<()>;
    /// Launch with an explicit memory-traffic estimate (the partition's
    /// polyhedral footprint) feeding the roofline's bandwidth term.
    fn launch_with_traffic(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
        traffic: Option<u64>,
    ) -> Result<()>;
    /// Pipelined launch with event-edge dependencies; returns the
    /// completion time.
    #[allow(clippy::too_many_arguments)]
    fn launch_pipelined(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
        traffic: Option<u64>,
        deps: &[SimTime],
    ) -> Result<SimTime>;
    /// Launch recording the observed write set per buffer (functional
    /// backends only; instrumentation-penalized).
    fn launch_recording(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
    ) -> Result<ObservedWriteSets>;

    /// Block host until device `d` is idle.
    fn sync_device(&mut self, d: usize) -> Result<()>;
    /// Block host until all devices are idle; panics on deferred errors.
    fn sync_all(&mut self);
    /// [`Backend::sync_all`] surfacing deferred stream errors.
    fn try_sync_all(&mut self) -> Result<()>;
    /// Advance the host clock to `t` (no-op when already past).
    fn join_host(&mut self, t: SimTime);

    /// Current event token of device `d`'s stream (0 without streams).
    fn stream_mark(&self, d: usize) -> u64;
    /// Queue a cross-stream event wait (no-op without streams).
    fn stream_wait_cross(&mut self, waiter: usize, source: usize, event: u64);

    /// Read back a whole device buffer (functional backends only; test
    /// helper that bypasses the clock).
    fn debug_read(&self, buf: DevBuf) -> Option<Vec<u8>>;
    /// Write a whole device buffer directly (functional test helper).
    fn debug_write(&mut self, buf: DevBuf, data: &[u8]);
}

/// The simulated multi-GPU machine is the canonical backend.
pub type SimMachine = crate::Machine;

impl Backend for crate::Machine {
    fn spec(&self) -> &MachineSpec {
        crate::Machine::spec(self)
    }
    fn n_devices(&self) -> usize {
        crate::Machine::n_devices(self)
    }
    fn is_functional(&self) -> bool {
        crate::Machine::is_functional(self)
    }
    fn is_streamed(&self) -> bool {
        crate::Machine::is_streamed(self)
    }
    fn set_streamed(&mut self, on: bool) {
        crate::Machine::set_streamed(self, on)
    }
    fn set_transfer_timing(&mut self, on: bool) {
        crate::Machine::set_transfer_timing(self, on)
    }
    fn set_pattern_timing(&mut self, on: bool) {
        crate::Machine::set_pattern_timing(self, on)
    }
    fn now(&self) -> SimTime {
        crate::Machine::now(self)
    }
    fn breakdown(&self) -> TimeBreakdown {
        crate::Machine::breakdown(self)
    }
    fn counters(&self) -> OpCounters {
        crate::Machine::counters(self)
    }
    fn reset_clock(&mut self) {
        crate::Machine::reset_clock(self)
    }
    fn note_plan_hit(&mut self) {
        crate::Machine::note_plan_hit(self)
    }
    fn note_plan_miss(&mut self) {
        crate::Machine::note_plan_miss(self)
    }
    fn note_plan_shared_hit(&mut self) {
        crate::Machine::note_plan_shared_hit(self)
    }
    fn note_plan_evictions(&mut self, n: u64) {
        crate::Machine::note_plan_evictions(self, n)
    }
    fn note_tuner_choice(&mut self, encoded: u32, predict_bytes: u64) {
        crate::Machine::note_tuner_choice(self, encoded, predict_bytes)
    }
    fn note_tuner_measured(&mut self, bytes_per_launch: u64) {
        crate::Machine::note_tuner_measured(self, bytes_per_launch)
    }
    fn note_check_safe(&mut self) {
        crate::Machine::note_check_safe(self)
    }
    fn note_check_rejected(&mut self) {
        crate::Machine::note_check_rejected(self)
    }
    fn note_replica_hits(&mut self, runs: u64, bytes_saved: u64) {
        crate::Machine::note_replica_hits(self, runs, bytes_saved)
    }
    fn note_replica_invalidations(&mut self, n: u64) {
        crate::Machine::note_replica_invalidations(self, n)
    }
    fn note_mayread(&mut self, fetch_bytes: u64, overfetch_bytes: u64) {
        crate::Machine::note_mayread(self, fetch_bytes, overfetch_bytes)
    }
    fn alloc(&mut self, d: usize, bytes: usize) -> Result<DevBuf> {
        crate::Machine::alloc(self, d, bytes)
    }
    fn charge_host(&mut self, seconds: SimTime, cat: TimeCat) {
        crate::Machine::charge_host(self, seconds, cat)
    }
    fn copy_h2d(&mut self, src: &[u8], dst: DevBuf, dst_offset: usize, async_: bool) -> Result<()> {
        crate::Machine::copy_h2d(self, src, dst, dst_offset, async_)
    }
    fn copy_d2h(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: &mut [u8],
        async_: bool,
    ) -> Result<()> {
        crate::Machine::copy_d2h(self, src, src_offset, dst, async_)
    }
    fn copy_h2d_timed(
        &mut self,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
        async_: bool,
    ) -> Result<()> {
        crate::Machine::copy_h2d_timed(self, dst, dst_offset, len, async_)
    }
    fn copy_d2h_timed(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        len: usize,
        async_: bool,
    ) -> Result<()> {
        crate::Machine::copy_d2h_timed(self, src, src_offset, len, async_)
    }
    fn copy_d2d(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
    ) -> Result<()> {
        crate::Machine::copy_d2d(self, src, src_offset, dst, dst_offset, len)
    }
    fn copy_d2d_pipelined(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
        deps: &[SimTime],
    ) -> Result<SimTime> {
        crate::Machine::copy_d2d_pipelined(self, src, src_offset, dst, dst_offset, len, deps)
    }
    fn copy_d2d_strided(
        &mut self,
        src: DevBuf,
        dst: DevBuf,
        offset: usize,
        run: usize,
        stride: usize,
        count: usize,
    ) -> Result<()> {
        crate::Machine::copy_d2d_strided(self, src, dst, offset, run, stride, count)
    }
    fn copy_d2d_strided_pipelined(
        &mut self,
        src: DevBuf,
        dst: DevBuf,
        offset: usize,
        run: usize,
        stride: usize,
        count: usize,
        deps: &[SimTime],
    ) -> Result<SimTime> {
        crate::Machine::copy_d2d_strided_pipelined(self, src, dst, offset, run, stride, count, deps)
    }
    fn launch(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
    ) -> Result<()> {
        crate::Machine::launch(self, d, kernel, args, grid_dim, block_dim)
    }
    fn launch_with_traffic(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
        traffic: Option<u64>,
    ) -> Result<()> {
        crate::Machine::launch_with_traffic(self, d, kernel, args, grid_dim, block_dim, traffic)
    }
    fn launch_pipelined(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
        traffic: Option<u64>,
        deps: &[SimTime],
    ) -> Result<SimTime> {
        crate::Machine::launch_pipelined(self, d, kernel, args, grid_dim, block_dim, traffic, deps)
    }
    fn launch_recording(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
    ) -> Result<ObservedWriteSets> {
        crate::Machine::launch_recording(self, d, kernel, args, grid_dim, block_dim)
    }
    fn sync_device(&mut self, d: usize) -> Result<()> {
        crate::Machine::sync_device(self, d)
    }
    fn sync_all(&mut self) {
        crate::Machine::sync_all(self)
    }
    fn try_sync_all(&mut self) -> Result<()> {
        crate::Machine::try_sync_all(self)
    }
    fn join_host(&mut self, t: SimTime) {
        crate::Machine::join_host(self, t)
    }
    fn stream_mark(&self, d: usize) -> u64 {
        crate::Machine::stream_mark(self, d)
    }
    fn stream_wait_cross(&mut self, waiter: usize, source: usize, event: u64) {
        crate::Machine::stream_wait_cross(self, waiter, source, event)
    }
    fn debug_read(&self, buf: DevBuf) -> Option<Vec<u8>> {
        crate::Machine::debug_read(self, buf)
    }
    fn debug_write(&mut self, buf: DevBuf, data: &[u8]) {
        crate::Machine::debug_write(self, buf, data)
    }
}
