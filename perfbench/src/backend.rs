//! A timing wrapper around the simulated machine, installed through
//! `MgpuRuntime::from_boxed` in the traced run only. Launches, copies and
//! synchronizations become `gpusim` spans; every other method forwards
//! untimed. The wrapper changes no result: it calls the same `Machine`
//! methods with the same arguments.

use mekong_gpusim::{
    Backend, DevBuf, Machine, MachineSpec, ObservedWriteSets, OpCounters, SimArg, SimTime,
    TimeBreakdown, TimeCat,
};
use mekong_kernel::{Dim3, Kernel};

use crate::trace::{self, Kind};

pub struct TimedBackend(pub Machine);

type SimResult<T> = Result<T, mekong_gpusim::SimError>;

fn threads(grid: Dim3, block: Dim3) -> u64 {
    let n = |d: Dim3| u64::from(d.x) * u64::from(d.y) * u64::from(d.z);
    n(grid) * n(block)
}

/// A device launch as a `gpusim.launch` span; functional launches also
/// count their threads.
fn launch_span<T>(
    m: &mut Machine,
    grid: Dim3,
    block: Dim3,
    f: impl FnOnce(&mut Machine) -> SimResult<T>,
) -> SimResult<T> {
    if m.is_functional() {
        trace::add_threads(threads(grid, block));
    }
    trace::span_res(Kind::GpusimLaunch, || f(m))
}

impl Backend for TimedBackend {
    fn spec(&self) -> &MachineSpec {
        self.0.spec()
    }
    fn n_devices(&self) -> usize {
        self.0.n_devices()
    }
    fn is_functional(&self) -> bool {
        self.0.is_functional()
    }
    fn is_streamed(&self) -> bool {
        self.0.is_streamed()
    }
    fn set_streamed(&mut self, on: bool) {
        self.0.set_streamed(on)
    }
    fn set_transfer_timing(&mut self, on: bool) {
        self.0.set_transfer_timing(on)
    }
    fn set_pattern_timing(&mut self, on: bool) {
        self.0.set_pattern_timing(on)
    }
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn breakdown(&self) -> TimeBreakdown {
        self.0.breakdown()
    }
    fn counters(&self) -> OpCounters {
        self.0.counters()
    }
    fn reset_clock(&mut self) {
        self.0.reset_clock()
    }
    fn note_plan_hit(&mut self) {
        self.0.note_plan_hit()
    }
    fn note_plan_miss(&mut self) {
        self.0.note_plan_miss()
    }
    fn note_plan_shared_hit(&mut self) {
        self.0.note_plan_shared_hit()
    }
    fn note_plan_evictions(&mut self, n: u64) {
        self.0.note_plan_evictions(n)
    }
    fn note_tuner_choice(&mut self, encoded: u32, predict_bytes: u64) {
        self.0.note_tuner_choice(encoded, predict_bytes)
    }
    fn note_tuner_measured(&mut self, bytes_per_launch: u64) {
        self.0.note_tuner_measured(bytes_per_launch)
    }
    fn note_check_safe(&mut self) {
        self.0.note_check_safe()
    }
    fn note_check_rejected(&mut self) {
        self.0.note_check_rejected()
    }
    fn note_replica_hits(&mut self, runs: u64, bytes_saved: u64) {
        self.0.note_replica_hits(runs, bytes_saved)
    }
    fn note_replica_invalidations(&mut self, n: u64) {
        self.0.note_replica_invalidations(n)
    }
    fn note_mayread(&mut self, fetch_bytes: u64, overfetch_bytes: u64) {
        self.0.note_mayread(fetch_bytes, overfetch_bytes)
    }
    fn alloc(&mut self, d: usize, bytes: usize) -> SimResult<DevBuf> {
        self.0.alloc(d, bytes)
    }
    fn charge_host(&mut self, seconds: SimTime, cat: TimeCat) {
        self.0.charge_host(seconds, cat)
    }
    fn copy_h2d(
        &mut self,
        src: &[u8],
        dst: DevBuf,
        dst_offset: usize,
        async_: bool,
    ) -> SimResult<()> {
        trace::span_res(Kind::GpusimCopy, || {
            self.0.copy_h2d(src, dst, dst_offset, async_)
        })
    }
    fn copy_d2h(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: &mut [u8],
        async_: bool,
    ) -> SimResult<()> {
        trace::span_res(Kind::GpusimCopy, || {
            self.0.copy_d2h(src, src_offset, dst, async_)
        })
    }
    fn copy_h2d_timed(
        &mut self,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
        async_: bool,
    ) -> SimResult<()> {
        trace::span_res(Kind::GpusimCopy, || {
            self.0.copy_h2d_timed(dst, dst_offset, len, async_)
        })
    }
    fn copy_d2h_timed(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        len: usize,
        async_: bool,
    ) -> SimResult<()> {
        trace::span_res(Kind::GpusimCopy, || {
            self.0.copy_d2h_timed(src, src_offset, len, async_)
        })
    }
    fn copy_d2d(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
    ) -> SimResult<()> {
        trace::span_res(Kind::GpusimCopy, || {
            self.0.copy_d2d(src, src_offset, dst, dst_offset, len)
        })
    }
    fn copy_d2d_pipelined(
        &mut self,
        src: DevBuf,
        src_offset: usize,
        dst: DevBuf,
        dst_offset: usize,
        len: usize,
        deps: &[SimTime],
    ) -> SimResult<SimTime> {
        trace::span_res(Kind::GpusimCopy, || {
            self.0
                .copy_d2d_pipelined(src, src_offset, dst, dst_offset, len, deps)
        })
    }
    fn copy_d2d_strided(
        &mut self,
        src: DevBuf,
        dst: DevBuf,
        offset: usize,
        run: usize,
        stride: usize,
        count: usize,
    ) -> SimResult<()> {
        trace::span_res(Kind::GpusimCopy, || {
            self.0
                .copy_d2d_strided(src, dst, offset, run, stride, count)
        })
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
    ) -> SimResult<SimTime> {
        trace::span_res(Kind::GpusimCopy, || {
            self.0
                .copy_d2d_strided_pipelined(src, dst, offset, run, stride, count, deps)
        })
    }
    fn launch(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
    ) -> SimResult<()> {
        launch_span(&mut self.0, grid_dim, block_dim, |m| {
            m.launch(d, kernel, args, grid_dim, block_dim)
        })
    }
    fn launch_with_traffic(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
        traffic: Option<u64>,
    ) -> SimResult<()> {
        launch_span(&mut self.0, grid_dim, block_dim, |m| {
            m.launch_with_traffic(d, kernel, args, grid_dim, block_dim, traffic)
        })
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
    ) -> SimResult<SimTime> {
        launch_span(&mut self.0, grid_dim, block_dim, |m| {
            m.launch_pipelined(d, kernel, args, grid_dim, block_dim, traffic, deps)
        })
    }
    fn launch_recording(
        &mut self,
        d: usize,
        kernel: &Kernel,
        args: &[SimArg],
        grid_dim: Dim3,
        block_dim: Dim3,
    ) -> SimResult<ObservedWriteSets> {
        launch_span(&mut self.0, grid_dim, block_dim, |m| {
            m.launch_recording(d, kernel, args, grid_dim, block_dim)
        })
    }
    fn sync_device(&mut self, d: usize) -> SimResult<()> {
        trace::span_res(Kind::GpusimSync, || self.0.sync_device(d))
    }
    fn sync_all(&mut self) {
        trace::span(Kind::GpusimSync, || self.0.sync_all())
    }
    fn try_sync_all(&mut self) -> SimResult<()> {
        trace::span_res(Kind::GpusimSync, || self.0.try_sync_all())
    }
    fn join_host(&mut self, t: SimTime) {
        self.0.join_host(t)
    }
    fn stream_mark(&self, d: usize) -> u64 {
        self.0.stream_mark(d)
    }
    fn stream_wait_cross(&mut self, waiter: usize, source: usize, event: u64) {
        self.0.stream_wait_cross(waiter, source, event)
    }
    fn debug_read(&self, buf: DevBuf) -> Option<Vec<u8>> {
        self.0.debug_read(buf)
    }
    fn debug_write(&mut self, buf: DevBuf, data: &[u8]) {
        self.0.debug_write(buf, data)
    }
}
