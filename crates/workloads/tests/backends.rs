//! Cross-device-class differential tests: every workload, run through
//! the identical runtime op sequence, must produce *byte-identical*
//! output on a pure sim-GPU machine, on a machine of host CPU sockets,
//! and on a mixed CPU+GPU machine — every device class executes kernels
//! through the same block-parallel interpreter, so any byte of
//! divergence is a machine bug, not numerics. The CPU reference stays the semantic
//! anchor via each workload's `verify` tolerance.

use mekong_gpusim::{Machine, MachineSpec};
use mekong_workloads::{benchmarks, extra_benchmarks, Benchmark};
use proptest::prelude::*;

fn all_workloads() -> Vec<Box<dyn Benchmark>> {
    let mut v = benchmarks();
    v.extend(extra_benchmarks());
    v
}

/// The three machines under test for a `(gpus, cpus)` shape.
fn gpu_bytes(b: &dyn Benchmark, gpus: usize) -> Vec<u8> {
    b.verify_output(Box::new(Machine::new(
        MachineSpec::kepler_system(gpus),
        true,
    )))
}

fn cpu_bytes(b: &dyn Benchmark, sockets: usize) -> Vec<u8> {
    b.verify_output(Box::new(Machine::new(
        MachineSpec::cpu_system(sockets),
        true,
    )))
}

fn mixed_bytes(b: &dyn Benchmark, gpus: usize, cpus: usize) -> Vec<u8> {
    b.verify_output(Box::new(Machine::new(
        MachineSpec::hybrid_system(gpus, cpus),
        true,
    )))
}

/// The acceptance shape: all six workloads byte-identical on
/// CPU-only, sim-GPU-only and mixed 1 CPU + 2 GPUs.
#[test]
fn all_workloads_agree_across_backends() {
    for b in all_workloads() {
        let gpu = gpu_bytes(b.as_ref(), 3);
        let cpu = cpu_bytes(b.as_ref(), 3);
        let mixed = mixed_bytes(b.as_ref(), 2, 1);
        assert_eq!(
            gpu,
            cpu,
            "{}: CPU-only machine diverged from sim-GPU",
            b.name()
        );
        assert_eq!(gpu, mixed, "{}: mixed machine diverged", b.name());
        // And the shared bytes match the CPU reference (workload-specific
        // tolerance via verify).
        assert!(b.verify(3), "{}: reference check failed", b.name());
    }
}

proptest! {
    // Each case runs one workload on three backends; keep the case count
    // small so the suite stays fast while still varying the shapes.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Differential fuzz over device shapes: the partition lattice (and
    /// hence copy schedule) changes with every shape, the bytes must not.
    #[test]
    fn backend_outputs_are_byte_identical(
        which in 0usize..6,
        gpus in 1usize..=4,
        cpus in 1usize..=2,
    ) {
        let workloads = all_workloads();
        let b = workloads[which].as_ref();
        let gpu = gpu_bytes(b, gpus);
        prop_assert_eq!(
            &gpu,
            &cpu_bytes(b, gpus),
            "{}: cpu_system({}) diverged", b.name(), gpus
        );
        prop_assert_eq!(
            &gpu,
            &mixed_bytes(b, gpus, cpus),
            "{}: hybrid({}, {}) diverged", b.name(), gpus, cpus
        );
    }
}
