//! Fault guard: a warm pool step does not page-fault its working set back in.
//!
//! Each EST's conv layers take their mini-batch buffers (im2col matrix,
//! its gradient, GEMM partials) from a per-thread scratch list. Allocating
//! and freeing them per step instead lets the allocator trim a pool
//! thread's arena, and the next step faults the pages back in: ~410 minor
//! faults per ResNet18 step on the 2-vCPU host this guard was written on,
//! against ~0 with the scratch list. A single test, so it has the process
//! to itself and `/proc/self/stat` counts only its own faults.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use device::GpuType;
use easyscale::{Engine, JobConfig, Placement};
use models::Workload;

/// The process's minor page-fault count (`minflt`, field 10 of
/// `/proc/self/stat`; fields are counted after the parenthesized name,
/// which may itself contain spaces).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_name = &stat[stat.rfind(')').expect("stat has a (comm) field") + 1..];
    after_name.split_whitespace().nth(7).expect("minflt field").parse().expect("minflt is a number")
}

#[test]
fn warm_pool_steps_take_fewer_than_100_minor_faults_each() {
    const WARM: u64 = 8;
    const MEASURED: u64 = 30;
    let cfg = JobConfig::new(Workload::ResNet18, 1, 8).with_batch_size(8);
    let mut engine = Engine::new(cfg, Placement::homogeneous(8, 2, GpuType::V100));
    engine.run(WARM);
    let before = minor_faults();
    engine.run(MEASURED);
    let per_step = (minor_faults() - before) as f64 / MEASURED as f64;
    eprintln!("minor faults per warm step: {per_step:.1}");
    assert!(per_step < 100.0, "{per_step:.1} minor page faults per warm pool step (limit 100)");
}
