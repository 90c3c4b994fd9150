//! Whole-engine benchmarks: global-step time across placements — the
//! wall-clock claim behind Fig 10's "EasyScale throughput is flat in the
//! EST count" (per logical worker), across GPU counts and workload
//! families on the default (pool) backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use device::GpuType;
use easyscale::{Engine, JobConfig, Placement};
use models::Workload;
use std::hint::black_box;

fn engine(n_ests: u32, n_gpus: u32) -> Engine {
    let cfg = JobConfig::new(Workload::ResNet18, 7, n_ests).with_dataset_len(4096);
    Engine::new(cfg, Placement::homogeneous(n_ests, n_gpus, GpuType::V100))
}

fn bench_placements(c: &mut Criterion) {
    let mut g = c.benchmark_group("global_step_4_ests");
    g.sample_size(20);
    for gpus in [1u32, 2, 4] {
        let mut e = engine(4, gpus);
        e.step(); // warm
        g.bench_with_input(BenchmarkId::new("gpus", gpus), &gpus, |b, _| {
            b.iter(|| black_box(e.step()))
        });
    }
    g.finish();
}

fn bench_est_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("global_step_one_gpu");
    g.sample_size(15);
    for ests in [1u32, 4, 8] {
        let mut e = engine(ests, 1);
        e.step();
        g.bench_with_input(BenchmarkId::new("ests", ests), &ests, |b, _| {
            b.iter(|| black_box(e.step()))
        });
    }
    g.finish();
}

fn bench_workload_families(c: &mut Criterion) {
    let mut g = c.benchmark_group("global_step_by_family");
    g.sample_size(15);
    for w in [Workload::ResNet18, Workload::NeuMF, Workload::Bert] {
        let cfg = JobConfig::new(w, 7, 4).with_dataset_len(4096);
        let mut e = Engine::new(cfg, Placement::homogeneous(4, 2, GpuType::V100));
        e.step();
        g.bench_function(w.name(), |b| b.iter(|| black_box(e.step())));
    }
    g.finish();
}

criterion_group!(benches, bench_placements, bench_est_scaling, bench_workload_families);
criterion_main!(benches);
