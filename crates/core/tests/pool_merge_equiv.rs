//! The Pool merge path is bitwise unchanged by the kernel vectorization.
//!
//! `nthread_eq_single`-style check, one level deeper: the gradients the
//! persistent worker pool produces (drained in canonical order, sorted by
//! virtual rank) go through the engine-thread `ElasticDdp::allreduce_avg`,
//! exactly as `Engine::try_step` runs it, and must reproduce — bit for bit
//! — a from-scratch oracle built on the *scalar* ring kernel, proving the
//! vectorized `ring_allreduce` changed no accumulation tree in the merge.

use comm::{ring_allreduce_scalar, ElasticDdp, RingSpec};
use device::GpuType;
use easyscale::{
    EasyScaleWorker, ExecOptions, JobConfig, Placement, PoolError, WorkerPool, WorkerSnapshot,
};
use models::Workload;

/// Scalar-oracle allreduce-average: per bucket, the element-outer /
/// rank-inner reference kernel; then the single average multiply.
fn scalar_oracle_avg(ddp: &ElasticDdp, grads: &[Vec<f32>]) -> Vec<f32> {
    let views: Vec<&[f32]> = grads.iter().map(|g| g.as_slice()).collect();
    let spec = RingSpec { nranks: grads.len() };
    let mut out = vec![0.0f32; grads[0].len()];
    for bucket in ddp.layout().buckets() {
        ring_allreduce_scalar(&views, &ddp.layout().bucket_positions(bucket), &spec, &mut out);
    }
    let scale = 1.0 / grads.len() as f32;
    for v in &mut out {
        *v *= scale;
    }
    out
}

#[test]
fn pool_gradients_allreduce_to_the_scalar_oracle_bitwise() {
    // Several worker counts: each W spreads the ESTs over a different set of
    // pool threads; every one must land on the same oracle bits.
    let mut first: Option<Vec<u32>> = None;
    for gpus in [1u32, 2, 3, 4] {
        let n_ests = 4u32;
        let cfg = JobConfig::new(Workload::ResNet18, 7, n_ests).with_dataset_len(128);
        let placement = Placement::homogeneous(n_ests, gpus, GpuType::V100);
        let workers: Vec<EasyScaleWorker> =
            placement.slots.iter().map(|s| EasyScaleWorker::new(&cfg, s)).collect();
        let sizes = workers[0].model().param_sizes();
        let mut pool = WorkerPool::spawn(workers, &[], ExecOptions::default().drain);

        let mut no_respawn = |err: &PoolError, _: &WorkerSnapshot| -> Box<EasyScaleWorker> {
            panic!("unexpected recovery in a fault-free round: {err}")
        };
        let (mut locals, errors) = pool.run_steps(0, 0.05, &mut no_respawn);
        assert!(errors.is_empty());
        locals.sort_by_key(|l| l.vrank);
        let grads: Vec<Vec<f32>> = locals.into_iter().map(|l| l.grad).collect();
        let ddp = ElasticDdp::new(&sizes, cfg.n_ests, cfg.bucket_cap_bytes);

        let oracle = scalar_oracle_avg(&ddp, &grads);
        let merged = ddp.allreduce_avg(&grads);
        assert_eq!(merged.len(), oracle.len());
        let bits: Vec<u32> = merged.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            oracle.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "pool merge diverged from the scalar oracle at gpus={gpus}"
        );
        // And the merged gradient does not depend on the worker count.
        assert_eq!(first.get_or_insert_with(|| bits.clone()), &bits, "gpus={gpus}");
    }
}
