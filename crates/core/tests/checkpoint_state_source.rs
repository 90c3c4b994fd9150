//! A pool engine's checkpoint and evaluation read no worker thread: both
//! are built from the engine's param mirror plus each slot's last step
//! snapshot (the state every `Step` publishes back). The single-thread
//! engine reads its workers directly, so it is the reference. This pins the
//! two state sources to the same bits — before any step, after clean steps,
//! and after steps whose faulted pool workers were replaced — through the
//! checksum of the serialized checkpoint, and checks that evaluation agrees
//! bit for bit across pool, single-thread and a restored engine.

use comm::RetryPolicy;
use device::GpuType;
use easyscale::store::payload_checksum;
use easyscale::{Engine, EvalResult, ExecMode, ExecOptions, JobConfig, Placement, ThreadFault};
use models::Workload;

fn config() -> JobConfig {
    JobConfig::new(Workload::ResNet18, 31, 4).with_dataset_len(128)
}

fn placement() -> Placement {
    Placement::homogeneous(4, 2, GpuType::V100)
}

fn engine(mode: ExecMode) -> Engine {
    // A short drain budget (≈ 1.6s) bounds how long the dropped publish
    // below goes unnoticed; a spurious deadline hit under load only costs
    // a bitwise-invisible respawn.
    let drain = RetryPolicy { max_attempts: 6, base_backoff_us: 25_000, backoff_multiplier: 2 };
    Engine::new_opts(config(), placement(), ExecOptions { mode, drain, ..ExecOptions::default() })
}

fn checksum(e: &mut Engine) -> u64 {
    payload_checksum(&serde_json::to_vec(&e.checkpoint()).expect("checkpoint json"))
}

fn eval_bits(r: &EvalResult) -> (u64, Vec<u64>) {
    (r.overall.to_bits(), r.per_class.iter().map(|a| a.to_bits()).collect())
}

#[test]
fn pool_checkpoint_and_evaluation_match_single_thread_bitwise() {
    let mut pool = engine(ExecMode::Pool);
    let mut single = engine(ExecMode::SingleThread);
    assert_eq!(checksum(&mut pool), checksum(&mut single), "before any step");

    for _ in 0..3 {
        pool.step();
        single.step();
    }
    assert_eq!(checksum(&mut pool), checksum(&mut single), "after 3 steps");

    // A panicking worker, then a live one that drops its publish: each is
    // replaced mid-step from the mirror and its pre-step snapshot, and the
    // replacement's post-step snapshot is what the checkpoint reads.
    for (worker, fault, kind) in
        [(0, ThreadFault::Panic, "worker-dead"), (1, ThreadFault::ReplyDrop, "drain-timeout")]
    {
        assert_eq!(pool.inject_thread_fault(worker, fault), Some(worker));
        pool.step();
        single.step();
        let recoveries = pool.take_pool_recoveries();
        assert!(
            recoveries.iter().any(|r| r.worker == worker && r.kind == kind),
            "{fault:?} was not recovered: {recoveries:?}"
        );
        assert_eq!(checksum(&mut pool), checksum(&mut single), "after a recovered {fault:?}");
    }

    let eval = pool.eval_dataset(64);
    let from_pool = eval_bits(&pool.evaluate(eval.as_ref(), 16));
    let from_single = eval_bits(&single.evaluate(eval.as_ref(), 16));
    let restored = Engine::from_checkpoint(
        config(),
        Placement::homogeneous(4, 1, GpuType::V100),
        &pool.checkpoint(),
    );
    let from_restored = eval_bits(&restored.evaluate(eval.as_ref(), 16));
    assert_eq!(from_pool, from_single, "pool vs single-thread evaluation");
    assert_eq!(from_pool, from_restored, "pool vs restored-engine evaluation");
}
