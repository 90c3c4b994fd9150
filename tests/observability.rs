//! Metrics are observation-only: enabling or disabling the obs sink must
//! leave training output bitwise identical (ISSUE acceptance criterion, and
//! the DESIGN.md "Metrics stay off the merge path" invariant).
//!
//! The obs registry is process-global, so everything that toggles it lives
//! in one #[test] — Rust runs tests in threads within one process, and two
//! tests flipping the global sink concurrently would race.

use device::GpuType;
use easyscale::{Engine, JobConfig, Placement};
use models::Workload;
use obs::sink::MemorySink;

const STEPS: u64 = 4;

fn config() -> JobConfig {
    JobConfig::new(Workload::ResNet18, 33, 4).with_dataset_len(128)
}

/// Run `STEPS` global steps on `placement`, returning (per-step losses as
/// bits, final params as bits).
fn run_bits(placement: Placement) -> (Vec<Vec<u32>>, Vec<u32>) {
    let mut e = Engine::new(config(), placement);
    let losses =
        (0..STEPS).map(|_| e.step().losses.iter().map(|l| l.to_bits()).collect()).collect();
    let params = e.flat_params().iter().map(|p| p.to_bits()).collect();
    (losses, params)
}

#[test]
fn sink_on_or_off_is_bitwise_invisible_to_training() {
    // Baseline: metrics disabled (the default state).
    obs::disable();
    let placements = [
        Placement::one_est_per_gpu(4, GpuType::V100),
        Placement::homogeneous(4, 2, GpuType::V100),
        Placement::homogeneous(4, 1, GpuType::V100),
    ];
    let disabled: Vec<_> = placements.iter().map(|p| run_bits(p.clone())).collect();

    // Same runs with a live sink recording everything.
    let sink = MemorySink::shared();
    obs::enable(Box::new(sink.clone()));
    obs::reset();
    let enabled: Vec<_> = placements.iter().map(|p| run_bits(p.clone())).collect();
    obs::flush();
    let snaps = obs::snapshot();
    let lines = sink.lines();
    obs::disable();

    // 1) Bitwise-identical losses and parameters, per placement.
    for (i, (off, on)) in disabled.iter().zip(&enabled).enumerate() {
        assert_eq!(off.0, on.0, "losses changed with sink enabled (placement {i})");
        assert_eq!(off.1, on.1, "params changed with sink enabled (placement {i})");
    }
    // 2) And the placements agree with each other (the paper's headline),
    //    metrics on or off.
    for w in enabled.windows(2) {
        assert_eq!(w[0].1, w[1].1, "placement-invariance broke");
    }

    // 3) The instrumented run actually recorded the documented metrics.
    let names: Vec<&str> = snaps.iter().map(|s| s.name()).collect();
    for expected in [
        "engine.global_step",
        "engine.global_step/merge",
        "engine.steps_total",
        "comm.allreduce_calls",
        "comm.allreduce_bytes",
        "comm.bucket_fills",
        "comm.bucket_flushes",
        "worker.local_step_us",
        // The worker's ctx-switch spans run on pool threads, nested in
        // the per-worker step span (docs/PARALLELISM.md, docs/METRICS.md).
        "engine.pool.worker_step",
        "engine.pool.worker_step/worker.ctx_switch_load",
        "engine.pool.worker_step/worker.ctx_switch_save",
        "engine.pool.spawns_total",
        "engine.global_step/engine.drain_wait",
        // The gradient all-reduce runs inline on the engine thread.
        "engine.global_step/merge/comm.allreduce",
    ] {
        assert!(names.contains(&expected), "missing metric {expected}: {names:?}");
    }
    // 3 placements × STEPS steps.
    assert!(lines.iter().any(|l| l.contains("\"metric\":\"engine.steps_total\"")
        && l.contains(&format!("\"value\":{}", 3 * STEPS))));
    // Every line is valid JSON with the fixed fields.
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
        assert!(v.get_field("metric").is_some() && v.get_field("kind").is_some(), "{line}");
    }
}

#[test]
fn checkpoint_and_sim_paths_do_not_require_obs() {
    // With the registry left disabled, the instrumented checkpoint and
    // scheduler paths behave as before (smoke test that the hooks are
    // genuinely optional).
    let mut e = Engine::new(config(), Placement::homogeneous(4, 2, GpuType::V100));
    e.step();
    let ckpt = e.checkpoint();
    assert_eq!(ckpt.global_step, 1);
}
