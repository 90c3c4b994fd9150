//! The shadow step rebuilds the engine's global step from each layer's
//! public functions; its per-layer numbers mean something only if it lands
//! on the engine's parameters bit for bit.

use device::GpuType;
use easyscale::{Determinism, Engine, JobConfig, Placement};
use models::Workload;
use perfbench::shadow::Shadow;
use perfbench::spans::Tracer;
use serde_json::Value;

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// Run `n` engine steps and `n` shadow steps from the checkpoint taken
/// after `warm` steps; return the engine's and every replica's params.
fn run_both(config: &JobConfig, placement: &Placement, warm: u64, n: u64) -> (Engine, Shadow) {
    let mut engine = Engine::new(config.clone(), placement.clone());
    engine.run(warm);
    let ckpt = engine.checkpoint();
    let mut shadow = Shadow::from_checkpoint(config, placement, &ckpt).expect("D1 checkpoint");
    let mut tracer = Tracer::new();
    for _ in 0..n {
        engine.step();
        let phases = shadow.step(&mut tracer);
        assert_eq!(phases.local_us.len(), placement.n_workers());
    }
    (engine, shadow)
}

fn assert_same(engine: &Engine, shadow: &Shadow) {
    assert_eq!(engine.global_step(), shadow.global_step());
    for replica in shadow.replica_params() {
        assert_eq!(bits(&replica), bits(&engine.flat_params()), "shadow diverged from the engine");
    }
}

#[test]
fn shadow_matches_the_pool_engine_across_an_epoch_boundary() {
    // 512 samples / 8 ESTs / batch 8 = 8 steps per epoch: steps 2..12 cross
    // into the second epoch's permutation.
    let config = JobConfig::new(Workload::NeuMF, 5, 8);
    let placement = Placement::homogeneous(8, 2, GpuType::V100);
    let (engine, shadow) = run_both(&config, &placement, 2, 10);
    assert_same(&engine, &shadow);
}

#[test]
fn shadow_matches_the_engine_on_the_conv_proxy() {
    let config = JobConfig::new(Workload::ResNet18, 9, 4).with_dataset_len(128);
    let placement = Placement::homogeneous(4, 2, GpuType::V100);
    let (engine, shadow) = run_both(&config, &placement, 1, 3);
    assert_same(&engine, &shadow);
}

#[test]
fn shadow_matches_the_engine_on_mixed_gpu_types() {
    let config = JobConfig::new(Workload::NeuMF, 11, 8).with_determinism(Determinism::d1_d2());
    let placement = Placement::heterogeneous(&[(GpuType::V100, 5), (GpuType::T4, 3)]);
    let (engine, shadow) = run_both(&config, &placement, 1, 4);
    assert_same(&engine, &shadow);
}

#[test]
fn the_comparison_sees_a_single_step_of_difference() {
    let config = JobConfig::new(Workload::NeuMF, 5, 8);
    let placement = Placement::homogeneous(8, 2, GpuType::V100);
    let (mut engine, shadow) = run_both(&config, &placement, 1, 2);
    engine.step();
    assert_ne!(bits(&shadow.replica_params()[0]), bits(&engine.flat_params()));
}

#[test]
fn shadow_needs_a_d1_checkpoint_after_the_first_step() {
    let config = JobConfig::new(Workload::NeuMF, 5, 8);
    let placement = Placement::homogeneous(8, 2, GpuType::V100);
    let mut fresh = Engine::new(config.clone(), placement.clone());
    assert!(Shadow::from_checkpoint(&config, &placement, &fresh.checkpoint()).is_err());

    let d0 = config.with_determinism(Determinism::d0());
    let mut engine = Engine::new(d0.clone(), placement.clone());
    engine.step();
    assert!(Shadow::from_checkpoint(&d0, &placement, &engine.checkpoint()).is_err());
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    match spec.get_field(key) {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|m| m.get_field("name").and_then(Value::as_str).expect("named").to_string())
            .collect(),
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let listed = |consts: &[(&str, &str)]| consts.iter().map(|(n, _)| n.to_string()).collect();
    let e2e: Vec<String> = listed(&perfbench::E2E);
    let per_layer: Vec<String> = listed(&perfbench::PER_LAYER);
    assert_eq!(names(&spec, "end_to_end"), e2e);
    assert_eq!(names(&spec, "per_layer"), per_layer);
    let workloads: Vec<String> =
        perfbench::Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names(&spec, "workloads"), workloads);
}
