//! Integration: pinned parameter bits. Every other bitwise test compares two
//! runs of the *same* tree (placement A vs placement B, pool vs single
//! thread, a vectorized kernel vs its in-tree scalar oracle), so a change
//! that moves every run's bits the same way passes them all. This test
//! compares against numbers recorded from an earlier commit: 6 steps of four
//! workload families in a homogeneous D1 setup and a heterogeneous D1+D2
//! setup, reduced to an FNV-1a hash of the final parameter bits.
//!
//! The hashes must be the same in debug and release builds. A schedule-only
//! optimization (interleaving independent accumulation chains) keeps them;
//! a change to any accumulation tree moves them. If a change is *meant* to
//! move the bits, regenerate the table from the failure message and say so
//! in the change description.

use device::GpuType;
use easyscale::store::payload_checksum;
use easyscale::{Determinism, Engine, JobConfig, Placement};
use models::Workload;

const STEPS: usize = 6;

/// `(workload, setup, hash)` recorded before the conv/`matmul_a_bt`
/// schedule rework.
const GOLDEN: [(Workload, &str, u64); 8] = [
    (Workload::ResNet18, "2xV100/D1", 0xc2f907df8ece7afc),
    (Workload::ResNet18, "V100+P100+T4/D1+D2", 0x6c21b4885dc7ea09),
    (Workload::Vgg19, "2xV100/D1", 0x48e48595daa43235),
    (Workload::Vgg19, "V100+P100+T4/D1+D2", 0x62a28f1d2028a6a3),
    (Workload::NeuMF, "2xV100/D1", 0xe84d4db295e3f235),
    (Workload::NeuMF, "V100+P100+T4/D1+D2", 0xb876f997b14f4182),
    (Workload::Bert, "2xV100/D1", 0xf83c6b72dabf187f),
    (Workload::Bert, "V100+P100+T4/D1+D2", 0xf83c6b72dabf187f),
];

fn setup(name: &str) -> (Determinism, Placement) {
    match name {
        "2xV100/D1" => (Determinism::d1(), Placement::homogeneous(4, 2, GpuType::V100)),
        "V100+P100+T4/D1+D2" => (
            Determinism::d1_d2(),
            Placement::heterogeneous(&[(GpuType::V100, 2), (GpuType::P100, 1), (GpuType::T4, 1)]),
        ),
        other => panic!("unknown setup {other}"),
    }
}

fn param_hash(workload: Workload, setup_name: &str) -> u64 {
    let (det, placement) = setup(setup_name);
    let cfg = JobConfig::new(workload, 1234, 4).with_dataset_len(128).with_determinism(det);
    let mut engine = Engine::new(cfg, placement);
    for _ in 0..STEPS {
        engine.step();
    }
    let bytes: Vec<u8> =
        engine.flat_params().iter().flat_map(|p| p.to_bits().to_le_bytes()).collect();
    payload_checksum(&bytes)
}

#[test]
fn parameter_bits_match_the_recorded_hashes() {
    let got: Vec<(Workload, &str, u64)> =
        GOLDEN.iter().map(|&(w, s, _)| (w, s, param_hash(w, s))).collect();
    let table: String = got
        .iter()
        .map(|(w, s, h)| format!("    (Workload::{w:?}, \"{s}\", {h:#018x}),\n"))
        .collect();
    for (&(w, s, want), &(_, _, h)) in GOLDEN.iter().zip(&got) {
        assert_eq!(
            h,
            want,
            "{} under {s}: parameter bits moved after {STEPS} steps; measured table:\n{table}",
            w.name()
        );
    }
}
