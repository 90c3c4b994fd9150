//! The training jobs, placements and trace each workload runs, built from
//! the seed alone.

use crate::Workload;
use device::{ClusterSpec, GpuType};
use easyscale::{JobConfig, Placement};
use trace::TraceConfig;

/// Logical workers (ESTs) of every training job.
pub const N_EST: u32 = 8;
/// Per-EST mini-batch size of every training job.
pub const BATCH: usize = 8;
/// Samples one global step trains.
pub const SAMPLES_PER_STEP: f64 = (N_EST as usize * BATCH) as f64;

/// The training job a workload trains: nEST 8, batch 8, D1 (the default).
pub fn job(w: Workload, seed: u64) -> JobConfig {
    let model = match w {
        Workload::TrainCompute => models::Workload::ResNet18,
        Workload::TrainSync => models::Workload::NeuMF,
    };
    JobConfig::new(model, seed, N_EST).with_batch_size(BATCH)
}

/// Two V100 workers with four ESTs each: where the training workloads run.
pub fn two_v100() -> Placement {
    Placement::homogeneous(N_EST, 2, GpuType::V100)
}

/// The placements the traced run's elastic cycles go through: 4+4 on two
/// V100s, all 8 on one, and an uneven 5/3 split. D1 alone is bitwise only
/// across one GPU type, so all three are V100s.
pub fn rotation() -> [Placement; 3] {
    [
        two_v100(),
        Placement::homogeneous(N_EST, 1, GpuType::V100),
        Placement::heterogeneous(&[(GpuType::V100, 5), (GpuType::V100, 3)]),
    ]
}

/// The job trace the traced run simulates: the default 500-job trace under
/// this seed.
pub fn trace(seed: u64) -> TraceConfig {
    TraceConfig { seed, ..TraceConfig::default() }
}

/// The cluster the trace is simulated on.
pub fn cluster() -> ClusterSpec {
    ClusterSpec::paper_trace_cluster()
}
