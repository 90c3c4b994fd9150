//! The EasyScale worker: one process, one GPU, one CUDA context — hosting
//! any number of ESTs in the time-slicing manner of Figure 6.
//!
//! A worker owns exactly one model/optimizer-state replica (shared by all of
//! its ESTs, since parameters only change at global-step boundaries), one
//! shared data-worker pool, and the contexts of the ESTs currently assigned
//! to it. `run_local_steps` executes each EST for one mini-batch, context-
//! switching between them: swap in the EST's RNG position and BatchNorm
//! stats, run forward/backward, swap the produced gradient out ("to CPU"),
//! and capture the updated context.

use crate::est::EstContext;
use crate::placement::Slot;
use crate::pool::WorkerSnapshot;
use crate::JobConfig;
use data::{
    AugmentConfig, Augmenter, DataWorkerPool, Dataset, LoaderCheckpoint, ShardedLoader,
    SyntheticImageDataset, SyntheticSequenceDataset,
};
use device::GpuType;
use models::model::ExecCtx;
use models::zoo::{self, build_proxy, InputKind};
use models::Model;
use std::sync::Arc;
use tensor::ops::{cross_entropy, softmax_rows};
use tensor::{Autotuner, KernelProfile, Tensor};

/// Result of one EST's local step.
#[derive(Debug, Clone)]
pub struct LocalStep {
    /// The EST's virtual rank.
    pub vrank: u32,
    /// Flat gradient (reverse-topological order) — the buffer that would be
    /// asynchronously copied to host during the context switch.
    pub grad: Vec<f32>,
    /// Training loss of the mini-batch.
    pub loss: f32,
}

/// Build the training dataset a workload proxy consumes.
pub fn make_dataset(config: &JobConfig) -> Arc<dyn Dataset> {
    match zoo::input_kind(config.workload) {
        InputKind::Image => {
            Arc::new(SyntheticImageDataset::cifar_like(config.seed, config.dataset_len))
        }
        InputKind::Sequence => Arc::new(SyntheticSequenceDataset::new(
            config.seed,
            config.dataset_len,
            zoo::SEQ_LEN,
            zoo::VOCAB as u32,
            zoo::NUM_CLASSES as u32,
        )),
    }
}

/// Build the matching held-out evaluation split: same task (same seed and
/// class structure), sample indices offset past the training set.
pub fn make_eval_dataset(config: &JobConfig, len: usize) -> Arc<dyn Dataset> {
    let offset = config.dataset_len as u32;
    match zoo::input_kind(config.workload) {
        InputKind::Image => {
            Arc::new(SyntheticImageDataset::cifar_like(config.seed, len).with_offset(offset))
        }
        InputKind::Sequence => Arc::new(
            SyntheticSequenceDataset::new(
                config.seed,
                len,
                zoo::SEQ_LEN,
                zoo::VOCAB as u32,
                zoo::NUM_CLASSES as u32,
            )
            .with_offset(offset),
        ),
    }
}

/// One physical worker.
pub struct EasyScaleWorker {
    gpu: GpuType,
    model: Model,
    pool: DataWorkerPool,
    contexts: Vec<EstContext>,
    base_profile: KernelProfile,
    autotuner: Autotuner,
    op_key: u64,
}

impl EasyScaleWorker {
    /// Create a worker for `slot` with a freshly initialized model and fresh
    /// EST contexts. (The engine overwrites params/contexts when restoring.)
    pub fn new(config: &JobConfig, slot: &Slot) -> Self {
        let model = build_proxy(config.workload, config.seed);
        let augmenter = if config.augment && zoo::input_kind(config.workload) == InputKind::Image {
            Some(Augmenter::new(AugmentConfig::default()))
        } else {
            None
        };
        let loader = ShardedLoader::new(
            make_dataset(config),
            config.n_ests,
            config.batch_size,
            config.seed,
            true,
            augmenter,
        );
        let pool = DataWorkerPool::new(loader, config.data_workers, 2);
        let implicit = model.implicit_state();
        let contexts = slot
            .vranks
            .iter()
            .map(|&r| EstContext::fresh(config.seed, r, implicit.clone()))
            .collect();
        EasyScaleWorker {
            gpu: slot.gpu,
            model,
            pool,
            contexts,
            base_profile: config.determinism.profile_for(slot.gpu),
            autotuner: Autotuner::new(config.determinism.autotune_policy()),
            op_key: config.seed ^ (config.workload.name().len() as u64) << 32,
        }
    }

    /// Rebuild `slot`'s worker from engine-held state: `params` (the
    /// engine's mirror or a checkpoint's replica) and `snap` (the slot's EST
    /// contexts in slot order plus its loader cursors). The one restore
    /// recipe — checkpoint restore, fault respawn and evaluation all build
    /// their workers here, which is why each lands on the same bits as the
    /// worker it stands in for.
    pub fn restored(
        config: &JobConfig,
        slot: &Slot,
        params: &[f32],
        snap: &WorkerSnapshot,
    ) -> Self {
        let mut w = EasyScaleWorker::new(config, slot);
        w.load_flat_params(params);
        w.restore_pool(&snap.loader);
        w.set_contexts(snap.contexts.clone());
        w
    }

    /// The GPU type this worker occupies.
    pub fn gpu(&self) -> GpuType {
        self.gpu
    }

    /// Assigned EST contexts (slot order).
    pub fn contexts(&self) -> &[EstContext] {
        &self.contexts
    }

    /// Number of ESTs this worker hosts — its heartbeat load.
    pub fn n_ests(&self) -> u32 {
        self.contexts.len() as u32
    }

    /// Replace the assigned EST contexts (used on restore/rescale).
    pub fn set_contexts(&mut self, contexts: Vec<EstContext>) {
        self.contexts = contexts;
    }

    /// The model replica.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Mutable model replica (evaluation needs to set implicit state).
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
    }

    /// Flat parameters of the replica.
    pub fn flat_params(&self) -> Vec<f32> {
        self.model.flat_params()
    }

    /// Load flat parameters (restore path).
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        self.model.load_flat_params(flat);
    }

    /// Apply a flat parameter delta (the per-global-step optimizer update,
    /// identical on every worker).
    pub fn apply_update(&mut self, delta: &[f32]) {
        self.model.apply_flat_delta(delta);
    }

    /// Per-worker data pool checkpoint (cursors of *all* ranks; only the
    /// locally-owned ones have advanced).
    pub fn pool_checkpoint(&self) -> LoaderCheckpoint {
        self.pool.checkpoint()
    }

    /// Restore the data pool cursors.
    pub fn restore_pool(&mut self, ckpt: &LoaderCheckpoint) {
        self.pool.restore(ckpt);
    }

    /// The kernel profile this worker's next local step will use (autotuning
    /// may override the algorithm id under non-deterministic policies).
    pub fn step_profile(&mut self) -> KernelProfile {
        let mut p = self.base_profile;
        if let tensor::AutotunePolicy::Benchmark { .. } = self.autotuner.policy() {
            p.algo_id = self.autotuner.select(self.op_key);
        }
        p
    }

    /// Execute one local step per assigned EST, in slot order, with context
    /// switching between them. Returns each EST's gradient and loss.
    pub fn run_local_steps(&mut self) -> Vec<LocalStep> {
        self.run_local_steps_opts(true).into_iter().map(|(s, _)| s).collect()
    }

    /// Like [`EasyScaleWorker::run_local_steps`], but with per-EST wall-time
    /// measurements, and optionally with context switching disabled
    /// (`context_switching = false` skips the implicit-state swap and RNG
    /// capture — NOT accuracy-consistent; exists to measure the switching
    /// overhead, Fig 11).
    pub fn run_local_steps_opts(
        &mut self,
        context_switching: bool,
    ) -> Vec<(LocalStep, std::time::Duration)> {
        let profile = self.step_profile();
        let mut out = Vec::with_capacity(self.contexts.len());
        for i in 0..self.contexts.len() {
            // Wall-clock stays behind obs: the elapsed value is returned for
            // the Fig 11/13 overhead experiments but never feeds the math.
            let watch = obs::Stopwatch::start();
            let est = &mut self.contexts[i];
            // — Context switch in: restore the EST's implicit states. —
            if context_switching {
                let load_span = obs::span("worker.ctx_switch_load");
                self.model.set_implicit_state(&est.implicit);
                drop(load_span);
            }
            let mut dropout = est.dropout_rng();

            let batch = self.pool.next_batch(est.vrank);
            let mut ctx = ExecCtx { profile, training: true, dropout: &mut dropout };
            let logits = self.model.forward(&batch.features, &mut ctx);
            let probs = softmax_rows(&logits, &profile);
            let (loss, grad_logits) = cross_entropy(&probs, &batch.labels, &profile);
            self.model.backward_params(&grad_logits, &mut ctx);

            // — Context switch out: capture gradient ("async D2H copy") and
            //   the EST's mutated implicit states; free the working set. —
            let grad = self.model.flat_grads();
            self.model.zero_grads();
            if context_switching {
                let save_span = obs::span("worker.ctx_switch_save");
                est.implicit = self.model.implicit_state();
                est.dropout = dropout.state();
                drop(save_span);
            }
            est.steps += 1;
            est.last_loss = loss;
            let elapsed = watch.lap_observe("worker.local_step_us");
            out.push((LocalStep { vrank: est.vrank, grad, loss }, elapsed));
        }
        out
    }

    /// Evaluate accuracy on a dataset using the given EST's implicit state
    /// (rank 0 by convention, like saving `module` from rank 0 in DDP).
    /// Returns (overall accuracy, per-class accuracy, per-class counts).
    pub fn evaluate(
        &mut self,
        dataset: &dyn Dataset,
        batch_size: usize,
        est_index: usize,
    ) -> (f64, Vec<f64>) {
        let profile = self.base_profile;
        self.model.set_implicit_state(&self.contexts[est_index].implicit.clone());
        let classes = dataset.num_classes() as usize;
        let mut correct = vec![0u64; classes];
        let mut total = vec![0u64; classes];
        let feat_shape = dataset.feature_shape();
        let feat_len: usize = feat_shape.iter().product();
        let mut dropout = self.contexts[est_index].dropout_rng(); // unused in eval mode
        let n = dataset.len();
        let mut i = 0;
        while i < n {
            let end = (i + batch_size).min(n);
            let b = end - i;
            let mut features = Vec::with_capacity(b * feat_len);
            let mut labels = Vec::with_capacity(b);
            for idx in i..end {
                let (x, y) = dataset.sample(idx as u32);
                features.extend_from_slice(x.data());
                labels.push(y);
            }
            let mut shape = vec![b];
            shape.extend_from_slice(&feat_shape);
            let x = Tensor::from_vec(features, &shape);
            let mut ctx = ExecCtx { profile, training: false, dropout: &mut dropout };
            let logits = self.model.forward(&x, &mut ctx);
            let ld = logits.data();
            for (j, &label) in labels.iter().enumerate() {
                let row = &ld[j * classes..(j + 1) * classes];
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(k, _)| k)
                    .unwrap();
                total[label as usize] += 1;
                if pred == label as usize {
                    correct[label as usize] += 1;
                }
            }
            i = end;
        }
        let overall = correct.iter().sum::<u64>() as f64 / total.iter().sum::<u64>().max(1) as f64;
        let per_class = correct
            .iter()
            .zip(&total)
            .map(|(&c, &t)| if t == 0 { 0.0 } else { c as f64 / t as f64 })
            .collect();
        (overall, per_class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Determinism;
    use models::Workload;

    fn config() -> JobConfig {
        JobConfig::new(Workload::ResNet18, 11, 4).with_dataset_len(128)
    }

    #[test]
    fn local_steps_cover_assigned_ranks() {
        let cfg = config();
        let slot = Slot { gpu: GpuType::V100, vranks: vec![1, 3] };
        let mut w = EasyScaleWorker::new(&cfg, &slot);
        let steps = w.run_local_steps();
        assert_eq!(steps.iter().map(|s| s.vrank).collect::<Vec<_>>(), vec![1, 3]);
        assert!(steps.iter().all(|s| s.loss.is_finite()));
        assert!(steps.iter().all(|s| s.grad.iter().any(|&g| g != 0.0)));
    }

    #[test]
    fn context_switching_keeps_est_states_separate() {
        let cfg = config();
        let slot = Slot { gpu: GpuType::V100, vranks: vec![0, 1] };
        let mut w = EasyScaleWorker::new(&cfg, &slot);
        w.run_local_steps();
        let c0 = &w.contexts()[0];
        let c1 = &w.contexts()[1];
        // Each EST consumed its own data and dropout, so their BN running
        // stats and RNG positions differ.
        assert_ne!(c0.implicit, c1.implicit, "BN stats are per-EST");
        assert_ne!(c0.dropout, c1.dropout);
        assert_eq!(c0.steps, 1);
    }

    #[test]
    fn gradient_is_placement_invariant_per_est() {
        // The same EST (same vrank) produces bitwise-identical gradients on
        // its first local step whether it shares a worker or not.
        let cfg = config();
        let mut solo = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![2] });
        let mut shared =
            EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![0, 1, 2, 3] });
        let g_solo = solo.run_local_steps().remove(0);
        let g_shared = shared.run_local_steps().remove(2);
        assert_eq!(g_solo.vrank, g_shared.vrank);
        assert_eq!(g_solo.loss.to_bits(), g_shared.loss.to_bits());
        let identical =
            g_solo.grad.iter().zip(&g_shared.grad).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "EST gradients must not depend on co-residents");
    }

    #[test]
    fn d2_makes_gradients_gpu_type_invariant() {
        let cfg = config().with_determinism(Determinism::d1_d2());
        let mut v100 = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![0] });
        let mut t4 = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::T4, vranks: vec![0] });
        let a = v100.run_local_steps().remove(0);
        let b = t4.run_local_steps().remove(0);
        assert!(a.grad.iter().zip(&b.grad).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn without_d2_gpu_types_disagree() {
        let cfg = config().with_determinism(Determinism::d1());
        let mut v100 = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![0] });
        let mut t4 = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::T4, vranks: vec![0] });
        let a = v100.run_local_steps().remove(0);
        let b = t4.run_local_steps().remove(0);
        let differs = a.grad.iter().zip(&b.grad).any(|(x, y)| x.to_bits() != y.to_bits());
        assert!(differs, "vendor kernels on different GPUs must diverge (the D2 hazard)");
    }

    #[test]
    fn evaluate_returns_sane_accuracy() {
        let cfg = config();
        let mut w = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![0] });
        let eval = SyntheticImageDataset::cifar_like(999, 100);
        let (overall, per_class) = w.evaluate(&eval, 16, 0);
        assert!((0.0..=1.0).contains(&overall));
        assert_eq!(per_class.len(), 10);
    }
}
