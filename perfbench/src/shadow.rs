//! The shadow step: one global step rebuilt outside the engine from the
//! public functions of each layer, so every layer can be timed on its own.
//!
//! Starting from an [`Engine::checkpoint`](easyscale::Engine::checkpoint),
//! a shadow step runs each worker's local steps one after another
//! (`EasyScaleWorker::run_local_steps`), the virtual-rank-ordered
//! `ElasticDdp::allreduce_avg` over the restored bucket layout, `Sgd::step`
//! with the restored velocity, and `apply_update` on every worker. That is
//! the engine's step with the worker threads taken away, so after any
//! number of steps the shadow must hold the engine's parameters bit for
//! bit; the traced run refuses to report numbers when it does not.

use crate::spans::Tracer;
use comm::ElasticDdp;
use data::DistributedSampler;
use easyscale::{EasyScaleWorker, JobCheckpoint, JobConfig, Placement};
use optim::{LrSchedule, Sgd};

/// Per-phase durations of one shadow step, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// Each worker's local steps (all its ESTs), in slot order.
    pub local_us: Vec<f64>,
    /// The gradient all-reduce over all virtual ranks.
    pub allreduce_us: f64,
    /// The optimizer step.
    pub sgd_us: f64,
    /// Each worker's `apply_update`, in slot order.
    pub apply_us: Vec<f64>,
}

impl Phases {
    /// All phases added up: what one thread spends on the step.
    pub fn sum_us(&self) -> f64 {
        self.local_us.iter().sum::<f64>()
            + self.allreduce_us
            + self.sgd_us
            + self.apply_us.iter().sum::<f64>()
    }

    /// The step's critical path if workers ran in parallel with no cost to
    /// coordinate them: slowest local step, reduce, optimizer, slowest apply.
    pub fn critical_us(&self) -> f64 {
        max(&self.local_us) + self.allreduce_us + self.sgd_us + max(&self.apply_us)
    }

    /// Share of the slowest worker's local time the others sit idle:
    /// `1 - mean / max`.
    pub fn idle_frac(&self) -> f64 {
        let m = max(&self.local_us);
        if m > 0.0 {
            1.0 - crate::stats::mean(&self.local_us) / m
        } else {
            0.0
        }
    }
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// A job rebuilt from a checkpoint and stepped phase by phase.
pub struct Shadow {
    config: JobConfig,
    workers: Vec<EasyScaleWorker>,
    ddp: ElasticDdp,
    opt: Sgd,
    params: Vec<f32>,
    global_step: u64,
    steps_per_epoch: u64,
}

impl Shadow {
    /// Rebuild `ckpt` on `placement` the way `Engine::from_checkpoint`
    /// does. Needs the pinned (D1) bucket layout, already rebuilt: that is,
    /// a checkpoint taken after at least one step of a D1 job.
    pub fn from_checkpoint(
        config: &JobConfig,
        placement: &Placement,
        ckpt: &JobCheckpoint,
    ) -> Result<Self, String> {
        placement.validate(config.n_ests)?;
        if !config.determinism.pin_bucket_layout {
            return Err("the shadow step needs a D1 job (pinned bucket layout)".into());
        }
        if !ckpt.comm.rebuilt {
            return Err("the shadow step needs a checkpoint taken after the first step".into());
        }
        let workers = placement
            .slots
            .iter()
            .map(|slot| {
                let mut w = EasyScaleWorker::new(config, slot);
                w.load_flat_params(&ckpt.params);
                w.restore_pool(&ckpt.loader);
                w.set_contexts(
                    slot.vranks.iter().map(|&r| ckpt.est_contexts[r as usize].clone()).collect(),
                );
                w
            })
            .collect();
        let mut opt = Sgd::new(ckpt.params.len(), config.momentum, config.weight_decay);
        opt.restore_state(&ckpt.opt_velocity);
        let sampler = DistributedSampler::new(config.dataset_len, config.n_ests, config.seed, true);
        Ok(Shadow {
            config: config.clone(),
            workers,
            ddp: ElasticDdp::restore(ckpt.comm.clone()),
            opt,
            params: ckpt.params.clone(),
            global_step: ckpt.global_step,
            steps_per_epoch: sampler.batches_per_epoch(config.batch_size) as u64,
        })
    }

    /// The gradient all-reduce this job runs (bucket count, layout size).
    pub fn ddp(&self) -> &ElasticDdp {
        &self.ddp
    }

    /// Global steps completed.
    pub fn global_step(&self) -> u64 {
        self.global_step
    }

    /// One global step, each phase recorded as a span under `shadow.step`.
    pub fn step(&mut self, t: &mut Tracer) -> Phases {
        let step = self.global_step;
        let lr = self.config.lr.lr(step / self.steps_per_epoch);
        let outer = t.begin("shadow.step", step);
        let mut phases = Phases::default();
        let mut locals = Vec::with_capacity(self.config.n_ests as usize);
        for w in &mut self.workers {
            let s = t.begin("core.worker.local", step);
            locals.extend(w.run_local_steps());
            phases.local_us.push(t.end(s));
        }
        locals.sort_by_key(|l| l.vrank);
        let grads: Vec<Vec<f32>> = locals.into_iter().map(|l| l.grad).collect();

        let s = t.begin("comm.allreduce", step);
        let avg = self.ddp.allreduce_avg(&grads);
        phases.allreduce_us = t.end(s);

        let s = t.begin("optim.sgd_step", step);
        let delta = self.opt.step(&self.params, &avg, lr);
        phases.sgd_us = t.end(s);

        for w in &mut self.workers {
            let s = t.begin("core.worker.apply", step);
            w.apply_update(&delta);
            phases.apply_us.push(t.end(s));
        }
        for (p, d) in self.params.iter_mut().zip(&delta) {
            *p += d;
        }
        t.end(outer);
        self.global_step += 1;
        phases
    }

    /// Every worker's replica, which must all hold the same bits.
    pub fn replica_params(&self) -> Vec<Vec<f32>> {
        self.workers.iter().map(EasyScaleWorker::flat_params).collect()
    }
}
