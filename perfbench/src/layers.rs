//! The traced run: per-layer numbers from spans recorded around calls into
//! each layer's public functions.
//!
//! Every traced run covers every layer, on the workload's own job and
//! trace, in three parts that share the run's wall time:
//!
//! 1. [`step_layers`]: from one `Engine::checkpoint`, the same steps run on
//!    the engine (pool), on a single-thread engine, and as shadow steps
//!    (`crate::shadow`); all three must end on the same bits. One EST's
//!    local step is then taken apart further on a separate model replica
//!    (data, context switch, forward, backward).
//! 2. [`elastic_layers`]: the elastic cycle (steps, checkpoint and save,
//!    rescale, steps, save, then restore from the store onto the next
//!    placement) with each call timed, checked against an uninterrupted run.
//! 3. [`sched_layers`]: trace generation, whole simulator runs, and the
//!    companion plan and intra-job proposals for every job of the trace.

use crate::e2e::{bits, reference_params, WARM_STEPS};
use crate::shadow::{Phases, Shadow};
use crate::spans::Tracer;
use crate::stats::{median, tail};
use crate::{jobs, Args, Report};
use data::{AugmentConfig, Augmenter, ShardedLoader};
use device::GpuType;
use easyscale::worker::make_dataset;
use easyscale::{
    CheckpointStore, Engine, EstContext, ExecMode, ExecOptions, JobCheckpoint, JobConfig, Placement,
};
use models::model::ExecCtx;
use models::zoo::{self, InputKind};
use sched::{ClusterSim, Companion, IntraJobScheduler, Policy};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tensor::ops::{cross_entropy, softmax_rows};
use trace::TraceGenerator;

/// Engine steps per traced or untraced block when the two alternate.
const BLOCK: u64 = 8;

/// Run all three parts, splitting `args.seconds` between them.
pub fn run(args: &Args, r: &mut Report, t: &mut Tracer) {
    let config = jobs::job(args.workload, args.seed);
    step_layers(&config, &jobs::two_v100(), 0.45 * args.seconds, t, r);
    elastic_layers(&config, &jobs::rotation(), 0.25 * args.seconds, t, r);
    sched_layers(args.seed, 0.3 * args.seconds, t, r);
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Engine, single-thread engine and shadow steps from one checkpoint,
/// followed by the local-step breakdown.
pub fn step_layers(
    config: &JobConfig,
    placement: &Placement,
    budget_s: f64,
    t: &mut Tracer,
    r: &mut Report,
) {
    let mut engine = Engine::new(config.clone(), placement.clone());
    engine.run(WARM_STEPS);
    let t0 = Instant::now();
    engine.run(WARM_STEPS);
    let step_s = t0.elapsed().as_secs_f64() / WARM_STEPS as f64;
    let ckpt = engine.checkpoint();
    let exec = ExecOptions { mode: ExecMode::SingleThread, ..ExecOptions::default() };
    let mut inline = Engine::from_checkpoint_opts(config.clone(), placement.clone(), &ckpt, exec);
    let mut shadow = match Shadow::from_checkpoint(config, placement, &ckpt) {
        Ok(s) => s,
        Err(e) => {
            r.check(false, &e);
            return;
        }
    };

    // The host's speed drifts over tenths of a second, so the three take
    // turns in blocks of BLOCK steps: each comparison below is between
    // steps taken moments apart, and each block's first step alone pays
    // for waking its threads. A round costs about three engine blocks; the
    // local-step breakdown afterwards gets the last quarter of the budget.
    // At least 112 traced engine steps, so the tail is a p90.
    let rounds = (0.75 * budget_s / (3.0 * BLOCK as f64 * step_s)) as u64;
    let n = rounds.clamp(28, 200) * BLOCK;
    let mut untraced = Vec::new();
    let mut phases = Vec::with_capacity(n as usize);
    for round in 0..n / BLOCK {
        for _ in 0..BLOCK {
            let step = engine.global_step();
            if round % 2 == 0 {
                let s = t.begin("core.engine.step", step);
                engine.step();
                t.end(s);
            } else {
                let t0 = Instant::now();
                engine.step();
                untraced.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        for _ in 0..BLOCK {
            let s = t.begin("core.engine.inline_step", inline.global_step());
            inline.step();
            t.end(s);
        }
        for _ in 0..BLOCK {
            phases.push(shadow.step(t));
        }
    }
    r.ok(3 * n);
    let engine_params = bits(&engine.flat_params());
    r.check(bits(&inline.flat_params()) == engine_params, "single-thread engine diverged");
    let same = shadow.replica_params().iter().all(|p| bits(p) == engine_params);
    if !r.check(same, "shadow step params differ from the engine's") {
        // No numbers from a decomposition that does not add up to the step.
        return;
    }
    drop((engine, inline));

    let step_us = t.durations_us("core.engine.step");
    let inline_us = median(&t.durations_us("core.engine.inline_step"));
    let per_step = |f: fn(&Phases) -> f64| phases.iter().map(f).collect::<Vec<f64>>();
    let critical = median(&per_step(Phases::critical_us));
    let step_p50 = median(&step_us);
    r.set("core.engine.step_us_p50", step_p50);
    r.set("core.engine.step_us_tail", tail(&step_us).1);
    r.set("core.engine.inline_step_us_p50", inline_us);
    r.set("core.pool.overhead_us_p50", step_p50 - critical);
    r.set("core.pool.overhead_frac", (step_p50 - critical) / step_p50);
    r.set("core.worker.local_us_p50", median(&t.durations_us("core.worker.local")));
    r.set("core.worker.local_crit_us_p50", median(&per_step(|p| max(&p.local_us))));
    r.set("core.worker.idle_frac", median(&per_step(Phases::idle_frac)));
    r.set("core.worker.apply_us_p50", median(&t.durations_us("core.worker.apply")));
    r.set("comm.allreduce_us_p50", median(&per_step(|p| p.allreduce_us)));
    r.set("optim.sgd_step_us_p50", median(&per_step(|p| p.sgd_us)));
    r.set("comm.buckets", shadow.ddp().layout().num_buckets() as f64);
    let grad_bytes = shadow.ddp().layout().total_elements() * 4 * config.n_ests as usize;
    r.set("comm.bytes_per_step", grad_bytes as f64);
    r.set("bench.shadow_coverage", median(&per_step(Phases::sum_us)) / inline_us);
    r.set("bench.trace_overhead_frac", step_p50 / median(&untraced) - 1.0);

    local_step_layers(config, placement.slots[0].gpu, 4 * n as usize, t, r);
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// One EST local step taken apart on a model replica of its own: the
/// calls `EasyScaleWorker::run_local_steps` makes, each timed, for `n`
/// EST steps round-robin over the job's virtual ranks.
fn local_step_layers(config: &JobConfig, gpu: GpuType, n: usize, t: &mut Tracer, r: &mut Report) {
    let mut model = zoo::build_proxy(config.workload, config.seed);
    let image = zoo::input_kind(config.workload) == InputKind::Image;
    let augmenter = (config.augment && image).then(|| Augmenter::new(AugmentConfig::default()));
    let mut loader = ShardedLoader::new(
        make_dataset(config),
        config.n_ests,
        config.batch_size,
        config.seed,
        true,
        augmenter,
    );
    let profile = config.determinism.profile_for(gpu);
    let mut contexts: Vec<EstContext> = (0..config.n_ests)
        .map(|v| EstContext::fresh(config.seed, v, model.implicit_state()))
        .collect();
    let mut switch_us = Vec::with_capacity(n);
    for i in 0..n {
        let step = (i / contexts.len()) as u64;
        let est = &mut contexts[i % config.n_ests as usize];
        let s = t.begin("models.ctx_switch", step);
        model.set_implicit_state(&est.implicit);
        let switch_in = t.end(s);
        let mut dropout = est.dropout_rng();

        let s = t.begin("data.next_batch", step);
        let batch = loader.next_batch(est.vrank);
        t.end(s);
        let mut ctx = ExecCtx { profile, training: true, dropout: &mut dropout };
        let s = t.begin("models.forward", step);
        let logits = model.forward(&batch.features, &mut ctx);
        t.end(s);
        let s = t.begin("models.loss", step);
        let probs = softmax_rows(&logits, &profile);
        let (_, grad_logits) = cross_entropy(&probs, &batch.labels, &profile);
        t.end(s);
        let s = t.begin("models.backward", step);
        black_box(model.backward(&grad_logits, &mut ctx));
        t.end(s);
        let s = t.begin("models.grad_copy", step);
        black_box(model.flat_grads());
        model.zero_grads();
        t.end(s);

        let s = t.begin("models.ctx_switch", step);
        est.implicit = model.implicit_state();
        est.dropout = dropout.state();
        switch_us.push(switch_in + t.end(s));
    }
    r.ok(n as u64);
    r.set("data.next_batch_us_p50", median(&t.durations_us("data.next_batch")));
    r.set("models.forward_us_p50", median(&t.durations_us("models.forward")));
    r.set("models.backward_us_p50", median(&t.durations_us("models.backward")));
    r.set("models.ctx_switch_us_p50", median(&switch_us));
}

/// Save (checkpoint, encode, store), rescale and restore (load, decode,
/// rebuild), each timed, over whole rotations of `rot`.
pub fn elastic_layers(
    config: &JobConfig,
    rot: &[Placement; 3],
    budget_s: f64,
    t: &mut Tracer,
    r: &mut Report,
) {
    let dir = crate::work_dir().join(format!("ckpt-traced-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match CheckpointStore::open(&dir, "traced") {
        Ok(s) => s,
        Err(e) => {
            r.check(false, &format!("open checkpoint store: {e}"));
            return;
        }
    };
    let spawned = |e: &Engine| e.pool_stats().map_or(0, |s| s.workers) as f64;
    let mut engine = Engine::new(config.clone(), rot[0].clone());
    engine.run(WARM_STEPS);
    let (mut spawns, mut rotations, mut file_bytes) = (0.0, 0.0, 0.0);
    let start = Instant::now();
    while rotations < 1.0 || start.elapsed() < secs(budget_s) {
        for at in [0, 2, 1] {
            let (next, after) = ((at + 1) % 3, (at + 2) % 3);
            engine.run(jobs::N_EST as u64);
            save(&mut engine, &store, t, r);

            let step = engine.global_step();
            let s = t.begin("core.engine.rescale", step);
            engine = engine.rescale(rot[next].clone());
            t.end(s);
            spawns += spawned(&engine);
            let s = t.begin("core.engine.first_step", step);
            engine.step();
            t.end(s);

            engine.run(jobs::N_EST as u64);
            let Some((payload, path)) = save(&mut engine, &store, t, r) else { return };
            file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
            let step = engine.global_step();
            drop(engine);

            let s = t.begin("core.store.load", step);
            let loaded = store.load_latest_valid();
            t.end(s);
            let Ok(Some((loaded, 0))) = loaded else {
                r.check(false, "the newest checkpoint did not load");
                return;
            };
            let s = t.begin("core.store.decode", step);
            let decoded = serde_json::from_slice::<JobCheckpoint>(&payload);
            t.end(s);
            let same = decoded.is_ok_and(|d| bits(&d.params) == bits(&loaded.params));
            r.check(same, "decoded checkpoint differs from the stored one");

            let s = t.begin("core.engine.from_checkpoint", step);
            engine = Engine::from_checkpoint(config.clone(), rot[after].clone(), &loaded);
            t.end(s);
            spawns += spawned(&engine);
            let s = t.begin("core.engine.first_step", step);
            engine.step();
            t.end(s);
            r.ok(2 * jobs::N_EST as u64 + 4);
        }
        rotations += 1.0;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let steps = engine.global_step();
    let final_params = bits(&engine.flat_params());
    drop(engine);
    r.check(
        final_params == bits(&reference_params(config, rot[0].clone(), steps)),
        "params after rescales differ from the uninterrupted run",
    );

    for (metric, span) in [
        ("core.engine.checkpoint_us_p50", "core.engine.checkpoint"),
        ("core.store.encode_us_p50", "core.store.encode"),
        ("core.store.save_us_p50", "core.store.save"),
        ("core.store.load_us_p50", "core.store.load"),
        ("core.store.decode_us_p50", "core.store.decode"),
        ("core.engine.rescale_us_p50", "core.engine.rescale"),
        ("core.engine.from_checkpoint_us_p50", "core.engine.from_checkpoint"),
        ("core.engine.first_step_us_p50", "core.engine.first_step"),
    ] {
        r.set(metric, median(&t.durations_us(span)));
    }
    r.set("core.store.bytes", file_bytes);
    r.set("core.pool.spawns", spawns / rotations);
}

/// Checkpoint, encode the payload on its own (the store's codec cost), and
/// save. Returns the payload bytes and the saved file.
fn save(
    engine: &mut Engine,
    store: &CheckpointStore,
    t: &mut Tracer,
    r: &mut Report,
) -> Option<(Vec<u8>, std::path::PathBuf)> {
    let step = engine.global_step();
    let s = t.begin("core.engine.checkpoint", step);
    let ckpt = engine.checkpoint();
    t.end(s);
    let s = t.begin("core.store.encode", step);
    let payload = serde_json::to_vec(&ckpt);
    t.end(s);
    let s = t.begin("core.store.save", step);
    let saved = store.save(&ckpt);
    t.end(s);
    match (payload, saved) {
        (Ok(p), Ok(path)) => Some((p, path)),
        _ => {
            r.check(false, "checkpoint encode or save failed");
            None
        }
    }
}

/// Allocations every job's companion plans, from one GPU to a mixed set.
const PLAN_ALLOCS: [&[(GpuType, u32)]; 4] = [
    &[(GpuType::V100, 1)],
    &[(GpuType::V100, 2)],
    &[(GpuType::V100, 2), (GpuType::T4, 2)],
    &[(GpuType::V100, 4), (GpuType::P100, 2), (GpuType::T4, 2)],
];

/// Trace generation, whole simulator runs, and the scheduler's per-job
/// decisions on the seed's trace.
pub fn sched_layers(seed: u64, budget_s: f64, t: &mut Tracer, r: &mut Report) {
    let generator = TraceGenerator::new(jobs::trace(seed));
    let mut trace = Vec::new();
    for rep in 0..3 {
        let s = t.begin("trace.generate", rep);
        trace = generator.generate();
        t.end(s);
    }
    let cluster = jobs::cluster();
    let sim = ClusterSim::new(&cluster, trace.clone(), Policy::EasyScaleHeter);
    let start = Instant::now();
    let mut rep = 0;
    let mut outcome = None;
    while rep < 1 || start.elapsed() < secs(budget_s * 0.7) {
        let s = t.begin("sched.sim_run", rep);
        let out = sim.run();
        t.end(s);
        let finished = out.records.len() == trace.len()
            && out.records.iter().all(|j| j.finish.is_finite() && j.finish >= j.arrival);
        r.check(finished, "a trace job did not finish");
        outcome = Some(out);
        rep += 1;
    }
    let outcome = outcome.expect("at least one run");

    let free: sched::FreePool =
        GpuType::ALL.iter().map(|&ty| (ty, cluster.count_of(ty) as u32)).collect();
    for spec in &trace {
        let hetero = spec.workload.spec().hetero_friendly();
        let companion = Companion::for_workload(&spec.workload.spec(), spec.max_p, hetero);
        for alloc in PLAN_ALLOCS {
            let s = t.begin("sched.companion_plan", spec.id);
            black_box(companion.plan(&alloc.to_vec()));
            t.end(s);
        }
        let mut intra = IntraJobScheduler::new(spec.id, companion, hetero);
        intra.apply_allocation(vec![(GpuType::V100, 1)]);
        let s = t.begin("sched.intra_proposals", spec.id);
        black_box(intra.proposals(&free, 3));
        t.end(s);
    }
    r.ok(trace.len() as u64 * (PLAN_ALLOCS.len() as u64 + 1));

    r.set("trace.generate_ms", median(&t.durations_us("trace.generate")) / 1e3);
    r.set("sched.sim_run_ms", median(&t.durations_us("sched.sim_run")) / 1e3);
    r.set("sched.companion_plan_us_p50", median(&t.durations_us("sched.companion_plan")));
    r.set("sched.intra_proposals_us_p50", median(&t.durations_us("sched.intra_proposals")));
    r.set("sched.jobs", outcome.records.len() as f64);
    r.set("sched.preemptions", outcome.preemptions.len() as f64);
}
