//! The tentpole invariant, end to end: an N-thread run is **byte-identical**
//! to the 1-thread run — params, health log, and simulated time — for every
//! fault schedule in the chaos matrix and for randomized worker counts,
//! fault schedules, and rescale points.
//!
//! Why this is the right correctness statement: the persistent worker pool
//! (`core::pool`) runs the workers' local steps concurrently, so OS
//! scheduling is free to interleave them any way it likes. Every
//! channel the results cross back on is drained in canonical order
//! (docs/PARALLELISM.md), so the *only* observable difference between
//! `ExecMode::Pool` and `ExecMode::SingleThread` should be wall-clock —
//! which nothing here measures. If any bit of thread-completion order ever
//! leaked into the math, these comparisons would catch it.

use std::path::PathBuf;

use device::GpuType;
use easyscale::{Determinism, ExecMode, JobConfig};
use faultsim::{
    run_fault_free, FaultEvent, FaultHarness, FaultKind, FaultSchedule, HarnessConfig, RunReport,
};
use models::Workload;
use proptest::proptest;
use sched::HealthPolicy;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("easyscale-nthread-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `schedule` twice — once on the persistent N-thread pool, once
/// single-threaded — and assert the runs are byte-identical in every
/// deterministic output: final params, the supervisor's health-event log,
/// and simulated elapsed time.
fn assert_pool_eq_single(
    tag: &str,
    make_cfg: impl Fn(PathBuf) -> HarnessConfig,
    schedule: FaultSchedule,
) {
    let dir_pool = store_dir(&format!("{tag}-pool"));
    let dir_single = store_dir(&format!("{tag}-single"));
    let mut cfg_pool = make_cfg(dir_pool.clone());
    cfg_pool.exec_mode = ExecMode::Pool;
    let mut cfg_single = make_cfg(dir_single.clone());
    cfg_single.exec_mode = ExecMode::SingleThread;

    let pool = FaultHarness::new(cfg_pool, schedule.clone()).run();
    let single = FaultHarness::new(cfg_single, schedule.clone()).run();
    assert_identical(tag, &schedule, &pool, &single);

    let _ = std::fs::remove_dir_all(&dir_pool);
    let _ = std::fs::remove_dir_all(&dir_single);
}

fn assert_identical(tag: &str, schedule: &FaultSchedule, pool: &RunReport, single: &RunReport) {
    assert_eq!(
        pool.params_bits(),
        single.params_bits(),
        "[{tag}] N-thread params must be byte-identical to 1-thread \
         (seed {}, kinds {:?})",
        schedule.seed,
        schedule.kinds()
    );
    // The health log is the detection record; Debug shows every field of
    // every event, so string equality is byte-identity of the log.
    assert_eq!(
        format!("{:?}", pool.health_events),
        format!("{:?}", single.health_events),
        "[{tag}] health logs must match"
    );
    assert_eq!(
        pool.sim_elapsed_us, single.sim_elapsed_us,
        "[{tag}] simulated time must match (it derives from EST loads, not threads)"
    );
    assert_eq!(pool.crashes, single.crashes, "[{tag}] crash counts must match");
    assert_eq!(pool.replayed_steps, single.replayed_steps, "[{tag}] replay counts must match");
}

// ---- the chaos matrix, swept across thread counts ----------------------

#[test]
fn nthread_eq_single_on_hand_authored_schedules() {
    let matrix: [(&str, Vec<FaultEvent>); 3] = [
        (
            "ckpt-damage",
            vec![
                FaultEvent { step: 2, kind: FaultKind::WorkerCrash },
                FaultEvent { step: 5, kind: FaultKind::TornCheckpoint { keep_frac_milli: 400 } },
                FaultEvent { step: 8, kind: FaultKind::BitFlippedCheckpoint { bit_index: 100 } },
            ],
        ),
        (
            "elastic",
            vec![
                FaultEvent { step: 2, kind: FaultKind::ScaleOut { gpus: 2 } },
                FaultEvent { step: 5, kind: FaultKind::Preemption { gpus: 3 } },
                FaultEvent { step: 8, kind: FaultKind::ScaleIn { gpus: 2 } },
            ],
        ),
        (
            "comm",
            vec![
                FaultEvent { step: 2, kind: FaultKind::CommFailure { failures: 2 } },
                FaultEvent {
                    step: 4,
                    kind: FaultKind::Straggler { worker: 1, factor_milli: 2500, steps: 2 },
                },
                FaultEvent { step: 7, kind: FaultKind::CommFailure { failures: 5 } },
            ],
        ),
    ];
    for (tag, events) in matrix {
        assert_pool_eq_single(
            tag,
            HarnessConfig::default_chaos,
            FaultSchedule::from_events(events),
        );
    }
}

#[test]
fn nthread_eq_single_on_seeded_schedules() {
    for seed in [11, 22, 33, 44, 55, 66] {
        assert_pool_eq_single(
            &format!("seed{seed}"),
            HarnessConfig::default_chaos,
            FaultSchedule::generate(seed, 10, 6),
        );
    }
}

#[test]
fn nthread_pool_also_converges_to_fault_free_reference() {
    // Belt and braces: the pool run doesn't just match the single-thread
    // run — both match the fault-free reference (itself run on the pool).
    let dir = store_dir("pool-vs-reference");
    let cfg = HarnessConfig::default_chaos(dir.clone());
    assert_eq!(cfg.exec_mode, ExecMode::Pool, "the pool is the production default");
    let reference: Vec<u32> = run_fault_free(&cfg).iter().map(|p| p.to_bits()).collect();
    let report = FaultHarness::new(cfg, FaultSchedule::generate(77, 10, 5)).run();
    assert_eq!(report.params_bits(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- randomized worker counts, fault schedules, rescale points ---------

/// A small 8-EST job on an 8-GPU cluster: every worker count from 1 to 8
/// is a legal placement, and a ±1 rescale is always schedulable.
fn wide_cfg(gpus: u32) -> impl Fn(PathBuf) -> HarnessConfig {
    move |store_dir| {
        let job = JobConfig::new(Workload::NeuMF, 4242, 8)
            .with_dataset_len(64)
            .with_determinism(Determinism::d1_d2());
        let lease_us = 2 * HarnessConfig::worst_step_us(&job, GpuType::V100);
        let mut cfg = HarnessConfig::default_chaos(store_dir);
        cfg.job = job;
        cfg.total_steps = 5;
        cfg.initial_gpus = gpus;
        cfg.cluster_gpus = 8;
        cfg.health = HealthPolicy::with_lease(lease_us);
        cfg.start_order = (0..gpus).collect();
        cfg
    }
}

proptest! {
    #[test]
    fn nthread_eq_single_randomized(
        gpus in 1u32..=8,
        fault_seed in 0u64..10_000,
        n_faults in 0usize..=3,
        rescale_step in 1u64..=4,
        scale_out in proptest::strategy::any::<bool>(),
    ) {
        // A seeded fault burst plus one explicit rescale point: the drawn
        // worker count changes at `rescale_step`, so the equivalence holds
        // across a thread-pool teardown/respawn too.
        let mut events = FaultSchedule::generate(fault_seed, 5, n_faults).events;
        let kind = if scale_out {
            FaultKind::ScaleOut { gpus: 1 }
        } else {
            FaultKind::ScaleIn { gpus: 1 }
        };
        events.push(FaultEvent { step: rescale_step, kind });
        events.sort_by_key(|e| e.step);
        let tag = format!("rand-g{gpus}-s{fault_seed}-f{n_faults}-r{rescale_step}");
        assert_pool_eq_single(&tag, wide_cfg(gpus), FaultSchedule::from_events(events));
    }
}
