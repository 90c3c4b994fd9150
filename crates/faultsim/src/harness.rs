//! The fault-injection harness: drives a real `easyscale::Engine` through a
//! [`FaultSchedule`](crate::FaultSchedule) and reports what happened.
//!
//! The invariant under test is the paper's headline claim pushed through
//! every failure mode this repo models: **for any fault schedule, the final
//! model parameters at D2 are byte-identical to the fault-free run.** Each
//! fault maps to the subsystem mechanism that absorbs it:
//!
//! | fault                | absorbed by                                      |
//! |----------------------|--------------------------------------------------|
//! | worker crash         | durable checkpoints + bitwise D1 restore         |
//! | comm failure         | `comm::retry` (bitwise-identical recomputation); |
//! |                      | exhaustion falls through to the crash path       |
//! | torn / bit-flipped   | `core::store` checksum + last-good fallback,     |
//! | checkpoint           | then deterministic replay                        |
//! | preemption           | `sched::apply_preemption` + `Engine::rescale`    |
//! | scale-out / scale-in | proposal → grant → `Engine::rescale`             |
//! | straggler            | nothing to absorb: slowdown dilates simulated    |
//! |                      | time only, never bits                            |
//! | **silent** crash /   | nothing announces these: the AIMaster            |
//! | creeping straggler / | supervisor ([`sched::Supervisor`]) must discover |
//! | heartbeat drop       | them from heartbeat leases and straggler scores, |
//! |                      | then evict / roll back / readmit on its own      |
//! | **thread** panic /   | the supervised pool drains (`core::pool`): a     |
//! | stall / reply drop   | deadline drain reaps the faulted OS thread,      |
//! |                      | respawns it from the engine's param mirror, and  |
//! |                      | replays the interrupted round in-place           |
//!
//! Unlike the announced faults, the silent kinds close the paper's §4
//! detection loop: each physical device gets a *stable id* (it survives
//! rescales), emits a [`comm::Heartbeat`] after every step on virtual time,
//! and a [`sched::Supervisor`] turns missed leases and straggler scores
//! into evictions, checkpoint fallbacks, and probational readmissions — no
//! harness hint anywhere in that path. The harness additionally computes a
//! *detection-latency bound* for every injected silent fault (from the
//! health policy and the schedule itself) and records whether detection
//! met it.
//!
//! The thread faults are *real* faults on real OS threads, so their
//! wall-clock detection instant is not simulated. To keep the report a pure
//! function of `(config, schedule)`, the harness feeds a *dedicated*
//! thread-health [`sched::HealthTracker`] a synthetic virtual-time cascade
//! per recovery (injection instant + the drain policy's worst-case
//! deadline, then one missed lease per detection round) and asserts the
//! latency bound on that timeline. The deterministic outputs — final
//! params, the MAIN supervisor's health log, simulated time — never see a
//! thread fault at all: that is the tentpole invariant.
//!
//! Time is simulated ([`device::SimClock`]): the harness never reads a wall
//! clock, so a chaos run is a pure function of `(config, schedule)` — the
//! health-event log included, byte for byte.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use comm::{Heartbeat, HeartbeatBus, RetryPolicy};
use device::{GpuType, PerfModel, SimClock, DILATION_ONE};
use easyscale::{
    CheckpointStore, Engine, ExecMode, ExecOptions, JobConfig, Placement, ThreadFault,
};
use models::Workload;
use sched::{
    Companion, FreePool, HealthEvent, HealthPolicy, HealthState, HealthTracker, InterJobScheduler,
    IntraJobScheduler, Supervisor, SupervisorAction,
};
use serde::Serialize;

use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};

/// Dilation ratio at which the straggler z-score crosses the detection
/// threshold: with the score's σ floored at median/4 and the default
/// 2000 m-σ threshold, a device running at ≥ 1.5× the population median
/// scores as slow (see `sched::health`). Latency bounds for creeping
/// stragglers count ramp rounds until this ratio is reached.
const STRAGGLER_FIRE_RATIO_MILLI: u64 = 1500;

/// Harness configuration: the job under test plus its simulated cluster.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// The training job (workload, seed, nEST, determinism level).
    pub job: JobConfig,
    /// Global steps the run must complete.
    pub total_steps: u64,
    /// Durable-checkpoint cadence (every N completed global steps).
    pub checkpoint_every: u64,
    /// GPU type of the (homogeneous) simulated cluster.
    pub gpu: GpuType,
    /// GPUs the job starts on.
    pub initial_gpus: u32,
    /// Total GPUs of that type in the cluster (the rest start free).
    pub cluster_gpus: u32,
    /// Directory for durable checkpoints (unique per run).
    pub store_dir: PathBuf,
    /// Failure-detection policy for the AIMaster supervisor. The lease is
    /// sized to twice the worst-case step (all ESTs time-slicing one GPU),
    /// so a healthy-but-overloaded worker can never miss it.
    pub health: HealthPolicy,
    /// Order the initial devices announce themselves in. Detection must be
    /// byte-identical under any permutation (the heartbeat bus
    /// canonicalizes) — the shuffled-start-order determinism test drives
    /// this knob.
    pub start_order: Vec<u32>,
    /// Worker execution mode for every engine the harness builds. Pool (the
    /// production shape) by default; the `nthread_eq_single` equivalence
    /// tests sweep this against `SingleThread`.
    pub exec_mode: ExecMode,
    /// Deadline policy for the pool's supervised drains (real wall-clock
    /// windows, since thread faults are real). Sized far past a worker's
    /// actual step latency so fault-free rounds never time out, yet small
    /// enough that injected-thread-fault tests stay quick.
    pub drain: RetryPolicy,
}

impl HarnessConfig {
    /// The chaos-matrix default: a cheap NeuMF job at full determinism
    /// (D1+D2) on a 4×V100 cluster, starting on 2 GPUs.
    pub fn default_chaos(store_dir: PathBuf) -> Self {
        let job = JobConfig::new(Workload::NeuMF, 4242, 4)
            .with_dataset_len(128)
            .with_determinism(easyscale::Determinism::d1_d2());
        let lease_us = 2 * Self::worst_step_us(&job, GpuType::V100);
        HarnessConfig {
            job,
            total_steps: 10,
            checkpoint_every: 2,
            gpu: GpuType::V100,
            initial_gpus: 2,
            cluster_gpus: 4,
            store_dir,
            health: HealthPolicy::with_lease(lease_us),
            start_order: (0..2).collect(),
            exec_mode: ExecMode::Pool,
            // 6 windows of 10ms..320ms = 630ms worst case per reap: ~100×
            // a NeuMF step round, ~0.6s per injected thread fault.
            drain: RetryPolicy { max_attempts: 6, base_backoff_us: 10_000, backoff_multiplier: 2 },
        }
    }

    /// The silent-fault detection-matrix default: same cluster as
    /// [`HarnessConfig::default_chaos`] but a longer run (14 steps), so a
    /// creeping straggler injected in the first half always has enough
    /// timed rounds left for its score to converge.
    pub fn default_detect(store_dir: PathBuf) -> Self {
        let mut cfg = Self::default_chaos(store_dir);
        cfg.total_steps = 14;
        cfg
    }

    /// Worst-case simulated duration of one global step for this job on
    /// one GPU of type `gpu`: all ESTs time-slice a single device. The
    /// heartbeat lease is sized from this.
    pub fn worst_step_us(job: &JobConfig, gpu: GpuType) -> u64 {
        let spec = job.workload.spec();
        let overhead = if job.determinism.hardware_agnostic { spec.d2_overhead } else { 1.0 };
        let perf = PerfModel::default();
        let mb = perf.minibatch_time(spec.base_v100_secs, gpu, overhead);
        (perf.easyscale_global_step(mb, job.n_ests) * 1e6) as u64
    }
}

/// One injected fault and what the harness observed happen.
#[derive(Debug, Clone)]
pub struct InjectedEvent {
    /// Global step the fault fired at.
    pub step: u64,
    /// Stable fault-kind name.
    pub kind: &'static str,
    /// Human-readable outcome ("recovered from step 4", "grant denied", …).
    pub outcome: String,
}

/// One silent fault's detection outcome: when it was injected, when (and
/// whether) the supervisor noticed, and whether the latency bound held.
#[derive(Debug, Clone, Serialize)]
pub struct DetectionRecord {
    /// Device the fault targeted.
    pub device: u32,
    /// Fault-kind name.
    pub kind: String,
    /// Virtual time of injection.
    pub injected_at_us: u64,
    /// Latency bound computed at injection (µs of SimClock time), from the
    /// health policy, the perf model, and the schedule's own event count —
    /// never from the detector's behaviour.
    pub bound_us: u64,
    /// Virtual time of the first Suspect-or-worse transition for the
    /// device at or after injection, if any.
    pub detected_at_us: Option<u64>,
    /// `detected_at_us - injected_at_us`, when detected.
    pub latency_us: Option<u64>,
    /// Detected within the bound.
    pub within_bound: bool,
    /// The fault mutated before detection could be attributed (a later
    /// silent fault hit the same device, or the device left through a
    /// planned path). Superseded records are exempt from the bound
    /// assertion; the byte-identity invariant still applies in full.
    pub superseded: bool,
}

/// Everything a chaos run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Schedule seed (0 for hand-authored schedules).
    pub seed: u64,
    /// Global steps completed.
    pub total_steps: u64,
    /// Every injected fault, in firing order, with its outcome.
    pub injected: Vec<InjectedEvent>,
    /// Process deaths taken (crashes, comm exhaustion, checkpoint faults).
    pub crashes: u32,
    /// Successful recoveries (always equals `crashes` when the run ends).
    pub recoveries: u32,
    /// Steps re-executed because a crash rewound to an older checkpoint.
    pub replayed_steps: u64,
    /// Corrupt/torn checkpoint files skipped during recovery.
    pub torn_files_skipped: u32,
    /// Simulated run duration in microseconds.
    pub sim_elapsed_us: u64,
    /// GPUs held when the run finished.
    pub final_gpus: u32,
    /// Final flat model parameters (the invariant's subject).
    pub final_params: Vec<f32>,
    /// The supervisor's full health-event log, in firing order — the
    /// deterministic detection record (byte-identical across repeat runs).
    pub health_events: Vec<HealthEvent>,
    /// Detection outcome of every armed silent fault.
    pub detections: Vec<DetectionRecord>,
    /// Devices the supervisor evicted from the allocation.
    pub evictions: u32,
    /// Devices the supervisor readmitted after probation.
    pub readmissions: u32,
    /// Pool worker threads respawned by the supervised drains (every real
    /// thread fault costs exactly one; spurious deadline hits can add
    /// more — both are bitwise-invisible).
    pub pool_respawns: u64,
    /// Respawns whose old thread was quarantined alive (stall / reply
    /// drop) rather than joined dead (panic).
    pub pool_quarantines: u64,
    /// Detection outcome of every armed pool-thread fault, on the
    /// dedicated thread-health tracker's virtual timeline.
    pub thread_detections: Vec<DetectionRecord>,
    /// The dedicated thread-health tracker's event log (synthetic
    /// virtual-time cascade; the MAIN `health_events` log never contains a
    /// thread fault).
    pub thread_health_events: Vec<HealthEvent>,
}

impl RunReport {
    /// The final parameters as raw bit patterns — byte-identity is compared
    /// on these, so `-0.0 == 0.0` and NaN payloads cannot hide a diff.
    pub fn params_bits(&self) -> Vec<u32> {
        self.final_params.iter().map(|p| p.to_bits()).collect()
    }

    /// Whether every non-superseded silent fault was detected within its
    /// latency bound.
    pub fn all_detected_within_bound(&self) -> bool {
        self.detections.iter().all(|d| d.superseded || d.within_bound)
    }

    /// Whether every non-superseded pool-thread fault was detected within
    /// its latency bound (on the dedicated tracker's virtual timeline).
    pub fn all_thread_faults_detected_within_bound(&self) -> bool {
        self.thread_detections.iter().all(|d| d.superseded || d.within_bound)
    }
}

/// A silent fault awaiting attribution to a health transition.
#[derive(Debug, Clone)]
struct PendingDetection {
    device: u32,
    kind: &'static str,
    injected_at_us: u64,
    bound_us: u64,
    detected_at_us: Option<u64>,
    superseded: bool,
}

/// An armed pool-thread fault awaiting its recovery record from the
/// engine's supervised drains.
#[derive(Debug, Clone)]
struct PendingThread {
    /// Pool slot index the fault was armed on.
    worker: u32,
    /// Stable device id whose thread carries the fault (reporting only).
    device: u32,
    kind: &'static str,
    injected_at_us: u64,
    bound_us: u64,
    detected_at_us: Option<u64>,
    superseded: bool,
}

/// The harness itself. Build with [`FaultHarness::new`], run with
/// [`FaultHarness::run`].
pub struct FaultHarness {
    cfg: HarnessConfig,
    schedule: FaultSchedule,
    /// `None` only transiently, while the process is "dead" or rescaling.
    engine: Option<Engine>,
    intra: IntraJobScheduler,
    inter: InterJobScheduler,
    free: FreePool,
    store: CheckpointStore,
    clock: SimClock,
    perf: PerfModel,
    /// Next unfired schedule entry. Monotone: a crash rewinds the engine's
    /// step counter but never this index, so each event fires exactly once.
    next_event: usize,
    /// Active slowdown: (target device, dilation milli, steps remaining).
    straggler: Option<(u32, u64, u32)>,
    /// The AIMaster's self-healing loop (detector + action mapping).
    supervisor: Supervisor,
    /// Heartbeat transport (canonicalizing drain order).
    bus: HeartbeatBus,
    /// Stable ids of the devices currently in the allocation.
    active: BTreeSet<u32>,
    /// Stable ids of free (never-allocated or released) devices. Mirrors
    /// the free-pool *count* the scheduler sees.
    free_ids: BTreeSet<u32>,
    /// Evicted-but-tracked devices sitting out a quarantine.
    parked_sick: BTreeSet<u32>,
    /// Devices that died silently (no beats ever again).
    silent_crashed: BTreeSet<u32>,
    /// Remaining heartbeats to swallow, per muted device.
    hb_drop: BTreeMap<u32, u32>,
    /// Creeping stragglers: device → (current dilation milli, ramp milli).
    creeping: BTreeMap<u32, (u64, u64)>,
    /// Armed silent faults awaiting detection.
    pending: Vec<PendingDetection>,
    /// Dedicated tracker for pool-thread faults, fed a synthetic
    /// virtual-time cascade per recovery. Never mixed into `supervisor`:
    /// the MAIN health log must stay byte-identical to the fault-free run.
    thread_health: HealthTracker,
    /// Armed pool-thread faults awaiting their recovery records.
    pending_threads: Vec<PendingThread>,
    report: RunReport,
}

impl FaultHarness {
    /// Build a harness for `cfg` and `schedule`. The checkpoint store keeps
    /// enough history that a torn newest file always has a good predecessor.
    pub fn new(cfg: HarnessConfig, schedule: FaultSchedule) -> Self {
        assert!(cfg.initial_gpus >= 1 && cfg.initial_gpus <= cfg.cluster_gpus);
        assert!(cfg.checkpoint_every >= 1);
        // Pool threads are named after the stable device ids (esw-dev{id}),
        // so a thread keeps its identity across rescale/evict cycles.
        let engine = Engine::new_opts(
            cfg.job.clone(),
            Self::placement(&cfg.job, cfg.gpu, cfg.initial_gpus),
            ExecOptions {
                mode: cfg.exec_mode,
                device_ids: (0..cfg.initial_gpus).collect(),
                drain: cfg.drain,
            },
        );
        // The companion's maxP is the job's nEST: placements must cover
        // exactly the engine's virtual ranks.
        let companion = Companion::for_workload(&cfg.job.workload.spec(), cfg.job.n_ests, false);
        let mut intra = IntraJobScheduler::new(1, companion, false);
        intra.apply_allocation(vec![(cfg.gpu, cfg.initial_gpus)]);
        let free: FreePool = [(cfg.gpu, cfg.cluster_gpus - cfg.initial_gpus)].into_iter().collect();
        let store = CheckpointStore::open(&cfg.store_dir, "chaos-job")
            .expect("store dir")
            .with_keep_last(16);
        let report = RunReport {
            seed: schedule.seed,
            total_steps: cfg.total_steps,
            injected: Vec::new(),
            crashes: 0,
            recoveries: 0,
            replayed_steps: 0,
            torn_files_skipped: 0,
            sim_elapsed_us: 0,
            final_gpus: cfg.initial_gpus,
            final_params: Vec::new(),
            health_events: Vec::new(),
            detections: Vec::new(),
            evictions: 0,
            readmissions: 0,
            pool_respawns: 0,
            pool_quarantines: 0,
            thread_detections: Vec::new(),
            thread_health_events: Vec::new(),
        };
        let thread_health = HealthTracker::new(cfg.health);
        let mut supervisor = Supervisor::new(cfg.health);
        let active: BTreeSet<u32> = (0..cfg.initial_gpus).collect();
        let free_ids: BTreeSet<u32> = (cfg.initial_gpus..cfg.cluster_gpus).collect();
        let mut bus = HeartbeatBus::new();
        // Devices announce themselves in `start_order` — a permutation that
        // MUST be invisible to detection (the bus canonicalizes, the
        // tracker is BTreeMap-keyed). Unknown ids in the order are ignored.
        for &d in &cfg.start_order {
            if active.contains(&d) {
                supervisor.register(d, 0);
                bus.publish(Heartbeat { device: d, step: 0, sent_at_us: 0, step_time_us: None });
            }
        }
        for &d in &active {
            if !cfg.start_order.contains(&d) {
                supervisor.register(d, 0);
                bus.publish(Heartbeat { device: d, step: 0, sent_at_us: 0, step_time_us: None });
            }
        }
        FaultHarness {
            cfg,
            schedule,
            engine: Some(engine),
            intra,
            inter: InterJobScheduler,
            free,
            store,
            clock: SimClock::new(),
            perf: PerfModel::default(),
            next_event: 0,
            straggler: None,
            supervisor,
            bus,
            active,
            free_ids,
            parked_sick: BTreeSet::new(),
            silent_crashed: BTreeSet::new(),
            hb_drop: BTreeMap::new(),
            creeping: BTreeMap::new(),
            pending: Vec::new(),
            thread_health,
            pending_threads: Vec::new(),
            report,
        }
    }

    /// A placement for `gpus` GPUs of one type. GPUs beyond nEST host no
    /// EST and are dropped by `Placement::homogeneous`, so the cap keeps
    /// worker count meaningful.
    fn placement(job: &JobConfig, gpu: GpuType, gpus: u32) -> Placement {
        Placement::homogeneous(job.n_ests, gpus.min(job.n_ests).max(1), gpu)
    }

    fn current_gpus(&self) -> u32 {
        self.intra.current().iter().map(|&(_, n)| n).sum()
    }

    /// Deterministic per-device duration of one local step carrying `load`
    /// ESTs (D2 kernels pay the catalog's overhead factor).
    fn device_step_us(&self, load: u32) -> u64 {
        let spec = self.cfg.job.workload.spec();
        let overhead =
            if self.cfg.job.determinism.hardware_agnostic { spec.d2_overhead } else { 1.0 };
        let mb = self.perf.minibatch_time(spec.base_v100_secs, self.cfg.gpu, overhead);
        (self.perf.easyscale_global_step(mb, load.max(1)) * 1e6) as u64
    }

    /// Simulated duration of one global step on the current allocation:
    /// the busiest GPU time-slices `ceil(nEST / gpus)` ESTs.
    fn step_time_us(&self) -> u64 {
        let gpus = self.current_gpus().max(1);
        self.device_step_us(self.cfg.job.n_ests.div_ceil(gpus))
    }

    /// Execution options for an engine built *now*: the configured mode,
    /// with the currently-active stable device ids naming the pool threads
    /// (slot order). Purely diagnostic — ids never feed the math.
    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            mode: self.cfg.exec_mode,
            device_ids: self.active.iter().copied().collect(),
            drain: self.cfg.drain,
        }
    }

    /// Map a schedule's worker index onto a live device id (n-th active,
    /// modulo the live count) — schedules address *positions*, devices
    /// have stable ids.
    fn nth_active(&self, worker: u32) -> u32 {
        let devices: Vec<u32> = self.active.iter().copied().collect();
        devices[worker as usize % devices.len()]
    }

    fn record(&mut self, step: u64, kind: &'static str, outcome: String) {
        obs::counter_add("faultsim.injected_total", 1);
        obs::counter_add(&format!("faultsim.injected.{kind}"), 1);
        self.report.injected.push(InjectedEvent { step, kind, outcome });
    }

    /// Simulated process-restart latency (data-worker respawn dominates,
    /// paper §5.1.2).
    fn restart_us(&self) -> u64 {
        let spec = self.cfg.job.workload.spec();
        (self.perf.first_minibatch_latency(spec.base_v100_secs, self.cfg.job.data_workers) * 1e6)
            as u64
    }

    /// Kill the process and recover from the newest *valid* durable
    /// checkpoint (walking past torn/corrupt files), on the current
    /// allocation. Replayed steps are counted; bitwise D1 restore makes the
    /// replay converge to exactly the lost bits.
    fn crash_and_recover(&mut self, why: &str) -> String {
        // Recoveries already taken by the dying engine's drains still
        // resolve; armed-but-unconsumed thread faults die with the pool.
        self.absorb_pool_recoveries();
        self.supersede_pending_threads();
        let step_at_death = self.engine.as_ref().map(|e| e.global_step()).unwrap_or(0);
        self.engine = None; // the process is dead; all in-memory state is gone
        self.report.crashes += 1;
        obs::counter_add("faultsim.crashes", 1);

        let gpus = self.current_gpus();
        let placement = Self::placement(&self.cfg.job, self.cfg.gpu, gpus);
        let exec = self.exec_options();
        let (engine, resumed_from, skipped) =
            match self.store.load_latest_valid().expect("store io") {
                Some((ckpt, skipped)) => {
                    let step = ckpt.global_step;
                    let e =
                        Engine::from_checkpoint_opts(self.cfg.job.clone(), placement, &ckpt, exec);
                    (e, step, skipped)
                }
                // No durable state at all: cold restart, full replay.
                None => (Engine::new_opts(self.cfg.job.clone(), placement, exec), 0, 0),
            };
        self.report.torn_files_skipped += skipped;
        self.report.replayed_steps += step_at_death.saturating_sub(resumed_from);
        self.report.recoveries += 1;
        obs::counter_add("faultsim.recoveries", 1);
        obs::counter_add("faultsim.replayed_steps", step_at_death.saturating_sub(resumed_from));

        self.clock.advance_us(self.restart_us());
        self.engine = Some(engine);
        format!("{why}: recovered from checkpoint step {resumed_from} (skipped {skipped} corrupt)")
    }

    /// Rescale the live engine onto the scheduler's current allocation
    /// (checkpoint + restore under the hood — Figure 5's path).
    fn rescale_to_current(&mut self) {
        // The rescale rebuilds every pool thread: resolve what the old pool
        // already caught, supersede what it never got to consume.
        self.absorb_pool_recoveries();
        self.supersede_pending_threads();
        let gpus = self.current_gpus();
        let placement = Self::placement(&self.cfg.job, self.cfg.gpu, gpus);
        let engine = self.engine.take().expect("live engine");
        self.engine = Some(engine.rescale_opts(placement, self.exec_options()));
        obs::counter_add("faultsim.rescales", 1);
        // Reconfiguration also pays the restart latency.
        self.clock.advance_us(self.restart_us());
    }

    // ---- silent-fault bookkeeping -------------------------------------

    /// Arm a detection expectation for a silent fault on `device`. With
    /// `assert_bound == false` the record is born superseded: detection is
    /// still tracked, but the latency bound is not asserted (used when an
    /// overlapping fault makes attribution ambiguous).
    fn arm_detection(&mut self, device: u32, kind: &'static str, assert_bound: bool) {
        let bound_us = self.detection_bound_us(kind, device);
        self.pending.push(PendingDetection {
            device,
            kind,
            injected_at_us: self.clock.now_us(),
            bound_us,
            detected_at_us: None,
            superseded: !assert_bound,
        });
    }

    /// Mark every unresolved pending on `device` superseded (a later fault
    /// or a planned removal changed the device's failure mode).
    fn supersede_pending(&mut self, device: u32) {
        for p in &mut self.pending {
            if p.device == device && p.detected_at_us.is_none() {
                p.superseded = true;
            }
        }
    }

    /// The detection-latency bound for a silent fault injected *now*.
    ///
    /// Bounds are computed from the health policy, the perf model, and the
    /// *schedule's* event count — never from anything the detector does —
    /// so they are a legitimate test oracle. Terms (all SimClock µs,
    /// saturating):
    ///
    /// * crash: `quarantine_misses` full leases must lapse, plus detection
    ///   rounds on either side;
    /// * heartbeat drop: detected at the first *suspect* transition — one
    ///   lapsed lease plus round slack;
    /// * creeping straggler: ramp rounds until the dilation crosses
    ///   [`STRAGGLER_FIRE_RATIO_MILLI`], then `suspect_windows` slow
    ///   rounds, each at most a worst-case step at the final dilation;
    /// * every bound adds an *interference allowance* per scheduled event:
    ///   other faults (and the supervisor's own recoveries/rescales) spend
    ///   simulated time — blocked rounds, checkpoint rollbacks, restart
    ///   latencies — that delays attribution without being this fault's
    ///   doing.
    fn detection_bound_us(&self, kind: &'static str, device: u32) -> u64 {
        let p = &self.cfg.health;
        let worst = self.device_step_us(self.cfg.job.n_ests);
        let restart = self.restart_us();
        let per_event = p
            .quarantine_misses
            .saturating_mul(p.lease_us)
            .saturating_add(worst.saturating_mul(4))
            .saturating_add(restart.saturating_mul(8));
        let interference = per_event.saturating_mul(self.schedule.events.len() as u64);
        let own = match kind {
            "silent_crash" => {
                p.quarantine_misses.saturating_mul(p.lease_us).saturating_add(worst * 4)
            }
            "heartbeat_drop" => p.lease_us.saturating_add(worst * 4),
            "creeping_straggler" => {
                let (start, ramp) = self.creeping.get(&device).copied().unwrap_or((1500, 300));
                let cross_rounds = if start >= STRAGGLER_FIRE_RATIO_MILLI {
                    0
                } else {
                    (STRAGGLER_FIRE_RATIO_MILLI - start).div_ceil(ramp.max(1))
                };
                let rounds = cross_rounds + p.suspect_windows as u64 + 2;
                let final_factor = start.saturating_add(ramp.saturating_mul(rounds));
                rounds
                    .saturating_mul(worst.saturating_mul(final_factor) / DILATION_ONE)
                    .saturating_add(p.lease_us)
            }
            _ => p.quarantine_misses.saturating_mul(p.lease_us).saturating_add(worst * 4),
        };
        own.saturating_add(interference)
    }

    // ---- pool-thread fault bookkeeping --------------------------------

    /// Arm a real fault on a pool worker thread and record the detection
    /// expectation. Single-thread engines have no pool threads: the event
    /// is a logged no-op, which keeps thread-fault schedules runnable (and
    /// byte-comparable) in every exec mode.
    fn inject_thread(&mut self, worker: u32, fault: ThreadFault, kind: &'static str) -> String {
        let armed = match self.engine.as_mut() {
            Some(e) => e.inject_thread_fault(worker as usize, fault),
            None => None,
        };
        match armed {
            Some(idx) => {
                let idx = idx as u32;
                let device = self.nth_active(idx);
                // A second fault on the same slot changes its failure mode
                // before the first was attributed: supersede the older arm.
                for p in &mut self.pending_threads {
                    if p.worker == idx && p.detected_at_us.is_none() {
                        p.superseded = true;
                    }
                }
                let bound_us = self.thread_bound_us();
                self.pending_threads.push(PendingThread {
                    worker: idx,
                    device,
                    kind,
                    injected_at_us: self.clock.now_us(),
                    bound_us,
                    detected_at_us: None,
                    superseded: false,
                });
                format!("pool thread esw-dev{device} armed with a real {kind}")
            }
            None => format!("single-thread engine: no pool thread to fault; {kind} is a no-op"),
        }
    }

    /// The detection-latency bound for a pool-thread fault injected *now*,
    /// on the dedicated tracker's virtual timeline: the supervised drain's
    /// full deadline (worst case before the pool reaps the thread), plus
    /// the lease periods the health policy needs to quarantine, plus one
    /// lease of slack. Computed from policy alone — never from what the
    /// drains actually did — so it is a legitimate test oracle.
    fn thread_bound_us(&self) -> u64 {
        let p = &self.cfg.health;
        self.cfg
            .drain
            .total_backoff_us()
            .saturating_add((p.quarantine_misses + 1).saturating_mul(p.lease_us + 1))
    }

    /// Supersede every unresolved pool-thread expectation (the pool is
    /// being torn down — crash or rescale — so an armed fault may never be
    /// consumed and a detection can no longer be attributed).
    fn supersede_pending_threads(&mut self) {
        for p in &mut self.pending_threads {
            if p.detected_at_us.is_none() {
                p.superseded = true;
            }
        }
    }

    /// Fold the engine's pool-recovery records (real thread faults its
    /// supervised drains caught) into the report, and resolve pending
    /// expectations through the dedicated thread-health tracker.
    ///
    /// The tracker is fed a *synthetic, fully deterministic* cascade: the
    /// faulted device registers at `injected_at + drain.total_backoff_us()`
    /// (the drain's worst-case reap instant, from policy, not from the
    /// wall clock) and then misses one lease per detection round until the
    /// policy quarantines it. Real time never enters, so the thread-health
    /// log is byte-identical across runs and machines; real detections can
    /// only be *earlier* than this model, never later.
    fn absorb_pool_recoveries(&mut self) {
        let recoveries = match self.engine.as_mut() {
            Some(e) => e.take_pool_recoveries(),
            None => return,
        };
        for rec in recoveries {
            self.report.pool_respawns += 1;
            if rec.kind == "drain-timeout" {
                self.report.pool_quarantines += 1;
            }
            // Only live expectations attract recoveries: a superseded arm
            // was overwritten in the worker's single armed-fault slot (or
            // its pool was torn down), so it never fires.
            let Some(p) = self.pending_threads.iter_mut().find(|p| {
                p.worker == rec.worker as u32 && p.detected_at_us.is_none() && !p.superseded
            }) else {
                // Spurious deadline hit (no armed fault): counters only —
                // the replacement replayed from the mirror, so nothing
                // deterministic moved.
                continue;
            };
            let policy = self.thread_health.policy();
            let lease_round = policy.lease_us + 1;
            let quarantine_misses = policy.quarantine_misses;
            let base = p.injected_at_us.saturating_add(rec.virtual_latency_us);
            self.thread_health.register(p.device, base);
            let mut detected = None;
            for r in 1..=quarantine_misses {
                let now = base.saturating_add(r.saturating_mul(lease_round));
                for ev in self.thread_health.end_of_round(now) {
                    if ev.device == p.device && ev.to == HealthState::Quarantined {
                        detected = Some(ev.at_us);
                    }
                }
            }
            self.thread_health.deregister(p.device);
            p.detected_at_us = detected;
            if let Some(d) = detected {
                obs::observe(
                    "health.thread_detection_latency_us",
                    d.saturating_sub(p.injected_at_us) as f64,
                );
            }
        }
    }

    /// Whether a heartbeat drop of `beats` is guaranteed to lapse a lease
    /// even at the fastest possible round cadence (every device hosting a
    /// single EST). Shorter drops are benign — the detector may or may not
    /// flag them, so no bound is asserted.
    fn drop_is_detectable(&self, beats: u32) -> bool {
        let min_round = self.device_step_us(1);
        (beats as u64).saturating_mul(min_round)
            >= self.cfg.health.lease_us.saturating_add(2 * min_round)
    }

    /// Whether stepping is impossible: a silently-dead device is still in
    /// the allocation, so the all-reduce would hang on it. The harness
    /// models the hang as blocked rounds — the clock advances, survivors
    /// ping, the detector works — until the supervisor evicts the corpse.
    fn blocked(&self) -> bool {
        self.active.iter().any(|d| self.silent_crashed.contains(d))
    }

    /// A device joins the allocation. Reprovisioning repairs silent fault
    /// state: a fresh process on a fresh (or restarted) device neither
    /// creeps nor drops beats.
    fn activate_device(&mut self, id: u32) {
        self.active.insert(id);
        self.silent_crashed.remove(&id);
        self.creeping.remove(&id);
        self.hb_drop.remove(&id);
        self.supervisor.register(id, self.clock.now_us());
    }

    /// A device leaves through a *planned* path (scale-in, preemption): the
    /// detector forgets it and any armed detection on it is superseded.
    fn deactivate_planned(&mut self, id: u32) {
        self.active.remove(&id);
        self.supervisor.deregister(id);
        self.supersede_pending(id);
        self.silent_crashed.remove(&id);
        self.creeping.remove(&id);
        self.hb_drop.remove(&id);
    }

    /// The `count` highest active device ids (the deterministic choice for
    /// releases/revocations).
    fn highest_active(&self, count: u32) -> Vec<u32> {
        self.active.iter().rev().take(count as usize).copied().collect()
    }

    // ---- heartbeats + detection rounds --------------------------------

    /// Emit this round's heartbeats: every live device in the allocation
    /// (with its step timing if it stepped), plus liveness pings from
    /// parked-sick devices (their path back is probation). Silently
    /// crashed devices never beat; muted devices consume their drop
    /// budget instead of beating.
    fn emit_beats(&mut self, step: u64, times: Option<&BTreeMap<u32, u64>>) {
        let now = self.clock.now_us();
        let devices: Vec<u32> =
            self.active.iter().chain(self.parked_sick.iter()).copied().collect();
        for d in devices {
            if self.silent_crashed.contains(&d) {
                continue;
            }
            if let Some(left) = self.hb_drop.get_mut(&d) {
                *left -= 1;
                if *left == 0 {
                    self.hb_drop.remove(&d);
                }
                obs::counter_add("health.heartbeats_dropped", 1);
                continue;
            }
            let step_time_us = times.and_then(|m| m.get(&d).copied()).filter(|&t| t > 0);
            self.bus.publish(Heartbeat { device: d, step, sent_at_us: now, step_time_us });
        }
    }

    /// One detection round: drain the bus into the supervisor, tick it,
    /// attribute new transitions to pending silent faults, and apply the
    /// allocation actions it ordered.
    fn health_round(&mut self) {
        for beat in self.bus.drain_sorted() {
            self.supervisor.observe(&beat);
        }
        let before = self.supervisor.events().len();
        let actions = self.supervisor.tick(self.clock.now_us());
        self.resolve_detections(before);
        self.apply_actions(actions);
    }

    /// Attribute transitions (Suspect or worse) appended since `from` to
    /// the pending silent faults on the same device.
    fn resolve_detections(&mut self, from: usize) {
        let new_events: Vec<HealthEvent> = self.supervisor.events()[from..].to_vec();
        for ev in new_events {
            if !matches!(ev.to, HealthState::Suspect | HealthState::Quarantined) {
                continue;
            }
            for p in &mut self.pending {
                if p.device == ev.device
                    && p.detected_at_us.is_none()
                    && ev.at_us >= p.injected_at_us
                {
                    p.detected_at_us = Some(ev.at_us);
                    let latency = ev.at_us - p.injected_at_us;
                    obs::observe("health.detection_latency_us", latency as f64);
                }
            }
        }
    }

    /// Apply the supervisor's allocation actions. Everything here goes
    /// through the same rescale/recover paths as announced faults, so it
    /// is bitwise-invisible by construction.
    fn apply_actions(&mut self, actions: Vec<SupervisorAction>) {
        for action in actions {
            match action {
                SupervisorAction::Evict { device, assume_crash } => {
                    if !self.active.contains(&device) {
                        continue; // already out (e.g. planned removal raced)
                    }
                    obs::counter_add("health.evictions", 1);
                    self.report.evictions += 1;
                    if self.active.len() == 1 && self.free_ids.is_empty() {
                        // Nothing to fail over to: restart the worker
                        // process in place on the last device. The restart
                        // reprovisions it (clears silent fault state) and
                        // recovers from the last-good checkpoint.
                        self.supervisor.deregister(device);
                        self.activate_device(device);
                        self.crash_and_recover("supervisor: restarted last device in place");
                        continue;
                    }
                    self.active.remove(&device);
                    self.parked_sick.insert(device);
                    // Claim a spare as a replacement when one is free.
                    if let Some(&spare) = self.free_ids.iter().next() {
                        self.free_ids.remove(&spare);
                        if let Some(n) = self.free.get_mut(&self.cfg.gpu) {
                            *n = n.saturating_sub(1);
                        }
                        self.activate_device(spare);
                    }
                    self.intra.apply_allocation(vec![(self.cfg.gpu, self.active.len() as u32)]);
                    if assume_crash {
                        // Lost lease ⇒ presumed dead ⇒ in-memory state on
                        // that device is gone: fall back to the last-good
                        // durable checkpoint on the survivors.
                        self.crash_and_recover("supervisor: evicted device on lost lease");
                    } else {
                        // Straggler ⇒ alive, nothing lost: plain rescale.
                        self.rescale_to_current();
                    }
                }
                SupervisorAction::Readmit { device } => {
                    if !self.parked_sick.contains(&device) || self.silent_crashed.contains(&device)
                    {
                        continue;
                    }
                    obs::counter_add("health.readmissions", 1);
                    self.report.readmissions += 1;
                    self.parked_sick.remove(&device);
                    // NOT activate_device: the device is on probation, its
                    // fault state (e.g. a creeping slowdown) persists — the
                    // detector must re-confirm or re-quarantine it.
                    self.active.insert(device);
                    self.intra.apply_allocation(vec![(self.cfg.gpu, self.active.len() as u32)]);
                    self.rescale_to_current();
                }
            }
        }
    }

    /// A blocked round: the job cannot step (a silent corpse is in the
    /// all-reduce), but virtual time still passes, survivors still ping,
    /// and the detector still runs — this is exactly the window the
    /// detection-latency bound measures.
    fn blocked_tick(&mut self) {
        let step = self.engine.as_ref().map(|e| e.global_step()).unwrap_or(0);
        self.clock.advance_us(self.step_time_us().max(1));
        self.emit_beats(step, None);
        self.health_round();
    }

    fn apply_event(&mut self, ev: FaultEvent) {
        let step = ev.step;
        let kind = ev.kind.name();
        let outcome = match ev.kind {
            FaultKind::WorkerCrash => self.crash_and_recover("crash"),
            FaultKind::Straggler { worker, factor_milli, steps } => {
                let dev = self.nth_active(worker);
                self.straggler = Some((dev, factor_milli.max(DILATION_ONE), steps));
                format!("device {dev} dilated {factor_milli}/1000 for {steps} steps")
            }
            FaultKind::Preemption { gpus } => {
                let before = self.current_gpus();
                let alloc = self.intra.apply_preemption(self.cfg.gpu, gpus);
                let after: u32 = alloc.iter().map(|&(_, n)| n).sum();
                // Revoked GPUs go to the reclaimer (serving side), not back
                // to the elastic free pool.
                for id in self.highest_active(before - after) {
                    self.deactivate_planned(id);
                }
                self.rescale_to_current();
                format!("revoked {gpus}: {before} → {after} GPUs")
            }
            FaultKind::ScaleOut { gpus } => {
                let before = self.current_gpus();
                let proposals = self.intra.proposals(&self.free, gpus as usize);
                let decisions = self.inter.decide(proposals, &mut self.free);
                match decisions.iter().find(|d| d.job == self.intra.job()) {
                    Some(d) => {
                        let mut alloc = self.intra.current().clone();
                        match alloc.iter_mut().find(|(t, _)| *t == d.gpu) {
                            Some(slot) => slot.1 += d.count,
                            None => alloc.push((d.gpu, d.count)),
                        }
                        let granted = d.count;
                        for _ in 0..granted {
                            if let Some(&spare) = self.free_ids.iter().next() {
                                self.free_ids.remove(&spare);
                                self.activate_device(spare);
                            }
                        }
                        self.intra.apply_allocation(alloc);
                        self.rescale_to_current();
                        format!("granted {granted}: {before} → {} GPUs", self.current_gpus())
                    }
                    None => "grant denied (no beneficial proposal or no free GPUs)".to_string(),
                }
            }
            FaultKind::ScaleIn { gpus } => {
                let before = self.current_gpus();
                let after = before.saturating_sub(gpus).max(1);
                if after == before {
                    "already at one GPU; nothing to release".to_string()
                } else {
                    *self.free.entry(self.cfg.gpu).or_insert(0) += before - after;
                    for id in self.highest_active(before - after) {
                        self.deactivate_planned(id);
                        self.free_ids.insert(id);
                    }
                    self.intra.apply_allocation(vec![(self.cfg.gpu, after)]);
                    self.rescale_to_current();
                    format!("released {}: {before} → {after} GPUs", before - after)
                }
            }
            FaultKind::CommFailure { failures } => {
                let engine = self.engine.as_mut().expect("live engine");
                engine.inject_comm_faults(comm::FaultScript::failures(failures));
                format!("armed {failures} transient allreduce failures")
            }
            FaultKind::TornCheckpoint { keep_frac_milli } => {
                // The checkpoint write is interrupted partway and the
                // process dies with it: the newest file on disk is torn.
                let engine = self.engine.as_mut().expect("live engine");
                self.store.save_torn(&engine.checkpoint(), keep_frac_milli).expect("store io");
                self.crash_and_recover("torn checkpoint write")
            }
            FaultKind::BitFlippedCheckpoint { bit_index } => {
                if let Some(&newest) = self.store.list_steps().expect("store io").last() {
                    self.store.inject_bitflip(newest, bit_index).expect("store io");
                }
                self.crash_and_recover("bit-flipped checkpoint")
            }
            FaultKind::SilentCrash { worker } => {
                let dev = self.nth_active(worker);
                if self.silent_crashed.contains(&dev) {
                    format!("device {dev} is already silently dead; no-op")
                } else {
                    // The crash changes the device's failure mode: earlier
                    // armed faults on it can no longer be attributed.
                    self.supersede_pending(dev);
                    self.silent_crashed.insert(dev);
                    self.creeping.remove(&dev);
                    self.hb_drop.remove(&dev);
                    self.arm_detection(dev, "silent_crash", true);
                    format!("device {dev} died silently — nobody was told")
                }
            }
            FaultKind::CreepingStraggler { worker, start_milli, ramp_milli } => {
                let dev = self.nth_active(worker);
                let start = start_milli.max(DILATION_ONE);
                if self.silent_crashed.contains(&dev) {
                    format!("device {dev} is silently dead; creep is moot")
                } else if let std::collections::btree_map::Entry::Vacant(slot) =
                    self.creeping.entry(dev)
                {
                    slot.insert((start, ramp_milli));
                    // A concurrent beat mute makes score-based attribution
                    // unbounded (no timings arrive) — track, don't assert.
                    let bounded = !self.hb_drop.contains_key(&dev);
                    self.arm_detection(dev, "creeping_straggler", bounded);
                    format!(
                        "device {dev} creeping from {start}/1000, +{ramp_milli}/step — silently"
                    )
                } else {
                    format!("device {dev} is already creeping; no-op")
                }
            }
            FaultKind::ThreadPanic { worker } => {
                self.inject_thread(worker, ThreadFault::Panic, "thread_panic")
            }
            FaultKind::ThreadStall { worker } => {
                self.inject_thread(worker, ThreadFault::Stall, "thread_stall")
            }
            FaultKind::ReplyDrop { worker } => {
                self.inject_thread(worker, ThreadFault::ReplyDrop, "reply_drop")
            }
            FaultKind::HeartbeatDrop { worker, beats } => {
                let dev = self.nth_active(worker);
                if self.silent_crashed.contains(&dev) {
                    format!("device {dev} is silently dead; nothing to mute")
                } else if self.hb_drop.contains_key(&dev) {
                    format!("device {dev} is already muted; no-op")
                } else if beats == 0 {
                    "zero-beat drop; no-op".to_string()
                } else {
                    // Muting a creeping device stalls its score — any armed
                    // creep detection on it loses its bound.
                    if self.creeping.contains_key(&dev) {
                        self.supersede_pending(dev);
                    }
                    self.hb_drop.insert(dev, beats);
                    let detectable = self.drop_is_detectable(beats);
                    self.arm_detection(dev, "heartbeat_drop", detectable);
                    format!(
                        "device {dev} mutes its next {beats} heartbeats ({})",
                        if detectable { "must be detected" } else { "benign-length drop" }
                    )
                }
            }
        };
        self.record(step, kind, outcome);
    }

    /// Drive the run to completion and return the report.
    pub fn run(mut self) -> RunReport {
        // Step-0 durable checkpoint: even a crash on the very first step
        // has something to recover from.
        self.store
            .save(&self.engine.as_mut().expect("live engine").checkpoint())
            .expect("store io");

        loop {
            let step = self.engine.as_ref().expect("live engine").global_step();
            if step >= self.cfg.total_steps {
                break;
            }
            // Fire every event due at this step. The index only advances,
            // so post-crash replays never re-fire an event.
            while self.next_event < self.schedule.events.len()
                && self.schedule.events[self.next_event].step <= step
            {
                let ev = self.schedule.events[self.next_event].clone();
                self.next_event += 1;
                self.apply_event(ev);
            }
            // A silent corpse in the allocation blocks the all-reduce: no
            // step happens, but time passes and the detector hunts.
            if self.blocked() {
                self.blocked_tick();
                continue;
            }
            // A fired event may have rewound the step counter (crash) —
            // re-read before stepping.
            let engine = self.engine.as_mut().expect("live engine");
            let comm_pending = engine.pending_comm_faults();
            match engine.try_step() {
                Ok(result) => {
                    // Real thread faults the step's supervised drains caught
                    // (and recovered, bitwise-invisibly): fold them into the
                    // dedicated thread-health timeline.
                    self.absorb_pool_recoveries();
                    // Armed comm faults below the retry budget were absorbed
                    // in-step; account their backoff in simulated time.
                    if comm_pending > 0 {
                        let policy = comm::RetryPolicy::default();
                        for retry in 1..=comm_pending.min(policy.max_attempts - 1) {
                            self.clock.advance_us(policy.backoff_us(retry));
                        }
                        obs::counter_add("faultsim.comm_faults_absorbed", 1);
                    }
                    // Deterministic per-device step timings: EST load
                    // through the perf model, dilated per-device by any
                    // straggler fault. The round lasts as long as the
                    // slowest device (synchronous training).
                    let devices: Vec<u32> = self.active.iter().copied().collect();
                    let loads = &result.per_worker_load;
                    let mut times: BTreeMap<u32, u64> = BTreeMap::new();
                    for (i, &d) in devices.iter().enumerate() {
                        let load = loads.get(i).copied().unwrap_or(0);
                        let mut t = if load == 0 { 0 } else { self.device_step_us(load) };
                        if let Some((sdev, factor, _)) = self.straggler {
                            if sdev == d {
                                t = t.saturating_mul(factor) / DILATION_ONE;
                            }
                        }
                        if let Some(&(factor, _)) = self.creeping.get(&d) {
                            t = t.saturating_mul(factor) / DILATION_ONE;
                        }
                        times.insert(d, t);
                    }
                    let round = times.values().copied().max().unwrap_or(0).max(1);
                    self.clock.advance_us(round);
                    if let Some((sdev, factor, left)) = self.straggler {
                        self.straggler = (left > 1).then_some((sdev, factor, left - 1));
                    }
                    let done = self.engine.as_ref().expect("live engine").global_step();
                    self.emit_beats(done, Some(&times));
                    // The creep creeps: active creepers degrade further
                    // with every completed step.
                    for (d, f) in self.creeping.iter_mut() {
                        if self.active.contains(d) {
                            f.0 = f.0.saturating_add(f.1);
                        }
                    }
                    if done.is_multiple_of(self.cfg.checkpoint_every) {
                        let ckpt = self.engine.as_mut().expect("live engine").checkpoint();
                        self.store.save(&ckpt).expect("store io");
                    }
                    self.health_round();
                }
                Err(e) => {
                    // Retries exhausted: the engine is poisoned (paper
                    // §2.1's worker-death case). Take the crash path.
                    let outcome = self.crash_and_recover("comm retries exhausted");
                    self.record(step, "comm_exhausted", format!("{e}; {outcome}"));
                    obs::counter_add("faultsim.comm_exhausted", 1);
                }
            }
        }

        let engine = self.engine.take().expect("live engine");
        self.report.final_gpus = self.current_gpus();
        self.report.sim_elapsed_us = self.clock.now_us();
        self.report.final_params = engine.flat_params();
        self.report.health_events = self.supervisor.events().to_vec();
        self.report.thread_health_events = self.thread_health.events().to_vec();
        self.report.thread_detections = self
            .pending_threads
            .iter()
            .map(|p| DetectionRecord {
                device: p.device,
                kind: p.kind.to_string(),
                injected_at_us: p.injected_at_us,
                bound_us: p.bound_us,
                detected_at_us: p.detected_at_us,
                latency_us: p.detected_at_us.map(|d| d - p.injected_at_us),
                within_bound: p.detected_at_us.is_some_and(|d| d - p.injected_at_us <= p.bound_us),
                superseded: p.superseded,
            })
            .collect();
        self.report.detections = self
            .pending
            .iter()
            .map(|p| DetectionRecord {
                device: p.device,
                kind: p.kind.to_string(),
                injected_at_us: p.injected_at_us,
                bound_us: p.bound_us,
                detected_at_us: p.detected_at_us,
                latency_us: p.detected_at_us.map(|d| d - p.injected_at_us),
                within_bound: p.detected_at_us.is_some_and(|d| d - p.injected_at_us <= p.bound_us),
                superseded: p.superseded,
            })
            .collect();
        obs::gauge_set("faultsim.sim_elapsed_us", self.report.sim_elapsed_us as f64);
        self.report
    }
}

/// The fault-free reference: same job, same initial placement, no store, no
/// faults. Its final parameters are the byte-identity target every chaos
/// run is compared against.
pub fn run_fault_free(cfg: &HarnessConfig) -> Vec<f32> {
    let mut engine = Engine::new_opts(
        cfg.job.clone(),
        Placement::homogeneous(cfg.job.n_ests, cfg.initial_gpus.min(cfg.job.n_ests), cfg.gpu),
        ExecOptions {
            mode: cfg.exec_mode,
            device_ids: (0..cfg.initial_gpus).collect(),
            drain: cfg.drain,
        },
    );
    engine.run(cfg.total_steps);
    engine.flat_params()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("easyscale-faultsim-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fault_free_schedule_matches_reference() {
        let dir = tmp("nofault");
        let cfg = HarnessConfig::default_chaos(dir.clone());
        let reference = run_fault_free(&cfg);
        let report = FaultHarness::new(cfg, FaultSchedule::fault_free()).run();
        assert_eq!(report.final_params, reference);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.replayed_steps, 0);
        assert!(report.health_events.is_empty(), "no faults, no transitions");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_replays_and_converges() {
        let dir = tmp("crash");
        let cfg = HarnessConfig::default_chaos(dir.clone());
        let reference = run_fault_free(&cfg);
        let schedule =
            FaultSchedule::from_events(vec![FaultEvent { step: 3, kind: FaultKind::WorkerCrash }]);
        let report = FaultHarness::new(cfg, schedule).run();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.replayed_steps, 1, "crash at step 3 rewinds to the step-2 checkpoint");
        assert_eq!(report.final_params, reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn straggler_dilates_time_but_not_bits() {
        let dir_a = tmp("straggler-a");
        let dir_b = tmp("straggler-b");
        let cfg_a = HarnessConfig::default_chaos(dir_a.clone());
        let cfg_b = HarnessConfig::default_chaos(dir_b.clone());
        let clean = FaultHarness::new(cfg_a, FaultSchedule::fault_free()).run();
        let slow = FaultHarness::new(
            cfg_b,
            FaultSchedule::from_events(vec![FaultEvent {
                step: 1,
                kind: FaultKind::Straggler { worker: 0, factor_milli: 3000, steps: 4 },
            }]),
        )
        .run();
        assert_eq!(clean.params_bits(), slow.params_bits());
        assert!(
            slow.sim_elapsed_us > clean.sim_elapsed_us,
            "dilation must cost simulated time: {} vs {}",
            slow.sim_elapsed_us,
            clean.sim_elapsed_us
        );
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn scale_out_is_granted_when_gpus_are_free() {
        let dir = tmp("scaleout");
        let cfg = HarnessConfig::default_chaos(dir.clone());
        let reference = run_fault_free(&cfg);
        let schedule = FaultSchedule::from_events(vec![FaultEvent {
            step: 2,
            kind: FaultKind::ScaleOut { gpus: 2 },
        }]);
        let report = FaultHarness::new(cfg, schedule).run();
        assert!(report.final_gpus > 2, "2 free GPUs existed; the grant must land");
        assert_eq!(report.final_params, reference, "scale-out is bitwise invisible");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn silent_crash_blocks_until_detected_then_recovers() {
        let dir = tmp("silent-crash");
        let cfg = HarnessConfig::default_detect(dir.clone());
        let reference = run_fault_free(&cfg);
        let schedule = FaultSchedule::from_events(vec![FaultEvent {
            step: 3,
            kind: FaultKind::SilentCrash { worker: 1 },
        }]);
        let report = FaultHarness::new(cfg, schedule).run();
        assert_eq!(report.final_params, reference, "recovery must stay byte-identical");
        assert_eq!(report.evictions, 1, "the corpse is evicted exactly once");
        assert_eq!(report.crashes, 1, "lost lease ⇒ checkpoint fallback");
        assert_eq!(report.detections.len(), 1);
        let d = &report.detections[0];
        assert!(d.within_bound, "detection must respect the latency bound: {d:?}");
        assert!(report.health_events.iter().any(|e| e.to == sched::HealthState::Quarantined));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
