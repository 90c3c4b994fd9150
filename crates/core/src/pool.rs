//! Persistent worker-thread pool: each physical worker lives on one
//! supervised OS thread for the engine's lifetime.
//!
//! The engine spawns one named thread per physical worker when it is built,
//! drives the threads over per-worker FIFO command channels, and respawns
//! them only on `rescale` (where the worker set itself changes) or when a
//! worker *faults* and the supervisor replaces it. The protocol is four
//! commands — `Step`, `Apply`, `Arm`, `Exit` — and one way back: after
//! every `Step` a worker publishes its local steps plus a post-step
//! [`WorkerSnapshot`] into a keyed [`Exchange`]. `Apply` only changes
//! parameters, which the engine mirrors bitwise, so the stored snapshots
//! plus the mirror *are* each worker's state: checkpoints, evaluation and
//! fault respawns all read them, and no command ever asks a worker for
//! anything else.
//!
//! Determinism story (docs/PARALLELISM.md): worker threads run local steps
//! concurrently, so *completion* order is up to the OS scheduler — classic
//! D1 entropy. Every result crosses back to the engine through the
//! exchange, drained with [`Exchange::drain_deadline`] (a declared detlint
//! taint barrier) in canonical worker order. Past that fence no bit depends
//! on scheduling, which is what the `nthread_eq_single` proptest checks end
//! to end.
//!
//! Supervision story (docs/HEALTH.md): a worker that panics, stalls past
//! the drain deadline, or silently drops its publish surfaces as a typed
//! [`PoolError`] naming the `esw-dev<id>` thread. The supervisor then reaps
//! the thread (joining it if dead, quarantining it if merely unresponsive),
//! asks the engine for a replacement worker seeded from the engine-held
//! param mirror (proven bitwise-equal to every replica) and the slot's last
//! snapshot, reinstalls it on a fresh thread, and replays the interrupted
//! step. Because replacements are rebuilt from pre-step state and results
//! still cross the canonical fence, recovery is invisible in the
//! deterministic outputs: post-recovery params are byte-identical to a
//! fault-free run.

use crate::est::EstContext;
use crate::worker::{EasyScaleWorker, LocalStep};
use comm::exchange::{channel, Receiver, Sender};
use comm::{Exchange, ExchangeTx, RetryPolicy};
use data::LoaderCheckpoint;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};

/// How the engine executes its physical workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Persistent worker threads (the default): one OS thread per physical
    /// worker for the engine's lifetime, respawned only on rescale.
    #[default]
    Pool,
    /// Everything on the caller's thread, workers stepped sequentially.
    /// The reference for the N-thread ≡ 1-thread equivalence tests.
    SingleThread,
}

/// Execution options for an [`Engine`](crate::Engine).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker execution mode.
    pub mode: ExecMode,
    /// Stable device ids used to *name* pool threads (`esw-dev{id}`), in
    /// slot order. Purely diagnostic — ids never feed the math. When empty,
    /// slot indices are used.
    pub device_ids: Vec<u32>,
    /// Deadline policy for supervised pool drains: each missing result is
    /// waited for through `max_attempts` exponentially growing windows
    /// before the worker is declared faulty (see
    /// [`RetryPolicy::total_backoff_us`] for the resulting detection
    /// budget). Real-time only — these waits never touch simulated time or
    /// any deterministic output, so a too-aggressive policy costs spurious
    /// respawns (counters), never bits.
    pub drain: RetryPolicy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::default(),
            device_ids: Vec::new(),
            // 25ms·(2^8−1) ≈ 6.4s total: generous enough that a healthy
            // worker under worst-case CI scheduling never trips it, small
            // enough that a dead worker is reaped within seconds.
            drain: RetryPolicy { max_attempts: 8, base_backoff_us: 25_000, backoff_multiplier: 2 },
        }
    }
}

/// Counters a [`WorkerPool`] keeps about itself (see
/// [`Engine::pool_stats`](crate::Engine::pool_stats)). Tests use these to
/// prove threads persist across steps; they are engine-local, unlike the
/// process-global `obs` counters, so parallel tests cannot race on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads currently alive.
    pub workers: usize,
    /// Global-step rounds served by these threads since spawn.
    pub steps_served: u64,
}

/// A worker's state beyond its parameters: everything the engine needs to
/// assemble a checkpoint, to evaluate, and to seed a bitwise-identical
/// replacement after a fault (see [`EasyScaleWorker::restored`]).
#[derive(Debug, Clone)]
pub struct WorkerSnapshot {
    /// The worker's EST contexts, in slot order.
    pub contexts: Vec<EstContext>,
    /// The worker's data-pool cursors (all ranks; only locally-owned ones
    /// have advanced).
    pub loader: LoaderCheckpoint,
}

impl WorkerSnapshot {
    /// Capture `worker`'s checkpoint-relevant state.
    pub fn capture(worker: &EasyScaleWorker) -> Self {
        WorkerSnapshot { contexts: worker.contexts().to_vec(), loader: worker.pool_checkpoint() }
    }
}

/// A real fault injected into a pool worker thread (faultsim chaos). Armed
/// via [`WorkerPool::arm_fault`]; the worker consumes it at its next `Step`
/// command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadFault {
    /// The worker thread panics mid-step, publishing nothing.
    Panic,
    /// The worker parks past every drain deadline, publishing nothing. The
    /// supervisor's quarantine unparks it so it can exit and be joined.
    Stall,
    /// The worker runs its step but suppresses the publish, then keeps
    /// serving — a live thread whose results silently vanish.
    ReplyDrop,
}

/// Why a supervised pool interaction failed, naming the offending worker
/// slot and its `esw-dev<id>` thread. Never returned for conditions the
/// supervisor already recovered — callers see these through the recovery
/// log, not as errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The worker's thread exited — panicked (payload attached) or returned
    /// early. Its results for the interrupted command are lost.
    WorkerDead {
        /// Worker slot index.
        worker: usize,
        /// Device id the thread was named for.
        device: u32,
        /// The panic payload, if the thread panicked (None: clean early exit).
        panic_msg: Option<String>,
    },
    /// The worker's thread is alive but produced nothing within the drain
    /// policy's whole backoff budget — stalled, wedged, or silently dropping
    /// its publishes. The thread is quarantined, not joined (it may never
    /// exit on its own; joining it would hang the engine).
    DrainTimeout {
        /// Worker slot index.
        worker: usize,
        /// Device id the thread was named for.
        device: u32,
    },
}

impl PoolError {
    /// Worker slot index the fault was attributed to.
    pub fn worker(&self) -> usize {
        match *self {
            PoolError::WorkerDead { worker, .. } | PoolError::DrainTimeout { worker, .. } => worker,
        }
    }

    /// Device id of the faulty worker's thread.
    pub fn device(&self) -> u32 {
        match *self {
            PoolError::WorkerDead { device, .. } | PoolError::DrainTimeout { device, .. } => device,
        }
    }

    /// The faulty thread's name (`esw-dev<id>`).
    pub fn thread_name(&self) -> String {
        format!("esw-dev{}", self.device())
    }

    /// Stable kind tag for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            PoolError::WorkerDead { .. } => "worker-dead",
            PoolError::DrainTimeout { .. } => "drain-timeout",
        }
    }

    /// The dead worker's panic payload, if any.
    pub fn panic_msg(&self) -> Option<&str> {
        match self {
            PoolError::WorkerDead { panic_msg, .. } => panic_msg.as_deref(),
            PoolError::DrainTimeout { .. } => None,
        }
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerDead { worker, panic_msg, .. } => match panic_msg {
                Some(msg) => {
                    write!(f, "worker {worker} ({}) died: {msg}", self.thread_name())
                }
                None => write!(f, "worker {worker} ({}) exited early", self.thread_name()),
            },
            PoolError::DrainTimeout { worker, .. } => {
                write!(f, "worker {worker} ({}) missed the drain deadline", self.thread_name())
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Builds a replacement worker for a faulted slot. The engine seeds it from
/// its param mirror plus the slot's last [`WorkerSnapshot`] (pre-interrupted-
/// step state), which is exactly what replaying the interrupted step needs
/// for bitwise-identical recovery.
pub type RespawnFn<'a> = dyn FnMut(&PoolError, &WorkerSnapshot) -> Box<EasyScaleWorker> + 'a;

/// One engine→worker command. Per-worker channels are FIFO, so a worker
/// observes commands in exactly the engine's program order — `Apply` always
/// lands before the next `Step`, no acknowledgement needed.
enum Cmd {
    /// Run one local step per hosted EST and publish the batch.
    Step {
        /// Round sequence number, echoed back for protocol assertions and
        /// stale-result filtering after a recovery.
        seq: u64,
        /// Epoch of this global step.
        epoch: u64,
        /// Learning rate of this global step (echoed; local steps don't use it).
        lr: f32,
    },
    /// Apply the (identical-everywhere) optimizer delta to the replica.
    Apply(Arc<Vec<f32>>),
    /// Arm a [`ThreadFault`], consumed at the next `Step` (faultsim chaos).
    Arm(ThreadFault),
    /// Shut down the thread.
    Exit,
}

/// What a worker publishes after a `Step` command: its local steps plus the
/// command echo, its thread id (stale-result fence: a batch from a reaped
/// thread never matches the slot's current id), and a post-step snapshot the
/// pool stores as the slot's state: what checkpoints and evaluation read
/// until the next step, and the recovery seed if that step faults.
struct StepBatch {
    seq: u64,
    epoch: u64,
    lr: f32,
    thread: ThreadId,
    steps: Vec<LocalStep>,
    recovery: WorkerSnapshot,
}

/// The persistent pool: command senders and the keyed exchange the worker
/// threads publish step results into.
pub struct WorkerPool {
    cmds: Vec<Sender<Cmd>>,
    steps: Exchange<StepBatch>,
    /// Live thread handles; `None` only transiently inside a recovery.
    threads: Vec<Option<JoinHandle<()>>>,
    /// Unresponsive threads the supervisor gave up on: unparked and written
    /// off, joined best-effort at shutdown (they exit once their old command
    /// channel drops, so the join cannot hang).
    quarantined: Vec<JoinHandle<()>>,
    /// Thread id recorded at (re)spawn, per worker; every drained batch
    /// must match it or it is a stale publish from a reaped thread.
    ids: Vec<ThreadId>,
    /// Device id per slot (thread naming + fault attribution).
    devices: Vec<u32>,
    /// Per-slot state beyond the parameters: captured at spawn, refreshed
    /// from every drained [`StepBatch`]. Between steps it is the worker's
    /// current state (what checkpoints and evaluation read); during a step
    /// it is the pre-step seed a replacement worker replays from.
    recovery: Vec<WorkerSnapshot>,
    /// Deadline policy for the supervised steps drain.
    drain: RetryPolicy,
    seq: u64,
    steps_served: u64,
}

impl WorkerPool {
    /// Spawn one named persistent thread per worker, moving each worker onto
    /// its thread. `device_ids` (slot order) name the threads `esw-dev{id}`;
    /// missing entries fall back to the slot index. `drain` bounds how long
    /// the supervised steps drain waits for a silent worker.
    // Audited fence: the per-worker command channels are raw mpsc by design
    // (single-producer FIFO), hence the workspace-ban allow.
    #[allow(clippy::disallowed_methods)]
    pub fn spawn(workers: Vec<EasyScaleWorker>, device_ids: &[u32], drain: RetryPolicy) -> Self {
        let n = workers.len();
        assert!(n > 0, "pool needs at least one worker");
        let recovery: Vec<WorkerSnapshot> = workers.iter().map(WorkerSnapshot::capture).collect();
        let mut steps: Exchange<StepBatch> = Exchange::new();
        let mut cmds = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        let mut devices = Vec::with_capacity(n);
        for (i, worker) in workers.into_iter().enumerate() {
            let dev = device_ids.get(i).copied().unwrap_or(i as u32);
            let (cmd_tx, cmd_rx) = channel();
            let step_tx = steps.handle();
            let handle = std::thread::Builder::new()
                .name(format!("esw-dev{dev}"))
                .spawn(move || worker_main(i as u64, Box::new(worker), cmd_rx, step_tx))
                .expect("failed to spawn worker thread");
            ids.push(handle.thread().id());
            threads.push(Some(handle));
            cmds.push(cmd_tx);
            devices.push(dev);
        }
        // Seal: ordinary handle minting is closed. The supervisor mints
        // replacement handles through the post-seal recovery door when it
        // respawns a faulted worker.
        steps.seal();
        obs::counter_add("engine.pool.spawns_total", n as u64);
        WorkerPool {
            cmds,
            steps,
            threads,
            quarantined: Vec::new(),
            ids,
            devices,
            recovery,
            drain,
            seq: 0,
            steps_served: 0,
        }
    }

    /// Number of pooled workers.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// Whether the pool is empty (never true; spawn requires ≥ 1 worker).
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }

    /// Pool self-counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats { workers: self.cmds.len(), steps_served: self.steps_served }
    }

    /// Arm a [`ThreadFault`] on worker `worker % len` (faultsim chaos); the
    /// worker consumes it at its next `Step`. Returns the armed slot index.
    pub fn arm_fault(&self, worker: usize, fault: ThreadFault) -> usize {
        let i = worker % self.len();
        // A slot whose thread already died can't receive the arm; its next
        // supervised drain will reap it regardless.
        let _ = self.cmds[i].send(Cmd::Arm(fault));
        i
    }

    /// One concurrent local-step round under supervision: command every
    /// worker, then drain the step exchange in canonical worker order.
    /// Workers that die, stall, or drop their publish are detected by the
    /// drain deadline, reaped, replaced via `respawn`, and re-commanded with
    /// the *same* round — so the returned steps (in worker order; callers
    /// sort by vrank) are bitwise identical to a fault-free round. Every
    /// recovery is reported in the second tuple element (empty when clean).
    pub fn run_steps(
        &mut self,
        epoch: u64,
        lr: f32,
        respawn: &mut RespawnFn<'_>,
    ) -> (Vec<LocalStep>, Vec<PoolError>) {
        let n = self.len();
        self.seq += 1;
        let seq = self.seq;
        let mut errors: Vec<PoolError> = Vec::new();
        for i in 0..n {
            if self.cmds[i].send(Cmd::Step { seq, epoch, lr }).is_err() {
                // Dead before the round even started: recover eagerly so the
                // drain below only waits on workers that might answer.
                let err = self.recover(i, respawn);
                self.cmds[i].send(Cmd::Step { seq, epoch, lr }).expect("respawned worker died");
                errors.push(err);
            }
        }
        let mut got: BTreeMap<u64, StepBatch> = BTreeMap::new();
        let mut rounds = 0usize;
        while got.len() < n {
            rounds += 1;
            assert!(rounds <= 8 * n + 8, "supervised step drain did not converge");
            let need = n - got.len();
            let drain_span = obs::span("engine.drain_wait");
            let drained = self.steps.drain_deadline(need, &self.drain);
            drop(drain_span);
            match drained {
                Ok(batches) => {
                    for (key, batch) in batches {
                        // Stale fence: publishes from reaped threads or
                        // earlier rounds are discarded, never consumed.
                        if batch.seq != seq || batch.thread != self.ids[key as usize] {
                            continue;
                        }
                        got.insert(key, batch);
                    }
                }
                Err(err) => {
                    obs::counter_add("engine.drain_timeout", 1);
                    // Keys the drain did receive sit buffered in the
                    // exchange; only workers with nothing in flight at all
                    // are faulted. (Buffered stale batches can mask a dead
                    // worker for one round; the next round unmasks it.)
                    let missing: Vec<usize> = (0..n)
                        .filter(|&i| {
                            !got.contains_key(&(i as u64)) && !err.received().contains(&(i as u64))
                        })
                        .collect();
                    for i in missing {
                        let perr = self.recover(i, respawn);
                        self.cmds[i]
                            .send(Cmd::Step { seq, epoch, lr })
                            .expect("respawned worker died");
                        errors.push(perr);
                    }
                }
            }
        }
        self.steps_served += 1;
        let mut out = Vec::new();
        for (key, batch) in got {
            debug_assert_eq!(batch.epoch, epoch, "epoch echo mismatch");
            debug_assert_eq!(batch.lr.to_bits(), lr.to_bits(), "lr echo mismatch");
            self.recovery[key as usize] = batch.recovery;
            out.extend(batch.steps);
        }
        (out, errors)
    }

    /// Broadcast the optimizer delta. Fire-and-forget: per-worker FIFO
    /// ordering guarantees it is applied before any later command. A dead
    /// worker misses the send harmlessly — its replacement is reseeded from
    /// the engine's post-apply mirror at the next supervised drain.
    pub fn apply(&self, delta: &Arc<Vec<f32>>) {
        for tx in &self.cmds {
            let _ = tx.send(Cmd::Apply(Arc::clone(delta)));
        }
    }

    /// Each worker's state beyond its parameters, in worker order, as of its
    /// last drained step (or spawn). `Apply` changes only parameters, so
    /// together with the engine's param mirror this is every worker's
    /// current state between steps.
    pub fn last_snapshots(&self) -> &[WorkerSnapshot] {
        &self.recovery
    }

    /// Reap a faulty worker slot and install the replacement `respawn`
    /// builds from the slot's recovery seed: classify the fault (a finished
    /// thread is joined and its panic payload harvested; an unresponsive
    /// one is unparked and quarantined — joining it could hang forever),
    /// then respawn the slot on a fresh thread with fresh channels.
    fn recover(&mut self, i: usize, respawn: &mut RespawnFn<'_>) -> PoolError {
        let device = self.devices[i];
        let handle = self.threads[i].take().expect("slot already under recovery");
        obs::counter_add("engine.pool.quarantines_total", 1);
        let err = if handle.is_finished() {
            let panic_msg = match handle.join() {
                Ok(()) => None,
                Err(payload) => Some(payload_to_string(payload.as_ref())),
            };
            PoolError::WorkerDead { worker: i, device, panic_msg }
        } else {
            // Alive but silent. Unpark in case it is stall-parked (lets it
            // exit), quarantine the handle, and move on — the old command
            // sender is dropped below, so a merely-slow thread also exits
            // once it next polls its channel.
            handle.thread().unpark();
            self.quarantined.push(handle);
            PoolError::DrainTimeout { worker: i, device }
        };
        let replacement = respawn(&err, &self.recovery[i]);
        self.reinstall(i, replacement);
        err
    }

    /// Spawn `worker` as slot `i`'s replacement thread: a fresh command
    /// channel (dropping the old sender tells a quarantined thread to exit),
    /// a replacement publish handle on the sealed exchange, and a new
    /// `esw-dev<id>` thread under the slot's stable device id.
    // Audited fence, same as `spawn`: raw mpsc per-worker channels.
    #[allow(clippy::disallowed_methods)]
    fn reinstall(&mut self, i: usize, worker: Box<EasyScaleWorker>) {
        let dev = self.devices[i];
        let (cmd_tx, cmd_rx) = channel();
        let step_tx = self.steps.replacement_handle();
        let handle = std::thread::Builder::new()
            .name(format!("esw-dev{dev}"))
            .spawn(move || worker_main(i as u64, worker, cmd_rx, step_tx))
            .expect("failed to respawn worker thread");
        self.ids[i] = handle.thread().id();
        self.threads[i] = Some(handle);
        self.cmds[i] = cmd_tx;
        obs::counter_add("engine.pool.respawns_total", 1);
    }
}

/// Render a worker thread's panic payload for diagnostics.
fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.cmds {
            // A worker that already died can't receive Exit; join below
            // still reaps it.
            let _ = tx.send(Cmd::Exit);
        }
        // Reap every live thread, collecting ALL panic payloads before
        // deciding to panic: a second faulty worker must not hide behind the
        // first (double-fault shutdown reports every dying esw-dev<id>).
        let mut failures: Vec<String> = Vec::new();
        for handle in self.threads.drain(..).flatten() {
            let name =
                handle.thread().name().map(str::to_owned).unwrap_or_else(|| "esw-?".to_string());
            if let Err(payload) = handle.join() {
                let msg = payload_to_string(payload.as_ref());
                eprintln!("WorkerPool: worker thread {name} panicked during shutdown: {msg}");
                failures.push(format!("{name}: {msg}"));
            }
        }
        // Quarantined threads are already written off: their command senders
        // are long dropped (they exit on their next channel poll) and any
        // stall-park was unparked at quarantine, so these joins terminate.
        // Report their payloads but never re-panic over them.
        for handle in self.quarantined.drain(..) {
            let name =
                handle.thread().name().map(str::to_owned).unwrap_or_else(|| "esw-?".to_string());
            handle.thread().unpark();
            if let Err(payload) = handle.join() {
                eprintln!(
                    "WorkerPool: quarantined thread {name} panicked: {}",
                    payload_to_string(payload.as_ref())
                );
            }
        }
        if !failures.is_empty() && !std::thread::panicking() {
            panic!(
                "{} worker thread(s) panicked during shutdown: [{}]",
                failures.len(),
                failures.join("; ")
            );
        }
    }
}

/// Injected [`ThreadFault::Stall`] body: park until the supervisor's
/// quarantine unparks us, then fall through so the thread can exit and be
/// joined at shutdown. While parked the worker is indistinguishable from a
/// wedged thread — exactly the fault being modeled.
fn stall_forever() {
    // The park IS the injected fault: the supervisor must detect the silent
    // worker via its drain deadline. Quarantine unparks us, so this is not a
    // true engine<->worker deadlock — the engine-side wait is bounded.
    // detlint::allow(blocking-cycle): injected stall; the supervisor's deadline drain bounds the engine-side wait and quarantine unparks this thread
    std::thread::park();
}

/// The persistent worker thread body: block on the command channel, execute,
/// publish. Runs until `Exit` (or until the engine is dropped mid-teardown).
/// Declared as a detlint taint barrier: the blocking receive is the one
/// place scheduling-dependent arrival *timing* exists, and nothing here
/// forwards arrival order — results are published under the worker's fixed
/// key and consumed through canonical-order drains on the engine side.
/// The conformance pass cannot see that from this body alone (the sort
/// lives in the engine-side drains), hence the audited demotion below.
// detlint::allow(barrier-unverified): FIFO single-producer command loop; results leave under fixed keys via canonical engine-side drains
fn worker_main(
    key: u64,
    mut worker: Box<EasyScaleWorker>,
    cmds: Receiver<Cmd>,
    steps: ExchangeTx<StepBatch>,
) {
    // Injected fault waiting for the next Step (faultsim chaos).
    let mut armed: Option<ThreadFault> = None;
    loop {
        // Single-producer FIFO command channel — receive order is the
        // engine's program order, not a thread race.
        // detlint::allow(no-thread-order): single-producer FIFO channel
        let cmd = match cmds.recv() {
            Ok(cmd) => cmd,
            // Engine dropped without Exit (poisoned teardown), or this
            // thread was quarantined and its channel replaced: just leave.
            Err(_) => return,
        };
        match cmd {
            Cmd::Step { seq, epoch, lr } => {
                match armed.take() {
                    Some(ThreadFault::Panic) => {
                        panic!("injected ThreadPanic fault (faultsim chaos)")
                    }
                    Some(ThreadFault::Stall) => {
                        stall_forever();
                        return;
                    }
                    Some(ThreadFault::ReplyDrop) => {
                        // Run the step but drop the publish: the thread
                        // stays alive and keeps serving, its result gone.
                        let _ = worker.run_local_steps();
                        continue;
                    }
                    None => {}
                }
                let step_span = obs::span("engine.pool.worker_step");
                let local = worker.run_local_steps();
                drop(step_span);
                let recovery = WorkerSnapshot::capture(&worker);
                steps.publish(
                    key,
                    StepBatch {
                        seq,
                        epoch,
                        lr,
                        thread: std::thread::current().id(),
                        steps: local,
                        recovery,
                    },
                );
            }
            Cmd::Apply(delta) => worker.apply_update(&delta),
            Cmd::Arm(fault) => armed = Some(fault),
            Cmd::Exit => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::JobConfig;
    use device::GpuType;
    use models::Workload;

    fn make_workers(n_ests: u32, gpus: u32) -> (JobConfig, Placement, Vec<EasyScaleWorker>) {
        let cfg = JobConfig::new(Workload::ResNet18, 7, n_ests).with_dataset_len(128);
        let placement = Placement::homogeneous(n_ests, gpus, GpuType::V100);
        let workers = placement.slots.iter().map(|s| EasyScaleWorker::new(&cfg, s)).collect();
        (cfg, placement, workers)
    }

    /// The engine's drain policy (≈ 6.4s budget): a healthy round never
    /// trips it, even under parallel test load.
    fn drain() -> RetryPolicy {
        ExecOptions::default().drain
    }

    /// A fast drain policy for fault tests: 6 windows of 25ms..800ms ≈ 1.6s
    /// worst case — comfortably past a contended step round (a round is
    /// ~50–150ms under parallel test load, so shorter deadlines fire
    /// spurious recoveries), small enough that injected-fault tests stay
    /// quick.
    fn fast_drain() -> RetryPolicy {
        RetryPolicy { max_attempts: 6, base_backoff_us: 25_000, backoff_multiplier: 2 }
    }

    /// The respawn callback of a round that must not fault.
    fn no_respawn(err: &PoolError, _: &WorkerSnapshot) -> Box<EasyScaleWorker> {
        panic!("unexpected recovery in a fault-free round: {err}")
    }

    /// A pool-test respawn callback: rebuild the slot's worker from the
    /// job config, its placement slot, a param mirror, and the recovery
    /// snapshot — the engine's recipe ([`EasyScaleWorker::restored`]),
    /// minus the engine.
    fn respawner<'a>(
        cfg: &'a JobConfig,
        placement: &'a Placement,
        mirror: &'a [f32],
        log: &'a mut Vec<PoolError>,
    ) -> impl FnMut(&PoolError, &WorkerSnapshot) -> Box<EasyScaleWorker> + 'a {
        move |err, snap| {
            log.push(err.clone());
            let slot = &placement.slots[err.worker()];
            Box::new(EasyScaleWorker::restored(cfg, slot, mirror, snap))
        }
    }

    fn assert_steps_bitwise_equal(mut a: Vec<LocalStep>, mut b: Vec<LocalStep>, what: &str) {
        a.sort_by_key(|l| l.vrank);
        b.sort_by_key(|l| l.vrank);
        assert_eq!(a.len(), b.len(), "{what}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vrank, y.vrank, "{what}");
            assert_eq!(x.loss.to_bits(), y.loss.to_bits(), "{what}");
            assert!(x.grad.iter().zip(&y.grad).all(|(p, q)| p.to_bits() == q.to_bits()), "{what}");
        }
    }

    #[test]
    fn pool_steps_match_sequential_workers_bitwise() {
        let (_, _, pooled) = make_workers(4, 2);
        let (_, _, mut seq) = make_workers(4, 2);
        let mut pool = WorkerPool::spawn(pooled, &[], drain());
        for round in 0..3 {
            let (a, errors) = pool.run_steps(0, 0.05, &mut no_respawn);
            assert!(errors.is_empty());
            let b: Vec<LocalStep> = seq.iter_mut().flat_map(|w| w.run_local_steps()).collect();
            assert_steps_bitwise_equal(a, b, &format!("round {round}"));
        }
    }

    #[test]
    fn threads_persist_across_rounds() {
        let (_, _, workers) = make_workers(4, 4);
        let mut pool = WorkerPool::spawn(workers, &[10, 11, 12, 13], drain());
        assert_eq!(pool.stats(), PoolStats { workers: 4, steps_served: 0 });
        for _ in 0..3 {
            // A batch from any thread but the spawn-time one is never
            // consumed, so a clean round (no recovery, and a respawn would
            // panic) was served by the original threads.
            let (_, errors) = pool.run_steps(0, 0.05, &mut no_respawn);
            assert!(errors.is_empty());
        }
        assert_eq!(pool.stats(), PoolStats { workers: 4, steps_served: 3 });
    }

    #[test]
    fn apply_lands_before_later_commands() {
        let (_, _, workers) = make_workers(2, 1);
        let (_, _, mut seq) = make_workers(2, 1);
        let mut pool = WorkerPool::spawn(workers, &[], drain());
        let delta = Arc::new(vec![0.5f32; seq[0].flat_params().len()]);
        pool.apply(&delta);
        seq[0].apply_update(&delta);
        // FIFO command ordering: the step behind the apply must observe it,
        // so its gradients are those of a worker that applied the delta.
        let (a, errors) = pool.run_steps(0, 0.05, &mut no_respawn);
        assert!(errors.is_empty());
        assert_steps_bitwise_equal(a, seq[0].run_local_steps(), "step after apply");
    }

    /// Every injected [`ThreadFault`] is detected, the worker is replaced,
    /// and the recovered round is bitwise identical to a fault-free one.
    #[test]
    fn supervised_steps_recover_every_fault_kind_bitwise() {
        for (fault, want_kind) in [
            (ThreadFault::Panic, "worker-dead"),
            (ThreadFault::Stall, "drain-timeout"),
            (ThreadFault::ReplyDrop, "drain-timeout"),
        ] {
            let (cfg, placement, workers) = make_workers(4, 2);
            let mirror = workers[0].flat_params();
            let (_, _, mut seq) = make_workers(4, 2);

            let mut pool = WorkerPool::spawn(workers, &[], fast_drain());
            let mut log = Vec::new();
            let armed = pool.arm_fault(1, fault);
            assert_eq!(armed, 1);
            let (steps, errors) = {
                let mut respawn = respawner(&cfg, &placement, &mirror, &mut log);
                pool.run_steps(0, 0.05, &mut respawn)
            };
            assert_eq!(errors.len(), 1, "{fault:?}: exactly one recovery");
            assert_eq!(errors[0].worker(), 1);
            assert_eq!(errors[0].kind(), want_kind, "{fault:?}");
            if fault == ThreadFault::Panic {
                let msg = errors[0].panic_msg().expect("panic payload harvested");
                assert!(msg.contains("injected ThreadPanic"), "payload: {msg}");
            }

            // Bitwise identity with the sequential reference, this round
            // and (replacement in service) the next.
            for round in 0..2 {
                let a = if round == 0 {
                    steps.clone()
                } else {
                    let mut respawn = respawner(&cfg, &placement, &mirror, &mut log);
                    let (s, e) = pool.run_steps(0, 0.05, &mut respawn);
                    assert!(e.is_empty(), "round 1 must be clean");
                    s
                };
                let b: Vec<LocalStep> = seq.iter_mut().flat_map(|w| w.run_local_steps()).collect();
                assert_steps_bitwise_equal(a, b, &format!("{fault:?} round {round}"));
            }
        }
    }
}
