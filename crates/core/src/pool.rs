//! Persistent worker-thread pool: each physical worker lives on one OS
//! thread for the engine's lifetime — now supervised against real faults.
//!
//! The old engine *borrowed* threads — a `crossbeam::thread::scope` spawned
//! and tore down one thread per worker inside every global step. This module
//! replaces that with the real elastic-training shape (ROADMAP item 1): the
//! engine spawns one named thread per physical worker when it is built,
//! drives the threads over per-worker command channels, and only ever
//! respawns them on `rescale` (where the worker set itself changes) — or,
//! since PR 9, when a worker *faults* and the supervisor replaces it.
//!
//! Determinism story (docs/PARALLELISM.md): worker threads run local steps
//! and merge-side bucket reductions concurrently, so *completion* order is
//! up to the OS scheduler — classic D1 entropy. Every result crosses back to
//! the engine through one of two fences:
//!
//! - an [`Exchange`] keyed by worker index, drained with
//!   [`Exchange::drain_sorted`] / [`Exchange::drain_deadline`] (declared
//!   detlint taint barriers) so the engine consumes results in canonical
//!   worker order, or
//! - [`WorkerPool::recv_ordered`] and its deadline twin, which read
//!   per-worker reply channels in explicit index order (also declared
//!   barriers).
//!
//! Past those fences no bit depends on scheduling, which is what the
//! `nthread_eq_single` proptest checks end to end.
//!
//! Supervision story (docs/HEALTH.md): the `*_supervised` entry points
//! replace the old panic-on-death protocol. A worker that panics, stalls
//! past the drain deadline, or silently drops its reply surfaces as a typed
//! [`PoolError`] naming the `esw-dev<id>` thread. The supervisor then reaps
//! the thread (joining it if dead, quarantining it if merely unresponsive),
//! asks the engine for a replacement worker seeded from the engine-held
//! param mirror (proven bitwise-equal to every replica), reinstalls it on a
//! fresh thread, and replays the interrupted command. Because replacements
//! are rebuilt from pre-step state and results still cross the canonical
//! fences, recovery is invisible in the deterministic outputs: post-recovery
//! params are byte-identical to a fault-free run.

use crate::est::EstContext;
use crate::worker::{EasyScaleWorker, LocalStep};
use comm::exchange::{channel, Receiver, RecvTimeoutError, Sender};
use comm::{ElasticDdp, Exchange, ExchangeTx, RetryPolicy};
use data::LoaderCheckpoint;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

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

/// Everything the engine needs from one worker to assemble a checkpoint —
/// and, since PR 9, to seed a bitwise-identical replacement after a fault.
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
    /// replies. The thread is quarantined, not joined (it may never exit on
    /// its own; joining it would hang the engine).
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
/// step state), which is exactly what replaying the interrupted command
/// needs for bitwise-identical recovery.
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
    /// Ring-reduce this worker's bucket partition of `grads` and publish
    /// the partial sums under round `seq`.
    Reduce { seq: u64, ddp: Arc<ElasticDdp>, grads: Arc<Vec<Vec<f32>>>, parts: usize },
    /// Apply the (identical-everywhere) optimizer delta to the replica.
    Apply(Arc<Vec<f32>>),
    /// Reply with a [`WorkerSnapshot`].
    Snapshot,
    /// Reply with the owned worker itself (evaluation runs on the engine
    /// thread because eval datasets are borrowed, not `'static`).
    Lend,
    /// Return a previously lent worker.
    Restore(Box<EasyScaleWorker>),
    /// Arm a [`ThreadFault`], consumed at the next `Step` (faultsim chaos).
    Arm(ThreadFault),
    /// Shut down the thread.
    Exit,
}

/// One worker→engine reply (for request/response commands; step and reduce
/// results travel through the keyed exchanges instead).
enum Reply {
    Snapshot(Box<WorkerSnapshot>),
    Worker(Box<EasyScaleWorker>),
}

/// What a worker publishes after a `Step` command: its local steps plus the
/// command echo, its thread id (stale-result fence: a batch from a reaped
/// thread never matches the slot's current id), and a post-step snapshot the
/// supervisor holds as the slot's recovery seed for the *next* step.
struct StepBatch {
    seq: u64,
    epoch: u64,
    lr: f32,
    thread: ThreadId,
    steps: Vec<LocalStep>,
    recovery: WorkerSnapshot,
}

/// What a worker publishes after a `Reduce` command: the partial bucket
/// sums plus the same stale-result fence fields as [`StepBatch`].
struct PartialBatch {
    seq: u64,
    thread: ThreadId,
    parts: Vec<(usize, Vec<f32>)>,
}

/// The persistent pool: command senders, reply receivers, and the two keyed
/// exchanges the worker threads publish into.
pub struct WorkerPool {
    cmds: Vec<Sender<Cmd>>,
    replies: Vec<Receiver<Reply>>,
    steps: Exchange<StepBatch>,
    partials: Exchange<PartialBatch>,
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
    /// Per-slot recovery seed: the snapshot a replacement worker replays
    /// the interrupted step from. Captured at spawn, refreshed from every
    /// drained [`StepBatch`], so it always holds pre-current-step state.
    recovery: Vec<WorkerSnapshot>,
    /// Deadline policy for the supervised drains.
    drain: RetryPolicy,
    seq: u64,
    steps_served: u64,
}

impl WorkerPool {
    /// Spawn one named persistent thread per worker, moving each worker onto
    /// its thread. `device_ids` (slot order) name the threads `esw-dev{id}`;
    /// missing entries fall back to the slot index. `drain` bounds how long
    /// the supervised drains wait for a silent worker.
    // Audited fence: the per-worker command/reply channels are raw mpsc by
    // design (single-producer FIFO), hence the workspace-ban allow.
    #[allow(clippy::disallowed_methods)]
    pub fn spawn(workers: Vec<EasyScaleWorker>, device_ids: &[u32], drain: RetryPolicy) -> Self {
        let n = workers.len();
        assert!(n > 0, "pool needs at least one worker");
        let recovery: Vec<WorkerSnapshot> = workers.iter().map(WorkerSnapshot::capture).collect();
        let mut steps: Exchange<StepBatch> = Exchange::new();
        let mut partials: Exchange<PartialBatch> = Exchange::new();
        let mut cmds = Vec::with_capacity(n);
        let mut replies = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        let mut devices = Vec::with_capacity(n);
        for (i, worker) in workers.into_iter().enumerate() {
            let dev = device_ids.get(i).copied().unwrap_or(i as u32);
            let (cmd_tx, cmd_rx) = channel();
            let (reply_tx, reply_rx) = channel();
            let step_tx = steps.handle();
            let partial_tx = partials.handle();
            let handle = std::thread::Builder::new()
                .name(format!("esw-dev{dev}"))
                .spawn(move || {
                    worker_main(i as u64, Box::new(worker), cmd_rx, reply_tx, step_tx, partial_tx)
                })
                .expect("failed to spawn worker thread");
            ids.push(handle.thread().id());
            threads.push(Some(handle));
            cmds.push(cmd_tx);
            replies.push(reply_rx);
            devices.push(dev);
        }
        // Seal: ordinary handle minting is closed. The supervisor mints
        // replacement handles through the post-seal recovery door when it
        // respawns a faulted worker.
        steps.seal();
        partials.seal();
        obs::counter_add("engine.pool.spawns_total", n as u64);
        WorkerPool {
            cmds,
            replies,
            steps,
            partials,
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

    /// One concurrent local-step round: command every worker, then drain the
    /// step exchange in canonical worker order. The returned list is in
    /// worker order (callers still sort by vrank, as the sequential engine
    /// always did).
    ///
    /// This is the fault-*oblivious* drain — a dead worker hangs it. The
    /// engine's pool path uses [`WorkerPool::run_steps_supervised`]; this
    /// stays as the minimal protocol reference and unit-test surface.
    pub fn run_steps(&mut self, epoch: u64, lr: f32) -> Vec<LocalStep> {
        let n = self.len();
        self.seq += 1;
        let seq = self.seq;
        for tx in &self.cmds {
            tx.send(Cmd::Step { seq, epoch, lr }).expect("worker thread died");
        }
        // Each round the scoped-thread engine would have paid n spawns.
        obs::counter_add("engine.pool.spawns_avoided_total", n as u64);
        let drain_span = obs::span("engine.drain_wait");
        let batches = self.steps.drain_sorted(n);
        drop(drain_span);
        self.steps_served += 1;
        let mut out = Vec::new();
        for (key, batch) in batches {
            debug_assert_eq!(batch.seq, seq, "stale step batch");
            debug_assert_eq!(batch.epoch, epoch, "epoch echo mismatch");
            debug_assert_eq!(batch.lr.to_bits(), lr.to_bits(), "lr echo mismatch");
            assert_eq!(
                batch.thread, self.ids[key as usize],
                "worker thread was respawned mid-lifetime"
            );
            self.recovery[key as usize] = batch.recovery;
            out.extend(batch.steps);
        }
        out
    }

    /// [`WorkerPool::run_steps`] under supervision: workers that die, stall,
    /// or drop their publish are detected by the drain deadline, reaped,
    /// replaced via `respawn`, and re-commanded with the *same* round — so
    /// the returned steps are bitwise identical to a fault-free round. Every
    /// recovery is reported in the second tuple element (empty when clean).
    pub fn run_steps_supervised(
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
        obs::counter_add("engine.pool.spawns_avoided_total", n as u64);
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

    /// One parallel merge-side reduction: every worker ring-reduces its
    /// fixed bucket partition, the engine drains the partials in canonical
    /// order and assembles the averaged flat gradient. Bitwise identical to
    /// [`ElasticDdp::allreduce_avg`] — see `comm`'s
    /// `partitioned_reduce_matches_monolithic_bitwise` test.
    ///
    /// Fault-oblivious, like [`WorkerPool::run_steps`]; the engine uses
    /// [`WorkerPool::reduce_supervised`].
    pub fn reduce(&mut self, ddp: &Arc<ElasticDdp>, grads: &Arc<Vec<Vec<f32>>>) -> Vec<f32> {
        let n = self.len();
        self.seq += 1;
        let seq = self.seq;
        for tx in &self.cmds {
            tx.send(Cmd::Reduce { seq, ddp: Arc::clone(ddp), grads: Arc::clone(grads), parts: n })
                .expect("worker thread died");
        }
        let drained = {
            let _drain_span = obs::span("engine.drain_wait");
            self.partials.drain_sorted(n)
        };
        let parts: Vec<(usize, Vec<f32>)> =
            drained.into_iter().flat_map(|(_, p)| p.parts).collect();
        ddp.assemble_avg(&parts)
    }

    /// [`WorkerPool::reduce`] under supervision, mirroring
    /// [`WorkerPool::run_steps_supervised`]: faulted workers are reaped,
    /// replaced, and re-commanded with the same round, and the assembled
    /// gradient is bitwise identical to a fault-free reduction (partial
    /// reductions are pure functions of `ddp`/`grads`/slot, so a replacement
    /// recomputes exactly the lost partials).
    pub fn reduce_supervised(
        &mut self,
        ddp: &Arc<ElasticDdp>,
        grads: &Arc<Vec<Vec<f32>>>,
        respawn: &mut RespawnFn<'_>,
    ) -> (Vec<f32>, Vec<PoolError>) {
        let n = self.len();
        self.seq += 1;
        let seq = self.seq;
        let send = |cmds: &[Sender<Cmd>], i: usize| {
            cmds[i].send(Cmd::Reduce {
                seq,
                ddp: Arc::clone(ddp),
                grads: Arc::clone(grads),
                parts: n,
            })
        };
        let mut errors: Vec<PoolError> = Vec::new();
        for i in 0..n {
            if send(&self.cmds, i).is_err() {
                let err = self.recover(i, respawn);
                send(&self.cmds, i).expect("respawned worker died");
                errors.push(err);
            }
        }
        let mut got: BTreeMap<u64, PartialBatch> = BTreeMap::new();
        let mut rounds = 0usize;
        while got.len() < n {
            rounds += 1;
            assert!(rounds <= 8 * n + 8, "supervised reduce drain did not converge");
            let need = n - got.len();
            let drained = {
                let _drain_span = obs::span("engine.drain_wait");
                self.partials.drain_deadline(need, &self.drain)
            };
            match drained {
                Ok(batches) => {
                    for (key, batch) in batches {
                        if batch.seq != seq || batch.thread != self.ids[key as usize] {
                            continue;
                        }
                        got.insert(key, batch);
                    }
                }
                Err(err) => {
                    obs::counter_add("engine.drain_timeout", 1);
                    let missing: Vec<usize> = (0..n)
                        .filter(|&i| {
                            !got.contains_key(&(i as u64)) && !err.received().contains(&(i as u64))
                        })
                        .collect();
                    for i in missing {
                        let perr = self.recover(i, respawn);
                        send(&self.cmds, i).expect("respawned worker died");
                        errors.push(perr);
                    }
                }
            }
        }
        let parts: Vec<(usize, Vec<f32>)> = got.into_values().flat_map(|p| p.parts).collect();
        (ddp.assemble_avg(&parts), errors)
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

    /// Snapshot every worker's checkpoint-relevant state, in worker order.
    /// Fault-oblivious; the engine uses
    /// [`WorkerPool::snapshots_supervised`].
    pub fn snapshots(&self) -> Vec<WorkerSnapshot> {
        for tx in &self.cmds {
            tx.send(Cmd::Snapshot).expect("worker thread died");
        }
        let order: Vec<usize> = (0..self.len()).collect();
        self.recv_ordered(&order)
            .into_iter()
            .map(|r| match r {
                Reply::Snapshot(s) => *s,
                Reply::Worker(_) => unreachable!("snapshot round returned a lent worker"),
            })
            .collect()
    }

    /// [`WorkerPool::snapshots`] under supervision: a worker that cannot
    /// answer is reaped, replaced, and re-asked — and because replacements
    /// are rebuilt from exactly the state a snapshot reports, the recovered
    /// snapshot is bitwise identical to what the faulty worker owed.
    pub fn snapshots_supervised(
        &mut self,
        respawn: &mut RespawnFn<'_>,
    ) -> (Vec<WorkerSnapshot>, Vec<PoolError>) {
        let n = self.len();
        let mut errors: Vec<PoolError> = Vec::new();
        for i in 0..n {
            if self.cmds[i].send(Cmd::Snapshot).is_err() {
                let err = self.recover(i, respawn);
                self.cmds[i].send(Cmd::Snapshot).expect("respawned worker died");
                errors.push(err);
            }
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut attempts = 0usize;
            loop {
                attempts += 1;
                assert!(attempts <= 9, "supervised snapshot did not converge");
                match self.recv_ordered_deadline(&[i]) {
                    Ok(mut replies) => match replies.pop().expect("one reply") {
                        Reply::Snapshot(s) => {
                            out.push(*s);
                            break;
                        }
                        Reply::Worker(_) => unreachable!("snapshot round returned a lent worker"),
                    },
                    Err(_) => {
                        obs::counter_add("engine.drain_timeout", 1);
                        let perr = self.recover(i, respawn);
                        self.cmds[i].send(Cmd::Snapshot).expect("respawned worker died");
                        errors.push(perr);
                    }
                }
            }
        }
        (out, errors)
    }

    /// Borrow worker `index` onto the calling thread (for evaluation, which
    /// takes non-`'static` datasets). Must be paired with
    /// [`WorkerPool::restore`]. Unsupervised by design: lend/restore runs
    /// only on the (fault-free) evaluation path, and a lent worker lives on
    /// the engine thread where it cannot fault independently.
    pub fn lend(&self, index: usize) -> Box<EasyScaleWorker> {
        self.cmds[index].send(Cmd::Lend).expect("worker thread died");
        match self.recv_ordered(&[index]).pop().expect("one reply") {
            Reply::Worker(w) => w,
            Reply::Snapshot(_) => unreachable!("lend round returned a snapshot"),
        }
    }

    /// Return a worker borrowed with [`WorkerPool::lend`].
    pub fn restore(&self, index: usize, worker: Box<EasyScaleWorker>) {
        self.cmds[index].send(Cmd::Restore(worker)).expect("worker thread died");
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

    /// Spawn `worker` as slot `i`'s replacement thread: fresh command and
    /// reply channels (dropping the old sender tells a quarantined thread to
    /// exit), replacement publish handles on the sealed exchanges, and a new
    /// `esw-dev<id>` thread under the slot's stable device id.
    // Audited fence, same as `spawn`: raw mpsc per-worker channels.
    #[allow(clippy::disallowed_methods)]
    fn reinstall(&mut self, i: usize, worker: Box<EasyScaleWorker>) {
        let dev = self.devices[i];
        let (cmd_tx, cmd_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        let step_tx = self.steps.replacement_handle();
        let partial_tx = self.partials.replacement_handle();
        let handle = std::thread::Builder::new()
            .name(format!("esw-dev{dev}"))
            .spawn(move || worker_main(i as u64, worker, cmd_rx, reply_tx, step_tx, partial_tx))
            .expect("failed to respawn worker thread");
        self.ids[i] = handle.thread().id();
        self.threads[i] = Some(handle);
        self.cmds[i] = cmd_tx;
        self.replies[i] = reply_rx;
        obs::counter_add("engine.pool.respawns_total", 1);
    }

    /// Drain per-worker reply channels in the explicit index order given —
    /// a canonical order, independent of which worker answered first.
    /// Declared as a detlint taint barrier (docs/DETLINT.md).
    fn recv_ordered(&self, from: &[usize]) -> Vec<Reply> {
        from.iter()
            .map(|&i| {
                // Reply channels are read in the caller-fixed index order,
                // never in arrival order.
                // detlint::allow(no-thread-order): fixed per-worker order
                self.replies[i].recv().expect("worker thread died")
            })
            .collect()
    }

    /// [`WorkerPool::recv_ordered`] with the drain deadline: same canonical
    /// per-index order, but a worker silent past the whole backoff budget
    /// (or disconnected) yields a provisional [`PoolError::DrainTimeout`]
    /// naming it — [`WorkerPool::recover`] refines the classification when
    /// it inspects the thread. Also a declared detlint taint barrier.
    fn recv_ordered_deadline(&self, from: &[usize]) -> Result<Vec<Reply>, PoolError> {
        let mut out = Vec::with_capacity(from.len());
        for &i in from {
            let mut empty_windows = 0u32;
            loop {
                let window = Duration::from_micros(self.drain.backoff_us(empty_windows + 1));
                // Caller-fixed index order, like recv_ordered; real-time
                // deadline, never a deterministic input.
                // detlint::allow(no-thread-order): fixed per-worker order
                match self.replies[i].recv_timeout(window) {
                    Ok(reply) => {
                        out.push(reply);
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        empty_windows += 1;
                        if empty_windows >= self.drain.max_attempts {
                            return Err(PoolError::DrainTimeout {
                                worker: i,
                                device: self.devices[i],
                            });
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(PoolError::DrainTimeout { worker: i, device: self.devices[i] })
                    }
                }
            }
        }
        Ok(out)
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
    worker: Box<EasyScaleWorker>,
    cmds: Receiver<Cmd>,
    replies: Sender<Reply>,
    steps: ExchangeTx<StepBatch>,
    partials: ExchangeTx<PartialBatch>,
) {
    // `None` while the worker is lent to the engine thread for evaluation.
    let mut slot: Option<Box<EasyScaleWorker>> = Some(worker);
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
                        let w = slot.as_mut().expect("step commanded while worker is lent out");
                        let _ = w.run_local_steps();
                        continue;
                    }
                    None => {}
                }
                let w = slot.as_mut().expect("step commanded while worker is lent out");
                let step_span = obs::span("engine.pool.worker_step");
                let local = w.run_local_steps();
                drop(step_span);
                let recovery = WorkerSnapshot::capture(w);
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
            Cmd::Reduce { seq, ddp, grads, parts } => {
                let mine = ddp.partition_buckets(key as usize, parts);
                partials.publish(
                    key,
                    PartialBatch {
                        seq,
                        thread: std::thread::current().id(),
                        parts: ddp.reduce_buckets(&grads, &mine),
                    },
                );
            }
            Cmd::Apply(delta) => {
                slot.as_mut()
                    .expect("apply commanded while worker is lent out")
                    .apply_update(&delta);
            }
            Cmd::Snapshot => {
                let w = slot.as_ref().expect("snapshot commanded while worker is lent out");
                replies
                    .send(Reply::Snapshot(Box::new(WorkerSnapshot::capture(w))))
                    .expect("engine dropped its reply channel");
            }
            Cmd::Lend => {
                let w = slot.take().expect("worker lent twice");
                replies.send(Reply::Worker(w)).expect("engine dropped its reply channel");
            }
            Cmd::Restore(w) => {
                assert!(slot.is_none(), "restore without a lend");
                slot = Some(w);
            }
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

    fn make_workers(n_ests: u32, gpus: u32) -> (JobConfig, Vec<EasyScaleWorker>) {
        let cfg = JobConfig::new(Workload::ResNet18, 7, n_ests).with_dataset_len(128);
        let placement = Placement::homogeneous(n_ests, gpus, GpuType::V100);
        let workers = placement.slots.iter().map(|s| EasyScaleWorker::new(&cfg, s)).collect();
        (cfg, workers)
    }

    /// A fast drain policy for fault tests: 6 windows of 25ms..800ms ≈ 1.6s
    /// worst case — comfortably past a contended step round (a round is
    /// ~50–150ms under parallel test load, so shorter deadlines fire
    /// spurious recoveries), small enough that injected-fault tests stay
    /// quick.
    fn fast_drain() -> RetryPolicy {
        RetryPolicy { max_attempts: 6, base_backoff_us: 25_000, backoff_multiplier: 2 }
    }

    /// A pool-test respawn callback: rebuild the slot's worker from the
    /// job config, its placement slot, a param mirror, and the recovery
    /// snapshot — the same recipe the engine uses, minus the engine.
    fn respawner<'a>(
        cfg: &'a JobConfig,
        placement: &'a Placement,
        mirror: &'a [f32],
        log: &'a mut Vec<PoolError>,
    ) -> impl FnMut(&PoolError, &WorkerSnapshot) -> Box<EasyScaleWorker> + 'a {
        move |err, snap| {
            log.push(err.clone());
            let slot = &placement.slots[err.worker()];
            let mut w = EasyScaleWorker::new(cfg, slot);
            w.load_flat_params(mirror);
            w.restore_pool(&snap.loader);
            w.set_contexts(snap.contexts.clone());
            Box::new(w)
        }
    }

    #[test]
    fn pool_steps_match_sequential_workers_bitwise() {
        let (_, pooled) = make_workers(4, 2);
        let (_, mut seq) = make_workers(4, 2);
        let mut pool = WorkerPool::spawn(pooled, &[], RetryPolicy::default());
        for _ in 0..3 {
            let mut a = pool.run_steps(0, 0.05);
            let mut b: Vec<LocalStep> = seq.iter_mut().flat_map(|w| w.run_local_steps()).collect();
            a.sort_by_key(|l| l.vrank);
            b.sort_by_key(|l| l.vrank);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.vrank, y.vrank);
                assert_eq!(x.loss.to_bits(), y.loss.to_bits());
                assert!(x.grad.iter().zip(&y.grad).all(|(p, q)| p.to_bits() == q.to_bits()));
            }
        }
    }

    #[test]
    fn threads_persist_across_rounds() {
        let (_, workers) = make_workers(4, 4);
        let mut pool = WorkerPool::spawn(workers, &[10, 11, 12, 13], RetryPolicy::default());
        assert_eq!(pool.stats(), PoolStats { workers: 4, steps_served: 0 });
        for _ in 0..3 {
            // run_steps itself asserts each batch's thread id equals the
            // spawn-time id, so passing three rounds proves no respawn.
            pool.run_steps(0, 0.05);
        }
        assert_eq!(pool.stats(), PoolStats { workers: 4, steps_served: 3 });
    }

    #[test]
    fn pooled_reduce_matches_monolithic_bitwise() {
        let (cfg, workers) = make_workers(4, 4);
        let sizes = workers[0].model().param_sizes();
        let mut pool = WorkerPool::spawn(workers, &[], RetryPolicy::default());
        let mut locals = pool.run_steps(0, 0.05);
        locals.sort_by_key(|l| l.vrank);
        let grads: Arc<Vec<Vec<f32>>> = Arc::new(locals.into_iter().map(|l| l.grad).collect());
        let ddp = Arc::new(ElasticDdp::new(&sizes, cfg.n_ests, cfg.bucket_cap_bytes));
        let plain = ddp.allreduce_avg(&grads);
        let pooled = pool.reduce(&ddp, &grads);
        assert!(plain.iter().zip(&pooled).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn lend_and_restore_round_trip() {
        let (_, workers) = make_workers(2, 2);
        let mut pool = WorkerPool::spawn(workers, &[], RetryPolicy::default());
        let w = pool.lend(1);
        assert!(!w.flat_params().is_empty());
        pool.restore(1, w);
        // The restored worker still steps: the next round must include its
        // ESTs.
        let locals = pool.run_steps(0, 0.05);
        assert_eq!(locals.len(), 2);
        let snaps = pool.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[1].contexts.len(), 1);
    }

    #[test]
    fn apply_lands_before_later_commands() {
        let (_, workers) = make_workers(2, 1);
        let pool = WorkerPool::spawn(workers, &[], RetryPolicy::default());
        let w = pool.lend(0);
        let before = w.flat_params();
        pool.restore(0, w);
        let delta = Arc::new(vec![0.5f32; before.len()]);
        pool.apply(&delta);
        // FIFO command ordering: the lend behind the apply must observe it.
        let after = pool.lend(0);
        assert!(after.flat_params().iter().zip(&before).all(|(a, b)| (a - b - 0.5).abs() < 1e-6));
        pool.restore(0, after);
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
            let n_ests = 4u32;
            let gpus = 2u32;
            let cfg = JobConfig::new(Workload::ResNet18, 7, n_ests).with_dataset_len(128);
            let placement = Placement::homogeneous(n_ests, gpus, GpuType::V100);
            let workers: Vec<EasyScaleWorker> =
                placement.slots.iter().map(|s| EasyScaleWorker::new(&cfg, s)).collect();
            let mirror = workers[0].flat_params();
            let (_, reference) = make_workers(n_ests, gpus);
            let mut seq = reference;

            let mut pool = WorkerPool::spawn(workers, &[], fast_drain());
            let mut log = Vec::new();
            let armed = pool.arm_fault(1, fault);
            assert_eq!(armed, 1);
            let (steps, errors) = {
                let mut respawn = respawner(&cfg, &placement, &mirror, &mut log);
                pool.run_steps_supervised(0, 0.05, &mut respawn)
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
                let mut a = if round == 0 {
                    steps.clone()
                } else {
                    let mut respawn = respawner(&cfg, &placement, &mirror, &mut log);
                    let (s, e) = pool.run_steps_supervised(0, 0.05, &mut respawn);
                    assert!(e.is_empty(), "round 1 must be clean");
                    s
                };
                let mut b: Vec<LocalStep> =
                    seq.iter_mut().flat_map(|w| w.run_local_steps()).collect();
                a.sort_by_key(|l| l.vrank);
                b.sort_by_key(|l| l.vrank);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.vrank, y.vrank);
                    assert_eq!(x.loss.to_bits(), y.loss.to_bits(), "{fault:?} round {round}");
                    assert!(x.grad.iter().zip(&y.grad).all(|(p, q)| p.to_bits() == q.to_bits()));
                }
            }
        }
    }

    /// Supervised reduce survives a worker killed mid-protocol and still
    /// assembles the monolithic-bitwise gradient.
    #[test]
    fn supervised_reduce_recovers_a_panicked_worker_bitwise() {
        let n_ests = 4u32;
        let gpus = 4u32;
        let cfg = JobConfig::new(Workload::ResNet18, 7, n_ests).with_dataset_len(128);
        let placement = Placement::homogeneous(n_ests, gpus, GpuType::V100);
        let workers: Vec<EasyScaleWorker> =
            placement.slots.iter().map(|s| EasyScaleWorker::new(&cfg, s)).collect();
        let sizes = workers[0].model().param_sizes();
        let mirror = workers[0].flat_params();
        let mut pool = WorkerPool::spawn(workers, &[], fast_drain());
        let mut log = Vec::new();

        // Kill worker 2 via an armed panic consumed during a step round.
        pool.arm_fault(2, ThreadFault::Panic);
        let (mut locals, errors) = {
            let mut respawn = respawner(&cfg, &placement, &mirror, &mut log);
            pool.run_steps_supervised(0, 0.05, &mut respawn)
        };
        assert_eq!(errors.len(), 1);
        locals.sort_by_key(|l| l.vrank);
        let grads: Arc<Vec<Vec<f32>>> = Arc::new(locals.into_iter().map(|l| l.grad).collect());
        let ddp = Arc::new(ElasticDdp::new(&sizes, cfg.n_ests, cfg.bucket_cap_bytes));
        let plain = ddp.allreduce_avg(&grads);
        let (pooled, reduce_errors) = {
            let mut respawn = respawner(&cfg, &placement, &mirror, &mut log);
            pool.reduce_supervised(&ddp, &grads, &mut respawn)
        };
        assert!(reduce_errors.is_empty(), "replacement serves the reduce cleanly");
        assert!(plain.iter().zip(&pooled).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// Supervised snapshots replace a stalled worker and return the exact
    /// state it owed.
    #[test]
    fn supervised_snapshots_recover_a_stalled_worker() {
        let n_ests = 2u32;
        let gpus = 2u32;
        let cfg = JobConfig::new(Workload::ResNet18, 7, n_ests).with_dataset_len(128);
        let placement = Placement::homogeneous(n_ests, gpus, GpuType::V100);
        let workers: Vec<EasyScaleWorker> =
            placement.slots.iter().map(|s| EasyScaleWorker::new(&cfg, s)).collect();
        let mirror = workers[0].flat_params();
        let mut pool = WorkerPool::spawn(workers, &[], fast_drain());
        let mut log = Vec::new();

        // Reference snapshots from a clean round.
        let clean = pool.snapshots();

        // Stall worker 0 (consumed at the next Step), then snapshot through
        // the supervisor: the Step round recovers it, snapshots are clean.
        pool.arm_fault(0, ThreadFault::Stall);
        let (_, step_errors) = {
            let mut respawn = respawner(&cfg, &placement, &mirror, &mut log);
            pool.run_steps_supervised(0, 0.05, &mut respawn)
        };
        assert_eq!(step_errors.len(), 1);
        let (snaps, snap_errors) = {
            let mut respawn = respawner(&cfg, &placement, &mirror, &mut log);
            pool.snapshots_supervised(&mut respawn)
        };
        assert!(snap_errors.is_empty());
        assert_eq!(snaps.len(), clean.len());
        for (s, c) in snaps.iter().zip(&clean) {
            assert_eq!(s.contexts.len(), c.contexts.len());
        }
    }
}
