//! The untraced end-to-end runs: what a user of the system sees.
//!
//! Every run sets up several times (see [`set_up`]) and reports the median
//! set-up time, then measures its workload for the requested wall time through the
//! public API only, and checks the outputs. Besides the gated metrics of
//! the result line it prints one `detail` line with the workload's own
//! figures (samples/s, step latency and its tail).

use crate::jobs::{self, SAMPLES_PER_STEP};
use crate::stats::median;
use crate::{Args, Report, Workload};
use easyscale::{Engine, ExecMode, ExecOptions, JobConfig, Placement};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups per run: at least `MIN_SETUPS`, then more while the set-up time
/// spent stays under `SETUP_BUDGET`, up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Steps after which a run's parameters are checked against the
/// single-thread one-EST-per-GPU reference.
pub const PREFIX_STEPS: u64 = 2;
/// Further steps before timing starts.
pub const WARM_STEPS: u64 = 4;
/// Global steps per throughput segment: about 30 ms of ResNet18 and 20 ms
/// of NeuMF on a 2-core host.
fn steps_per_segment(w: Workload) -> usize {
    if w == Workload::TrainCompute {
        4
    } else {
        64
    }
}

/// Segments a run keeps, at the least, before it trusts only clean ones.
const MIN_CLEAN: usize = 20;

/// Back-to-back segments of equal work (tens of ms each), and which of them
/// ran while the hypervisor took no CPU time from this machine.
///
/// On a shared host a neighbour can take a vCPU away for seconds; with two
/// pool threads and a barrier per step, a step then waits for the stolen
/// one and the figures measure the neighbour. So work per second and
/// operation latency are taken over the segments during which the `steal`
/// count of `/proc/stat` did not move, as long as at least [`MIN_CLEAN`]
/// of them exist, and over all segments otherwise. The medians over short
/// segments also keep one descheduled stretch from moving the result.
struct Segments {
    every: usize,
    work: f64,
    start: Instant,
    steal: Option<u64>,
    open: Vec<f64>,
    all: (Vec<f64>, Vec<f64>),
    clean: (Vec<f64>, Vec<f64>),
}

impl Segments {
    fn new(every: usize) -> Self {
        Segments {
            every,
            work: 0.0,
            start: Instant::now(),
            steal: steal_ticks(),
            open: Vec::new(),
            all: (Vec::new(), Vec::new()),
            clean: (Vec::new(), Vec::new()),
        }
    }

    /// Count one operation that took `latency_ms` and did `work`; every
    /// `every`-th closes the segment.
    fn add(&mut self, latency_ms: f64, work: f64) {
        self.open.push(latency_ms);
        self.work += work;
        if self.open.len() < self.every {
            return;
        }
        let rate = self.work / self.start.elapsed().as_secs_f64();
        let steal = steal_ticks();
        if steal.is_some() && steal == self.steal {
            self.clean.0.push(rate);
            self.clean.1.extend(&self.open);
        }
        self.all.0.push(rate);
        self.all.1.append(&mut self.open);
        self.work = 0.0;
        self.steal = steal;
        self.start = Instant::now();
    }

    /// Median work per second, median operation latency, and the share of
    /// segments that were clean.
    fn result(&self) -> (f64, f64, f64) {
        let n = self.all.0.len();
        let (rates, lat) =
            if self.clean.0.len() >= MIN_CLEAN.min(n) { &self.clean } else { &self.all };
        let share = if n == 0 { 0.0 } else { self.clean.0.len() as f64 / n as f64 };
        (median(rates), median(lat), share)
    }
}

/// The host's cumulative stolen CPU time (`steal` of `/proc/stat`, ticks).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bit patterns, so parameters compare exactly (NaN included).
pub fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// Parameters of an uninterrupted single-thread run of `steps` steps.
pub fn reference_params(config: &JobConfig, placement: Placement, steps: u64) -> Vec<f32> {
    let exec = ExecOptions { mode: ExecMode::SingleThread, ..ExecOptions::default() };
    let mut e = Engine::new_opts(config.clone(), placement, exec);
    e.run(steps);
    e.flat_params()
}

/// Print the workload's own figures as `{"detail": {name: {value, unit}}}`.
fn print_detail(items: &[(&str, f64, &str)]) {
    let mut s = String::new();
    for (i, (name, value, unit)) in items.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    println!("{{\"detail\": {{{s}}}}}");
}

/// Run the workload and record every end-to-end metric in `r`.
pub fn run(args: &Args, r: &mut Report) {
    let until = Duration::from_secs_f64(args.seconds);
    train(args, until, r);
    if let Some(mb) = crate::peak_rss_mb() {
        r.set("peak_rss_mb", mb);
    }
}

/// A fresh engine on `placement`, stepped past warm-up, whose parameters
/// after [`PREFIX_STEPS`] are checked against the single-thread
/// one-EST-per-GPU (plain data-parallel) reference.
fn checked_engine(config: &JobConfig, placement: Placement, r: &mut Report) -> Engine {
    let mut e = Engine::new(config.clone(), placement);
    let reference = reference_params(
        config,
        Placement::one_est_per_gpu(jobs::N_EST, device::GpuType::V100),
        PREFIX_STEPS,
    );
    e.run(PREFIX_STEPS);
    r.check(
        bits(&e.flat_params()) == bits(&reference),
        "params differ from the single-thread one-EST-per-GPU reference",
    );
    e.run(WARM_STEPS);
    r.ok(PREFIX_STEPS + WARM_STEPS);
    e
}

/// Set up from scratch repeatedly with `f` (see [`MIN_SETUPS`]); returns the
/// median set-up time and the last set-up, which the run goes on to time.
/// Stops at the first set-up that fails.
fn set_up<T>(mut f: impl FnMut() -> Option<T>) -> Option<(f64, T)> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < MIN_SETUPS || (start.elapsed() < SETUP_BUDGET && times.len() < MAX_SETUPS) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Some((median(&times), last?))
}

/// Closed loop of global steps on two V100 workers.
fn train(args: &Args, until: Duration, r: &mut Report) {
    let config = jobs::job(args.workload, args.seed);
    let Some((setup_s, mut engine)) = set_up(|| Some(checked_engine(&config, jobs::two_v100(), r)))
    else {
        return;
    };

    let mut segments = Segments::new(steps_per_segment(args.workload));
    let start = Instant::now();
    while start.elapsed() < until {
        let t = Instant::now();
        let ok = engine.try_step().is_ok();
        segments.add(ms(t.elapsed()), SAMPLES_PER_STEP);
        if !r.check(ok, "global step failed") {
            break;
        }
    }
    r.check(engine.flat_params().iter().all(|p| p.is_finite()), "params are not finite");

    let (rate, step_ms, clean) = segments.result();
    r.set("setup_s", setup_s);
    r.set("work_per_s", rate);
    r.set("op_ms_p50", step_ms);
    let (p, tail) = crate::stats::tail(&segments.all.1);
    print_detail(&[
        ("samples_per_s", rate, "samples/s"),
        ("step_ms_p50", step_ms, "ms"),
        (&format!("step_ms_p{p}"), tail, "ms"),
        ("steps", segments.all.1.len() as f64, "count"),
        ("clean_frac", clean, "ratio"),
    ]);
}
