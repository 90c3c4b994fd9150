//! End-to-end and per-layer benchmark of the EasyScale reproduction.
//!
//! One command runs one workload from a seed, measures it for a fixed wall
//! time, checks its outputs and prints every metric as the last line of
//! standard output. `--trace 0` gives the end-to-end metrics ([`E2E`]);
//! `--trace 1` gives the per-layer metrics ([`PER_LAYER`]) from a separate
//! traced run. See `perfbench/README.md` for what each workload and metric
//! is for.

pub mod e2e;
pub mod jobs;
pub mod layers;
pub mod shadow;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ResNet18 proxy: forward/backward dominates the step.
    TrainCompute,
    /// NeuMF proxy: fan-out, drain, reduce and apply are a large share.
    TrainSync,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::TrainCompute, Workload::TrainSync];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainCompute => "train_compute",
            Workload::TrainSync => "train_sync",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const E2E: [(&str, &str); 4] =
    [("setup_s", "s"), ("work_per_s", "1/s"), ("op_ms_p50", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.engine.step_us_p50", "us"),
    ("core.engine.step_us_tail", "us"),
    ("core.engine.inline_step_us_p50", "us"),
    ("core.pool.overhead_us_p50", "us"),
    ("core.pool.overhead_frac", "ratio"),
    ("core.worker.local_us_p50", "us"),
    ("core.worker.local_crit_us_p50", "us"),
    ("core.worker.idle_frac", "ratio"),
    ("core.worker.apply_us_p50", "us"),
    ("data.next_batch_us_p50", "us"),
    ("models.forward_us_p50", "us"),
    ("models.backward_us_p50", "us"),
    ("models.ctx_switch_us_p50", "us"),
    ("comm.allreduce_us_p50", "us"),
    ("comm.buckets", "count"),
    ("comm.bytes_per_step", "B"),
    ("optim.sgd_step_us_p50", "us"),
    ("core.engine.checkpoint_us_p50", "us"),
    ("core.store.encode_us_p50", "us"),
    ("core.store.save_us_p50", "us"),
    ("core.store.bytes", "B"),
    ("core.store.load_us_p50", "us"),
    ("core.store.decode_us_p50", "us"),
    ("core.engine.rescale_us_p50", "us"),
    ("core.engine.from_checkpoint_us_p50", "us"),
    ("core.engine.first_step_us_p50", "us"),
    ("core.pool.spawns", "count"),
    ("trace.generate_ms", "ms"),
    ("sched.sim_run_ms", "ms"),
    ("sched.companion_plan_us_p50", "us"),
    ("sched.intra_proposals_us_p50", "us"),
    ("sched.jobs", "count"),
    ("sched.preemptions", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.shadow_coverage", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Operation and check counts plus the measured metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (steps, saves, rescales, restores, sim runs,
    /// output checks).
    pub attempted: u64,
    /// Operations that failed, failed checks included.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Count one operation or check; a failure is also logged to stderr.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {what}");
        }
        ok
    }

    /// Count `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The final result line for `names`. A listed metric that was not
    /// measured, or is not finite, counts as a failed check.
    pub fn result_line(&mut self, names: &[(&'static str, &'static str)]) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in names.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(&v) if v.is_finite() => v,
                _ => {
                    self.check(false, &format!("metric {name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Where the benchmark writes checkpoints and span files: under the build
/// directory of the checkout it runs in.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// A line from `/proc/self/status`, e.g. `VmHWM`.
fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':').map(|v| v.trim().to_string()))
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_status("VmHWM")?.trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Host facts recorded with every result: `available_parallelism` and the
/// CPUs this process may run on (what `nproc` prints).
pub fn host_line() -> String {
    let ap = std::thread::available_parallelism().map_or(0, |n| n.get());
    let nproc = proc_status("Cpus_allowed_list").map_or(0, |l| cpu_list_len(&l));
    format!("{{\"host\": {{\"available_parallelism\": {ap}, \"nproc\": {nproc}}}}}")
}

/// Number of CPUs in a list such as `0-3,6,8-9`.
fn cpu_list_len(list: &str) -> usize {
    list.split(',')
        .filter_map(|part| match part.split_once('-') {
            Some((a, b)) => {
                Some(b.trim().parse::<usize>().ok()? + 1 - a.trim().parse::<usize>().ok()?)
            }
            None => part.trim().parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv: Vec<String> = "--workload train_sync --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = Args::parse(&argv).expect("valid");
        assert_eq!(a.workload, Workload::TrainSync);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(Args::parse(&["--workload".into(), "nope".into()]).is_err());
    }

    #[test]
    fn cpu_lists_count_ranges() {
        assert_eq!(cpu_list_len("0-3,6,8-9"), 7);
        assert_eq!(cpu_list_len("0"), 1);
    }

    #[test]
    fn unmeasured_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("a", 1.5);
        let line = r.result_line(&[("a", "s"), ("b", "ms")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"), "{line}");
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"), "{line}");
    }
}
