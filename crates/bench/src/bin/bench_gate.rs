//! bench_gate: fixed micro-benchmarks with a JSON regression gate.
//!
//! The criterion shim prints means for humans; CI needs machine-readable
//! medians it can diff across PRs. This binary times a small, fixed set of
//! scheduler and all-reduce micro-benches (median ns/iter over many
//! samples — the median shrugs off scheduler noise a mean soaks up), writes
//! them as JSON, and — given a baseline file from an earlier PR — fails
//! when any bench regressed past the threshold.
//!
//! ```text
//! bench_gate --out BENCH_PR8.json [--baseline BENCH_PR7.json] [--threshold 1.15]
//! bench_gate --smoke [--only kernel_]      # CI quick mode: compile+run only
//! ```
//!
//! `--only SUBSTR` restricts the suite to benches whose name contains the
//! substring; `--smoke` runs each selected bench with minimal samples and no
//! gate (the CI `kernels` stage uses both to smoke the per-kernel benches
//! on every quick run, so bench code cannot bit-rot between full runs).
//!
//! The gate is two-sided: besides failing on regressions, medians that
//! *beat* the baseline by the same margin are printed as wins and recorded
//! in the output JSON's `improvements` array (see `bench::gate`).
//!
//! Exit status: 1 when a bench exceeds `baseline * threshold`, 2 on usage
//! errors. Benches present in only one of the two files are reported but
//! never gate (the set is allowed to grow).

use std::time::Instant;

use bench::gate::{
    improvements, load_baseline, regressions, BenchResult, GateReport, HostFingerprint,
};
use comm::ElasticDdp;
use device::GpuType;
use easyscale::{Engine, ExecMode, ExecOptions, JobConfig, Placement};
use models::Workload;
use sched::{Companion, IntraJobScheduler};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Median ns/iter of `samples` timed samples of `iters` iterations each,
/// after `warmup` untimed iterations.
fn measure<F: FnMut()>(samples: u32, iters: u32, warmup: u32, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    per_iter[per_iter.len() / 2]
}

fn grads(vworld: u32, n: usize) -> Vec<Vec<f32>> {
    (0..vworld).map(|r| (0..n).map(|i| ((i + r as usize) as f32 * 0.7).sin()).collect()).collect()
}

/// Suite configuration: `--smoke` shrinks samples/iterations to a compile-
/// and-run check; `--only` selects benches by name substring.
struct SuiteOpts {
    smoke: bool,
    only: Option<String>,
}

fn run_suite(opts: &SuiteOpts) -> Vec<BenchResult> {
    let samples: u32 = if opts.smoke { 3 } else { 31 };
    let scale = |iters: u32| if opts.smoke { 1 } else { iters };
    let mut out = Vec::new();
    let mut record = |name: &str, iters: u32, median: f64| {
        eprintln!("  {name:<40} {median:>12.1} ns/iter");
        out.push(BenchResult {
            name: name.to_string(),
            median_ns_per_iter: median,
            samples,
            iters_per_sample: iters,
        });
    };
    let selected = |name: &str| opts.only.as_deref().is_none_or(|substr| name.contains(substr));

    // Mirror benches/scheduler.rs: Eq 1 plan evaluation on a mixed cluster.
    if selected("companion_plan_16_ests_16_gpus") {
        let companion = Companion::for_workload(&Workload::Bert.spec(), 16, true);
        let alloc = vec![(GpuType::V100, 4), (GpuType::P100, 4), (GpuType::T4, 8)];
        record(
            "companion_plan_16_ests_16_gpus",
            scale(200),
            measure(samples, scale(200), scale(50), || {
                black_box(companion.plan(black_box(&alloc)));
            }),
        );
    }

    // Role-2 proposal generation against a full free pool.
    if selected("intra_job_proposals") {
        let companion = Companion::for_workload(&Workload::ResNet50.spec(), 16, false);
        let mut sched = IntraJobScheduler::new(0, companion, false);
        sched.apply_allocation(vec![(GpuType::V100, 2)]);
        let free: BTreeMap<GpuType, u32> =
            [(GpuType::V100, 16), (GpuType::P100, 16), (GpuType::T4, 16)].into_iter().collect();
        record(
            "intra_job_proposals",
            scale(200),
            measure(samples, scale(200), scale(50), || {
                black_box(sched.proposals(black_box(&free), 3));
            }),
        );
    }

    // Mirror benches/allreduce.rs: ring all-reduce, 4 virtual ranks, 16k
    // params.
    if selected("allreduce_vworld4_16k") {
        let sizes = vec![1000usize; 16];
        let ddp = ElasticDdp::new(&sizes, 4, 8192);
        let gr = grads(4, 16_000);
        record(
            "allreduce_vworld4_16k",
            scale(20),
            measure(samples, scale(20), scale(5), || {
                black_box(ddp.allreduce_avg(black_box(&gr)));
            }),
        );
    }

    // Same payload under a small bucket cap (many buckets: stresses the
    // bucketing machinery rather than the reduction).
    if selected("allreduce_bucket_cap_512") {
        let sizes = vec![500usize; 32];
        let ddp = ElasticDdp::new(&sizes, 4, 512);
        let gr = grads(4, 16_000);
        record(
            "allreduce_bucket_cap_512",
            scale(20),
            measure(samples, scale(20), scale(5), || {
                black_box(ddp.allreduce_avg(black_box(&gr)));
            }),
        );
    }

    // Per-kernel microbenches (the `kernel_` family, smoked by the CI
    // `kernels` stage on every quick run): the reduce_block × algo_id ×
    // length grid for the profile-tree sum, plus the two other hot loops the
    // vectorized schedule touches (dot and axpy). Every kernel here is
    // proven bit-identical to its scalar oracle in tests/vectorized_equiv.rs;
    // these benches record what the "same tree, faster schedule" refactor
    // bought, per tree shape.
    {
        let data: Vec<f32> =
            (0..65_536).map(|i| ((i * 31) as f32).sin() * 10f32.powi(i % 5 - 2)).collect();
        for &len in &[4096usize, 65_536] {
            for &block in &[32usize, 128] {
                for algo in 0..3u8 {
                    let name = format!("kernel_sum_b{block}_a{algo}_len{len}");
                    if !selected(&name) {
                        continue;
                    }
                    let p = tensor::KernelProfile {
                        reduce_block: block,
                        tile_k: 16,
                        algo_id: algo,
                        deterministic: true,
                    };
                    let d = &data[..len];
                    let iters = scale(if len <= 4096 { 200 } else { 20 });
                    record(
                        &name,
                        iters,
                        measure(samples, iters, scale(5), || {
                            black_box(tensor::kernels::blocked_sum(black_box(d), &p));
                        }),
                    );
                }
            }
        }
        if selected("kernel_dot_t16_len65536") {
            let p = tensor::KernelProfile::hardware_agnostic();
            let b: Vec<f32> = data.iter().map(|x| x * 0.5 + 1.0).collect();
            record(
                "kernel_dot_t16_len65536",
                scale(20),
                measure(samples, scale(20), scale(5), || {
                    black_box(tensor::ops::dot(black_box(&data), black_box(&b), &p));
                }),
            );
        }
        if selected("kernel_axpy_len65536") {
            let mut x = tensor::Tensor::from_slice(&data);
            let y = tensor::Tensor::from_slice(&data);
            record(
                "kernel_axpy_len65536",
                scale(50),
                measure(samples, scale(50), scale(5), || {
                    x.axpy_(black_box(1e-6), black_box(&y));
                }),
            );
        }
        if selected("kernel_ring_reduce_vw4_64k") {
            // The raw ring kernel on one contiguous 64k bucket — the shape
            // the allreduce path feeds it — without bucketing overhead.
            let gr = grads(4, 65_536);
            let views: Vec<&[f32]> = gr.iter().map(|g| g.as_slice()).collect();
            let positions: Vec<usize> = (0..65_536).collect();
            let spec = comm::RingSpec { nranks: 4 };
            let mut sink = vec![0.0f32; 65_536];
            record(
                "kernel_ring_reduce_vw4_64k",
                scale(20),
                measure(samples, scale(20), scale(5), || {
                    comm::ring_allreduce(
                        black_box(&views),
                        black_box(&positions),
                        &spec,
                        &mut sink,
                    );
                    black_box(&sink);
                }),
            );
        }
        // The conv shapes of the ResNet18 proxy's residual block under the
        // V100 profile: the per-sample weight gradient `g · colsᵀ`, the
        // mini-batch-wide forward GEMM over B·oh·ow = 512 columns, and one
        // whole Conv2d layer forward + backward at batch 8.
        let v100 = tensor::KernelProfile::vendor_optimized(80);
        let mat = |rows: usize, cols: usize| {
            tensor::Tensor::from_vec(data[..rows * cols].to_vec(), &[rows, cols])
        };
        if selected("kernel_matmul_a_bt_8x64x72") {
            let (g, cols) = (mat(8, 64), mat(72, 64));
            record(
                "kernel_matmul_a_bt_8x64x72",
                scale(200),
                measure(samples, scale(200), scale(20), || {
                    black_box(tensor::ops::matmul_a_bt(black_box(&g), black_box(&cols), &v100));
                }),
            );
        }
        if selected("kernel_matmul_8x72x512") {
            let (w, cols) = (mat(8, 72), mat(72, 512));
            record(
                "kernel_matmul_8x72x512",
                scale(100),
                measure(samples, scale(100), scale(10), || {
                    black_box(tensor::ops::matmul(black_box(&w), black_box(&cols), &v100));
                }),
            );
        }
        if selected("kernel_conv2d_b8_c8_hw8") {
            use models::model::{ExecCtx, Layer};
            let mut init =
                esrng::EsRng::for_stream(7, esrng::StreamKey::global(esrng::StreamKind::ModelInit));
            let mut conv = models::conv::Conv2d::init(8, 8, 3, 1, 1, &mut init);
            let x = tensor::Tensor::from_vec(data[..8 * 8 * 64].to_vec(), &[8, 8, 8, 8]);
            let grad = tensor::Tensor::from_vec(data[1..8 * 8 * 64 + 1].to_vec(), &[8, 8, 8, 8]);
            let mut dropout = init.clone();
            record(
                "kernel_conv2d_b8_c8_hw8",
                scale(50),
                measure(samples, scale(50), scale(5), || {
                    let mut ctx = ExecCtx { profile: v100, training: true, dropout: &mut dropout };
                    black_box(conv.forward(black_box(&x), &mut ctx));
                    black_box(conv.backward(black_box(&grad), &mut ctx));
                }),
            );
        }
    }

    // One full global step on the persistent pool (the default backend):
    // the engine's per-step fan-out, drain, reduce and apply round trips at
    // W workers. The math is bitwise identical to the single-thread engine
    // (faultsim/tests/nthread_eq_single.rs).
    for workers in [4u32, 8] {
        let name = format!("engine_step_pool_w{workers}");
        if !selected(&name) {
            continue;
        }
        let cfg =
            JobConfig::new(Workload::NeuMF, 7, workers).with_dataset_len(512).with_batch_size(1);
        let exec = ExecOptions {
            mode: ExecMode::Pool,
            device_ids: (0..workers).collect(),
            ..ExecOptions::default()
        };
        let mut e = Engine::new_opts(cfg, Placement::one_est_per_gpu(workers, GpuType::V100), exec);
        e.step(); // warm: first step rebuilds the bucket layout
        record(
            &name,
            scale(10),
            measure(samples, scale(10), scale(3), || {
                black_box(e.step());
            }),
        );
    }

    // The ResNet18 proxy's training step as the benchmark's
    // `train_compute` workload runs it: nEST 8 on 2 V100 workers (4+4),
    // batch 8, pool backend — forward/backward dominates.
    if selected("engine_step_resnet18_w2") {
        let cfg = JobConfig::new(Workload::ResNet18, 7, 8).with_dataset_len(512);
        let exec =
            ExecOptions { mode: ExecMode::Pool, device_ids: vec![0, 1], ..ExecOptions::default() };
        let mut e = Engine::new_opts(cfg, Placement::homogeneous(8, 2, GpuType::V100), exec);
        e.step();
        record(
            "engine_step_resnet18_w2",
            scale(5),
            measure(samples, scale(5), scale(2), || {
                black_box(e.step());
            }),
        );
    }

    out
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate --out PATH [--baseline PATH] [--threshold FLOAT] [--only SUBSTR]\n\
         \x20      bench_gate --smoke [--only SUBSTR]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut threshold: f64 = 1.15;
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--out" => out_path = Some(take(&mut i)),
            "--baseline" => baseline_path = Some(take(&mut i)),
            "--threshold" => threshold = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--smoke" => smoke = true,
            "--only" => only = Some(take(&mut i)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
        i += 1;
    }
    // Smoke mode is a compile+run check: no JSON, no gate. Everything else
    // must record its results somewhere.
    if out_path.is_none() && !smoke {
        usage();
    }
    let opts = SuiteOpts { smoke, only };

    eprintln!(
        "bench_gate: running the {} suite{}",
        if smoke { "smoke" } else { "fixed" },
        opts.only.as_deref().map(|s| format!(" (only *{s}*)")).unwrap_or_default()
    );
    let benches = run_suite(&opts);
    if benches.is_empty() {
        eprintln!("bench_gate: --only matched no benches");
        std::process::exit(2);
    }
    let Some(out_path) = out_path else {
        eprintln!("bench_gate: smoke run complete ({} bench(es) executed)", benches.len());
        return;
    };
    let mut report = GateReport {
        suite: "easyscale-bench-gate".to_string(),
        benches,
        improvements: Vec::new(),
        host: HostFingerprint::detect(),
    };

    // A missing baseline is the normal first-PR state, not an error: warn
    // and pass. A corrupt baseline is an error.
    let baseline = match &baseline_path {
        None => None,
        Some(p) => match load_baseline(std::path::Path::new(p)) {
            Ok(Some(b)) => Some(b),
            Ok(None) => {
                eprintln!(
                    "bench_gate: warning: baseline {p} does not exist; \
                     skipping the gate (recording {out_path} for the next PR)"
                );
                None
            }
            Err(e) => panic!("{e}"),
        },
    };
    if let Some(base) = &baseline {
        // Recorded *into* the report, so the BENCH_*.json a PR ships is
        // machine-readable evidence of the speedups it claims.
        report.improvements = improvements(&report, base, threshold);
        // Cross-box comparisons are how PR 6 chased a phantom regression:
        // absolute medians from different hosts are not comparable. Warn
        // loudly, but keep gating — within-file ratios still mean something
        // and CI has no second box to ask.
        if let Some(diff) = report.host.mismatch(&base.host) {
            eprintln!(
                "bench_gate: ================ HOST MISMATCH ================\n\
                 bench_gate: baseline and candidate were recorded on DIFFERENT machines;\n\
                 bench_gate: absolute medians are NOT comparable — trust within-file ratios only.\n\
                 bench_gate: {diff}\n\
                 bench_gate: ==============================================="
            );
        }
    }

    std::fs::write(&out_path, serde_json::to_string_pretty(&report).expect("report json"))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("bench_gate: wrote {out_path}");

    let Some(baseline) = baseline else {
        if baseline_path.is_none() {
            eprintln!("bench_gate: no baseline given; gate passes trivially");
        }
        return;
    };
    let baseline_name = baseline_path
        .as_deref()
        .map(|p| p.rsplit('/').next().unwrap_or(p).to_string())
        .unwrap_or_default();

    // The wins/regressions table: every bench, two-sided verdict.
    let mut wins = 0u32;
    for cur in &report.benches {
        match baseline.benches.iter().find(|b| b.name == cur.name) {
            Some(base) => {
                let ratio = cur.median_ns_per_iter / base.median_ns_per_iter;
                let verdict = if ratio > threshold {
                    "REGRESSED"
                } else if ratio < 1.0 / threshold {
                    wins += 1;
                    "improved"
                } else {
                    "ok"
                };
                eprintln!("  {:<40} {ratio:>7.3}x vs {baseline_name} ({verdict})", cur.name);
            }
            None => eprintln!("  {:<40} (new bench; not gated)", cur.name),
        }
    }
    let regressed = regressions(&report, &baseline, threshold);
    eprintln!(
        "bench_gate: {wins} win(s) past 1/{threshold}x, {} regression(s) past {threshold}x",
        regressed.len()
    );
    if !regressed.is_empty() {
        eprintln!("bench_gate: regressed bench(es): {}", regressed.join(", "));
        std::process::exit(1);
    }
}
