//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host facts, then (untraced) a `detail` line, and as its last
//! line the result object. Exits 1 when any operation or check failed and
//! 2 on a bad command line.

use perfbench::spans::Tracer;
use perfbench::{e2e, host_line, layers, work_dir, Args, Report, E2E, PER_LAYER};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", host_line());
    let mut report = Report::default();
    let line = if args.trace {
        let mut tracer = Tracer::new();
        layers::run(&args, &mut report, &mut tracer);
        let path =
            work_dir().join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed));
        let written = tracer.write_jsonl(&path);
        report.check(written.is_ok(), &format!("write {}", path.display()));
        report.result_line(&PER_LAYER)
    } else {
        e2e::run(&args, &mut report);
        report.result_line(&E2E)
    };
    println!("{line}");
    std::process::exit(i32::from(report.failed > 0));
}
