//! `cargo run -p detlint [-- --out-dir DIR] [--quiet] [--root PATH]`
//!
//! Runs all four analyses (leaf rules, taint, concurrency, accumulation)
//! over one shared model of every `crates/*/src/**/*.rs` in the workspace,
//! with unified stale-suppression accounting, and exits 1 on findings, so
//! it can gate CI (scripts/ci.sh) exactly like clippy does. `--out-dir`
//! writes the per-mode JSON reports plus the `detlint_modes.json` status
//! breakdown the CI gate stages read.

use detlint::{accum, concur, report, taint, Config, SourceFile};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const HELP: &str = "detlint: static determinism lint for the EasyScale workspace

USAGE: detlint [--out-dir DIR] [--quiet] [--root PATH]

Runs every analysis off one shared workspace model: the leaf rules,
the interprocedural taint flows, the concurrency passes (channel
lifecycle, role-level blocking cycles, lock-order inversions, barrier
conformance) and the float-accumulation dataflow + oracle pairing.
Stale suppressions are accounted across all four.

--out-dir DIR write detlint_report.json, taint_report.json,
               concur_report.json, accum_report.json and
               detlint_modes.json into DIR
--quiet       print nothing (pair with --out-dir for CI gating)
--root PATH   workspace root (default: the enclosing workspace)

Exits 1 when findings exist, 2 on a usage error. Suppress a site with
`// detlint::allow(rule): reason` on the line or the line above;
taint flows use `detlint::allow(taint)` / `taint-<kind>`,
concurrency findings use their kind token (e.g.
`detlint::allow(barrier-unverified): reason`), accumulation
findings use `float-reassoc` / `oracle-unpaired`.";

struct Opts {
    quiet: bool,
    out_dir: Option<PathBuf>,
    root: Option<PathBuf>,
}

/// `Ok(None)` means `--help`; `Err` carries the offending argument.
fn parse(args: &[String]) -> Result<Option<Opts>, String> {
    let mut opts = Opts { quiet: false, out_dir: None, root: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--quiet" => opts.quiet = true,
            "--out-dir" | "--root" => {
                let value = it.next().ok_or_else(|| format!("{arg} needs a path"))?;
                let slot = if arg == "--out-dir" { &mut opts.out_dir } else { &mut opts.root };
                *slot = Some(PathBuf::from(value));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(opts))
}

fn read_workspace(root: &Path) -> io::Result<(Vec<SourceFile>, Vec<SourceFile>)> {
    Ok((detlint::workspace_sources(root)?, detlint::workspace_test_sources(root)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("detlint: {e}\n\n{HELP}");
            return ExitCode::from(2);
        }
    };
    let root = opts
        .root
        .or_else(|| {
            // Under `cargo run -p detlint` the manifest dir is
            // crates/detlint; the workspace root is two levels up.
            std::env::var_os("CARGO_MANIFEST_DIR").map(|d| PathBuf::from(d).join("../.."))
        })
        .unwrap_or_else(|| PathBuf::from("."));

    let (files, test_files) = match read_workspace(&root) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("detlint: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let model = detlint::build_model(&files, &test_files);
    let rep = detlint::analyze_model_all(
        &model,
        &Config::workspace_default(),
        &taint::TaintConfig::workspace_default(),
        &concur::ConcurConfig::workspace_default(),
        &accum::AccumConfig::workspace_default(),
    );

    if let Some(dir) = &opts.out_dir {
        let outputs = [
            ("detlint_report.json", report::json(&rep.leaf)),
            ("taint_report.json", report::taint_json(&rep.taint)),
            ("concur_report.json", report::concur_json(&rep.concur)),
            ("accum_report.json", report::accum_json(&rep.accum)),
            ("detlint_modes.json", report::modes_json(&rep)),
        ];
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("detlint: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for (file, text) in outputs {
            let path = dir.join(file);
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("detlint: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if !opts.quiet {
        print!(
            "{}{}{}{}",
            report::human(&rep.leaf),
            report::taint_human(&rep.taint),
            report::concur_human(&rep.concur),
            report::accum_human(&rep.accum)
        );
    }
    ExitCode::from(u8::from(!rep.is_clean()))
}
