//! The `detlint` binary end to end: the files `--out-dir` writes and the
//! text it prints are exactly the library's renderings of
//! [`detlint::analyze_model_all`] over the same tree, the exit status is the
//! gate verdict, and an argument the CLI does not know is a usage error
//! that writes nothing.

use detlint::accum::AccumConfig;
use detlint::concur::ConcurConfig;
use detlint::taint::TaintConfig;
use detlint::{report, AllReport, Config};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn taint_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/taint_fixtures")
}

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("detlint_cli").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn detlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_detlint")).args(args).output().expect("detlint runs")
}

fn analyze(root: &Path) -> AllReport {
    let files = detlint::workspace_sources(root).expect("fixture tree walks");
    let test_files = detlint::workspace_test_sources(root).expect("fixture tests walk");
    detlint::analyze_model_all(
        &detlint::build_model(&files, &test_files),
        &Config::workspace_default(),
        &TaintConfig::workspace_default(),
        &ConcurConfig::workspace_default(),
        &AccumConfig::workspace_default(),
    )
}

#[test]
fn out_dir_holds_the_library_reports_and_the_exit_is_the_verdict() {
    let root = taint_fixtures();
    let out = scratch("taint");
    let run = detlint(&[
        "--quiet",
        "--out-dir",
        out.to_str().expect("utf-8 path"),
        "--root",
        root.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(run.status.code(), Some(1), "findings must exit 1");
    assert!(run.stdout.is_empty(), "--quiet prints nothing");

    let rep = analyze(&root);
    for (file, expected) in [
        ("detlint_report.json", report::json(&rep.leaf)),
        ("taint_report.json", report::taint_json(&rep.taint)),
        ("concur_report.json", report::concur_json(&rep.concur)),
        ("accum_report.json", report::accum_json(&rep.accum)),
        ("detlint_modes.json", report::modes_json(&rep)),
    ] {
        let written = std::fs::read_to_string(out.join(file))
            .unwrap_or_else(|e| panic!("{file} not written: {e}"));
        assert_eq!(written, expected, "{file} differs from the library report");
    }

    let modes: serde::Value =
        serde_json::from_str(&std::fs::read_to_string(out.join("detlint_modes.json")).unwrap())
            .expect("modes file parses");
    let Some(serde::Value::Seq(entries)) = modes.get_field("modes") else {
        panic!("modes array");
    };
    let taint = entries
        .iter()
        .find(|m| m.get_field("mode").and_then(|v| v.as_str()) == Some("taint"))
        .expect("taint entry");
    assert_eq!(taint.get_field("status").and_then(|v| v.as_str()), Some("dirty"));
}

#[test]
fn stdout_is_the_four_human_reports_in_mode_order() {
    let root = taint_fixtures();
    let run = detlint(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(run.status.code(), Some(1));
    let rep = analyze(&root);
    let expected = format!(
        "{}{}{}{}",
        report::human(&rep.leaf),
        report::taint_human(&rep.taint),
        report::concur_human(&rep.concur),
        report::accum_human(&rep.accum)
    );
    assert_eq!(String::from_utf8_lossy(&run.stdout), expected);
}

#[test]
fn unknown_flag_is_a_usage_error_that_writes_nothing() {
    let dir = scratch("unknown");
    let out = dir.join("out");
    let run = detlint(&[
        "--out-dir",
        out.to_str().expect("utf-8 path"),
        "--sarif",
        dir.join("x.sarif").to_str().expect("utf-8 path"),
    ]);
    assert_eq!(run.status.code(), Some(2), "an unknown flag must exit 2");
    assert!(run.stdout.is_empty());
    assert!(String::from_utf8_lossy(&run.stderr).contains("USAGE"), "usage goes to stderr");
    let left: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    assert!(left.is_empty(), "a usage error must write nothing, found {left:?}");
}

#[test]
fn a_flag_missing_its_path_is_a_usage_error() {
    let run = detlint(&["--quiet", "--out-dir"]);
    assert_eq!(run.status.code(), Some(2));
}
