//! The `bench_gate` binary's command-line contract at its boundary: a
//! `--baseline` file that exists but does not parse is refused before any
//! bench runs — exit status 2, the file named on stderr, nothing written.

use std::path::Path;
use std::process::Command;

#[test]
fn a_truncated_baseline_exits_2_before_running_or_writing() {
    let dir = std::env::temp_dir().join(format!("bench-gate-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/gate_report_current.json");
    let full = std::fs::read(&fixture).expect("fixture");
    let baseline = dir.join("truncated_baseline.json");
    std::fs::write(&baseline, &full[..full.len() / 2]).expect("write truncated baseline");
    let out = dir.join("out.json");

    let run = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg("--out")
        .arg(&out)
        .arg("--baseline")
        .arg(&baseline)
        .args(["--only", "no_such_bench"])
        .output()
        .expect("run bench_gate");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains(&baseline.display().to_string()),
        "the error must name the baseline file; stderr:\n{stderr}"
    );
    assert!(!stderr.contains("running the"), "no bench may run; stderr:\n{stderr}");
    assert!(!out.exists(), "nothing may be written to --out");
    let _ = std::fs::remove_dir_all(&dir);
}
