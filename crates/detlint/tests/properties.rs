//! Property-based tests for the taint, concurrency, and accumulation
//! analyses: each report is a pure function of the file *set*, never the
//! file *visit order*. The walker feeds files in sorted order, but nothing
//! may depend on that — graph node ids, BFS frontiers, and witness
//! selection all have explicit tie-breaks, and these properties pin them
//! byte-for-byte.

use detlint::accum::AccumConfig;
use detlint::concur::ConcurConfig;
use detlint::report;
use detlint::taint::{analyze_files, TaintConfig};
use detlint::SourceFile;
use proptest::prelude::*;

/// The planted fixture mini-workspace: five crates, six flows, one stale
/// suppression — enough structure for an order bug to change the bytes.
fn corpus() -> Vec<SourceFile> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/taint_fixtures");
    detlint::workspace_sources(&root).expect("fixture tree walks")
}

/// The concurrency fixture mini-workspace: all seven finding classes, a
/// warning, a stale allow, witness paths, and the blocking inventory.
fn concur_corpus() -> Vec<SourceFile> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/concur_fixtures");
    detlint::workspace_sources(&root).expect("fixture tree walks")
}

/// The accumulation fixture mini-workspace: every reassociation shape,
/// both oracle-pairing failures, a used allow, and a stale allow.
fn accum_corpus() -> (Vec<SourceFile>, Vec<SourceFile>) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/accum_fixtures");
    let files = detlint::workspace_sources(&root).expect("fixture tree walks");
    let test_files = detlint::workspace_test_sources(&root).expect("fixture tests walk");
    (files, test_files)
}

/// Fisher–Yates with an xorshift generator seeded by the property case.
fn shuffle(files: &mut [SourceFile], seed: u64) {
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1);
    for i in (1..files.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        files.swap(i, (s % (i as u64 + 1)) as usize);
    }
}

proptest! {
    /// Any permutation of the input files yields a byte-identical JSON
    /// taint report.
    #[test]
    fn taint_report_is_byte_identical_under_any_file_visit_order(seed in 0u64..u64::MAX) {
        let cfg = TaintConfig::workspace_default();
        let baseline = report::taint_json(&analyze_files(&corpus(), &cfg));
        let mut files = corpus();
        shuffle(&mut files, seed);
        let shuffled = report::taint_json(&analyze_files(&files, &cfg));
        prop_assert_eq!(baseline, shuffled);
    }

    /// Any permutation of the input files yields a byte-identical JSON
    /// concurrency report — findings, witness paths, role counts, and the
    /// blocking inventory included.
    #[test]
    fn concur_report_is_byte_identical_under_any_file_visit_order(seed in 0u64..u64::MAX) {
        let cfg = ConcurConfig::workspace_default();
        let baseline =
            report::concur_json(&detlint::concur::analyze_files(&concur_corpus(), &cfg));
        let mut files = concur_corpus();
        shuffle(&mut files, seed);
        let shuffled = report::concur_json(&detlint::concur::analyze_files(&files, &cfg));
        prop_assert_eq!(baseline, shuffled);
    }

    /// Any permutation of the source *and* test files yields a
    /// byte-identical JSON accumulation report — loop inventory, oracle
    /// checks, and suppression accounting included.
    #[test]
    fn accum_report_is_byte_identical_under_any_file_visit_order(seed in 0u64..u64::MAX) {
        let cfg = AccumConfig::workspace_default();
        let (files, test_files) = accum_corpus();
        let baseline =
            report::accum_json(&detlint::accum::analyze_files(&files, &test_files, &cfg));
        let (mut files, mut test_files) = accum_corpus();
        shuffle(&mut files, seed);
        shuffle(&mut test_files, seed.rotate_left(17));
        let shuffled =
            report::accum_json(&detlint::accum::analyze_files(&files, &test_files, &cfg));
        prop_assert_eq!(baseline, shuffled);
    }
}
