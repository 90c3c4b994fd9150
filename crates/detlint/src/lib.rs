//! detlint — a workspace determinism lint.
//!
//! EasyScale's accuracy-consistency story (PAPER.md §3) only holds if the
//! *whole* deterministic path is free of hidden order dependence: hash-table
//! iteration, wall-clock reads, unordered float accumulation, ad-hoc RNG,
//! and thread-completion order. The runtime tests (determinism_matrix,
//! elastic_consistency) catch regressions after the fact; detlint enforces
//! the contract *statically*, at the source level, so a violation is a
//! lint failure before it is a flaky bitwise diff.
//!
//! Design constraints mirror the shims philosophy: fully offline, no
//! external parser — a hand-rolled token scanner ([`lexer`]) feeds a small
//! rule catalog ([`rules`]). Findings carry `file:line` spans, can be
//! rendered as human text or JSON ([`report`]), and are suppressed per-site
//! with `// detlint::allow(rule): reason` comments.

pub mod accum;
pub mod callgraph;
pub mod concur;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod suppress;
pub mod taint;

use std::path::Path;

/// Workspace policy: which crates each rule is load-bearing for.
///
/// Crate names here are the directory names under `crates/` (which for this
/// workspace equal the package names, except `core` whose package is
/// `easyscale`).
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates on the deterministic path — everything a training step's
    /// bitwise result flows through. `no-hash-iter`, `no-adhoc-rng`, and
    /// `no-thread-order` apply here.
    pub deterministic_path: Vec<String>,
    /// Crates allowed to read wall clocks (`no-wall-clock` applies
    /// everywhere else — observability and benches own the clock).
    pub wall_clock_exempt: Vec<String>,
    /// Crates whose float math is numeric-contract-bearing
    /// (`no-raw-float-accum` applies here).
    pub float_accum_crates: Vec<String>,
    /// Type names that, appearing in a fn signature, mark the fn as an
    /// order-parameterized kernel: its accumulation order is explicit
    /// state, so `no-raw-float-accum` does not fire inside it.
    pub order_param_types: Vec<String>,
    /// Identifiers that bless a float ordering as total (`no-float-key-sort`
    /// stands down when one appears in the comparator/statement).
    pub total_order_helpers: Vec<String>,
    /// Skip findings inside `#[cfg(test)] mod … { … }` regions.
    pub skip_test_code: bool,
    /// Report `detlint::allow` comments that suppressed nothing as
    /// `unused-suppression` findings. The taint pass runs the rules with a
    /// permissive scope purely to harvest sources and turns this off there.
    pub report_unused_suppressions: bool,
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

impl Config {
    /// The policy for this workspace, matching docs/DETLINT.md.
    pub fn workspace_default() -> Self {
        Config {
            deterministic_path: strs(&[
                "core", "comm", "tensor", "sched", "data", "esrng", "models", "optim", "faultsim",
            ]),
            wall_clock_exempt: strs(&["obs", "bench"]),
            float_accum_crates: strs(&["tensor", "comm", "models"]),
            order_param_types: strs(&["KernelProfile", "ExecCtx", "RingSpec"]),
            total_order_helpers: strs(&["total_cmp"]),
            skip_test_code: true,
            report_unused_suppressions: true,
        }
    }

    /// The scope the taint pass harvests sources with: the order/entropy
    /// rules active in every listed crate, so a source is visible wherever
    /// it lives — the barrier/sink policy, not rule scoping, decides what
    /// matters. Float accumulation stays scoped to the numeric-contract
    /// crates: a sequential `+=` in single-threaded bookkeeping code is
    /// order-explicit by construction, and seeding taint from it would
    /// drown the report in deterministic accumulators.
    pub fn permissive(crate_names: &[String]) -> Self {
        Config {
            deterministic_path: crate_names.to_vec(),
            wall_clock_exempt: Vec::new(),
            float_accum_crates: strs(&["tensor", "comm", "models"]),
            order_param_types: strs(&["KernelProfile", "ExecCtx", "RingSpec"]),
            total_order_helpers: strs(&["total_cmp"]),
            skip_test_code: true,
            report_unused_suppressions: false,
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`no-hash-iter`, …).
    pub rule: &'static str,
    /// Determinism level the rule protects (`D0`/`D1`/`D2`).
    pub level: &'static str,
    /// Path as reported (workspace-relative when walking a workspace).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to use instead.
    pub message: String,
}

/// Lint one source text as if it lived in crate `crate_name` at path
/// `file`. This is the unit the fixture tests drive directly.
pub fn analyze_source(src: &str, crate_name: &str, file: &str, cfg: &Config) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    rules::check_file(&lexed, crate_name, file, cfg)
}

/// One source file fed to analysis: the crate directory name it belongs
/// to, its workspace-relative path, and its text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Directory name under `crates/`.
    pub crate_name: String,
    /// Workspace-relative path, as reported in findings.
    pub file: String,
    /// File contents.
    pub src: String,
}

/// Read every `crates/*/src/**/*.rs` under `root`, in sorted order. IO
/// errors on the crates directory itself are returned; unreadable
/// individual files are skipped (generated artifacts, broken symlinks).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<std::path::PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut out = Vec::new();
    for dir in crate_dirs {
        let crate_name = match dir.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        let src_dir = dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src_dir, &mut files);
        files.sort();
        for path in files {
            let Ok(src) = std::fs::read_to_string(&path) else { continue };
            let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            out.push(SourceFile { crate_name: crate_name.clone(), file: rel, src });
        }
    }
    Ok(out)
}

/// Lint every `crates/*/src/**/*.rs` under `root`, in sorted order, and
/// return all findings sorted by `(file, line, rule)`.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for sf in workspace_sources(root)? {
        findings.extend(analyze_source(&sf.src, &sf.crate_name, &sf.file, cfg));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Read every integration-test file — `crates/*/tests/**/*.rs` plus the
/// workspace-level `tests/*.rs` — in sorted order. Test files are not
/// linted; they are *evidence* for the oracle-pairing pass (a kernel and
/// its `_scalar` sibling must be exercised together by at least one test).
pub fn workspace_test_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<std::path::PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut out = Vec::new();
    let push_dir = |dir: &Path, crate_name: &str, out: &mut Vec<SourceFile>| {
        if !dir.is_dir() {
            return;
        }
        let mut files = Vec::new();
        collect_rs(dir, &mut files);
        files.sort();
        for path in files {
            let Ok(src) = std::fs::read_to_string(&path) else { continue };
            let rel = path.strip_prefix(root).unwrap_or(&path).display().to_string();
            out.push(SourceFile { crate_name: crate_name.to_string(), file: rel, src });
        }
    };
    for dir in crate_dirs {
        let crate_name = match dir.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        push_dir(&dir.join("tests"), &crate_name, &mut out);
    }
    push_dir(&root.join("tests"), "tests", &mut out);
    Ok(out)
}

/// One analyzed file inside a [`Model`]: lexed exactly once, with its
/// `#[cfg(test)]` regions precomputed, shared by every mode.
#[derive(Debug)]
pub struct ModelFile {
    /// Directory name under `crates/`.
    pub crate_name: String,
    /// Workspace-relative path.
    pub file: String,
    /// The token stream + comments.
    pub lexed: lexer::Lexed,
    /// `#[cfg(test)] mod … { … }` line ranges.
    pub test_regions: Vec<(u32, u32)>,
}

/// The shared analysis model: every mode (leaf/taint/concur/accum) runs
/// off one lex + one item parse + one call graph, instead of each
/// rebuilding its own. Files are sorted at build time, so downstream
/// output never depends on the caller's visit order.
#[derive(Debug)]
pub struct Model {
    /// Analyzed source files, sorted by `(crate, file)`.
    pub files: Vec<ModelFile>,
    /// Integration-test files (oracle evidence), sorted by `(crate, file)`.
    pub test_files: Vec<SourceFile>,
    /// The cross-crate call graph over `files`.
    pub graph: callgraph::Graph,
}

/// Build the shared model: one lex, one item parse, one graph.
pub fn build_model(files: &[SourceFile], test_files: &[SourceFile]) -> Model {
    let mut sorted: Vec<SourceFile> = files.to_vec();
    sorted.sort_by(|a, b| (&a.crate_name, &a.file).cmp(&(&b.crate_name, &b.file)));
    let mut model_files = Vec::with_capacity(sorted.len());
    let mut file_items = Vec::with_capacity(sorted.len());
    for sf in sorted {
        let lexed = lexer::lex(&sf.src);
        let test_regions = rules::test_regions_pub(&lexed.toks);
        file_items.push(items::parse_lexed(&lexed, &sf.crate_name, &sf.file));
        model_files.push(ModelFile {
            crate_name: sf.crate_name,
            file: sf.file,
            lexed,
            test_regions,
        });
    }
    let mut tests: Vec<SourceFile> = test_files.to_vec();
    tests.sort_by(|a, b| (&a.crate_name, &a.file).cmp(&(&b.crate_name, &b.file)));
    Model { files: model_files, test_files: tests, graph: callgraph::Graph::build(file_items) }
}

/// Every mode's report off one model build (what the `detlint` binary runs).
#[derive(Debug)]
pub struct AllReport {
    /// Leaf findings, with the *unified* stale-allow accounting appended:
    /// in the combined run an allow is judged against every mode at once, so the
    /// per-mode reports carry empty `unused_suppressions` and the single
    /// ledger's verdict lands here.
    pub leaf: Vec<Finding>,
    /// Taint flows.
    pub taint: taint::TaintReport,
    /// Concurrency findings/warnings.
    pub concur: concur::ConcurReport,
    /// Accumulation findings + loop/oracle inventories.
    pub accum: accum::AccumReport,
}

impl AllReport {
    /// Does any mode carry a blocking finding?
    pub fn is_clean(&self) -> bool {
        self.leaf.is_empty()
            && self.taint.flows.is_empty()
            && self.concur.findings.is_empty()
            && self.concur.unused_suppressions.is_empty()
            && self.taint.unused_suppressions.is_empty()
            && self.accum.findings.is_empty()
            && self.accum.unused_suppressions.is_empty()
    }
}

/// Run all four modes over one shared model and one shared allow ledger.
pub fn analyze_model_all(
    model: &Model,
    cfg: &Config,
    tcfg: &taint::TaintConfig,
    ccfg: &concur::ConcurConfig,
    acfg: &accum::AccumConfig,
) -> AllReport {
    let mut allows = suppress::AllowSet::new();
    for mf in &model.files {
        let regions: &[(u32, u32)] = if cfg.skip_test_code { &mf.test_regions } else { &[] };
        allows.scan_file(&mf.lexed, &mf.file, regions);
    }
    let mut leaf = Vec::new();
    for mf in &model.files {
        leaf.extend(rules::check_file_with(&mf.lexed, &mf.crate_name, &mf.file, cfg, &mut allows));
    }
    let taint = taint::analyze_model(model, tcfg, &mut allows);
    let concur = concur::analyze_model(model, ccfg, &mut allows);
    let accum = accum::analyze_model(model, acfg, &mut allows);
    // One ledger, one verdict: a token consumed by *any* mode is used; an
    // allow is stale only when no mode consumed it.
    use suppress::Domain;
    leaf.extend(allows.stale(
        &[Domain::Leaf, Domain::Taint, Domain::Concur, Domain::Accum],
        true,
        suppress::phrase::ALL,
    ));
    leaf.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    AllReport { leaf, taint, concur, accum }
}

/// [`analyze_model_all`] over the workspace at `root`.
pub fn analyze_workspace_all(
    root: &Path,
    cfg: &Config,
    tcfg: &taint::TaintConfig,
    ccfg: &concur::ConcurConfig,
    acfg: &accum::AccumConfig,
) -> std::io::Result<AllReport> {
    let files = workspace_sources(root)?;
    let test_files = workspace_test_sources(root)?;
    let model = build_model(&files, &test_files);
    Ok(analyze_model_all(&model, cfg, tcfg, ccfg, acfg))
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.filter_map(|e| e.ok()) {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::workspace_default()
    }

    #[test]
    fn clean_source_has_no_findings() {
        let src = "pub fn add(a: u32, b: u32) -> u32 { a + b }\n";
        assert!(analyze_source(src, "sched", "x.rs", &cfg()).is_empty());
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "// detlint::allow(no-wall-clock): measured for logs only\n\
                   fn f() { let t = std::time::Instant::now(); }\n";
        assert!(analyze_source(src, "sched", "x.rs", &cfg()).is_empty());
        let unsuppressed = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(analyze_source(unsuppressed, "sched", "x.rs", &cfg()).len(), 1);
    }

    #[test]
    fn suppression_is_rule_specific() {
        // An allow for a *different* rule must not mask the violation — and
        // since it masks nothing, it is itself flagged as stale.
        let src = "// detlint::allow(no-hash-iter): wrong rule\n\
                   fn f() { let t = std::time::Instant::now(); }\n";
        let found = analyze_source(src, "sched", "x.rs", &cfg());
        let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unused-suppression", "no-wall-clock"]);
    }

    #[test]
    fn used_suppressions_are_not_reported_stale() {
        let src = "// detlint::allow(no-wall-clock): measured for logs only\n\
                   fn f() { let t = std::time::Instant::now(); }\n";
        assert!(analyze_source(src, "sched", "x.rs", &cfg()).is_empty());
    }

    #[test]
    fn float_key_sort_scopes_to_deterministic_path() {
        let src = "fn f(v: &mut Vec<(u32, f64)>) { v.sort_by(|a, b| \
                   a.1.partial_cmp(&b.1).unwrap()); }\n";
        let found = analyze_source(src, "sched", "x.rs", &cfg());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "no-float-key-sort");
        // Same code off the deterministic path is out of scope.
        assert!(analyze_source(src, "trace", "x.rs", &cfg()).is_empty());
        // total_cmp is the blessed total order.
        let fixed = "fn f(v: &mut Vec<(u32, f64)>) { v.sort_by(|a, b| a.1.total_cmp(&b.1)); }\n";
        assert!(analyze_source(fixed, "sched", "x.rs", &cfg()).is_empty());
    }

    #[test]
    fn test_modules_are_skipped() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let t = std::time::Instant::now(); }\n}\n";
        assert!(analyze_source(src, "sched", "x.rs", &cfg()).is_empty());
    }

    #[test]
    fn rules_scope_to_configured_crates() {
        let src = "fn f(m: std::collections::HashMap<u32, u32>) -> u32 { m.values().sum() }\n";
        // `sched` is deterministic-path: hash iteration fires.
        assert!(!analyze_source(src, "sched", "x.rs", &cfg()).is_empty());
        // `trace` is not: same code is fine there.
        assert!(analyze_source(src, "trace", "x.rs", &cfg()).is_empty());
    }
}
