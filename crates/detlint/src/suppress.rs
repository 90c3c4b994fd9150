//! One grammar, one ledger: every detlint mode reads
//! `// detlint::allow(token[, token…]): reason` comments through this
//! module. Before it existed, the leaf rules, the taint pass, and the
//! concurrency pass each re-scanned comments with slightly different
//! parsers and kept *separate* usage books — an allow consumed by one mode
//! could still be reported stale by another. Now a single [`AllowSet`] is
//! scanned once per file, consumption is recorded in place, and staleness
//! is computed per domain (single-mode runs) or across all domains at once
//! (combined runs), so a token is only ever judged by the pass that owns it.

use crate::lexer::Lexed;
use crate::Finding;

/// Which pass owns a suppression token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// A leaf-rule name from [`crate::rules::CATALOG`] (`no-wall-clock`, …).
    Leaf,
    /// `taint` or `taint-<kind>`.
    Taint,
    /// A concurrency kind from [`crate::concur::ALLOW_KINDS`].
    Concur,
    /// An accumulation kind from [`crate::accum::ALLOW_KINDS`].
    Accum,
    /// A token no pass recognizes (typo'd rule, future kind).
    Unknown,
}

/// Classify one suppression token by the pass that owns it.
pub fn domain_of(token: &str) -> Domain {
    if token == "taint" || token.starts_with("taint-") {
        return Domain::Taint;
    }
    if crate::concur::ALLOW_KINDS.contains(&token) {
        return Domain::Concur;
    }
    if crate::accum::ALLOW_KINDS.contains(&token) {
        return Domain::Accum;
    }
    if crate::rules::CATALOG.iter().any(|r| r.name == token) {
        return Domain::Leaf;
    }
    Domain::Unknown
}

/// Extract `(line, [token…])` suppressions from line comments. Only a
/// comment that *is* a suppression counts — `detlint::allow(` must open the
/// comment (standalone or trailing); prose that merely mentions the syntax
/// (doc comments, this very sentence) is ignored.
pub fn parse(lexed: &Lexed) -> Vec<(u32, Vec<String>)> {
    let mut out = Vec::new();
    for (line, text) in &lexed.comments {
        let trimmed = text.trim_start();
        if !trimmed.starts_with("detlint::allow(") {
            continue;
        }
        let rest = &trimmed["detlint::allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if !rules.is_empty() {
            out.push((*line, rules));
        }
    }
    out
}

/// One suppression comment with usage accounting.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Workspace-relative file the comment lives in.
    pub file: String,
    /// 1-based comment line. Covers findings on this line or the next.
    pub line: u32,
    /// Every token listed, in source order (all domains mixed).
    pub rules: Vec<String>,
    /// Inside a skipped `#[cfg(test)] mod … { … }` region (inert).
    pub in_test: bool,
    /// Did any pass consume any of this allow's tokens?
    pub used: bool,
}

impl Allow {
    /// Does this allow sit on a finding at `line` (same line or directly
    /// above)?
    pub fn covers_line(&self, line: u32) -> bool {
        self.line == line || self.line + 1 == line
    }
}

/// The shared ledger of every allow seen by a run, across all files.
#[derive(Debug, Default)]
pub struct AllowSet {
    /// All allows, in file-scan order.
    pub allows: Vec<Allow>,
}

impl AllowSet {
    /// An empty set; populate with [`AllowSet::scan_file`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Scan one lexed file's comments into the set. `test_regions` marks
    /// allows that sit inside skipped test modules (pass an empty slice to
    /// treat everything as live code).
    pub fn scan_file(&mut self, lexed: &Lexed, file: &str, test_regions: &[(u32, u32)]) {
        for (line, rules) in parse(lexed) {
            self.allows.push(Allow {
                file: file.to_string(),
                line,
                in_test: test_regions.iter().any(|&(a, b)| (a..=b).contains(&line)),
                rules,
                used: false,
            });
        }
    }

    /// Consume any allow covering `(file, line)` that lists `token`
    /// verbatim. Every matching allow is marked used; returns whether any
    /// matched.
    pub fn consume(&mut self, file: &str, line: u32, token: &str) -> bool {
        let mut hit = false;
        for a in self.allows.iter_mut() {
            if a.file == file && a.covers_line(line) && a.rules.iter().any(|r| r == token) {
                a.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Taint-domain consumption: `taint` blocks every kind, `taint-<kind>`
    /// blocks exactly one.
    pub fn consume_taint(&mut self, file: &str, line: u32, kind: &str) -> bool {
        let mut hit = false;
        for a in self.allows.iter_mut() {
            if a.file == file
                && a.covers_line(line)
                && a.rules.iter().any(|r| r == "taint" || r == &format!("taint-{kind}"))
            {
                a.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Stale-allow accounting for the pass(es) that ran. An allow is stale
    /// when nothing consumed it, it is live code, and *every* token it
    /// lists belongs to `domains` (plus [`Domain::Unknown`] when
    /// `unknown_ok` — the leaf pass owns typo'd tokens so they surface
    /// somewhere). Mixed allows whose other tokens belong to passes that
    /// did not run are skipped: their staleness cannot be judged here.
    /// `phrase` is the per-mode message tail after the backticked allow.
    pub fn stale(&self, domains: &[Domain], unknown_ok: bool, phrase: &str) -> Vec<Finding> {
        let in_scope = |t: &str| {
            let d = domain_of(t);
            domains.contains(&d) || (unknown_ok && d == Domain::Unknown)
        };
        self.allows
            .iter()
            .filter(|a| !a.used && !a.in_test)
            .filter(|a| (unknown_ok || !a.rules.is_empty()) && a.rules.iter().all(|r| in_scope(r)))
            .map(|a| Finding {
                rule: "unused-suppression",
                level: "meta",
                file: a.file.clone(),
                line: a.line,
                message: format!("`detlint::allow({})` {}", a.rules.join(", "), phrase),
            })
            .collect()
    }
}

/// The exact per-mode stale-message tails, kept here so every caller (and
/// the report fixtures) agree byte-for-byte.
pub mod phrase {
    /// Leaf rules.
    pub const LEAF: &str = "matches no finding on this or the next line; delete the stale \
                            suppression or fix its rule list";
    /// Taint pass.
    pub const TAINT: &str = "blocked no taint propagation; delete the stale suppression or \
                             fix its kind list";
    /// Concurrency pass.
    pub const CONCUR: &str = "blocked no concurrency finding; delete the stale suppression \
                              or fix its kind list";
    /// Accumulation pass.
    pub const ACCUM: &str = "blocked no accumulation finding; delete the stale suppression \
                             or fix its kind list";
    /// Unified accounting of the combined run.
    pub const ALL: &str = "matched no finding in any mode; delete the stale suppression or \
                           fix its rule list";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn domains_classify_every_token_family() {
        assert_eq!(domain_of("no-wall-clock"), Domain::Leaf);
        assert_eq!(domain_of("taint"), Domain::Taint);
        assert_eq!(domain_of("taint-hash-iter"), Domain::Taint);
        assert_eq!(domain_of("raw-channel"), Domain::Concur);
        assert_eq!(domain_of("float-reassoc"), Domain::Accum);
        assert_eq!(domain_of("oracle-unpaired"), Domain::Accum);
        assert_eq!(domain_of("no-such-rule"), Domain::Unknown);
    }

    #[test]
    fn consumption_in_one_domain_silences_cross_domain_staleness() {
        // The quirk this module fixes: a mixed allow consumed by the leaf
        // pass must not be stale in any other pass, and the unified
        // accounting sees one ledger.
        let lexed = lex("// detlint::allow(no-wall-clock, float-reassoc): both audited\nfn f(){}");
        let mut set = AllowSet::new();
        set.scan_file(&lexed, "x.rs", &[]);
        assert!(set.consume("x.rs", 2, "no-wall-clock"));
        assert!(set.stale(&[Domain::Leaf], true, phrase::LEAF).is_empty());
        assert!(set
            .stale(&[Domain::Leaf, Domain::Taint, Domain::Concur, Domain::Accum], true, phrase::ALL)
            .is_empty());
    }

    #[test]
    fn mixed_unused_allows_are_only_judged_when_every_owner_ran() {
        let lexed = lex("// detlint::allow(no-wall-clock, taint): nothing here\nfn f(){}");
        let mut set = AllowSet::new();
        set.scan_file(&lexed, "x.rs", &[]);
        // Single-mode runs cannot judge the other token's usage…
        assert!(set.stale(&[Domain::Leaf], true, phrase::LEAF).is_empty());
        assert!(set.stale(&[Domain::Taint], false, phrase::TAINT).is_empty());
        // …the unified run can, and reports exactly one stale finding.
        let all = set.stale(
            &[Domain::Leaf, Domain::Taint, Domain::Concur, Domain::Accum],
            true,
            phrase::ALL,
        );
        assert_eq!(all.len(), 1);
        assert!(all[0].message.contains("no-wall-clock, taint"));
    }

    #[test]
    fn taint_consumption_accepts_kind_scoped_tokens() {
        let lexed = lex("// detlint::allow(taint-wall-clock): audited\nfn f(){}");
        let mut set = AllowSet::new();
        set.scan_file(&lexed, "x.rs", &[]);
        assert!(!set.consume_taint("x.rs", 2, "hash-iter"));
        assert!(set.consume_taint("x.rs", 2, "wall-clock"));
        assert!(set.stale(&[Domain::Taint], false, phrase::TAINT).is_empty());
    }

    #[test]
    fn test_region_allows_are_inert() {
        let lexed = lex(
            "#[cfg(test)]\nmod tests {\n    // detlint::allow(no-wall-clock): x\n    fn f(){}\n}\n",
        );
        let mut set = AllowSet::new();
        let regions = crate::rules::test_regions_pub(&lexed.toks);
        set.scan_file(&lexed, "x.rs", &regions);
        assert!(set.stale(&[Domain::Leaf], true, phrase::LEAF).is_empty());
    }
}
