//! Float-accumulation dataflow: the static half of the "same tree, faster
//! schedule" contract (PAPER.md D1, docs/DESIGN.md).
//!
//! The vectorized kernels keep bitwise consistency by fixing the *shape*
//! of every float reduction tree: a single loop-carried chain, or the
//! SUM_LANES lockstep pattern (a fixed-size accumulator array whose lanes
//! each form one chain, merged after the loop in ascending index order —
//! `tensor::kernels::leaf_partials` is the canonical instance). The
//! runtime proptests prove today's kernels match their `_scalar` oracles;
//! this pass stops the *next* edit from silently reassociating a loop or
//! dropping an oracle pairing.
//!
//! Intraprocedural dataflow over the token/item model, two sub-passes:
//!
//! 1. **Loop classification.** Every loop-carried `f32`/`f64` accumulator
//!    (read and `+=`/`*=`-assigned across `for`/`while` iterations) puts
//!    its loop in one of three classes: *single-chain* (canonical),
//!    *lockstep* (array accumulator, lanes independent, ascending merge —
//!    recognized safe), or *reassociation-prone* → a `float-reassoc`
//!    finding with span witnesses. Reassociation-prone shapes: accumulator
//!    chains merged inside the loop body, a lockstep array merged in
//!    reverse lane order, iterator-order-dependent folds (`sum`/`fold`
//!    over `rev`/`chunks`/`flat_map`-reshaped iterators), and chunked
//!    loops that fold each chunk — the remainder chunk then accumulates
//!    through a different chain than full blocks.
//! 2. **Oracle pairing.** Every pub fn matching the configured
//!    vectorized-kernel name set must have a `<name>_scalar` sibling in
//!    the workspace *and* one test (file or `#[cfg(test)]` region) calling
//!    both — otherwise `oracle-unpaired`.
//!
//! Both finding kinds demote through `// detlint::allow(float-reassoc)` /
//! `// detlint::allow(oracle-unpaired)` with the shared stale accounting
//! of [`crate::suppress`].

use crate::items;
use crate::lexer::{Tok, TokKind};
use crate::suppress::{phrase, AllowSet, Domain};
use crate::{Model, SourceFile};
use std::path::Path;

/// Suppression tokens this pass owns.
pub const ALLOW_KINDS: [&str; 2] = ["float-reassoc", "oracle-unpaired"];

/// Policy for one accumulation run.
#[derive(Debug, Clone)]
pub struct AccumConfig {
    /// Crates whose float math is numeric-contract-bearing; loops outside
    /// them are not classified (same scope as `no-raw-float-accum`).
    pub accum_crates: Vec<String>,
    /// Vectorized-kernel name set for oracle pairing. A trailing `*` is a
    /// prefix glob (`matmul*`); names ending `_scalar` are never subjects.
    pub oracle_kernels: Vec<String>,
}

impl AccumConfig {
    /// The policy for this workspace (docs/DETLINT.md).
    pub fn workspace_default() -> Self {
        let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        AccumConfig {
            accum_crates: strs(&["tensor", "comm", "models"]),
            oracle_kernels: strs(&[
                "blocked_sum",
                "leaf_partials",
                "dot",
                "matmul*",
                "axpy_",
                "ring_allreduce",
            ]),
        }
    }

    fn kernel_matches(&self, name: &str) -> bool {
        if name.ends_with("_scalar") {
            return false;
        }
        self.oracle_kernels.iter().any(|p| match p.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => p == name,
        })
    }
}

/// One witness location attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What this location witnesses (`write`, `merge`, `loop`).
    pub label: String,
}

/// One accumulation finding (`float-reassoc` or `oracle-unpaired`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccumFinding {
    /// Finding kind.
    pub kind: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based anchor line (loop header / fold / fn keyword) — the line an
    /// allow must cover.
    pub line: u32,
    /// What is wrong and what shape to use instead.
    pub message: String,
    /// Witness spans (write sites, merge sites).
    pub spans: Vec<Span>,
}

/// Inventory entry: one classified loop (only loops that carry at least
/// one float accumulator are recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// Qualified enclosing fn (`crate::Type::name`), or `<module>`.
    pub func: String,
    /// `single-chain` | `lockstep` | `reassoc`.
    pub class: &'static str,
    /// Carried accumulator names, sorted.
    pub accumulators: Vec<String>,
}

/// Inventory entry: one oracle-pairing check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleCheck {
    /// Kernel fn name.
    pub kernel: String,
    /// File/line of the kernel definition.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Does `<kernel>_scalar` exist in the workspace?
    pub scalar_found: bool,
    /// Does one test context call both siblings?
    pub tested_together: bool,
}

/// Everything one accumulation run produced.
#[derive(Debug, Default)]
pub struct AccumReport {
    /// Unsuppressed findings, sorted by `(file, line, kind, message)`.
    pub findings: Vec<AccumFinding>,
    /// Classified-loop inventory, sorted by `(file, line)`.
    pub loops: Vec<LoopInfo>,
    /// Oracle-pairing inventory, sorted by `(file, line, kernel)`.
    pub oracles: Vec<OracleCheck>,
    /// Accum-level allows that demoted nothing.
    pub unused_suppressions: Vec<crate::Finding>,
}

// ---------------------------------------------------------------------------
// Token utilities
// ---------------------------------------------------------------------------

const FLOAT_TYPES: &[&str] = &["f32", "f64"];
const INT_TYPES: &[&str] =
    &["usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128"];
/// Iterator adapters that reshape iteration order/grouping: a float fold
/// over any of these no longer matches the element-order chain.
const RESHAPE_ADAPTERS: &[&str] =
    &["rev", "rchunks", "rchunks_exact", "flat_map", "chunks", "chunks_exact"];
/// Terminal reductions whose result depends on iteration order.
const FOLD_METHODS: &[&str] = &["sum", "product", "fold", "rfold"];
/// Loop-header chunkers that leave a remainder block.
const CHUNK_HEADERS: &[&str] = &["chunks", "chunks_exact", "rchunks", "rchunks_exact"];

fn is_kw(t: &Tok, kw: &str) -> bool {
    t.kind == TokKind::Ident && t.text == kw
}

fn slice_has_float(toks: &[Tok], a: usize, b: usize) -> bool {
    toks[a..b.min(toks.len())].iter().any(|t| {
        t.kind == TokKind::Float
            || (t.kind == TokKind::Ident && FLOAT_TYPES.contains(&t.text.as_str()))
    })
}

/// Index of the token matching the opener at `open` (`{`/`(`/`[`), or the
/// last token on EOF.
fn match_delim(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => return open,
    };
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].text == o {
            depth += 1;
        } else if toks[j].text == c {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Walk back from the closer at `close` to its opener.
fn match_delim_back(toks: &[Tok], close: usize) -> usize {
    let (o, c) = match toks[close].text.as_str() {
        "}" => ("{", "}"),
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        _ => return close,
    };
    let mut depth = 0i32;
    let mut j = close as i64;
    while j >= 0 {
        let t = &toks[j as usize].text;
        if t == c {
            depth += 1;
        } else if t == o {
            depth -= 1;
            if depth == 0 {
                return j as usize;
            }
        }
        j -= 1;
    }
    0
}

/// Statement bounds around token `i` (end exclusive), delimited by
/// `;`/`{`/`}` at the statement's own nesting level.
fn statement_bounds(toks: &[Tok], i: usize) -> (usize, usize) {
    let mut a = i;
    while a > 0 {
        let t = &toks[a - 1].text;
        if t == ";" || t == "{" || t == "}" {
            break;
        }
        a -= 1;
    }
    let mut b = i;
    while b < toks.len() {
        let t = &toks[b].text;
        if t == ";" || t == "{" || t == "}" {
            break;
        }
        b += 1;
    }
    (a, b)
}

/// End (exclusive) of the statement starting at `a`, skipping nested
/// delimiter groups (so a `;` inside `[0.0; 8]` or a closure body does not
/// terminate it).
fn statement_end(toks: &[Tok], a: usize) -> usize {
    let mut depth = 0i32;
    let mut j = a;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Token index of the `}` closing the block that encloses token `i`.
fn enclosing_block_close(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------------------
// Per-file structure: loops, declarations, writes
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct LoopTok {
    /// 1-based line of the loop keyword.
    line: u32,
    /// Index of the `for`/`while` keyword.
    kw: usize,
    /// Index of the body `{`.
    body_open: usize,
    /// Index of the matching `}`.
    body_close: usize,
}

impl LoopTok {
    fn body_contains(&self, idx: usize) -> bool {
        self.body_open < idx && idx < self.body_close
    }
}

/// Tokens a loop keyword may legally follow. Excludes the `for` of
/// `impl Trait for Type` and `for<'a>` bounds (preceded by an ident or `>`).
fn loop_head_ok(toks: &[Tok], kw: usize) -> bool {
    if kw == 0 {
        return true;
    }
    let p = &toks[kw - 1];
    matches!(p.text.as_str(), ";" | "{" | "}" | ":" | ")") || is_kw(p, "else") || is_kw(p, "unsafe")
}

fn find_loops(toks: &[Tok]) -> Vec<LoopTok> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(is_kw(&toks[i], "for") || is_kw(&toks[i], "while")) || !loop_head_ok(toks, i) {
            continue;
        }
        // The body `{` is the first brace outside parens/brackets.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => {
                    j = toks.len();
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if j < toks.len() {
            out.push(LoopTok {
                line: toks[i].line,
                kw: i,
                body_open: j,
                body_close: match_delim(toks, j),
            });
        }
    }
    out
}

#[derive(Debug)]
struct Decl {
    name: String,
    /// Index of the binding name token.
    idx: usize,
    float: bool,
    int: bool,
    /// `[expr; N]` / `vec![expr; N]` initializer or `[T; N]` annotation.
    array: bool,
}

fn find_decls(toks: &[Tok]) -> Vec<Decl> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !is_kw(&toks[i], "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && is_kw(&toks[j], "mut") {
            j += 1;
        }
        let end = statement_end(toks, i);
        // Only simple lowercase bindings; tuple/struct patterns are never
        // the accumulators this pass cares about.
        if j < toks.len()
            && toks[j].kind == TokKind::Ident
            && toks[j].text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
        {
            let mut float = false;
            let mut int = false;
            let mut array = false;
            let mut bd = 0i32;
            for t in &toks[j + 1..end.min(toks.len())] {
                match t.text.as_str() {
                    "[" => bd += 1,
                    "]" => bd -= 1,
                    ";" if bd > 0 => array = true,
                    _ => {}
                }
                if t.kind == TokKind::Float
                    || (t.kind == TokKind::Ident && FLOAT_TYPES.contains(&t.text.as_str()))
                {
                    float = true;
                } else if t.kind == TokKind::Ident && INT_TYPES.contains(&t.text.as_str()) {
                    int = true;
                }
            }
            out.push(Decl { name: toks[j].text.clone(), idx: j, float, int: int && !float, array });
        }
        i = end.max(i + 1);
    }
    out
}

/// Nearest declaration of `name` at a token index before `at`.
fn decl_before<'d>(decls: &'d [Decl], name: &str, at: usize) -> Option<&'d Decl> {
    decls.iter().filter(|d| d.name == name && d.idx < at).max_by_key(|d| d.idx)
}

/// One loop-carried accumulation write, after target resolution.
#[derive(Debug)]
struct Write {
    /// Resolved accumulator name.
    name: String,
    /// Token index of the accumulator's declaration name.
    decl_idx: usize,
    /// Is the accumulator a fixed array / vec fill (lane writes)?
    array: bool,
    /// Index of the `+=`/`*=` token.
    op: usize,
    /// 1-based line of the write.
    line: u32,
    /// Index into the loop list: the loop that carries this accumulator.
    carried_by: usize,
    /// RHS token range (exclusive end).
    rhs: (usize, usize),
}

/// Is `idx` directly preceded by a statement boundary (after an optional
/// leading `*`)? Rejects embedded targets (`|x| *x += …`, `f(x += 1)`).
fn at_statement_start(toks: &[Tok], idx: usize) -> bool {
    if idx == 0 {
        return true;
    }
    matches!(toks[idx - 1].text.as_str(), ";" | "{" | "}")
}

/// Resolve the place expression ending just before the op at `k`.
/// Returns `(name_idx, indexed)` for `x` / `*x` / `x[…]`, or `None` for
/// field chains, parenthesized places, and embedded (non-statement) sites.
fn resolve_target(toks: &[Tok], k: usize) -> Option<(usize, bool)> {
    let mut idx = k.checked_sub(1)?;
    let mut indexed = false;
    if toks[idx].text == "]" {
        idx = match_delim_back(toks, idx).checked_sub(1)?;
        indexed = true;
    }
    if toks[idx].kind != TokKind::Ident {
        return None;
    }
    let name_idx = idx;
    let mut start = idx;
    if idx > 0 && toks[idx - 1].text == "*" {
        start = idx - 1;
    }
    if idx > 0 && (toks[idx - 1].text == "." || toks[idx - 1].text == "::") {
        return None; // field / path place: scatter into a structure
    }
    if !at_statement_start(toks, start) {
        return None;
    }
    Some((name_idx, indexed))
}

/// If `name` is bound by the header of a loop in `loops`, return that
/// loop's index (`for (l, x) in …` / `for x in …` patterns).
fn header_binder(toks: &[Tok], loops: &[LoopTok], name: &str, at: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (li, lp) in loops.iter().enumerate() {
        if !lp.body_contains(at) || !is_kw(&toks[lp.kw], "for") {
            continue;
        }
        // Pattern tokens: between `for` and `in`.
        let mut j = lp.kw + 1;
        while j < lp.body_open && !is_kw(&toks[j], "in") {
            if toks[j].kind == TokKind::Ident && toks[j].text == name {
                // Innermost binder wins (largest body_open below `at`).
                if best.is_none_or(|b: usize| loops[b].body_open < lp.body_open) {
                    best = Some(li);
                }
                break;
            }
            j += 1;
        }
    }
    best
}

/// If the iterable of for-loop `li` is `ARR.iter_mut()…`, return the token
/// index of `ARR`.
fn iter_mut_base(toks: &[Tok], lp: &LoopTok) -> Option<usize> {
    let mut j = lp.kw + 1;
    while j < lp.body_open && !is_kw(&toks[j], "in") {
        j += 1;
    }
    let base = j + 1;
    if base + 2 < lp.body_open
        && toks[base].kind == TokKind::Ident
        && toks[base + 1].text == "."
        && is_kw(&toks[base + 2], "iter_mut")
    {
        return Some(base);
    }
    None
}

/// The innermost loop containing `at` whose body does not contain
/// `decl_idx` — the loop the accumulator is carried across. `inside_of`
/// restricts candidates to loops strictly containing that loop.
fn carrier(
    loops: &[LoopTok],
    at: usize,
    decl_idx: usize,
    strictly_outside: Option<usize>,
) -> Option<usize> {
    loops
        .iter()
        .enumerate()
        .filter(|(_, lp)| lp.body_contains(at) && !lp.body_contains(decl_idx))
        .filter(|(li, lp)| match strictly_outside {
            Some(inner) => *li != inner && lp.body_contains(loops[inner].kw),
            None => true,
        })
        .min_by_key(|(_, lp)| lp.body_close - lp.body_open)
        .map(|(li, _)| li)
}

// ---------------------------------------------------------------------------
// The classifier
// ---------------------------------------------------------------------------

struct FileCtx<'a> {
    file: &'a str,
    toks: &'a [Tok],
    test_regions: &'a [(u32, u32)],
}

impl FileCtx<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_regions.iter().any(|&(a, b)| (a..=b).contains(&line))
    }
}

/// One classified loop: header line, class, accumulator names.
type LoopClass = (u32, &'static str, Vec<String>);

/// Raw (pre-suppression) analysis of one file: loop classes + findings.
fn classify_file(ctx: &FileCtx) -> (Vec<LoopClass>, Vec<AccumFinding>) {
    let toks = ctx.toks;
    let loops = find_loops(toks);
    let decls = find_decls(toks);
    let mut findings: Vec<AccumFinding> = Vec::new();

    let finding = |line: u32, message: String, spans: Vec<Span>| AccumFinding {
        kind: "float-reassoc",
        file: ctx.file.to_string(),
        line,
        message,
        spans,
    };
    let span = |line: u32, label: &str| Span {
        file: ctx.file.to_string(),
        line,
        label: label.to_string(),
    };

    // Collect loop-carried accumulation writes.
    let mut writes: Vec<Write> = Vec::new();
    for k in 0..toks.len() {
        let op = &toks[k];
        if !(op.kind == TokKind::Punct && (op.text == "+=" || op.text == "*=")) {
            continue;
        }
        if ctx.in_test(op.line) {
            continue;
        }
        let rhs = (k + 1, statement_end(toks, k + 1));
        let Some((name_idx, indexed)) = resolve_target(toks, k) else { continue };
        let name = toks[name_idx].text.as_str();

        let resolved = match decl_before(&decls, name, k) {
            Some(d) => {
                if d.int {
                    continue;
                }
                let float = d.float || slice_has_float(toks, rhs.0, rhs.1);
                if !float {
                    continue;
                }
                let array = d.array && indexed;
                carrier(&loops, k, d.idx, None).map(|li| (name.to_string(), d.idx, array, li))
            }
            None => {
                // Header-bound target: elementwise, unless it is a lane
                // handle over a declared float array (`acc.iter_mut()`).
                let Some(binder) = header_binder(toks, &loops, name, k) else { continue };
                let Some(base) = iter_mut_base(toks, &loops[binder]) else { continue };
                let arr = toks[base].text.as_str();
                let Some(d) = decl_before(&decls, arr, base) else { continue };
                if !d.float || !d.array {
                    continue;
                }
                carrier(&loops, k, d.idx, Some(binder)).map(|li| (arr.to_string(), d.idx, true, li))
            }
        };
        let Some((name, decl_idx, array, carried_by)) = resolved else { continue };
        writes.push(Write { name, decl_idx, array, op: k, line: op.line, carried_by, rhs });
    }

    // Group by carrying loop and classify.
    let mut loop_classes: Vec<LoopClass> = Vec::new();
    let mut carried: Vec<usize> = writes.iter().map(|w| w.carried_by).collect();
    carried.sort_unstable();
    carried.dedup();
    for li in carried {
        let lp = &loops[li];
        if ctx.in_test(lp.line) {
            continue;
        }
        let ws: Vec<&Write> = writes.iter().filter(|w| w.carried_by == li).collect();
        let mut names: Vec<String> = ws.iter().map(|w| w.name.clone()).collect();
        names.sort();
        names.dedup();
        let mut class: &'static str =
            if ws.iter().any(|w| w.array) { "lockstep" } else { "single-chain" };

        // (c1) Chains merged inside the loop: a write whose RHS reads a
        // *different* accumulator carried by the same loop.
        for w in &ws {
            let other = toks[w.rhs.0..w.rhs.1.min(toks.len())].iter().find(|t| {
                t.kind == TokKind::Ident && names.iter().any(|n| n != &w.name && n == &t.text)
            });
            if let Some(o) = other {
                class = "reassoc";
                findings.push(finding(
                    lp.line,
                    format!(
                        "loop merges float accumulators `{}` and `{}` inside its body; keep \
                         each chain independent across iterations and merge after the loop \
                         in a fixed lane order (docs/DETLINT.md, lockstep pattern)",
                        o.text, w.name
                    ),
                    vec![span(lp.line, "loop"), span(w.line, "merge-write")],
                ));
            }
        }

        // Lockstep arrays: lanes must merge *after* the loop, ascending.
        for w in ws.iter().filter(|w| w.array) {
            let arr = &w.name;
            // In-body whole-array reduction = merge inside the loop.
            for j in lp.body_open + 1..lp.body_close {
                let t = &toks[j];
                if !(t.kind == TokKind::Ident
                    && &t.text == arr
                    && toks.get(j + 1).is_some_and(|n| n.text == "."))
                {
                    continue;
                }
                let (a, b) = statement_bounds(toks, j);
                if (a..b).contains(&w.op) {
                    continue; // the lane write itself
                }
                if toks[a..b]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && FOLD_METHODS.contains(&t.text.as_str()))
                {
                    class = "reassoc";
                    findings.push(finding(
                        lp.line,
                        format!(
                            "lockstep accumulator `{arr}` is reduced inside its own loop; \
                             merge the lanes after the loop, in ascending index order"
                        ),
                        vec![span(lp.line, "loop"), span(toks[j].line, "in-loop-merge")],
                    ));
                    break;
                }
            }
            // Post-loop merge order: scan the rest of the declaring scope.
            let scope_end = enclosing_block_close(toks, w.decl_idx);
            let mut j = lp.body_close + 1;
            while j < scope_end.min(toks.len()) {
                let t = &toks[j];
                if t.kind == TokKind::Ident && &t.text == arr {
                    let (a, b) = statement_bounds(toks, j);
                    if toks[a..b].iter().any(|t| {
                        t.kind == TokKind::Ident
                            && matches!(
                                t.text.as_str(),
                                "rev" | "rfold" | "rchunks" | "rchunks_exact"
                            )
                    }) {
                        class = "reassoc";
                        findings.push(finding(
                            lp.line,
                            format!(
                                "lockstep accumulator `{arr}` merges its lanes in reverse \
                                 index order after the loop; merge ascending \
                                 (extend_from_slice or an indexed forward loop) so the \
                                 reduction tree stays fixed"
                            ),
                            vec![span(lp.line, "loop"), span(t.line, "reversed-merge")],
                        ));
                        j = b;
                        continue;
                    }
                }
                j += 1;
            }
        }

        // (c3) Chunked loop folding whole chunks into a scalar chain: the
        // remainder chunk accumulates through a different chain than full
        // blocks.
        let header_chunked = toks[lp.kw..lp.body_open].iter().enumerate().any(|(off, t)| {
            t.kind == TokKind::Ident
                && CHUNK_HEADERS.contains(&t.text.as_str())
                && toks.get(lp.kw + off + 1).is_some_and(|n| n.text == "(")
        });
        if header_chunked {
            for w in ws.iter().filter(|w| !w.array) {
                if toks[w.rhs.0..w.rhs.1.min(toks.len())]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && FOLD_METHODS.contains(&t.text.as_str()))
                {
                    class = "reassoc";
                    findings.push(finding(
                        lp.line,
                        format!(
                            "chunked loop folds each chunk into `{}` with an iterator \
                             reduction; the remainder chunk then takes a different \
                             accumulation chain than full blocks — use fixed-size blocks \
                             with an explicit scalar tail (kernels::leaf_partials)",
                            w.name
                        ),
                        vec![span(lp.line, "loop"), span(w.line, "chunk-fold")],
                    ));
                }
            }
        }

        loop_classes.push((lp.line, class, names));
    }

    // (c2) Order-dependent folds over reshaped iterators, loops or not.
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.kind == TokKind::Ident
            && FOLD_METHODS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(" || n.text == "::"))
        {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        let (a, b) = statement_bounds(toks, i);
        if !slice_has_float(toks, a, b) {
            continue;
        }
        let chain = receiver_chain(toks, i);
        let reshaped: Vec<&str> = chain
            .iter()
            .map(|&m| toks[m].text.as_str())
            .filter(|m| RESHAPE_ADAPTERS.contains(m))
            .collect();
        let reversed_fold = t.text == "rfold";
        if reshaped.is_empty() && !reversed_fold {
            continue;
        }
        let what = if reversed_fold && reshaped.is_empty() {
            "rfold reverses the element order".to_string()
        } else {
            format!("reshaped by `{}`", reshaped.join("`, `"))
        };
        findings.push(finding(
            t.line,
            format!(
                "order-dependent float `.{}()` over an iterator {what}; the reduction \
                 tree follows the iterator's shape — use an indexed loop or the lockstep \
                 pattern so the tree is explicit",
                t.text
            ),
            vec![span(t.line, "fold")],
        ));
    }

    (loop_classes, findings)
}

/// Method names along the receiver chain of the method at `i`
/// (`x.a().b().sum` → indices of `a`, `b`), walking left over balanced
/// argument lists and turbofish.
fn receiver_chain(toks: &[Tok], i: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut p = i.saturating_sub(1); // the `.` before the method name
    loop {
        if toks[p].text != "." || p == 0 {
            break;
        }
        let mut q = p - 1;
        // Skip one balanced group (argument list / index) and turbofish.
        loop {
            match toks[q].text.as_str() {
                ")" | "]" => {
                    let open = match_delim_back(toks, q);
                    if open == 0 {
                        return out;
                    }
                    q = open - 1;
                }
                ">" => {
                    // `::<T>` — walk back to the matching `<`.
                    let mut depth = 0i32;
                    loop {
                        match toks[q].text.as_str() {
                            ">" => depth += 1,
                            "<" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if q == 0 {
                            return out;
                        }
                        q -= 1;
                    }
                    if q < 2 || toks[q - 1].text != "::" {
                        return out;
                    }
                    q -= 2;
                }
                _ => break,
            }
        }
        if toks[q].kind != TokKind::Ident {
            break;
        }
        out.push(q);
        if q == 0 {
            break;
        }
        p = q - 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Oracle pairing
// ---------------------------------------------------------------------------

/// Is the fn whose `fn` keyword sits at `(file line, name)` declared `pub`
/// (including `pub(crate)` and friends)?
fn fn_is_pub(toks: &[Tok], line: u32, name: &str) -> bool {
    for (i, t) in toks.iter().enumerate() {
        if !(is_kw(t, "fn") && t.line == line && toks.get(i + 1).is_some_and(|n| n.text == name)) {
            continue;
        }
        if i == 0 {
            return false;
        }
        let mut p = i - 1;
        if toks[p].text == ")" {
            let open = match_delim_back(toks, p);
            if open == 0 {
                return false;
            }
            p = open - 1;
        }
        return is_kw(&toks[p], "pub") || (p > 0 && is_kw(&toks[p - 1], "pub"));
    }
    false
}

/// Names called (ident followed by `(` or a turbofish) in `toks`,
/// restricted to `lines` when given.
fn called_names(toks: &[Tok], region: Option<&[(u32, u32)]>, out: &mut Vec<String>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some(regions) = region {
            if !regions.iter().any(|&(a, b)| (a..=b).contains(&t.line)) {
                continue;
            }
        }
        if toks.get(i + 1).is_some_and(|n| n.text == "(" || n.text == "::") {
            out.push(t.text.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Run the accumulation analysis over a pre-built model, recording allow
/// consumption in `allows`. Stale accounting is the caller's job (the
/// single-mode wrapper scopes it to [`Domain::Accum`]; `analyze_model_all`
/// unifies it).
pub fn analyze_model(model: &Model, acfg: &AccumConfig, allows: &mut AllowSet) -> AccumReport {
    let mut findings: Vec<AccumFinding> = Vec::new();
    let mut loop_infos: Vec<LoopInfo> = Vec::new();

    for mf in &model.files {
        if !acfg.accum_crates.contains(&mf.crate_name) {
            continue;
        }
        let ctx = FileCtx { file: &mf.file, toks: &mf.lexed.toks, test_regions: &mf.test_regions };
        let (classes, raw) = classify_file(&ctx);
        for (line, class, accumulators) in classes {
            let func = items::innermost_fn_at(&model.graph.fns, &mf.file, line)
                .map_or_else(|| "<module>".to_string(), |f| model.graph.fns[f].qualified());
            loop_infos.push(LoopInfo { file: mf.file.clone(), line, func, class, accumulators });
        }
        for f in raw {
            if !allows.consume(&f.file, f.line, "float-reassoc") {
                findings.push(f);
            }
        }
    }

    // Oracle pairing over the shared call-graph fn index.
    let mut scalar_names: Vec<&str> = model
        .graph
        .fns
        .iter()
        .filter(|f| !f.in_test && f.name.ends_with("_scalar"))
        .map(|f| f.name.as_str())
        .collect();
    scalar_names.sort_unstable();
    scalar_names.dedup();

    // Call inventories per test context: each test file, and each source
    // file's `#[cfg(test)]` regions, is one context.
    let mut contexts: Vec<Vec<String>> = Vec::new();
    for tf in &model.test_files {
        let lexed = crate::lexer::lex(&tf.src);
        let mut calls = Vec::new();
        called_names(&lexed.toks, None, &mut calls);
        contexts.push(calls);
    }
    for mf in &model.files {
        if mf.test_regions.is_empty() {
            continue;
        }
        let mut calls = Vec::new();
        called_names(&mf.lexed.toks, Some(&mf.test_regions), &mut calls);
        contexts.push(calls);
    }

    let mut oracles: Vec<OracleCheck> = Vec::new();
    for f in &model.graph.fns {
        if f.in_test || !acfg.accum_crates.contains(&f.crate_name) || !acfg.kernel_matches(&f.name)
        {
            continue;
        }
        let Some(mf) = model.files.iter().find(|m| m.file == f.file) else { continue };
        if !fn_is_pub(&mf.lexed.toks, f.line, &f.name) {
            continue;
        }
        let sib = format!("{}_scalar", f.name);
        let scalar_found = scalar_names.binary_search(&sib.as_str()).is_ok();
        let tested_together =
            contexts.iter().any(|c| c.iter().any(|n| n == &f.name) && c.iter().any(|n| n == &sib));
        if oracles.iter().any(|o| o.kernel == f.name && o.file == f.file && o.line == f.line) {
            continue; // nested-fn double scan
        }
        oracles.push(OracleCheck {
            kernel: f.name.clone(),
            file: f.file.clone(),
            line: f.line,
            scalar_found,
            tested_together,
        });
        if scalar_found && tested_together {
            continue;
        }
        if allows.consume(&f.file, f.line, "oracle-unpaired") {
            continue;
        }
        let message = if !scalar_found {
            format!(
                "vectorized kernel `{}` has no `{sib}` oracle in the workspace; keep the \
                 scalar reference implementation in-tree so bit-equality stays provable \
                 (docs/DETLINT.md, oracle pairing)",
                f.name
            )
        } else {
            format!(
                "vectorized kernel `{}` and `{sib}` are never exercised together by one \
                 test; add a bit-equality test that calls both",
                f.name
            )
        };
        findings.push(AccumFinding {
            kind: "oracle-unpaired",
            file: f.file.clone(),
            line: f.line,
            message,
            spans: vec![Span { file: f.file.clone(), line: f.line, label: "kernel".to_string() }],
        });
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.kind, &a.message).cmp(&(&b.file, b.line, b.kind, &b.message))
    });
    loop_infos.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    oracles.sort_by(|a, b| (&a.file, a.line, &a.kernel).cmp(&(&b.file, b.line, &b.kernel)));
    AccumReport { findings, loops: loop_infos, oracles, unused_suppressions: Vec::new() }
}

/// [`analyze_model`] with a private suppression ledger: scan every file's
/// allows, run the pass, and report accum-only stale allows.
pub fn analyze_model_standalone(model: &Model, acfg: &AccumConfig) -> AccumReport {
    let mut allows = AllowSet::new();
    for mf in &model.files {
        allows.scan_file(&mf.lexed, &mf.file, &mf.test_regions);
    }
    let mut rep = analyze_model(model, acfg, &mut allows);
    rep.unused_suppressions = allows.stale(&[Domain::Accum], false, phrase::ACCUM);
    rep
}

/// Run over explicit source + test files (fixture entry point). Input
/// order does not matter — the model sorts internally, so the result is
/// byte-identical under any permutation (pinned by a proptest).
pub fn analyze_files(
    files: &[SourceFile],
    test_files: &[SourceFile],
    acfg: &AccumConfig,
) -> AccumReport {
    analyze_model_standalone(&crate::build_model(files, test_files), acfg)
}

/// [`analyze_files`] over every `crates/*/src/**/*.rs` (analysis) and
/// `crates/*/tests/**/*.rs` + `tests/*.rs` (oracle evidence) under `root`.
pub fn analyze_workspace_accum(root: &Path, acfg: &AccumConfig) -> std::io::Result<AccumReport> {
    let files = crate::workspace_sources(root)?;
    let test_files = crate::workspace_test_sources(root)?;
    Ok(analyze_files(&files, &test_files, acfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, name: &str, src: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.to_string(),
            file: format!("crates/{crate_name}/src/{name}"),
            src: src.to_string(),
        }
    }

    fn run(src: &str) -> AccumReport {
        analyze_files(&[file("tensor", "lib.rs", src)], &[], &AccumConfig::workspace_default())
    }

    fn reassoc_count(r: &AccumReport) -> usize {
        r.findings.iter().filter(|f| f.kind == "float-reassoc").count()
    }

    #[test]
    fn single_chain_is_clean() {
        let r = run(
            "fn s(xs: &[f32]) -> f32 { let mut acc = 0.0f32; for x in xs { acc += *x; } acc }\n",
        );
        assert_eq!(reassoc_count(&r), 0);
        assert_eq!(r.loops.len(), 1);
        assert_eq!(r.loops[0].class, "single-chain");
        assert_eq!(r.loops[0].accumulators, vec!["acc".to_string()]);
    }

    #[test]
    fn lockstep_with_ascending_merge_is_recognized_safe() {
        let r = run("fn s(xs: &[f32]) -> f32 {\n\
             let mut out = Vec::new();\n\
             let mut b = 0;\n\
             while b + 8 <= xs.len() {\n\
                 let mut acc = [0.0f32; 8];\n\
                 for j in 0..8 {\n\
                     for (l, a) in acc.iter_mut().enumerate() {\n\
                         *a += xs[b + l * 8 + j];\n\
                     }\n\
                 }\n\
                 out.extend_from_slice(&acc);\n\
                 b += 64;\n\
             }\n\
             out[0]\n}\n");
        assert_eq!(reassoc_count(&r), 0, "{:?}", r.findings);
        assert!(r.loops.iter().any(|l| l.class == "lockstep"), "{:?}", r.loops);
    }

    #[test]
    fn reversed_lane_merge_is_caught() {
        let r = run("fn s(xs: &[f32]) -> f32 {\n\
             let mut acc = [0.0f32; 8];\n\
             for j in 0..xs.len() {\n\
                 for (l, a) in acc.iter_mut().enumerate() {\n\
                     *a += xs[j] * l as f32;\n\
                 }\n\
             }\n\
             acc.iter().rev().sum::<f32>()\n}\n");
        assert!(
            r.findings.iter().any(|f| f.message.contains("reverse index order")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn in_loop_merge_of_two_chains_is_caught() {
        let r = run("fn s(xs: &[f32]) -> f32 {\n\
             let mut a = 0.0f32;\n\
             let mut b = 0.0f32;\n\
             for x in xs {\n\
                 a += *x;\n\
                 b += a;\n\
             }\n\
             b\n}\n");
        assert!(
            r.findings.iter().any(|f| f.message.contains("inside its body")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn chunked_fold_with_divergent_remainder_is_caught() {
        let r = run("fn s(xs: &[f32]) -> f32 {\n\
             let mut total = 0.0f32;\n\
             for c in xs.chunks(8) {\n\
                 total += c.iter().sum::<f32>();\n\
             }\n\
             total\n}\n");
        assert!(
            r.findings.iter().any(|f| f.message.contains("remainder chunk")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn reshaped_iterator_fold_is_caught_and_allows_demote_it() {
        let src = "fn s(xs: &[f32]) -> f32 { xs.chunks(8).map(|c| c.iter().sum::<f32>()).sum::<f32>() }\n";
        let r = run(src);
        assert_eq!(reassoc_count(&r), 1, "{:?}", r.findings);
        let allowed =
            format!("// detlint::allow(float-reassoc): audited fixed-length input\n{src}");
        let r = run(&allowed);
        assert_eq!(reassoc_count(&r), 0);
        assert!(r.unused_suppressions.is_empty());
    }

    #[test]
    fn stale_accum_allow_is_reported() {
        let r = run("// detlint::allow(float-reassoc): nothing here\nfn s() {}\n");
        assert_eq!(r.unused_suppressions.len(), 1);
        assert!(r.unused_suppressions[0].message.contains("blocked no accumulation finding"));
    }

    #[test]
    fn elementwise_updates_are_not_accumulators() {
        // Header-bound targets over non-array iterables have no carried
        // chain; int counters and offset advances are skipped.
        let r = run("pub fn scale(out: &mut [f32], s: f32) {\n\
             let mut n = 0usize;\n\
             for v in out.iter_mut() { *v *= s; n += 1; }\n\
             let _ = n;\n}\n");
        assert_eq!(reassoc_count(&r), 0, "{:?}", r.findings);
        assert!(r.loops.is_empty(), "{:?}", r.loops);
    }

    #[test]
    fn oracle_pairing_requires_sibling_and_shared_test() {
        let kernel = "pub fn dot(a: &[f32], b: &[f32]) -> f32 { let mut s = 0.0f32; \
                      for i in 0..a.len() { s += a[i] * b[i]; } s }\n";
        // No sibling at all → unpaired.
        let r = run(kernel);
        assert!(r.findings.iter().any(|f| f.kind == "oracle-unpaired"), "{:?}", r.findings);
        // Sibling exists but nothing calls both → still unpaired.
        let with_sib =
            format!("{kernel}pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {{ 0.0 }}\n");
        let r = run(&with_sib);
        assert!(r.findings.iter().any(|f| f.message.contains("never exercised together")));
        // A test file calling both closes the pair.
        let tf = SourceFile {
            crate_name: "tensor".to_string(),
            file: "crates/tensor/tests/pair.rs".to_string(),
            src: "#[test]\nfn pair() { assert_eq!(dot(&[1.0], &[1.0]), dot_scalar(&[1.0], &[1.0])); }\n"
                .to_string(),
        };
        let r = analyze_files(
            &[file("tensor", "lib.rs", &with_sib)],
            &[tf],
            &AccumConfig::workspace_default(),
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let o = r.oracles.iter().find(|o| o.kernel == "dot").unwrap();
        assert!(o.scalar_found && o.tested_together);
    }

    #[test]
    fn private_fns_and_other_crates_are_not_oracle_subjects() {
        let r = run("fn matmul_rows_into(o: &mut [f32]) { o[0] = 0.0; }\n");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let r = analyze_files(
            &[file("sched", "lib.rs", "pub fn dot(a: &[f32]) -> f32 { a[0] }\n")],
            &[],
            &AccumConfig::workspace_default(),
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
