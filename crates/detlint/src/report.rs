//! Finding renderers: compiler-style human text and a stable JSON shape
//! (`{"count": N, "findings": [{file, line, rule, level, message}…]}`) for
//! tooling to consume.

use crate::accum::AccumReport;
use crate::concur::{ConcurFinding, ConcurReport};
use crate::taint::TaintReport;
use crate::{AllReport, Finding};
use serde::Value;

/// `file:line: [rule/level] message` — one line per finding, plus a
/// trailing summary line.
pub fn human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{}:{}: [{}/{}] {}\n", f.file, f.line, f.rule, f.level, f.message));
    }
    if findings.is_empty() {
        out.push_str("detlint: no findings\n");
    } else {
        out.push_str(&format!("detlint: {} finding(s)\n", findings.len()));
    }
    out
}

/// Pretty-printed JSON report.
pub fn json(findings: &[Finding]) -> String {
    let items: Vec<Value> = findings
        .iter()
        .map(|f| {
            Value::Map(vec![
                ("file".to_string(), Value::Str(f.file.clone())),
                ("line".to_string(), Value::U64(u64::from(f.line))),
                ("rule".to_string(), Value::Str(f.rule.to_string())),
                ("level".to_string(), Value::Str(f.level.to_string())),
                ("message".to_string(), Value::Str(f.message.clone())),
            ])
        })
        .collect();
    let root = Value::Map(vec![
        ("count".to_string(), Value::U64(findings.len() as u64)),
        ("findings".to_string(), Value::Seq(items)),
    ]);
    serde_json::to_string_pretty(&root).expect("value tree serializes")
}

/// Human rendering of a taint report: one block per flow with the full
/// call-path witness, then the stale-suppression list, then a summary.
pub fn taint_human(r: &TaintReport) -> String {
    let mut out = String::new();
    for (i, f) in r.flows.iter().enumerate() {
        out.push_str(&format!(
            "flow {}: {} -> {} ({})\n",
            i + 1,
            f.source_kind,
            f.sink_kind,
            f.sink_fn
        ));
        out.push_str(&format!(
            "  source: {}:{} in {}\n",
            f.source_file, f.source_line, f.source_fn
        ));
        for (k, hop) in f.path.iter().enumerate() {
            let arrow = if k == 0 { "  " } else { "  -> " };
            out.push_str(&format!("{}{} ({}:{})\n", arrow, hop.func, hop.file, hop.line));
        }
    }
    for s in &r.unused_suppressions {
        out.push_str(&format!("{}:{}: [{}/{}] {}\n", s.file, s.line, s.rule, s.level, s.message));
    }
    if r.flows.is_empty() && r.unused_suppressions.is_empty() {
        out.push_str("detlint-taint: no flows\n");
    } else {
        out.push_str(&format!(
            "detlint-taint: {} flow(s), {} unused taint suppression(s)\n",
            r.flows.len(),
            r.unused_suppressions.len()
        ));
    }
    out
}

/// Pretty-printed JSON taint report
/// (`{"count": N, "flows": […], "unused_suppressions": […]}`).
pub fn taint_json(r: &TaintReport) -> String {
    let flows: Vec<Value> = r
        .flows
        .iter()
        .map(|f| {
            let path: Vec<Value> = f
                .path
                .iter()
                .map(|h| {
                    Value::Map(vec![
                        ("fn".to_string(), Value::Str(h.func.clone())),
                        ("file".to_string(), Value::Str(h.file.clone())),
                        ("line".to_string(), Value::U64(u64::from(h.line))),
                    ])
                })
                .collect();
            Value::Map(vec![
                (
                    "source".to_string(),
                    Value::Map(vec![
                        ("kind".to_string(), Value::Str(f.source_kind.clone())),
                        ("file".to_string(), Value::Str(f.source_file.clone())),
                        ("line".to_string(), Value::U64(u64::from(f.source_line))),
                        ("fn".to_string(), Value::Str(f.source_fn.clone())),
                    ]),
                ),
                (
                    "sink".to_string(),
                    Value::Map(vec![
                        ("kind".to_string(), Value::Str(f.sink_kind.clone())),
                        ("fn".to_string(), Value::Str(f.sink_fn.clone())),
                        ("file".to_string(), Value::Str(f.sink_file.clone())),
                        ("line".to_string(), Value::U64(u64::from(f.sink_line))),
                    ]),
                ),
                ("path".to_string(), Value::Seq(path)),
            ])
        })
        .collect();
    let stale: Vec<Value> = r
        .unused_suppressions
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("file".to_string(), Value::Str(s.file.clone())),
                ("line".to_string(), Value::U64(u64::from(s.line))),
                ("message".to_string(), Value::Str(s.message.clone())),
            ])
        })
        .collect();
    let root = Value::Map(vec![
        ("count".to_string(), Value::U64(r.flows.len() as u64)),
        ("flows".to_string(), Value::Seq(flows)),
        ("unused_suppressions".to_string(), Value::Seq(stale)),
    ]);
    serde_json::to_string_pretty(&root).expect("value tree serializes")
}

/// Human rendering of a concurrency report: findings with their witness
/// paths, warnings, stale suppressions, then a summary line.
pub fn concur_human(r: &ConcurReport) -> String {
    let mut out = String::new();
    let render = |out: &mut String, f: &ConcurFinding, tag: &str| {
        out.push_str(&format!("{}:{}: [{}{}] {}\n", f.file, f.line, f.kind, tag, f.message));
        for path in &f.paths {
            for (k, hop) in path.iter().enumerate() {
                let arrow = if k == 0 { "  " } else { "  -> " };
                out.push_str(&format!("{}{} ({}:{})\n", arrow, hop.func, hop.file, hop.line));
            }
        }
    };
    for f in &r.findings {
        render(&mut out, f, "");
    }
    for w in &r.warnings {
        render(&mut out, w, "/warn");
    }
    for s in &r.unused_suppressions {
        out.push_str(&format!("{}:{}: [{}/{}] {}\n", s.file, s.line, s.rule, s.level, s.message));
    }
    if r.findings.is_empty() && r.warnings.is_empty() && r.unused_suppressions.is_empty() {
        out.push_str("detlint-concur: no findings\n");
    } else {
        out.push_str(&format!(
            "detlint-concur: {} finding(s), {} warning(s), {} unused suppression(s)\n",
            r.findings.len(),
            r.warnings.len(),
            r.unused_suppressions.len()
        ));
    }
    out
}

/// Pretty-printed JSON concurrency report (`{"count": N, "findings": […],
/// "warnings": […], "unused_suppressions": […], "roles": {…},
/// "blocking": […]}`).
pub fn concur_json(r: &ConcurReport) -> String {
    let finding_value = |f: &ConcurFinding| {
        let paths: Vec<Value> = f
            .paths
            .iter()
            .map(|path| {
                Value::Seq(
                    path.iter()
                        .map(|h| {
                            Value::Map(vec![
                                ("fn".to_string(), Value::Str(h.func.clone())),
                                ("file".to_string(), Value::Str(h.file.clone())),
                                ("line".to_string(), Value::U64(u64::from(h.line))),
                            ])
                        })
                        .collect(),
                )
            })
            .collect();
        Value::Map(vec![
            ("kind".to_string(), Value::Str(f.kind.to_string())),
            ("file".to_string(), Value::Str(f.file.clone())),
            ("line".to_string(), Value::U64(u64::from(f.line))),
            ("message".to_string(), Value::Str(f.message.clone())),
            ("paths".to_string(), Value::Seq(paths)),
        ])
    };
    let stale: Vec<Value> = r
        .unused_suppressions
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("file".to_string(), Value::Str(s.file.clone())),
                ("line".to_string(), Value::U64(u64::from(s.line))),
                ("message".to_string(), Value::Str(s.message.clone())),
            ])
        })
        .collect();
    let blocking: Vec<Value> = r
        .blocking
        .iter()
        .map(|o| {
            Value::Map(vec![
                ("role".to_string(), Value::Str(o.role.to_string())),
                ("op".to_string(), Value::Str(o.op.clone())),
                ("fn".to_string(), Value::Str(o.func.clone())),
                ("file".to_string(), Value::Str(o.file.clone())),
                ("line".to_string(), Value::U64(u64::from(o.line))),
                ("idle".to_string(), Value::Str(o.idle.to_string())),
            ])
        })
        .collect();
    let root = Value::Map(vec![
        ("count".to_string(), Value::U64(r.findings.len() as u64)),
        ("findings".to_string(), Value::Seq(r.findings.iter().map(finding_value).collect())),
        ("warnings".to_string(), Value::Seq(r.warnings.iter().map(finding_value).collect())),
        ("unused_suppressions".to_string(), Value::Seq(stale)),
        (
            "roles".to_string(),
            Value::Map(vec![
                ("worker_fns".to_string(), Value::U64(r.worker_fns.len() as u64)),
                ("engine_fns".to_string(), Value::U64(r.engine_fns.len() as u64)),
            ]),
        ),
        ("blocking".to_string(), Value::Seq(blocking)),
    ]);
    serde_json::to_string_pretty(&root).expect("value tree serializes")
}

/// Human rendering of an accumulation report: findings with their span
/// witnesses, stale suppressions, then a summary line.
pub fn accum_human(r: &AccumReport) -> String {
    let mut out = String::new();
    for f in &r.findings {
        out.push_str(&format!("{}:{}: [{}] {}\n", f.file, f.line, f.kind, f.message));
        for sp in &f.spans {
            out.push_str(&format!("  {} ({}:{})\n", sp.label, sp.file, sp.line));
        }
    }
    for s in &r.unused_suppressions {
        out.push_str(&format!("{}:{}: [{}/{}] {}\n", s.file, s.line, s.rule, s.level, s.message));
    }
    if r.findings.is_empty() && r.unused_suppressions.is_empty() {
        out.push_str(&format!(
            "detlint-accum: no findings ({} loop(s) classified, {} oracle check(s))\n",
            r.loops.len(),
            r.oracles.len()
        ));
    } else {
        out.push_str(&format!(
            "detlint-accum: {} finding(s), {} loop(s) classified, {} oracle check(s), \
             {} unused suppression(s)\n",
            r.findings.len(),
            r.loops.len(),
            r.oracles.len(),
            r.unused_suppressions.len()
        ));
    }
    out
}

/// Pretty-printed JSON accumulation report (`{"count": N, "findings": […],
/// "loops": […], "oracles": […], "unused_suppressions": […]}`).
pub fn accum_json(r: &AccumReport) -> String {
    let findings: Vec<Value> = r
        .findings
        .iter()
        .map(|f| {
            let spans: Vec<Value> = f
                .spans
                .iter()
                .map(|sp| {
                    Value::Map(vec![
                        ("file".to_string(), Value::Str(sp.file.clone())),
                        ("line".to_string(), Value::U64(u64::from(sp.line))),
                        ("label".to_string(), Value::Str(sp.label.clone())),
                    ])
                })
                .collect();
            Value::Map(vec![
                ("kind".to_string(), Value::Str(f.kind.to_string())),
                ("file".to_string(), Value::Str(f.file.clone())),
                ("line".to_string(), Value::U64(u64::from(f.line))),
                ("message".to_string(), Value::Str(f.message.clone())),
                ("spans".to_string(), Value::Seq(spans)),
            ])
        })
        .collect();
    let loops: Vec<Value> = r
        .loops
        .iter()
        .map(|l| {
            Value::Map(vec![
                ("file".to_string(), Value::Str(l.file.clone())),
                ("line".to_string(), Value::U64(u64::from(l.line))),
                ("fn".to_string(), Value::Str(l.func.clone())),
                ("class".to_string(), Value::Str(l.class.to_string())),
                (
                    "accumulators".to_string(),
                    Value::Seq(l.accumulators.iter().map(|a| Value::Str(a.clone())).collect()),
                ),
            ])
        })
        .collect();
    let oracles: Vec<Value> = r
        .oracles
        .iter()
        .map(|o| {
            Value::Map(vec![
                ("kernel".to_string(), Value::Str(o.kernel.clone())),
                ("file".to_string(), Value::Str(o.file.clone())),
                ("line".to_string(), Value::U64(u64::from(o.line))),
                ("scalar_found".to_string(), Value::Bool(o.scalar_found)),
                ("tested_together".to_string(), Value::Bool(o.tested_together)),
            ])
        })
        .collect();
    let stale: Vec<Value> = r
        .unused_suppressions
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("file".to_string(), Value::Str(s.file.clone())),
                ("line".to_string(), Value::U64(u64::from(s.line))),
                ("message".to_string(), Value::Str(s.message.clone())),
            ])
        })
        .collect();
    let root = Value::Map(vec![
        ("count".to_string(), Value::U64(r.findings.len() as u64)),
        ("findings".to_string(), Value::Seq(findings)),
        ("loops".to_string(), Value::Seq(loops)),
        ("oracles".to_string(), Value::Seq(oracles)),
        ("unused_suppressions".to_string(), Value::Seq(stale)),
    ]);
    serde_json::to_string_pretty(&root).expect("value tree serializes")
}

/// The per-mode gate summary (`results/detlint_modes.json` in CI): one
/// clean/dirty status per analysis, so the CI gate stages keep per-mode
/// granularity off a single combined run.
pub fn modes_json(r: &AllReport) -> String {
    let entry = |mode: &str, findings: usize| {
        Value::Map(vec![
            ("mode".to_string(), Value::Str(mode.to_string())),
            (
                "status".to_string(),
                Value::Str(if findings == 0 { "clean" } else { "dirty" }.to_string()),
            ),
            ("findings".to_string(), Value::U64(findings as u64)),
        ])
    };
    let taint_n = r.taint.flows.len() + r.taint.unused_suppressions.len();
    let concur_n = r.concur.findings.len() + r.concur.unused_suppressions.len();
    let accum_n = r.accum.findings.len() + r.accum.unused_suppressions.len();
    let root = Value::Map(vec![
        (
            "modes".to_string(),
            Value::Seq(vec![
                entry("leaf", r.leaf.len()),
                entry("taint", taint_n),
                entry("concur", concur_n),
                entry("accum", accum_n),
            ]),
        ),
        (
            "status".to_string(),
            Value::Str(if r.is_clean() { "clean" } else { "dirty" }.to_string()),
        ),
    ]);
    serde_json::to_string_pretty(&root).expect("value tree serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{AccumFinding, LoopInfo, OracleCheck, Span};
    use crate::concur::BlockingOp;
    use crate::taint::{Flow, Hop};

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "no-wall-clock",
            level: "D0",
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            message: "test".to_string(),
        }]
    }

    #[test]
    fn human_is_one_line_per_finding() {
        let text = human(&sample());
        assert!(text.contains("crates/x/src/lib.rs:7: [no-wall-clock/D0] test"));
        assert!(text.contains("1 finding(s)"));
        assert!(human(&[]).contains("no findings"));
    }

    #[test]
    fn json_round_trips_the_count() {
        let text = json(&sample());
        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get_field("count"), Some(&Value::U64(1)));
        let Some(Value::Seq(items)) = v.get_field("findings") else { panic!("findings array") };
        assert_eq!(items[0].get_field("line"), Some(&Value::U64(7)));
    }

    fn sample_taint() -> TaintReport {
        TaintReport {
            flows: vec![Flow {
                source_kind: "wall-clock".to_string(),
                source_file: "crates/sched/src/lib.rs".to_string(),
                source_line: 4,
                source_fn: "sched::leak".to_string(),
                sink_kind: "sched-proposal".to_string(),
                sink_fn: "sched::decide".to_string(),
                sink_file: "crates/sched/src/lib.rs".to_string(),
                sink_line: 9,
                path: vec![
                    Hop {
                        func: "sched::leak".to_string(),
                        file: "crates/sched/src/lib.rs".to_string(),
                        line: 4,
                    },
                    Hop {
                        func: "sched::decide".to_string(),
                        file: "crates/sched/src/lib.rs".to_string(),
                        line: 10,
                    },
                ],
            }],
            unused_suppressions: Vec::new(),
        }
    }

    #[test]
    fn taint_human_shows_the_witness_path() {
        let text = taint_human(&sample_taint());
        assert!(text.contains("flow 1: wall-clock -> sched-proposal (sched::decide)"));
        assert!(text.contains("source: crates/sched/src/lib.rs:4 in sched::leak"));
        assert!(text.contains("-> sched::decide (crates/sched/src/lib.rs:10)"));
        assert!(text.contains("1 flow(s)"));
        assert!(taint_human(&TaintReport::default()).contains("no flows"));
    }

    #[test]
    fn taint_json_round_trips_the_shape() {
        let text = taint_json(&sample_taint());
        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get_field("count"), Some(&Value::U64(1)));
        let Some(Value::Seq(flows)) = v.get_field("flows") else { panic!("flows array") };
        let Some(Value::Seq(path)) = flows[0].get_field("path") else { panic!("path array") };
        assert_eq!(path.len(), 2);
        assert_eq!(path[1].get_field("fn"), Some(&Value::Str("sched::decide".to_string())));
    }

    fn sample_concur() -> ConcurReport {
        ConcurReport {
            findings: vec![ConcurFinding {
                kind: "blocking-cycle",
                file: "crates/core/src/a.rs".to_string(),
                line: 3,
                message: "cycle".to_string(),
                paths: vec![vec![
                    Hop {
                        func: "core::worker_main".to_string(),
                        file: "crates/core/src/a.rs".to_string(),
                        line: 1,
                    },
                    Hop {
                        func: "core::wait".to_string(),
                        file: "crates/core/src/a.rs".to_string(),
                        line: 3,
                    },
                ]],
            }],
            warnings: Vec::new(),
            unused_suppressions: Vec::new(),
            worker_fns: vec!["core::worker_main".to_string(), "core::wait".to_string()],
            engine_fns: vec!["core::Engine::step".to_string()],
            blocking: vec![BlockingOp {
                role: "worker",
                op: "recv".to_string(),
                func: "core::wait".to_string(),
                file: "crates/core/src/a.rs".to_string(),
                line: 3,
                idle: false,
            }],
        }
    }

    #[test]
    fn concur_human_shows_kinds_and_witness_paths() {
        let text = concur_human(&sample_concur());
        assert!(text.contains("crates/core/src/a.rs:3: [blocking-cycle] cycle"));
        assert!(text.contains("-> core::wait (crates/core/src/a.rs:3)"));
        assert!(text.contains("1 finding(s), 0 warning(s), 0 unused suppression(s)"));
        assert!(concur_human(&ConcurReport::default()).contains("no findings"));
    }

    #[test]
    fn concur_json_round_trips_the_shape() {
        let text = concur_json(&sample_concur());
        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get_field("count"), Some(&Value::U64(1)));
        let Some(Value::Seq(fs)) = v.get_field("findings") else { panic!("findings array") };
        let Some(Value::Seq(paths)) = fs[0].get_field("paths") else { panic!("paths array") };
        assert_eq!(paths.len(), 1);
        let Some(roles) = v.get_field("roles") else { panic!("roles map") };
        assert_eq!(roles.get_field("worker_fns"), Some(&Value::U64(2)));
        let Some(Value::Seq(blocking)) = v.get_field("blocking") else { panic!("blocking array") };
        assert_eq!(blocking[0].get_field("role"), Some(&Value::Str("worker".to_string())));
    }

    fn sample_accum() -> AccumReport {
        AccumReport {
            findings: vec![AccumFinding {
                kind: "float-reassoc",
                file: "crates/tensor/src/lib.rs".to_string(),
                line: 5,
                message: "reversed merge".to_string(),
                spans: vec![Span {
                    file: "crates/tensor/src/lib.rs".to_string(),
                    line: 9,
                    label: "merge".to_string(),
                }],
            }],
            loops: vec![LoopInfo {
                file: "crates/tensor/src/lib.rs".to_string(),
                line: 5,
                func: "tensor::sum".to_string(),
                class: "reassoc",
                accumulators: vec!["acc".to_string()],
            }],
            oracles: vec![OracleCheck {
                kernel: "dot".to_string(),
                file: "crates/tensor/src/ops.rs".to_string(),
                line: 3,
                scalar_found: true,
                tested_together: true,
            }],
            unused_suppressions: Vec::new(),
        }
    }

    #[test]
    fn accum_human_shows_spans_and_summary() {
        let text = accum_human(&sample_accum());
        assert!(text.contains("crates/tensor/src/lib.rs:5: [float-reassoc] reversed merge"));
        assert!(text.contains("  merge (crates/tensor/src/lib.rs:9)"));
        assert!(text.contains("1 finding(s), 1 loop(s) classified, 1 oracle check(s)"));
        assert!(accum_human(&AccumReport::default()).contains("no findings"));
    }

    #[test]
    fn accum_json_round_trips_the_shape() {
        let text = accum_json(&sample_accum());
        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get_field("count"), Some(&Value::U64(1)));
        let Some(Value::Seq(fs)) = v.get_field("findings") else { panic!("findings array") };
        let Some(Value::Seq(spans)) = fs[0].get_field("spans") else { panic!("spans array") };
        assert_eq!(spans[0].get_field("label"), Some(&Value::Str("merge".to_string())));
        let Some(Value::Seq(loops)) = v.get_field("loops") else { panic!("loops array") };
        assert_eq!(loops[0].get_field("class"), Some(&Value::Str("reassoc".to_string())));
        let Some(Value::Seq(oracles)) = v.get_field("oracles") else { panic!("oracles array") };
        assert_eq!(oracles[0].get_field("scalar_found"), Some(&Value::Bool(true)));
    }
}
