//! Golden self-test for the linter.
//!
//! Two halves:
//!
//! 1. `workspace_is_clean_v2` runs the full workspace walk (rules
//!    L1–L8 against the committed baseline) — this is the `#[test]`
//!    wiring that makes `cargo test` enforce the rules on every run, not
//!    just when the binary is invoked.
//! 2. The fixture tests lint each file under `fixtures/` in isolation
//!    and assert it triggers exactly its own rule (and that the
//!    `lint:allow` escape hatch behaves).

use rectpart_lint::analyze::analyze_files;
use rectpart_lint::workspace::{default_baseline, lint_workspace_v2, render_json, WorkspaceReport};
use rectpart_lint::{default_root, lint_file, Diagnostic, FileContext, Rule};
use std::collections::BTreeSet;

/// A synthetic context standing in for library code of a crate that is
/// subject to every rule: panic-free (L1), non-parallel (L2),
/// non-timing (L3), with a known feature set (L4) and outside the
/// unsafe allowlist (L5).
fn strict_ctx() -> FileContext {
    FileContext {
        crate_name: "core".into(),
        rel_path: "crates/core/src/fixture.rs".into(),
        is_library: true,
        declared_features: ["default", "obs", "parallel"]
            .into_iter()
            .map(String::from)
            .collect(),
        is_shim: false,
    }
}

/// Asserts every diagnostic is `rule` and the flagged 1-based lines are
/// exactly `lines`.
fn assert_only(diags: &[Diagnostic], rule: Rule, lines: &[usize]) {
    assert!(
        !diags.is_empty(),
        "fixture for {rule:?} produced no diagnostics"
    );
    for d in diags {
        assert_eq!(
            d.rule, rule,
            "fixture for {rule:?} leaked a foreign diagnostic: {d}"
        );
    }
    let got: BTreeSet<usize> = diags.iter().map(|d| d.line).collect();
    let want: BTreeSet<usize> = lines.iter().copied().collect();
    assert_eq!(got, want, "flagged lines diverged for {rule:?}");
}

#[test]
fn fixture_l1_panic() {
    let diags = lint_file(&strict_ctx(), include_str!("../fixtures/l1_panic.rs"));
    // unwrap, expect, panic!, unreachable!, catch_unwind — the waived
    // expect, the waived unwind boundary, the string/comment mentions,
    // and the #[cfg(test)] module stay silent.
    assert_only(&diags, Rule::Panic, &[5, 6, 8, 11, 17]);
}

#[test]
fn fixture_l2_thread() {
    let diags = lint_file(&strict_ctx(), include_str!("../fixtures/l2_thread.rs"));
    // spawn and scope entry are flagged; the waived `s.spawn(` is not.
    assert_only(&diags, Rule::Thread, &[5, 10]);
}

#[test]
fn fixture_l3_determinism() {
    let diags = lint_file(&strict_ctx(), include_str!("../fixtures/l3_determinism.rs"));
    // Instant::now, thread_rng, hash-order `counts.keys()`; the waived
    // order-insensitive fold stays silent.
    assert_only(&diags, Rule::Determinism, &[7, 12, 19]);
}

#[test]
fn fixture_l3_span_parallel() {
    // Same file, two contexts: inside `crates/parallel` the guard API
    // and the (now module-scoped) clock allowance are both violations…
    let ctx = FileContext {
        crate_name: "parallel".into(),
        rel_path: "crates/parallel/src/fixture.rs".into(),
        ..strict_ctx()
    };
    let diags = lint_file(&ctx, include_str!("../fixtures/l3_span_parallel.rs"));
    // span::enter, a held SpanGuard, Instant::now; the waived enter and
    // the fork_context/adopt handoff stay silent.
    assert_only(&diags, Rule::Determinism, &[6, 7, 8]);

    // …while the obs timing modules keep their clock allowance without
    // gaining a span-guard exemption they don't need.
    let obs_ctx = FileContext {
        crate_name: "obs".into(),
        rel_path: "crates/obs/src/span.rs".into(),
        ..strict_ctx()
    };
    let clock_only = "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n";
    assert!(lint_file(&obs_ctx, clock_only).is_empty());
}

#[test]
fn fixture_l4_feature() {
    let diags = lint_file(&strict_ctx(), include_str!("../fixtures/l4_feature.rs"));
    // `telemetry` and `turbo_mode` are undeclared; `obs` is declared.
    assert_only(&diags, Rule::Feature, &[4, 7]);
    assert!(diags[0].message.contains("telemetry"));
    assert!(diags[1].message.contains("turbo_mode"));
}

#[test]
fn fixture_l5_unsafe() {
    let diags = lint_file(&strict_ctx(), include_str!("../fixtures/l5_unsafe.rs"));
    // The bare block is flagged; both waiver forms stay silent.
    assert_only(&diags, Rule::Unsafe, &[5]);
}

#[test]
fn fixture_clean_has_no_false_positives() {
    let diags = lint_file(&strict_ctx(), include_str!("../fixtures/clean.rs"));
    assert!(
        diags.is_empty(),
        "clean fixture produced false positives:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Runs the v2 analyzer over a single fixture, standing in for library
/// code of the panic-free `core` crate.
fn analyze_fixture(src: &str) -> Vec<Diagnostic> {
    let ctx = FileContext {
        crate_name: "core".into(),
        rel_path: "crates/core/src/fixture.rs".into(),
        ..strict_ctx()
    };
    analyze_files(&[(ctx, src.to_string())]).diagnostics
}

#[test]
fn fixture_l6_panic_reach() {
    let diags = analyze_fixture(include_str!("../fixtures/l6_panic_reach.rs"));
    // Direct index, transitive call, division + transitive call, copy
    // family; the literal index, the waiver and the sealed root are
    // silent.
    assert_only(&diags, Rule::PanicReach, &[5, 9, 13, 17]);
    let chain = diags
        .iter()
        .find(|d| d.line == 13 && d.message.contains("can reach a panic"))
        .expect("chain diagnostic at the `top` call site");
    assert!(
        chain.message.contains("core::mid -> core::leaf"),
        "{}",
        chain.message
    );
    assert!(
        chain.message.contains("root: slice index `xs[i]`"),
        "{}",
        chain.message
    );
    assert_eq!(chain.chain.len(), 2, "witness chain must carry both hops");
}

#[test]
fn fixture_l7_checked_arith() {
    let diags = analyze_fixture(include_str!("../fixtures/l7_checked_arith.rs"));
    // Tracked ident `w + 1` and the direct-source `g.load(..) + bad`;
    // `checked_add` and the waived sum are silent.
    assert_only(&diags, Rule::CheckedArith, &[6, 7]);
}

#[test]
fn fixture_l8_lock() {
    let diags = analyze_fixture(include_str!("../fixtures/l8_lock.rs"));
    // Second shard guard while the first is live, and a plain mutex
    // guard spanning a fan-out; the scoped and waived joins are silent.
    assert_only(&diags, Rule::LockDiscipline, &[6, 12]);
    assert!(diags.iter().any(|d| d.message.contains("shard")));
    assert!(diags.iter().any(|d| d.message.contains("join boundary")));
}

#[test]
fn workspace_is_clean_v2() {
    let root = default_root();
    let report =
        lint_workspace_v2(&root, Some(&default_baseline(&root))).expect("workspace walk failed");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has L1-L8 violations beyond the baseline:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stale_baseline.is_empty(),
        "stale baseline entries (regenerate with --update-baseline):\n{}",
        report.stale_baseline.join("\n")
    );
    // The acceptance floor for the symbol table: resolution regressions
    // that silently unresolve the workspace fail here.
    assert!(
        report.functions >= 300,
        "symbol table shrank: {} functions",
        report.functions
    );
    assert!(
        report.resolved_calls >= 300,
        "call resolution regressed: {} resolved",
        report.resolved_calls
    );
}

#[test]
fn json_output_round_trips() {
    // Schema pin (DESIGN.md §15.5): a synthetic report with a chain
    // diagnostic must survive a round trip through rectpart-json.
    let report = WorkspaceReport {
        diagnostics: vec![Diagnostic {
            file: "crates/core/src/x.rs".into(),
            line: 12,
            rule: Rule::PanicReach,
            message: "call into `core::mid` can reach a panic: core::mid -> \
                      core::leaf; root: slice index `xs[i]` at crates/core/src/x.rs:5"
                .into(),
            chain: vec![
                ("core::mid".into(), "crates/core/src/x.rs".into(), 8),
                ("core::leaf".into(), "crates/core/src/x.rs".into(), 4),
            ],
        }],
        suppressed: 3,
        stale_baseline: vec!["old entry".into()],
        functions: 42,
        resolved_calls: 17,
        unresolved_calls: 5,
    };
    let doc = rectpart_json::parse(&render_json(&report)).expect("emitted JSON must parse");
    assert_eq!(
        doc.field("schema").unwrap().as_str(),
        Some("rectpart-lint/v2")
    );
    let summary = doc.field("summary").unwrap();
    assert_eq!(summary.field("violations").unwrap().as_u64(), Some(1));
    assert_eq!(summary.field("suppressed").unwrap().as_u64(), Some(3));
    assert_eq!(summary.field("stale_baseline").unwrap().as_u64(), Some(1));
    assert_eq!(summary.field("functions").unwrap().as_u64(), Some(42));
    assert_eq!(summary.field("resolved_calls").unwrap().as_u64(), Some(17));
    assert_eq!(summary.field("unresolved_calls").unwrap().as_u64(), Some(5));
    let diags = doc.field("diagnostics").unwrap().as_array().unwrap();
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(
        d.field("file").unwrap().as_str(),
        Some("crates/core/src/x.rs")
    );
    assert_eq!(d.field("line").unwrap().as_u64(), Some(12));
    assert_eq!(d.field("rule").unwrap().as_str(), Some("L6"));
    assert_eq!(d.field("slug").unwrap().as_str(), Some("panic-reach"));
    assert!(d
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("xs[i]"));
    let chain = d.field("chain").unwrap().as_array().unwrap();
    assert_eq!(chain.len(), 2);
    assert_eq!(
        chain[0].field("function").unwrap().as_str(),
        Some("core::mid")
    );
    assert_eq!(chain[1].field("line").unwrap().as_u64(), Some(4));

    // And the real workspace document (pre-baseline, so messages with
    // backticks and snippets are exercised) must parse too.
    let real = lint_workspace_v2(&default_root(), None).expect("workspace walk failed");
    let doc = rectpart_json::parse(&render_json(&real)).expect("real JSON must parse");
    assert_eq!(
        doc.field("summary")
            .unwrap()
            .field("violations")
            .unwrap()
            .as_usize(),
        Some(real.diagnostics.len())
    );
}

#[test]
fn allow_with_reason_waives() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n\
               \x20   v.unwrap() // lint:allow(panic) -- test: justified waiver\n\
               }\n";
    assert!(lint_file(&strict_ctx(), src).is_empty());
}

#[test]
fn allow_without_reason_is_a_violation() {
    let src = "pub fn f(v: Option<u32>) -> u32 {\n\
               \x20   v.unwrap() // lint:allow(panic)\n\
               }\n";
    let diags = lint_file(&strict_ctx(), src);
    // The panic itself is waived, but the bare marker is flagged.
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, Rule::AllowSyntax);
}

#[test]
fn allow_unknown_rule_is_a_violation() {
    let src = "// lint:allow(everything) -- nice try\npub fn f() {}\n";
    let diags = lint_file(&strict_ctx(), src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, Rule::AllowSyntax);
}

#[test]
fn allow_above_multiline_statement_waives() {
    // rustfmt pushes chained calls below the comment; the waiver must
    // still attach through continuation lines.
    let src = "pub fn f(v: Option<u32>) -> u32 {\n\
               \x20   // lint:allow(panic) -- test: invariant documented here\n\
               \x20   v\n\
               \x20       .map(|x| x + 1)\n\
               \x20       .expect(\"invariant\")\n\
               }\n";
    assert!(lint_file(&strict_ctx(), src).is_empty());
}

#[test]
fn forbid_attr_is_required_outside_simexec() {
    use rectpart_lint::rules::check_forbid_attr;
    let mut ctx = strict_ctx();
    ctx.rel_path = "crates/core/src/lib.rs".into();
    assert!(check_forbid_attr(&ctx, "//! docs\npub fn f() {}\n").is_some());
    assert!(check_forbid_attr(&ctx, "#![forbid(unsafe_code)]\npub fn f() {}\n").is_none());
    ctx.crate_name = "simexec".into();
    assert!(check_forbid_attr(&ctx, "//! docs\npub fn f() {}\n").is_none());
}
