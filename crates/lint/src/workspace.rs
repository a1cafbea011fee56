//! Workspace walker: enumerates every crate (including the root package
//! and the vendored shims), reads its manifest, and runs the rule
//! catalog over each `.rs` file.
//!
//! [`lint_workspace_v2`] runs the per-file rules L1–L5 **plus** the
//! call-graph pass ([`crate::analyze`], rules L6–L8), with an optional
//! baseline file that suppresses accepted legacy findings (DESIGN.md
//! §15.4).

use crate::analyze::analyze_files;
use crate::manifest;
use crate::rules::{check_forbid_attr, lint_file, Diagnostic, FileContext};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The workspace root this binary was compiled inside (two levels above
/// `crates/lint`).
pub fn default_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.ancestors()
        .nth(2)
        .unwrap_or(Path::new("."))
        .to_path_buf()
}

/// Default location of the committed suppression baseline.
pub fn default_baseline(root: &Path) -> PathBuf {
    root.join("crates/lint/lint-baseline.txt")
}

/// One crate to lint: its directory, display name, and shim-ness.
struct CrateDir {
    name: String,
    dir: PathBuf,
    is_shim: bool,
    /// Subdirectories to walk, relative to `dir`. `None` walks the whole
    /// crate directory (the usual case); the root package restricts the
    /// walk so it does not descend into `crates/` and `target/`.
    subdirs: Option<&'static [&'static str]>,
}

fn crate_dirs(root: &Path) -> io::Result<Vec<CrateDir>> {
    let mut crates = Vec::new();
    // Root package (`rectpart`): only its own source trees.
    crates.push(CrateDir {
        name: "rectpart".into(),
        dir: root.to_path_buf(),
        is_shim: false,
        subdirs: Some(&["src", "tests", "examples"]),
    });
    for (parent, is_shim) in [("crates", false), ("shims", true)] {
        let base = root.join(parent);
        let mut entries: Vec<_> = fs::read_dir(&base)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        entries.sort();
        for dir in entries {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            crates.push(CrateDir {
                name,
                dir,
                is_shim,
                subdirs: None,
            });
        }
    }
    Ok(crates)
}

/// Reads every lintable `.rs` file in the workspace into `(context,
/// source)` pairs, fixtures excluded, sorted by path.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(FileContext, String)>> {
    let mut out = Vec::new();
    for krate in crate_dirs(root)? {
        let manifest_text = fs::read_to_string(krate.dir.join("Cargo.toml"))?;
        let features = manifest::declared_features(&manifest_text);
        let mut files = Vec::new();
        match krate.subdirs {
            Some(dirs) => {
                for d in dirs {
                    let p = krate.dir.join(d);
                    if p.is_dir() {
                        collect_rs(&p, &mut files)?;
                    }
                }
            }
            None => collect_rs(&krate.dir, &mut files)?,
        }
        files.sort();
        for file in &files {
            let rel = rel_path(root, file);
            // Fixture files intentionally violate the rules; the golden
            // self-test (tests/self_test.rs) lints them in isolation.
            if rel.contains("/fixtures/") {
                continue;
            }
            let source = fs::read_to_string(file)?;
            let ctx = FileContext {
                crate_name: krate.name.clone(),
                rel_path: rel,
                is_library: rel_within(&krate, file).starts_with("src/"),
                declared_features: features.clone(),
                is_shim: krate.is_shim,
            };
            out.push((ctx, source));
        }
    }
    Ok(out)
}

/// Crate-root `#![forbid(unsafe_code)]` presence (the workspace half of
/// L5), over the already-read file set.
fn forbid_attr_diags(files: &[(FileContext, String)]) -> Vec<Diagnostic> {
    // Primary root per crate: `src/lib.rs` when present, else
    // `src/main.rs` (same preference as the original walker).
    let mut out = Vec::new();
    let has_lib: BTreeSet<&str> = files
        .iter()
        .filter(|(ctx, _)| ctx.rel_path.ends_with("src/lib.rs"))
        .map(|(ctx, _)| ctx.crate_name.as_str())
        .collect();
    for (ctx, source) in files {
        let is_root = ctx.rel_path.ends_with("src/lib.rs")
            || (ctx.rel_path.ends_with("src/main.rs")
                && !has_lib.contains(ctx.crate_name.as_str()));
        if is_root {
            out.extend(check_forbid_attr(ctx, source));
        }
    }
    out
}

/// Result of the full v2 run (L1–L8 plus call-graph statistics).
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Diagnostics remaining after baseline suppression, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics swallowed by the baseline file.
    pub suppressed: usize,
    /// Baseline entries that matched nothing (stale; candidates for
    /// removal with `--update-baseline`).
    pub stale_baseline: Vec<String>,
    /// Functions indexed by the symbol table.
    pub functions: usize,
    /// Call expressions resolved to a workspace function.
    pub resolved_calls: usize,
    /// Call expressions the resolver declined (ambiguity escape hatch).
    pub unresolved_calls: usize,
}

/// Runs rules L1–L8 over the workspace. When `baseline` names a readable
/// file, findings whose [`baseline_key`] appears in it are suppressed
/// (counted, not reported).
pub fn lint_workspace_v2(root: &Path, baseline: Option<&Path>) -> io::Result<WorkspaceReport> {
    let files = workspace_files(root)?;
    let mut all = Vec::new();
    for (ctx, source) in &files {
        all.extend(lint_file(ctx, source));
    }
    all.extend(forbid_attr_diags(&files));
    let analysis = analyze_files(&files);
    all.extend(analysis.diagnostics);
    all.sort();
    all.dedup();

    let mut report = WorkspaceReport {
        functions: analysis.functions,
        resolved_calls: analysis.resolved_calls,
        unresolved_calls: analysis.unresolved_calls,
        ..WorkspaceReport::default()
    };
    let keys = match baseline {
        Some(path) if path.is_file() => load_baseline(path)?,
        _ => BTreeSet::new(),
    };
    let mut hit: BTreeSet<String> = BTreeSet::new();
    for d in all {
        let key = baseline_key(&d);
        if keys.contains(&key) {
            report.suppressed += 1;
            hit.insert(key);
        } else {
            report.diagnostics.push(d);
        }
    }
    report.stale_baseline = keys.difference(&hit).cloned().collect();
    Ok(report)
}

/// Baseline identity of a diagnostic: the display form without the line
/// number, so unrelated edits shifting a file do not invalidate entries.
/// (Chain messages embed their own line numbers and are regenerated with
/// `--update-baseline` when they drift.)
pub fn baseline_key(d: &Diagnostic) -> String {
    format!(
        "{}: {} ({}): {}",
        d.file,
        d.rule.id(),
        d.rule.slug(),
        d.message
    )
}

/// Parses a baseline file: one [`baseline_key`] per line; `#` comments
/// and blank lines ignored.
pub fn load_baseline(path: &Path) -> io::Result<BTreeSet<String>> {
    let text = fs::read_to_string(path)?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// Renders a baseline file body for the given (unsuppressed) findings.
pub fn render_baseline(diags: &[Diagnostic]) -> String {
    let mut out = String::from(
        "# rectpart-lint suppression baseline (DESIGN.md \u{a7}15.4).\n\
         # One accepted legacy finding per line: the diagnostic without its\n\
         # line number. Regenerate with `rectpart-lint --update-baseline`;\n\
         # shrink it over time, never grow it without review.\n",
    );
    let mut keys: Vec<String> = diags.iter().map(baseline_key).collect();
    keys.sort();
    keys.dedup();
    for k in keys {
        out.push_str(&k);
        out.push('\n');
    }
    out
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the v2 report as the machine-readable JSON document emitted
/// by `rectpart-lint --format json`. The schema is pinned by a
/// round-trip test through `rectpart-json` (DESIGN.md §15.5).
pub fn render_json(report: &WorkspaceReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"rectpart-lint/v2\",\n");
    out.push_str(&format!(
        "  \"summary\": {{\n    \"violations\": {},\n    \"suppressed\": {},\n    \
         \"stale_baseline\": {},\n    \"functions\": {},\n    \"resolved_calls\": {},\n    \
         \"unresolved_calls\": {}\n  }},\n",
        report.diagnostics.len(),
        report.suppressed,
        report.stale_baseline.len(),
        report.functions,
        report.resolved_calls,
        report.unresolved_calls
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        out.push_str(&format!("      \"file\": \"{}\",\n", json_escape(&d.file)));
        out.push_str(&format!("      \"line\": {},\n", d.line));
        out.push_str(&format!("      \"rule\": \"{}\",\n", d.rule.id()));
        out.push_str(&format!("      \"slug\": \"{}\",\n", d.rule.slug()));
        out.push_str(&format!(
            "      \"message\": \"{}\",\n",
            json_escape(&d.message)
        ));
        out.push_str("      \"chain\": [");
        for (j, (func, file, line)) in d.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"function\": \"{}\", \"file\": \"{}\", \"line\": {}}}",
                json_escape(func),
                json_escape(file),
                line
            ));
        }
        out.push_str("]\n    }");
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Path of `file` relative to the workspace root, with `/` separators.
fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Path of `file` relative to the crate directory.
fn rel_within(krate: &CrateDir, file: &Path) -> String {
    file.strip_prefix(&krate.dir)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Recursively collects `.rs` files under `dir`, skipping `target/`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders a v2 report in text form and returns the exit code.
pub fn report_v2(report: &WorkspaceReport) -> i32 {
    for d in &report.diagnostics {
        println!("{d}");
    }
    let stats = format!(
        "{} function(s), {} call(s) resolved, {} unresolved, {} baseline-suppressed",
        report.functions, report.resolved_calls, report.unresolved_calls, report.suppressed
    );
    if !report.stale_baseline.is_empty() {
        println!(
            "rectpart-lint: note: {} stale baseline entr(ies) match nothing; \
             run --update-baseline to prune:",
            report.stale_baseline.len()
        );
        for k in &report.stale_baseline {
            println!("  stale: {k}");
        }
    }
    if report.diagnostics.is_empty() {
        println!("rectpart-lint: workspace clean (rules L1-L8); {stats}");
        0
    } else {
        let rules: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.rule.id()).collect();
        println!(
            "rectpart-lint: {} violation(s) across {:?}; {stats}",
            report.diagnostics.len(),
            rules
        );
        1
    }
}
