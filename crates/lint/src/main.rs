#![forbid(unsafe_code)]

//! `rectpart-lint` binary: lints the workspace (rules L1–L8) and exits
//! nonzero on any violation.
//!
//! ```text
//! rectpart-lint [--root <path>] [--format text|json]
//!               [--baseline <path>] [--no-baseline] [--update-baseline]
//! ```
//!
//! Every run is the full v2 pass (per-file rules L1–L5 plus the
//! call-graph rules L6–L8) with the committed baseline
//! (`crates/lint/lint-baseline.txt`). `--update-baseline` rewrites that
//! file from the current findings and exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root = rectpart_lint::default_root();
    let mut format = String::from("text");
    let mut baseline: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut update_baseline = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = "text".into(),
                Some("json") => format = "json".into(),
                other => {
                    eprintln!("--format requires `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--baseline requires a path");
                    return ExitCode::from(2);
                }
            },
            "--no-baseline" => no_baseline = true,
            "--update-baseline" => update_baseline = true,
            "--help" | "-h" => {
                println!(
                    "rectpart-lint: workspace invariant linter (rules L1-L8)\n\
                     usage: cargo run -p rectpart-lint [-- OPTIONS]\n\
                     \n\
                     options:\n\
                       --root <path>       workspace root (default: build workspace)\n\
                       --format text|json  diagnostic output format (default: text)\n\
                       --baseline <path>   suppression file (default: crates/lint/lint-baseline.txt)\n\
                       --no-baseline       ignore the baseline; report every finding\n\
                       --update-baseline   rewrite the baseline from current findings, exit 0\n\
                     \n\
                     see DESIGN.md sections 11 and 15 for the rule catalog"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let baseline_path =
        baseline.unwrap_or_else(|| rectpart_lint::workspace::default_baseline(&root));
    let effective = (!no_baseline && !update_baseline).then_some(baseline_path.as_path());
    match rectpart_lint::workspace::lint_workspace_v2(&root, effective) {
        Ok(report) => {
            if update_baseline {
                let body = rectpart_lint::workspace::render_baseline(&report.diagnostics);
                return match std::fs::write(&baseline_path, body) {
                    Ok(()) => {
                        println!(
                            "rectpart-lint: wrote {} entr(ies) to {}",
                            report.diagnostics.len(),
                            baseline_path.display()
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!(
                            "rectpart-lint: cannot write {}: {e}",
                            baseline_path.display()
                        );
                        ExitCode::from(2)
                    }
                };
            }
            if format == "json" {
                print!("{}", rectpart_lint::workspace::render_json(&report));
                if report.diagnostics.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            } else if rectpart_lint::workspace::report_v2(&report) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rectpart-lint: I/O error walking {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
