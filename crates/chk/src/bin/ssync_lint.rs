//! `ssync-lint` — CLI for the workspace ordering-discipline pass.
//!
//! ```text
//! cargo run --release -p ssync-chk --bin ssync-lint            # gate: exit 1 on violations
//! cargo run -p ssync-chk --bin ssync-lint -- --fix-safety-stubs  # dry run: list sites, exit 0
//! cargo run -p ssync-chk --bin ssync-lint -- --root path/to/ws
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ssync_chk::lint;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut fix_stubs = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fix-safety-stubs" => fix_stubs = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("ssync-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: ssync-lint [--root <workspace>] [--fix-safety-stubs]\n\
                     \n\
                     Checks the workspace ordering discipline (see DESIGN.md):\n\
                     {}.\n\
                     --fix-safety-stubs lists missing-annotation sites without failing.",
                    lint::RULES.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ssync-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let report = match lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ssync-lint: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if fix_stubs {
        let stubs: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.annotation_fix)
            .collect();
        println!(
            "ssync-lint: {} file(s) scanned; {} site(s) missing an annotation",
            report.files_scanned,
            stubs.len()
        );
        for v in &stubs {
            let stub = match v.rule {
                "safety-comment" => "// SAFETY: <why this cannot race or alias>",
                _ => "// chk: <why this ordering/layout is sound>",
            };
            println!("{v}\n    suggested stub: {stub}");
        }
        return ExitCode::SUCCESS;
    }

    for v in &report.violations {
        println!("{v}");
    }
    if report.violations.is_empty() {
        println!("ssync-lint: clean ({} files scanned)", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        println!(
            "ssync-lint: {} violation(s) in {} file(s) scanned",
            report.violations.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
