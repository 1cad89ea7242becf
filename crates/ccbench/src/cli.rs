//! The one argument parser behind the perf binaries (`kv-perf`,
//! `repl-perf`, `sim-perf`, `lat-perf`), and the one thing the first
//! three do with their result.
//!
//! ```text
//! <bin> [--check]
//! ```
//!
//! Every field a perf binary commits is a pure function of its seeds,
//! so the committed artifact is its own golden: a plain run rewrites
//! it in place, `--check` regenerates it and byte-compares against the
//! committed file. `lat-perf` commits nothing and takes no flag.
//! Anything else is an error: a mistyped flag must not silently run
//! the sweep and overwrite a committed artifact.

use std::process::ExitCode;

/// Parses a perf binary's arguments (program name already stripped):
/// whether `--check` was given, `Ok(None)` when help was asked for.
/// `checks` says whether the binary owns an artifact to check.
///
/// # Errors
///
/// A one-line description of the first unrecognised argument.
fn parse(args: &[String], checks: bool) -> Result<Option<bool>, String> {
    let mut check = false;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--check" if checks => check = true,
            other => return Err(format!("unrecognised argument `{other}`")),
        }
    }
    Ok(Some(check))
}

/// Parses the process arguments: prints the usage line and exits 0 on
/// `--help`, exits 2 with the error and the usage line on anything
/// unrecognised.
fn parse_env(bin: &str, checks: bool) -> bool {
    let usage = format!("usage: {bin}{}", if checks { " [--check]" } else { "" });
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args, checks) {
        Ok(Some(check)) => check,
        Ok(None) => {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{bin}: {msg}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// The arguments of a binary that commits nothing: `--help` or none.
pub fn no_flags(bin: &str) {
    parse_env(bin, false);
}

/// The artifact a perf binary owns and what this invocation does with
/// it.
#[derive(Debug)]
pub struct Artifact {
    bin: &'static str,
    path: &'static str,
    check: bool,
}

impl Artifact {
    /// Parses the process arguments of `bin`, which commits `path`
    /// (relative to the working directory — run from the repo root).
    pub fn from_env(bin: &'static str, path: &'static str) -> Artifact {
        Artifact {
            bin,
            path,
            check: parse_env(bin, true),
        }
    }

    /// Settles a finished sweep whose artifact renders as `fresh`:
    /// rewrites the committed file, or under `--check` compares against
    /// it and fails on the first differing line.
    pub fn settle(&self, fresh: &str) -> ExitCode {
        let Artifact { bin, path, check } = *self;
        let outcome = if check {
            check_file(path, fresh).map(|()| format!("{path} is current"))
        } else {
            std::fs::write(path, fresh)
                .map(|()| format!("wrote {path}"))
                .map_err(|e| format!("write {path}: {e}"))
        };
        let (said, code) = match outcome {
            Ok(done) => (done, ExitCode::SUCCESS),
            Err(msg) => (msg, ExitCode::FAILURE),
        };
        eprintln!("{bin}: {said}");
        code
    }
}

/// Compares the committed artifact at `path` with the `fresh` render.
///
/// # Errors
///
/// The read error, or the first differing line of the two texts.
pub fn check_file(path: &str, fresh: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    first_difference(&committed, fresh)
        .map_or(Ok(()), |diff| Err(format!("{path} is stale: {diff}")))
}

/// The first line at which `committed` and `fresh` differ, rendered
/// for a human; `None` when the texts are identical.
pub fn first_difference(committed: &str, fresh: &str) -> Option<String> {
    // Split, not `lines()`: a missing final newline is a difference too.
    let (mut old, mut new) = (committed.split('\n'), fresh.split('\n'));
    let show = |side: Option<&str>| side.unwrap_or("<end of file>").to_string();
    let mut line = 0;
    loop {
        line += 1;
        match (old.next(), new.next()) {
            (None, None) => return None,
            (a, b) if a == b => {}
            (a, b) => {
                return Some(format!(
                    "first difference at line {line}\n  committed: {}\n  this run:  {}",
                    show(a),
                    show(b)
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn check_and_help_parse() {
        assert_eq!(parse(&[], true), Ok(Some(false)));
        assert_eq!(parse(&args(&["--check"]), true), Ok(Some(true)));
        assert_eq!(parse(&args(&["-h", "--bogus"]), true), Ok(None));
        assert_eq!(parse(&args(&["--help"]), false), Ok(None));
    }

    /// Regression: `kv-perf --smok` used to run the full sweep and
    /// overwrite the committed `BENCH_kv.json`. A retired flag is a
    /// stray word like any other (spelled in halves here so a search
    /// for it finds no live use).
    #[test]
    fn anything_else_is_refused() {
        let retired = ["--smo", "ke"].concat();
        for stray in [retired.as_str(), "--smok", "--check=1", "-c", "stray"] {
            let err = parse(&args(&[stray]), true).unwrap_err();
            assert!(err.contains(stray), "{err}");
        }
        assert!(parse(&args(&["--check", "stray"]), true).is_err());
        // A binary with no artifact has nothing to check.
        assert!(parse(&args(&["--check"]), false).is_err());
    }

    #[test]
    fn first_difference_names_the_line_and_both_sides() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        let diff = first_difference("a\nb 1\nc\n", "a\nb 2\nc\n").unwrap();
        assert!(diff.contains("line 2"), "{diff}");
        assert!(
            diff.contains("committed: b 1") && diff.contains("this run:  b 2"),
            "{diff}"
        );
        // A truncated or extended file differs where the shorter ends.
        let diff = first_difference("a\n", "a\nb\n").unwrap();
        assert!(
            diff.contains("line 2") && diff.contains("this run:  b"),
            "{diff}"
        );
        // Same lines, no final newline: still a difference.
        let diff = first_difference("a\nb", "a\nb\n").unwrap();
        assert!(
            diff.contains("line 3") && diff.contains("committed: <end of file>"),
            "{diff}"
        );
    }

    #[test]
    fn a_missing_artifact_is_an_error_not_a_pass() {
        let err = check_file("/nonexistent/BENCH_none.json", "{}\n").unwrap_err();
        assert!(
            err.starts_with("read /nonexistent/BENCH_none.json"),
            "{err}"
        );
    }
}
