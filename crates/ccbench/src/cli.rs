//! The one argument parser behind the perf binaries (`kv-perf`,
//! `lat-perf`, `repl-perf`, `sim-perf`).
//!
//! ```text
//! <bin> [--smoke] [--out PATH] [--no-write] [--check-determinism]
//! ```
//!
//! Anything else is an error: a mistyped `--smoke` must not silently
//! run the full sweep and overwrite a committed artifact.

/// The flags of one perf-binary invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfArgs {
    /// `--smoke`: the shrunken CI shape.
    pub smoke: bool,
    /// `--no-write`: never write the artifact.
    pub no_write: bool,
    /// `--check-determinism`: run the sweep twice and diff the issued
    /// op counts (only on binaries that support it).
    pub check_determinism: bool,
    /// `--out PATH`: where to write the artifact.
    pub out: Option<String>,
}

/// The usage line for `bin`; `determinism` says whether the binary
/// supports `--check-determinism`.
fn usage(bin: &str, determinism: bool) -> String {
    let check = if determinism {
        " [--check-determinism]"
    } else {
        ""
    };
    format!("usage: {bin} [--smoke] [--out PATH] [--no-write]{check}")
}

/// Parses a perf binary's arguments (program name already stripped).
/// `Ok(None)` means help was asked for.
///
/// # Errors
///
/// A one-line description of the first unrecognised argument, of an
/// `--out` without a path, or of `--check-determinism` on a binary that
/// does not support it.
fn parse(args: &[String], determinism: bool) -> Result<Option<PerfArgs>, String> {
    let mut parsed = PerfArgs::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--smoke" => parsed.smoke = true,
            "--no-write" => parsed.no_write = true,
            "--check-determinism" if determinism => parsed.check_determinism = true,
            "--check-determinism" => {
                return Err("--check-determinism is not supported by this harness".to_string())
            }
            "--out" => match args.next() {
                Some(path) if !path.starts_with("--") => parsed.out = Some(path.clone()),
                _ => return Err("--out requires a path argument".to_string()),
            },
            other => return Err(format!("unrecognised argument `{other}`")),
        }
    }
    Ok(Some(parsed))
}

/// Parses the process arguments: prints the usage line and
/// exits 0 on `--help`, exits 2 with the error and the usage line on
/// an unrecognised argument, an `--out` without a path, or
/// `--check-determinism` where `determinism` is false.
pub fn from_env(bin: &str, determinism: bool) -> PerfArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args, determinism) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            eprintln!("{}", usage(bin, determinism));
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{bin}: {msg}\n{}", usage(bin, determinism));
            std::process::exit(2);
        }
    }
}

impl PerfArgs {
    /// Where this invocation writes its artifact, if anywhere. Smoke
    /// runs are startup-dominated, so only a full run refreshes the
    /// committed `default` path; a smoke run writes only to an explicit
    /// `--out`.
    fn artifact_path(&self, default: &str) -> Option<String> {
        if self.no_write || (self.smoke && self.out.is_none()) {
            return None;
        }
        Some(self.out.clone().unwrap_or_else(|| default.to_string()))
    }

    /// Writes the artifact `render` produces, if this invocation writes
    /// one: to `--out`, or to `default` on a full run without it.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_artifact(&self, default: &str, render: impl FnOnce() -> String) {
        if let Some(path) = self.artifact_path(default) {
            std::fs::write(&path, render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
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
    fn every_flag_parses() {
        let parsed = parse(
            &args(&["--smoke", "--out", "x.json", "--check-determinism"]),
            true,
        );
        assert_eq!(
            parsed,
            Ok(Some(PerfArgs {
                smoke: true,
                no_write: false,
                check_determinism: true,
                out: Some("x.json".to_string()),
            }))
        );
        assert_eq!(parse(&args(&["-h", "--bogus"]), false), Ok(None));
    }

    /// Regression: `kv-perf --smok` used to run the full sweep and
    /// overwrite the committed `BENCH_kv.json`.
    #[test]
    fn a_mistyped_flag_is_refused() {
        let err = parse(&args(&["--smok"]), true).unwrap_err();
        assert!(err.contains("--smok"), "{err}");
        assert!(parse(&args(&["stray"]), true).is_err());
    }

    #[test]
    fn out_needs_a_path() {
        assert!(parse(&args(&["--out"]), true).is_err());
        assert!(parse(&args(&["--out", "--smoke"]), true).is_err());
    }

    #[test]
    fn determinism_check_is_refused_where_unsupported() {
        assert!(parse(&args(&["--check-determinism"]), false).is_err());
        assert!(usage("kv-perf", true).contains("--check-determinism"));
        assert!(!usage("sim-perf", false).contains("--check-determinism"));
    }

    #[test]
    fn only_full_runs_and_explicit_outs_write() {
        let full = PerfArgs::default();
        assert_eq!(full.artifact_path("B.json"), Some("B.json".to_string()));
        let smoke = PerfArgs {
            smoke: true,
            ..PerfArgs::default()
        };
        assert_eq!(smoke.artifact_path("B.json"), None);
        let smoke_out = PerfArgs {
            out: Some("o.json".to_string()),
            ..smoke
        };
        assert_eq!(
            smoke_out.artifact_path("B.json"),
            Some("o.json".to_string())
        );
        let muted = PerfArgs {
            no_write: true,
            ..smoke_out
        };
        assert_eq!(muted.artifact_path("B.json"), None);
    }
}
