//! `benchmark`: the ssync stack's long-run serving benchmark.
//!
//! ```text
//! benchmark run --workload NAME [--seed N|default|held-out] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! benchmark compare A B [--bounds BENCHMARK.json]
//! benchmark list
//! ```
//!
//! `run` measures one workload in this process (so `peak_rss_mb` is
//! the workload's own), prints every metric by name with its unit,
//! sample count and spread, checks every output against the oracle,
//! and ends its standard output with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Exit codes: 0 ok,
//! 1 a correctness failure, 2 usage, 3 fewer than two processors,
//! 101 a panic anywhere (a dead server thread must not hang the run).

mod compare;
mod driver;
mod gen;
mod host;
mod json;
mod ladder;
mod metrics;
mod oracle;
mod stacks;
mod stats;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gen::{Plan, Stack, WorkloadSpec, DEFAULT_SEED, HELD_OUT_SEED, RUN_SECONDS, WORKLOADS};
use host::HostProfile;
use json::Json;
use metrics::{unit_of, CLUSTER_LAYER, END_TO_END, EXTRA, PER_LAYER, REPL_LAYER};
use oracle::Tally;
use stats::Windowed;

struct RunArgs {
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark run --workload NAME [--seed N|default|held-out] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n       \
         benchmark compare A B [--bounds BENCHMARK.json]\n       \
         benchmark list\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// A seed: decimal, `0x` hex, or the two documented seeds by name.
fn parse_seed(text: &str) -> Option<u64> {
    match text {
        "default" => Some(DEFAULT_SEED),
        "held-out" => Some(HELD_OUT_SEED),
        _ => parse_u64(text),
    }
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_run(args: &[String]) -> Option<RunArgs> {
    let mut run = RunArgs {
        spec: &WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut named = false;
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                run.spec = gen::workload(args.next()?)?;
                named = true;
            }
            "--seed" => run.seed = parse_seed(args.next()?)?,
            "--seconds" => {
                run.seconds = parse_u64(args.next()?).filter(|s| (1..=60).contains(s))?
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                run.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => run.smoke = true,
            "--out" => run.out = Some(PathBuf::from(args.next()?)),
            _ => return None,
        }
    }
    named.then_some(run)
}

/// One reported metric: the value plus what it rests on.
struct Reported {
    name: &'static str,
    value: f64,
    /// Windows, samples and spread, where the value is a median.
    basis: Option<Windowed>,
}

fn print_table(run: &RunArgs, rows: &[Reported]) {
    println!(
        "# {} seed={:#x} seconds={} trace={}{}",
        run.spec.name,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        if run.smoke { " smoke" } else { "" }
    );
    println!(
        "{:<32} {:>16} {:<6} {:>8} {:>10} {:>8}",
        "metric", "value", "unit", "windows", "samples", "spread"
    );
    print_rows(rows);
}

fn print_rows(rows: &[Reported]) {
    for row in rows {
        let unit = unit_of(row.name).expect("a listed metric");
        match row.basis {
            Some(b) => println!(
                "{:<32} {:>16.4} {:<6} {:>8} {:>10} {:>7.2}%",
                row.name,
                row.value,
                unit,
                b.windows,
                b.samples,
                100.0 * b.spread
            ),
            None => println!("{:<32} {:>16.4} {:<6}", row.name, row.value, unit),
        }
    }
}

fn metrics_json(rows: &[Reported], full: bool) -> Json {
    Json::object(rows.iter().map(|row| {
        let mut fields = vec![
            ("value", Json::from(row.value)),
            (
                "unit",
                Json::from(unit_of(row.name).expect("a listed metric")),
            ),
        ];
        if let (true, Some(b)) = (full, row.basis) {
            fields.push(("windows", Json::from(b.windows as u64)));
            fields.push(("samples", Json::from(b.samples)));
            fields.push(("spread", Json::from(b.spread)));
        }
        (row.name, Json::object(fields))
    }))
}

fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT_DIR").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn write_file(path: &Path, text: &str, append: bool) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}

fn run(run: &RunArgs) -> std::io::Result<ExitCode> {
    let host = HostProfile::measure();
    if host.nproc < 2 {
        eprintln!(
            "refusing to report: {} processor(s); every workload needs a generator and a server running at once",
            host.nproc
        );
        return Ok(ExitCode::from(3));
    }
    let oversubscribed = run.spec.threads > host.nproc;
    let plan = Plan::new(run.spec, run.seconds, run.smoke);
    let dir = out_dir();

    // `rows` go on the result line; `extra` is what the run reports
    // beyond `BENCHMARK.json`'s lists.
    let plain = |(name, value): (&'static str, f64)| Reported {
        name,
        value,
        basis: None,
    };
    let windowed = |(def, w): (&metrics::MetricDef, Windowed)| Reported {
        name: def.0,
        value: w.value,
        basis: Some(w),
    };
    let (rows, extra, tally, events): (Vec<Reported>, Vec<Reported>, Tally, Json) = if run.trace {
        let (mut values, tracer, tally) = ladder::run_traced(run.spec, run.seed, &plan);
        // A workload whose topology has a layer of its own reports that
        // layer after the listed metrics.
        let own_layer: &[metrics::MetricDef] = match run.spec.stack {
            Stack::Srv => &[],
            Stack::Cluster => &CLUSTER_LAYER,
            Stack::Repl => &REPL_LAYER,
        };
        assert!(
            values
                .iter()
                .map(|(n, _)| *n)
                .eq(PER_LAYER.iter().chain(own_layer).map(|d| d.0)),
            "the ladder reports exactly the listed per-layer metrics, in order"
        );
        let extra = values.split_off(PER_LAYER.len());
        let spans = dir.join(format!("trace-{}.jsonl", run.spec.name));
        write_file(&spans, &tracer.to_jsonl(), false)?;
        let events = Json::object([("spans", Json::from(tracer.spans.len() as u64))]);
        (
            values.into_iter().map(plain).collect(),
            extra.into_iter().map(plain).collect(),
            tally,
            events,
        )
    } else {
        let out = workloads::run_untraced(run.spec, run.seed, &plan);
        let [p50, p90, p99] = out.steady.rtt.quantiles_us;
        let medians = [
            out.setup_s,
            out.steady.ops_per_s,
            p50[0],
            p50[1],
            p90[0],
            p90[1],
        ];
        let mut rows: Vec<Reported> = END_TO_END.iter().zip(medians).map(windowed).collect();
        rows.push(plain(("peak_rss_mb", out.peak_rss_mb)));
        // What the workload's event saw (the traced run reports the
        // same numbers as per-layer metrics).
        let event = |fields: Vec<(&'static str, f64)>| {
            Json::object(fields.into_iter().map(|(name, v)| (name, Json::from(v))))
        };
        let mut events = Vec::new();
        if let Some(failover) = out.failover {
            events.push(("failover", event(failover.fields())));
        }
        if let Some(reshard) = out.reshard {
            events.push(("reshard", event(reshard.fields())));
        }
        (
            rows,
            EXTRA.iter().zip(p99).map(windowed).collect(),
            out.tally,
            Json::object(events),
        )
    };

    let correct = tally.failed == 0;
    print_table(run, &rows);
    if !extra.is_empty() {
        println!("not in BENCHMARK.json:");
        print_rows(&extra);
    }
    println!(
        "attempted={} failed={} failed_ops_share={:.9}{}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        if oversubscribed {
            format!(
                "  oversubscribed: {} threads on {} processors",
                run.spec.threads, host.nproc
            )
        } else {
            String::new()
        }
    );
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    if let Json::Object(fields) = &events {
        for (name, value) in fields {
            println!("{name}: {value}");
        }
    }

    let full = Json::object([
        ("workload", Json::from(run.spec.name)),
        ("trace", Json::from(u64::from(run.trace))),
        ("seed", Json::from(run.seed)),
        ("seconds", Json::from(run.seconds)),
        ("smoke", Json::from(run.smoke)),
        ("host", host.to_json()),
        ("threads", Json::from(run.spec.threads as u64)),
        ("oversubscribed", Json::from(oversubscribed)),
        (
            "plan",
            Json::object([
                ("windows", Json::from(plan.windows as u64)),
                ("warm_ops", Json::from(plan.warm_ops)),
                ("rtt_window_ops", Json::from(plan.rtt_window_ops)),
                ("tput_window_ops", Json::from(plan.tput_window_ops)),
                ("ladder_warm_ops", Json::from(plan.ladder_warm_ops)),
                ("ladder_ops", Json::from(plan.ladder_ops)),
            ]),
        ),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "notes",
            Json::Array(tally.notes.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
        ("events", events),
        ("metrics", metrics_json(&rows, true)),
        ("extra", metrics_json(&extra, true)),
    ]);
    let suffix = if run.trace { "-trace" } else { "" };
    write_file(
        &dir.join(format!("{}{suffix}.json", run.spec.name)),
        &format!("{full}\n"),
        false,
    )?;
    if let Some(out) = &run.out {
        write_file(out, &format!("{full}\n"), true)?;
    }

    println!(
        "{}",
        Json::object([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(tally.attempted)),
            ("failed", Json::from(tally.failed)),
            ("metrics", metrics_json(&rows, false)),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--bounds" {
            bounds = PathBuf::from(args.next().ok_or("--bounds needs a path")?);
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err("compare takes exactly two result files".to_string());
    };
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Json::parse_all(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    let contract = read(&bounds)?
        .into_iter()
        .next()
        .ok_or("empty BENCHMARK.json")?;
    compare::compare(&contract, &read(Path::new(a))?, &read(Path::new(b))?)
}

fn main() -> ExitCode {
    // A panic on any thread ends the process: a serve loop that lost
    // its client — or a client whose server died — would otherwise
    // spin until the caller's timeout.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("benchmark: {info}");
        std::process::exit(101);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Some(parsed) => run(&parsed).unwrap_or_else(|e| {
                eprintln!("benchmark: {e}");
                ExitCode::from(1)
            }),
            None => usage(),
        },
        Some("compare") => match compare_files(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        },
        Some("list") => {
            for spec in &WORKLOADS {
                println!("{}", spec.name);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
