//! The host profile stamped into every output file: the platform
//! assumptions a number rests on, written down and measured rather
//! than left to prose.

use ssync_core::mono_ns;

use crate::json::Json;

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn proc_field(path: &str, field: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix(field).map(|rest| rest.trim().to_string()))
}

/// Mean cost of one clock read and the smallest step the clock shows,
/// both in nanoseconds, over `reads` back-to-back reads.
pub fn clock_profile(reads: u64) -> (f64, u64) {
    let t0 = mono_ns();
    let mut last = t0;
    let mut step = u64::MAX;
    for _ in 0..reads {
        let now = mono_ns();
        if now > last {
            step = step.min(now - last);
        }
        last = now;
    }
    ((last - t0) as f64 / reads as f64, step)
}

pub struct HostProfile {
    pub nproc: usize,
    pub cpu_model: String,
    pub clock_read_ns: f64,
    pub clock_step_ns: u64,
    pub rustc: String,
    pub commit: String,
}

impl HostProfile {
    /// `rustc` and `commit` come from the environment `run.sh` sets:
    /// the binary cannot ask git about a checkout that is not one.
    pub fn measure() -> HostProfile {
        let (clock_read_ns, clock_step_ns) = clock_profile(1 << 20);
        let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
        HostProfile {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: proc_field("/proc/cpuinfo", "model name").map_or_else(
                || "unknown".to_string(),
                |m| m.trim_start_matches([':', ' ', '\t']).to_string(),
            ),
            clock_read_ns,
            clock_step_ns,
            rustc: env("BENCH_RUSTC"),
            commit: env("BENCH_COMMIT"),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::object([
            ("nproc", Json::from(self.nproc as f64)),
            ("cpu_model", Json::from(self.cpu_model.as_str())),
            ("clock_read_ns", Json::from(self.clock_read_ns)),
            ("clock_step_ns", Json::from(self.clock_step_ns as f64)),
            ("rustc", Json::from(self.rustc.as_str())),
            ("commit", Json::from(self.commit.as_str())),
        ])
    }
}
