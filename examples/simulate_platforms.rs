//! Tour the four simulated platforms: run the same contended-counter
//! program everywhere and watch the hardware decide the outcome — the
//! paper's thesis ("scalability of synchronization is mainly a property
//! of the hardware") as a five-minute demo.
//!
//! Run with: `cargo run --release --example simulate_platforms`

use ssync::core::Platform;
use ssync::sim::{Cpu, LineId, Sim};

/// Each thread fetch-and-increments a shared line, then does a little
/// local work.
async fn incrementer(cpu: Cpu, line: LineId) {
    loop {
        cpu.fai(line).await;
        cpu.complete_op();
        cpu.pause(200).await;
    }
}

fn main() {
    println!("one shared counter, fetch-and-increment + 200 cycles local work");
    println!(
        "{:>10} {:>14} {:>14} {:>10}",
        "platform", "1 thread", "max threads", "ratio"
    );
    for p in Platform::ALL {
        let run = |threads: usize| {
            let mut sim = Sim::new(p, 1);
            let cores = sim.topology().placement(threads);
            let line = sim.alloc_line_for_core(cores[0]);
            for &c in &cores {
                sim.spawn_on_core(c, move |cpu| incrementer(cpu, line));
            }
            sim.run_until(500_000);
            sim.topology().mops(sim.total_ops(), 500_000)
        };
        let one = run(1);
        let all = run(p.topology().num_cores());
        println!(
            "{:>10} {one:>10.1} M/s {all:>10.1} M/s {:>9.2}x",
            p.name(),
            all / one
        );
    }
    println!();
    println!("multi-sockets (Opteron, Xeon) collapse under cross-socket traffic;");
    println!("single-sockets (Niagara, Tilera) plateau — Figure 4 in miniature.");
}
