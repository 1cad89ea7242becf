//! Quickstart: the three layers of SSYNC-RS in one file.
//!
//! 1. Pick a lock algorithm and protect data with it.
//! 2. Exchange messages over `libssmp`-style cache-line channels.
//! 3. Replay a paper experiment on the simulated hardware.
//!
//! Run with: `cargo run --example quickstart`

use ssync::core::Platform;
use ssync::locks::{Lock, McsLock, TicketLock};
use ssync::mp::channel::channel;
use ssync::mp::{MsgReceiver, MsgSender};

fn main() {
    // --- 1. Locks: same interface, nine algorithms. -------------------
    let counter = Lock::<u64, TicketLock>::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..10_000 {
                    *counter.lock() += 1;
                }
            });
        }
    });
    println!("ticket-lock counter: {}", *counter.lock());

    let names = Lock::<Vec<&str>, McsLock>::new(Vec::new());
    names.lock().push("mcs works too");
    println!("mcs-protected vec: {:?}", *names.lock());

    // --- 2. Message passing: one cache line per message. --------------
    let (tx, rx) = channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..3 {
                tx.send([i, i * 10, 0, 0, 0, 0, 0]);
            }
        });
        for _ in 0..3 {
            let msg = rx.recv();
            println!("message: key={} value={}", msg[0], msg[1]);
        }
    });

    // --- 3. The simulator: what would this cost on a 48-core Opteron? -
    let lat = ssync::ccbench::drivers::uncontested_latency(
        Platform::Opteron,
        ssync::simsync::locks::SimLockKind::Ticket,
        36, // previous holder two hops away
    );
    println!("simulated cross-socket ticket handoff: ~{lat:.0} cycles");
    let lat_local = ssync::ccbench::drivers::uncontested_latency(
        Platform::Opteron,
        ssync::simsync::locks::SimLockKind::Ticket,
        1, // previous holder on the same die
    );
    println!("simulated same-die ticket handoff:     ~{lat_local:.0} cycles");
    println!("(crossing sockets is a killer — the paper's first observation)");
}
