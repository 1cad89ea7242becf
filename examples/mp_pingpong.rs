//! Message passing as a synchronization alternative: a client-server
//! counter service over `libssmp`-style channels, compared with a
//! lock-based counter — the paper's "message passing shines when
//! contention is very high" trade-off, on real threads.
//!
//! Run with: `cargo run --release --example mp_pingpong`

use std::time::Instant;

use ssync::locks::{Lock, TicketLock};
use ssync::mp::channel::channel;
use ssync::mp::hub::ServerHub;
use ssync::mp::{MsgReceiver, MsgSender};

const OPS_PER_CLIENT: u64 = 20_000;
const CLIENTS: usize = 3;

fn main() {
    // --- Lock-based: every client increments the same protected
    //     counter. A ticket lock's waiters spin and never yield, so with
    //     more of them than processors a preempted next-in-line stalls
    //     the whole FIFO queue for a scheduling quantum per hand-off —
    //     the paper's multiprogramming caveat. At most one locker per
    //     processor keeps this half a measurement of the lock, not of
    //     the scheduler.
    let processors = std::thread::available_parallelism().map_or(1, usize::from);
    let lockers = CLIENTS.min(processors);
    if lockers < CLIENTS {
        println!(
            "lock-based half: {lockers} of {CLIENTS} clients, one per processor \
             (ticket-lock waiters never yield; more of them than processors \
             convoy behind a preempted next-in-line)"
        );
    }
    let counter = Lock::<u64, TicketLock>::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..lockers {
            s.spawn(|| {
                for _ in 0..OPS_PER_CLIENT {
                    *counter.lock() += 1;
                }
            });
        }
    });
    let lock_time = start.elapsed();
    println!(
        "lock-based counter:    {} increments in {lock_time:?}",
        *counter.lock()
    );

    // --- Message-passing: one server owns the counter; clients send
    //     increment requests and block on the reply (round trips).
    let mut server_req = Vec::new();
    let mut server_rep = Vec::new();
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let (req_tx, req_rx) = channel();
        let (rep_tx, rep_rx) = channel();
        server_req.push(req_rx);
        server_rep.push(rep_tx);
        clients.push((req_tx, rep_rx));
    }
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut hub = ServerHub::new(server_req);
            let mut counter = 0u64;
            let mut done = 0;
            while done < CLIENTS {
                let (client, msg) = hub.recv_from_any();
                if msg[0] == 0 {
                    done += 1;
                    continue;
                }
                counter += 1;
                server_rep[client].send([counter, 0, 0, 0, 0, 0, 0]);
            }
            println!("server-owned counter:  {counter} increments (no lock taken)");
        });
        for (req, rep) in clients {
            s.spawn(move || {
                for _ in 0..OPS_PER_CLIENT {
                    req.send([1, 0, 0, 0, 0, 0, 0]);
                    let _ = rep.recv();
                }
                req.send([0, 0, 0, 0, 0, 0, 0]); // done marker
            });
        }
    });
    println!("message-passing time:  {:?}", start.elapsed());
    println!();
    println!("on a box with more cores than this one, the server saturates at a");
    println!("fixed ceiling (Figure 10) but never collapses — while the lock's");
    println!("cost per op grows with contention (Figure 5).");
}
