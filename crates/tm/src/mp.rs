//! The message-passing STM: a distributed lock-and-data service.
//!
//! TM2C partitions transactional metadata across DTM server threads;
//! clients request word access by message, and the owning server grants
//! or denies eagerly. This module implements the same structure with one
//! server owning the whole heap (TM2C's per-range servers shard this
//! loop; the single-server build keeps the native crate compact — the
//! simulator's Figure 11 message-passing harness covers the sharded
//! shape):
//!
//! * `Acquire(tx, addr)` → `Granted(value)` if free or already ours,
//!   `Denied` otherwise (the client then aborts and retries).
//! * `Write(addr, value)` — buffered on the server, applied at commit.
//! * `Commit(tx)` / `Abort(tx)` — release all grants (commit applies
//!   buffered writes first).

use std::collections::HashMap;
use std::thread::JoinHandle;

use ssync_core::{block_on, until, Backoff};
use ssync_mp::channel::{channel, Receiver, Sender};
use ssync_mp::hub::{MsgReceiver, MsgSender, ServerHub};

use crate::{TxError, TxResult};

const REQ_ACQUIRE: u64 = 1;
const REQ_WRITE: u64 = 2;
const REQ_COMMIT: u64 = 3;
const REQ_ABORT: u64 = 4;
const REQ_PEEK: u64 = 5;
const REQ_SHUTDOWN: u64 = 6;

const REP_GRANTED: u64 = 1;
const REP_DENIED: u64 = 2;
const REP_OK: u64 = 3;

/// Handle owning the DTM server thread.
pub struct MpTm {
    server: Option<JoinHandle<()>>,
    shutdown: Sender,
}

/// A per-thread client endpoint.
pub struct MpTmClient {
    /// This client's id doubles as its transaction owner id.
    id: u64,
    tx: Sender,
    rx: Receiver,
}

impl MpTm {
    /// Spawns the server owning a `heap_len`-word heap, returning client
    /// endpoints.
    pub fn spawn(heap_len: usize, n_clients: usize) -> (MpTm, Vec<MpTmClient>) {
        assert!(heap_len > 0 && n_clients > 0);
        let mut clients = Vec::new();
        let mut req_rx = Vec::new();
        let mut rep_tx = Vec::new();
        for id in 0..n_clients {
            let (req_s, req_r) = channel();
            let (rep_s, rep_r) = channel();
            clients.push(MpTmClient {
                id: id as u64,
                tx: req_s,
                rx: rep_r,
            });
            req_rx.push(req_r);
            rep_tx.push(rep_s);
        }
        let (shutdown_tx, shutdown_rx) = channel();
        let server = std::thread::spawn(move || {
            server_loop(heap_len, req_rx, rep_tx, shutdown_rx);
        });
        (
            MpTm {
                server: Some(server),
                shutdown: shutdown_tx,
            },
            clients,
        )
    }

    /// Stops the server (drop all clients first).
    pub fn shutdown(mut self) {
        self.shutdown.send([REQ_SHUTDOWN, 0, 0, 0, 0, 0, 0]);
        if let Some(h) = self.server.take() {
            h.join().expect("DTM server panicked");
        }
    }
}

struct ServerState {
    words: Vec<u64>,
    /// Word owner: client id + 1 (0 = free).
    owner: Vec<u64>,
    /// Buffered writes per client: (addr, value).
    pending: HashMap<u64, Vec<(usize, u64)>>,
    /// Grants per client for release.
    grants: HashMap<u64, Vec<usize>>,
}

fn server_loop(heap_len: usize, requests: Vec<Receiver>, replies: Vec<Sender>, shutdown: Receiver) {
    let mut st = ServerState {
        words: vec![0; heap_len],
        owner: vec![0; heap_len],
        pending: HashMap::new(),
        grants: HashMap::new(),
    };
    let mut hub = ServerHub::new(requests);
    loop {
        let request = block_on(until(|| match shutdown.try_recv() {
            Some(_) => Some(None),
            None => hub.try_recv_from_any().map(Some),
        }));
        let Some((client, msg)) = request else {
            return;
        };
        let me = client as u64 + 1;
        let [op, addr, value, ..] = msg;
        let addr = addr as usize;
        match op {
            REQ_ACQUIRE => {
                if st.owner[addr] == 0 || st.owner[addr] == me {
                    if st.owner[addr] == 0 {
                        st.owner[addr] = me;
                        st.grants.entry(me).or_default().push(addr);
                    }
                    replies[client].send([REP_GRANTED, st.words[addr], 0, 0, 0, 0, 0]);
                } else {
                    replies[client].send([REP_DENIED, 0, 0, 0, 0, 0, 0]);
                }
            }
            REQ_WRITE => {
                debug_assert_eq!(st.owner[addr], me, "write without grant");
                st.pending.entry(me).or_default().push((addr, value));
                replies[client].send([REP_OK, 0, 0, 0, 0, 0, 0]);
            }
            REQ_COMMIT => {
                for (addr, value) in st.pending.remove(&me).unwrap_or_default() {
                    st.words[addr] = value;
                }
                for addr in st.grants.remove(&me).unwrap_or_default() {
                    st.owner[addr] = 0;
                }
                replies[client].send([REP_OK, 0, 0, 0, 0, 0, 0]);
            }
            REQ_ABORT => {
                st.pending.remove(&me);
                for addr in st.grants.remove(&me).unwrap_or_default() {
                    st.owner[addr] = 0;
                }
                replies[client].send([REP_OK, 0, 0, 0, 0, 0, 0]);
            }
            REQ_PEEK => {
                replies[client].send([REP_OK, st.words[addr], 0, 0, 0, 0, 0]);
            }
            _ => replies[client].send([REP_OK, 0, 0, 0, 0, 0, 0]),
        }
    }
}

impl MpTmClient {
    /// Runs `body` transactionally, retrying on conflicts.
    pub fn run<T>(&self, mut body: impl FnMut(&mut MpTx<'_>) -> TxResult<T>) -> T {
        let mut backoff = Backoff::new();
        loop {
            let mut tx = MpTx { client: self };
            match body(&mut tx) {
                Ok(value) => {
                    self.call([REQ_COMMIT, 0, 0, 0, 0, 0, 0]);
                    return value;
                }
                Err(TxError::Conflict) => {
                    self.call([REQ_ABORT, 0, 0, 0, 0, 0, 0]);
                    backoff.spin();
                }
            }
        }
    }

    /// Non-transactional read (tests).
    pub fn peek(&self, addr: usize) -> u64 {
        self.call([REQ_PEEK, addr as u64, 0, 0, 0, 0, 0])[1]
    }

    fn call(&self, msg: [u64; 7]) -> [u64; 7] {
        self.tx.send(msg);
        self.rx.recv()
    }

    /// This client's id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// An in-flight message-passing transaction.
pub struct MpTx<'c> {
    client: &'c MpTmClient,
}

impl MpTx<'_> {
    /// Transactionally reads a word (acquires it at the server).
    pub fn read(&mut self, addr: usize) -> TxResult<u64> {
        let rep = self.client.call([REQ_ACQUIRE, addr as u64, 0, 0, 0, 0, 0]);
        if rep[0] == REP_GRANTED {
            Ok(rep[1])
        } else {
            Err(TxError::Conflict)
        }
    }

    /// Transactionally writes a word (acquire + buffered write).
    pub fn write(&mut self, addr: usize, value: u64) -> TxResult<()> {
        // Ensure the grant first.
        self.read(addr)?;
        let rep = self
            .client
            .call([REQ_WRITE, addr as u64, value, 0, 0, 0, 0]);
        debug_assert_eq!(rep[0], REP_OK);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_commit() {
        let (tm, mut clients) = MpTm::spawn(8, 1);
        let c = clients.remove(0);
        let old = c.run(|tx| {
            let v = tx.read(2)?;
            tx.write(2, v + 7)?;
            Ok(v)
        });
        assert_eq!(old, 0);
        assert_eq!(c.peek(2), 7);
        drop(c);
        tm.shutdown();
    }

    #[test]
    fn concurrent_counters_do_not_lose_updates() {
        let (tm, mut clients) = MpTm::spawn(4, 4);
        let probe = clients.pop().expect("probe client");
        std::thread::scope(|s| {
            for c in clients {
                s.spawn(move || {
                    for _ in 0..100 {
                        c.run(|tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)?;
                            Ok(())
                        });
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert_eq!(probe.peek(0), 300);
        drop(probe);
        tm.shutdown();
    }

    #[test]
    fn transfers_preserve_total_mp() {
        let (tm, mut clients) = MpTm::spawn(8, 3);
        let probe = clients.pop().expect("probe client");
        for a in 0..8 {
            probe.run(|tx| tx.write(a, 100).map(|_| ()));
        }
        std::thread::scope(|s| {
            for c in clients {
                s.spawn(move || {
                    let mut x = c.id() + 1;
                    for _ in 0..80 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                        let from = (x >> 33) as usize % 8;
                        let to = (x >> 13) as usize % 8;
                        if from == to {
                            continue;
                        }
                        c.run(|tx| {
                            let a = tx.read(from)?;
                            let b = tx.read(to)?;
                            tx.write(from, a.wrapping_sub(1))?;
                            tx.write(to, b.wrapping_add(1))?;
                            Ok(())
                        });
                        std::thread::yield_now();
                    }
                });
            }
        });
        let total: u64 = (0..8).map(|a| probe.peek(a)).sum();
        assert_eq!(total, 800);
        drop(probe);
        tm.shutdown();
    }
}
