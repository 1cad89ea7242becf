//! The message-passing hash table: partitioned ownership.
//!
//! Buckets are partitioned across dedicated *server* threads; clients
//! never touch table memory. An operation is a round trip over
//! `ssync-mp` channels: the client sends `(op, key, value)` and blocks on
//! the reply, exactly the blocking configuration the paper runs in
//! Figure 11 (where it wins every high-contention workload: the data
//! stays in the owning server's cache and no lock is ever taken).

use std::collections::HashMap;
use std::thread::JoinHandle;

use ssync_core::{block_on, until};
use ssync_mp::channel::{channel, Receiver, Sender};
use ssync_mp::hub::{MsgReceiver, MsgSender, ServerHub};

use crate::{bucket_of, Key, Value};

const OP_GET: u64 = 1;
const OP_PUT: u64 = 2;
const OP_REMOVE: u64 = 3;
const OP_SHUTDOWN: u64 = 4;

/// A handle to a partitioned, server-owned hash table.
///
/// Create with [`MpHashTable::spawn`], obtain one [`MpTableClient`] per
/// client thread with [`MpHashTable::client`], and drop the handle to
/// shut the servers down.
///
/// # Examples
///
/// ```
/// let (table, mut clients) = ssync_ht::MpHashTable::spawn(2, 64, 1);
/// let client = clients.remove(0);
/// assert_eq!(client.put(7, 70), None);
/// assert_eq!(client.get(7), Some(70));
/// assert_eq!(client.remove(7), Some(70));
/// drop(client);
/// table.shutdown();
/// ```
pub struct MpHashTable {
    servers: Vec<JoinHandle<()>>,
    shutdown_txs: Vec<Sender>,
}

/// Per-thread client endpoint.
pub struct MpTableClient {
    /// One request channel per server, plus the reply channel this
    /// client blocks on (servers reply on the per-client channel).
    requests: Vec<Sender>,
    replies: Vec<Receiver>,
    buckets: usize,
    servers: usize,
}

impl MpHashTable {
    /// Spawns `n_servers` server threads owning `buckets` buckets in
    /// round-robin partition, wired to `n_clients` client endpoints.
    pub fn spawn(
        n_servers: usize,
        buckets: usize,
        n_clients: usize,
    ) -> (MpHashTable, Vec<MpTableClient>) {
        assert!(n_servers > 0 && buckets > 0 && n_clients > 0);
        // Channel matrix: requests[s][c], replies[s][c].
        let mut req_rx: Vec<Vec<Receiver>> = Vec::new();
        let mut rep_tx: Vec<Vec<Sender>> = Vec::new();
        let mut clients: Vec<MpTableClient> = (0..n_clients)
            .map(|_| MpTableClient {
                requests: Vec::new(),
                replies: Vec::new(),
                buckets,
                servers: n_servers,
            })
            .collect();
        let mut shutdown_txs = Vec::new();
        let mut shutdown_rxs = Vec::new();
        for _ in 0..n_servers {
            let mut rx_row = Vec::new();
            let mut tx_row = Vec::new();
            for client in clients.iter_mut() {
                let (req_s, req_r) = channel();
                let (rep_s, rep_r) = channel();
                client.requests.push(req_s);
                client.replies.push(rep_r);
                rx_row.push(req_r);
                tx_row.push(rep_s);
            }
            let (st, sr) = channel();
            shutdown_txs.push(st);
            shutdown_rxs.push(sr);
            req_rx.push(rx_row);
            rep_tx.push(tx_row);
        }
        let mut servers = Vec::new();
        for (s, (rx_row, tx_row)) in req_rx.into_iter().zip(rep_tx).enumerate() {
            let shutdown = shutdown_rxs.remove(0);
            servers.push(std::thread::spawn(move || {
                server_loop(s, rx_row, tx_row, shutdown);
            }));
        }
        (
            MpHashTable {
                servers,
                shutdown_txs,
            },
            clients,
        )
    }

    /// Stops the server threads (all clients must be dropped first, or
    /// in-flight requests may be abandoned).
    pub fn shutdown(self) {
        for tx in &self.shutdown_txs {
            tx.send([OP_SHUTDOWN, 0, 0, 0, 0, 0, 0]);
        }
        for h in self.servers {
            h.join().expect("server thread panicked");
        }
    }
}

fn server_loop(
    _server_id: usize,
    requests: Vec<Receiver>,
    replies: Vec<Sender>,
    shutdown: Receiver,
) {
    // The server's partition, keyed by bucket then key. A HashMap per
    // bucket keeps the ownership structure of `ssht` without re-doing
    // the open-chaining details (the native table covers those).
    let mut data: HashMap<usize, HashMap<Key, Value>> = HashMap::new();
    let mut hub = ServerHub::new(requests);
    loop {
        let request = block_on(until(|| match shutdown.try_recv() {
            Some(_) => Some(None),
            None => hub.try_recv_from_any().map(Some),
        }));
        let Some((client, msg)) = request else {
            return;
        };
        let [op, key, value, bucket, ..] = msg;
        let bucket = bucket as usize;
        let entry = data.entry(bucket).or_default();
        let (found, old) = match op {
            OP_GET => match entry.get(&key) {
                Some(v) => (1, *v),
                None => (0, 0),
            },
            OP_PUT => match entry.insert(key, value) {
                Some(v) => (1, v),
                None => (0, 0),
            },
            OP_REMOVE => match entry.remove(&key) {
                Some(v) => (1, v),
                None => (0, 0),
            },
            _ => (0, 0),
        };
        replies[client].send([found, old, 0, 0, 0, 0, 0]);
    }
}

impl MpTableClient {
    fn request(&self, op: u64, key: Key, value: Value) -> Option<Value> {
        let bucket = bucket_of(key, self.buckets);
        let server = bucket % self.servers;
        self.requests[server].send([op, key, value, bucket as u64, 0, 0, 0]);
        let [found, old, ..] = self.replies[server].recv();
        (found == 1).then_some(old)
    }

    /// Looks a key up (blocking round trip).
    pub fn get(&self, key: Key) -> Option<Value> {
        self.request(OP_GET, key, 0)
    }

    /// Inserts or updates; returns the previous value if any.
    pub fn put(&self, key: Key, value: Value) -> Option<Value> {
        self.request(OP_PUT, key, value)
    }

    /// Removes a key; returns its value if present.
    pub fn remove(&self, key: Key) -> Option<Value> {
        self.request(OP_REMOVE, key, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_semantics() {
        let (table, mut clients) = MpHashTable::spawn(2, 32, 1);
        let c = clients.remove(0);
        assert_eq!(c.put(1, 10), None);
        assert_eq!(c.put(1, 11), Some(10));
        assert_eq!(c.get(1), Some(11));
        assert_eq!(c.remove(1), Some(11));
        assert_eq!(c.get(1), None);
        drop(c);
        table.shutdown();
    }

    #[test]
    fn multiple_clients_disjoint_keys() {
        let (table, clients) = MpHashTable::spawn(3, 64, 4);
        std::thread::scope(|s| {
            for (i, c) in clients.into_iter().enumerate() {
                s.spawn(move || {
                    let base = i as u64 * 1_000;
                    for k in 0..100 {
                        assert_eq!(c.put(base + k, k), None);
                    }
                    for k in 0..100 {
                        assert_eq!(c.get(base + k), Some(k));
                    }
                    for k in 0..100 {
                        assert_eq!(c.remove(base + k), Some(k));
                    }
                });
            }
        });
        table.shutdown();
    }

    #[test]
    fn keys_route_to_stable_servers() {
        let (table, mut clients) = MpHashTable::spawn(4, 16, 2);
        let a = clients.remove(0);
        let b = clients.remove(0);
        // Writes through one client are visible through the other.
        a.put(42, 420);
        assert_eq!(b.get(42), Some(420));
        b.put(42, 421);
        assert_eq!(a.get(42), Some(421));
        drop((a, b));
        table.shutdown();
    }
}
