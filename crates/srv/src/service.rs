//! The plain sharded service: the channel mesh, the shard server and
//! the static-routing client.
//!
//! One [`serve`] per shard, one [`ServiceClient`] per client thread.
//! Every (client, shard) pair gets a dedicated SPSC channel pair
//! (request + reply). A shard server is the shared [`NodeCore`] with no
//! policy attached; the client is one [`Conn`] per shard plus
//! hash routing and the pipelined read path.
//!
//! The mesh is built on bounded SPSC rings ([`ssync_mp::ring_channel`]):
//! a server sends what a reply ring has room for and queues the rest,
//! and a client can **pipeline** reads ([`ServiceClient::send_get`] /
//! [`ServiceClient::read_get_reply`]). The endpoint, client and
//! connection types stay generic over the channel halves
//! ([`MsgSender`] / [`MsgReceiver`], defaulting to the ring's) because
//! code outside the workspace members names them with explicit halves;
//! nothing in the tree instantiates them on anything but rings.
//!
//! Flow control: nothing waits on a full ring. A client's waits are
//! pending polls ([`crate::conn`]); a node takes a request's frames as
//! they are published and queues the reply frames a full ring refused,
//! sending them first on its later turns ([`crate::node::SendQueue`]).
//! A client keeps at most one request outstanding per shard (a
//! pipelining one, at most the ring depth of one-frame reads), so a
//! reply queue holds at most that much.

use core::future::Future;

use ssync_core::stats::RegistrySnapshot;
use ssync_kv::KvStore;
use ssync_locks::RawLock;
use ssync_mp::{ring_channel, MsgReceiver, MsgSender, RingReceiver, RingSender};

use crate::conn::Conn;
use crate::node::{NoHooks, NodeCore};
use crate::router::shard_of;
use crate::step::{block_on, run};
pub use crate::wire::ReadHit;
use crate::wire::{Request, Response, WireError};

/// A server's side of the channel mesh: one request receiver and one
/// reply sender per client, index-aligned.
pub struct ServerEndpoint<C: MsgReceiver = RingReceiver, S: MsgSender = RingSender> {
    pub(crate) requests: Vec<C>,
    pub(crate) replies: Vec<S>,
}

/// A client's side of the channel mesh: one [`Conn`] per server, with
/// static hash routing over them.
pub struct ServiceClient<S: MsgSender = RingSender, C: MsgReceiver = RingReceiver> {
    shards: Vec<Conn<S, C>>,
}

/// The operations any service client exposes — implemented by
/// [`ServiceClient`] and by the replication and cluster clients, so the
/// workload engine can drive any of them through one interface. A
/// client supplies [`KvClient::exchange`], its routing and retry as one
/// future; the typed operations are written once, here, each a
/// [`block_on`] over `exchange`.
pub trait KvClient {
    /// One request about `key`, sent wherever the client routes that
    /// key and retried as the client retries; resolves to the reply
    /// that answers it.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a transport failure, an undecodable reply, or
    /// a retry budget spent.
    fn exchange(
        &self,
        key: u64,
        request: &Request,
    ) -> impl Future<Output = Result<Response, WireError>>;

    /// Looks a key up; `Some((version, value))` on a hit.
    ///
    /// # Errors
    ///
    /// As for [`KvClient::exchange`], and on an out-of-protocol reply
    /// or a request the server rejected as malformed.
    fn get(&self, key: u64) -> Result<ReadHit, WireError> {
        block_on(self.exchange(key, &Request::Get { key }))?.into_read("Get")
    }

    /// Stores a value; returns its new CAS version.
    ///
    /// # Errors
    ///
    /// As for [`KvClient::get`].
    fn set(&self, key: u64, value: Vec<u8>) -> Result<u64, WireError> {
        block_on(self.exchange(key, &Request::Set { key, value }))?.into_stored()
    }

    /// Compare-and-set. The outer `Result` is transport health; the
    /// inner one is the CAS outcome, `Err(current_version)` on a lost
    /// race.
    ///
    /// # Errors
    ///
    /// As for [`KvClient::get`].
    fn cas(&self, key: u64, value: Vec<u8>, expected: u64) -> Result<Result<u64, u64>, WireError> {
        let request = Request::Cas {
            key,
            expected,
            value,
        };
        block_on(self.exchange(key, &request))?.into_cas()
    }

    /// Deletes a key; `Some(tombstone_version)` if it existed.
    ///
    /// # Errors
    ///
    /// As for [`KvClient::get`].
    fn delete(&self, key: u64) -> Result<Option<u64>, WireError> {
        block_on(self.exchange(key, &Request::Delete { key }))?.into_deleted()
    }

    /// Looks each key up in turn, one [`KvClient::get`] per key; results
    /// in input order.
    ///
    /// # Errors
    ///
    /// The first key's error, as for [`KvClient::get`].
    fn get_many(&self, keys: &[u64]) -> Result<Vec<ReadHit>, WireError> {
        keys.iter().map(|&k| self.get(k)).collect()
    }
}

/// What [`ring_mesh`] returns: element `s` of the first vector serves
/// shard `s`, element `c` of the second belongs to client `c`.
pub type Mesh = (Vec<ServerEndpoint>, Vec<ServiceClient>);

/// Builds the full channel mesh for `shards` servers × `clients`
/// clients: one request ring and one reply ring of `depth` slots per
/// client-shard pair. Queue depth amortizes scheduler handoffs across a
/// whole burst of frames and enables the pipelined read path.
///
/// # Panics
///
/// Panics if `shards` or `clients` is zero, or if `depth` is not a
/// positive power of two.
pub fn ring_mesh(shards: usize, clients: usize, depth: usize) -> Mesh {
    assert!(shards > 0 && clients > 0);
    let mut endpoints: Vec<ServerEndpoint> = (0..shards)
        .map(|_| ServerEndpoint {
            requests: Vec::with_capacity(clients),
            replies: Vec::with_capacity(clients),
        })
        .collect();
    let mut service_clients = Vec::with_capacity(clients);
    for _ in 0..clients {
        let mut per_shard = Vec::with_capacity(shards);
        for endpoint in endpoints.iter_mut() {
            let (req_tx, req_rx) = ring_channel(depth);
            let (rep_tx, rep_rx) = ring_channel(depth);
            endpoint.requests.push(req_rx);
            endpoint.replies.push(rep_tx);
            per_shard.push(Conn::new(req_tx, rep_rx));
        }
        service_clients.push(ServiceClient { shards: per_shard });
    }
    (endpoints, service_clients)
}

/// What one shard server did before all its clients stopped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Request messages served.
    pub requests: u64,
    /// Key-operations executed: a request that admission refused or
    /// that is out of protocol executes none.
    pub key_ops: u64,
    /// Writes admission deferred, each counted once however many turns
    /// it stays parked.
    pub deferred: u64,
    /// Frames refused with [`Response::Malformed`](crate::wire::Response)
    /// instead of executing — undecodable heads and out-of-protocol
    /// requests — plus repeated `Stop`s, which get no reply.
    pub malformed: u64,
}

/// Runs one shard's server: [`run`] over one [`NodeCore`] with no
/// policy attached, until every client has sent [`Request::Stop`] (or
/// gone away without one). Meant to run on its own thread; returns once
/// the last client stops.
pub fn serve<R: RawLock + Default, C: MsgReceiver, S: MsgSender>(
    shard: &KvStore<R>,
    endpoint: ServerEndpoint<C, S>,
) -> ServeReport {
    let mut node = (NodeCore::new(endpoint), shard, NoHooks);
    run(&mut [&mut node]);
    node.0.report()
}

impl<S: MsgSender, C: MsgReceiver> ServiceClient<S, C> {
    /// Number of shards this client can reach.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The connection to server `shard` — what the replication and
    /// cluster clients layer their own routing over.
    pub fn conn(&self, shard: usize) -> &Conn<S, C> {
        &self.shards[shard]
    }

    fn route(&self, key: u64) -> &Conn<S, C> {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// Fires one read without waiting for the reply, returning the
    /// shard it went to — the send half of the pipelined read path.
    /// The caller owes that shard exactly one
    /// [`ServiceClient::read_get_reply`], in issue order per shard
    /// (the channels are FIFO).
    ///
    /// Pipelining discipline: keep the number of unread replies per
    /// shard at or below the transport's queue depth, so these sends
    /// can never block on a full request channel while replies wait.
    pub fn send_get(&self, key: u64) -> usize {
        self.fire(key, &Request::Get { key })
    }

    /// [`ServiceClient::send_get`] carrying the caller's intended-send
    /// timestamp ([`ssync_core::stats::mono_ns`]), so the server can
    /// split this read's latency into queue wait and apply time. Same
    /// pipelining discipline and same owed reply as `send_get`.
    pub fn send_get_timed(&self, key: u64, stamp: u64) -> usize {
        self.fire(key, &Request::TimedGet { key, stamp })
    }

    fn fire(&self, key: u64, request: &Request) -> usize {
        let shard = shard_of(key, self.shards.len());
        // A dead shard surfaces as Disconnected on the owed
        // read_get_reply (its reply sender dropped with the server), so
        // the fire half stays infallible.
        let _ = block_on(self.shards[shard].send(request));
        shard
    }

    /// Waits for the next outstanding read reply from `shard` — the
    /// drain half of the pipelined read path.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the reply fails to decode, is out of protocol,
    /// or the server rejected the request as malformed.
    pub fn read_get_reply(&self, shard: usize) -> Result<ReadHit, WireError> {
        block_on(self.shards[shard].recv())?.into_read("Get")
    }

    /// Scrapes server `shard`'s live metrics — histograms, node and
    /// store counters — without disturbing service (one ordinary
    /// request round-trip on this client's connection).
    ///
    /// # Errors
    ///
    /// [`WireError`] on an undecodable reply or a payload that fails
    /// snapshot decoding.
    pub fn stats(&self, shard: usize) -> Result<RegistrySnapshot, WireError> {
        block_on(self.shards[shard].call(&Request::Stats))?.into_stats()
    }

    /// Tells every server this client is done, consuming the client.
    /// Servers exit after the last client closes; a server already
    /// gone needs no goodbye.
    pub fn close(self) {
        block_on(self.send_stop());
    }

    /// Sends every server `Stop`, skipping any already gone: the body
    /// of [`ServiceClient::close`], for a driver that steps the client.
    pub async fn send_stop(&self) {
        for conn in &self.shards {
            let _ = conn.send(&Request::Stop).await;
        }
    }
}

impl<S: MsgSender, C: MsgReceiver> KvClient for ServiceClient<S, C> {
    async fn exchange(&self, key: u64, request: &Request) -> Result<Response, WireError> {
        self.route(key).call(request).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardRouter;
    use ssync_core::stats::mono_ns;
    use ssync_locks::TicketLock;

    /// Runs `body` with `clients` live clients against a served router
    /// over rings of `depth` slots. Depth 1 is the tightest flow
    /// control the mesh allows: one frame in flight per direction, so
    /// the tests on it prove the blocking calls cannot deadlock on full
    /// buffers.
    fn with_service<F>(
        shards: usize,
        clients: usize,
        depth: usize,
        body: F,
    ) -> ShardRouter<TicketLock>
    where
        F: FnOnce(Vec<ServiceClient>) + Send,
    {
        let router: ShardRouter<TicketLock> = ShardRouter::new(shards, 64, 8);
        let (endpoints, service_clients) = ring_mesh(shards, clients, depth);
        std::thread::scope(|s| {
            for (shard, endpoint) in endpoints.into_iter().enumerate() {
                let store = router.shard(shard);
                s.spawn(move || serve(store, endpoint));
            }
            body(service_clients);
        });
        router
    }

    #[test]
    fn end_to_end_single_client() {
        let router = with_service(2, 1, 1, |mut clients| {
            let client = clients.pop().unwrap();
            assert!(client.get(1).unwrap().is_none());
            let v1 = client.set(1, b"one".to_vec()).unwrap();
            let (v, value) = client.get(1).unwrap().unwrap();
            assert_eq!((v, value.as_slice()), (v1, b"one".as_slice()));
            let v2 = client.cas(1, b"two".to_vec(), v1).unwrap().unwrap();
            assert_eq!(client.cas(1, b"three".to_vec(), v1).unwrap(), Err(v2));
            let tombstone = client.delete(1).unwrap().expect("key existed");
            assert!(tombstone > v2, "tombstone must order after the store");
            assert!(client.delete(1).unwrap().is_none());
            client.close();
        });
        assert!(router.is_empty());
        let snap = router.stats_snapshot();
        assert_eq!(snap.cas_failures, 1);
        assert_eq!(snap.deletes, 1);
    }

    #[test]
    fn end_to_end_on_rings() {
        let router = with_service(2, 2, 16, |clients| {
            std::thread::scope(|s| {
                for (c, client) in clients.into_iter().enumerate() {
                    s.spawn(move || {
                        let base = c as u64 * 1000;
                        for i in 0..60 {
                            client.set(base + i, vec![c as u8; 48]).unwrap();
                        }
                        for i in 0..60 {
                            let (_, value) = client.get(base + i).unwrap().unwrap();
                            assert_eq!(value, vec![c as u8; 48]);
                        }
                        client.close();
                    });
                }
            });
        });
        assert_eq!(router.len(), 120);
    }

    #[test]
    fn pipelined_reads_drain_in_order() {
        with_service(3, 1, 32, |mut clients| {
            let client = clients.pop().unwrap();
            for key in 0..64u64 {
                client.set(key, key.to_be_bytes().to_vec()).unwrap();
            }
            // Issue a full window of reads before draining any reply;
            // replies come back FIFO per shard.
            let mut pending: Vec<Vec<u64>> = vec![Vec::new(); 3];
            for key in 0..64u64 {
                let shard = client.send_get(key);
                pending[shard].push(key);
                // Keep per-shard outstanding below the ring depth.
                if pending[shard].len() == 16 {
                    for expect in pending[shard].drain(..) {
                        let (_, value) = client.read_get_reply(shard).unwrap().unwrap();
                        assert_eq!(value, expect.to_be_bytes().to_vec());
                    }
                }
            }
            for (shard, keys) in pending.into_iter().enumerate() {
                for expect in keys {
                    let (_, value) = client.read_get_reply(shard).unwrap().unwrap();
                    assert_eq!(value, expect.to_be_bytes().to_vec());
                }
            }
            client.close();
        });
    }

    #[test]
    fn long_values_cross_the_wire_intact() {
        with_service(2, 1, 1, |mut clients| {
            let client = clients.pop().unwrap();
            let value: Vec<u8> = (0..700).map(|i| (i % 256) as u8).collect();
            client.set(9, value.clone()).unwrap();
            let (_, got) = client.get(9).unwrap().unwrap();
            assert_eq!(got, value);
            client.close();
        });
    }

    #[test]
    fn long_values_cross_the_rings_intact() {
        with_service(2, 1, 8, |mut clients| {
            let client = clients.pop().unwrap();
            let value: Vec<u8> = (0..700).map(|i| (i % 251) as u8).collect();
            client.set(9, value.clone()).unwrap();
            let (_, got) = client.get(9).unwrap().unwrap();
            assert_eq!(got, value);
            client.close();
        });
    }

    #[test]
    fn get_many_spans_shards_in_input_order() {
        with_service(3, 1, 1, |mut clients| {
            let client = clients.pop().unwrap();
            for key in 0..40u64 {
                client.set(key, key.to_be_bytes().to_vec()).unwrap();
            }
            // 40 keys over 3 shards; 100.. are misses.
            let keys: Vec<u64> = (0..50).map(|i| if i < 40 { i } else { i + 100 }).collect();
            let results = client.get_many(&keys).unwrap();
            for (i, res) in results.iter().enumerate() {
                if i < 40 {
                    let (_, value) = res.as_ref().expect("present key");
                    assert_eq!(value.as_slice(), &(i as u64).to_be_bytes());
                } else {
                    assert!(res.is_none(), "key {i} should miss");
                }
            }
            client.close();
        });
    }

    #[test]
    fn concurrent_clients_share_the_service() {
        let router = with_service(2, 3, 1, |service_clients| {
            std::thread::scope(|s| {
                for (c, client) in service_clients.into_iter().enumerate() {
                    s.spawn(move || {
                        let base = c as u64 * 1000;
                        for i in 0..100 {
                            client.set(base + i, vec![c as u8; 16]).unwrap();
                        }
                        for i in 0..100 {
                            let (_, value) = client.get(base + i).unwrap().unwrap();
                            assert_eq!(value, vec![c as u8; 16]);
                        }
                        client.close();
                    });
                }
            });
        });
        assert_eq!(router.len(), 300);
    }

    #[test]
    fn empty_get_many_is_a_no_op() {
        with_service(1, 1, 1, |mut clients| {
            let client = clients.pop().unwrap();
            assert!(client.get_many(&[]).unwrap().is_empty());
            client.close();
        });
    }

    /// Regression test for the pre-PR-7 livelock: a client op against a
    /// shard whose server thread is gone must error, not spin forever.
    #[test]
    fn dead_server_surfaces_as_disconnected_not_a_hang() {
        let (endpoints, mut clients) = ring_mesh(1, 1, 1);
        drop(endpoints); // The "server" dies before serving anything.
        let client = clients.pop().unwrap();
        assert_eq!(client.get(1), Err(WireError::Disconnected));
        assert_eq!(client.set(1, b"x".to_vec()), Err(WireError::Disconnected));
        assert_eq!(client.get_many(&[1, 2, 3]), Err(WireError::Disconnected));
        client.close(); // Must not hang either.

        // Deeper rings: queued requests fit, so the send side succeeds
        // and the *reply* read reports the dead peer.
        let (endpoints, mut clients) = ring_mesh(1, 1, 8);
        drop(endpoints);
        let client = clients.pop().unwrap();
        let shard = client.send_get(7);
        assert_eq!(client.read_get_reply(shard), Err(WireError::Disconnected));
        client.close();
    }

    #[test]
    fn live_stats_scrape_reads_a_serving_node_under_load() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = AtomicBool::new(false);
        with_service(1, 2, 1, |mut clients| {
            let prober = clients.pop().unwrap();
            let worker = clients.pop().unwrap();
            std::thread::scope(|s| {
                let stop = &stop;
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        worker.set(i % 64, vec![1u8; 8]).unwrap();
                        worker.get(i % 64).unwrap();
                        i += 1;
                    }
                    worker.close();
                });
                // Scrape while the load runs: the node answers without
                // pausing, and the counters only ever grow.
                let mut last = 0u64;
                for _ in 0..10 {
                    let snap = prober.stats(0).unwrap();
                    let requests = snap.counter("srv.requests").unwrap();
                    assert!(requests >= last, "counters are monotone");
                    last = requests;
                }
                assert!(last > 0, "the load must be visible in a scrape");
                // The timed read path feeds the server-side latency
                // split histograms.
                let shard = prober.send_get_timed(5, mono_ns());
                prober.read_get_reply(shard).expect("timed read failed");
                let snap = prober.stats(0).unwrap();
                for name in ["srv.queue_wait_ns", "srv.apply_ns"] {
                    let hist = snap.hist(name).expect("split histogram registered");
                    assert!(hist.count() >= 1, "{name} must have recorded");
                }
                stop.store(true, Ordering::Relaxed);
                prober.close();
            });
        });
    }

    #[test]
    fn corrupt_frame_gets_malformed_reply_and_server_survives() {
        with_service(1, 1, 1, |mut clients| {
            let client = clients.pop().unwrap();
            // Inject a garbage head frame straight onto the request
            // channel, bypassing the typed encoder.
            let conn = client.conn(0);
            conn.tx.send([0xFF; ssync_mp::MSG_WORDS]);
            assert_eq!(block_on(conn.recv()), Ok(Response::Malformed));
            // Replication traffic at a plain server is refused the same
            // way — and counted, like on every other node kind.
            let misdirected = Request::ReplGet { key: 1, floor: 0 };
            assert_eq!(block_on(conn.call(&misdirected)), Ok(Response::Malformed));
            assert_eq!(client.get(1), Ok(None));
            let snap = client.stats(0).unwrap();
            assert_eq!(snap.counter("srv.malformed"), Some(2));
            assert_eq!(snap.counter("srv.requests"), Some(3));
            // The server is still alive and serving normal traffic.
            let v = client.set(3, b"alive".to_vec()).unwrap();
            assert_eq!(client.get(3).unwrap().unwrap().0, v);
            client.close();
        });
    }

    /// Regression: the loop pulled continuation frames with a receive
    /// that never gives up, so a client dying between a head frame and
    /// its continuations wedged the shard for everyone. The scenario
    /// runs detached and reports over a channel, so on a wedged shard
    /// this fails at the deadline instead of hanging the suite.
    #[test]
    fn client_dying_mid_request_is_retired_and_the_shard_keeps_serving() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let router: ShardRouter<TicketLock> = ShardRouter::new(1, 64, 8);
            let (mut endpoints, mut clients) = ring_mesh(1, 2, 16);
            let survivor = clients.pop().unwrap();
            let doomed = clients.pop().unwrap();
            let truncated = Request::Set {
                key: 500,
                value: vec![9; 500],
            };
            doomed.conn(0).tx.send(truncated.encode()[0]);
            drop(doomed);
            let report = std::thread::scope(|s| {
                let server = s.spawn(|| serve(router.shard(0), endpoints.pop().unwrap()));
                for key in 0..64 {
                    survivor.set(key, vec![1; 8]).unwrap();
                }
                assert_eq!(
                    survivor.get(500),
                    Ok(None),
                    "a truncated Set stores nothing"
                );
                survivor.close();
                server.join().unwrap()
            });
            done_tx.send(report).unwrap();
        });
        let report = done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a client that died mid-request wedged the shard");
        assert_eq!((report.requests, report.malformed), (65, 1));
    }

    /// Regression: an over-long value used to panic in the encoder,
    /// under the caller's feet, instead of coming back as an error.
    #[test]
    fn oversized_values_are_errors_not_panics() {
        use crate::wire::MAX_VALUE_LEN;
        with_service(1, 1, 1, |mut clients| {
            let client = clients.pop().unwrap();
            let refused = WireError::ValueTooLong(MAX_VALUE_LEN + 1);
            let big = vec![0; MAX_VALUE_LEN + 1];
            assert_eq!(client.set(1, big.clone()), Err(refused));
            assert_eq!(client.cas(1, big, 0), Err(refused));
            // Nothing reached the server; the connection still works.
            let version = client.set(1, vec![0; MAX_VALUE_LEN]).unwrap();
            assert_eq!(client.get(1).unwrap().unwrap().0, version);
            assert_eq!(client.stats(0).unwrap().counter("srv.requests"), Some(3));
            client.close();
        });
    }

    /// Regression: `Stop` used to decrement the live-client count with
    /// no per-client memory, so one connection stopping twice took a
    /// two-client shard down under the other client's feet.
    #[test]
    fn duplicate_stop_degrades_one_connection_not_the_shard() {
        let router: ShardRouter<TicketLock> = ShardRouter::new(1, 64, 8);
        let (mut endpoints, mut clients) = ring_mesh(1, 2, 16);
        let survivor = clients.pop().unwrap();
        let rude = clients.pop().unwrap();
        let report = std::thread::scope(|s| {
            let server = s.spawn(|| serve(router.shard(0), endpoints.pop().unwrap()));
            block_on(rude.conn(0).send(&Request::Stop)).unwrap();
            block_on(rude.conn(0).send(&Request::Stop)).unwrap();
            // Both Stops are processed before the scrape is answered:
            // the loop polls round-robin and the rings are FIFO.
            for key in 0..64 {
                survivor.set(key, vec![1; 8]).unwrap();
            }
            let snap = survivor.stats(0).unwrap();
            assert_eq!(snap.counter("srv.malformed"), Some(1));
            // The repeated Stop was not answered.
            assert_eq!(rude.conn(0).rx.try_recv(), None);
            survivor.close();
            server.join().unwrap()
        });
        assert_eq!((report.requests, report.malformed), (65, 1));
    }
}
