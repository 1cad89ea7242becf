//! Cross-stack conformance: the three serving stacks run one request
//! path (`ssync_srv::NodeCore`), so the same script of requests must
//! draw the same replies from a plain shard, a replication leader and
//! a cluster node — and leave the same store behind, the same `store.*`
//! scrape, and the `TimedGet` latency split recorded on all three.
//!
//! Before the script starts, a second client puts the head frame of
//! a multi-frame `Set` on the node's ring and goes away: every stack
//! must count the truncated request malformed, retire that client and
//! serve the script as if it had never connected.
//!
//! The script's own client normally ends with `Stop`. The
//! `drop_without_stop` regressions end it the other way — the client
//! is dropped, as a panicking caller's would be — and every stack's
//! nodes must notice from their idle path and exit all the same,
//! counting nothing malformed for it.
//!
//! The script goes over the raw [`Conn`] to the one node that serves
//! it (srv: 1 shard; repl: the leader of a 1-shard, 1-backup sync
//! group; cluster: the sole owner under a 1-shard map), so what is
//! compared is the wire-level [`Response`] sequence, not a client's
//! interpretation of it.

use std::collections::{BTreeMap, BTreeSet};

use ssync::cluster::{cluster_mesh, serve_cluster_node, ShardMap};
use ssync::core::stats::mono_ns;
use ssync::core::{mix64, RegistrySnapshot};
use ssync::kv::KvStore;
use ssync::locks::TicketLock;
use ssync::mp::{RingReceiver, RingSender};
use ssync::repl::{repl_mesh, serve_node, FaultSpec, OpLog, ReplCluster, ReplSpec};
use ssync::srv::{ring_mesh, serve, Conn, Request, Response, ShardRouter};

const BUCKETS: usize = 64;
const STRIPES: usize = 8;
const DEPTH: usize = 64;
const KEYS: u64 = 24;

/// One scripted operation. CAS steps take their `expected` version
/// from the replies seen so far, so the script stays a pure table.
#[derive(Debug, Clone)]
enum Step {
    Get(u64),
    TimedGet(u64),
    MultiGet(Vec<u64>),
    Set(u64, Vec<u8>),
    /// CAS from the key's last acknowledged version: succeeds iff the
    /// key is live.
    CasFresh(u64, Vec<u8>),
    /// CAS from a version one behind: always fails.
    CasStale(u64, Vec<u8>),
    Delete(u64),
    Stats,
}

/// A value whose length spans the wire's shapes: inline in the head
/// frame, one continuation frame, many.
fn value(salt: u64) -> Vec<u8> {
    let len = [5, 32, 40, 300, 700][(salt % 5) as usize];
    (0..len).map(|i| (salt as usize + i) as u8).collect()
}

/// A fixed prologue that pins every reply kind, then a seeded tail.
fn script(seed: u64) -> Vec<Step> {
    let mut steps = vec![
        Step::Get(1),                     // Miss
        Step::Delete(1),                  // NotFound
        Step::CasFresh(1, value(0)),      // CasFail on an absent key
        Step::Set(1, value(4)),           // Stored, 700 bytes
        Step::Get(1),                     // Value, multi-frame
        Step::TimedGet(1),                // Value, timed
        Step::Set(2, value(0)),           // Stored, inline
        Step::MultiGet(vec![1, 9, 2, 1]), // hit, miss, hit, hit
        Step::CasFresh(1, value(3)),      // Stored
        Step::CasStale(1, value(2)),      // CasFail
        Step::Delete(2),                  // Deleted
        Step::TimedGet(2),                // Miss, timed
        Step::Stats,
    ];
    let mut state = seed;
    let mut next = || {
        state = mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        state
    };
    for _ in 0..400 {
        let (roll, key, salt) = (next() % 100, next() % KEYS, next());
        steps.push(match roll {
            0..=24 => Step::Get(key),
            25..=34 => Step::TimedGet(key),
            35..=44 => Step::MultiGet((0..1 + salt % 6).map(|i| (key + i * 5) % KEYS).collect()),
            45..=69 => Step::Set(key, value(salt)),
            70..=79 => Step::CasFresh(key, value(salt)),
            80..=87 => Step::CasStale(key, value(salt)),
            88..=97 => Step::Delete(key),
            _ => Step::Stats,
        });
    }
    steps.push(Step::Stats);
    steps
}

/// What one stack did with the script.
#[derive(Debug)]
struct Outcome {
    replies: Vec<Response>,
    dump: Vec<(Vec<u8>, u64, Vec<u8>)>,
    /// The last scrape's `store.*` counters.
    store: BTreeMap<String, u64>,
    /// The last scrape's `srv.malformed`.
    malformed: Option<u64>,
    /// The serving node's own final count, taken after every client
    /// left — however it left.
    node_malformed: u64,
}

/// How the script's client leaves: saying `Stop` to every node, or
/// dropped without a word.
#[derive(Clone, Copy, PartialEq)]
enum Leave {
    Stop,
    Drop,
}

/// The dying client's last act: the head frame of a 500-byte `Set`
/// (nine continuation frames that never come), on a key outside the
/// script's range. The caller drops the client afterwards.
fn die_mid_request(conn: &Conn<RingSender, RingReceiver>) {
    let truncated = Request::Set {
        key: KEYS + 1,
        value: vec![0xEE; 500],
    };
    conn.tx.send(truncated.encode()[0]);
}

/// Plays the script over one connection, collecting every reply and
/// checking every scrape as it comes.
fn play(
    conn: &Conn<RingSender, RingReceiver>,
    steps: &[Step],
) -> (Vec<Response>, RegistrySnapshot) {
    let mut replies = Vec::new();
    let mut versions: BTreeMap<u64, u64> = BTreeMap::new();
    let mut scrape = None;
    let mut timed = 0u64;
    for step in steps {
        let expected = |key: &u64| versions.get(key).copied().unwrap_or(0);
        let (request, answers) = match step.clone() {
            Step::Get(key) => (Request::Get { key }, 1),
            Step::TimedGet(key) => {
                timed += 1;
                let stamp = mono_ns();
                (Request::TimedGet { key, stamp }, 1)
            }
            Step::MultiGet(keys) => {
                let n = keys.len();
                (Request::MultiGet { keys }, n)
            }
            Step::Set(key, value) => (Request::Set { key, value }, 1),
            Step::CasFresh(key, value) => {
                let expected = expected(&key);
                (
                    Request::Cas {
                        key,
                        expected,
                        value,
                    },
                    1,
                )
            }
            Step::CasStale(key, value) => {
                let expected = expected(&key).wrapping_sub(1);
                (
                    Request::Cas {
                        key,
                        expected,
                        value,
                    },
                    1,
                )
            }
            Step::Delete(key) => (Request::Delete { key }, 1),
            Step::Stats => (Request::Stats, 1),
        };
        conn.send(&request).expect("node alive");
        for _ in 0..answers {
            let response = conn.recv().expect("node alive");
            match (step, &response) {
                (Step::Set(key, _) | Step::CasFresh(key, _), Response::Stored { version }) => {
                    versions.insert(*key, *version);
                }
                (Step::Delete(key), Response::Deleted { .. }) => {
                    versions.remove(key);
                }
                _ => {}
            }
            if matches!(step, Step::Stats) {
                // Scrape payloads differ by design (each stack adds its
                // own node counters); they are compared by content below.
                let snap = response.into_stats().expect("a scrape answers Stats");
                for name in ["srv.queue_wait_ns", "srv.apply_ns"] {
                    let recorded = snap.hist(name).map_or(0, |h| h.count());
                    assert_eq!(recorded, timed, "{name} records every TimedGet");
                }
                scrape = Some(snap);
            } else {
                replies.push(response);
            }
        }
    }
    (replies, scrape.expect("the script ends with a scrape"))
}

fn outcome(
    (replies, scrape): (Vec<Response>, RegistrySnapshot),
    node_malformed: u64,
    store: &KvStore<TicketLock>,
) -> Outcome {
    Outcome {
        replies,
        malformed: scrape.counter("srv.malformed"),
        node_malformed,
        dump: store
            .dump()
            .into_iter()
            .map(|(key, version, value)| (key.to_vec(), version, value.to_vec()))
            .collect(),
        store: scrape
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("store."))
            .cloned()
            .collect(),
    }
}

fn through_srv(steps: &[Step], leave: Leave) -> Outcome {
    let router: ShardRouter<TicketLock> = ShardRouter::new(1, BUCKETS, STRIPES);
    let (mut endpoints, mut clients) = ring_mesh(1, 2, DEPTH);
    let client = clients.pop().unwrap();
    let doomed = clients.pop().unwrap();
    die_mid_request(doomed.conn(0));
    drop(doomed);
    let (played, report) = std::thread::scope(|s| {
        let node = s.spawn(|| serve(router.shard(0), endpoints.pop().unwrap()));
        let played = play(client.conn(0), steps);
        match leave {
            Leave::Stop => client.close(),
            Leave::Drop => drop(client),
        }
        (played, node.join().unwrap())
    });
    outcome(played, report.malformed, router.shard(0))
}

fn through_repl(steps: &[Step], leave: Leave) -> Outcome {
    let cluster: ReplCluster<TicketLock> = ReplCluster::new(1, BUCKETS, STRIPES, ReplSpec::sync(1));
    let map = cluster.map().clone();
    let (mut endpoints, mut clients) = repl_mesh(&map, 2);
    let client = clients.pop().unwrap();
    // The dying client takes proper leave of the backup, which would
    // otherwise wait for its `Stop` forever, and dies on the leader.
    let doomed = clients.pop().unwrap();
    doomed
        .conn(0, 1)
        .send(&Request::Stop)
        .expect("ring has room");
    die_mid_request(doomed.conn(0, 0));
    drop(doomed);
    let (played, leader_malformed) = std::thread::scope(|s| {
        let mut nodes = Vec::new();
        for endpoint in endpoints.pop().unwrap() {
            let store = cluster.node_store(0, endpoint.node());
            let (log, map) = (cluster.log(0).clone(), &map);
            let cfg = cluster.node_config(0, endpoint.node(), &FaultSpec::none());
            nodes.push(s.spawn(move || serve_node(store, &log, map, endpoint, cfg)));
        }
        let played = play(client.conn(0, 0), steps);
        match leave {
            Leave::Stop => client.close(),
            Leave::Drop => drop(client),
        }
        let mut reports = nodes.into_iter().map(|node| node.join().unwrap());
        let leader = reports.find(|report| report.node == 0).unwrap();
        (played, leader.malformed)
    });
    assert!(
        cluster.converged(),
        "the backup holds what the leader holds"
    );
    outcome(played, leader_malformed, cluster.node_store(0, 0))
}

fn through_cluster(steps: &[Step], leave: Leave) -> Outcome {
    let map = ShardMap::new(1);
    let store: KvStore<TicketLock> = KvStore::new(BUCKETS, STRIPES);
    let log = OpLog::new(1 << 12);
    let (mut endpoints, mut conns, _mig) = cluster_mesh(1, 2, DEPTH, 16);
    let client = conns.pop().unwrap();
    let doomed = conns.pop().unwrap();
    die_mid_request(doomed.conn(0));
    drop(doomed);
    let (played, report) = std::thread::scope(|s| {
        let endpoint = endpoints.pop().unwrap();
        let node = s.spawn(|| serve_cluster_node(0, &store, &log, &map, endpoint));
        let played = play(client.conn(0), steps);
        match leave {
            Leave::Stop => client.close(),
            Leave::Drop => drop(client),
        }
        (played, node.join().unwrap())
    });
    outcome(played, report.malformed, &store)
}

#[test]
fn one_script_draws_the_same_replies_from_all_three_stacks() {
    let steps = script(0x5EED_C0DE);
    let outcomes = [
        ("srv", through_srv(&steps, Leave::Stop)),
        ("repl", through_repl(&steps, Leave::Stop)),
        ("cluster", through_cluster(&steps, Leave::Stop)),
    ];
    let (_, reference) = &outcomes[0];

    // The script means what it says: every reply kind occurred, long
    // values crossed the wire, and the store did not end up empty.
    let seen: BTreeSet<&str> = reference
        .replies
        .iter()
        .map(|reply| match reply {
            Response::Value { .. } => "Value",
            Response::Miss => "Miss",
            Response::Stored { .. } => "Stored",
            Response::CasFail { .. } => "CasFail",
            Response::Deleted { .. } => "Deleted",
            Response::NotFound => "NotFound",
            other => panic!("a data request drew {other:?}"),
        })
        .collect();
    assert_eq!(seen.len(), 6, "every data reply kind occurs: {seen:?}");
    assert!(reference
        .replies
        .iter()
        .any(|r| matches!(r, Response::Value { value, .. } if value.len() == 700)));
    assert!(!reference.dump.is_empty());
    assert!(reference.store["store.cas_failures"] > 0);
    for (name, outcome) in &outcomes {
        // The truncated `Set` and nothing else; it stored nothing.
        assert_eq!(outcome.malformed, Some(1), "{name}: srv.malformed");
        assert_eq!(outcome.node_malformed, 1, "{name}: the node's final count");
        let orphan = (KEYS + 1).to_be_bytes();
        assert!(outcome.dump.iter().all(|(key, _, _)| key[..] != orphan));
    }

    for (name, outcome) in &outcomes[1..] {
        assert_eq!(outcome.replies.len(), reference.replies.len(), "{name}");
        for (i, (got, want)) in outcome.replies.iter().zip(&reference.replies).enumerate() {
            assert_eq!(got, want, "{name}: reply {i}");
        }
        assert_eq!(outcome.dump, reference.dump, "{name}: final contents");
        // Same names everywhere; the store's own traffic counters
        // agree too (the reclamation ones depend on loop timing).
        let names = |o: &Outcome| o.store.keys().cloned().collect::<Vec<_>>();
        assert_eq!(names(outcome), names(reference), "{name}: store.* names");
        for counter in ["hits", "misses", "sets", "deletes", "cas_failures"] {
            let key = format!("store.{counter}");
            assert_eq!(outcome.store[&key], reference.store[&key], "{name}: {key}");
        }
    }
}

/// Regression: a client that went away without `Stop` — a body that
/// panicked, a connection dropped un-closed — left `NodeCore::live()`
/// above zero forever, and every node of the stack with it (the
/// `cargo test --workspace` hang). Runs `through` with the script's
/// client dropped instead of closed, detached and under a deadline, so
/// a node that never exits fails here instead of hanging the suite.
fn survives_drop_without_stop(stack: &str, through: fn(&[Step], Leave) -> Outcome) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(through(&script(0xD0_0D)[..40], Leave::Drop)));
    let outcome = done_rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("{stack}: a client dropped without Stop hung its node"));
    // The truncated `Set` and nothing else: a silent departure is not
    // a malformed frame.
    assert_eq!(outcome.node_malformed, 1, "{stack}");
    // And how the client leaves changes nothing it was told before.
    let stopped = through(&script(0xD0_0D)[..40], Leave::Stop);
    assert_eq!(outcome.replies, stopped.replies, "{stack}");
}

#[test]
fn srv_shard_survives_drop_without_stop() {
    survives_drop_without_stop("srv", through_srv);
}

#[test]
fn repl_group_survives_drop_without_stop() {
    survives_drop_without_stop("repl", through_repl);
}

#[test]
fn cluster_node_survives_drop_without_stop() {
    survives_drop_without_stop("cluster", through_cluster);
}
