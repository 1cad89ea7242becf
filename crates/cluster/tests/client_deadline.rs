//! The cluster client's retry budget. A key whose owner keeps bouncing
//! it is refused with `WireError::Deadline` once the budget is spent,
//! instead of being chased forever. The node and the client are
//! stepped on one thread, so the five-second budget passes on the
//! stepped clock in a fraction of a second of real time.

use core::pin::pin;
use std::time::Duration;

use ssync_cluster::{cluster_mesh, ClusterClient, ClusterNode, ShardMap};
use ssync_core::clock;
use ssync_kv::KvStore;
use ssync_locks::TicketLock;
use ssync_repl::OpLog;
use ssync_srv::step::QUANTUM;
use ssync_srv::{play, Hooks, KvClient, Request, Response, WireError, OP_BUDGET};

/// The one node serves endpoint 0 but believes it is node 1, so its
/// slot fence bounces every key the map gives node 0, and the map
/// never moves. The client chases the redirects until its budget is
/// spent; nothing executes.
#[test]
fn a_write_bounced_forever_fails_at_the_deadline() {
    let map = ShardMap::new(1);
    let store: KvStore<TicketLock> = KvStore::new(64, 8);
    let log = OpLog::new(1);
    let (mut endpoints, mut conns, _mig) = cluster_mesh(1, 1, 16, 16);
    let (core, node) = ClusterNode::new(1, &store, &log, &map, endpoints.pop().unwrap());
    let mut node = (core, &store, node);
    let client = ClusterClient::new(&map, conns.pop().unwrap());
    let (mut answer, mut took) = (None, 0);
    let finished = {
        let mut write = pin!(async {
            let start = clock::now_ns();
            let request = Request::Set {
                key: 7,
                value: b"never".to_vec(),
            };
            answer = Some(
                client
                    .exchange(7, &request)
                    .await
                    .and_then(Response::into_stored),
            );
            took = clock::now_ns() - start;
            client.send_stop().await;
        });
        // Twice the rounds the budget spans on the stepped clock.
        let rounds = 2 * OP_BUDGET.as_nanos() / QUANTUM.as_nanos();
        play(&mut [&mut write, &mut node], &[], rounds as usize)
    };
    assert!(finished, "the node exits once the client stopped it");
    assert_eq!(answer, Some(Err(WireError::Deadline)));
    let took = Duration::from_nanos(took);
    let slack = Duration::from_secs(5);
    assert!(took >= OP_BUDGET && took < OP_BUDGET + slack, "{took:?}");
    let redirects = client.redirects();
    assert!(redirects > 0);
    let counters = node.2.counters();
    let bounced = counters
        .iter()
        .find(|(name, _)| *name == "node.wrong_shard_redirects");
    assert_eq!(bounced, Some(&("node.wrong_shard_redirects", redirects)));
    assert!(store.is_empty());
}
