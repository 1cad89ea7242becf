//! The cluster client's retry budget. A key whose owner keeps bouncing
//! it is refused with `WireError::Deadline` once the budget is spent,
//! instead of being chased forever. Kept out of the lib tests so the
//! migration soak's `--lib` loop does not pay the budget's five
//! seconds on every pass.

use std::time::{Duration, Instant};

use ssync_cluster::{cluster_mesh, serve_cluster_node, ClusterClient, ShardMap};
use ssync_kv::KvStore;
use ssync_locks::TicketLock;
use ssync_repl::OpLog;
use ssync_srv::{KvClient, WireError, OP_BUDGET};

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
    std::thread::scope(|s| {
        let endpoint = endpoints.pop().unwrap();
        let node = s.spawn(|| serve_cluster_node(1, &store, &log, &map, endpoint));
        let client = ClusterClient::new(&map, conns.pop().unwrap());
        let start = Instant::now();
        assert_eq!(client.set(7, b"never".to_vec()), Err(WireError::Deadline));
        let took = start.elapsed();
        let slack = Duration::from_secs(5);
        assert!(took >= OP_BUDGET && took < OP_BUDGET + slack, "{took:?}");
        let redirects = client.redirects();
        assert!(redirects > 0);
        client.close();
        let report = node.join().unwrap();
        assert_eq!(report.wrong_shard_redirects, redirects);
    });
    assert!(store.is_empty());
}
