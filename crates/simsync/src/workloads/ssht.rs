//! The `ssht` concurrent hash table workload (Figure 11).
//!
//! The table is `buckets` buckets, each protected by one lock and laid
//! out cache-efficiently: entry metadata (key + pointer) packs four
//! entries per line, payloads are one 64-byte line each. An operation
//! hashes a random key (local compute), locks the bucket, walks the
//! metadata lines to a random position, touches the payload (get reads
//! it; put/remove write metadata, put also writes the payload), and
//! unlocks. The mix is the paper's 80% get / 10% put / 10% remove.
//!
//! The message-passing variant partitions buckets across server threads:
//! clients send the bucket id and wait for the reply (all operations
//! block, as in the paper); servers do the same traversal on their own
//! locally-cached lines — no locks at all.

use std::rc::Rc;

use rand::Rng;

use ssync_sim::memory::LineId;
use ssync_sim::{Cpu, Sim};

use crate::locks::SimLock;
use crate::mp::SsmpChannel;

/// Entries whose metadata shares one cache line.
const ENTRIES_PER_META_LINE: usize = 4;

/// Cycles to hash a key and set up the operation.
const HASH_COST: u64 = 40;

/// Shape of the table and the operation mix.
#[derive(Debug, Clone, Copy)]
pub struct SshtConfig {
    /// Number of buckets (12 = high contention, 512 = low; Figure 11).
    pub buckets: usize,
    /// Entries per bucket (12 = short critical sections, 48 = long).
    pub entries: usize,
    /// Percent of get operations (put and remove split the rest evenly).
    pub get_pct: u32,
}

impl SshtConfig {
    /// The paper's four Figure 11 configurations.
    pub const FIGURE11: [SshtConfig; 4] = [
        SshtConfig {
            buckets: 12,
            entries: 12,
            get_pct: 80,
        },
        SshtConfig {
            buckets: 12,
            entries: 48,
            get_pct: 80,
        },
        SshtConfig {
            buckets: 512,
            entries: 12,
            get_pct: 80,
        },
        SshtConfig {
            buckets: 512,
            entries: 48,
            get_pct: 80,
        },
    ];

    fn meta_lines(&self) -> usize {
        self.entries.div_ceil(ENTRIES_PER_META_LINE)
    }
}

/// The shared simulated table: per-bucket lock + lines.
pub struct SshtTable {
    config: SshtConfig,
    locks: Vec<Rc<SimLock>>,
    /// `meta[b]` are bucket b's metadata lines.
    meta: Vec<Vec<LineId>>,
    /// `payload[b]` are bucket b's payload lines (one per entry).
    payload: Vec<Vec<LineId>>,
}

impl SshtTable {
    /// Builds the table, spreading bucket storage across the memory
    /// nodes of the participating cores (`ssht` places data to allow
    /// prefetching and avoid false sharing).
    pub fn new(
        sim: &mut Sim,
        config: SshtConfig,
        locks: Vec<Rc<SimLock>>,
        cores: &[usize],
    ) -> Self {
        assert_eq!(locks.len(), config.buckets);
        let mut meta = Vec::with_capacity(config.buckets);
        let mut payload = Vec::with_capacity(config.buckets);
        for b in 0..config.buckets {
            let home_core = cores[b % cores.len()];
            meta.push(
                (0..config.meta_lines())
                    .map(|_| sim.alloc_line_for_core(home_core))
                    .collect(),
            );
            payload.push(
                (0..config.entries)
                    .map(|_| sim.alloc_line_for_core(home_core))
                    .collect(),
            );
        }
        Self {
            config,
            locks,
            meta,
            payload,
        }
    }

    /// The table shape.
    pub fn config(&self) -> SshtConfig {
        self.config
    }
}

/// The three hash-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HtOp {
    Get,
    Put,
    Remove,
}

fn pick_op(cfg: &SshtConfig, cpu: &Cpu) -> HtOp {
    let r = cpu.rng().gen_range(0..100u32);
    if r < cfg.get_pct {
        HtOp::Get
    } else if r < cfg.get_pct + (100 - cfg.get_pct) / 2 {
        HtOp::Put
    } else {
        HtOp::Remove
    }
}

/// One operation's accesses to a bucket, drawn before it runs.
struct Access {
    bucket: usize,
    /// Metadata lines walked: the expected position of the key.
    depth: usize,
    payload: LineId,
    op: HtOp,
    /// Values a put writes to the payload and the metadata (a remove
    /// writes only the second).
    values: (u64, u64),
}

impl SshtTable {
    /// Draws the rest of an `op` walking `depth` metadata lines of
    /// `bucket`: the entry, then the values it writes.
    fn access(&self, cpu: &Cpu, bucket: usize, op: HtOp, depth: usize) -> Access {
        let mut rng = cpu.rng();
        let payload = self.payload[bucket][rng.gen_range(0..self.config.entries)];
        let values = match op {
            HtOp::Get => (0, 0),
            HtOp::Put => (rng.gen(), rng.gen()),
            HtOp::Remove => (0, rng.gen()),
        };
        Access {
            bucket,
            depth,
            payload,
            op,
            values,
        }
    }

    /// Walks the metadata lines in order; a get then reads the payload,
    /// a put or remove writes the last metadata line (and a put the
    /// payload after it).
    async fn perform(&self, cpu: &Cpu, a: &Access) {
        let meta = &self.meta[a.bucket][..a.depth];
        for &line in meta {
            cpu.load(line).await;
        }
        if a.op == HtOp::Get {
            cpu.load(a.payload).await;
            return;
        }
        cpu.store(meta[a.depth - 1], a.values.1).await;
        if a.op == HtOp::Put {
            cpu.store(a.payload, a.values.0).await;
        }
    }
}

/// Lock-based worker over the shared table.
pub async fn ssht_worker(cpu: Cpu, table: Rc<SshtTable>) {
    let cfg = table.config;
    loop {
        let bucket = cpu.rng().gen_range(0..cfg.buckets);
        let op = pick_op(&cfg, &cpu);
        let depth = cpu.rng().gen_range(1..=cfg.meta_lines());
        let access = table.access(&cpu, bucket, op, depth);
        // Hash the key.
        cpu.pause(HASH_COST).await;
        let lock = &table.locks[bucket];
        lock.acquire(&cpu).await;
        table.perform(&cpu, &access).await;
        lock.release(&cpu).await;
        cpu.complete_op();
    }
}

/// Message-passing client: sends a bucket id to its server over
/// `request`, and waits for the answer on `reply`.
pub async fn ssht_mp_client(cpu: Cpu, request: SsmpChannel, reply: SsmpChannel, buckets: usize) {
    loop {
        cpu.pause(HASH_COST).await;
        let bucket = cpu.rng().gen_range(0..buckets) as u64;
        // Each request takes three bucket draws and sends the first: the
        // committed Figure 11 artifact is generated from this stream.
        for _ in 0..2 {
            cpu.rng().gen_range(0..buckets);
        }
        request.send(&cpu, bucket + 1).await;
        reply.recv(&cpu).await;
        cpu.complete_op();
    }
}

/// Message-passing server: owns a bucket partition; polls its clients'
/// `(request, reply)` channel pairs round-robin and serves each
/// traversal from its own cache.
pub async fn ssht_mp_server(
    cpu: Cpu,
    table: Rc<SshtTable>,
    channels: Vec<(SsmpChannel, SsmpChannel)>,
) {
    let cfg = table.config;
    for (request, reply) in channels.iter().cycle() {
        let Some(got) = request.try_recv(&cpu).await else {
            cpu.pause(2).await;
            continue;
        };
        let bucket = (got as usize - 1) % cfg.buckets;
        let depth = cpu.rng().gen_range(1..=cfg.meta_lines());
        let op = pick_op(&cfg, &cpu);
        let access = table.access(&cpu, bucket, op, depth);
        table.perform(&cpu, &access).await;
        reply.send(&cpu, 1).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::{make_lock, LockConfig, SimLockKind};
    use ssync_core::Platform;

    /// Lock-based throughput helper (shared with ccbench via re-export).
    pub fn lock_based_mops(
        platform: Platform,
        kind: SimLockKind,
        threads: usize,
        config: SshtConfig,
    ) -> f64 {
        let mut sim = Sim::new(platform, 21);
        let cfg = LockConfig::for_placement(&sim, threads);
        let locks: Vec<_> = (0..config.buckets)
            .map(|_| make_lock(kind, &mut sim, &cfg))
            .collect();
        let table = Rc::new(SshtTable::new(&mut sim, config, locks, &cfg.thread_cores));
        for tid in 0..threads {
            let table = Rc::clone(&table);
            sim.spawn_on_core(cfg.thread_cores[tid], |cpu| ssht_worker(cpu, table));
        }
        let window = 500_000;
        sim.run_until(window);
        sim.topology().mops(sim.total_ops(), window)
    }

    #[test]
    fn low_contention_scales() {
        let cfg = SshtConfig {
            buckets: 512,
            entries: 12,
            get_pct: 80,
        };
        let t1 = lock_based_mops(Platform::Niagara, SimLockKind::Ticket, 1, cfg);
        let t32 = lock_based_mops(Platform::Niagara, SimLockKind::Ticket, 32, cfg);
        assert!(t32 > 5.0 * t1, "t1={t1:.2} t32={t32:.2}");
    }

    #[test]
    fn high_contention_limits_multisocket_scaling() {
        let cfg = SshtConfig {
            buckets: 12,
            entries: 12,
            get_pct: 80,
        };
        let t1 = lock_based_mops(Platform::Xeon, SimLockKind::Tas, 1, cfg);
        let t36 = lock_based_mops(Platform::Xeon, SimLockKind::Tas, 36, cfg);
        // Scalability well below the 36x ideal (paper: < 1x..2x range).
        assert!(t36 < 8.0 * t1, "t1={t1:.2} t36={t36:.2}");
    }

    #[test]
    fn mp_version_processes_operations() {
        let mut sim = Sim::new(Platform::Opteron, 33);
        let config = SshtConfig {
            buckets: 12,
            entries: 12,
            get_pct: 80,
        };
        // 1 server (core 0) + 3 clients. The table belongs to the server.
        let cfg = LockConfig::for_placement(&sim, 4);
        let locks: Vec<_> = (0..config.buckets)
            .map(|_| make_lock(SimLockKind::Ticket, &mut sim, &cfg))
            .collect();
        let table = Rc::new(SshtTable::new(&mut sim, config, locks, &[0]));
        let mut pairs = Vec::new();
        let mut client_chans = Vec::new();
        for i in 1..4 {
            let req = SsmpChannel::new(&mut sim, 0);
            let rep = SsmpChannel::new(&mut sim, i);
            pairs.push((req.clone(), rep.clone()));
            client_chans.push((req, rep));
        }
        sim.spawn_on_core(0, |cpu| ssht_mp_server(cpu, table, pairs));
        for (i, (req, rep)) in client_chans.into_iter().enumerate() {
            sim.spawn_on_core(i + 1, move |cpu| {
                ssht_mp_client(cpu, req, rep, config.buckets)
            });
        }
        sim.run_until(600_000);
        assert!(sim.total_ops() > 20, "ops={}", sim.total_ops());
    }
}
