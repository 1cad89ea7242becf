//! The correctness oracle: a dense model of the keyspace that checks
//! every read, every CAS outcome and every store's final contents.
//!
//! Values are self-describing — bytes 0..8 are the key, bytes 8..16
//! the key's write sequence number, the rest a filler byte derived
//! from both — so a value served for the wrong key, or a stale one, is
//! caught from its bytes alone, in O(1), without the model keeping
//! value copies.

use ssync_srv::WireError;

use crate::gen::{mix64, OpGen, VALUE_HEADER};

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Version of the key's last acknowledged write (a tombstone's
    /// version once deleted).
    version: u64,
    /// The key's write sequence number (0 = never written).
    seq: u32,
    len: u16,
    present: bool,
}

fn filler(key: u64, seq: u32) -> u8 {
    mix64(key ^ u64::from(seq) << 40) as u8
}

fn encode_value(key: u64, seq: u32, len: u16) -> Vec<u8> {
    let len = usize::from(len);
    debug_assert!(len >= VALUE_HEADER);
    let mut value = vec![filler(key, seq); len];
    value[..8].copy_from_slice(&key.to_le_bytes());
    value[8..16].copy_from_slice(&u64::from(seq).to_le_bytes());
    value
}

fn value_matches(value: &[u8], key: u64, seq: u32, len: u16) -> bool {
    value.len() == usize::from(len)
        && value[..8] == key.to_le_bytes()
        && value[8..16] == u64::from(seq).to_le_bytes()
        && value[VALUE_HEADER..].iter().all(|&b| b == filler(key, seq))
}

const MAX_NOTES: usize = 8;

/// Operations attempted and failed, with the first few disagreements
/// spelled out for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Adds the tally of an oracle the run is done with.
    pub fn absorb(&mut self, oracle: Oracle) {
        let other = oracle.tally;
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// The model plus its tally. Every `check_*` counts one attempted
/// operation and, on any disagreement (or a transport error), one
/// failure.
#[derive(Debug)]
pub struct Oracle {
    entries: Vec<Entry>,
    pub tally: Tally,
}

impl Oracle {
    pub fn new(keys: u64) -> Oracle {
        Oracle {
            entries: vec![Entry::default(); keys as usize],
            tally: Tally::default(),
        }
    }

    fn fail(&mut self, note: impl FnOnce() -> String) {
        self.tally.failed += 1;
        if self.tally.notes.len() < MAX_NOTES {
            self.tally.notes.push(note());
        }
    }

    /// Fills the keyspace through `store_set` (which returns the
    /// version the store assigned), value lengths drawn from `sizes`.
    pub fn preload(&mut self, sizes: &mut OpGen, mut store_set: impl FnMut(u64, &[u8]) -> u64) {
        for key in 0..self.entries.len() as u64 {
            let len = sizes.value_len();
            let version = store_set(key, &encode_value(key, 1, len));
            self.entries[key as usize] = Entry {
                version,
                seq: 1,
                len,
                present: true,
            };
        }
    }

    /// The reply a faithful store gives a read of `key` right now.
    pub fn expected_get(&self, key: u64) -> Option<(u64, Vec<u8>)> {
        let entry = self.entries[key as usize];
        entry
            .present
            .then(|| (entry.version, encode_value(key, entry.seq, entry.len)))
    }

    /// The value the key's next write must carry.
    pub fn next_value(&self, key: u64, len: u16) -> Vec<u8> {
        encode_value(key, self.entries[key as usize].seq + 1, len)
    }

    /// The version a CAS on `key` expects: the last acknowledged
    /// write's. On a deleted key that is the tombstone's, so the CAS
    /// must lose with `Err(0)`.
    pub fn cas_expected(&self, key: u64) -> u64 {
        self.entries[key as usize].version
    }

    fn acknowledge(&mut self, key: u64, len: u16, version: u64, what: &str) {
        let entry = self.entries[key as usize];
        if version <= entry.version {
            self.fail(|| {
                format!(
                    "{what} key {key}: version {version} not above {}",
                    entry.version
                )
            });
        }
        self.entries[key as usize] = Entry {
            version,
            seq: entry.seq + 1,
            len,
            present: true,
        };
    }

    pub fn check_get<V: AsRef<[u8]>>(
        &mut self,
        key: u64,
        result: Result<Option<(u64, V)>, WireError>,
    ) {
        self.tally.attempted += 1;
        let want = self.entries[key as usize];
        match result {
            Ok(Some((version, value))) => {
                if !(want.present
                    && version == want.version
                    && value_matches(value.as_ref(), key, want.seq, want.len))
                {
                    self.fail(|| {
                        format!(
                            "get key {key}: got version {version} len {}, model {want:?}",
                            value.as_ref().len()
                        )
                    });
                }
            }
            Ok(None) => {
                if want.present {
                    self.fail(|| format!("get key {key}: miss, model {want:?}"));
                }
            }
            Err(e) => self.fail(|| format!("get key {key}: {e}")),
        }
    }

    pub fn check_set(&mut self, key: u64, len: u16, result: Result<u64, WireError>) {
        self.tally.attempted += 1;
        match result {
            Ok(version) => self.acknowledge(key, len, version, "set"),
            Err(e) => self.fail(|| format!("set key {key}: {e}")),
        }
    }

    pub fn check_cas(&mut self, key: u64, len: u16, result: Result<Result<u64, u64>, WireError>) {
        self.tally.attempted += 1;
        let want = self.entries[key as usize];
        match result {
            Ok(Ok(version)) if want.present => self.acknowledge(key, len, version, "cas"),
            Ok(Err(0)) if !want.present => {}
            Ok(outcome) => {
                self.fail(|| format!("cas key {key}: outcome {outcome:?}, model {want:?}"))
            }
            Err(e) => self.fail(|| format!("cas key {key}: {e}")),
        }
    }

    pub fn check_delete(&mut self, key: u64, result: Result<Option<u64>, WireError>) {
        self.tally.attempted += 1;
        let want = self.entries[key as usize];
        match result {
            Ok(Some(version)) if want.present && version > want.version => {
                let entry = &mut self.entries[key as usize];
                entry.present = false;
                entry.version = version;
            }
            Ok(None) if !want.present => {}
            Ok(outcome) => {
                self.fail(|| format!("delete key {key}: outcome {outcome:?}, model {want:?}"))
            }
            Err(e) => self.fail(|| format!("delete key {key}: {e}")),
        }
    }

    /// Number of keys the model holds a live value for.
    pub fn live_keys(&self) -> u64 {
        self.entries.iter().filter(|e| e.present).count() as u64
    }

    /// End-of-run audit of one store's `dump()` (8-byte big-endian
    /// keys): every dumped item must be the model's, byte- and
    /// version-exact, and `owns` must accept its key. Returns the
    /// number of items the model agrees with; the caller compares the
    /// sum over stores with [`Oracle::live_keys`] so that a lost key
    /// fails the run too.
    pub fn audit_dump<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &mut self,
        store: &str,
        dump: &[(K, u64, V)],
        owns: impl Fn(u64) -> bool,
    ) -> u64 {
        let mut agreed = 0;
        for (key, version, value) in dump {
            self.tally.attempted += 1;
            let Ok(key_bytes) = <[u8; 8]>::try_from(key.as_ref()) else {
                self.fail(|| format!("audit {store}: key of {} bytes", key.as_ref().len()));
                continue;
            };
            let key = u64::from_be_bytes(key_bytes);
            let want = self.entries.get(key as usize).copied().unwrap_or_default();
            if want.present
                && *version == want.version
                && value_matches(value.as_ref(), key, want.seq, want.len)
                && owns(key)
            {
                agreed += 1;
            } else {
                self.fail(|| {
                    format!(
                        "audit {store}: key {key} version {version} (owned: {}), model {want:?}",
                        owns(key)
                    )
                });
            }
        }
        agreed
    }

    /// Counts one audit-level assertion (convergence, event counts).
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{DEFAULT_SEED, WORKLOADS};

    fn loaded() -> Oracle {
        let mut oracle = Oracle::new(8);
        let mut sizes = OpGen::new(&WORKLOADS[0], DEFAULT_SEED, 1);
        let mut next = 0;
        oracle.preload(&mut sizes, |_, _| {
            next += 1;
            next
        });
        oracle
    }

    #[test]
    fn agrees_with_a_faithful_store_and_catches_a_lying_one() {
        let mut oracle = loaded();
        let value = oracle.next_value(3, 40);
        oracle.check_set(3, 40, Ok(100));
        oracle.check_get(3, Ok(Some((100, value.clone()))));
        oracle.check_cas(3, 24, Ok(Ok(101)));
        oracle.check_delete(3, Ok(Some(102)));
        oracle.check_get::<Vec<u8>>(3, Ok(None));
        oracle.check_cas(3, 24, Ok(Err(0)));
        oracle.check_delete(3, Ok(None));
        assert_eq!(
            (oracle.tally.attempted, oracle.tally.failed),
            (7, 0),
            "{:?}",
            oracle.tally.notes
        );

        // Stale value, wrong version, phantom hit, lost CAS, transport
        // error, version going backwards: each is one failure.
        oracle.check_get(3, Ok(Some((100, value.clone()))));
        oracle.check_get(4, Ok(Some((999, value))));
        oracle.check_get::<Vec<u8>>(4, Ok(None));
        oracle.check_cas(5, 24, Ok(Err(7)));
        oracle.check_set(5, 24, Err(WireError::Deadline));
        oracle.check_set(6, 24, Ok(1));
        assert_eq!(oracle.tally.failed, 6);
        assert_eq!(oracle.tally.notes.len(), 6);
    }

    #[test]
    fn audit_checks_bytes_versions_ownership_and_counts() {
        let mut oracle = loaded();
        let v = oracle.next_value(2, 32);
        oracle.check_set(2, 32, Ok(50));
        oracle.check_delete(7, Ok(Some(51)));
        let dump = vec![(2u64.to_be_bytes().to_vec(), 50u64, v.clone())];
        assert_eq!(oracle.audit_dump("a", &dump, |_| true), 1);
        assert_eq!(oracle.tally.failed, 0);
        assert_eq!(oracle.live_keys(), 7);
        // Misplaced, version-skewed and resurrected items all fail.
        assert_eq!(oracle.audit_dump("b", &dump, |_| false), 0);
        let skew = vec![(2u64.to_be_bytes().to_vec(), 49u64, v.clone())];
        assert_eq!(oracle.audit_dump("c", &skew, |_| true), 0);
        let ghost = vec![(7u64.to_be_bytes().to_vec(), 8u64, v)];
        assert_eq!(oracle.audit_dump("d", &ghost, |_| true), 0);
        assert_eq!(oracle.tally.failed, 3);
    }
}
