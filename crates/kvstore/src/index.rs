//! A flat, RDMA-friendly hash index.
//!
//! The index the paper's Figure 1 sketch implies: a bucket array laid out
//! contiguously in registered memory so a *remote* client can probe it
//! with one-sided READs — bucket `i` lives at `base + i * BUCKET_BYTES`,
//! and collision handling is linear probing over whole buckets, so a
//! lookup needs `1 + overflow_hops` READs before the final value READ.
//! This is exactly the "network amplification" of one-sided designs
//! (§2.1): each extra probe is another network round trip.

/// Slots per bucket (a bucket is one cache line / one READ).
pub const SLOTS_PER_BUCKET: usize = 4;
/// Bytes a bucket occupies in registered memory (key + addr + len per
/// slot, padded to a 64 B line).
pub const BUCKET_BYTES: u64 = 64;

/// One index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The key.
    pub key: u64,
    /// Address of the value in the value region.
    pub value_addr: u64,
    /// Value length in bytes.
    pub value_len: u32,
}

#[derive(Debug, Clone, Default)]
struct Bucket {
    slots: Vec<Entry>, // live entries; slots.len() + tombstones <= SLOTS_PER_BUCKET
    /// Slots holding a removal marker. A tombstone keeps the bucket's
    /// occupancy up so probe chains that ran through it while it was
    /// full stay reachable; inserts reclaim tombstoned slots first.
    tombstones: u32,
}

impl Bucket {
    /// Physical occupancy: live entries plus tombstones. The probe
    /// chain terminates only at a bucket whose occupancy is below
    /// [`SLOTS_PER_BUCKET`] — i.e. one that has *never* been full —
    /// because occupancy never decreases.
    fn occupancy(&self) -> usize {
        self.slots.len() + self.tombstones as usize
    }

    /// Whether a new entry fits (a free or tombstoned slot exists).
    fn has_room(&self) -> bool {
        self.slots.len() < SLOTS_PER_BUCKET
    }

    /// Places an entry, reclaiming a tombstoned slot when one exists so
    /// occupancy (and thus chain shape) only ever grows.
    fn place(&mut self, e: Entry) {
        debug_assert!(self.has_room());
        self.tombstones = self.tombstones.saturating_sub(1);
        self.slots.push(e);
    }
}

/// Outcome of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// The found entry.
    pub entry: Entry,
    /// Number of bucket probes a remote reader performs (>= 1).
    pub probes: u32,
}

/// Errors from index operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// The table is too full to place the key within the probe bound.
    Full,
    /// The key is not present.
    NotFound,
}

impl core::fmt::Display for IndexError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IndexError::Full => write!(f, "index full (probe bound exceeded)"),
            IndexError::NotFound => write!(f, "key not found"),
        }
    }
}

impl std::error::Error for IndexError {}

/// The hash index.
///
/// # Examples
///
/// ```
/// use snic_kvstore::index::HashIndex;
///
/// let mut idx = HashIndex::new(1024, 0x1000);
/// idx.insert(42, 0xdead_0000, 512).unwrap();
/// let l = idx.lookup(42).unwrap();
/// assert_eq!(l.entry.value_addr, 0xdead_0000);
/// assert!(l.probes >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct HashIndex {
    buckets: Vec<Bucket>,
    base_addr: u64,
    max_probes: u32,
    entries: u64,
}

impl HashIndex {
    /// Creates an index with `n_buckets` buckets whose bucket array is
    /// registered at `base_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets == 0`.
    pub fn new(n_buckets: usize, base_addr: u64) -> Self {
        assert!(n_buckets > 0, "index needs at least one bucket");
        HashIndex {
            buckets: vec![Bucket::default(); n_buckets],
            base_addr,
            max_probes: 64,
            entries: 0,
        }
    }

    fn hash(&self, key: u64) -> usize {
        // MurmurHash3 finalizer: full avalanche, so consecutive keys
        // collide like random ones (a pure multiplicative hash would map
        // consecutive keys with low discrepancy and hide collisions).
        let mut h = key;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        (h % self.buckets.len() as u64) as usize
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Sets the probe bound (inserts beyond it fail with
    /// [`IndexError::Full`]).
    pub fn with_max_probes(mut self, bound: u32) -> Self {
        self.max_probes = bound.max(1);
        self
    }

    /// The registered address of bucket `i`.
    pub fn bucket_addr(&self, i: usize) -> u64 {
        self.base_addr + i as u64 * BUCKET_BYTES
    }

    /// Number of buckets in the table.
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket a key's probe chain starts at. Remote readers compute
    /// this themselves: probe `i` of a lookup READs bucket
    /// `(home_bucket + i) % n_buckets`.
    pub fn home_bucket(&self, key: u64) -> usize {
        self.hash(key)
    }

    /// The registered address a remote reader READs for probe `hop` of
    /// `key`'s chain.
    pub fn probe_addr(&self, key: u64, hop: u32) -> u64 {
        self.bucket_addr((self.home_bucket(key) + hop as usize) % self.buckets.len())
    }

    /// Total registered bytes of the bucket array.
    pub fn region_len(&self) -> u64 {
        self.buckets.len() as u64 * BUCKET_BYTES
    }

    /// Inserts or updates a key.
    ///
    /// The walk must keep scanning past buckets that merely have a
    /// tombstoned slot (the key may live further down the chain); only
    /// a bucket that has never been full proves absence. The first slot
    /// with room seen along the way is remembered so reinsertions
    /// reclaim tombstones instead of lengthening chains.
    pub fn insert(&mut self, key: u64, value_addr: u64, value_len: u32) -> Result<(), IndexError> {
        let start = self.hash(key);
        let n = self.buckets.len();
        let mut first_open: Option<usize> = None;
        for hop in 0..self.max_probes as usize {
            let bi = (start + hop) % n;
            let bucket = &mut self.buckets[bi];
            if let Some(slot) = bucket.slots.iter_mut().find(|e| e.key == key) {
                slot.value_addr = value_addr;
                slot.value_len = value_len;
                return Ok(());
            }
            if first_open.is_none() && bucket.has_room() {
                first_open = Some(bi);
            }
            if bucket.occupancy() < SLOTS_PER_BUCKET {
                // Chain ends here: the key is absent everywhere.
                break;
            }
        }
        let Some(bi) = first_open else {
            return Err(IndexError::Full);
        };
        self.buckets[bi].place(Entry {
            key,
            value_addr,
            value_len,
        });
        self.entries += 1;
        Ok(())
    }

    /// Looks up a key, reporting how many bucket probes a remote reader
    /// would issue.
    pub fn lookup(&self, key: u64) -> Result<Lookup, IndexError> {
        let start = self.hash(key);
        let n = self.buckets.len();
        for hop in 0..self.max_probes as usize {
            let bi = (start + hop) % n;
            let bucket = &self.buckets[bi];
            if let Some(e) = bucket.slots.iter().find(|e| e.key == key) {
                return Ok(Lookup {
                    entry: *e,
                    probes: hop as u32 + 1,
                });
            }
            if bucket.occupancy() < SLOTS_PER_BUCKET {
                // A never-full bucket terminates the probe chain
                // (tombstones count: a once-full bucket stays opaque).
                return Err(IndexError::NotFound);
            }
        }
        Err(IndexError::NotFound)
    }

    /// Removes a key. Returns the removed entry.
    ///
    /// The freed slot becomes a tombstone rather than vanishing: a
    /// plain `Vec::remove` would turn a full bucket non-full, and
    /// `lookup`'s "never-full bucket terminates the chain" rule would
    /// then lose every key that probed past this bucket while it was
    /// full. Tombstones keep occupancy (and thus chain shape) intact;
    /// later inserts reclaim them.
    pub fn remove(&mut self, key: u64) -> Result<Entry, IndexError> {
        let start = self.hash(key);
        let n = self.buckets.len();
        for hop in 0..self.max_probes as usize {
            let bi = (start + hop) % n;
            let bucket = &mut self.buckets[bi];
            if let Some(pos) = bucket.slots.iter().position(|e| e.key == key) {
                let e = bucket.slots.remove(pos);
                bucket.tombstones += 1;
                self.entries -= 1;
                return Ok(e);
            }
            if bucket.occupancy() < SLOTS_PER_BUCKET {
                // Chain ends here: the key is absent everywhere.
                break;
            }
        }
        Err(IndexError::NotFound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut idx = HashIndex::new(256, 0);
        for k in 0..500u64 {
            idx.insert(k, k * 100, 64).unwrap();
        }
        assert_eq!(idx.len(), 500);
        for k in 0..500u64 {
            let l = idx.lookup(k).unwrap();
            assert_eq!(l.entry.value_addr, k * 100);
            assert_eq!(l.entry.value_len, 64);
        }
    }

    #[test]
    fn update_in_place() {
        let mut idx = HashIndex::new(64, 0);
        idx.insert(7, 100, 10).unwrap();
        idx.insert(7, 200, 20).unwrap();
        assert_eq!(idx.len(), 1);
        let l = idx.lookup(7).unwrap();
        assert_eq!((l.entry.value_addr, l.entry.value_len), (200, 20));
    }

    #[test]
    fn missing_key() {
        let mut idx = HashIndex::new(64, 0);
        idx.insert(1, 1, 1).unwrap();
        assert_eq!(idx.lookup(2), Err(IndexError::NotFound));
    }

    #[test]
    fn collisions_raise_probe_count() {
        // Load a small table heavily; some keys must need > 1 probe.
        let mut idx = HashIndex::new(32, 0);
        for k in 0..100u64 {
            idx.insert(k, k, 8).unwrap();
        }
        // All keys still found.
        let longest = (0..100u64)
            .map(|k| idx.lookup(k).unwrap().probes)
            .max()
            .unwrap();
        assert!(longest > 1, "longest chain {longest}");
    }

    #[test]
    fn full_table_rejects() {
        let mut idx = HashIndex::new(1, 0);
        for k in 0..SLOTS_PER_BUCKET as u64 {
            idx.insert(k, k, 8).unwrap();
        }
        assert_eq!(idx.insert(99, 0, 8), Err(IndexError::Full));
    }

    #[test]
    fn remove_then_lookup_fails() {
        let mut idx = HashIndex::new(64, 0);
        idx.insert(5, 50, 8).unwrap();
        let e = idx.remove(5).unwrap();
        assert_eq!(e.value_addr, 50);
        assert_eq!(idx.lookup(5), Err(IndexError::NotFound));
        assert_eq!(idx.remove(5), Err(IndexError::NotFound));
        assert!(idx.is_empty());
    }

    #[test]
    fn bucket_addresses_are_line_aligned() {
        let idx = HashIndex::new(16, 0x10000);
        for i in 0..16 {
            assert_eq!(idx.bucket_addr(i) % 64, 0);
        }
        assert_eq!(idx.region_len(), 16 * 64);
    }

    /// Regression: removing a key from a full bucket must not make keys
    /// that overflowed past that bucket unreachable. The pre-fix
    /// `remove` back-shifted the slot vector, turning the full bucket
    /// non-full, so `lookup` stopped there and lost the overflow key.
    #[test]
    fn remove_preserves_probe_chains_through_full_buckets() {
        let mut idx = HashIndex::new(2, 0);
        // Five keys homed on bucket 0: four fill it, the fifth
        // overflows into bucket 1.
        let homed: Vec<u64> = (0..10_000u64)
            .filter(|&k| idx.home_bucket(k) == 0)
            .take(SLOTS_PER_BUCKET + 1)
            .collect();
        assert_eq!(homed.len(), SLOTS_PER_BUCKET + 1);
        for &k in &homed {
            idx.insert(k, k, 8).unwrap();
        }
        let overflow = *homed.last().unwrap();
        assert!(idx.lookup(overflow).unwrap().probes > 1);
        // Remove one of the keys that sits in the (full) home bucket.
        idx.remove(homed[0]).unwrap();
        // The overflow key must still be reachable...
        let l = idx
            .lookup(overflow)
            .expect("overflow key lost after removal from its full home bucket");
        assert_eq!(l.entry.value_addr, overflow);
        // ...and removable, through the same preserved chain.
        idx.remove(overflow).unwrap();
        assert_eq!(idx.lookup(overflow), Err(IndexError::NotFound));
    }

    /// Tombstoned slots are reclaimed by later inserts instead of
    /// leaking capacity: a table filled, emptied, and refilled accepts
    /// the same number of keys.
    #[test]
    fn tombstones_are_reclaimed_by_inserts() {
        let mut idx = HashIndex::new(2, 0);
        let keys: Vec<u64> = (0..10_000u64)
            .filter(|&k| idx.home_bucket(k) == 0)
            .take(2 * SLOTS_PER_BUCKET)
            .collect();
        for &k in &keys {
            idx.insert(k, k, 8).unwrap();
        }
        for &k in &keys {
            idx.remove(k).unwrap();
        }
        assert!(idx.is_empty());
        for &k in &keys {
            idx.insert(k, k + 1, 8).unwrap();
        }
        for &k in &keys {
            assert_eq!(idx.lookup(k).unwrap().entry.value_addr, k + 1);
        }
    }

    /// Fuzz insert/remove/lookup round-trips against a `HashMap`
    /// oracle: every present key is found with its latest value, every
    /// absent key misses, and `len` tracks the oracle exactly.
    #[test]
    fn index_matches_hashmap_oracle() {
        use simnet::prop::check;
        use simnet::{prop_assert, prop_assert_eq};
        use std::collections::HashMap;

        check("index_matches_hashmap_oracle", |g| {
            let n_buckets = g.usize(1..48);
            let key_space = g.u64(1..64);
            let ops = g.vec(1..256, |g| (g.u64(0..3), g.u64(0..64), g.u64(1..1_000_000)));
            let mut idx = HashIndex::new(n_buckets, 0x4000);
            let mut oracle: HashMap<u64, u64> = HashMap::new();
            for &(op, key_raw, val) in &ops {
                let key = key_raw % key_space;
                match op {
                    0 | 1 => match idx.insert(key, val, 8) {
                        Ok(()) => {
                            oracle.insert(key, val);
                        }
                        Err(IndexError::Full) => {
                            // Rejected inserts must not mutate state.
                            prop_assert!(!oracle.contains_key(&key));
                        }
                        Err(e) => panic!("unexpected insert error {e}"),
                    },
                    _ => {
                        let got = idx.remove(key).ok().map(|e| e.value_addr);
                        prop_assert_eq!(got, oracle.remove(&key));
                    }
                }
                prop_assert_eq!(idx.len(), oracle.len() as u64);
                for (&k, &v) in &oracle {
                    let l = idx.lookup(k);
                    prop_assert!(l.is_ok());
                    prop_assert_eq!(l.unwrap().entry.value_addr, v);
                }
            }
            // Keys absent from the oracle must miss.
            for k in 0..key_space {
                if !oracle.contains_key(&k) {
                    prop_assert_eq!(idx.lookup(k).err(), Some(IndexError::NotFound));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn low_load_is_single_probe() {
        let mut idx = HashIndex::new(4096, 0);
        for k in 0..100u64 {
            idx.insert(k, k, 8).unwrap();
        }
        let total: u32 = (0..100u64).map(|k| idx.lookup(k).unwrap().probes).sum();
        assert!(total < 105, "{total} probes for 100 keys");
    }

    /// Regression: probe READs must walk the key's real chain — home
    /// bucket, then `(home + hop) % n` — not offsets `0, 64, 128, ...`
    /// from the start of the region.
    #[test]
    fn probe_addrs_walk_the_real_chain() {
        let base = 1 << 28;
        let mut idx = HashIndex::new(1024, base);
        for k in 0..3500u64 {
            idx.insert(k, k * 256, 256).unwrap();
        }
        let n = idx.n_buckets() as u64;
        let mut multi_probe_off_zero = 0u32;
        for k in 0..3500u64 {
            let probes = idx.lookup(k).unwrap().probes;
            let home = idx.home_bucket(k) as u64;
            for hop in 0..probes {
                let addr = idx.probe_addr(k, hop);
                let bucket = (home + u64::from(hop)) % n;
                assert_eq!(addr, base + bucket * BUCKET_BYTES, "key {k} hop {hop}");
                assert!(addr + BUCKET_BYTES <= base + idx.region_len());
            }
            if probes >= 2 && home != 0 {
                multi_probe_off_zero += 1;
            }
        }
        assert!(
            multi_probe_off_zero > 0,
            "workload must walk multi-probe chains"
        );
    }
}
