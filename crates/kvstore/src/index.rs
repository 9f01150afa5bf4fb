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
/// The most buckets an insert or a lookup walks; an insert that finds
/// none with room within it fails with [`IndexError::Full`].
const MAX_PROBES: usize = 64;

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

/// An unused slot's contents; never read.
const VACANT: Entry = Entry {
    key: 0,
    value_addr: 0,
    value_len: 0,
};

#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// The first `live` slots hold the entries, in insertion order.
    slots: [Entry; SLOTS_PER_BUCKET],
    live: u8,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        slots: [VACANT; SLOTS_PER_BUCKET],
        live: 0,
    };

    /// The stored entries.
    fn entries(&self) -> &[Entry] {
        &self.slots[..usize::from(self.live)]
    }

    /// Position of `key` among the entries.
    fn find(&self, key: u64) -> Option<usize> {
        self.entries().iter().position(|e| e.key == key)
    }

    /// Whether every slot is taken. A probe chain ends at the first
    /// bucket that is not full.
    fn is_full(&self) -> bool {
        usize::from(self.live) == SLOTS_PER_BUCKET
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
            buckets: vec![Bucket::EMPTY; n_buckets],
            base_addr,
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

    /// Inserts or updates a key: the entry goes into the first bucket
    /// on the key's chain that is not full, unless a full bucket before
    /// it already holds the key.
    pub fn insert(&mut self, key: u64, value_addr: u64, value_len: u32) -> Result<(), IndexError> {
        let start = self.hash(key);
        let n = self.buckets.len();
        for hop in 0..MAX_PROBES {
            let bucket = &mut self.buckets[(start + hop) % n];
            if let Some(pos) = bucket.find(key) {
                let slot = &mut bucket.slots[pos];
                slot.value_addr = value_addr;
                slot.value_len = value_len;
                return Ok(());
            }
            if !bucket.is_full() {
                bucket.slots[usize::from(bucket.live)] = Entry {
                    key,
                    value_addr,
                    value_len,
                };
                bucket.live += 1;
                self.entries += 1;
                return Ok(());
            }
        }
        Err(IndexError::Full)
    }

    /// Looks up a key, reporting how many bucket probes a remote reader
    /// would issue.
    pub fn lookup(&self, key: u64) -> Result<Lookup, IndexError> {
        let start = self.hash(key);
        let n = self.buckets.len();
        for hop in 0..MAX_PROBES {
            let bucket = &self.buckets[(start + hop) % n];
            if let Some(pos) = bucket.find(key) {
                return Ok(Lookup {
                    entry: bucket.slots[pos],
                    probes: hop as u32 + 1,
                });
            }
            if !bucket.is_full() {
                // Inserts fill a chain in order, so the key would sit
                // here or earlier.
                return Err(IndexError::NotFound);
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
    fn bucket_addresses_are_line_aligned() {
        let idx = HashIndex::new(16, 0x10000);
        for i in 0..16 {
            assert_eq!(idx.bucket_addr(i) % 64, 0);
        }
        assert_eq!(idx.region_len(), 16 * 64);
    }

    /// Fuzz inserts, updates and lookups against a `HashMap` oracle:
    /// every present key is found with its latest value, every absent
    /// key misses, and `len` tracks the oracle exactly.
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
                        let got = idx.lookup(key).ok().map(|l| l.entry.value_addr);
                        prop_assert_eq!(got, oracle.get(&key).copied());
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

    /// Exact probe counts against a naive linear-probing model: one
    /// `Vec` of entries per bucket, filled in chain order. Every key's
    /// `probes` sets a one-sided reader's READ chain and the KV
    /// service's `kv_probe_trips`, so every hit must report the model's
    /// count, every miss must miss, and every insert must succeed or
    /// fail as the model's does, including on tables whose chains run
    /// into the probe bound.
    #[test]
    fn probes_match_linear_probing_model() {
        use simnet::prop::check;
        use simnet::prop_assert_eq;

        /// The model's lookup: `Ok((value_addr, probes))` or a miss.
        fn model_lookup(model: &[Vec<Entry>], home: usize, key: u64) -> Result<(u64, u32), ()> {
            for hop in 0..MAX_PROBES {
                let bucket = &model[(home + hop) % model.len()];
                if let Some(e) = bucket.iter().find(|e| e.key == key) {
                    return Ok((e.value_addr, hop as u32 + 1));
                }
                if bucket.len() < SLOTS_PER_BUCKET {
                    return Err(());
                }
            }
            Err(())
        }

        let full_at_the_bound = std::cell::Cell::new(0u32);
        check("probes_match_linear_probing_model", |g| {
            // Up to 100 buckets, so a full table's chains can run past
            // `MAX_PROBES` buckets.
            let n_buckets = g.usize(1..101);
            let mut idx = HashIndex::new(n_buckets, 0);
            let mut model: Vec<Vec<Entry>> = vec![Vec::new(); n_buckets];
            // Half the cases offer more keys than the table holds.
            let n_keys = if g.bool() {
                5 * n_buckets
            } else {
                g.usize(1..5 * n_buckets)
            };
            let keys: Vec<u64> = (0..n_keys).map(|_| g.u64(0..1 << 20)).collect();
            for (i, &key) in keys.iter().enumerate() {
                let home = idx.home_bucket(key);
                let value_addr = i as u64 * 64;
                let mut want = Err(IndexError::Full);
                for hop in 0..MAX_PROBES {
                    let bucket = &mut model[(home + hop) % n_buckets];
                    if let Some(e) = bucket.iter_mut().find(|e| e.key == key) {
                        e.value_addr = value_addr;
                        want = Ok(());
                        break;
                    }
                    if bucket.len() < SLOTS_PER_BUCKET {
                        bucket.push(Entry {
                            key,
                            value_addr,
                            value_len: 8,
                        });
                        want = Ok(());
                        break;
                    }
                }
                if want.is_err() && n_buckets > MAX_PROBES {
                    full_at_the_bound.set(full_at_the_bound.get() + 1);
                }
                prop_assert_eq!(idx.insert(key, value_addr, 8), want, "insert {key}");
            }
            let stored: usize = model.iter().map(Vec::len).sum();
            prop_assert_eq!(idx.len(), stored as u64);
            // Every inserted or rejected key, then a sweep of mostly
            // absent ones.
            let probed = keys.iter().copied().chain((0..1 << 20).step_by(997));
            for key in probed {
                let got = idx
                    .lookup(key)
                    .map(|l| (l.entry.value_addr, l.probes))
                    .map_err(|_| ());
                let want = model_lookup(&model, idx.home_bucket(key), key);
                prop_assert_eq!(got, want, "lookup {key}");
            }
            Ok(())
        });
        assert!(
            full_at_the_bound.get() > 0,
            "no insert ran into the probe bound"
        );
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
