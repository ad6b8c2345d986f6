//! Cache sizing for the disk index, and the bounded cache of its zone maps.
//!
//! Two read-side structures are kept between queries. Decoded posting lists
//! live in [`crate::DiskIndex`]'s write-once resident slots, admitted under
//! [`CacheConfig::posting_budget`] and never evicted. The zone maps of long
//! v3 lists (reread on every per-text probe of the same list) live in a
//! [`ShardedCache`], which is:
//!
//! * **sharded** — the key hash picks one of N independently-locked shards,
//!   so concurrent queries rarely contend on the same mutex;
//! * **byte-budgeted** — each shard holds at most `budget / shards` bytes of
//!   cached values and evicts with the second-chance (clock) policy, which
//!   approximates LRU with O(1) hits and no per-access list splicing.
//!
//! A zero budget stores nothing and always misses, which is how callers
//! disable caching without changing code paths.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

use ndss_hash::HashValue;

/// Cache sizing for [`crate::DiskIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget for resident decoded posting lists. A list stays
    /// resident from its first fetch while it fits; zero keeps none. The
    /// write-once slots the lists live in are not counted: a nonzero
    /// budget allocates one 24 B slot per directory key at open, a zero
    /// budget none.
    pub posting_budget: usize,
    /// Total byte budget for cached zone maps. Zero disables the zone cache
    /// (every per-text probe then rereads its zone section).
    pub zone_budget: usize,
    /// Number of independently-locked shards of the zone cache. Rounded up
    /// to a power of two; at least 1.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            posting_budget: 64 << 20,
            zone_budget: 8 << 20,
            shards: 16,
        }
    }
}

impl CacheConfig {
    /// No caching at all: every read goes to disk.
    pub fn disabled() -> Self {
        Self {
            posting_budget: 0,
            zone_budget: 0,
            shards: 1,
        }
    }
}

/// Cache key: `(hash function, min-hash value)`.
type Key = (usize, HashValue);

/// Fibonacci-style mix of a key's two words XORed together; the low bits of
/// raw min-hash values are not uniformly distributed across small key sets.
/// Its bits 32.. pick the shard, [`KeyHasher`] hands the shard's map the
/// rest.
fn mix(words: u64) -> u64 {
    words.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The shard maps' hasher. A key is already a hash value: one multiply
/// replaces SipHash on every `get`. Keys come from the index's own
/// directory, not from outside the program, so flooding is not a concern.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 ^= word;
    }

    fn write_usize(&mut self, word: usize) {
        self.0 ^= word as u64;
    }

    fn finish(&self) -> u64 {
        // The map buckets by the low bits and tags by the top seven. A
        // product's low bits depend only on its factors' low bits, and bits
        // 32.. are the same for a whole shard; the rotation gives the map
        // bits 44.. to bucket by and bits 37..44 as tag.
        mix(self.0).rotate_left(20)
    }
}

struct Entry<V: ?Sized> {
    value: Arc<V>,
    weight: usize,
    /// Second-chance bit: set on hit, cleared (once) by the clock hand
    /// before eviction.
    referenced: bool,
}

struct Shard<V: ?Sized> {
    map: HashMap<Key, Entry<V>, BuildHasherDefault<KeyHasher>>,
    /// Clock ring of resident keys. May contain stale keys for entries
    /// already replaced; those are skipped when the hand reaches them.
    ring: VecDeque<Key>,
    bytes: usize,
    budget: usize,
}

impl<V: ?Sized> Shard<V> {
    fn evict_one(&mut self) -> bool {
        while let Some(key) = self.ring.pop_front() {
            match self.map.get_mut(&key) {
                None => continue, // stale ring slot
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.ring.push_back(key);
                }
                Some(_) => {
                    let e = self.map.remove(&key).expect("entry checked above");
                    self.bytes -= e.weight;
                    return true;
                }
            }
        }
        false
    }
}

/// A sharded clock cache mapping `(func, hash)` to a shared value (in
/// practice a decoded zone map): a hit clones the `Arc`, never the value.
pub struct ShardedCache<V: ?Sized> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Bit mask selecting a shard from the key hash.
    mask: usize,
}

impl<V: ?Sized> ShardedCache<V> {
    /// A cache splitting `budget` bytes across `shards` shards. A zero
    /// budget yields a cache that never stores anything.
    pub fn new(budget: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = budget / shards;
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::default(),
                        ring: VecDeque::new(),
                        bytes: 0,
                        budget: per_shard,
                    })
                })
                .collect(),
            mask: shards - 1,
        }
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard<V>> {
        &self.shards[(mix(key.1 ^ key.0 as u64) >> 32) as usize & self.mask]
    }

    /// Looks up `key`, marking it recently used on hit.
    pub fn get(&self, func: usize, hash: HashValue) -> Option<Arc<V>> {
        let key = (func, hash);
        let mut shard = self.shard(&key).lock().unwrap();
        let e = shard.map.get_mut(&key)?;
        e.referenced = true;
        Some(e.value.clone())
    }

    /// Inserts `value` weighing `weight` bytes, evicting older entries as
    /// needed. Values heavier than a whole shard's budget are not cached.
    pub fn insert(&self, func: usize, hash: HashValue, value: Arc<V>, weight: usize) {
        let key = (func, hash);
        let mut shard = self.shard(&key).lock().unwrap();
        if weight > shard.budget {
            return;
        }
        if let Some(old) = shard.map.remove(&key) {
            shard.bytes -= old.weight;
            // Its ring slot goes stale and is skipped by the clock hand.
        }
        while shard.bytes + weight > shard.budget {
            if !shard.evict_one() {
                return;
            }
        }
        shard.bytes += weight;
        shard.map.insert(
            key,
            Entry {
                value,
                weight,
                referenced: false,
            },
        );
        shard.ring.push_back(key);
    }

    /// Total bytes currently resident across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let cache: ShardedCache<u32> = ShardedCache::new(1024, 4);
        assert_eq!(cache.get(0, 42), None);
        cache.insert(0, 42, Arc::new(7), 16);
        assert_eq!(cache.get(0, 42), Some(Arc::new(7)));
        assert_eq!(cache.get(1, 42), None, "keys are per-function");
    }

    /// Within one shard (bits 32.. of the mix fixed) the map still sees
    /// hashes that differ in the bits it buckets and tags by, for keys as
    /// regular as consecutive small integers.
    #[test]
    fn key_hasher_spreads_the_keys_of_one_shard() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<KeyHasher>::default();
        let in_shard_0: Vec<u64> = (0..40_000u64)
            .filter(|&hash| (mix(hash ^ 3) >> 32) & 15 == 0)
            .map(|hash| build.hash_one((3usize, hash)))
            .collect();
        assert!(in_shard_0.len() > 2_000);
        let buckets: std::collections::HashSet<u64> = in_shard_0.iter().map(|h| h & 1023).collect();
        let tags: std::collections::HashSet<u64> = in_shard_0.iter().map(|h| h >> 57).collect();
        assert_eq!(buckets.len(), 1024);
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn zero_budget_never_stores() {
        let cache: ShardedCache<u32> = ShardedCache::new(0, 4);
        cache.insert(0, 1, Arc::new(9), 8);
        assert_eq!(cache.get(0, 1), None);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn budget_is_enforced_by_eviction() {
        // One shard so the budget applies to every key.
        let cache: ShardedCache<u64> = ShardedCache::new(100, 1);
        for i in 0..50u64 {
            cache.insert(0, i, Arc::new(i), 10);
        }
        assert!(cache.resident_bytes() <= 100);
        // Exactly budget/weight entries survive.
        let resident = (0..50u64).filter(|&i| cache.get(0, i).is_some()).count();
        assert_eq!(resident, 10);
    }

    #[test]
    fn second_chance_protects_hot_entries() {
        let cache: ShardedCache<u64> = ShardedCache::new(40, 1);
        for i in 0..4u64 {
            cache.insert(0, i, Arc::new(i), 10);
        }
        // Touch key 0 so it carries a reference bit, then overflow.
        assert!(cache.get(0, 0).is_some());
        for i in 4..7u64 {
            cache.insert(0, i, Arc::new(i), 10);
        }
        assert!(
            cache.get(0, 0).is_some(),
            "referenced entry should survive one eviction sweep"
        );
        assert!(cache.resident_bytes() <= 40);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let cache: ShardedCache<u32> = ShardedCache::new(64, 1);
        cache.insert(0, 5, Arc::new(1), 1000);
        assert_eq!(cache.get(0, 5), None);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_weight() {
        let cache: ShardedCache<u32> = ShardedCache::new(64, 1);
        cache.insert(0, 1, Arc::new(1), 30);
        cache.insert(0, 1, Arc::new(2), 50);
        assert_eq!(cache.get(0, 1), Some(Arc::new(2)));
        assert_eq!(cache.resident_bytes(), 50);
    }
}
