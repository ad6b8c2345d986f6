//! Bounded hot caches for the disk index.
//!
//! Two read-side structures are worth caching between queries: the zone maps
//! of long lists (reread on every per-text probe of the same list) and the
//! decoded posting lists themselves (skewed query workloads hit the same
//! min-hash values repeatedly). Both caches here are:
//!
//! * **sharded** — the key hash picks one of N independently-locked shards,
//!   so concurrent queries rarely contend on the same mutex;
//! * **byte-budgeted** — each shard holds at most `budget / shards` bytes of
//!   cached values and evicts with the second-chance (clock) policy, which
//!   approximates LRU with O(1) hits and no per-access list splicing.
//!
//! A cache with a zero budget stores nothing and always misses, which is how
//! callers disable caching without changing code paths.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

use ndss_hash::HashValue;

/// Cache sizing for [`crate::DiskIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget for cached decoded posting lists, across all
    /// shards. Zero disables the posting cache.
    pub posting_budget: usize,
    /// Total byte budget for cached zone maps. Zero disables the zone cache
    /// (every per-text probe then rereads its zone section).
    pub zone_budget: usize,
    /// Number of independently-locked shards per cache. Rounded up to a
    /// power of two; at least 1.
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

struct Entry<V> {
    value: V,
    weight: usize,
    /// Second-chance bit: set on hit, cleared (once) by the clock hand
    /// before eviction.
    referenced: bool,
}

struct Shard<V> {
    map: HashMap<Key, Entry<V>, BuildHasherDefault<KeyHasher>>,
    /// Clock ring of resident keys. May contain stale keys for entries
    /// already replaced; those are skipped when the hand reaches them.
    ring: VecDeque<Key>,
    bytes: usize,
    budget: usize,
}

impl<V> Shard<V> {
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

/// A sharded clock cache mapping `(func, hash)` to a cheaply-cloneable
/// value (in practice an `Arc` of the decoded data).
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Bit mask selecting a shard from the key hash.
    mask: usize,
    /// Whether any shard has a nonzero budget (fixed at construction), so
    /// hot paths can skip admission work without taking a shard lock.
    any_budget: bool,
}

impl<V: Clone> ShardedCache<V> {
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
            any_budget: per_shard > 0,
        }
    }

    /// Whether this cache can ever hold anything. Lock-free: budgets are
    /// fixed at construction.
    pub fn enabled(&self) -> bool {
        self.any_budget
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard<V>> {
        &self.shards[(mix(key.1 ^ key.0 as u64) >> 32) as usize & self.mask]
    }

    /// Looks up `key`, marking it recently used on hit.
    pub fn get(&self, func: usize, hash: HashValue) -> Option<V> {
        let key = (func, hash);
        let mut shard = self.shard(&key).lock().unwrap();
        let e = shard.map.get_mut(&key)?;
        e.referenced = true;
        Some(e.value.clone())
    }

    /// Inserts `value` weighing `weight` bytes, evicting older entries as
    /// needed. Values heavier than a whole shard's budget are not cached.
    pub fn insert(&self, func: usize, hash: HashValue, value: V, weight: usize) {
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
        cache.insert(0, 42, 7, 16);
        assert_eq!(cache.get(0, 42), Some(7));
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
        assert!(!cache.enabled());
        cache.insert(0, 1, 9, 8);
        assert_eq!(cache.get(0, 1), None);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn budget_is_enforced_by_eviction() {
        // One shard so the budget applies to every key.
        let cache: ShardedCache<u64> = ShardedCache::new(100, 1);
        for i in 0..50u64 {
            cache.insert(0, i, i, 10);
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
            cache.insert(0, i, i, 10);
        }
        // Touch key 0 so it carries a reference bit, then overflow.
        assert!(cache.get(0, 0).is_some());
        for i in 4..7u64 {
            cache.insert(0, i, i, 10);
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
        cache.insert(0, 5, 1, 1000);
        assert_eq!(cache.get(0, 5), None);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_weight() {
        let cache: ShardedCache<u32> = ShardedCache::new(64, 1);
        cache.insert(0, 1, 1, 30);
        cache.insert(0, 1, 2, 50);
        assert_eq!(cache.get(0, 1), Some(2));
        assert_eq!(cache.resident_bytes(), 50);
    }
}
