//! Shared, thread-safe memoization for stripe subproblems.
//!
//! The optimal jagged algorithms solve the same 1D stripe subproblem —
//! "optimally split rows `[lo, hi)` into `parts` intervals along the
//! auxiliary dimension" — over and over: Nicol's parametric search probes
//! each interval many times, `-BEST` runs two orientations, and the
//! `JAG-M-OPT` literal DP revisits `(stripe, x)` states across processor
//! counts. Historically each call sites kept a private
//! `RefCell<HashMap>`, which is neither shareable across threads nor
//! across the `-BEST` orientation pair.
//!
//! [`StripeCache`] replaces that: a sharded `Mutex<HashMap>` map keyed by
//! `(axis, interval, parts)` that is `Send + Sync`, so one cache instance
//! serves both orientations of a `-BEST` run and every parallel stripe
//! evaluation inside them. Values are deterministic functions of the key
//! (the optimal bottleneck of the stripe), so a racing duplicate compute
//! is harmless — both writers insert the same value.
//!
//! The generic engine is [`ShardedMemo`]; `hier_opt` reuses it for its
//! sub-rectangle DP states.
//!
//! # Sharding key scheme
//!
//! A key is routed to one of `SHARDS` (= 16) shards
//! by hashing its `Hash` impl with a **fixed-seed FNV-1a** 64-bit hasher,
//! Fibonacci-multiplying the result (`h · 2⁶⁴/φ`) to spread entropy into
//! the high bits, and taking the top bits modulo the shard count:
//!
//! ```text
//! shard(k) = (fnv1a(k) · 0x9E3779B97F4A7C15) >> 60  mod 16
//! ```
//!
//! The hasher is deliberately *not* `RandomState`: a fixed seed makes the
//! shard assignment — and therefore the per-shard insert tallies the
//! `obs` layer reports — reproducible across runs and thread counts. Keys are not attacker
//! controlled, so HashDoS hardening buys nothing here.
//!
//! # Instrumentation
//!
//! With the `obs` feature enabled, [`StripeCache::bottleneck`] records
//! one `core.stripe_cache.lookups` per query and one
//! `core.stripe_cache.misses` per *first insert* of a distinct key (plus
//! the per-shard insert tally). Counting first-inserts rather than
//! "compute ran" keeps the numbers deterministic at any thread count:
//! when two threads race on the same key both may solve it, but exactly
//! one performs the first insert. Each miss-compute additionally runs
//! under a `core.stripe_solve` span, so flame/trace output attributes
//! stripe-solve work to the solver phase that triggered the miss.
//!
//! # Unbounded-cache invariant
//!
//! `ShardedMemo` never evicts: every shard map grows monotonically for
//! the lifetime of the cache (one `partition` call). The determinism
//! argument above leans on that: a key's first insert is counted once
//! because its entry never disappears, so a later lookup cannot miss and
//! insert it again. A bounded (e.g. LRU) cache would have to revisit
//! that argument before evicting anything.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::geometry::Axis;

/// Number of independently locked shards. A small power of two: the maps
/// are consulted from at most a handful of worker threads, and the keys
/// of one run spread evenly under the mixing function below.
const SHARDS: usize = 16;

/// Fixed-seed FNV-1a, so shard routing is deterministic across runs (see
/// the module docs).
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// A concurrent memo table sharded across `SHARDS` mutex-protected
/// hash maps.
///
/// Lookups lock exactly one shard; callers compute a missing value
/// *outside* any lock (see [`StripeCache::bottleneck`]) so long-running
/// solves never serialize unrelated queries.
/// This is only sound for *deterministic* values: two threads may race on
/// the same key and both compute it, and the table keeps whichever lands
/// last. All users in this crate memoize pure functions of the key.
#[derive(Debug)]
pub struct ShardedMemo<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

impl<K: Eq + Hash, V: Clone> ShardedMemo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The shard index `key` routes to (see the module docs for the
    /// scheme). Deterministic across runs and thread counts.
    pub fn shard_index(&self, key: &K) -> usize {
        let mut hasher = Fnv1a(Fnv1a::OFFSET_BASIS);
        key.hash(&mut hasher);
        (hasher.finish().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % SHARDS
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        // lint:allow(panic-reach) -- shard_index ends in `% SHARDS` and
        // self.shards has exactly SHARDS entries
        &self.shards[self.shard_index(key)]
    }

    /// Locks a shard, shrugging off poisoning: every write is a plain
    /// insert of a value that is a pure function of its key, so a map
    /// abandoned mid-panic is still internally consistent and safe to
    /// keep using.
    fn lock(shard: &Mutex<HashMap<K, V>>) -> MutexGuard<'_, HashMap<K, V>> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        Self::lock(self.shard(key)).get(key).cloned()
    }

    /// Inserts `value` only if `key` is absent; returns `true` when this
    /// call performed the first insert. Exactly one of several racing
    /// inserters of the same key observes `true`, which is what makes
    /// first-insert counting deterministic (see the module docs).
    pub fn insert_if_absent(&self, key: K, value: V) -> bool {
        let mut shard = Self::lock(self.shard(&key));
        match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Total number of cached entries across all shards.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }
}

impl<K: Eq + Hash, V: Clone> Default for ShardedMemo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Key of one memoized stripe solution: the optimal bottleneck of
/// splitting main-dimension interval `[lo, hi)` (of the orientation given
/// by `axis`) into `parts` intervals along the auxiliary dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StripeKey {
    /// Main (striped) dimension of the orientation that produced the
    /// stripe; keeps the two orientations of a `-BEST` run from
    /// colliding in the shared cache.
    pub axis: Axis,
    /// Start of the main-dimension interval (inclusive).
    pub lo: usize,
    /// End of the main-dimension interval (exclusive).
    pub hi: usize,
    /// Number of auxiliary intervals the stripe is split into.
    pub parts: usize,
}

/// Shared memo of optimal stripe bottlenecks, keyed by [`StripeKey`].
///
/// One instance is created per `partition` call and shared across the
/// `-BEST` orientation pair and all parallel stripe evaluations inside
/// it (see the module docs).
#[derive(Debug, Default)]
pub struct StripeCache {
    memo: ShardedMemo<StripeKey, u64>,
}

impl StripeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized optimal bottleneck of splitting `[lo, hi)` into
    /// `parts` auxiliary intervals, computing it with `solve` on a miss.
    pub fn bottleneck(
        &self,
        axis: Axis,
        lo: usize,
        hi: usize,
        parts: usize,
        solve: impl FnOnce() -> u64,
    ) -> u64 {
        let key = StripeKey {
            axis,
            lo,
            hi,
            parts,
        };
        rectpart_obs::incr(rectpart_obs::Counter::StripeCacheLookups);
        if let Some(v) = self.memo.get(&key) {
            return v;
        }
        let v = {
            let _span = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::StripeSolve);
            solve()
        };
        if self.memo.insert_if_absent(key, v) {
            rectpart_obs::incr(rectpart_obs::Counter::StripeCacheMisses);
            rectpart_obs::record_shard_insert(self.memo.shard_index(&key));
        }
        v
    }

    /// Number of distinct stripe solutions cached so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_cache_distinguishes_axes() {
        let cache = StripeCache::new();
        let a = cache.bottleneck(Axis::Rows, 0, 4, 2, || 10);
        let b = cache.bottleneck(Axis::Cols, 0, 4, 2, || 20);
        assert_eq!((a, b), (10, 20));
        assert_eq!(cache.len(), 2);
        // Hits do not recompute.
        assert_eq!(cache.bottleneck(Axis::Rows, 0, 4, 2, || 99), 10);
    }

    #[test]
    fn insert_if_absent_reports_first_insert_only() {
        let memo: ShardedMemo<u64, u64> = ShardedMemo::new();
        assert!(memo.insert_if_absent(7, 1));
        assert!(!memo.insert_if_absent(7, 2));
        assert_eq!(memo.get(&7), Some(1));
    }

    #[test]
    fn shard_routing_is_deterministic() {
        // Routing is a pure function of the key: a fresh map with a
        // fresh hasher routes identically.
        let memo: ShardedMemo<u64, u64> = ShardedMemo::new();
        let fresh: ShardedMemo<u64, u64> = ShardedMemo::new();
        for k in 0..100u64 {
            assert!(memo.shard_index(&k) < SHARDS);
            assert_eq!(memo.shard_index(&k), fresh.shard_index(&k));
        }
    }

    #[test]
    fn shared_across_threads() {
        let cache = StripeCache::new();
        let results = rectpart_parallel::with_threads(4, || {
            rectpart_parallel::map_range(64, |i| {
                cache.bottleneck(Axis::Rows, i % 8, i % 8 + 1, 1, || (i % 8) as u64)
            })
        });
        for (i, v) in results.into_iter().enumerate() {
            assert_eq!(v, (i % 8) as u64);
        }
        assert_eq!(cache.len(), 8);
    }
}
