//! The shared synthesis cache: a sharded LRU map implementing
//! [`nsb_synth::SynthCache`].
//!
//! Entries are keyed by the pair `nsb_synth::Decomposer::synth_key`
//! derives: a `SynthKey` (quantized Weyl coordinate plus basis-gate
//! fingerprint) and the full target fingerprint. The cache holds one
//! entry per key and fingerprint, so a hit is bit-identical to a fresh
//! synthesis and locally equivalent targets sit side by side. Sharding
//! keeps lock contention low when many workers compile concurrently:
//! each key hashes to one shard with its own mutex and its own LRU clock.
//!
//! The cache overrides [`SynthCache::get_or_compute`] with **single-flight
//! miss coalescing**: the first thread to miss on a `(key, fingerprint)`
//! registers it as in-flight and synthesizes outside the shard lock; later
//! threads missing on the same pair block on the shard's condvar and reuse
//! the published result, so each decomposition is computed exactly once no
//! matter how many workers race to it.

use crate::bounded::relock;
use nsb_store::StoredEntry;
use nsb_synth::{SynthCache, SynthKey, SynthesisFailed, Synthesized2Q};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Hit/miss totals of a [`SharedSynthCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored synthesis.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Misses that waited for another thread's in-flight synthesis
    /// instead of recomputing (single-flight coalescing).
    pub coalesced: u64,
    /// Entries currently stored across all shards.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit, in `[0, 1]`; `0` when no lookup has
    /// happened yet.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[derive(Clone)]
struct Entry {
    value: Synthesized2Q,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<(SynthKey, u64), Entry>,
    clock: u64,
    /// `(key, fingerprint)` pairs some thread is currently synthesizing.
    inflight: HashSet<(SynthKey, u64)>,
}

/// One shard: its state plus the condvar single-flight waiters block on.
#[derive(Default)]
struct ShardLock {
    state: Mutex<Shard>,
    flights: Condvar,
}

/// Removes an in-flight registration (and wakes waiters) even if the
/// computing closure panics, so no waiter blocks forever.
struct InflightGuard<'a> {
    shard: &'a ShardLock,
    pair: (SynthKey, u64),
    armed: bool,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = relock(self.shard.state.lock());
            state.inflight.remove(&self.pair);
            drop(state);
            self.shard.flights.notify_all();
        }
    }
}

/// A thread-safe LRU synthesis cache shared by all service workers.
pub struct SharedSynthCache {
    shards: Vec<ShardLock>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl SharedSynthCache {
    /// Number of independently locked shards.
    pub(crate) const SHARDS: usize = 16;

    /// Minimum effective capacity: one entry per shard. A requested
    /// capacity below this (including zero) is clamped up — a cache that
    /// cannot hold anything would silently turn every lookup into a miss
    /// and defeat the service's reuse guarantees, so it is not
    /// constructible.
    pub(crate) const MIN_CAPACITY: usize = Self::SHARDS;

    /// Creates a cache holding at most ~`capacity` entries (rounded up
    /// to a multiple of the shard count; clamped to at least one entry
    /// per shard).
    pub fn new(capacity: usize) -> Self {
        SharedSynthCache {
            shards: (0..Self::SHARDS).map(|_| ShardLock::default()).collect(),
            capacity_per_shard: capacity.max(Self::MIN_CAPACITY).div_ceil(Self::SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Snapshots every live entry (key, target fingerprint, value), e.g.
    /// for persistence through `nsb-store`. Shards are locked one at a
    /// time, so concurrent lookups and stores proceed on the others; the
    /// result is a consistent per-shard (not globally atomic) snapshot,
    /// which is sufficient because entries are immutable once stored.
    pub fn export_entries(&self) -> Vec<(SynthKey, u64, Synthesized2Q)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = relock(shard.state.lock());
            out.extend(
                shard
                    .map
                    .iter()
                    .map(|(&(key, target_fp), e)| (key, target_fp, e.value.clone())),
            );
        }
        out
    }

    /// [`export_entries`](Self::export_entries) as store records.
    pub(crate) fn stored_entries(&self) -> Vec<StoredEntry> {
        self.export_entries()
            .into_iter()
            .map(|(key, target_fp, value)| StoredEntry {
                key,
                target_fp,
                value,
            })
            .collect()
    }

    /// Inserts entries without touching the hit/miss counters — the
    /// warm-start path. Returns the number of entries inserted (the LRU
    /// bound still applies, so a preload larger than the capacity keeps
    /// only the most recently inserted entries per shard).
    pub fn preload<I>(&self, entries: I) -> usize
    where
        I: IntoIterator<Item = (SynthKey, u64, Synthesized2Q)>,
    {
        let mut n = 0;
        for (key, target_fp, value) in entries {
            self.store(key, target_fp, &value);
            n += 1;
        }
        n
    }

    /// Current hit/miss/entry totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| relock(s.state.lock()).map.len())
                .sum(),
        }
    }

    fn shard_of(&self, key: &SynthKey) -> &ShardLock {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts under an already-held shard lock, evicting past capacity.
    fn insert_locked(
        &self,
        shard: &mut Shard,
        key: SynthKey,
        target_fp: u64,
        value: &Synthesized2Q,
    ) {
        shard.clock += 1;
        let clock = shard.clock;
        shard.map.insert(
            (key, target_fp),
            Entry {
                value: value.clone(),
                last_used: clock,
            },
        );
        // Evict the least recently used entry once over capacity. The
        // linear scan is fine: shards are small and eviction only runs
        // on insertions past capacity.
        while shard.map.len() > self.capacity_per_shard {
            let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break; // unreachable: len > capacity >= 1
            };
            shard.map.remove(&oldest);
        }
    }
}

impl SynthCache for SharedSynthCache {
    fn lookup(&self, key: &SynthKey, target_fp: u64) -> Option<Synthesized2Q> {
        let mut shard = relock(self.shard_of(key).state.lock());
        shard.clock += 1;
        let clock = shard.clock;
        let found = shard.map.get_mut(&(*key, target_fp)).map(|entry| {
            entry.last_used = clock;
            entry.value.clone()
        });
        drop(shard);
        self.record(found.is_some());
        found
    }

    fn store(&self, key: SynthKey, target_fp: u64, value: &Synthesized2Q) {
        let shard_lock = self.shard_of(&key);
        let mut shard = relock(shard_lock.state.lock());
        self.insert_locked(&mut shard, key, target_fp, value);
    }

    /// Single-flight implementation: each `(key, fingerprint)` pair is
    /// synthesized by exactly one thread at a time; racing threads block
    /// on the shard condvar and reuse the published value.
    ///
    /// Accounting: every call records exactly one hit or miss — a hit
    /// when the value came out of the cache (immediately or after
    /// waiting), a miss when this call ran `compute`. Calls that waited
    /// additionally bump the `coalesced` counter once.
    ///
    /// Failed computations are not cached: all waiters of a failed
    /// flight wake, and the first to re-check becomes the next computer,
    /// so a transient failure cannot poison the key. Likewise, a value
    /// evicted between publication and wake-up is simply recomputed.
    fn get_or_compute(
        &self,
        key: SynthKey,
        target_fp: u64,
        compute: &mut dyn FnMut() -> Result<Synthesized2Q, SynthesisFailed>,
    ) -> Result<Synthesized2Q, SynthesisFailed> {
        let shard_lock = self.shard_of(&key);
        let pair = (key, target_fp);
        let mut waited = false;
        let mut shard = relock(shard_lock.state.lock());
        loop {
            shard.clock += 1;
            let clock = shard.clock;
            if let Some(entry) = shard.map.get_mut(&pair) {
                entry.last_used = clock;
                let value = entry.value.clone();
                drop(shard);
                self.record(true);
                return Ok(value);
            }
            if !shard.inflight.contains(&pair) {
                break;
            }
            if !waited {
                waited = true;
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            shard = relock(
                shard_lock
                    .flights
                    .wait_while(shard, |shard| shard.inflight.contains(&pair)),
            );
        }
        shard.inflight.insert(pair);
        drop(shard);
        self.record(false);
        // Synthesize outside the lock; the guard unregisters the flight
        // and wakes waiters even on panic.
        let mut flight = InflightGuard {
            shard: shard_lock,
            pair,
            armed: true,
        };
        let result = compute();
        let mut shard = relock(shard_lock.state.lock());
        shard.inflight.remove(&pair);
        flight.armed = false;
        if let Ok(value) = &result {
            self.insert_locked(&mut shard, key, target_fp, value);
        }
        drop(shard);
        shard_lock.flights.notify_all();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::Mat4;
    use nsb_synth::Decomposer;

    fn key(n: u8) -> SynthKey {
        SynthKey {
            coord: [n as i64, 0, 0],
            basis_id: 1,
        }
    }

    fn sample() -> Synthesized2Q {
        Decomposer::new(Mat4::sqrt_iswap())
            .decompose(&Mat4::cnot())
            .unwrap()
    }

    #[test]
    fn lookup_respects_fingerprint() {
        let cache = SharedSynthCache::new(64);
        let v = sample();
        cache.store(key(0), 111, &v);
        assert!(cache.lookup(&key(0), 222).is_none(), "fingerprint mismatch");
        assert!(cache.lookup(&key(0), 111).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        // Capacity 16 => one entry per shard; storing two keys in the
        // same shard must evict the first.
        let cache = SharedSynthCache::new(1);
        let v = sample();
        // Find two distinct keys landing in the same shard.
        let base = key(0);
        let mut other = None;
        for t in 1u8..=255 {
            let k = key(t);
            if std::ptr::eq(cache.shard_of(&k), cache.shard_of(&base)) {
                other = Some(k);
                break;
            }
        }
        let other = other.expect("some key shares a shard");
        cache.store(base, 1, &v);
        cache.store(other, 2, &v);
        assert!(cache.lookup(&base, 1).is_none(), "evicted");
        assert!(cache.lookup(&other, 2).is_some());
    }

    #[test]
    fn touch_on_lookup_protects_hot_entries() {
        let cache = SharedSynthCache::new(1);
        let v = sample();
        let base = key(0);
        let mut same_shard = Vec::new();
        for t in 1u8..=255 {
            let k = key(t);
            if std::ptr::eq(cache.shard_of(&k), cache.shard_of(&base)) {
                same_shard.push(k);
                if same_shard.len() == 2 {
                    break;
                }
            }
        }
        let [a, b] = same_shard[..] else {
            panic!("expected two keys sharing the base shard")
        };
        cache.store(base, 1, &v);
        cache.store(a, 2, &v); // evicts base (cap 1/shard)
        assert!(cache.lookup(&a, 2).is_some()); // touch a
        cache.store(b, 3, &v); // must evict nothing older than a... base gone, a is hot
        assert!(cache.lookup(&b, 3).is_some());
        let stats = cache.stats();
        assert!(stats.entries <= SharedSynthCache::SHARDS);
    }

    #[test]
    fn zero_capacity_is_clamped_to_a_working_cache() {
        let cache = SharedSynthCache::new(0);
        let v = sample();
        cache.store(key(3), 9, &v);
        assert!(
            cache.lookup(&key(3), 9).is_some(),
            "clamped cache must still hold at least one entry per shard"
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        // The clamp is exactly MIN_CAPACITY: zero and MIN_CAPACITY behave
        // the same (one entry per shard).
        assert_eq!(SharedSynthCache::MIN_CAPACITY, SharedSynthCache::SHARDS);
    }

    #[test]
    fn export_preload_round_trip_preserves_bits() {
        let cache = SharedSynthCache::new(64);
        let v = sample();
        cache.store(key(1), 10, &v);
        cache.store(key(2), 20, &v);
        let exported = cache.export_entries();
        assert_eq!(exported.len(), 2);
        let fresh = SharedSynthCache::new(64);
        assert_eq!(fresh.preload(exported), 2);
        let warm = fresh.lookup(&key(1), 10).expect("warm hit");
        let cold = cache.lookup(&key(1), 10).expect("original");
        assert_eq!(warm.error.to_bits(), cold.error.to_bits());
        assert_eq!(warm.phase.to_bits(), cold.phase.to_bits());
        assert_eq!(warm.locals.len(), cold.locals.len());
        // Preloading must not register hits or misses.
        let stats = SharedSynthCache::new(8);
        stats.preload(cache.export_entries());
        let s = stats.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn single_flight_coalesces_concurrent_misses() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        use std::time::Duration;

        const THREADS: usize = 4;
        let cache = SharedSynthCache::new(64);
        let v = sample();
        let computes = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    barrier.wait();
                    let got = cache
                        .get_or_compute(key(7), 42, &mut || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough that every
                            // other thread arrives while it is in progress.
                            std::thread::sleep(Duration::from_millis(200));
                            Ok(v.clone())
                        })
                        .unwrap();
                    assert_eq!(got.layers, v.layers);
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "exactly one thread must synthesize"
        );
        let stats = cache.stats();
        assert_eq!(stats.coalesced, (THREADS - 1) as u64);
        assert_eq!((stats.hits, stats.misses), ((THREADS - 1) as u64, 1));
    }

    #[test]
    fn failed_flight_is_not_cached_and_wakes_waiters() {
        let cache = SharedSynthCache::new(64);
        let v = sample();
        let err = SynthesisFailed {
            best_error: 1.0,
            max_layers: 2,
        };
        let failed = cache.get_or_compute(key(9), 5, &mut || Err(err.clone()));
        assert!(failed.is_err());
        assert!(
            cache.lookup(&key(9), 5).is_none(),
            "failures must not be cached"
        );
        // The key is immediately available for the next computer.
        let ok = cache
            .get_or_compute(key(9), 5, &mut || Ok(v.clone()))
            .unwrap();
        assert_eq!(ok.layers, v.layers);
        assert!(cache.lookup(&key(9), 5).is_some());
    }

    #[test]
    fn get_or_compute_hit_skips_compute() {
        let cache = SharedSynthCache::new(64);
        let v = sample();
        cache.store(key(4), 8, &v);
        let got = cache
            .get_or_compute(key(4), 8, &mut || {
                panic!("must not compute on a hit");
            })
            .unwrap();
        assert_eq!(got.layers, v.layers);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.coalesced), (1, 0));
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let mut stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        (stats.hits, stats.misses) = (3, 1);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn locally_equivalent_targets_stay_side_by_side() {
        use nsb_math::haar_su2;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        let cnot = Mat4::cnot();
        let dressed = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng)) * cnot;
        let (key, cnot_fp) = dec.synth_key(&cnot);
        let (dressed_key, dressed_fp) = dec.synth_key(&dressed);
        assert_eq!(key, dressed_key, "locally equivalent targets share a key");
        assert_ne!(cnot_fp, dressed_fp);
        let cache = SharedSynthCache::new(64);
        for (fp, target) in [(cnot_fp, &cnot), (dressed_fp, &dressed)] {
            cache
                .get_or_compute(key, fp, &mut || dec.decompose(target))
                .expect("synthesis");
        }
        assert_eq!(cache.stats().entries, 2);
        for (fp, target) in [(cnot_fp, &cnot), (dressed_fp, &dressed)] {
            let hit = cache.lookup(&key, fp).expect("both targets stay stored");
            let layers = vec![Mat4::sqrt_iswap(); hit.layers];
            assert!(hit.unitary_with_phase(&layers).approx_eq(target, 1e-5));
        }
    }
}
