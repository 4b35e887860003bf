//! The shared synthesis cache: one LRU map under one lock, implementing
//! [`nsb_synth::SynthCache`].
//!
//! Entries are keyed by the pair `nsb_synth::Decomposer::synth_key`
//! derives: a `SynthKey` (quantized Weyl coordinate plus basis-gate
//! fingerprint) and the full target fingerprint. The cache holds one
//! entry per key and fingerprint, so a hit is bit-identical to a fresh
//! synthesis and locally equivalent targets sit side by side. One mutex
//! guards the entry map, the in-flight set, the LRU clock and the
//! counters: each call holds it for microseconds, beside syntheses that
//! take about 100 ms, so workers do not contend for it.
//!
//! The cache overrides [`SynthCache::get_or_compute`] with **single-flight
//! miss coalescing**: the first thread to miss on a `(key, fingerprint)`
//! registers it as in-flight and synthesizes outside the lock; later
//! threads missing on the same pair block on the condvar and reuse the
//! published result, so each decomposition is computed exactly once no
//! matter how many workers race to it.

use crate::bounded::relock;
use nsb_store::StoredEntry;
use nsb_synth::{SynthCache, SynthKey, SynthesisFailed, Synthesized2Q};
use std::collections::{HashMap, HashSet};
use std::sync::{Condvar, Mutex, MutexGuard};

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
    /// Entries currently stored.
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

type Pair = (SynthKey, u64);

struct Entry {
    value: Synthesized2Q,
    last_used: u64,
}

/// Everything the cache's one lock guards.
#[derive(Default)]
struct State {
    map: HashMap<Pair, Entry>,
    /// Pairs some thread is currently synthesizing.
    inflight: HashSet<Pair>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
}

impl State {
    /// The stored value under `pair`, marked most recently used.
    fn touch(&mut self, pair: &Pair) -> Option<Synthesized2Q> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(pair).map(|entry| {
            entry.last_used = clock;
            entry.value.clone()
        })
    }

    /// Stores `value` as the most recently used entry, evicting the least
    /// recently used one past capacity. The linear scan only runs on
    /// insertions past capacity, and costs microseconds beside a
    /// synthesis.
    fn insert(&mut self, pair: Pair, value: Synthesized2Q) {
        self.clock += 1;
        let last_used = self.clock;
        self.map.insert(pair, Entry { value, last_used });
        if self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            if let Some(oldest) = oldest {
                self.map.remove(&oldest);
            }
        }
    }
}

/// Unregisters an in-flight pair, publishes its value if the synthesis
/// succeeded, and wakes waiters. Dropping is the one release path, so a
/// panicking `compute` cannot leave a waiter blocked forever.
struct Flight<'a> {
    cache: &'a SharedSynthCache,
    pair: Pair,
    value: Option<Synthesized2Q>,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let mut state = self.cache.lock();
        state.inflight.remove(&self.pair);
        if let Some(value) = self.value.take() {
            state.insert(self.pair, value);
        }
        drop(state);
        self.cache.flights.notify_all();
    }
}

/// A thread-safe LRU synthesis cache shared by all service workers.
pub struct SharedSynthCache {
    state: Mutex<State>,
    flights: Condvar,
}

impl SharedSynthCache {
    /// Minimum capacity. A requested capacity of zero is clamped up — a
    /// cache that cannot hold anything would silently turn every lookup
    /// into a miss and defeat the service's reuse guarantees, so it is
    /// not constructible.
    pub(crate) const MIN_CAPACITY: usize = 1;

    /// Creates a cache holding at most `capacity` entries (a capacity of
    /// zero is clamped to one).
    pub fn new(capacity: usize) -> Self {
        SharedSynthCache {
            state: Mutex::new(State {
                capacity: capacity.max(Self::MIN_CAPACITY),
                ..State::default()
            }),
            flights: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        relock(self.state.lock())
    }

    /// Snapshots every live entry (key, target fingerprint, value), e.g.
    /// for persistence through `nsb-store`.
    pub fn export_entries(&self) -> Vec<(SynthKey, u64, Synthesized2Q)> {
        self.lock()
            .map
            .iter()
            .map(|(&(key, target_fp), e)| (key, target_fp, e.value.clone()))
            .collect()
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
    /// only the most recently inserted entries).
    pub fn preload<I>(&self, entries: I) -> usize
    where
        I: IntoIterator<Item = (SynthKey, u64, Synthesized2Q)>,
    {
        let mut state = self.lock();
        let mut n = 0;
        for (key, target_fp, value) in entries {
            state.insert((key, target_fp), value);
            n += 1;
        }
        n
    }

    /// Current hit/miss/entry totals.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            coalesced: state.coalesced,
            entries: state.map.len(),
        }
    }
}

impl SynthCache for SharedSynthCache {
    fn lookup(&self, key: &SynthKey, target_fp: u64) -> Option<Synthesized2Q> {
        let mut state = self.lock();
        let found = state.touch(&(*key, target_fp));
        if found.is_some() {
            state.hits += 1;
        } else {
            state.misses += 1;
        }
        found
    }

    fn store(&self, key: SynthKey, target_fp: u64, value: &Synthesized2Q) {
        self.lock().insert((key, target_fp), value.clone());
    }

    /// Single-flight implementation: each `(key, fingerprint)` pair is
    /// synthesized by exactly one thread at a time; racing threads block
    /// on the condvar and reuse the published value.
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
        let pair = (key, target_fp);
        let mut waited = false;
        let mut state = self.lock();
        loop {
            if let Some(value) = state.touch(&pair) {
                state.hits += 1;
                return Ok(value);
            }
            if !state.inflight.contains(&pair) {
                break;
            }
            if !waited {
                waited = true;
                state.coalesced += 1;
            }
            state = relock(
                self.flights
                    .wait_while(state, |state| state.inflight.contains(&pair)),
            );
        }
        state.inflight.insert(pair);
        state.misses += 1;
        drop(state);
        // Synthesize outside the lock; dropping the flight publishes a
        // success and wakes waiters, also when `compute` panics.
        let mut flight = Flight {
            cache: self,
            pair,
            value: None,
        };
        let result = compute();
        flight.value = result.as_ref().ok().cloned();
        drop(flight);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::Mat4;
    use nsb_synth::Decomposer;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let cache = SharedSynthCache::new(1);
        let v = sample();
        cache.store(key(0), 1, &v);
        cache.store(key(1), 2, &v);
        assert!(cache.lookup(&key(0), 1).is_none(), "evicted");
        assert!(cache.lookup(&key(1), 2).is_some());
    }

    #[test]
    fn touch_on_lookup_protects_hot_entries() {
        let cache = SharedSynthCache::new(2);
        let v = sample();
        let (base, a, b) = (key(0), key(1), key(2));
        cache.store(base, 1, &v);
        cache.store(a, 2, &v);
        assert!(cache.lookup(&a, 2).is_some()); // touch a: base is now oldest
        cache.store(b, 3, &v); // evicts base, not the hot a
        assert!(cache.lookup(&b, 3).is_some());
        assert!(cache.lookup(&a, 2).is_some(), "hot entry survives");
        assert!(cache.lookup(&base, 1).is_none(), "cold entry evicted");
        let stats = cache.stats();
        assert!(stats.entries <= 2);
    }

    #[test]
    fn capacity_is_exact_and_evicts_lru_across_keys() {
        let cache = SharedSynthCache::new(3);
        let v = sample();
        for t in 0..3 {
            cache.store(key(t), u64::from(t), &v);
        }
        assert!(cache.lookup(&key(0), 0).is_some()); // key(1) is now oldest
        cache.store(key(3), 3, &v);
        assert!(cache.lookup(&key(1), 1).is_none(), "least recently used");
        for t in [0, 2, 3] {
            assert!(cache.lookup(&key(t), u64::from(t)).is_some(), "key {t}");
        }
        for t in 4..40 {
            cache.store(key(t), u64::from(t), &v);
            assert_eq!(cache.stats().entries, 3, "after storing key {t}");
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_a_working_cache() {
        let cache = SharedSynthCache::new(0);
        let v = sample();
        cache.store(key(3), 9, &v);
        assert!(
            cache.lookup(&key(3), 9).is_some(),
            "clamped cache must still hold one entry"
        );
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        // The clamp is exactly MIN_CAPACITY: zero behaves like one.
        assert_eq!(SharedSynthCache::MIN_CAPACITY, 1);
        cache.store(key(4), 9, &v);
        assert_eq!(cache.stats().entries, 1);
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
