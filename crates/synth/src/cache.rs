//! Cache-aware synthesis: keys, fingerprints, the [`SynthCache`] trait
//! and its one implementation, [`SharedSynthCache`], through which every
//! lowering reuses decomposition results across targets, circuits and
//! threads.
//!
//! Two-qubit decompositions are highly repetitive across circuits: the
//! same CPhase angles, CNOTs and SWAPs recur on the same edges job after
//! job. A decomposition is identified by
//!
//! * the **quantized Cartan coordinate** of the target (the paper's
//!   Weyl-chamber geometry makes this the natural equivalence key), and
//! * a **basis id** — a fingerprint of the basis gate the decomposer
//!   targets.
//!
//! Nothing else enters: a synthesis is `Decomposer::decompose(target)`
//! whichever caller asks, so a target that both lowering modes synthesize
//! (an iSWAP, say) has one entry.
//!
//! Locally-equivalent targets share a Cartan coordinate but need
//! *different* local unitaries, so every cache operation also carries the
//! full **target fingerprint** (a quantized hash of the target matrix).
//! [`Decomposer::synth_key`] derives both, and the pair is the one
//! identity of a synthesis target: a cache holds one entry per key and
//! fingerprint, so a hit is bit-identical to a fresh synthesis and
//! locally equivalent targets sit side by side.
//!
//! [`SharedSynthCache`] is one LRU map under one lock. A transpiler holds
//! its own by default; a compilation service shares one across all its
//! workers. One mutex guards the entry map, the in-flight set, the LRU
//! clock and the counters: each call holds it for microseconds, beside
//! syntheses that take about 100 ms, so workers do not contend for it.
//! It overrides [`SynthCache::get_or_compute`] with **single-flight miss
//! coalescing**: the first thread to miss on a `(key, fingerprint)`
//! registers it as in-flight and synthesizes outside the lock; later
//! threads missing on the same pair block on the condvar and reuse the
//! published result, so each decomposition is computed exactly once no
//! matter how many workers race to it.

use crate::ansatz::Synthesized2Q;
use crate::decomposer::{Decomposer, SynthesisFailed};
use nsb_math::Mat4;
use nsb_weyl::{kak_vector, WeylCoord};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};

/// Quantization scale for Cartan coordinates: coordinates are keyed at a
/// resolution of `1e-6`, three orders of magnitude coarser than the
/// synthesis tolerance and fine enough that distinct gate angles never
/// collide.
pub(crate) const COORD_SCALE: f64 = 1e6;

/// Quantization scale for matrix-entry fingerprints (see
/// [`mat4_fingerprint`]).
pub(crate) const ENTRY_SCALE: f64 = 1e9;

/// Key identifying a decomposition in a shared synthesis cache.
///
/// The key, with the target fingerprint, fully determines a synthesis
/// result: the search settings are constants of [`Decomposer`], so no
/// setting is missing from the key, and no caller context is in it.
/// Two devices with equal basis gates, and any two lowering modes,
/// therefore share cache entries and persisted snapshots, and a hit is
/// bit-identical to what a fresh synthesis would produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SynthKey {
    /// Quantized canonical Cartan coordinate of the target.
    pub coord: [i64; 3],
    /// Fingerprint of the basis gate being decomposed into.
    pub basis_id: u64,
}

/// Quantizes a Cartan coordinate to the cache key resolution.
fn quantize_coord(c: WeylCoord) -> [i64; 3] {
    let q = |v: f64| (v * COORD_SCALE).round() as i64;
    [q(c.x), q(c.y), q(c.z)]
}

/// A stable 64-bit FNV-1a hasher.
///
/// `std`'s `DefaultHasher` is only deterministic within one build of the
/// standard library; its algorithm may change between Rust releases.
/// Fingerprints that outlive a process — cache keys persisted by
/// `nsb-store`, device calibration hashes — therefore use this hasher
/// instead: FNV-1a over an explicitly little-endian byte encoding, fully
/// specified here and guaranteed never to change for a given snapshot
/// format version.
#[derive(Clone, Debug)]
pub struct StableHasher(u64);

impl StableHasher {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher starting from the FNV offset basis.
    pub fn new() -> Self {
        StableHasher(Self::OFFSET_BASIS)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    // Multi-byte writes pin the byte order: the default implementations
    // use native endianness, which would make fingerprints differ across
    // platforms.
    fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }

    fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }
}

/// Order-sensitive fingerprint of a 4x4 unitary with entries quantized
/// at `ENTRY_SCALE` (1e9); used both as the basis id and as the target
/// fingerprint.
///
/// Computed with [`StableHasher`], so the value is identical across
/// processes, platforms and Rust versions — it is safe to persist (and
/// is, by `nsb-store`).
pub fn mat4_fingerprint(m: &Mat4) -> u64 {
    let mut h = StableHasher::new();
    for r in 0..4 {
        for c in 0..4 {
            let e = m.at(r, c);
            ((e.re * ENTRY_SCALE).round() as i64).hash(&mut h);
            ((e.im * ENTRY_SCALE).round() as i64).hash(&mut h);
        }
    }
    h.finish()
}

/// A shared, thread-safe store of synthesis results.
///
/// Implementations decide capacity and eviction; [`SharedSynthCache`]
/// is an LRU map under one lock. They hold one entry per key and
/// fingerprint, and return exactly what was stored under that pair
/// (callers rely on cached syntheses being bit-identical to fresh ones).
pub trait SynthCache: Send + Sync {
    /// Returns the synthesis stored under `(key, target_fp)`, recording a
    /// hit or miss.
    fn lookup(&self, key: &SynthKey, target_fp: u64) -> Option<Synthesized2Q>;

    /// Stores a synthesis result under `(key, target_fp)`.
    fn store(&self, key: SynthKey, target_fp: u64, value: &Synthesized2Q);

    /// Returns the cached value for `(key, target_fp)` or computes and
    /// stores it.
    ///
    /// The default implementation is plain lookup-compute-store. Concurrent
    /// implementations may override it with **single-flight** semantics:
    /// when several threads miss on the same entry simultaneously, exactly
    /// one runs `compute` and the rest block until the value is published.
    /// Errors are never cached — every waiter observing a failed flight
    /// retries (and may become the next computer).
    ///
    /// # Errors
    ///
    /// Propagates the error returned by `compute`.
    fn get_or_compute(
        &self,
        key: SynthKey,
        target_fp: u64,
        compute: &mut dyn FnMut() -> Result<Synthesized2Q, SynthesisFailed>,
    ) -> Result<Synthesized2Q, SynthesisFailed> {
        if let Some(hit) = self.lookup(&key, target_fp) {
            return Ok(hit);
        }
        let fresh = compute()?;
        self.store(key, target_fp, &fresh);
        Ok(fresh)
    }
}

impl Decomposer {
    /// Fingerprint of this decomposer's basis gate, namespacing its
    /// cache entries.
    pub(crate) fn basis_id(&self) -> u64 {
        mat4_fingerprint(self.basis())
    }

    /// The identity of `target` as a synthesis target: the cache key and
    /// target fingerprint `decompose_cached` stores it under.
    pub fn synth_key(&self, target: &Mat4) -> (SynthKey, u64) {
        let key = SynthKey {
            coord: quantize_coord(kak_vector(target)),
            basis_id: self.basis_id(),
        };
        (key, mat4_fingerprint(target))
    }

    /// Decomposes `target` through a shared cache: returns the stored
    /// result on a hit, otherwise synthesizes and stores.
    ///
    /// Because the decomposer's restart RNG is deterministic, the cached
    /// and uncached paths return bit-identical circuits.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisFailed`] exactly as [`Decomposer::decompose`]
    /// does. Failures are not cached.
    pub fn decompose_cached(
        &self,
        target: &Mat4,
        cache: &dyn SynthCache,
    ) -> Result<Synthesized2Q, SynthesisFailed> {
        let (key, fp) = self.synth_key(target);
        cache.get_or_compute(key, fp, &mut || self.decompose(target))
    }
}

/// Recovers the guard from a poisoned lock. The cache allows it: its
/// updates are plain map and counter writes that never panic
/// mid-mutation, so a panic elsewhere never leaves the state half-updated.
fn relock<T>(r: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

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

/// A thread-safe LRU synthesis cache, shared by every lowering that holds
/// it (all of a compilation service's workers, say). See the module
/// documentation for its locking and single-flight misses.
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

    /// The capacity of a [`Default`] cache, and of a compilation
    /// service's cache unless its configuration says otherwise.
    pub const DEFAULT_CAPACITY: usize = 4096;

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

impl Default for SharedSynthCache {
    /// A cache of [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY) entries.
    fn default() -> Self {
        SharedSynthCache::new(Self::DEFAULT_CAPACITY)
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Minimal conformant cache for exercising the trait contract.
    #[derive(Default)]
    struct MapCache {
        map: Mutex<HashMap<(SynthKey, u64), Synthesized2Q>>,
        hits: std::sync::atomic::AtomicUsize,
    }

    impl SynthCache for MapCache {
        fn lookup(&self, key: &SynthKey, target_fp: u64) -> Option<Synthesized2Q> {
            let found = self.map.lock().unwrap().get(&(*key, target_fp)).cloned();
            if found.is_some() {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            found
        }

        fn store(&self, key: SynthKey, target_fp: u64, value: &Synthesized2Q) {
            self.map
                .lock()
                .unwrap()
                .insert((key, target_fp), value.clone());
        }
    }

    fn bits(s: &Synthesized2Q) -> Vec<u64> {
        let mut out = vec![s.layers as u64];
        for (u, v) in &s.locals {
            for m in [u, v] {
                for r in 0..2 {
                    for c in 0..2 {
                        out.push(m.at(r, c).re.to_bits());
                        out.push(m.at(r, c).im.to_bits());
                    }
                }
            }
        }
        out.push(s.error.to_bits());
        out.push(s.phase.to_bits());
        out.push(s.trace_overlap.to_bits());
        out
    }

    #[test]
    fn cached_result_is_bit_identical_to_uncached() {
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        let cache = MapCache::default();
        let uncached = dec.decompose(&Mat4::cnot()).unwrap();
        let first = dec.decompose_cached(&Mat4::cnot(), &cache).unwrap();
        let second = dec.decompose_cached(&Mat4::cnot(), &cache).unwrap();
        assert_eq!(bits(&uncached), bits(&first), "miss path differs");
        assert_eq!(bits(&uncached), bits(&second), "hit path differs");
        assert_eq!(cache.hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn locally_equivalent_targets_do_not_collide() {
        use nsb_math::haar_su2;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        let dec = Decomposer::new(Mat4::b_gate());
        let cache = MapCache::default();
        let a = Mat4::cnot();
        // Same Cartan class as CNOT, different matrix.
        let b = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng)) * Mat4::cnot();
        let (ka, fa) = dec.synth_key(&a);
        let (kb, fb) = dec.synth_key(&b);
        assert_eq!(ka, kb, "locally equivalent targets share a key");
        assert_ne!(fa, fb, "but fingerprints must differ");
        let sa = dec.decompose_cached(&a, &cache).unwrap();
        let sb = dec.decompose_cached(&b, &cache).unwrap();
        // The colliding entry must NOT be served for the other target.
        assert_eq!(cache.hits.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert!(sa.error < 1e-7 && sb.error < 1e-7);
        let ra = sa.unitary_with_phase(&vec![Mat4::b_gate(); sa.layers]);
        let rb = sb.unitary_with_phase(&vec![Mat4::b_gate(); sb.layers]);
        assert!(ra.approx_eq(&a, 1e-5));
        assert!(rb.approx_eq(&b, 1e-5));
    }

    #[test]
    fn distinct_angles_get_distinct_keys() {
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        let (a, _) = dec.synth_key(&Mat4::cphase(0.5));
        let (b, _) = dec.synth_key(&Mat4::cphase(0.5 + 1e-4));
        assert_ne!(a, b);
    }

    #[test]
    fn stable_hasher_matches_reference_fnv1a() {
        // Reference value computed by hand for b"nsb": FNV-1a 64.
        let mut h = StableHasher::new();
        h.write(b"nsb");
        let mut expect: u64 = 0xcbf2_9ce4_8422_2325;
        for b in b"nsb" {
            expect = (expect ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), expect);
        // Integer writes are little-endian byte writes.
        let mut a = StableHasher::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = StableHasher::new();
        b.write(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fingerprints_are_process_independent_constants() {
        // Pin the fingerprint of a well-known gate: if this value ever
        // changes, persisted snapshots from older builds stop matching
        // and the store format version must be bumped.
        assert_eq!(
            mat4_fingerprint(&Mat4::cnot()),
            mat4_fingerprint(&Mat4::cnot())
        );
        let a = mat4_fingerprint(&Mat4::sqrt_iswap());
        let b = mat4_fingerprint(&Mat4::sqrt_iswap());
        assert_eq!(a, b);
        assert_ne!(
            mat4_fingerprint(&Mat4::cnot()),
            mat4_fingerprint(&Mat4::swap())
        );
    }

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
