//! The binary snapshot format: header and record encoding.
//!
//! Everything is little-endian and byte-exact; see `crates/store/README.md`
//! for the authoritative layout. Floating-point values are stored as raw
//! IEEE-754 bit patterns (`f64::to_bits`), so a round trip through the
//! store is bit-identical — the property the whole warm-start design
//! rests on.

use nsb_math::{Complex64, Mat2};
use nsb_synth::{StableHasher, SynthKey, Synthesized2Q};
use std::hash::Hasher;

/// File magic: identifies an nsb-store snapshot ("NSBSTOR1").
pub const MAGIC: [u8; 8] = *b"NSBSTOR1";

/// Current format version. Bumped whenever the header, record layout, any
/// persisted fingerprint algorithm or the synthesized outputs themselves
/// change; loaders refuse other versions (see the README compat policy).
///
/// Version 2: the synthesis optimizer's Levenberg–Marquardt polish
/// changed the stored locals, so version-1 entries would break
/// fresh-vs-cached bit-identity.
pub const FORMAT_VERSION: u32 = 2;

/// Header length in bytes: magic + version + reserved + calibration hash.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// Upper bound on one record's payload length. Real payloads are a few
/// hundred bytes (`73 + 128 * n_locals`); anything larger means the
/// length field itself is corrupt and resynchronization is hopeless.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 20;

/// One persisted cache entry: the shared-cache key, the full target
/// fingerprint, and the synthesized circuit.
#[derive(Clone, Debug)]
pub struct StoredEntry {
    /// Shared synthesis-cache key (quantized coordinate, basis id, tag).
    pub key: SynthKey,
    /// Full target fingerprint the entry was stored under.
    pub target_fp: u64,
    /// The synthesized circuit.
    pub value: Synthesized2Q,
}

/// FNV-1a checksum of a byte slice, as appended to every record.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(payload);
    h.finish()
}

/// Encodes the fixed-size file header.
pub fn encode_header(calibration_hash: u64) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[0..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // Bytes 12..16 are reserved (zero) for future flags.
    out[16..24].copy_from_slice(&calibration_hash.to_le_bytes());
    out
}

/// Why a header failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeaderError {
    /// The file is shorter than a header.
    Truncated,
    /// The magic bytes do not match [`MAGIC`].
    BadMagic,
    /// The version field names a format this build cannot read.
    UnsupportedVersion(u32),
}

/// Decodes and validates the header, returning the calibration hash.
pub fn decode_header(bytes: &[u8]) -> Result<u64, HeaderError> {
    if bytes.len() < HEADER_LEN {
        return Err(HeaderError::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(HeaderError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(HeaderError::UnsupportedVersion(version));
    }
    let mut hash = [0u8; 8];
    hash.copy_from_slice(&bytes[16..24]);
    Ok(u64::from_le_bytes(hash))
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

fn push_mat2(out: &mut Vec<u8>, m: &Mat2) {
    for r in 0..2 {
        for c in 0..2 {
            let e = m.at(r, c);
            push_f64(out, e.re);
            push_f64(out, e.im);
        }
    }
}

/// Serializes one entry's record payload (without length or checksum).
pub fn encode_payload(entry: &StoredEntry) -> Vec<u8> {
    let n_locals = entry.value.locals.len();
    let mut out = Vec::with_capacity(73 + 128 * n_locals);
    for c in entry.key.coord {
        out.extend_from_slice(&c.to_le_bytes());
    }
    push_u64(&mut out, entry.key.basis_id);
    out.push(entry.key.tag);
    push_u64(&mut out, entry.target_fp);
    out.extend_from_slice(&(entry.value.layers as u32).to_le_bytes());
    out.extend_from_slice(&(n_locals as u32).to_le_bytes());
    for (u, v) in &entry.value.locals {
        push_mat2(&mut out, u);
        push_mat2(&mut out, v);
    }
    push_f64(&mut out, entry.value.trace_overlap);
    push_f64(&mut out, entry.value.error);
    push_f64(&mut out, entry.value.phase);
    out
}

/// Appends one full record (length, payload, checksum) to `out`.
pub fn encode_record(out: &mut Vec<u8>, entry: &StoredEntry) {
    let payload = encode_payload(entry);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let sum = checksum(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// A little-endian cursor over a payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.take(4)?;
        Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Some(u64::from_le_bytes(b))
    }

    fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn mat2(&mut self) -> Option<Mat2> {
        let mut e = [[Complex64::ZERO; 2]; 2];
        for row in &mut e {
            for entry in row.iter_mut() {
                let re = self.f64()?;
                let im = self.f64()?;
                *entry = Complex64::new(re, im);
            }
        }
        Some(Mat2::from_rows(e))
    }
}

/// Deserializes a record payload. `None` means the payload is internally
/// inconsistent (truncated fields, impossible counts) even though its
/// checksum matched — treated as corruption by the loader.
pub fn decode_payload(payload: &[u8]) -> Option<StoredEntry> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let coord = [r.i64()?, r.i64()?, r.i64()?];
    let basis_id = r.u64()?;
    let tag = r.u8()?;
    let target_fp = r.u64()?;
    let layers = r.u32()? as usize;
    let n_locals = r.u32()? as usize;
    // The ansatz invariant: one local pair more than entangling layers.
    if n_locals != layers + 1 {
        return None;
    }
    let mut locals = Vec::with_capacity(n_locals);
    for _ in 0..n_locals {
        let u = r.mat2()?;
        let v = r.mat2()?;
        locals.push((u, v));
    }
    let trace_overlap = r.f64()?;
    let error = r.f64()?;
    let phase = r.f64()?;
    if r.pos != payload.len() {
        return None;
    }
    Some(StoredEntry {
        key: SynthKey {
            coord,
            basis_id,
            tag,
        },
        target_fp,
        value: Synthesized2Q {
            locals,
            layers,
            trace_overlap,
            error,
            phase,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::Mat4;
    use nsb_synth::Decomposer;

    fn sample_entry() -> StoredEntry {
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        let value = dec.decompose(&Mat4::cnot()).expect("synthesize");
        let (key, target_fp) = dec.synth_key(&Mat4::cnot(), 1);
        StoredEntry {
            key,
            target_fp,
            value,
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
        out.extend([
            s.trace_overlap.to_bits(),
            s.error.to_bits(),
            s.phase.to_bits(),
        ]);
        out
    }

    #[test]
    fn payload_round_trips_bit_identically() {
        let entry = sample_entry();
        let payload = encode_payload(&entry);
        let back = decode_payload(&payload).expect("decode");
        assert_eq!(back.key, entry.key);
        assert_eq!(back.target_fp, entry.target_fp);
        assert_eq!(bits(&back.value), bits(&entry.value));
    }

    #[test]
    fn header_round_trips_and_rejects_garbage() {
        let h = encode_header(0xdead_beef_1234_5678);
        assert_eq!(decode_header(&h), Ok(0xdead_beef_1234_5678));
        assert_eq!(decode_header(&h[..10]), Err(HeaderError::Truncated));
        let mut bad = h;
        bad[0] = b'X';
        assert_eq!(decode_header(&bad), Err(HeaderError::BadMagic));
        let mut newer = encode_header(1);
        newer[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_header(&newer),
            Err(HeaderError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn header_carries_version_2_and_rejects_version_1() {
        let h = encode_header(7);
        assert_eq!(FORMAT_VERSION, 2);
        assert_eq!(h[8..12], 2u32.to_le_bytes());
        // Version-1 snapshots hold locals from the old optimizer polish.
        let mut v1 = h;
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode_header(&v1), Err(HeaderError::UnsupportedVersion(1)));
    }

    #[test]
    fn truncated_payload_decodes_to_none() {
        let payload = encode_payload(&sample_entry());
        for cut in [0, 10, payload.len() - 1] {
            assert!(decode_payload(&payload[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage is also rejected.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_payload(&long).is_none());
    }

    #[test]
    fn inconsistent_local_count_is_rejected() {
        let entry = sample_entry();
        let mut payload = encode_payload(&entry);
        // Corrupt n_locals (offset: 3*8 coord + 8 basis + 1 tag + 8 fp + 4 layers).
        let off = 24 + 8 + 1 + 8 + 4;
        payload[off..off + 4].copy_from_slice(&77u32.to_le_bytes());
        assert!(decode_payload(&payload).is_none());
    }
}
