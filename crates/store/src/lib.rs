//! # nsb-store
//!
//! Persistent storage for shared synthesis-cache entries: a versioned,
//! checksummed on-disk snapshot format, so a fresh compilation service
//! can **warm-start** from the decompositions a previous process already
//! paid for.
//!
//! The paper's per-qubit basis choice makes every synthesis result
//! device- and calibration-specific: a decomposition is only reusable on
//! a device whose basis gates are numerically the same. Snapshots are
//! therefore keyed by a stable *calibration hash*
//! (`Device::calibration_hash` in `nsb-device`) — one snapshot file per
//! calibration — and each record carries the full cache key (quantized
//! Cartan coordinate, basis-gate fingerprint) plus the full
//! target fingerprint: the pair the in-memory [`nsb_synth::SynthCache`]
//! holds one entry per. All floating-point data round
//! trips as raw IEEE-754 bits, so a warm-started cache serves results
//! **bit-identical** to the process that wrote them.
//!
//! Robustness properties:
//!
//! * **Atomic saves** — snapshots are written to a temporary file and
//!   renamed into place; readers and crashes never see partial files.
//! * **Corruption tolerance** — every record is length-prefixed and
//!   checksummed (FNV-1a); damaged records are skipped and counted, the
//!   rest of the snapshot still loads ([`LoadReport`]).
//! * **Versioning** — a magic + version header; incompatible versions
//!   are refused rather than misread (see `README.md` for the policy).
//! * **Background flush** — [`PeriodicFlusher`] drives periodic saves
//!   from a live service without blocking its workers.
//!
//! ```
//! use nsb_store::{SnapshotStore, StoredEntry};
//! use nsb_math::Mat4;
//! use nsb_synth::Decomposer;
//!
//! let dir = std::env::temp_dir().join(format!("nsb-store-doc-{}", std::process::id()));
//! let store = SnapshotStore::open(&dir).unwrap();
//! let dec = Decomposer::new(Mat4::sqrt_iswap());
//! let value = dec.decompose(&Mat4::cnot()).unwrap();
//! let (key, target_fp) = dec.synth_key(&Mat4::cnot());
//! store.save(1, &[StoredEntry { key, target_fp, value }]).unwrap();
//! let outcome = store.load(1).unwrap();
//! assert_eq!(outcome.report.loaded, 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp
    )
)]

mod flush;
mod format;
mod snapshot;

pub use flush::PeriodicFlusher;
pub use format::{StoredEntry, FORMAT_VERSION, HEADER_LEN};
pub use snapshot::{LoadOutcome, LoadReport, SaveReport, SnapshotStore, StoreError};
