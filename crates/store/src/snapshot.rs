//! The on-disk snapshot store: one checksummed snapshot file per
//! calibration hash, atomic replacement, corruption-tolerant loading.

use crate::format::{
    checksum, decode_header, decode_payload, encode_header, encode_record, HeaderError,
    StoredEntry, HEADER_LEN, MAX_PAYLOAD_LEN,
};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a store operation failed.
///
/// All variants carry owned strings rather than `std::io::Error` so the
/// type stays `Clone` (service errors embedding it are cloned across
/// worker channels).
#[derive(Clone, Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The operation that failed (`"create dir"`, `"write"`, ...).
        op: &'static str,
        /// The operating system's error message.
        reason: String,
    },
    /// The file exists but is not an nsb-store snapshot.
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// The version the file declares.
        found: u32,
    },
    /// The snapshot belongs to a different device calibration.
    CalibrationMismatch {
        /// The offending file.
        path: PathBuf,
        /// The hash the caller asked for.
        expected: u64,
        /// The hash in the file's header.
        found: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, op, reason } => {
                write!(f, "store {op} failed for {}: {reason}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "{} is not an nsb-store snapshot", path.display())
            }
            StoreError::UnsupportedVersion { path, found } => write!(
                f,
                "{} uses unsupported snapshot format version {found}",
                path.display()
            ),
            StoreError::CalibrationMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{} holds calibration {found:#018x}, expected {expected:#018x}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Outcome of a snapshot load: loaded entries plus recovery counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records decoded successfully.
    pub loaded: usize,
    /// Records skipped due to checksum mismatch or inconsistent payload;
    /// a corrupt length field or mid-record truncation also counts one
    /// skipped record (and ends the scan, since resynchronization is
    /// impossible in a length-prefixed stream).
    pub skipped: usize,
    /// Whether a snapshot file existed at all.
    pub found: bool,
}

/// Entries plus the [`LoadReport`] describing how they were recovered.
#[derive(Clone, Debug, Default)]
pub struct LoadOutcome {
    /// Every record that survived validation.
    pub entries: Vec<StoredEntry>,
    /// Load statistics.
    pub report: LoadReport,
}

/// Outcome of a snapshot save.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SaveReport {
    /// Records written.
    pub entries: usize,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// A directory of synthesis-cache snapshots, one file per calibration.
///
/// Snapshot files are named `synth-<calibration hash, 16 hex digits>.nsbstore`.
/// Saves are atomic: the new snapshot is written to a temporary file in
/// the same directory and `rename`d over the old one, so a reader (or a
/// crash) never observes a half-written snapshot.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::Io {
            path: dir.clone(),
            op: "create dir",
            reason: e.to_string(),
        })?;
        Ok(SnapshotStore { dir })
    }

    /// The directory snapshots live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot file path for a calibration hash.
    pub fn path_for(&self, calibration_hash: u64) -> PathBuf {
        self.dir
            .join(format!("synth-{calibration_hash:016x}.nsbstore"))
    }

    /// Writes a snapshot for `calibration_hash`, atomically replacing any
    /// previous one.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the temporary file cannot be written or
    /// renamed into place.
    pub fn save(
        &self,
        calibration_hash: u64,
        entries: &[StoredEntry],
    ) -> Result<SaveReport, StoreError> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + entries.len() * 600);
        bytes.extend_from_slice(&encode_header(calibration_hash));
        for entry in entries {
            encode_record(&mut bytes, entry);
        }
        let target = self.path_for(calibration_hash);
        // Unique per call: clones of a store in one process may save the
        // same calibration concurrently, and each needs its own temp file.
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".synth-{calibration_hash:016x}.tmp-{}-{}",
            std::process::id(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed)
        ));
        let io_err = |path: &Path, op: &'static str, e: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            op,
            reason: e.to_string(),
        };
        let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, "create", e))?;
        file.write_all(&bytes)
            .and_then(|()| file.sync_all())
            .map_err(|e| {
                let _ = fs::remove_file(&tmp);
                io_err(&tmp, "write", e)
            })?;
        drop(file);
        fs::rename(&tmp, &target).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err(&target, "rename", e)
        })?;
        Ok(SaveReport {
            entries: entries.len(),
            bytes: bytes.len() as u64,
        })
    }

    /// Loads the snapshot for `calibration_hash`.
    ///
    /// A missing file is not an error: the outcome is empty with
    /// `report.found == false` (there is simply nothing to warm-start
    /// from). Corrupt records are skipped and counted in the report;
    /// loading never fails on record-level damage.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on unreadable files, [`StoreError::BadMagic`] /
    /// [`StoreError::UnsupportedVersion`] on foreign or incompatible
    /// files, [`StoreError::CalibrationMismatch`] when the file's header
    /// names a different calibration (possible only if the file was
    /// renamed by hand).
    pub fn load(&self, calibration_hash: u64) -> Result<LoadOutcome, StoreError> {
        let path = self.path_for(calibration_hash);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(LoadOutcome::default());
            }
            Err(e) => {
                return Err(StoreError::Io {
                    path,
                    op: "read",
                    reason: e.to_string(),
                })
            }
        };
        let stored_hash = match decode_header(&bytes) {
            Ok(h) => h,
            Err(HeaderError::Truncated) => {
                // A file shorter than a header carries no records at all;
                // treat it like damage, not like a foreign file.
                return Ok(LoadOutcome {
                    entries: Vec::new(),
                    report: LoadReport {
                        loaded: 0,
                        skipped: 1,
                        found: true,
                    },
                });
            }
            Err(HeaderError::BadMagic) => return Err(StoreError::BadMagic { path }),
            Err(HeaderError::UnsupportedVersion(found)) => {
                return Err(StoreError::UnsupportedVersion { path, found })
            }
        };
        if stored_hash != calibration_hash {
            return Err(StoreError::CalibrationMismatch {
                path,
                expected: calibration_hash,
                found: stored_hash,
            });
        }
        let mut outcome = LoadOutcome::default();
        outcome.report.found = true;
        let mut pos = HEADER_LEN;
        while pos < bytes.len() {
            // Record = len(u32) | payload | checksum(u64).
            if pos + 4 > bytes.len() {
                outcome.report.skipped += 1;
                break;
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
            if len > MAX_PAYLOAD_LEN {
                // The length field itself is corrupt; everything after it
                // is unrecoverable.
                outcome.report.skipped += 1;
                break;
            }
            let payload_start = pos + 4;
            let payload_end = payload_start + len as usize;
            let record_end = payload_end + 8;
            if record_end > bytes.len() {
                outcome.report.skipped += 1;
                break;
            }
            let payload = &bytes[payload_start..payload_end];
            let mut sum = [0u8; 8];
            sum.copy_from_slice(&bytes[payload_end..record_end]);
            let ok = u64::from_le_bytes(sum) == checksum(payload);
            match (ok, if ok { decode_payload(payload) } else { None }) {
                (true, Some(entry)) => {
                    outcome.entries.push(entry);
                    outcome.report.loaded += 1;
                }
                _ => outcome.report.skipped += 1,
            }
            pos = record_end;
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsb_math::Mat4;
    use nsb_synth::Decomposer;

    fn sample_entries(n: usize) -> Vec<StoredEntry> {
        let dec = Decomposer::new(Mat4::sqrt_iswap());
        [Mat4::cnot(), Mat4::swap(), Mat4::cphase(0.7)][..n]
            .iter()
            .map(|target| {
                let value = dec.decompose(target).expect("synthesize");
                let (key, target_fp) = dec.synth_key(target);
                StoredEntry {
                    key,
                    target_fp,
                    value,
                }
            })
            .collect()
    }

    fn temp_store(label: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("nsb-store-unit-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).expect("open store")
    }

    #[test]
    fn save_load_round_trip() {
        let store = temp_store("roundtrip");
        let entries = sample_entries(3);
        let saved = store.save(7, &entries).expect("save");
        assert_eq!(saved.entries, 3);
        let outcome = store.load(7).expect("load");
        assert_eq!(outcome.report.loaded, 3);
        assert_eq!(outcome.report.skipped, 0);
        assert!(outcome.report.found);
        assert_eq!(outcome.entries.len(), 3);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_snapshot_is_empty_not_error() {
        let store = temp_store("missing");
        let outcome = store.load(42).expect("load");
        assert!(!outcome.report.found);
        assert!(outcome.entries.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn calibration_mismatch_is_detected() {
        let store = temp_store("mismatch");
        store.save(1, &sample_entries(1)).expect("save");
        // Simulate a hand-renamed file.
        fs::rename(store.path_for(1), store.path_for(2)).expect("rename");
        match store.load(2) {
            Err(StoreError::CalibrationMismatch {
                expected, found, ..
            }) => {
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn foreign_file_is_rejected() {
        let store = temp_store("foreign");
        fs::write(store.path_for(9), b"definitely not a snapshot").expect("write");
        assert!(matches!(store.load(9), Err(StoreError::BadMagic { .. })));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn io_failure_is_reported_with_path_and_op() {
        // Opening a store rooted under a regular file fails to create
        // the directory.
        let file = std::env::temp_dir().join(format!("nsb-store-flat-{}", std::process::id()));
        fs::write(&file, b"occupied").expect("write");
        let err = SnapshotStore::open(file.join("sub")).expect_err("open must fail");
        match &err {
            StoreError::Io { path, op, reason } => {
                assert!(path.ends_with("sub"), "{path:?}");
                assert!(!op.is_empty() && !reason.is_empty());
            }
            other => panic!("expected Io, got {other:?}"),
        }
        let _ = fs::remove_file(&file);
    }

    #[test]
    fn future_format_version_is_rejected() {
        let store = temp_store("version");
        let entries = sample_entries(1);
        store.save(11, &entries).expect("save");
        // Bump the version field in the header (bytes 8..12, after the
        // 8-byte magic) to a future format.
        let path = store.path_for(11);
        let mut bytes = fs::read(&path).expect("read");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, bytes).expect("rewrite");
        match store.load(11) {
            Err(StoreError::UnsupportedVersion { found, .. }) => {
                assert_eq!(found, u32::MAX);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }
}
