//! Store robustness: bit-identical round trips, truncation and
//! corruption recovery, atomic replacement.

use nsb_math::Mat4;
use nsb_store::{LoadReport, SnapshotStore, StoredEntry, HEADER_LEN};
use nsb_synth::Decomposer;

fn temp_store(label: &str) -> SnapshotStore {
    let dir = std::env::temp_dir().join(format!("nsb-store-it-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::open(dir).expect("open store")
}

fn entries() -> Vec<StoredEntry> {
    let dec = Decomposer::new(Mat4::sqrt_iswap());
    let targets = [Mat4::cnot(), Mat4::swap(), Mat4::cphase(0.7)];
    targets
        .iter()
        .map(|t| {
            let value = dec.decompose(t).expect("synthesize");
            let (key, target_fp) = dec.synth_key(t);
            StoredEntry {
                key,
                target_fp,
                value,
            }
        })
        .collect()
}

fn value_bits(e: &StoredEntry) -> Vec<u64> {
    let mut out = vec![
        e.key.coord[0] as u64,
        e.key.coord[1] as u64,
        e.key.coord[2] as u64,
        e.key.basis_id,
        e.target_fp,
        e.value.layers as u64,
    ];
    for (u, v) in &e.value.locals {
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
        e.value.trace_overlap.to_bits(),
        e.value.error.to_bits(),
        e.value.phase.to_bits(),
    ]);
    out
}

#[test]
fn round_trip_is_bit_identical() {
    let store = temp_store("bits");
    let original = entries();
    store.save(11, &original).expect("save");
    let loaded = store.load(11).expect("load");
    assert_eq!(loaded.entries.len(), original.len());
    for (a, b) in original.iter().zip(&loaded.entries) {
        assert_eq!(value_bits(a), value_bits(b), "entry changed on disk");
    }
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn truncated_file_recovers_leading_records() {
    let store = temp_store("truncate");
    let original = entries();
    store.save(5, &original).expect("save");
    let path = store.path_for(5);
    let bytes = std::fs::read(&path).expect("read");
    // Cut the file in the middle of the last record.
    std::fs::write(&path, &bytes[..bytes.len() - 20]).expect("truncate");
    let outcome = store.load(5).expect("load");
    assert_eq!(
        outcome.report,
        LoadReport {
            loaded: original.len() - 1,
            skipped: 1,
            found: true
        }
    );
    assert_eq!(outcome.entries.len(), original.len() - 1);
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn corrupted_record_is_skipped_others_survive() {
    let store = temp_store("corrupt");
    let original = entries();
    store.save(6, &original).expect("save");
    let path = store.path_for(6);
    let mut bytes = std::fs::read(&path).expect("read");
    // Flip one byte inside the first record's payload (skip header + the
    // 4-byte length field); its checksum no longer matches.
    let victim = HEADER_LEN + 4 + 10;
    bytes[victim] ^= 0xff;
    std::fs::write(&path, &bytes).expect("write corrupted");
    let outcome = store.load(6).expect("load");
    assert_eq!(outcome.report.skipped, 1, "{:?}", outcome.report);
    assert_eq!(outcome.report.loaded, original.len() - 1);
    // The surviving entries are exactly the untouched ones, bit for bit.
    for (a, b) in original[1..].iter().zip(&outcome.entries) {
        assert_eq!(value_bits(a), value_bits(b));
    }
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn empty_and_headerless_files_load_as_damage_not_panic() {
    let store = temp_store("stub");
    std::fs::write(store.path_for(3), b"").expect("write empty");
    let outcome = store.load(3).expect("load");
    assert_eq!(outcome.report.loaded, 0);
    assert_eq!(outcome.report.skipped, 1);
    assert!(outcome.report.found);
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn save_overwrites_atomically() {
    let store = temp_store("atomic");
    let all = entries();
    store.save(8, &all).expect("save full");
    store.save(8, &all[..1]).expect("save smaller");
    let outcome = store.load(8).expect("load");
    assert_eq!(outcome.report.loaded, 1, "old tail must not survive");
    // No temporary files left behind.
    let leftovers: Vec<_> = std::fs::read_dir(store.dir())
        .expect("read dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn concurrent_saves_of_one_calibration_all_succeed() {
    // Clones of one store saving the same calibration from several threads
    // must not share a temporary file. The barrier starts every round's
    // four saves together.
    let store = temp_store("concurrent");
    let all = entries();
    let start = std::sync::Barrier::new(4);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (store, all, start) = (store.clone(), &all, &start);
                scope.spawn(move || {
                    (0..20)
                        .filter_map(|_| {
                            start.wait();
                            store.save(9, all).err().map(|e| e.to_string())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("saver thread"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} of 80 saves failed, first: {}",
        failures.len(),
        failures[0]
    );
    let outcome = store.load(9).expect("load");
    assert_eq!(outcome.report.skipped, 0);
    assert_eq!(outcome.report.loaded, all.len());
    let _ = std::fs::remove_dir_all(store.dir());
}
