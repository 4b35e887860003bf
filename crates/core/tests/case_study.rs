//! Pins the paper's 10x10 case-study device (180 edges, three levels per
//! mode): its calibration hash, a full-bit digest of every selected basis
//! and the f64 bits of the three Table I rows. The build takes several
//! seconds even in release mode, so the test is ignored by default:
//!
//! ```text
//! cargo test --release -p nsb-core --test case_study -- --ignored --nocapture
//! ```

#[path = "../../device/tests/common/digest.rs"]
mod digest;

use nsb_core::device::{BasisStrategy, Table1Row};
use nsb_core::experiments::build_case_study_device;
use std::time::Instant;

/// `Table1Row` fields in declaration order, as f64 bits.
fn row_bits(r: &Table1Row) -> [u64; 6] {
    [
        r.basis_duration,
        r.basis_fidelity,
        r.swap_duration,
        r.swap_fidelity,
        r.cnot_duration,
        r.cnot_fidelity,
    ]
    .map(f64::to_bits)
}

/// Table I rows (Baseline, Criterion 1, Criterion 2) of the seed-2022
/// device.
const TABLE1_BITS: [[u64; 6]; 3] = [
    [
        0x4060_07bb_bbbb_bbb4,
        0x3fef_f044_5953_c28f,
        0x407e_9519_07f6_e5c7,
        0x3fef_c43d_2e52_4471,
        0x4076_53b6_0b60_b603,
        0x3fef_d44c_caa2_eabd,
    ],
    [
        0x4031_4026_3ab5_96d7,
        0x3fef_fde1_74ba_71d8,
        0x4060_780e_5604_1895,
        0x3fef_efd5_8130_ec32,
        0x405a_2794_237f_a89c,
        0x3fef_f328_ddbc_d396,
    ],
    [
        0x4032_0841_8937_4bbd,
        0x3fef_fdc8_e07a_74a3,
        0x4060_c318_9374_bc6b,
        0x3fef_ef8b_f4c5_fe5d,
        0x4058_0420_c49b_a5df,
        0x3fef_f435_497a_53c9,
    ],
];

#[test]
#[ignore = "builds the 180-edge case-study device; run with --release -- --ignored"]
fn case_study_device_bits_are_pinned() {
    let start = Instant::now();
    let device = build_case_study_device(2022).expect("case-study device");
    println!(
        "10x10 case-study build: {:.2} s",
        start.elapsed().as_secs_f64()
    );
    assert_eq!(device.edges().len(), 180);
    let (hash, digest) = (device.calibration_hash(), digest::device_digest(&device));
    println!("hash {hash:#018x}, digest {digest:#018x}");
    for strategy in BasisStrategy::ALL {
        let row = device.table1_row(strategy);
        println!("{strategy}: {row:?} {:#018x?}", row_bits(&row));
    }
    assert_eq!(hash, 0x551b_d81f_4378_83b3);
    assert_eq!(digest, 0x7e14_8ac6_baea_2941);
    for (strategy, bits) in BasisStrategy::ALL.into_iter().zip(TABLE1_BITS) {
        assert_eq!(row_bits(&device.table1_row(strategy)), bits, "{strategy}");
    }
}
