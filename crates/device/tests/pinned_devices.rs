//! Pins the bits of two small device builds: the 4x3 `fast_test` device
//! (two levels per mode) and a 3x2 `DeviceConfig::default()` device
//! (three levels, the case study's model).
//!
//! Bring-up is deterministic, so every number below is a constant. A
//! change to the pulse simulator, the zero-ZZ search, basis selection or
//! the SWAP/CNOT syntheses that moves any bit fails here; a deliberate
//! change re-records the constants (and, when the calibration hash moves,
//! persisted snapshots stop matching the device).

#[path = "common/digest.rs"]
mod digest;

use digest::device_digest;
use nsb_device::{Device, DeviceConfig};

#[test]
fn fast_test_device_bits_are_pinned() {
    let device = Device::build(4, 3, DeviceConfig::fast_test()).expect("4x3 device");
    assert_eq!(device.edges().len(), 17);
    let (hash, digest) = (device.calibration_hash(), device_digest(&device));
    println!("fast_test 4x3: hash {hash:#018x}, digest {digest:#018x}");
    assert_eq!(hash, 0x0792_ec10_a6f6_6450);
    assert_eq!(digest, 0xd05a_efff_568d_8914);
}

#[test]
fn three_level_device_bits_are_pinned() {
    let device = Device::build(3, 2, DeviceConfig::default()).expect("3x2 device");
    assert_eq!(device.edges().len(), 7);
    let (hash, digest) = (device.calibration_hash(), device_digest(&device));
    println!("default 3x2: hash {hash:#018x}, digest {digest:#018x}");
    assert_eq!(hash, 0x0711_9f79_bc52_8358);
    assert_eq!(digest, 0xbca8_8a19_b408_e106);
}
