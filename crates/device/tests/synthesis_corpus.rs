//! The synthesis corpus: every basis gate of the 4x3 `fast_test` device
//! (17 edges x 3 strategies) against 13 targets, 663 syntheses.
//!
//! The golden layer counts were recorded with the search that polished
//! only the best of all restarts. No target may need more layers than
//! that, no synthesis may fail, and every result must rebuild its target.
//! The run takes about 40 s in release mode, so it is ignored by default:
//!
//! ```text
//! cargo test --release -p nsb-device --test synthesis_corpus -- --ignored
//! ```

use nsb_device::{BasisStrategy, Device, DeviceConfig};
use nsb_math::{haar_u4, Mat4};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Golden layer counts, one row per edge in `Device::edges` order. Each
/// row holds one group per strategy (Baseline, Criterion 1, Criterion 2)
/// with one digit per target of [`targets`], in order.
const GOLDEN_LAYERS: [&str; 17] = [
    "3334423444233 3333222242223 3223422242222",
    "3334423444233 3223422242222 3223422242222",
    "3334423444233 3223222242223 3223422242222",
    "3334423444233 3223222242222 3223222242222",
    "3334423444233 3333422242223 3223322242222",
    "3334423444233 3223422242222 3223422242222",
    "3334423444233 3223422242222 3223422242222",
    "3334423444233 3223422242222 3223422242222",
    "3334423444233 3333422242223 3223422242222",
    "3334423444233 3223222242222 3223222242222",
    "3334423444233 3333222242223 3223422242222",
    "3334423444233 3223422242222 3223422242222",
    "3334423444233 3223222242222 3223222242222",
    "3334423444233 3333222242222 3223422242222",
    "3334423444233 3223422242222 3223422242222",
    "3334423444233 3223222242222 3223422242222",
    "3334423444233 3333222242223 3223222242222",
];

/// Largest accepted `||e^{i phi} W - T||_F` of a synthesis against its
/// target.
const MAX_RECONSTRUCTION_ERROR: f64 = 1e-5;

/// SWAP, CNOT, CZ, iSWAP; Rzz at four angles; CPhase at four angles; one
/// Haar-random target.
fn targets() -> Vec<Mat4> {
    let mut targets = vec![Mat4::swap(), Mat4::cnot(), Mat4::cz(), Mat4::iswap()];
    targets.extend([0.3, 0.9, 1.7, 2.6].map(Mat4::rzz));
    targets.extend([0.4, 1.1, 2.0, 2.9].map(Mat4::cphase));
    targets.push(haar_u4(&mut StdRng::seed_from_u64(99)));
    targets
}

#[test]
#[ignore = "about 40 s in release mode; run with --release -- --ignored"]
fn corpus_synthesizes_within_golden_layer_counts() {
    let device = Device::build(4, 3, DeviceConfig::fast_test()).expect("4x3 device");
    let targets = targets();
    assert_eq!(device.edges().len(), GOLDEN_LAYERS.len());
    let (mut failures, mut layers, mut golden_layers) = (Vec::new(), 0, 0);
    let mut worst = (0.0f64, String::new());
    for (e, (edge, row)) in device.edges().iter().zip(GOLDEN_LAYERS).enumerate() {
        let groups: Vec<&str> = row.split(' ').collect();
        assert_eq!(groups.len(), BasisStrategy::ALL.len(), "edge {e}");
        for (strategy, group) in BasisStrategy::ALL.into_iter().zip(groups) {
            let basis = edge.basis(strategy);
            assert_eq!(group.len(), targets.len(), "edge {e} {strategy}");
            for ((k, target), golden) in targets.iter().enumerate().zip(group.bytes()) {
                let golden = usize::from(golden - b'0');
                golden_layers += golden;
                let what = format!("edge {e} {:?} {strategy} target {k}", edge.qubits);
                let Ok(s) = basis.decomposer.decompose(target) else {
                    failures.push(what);
                    continue;
                };
                assert!(
                    s.layers <= golden,
                    "{what}: {} layers, golden {golden}",
                    s.layers
                );
                layers += s.layers;
                let rebuilt = s.unitary_with_phase(&vec![*basis.gate; s.layers]);
                let err = (rebuilt - *target).norm();
                if err > worst.0 {
                    worst = (err, what);
                }
            }
        }
    }
    println!(
        "{} syntheses, {} failed, {layers} layers (golden {golden_layers}), worst error {:.3e} at {}",
        device.edges().len() * BasisStrategy::ALL.len() * targets.len(),
        failures.len(),
        worst.0,
        worst.1
    );
    assert!(failures.is_empty(), "failed syntheses: {failures:?}");
    assert!(
        worst.0 <= MAX_RECONSTRUCTION_ERROR,
        "worst reconstruction error {:.3e} at {}",
        worst.0,
        worst.1
    );
}
