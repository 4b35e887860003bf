//! The two fixed verifier batteries the pipeline runs.

use crate::checks::{
    BasisLegality, ConnectivityLegality, ScheduleSanity, UnitaryEquivalence, WeylCanonicality,
};
use crate::report::VerifyReport;
use crate::target::VerifyTarget;

/// One of the two fixed batteries of checks over a compiled program.
///
/// Every check reports *every* violation it finds, so a single run gives
/// the full picture; the target is never mutated.
#[derive(Clone, Copy, Debug)]
pub struct VerifierSuite {
    equivalence: bool,
}

impl VerifierSuite {
    /// The full battery: basis legality, connectivity, Weyl canonicality,
    /// schedule sanity and unitary equivalence.
    pub fn standard() -> Self {
        VerifierSuite { equivalence: true }
    }

    /// The four purely structural checks (no statevector simulation) —
    /// cheap enough to run on every compilation of any size.
    pub fn structural() -> Self {
        VerifierSuite { equivalence: false }
    }

    /// Runs the suite's checks over the target, in the order listed above,
    /// and collects one report.
    pub fn run(&self, target: &VerifyTarget) -> VerifyReport {
        let mut report = VerifyReport::default();
        BasisLegality::check(target, &mut report);
        ConnectivityLegality::check(target, &mut report);
        WeylCanonicality::check(target, &mut report);
        ScheduleSanity::check(target, &mut report);
        if self.equivalence {
            UnitaryEquivalence::check(target, &mut report);
        }
        report
    }
}
