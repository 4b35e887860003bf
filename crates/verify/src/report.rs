//! Violations, reports and the verification level switch.

use std::fmt;

/// The kind of invariant a check found broken.
///
/// Each check in the standard suite reports one or two kinds, so a report
/// can be asserted on precisely in tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A two-qubit operation's unitary (or duration, or operand order) does
    /// not match the calibrated basis gate of the edge it acts on, or a
    /// local operation is not unitary.
    IllegalBasisGate,
    /// A two-qubit operation acts on a pair of qubits that is not coupled
    /// in the device topology.
    UncoupledPair,
    /// An operation addresses a qubit outside the device register.
    QubitOutOfRange,
    /// A two-qubit block's Cartan coordinate does not lie at the edge's
    /// calibrated canonical-chamber point (or is outside the chamber).
    NonCanonicalWeyl,
    /// The reported schedule disagrees with the one recomputed from the
    /// operation list (counts, busy times, duration or windows).
    ScheduleInconsistent,
    /// A qubit's active window exceeds the device's coherence time.
    CoherenceExceeded,
    /// The lowered program is not unitarily equivalent to its synthesis
    /// source within tolerance.
    UnitaryMismatch,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::IllegalBasisGate => "illegal-basis-gate",
            ViolationKind::UncoupledPair => "uncoupled-pair",
            ViolationKind::QubitOutOfRange => "qubit-out-of-range",
            ViolationKind::NonCanonicalWeyl => "non-canonical-weyl",
            ViolationKind::ScheduleInconsistent => "schedule-inconsistent",
            ViolationKind::CoherenceExceeded => "coherence-exceeded",
            ViolationKind::UnitaryMismatch => "unitary-mismatch",
        };
        write!(f, "{s}")
    }
}

/// One broken invariant, located as precisely as the check allows.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What was broken.
    pub kind: ViolationKind,
    /// The name of the check that found it, e.g. `"basis-legality"`.
    pub(crate) check: &'static str,
    /// Index into the verified operation list, when the violation is
    /// attributable to a single operation.
    pub op_index: Option<usize>,
    /// Qubits involved, when attributable.
    pub(crate) qubits: Vec<usize>,
    /// Human-readable detail.
    pub(crate) message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}]", self.check, self.kind)?;
        if let Some(i) = self.op_index {
            write!(f, " op {i}")?;
        }
        if !self.qubits.is_empty() {
            let qs: Vec<String> = self.qubits.iter().map(|q| format!("q{q}")).collect();
            write!(f, " on {}", qs.join(","))?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of running a [`VerifierSuite`](crate::VerifierSuite).
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Names of the checks that ran, in order.
    pub checks_run: Vec<&'static str>,
    /// All violations found, in check order.
    pub violations: Vec<Violation>,
    /// Checks that were skipped (with the reason), e.g. unitary
    /// equivalence on a device too large to simulate.
    pub skipped: Vec<(&'static str, String)>,
}

impl VerifyReport {
    /// True when no check reported a violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when at least one violation of `kind` was reported.
    pub fn has(&self, kind: ViolationKind) -> bool {
        self.violations.iter().any(|v| v.kind == kind)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verification: {} checks, {} violations",
            self.checks_run.len(),
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        for (name, why) in &self.skipped {
            write!(f, "\n  [{name}] skipped: {why}")?;
        }
        Ok(())
    }
}

/// When the pipeline runs its inter-pass verification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyLevel {
    /// Never verify.
    Off,
    /// Verify only in builds with debug assertions (the default): tests
    /// and debug builds pay the cost, release traffic does not.
    #[default]
    Debug,
    /// Always verify, including release builds — the mode a production
    /// service should run so no unverified circuit is ever returned.
    Full,
}

impl VerifyLevel {
    /// Whether verification actually runs in the current build.
    pub fn is_enabled(self) -> bool {
        match self {
            VerifyLevel::Off => false,
            VerifyLevel::Debug => cfg!(debug_assertions),
            VerifyLevel::Full => true,
        }
    }

    /// Parses a level name: `off`, `debug` or `full` (case-insensitive).
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(VerifyLevel::Off),
            "debug" => Some(VerifyLevel::Debug),
            "full" => Some(VerifyLevel::Full),
            _ => None,
        }
    }

    /// The level set through the `NSB_VERIFY` environment variable, or
    /// the default ([`VerifyLevel::Debug`]) when unset or unrecognized.
    /// Read once per process; pipelines and the compile service use this
    /// as their starting level, so CI can force `NSB_VERIFY=full` across
    /// an entire (release) test run.
    pub fn from_env() -> Self {
        use std::sync::OnceLock;
        static LEVEL: OnceLock<VerifyLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            std::env::var("NSB_VERIFY")
                .ok()
                .and_then(|s| Self::parse(&s))
                .unwrap_or_default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(kind: ViolationKind) -> Violation {
        Violation {
            kind,
            check: "test",
            op_index: Some(3),
            qubits: vec![0, 1],
            message: "broken".into(),
        }
    }

    #[test]
    fn report_counts_and_display() {
        let mut r = VerifyReport::default();
        assert!(r.is_clean());
        r.checks_run.push("a");
        r.violations.push(v(ViolationKind::UncoupledPair));
        r.violations.push(v(ViolationKind::UncoupledPair));
        r.violations.push(v(ViolationKind::UnitaryMismatch));
        assert!(!r.is_clean());
        assert!(r.has(ViolationKind::UnitaryMismatch));
        assert!(!r.has(ViolationKind::IllegalBasisGate));
        let text = r.to_string();
        assert!(text.contains("3 violations"));
        assert!(text.contains("uncoupled-pair"));
        assert!(text.contains("op 3 on q0,q1"));
    }

    #[test]
    fn level_gating() {
        assert!(!VerifyLevel::Off.is_enabled());
        assert!(VerifyLevel::Full.is_enabled());
        assert_eq!(VerifyLevel::Debug.is_enabled(), cfg!(debug_assertions));
        assert_eq!(VerifyLevel::default(), VerifyLevel::Debug);
    }

    #[test]
    fn level_parsing() {
        assert_eq!(VerifyLevel::parse("off"), Some(VerifyLevel::Off));
        assert_eq!(VerifyLevel::parse("Debug"), Some(VerifyLevel::Debug));
        assert_eq!(VerifyLevel::parse("FULL"), Some(VerifyLevel::Full));
        assert_eq!(VerifyLevel::parse("sometimes"), None);
    }
}
