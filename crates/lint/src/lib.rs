//! `nsb-lint`: AST-driven static analysis for the workspace — the
//! checks clippy cannot do.
//!
//! The crate parses every workspace source file with a hand-rolled
//! lexer and token-tree builder — no external parser dependency — and
//! walks the trees with a set of structural rules, emitting rustc-style
//! [`Diagnostic`]s with file/line spans and a machine-readable JSON
//! encoding for CI artifacts ([`to_json`]).
//!
//! Rules:
//!
//! * **`lock-order`** — a static deadlock detector over `std::sync`
//!   usage: lock-acquisition-order cycles, re-entrant acquisitions, and
//!   guards held across blocking calls (`Condvar` waits, `recv`,
//!   `join`).
//! * **`error-variant-coverage`** — every variant of a `pub` or
//!   `pub(crate)` `enum *Error` must be constructed or matched somewhere
//!   in test code.
//! * **`prefer-mat4`** — heap-allocated `DMat::zeros(4, 4)` in the
//!   simulation/synthesis hot paths, matched structurally.
//! * **`crate-root-lints`** — every crate opts into the clippy and
//!   rustc lints that enforce the panicking, printing, float-compare
//!   and unsafe rules.
//!
//! The entry point is [`run_workspace`]; `cargo run -p xtask -- lint`
//! drives it from the command line.

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

mod diag;
mod engine;
mod lexer;
mod rules;
mod source;
mod tree;

pub use diag::{to_json, Diagnostic};
pub use engine::{analyze_files, run_workspace};
pub use source::{FileKind, SourceFile};

/// Every rule id with a one-line summary, in catalogue order.
pub const RULES: &[(&str, &str)] = &[
    (
        "lock-order",
        "lock-acquisition cycles, re-entrant locks, and guards held across blocking calls",
    ),
    (
        "error-variant-coverage",
        "every pub or pub(crate) error enum variant is constructed or matched in test code",
    ),
    (
        "prefer-mat4",
        "heap-allocated DMat::zeros(4, 4) in hot-path crates with the stack Mat4 kernel",
    ),
    (
        "crate-root-lints",
        "every crate opts into the workspace lints and every src/lib.rs into the library lints",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_kebab_case() {
        let mut seen = std::collections::BTreeSet::new();
        for (id, summary) in RULES {
            assert!(seen.insert(id), "duplicate rule id {id}");
            assert!(!summary.is_empty());
            assert!(id
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-' || c.is_ascii_digit()));
        }
    }
}
