//! `nsb-lint`: AST-driven static analysis for the workspace — the
//! checks clippy cannot do.
//!
//! The crate parses every workspace source file with a hand-rolled
//! lexer and token-tree builder — no external parser dependency — and
//! walks the trees with a set of structural rules, emitting rustc-style
//! [`Diagnostic`]s with file/line spans.
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
//! * **`doc-links`** — every relative link in the repository's markdown
//!   files resolves to an existing file.
//!
//! The entry point is [`run_workspace`]. The test `tests/workspace.rs`
//! runs it over the checkout, so `cargo test` fails on any finding.

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
mod doclinks;
mod engine;
mod lexer;
mod rules;
mod source;
mod tree;

pub use diag::Diagnostic;
pub use engine::{analyze_files, run_workspace, Report};
pub use source::{FileKind, SourceFile};
