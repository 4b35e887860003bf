//! The rule implementations.
//!
//! Per-file rules take one [`crate::source::SourceFile`]; workspace
//! rules ([`error_coverage`], [`lock_order`]) need every file at once
//! because their evidence (test constructions, lock-acquisition edges)
//! crosses file boundaries. [`crate_root`] also checks manifests.

pub(crate) mod crate_root;
pub(crate) mod error_coverage;
pub(crate) mod lock_order;
pub(crate) mod prefer_mat4;
