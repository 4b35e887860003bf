//! Negative tests: every rule must flag its bad fixture with exactly
//! the expected rule ids, and the clean fixture must pass every rule.
//!
//! The fixture sources live under `lint_fixtures/` (a directory the
//! engine's workspace scan deliberately skips) and are parsed here at
//! representative workspace paths.

use nsb_lint::{analyze_files, FileKind, SourceFile};

fn lib(path: &str, text: &str) -> SourceFile {
    SourceFile::parse(path, FileKind::Lib, text)
}

fn rules_of(files: &[SourceFile]) -> Vec<&'static str> {
    analyze_files(files).into_iter().map(|d| d.rule).collect()
}

#[test]
fn lock_order_flags_the_two_lock_cycle() {
    let f = lib(
        "crates/x/src/cycle.rs",
        include_str!("lint_fixtures/lock_order_cycle.rs"),
    );
    let diags = analyze_files(&[f]);
    assert_eq!(
        diags.len(),
        2,
        "one finding per acquisition site: {diags:?}"
    );
    for d in &diags {
        assert_eq!(d.rule, "lock-order");
        assert!(d.message.contains("lock-order cycle"), "{}", d.message);
        assert!(d.message.contains("accounts"), "{}", d.message);
        assert!(d.message.contains("journal"), "{}", d.message);
    }
}

#[test]
fn lock_order_flags_blocking_calls_under_locks() {
    let f = lib(
        "crates/x/src/blocking.rs",
        include_str!("lint_fixtures/lock_order_blocking.rs"),
    );
    let diags = analyze_files(&[f]);
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "lock-order"));
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains(".recv")));
    assert!(messages.iter().any(|m| m.contains(".join")));
    assert!(messages.iter().any(|m| m.contains("not reentrant")));
    assert!(messages
        .iter()
        .any(|m| m.contains("Condvar wait on another lock")));
}

#[test]
fn error_coverage_flags_untested_variants() {
    let f = lib(
        "crates/x/src/err.rs",
        include_str!("lint_fixtures/error_coverage_bad.rs"),
    );
    let diags = analyze_files(&[f]);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "error-variant-coverage"));
    assert!(diags[0].message.contains("FixtureError::NeverTested"));
    assert!(diags[1].message.contains("FixtureError::Forgotten"));
}

#[test]
fn prefer_mat4_flags_heap_4x4_in_hot_path() {
    let f = lib(
        "crates/sim/src/fixture.rs",
        include_str!("lint_fixtures/prefer_mat4_bad.rs"),
    );
    assert_eq!(rules_of(&[f]), vec!["prefer-mat4"]);
}

#[test]
fn clean_fixture_passes_every_rule() {
    // Parsed at a crate-root path: the strictest setting, where even
    // crate-root-lints applies.
    let f = lib(
        "crates/x/src/lib.rs",
        include_str!("lint_fixtures/clean.rs"),
    );
    let diags = analyze_files(&[f]);
    assert!(diags.is_empty(), "{diags:?}");
}
