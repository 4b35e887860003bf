//! The workspace check: every source rule, the manifest checks and the
//! markdown link check over the real checkout, so `cargo test` fails on
//! any finding; and the same scan over a planted tree, which must
//! report each planted finding under its rule id.

use nsb_lint::run_workspace;
use std::fs;
use std::path::Path;

#[test]
fn workspace_passes_every_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_workspace(&root);
    // An empty scan would pass trivially.
    assert!(
        report.library_roots >= 14,
        "scanned only {} library roots",
        report.library_roots
    );
    assert!(
        report.markdown_files >= 10,
        "scanned only {} markdown files",
        report.markdown_files
    );
    let rendered: String = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        report.findings.is_empty(),
        "{} finding(s):\n{rendered}",
        report.findings.len()
    );
}

const LIBRARY_LINTS: &str = "#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout, clippy::print_stderr, clippy::float_cmp))]\n";
const MEMBER: &str = "[package]\nname = \"m\"\n\n[lints]\nworkspace = true\n";

#[test]
fn planted_tree_reports_each_finding_with_its_rule() {
    let tree = [
        ("Cargo.toml", format!("[workspace.lints.rust]\nunreachable_pub = \"warn\"\n\n{MEMBER}")),
        ("README.md", "# planted\n\nSee [the guide](docs/guide.md), [lints](Cargo.toml#lints) and [the web](https://example.com).\n\n```\n[fenced](gone.md)\n```\n".into()),
        ("src/lib.rs", "//! No library lint line.\n".into()),
        ("crates/sim/Cargo.toml", MEMBER.into()),
        ("crates/sim/src/lib.rs", format!("{LIBRARY_LINTS}fn f() -> DMat {{\n    DMat::zeros(4, 4)\n}}\n")),
        ("crates/x/Cargo.toml", "[package]\nname = \"x\"\n".into()),
        ("crates/x/src/lib.rs", format!("{LIBRARY_LINTS}mod locks;\n\n/// Untested.\npub enum PlantedError {{\n    /// No test names it.\n    Untested,\n}}\n")),
        ("crates/x/src/locks.rs", include_str!("lint_fixtures/lock_order_cycle.rs").into()),
    ];
    let root = std::env::temp_dir().join(format!("nsb-lint-planted-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (path, text) in &tree {
        let path = root.join(path);
        fs::create_dir_all(path.parent().expect("a parent")).expect("mkdir");
        fs::write(path, text).expect("write");
    }
    let report = run_workspace(&root);
    let _ = fs::remove_dir_all(&root);
    assert_eq!((report.library_roots, report.markdown_files), (3, 1));
    let found: Vec<(&str, String)> = report
        .findings
        .iter()
        .map(|d| (d.rule, d.to_string()))
        .collect();
    let expected = [
        ("prefer-mat4", "--> crates/sim/src/lib.rs:3:5"),
        ("crate-root-lints", "--> crates/x/Cargo.toml\n"),
        ("error-variant-coverage", "--> crates/x/src/lib.rs:7:5"),
        ("lock-order", "--> crates/x/src/locks.rs:7:29"),
        ("lock-order", "--> crates/x/src/locks.rs:13:31"),
        ("crate-root-lints", "--> src/lib.rs\n"),
        ("doc-links", "--> README.md:3\n"),
    ];
    assert_eq!(found.len(), expected.len(), "{found:#?}");
    for (rule, at) in expected {
        let hit = found
            .iter()
            .any(|(r, text)| *r == rule && text.contains(at));
        assert!(hit, "no {rule} finding at `{at}` in {found:#?}");
    }
}
