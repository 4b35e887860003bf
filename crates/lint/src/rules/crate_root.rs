//! `crate-root-lints`: every crate opts into the clippy and rustc lints
//! that enforce the panicking, printing, float-compare and unsafe rules,
//! so a new crate cannot opt out silently. All three checks report
//! file-level findings (`line: 0`):
//!
//! * each library root (`src/lib.rs`) carries
//!   `#![cfg_attr(not(test), warn(clippy::…))]` naming every lint in
//!   [`LIBRARY_LINTS`] — matched on tokens, so a string literal
//!   spelling the attribute does not count;
//! * each manifest has `[lints] workspace = true`, which brings in the
//!   workspace table (`unsafe_code = "forbid"`, `todo`,
//!   `unimplemented`, `dbg_macro`, `missing_docs`);
//! * the root manifest's `[workspace.lints.rust]` sets `unreachable_pub`
//!   (to `warn`, `deny` or `forbid`), so a `pub` item that nothing
//!   outside its crate can reach fails CI instead of hiding dead code.

use crate::diag::Diagnostic;
use crate::source::{FileKind, SourceFile};
use crate::tree::collect_idents;
use std::path::Path;

/// The clippy lints every library crate root enables outside tests.
pub(crate) const LIBRARY_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "print_stdout",
    "print_stderr",
    "float_cmp",
];

fn finding(file: &Path, message: String) -> Diagnostic {
    Diagnostic {
        rule: "crate-root-lints",
        file: file.to_path_buf(),
        line: 0,
        col: 0,
        message,
        snippet: String::new(),
    }
}

/// Checks one parsed source file (only library roots are concerned).
pub(crate) fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib || !file.is_crate_root() {
        return;
    }
    let declared = file.trees.windows(3).any(|w| {
        let mut idents = Vec::new();
        if let Some(attr) = w[2].group() {
            collect_idents(&attr.trees, &mut idents);
        }
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && idents.starts_with(&["cfg_attr", "not", "test", "warn"])
            && LIBRARY_LINTS.iter().all(|l| idents.contains(l))
    });
    if !declared {
        let lints = LIBRARY_LINTS.join(", clippy::");
        let message =
            format!("crate root does not declare `#![cfg_attr(not(test), warn(clippy::{lints}))]`");
        out.push(finding(&file.path, message));
    }
}

/// Checks one `Cargo.toml` (`path` is workspace-relative; the root
/// manifest is `Cargo.toml`).
pub(crate) fn check_manifest(path: &Path, text: &str, out: &mut Vec<Diagnostic>) {
    let mut table = "";
    let mut opted_in = false;
    let mut unreachable_pub = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
            continue;
        }
        let setting = line.replace(' ', "");
        opted_in |= table == "[lints]" && setting == "workspace=true";
        unreachable_pub |= table == "[workspace.lints.rust]"
            && ["warn", "deny", "forbid"]
                .iter()
                .any(|level| setting == format!("unreachable_pub=\"{level}\""));
    }
    if !opted_in {
        let message =
            "manifest does not opt into the workspace lints with `[lints] workspace = true`";
        out.push(finding(path, message.into()));
    }
    if path == Path::new("Cargo.toml") && !unreachable_pub {
        let message = "root manifest does not set `unreachable_pub` in `[workspace.lints.rust]`";
        out.push(finding(path, message.into()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lib_file;

    const LINE: &str = "#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::print_stdout, clippy::print_stderr, clippy::float_cmp))]\n";

    fn root_findings(path: &str, text: &str) -> usize {
        let mut out = Vec::new();
        check(&lib_file(path, text), &mut out);
        out.len()
    }

    #[test]
    fn missing_library_lint_line_is_flagged() {
        let root = "crates/x/src/lib.rs";
        assert_eq!(root_findings(root, &format!("{LINE}fn f() {{}}\n")), 0);
        assert_eq!(root_findings(root, "fn f() {}\n"), 1);
        // The attribute it replaced, a partial list, a test-only line
        // and a string spelling the line do not count.
        assert_eq!(root_findings(root, "#![forbid(unsafe_code)]\n"), 1);
        assert_eq!(
            root_findings(root, &LINE.replace(", clippy::float_cmp", "")),
            1
        );
        assert_eq!(root_findings(root, &LINE.replace("not(test)", "test")), 1);
        assert_eq!(
            root_findings(root, &format!("static S: &str = {LINE:?};")),
            1
        );
        // Modules other than the crate root are not concerned.
        assert_eq!(root_findings("crates/x/src/a.rs", "fn f() {}\n"), 0);
    }

    #[test]
    fn missing_manifest_opt_in_is_flagged() {
        let count = |path: &str, text: &str| {
            let mut out = Vec::new();
            check_manifest(Path::new(path), text, &mut out);
            out.len()
        };
        let member = "crates/x/Cargo.toml";
        assert_eq!(
            count(
                member,
                "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
            ),
            0
        );
        assert_eq!(count(member, "[package]\nname = \"x\"\n"), 1);
        assert_eq!(count(member, "[package]\nworkspace = true\n[lints]\n"), 1);
        // The root manifest must also set `unreachable_pub`, in the rust
        // lint table and to a level that reports.
        let root =
            "[workspace.lints.rust]\nunreachable_pub = \"warn\"\n\n[lints]\nworkspace = true\n";
        assert_eq!(count("Cargo.toml", root), 0);
        assert_eq!(
            count(
                "Cargo.toml",
                &root.replace("unreachable_pub = \"warn\"\n", "")
            ),
            1
        );
        assert_eq!(
            count("Cargo.toml", &root.replace("\"warn\"", "\"allow\"")),
            1
        );
        assert_eq!(count("Cargo.toml", &root.replace(".rust]", ".clippy]")), 1);
    }
}
