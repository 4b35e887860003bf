//! The lint driver: workspace file collection and rule execution.

use crate::diag::Diagnostic;
use crate::rules;
use crate::source::{FileKind, SourceFile};
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never scanned: third-party stand-ins, build output,
/// and the deliberately-dirty lint fixtures.
const SKIP_DIRS: &[&str] = &["vendor", "target", "lint_fixtures"];

/// The workspace member directories under `crates/`, sorted.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut crates: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    crates
}

/// Collects and parses every workspace source file.
///
/// Scanned roots are `src/`, `tests/`, and each `crates/*/{src,tests}`.
/// Files under a `tests/` directory are [`FileKind::Test`] (evidence
/// only); everything else is [`FileKind::Lib`].
pub(crate) fn collect_files(root: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for dir in std::iter::once(root.to_path_buf()).chain(crate_dirs(root)) {
        collect_dir(root, &dir.join("src"), FileKind::Lib, &mut files);
        collect_dir(root, &dir.join("tests"), FileKind::Test, &mut files);
    }
    files
}

/// Reads the root manifest and every `crates/*/Cargo.toml`, as
/// (workspace-relative path, text) pairs.
pub(crate) fn collect_manifests(root: &Path) -> Vec<(PathBuf, String)> {
    std::iter::once(root.to_path_buf())
        .chain(crate_dirs(root))
        .filter_map(|dir| {
            let path = dir.join("Cargo.toml");
            let text = fs::read_to_string(&path).ok()?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            Some((rel, text))
        })
        .collect()
}

fn collect_dir(root: &Path, dir: &Path, kind: FileKind, out: &mut Vec<SourceFile>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let skip = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| SKIP_DIRS.contains(&n));
            if !skip {
                collect_dir(root, &path, kind, out);
            }
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        out.push(SourceFile::parse(rel, kind, text));
    }
}

/// Sorts findings by (file, line, column, rule).
fn sorted(mut out: Vec<Diagnostic>) -> Vec<Diagnostic> {
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

/// Runs every source rule over pre-parsed files and returns
/// diagnostics sorted by (file, line, column, rule).
pub fn analyze_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        rules::crate_root::check(f, &mut out);
        rules::prefer_mat4::check(f, &mut out);
    }
    rules::error_coverage::check(files, &mut out);
    rules::lock_order::check(files, &mut out);
    sorted(out)
}

/// Collects, parses, and analyzes the workspace rooted at `root`,
/// manifests included.
pub fn run_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut out = analyze_files(&collect_files(root));
    for (path, text) in collect_manifests(root) {
        rules::crate_root::check_manifest(&path, &text, &mut out);
    }
    sorted(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lib_file;

    #[test]
    fn diagnostics_are_sorted() {
        let a = lib_file("crates/x/src/lib.rs", "fn f() {}\n");
        let b = lib_file("crates/y/src/lib.rs", "fn f() {}\n");
        let diags = analyze_files(&[b, a]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        let files: Vec<_> = diags.iter().map(|d| d.file.display().to_string()).collect();
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }

    #[test]
    fn classify_kinds() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_files(&root);
        let kind_of = |p: &str| {
            files
                .iter()
                .find(|f| f.path == Path::new(p))
                .map(|f| f.kind)
        };
        assert_eq!(kind_of("crates/xtask/src/main.rs"), Some(FileKind::Lib));
        assert_eq!(kind_of("crates/lint/src/lib.rs"), Some(FileKind::Lib));
        assert_eq!(
            kind_of("crates/lint/tests/fixtures.rs"),
            Some(FileKind::Test)
        );
        assert_eq!(kind_of("crates/lint/tests/lint_fixtures/clean.rs"), None);
    }
}
