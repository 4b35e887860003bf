//! The lint driver: workspace file collection and rule execution.

use crate::diag::Diagnostic;
use crate::doclinks;
use crate::rules;
use crate::source::{FileKind, SourceFile};
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never scanned for source files: third-party
/// stand-ins, build output, and the deliberately-dirty lint fixtures.
const SKIP_DIRS: &[&str] = &["vendor", "target", "lint_fixtures"];

/// Directory names never scanned for markdown, besides hidden ones.
const SKIP_DOC_DIRS: &[&str] = &["target", "node_modules"];

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
fn collect_files(root: &Path) -> Vec<SourceFile> {
    let skip = |name: &str| SKIP_DIRS.contains(&name);
    let mut files = Vec::new();
    for dir in std::iter::once(root.to_path_buf()).chain(crate_dirs(root)) {
        for (sub, kind) in [("src", FileKind::Lib), ("tests", FileKind::Test)] {
            let mut paths = Vec::new();
            walk(&dir.join(sub), "rs", &skip, &mut paths);
            for path in paths {
                if let Ok(text) = fs::read_to_string(&path) {
                    files.push(SourceFile::parse(relative(root, &path), kind, text));
                }
            }
        }
    }
    files
}

/// Reads the root manifest and every `crates/*/Cargo.toml`, as
/// (workspace-relative path, text) pairs.
fn collect_manifests(root: &Path) -> Vec<(PathBuf, String)> {
    std::iter::once(root.to_path_buf())
        .chain(crate_dirs(root))
        .filter_map(|dir| {
            let path = dir.join("Cargo.toml");
            let text = fs::read_to_string(&path).ok()?;
            Some((relative(root, &path), text))
        })
        .collect()
}

/// Appends every file under `dir` with extension `ext` to `out`, in
/// sorted depth-first order, skipping subdirectories named by `skip`.
fn walk(dir: &Path, ext: &str, skip: &dyn Fn(&str) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if !path.is_dir() {
            if path.extension().is_some_and(|e| e == ext) {
                out.push(path);
            }
        } else if !path.file_name().and_then(|n| n.to_str()).is_some_and(skip) {
            walk(&path, ext, skip, out);
        }
    }
}

/// `path` relative to the workspace root, as diagnostics show it.
pub(crate) fn relative(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
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

/// What one scan of a workspace saw and found.
#[derive(Debug)]
pub struct Report {
    /// Every finding, sorted by (file, line, column, rule).
    pub findings: Vec<Diagnostic>,
    /// Library roots (`src/lib.rs`) the source rules scanned.
    pub library_roots: usize,
    /// Markdown files the link check scanned.
    pub markdown_files: usize,
}

/// Runs every check over the workspace rooted at `root`: the source
/// rules, the manifest checks and the markdown link check.
pub fn run_workspace(root: &Path) -> Report {
    let files = collect_files(root);
    let mut findings = analyze_files(&files);
    for (path, text) in collect_manifests(root) {
        rules::crate_root::check_manifest(&path, &text, &mut findings);
    }
    let mut docs = Vec::new();
    let skip_doc = |name: &str| name.starts_with('.') || SKIP_DOC_DIRS.contains(&name);
    walk(root, "md", &skip_doc, &mut docs);
    for doc in &docs {
        doclinks::check(root, doc, &mut findings);
    }
    Report {
        findings: sorted(findings),
        library_roots: files.iter().filter(|f| f.is_crate_root()).count(),
        markdown_files: docs.len(),
    }
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
        assert_eq!(
            kind_of("crates/bench/src/bin/table2.rs"),
            Some(FileKind::Lib)
        );
        assert_eq!(kind_of("crates/lint/src/lib.rs"), Some(FileKind::Lib));
        assert_eq!(
            kind_of("crates/lint/tests/fixtures.rs"),
            Some(FileKind::Test)
        );
        assert_eq!(kind_of("crates/lint/tests/lint_fixtures/clean.rs"), None);
    }
}
