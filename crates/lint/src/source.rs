//! Parsed source files: token trees plus the per-file fact every rule
//! needs — which lines are `#[cfg(test)]` code.

use crate::lexer::lex;
use crate::tree::{build, Tree};
use std::path::PathBuf;

/// How a file's code is classified for rule applicability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Code under a `src/` directory: every rule applies.
    Lib,
    /// A file under a `tests/` directory: scanned only as evidence for
    /// the error-variant-coverage rule, never linted itself.
    Test,
}

/// One parsed source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub(crate) path: PathBuf,
    /// Rule-applicability class.
    pub(crate) kind: FileKind,
    /// Raw text (for diagnostics' snippet lines).
    pub(crate) text: String,
    /// Token trees of the whole file.
    pub(crate) trees: Vec<Tree>,
    /// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and parses `text` into a source file.
    pub fn parse(path: impl Into<PathBuf>, kind: FileKind, text: impl Into<String>) -> Self {
        let path = path.into();
        let text = text.into();
        let trees = build(&lex(&text));
        let mut test_ranges = Vec::new();
        collect_test_ranges(&trees, &mut test_ranges);
        SourceFile {
            path,
            kind,
            text,
            trees,
            test_ranges,
        }
    }

    /// Whether `line` lies inside test-gated code (or the whole file is
    /// a test file).
    pub(crate) fn is_test_line(&self, line: usize) -> bool {
        self.kind == FileKind::Test
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// The trimmed source line (1-based), for diagnostic snippets.
    pub(crate) fn snippet(&self, line: usize) -> String {
        self.text
            .lines()
            .nth(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Whether this file is a crate root (`src/lib.rs`).
    pub(crate) fn is_crate_root(&self) -> bool {
        self.path.file_name().is_some_and(|n| n == "lib.rs")
            && self
                .path
                .parent()
                .and_then(|p| p.file_name())
                .is_some_and(|n| n == "src")
    }
}

/// Scans an item level for `#[cfg(test)]` / `#[test]` attributes and
/// records the line span of the item each one gates. Non-test brace
/// groups are recursed into (nested test modules); test groups are not
/// (the whole span is already covered).
fn collect_test_ranges(trees: &[Tree], out: &mut Vec<(usize, usize)>) {
    let mut i = 0;
    let mut pending: Option<usize> = None;
    while i < trees.len() {
        // Attribute: `#` `[…]` (outer) or `#` `!` `[…]` (inner).
        if trees[i].is_punct("#") {
            if let Some(Tree::Group(attr)) = trees.get(i + 1) {
                if attr.delim == '[' {
                    if is_test_attr(&attr.trees) {
                        pending.get_or_insert(trees[i].line());
                    }
                    i += 2;
                    continue;
                }
            }
            if trees.get(i + 1).is_some_and(|t| t.is_punct("!")) {
                if let Some(Tree::Group(attr)) = trees.get(i + 2) {
                    if attr.delim == '[' {
                        i += 3;
                        continue;
                    }
                }
            }
        }
        match &trees[i] {
            Tree::Group(g) if g.delim == '{' => {
                match pending.take() {
                    Some(start) => out.push((start, g.close_line)),
                    None => collect_test_ranges(&g.trees, out),
                }
                i += 1;
            }
            t if t.is_punct(";") => {
                // `#[cfg(test)] use …;` — the gated item ends here.
                if let Some(start) = pending.take() {
                    out.push((start, t.line()));
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
}

/// Whether an attribute's tokens mark test code: `#[test]`, or
/// `#[cfg(test)]` in any combination — but never `cfg(not(test))`.
fn is_test_attr(trees: &[Tree]) -> bool {
    if trees.first().and_then(Tree::ident) == Some("test") && trees.len() == 1 {
        return true;
    }
    if trees.first().and_then(Tree::ident) == Some("cfg") {
        if let Some(Tree::Group(args)) = trees.get(1) {
            return contains_test_outside_not(&args.trees);
        }
    }
    false
}

fn contains_test_outside_not(trees: &[Tree]) -> bool {
    let mut i = 0;
    while i < trees.len() {
        if trees[i].ident() == Some("not") && matches!(trees.get(i + 1), Some(Tree::Group(_))) {
            i += 2; // skip the negated group entirely
            continue;
        }
        match &trees[i] {
            Tree::Group(g) if contains_test_outside_not(&g.trees) => return true,
            t if t.ident() == Some("test") => return true,
            _ => {}
        }
        i += 1;
    }
    false
}

/// Convenience for rule unit tests: parse as a library file at `path`.
#[cfg(test)]
pub(crate) fn lib_file(path: &str, text: &str) -> SourceFile {
    SourceFile::parse(std::path::Path::new(path), FileKind::Lib, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mod_ranges_detected() {
        let f = lib_file(
            "crates/x/src/a.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n",
        );
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let f = lib_file(
            "crates/x/src/a.rs",
            "#[cfg(not(test))]\nfn prod() {}\n#[cfg(all(test, unix))]\nfn t() {}\n",
        );
        assert!(!f.is_test_line(2));
        assert!(f.is_test_line(4));
    }

    #[test]
    fn single_gated_item_and_semi_items() {
        let f = lib_file(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nuse foo::bar;\nfn lib() {}\n#[test]\nfn t() {\n    x;\n}\n",
        );
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
        assert!(f.is_test_line(6));
    }

    #[test]
    fn crate_root_detection() {
        assert!(lib_file("crates/x/src/lib.rs", "").is_crate_root());
        assert!(!lib_file("crates/x/src/a.rs", "").is_crate_root());
    }
}
