//! `error-variant-coverage`: every variant of a `pub` or `pub(crate)`
//! error enum must be exercised somewhere in test code.
//!
//! Pass 1 collects definitions: `pub enum Name` and `pub(crate) enum
//! Name` items whose name ends in `Error`, in non-test library code,
//! with each variant's definition site. Pass 2 collects evidence: any
//! `Name::Variant` path mention inside `#[cfg(test)]` code or files
//! under `tests/` — constructions and `matches!`-style assertions both
//! count, since either pins the variant's existence and shape to a
//! test. Variants with no evidence are reported at their definition.

use crate::diag::Diagnostic;
use crate::source::{FileKind, SourceFile};
use crate::tree::{walk_groups, Tree};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

struct VariantDef {
    enum_name: String,
    variant: String,
    file: PathBuf,
    line: usize,
    col: usize,
    snippet: String,
}

/// Runs the rule over the whole workspace.
pub(crate) fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let mut defs: Vec<VariantDef> = Vec::new();
    for f in files {
        if f.kind == FileKind::Lib {
            collect_defs(f, &mut defs);
        }
    }
    // Evidence: enum name -> variants seen in test code.
    let mut covered: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let names: BTreeSet<&str> = defs.iter().map(|d| d.enum_name.as_str()).collect();
    for f in files {
        walk_groups(&f.trees, &mut |trees| {
            for (i, t) in trees.iter().enumerate() {
                let Some(name) = t.ident() else { continue };
                if !names.contains(name) || !trees.get(i + 1).is_some_and(|n| n.is_punct("::")) {
                    continue;
                }
                let Some(variant) = trees.get(i + 2).and_then(Tree::ident) else {
                    continue;
                };
                if f.is_test_line(t.line()) {
                    covered
                        .entry(name.to_string())
                        .or_default()
                        .insert(variant.to_string());
                }
            }
        });
    }
    for d in defs {
        let seen = covered
            .get(&d.enum_name)
            .is_some_and(|set| set.contains(&d.variant));
        if !seen {
            out.push(Diagnostic {
                rule: "error-variant-coverage",
                file: d.file,
                line: d.line,
                col: d.col,
                message: format!(
                    "error variant `{}::{}` is never constructed or matched in test code",
                    d.enum_name, d.variant
                ),
                snippet: d.snippet,
            });
        }
    }
}

/// Finds `pub enum *Error` and `pub(crate) enum *Error` items at any
/// nesting level of a file.
fn collect_defs(file: &SourceFile, out: &mut Vec<VariantDef>) {
    walk_groups(&file.trees, &mut |trees| {
        let mut i = 0;
        while i < trees.len() {
            if trees[i].ident() == Some("pub") {
                let mut j = i + 1;
                // `pub(crate)` counts; after `pub(super)` / `pub(in …)`, `j`
                // stays on the group, which is not `enum`.
                let crate_only = trees.get(j).and_then(Tree::group).is_some_and(
                    |g| matches!(g.trees.as_slice(), [t] if t.ident() == Some("crate")),
                );
                j += usize::from(crate_only);
                if trees.get(j).and_then(Tree::ident) == Some("enum") {
                    j += 1;
                    if let Some(name) = trees.get(j).and_then(Tree::ident) {
                        if name.ends_with("Error") && !file.is_test_line(trees[i].line()) {
                            // Body: first brace group before any `;`.
                            let mut k = j + 1;
                            while k < trees.len() && !trees[k].is_punct(";") {
                                if let Some(g) = trees[k].group() {
                                    if g.delim == '{' {
                                        collect_variants(file, name, &g.trees, out);
                                        break;
                                    }
                                }
                                k += 1;
                            }
                        }
                    }
                }
            }
            i += 1;
        }
    });
}

/// Splits an enum body at top-level commas and records each variant.
fn collect_variants(file: &SourceFile, enum_name: &str, body: &[Tree], out: &mut Vec<VariantDef>) {
    let mut chunk_start = 0;
    let mut i = 0;
    loop {
        let at_end = i >= body.len();
        if at_end || body[i].is_punct(",") {
            let chunk = &body[chunk_start..i.min(body.len())];
            if let Some(t) = first_non_attr(chunk) {
                if let Some(variant) = t.ident() {
                    out.push(VariantDef {
                        enum_name: enum_name.to_string(),
                        variant: variant.to_string(),
                        file: file.path.clone(),
                        line: t.line(),
                        col: t.col(),
                        snippet: file.snippet(t.line()),
                    });
                }
            }
            chunk_start = i + 1;
        }
        if at_end {
            break;
        }
        i += 1;
    }
}

/// First tree of a variant chunk that is not part of an attribute.
fn first_non_attr(chunk: &[Tree]) -> Option<&Tree> {
    let mut i = 0;
    while i < chunk.len() {
        if chunk[i].is_punct("#") && matches!(chunk.get(i + 1), Some(Tree::Group(_))) {
            i += 2;
            continue;
        }
        return Some(&chunk[i]);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lib_file;

    const ENUM: &str = "/// Errors.\npub enum StoreError {\n    /// IO.\n    Io { path: String },\n    /// Bad magic.\n    BadMagic(u32),\n    /// Closed.\n    Closed,\n}\n";

    fn run(files: Vec<SourceFile>) -> Vec<String> {
        let mut out = Vec::new();
        check(&files, &mut out);
        out.into_iter().map(|d| d.message).collect()
    }

    #[test]
    fn uncovered_variants_are_reported_at_their_definition() {
        let msgs = run(vec![lib_file("crates/x/src/a.rs", ENUM)]);
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs[0].contains("StoreError::Io"));
        assert!(msgs[2].contains("StoreError::Closed"));
    }

    #[test]
    fn test_mentions_count_as_coverage() {
        let lib = format!(
            "{ENUM}#[cfg(test)]\nmod tests {{\n    fn t() {{\n        let _ = StoreError::Io {{ path: p }};\n        assert!(matches!(e, StoreError::BadMagic(_)));\n    }}\n}}\n"
        );
        let msgs = run(vec![lib_file("crates/x/src/a.rs", &lib)]);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("StoreError::Closed"));
    }

    #[test]
    fn tests_dir_files_count_as_coverage() {
        let t = SourceFile::parse(
            "tests/integration.rs",
            FileKind::Test,
            "fn t() { let _ = StoreError::Closed; let _ = StoreError::Io { path }; let _ = StoreError::BadMagic(1); }\n",
        );
        let msgs = run(vec![lib_file("crates/x/src/a.rs", ENUM), t]);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn non_test_constructions_do_not_count() {
        let lib = format!("{ENUM}fn lib() -> StoreError {{ StoreError::Closed }}\n");
        let msgs = run(vec![lib_file("crates/x/src/a.rs", &lib)]);
        assert_eq!(msgs.len(), 3, "library-code use is not test coverage");
    }

    #[test]
    fn pub_and_pub_crate_error_enums_participate() {
        let src = "enum StoreError { A }\npub(crate) enum IoError { B }\npub(super) enum UpError { C }\npub enum Shape { D }\npub enum PushError { E }\n";
        let msgs = run(vec![lib_file("crates/x/src/a.rs", src)]);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("IoError::B"));
        assert!(msgs[1].contains("PushError::E"));
    }
}
