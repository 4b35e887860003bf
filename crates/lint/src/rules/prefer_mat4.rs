//! `prefer-mat4`: heap-allocated 4×4 matrices (`DMat::zeros(4, 4)`) in
//! the simulation/synthesis hot paths, reimplemented structurally — the
//! call is matched as a path expression with literal arguments, so
//! whitespace, comments between tokens, or the string `"DMat::zeros(4, 4)"`
//! can no longer produce false results.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::{FileKind, SourceFile};
use crate::tree::{walk_groups, Tree};

/// Crates whose library code has the stack `Mat4` kernel available.
fn hot_path(file: &SourceFile) -> bool {
    file.path.starts_with("crates/sim/src") || file.path.starts_with("crates/synth/src")
}

fn is_int(t: &Tree, value: &str) -> bool {
    matches!(
        t,
        Tree::Leaf(tok) if matches!(&tok.kind, TokenKind::Int(v) if v == value)
    )
}

/// Runs the rule over one file.
pub(crate) fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Lib || !hot_path(file) {
        return;
    }
    walk_groups(&file.trees, &mut |trees| {
        for (i, t) in trees.iter().enumerate() {
            if t.ident() != Some("DMat")
                || !trees.get(i + 1).is_some_and(|n| n.is_punct("::"))
                || trees.get(i + 2).and_then(Tree::ident) != Some("zeros")
            {
                continue;
            }
            let Some(args) = trees.get(i + 3).and_then(Tree::group) else {
                continue;
            };
            let four_by_four = args.delim == '('
                && args.trees.len() == 3
                && is_int(&args.trees[0], "4")
                && args.trees[1].is_punct(",")
                && is_int(&args.trees[2], "4");
            let line = t.line();
            if four_by_four && !file.is_test_line(line) {
                out.push(Diagnostic {
                    rule: "prefer-mat4",
                    file: file.path.clone(),
                    line,
                    col: t.col(),
                    message: "heap-allocated 4x4 `DMat::zeros(4, 4)` in a hot-path crate; \
                              use the stack `nsb_math::Mat4` kernel instead"
                        .into(),
                    snippet: file.snippet(line),
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{lib_file, SourceFile};

    fn count(path: &str, text: &str) -> usize {
        let f = lib_file(path, text);
        let mut out = Vec::new();
        check(&f, &mut out);
        out.len()
    }

    #[test]
    fn fires_only_in_hot_path_crates() {
        let text = "fn f() { let m = DMat::zeros(4, 4); }\n";
        assert_eq!(count("crates/sim/src/evolve.rs", text), 1);
        assert_eq!(count("crates/synth/src/optimizer.rs", text), 1);
        assert_eq!(count("crates/math/src/dmat.rs", text), 0);
    }

    #[test]
    fn only_exact_4x4_fires() {
        assert_eq!(
            count("crates/sim/src/a.rs", "fn f() { DMat::zeros(27, 4); }\n"),
            0
        );
        assert_eq!(
            count("crates/sim/src/a.rs", "fn f() { DMat::zeros(4,4); }\n"),
            1,
            "whitespace-insensitive"
        );
    }

    #[test]
    fn strings_and_tests_do_not_fire() {
        assert_eq!(
            count(
                "crates/sim/src/a.rs",
                "fn f() { let s = \"DMat::zeros(4, 4)\"; }\n"
            ),
            0
        );
        assert_eq!(
            count(
                "crates/sim/src/a.rs",
                "#[cfg(test)]\nmod tests {\n    fn t() { DMat::zeros(4, 4); }\n}\n"
            ),
            0
        );
    }

    #[test]
    fn tests_dir_files_exempt() {
        let f = SourceFile::parse(
            "crates/sim/tests/t.rs",
            FileKind::Test,
            "fn main() { DMat::zeros(4, 4); }\n",
        );
        let mut out = Vec::new();
        check(&f, &mut out);
        assert!(out.is_empty());
    }
}
