//! Token trees: the lexer's flat stream grouped by matching delimiters.
//!
//! Rules walk trees rather than raw tokens so nesting is structural: a
//! function body is one brace [`Group`], a call's arguments one paren
//! group, and statement/scope reasoning (for the lock-order analysis)
//! falls out of recursion instead of brace counting.

use crate::lexer::{Token, TokenKind};

/// One node: a leaf token or a delimited group.
#[derive(Clone, Debug)]
pub(crate) enum Tree {
    /// A non-delimiter token.
    Leaf(Token),
    /// A `(…)`, `[…]` or `{…}` group.
    Group(Group),
}

/// A delimited token group.
#[derive(Clone, Debug)]
pub(crate) struct Group {
    /// Opening delimiter: `(`, `[` or `{`.
    pub(crate) delim: char,
    /// 1-based line of the opening delimiter.
    pub(crate) open_line: usize,
    /// 1-based column of the opening delimiter.
    pub(crate) open_col: usize,
    /// 1-based line of the closing delimiter (end of file when
    /// unterminated).
    pub(crate) close_line: usize,
    /// Children in source order.
    pub(crate) trees: Vec<Tree>,
}

impl Tree {
    /// The group, if this is a group.
    pub(crate) fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            Tree::Leaf(_) => None,
        }
    }

    /// The identifier's text, if this is an identifier leaf.
    pub(crate) fn ident(&self) -> Option<&str> {
        match self {
            Tree::Leaf(Token {
                kind: TokenKind::Ident(name),
                ..
            }) => Some(name),
            _ => None,
        }
    }

    /// Whether this is the punctuation `op`.
    pub(crate) fn is_punct(&self, op: &str) -> bool {
        matches!(
            self,
            Tree::Leaf(Token {
                kind: TokenKind::Punct(p),
                ..
            }) if *p == op
        )
    }

    /// The source line this node starts on.
    pub(crate) fn line(&self) -> usize {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group(g) => g.open_line,
        }
    }

    /// The source column this node starts on.
    pub(crate) fn col(&self) -> usize {
        match self {
            Tree::Leaf(t) => t.col,
            Tree::Group(g) => g.open_col,
        }
    }
}

fn closing(delim: char) -> &'static str {
    match delim {
        '(' => ")",
        '[' => "]",
        _ => "}",
    }
}

/// Groups a token stream into trees. Tolerant of imbalance: a stray
/// closer is dropped, an unterminated group closes at end of input.
pub(crate) fn build(tokens: &[Token]) -> Vec<Tree> {
    let mut pos = 0;
    build_until(tokens, &mut pos, None)
}

fn build_until(tokens: &[Token], pos: &mut usize, close: Option<&str>) -> Vec<Tree> {
    let mut out = Vec::new();
    while *pos < tokens.len() {
        let tok = &tokens[*pos];
        match &tok.kind {
            TokenKind::Punct(p) if ["(", "[", "{"].contains(p) => {
                let delim = match *p {
                    "(" => '(',
                    "[" => '[',
                    _ => '{',
                };
                let (open_line, open_col) = (tok.line, tok.col);
                *pos += 1;
                let inner = build_until(tokens, pos, Some(closing(delim)));
                let close_line = tokens
                    .get(pos.saturating_sub(1))
                    .map(|t| t.line)
                    .unwrap_or(open_line);
                out.push(Tree::Group(Group {
                    delim,
                    open_line,
                    open_col,
                    close_line,
                    trees: inner,
                }));
            }
            TokenKind::Punct(p) if [")", "]", "}"].contains(p) => {
                *pos += 1;
                if Some(*p) == close {
                    return out;
                }
                // Stray closer: drop it and continue.
            }
            _ => {
                out.push(Tree::Leaf(tok.clone()));
                *pos += 1;
            }
        }
    }
    out
}

/// Depth-first walk over every group (including nested ones), calling
/// `f` with each group's child list. The top-level list is visited too.
pub(crate) fn walk_groups<'a>(trees: &'a [Tree], f: &mut dyn FnMut(&'a [Tree])) {
    f(trees);
    for t in trees {
        if let Tree::Group(g) = t {
            walk_groups(&g.trees, f);
        }
    }
}

/// Every identifier in `trees`, nested groups included, in source order.
pub(crate) fn collect_idents<'a>(trees: &'a [Tree], out: &mut impl Extend<&'a str>) {
    for t in trees {
        match t {
            Tree::Group(g) => collect_idents(&g.trees, out),
            t => out.extend(t.ident()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn trees(src: &str) -> Vec<Tree> {
        build(&lex(src))
    }

    #[test]
    fn groups_nest() {
        let t = trees("fn f(a: u8) { g([1, 2]); }");
        // fn, f, (…), {…}
        assert_eq!(t.len(), 4);
        let body = t[3].group().expect("body group");
        assert_eq!(body.delim, '{');
        let call_args = body.trees[1].group().expect("g call args");
        assert_eq!(call_args.delim, '(');
        assert_eq!(call_args.trees[0].group().map(|g| g.delim), Some('['));
    }

    #[test]
    fn tolerates_imbalance() {
        let t = trees("fn f() { oops(");
        assert_eq!(t.len(), 4);
        let t2 = trees(") } fn g() {}");
        assert!(t2.iter().any(|n| n.ident() == Some("g")));
    }

    #[test]
    fn group_lines_cover_span() {
        let t = trees("mod m {\n  fn f() {}\n}\n");
        let g = t[2].group().expect("mod body");
        assert_eq!(g.open_line, 1);
        assert_eq!(g.close_line, 3);
    }

    #[test]
    fn walk_visits_all_levels() {
        let t = trees("a { b { c } }");
        let mut seen = 0;
        walk_groups(&t, &mut |_| seen += 1);
        assert_eq!(seen, 3);
    }
}
