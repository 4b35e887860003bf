//! A Rust lexer producing spanned tokens.
//!
//! The lexer understands everything the old line-based analyzer could
//! not: string literals (including raw and byte strings), character
//! literals vs. lifetimes, and nested block comments. Comments and
//! string contents never reach the token stream, so rules can only ever
//! match code.

/// What a single token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// An identifier or keyword (`self`, `fn`, `lock`, ...).
    Ident(String),
    /// A literal or lifetime. A number keeps its text, a maximal run of
    /// alphanumerics and `_` (`4`, `0xFF_u8`; `1.5` is `1`, `.`, `5`).
    /// Strings, chars and lifetimes carry no text, so their contents
    /// never reach a rule.
    Literal(String),
    /// Punctuation, with multi-character operators joined by maximal
    /// munch (`::`, `->`, `==`, `..=`, ...).
    Punct(&'static str),
}

/// A string, char or lifetime: a literal with no text.
const OPAQUE: TokenKind = TokenKind::Literal(String::new());

/// One token with its position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Token {
    /// The token's kind and text.
    pub(crate) kind: TokenKind,
    /// 1-based source line of the token's first character.
    pub(crate) line: usize,
    /// 1-based column of the token's first character.
    pub(crate) col: usize,
}

/// Punctuation, longest first so maximal munch works by scanning the
/// table in order.
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..", "+", "-", "*", "/", "%", "^", "&", "|",
    "!", "<", ">", "=", ".", ",", ";", ":", "#", "$", "?", "@", "(", ")", "{", "}", "[", "]", "~",
    "'", "\"", "\\",
];

/// Cursor over the source with line/column tracking.
struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Cursor {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        s.chars()
            .enumerate()
            .all(|(i, c)| self.peek_at(i) == Some(c))
    }
}

/// Tokenizes `src`. The lexer never fails: malformed input (an
/// unterminated string, say) is consumed to end-of-file and the tokens
/// seen so far are returned — a linter must degrade gracefully on code
/// that rustc itself will reject later.
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        let kind = if c.is_whitespace() {
            cur.bump();
            None
        } else if cur.starts_with("//") {
            while cur.peek().is_some_and(|ch| ch != '\n') {
                cur.bump();
            }
            None
        } else if cur.starts_with("/*") {
            skip_block_comment(&mut cur);
            None
        } else if let Some(hashes) = raw_string_intro(&cur) {
            // r"…", r#"…"#, br#"…"#
            lex_raw_string(&mut cur, hashes);
            Some(OPAQUE)
        } else if c == '"' || (c == 'b' && cur.peek_at(1) == Some('"')) {
            if c == 'b' {
                cur.bump();
            }
            lex_string(&mut cur);
            Some(OPAQUE)
        } else if c == '\'' || (c == 'b' && cur.peek_at(1) == Some('\'')) {
            // A char literal closes after one (possibly escaped)
            // character; a lifetime is `'` + ident with no closing quote.
            if c == 'b' {
                cur.bump();
                lex_char(&mut cur);
            } else if is_char_literal(&cur) {
                lex_char(&mut cur);
            } else {
                cur.bump();
                word(&mut cur);
            }
            Some(OPAQUE)
        } else if c.is_ascii_digit() {
            Some(TokenKind::Literal(word(&mut cur)))
        } else if c.is_alphabetic() || c == '_' {
            Some(TokenKind::Ident(word(&mut cur)))
        } else if let Some(op) = OPS.iter().find(|op| cur.starts_with(op)) {
            // Maximal munch over the operator table.
            for _ in 0..op.len() {
                cur.bump();
            }
            Some(TokenKind::Punct(op))
        } else {
            // Stray unicode is dropped.
            cur.bump();
            None
        };
        if let Some(kind) = kind {
            out.push(Token { kind, line, col });
        }
    }
    out
}

/// Consumes a maximal run of alphanumerics and `_`: an identifier, a
/// number with its suffix, or a lifetime's name.
fn word(cur: &mut Cursor) -> String {
    let mut text = String::new();
    while let Some(ch) = cur.peek().filter(|ch| ch.is_alphanumeric() || *ch == '_') {
        text.push(ch);
        cur.bump();
    }
    text
}

/// Consumes a (possibly nested) block comment; the cursor sits on `/*`.
fn skip_block_comment(cur: &mut Cursor) {
    let mut depth = 0usize;
    while cur.peek().is_some() {
        if cur.starts_with("/*") {
            depth += 1;
            cur.bump();
            cur.bump();
        } else if cur.starts_with("*/") {
            depth -= 1;
            cur.bump();
            cur.bump();
            if depth == 0 {
                return;
            }
        } else {
            cur.bump();
        }
    }
}

/// Length of a raw-string introducer at the cursor (`r`, `br` plus `#`s
/// and the opening quote), or `None` if the cursor is not at one.
fn raw_string_intro(cur: &Cursor) -> Option<usize> {
    let mut i = 0;
    if cur.peek_at(i) == Some('b') {
        i += 1;
    }
    if cur.peek_at(i) != Some('r') {
        return None;
    }
    i += 1;
    let mut hashes = 0;
    while cur.peek_at(i) == Some('#') {
        i += 1;
        hashes += 1;
    }
    if cur.peek_at(i) == Some('"') {
        Some(hashes)
    } else {
        None
    }
}

/// Consumes a raw string with `hashes` `#`s; the cursor sits on the
/// introducer.
fn lex_raw_string(cur: &mut Cursor, hashes: usize) {
    // Skip to and past the opening quote.
    while let Some(c) = cur.bump() {
        if c == '"' {
            break;
        }
    }
    let closer = format!("\"{}", "#".repeat(hashes));
    while cur.peek().is_some() {
        if cur.starts_with(&closer) {
            for _ in 0..closer.len() {
                cur.bump();
            }
            return;
        }
        cur.bump();
    }
}

/// Consumes a normal string literal; the cursor sits on the opening `"`.
fn lex_string(cur: &mut Cursor) {
    cur.bump(); // "
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => return,
            _ => {}
        }
    }
}

/// Whether the cursor (on a `'`) starts a char literal rather than a
/// lifetime.
fn is_char_literal(cur: &Cursor) -> bool {
    match cur.peek_at(1) {
        Some('\\') => true,
        Some(c) if c != '\'' => cur.peek_at(2) == Some('\''),
        _ => false,
    }
}

/// Consumes a char/byte literal; the cursor sits on the opening `'`.
fn lex_char(cur: &mut Cursor) {
    cur.bump(); // '
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '\'' => return,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    fn lit(text: &str) -> TokenKind {
        TokenKind::Literal(text.into())
    }

    #[test]
    fn idents_and_ops() {
        let k = kinds("a == b != c && d");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Punct("=="),
                TokenKind::Ident("b".into()),
                TokenKind::Punct("!="),
                TokenKind::Ident("c".into()),
                TokenKind::Punct("&&"),
                TokenKind::Ident("d".into()),
            ]
        );
    }

    #[test]
    fn strings_hide_contents() {
        let k = kinds(r#"let s = "panic! .unwrap()";"#);
        assert!(k.contains(&OPAQUE));
        assert!(!k
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(i) if i == "panic")));
    }

    #[test]
    fn raw_strings_and_bytes() {
        let k = kinds(r###"let s = r#"x.unwrap() "quoted""#; let b = b"panic!";"###);
        assert_eq!(k.iter().filter(|t| **t == OPAQUE).count(), 2, "{k:?}");
        assert!(!k
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(i) if i == "unwrap")));
    }

    #[test]
    fn comments_are_skipped_not_tokenized() {
        let k = kinds("let x = 1; // trailing note\n/* block\ncomment */ let y = 2;\n");
        assert_eq!(k.len(), 10, "{k:?}");
        assert!(!k
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(i) if i == "note" || i == "comment")));
    }

    #[test]
    fn nested_block_comments() {
        let k = kinds("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(k[0], TokenKind::Ident("fn".into()), "{k:?}");
        assert!(!k
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(i) if i == "still")));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let k = kinds("fn f<'a>(x: &'a str) { let c = '{'; let n = '\\n'; let b = b'\\''; }");
        assert_eq!(k.iter().filter(|t| **t == OPAQUE).count(), 5, "{k:?}");
        // `'{'` is consumed whole, so it opens no group.
        assert_eq!(
            k.iter().filter(|t| **t == TokenKind::Punct("{")).count(),
            1,
            "{k:?}"
        );
        assert!(!k
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(i) if i == "a")));
    }

    #[test]
    fn numbers_are_one_literal_each() {
        assert_eq!(kinds("42"), vec![lit("42")]);
        assert_eq!(kinds("0xFF_u8"), vec![lit("0xFF_u8")]);
        assert_eq!(kinds("2f64"), vec![lit("2f64")]);
        assert_eq!(kinds("1_000"), vec![lit("1_000")]);
        // A dot is punctuation: ranges, method calls and fractions alike.
        assert_eq!(
            kinds("1..5"),
            vec![lit("1"), TokenKind::Punct(".."), lit("5")]
        );
        assert_eq!(kinds("1.max(2)")[..2], [lit("1"), TokenKind::Punct(".")]);
        assert_eq!(
            kinds("1.5"),
            vec![lit("1"), TokenKind::Punct("."), lit("5")]
        );
    }

    #[test]
    fn spans_are_one_based() {
        let out = lex("a\n  b");
        assert_eq!((out[0].line, out[0].col), (1, 1));
        assert_eq!((out[1].line, out[1].col), (2, 3));
    }
}
