//! A Rust lexer producing spanned tokens.
//!
//! The lexer understands everything the old line-based analyzer could
//! not: string literals (including raw and byte strings), character
//! literals vs. lifetimes, nested block comments, and numeric literal
//! classification (integer vs. float, with underscores, exponents and
//! type suffixes). Comments and string contents never reach the token
//! stream, so rules can only ever match code.

/// What a single token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// An identifier or keyword (`self`, `fn`, `shard_of`, ...).
    Ident(String),
    /// A lifetime such as `'a` (without the quote).
    Lifetime(String),
    /// An integer literal, verbatim (`42`, `0xFF`, `1_000u64`).
    Int(String),
    /// A floating-point literal, verbatim (`1.0`, `1e-12`, `2f64`).
    Float(String),
    /// A string literal of any flavor (`"…"`, `r#"…"#`, `b"…"`);
    /// contents are deliberately dropped — rules must not see them.
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation, with multi-character operators joined by maximal
    /// munch (`::`, `->`, `==`, `..=`, ...).
    Punct(&'static str),
}

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
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments are skipped.
        if cur.starts_with("//") {
            while cur.peek().is_some_and(|ch| ch != '\n') {
                cur.bump();
            }
            continue;
        }
        if cur.starts_with("/*") {
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
                        break;
                    }
                } else {
                    cur.bump();
                }
            }
            continue;
        }
        // Raw strings and byte strings: r"…", r#"…"#, br#"…"#, b"…".
        if c == 'r' || c == 'b' {
            if let Some(len) = raw_string_intro(&cur) {
                lex_raw_string(&mut cur, len);
                out.push(Token {
                    kind: TokenKind::Str,
                    line,
                    col,
                });
                continue;
            }
            if c == 'b' && cur.peek_at(1) == Some('"') {
                cur.bump(); // b
                lex_string(&mut cur);
                out.push(Token {
                    kind: TokenKind::Str,
                    line,
                    col,
                });
                continue;
            }
            if c == 'b' && cur.peek_at(1) == Some('\'') {
                cur.bump(); // b
                lex_char(&mut cur);
                out.push(Token {
                    kind: TokenKind::Char,
                    line,
                    col,
                });
                continue;
            }
        }
        if c == '"' {
            lex_string(&mut cur);
            out.push(Token {
                kind: TokenKind::Str,
                line,
                col,
            });
            continue;
        }
        if c == '\'' {
            // Lifetime or char literal. A lifetime is `'` + ident with no
            // closing quote; a char literal closes after one (possibly
            // escaped) character.
            if is_char_literal(&cur) {
                lex_char(&mut cur);
                out.push(Token {
                    kind: TokenKind::Char,
                    line,
                    col,
                });
            } else {
                cur.bump(); // '
                let mut name = String::new();
                while let Some(ch) = cur.peek() {
                    if ch.is_alphanumeric() || ch == '_' {
                        name.push(ch);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Lifetime(name),
                    line,
                    col,
                });
            }
            continue;
        }
        if c.is_ascii_digit() {
            let kind = lex_number(&mut cur);
            out.push(Token { kind, line, col });
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let mut name = String::new();
            while let Some(ch) = cur.peek() {
                if ch.is_alphanumeric() || ch == '_' {
                    name.push(ch);
                    cur.bump();
                } else {
                    break;
                }
            }
            out.push(Token {
                kind: TokenKind::Ident(name),
                line,
                col,
            });
            continue;
        }
        // Punctuation: maximal munch over the operator table. Anything
        // else (stray unicode) is dropped.
        match OPS.iter().find(|op| cur.starts_with(op)) {
            Some(op) => {
                for _ in 0..op.len() {
                    cur.bump();
                }
                out.push(Token {
                    kind: TokenKind::Punct(op),
                    line,
                    col,
                });
            }
            None => {
                cur.bump();
            }
        }
    }
    out
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

/// Consumes a numeric literal and classifies it as integer or float.
fn lex_number(cur: &mut Cursor) -> TokenKind {
    let mut text = String::new();
    let mut is_float = false;
    // Radix prefixes are always integers.
    if cur.peek() == Some('0')
        && matches!(
            cur.peek_at(1),
            Some('x') | Some('X') | Some('o') | Some('O') | Some('b') | Some('B')
        )
    {
        text.push(cur.bump().unwrap_or('0'));
        text.push(cur.bump().unwrap_or('x'));
        while let Some(c) = cur.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        return TokenKind::Int(text);
    }
    while let Some(c) = cur.peek() {
        if c.is_ascii_digit() || c == '_' {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    // Fractional part: `1.5` or trailing `1.` — but not `1..5` (range)
    // and not `1.max(2)` (method call on an integer literal).
    if cur.peek() == Some('.') {
        match cur.peek_at(1) {
            Some(c2) if c2.is_ascii_digit() => {
                is_float = true;
                text.push('.');
                cur.bump();
                while let Some(c) = cur.peek() {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
            }
            Some('.') => {}
            Some(c2) if c2.is_alphabetic() || c2 == '_' => {}
            _ => {
                // `1.` at end of expression.
                is_float = true;
                text.push('.');
                cur.bump();
            }
        }
    }
    // Exponent.
    if matches!(cur.peek(), Some('e') | Some('E')) {
        let (sign, first_digit) = match cur.peek_at(1) {
            Some('+') | Some('-') => (1, cur.peek_at(2)),
            other => (0, other),
        };
        if first_digit.is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            text.push(cur.bump().unwrap_or('e'));
            for _ in 0..sign {
                text.push(cur.bump().unwrap_or('+'));
            }
            while let Some(c) = cur.peek() {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
    }
    // Type suffix.
    let mut suffix = String::new();
    while let Some(c) = cur.peek() {
        if c.is_alphanumeric() || c == '_' {
            suffix.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    if suffix.starts_with('f') {
        is_float = true;
    }
    text.push_str(&suffix);
    if is_float {
        TokenKind::Float(text)
    } else {
        TokenKind::Int(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
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
        assert!(k.contains(&TokenKind::Str));
        assert!(!k
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(i) if i == "panic")));
    }

    #[test]
    fn raw_strings_and_bytes() {
        let k = kinds(r###"let s = r#"x.unwrap() "quoted""#; let b = b"panic!";"###);
        assert_eq!(
            k.iter().filter(|t| **t == TokenKind::Str).count(),
            2,
            "{k:?}"
        );
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
        let k = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(k.iter().filter(|t| **t == TokenKind::Char).count(), 2);
        assert_eq!(
            k.iter()
                .filter(|t| matches!(t, TokenKind::Lifetime(l) if l == "a"))
                .count(),
            2
        );
    }

    #[test]
    fn number_classification() {
        assert_eq!(kinds("42"), vec![TokenKind::Int("42".into())]);
        assert_eq!(kinds("0xFF_u8"), vec![TokenKind::Int("0xFF_u8".into())]);
        assert_eq!(kinds("1.5"), vec![TokenKind::Float("1.5".into())]);
        assert_eq!(kinds("1e-12"), vec![TokenKind::Float("1e-12".into())]);
        assert_eq!(kinds("2f64"), vec![TokenKind::Float("2f64".into())]);
        assert_eq!(kinds("1_000"), vec![TokenKind::Int("1_000".into())]);
        // Ranges and method calls on integers stay integers.
        assert_eq!(
            kinds("1..5"),
            vec![
                TokenKind::Int("1".into()),
                TokenKind::Punct(".."),
                TokenKind::Int("5".into()),
            ]
        );
        assert_eq!(
            kinds("1.max(2)")[0],
            TokenKind::Int("1".into()),
            "method call on int literal"
        );
    }

    #[test]
    fn spans_are_one_based() {
        let out = lex("a\n  b");
        assert_eq!((out[0].line, out[0].col), (1, 1));
        assert_eq!((out[1].line, out[1].col), (2, 3));
    }
}
