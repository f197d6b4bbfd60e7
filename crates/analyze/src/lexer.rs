//! A small, lossless-enough Rust tokenizer shared by the token tier
//! ([`crate::rules`]) and the fact parser ([`crate::parse`]).
//!
//! This is *not* a full Rust lexer: it produces exactly the token stream
//! the analyzer needs — identifiers, normalized
//! multi-character punctuation, integer/float literals, opaque
//! string/char literals, and lifetimes — while preserving comments
//! (with line numbers) so that inline waivers
//! (`// analyze: allow(RULE): reason`) and `// analyze: hot-path`
//! annotations can be honoured. Everything operates on `char`s, so multi-byte UTF-8 in
//! strings and comments is handled without byte-offset bookkeeping.
//!
//! Design notes:
//!
//! * **Strings are opaque.** A `"..."`/`r#"..."#` literal becomes a
//!   single [`TokKind::Str`] token; rules never match inside strings, so
//!   a diagnostic message that *mentions* `unwrap()` cannot trip L3.
//! * **Maximal-munch punctuation.** `==`, `!=`, `..=`, `->`, `::`,
//!   `+=` … are single tokens, so the rules can reason about operator
//!   adjacency without re-parsing.
//! * **Floats vs. ranges vs. method calls.** `1.5` is one float token;
//!   `1..5` is `1`, `..`, `5`; `1.max(2)` is `1`, `.`, `max`, … — the
//!   lexer only consumes a `.` into a number when the next character is
//!   a digit (or end-of-expression, as in `1.`).

use std::collections::HashMap;

/// Token classification. `Punct` text is the normalized operator
/// spelling (`"=="`, `"+="`, `"::"`, …) or a single character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation / operator (normalized multi-char).
    Punct,
    /// Integer literal (including suffixed, hex/oct/bin).
    Int,
    /// Floating literal (contains `.`, exponent, or an `f32`/`f64` suffix).
    Float,
    /// String / byte-string literal (content discarded).
    Str,
    /// Character literal (content discarded).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Exact source spelling (opaque placeholder for `Str`/`Char`).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// True if this token is punctuation with exactly this spelling.
    #[must_use]
    pub(crate) fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }

    /// True if this token is an identifier with exactly this spelling.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// Tokenized file: the token stream plus per-line comment text.
///
/// `comments[line]` is the concatenation of every comment that *starts*
/// on `line` (1-based). Waiver lookup checks the finding's line and the
/// line directly above it.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, in source order.
    pub tokens: Vec<Token>,
    /// Per-line comment text (keyed by 1-based start line).
    pub(crate) comments: HashMap<u32, String>,
}

impl Lexed {
    /// Comment text starting on `line`, or `""`.
    #[must_use]
    pub fn comment_on(&self, line: u32) -> &str {
        self.comments.get(&line).map_or("", String::as_str)
    }
}

/// Multi-character operators, longest first (maximal munch).
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "::", "->", "=>", "..",
];

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`. Never fails: unrecognized characters become
/// single-character punctuation, and unterminated literals are consumed
/// to end-of-file (good enough for a linter that only runs on code the
/// compiler already accepted).
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let line = cur.line;
        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.comments.entry(line).or_default().push_str(&text);
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            let mut text = String::new();
            let mut depth = 0u32;
            while let Some(ch) = cur.peek(0) {
                if ch == '/' && cur.peek(1) == Some('*') {
                    depth += 1;
                    text.push_str("/*");
                    cur.bump();
                    cur.bump();
                } else if ch == '*' && cur.peek(1) == Some('/') {
                    depth -= 1;
                    text.push_str("*/");
                    cur.bump();
                    cur.bump();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(ch);
                    cur.bump();
                }
            }
            out.comments.entry(line).or_default().push_str(&text);
            continue;
        }
        // Raw / byte strings: r"..", r#".."#, br"..", b"..".
        if (c == 'r' || c == 'b') && matches!(cur.peek(1), Some('"' | '#' | 'r')) {
            if let Some(len) = raw_or_byte_string_len(&cur) {
                for _ in 0..len {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                });
                continue;
            }
        }
        // Plain strings.
        if c == '"' {
            cur.bump();
            consume_quoted(&mut cur, '"');
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let next = cur.peek(1);
            let after = cur.peek(2);
            let is_lifetime = matches!(next, Some(n) if is_ident_start(n)) && after != Some('\'');
            cur.bump(); // the quote
            if is_lifetime {
                let mut text = String::from("'");
                while let Some(ch) = cur.peek(0) {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text,
                    line,
                });
            } else {
                consume_quoted(&mut cur, '\'');
                out.tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
            }
            continue;
        }
        // Identifiers / keywords.
        if is_ident_start(c) {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if !is_ident_continue(ch) {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text,
                line,
            });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            let tok = lex_number(&mut cur, line);
            out.tokens.push(tok);
            continue;
        }
        // Multi-char punctuation (maximal munch).
        let mut matched = false;
        for p in PUNCTS {
            let plen = p.chars().count();
            if (0..plen).all(|i| cur.peek(i) == p.chars().nth(i)) {
                for _ in 0..plen {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (*p).to_string(),
                    line,
                });
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        // Single-char punctuation (or anything else).
        cur.bump();
        out.tokens.push(Token {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
    }
    out
}

/// If the cursor sits on a raw/byte-string opener, return its total
/// char length; otherwise `None`.
fn raw_or_byte_string_len(cur: &Cursor) -> Option<usize> {
    let mut i = 0;
    if cur.peek(i) == Some('b') {
        i += 1;
    }
    let raw = cur.peek(i) == Some('r');
    if raw {
        i += 1;
    }
    let mut hashes = 0;
    while cur.peek(i) == Some('#') {
        hashes += 1;
        i += 1;
    }
    if cur.peek(i) != Some('"') {
        return None;
    }
    if !raw && hashes > 0 {
        return None; // `b#` is not a string
    }
    i += 1;
    // Scan for the closing quote.
    loop {
        match cur.peek(i) {
            None => return Some(i), // unterminated; consume to EOF
            Some('\\') if !raw => {
                i += 2;
            }
            Some('"') => {
                let mut close = 0;
                while close < hashes && cur.peek(i + 1 + close) == Some('#') {
                    close += 1;
                }
                if close == hashes {
                    return Some(i + 1 + hashes);
                }
                i += 1;
            }
            Some(_) => {
                i += 1;
            }
        }
    }
}

/// Consume a quoted literal body up to (and including) the unescaped
/// terminator.
fn consume_quoted(cur: &mut Cursor, term: char) {
    while let Some(ch) = cur.bump() {
        if ch == '\\' {
            cur.bump();
        } else if ch == term {
            break;
        }
    }
}

fn lex_number(cur: &mut Cursor, line: u32) -> Token {
    let mut text = String::new();
    let radix_prefix = cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x' | 'o' | 'b'));
    if radix_prefix {
        text.push(cur.bump().unwrap_or('0'));
        text.push(cur.bump().unwrap_or('x'));
    }
    let mut float = false;
    while let Some(ch) = cur.peek(0) {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            if !radix_prefix && (ch == 'e' || ch == 'E') {
                // Exponent only if followed by digit or sign+digit.
                let sign = matches!(cur.peek(1), Some('+' | '-'));
                let digit_at = usize::from(sign) + 1;
                if matches!(cur.peek(digit_at), Some(d) if d.is_ascii_digit()) {
                    float = true;
                    text.push(ch);
                    cur.bump();
                    if sign {
                        text.push(cur.bump().unwrap_or('+'));
                    }
                    continue;
                }
            }
            text.push(ch);
            cur.bump();
        } else if ch == '.' && !radix_prefix && !float {
            // `1.5` / `1.` are floats; `1..`, `1.max(…)` are not.
            match cur.peek(1) {
                Some(d) if d.is_ascii_digit() => {
                    float = true;
                    text.push(ch);
                    cur.bump();
                }
                Some(n) if n == '.' || is_ident_start(n) => break,
                _ => {
                    float = true;
                    text.push(ch);
                    cur.bump();
                    break;
                }
            }
        } else {
            break;
        }
    }
    let float = float || (!radix_prefix && (text.ends_with("f32") || text.ends_with("f64")));
    Token {
        kind: if float { TokKind::Float } else { TokKind::Int },
        text,
        line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn basic_stream() {
        let toks = kinds("let x_ns = a.as_ns() + 1;");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "x_ns", "=", "a", ".", "as_ns", "(", ")", "+", "1", ";"]
        );
    }

    #[test]
    fn float_vs_range_vs_method() {
        assert_eq!(
            kinds("1.5 1..5 1.max(2) 2. 1e9 0x1f 3f64"),
            vec![
                (TokKind::Float, "1.5".into()),
                (TokKind::Int, "1".into()),
                (TokKind::Punct, "..".into()),
                (TokKind::Int, "5".into()),
                (TokKind::Int, "1".into()),
                (TokKind::Punct, ".".into()),
                (TokKind::Ident, "max".into()),
                (TokKind::Punct, "(".into()),
                (TokKind::Int, "2".into()),
                (TokKind::Punct, ")".into()),
                (TokKind::Float, "2.".into()),
                (TokKind::Float, "1e9".into()),
                (TokKind::Int, "0x1f".into()),
                (TokKind::Float, "3f64".into()),
            ]
        );
    }

    #[test]
    fn strings_and_chars_are_opaque() {
        let toks = kinds(r#"let s = "x.unwrap() + y_ns"; let c = '+'; let l: &'static str = r#f;"#);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokKind::Ident || (t != "unwrap" && t != "y_ns")));
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Char));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'static"));
    }

    #[test]
    fn raw_strings() {
        let toks = kinds(r##"let s = r#"a "quoted" unwrap()"#; x"##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "x"));
        assert!(!toks.iter().any(|(_, t)| t == "unwrap"));
    }

    #[test]
    fn comments_recorded_by_line() {
        let l = lex("let a = 1; // analyze: allow(L3): reason\n/* block */ let b = 2;\n");
        assert!(l.comment_on(1).contains("analyze: allow(L3): reason"));
        assert!(l.comment_on(2).contains("block"));
        assert_eq!(l.comment_on(3), "");
    }

    #[test]
    fn nested_block_comment() {
        let l = lex("/* outer /* inner */ still */ let x = 1;");
        assert!(l.comment_on(1).contains("inner"));
        assert!(l.tokens.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn multichar_puncts() {
        let texts: Vec<String> = lex("a == b != c -> d => e :: f ..= g += h")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, ["==", "!=", "->", "=>", "::", "..=", "+="]);
    }
}
