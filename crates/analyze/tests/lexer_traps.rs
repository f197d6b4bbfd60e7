//! Lexer hardening: adversarial token streams that a naive scanner
//! mis-lexes. Both the token rules (L1–L6) and the fact parser sit on
//! this lexer, so a confusion here (a string body leaking tokens, a
//! lifetime read as an unterminated char) would corrupt *both* tiers'
//! findings. Each test pins the exact token stream.

use rto_analyze::lexer::{lex, TokKind};

/// `(kind, text)` pairs for compact assertions.
fn kinds(src: &str) -> Vec<(TokKind, String)> {
    lex(src)
        .tokens
        .into_iter()
        .map(|t| (t.kind, t.text))
        .collect()
}

#[test]
fn raw_strings_are_opaque() {
    // `r#"…"#` with embedded quotes, `//`, and `unwrap()` — none of the
    // body may surface as tokens.
    let toks = kinds(r####"let x = r#"quote " slash // x.unwrap() done"# ;"####);
    let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
    assert_eq!(texts, ["let", "x", "=", "", ";"]);
    assert_eq!(toks[3].0, TokKind::Str);
    // More hashes than needed inside the body.
    let toks = kinds(r#####"r##"inner "# still open"## + 1"#####);
    assert_eq!(toks[0].0, TokKind::Str);
    assert_eq!(toks[1].1, "+");
    assert_eq!(toks[2].0, TokKind::Int);
}

#[test]
fn byte_strings_and_raw_byte_strings_are_opaque() {
    let toks = kinds(r###"let b = b"bytes .unwrap()" ;"###);
    let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
    assert_eq!(texts, ["let", "b", "=", "", ";"]);
    assert_eq!(toks[3].0, TokKind::Str);
    let toks = kinds(r####"br#"raw bytes " panic!() "# ;"####);
    assert_eq!(toks[0].0, TokKind::Str);
    assert_eq!(toks[1].1, ";");
    // No `panic` identifier escaped the literal.
    assert!(toks.iter().all(|(_, t)| t != "panic"));
}

#[test]
fn nested_block_comments_terminate_correctly() {
    let src = "a /* outer /* inner */ still comment */ b";
    let toks = kinds(src);
    let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
    assert_eq!(texts, ["a", "b"], "nested /* */ must nest, not cut early");
    // The whole comment is recorded on its starting line.
    let lexed = lex("x\n/* l2 /* deep */ tail */\ny\n");
    assert!(lexed.comment_on(2).contains("deep"));
    assert_eq!(lexed.tokens.len(), 2);
}

#[test]
fn char_literal_vs_lifetime() {
    // `'a'` is a char; `'a` (no closing quote) is a lifetime.
    let toks = kinds("let c: char = 'a'; fn f<'a>(x: &'a str) {}");
    let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
    assert_eq!(chars.len(), 1);
    let lifetimes: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::Lifetime)
        .collect();
    assert_eq!(lifetimes.len(), 2, "{toks:?}");
    // Escaped quote and escaped backslash chars don't derail the scan.
    let toks = kinds(r"let q = '\''; let b = '\\'; done");
    assert_eq!(
        toks.iter().filter(|(k, _)| *k == TokKind::Char).count(),
        2,
        "{toks:?}"
    );
    assert_eq!(toks.last().map(|(_, t)| t.as_str()), Some("done"));
    // `'static` in a type position is a lifetime, not an unterminated char.
    let toks = kinds("static S: &'static str = \"s\";");
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokKind::Lifetime && t == "'static"));
}

#[test]
fn string_escapes_do_not_leak_tokens() {
    // Escaped quote inside a normal string, then a real terminator.
    let toks = kinds(r#"let s = "she said \"hi\" // not a comment"; after"#);
    let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
    assert_eq!(texts, ["let", "s", "=", "", ";", "after"]);
    // A trailing backslash-escape at the very end must not panic.
    let toks = kinds(r#""unterminated \"#);
    assert_eq!(toks.len(), 1);
}

#[test]
fn maximal_munch_punctuation() {
    let toks = kinds("a >>= b; c << d; e -> f; g::h; i >= j");
    let puncts: Vec<&str> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::Punct)
        .map(|(_, t)| t.as_str())
        .collect();
    assert!(puncts.contains(&">>="), "{puncts:?}");
    assert!(puncts.contains(&"<<"), "{puncts:?}");
    assert!(puncts.contains(&"->"), "{puncts:?}");
    assert!(puncts.contains(&"::"), "{puncts:?}");
    assert!(puncts.contains(&">="), "{puncts:?}");
}

#[test]
fn line_numbers_survive_multiline_constructs() {
    let src = "let a = \"line1\nline2\nline3\";\nlet b = 9;\n";
    let lexed = lex(src);
    let b = lexed
        .tokens
        .iter()
        .find(|t| t.is_ident("b"))
        .expect("b token");
    assert_eq!(b.line, 4, "multiline string must advance the line counter");
    let nine = lexed
        .tokens
        .iter()
        .find(|t| t.kind == TokKind::Int)
        .expect("int token");
    assert_eq!(nine.line, 4);
}
