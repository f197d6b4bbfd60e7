//! The token tier: rules L1–L6 and the token-stream checks behind them.
//!
//! Each rule is a pure function over the tokenized file plus a
//! [`FileCtx`] describing where the file lives in the workspace
//! (crate, path). Test code — `tests/`, `benches/`, `examples/`
//! directories and `#[cfg(test)]` / `#[test]` items — is stripped
//! before the rules run: the paper's invariants constrain *shipping*
//! code; tests are free to `unwrap()` and compare floats exactly.
//!
//! | rule | scope | what it denies |
//! |------|-------|----------------|
//! | L1 | workspace (except `core/src/time.rs`) | raw `+ - * / %` on `*_ns` values / `as_ns()` results |
//! | L2 | workspace | `==` / `!=` against float literals |
//! | L3 | library crates | `unwrap` / `expect` / `panic!` family (deny); bare indexing (warn) |
//! | L4 | workspace (except `core/src/time.rs`) | lossy `as` casts on nanosecond values |
//! | L5 | `core`, `sim` | wall clock (`std::time`, `SystemTime`) |
//! | L6 | `obs` | every `Ordering::Relaxed`, until a waiver states why it is enough |
//!
//! Findings carry no waiver state: the global phase filters them
//! through the inline waivers and the allowlist like every other rule
//! (see `DESIGN.md` §9.3–§9.4).

use crate::facts::RawFinding;
use crate::lexer::{TokKind, Token};

/// Where a file sits in the workspace; drives rule scoping.
#[derive(Debug, Clone)]
pub(crate) struct FileCtx {
    /// Workspace-relative path with forward slashes
    /// (e.g. `crates/core/src/dbf.rs`).
    pub(crate) rel_path: String,
    /// Crate directory name under `crates/` (`core`, `sim`, `obs`, …),
    /// or `None` for the facade package at the workspace root.
    pub(crate) crate_dir: Option<String>,
}

impl FileCtx {
    /// Build a context from a workspace-relative path.
    #[must_use]
    pub(crate) fn from_rel_path(rel: &str) -> Self {
        let rel_path = rel.replace('\\', "/");
        let crate_dir = rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .map(str::to_string);
        FileCtx {
            rel_path,
            crate_dir,
        }
    }

    fn in_crate(&self, name: &str) -> bool {
        self.crate_dir.as_deref() == Some(name)
    }

    /// `crates/core/src/time.rs` is the one module allowed to do raw
    /// nanosecond arithmetic (L1) and lossy time casts (L4): it *is*
    /// the unit boundary.
    fn is_time_module(&self) -> bool {
        self.rel_path.ends_with("crates/core/src/time.rs")
            || self.rel_path == "crates/core/src/time.rs"
    }

    /// Library crates subject to the no-panic rule L3. Binary /
    /// reporting crates (`cli`, `bench`, `analyze` itself) may panic on
    /// operator error; the library layer must return typed errors.
    fn is_lib_crate(&self) -> bool {
        matches!(
            self.crate_dir.as_deref(),
            Some("core" | "mckp" | "sim" | "server" | "obs" | "stats" | "workloads")
        )
    }
}

/// Numeric cast targets that lose information when the source is a
/// `u64` nanosecond count. (`u64`→`u128`/`i128` are lossless.)
const LOSSY_NS_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "i8", "i16", "i32", "i64", "f32", "f64", "usize", "isize",
];

const ARITH_OPS: &[&str] = &["+", "-", "*", "/", "%", "+=", "-=", "*=", "/=", "%="];

/// Run every applicable rule on a tokenized file.
///
/// `tokens` is the test-stripped stream (see [`strip_test_regions`])
/// for production findings, or the full stream for the findings that
/// keep waivers in test code alive. No waiver is applied here.
#[must_use]
pub(crate) fn check(ctx: &FileCtx, tokens: &[Token]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    if !ctx.is_time_module() {
        rule_l1_time_unit_hygiene(tokens, &mut out);
        rule_l4_lossy_time_casts(tokens, &mut out);
    }
    rule_l2_float_eq(tokens, &mut out);
    if ctx.is_lib_crate() {
        rule_l3_no_panics(tokens, &mut out);
    }
    if ctx.in_crate("core") || ctx.in_crate("sim") {
        rule_l5_no_wall_clock(tokens, &mut out);
    }
    if ctx.in_crate("obs") {
        rule_l6_relaxed(tokens, &mut out);
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(&b.rule)));
    out
}

fn push(out: &mut Vec<RawFinding>, rule: &str, line: u32, severity: &str, message: String) {
    out.push(RawFinding {
        rule: rule.into(),
        line,
        severity: severity.into(),
        message,
    });
}

/// Remove `#[cfg(test)]` / `#[test]` items from the token stream.
///
/// Recognizes an attribute whose identifier sequence is exactly
/// `cfg test` or `test`, then skips the annotated item: any further
/// attributes, then either a `;`-terminated item or a braced body
/// (skipped to the matching `}`). `#[cfg(not(test))]` is *not*
/// stripped (its identifier sequence is `cfg not test`).
#[must_use]
pub(crate) fn strip_test_regions(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let (idents, end) = attr_idents(tokens, i + 1);
            let is_test_attr =
                idents == ["cfg", "test"] || idents == ["test"] || idents == ["cfg", "loom"];
            if is_test_attr {
                i = skip_item(tokens, end + 1);
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Collect identifier tokens inside an attribute starting at the `[`
/// at index `open`. Returns the identifiers and the index of the
/// matching `]`.
fn attr_idents(tokens: &[Token], open: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (idents, i);
            }
        } else if t.kind == TokKind::Ident {
            idents.push(t.text.clone());
        }
        i += 1;
    }
    (idents, tokens.len().saturating_sub(1))
}

/// Skip one item starting at `i` (after a test attribute): further
/// attributes, then a `;`-terminated item or a braced body.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further attributes on the same item.
    while i < tokens.len()
        && tokens[i].is_punct("#")
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
    {
        let (_, end) = attr_idents(tokens, i + 1);
        i = end + 1;
    }
    // Scan to `;` (no body) or the matching `}` of the first `{`.
    let mut depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if depth == 0 && t.is_punct(";") {
            return i + 1;
        }
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// True if the token at `i` produces a nanosecond-typed raw number:
/// an identifier ending in `_ns`, or the `)` closing an `.as_ns()` /
/// `.elapsed_ns()` call.
fn is_ns_valued(tokens: &[Token], i: usize) -> bool {
    let Some(t) = tokens.get(i) else {
        return false;
    };
    if t.kind == TokKind::Ident && t.text.ends_with("_ns") && t.text != "from_ns" {
        return true;
    }
    if t.is_punct(")") && i >= 2 && tokens[i - 1].is_punct("(") {
        if let Some(name) = tokens.get(i.wrapping_sub(2)) {
            return name.kind == TokKind::Ident
                && (name.text == "as_ns" || name.text.ends_with("_ns") && name.text != "from_ns");
        }
    }
    false
}

/// True if the token stream starting at `i` begins an expression whose
/// head is ns-valued: `x_ns …` or `x.as_ns()` / `self.field_ns`.
fn starts_ns_valued(tokens: &[Token], i: usize) -> bool {
    let Some(t) = tokens.get(i) else {
        return false;
    };
    if t.kind == TokKind::Ident && t.text.ends_with("_ns") && t.text != "from_ns" {
        return true;
    }
    // `recv . as_ns ( )` or `recv . field_ns`
    if t.kind == TokKind::Ident
        && tokens.get(i + 1).is_some_and(|d| d.is_punct("."))
        && tokens.get(i + 2).is_some_and(|m| {
            m.kind == TokKind::Ident && m.text.ends_with("_ns") && m.text != "from_ns"
        })
    {
        return true;
    }
    false
}

/// Could the token at `i` end an operand (making a following `*`/`-`
/// binary rather than unary)?
/// Keywords that may directly precede an array-literal `[` without the
/// bracket being an index expression.
fn is_expr_keyword(text: &str) -> bool {
    matches!(
        text,
        "in" | "return"
            | "if"
            | "else"
            | "match"
            | "break"
            | "while"
            | "loop"
            | "move"
            | "ref"
            | "mut"
            | "as"
            | "box"
            | "yield"
    )
}

fn ends_operand(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| {
        matches!(t.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
            || t.is_punct(")")
            || t.is_punct("]")
    })
}

/// **L1 — time-unit hygiene.** Raw `+ - * / %` (and compound
/// assignment) where either operand is a bare nanosecond count
/// (`*_ns` identifier or `.as_ns()` result) is flagged everywhere
/// except `core/src/time.rs`. Arithmetic on times must go through
/// `Duration`/`Instant`, whose operators carry the overflow policy.
fn rule_l1_time_unit_hygiene(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Punct || !ARITH_OPS.contains(&t.text.as_str()) {
            continue;
        }
        // `*` / `-` / `&` in prefix position are deref/negation, not
        // arithmetic — require a binary position for those.
        let binary = ends_operand(tokens, i.wrapping_sub(1));
        if (t.text == "*" || t.text == "-") && !binary {
            continue;
        }
        let lhs_ns = binary && is_ns_valued(tokens, i - 1);
        let rhs_ns = starts_ns_valued(tokens, i + 1);
        if lhs_ns || rhs_ns {
            push(
                out,
                "L1",
                t.line,
                "deny",
                format!(
                    "raw `{}` arithmetic on a nanosecond count; use `Duration`/`Instant` \
                     operations (only core/src/time.rs may do raw ns math)",
                    t.text
                ),
            );
        }
    }
}

/// **L2 — no exact float comparison.** `==` / `!=` with a float
/// literal operand. Density/benefit/DBF math is `f64`; exact equality
/// is only meaningful against a sign bound, so write `x <= 0.0` (with
/// a comment) or compare with a tolerance.
fn rule_l2_float_eq(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let float_near = |j: usize| tokens.get(j).is_some_and(|n| n.kind == TokKind::Float);
        if float_near(i.wrapping_sub(1)) || float_near(i + 1) {
            push(
                out,
                "L2",
                t.line,
                "deny",
                format!(
                    "exact float comparison `{}` against a float literal; use an \
                     inequality (`<= 0.0`) or an epsilon comparison",
                    t.text
                ),
            );
        }
    }
}

/// **L3 — no panics in library code.** `.unwrap()`, `.expect(…)`,
/// `panic!`, `unreachable!`, `todo!`, `unimplemented!` are denied in
/// library crates: return `CoreError`/`MckpError`/`SimError`/… instead.
/// Bare slice indexing `x[i]` is reported as a *warning* (heuristic:
/// too many false positives on validated indices to deny outright).
fn rule_l3_no_panics(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            push(
                out,
                "L3",
                t.line,
                "deny",
                format!(
                    "`{}!` in library code; surface a typed error instead",
                    t.text
                ),
            );
            continue;
        }
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "unwrap" | "expect")
            && i >= 1
            && tokens[i - 1].is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            push(
                out,
                "L3",
                t.line,
                "deny",
                format!(
                    "`.{}()` in library code; propagate a typed error or use a total \
                     alternative (`unwrap_or`, `ok_or_else`, `let-else`)",
                    t.text
                ),
            );
            continue;
        }
        // Indexing heuristic: `ident[` / `)[` / `][` — but not `#[attr]`,
        // not `&[T]` slice types, and not keyword-adjacent array literals
        // (`for x in [..]`, `return [..]`, `match x { _ => [..] }`).
        if t.is_punct("[")
            && ends_operand(tokens, i.wrapping_sub(1))
            && !tokens
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.is_punct("#") || is_expr_keyword(&p.text))
        {
            push(
                out,
                "L3",
                t.line,
                "warn",
                "slice indexing can panic; prefer `.get(…)` when the index is \
                 not locally proven in-bounds"
                    .to_string(),
            );
        }
    }
}

/// **L4 — lossy `as` casts on time values.** `…as_ns() as f64`,
/// `x_ns as u32`, … are flagged outside `core/src/time.rs`: the one
/// sanctioned widening is `Duration::as_ns_f64()` / `Instant::as_ns_f64()`.
fn rule_l4_lossy_time_casts(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        let Some(target) = tokens.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !LOSSY_NS_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        if is_ns_valued(tokens, i.wrapping_sub(1)) {
            push(
                out,
                "L4",
                t.line,
                "deny",
                format!(
                    "lossy `as {}` cast on a nanosecond value; use `as_ns_f64()` (the \
                     sanctioned widening) or a checked conversion",
                    target.text
                ),
            );
        }
    }
}

/// **L5 — no wall clock in deterministic crates.** `std::time` paths
/// and `SystemTime` are banned from `core` and `sim`: simulated
/// behaviour must be a pure function of the seed. Wall-clock latency
/// measurement lives in `rto-obs` (`Stopwatch`).
fn rule_l5_no_wall_clock(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        let std_time = t.is_ident("std")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("time"));
        let system_time = t.is_ident("SystemTime");
        if std_time || system_time {
            push(
                out,
                "L5",
                t.line,
                "deny",
                "wall clock (`std::time`/`SystemTime`) in a seed-deterministic \
                 crate; use `rto_core::time` for simulated time or \
                 `rto_obs::Stopwatch` for host latency"
                    .to_string(),
            );
        }
    }
}

/// **L6 — justified `Ordering::Relaxed`.** Every `Relaxed` atomic
/// ordering in `obs` is reported until a
/// `// analyze: allow(L6): <reason>` waiver on its line or the line
/// above states why no happens-before edge is needed.
fn rule_l6_relaxed(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for t in tokens {
        if t.is_ident("Relaxed") {
            push(
                out,
                "L6",
                t.line,
                "deny",
                "`Ordering::Relaxed` in obs needs a `// analyze: allow(L6): <reason>` \
                 justification on this line or the line above"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel: &str, src: &str) -> Vec<RawFinding> {
        let ctx = FileCtx::from_rel_path(rel);
        check(&ctx, &strip_test_regions(&lex(src).tokens))
    }

    fn rules(f: &[RawFinding]) -> Vec<&str> {
        f.iter().map(|x| x.rule.as_str()).collect()
    }

    #[test]
    fn l1_flags_raw_ns_arithmetic() {
        let f = run(
            "crates/sim/src/a.rs",
            "fn f(a: u64, b: u64) -> u64 { a + b_ns }",
        );
        assert_eq!(rules(&f), ["L1"]);
        let f = run("crates/sim/src/a.rs", "fn f() -> u64 { x.as_ns() * 2 }");
        assert_eq!(rules(&f), ["L1"]);
    }

    #[test]
    fn l1_exempts_time_module_and_from_ns() {
        assert!(run("crates/core/src/time.rs", "fn f() -> u64 { a_ns + b_ns }").is_empty());
        assert!(run("crates/sim/src/a.rs", "let d = Duration::from_ns(n) + e;").is_empty());
    }

    #[test]
    fn l1_ignores_unary_and_deref() {
        assert!(run(
            "crates/sim/src/a.rs",
            "let d = *rem_ns; let e = (-x, rem_ns);"
        )
        .is_empty());
    }

    #[test]
    fn l2_flags_float_equality_only() {
        let f = run("crates/core/src/a.rs", "fn f(x: f64) -> bool { x == 0.0 }");
        assert_eq!(rules(&f), ["L2"]);
        assert!(run("crates/core/src/a.rs", "fn f(x: f64) -> bool { x <= 0.0 }").is_empty());
        assert!(run("crates/core/src/a.rs", "fn f(x: u64) -> bool { x == 0 }").is_empty());
    }

    #[test]
    fn l3_flags_panics_in_lib_crates_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules(&run("crates/core/src/a.rs", src)), ["L3"]);
        assert!(run("crates/cli/src/a.rs", src).is_empty());
        let f = run("crates/obs/src/a.rs", "fn g() { unreachable!() }");
        assert_eq!(rules(&f), ["L3"]);
    }

    #[test]
    fn l3_total_alternatives_pass() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }";
        assert!(run("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn l3_indexing_is_warn() {
        let f = run("crates/core/src/a.rs", "fn f(v: &[u8]) -> u8 { v[0] }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "L3");
        assert_eq!(f[0].severity, "warn");
    }

    #[test]
    fn l4_flags_lossy_ns_casts() {
        let f = run("crates/sim/src/a.rs", "let x = d.as_ns() as f64;");
        assert_eq!(rules(&f), ["L4"]);
        assert!(run("crates/sim/src/a.rs", "let x = d.as_ns() as u128;").is_empty());
        assert!(run("crates/core/src/time.rs", "let x = d.as_ns() as f64;").is_empty());
    }

    #[test]
    fn l5_scoped_to_core_and_sim() {
        let src = "use std::time::Instant;";
        assert_eq!(rules(&run("crates/core/src/a.rs", src)), ["L5"]);
        assert_eq!(rules(&run("crates/sim/src/a.rs", src)), ["L5"]);
        assert!(run("crates/obs/src/a.rs", src).is_empty());
    }

    #[test]
    fn l6_reports_every_relaxed_in_obs_only() {
        let src = "let x = c.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);";
        assert_eq!(rules(&run("crates/obs/src/a.rs", src)), ["L6", "L6"]);
        // Out of scope: other crates may use Relaxed freely.
        assert!(run("crates/sim/src/a.rs", src).is_empty());
    }

    #[test]
    fn test_regions_are_stripped() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); assert!(y == 0.5); }\n}\n";
        assert!(run("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_stripped() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules(&run("crates/core/src/a.rs", src)), ["L3"]);
    }
}
