//! Phase 1: token-stream parsing of one file into [`FileFacts`].
//!
//! Runs the token tier ([`crate::rules`]) on the lexed file, then walks
//! the test-stripped token stream with a small recursive item scanner:
//!
//! ```text
//! items := (attr* vis? (impl | trait | mod | fn | other-item))*
//! ```
//!
//! The scanner is deliberately heuristic — it runs on code the compiler
//! already accepted, so it never errors; unrecognized constructs are
//! skipped token-by-token. Everything downstream (call graph, A1/A2)
//! over-approximates, so a missed construct can only lose precision,
//! never soundness of the "no finding" direction for seeds it did see.

use crate::facts::{
    A4Site, AllocFact, AllocKind, AtomicFact, BlockFact, CallFact, FileFacts, FnFact, LoopFact,
    LoopKind, NondetFact, NondetKind, RawFinding, SeedFact, SeedKind, Unit, WaiverComment,
};
use crate::interval;
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::rules::{self, FileCtx};
use std::collections::{HashMap, HashSet};

/// Crates whose bare indexing counts as an A1 seed (mirrors L3's
/// library-crate scope).
const INDEX_SEED_CRATES: &[&str] = &["core", "mckp", "sim", "server", "obs", "stats", "workloads"];

/// Keywords that can be followed by `(` without being a call, or
/// precede `[` without being an index expression.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "move",
    "ref", "mut", "as", "box", "yield", "let", "fn", "impl", "where", "unsafe", "async", "await",
    "dyn",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// True for macro names in the panic family (shared with the A4
/// walker's divergence check).
pub(crate) fn is_panic_macro(name: &str) -> bool {
    PANIC_MACROS.contains(&name)
}

/// Atomic operations whose `Ordering::X` arguments A5 audits. A fact
/// is only recorded when an `Ordering::` token actually appears in the
/// argument list, so unrelated methods that happen to share a name
/// (`cache.store(key, value)`) never produce atomic facts.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Method names that (potentially) block the calling thread — A5's
/// seed set for the worker-closure blocking check.
const BLOCKING_METHODS: &[(&str, &str)] = &[
    ("lock", "`Mutex::lock`"),
    ("recv", "channel `recv`"),
    ("recv_timeout", "channel `recv_timeout`"),
    ("wait", "condvar `wait`"),
    ("wait_timeout", "condvar `wait_timeout`"),
    ("write_all", "file I/O (`write_all`)"),
    ("flush", "file I/O (`flush`)"),
    ("read_to_string", "file I/O (`read_to_string`)"),
    ("read_line", "file I/O (`read_line`)"),
    ("sync_all", "file I/O (`sync_all`)"),
];

/// Methods that expose the (seed-randomized) iteration order of a
/// `HashMap`/`HashSet` receiver — A6's hash-iteration source set.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Method names that grow a dynamic container — A7's `GrowPush` class.
/// Only flagged when the defining file carries no `with_capacity` /
/// `reserve` evidence.
const GROW_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "extend",
    "append",
    "insert",
];

/// Order-sensitive reduction adaptors: folding floats in hash order is
/// the classic silent nondeterminism, so A6 names them in the witness.
const REDUCE_METHODS: &[&str] = &["sum", "fold", "product"];

/// Methods that consume an element from a finite source — the
/// `while let` drain witness (A8). `recv` terminates when every sender
/// is dropped; `next` when the iterator is exhausted.
const DRAIN_METHODS: &[&str] = &[
    "pop",
    "pop_front",
    "pop_back",
    "pop_first",
    "pop_last",
    "next",
    "next_back",
    "recv",
    "try_recv",
    "recv_timeout",
    "pop_due",
];

/// Methods that refill a source — a drain witness is void when the
/// loop body feeds the very source it drains (A8).
const REFILL_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
];

/// Mutating methods on a guard container that count as monotone
/// progress toward the `while` bound (A8): shrinking drains and
/// bounded growth (`while v.len() < n { v.push(..) }`) alike.
const PROGRESS_METHODS: &[&str] = &[
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "truncate",
    "drain",
    "clear",
    "next",
    "push",
];

/// Primitive numeric type names tracked by the A4 interval pass.
pub(crate) fn is_primitive_ty(name: &str) -> bool {
    matches!(
        name,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
            | "f32"
            | "f64"
    )
}

/// Re-lex a source file into the same test-stripped token stream that
/// [`parse_file`] walked — [`crate::facts::FnFact::body_span`] indices
/// refer to this stream, so the phase-2 fixpoint engine uses this to
/// re-walk function bodies.
pub(crate) fn stripped_tokens(src: &str) -> Vec<Token> {
    rules::strip_test_regions(&lex(src).tokens)
}

/// Parse one source file into facts. Pure in `(rel_path, src)`: no
/// waiver or allowlist entry is applied here; the global phase applies
/// both, the same way for every rule.
#[must_use]
pub fn parse_file(rel_path: &str, src: &str) -> FileFacts {
    let ctx = FileCtx::from_rel_path(rel_path);
    let lexed = lex(src);
    let stripped = rules::strip_test_regions(&lexed.tokens);

    let mut facts = FileFacts {
        rel_path: ctx.rel_path.clone(),
        crate_dir: ctx.crate_dir.clone(),
        lint_prod: rules::check(&ctx, &stripped),
        lint_all: rules::check(&ctx, &lexed.tokens),
        ..FileFacts::default()
    };
    facts.waivers = collect_waivers(&lexed);

    let index_seeds = ctx
        .crate_dir
        .as_deref()
        .is_some_and(|c| INDEX_SEED_CRATES.contains(&c));
    facts.consts = collect_consts(&stripped);
    facts.capacity_evidence = stripped.iter().any(|t| {
        t.is_ident("with_capacity") || t.is_ident("reserve") || t.is_ident("reserve_exact")
    });
    let const_env: HashMap<String, (String, i128)> = facts
        .consts
        .iter()
        .map(|(n, t, v)| (n.clone(), (t.clone(), *v)))
        .collect();
    let hash_idents = collect_hash_idents(&stripped);
    let mut scanner = Scanner {
        toks: &stripped,
        lexed: &lexed,
        index_seeds,
        consts: &const_env,
        hash_idents: &hash_idents,
        // `obs::Stopwatch` is the sanctioned wall-clock wrapper: the
        // one place `Instant::now()` is allowed to live.
        clock_exempt: rel_path == "crates/obs/src/clock.rs",
        fns: Vec::new(),
        a2: Vec::new(),
        a4: Vec::new(),
        atomics: Vec::new(),
    };
    scanner.scan_items(0, stripped.len(), &ItemCtx::default());
    facts.fns = scanner.fns;
    facts.a2_local = scanner.a2;
    facts.a4 = scanner.a4;
    facts.a4.sort_by(|a, b| {
        (a.line, a.kind.as_str(), &a.expr).cmp(&(b.line, b.kind.as_str(), &b.expr))
    });
    facts
        .a4
        .dedup_by(|a, b| a.line == b.line && a.kind == b.kind && a.expr == b.expr);
    facts.atomics = scanner.atomics;
    facts
        .atomics
        .sort_by(|a, b| (a.line, &a.op, &a.ordering).cmp(&(b.line, &b.op, &b.ordering)));
    facts
        .a2_local
        .sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
    facts.a2_local.dedup();
    facts
}

/// Collect `const NAME: TY = <int literal>;` definitions anywhere in
/// the (test-stripped) token stream — module level, impl blocks, and
/// function bodies alike. Only single-literal initializers of primitive
/// integer type are kept; a name defined twice with different values is
/// dropped as ambiguous.
fn collect_consts(toks: &[Token]) -> Vec<(String, String, i128)> {
    let mut out: Vec<(String, String, i128)> = Vec::new();
    let mut i = 0;
    while i + 5 < toks.len() {
        if toks[i].is_ident("const")
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is_punct(":")
            && toks[i + 3].kind == TokKind::Ident
            && is_primitive_ty(&toks[i + 3].text)
            && !matches!(toks[i + 3].text.as_str(), "f32" | "f64" | "bool" | "char")
            && toks[i + 4].is_punct("=")
        {
            let (neg, lit_at) = if toks[i + 5].is_punct("-") {
                (true, i + 6)
            } else {
                (false, i + 5)
            };
            if toks.get(lit_at).is_some_and(|t| t.kind == TokKind::Int)
                && toks.get(lit_at + 1).is_some_and(|t| t.is_punct(";"))
            {
                let (value, _) = crate::interval::parse_int_lit(&toks[lit_at].text);
                if let Some(v) = value {
                    let v = if neg { -v } else { v };
                    out.push((toks[i + 1].text.clone(), toks[i + 3].text.clone(), v));
                }
                i = lit_at + 2;
                continue;
            }
        }
        i += 1;
    }
    out.sort();
    out.dedup();
    // Same name, different (ty, value): ambiguous — drop every copy.
    let names: Vec<String> = out.iter().map(|(n, _, _)| n.clone()).collect();
    out.retain(|(n, _, _)| names.iter().filter(|m| *m == n).count() == 1);
    out
}

/// Identifiers bound or declared with a `HashMap`/`HashSet` type
/// anywhere in the (test-stripped) token stream: `let` bindings whose
/// initializer statement mentions the type, and `name: HashMap<..>`
/// field / parameter annotations. File-granular on purpose — a local
/// in one fn shadows nothing the analysis cares about, and the
/// over-approximation only ever *adds* A6 candidates.
fn collect_hash_idents(toks: &[Token]) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut let_name: Option<String> = None;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(n) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                let_name = Some(n.text.clone());
            }
        } else if t.is_punct(";") {
            let_name = None;
        } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
            if let Some(n) = let_name.clone() {
                out.insert(n);
            }
            // `name: [&][std::collections::]HashMap<..>` annotation.
            let mut j = i;
            while j > 0
                && toks[j - 1].kind == TokKind::Punct
                && matches!(toks[j - 1].text.as_str(), "::" | "&" | "<")
            {
                j -= 1;
                if toks[j].is_punct("::")
                    && j > 0
                    && toks[j - 1].kind == TokKind::Ident
                    && toks[j - 1]
                        .text
                        .chars()
                        .next()
                        .is_some_and(char::is_lowercase)
                {
                    j -= 1; // skip `std` / `collections` path segments
                }
            }
            if j > 1 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
                out.insert(toks[j - 2].text.clone());
            }
        }
        i += 1;
    }
    out
}

/// The one waiver reader: every `// analyze: allow(RULE): reason` in
/// the comment map, for every rule.
///
/// Doc comments (`///`, `//!`) are skipped: they routinely *describe*
/// the waiver syntax (this very workspace documents it) without waiving
/// anything. The rule id must look like a real id (`L3`, `A1`, …), and
/// a `:` and a non-empty reason must follow the closing parenthesis.
fn collect_waivers(lexed: &Lexed) -> Vec<WaiverComment> {
    const MARKER: &str = "analyze: allow(";
    let mut out = Vec::new();
    for (&line, text) in &lexed.comments {
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        for (idx, _) in text.match_indices(MARKER) {
            let rest = &text[idx + MARKER.len()..];
            let Some((rule, tail)) = rest.split_once(')') else {
                continue;
            };
            let reason = tail.strip_prefix(':').map_or("", str::trim);
            if is_rule_id(rule) && !reason.is_empty() {
                out.push(WaiverComment {
                    rule: rule.to_string(),
                    line,
                });
            }
        }
    }
    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

/// `L3`, `A1`, … — one letter, then only digits.
fn is_rule_id(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some('L' | 'A')) && {
        let rest = chars.as_str();
        !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit())
    }
}

/// Unit implied by a variable/parameter name.
fn unit_of_name(name: &str) -> Unit {
    let base = name
        .strip_suffix("_f64")
        .or_else(|| name.strip_suffix("_f32"))
        .unwrap_or(name);
    if base == "ns" || base.ends_with("_ns") {
        Unit::Ns
    } else if base == "ms" || base.ends_with("_ms") {
        Unit::Ms
    } else if base == "ratio" || base.ends_with("_ratio") || base.contains("density") {
        Unit::Ratio
    } else {
        Unit::Unknown
    }
}

/// Unit implied by a function/method *name* for its return value.
/// Constructors (`from_*`) return wrapped types, not raw quantities.
fn unit_of_fn_name(name: &str) -> Unit {
    if name.starts_with("from_") {
        return Unit::Unknown;
    }
    unit_of_name(name)
}

fn is_expr_keyword(name: &str) -> bool {
    EXPR_KEYWORDS.contains(&name)
}

/// Surrounding item context while scanning.
#[derive(Default, Clone)]
struct ItemCtx {
    qual: Option<String>,
    trait_name: Option<String>,
    /// Inside a `trait` or `impl Trait for` block: methods are part of
    /// the public API surface regardless of a `pub` keyword.
    members_pub: bool,
}

struct Scanner<'a> {
    toks: &'a [Token],
    lexed: &'a Lexed,
    index_seeds: bool,
    consts: &'a HashMap<String, (String, i128)>,
    hash_idents: &'a HashSet<String>,
    clock_exempt: bool,
    fns: Vec<FnFact>,
    a2: Vec<RawFinding>,
    a4: Vec<A4Site>,
    atomics: Vec<AtomicFact>,
}

impl Scanner<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.toks.get(i)
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(s))
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_ident(s))
    }

    /// Skip an attribute starting at `#` (or `#!`); returns the index
    /// one past the closing `]`.
    fn skip_attr(&self, mut i: usize) -> usize {
        i += 1; // '#'
        if self.is_punct(i, "!") {
            i += 1;
        }
        if !self.is_punct(i, "[") {
            return i;
        }
        let mut depth = 0usize;
        while let Some(t) = self.tok(i) {
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }

    /// Index one past the brace/bracket/paren group opening at `open`.
    fn skip_group(&self, open: usize) -> usize {
        let (inc, dec) = match self.tok(open).map(|t| t.text.as_str()) {
            Some("(") => ("(", ")"),
            Some("[") => ("[", "]"),
            _ => ("{", "}"),
        };
        let mut depth = 0usize;
        let mut i = open;
        while let Some(t) = self.tok(i) {
            if t.is_punct(inc) {
                depth += 1;
            } else if t.is_punct(dec) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }

    /// Skip a generics list starting at `<`; returns index past `>`.
    /// `<<`/`>>` count twice (the lexer munches them as one token).
    fn skip_generics(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while let Some(t) = self.tok(i) {
            match t.text.as_str() {
                "<" if t.kind == TokKind::Punct => depth += 1,
                "<<" if t.kind == TokKind::Punct => depth += 2,
                ">" if t.kind == TokKind::Punct => depth -= 1,
                ">>" if t.kind == TokKind::Punct => depth -= 2,
                _ => {}
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
        i
    }

    /// Skip one non-fn item body: to a top-level `;`, or through the
    /// first top-level brace group.
    fn skip_item_rest(&self, mut i: usize) -> usize {
        let mut depth = 0usize;
        while let Some(t) = self.tok(i) {
            match t.text.as_str() {
                "(" | "[" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" if t.kind == TokKind::Punct => depth = depth.saturating_sub(1),
                "{" if t.kind == TokKind::Punct && depth == 0 => return self.skip_group(i),
                ";" if t.kind == TokKind::Punct && depth == 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        i
    }

    fn scan_items(&mut self, mut i: usize, end: usize, ctx: &ItemCtx) {
        let mut pending_pub = false;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct("#") {
                i = self.skip_attr(i);
                continue;
            }
            if t.is_ident("pub") {
                pending_pub = true;
                i += 1;
                if self.is_punct(i, "(") {
                    // `pub(crate)` / `pub(super)`: not part of the
                    // external API surface.
                    pending_pub = false;
                    i = self.skip_group(i);
                }
                continue;
            }
            if t.is_ident("impl") {
                i = self.scan_impl(i, end);
                pending_pub = false;
                continue;
            }
            if t.is_ident("trait") {
                i = self.scan_trait(i, end, pending_pub);
                pending_pub = false;
                continue;
            }
            if t.is_ident("mod") {
                // `mod name { … }` is transparent; `mod name;` is skipped.
                let mut j = i + 1;
                while self
                    .tok(j)
                    .is_some_and(|t| t.kind == TokKind::Ident && !t.is_ident("mod"))
                {
                    j += 1;
                }
                if self.is_punct(j, "{") {
                    let body_end = self.skip_group(j);
                    self.scan_items(j + 1, body_end.saturating_sub(1), ctx);
                    i = body_end;
                } else {
                    i = j + 1;
                }
                pending_pub = false;
                continue;
            }
            if t.is_ident("fn") {
                let is_pub = pending_pub || ctx.members_pub;
                i = self.parse_fn(i, ctx, is_pub);
                pending_pub = false;
                continue;
            }
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "struct"
                        | "enum"
                        | "union"
                        | "type"
                        | "const"
                        | "static"
                        | "use"
                        | "extern"
                        | "macro_rules"
                )
            {
                i = self.skip_item_rest(i + 1);
                pending_pub = false;
                continue;
            }
            if t.is_punct("{") {
                i = self.skip_group(i);
                pending_pub = false;
                continue;
            }
            i += 1;
            if t.kind != TokKind::Ident
                || !matches!(t.text.as_str(), "unsafe" | "async" | "default")
            {
                pending_pub = false;
            }
        }
    }

    /// `impl … { … }`: extract the implemented type (and trait, for
    /// `impl Trait for Type`), then scan the body as items.
    fn scan_impl(&mut self, mut i: usize, end: usize) -> usize {
        i += 1; // 'impl'
        if self.is_punct(i, "<") {
            i = self.skip_generics(i);
        }
        // Collect `::`-separated path segments until `for`, `where`,
        // or the opening brace.
        let mut paths: Vec<Vec<String>> = vec![Vec::new()];
        let mut for_at: Option<usize> = None;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct("{") {
                break;
            }
            if t.is_ident("where") {
                // Skip the where clause up to the brace.
                while i < end && !self.is_punct(i, "{") {
                    i += 1;
                }
                break;
            }
            if t.is_ident("for") {
                for_at = Some(paths.len());
                paths.push(Vec::new());
                i += 1;
                continue;
            }
            if t.is_punct("<") {
                i = self.skip_generics(i);
                continue;
            }
            if t.kind == TokKind::Ident && !t.is_ident("dyn") {
                if let Some(last) = paths.last_mut() {
                    last.push(t.text.clone());
                }
            }
            i += 1;
        }
        let (trait_name, type_path) = match for_at {
            Some(idx) => (
                paths.first().and_then(|p| p.last()).cloned(),
                paths.get(idx).cloned().unwrap_or_default(),
            ),
            None => (None, paths.first().cloned().unwrap_or_default()),
        };
        let qual = type_path.last().cloned();
        if self.is_punct(i, "{") {
            let body_end = self.skip_group(i);
            let ctx = ItemCtx {
                qual,
                members_pub: trait_name.is_some(),
                trait_name,
            };
            self.scan_items(i + 1, body_end.saturating_sub(1), &ctx);
            return body_end;
        }
        i
    }

    /// `trait Name { … }`: default method bodies can carry seeds too.
    fn scan_trait(&mut self, mut i: usize, end: usize, is_pub: bool) -> usize {
        i += 1; // 'trait'
        let name = self
            .tok(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        while i < end && !self.is_punct(i, "{") && !self.is_punct(i, ";") {
            i += 1;
        }
        if self.is_punct(i, "{") {
            let body_end = self.skip_group(i);
            let ctx = ItemCtx {
                qual: name.clone(),
                trait_name: name,
                members_pub: is_pub,
            };
            self.scan_items(i + 1, body_end.saturating_sub(1), &ctx);
            return body_end;
        }
        i + 1
    }

    /// Parse `fn name(params) -> Ret { body }` starting at the `fn`
    /// keyword; returns the index one past the item.
    fn parse_fn(&mut self, at: usize, ctx: &ItemCtx, is_pub: bool) -> usize {
        let mut i = at + 1;
        let Some(name_tok) = self.tok(i).filter(|t| t.kind == TokKind::Ident) else {
            return at + 1;
        };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        i += 1;
        if self.is_punct(i, "<") {
            i = self.skip_generics(i);
        }
        if !self.is_punct(i, "(") {
            return i;
        }
        // `// analyze: hot-path` immediately above (or on) the `fn`
        // line marks an A7 hot-region root.
        let hot = [line.saturating_sub(1), line]
            .iter()
            .any(|l| self.lexed.comment_on(*l).contains("analyze: hot-path"));
        let params_end = self.skip_group(i);
        let (params, param_tys) = self.parse_params(i + 1, params_end.saturating_sub(1));
        i = params_end;
        // Return type / where clause: scan to body or `;`, capturing a
        // bare-primitive return annotation (`-> u64`) on the way.
        let mut ret_ty = String::new();
        let mut depth = 0i32;
        while let Some(t) = self.tok(i) {
            match t.text.as_str() {
                "(" | "[" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" if t.kind == TokKind::Punct => depth -= 1,
                "<" if t.kind == TokKind::Punct => depth += 1,
                "<<" if t.kind == TokKind::Punct => depth += 2,
                ">" if t.kind == TokKind::Punct => depth -= 1,
                ">>" if t.kind == TokKind::Punct => depth -= 2,
                "->" if t.kind == TokKind::Punct && depth <= 0 => {
                    if let Some(n) = self.tok(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        let bare = self.tok(i + 2).is_none_or(|f| {
                            f.is_punct("{") || f.is_punct(";") || f.is_ident("where")
                        });
                        if is_primitive_ty(&n.text) && bare {
                            ret_ty = n.text.clone();
                        }
                    }
                }
                "{" if t.kind == TokKind::Punct && depth <= 0 => break,
                ";" if t.kind == TokKind::Punct && depth <= 0 => {
                    // Trait method declaration without a body.
                    self.fns.push(FnFact {
                        name,
                        qual: ctx.qual.clone(),
                        trait_name: ctx.trait_name.clone(),
                        is_pub,
                        line,
                        params,
                        param_tys,
                        ret_unit: unit_of_fn_name(self.tok(at + 1).map_or("", |t| t.text.as_str())),
                        ret_ty,
                        hot,
                        ..FnFact::default()
                    });
                    return i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if !self.is_punct(i, "{") {
            return i;
        }
        let body_end = self.skip_group(i);
        let mut fact = FnFact {
            ret_unit: unit_of_fn_name(&name),
            name,
            qual: ctx.qual.clone(),
            trait_name: ctx.trait_name.clone(),
            is_pub,
            line,
            params,
            param_tys,
            ret_ty,
            hot,
            ..FnFact::default()
        };
        self.scan_body(i + 1, body_end.saturating_sub(1), &mut fact);
        fact.body_span = (i + 1, body_end.saturating_sub(1));
        let ctx1 = interval::Ctx {
            consts: self.consts,
            resolver: None,
        };
        let (ret_abs, mut sites) =
            interval::analyze_fn(self.toks, i + 1, body_end.saturating_sub(1), &fact, &ctx1);
        fact.ret_abs = ret_abs;
        self.a4.append(&mut sites);
        self.fns.push(fact);
        body_end
    }

    /// Split a parameter list into `(name, unit)` pairs plus, aligned,
    /// the bare-primitive type annotation of each parameter (`""` when
    /// the type is not a bare primitive); `self` receivers are dropped.
    fn parse_params(&self, start: usize, end: usize) -> (Vec<(String, Unit)>, Vec<String>) {
        let mut out = Vec::new();
        let mut tys = Vec::new();
        let mut chunk_start = start;
        let mut depth = 0i32;
        let mut i = start;
        let flush = |s: usize, e: usize, out: &mut Vec<(String, Unit)>, tys: &mut Vec<String>| {
            let mut name = None;
            let mut colon_at = None;
            for j in s..e {
                let Some(t) = self.tok(j) else { break };
                if t.is_punct(":") {
                    colon_at = Some(j);
                    break;
                }
                if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref") {
                    name = Some((t.text.clone(), j));
                    break;
                }
            }
            if let Some((n, at)) = name {
                if n != "self" {
                    // Type: a single primitive token directly after the
                    // `:` and nothing else before the chunk end.
                    let mut ty = String::new();
                    if colon_at.is_none() && self.is_punct(at + 1, ":") {
                        colon_at = Some(at + 1);
                    }
                    if let Some(c) = colon_at {
                        if let Some(t) = self.tok(c + 1).filter(|t| t.kind == TokKind::Ident) {
                            if is_primitive_ty(&t.text) && c + 2 >= e {
                                ty = t.text.clone();
                            }
                        }
                    }
                    let unit = unit_of_name(&n);
                    out.push((n, unit));
                    tys.push(ty);
                }
            }
        };
        while i < end {
            let Some(t) = self.tok(i) else { break };
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokKind::Punct => depth -= 1,
                "<" if t.kind == TokKind::Punct => depth += 1,
                "<<" if t.kind == TokKind::Punct => depth += 2,
                ">" if t.kind == TokKind::Punct => depth -= 1,
                ">>" if t.kind == TokKind::Punct => depth -= 2,
                "," if t.kind == TokKind::Punct && depth == 0 => {
                    flush(chunk_start, i, &mut out, &mut tys);
                    chunk_start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if chunk_start < end {
            flush(chunk_start, end, &mut out, &mut tys);
        }
        (out, tys)
    }

    /// Token-index ranges lexically inside the argument group of a
    /// `spawn(..)` call within `[start, end)` — the worker-closure
    /// regions A5's blocking check seeds from.
    fn spawn_ranges(&self, start: usize, end: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            if self.is_ident(i, "spawn") && self.is_punct(i + 1, "(") {
                let close = self.skip_group(i + 1);
                out.push((i + 2, close.saturating_sub(1)));
                i += 2;
                continue;
            }
            i += 1;
        }
        out
    }

    /// Skip a nested `fn` item starting at its `fn` keyword: returns
    /// the index one past its body (or declaration `;`). Used by the
    /// loop extractor so a nested function's loops are attributed to
    /// its own fact, not the enclosing one.
    fn skip_fn_item(&self, at: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = at + 1;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    "<<" => depth += 2,
                    ")" | "]" | ">" => depth -= 1,
                    ">>" => depth -= 2,
                    "{" if depth <= 0 => return self.skip_group(i),
                    ";" if depth <= 0 => return i + 1,
                    _ => {}
                }
            }
            i += 1;
        }
        end
    }

    /// Body tokens at brace-depth 0 contain an unconditional `break` or
    /// `return` — the `loop { …; break; }` exit idiom (a seed nested in
    /// `if`/`match` braces does not count).
    fn top_level_exit(&self, start: usize, end: usize) -> bool {
        let mut depth = 0i32;
        let mut i = start;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {}
                }
            } else if depth == 0 && (t.is_ident("break") || t.is_ident("return")) {
                return true;
            }
            i += 1;
        }
        false
    }

    /// A `recv.m(` token triple inside `[start, end)` with `m` drawn
    /// from `methods`; returns the receiver/method pair of the first
    /// match.
    fn find_recv_call(
        &self,
        start: usize,
        end: usize,
        methods: &[&str],
    ) -> Option<(String, String)> {
        let mut i = start;
        while i + 2 < end {
            if self.is_punct(i, ".")
                && self
                    .tok(i + 1)
                    .is_some_and(|t| methods.contains(&t.text.as_str()))
                && self.is_punct(i + 2, "(")
            {
                let recv = self
                    .tok(i.wrapping_sub(1))
                    .filter(|r| r.kind == TokKind::Ident)
                    .map_or_else(|| "<expr>".to_string(), |r| r.text.clone());
                let m = self.toks[i + 1].text.clone();
                return Some((recv, m));
            }
            i += 1;
        }
        None
    }

    /// `recv.m(` for a *specific* receiver name and method list.
    fn recv_calls(&self, start: usize, end: usize, recv: &str, methods: &[&str]) -> Option<String> {
        let mut i = start;
        while i + 3 < end + 1 {
            if self.is_ident(i, recv)
                && self.is_punct(i + 1, ".")
                && self
                    .tok(i + 2)
                    .is_some_and(|t| methods.contains(&t.text.as_str()))
                && self.is_punct(i + 3, "(")
            {
                return Some(self.toks[i + 2].text.clone());
            }
            i += 1;
        }
        None
    }

    /// Render `[start, end)` as a short source-ish snippet for loop
    /// descriptions (capped so messages stay one-line).
    fn snippet(&self, start: usize, end: usize) -> String {
        let mut out = String::new();
        for j in start..end {
            let Some(t) = self.tok(j) else { break };
            if !out.is_empty()
                && t.kind != TokKind::Punct
                && !out.ends_with(['(', '[', '.', ':', '&'])
            {
                out.push(' ');
            }
            out.push_str(&t.text);
            if out.len() > 40 {
                out.truncate(40);
                out.push('…');
                break;
            }
        }
        out
    }

    /// A8 loop-shape extraction: classify every loop in `[start, end)`
    /// and record body token spans (for call-site loop depths).
    fn extract_loops(
        &self,
        start: usize,
        end: usize,
        depth: u32,
        loops: &mut Vec<LoopFact>,
        spans: &mut Vec<(usize, usize)>,
    ) {
        let mut i = start;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct("#") {
                i = self.skip_attr(i);
                continue;
            }
            if t.is_ident("fn") {
                i = self.skip_fn_item(i, end);
                continue;
            }
            if t.is_ident("loop") && self.is_punct(i + 1, "{") {
                let body_end = self.skip_group(i + 1);
                let (bs, be) = (i + 2, body_end.saturating_sub(1));
                let (kind, witness) = if self.top_level_exit(bs, be) {
                    (
                        LoopKind::LoopBreaks,
                        "unconditional top-level `break`/`return`".to_string(),
                    )
                } else {
                    (LoopKind::Unbounded, String::new())
                };
                loops.push(LoopFact {
                    kind,
                    line: t.line,
                    depth,
                    desc: "`loop`".into(),
                    witness,
                });
                spans.push((bs, be));
                self.extract_loops(bs, be, depth + 1, loops, spans);
                i = body_end;
                continue;
            }
            if t.is_ident("while") {
                i = self.extract_while(i, end, depth, loops, spans);
                continue;
            }
            if t.is_ident("for") {
                i = self.extract_for(i, end, depth, loops, spans);
                continue;
            }
            i += 1;
        }
    }

    /// Classify one `while`/`while let` loop starting at the `while`
    /// keyword; returns the scan-resume index.
    fn extract_while(
        &self,
        at: usize,
        end: usize,
        depth: u32,
        loops: &mut Vec<LoopFact>,
        spans: &mut Vec<(usize, usize)>,
    ) -> usize {
        let line = self.toks[at].line;
        let is_let = self.tok(at + 1).is_some_and(|t| t.is_ident("let"));
        // Scan the condition to the body brace (struct literals are not
        // legal in conditions, so the first depth-0 `{` opens the body).
        let cond_start = at + 1;
        let mut j = cond_start;
        let mut pdepth = 0i32;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => pdepth += 1,
                    ")" | "]" => pdepth -= 1,
                    "{" if pdepth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if !self.is_punct(j, "{") {
            return at + 1;
        }
        let body_end = self.skip_group(j);
        let (bs, be) = (j + 1, body_end.saturating_sub(1));
        let (kind, witness) = self.while_witness(cond_start, j, bs, be, is_let);
        loops.push(LoopFact {
            kind,
            line,
            depth,
            // The condition snippet already starts at `let` for
            // `while let` loops.
            desc: format!("`while {}`", self.snippet(cond_start, j)),
            witness,
        });
        spans.push((bs, be));
        self.extract_loops(bs, be, depth + 1, loops, spans);
        body_end
    }

    /// The monotone-progress search for a `while` loop: condition in
    /// `[cs, ce)`, body in `[bs, be)`.
    fn while_witness(
        &self,
        cs: usize,
        ce: usize,
        bs: usize,
        be: usize,
        is_let: bool,
    ) -> (LoopKind, String) {
        if is_let {
            // `while let P = source` terminates when the scrutinee
            // drains a finite source the body does not refill.
            if let Some((recv, m)) = self.find_recv_call(cs, ce, DRAIN_METHODS) {
                let refilled =
                    recv != "<expr>" && self.recv_calls(bs, be, &recv, REFILL_METHODS).is_some();
                if !refilled {
                    return (LoopKind::WhileProgress, format!("drains `{recv}.{m}()`"));
                }
            }
            // Scrutinee is a non-draining probe (`.peek()`): accept a
            // drain of the same receiver inside the body instead.
            if let Some((recv, _)) = self.find_recv_call(cs, ce, &["peek", "front", "back", "last"])
            {
                if recv != "<expr>" {
                    if let Some(m) = self.recv_calls(bs, be, &recv, DRAIN_METHODS) {
                        if self.recv_calls(bs, be, &recv, REFILL_METHODS).is_none() {
                            return (
                                LoopKind::WhileProgress,
                                format!("probes `{recv}`, drains it via `.{m}()`"),
                            );
                        }
                    }
                }
            }
        } else {
            // Guard identifiers: every ident in the condition.
            let mut guards: Vec<String> = Vec::new();
            for j in cs..ce {
                if let Some(t) = self.tok(j) {
                    if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) && !t.is_ident("self")
                    {
                        guards.push(t.text.clone());
                    }
                }
            }
            for g in &guards {
                let mut j = bs;
                while j < be {
                    if self.is_ident(j, g)
                        && !self.tok(j.wrapping_sub(1)).is_some_and(|p| {
                            p.is_ident("let") || p.is_ident("mut") || p.is_punct(".")
                        })
                    {
                        if let Some(op) = self.tok(j + 1).filter(|o| {
                            o.kind == TokKind::Punct
                                && matches!(
                                    o.text.as_str(),
                                    "+=" | "-=" | "<<=" | ">>=" | "*=" | "/=" | "="
                                )
                        }) {
                            let w = if op.text == "=" {
                                format!("guard `{g}` reassigned each iteration")
                            } else {
                                format!("guard `{g}` advanced by `{}`", op.text)
                            };
                            return (LoopKind::WhileProgress, w);
                        }
                    }
                    j += 1;
                }
                if let Some(m) = self.recv_calls(bs, be, g, PROGRESS_METHODS) {
                    return (
                        LoopKind::WhileProgress,
                        format!("guard container `{g}` mutated by `.{m}()`"),
                    );
                }
            }
        }
        if self.top_level_exit(bs, be) {
            (
                LoopKind::LoopBreaks,
                "unconditional top-level `break`/`return`".to_string(),
            )
        } else {
            (LoopKind::Unbounded, String::new())
        }
    }

    /// Classify one `for` loop starting at the `for` keyword; returns
    /// the scan-resume index.
    fn extract_for(
        &self,
        at: usize,
        end: usize,
        depth: u32,
        loops: &mut Vec<LoopFact>,
        spans: &mut Vec<(usize, usize)>,
    ) -> usize {
        let line = self.toks[at].line;
        // Find `in` at depth 0, then the iterable up to the body brace.
        let mut j = at + 1;
        let mut pdepth = 0i32;
        let mut in_at = None;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => pdepth += 1,
                    ")" | "]" => pdepth -= 1,
                    "{" if pdepth == 0 => break,
                    _ => {}
                }
            } else if pdepth == 0 && t.is_ident("in") {
                in_at = Some(j);
            }
            j += 1;
        }
        let (Some(in_at), true) = (in_at, self.is_punct(j, "{")) else {
            // `for` in a non-loop position (`impl Trait for`, bounds).
            return at + 1;
        };
        let (is_, ie) = (in_at + 1, j);
        let body_end = self.skip_group(j);
        let (bs, be) = (j + 1, body_end.saturating_sub(1));
        let (kind, witness) = self.for_witness(is_, ie);
        loops.push(LoopFact {
            kind,
            line,
            depth,
            desc: format!("`for … in {}`", self.snippet(is_, ie)),
            witness,
        });
        spans.push((bs, be));
        self.extract_loops(bs, be, depth + 1, loops, spans);
        body_end
    }

    /// Bound the iterable of a `for` loop in `[is_, ie)`: endless
    /// idioms flag; literal/const ranges get an exact trip count (the
    /// same const table the §13 interval engine seeds from).
    fn for_witness(&self, is_: usize, ie: usize) -> (LoopKind, String) {
        let has_take = (is_..ie).any(|k| {
            self.is_punct(k, ".") && self.is_ident(k + 1, "take") && self.is_punct(k + 2, "(")
        });
        if !has_take {
            // Open range `lo..` (the `..` is the last iterable token,
            // or directly precedes the body brace).
            if self
                .tok(ie.saturating_sub(1))
                .is_some_and(|t| t.is_punct(".."))
            {
                return (LoopKind::ForEndless, "open range `..` never ends".into());
            }
            for k in is_..ie {
                if (self.is_ident(k, "cycle") || self.is_ident(k, "repeat"))
                    && self.is_punct(k + 1, "(")
                {
                    return (
                        LoopKind::ForEndless,
                        format!("`{}` iterates forever", self.toks[k].text),
                    );
                }
            }
        }
        // Exact trip count for `a..b` / `a..=b` over literals/consts.
        let resolve = |k: usize| -> Option<i128> {
            let t = self.tok(k)?;
            match t.kind {
                TokKind::Int => crate::interval::parse_int_lit(&t.text).0,
                TokKind::Ident => self.consts.get(&t.text).map(|(_, v)| *v),
                _ => None,
            }
        };
        if ie - is_ == 3 && (self.is_punct(is_ + 1, "..") || self.is_punct(is_ + 1, "..=")) {
            if let (Some(lo), Some(hi)) = (resolve(is_), resolve(is_ + 2)) {
                let n = (hi - lo + i128::from(self.is_punct(is_ + 1, "..="))).max(0);
                return (LoopKind::ForBounded, format!("≤ {n} iterations"));
            }
        }
        (LoopKind::ForBounded, "bounded by iterable extent".into())
    }

    /// A decreasing-argument pattern anywhere in a call's argument
    /// tokens — A8's witness that a recursive call makes progress
    /// (`n - 1`, `n / 2`, `n >> 1`, `a % b`, `.saturating_sub(..)`,
    /// `&xs[1..]`).
    fn decreasing_args(&self, start: usize, end: usize) -> bool {
        let mut j = start;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "-" | "/" | ">>" if self.tok(j + 1).is_some_and(|n| n.kind == TokKind::Int) => {
                        return true;
                    }
                    // A remainder is strictly below its divisor — the
                    // Euclid-style `gcd(b, a % b)` witness.
                    "%" => return true,
                    ".." if self
                        .tok(j.wrapping_sub(1))
                        .is_some_and(|p| p.kind == TokKind::Int) =>
                    {
                        return true;
                    }
                    _ => {}
                }
            } else if t.is_ident("saturating_sub") || t.is_ident("split_first") {
                return true;
            }
            j += 1;
        }
        false
    }

    /// Walk a function body: record calls, seeds, let-bound units, and
    /// intra-function A2 findings.
    fn scan_body(&mut self, start: usize, end: usize, fact: &mut FnFact) {
        let spawn_ranges = self.spawn_ranges(start, end);
        let in_spawn_at = |i: usize| spawn_ranges.iter().any(|&(s, e)| s <= i && i < e);
        let mut loop_spans: Vec<(usize, usize)> = Vec::new();
        self.extract_loops(start, end, 1, &mut fact.loops, &mut loop_spans);
        let loop_depth_at = |i: usize| -> u32 {
            let n = loop_spans.iter().filter(|&&(s, e)| s <= i && i < e).count();
            u32::try_from(n).unwrap_or(u32::MAX)
        };
        let mut env: HashMap<String, Unit> = fact
            .params
            .iter()
            .filter(|(_, u)| u.is_concrete())
            .map(|(n, u)| (n.clone(), *u))
            .collect();
        let mut i = start;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct("#") {
                i = self.skip_attr(i);
                continue;
            }
            // Nested function definitions become their own facts.
            if t.is_ident("fn") {
                i = self.parse_fn(
                    i,
                    &ItemCtx {
                        qual: fact.qual.clone(),
                        trait_name: None,
                        members_pub: false,
                    },
                    false,
                );
                continue;
            }
            // `let [mut] name (: ty)? = expr;` — bind the inferred unit.
            if t.is_ident("let") {
                if let Some((name, eq_at)) = self.let_binding(i + 1, end) {
                    let expr_end = self.stmt_end(eq_at + 1, end);
                    let unit = self.expr_unit(eq_at + 1, expr_end, &env);
                    if unit.is_concrete() {
                        env.insert(name, unit);
                    } else {
                        env.remove(&name);
                    }
                    i = eq_at + 1; // main loop still scans the expr
                    continue;
                }
                i += 1;
                continue;
            }
            // `return expr;` — declared vs actual return unit.
            if t.is_ident("return") && fact.ret_unit.is_concrete() {
                let expr_end = self.stmt_end(i + 1, end);
                let unit = self.expr_unit(i + 1, expr_end, &env);
                if unit.is_concrete() && unit != fact.ret_unit {
                    self.a2.push(RawFinding {
                        rule: "A2".into(),
                        line: t.line,
                        severity: "deny".into(),
                        message: format!(
                            "function `{}` is named as returning {} but this `return` \
                             expression carries {}",
                            fact.name, fact.ret_unit, unit
                        ),
                    });
                }
                i += 1;
                continue;
            }
            // `for pat in [&][mut] hashvar { … }` — direct iteration
            // over a hash-ordered container (A6). Chained forms
            // (`for k in map.keys()`) are caught by the method branch.
            if t.is_ident("for") {
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < end {
                    let Some(n) = self.tok(j) else { break };
                    if n.kind == TokKind::Punct {
                        match n.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" => break,
                            _ => {}
                        }
                    }
                    if depth == 0 && n.is_ident("in") {
                        let mut k = j + 1;
                        while self
                            .tok(k)
                            .is_some_and(|t| t.is_punct("&") || t.is_ident("mut"))
                        {
                            k += 1;
                        }
                        if let Some(v) = self.tok(k).filter(|v| v.kind == TokKind::Ident) {
                            if self.hash_idents.contains(&v.text) && self.is_punct(k + 1, "{") {
                                let desc = format!("`for` over hash-ordered `{}`", v.text);
                                let nd = NondetFact {
                                    kind: NondetKind::HashIter,
                                    line: v.line,
                                    desc,
                                };
                                fact.nondet.push(nd);
                            }
                        }
                        break;
                    }
                    j += 1;
                }
                i += 1;
                continue;
            }
            // Allocating macros: `format!(..)` builds a `String`,
            // `vec![..]` a heap buffer (A7).
            if t.kind == TokKind::Ident && self.is_punct(i + 1, "!") {
                match t.text.as_str() {
                    "format" => {
                        let a = AllocFact {
                            kind: AllocKind::Str,
                            line: t.line,
                            desc: "`format!`".into(),
                        };
                        fact.allocs.push(a);
                    }
                    "vec" => {
                        let a = AllocFact {
                            kind: AllocKind::Collect,
                            line: t.line,
                            desc: "`vec![..]`".into(),
                        };
                        fact.allocs.push(a);
                    }
                    _ => {}
                }
            }
            // Panic macros: `name!(…)`.
            if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && self.is_punct(i + 1, "!")
            {
                fact.seeds.push(SeedFact {
                    kind: SeedKind::PanicMacro,
                    line: t.line,
                });
                i += 2;
                continue;
            }
            // Method calls and `.unwrap()` / `.expect(…)` seeds.
            if t.is_punct(".")
                && self.tok(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
                && self.is_punct(i + 2, "(")
            {
                let callee = self.toks[i + 1].text.clone();
                let line = self.toks[i + 1].line;
                match callee.as_str() {
                    "unwrap" => fact.seeds.push(SeedFact {
                        kind: SeedKind::Unwrap,
                        line,
                    }),
                    "expect" => fact.seeds.push(SeedFact {
                        kind: SeedKind::Expect,
                        line,
                    }),
                    _ => {}
                }
                let args_end = self.skip_group(i + 2);
                let in_spawn = in_spawn_at(i + 1);
                // A5 fact extraction: lock acquisitions, potentially
                // blocking calls, and explicitly ordered atomic ops.
                let recv = self
                    .tok(i.wrapping_sub(1))
                    .filter(|r| r.kind == TokKind::Ident)
                    .map_or_else(|| "<expr>".to_string(), |r| r.text.clone());
                let recv_lockish = {
                    let lower = recv.to_ascii_lowercase();
                    lower.contains("lock") || lower.contains("mutex") || lower.contains("rw")
                };
                match callee.as_str() {
                    "lock" => fact.lock_acqs.push((recv.clone(), line)),
                    "read" | "write" if recv_lockish => {
                        fact.lock_acqs.push((recv.clone(), line));
                        fact.blocking.push(BlockFact {
                            desc: format!("`RwLock::{callee}`"),
                            line,
                            in_spawn,
                        });
                    }
                    _ => {}
                }
                if let Some((_, desc)) = BLOCKING_METHODS.iter().find(|(m, _)| *m == callee) {
                    fact.blocking.push(BlockFact {
                        desc: (*desc).to_string(),
                        line,
                        in_spawn,
                    });
                }
                // A6: iteration over a hash-ordered container.
                if HASH_ITER_METHODS.contains(&callee.as_str()) && self.hash_idents.contains(&recv)
                {
                    let mut desc = format!("hash-ordered iteration (`{recv}.{callee}()`)");
                    if let Some(red) = self.trailing_reduction(args_end, end) {
                        desc.push_str(&format!(" feeding an order-sensitive `{red}` reduction"));
                    }
                    let nd = NondetFact {
                        kind: NondetKind::HashIter,
                        line,
                        desc,
                    };
                    fact.nondet.push(nd);
                }
                // A7: container growth and owned-string / collected
                // allocations.
                if GROW_METHODS.contains(&callee.as_str()) {
                    let desc = format!("`{recv}.{callee}(..)`");
                    let a = AllocFact {
                        kind: AllocKind::GrowPush,
                        line,
                        desc,
                    };
                    fact.allocs.push(a);
                } else if matches!(callee.as_str(), "to_string" | "to_owned") {
                    let desc = format!("`.{callee}()`");
                    let a = AllocFact {
                        kind: AllocKind::Str,
                        line,
                        desc,
                    };
                    fact.allocs.push(a);
                } else if callee == "collect" {
                    let a = AllocFact {
                        kind: AllocKind::Collect,
                        line,
                        desc: "`.collect()`".into(),
                    };
                    fact.allocs.push(a);
                }
                if ATOMIC_OPS.contains(&callee.as_str()) {
                    for j in i + 3..args_end.saturating_sub(1) {
                        if self.is_ident(j, "Ordering") && self.is_punct(j + 1, "::") {
                            if let Some(ord) = self.tok(j + 2).filter(|o| o.kind == TokKind::Ident)
                            {
                                self.atomics.push(AtomicFact {
                                    op: callee.clone(),
                                    ordering: ord.text.clone(),
                                    line,
                                });
                            }
                        }
                    }
                }
                fact.calls.push(CallFact {
                    callee,
                    qual: None,
                    line,
                    arg_units: self.arg_units(i + 3, args_end.saturating_sub(1), &env),
                    in_spawn,
                    method: true,
                    recv_self: recv == "self",
                    loop_depth: loop_depth_at(i),
                    decreasing: self.decreasing_args(i + 3, args_end.saturating_sub(1)),
                });
                self.denominator_check(i + 1, i + 3, args_end.saturating_sub(1), &env);
                i += 3; // keep scanning inside the args
                continue;
            }
            // Plain / path calls: `name(…)`, `Type::name(…)`.
            if t.kind == TokKind::Ident
                && !is_expr_keyword(&t.text)
                && self.is_punct(i + 1, "(")
                && !self.is_punct(i.wrapping_sub(1), ".")
                && !self
                    .tok(i.wrapping_sub(1))
                    .is_some_and(|p| p.is_ident("fn"))
            {
                let qual = if self.is_punct(i.wrapping_sub(1), "::") {
                    self.tok(i.wrapping_sub(2))
                        .filter(|q| q.kind == TokKind::Ident)
                        .map(|q| q.text.clone())
                } else {
                    None
                };
                let args_end = self.skip_group(i + 1);
                let in_spawn = in_spawn_at(i);
                // Path-qualified blocking calls: `thread::sleep`,
                // `fs::write`, `File::open`, … (A5 seeds).
                let blocking_desc = match (qual.as_deref(), t.text.as_str()) {
                    (Some("thread"), "sleep") => Some("`thread::sleep`".to_string()),
                    (Some("fs"), name) => Some(format!("file I/O (`fs::{name}`)")),
                    (Some("File"), "open" | "create" | "options") => {
                        Some(format!("file I/O (`File::{}`)", t.text))
                    }
                    _ => None,
                };
                if let Some(desc) = blocking_desc {
                    fact.blocking.push(BlockFact {
                        desc,
                        line: t.line,
                        in_spawn,
                    });
                }
                // A6 source classes behind path calls.
                let nondet = match (qual.as_deref(), t.text.as_str()) {
                    (Some(q @ ("Instant" | "SystemTime")), "now") => {
                        (!self.clock_exempt).then(|| {
                            (
                                NondetKind::WallClock,
                                format!("wall-clock read (`{q}::now`)"),
                            )
                        })
                    }
                    (Some("thread"), "current") => Some((
                        NondetKind::ThreadId,
                        "scheduler-dependent `thread::current()`".to_string(),
                    )),
                    (_, n @ ("thread_rng" | "from_entropy")) => {
                        Some((NondetKind::Rng, format!("ambient RNG (`{n}`)")))
                    }
                    (Some("RandomState"), "new") => Some((
                        NondetKind::Rng,
                        "ambient hasher seed (`RandomState::new`)".to_string(),
                    )),
                    (
                        Some("env"),
                        n @ ("var" | "vars" | "var_os" | "vars_os" | "args" | "args_os"),
                    ) => Some((
                        NondetKind::EnvRead,
                        format!("environment read (`env::{n}`)"),
                    )),
                    (
                        Some("fs"),
                        n @ ("read" | "read_to_string" | "read_dir" | "metadata" | "canonicalize"),
                    ) => Some((NondetKind::FsRead, format!("filesystem read (`fs::{n}`)"))),
                    (Some("File"), "open") => Some((
                        NondetKind::FsRead,
                        "filesystem read (`File::open`)".to_string(),
                    )),
                    _ => None,
                };
                if let Some((kind, desc)) = nondet {
                    let nd = NondetFact {
                        kind,
                        line: t.line,
                        desc,
                    };
                    fact.nondet.push(nd);
                }
                // A7: heap boxes and owned strings behind path calls.
                let alloc = match (qual.as_deref(), t.text.as_str()) {
                    (Some(q @ ("Box" | "Rc" | "Arc")), "new") => {
                        Some((AllocKind::BoxRc, format!("`{q}::new`")))
                    }
                    (Some("String"), "from") => {
                        Some((AllocKind::Str, "`String::from`".to_string()))
                    }
                    (Some("Vec"), "from") => Some((AllocKind::Collect, "`Vec::from`".to_string())),
                    _ => None,
                };
                if let Some((kind, desc)) = alloc {
                    let a = AllocFact {
                        kind,
                        line: t.line,
                        desc,
                    };
                    fact.allocs.push(a);
                }
                fact.calls.push(CallFact {
                    callee: t.text.clone(),
                    qual,
                    line: t.line,
                    arg_units: self.arg_units(i + 2, args_end.saturating_sub(1), &env),
                    in_spawn,
                    method: false,
                    recv_self: false,
                    loop_depth: loop_depth_at(i),
                    decreasing: self.decreasing_args(i + 2, args_end.saturating_sub(1)),
                });
                i += 2;
                continue;
            }
            // Indexing seeds (same heuristic as L3).
            if self.index_seeds && t.is_punct("[") && self.ends_operand(i.wrapping_sub(1)) {
                fact.seeds.push(SeedFact {
                    kind: SeedKind::Index,
                    line: t.line,
                });
                i += 1;
                continue;
            }
            // Division by an unguarded parenthesized difference.
            if t.is_punct("/") && self.ends_operand(i.wrapping_sub(1)) && self.is_punct(i + 1, "(")
            {
                let den_end = self.skip_group(i + 1);
                self.denominator_check(i, i + 2, den_end.saturating_sub(1), &env);
                i += 1;
                continue;
            }
            // Cross-unit binary arithmetic / comparison.
            if t.kind == TokKind::Punct
                && matches!(
                    t.text.as_str(),
                    "+" | "-" | "<" | ">" | "<=" | ">=" | "==" | "!=" | "+=" | "-="
                )
                && !self.is_punct(i.wrapping_sub(1), "::")
            {
                let lhs = self.atom_unit_before(i, &env);
                let rhs = self.atom_unit_after(i + 1, &env);
                if lhs.is_concrete() && rhs.is_concrete() && lhs != rhs {
                    self.a2.push(RawFinding {
                        rule: "A2".into(),
                        line: t.line,
                        severity: "deny".into(),
                        message: format!(
                            "cross-unit `{}`: left operand is {lhs}, right operand is {rhs}",
                            t.text
                        ),
                    });
                }
                i += 1;
                continue;
            }
            i += 1;
        }
    }

    /// Mirrors the L3 operand heuristic.
    fn ends_operand(&self, i: usize) -> bool {
        self.tok(i).is_some_and(|t| {
            (t.kind == TokKind::Ident && !is_expr_keyword(&t.text))
                || matches!(t.kind, TokKind::Int | TokKind::Float)
                || t.is_punct(")")
                || t.is_punct("]")
        })
    }

    /// An order-sensitive reduction (`.sum()`, `.fold(..)`) in the rest
    /// of the statement starting at `from` — appended to hash-iteration
    /// witnesses because folding floats in hash order compounds the
    /// hazard with non-associativity.
    fn trailing_reduction(&self, from: usize, end: usize) -> Option<&'static str> {
        let stop = self.stmt_end(from, end);
        (from..stop).find_map(|j| {
            let t = self.tok(j)?;
            if self.is_punct(j.wrapping_sub(1), ".") && self.is_punct(j + 1, "(") {
                REDUCE_METHODS.iter().find(|m| t.is_ident(m)).copied()
            } else {
                None
            }
        })
    }

    /// `let [mut] name … =`: returns the bound name and the index of
    /// the `=` when the pattern is a simple identifier.
    fn let_binding(&self, mut i: usize, end: usize) -> Option<(String, usize)> {
        if self.is_ident(i, "mut") {
            i += 1;
        }
        let name = self
            .tok(i)
            .filter(|t| t.kind == TokKind::Ident && !is_expr_keyword(&t.text))?
            .text
            .clone();
        i += 1;
        // Optional `: Type` annotation.
        if self.is_punct(i, ":") {
            let mut depth = 0i32;
            i += 1;
            while i < end {
                let t = self.tok(i)?;
                match t.text.as_str() {
                    "(" | "[" if t.kind == TokKind::Punct => depth += 1,
                    ")" | "]" if t.kind == TokKind::Punct => depth -= 1,
                    "<" if t.kind == TokKind::Punct => depth += 1,
                    "<<" if t.kind == TokKind::Punct => depth += 2,
                    ">" if t.kind == TokKind::Punct => depth -= 1,
                    ">>" if t.kind == TokKind::Punct => depth -= 2,
                    "=" if t.kind == TokKind::Punct && depth <= 0 => break,
                    ";" if t.kind == TokKind::Punct && depth <= 0 => return None,
                    _ => {}
                }
                i += 1;
            }
        }
        if self.is_punct(i, "=") {
            Some((name, i))
        } else {
            None
        }
    }

    /// Index of the `;` terminating the statement starting at `i`
    /// (exclusive end of the expression).
    fn stmt_end(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0usize;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokKind::Punct => {
                    if depth == 0 {
                        return i;
                    }
                    depth -= 1;
                }
                ";" if t.kind == TokKind::Punct && depth == 0 => return i,
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Infer the unit of an expression region: the first unit-bearing
    /// atom wins (identifier naming convention, `.as_ns()`-style
    /// accessor, or `.ratio(…)`); a single bare literal is
    /// dimensionless.
    fn expr_unit(&self, start: usize, end: usize, env: &HashMap<String, Unit>) -> Unit {
        if end == start + 1 {
            if let Some(t) = self.tok(start) {
                if matches!(t.kind, TokKind::Int | TokKind::Float) {
                    return Unit::Dimensionless;
                }
            }
        }
        let mut i = start;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) {
                // Method/accessor atom: `.name(` — unit of the accessor.
                if self.is_punct(i.wrapping_sub(1), ".") && self.is_punct(i + 1, "(") {
                    let u = unit_of_fn_name(&t.text);
                    if u.is_concrete() {
                        return u;
                    }
                } else if !self.is_punct(i + 1, "(") && !self.is_punct(i + 1, "!") {
                    let u = env
                        .get(&t.text)
                        .copied()
                        .unwrap_or_else(|| unit_of_name(&t.text));
                    if u.is_concrete() {
                        return u;
                    }
                } else if self.is_punct(i + 1, "(") {
                    // Free-function atom: `duration_ns(…)`.
                    let u = unit_of_fn_name(&t.text);
                    if u.is_concrete() {
                        return u;
                    }
                }
            }
            i += 1;
        }
        Unit::Unknown
    }

    /// Units of each top-level comma-separated argument.
    fn arg_units(&self, start: usize, end: usize, env: &HashMap<String, Unit>) -> Vec<Unit> {
        let mut out = Vec::new();
        if start >= end {
            return out;
        }
        let mut depth = 0i32;
        let mut chunk = start;
        let mut i = start;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokKind::Punct => depth -= 1,
                "," if t.kind == TokKind::Punct && depth == 0 => {
                    out.push(self.expr_unit(chunk, i, env));
                    chunk = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if chunk < end {
            out.push(self.expr_unit(chunk, end, env));
        }
        out
    }

    /// A2 denominator rule: a division-like operation whose operand
    /// region contains a bare binary `-` with no `checked_sub` /
    /// `saturating_sub` / explicit guard is an unguarded `D − R`
    /// division hazard.
    fn denominator_check(
        &mut self,
        op_at: usize,
        start: usize,
        end: usize,
        _env: &HashMap<String, Unit>,
    ) {
        let Some(op) = self.tok(op_at) else { return };
        let is_div_method = op.kind == TokKind::Ident
            && matches!(
                op.text.as_str(),
                "ratio" | "div_floor" | "div_ceil" | "checked_div" | "mul_div_floor"
            );
        let is_div_op = op.is_punct("/");
        if !is_div_method && !is_div_op {
            return;
        }
        let mut has_bare_sub = false;
        let mut guarded = false;
        let mut sub_line = op.line;
        for i in start..end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct("-") && self.ends_operand(i.wrapping_sub(1)) {
                has_bare_sub = true;
                sub_line = t.line;
            }
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "checked_sub" | "saturating_sub" | "max" | "is_zero" | "abs"
                )
            {
                guarded = true;
            }
        }
        if has_bare_sub && !guarded {
            self.a2.push(RawFinding {
                rule: "A2".into(),
                line: sub_line,
                severity: "deny".into(),
                message: "unguarded difference used as a divisor: a `D − R`-style \
                          denominator must use `checked_sub`/`saturating_sub` (or an \
                          explicit guard) so the division cannot hit zero or wrap"
                    .into(),
            });
        }
    }

    /// Unit of the atom ending just before token `i` (for binary-op
    /// conflict checks).
    fn atom_unit_before(&self, i: usize, env: &HashMap<String, Unit>) -> Unit {
        let prev = i.wrapping_sub(1);
        let Some(t) = self.tok(prev) else {
            return Unit::Unknown;
        };
        if t.is_punct(")") {
            // `(…)` or `recv.method(…)`: find the open paren, then the
            // method name before it.
            let mut depth = 0usize;
            let mut j = prev;
            loop {
                let Some(p) = self.tok(j) else {
                    return Unit::Unknown;
                };
                if p.is_punct(")") {
                    depth += 1;
                } else if p.is_punct("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return Unit::Unknown;
                }
                j -= 1;
            }
            let name_at = j.wrapping_sub(1);
            if self.tok(name_at).is_some_and(|n| n.kind == TokKind::Ident)
                && self.is_punct(name_at.wrapping_sub(1), ".")
            {
                return unit_of_fn_name(&self.toks[name_at].text);
            }
            return Unit::Unknown;
        }
        if t.kind == TokKind::Ident && !is_expr_keyword(&t.text) {
            return env
                .get(&t.text)
                .copied()
                .unwrap_or_else(|| unit_of_name(&t.text));
        }
        Unit::Unknown
    }

    /// Unit of the atom starting at token `i`.
    fn atom_unit_after(&self, i: usize, env: &HashMap<String, Unit>) -> Unit {
        let Some(t) = self.tok(i) else {
            return Unit::Unknown;
        };
        if t.kind != TokKind::Ident || is_expr_keyword(&t.text) {
            return Unit::Unknown;
        }
        // `x.as_ns_f64()` after the operator: accessor unit wins.
        if self.is_punct(i + 1, ".")
            && self.tok(i + 2).is_some_and(|m| m.kind == TokKind::Ident)
            && self.is_punct(i + 3, "(")
        {
            let u = unit_of_fn_name(&self.toks[i + 2].text);
            if u.is_concrete() {
                return u;
            }
        }
        if self.is_punct(i + 1, "(") {
            return unit_of_fn_name(&t.text);
        }
        env.get(&t.text)
            .copied()
            .unwrap_or_else(|| unit_of_name(&t.text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileFacts {
        parse_file("crates/core/src/x.rs", src)
    }

    #[test]
    fn finds_fns_and_publicity() {
        let f = parse(
            "pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\n\
             impl Foo { pub fn m(&self) {} fn p(&self) {} }\n\
             impl Bar for Foo { fn t(&self) {} }\n",
        );
        let by_name: HashMap<_, _> = f.fns.iter().map(|x| (x.name.as_str(), x)).collect();
        assert!(by_name["a"].is_pub);
        assert!(!by_name["b"].is_pub);
        assert!(!by_name["c"].is_pub, "pub(crate) is not public API");
        assert!(by_name["m"].is_pub);
        assert!(!by_name["p"].is_pub);
        assert!(by_name["t"].is_pub, "trait impl methods are API surface");
        assert_eq!(by_name["t"].qual.as_deref(), Some("Foo"));
        assert_eq!(by_name["t"].trait_name.as_deref(), Some("Bar"));
    }

    #[test]
    fn records_calls_and_seeds() {
        let f = parse(
            "fn f(x: Option<u8>) -> u8 {\n    helper();\n    Duration::from_ns(3);\n    \
             x.unwrap()\n}\n",
        );
        let fun = &f.fns[0];
        let callees: Vec<_> = fun.calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(callees.contains(&"helper"));
        assert!(callees.contains(&"from_ns"));
        let q = fun
            .calls
            .iter()
            .find(|c| c.callee == "from_ns")
            .and_then(|c| c.qual.clone());
        assert_eq!(q.as_deref(), Some("Duration"));
        assert_eq!(fun.seeds.len(), 1);
        assert_eq!(fun.seeds[0].kind, SeedKind::Unwrap);
    }

    #[test]
    fn test_regions_are_ignored() {
        let f = parse(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { \
             None::<u8>.unwrap(); }\n}\n",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "prod");
    }

    #[test]
    fn unit_inference_let_and_conflict() {
        let f = parse(
            "fn f(d_ns: u64, w_ms: f64) {\n    let x = d_ns;\n    let y = w_ms;\n    \
             let _z = x < y;\n}\n",
        );
        assert_eq!(f.a2_local.len(), 1, "{:?}", f.a2_local);
        assert!(f.a2_local[0].message.contains("cross-unit"));
    }

    #[test]
    fn unguarded_difference_denominator() {
        let f = parse("fn f(c: u64, d_ns: u64, r_ns: u64) -> u64 { c / (d_ns - r_ns) }\n");
        assert_eq!(f.a2_local.len(), 1, "{:?}", f.a2_local);
        assert!(f.a2_local[0].message.contains("unguarded difference"));
        // Guarded form is clean.
        let g = parse(
            "fn f(c: u64, d_ns: u64, r_ns: u64) -> u64 {\n    \
             let s = d_ns.checked_sub(r_ns).unwrap_or(1);\n    c / s\n}\n",
        );
        assert!(g.a2_local.is_empty(), "{:?}", g.a2_local);
    }

    #[test]
    fn ratio_arg_with_bare_sub_flagged() {
        let f = parse("fn f(a: Duration, d: Duration, r: Duration) -> f64 { a.ratio(d - r) }\n");
        assert_eq!(f.a2_local.len(), 1, "{:?}", f.a2_local);
    }

    #[test]
    fn waiver_comments_follow_one_grammar() {
        let f = parse(
            "// analyze: allow(L1): reason here\n\
             /// analyze: allow(L2): a doc comment only describes the syntax\n\
             // analyze: allow(L3):\n\
             // analyze: allow(L4) the colon is missing\n\
             // analyze: allow(X9): not a rule id\n\
             // analyze: allow(A7): one reason; analyze: allow(A8): another\n",
        );
        let got: Vec<(u32, &str)> = f
            .waivers
            .iter()
            .map(|w| (w.line, w.rule.as_str()))
            .collect();
        assert_eq!(got, [(1, "L1"), (6, "A7"), (6, "A8")]);
    }
}
