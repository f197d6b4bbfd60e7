//! A4 — interval abstract interpretation over time arithmetic.
//!
//! Phase-1 half: a per-function value-range walker over the token
//! stream. Each function body is abstractly executed with an
//! environment mapping local names to [`Abs`] values (integer or float
//! intervals with a *derived* flag distinguishing textual bounds from
//! assumed type ranges). The walker:
//!
//! * seeds parameters from their primitive type annotations,
//! * tracks `let` bindings, simple assignments, compound assignments,
//! * refines intervals through `if` conditions (`x == 0`, `x < k`,
//!   `x.is_zero()`, top-level `&&`/`||` splits) including the
//!   fall-through of a diverging then-branch,
//! * widens at loop heads (two-pass: a silent pass to find the fixpoint
//!   shape, then an emitting pass over the widened environment),
//! * and records an [`A4Site`] wherever a lossy cast, possible
//!   division by zero, unsigned underflow, or overflow is not *proven*
//!   absent.
//!
//! Phase-2 half ([`check`]): a **worklist-to-fixpoint summary engine**
//! over the whole call graph. Per-function summaries (declared param
//! ranges → return interval) are recomputed callee-first along the
//! SCC condensation of the call graph; cycles (direct or mutual
//! recursion, trait-dispatch loops) are cut at ⊤ — their members keep
//! their declared return-type range and every witness tainted by the
//! cut carries an explicit `assumed ⊤` provenance tag. A final
//! emitting walk over every function then produces the diagnostic
//! sites with all callee summaries in scope, so bounds flow through
//! arbitrary-depth call chains, not just one level. The phase-1
//! summary (join of all `return` values and the tail expression) is
//! still kept in [`crate::facts::FnFact::ret_abs`] as the fallback
//! when a body cannot be re-walked.
//!
//! Soundness posture mirrors A1/A2: the walker runs on code the
//! compiler already accepted and over-approximates aggressively
//! (anything unrecognized evaluates to `Unknown`), so precision loss
//! can only *add* warn/deny sites, never hide a real one the token IR
//! saw. Known model caveats (`usize` = 64 bits, `u128` bounds
//! saturated at `i128::MAX`, no closure-capture tracking, cycles cut
//! at ⊤) are documented in DESIGN.md §11 and §13.

use crate::allow::AllowEntry;
use crate::domains::{Abs, FltItv, IntItv, IntTy};
use crate::facts::{A4Kind, A4Site, FileFacts, FnFact};
use crate::lexer::{TokKind, Token};
use crate::{allowlist_waived, inline_waived, Diagnostic};
use std::collections::{HashMap, VecDeque};

/// Files where an unproven A4 site is a **deny** (the paper-critical
/// admission math and everything the fixpoint engine proved clean);
/// everywhere else A4 reports warn-severity sites. Entries ending in
/// `/` deny a whole directory prefix; other entries match by suffix.
const DENY_PATHS: &[&str] = &[
    "crates/core/src/analysis.rs",
    "crates/core/src/estimator.rs",
    "crates/core/src/qpa.rs",
    "crates/core/src/odm.rs",
    "crates/mckp/src/dp.rs",
    "crates/mckp/src/fptas.rs",
    "crates/mckp/src/branch_bound.rs",
    "crates/sim/src/event.rs",
    "crates/sim/src/system.rs",
    "crates/stats/src/",
    "crates/workloads/src/",
];

/// Whether `rel_path` falls in A4 deny scope.
fn is_deny_path(rel_path: &str) -> bool {
    DENY_PATHS.iter().any(|p| {
        if let Some(prefix) = p.strip_suffix('/') {
            rel_path
                .strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with('/'))
                || rel_path.starts_with(*p)
        } else {
            rel_path.ends_with(p)
        }
    })
}

/// One abstract value in the walker's environment.
#[derive(Debug, Clone, Default)]
struct Val {
    /// The interval (or `Unknown`).
    abs: Abs,
    /// Primitive type name when known (`"u64"`, `"f64"`, `""`).
    ty: String,
    /// When the value is exactly one call's result: the `(qual, name)`
    /// key for phase-2 summary discharge.
    dep: Option<(Option<String>, String)>,
}

impl Val {
    fn unknown() -> Val {
        Val::default()
    }

    fn of(abs: Abs, ty: &str) -> Val {
        Val {
            abs,
            ty: ty.to_owned(),
            dep: None,
        }
    }
}

type Env = HashMap<String, Val>;

/// Shared evaluation context for one function walk: module-level
/// constants from the surrounding file, plus — phase 2 only — a
/// resolver mapping call keys to the current fixpoint summary.
pub(crate) struct Ctx<'a> {
    /// `const NAME: TY = lit;` values visible in the file.
    pub consts: &'a HashMap<String, (String, i128)>,
    /// Callee-summary resolver; `None` during the phase-1 walk.
    #[allow(clippy::type_complexity)]
    pub resolver: Option<&'a dyn Fn(Option<&str>, &str) -> Option<Resolved>>,
}

/// A resolved callee summary (the join over every candidate callee).
pub(crate) struct Resolved {
    /// Joined return interval.
    pub abs: Abs,
    /// Return type when every candidate agrees (`""` otherwise).
    pub ty: String,
    /// `Some(description)` when the summary was cut at ⊤ to break a
    /// call-graph cycle — propagated into diagnostic witnesses.
    pub assumed: Option<String>,
}

/// Analyze one function body (`toks[start..end]`, the region strictly
/// inside the braces). Returns the return-interval summary and the A4
/// sites found.
pub(crate) fn analyze_fn(
    toks: &[Token],
    start: usize,
    end: usize,
    fact: &FnFact,
    ctx: &Ctx<'_>,
) -> (Abs, Vec<A4Site>) {
    let mut env = Env::new();
    for (idx, (name, _unit)) in fact.params.iter().enumerate() {
        let ty = fact.param_tys.get(idx).map_or("", String::as_str);
        env.insert(name.clone(), Val::of(Abs::of_type(ty), ty));
    }
    let mut w = W {
        toks,
        sites: Vec::new(),
        rets: Vec::new(),
        emit: true,
        ctx,
        assumed_note: None,
    };
    let tail = w.walk_block(start, end, &mut env);
    let mut summary = Abs::Unknown;
    let mut any = false;
    for r in &w.rets {
        summary = if any { summary.join(*r) } else { *r };
        any = true;
    }
    if tail.abs != Abs::Unknown {
        summary = if any {
            summary.join(tail.abs)
        } else {
            tail.abs
        };
    }
    (summary, w.sites)
}

/// The walker state.
struct W<'a> {
    toks: &'a [Token],
    sites: Vec<A4Site>,
    rets: Vec<Abs>,
    /// `false` during the silent first pass over a loop body.
    emit: bool,
    /// Constants and (phase 2) the fixpoint summary resolver.
    ctx: &'a Ctx<'a>,
    /// Sticky per-statement provenance: set when a value in the current
    /// statement came from a summary that was cut at ⊤ to break a
    /// call-graph cycle, so the sites it taints say so.
    assumed_note: Option<String>,
}

impl W<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.toks.get(i)
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(s))
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_ident(s))
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

    /// Skip a generics list starting at `<`; `<<`/`>>` count twice.
    fn skip_generics(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while let Some(t) = self.tok(i) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
        i
    }

    /// Skip an attribute starting at `#`.
    fn skip_attr(&self, mut i: usize) -> usize {
        i += 1;
        if self.is_punct(i, "!") {
            i += 1;
        }
        if !self.is_punct(i, "[") {
            return i;
        }
        self.skip_group(i)
    }

    /// Skip one nested item (fn/struct/…): to a top-level `;` or
    /// through the first top-level brace group.
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

    /// Exclusive end of the statement starting at `i` (the terminating
    /// `;` at depth 0, or `end`).
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

    /// Short source rendering of `toks[start..end]` for diagnostics.
    fn snippet(&self, start: usize, end: usize) -> String {
        let mut s = String::new();
        for i in start..end.min(start + 24) {
            let Some(t) = self.tok(i) else { break };
            if !s.is_empty() && needs_space(&s, &t.text) {
                s.push(' ');
            }
            s.push_str(&t.text);
        }
        if s.chars().count() > 48 {
            let mut cut: String = s.chars().take(47).collect();
            cut.push('…');
            return cut;
        }
        if end > start + 24 {
            s.push('…');
        }
        s
    }

    #[allow(clippy::too_many_arguments)] // one site record, one call shape
    fn site(
        &mut self,
        kind: A4Kind,
        line: u32,
        expr: String,
        target: &str,
        witness: String,
        definite: bool,
        dep: Option<(Option<String>, String)>,
    ) {
        if !self.emit {
            return;
        }
        let witness = match &self.assumed_note {
            Some(note) => format!("{witness} (assumed ⊤: {note})"),
            None => witness,
        };
        self.sites.push(A4Site {
            kind,
            line,
            expr,
            target: target.to_owned(),
            witness,
            definite,
            dep,
        });
    }

    // ------------------------------------------------------------------
    // Statement walker
    // ------------------------------------------------------------------

    /// Walk a block body region; returns the tail expression's value.
    fn walk_block(&mut self, mut i: usize, end: usize, env: &mut Env) -> Val {
        let mut tail = Val::unknown();
        while i < end {
            self.assumed_note = None;
            let Some(t) = self.tok(i) else { break };
            tail = Val::unknown();
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "#") => i = self.skip_attr(i),
                (TokKind::Punct, ";") => i += 1,
                (TokKind::Punct, "{") => {
                    let close = self.skip_group(i);
                    let v = self.walk_block(i + 1, close.saturating_sub(1), env);
                    if close >= end {
                        tail = v;
                    }
                    i = close;
                }
                (TokKind::Ident, "let") => i = self.stmt_let(i, end, env),
                (TokKind::Ident, "return") => {
                    let se = self.stmt_end(i + 1, end);
                    if se > i + 1 {
                        let v = self.eval_region(i + 1, se, env);
                        self.rets.push(v.abs);
                    } else {
                        self.rets.push(Abs::Unknown);
                    }
                    i = se + 1;
                }
                (TokKind::Ident, "break" | "continue") => i = self.stmt_end(i, end) + 1,
                (TokKind::Ident, "if") => {
                    let (ni, v) = self.walk_if(i, end, env);
                    if ni >= end {
                        tail = v;
                    }
                    i = ni;
                }
                (TokKind::Ident, "match") => {
                    let (ni, v) = self.walk_match(i, end, env);
                    if ni >= end {
                        tail = v;
                    }
                    i = ni;
                }
                (TokKind::Ident, "while" | "loop") => {
                    let mut j = i + 1;
                    let mut depth = 0usize;
                    while j < end {
                        let Some(tj) = self.tok(j) else { break };
                        match tj.text.as_str() {
                            "(" | "[" if tj.kind == TokKind::Punct => depth += 1,
                            ")" | "]" if tj.kind == TokKind::Punct => {
                                depth = depth.saturating_sub(1);
                            }
                            "{" if tj.kind == TokKind::Punct && depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if self.is_punct(j, "{") {
                        // Evaluate the condition for sites (skipping
                        // `while let` patterns).
                        if t.text == "while"
                            && j > i + 1
                            && !(i + 1..j).any(|k| self.is_ident(k, "let"))
                        {
                            self.eval_region(i + 1, j, env);
                        }
                        i = self.loop_body(j, env);
                    } else {
                        i = j + 1;
                    }
                }
                (TokKind::Ident, "for") => i = self.stmt_for(i, end, env),
                (
                    TokKind::Ident,
                    "fn" | "struct" | "enum" | "impl" | "use" | "const" | "static" | "type"
                    | "trait" | "mod" | "macro_rules" | "unsafe" | "async" | "pub" | "extern",
                ) => i = self.skip_item_rest(i),
                _ => {
                    let se = self.stmt_end(i, end);
                    i = self.stmt_expr(i, se, end, env, &mut tail);
                }
            }
        }
        tail
    }

    /// One expression statement `toks[i..se]`; handles simple and
    /// compound assignments to plain identifiers. Returns the next
    /// statement index and sets `tail` when this is the block tail.
    fn stmt_expr(
        &mut self,
        i: usize,
        se: usize,
        end: usize,
        env: &mut Env,
        tail: &mut Val,
    ) -> usize {
        // `name = rhs` / `name op= rhs` on a tracked local.
        if let Some(t) = self.tok(i) {
            if t.kind == TokKind::Ident {
                let name = t.text.clone();
                let op = self
                    .tok(i + 1)
                    .filter(|n| n.kind == TokKind::Punct)
                    .map(|n| (n.text.clone(), n.line));
                if let Some((op, line)) = op {
                    let ops = [
                        "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=",
                    ];
                    if ops.contains(&op.as_str()) && i + 2 <= se {
                        let rhs = self.eval_region(i + 2, se, env);
                        let new = if op == "=" {
                            rhs
                        } else {
                            let cur = env.get(&name).cloned().unwrap_or_default();
                            let base = op.trim_end_matches('=');
                            let snip = self.snippet(i, se);
                            let mut v = self.apply_bin(base, cur.clone(), rhs, line, snip);
                            if v.ty.is_empty() {
                                v.ty = cur.ty;
                            }
                            v
                        };
                        let entry = env.entry(name).or_default();
                        let ty = if new.ty.is_empty() {
                            entry.ty.clone()
                        } else {
                            new.ty.clone()
                        };
                        *entry = Val { ty, ..new };
                        return se + 1;
                    }
                }
            }
        }
        // `place = rhs` on anything else (field, index, deref): evaluate
        // both halves for sites only.
        if let Some(eq) = self.find_top_level(i, se, "=") {
            self.eval_region(i, eq, env);
            self.eval_region(eq + 1, se, env);
            return se + 1;
        }
        let v = self.eval_region(i, se, env);
        if se >= end {
            *tail = v;
        }
        se + 1
    }

    /// Index of a top-level punct `op` in `toks[start..end]`, if any.
    fn find_top_level(&self, start: usize, end: usize, op: &str) -> Option<usize> {
        let mut depth = 0usize;
        let mut i = start;
        while i < end {
            let t = self.tok(i)?;
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokKind::Punct => depth = depth.saturating_sub(1),
                s if t.kind == TokKind::Punct && s == op && depth == 0 => return Some(i),
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// `let [mut] name [: ty] = rhs;` — returns the next statement
    /// index after the terminating `;`.
    fn stmt_let(&mut self, i: usize, end: usize, env: &mut Env) -> usize {
        let mut j = i + 1;
        if self.is_ident(j, "mut") {
            j += 1;
        }
        let named = self
            .tok(j)
            .is_some_and(|t| t.kind == TokKind::Ident && !is_kw(&t.text))
            && !(self.is_punct(j + 1, "(")
                || self.is_punct(j + 1, "{")
                || self.is_punct(j + 1, "::")
                || self.is_punct(j + 1, ","));
        if !named {
            // Destructuring / pattern binding: evaluate the initializer
            // for sites only.
            let se = self.stmt_end(i, end);
            if let Some(eq) = self.find_top_level(i, se, "=") {
                self.eval_region(eq + 1, se, env);
            }
            return se + 1;
        }
        let name = self.tok(j).map(|t| t.text.clone()).unwrap_or_default();
        let mut k = j + 1;
        let mut ty = String::new();
        if self.is_punct(k, ":") {
            if let Some(t) = self.tok(k + 1) {
                if t.kind == TokKind::Ident && crate::parse::is_primitive_ty(&t.text) {
                    ty = t.text.clone();
                }
            }
        }
        // Scan to the `=` at angle-and-group depth 0.
        let se = self.stmt_end(k, end);
        let mut eq = None;
        let mut gdepth = 0i32;
        let mut adepth = 0i32;
        while k < se {
            let Some(t) = self.tok(k) else { break };
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => gdepth += 1,
                    ")" | "]" | "}" => gdepth -= 1,
                    "<" => adepth += 1,
                    "<<" => adepth += 2,
                    ">" => adepth -= 1,
                    ">>" => adepth -= 2,
                    "=" if gdepth == 0 && adepth <= 0 => {
                        eq = Some(k);
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        let Some(eq) = eq else {
            // `let x: u64;` — bind the type range.
            env.insert(name, Val::of(Abs::of_type(&ty), &ty));
            return se + 1;
        };
        let rhs = eq + 1;
        let mut v = if self.is_ident(rhs, "if") {
            let mut e = rhs;
            let (ni, v) = self.walk_if(e, se, env);
            e = ni;
            let _ = e;
            v
        } else if self.is_ident(rhs, "match") {
            let (_, v) = self.walk_match(rhs, se, env);
            v
        } else {
            self.eval_region(rhs, se, env)
        };
        if !ty.is_empty() {
            if v.abs == Abs::Unknown {
                v.abs = Abs::of_type(&ty);
            }
            v.ty = ty;
        }
        env.insert(name, v);
        se + 1
    }

    /// `for pat in iter { body }` — binds a simple range pattern,
    /// otherwise havocs; widens through the body.
    fn stmt_for(&mut self, i: usize, end: usize, env: &mut Env) -> usize {
        let mut in_at = None;
        let mut brace = None;
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "(" | "[") => depth += 1,
                (TokKind::Punct, ")" | "]") => depth = depth.saturating_sub(1),
                (TokKind::Ident, "in") if depth == 0 && in_at.is_none() => in_at = Some(j),
                (TokKind::Punct, "{") if depth == 0 => {
                    brace = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let (Some(in_at), Some(brace)) = (in_at, brace) else {
            return self.stmt_end(i, end) + 1;
        };
        let simple = in_at == i + 2
            && self
                .tok(i + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && !is_kw(&t.text));
        let mut bound = false;
        if simple {
            let name = self.tok(i + 1).map(|t| t.text.clone()).unwrap_or_default();
            // `lo..hi` / `lo..=hi` range iteration.
            let dots = self
                .find_top_level(in_at + 1, brace, "..")
                .map(|d| (d, true))
                .or_else(|| {
                    self.find_top_level(in_at + 1, brace, "..=")
                        .map(|d| (d, false))
                });
            if let Some((d, exclusive)) = dots {
                let lo = self.eval_region(in_at + 1, d, env);
                let hi = self.eval_region(d + 1, brace, env);
                if let (Abs::Int(a), Abs::Int(b)) = (lo.abs, hi.abs) {
                    let hi_bound = if exclusive {
                        b.hi.saturating_sub(1)
                    } else {
                        b.hi
                    };
                    let itv = IntItv {
                        lo: a.lo,
                        hi: hi_bound.max(a.lo),
                        derived: a.derived && b.derived,
                    };
                    let ty = if lo.ty.is_empty() { hi.ty } else { lo.ty };
                    env.insert(name.clone(), Val::of(Abs::Int(itv), &ty));
                    bound = true;
                }
            }
            if !bound {
                self.eval_region(in_at + 1, brace, env);
                env.insert(name, Val::unknown());
            }
        } else {
            self.eval_region(in_at + 1, brace, env);
        }
        self.loop_body(brace, env)
    }

    /// Walk a loop body twice: a silent pass to discover which
    /// bindings change (widening them in `env`), then an emitting pass
    /// over the stable widened environment.
    fn loop_body(&mut self, open: usize, env: &mut Env) -> usize {
        let close = self.skip_group(open);
        let body_end = close.saturating_sub(1);
        let snap = env.clone();
        // Widening jumps to the i128 extremes; a binding with a known
        // integer type can soundly be pulled back into that type's
        // range (machine values never leave it), which keeps witnesses
        // like `[0, 2^64-1]` readable after loops.
        let ty_clamp = |e: &mut Val| {
            if let (Abs::Int(i), Some(t)) = (e.abs, IntTy::parse(&e.ty)) {
                e.abs = Abs::Int(IntItv {
                    lo: i.lo.clamp(t.min(), t.max()),
                    hi: i.hi.clamp(t.min(), t.max()),
                    derived: i.derived,
                });
            }
        };
        let was = self.emit;
        self.emit = false;
        let mut probe = env.clone();
        self.walk_block(open + 1, body_end, &mut probe);
        for (name, old) in &snap {
            if let Some(new) = probe.get(name) {
                if new.abs != old.abs {
                    if let Some(e) = env.get_mut(name) {
                        e.abs = new.abs.widen(old.abs);
                        e.dep = None;
                        ty_clamp(e);
                    }
                }
            }
        }
        self.emit = was;
        self.walk_block(open + 1, body_end, env);
        // Re-widen after the emitting pass so post-loop code sees the
        // fixpoint, not the single-iteration result.
        for (name, old) in &snap {
            if let Some(e) = env.get_mut(name) {
                if e.abs != old.abs {
                    e.abs = e.abs.widen(old.abs);
                    e.dep = None;
                    ty_clamp(e);
                }
            }
        }
        // Loop-local bindings do not escape.
        env.retain(|name, _| snap.contains_key(name));
        for (name, v) in snap {
            env.entry(name).or_insert(v);
        }
        close
    }

    /// `if cond { .. } [else ..]` — returns (next index, value).
    fn walk_if(&mut self, i: usize, end: usize, env: &mut Env) -> (usize, Val) {
        // Find the then-block `{` at depth 0.
        let mut j = i + 1;
        let mut depth = 0usize;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            match t.text.as_str() {
                "(" | "[" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" if t.kind == TokKind::Punct => depth = depth.saturating_sub(1),
                "{" if t.kind == TokKind::Punct && depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if !self.is_punct(j, "{") {
            return (end, Val::unknown());
        }
        let cond = (i + 1, j);
        let is_let = (cond.0..cond.1).any(|k| self.is_ident(k, "let"));
        if !is_let && cond.1 > cond.0 {
            self.eval_region(cond.0, cond.1, env);
        }
        let mut env_then = env.clone();
        let mut env_else = env.clone();
        if !is_let {
            self.refine_into(cond.0, cond.1, true, &mut env_then);
            self.refine_into(cond.0, cond.1, false, &mut env_else);
        }
        let then_close = self.skip_group(j);
        let then_v = self.walk_block(j + 1, then_close.saturating_sub(1), &mut env_then);
        if self.is_ident(then_close, "else") {
            if self.is_ident(then_close + 1, "if") {
                let (ni, else_v) = self.walk_if(then_close + 1, end, &mut env_else);
                *env = join_env(&env_then, &env_else);
                return (ni, join_val(then_v, else_v));
            }
            if self.is_punct(then_close + 1, "{") {
                let else_close = self.skip_group(then_close + 1);
                let else_v =
                    self.walk_block(then_close + 2, else_close.saturating_sub(1), &mut env_else);
                *env = join_env(&env_then, &env_else);
                return (else_close, join_val(then_v, else_v));
            }
        }
        // No else: a diverging then-branch leaves only the refined
        // fall-through environment.
        if self.block_diverges(j + 1, then_close.saturating_sub(1)) {
            *env = env_else;
        } else {
            *env = join_env(&env_then, &env_else);
        }
        (then_close, Val::unknown())
    }

    /// Does a block's first statement unconditionally diverge?
    fn block_diverges(&self, start: usize, end: usize) -> bool {
        let mut i = start;
        while i < end && self.is_punct(i, "#") {
            i = self.skip_attr(i);
        }
        let Some(t) = self.tok(i) else { return false };
        if t.kind == TokKind::Ident {
            if matches!(t.text.as_str(), "return" | "break" | "continue") {
                return true;
            }
            if crate::parse::is_panic_macro(&t.text) && self.is_punct(i + 1, "!") {
                return true;
            }
        }
        false
    }

    /// `match scrutinee { arms }` — joins arm tails, havocs names the
    /// arms assign to.
    fn walk_match(&mut self, i: usize, end: usize, env: &mut Env) -> (usize, Val) {
        let mut j = i + 1;
        let mut depth = 0usize;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            match t.text.as_str() {
                "(" | "[" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" if t.kind == TokKind::Punct => depth = depth.saturating_sub(1),
                "{" if t.kind == TokKind::Punct && depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if !self.is_punct(j, "{") {
            return (end, Val::unknown());
        }
        if j > i + 1 {
            self.eval_region(i + 1, j, env);
        }
        let close = self.skip_group(j);
        let inner_end = close.saturating_sub(1);
        let mut k = j + 1;
        let mut joined: Option<Val> = None;
        while k < inner_end {
            while k < inner_end && self.is_punct(k, "#") {
                k = self.skip_attr(k);
            }
            let Some(arrow) = self.find_arrow(k, inner_end) else {
                break;
            };
            let body = arrow + 1;
            if body >= inner_end {
                break;
            }
            let (bend, next) = if self.is_punct(body, "{") {
                let c = self.skip_group(body);
                let n = if self.is_punct(c, ",") { c + 1 } else { c };
                (c, n)
            } else {
                let c = self
                    .find_top_level(body, inner_end, ",")
                    .unwrap_or(inner_end);
                (c, c + 1)
            };
            let mut arm_env = env.clone();
            let v = if self.is_punct(body, "{") {
                self.walk_block(body + 1, bend.saturating_sub(1), &mut arm_env)
            } else {
                self.eval_region(body, bend, &mut arm_env)
            };
            joined = Some(match joined {
                None => v,
                Some(p) => join_val(p, v),
            });
            k = next;
        }
        self.havoc_assigned(j + 1, inner_end, env);
        (close, joined.unwrap_or_default())
    }

    /// The `=>` at depth 0 starting the next arm body.
    fn find_arrow(&self, start: usize, end: usize) -> Option<usize> {
        let mut depth = 0usize;
        let mut i = start;
        while i < end {
            let t = self.tok(i)?;
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokKind::Punct => depth = depth.saturating_sub(1),
                "=>" if t.kind == TokKind::Punct && depth == 0 => return Some(i),
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// Havoc every environment name that the region assigns to
    /// (`name =`, `name +=`, …) — match arms are walked on clones, so
    /// their writes must be forgotten conservatively.
    fn havoc_assigned(&self, start: usize, end: usize, env: &mut Env) {
        let ops = [
            "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=",
        ];
        for i in start..end {
            let Some(t) = self.tok(i) else { break };
            if t.kind != TokKind::Ident {
                continue;
            }
            let Some(n) = self.tok(i + 1) else { continue };
            if n.kind == TokKind::Punct && ops.contains(&n.text.as_str()) {
                if let Some(v) = env.get_mut(&t.text) {
                    v.abs = Abs::of_type(&v.ty);
                    v.dep = None;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Condition refinement
    // ------------------------------------------------------------------

    /// Refine `env` under the assumption that `toks[start..end]`
    /// evaluates to `truth`.
    fn refine_into(&self, mut start: usize, mut end: usize, truth: bool, env: &mut Env) {
        // Strip full outer parens.
        while self.is_punct(start, "(") && self.skip_group(start) == end {
            start += 1;
            end = end.saturating_sub(1);
        }
        if start >= end {
            return;
        }
        // `a && b` under truth, `a || b` under falsity: both conjuncts
        // hold.
        let split_op = if truth { "&&" } else { "||" };
        if let Some(k) = self.find_top_level(start, end, split_op) {
            self.refine_into(start, k, truth, env);
            self.refine_into(k + 1, end, truth, env);
            return;
        }
        // `x.is_zero()`.
        if end == start + 5
            && self.is_punct(start + 1, ".")
            && self.is_ident(start + 2, "is_zero")
            && self.is_punct(start + 3, "(")
            && self.is_punct(start + 4, ")")
        {
            if let Some(t) = self.tok(start) {
                if t.kind == TokKind::Ident {
                    if let Some(v) = env.get_mut(&t.text) {
                        if let Abs::Int(it) = v.abs {
                            v.abs = Abs::Int(if truth {
                                IntItv::exact(0)
                            } else if it.lo >= 0 {
                                it.max_with(1)
                            } else {
                                it
                            });
                        }
                    }
                }
            }
            return;
        }
        // Three-token comparison `a cmp b`.
        if end != start + 3 {
            return;
        }
        let Some(op) = self.tok(start + 1).filter(|t| t.kind == TokKind::Punct) else {
            return;
        };
        let op = op.text.as_str();
        if !matches!(op, "==" | "!=" | "<" | "<=" | ">" | ">=") {
            return;
        }
        let eff = if truth { op } else { negate_cmp(op) };
        let lhs = self.cmp_side(start, env);
        let rhs = self.cmp_side(start + 2, env);
        if let (Some((Some(name), _)), Some((_, Some(k)))) = (&lhs, &rhs) {
            refine_var(env, name, eff, *k);
        } else if let (Some((_, Some(k))), Some((Some(name), _))) = (&lhs, &rhs) {
            refine_var(env, name, flip_cmp(eff), *k);
        }
    }

    /// One side of a comparison: `(env name if a tracked int var,
    /// interval if resolvable)`.
    #[allow(clippy::type_complexity)]
    fn cmp_side(&self, i: usize, env: &Env) -> Option<(Option<String>, Option<IntItv>)> {
        let t = self.tok(i)?;
        match t.kind {
            TokKind::Int => {
                let (v, _ty) = parse_int_lit(&t.text);
                Some((None, v.map(IntItv::exact)))
            }
            TokKind::Ident => {
                let itv = env
                    .get(&t.text)
                    .and_then(|v| v.abs.as_int())
                    .or_else(|| self.ctx.consts.get(&t.text).map(|(_, k)| IntItv::exact(*k)));
                Some((Some(t.text.clone()), itv))
            }
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Expression evaluation (Pratt over the token stream)
    // ------------------------------------------------------------------

    /// Evaluate an expression region; leftover tokens after the parse
    /// frontier are skipped group-wise.
    fn eval_region(&mut self, start: usize, end: usize, env: &mut Env) -> Val {
        let mut i = start;
        let v = self.eval_bp(&mut i, end, env, 0);
        while i < end {
            if self.tok(i).is_some_and(|t| {
                t.kind == TokKind::Punct && matches!(t.text.as_str(), "(" | "[" | "{")
            }) {
                i = self.skip_group(i);
            } else {
                i += 1;
            }
        }
        v
    }

    fn eval_bp(&mut self, i: &mut usize, end: usize, env: &mut Env, min_bp: u8) -> Val {
        let start0 = *i;
        let mut lhs = self.primary(i, end, env);
        while *i < end {
            let Some(t) = self.tok(*i) else { break };
            if t.kind == TokKind::Ident && t.text == "as" {
                let line = t.line;
                let Some(tyt) = self.tok(*i + 1).filter(|n| n.kind == TokKind::Ident) else {
                    *i += 1;
                    break;
                };
                let ty_name = tyt.text.clone();
                let snip = self.snippet(start0, *i);
                *i += 2;
                lhs = self.cast(lhs, &ty_name, line, snip);
                continue;
            }
            if t.kind != TokKind::Punct {
                break;
            }
            let op = t.text.clone();
            let Some(bp) = bp_of(&op) else { break };
            if bp < min_bp {
                break;
            }
            let line = t.line;
            *i += 1;
            let rhs = self.eval_bp(i, end, env, bp + 1);
            if op == ".." || op == "..=" {
                lhs = Val::unknown();
                continue;
            }
            let snip = self.snippet(start0, *i);
            lhs = self.apply_bin(&op, lhs, rhs, line, snip);
        }
        lhs
    }

    #[allow(clippy::too_many_lines)]
    fn primary(&mut self, i: &mut usize, end: usize, env: &mut Env) -> Val {
        let Some(t) = self.tok(*i).cloned() else {
            return Val::unknown();
        };
        if *i >= end {
            return Val::unknown();
        }
        let mut v = match (t.kind, t.text.as_str()) {
            (TokKind::Int, _) => {
                *i += 1;
                let (val, ty) = parse_int_lit(&t.text);
                match val {
                    Some(n) => Val::of(Abs::Int(IntItv::exact(n)), &ty),
                    None => Val::of(Abs::of_type(&ty), &ty),
                }
            }
            (TokKind::Float, _) => {
                *i += 1;
                let (val, ty) = parse_float_lit(&t.text);
                match val {
                    Some(f) => Val::of(Abs::Float(FltItv::exact(f)), &ty),
                    None => Val::of(Abs::of_type(&ty), &ty),
                }
            }
            (TokKind::Str | TokKind::Char | TokKind::Lifetime, _) => {
                *i += 1;
                Val::unknown()
            }
            (TokKind::Punct, "(") => {
                let close = self.skip_group(*i);
                let vals = self.eval_args(*i, env);
                *i = close;
                if vals.len() == 1 {
                    vals.into_iter().next().unwrap_or_default()
                } else {
                    Val::unknown()
                }
            }
            (TokKind::Punct, "-") => {
                *i += 1;
                let v = self.eval_bp(i, end, env, 10);
                match v.abs {
                    Abs::Int(it) => Val::of(
                        Abs::Int(IntItv {
                            lo: it.hi.saturating_neg(),
                            hi: it.lo.saturating_neg(),
                            derived: it.derived,
                        }),
                        &v.ty,
                    ),
                    Abs::Float(f) => Val::of(
                        Abs::Float(FltItv {
                            lo: -f.hi,
                            hi: -f.lo,
                            derived: f.derived,
                        }),
                        &v.ty,
                    ),
                    Abs::Unknown => Val::unknown(),
                }
            }
            (TokKind::Punct, "!") => {
                *i += 1;
                self.eval_bp(i, end, env, 10);
                Val::unknown()
            }
            (TokKind::Punct, "&" | "*") => {
                *i += 1;
                if self.is_ident(*i, "mut") {
                    *i += 1;
                }
                self.eval_bp(i, end, env, 10)
            }
            (TokKind::Punct, "&&") => {
                // `&&x` — double reference.
                *i += 1;
                if self.is_ident(*i, "mut") {
                    *i += 1;
                }
                self.eval_bp(i, end, env, 10)
            }
            (TokKind::Punct, "|" | "||") => {
                // Closure literal: skip the parameter list, evaluate
                // the body for sites, return Unknown (captures and
                // parameters are not tracked across the boundary).
                if t.text == "||" {
                    *i += 1;
                } else {
                    let mut j = *i + 1;
                    let mut depth = 0usize;
                    while j < end {
                        let Some(tj) = self.tok(j) else { break };
                        match tj.text.as_str() {
                            "(" | "[" | "<" if tj.kind == TokKind::Punct => depth += 1,
                            ")" | "]" | ">" if tj.kind == TokKind::Punct => {
                                depth = depth.saturating_sub(1);
                            }
                            "|" if tj.kind == TokKind::Punct && depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    *i = j + 1;
                }
                let mut clo_env = env.clone();
                self.eval_bp(i, end, &mut clo_env, 0);
                Val::unknown()
            }
            (TokKind::Punct, "[") => {
                let close = self.skip_group(*i);
                self.eval_args(*i, env);
                *i = close;
                Val::unknown()
            }
            (TokKind::Punct, "{") => {
                let close = self.skip_group(*i);
                let mut inner = env.clone();
                let v = self.walk_block(*i + 1, close.saturating_sub(1), &mut inner);
                *i = close;
                v
            }
            (TokKind::Ident, "if") => {
                let (ni, v) = self.walk_if(*i, end, env);
                *i = ni;
                v
            }
            (TokKind::Ident, "match") => {
                let (ni, v) = self.walk_match(*i, end, env);
                *i = ni;
                v
            }
            (TokKind::Ident, "loop" | "while") => {
                let mut j = *i + 1;
                let mut depth = 0usize;
                while j < end {
                    let Some(tj) = self.tok(j) else { break };
                    match tj.text.as_str() {
                        "(" | "[" if tj.kind == TokKind::Punct => depth += 1,
                        ")" | "]" if tj.kind == TokKind::Punct => depth = depth.saturating_sub(1),
                        "{" if tj.kind == TokKind::Punct && depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                *i = if self.is_punct(j, "{") {
                    self.loop_body(j, env)
                } else {
                    j + 1
                };
                Val::unknown()
            }
            (TokKind::Ident, "for") => {
                *i = self.stmt_for(*i, end, env);
                Val::unknown()
            }
            (TokKind::Ident, "move" | "unsafe" | "mut" | "ref" | "box" | "dyn") => {
                *i += 1;
                return self.primary(i, end, env);
            }
            (TokKind::Ident, "true" | "false") => {
                *i += 1;
                Val::unknown()
            }
            (TokKind::Ident, "return") => {
                *i += 1;
                let v = if *i < end {
                    self.eval_bp(i, end, env, 0)
                } else {
                    Val::unknown()
                };
                self.rets.push(v.abs);
                Val::unknown()
            }
            (TokKind::Ident, "break" | "continue") => {
                *i += 1;
                if *i < end {
                    self.eval_bp(i, end, env, 0);
                }
                Val::unknown()
            }
            (TokKind::Ident, _) => self.ident_primary(i, end, env),
            _ => {
                *i += 1;
                Val::unknown()
            }
        };
        // Postfix chain: method calls, field access, indexing, `?`.
        loop {
            if *i >= end {
                break;
            }
            if self.is_punct(*i, ".") {
                let Some(m) = self.tok(*i + 1).cloned() else {
                    break;
                };
                match m.kind {
                    TokKind::Ident => {
                        let mut call_at = *i + 2;
                        if self.is_punct(call_at, "::") {
                            call_at = self.skip_generics(call_at + 1);
                        }
                        if self.is_punct(call_at, "(") {
                            let close = self.skip_group(call_at);
                            let args = self.eval_args(call_at, env);
                            *i = close;
                            v = self.method(v, &m.text, &args);
                        } else {
                            *i += 2;
                            v = Val::unknown();
                        }
                    }
                    TokKind::Int => {
                        // Tuple field.
                        *i += 2;
                        v = Val::unknown();
                    }
                    _ => break,
                }
                continue;
            }
            if self.is_punct(*i, "[") {
                let close = self.skip_group(*i);
                self.eval_args(*i, env);
                *i = close;
                v = Val::unknown();
                continue;
            }
            if self.is_punct(*i, "?") {
                *i += 1;
                continue;
            }
            break;
        }
        v
    }

    /// An identifier in primary position: macro, path, call, struct
    /// literal, or environment lookup.
    fn ident_primary(&mut self, i: &mut usize, _end: usize, env: &mut Env) -> Val {
        let Some(t) = self.tok(*i).cloned() else {
            return Val::unknown();
        };
        let name = t.text;
        // Macro invocation.
        if self.is_punct(*i + 1, "!") {
            *i += 2;
            if self.tok(*i).is_some_and(|g| {
                g.kind == TokKind::Punct && matches!(g.text.as_str(), "(" | "[" | "{")
            }) {
                let close = self.skip_group(*i);
                self.eval_args(*i, env);
                // `assert!(cond, ..)` refines the fall-through state
                // exactly like an early-return guard.
                if matches!(name.as_str(), "assert" | "debug_assert") {
                    let inner_end = close.saturating_sub(1);
                    let cond_end = self
                        .find_top_level(*i + 1, inner_end, ",")
                        .unwrap_or(inner_end);
                    self.refine_into(*i + 1, cond_end, true, env);
                }
                *i = close;
            }
            return Val::unknown();
        }
        // Path: `A::B::c` with optional turbofish.
        if self.is_punct(*i + 1, "::") {
            let mut segs: Vec<String> = vec![name];
            let mut j = *i + 1;
            while self.is_punct(j, "::") {
                j += 1;
                if self.is_punct(j, "<") {
                    j = self.skip_generics(j);
                    if self.is_punct(j, "::") {
                        continue;
                    }
                    break;
                }
                let Some(s) = self.tok(j).filter(|s| s.kind == TokKind::Ident) else {
                    break;
                };
                segs.push(s.text.clone());
                j += 1;
            }
            *i = j;
            let last = segs.last().cloned().unwrap_or_default();
            let qual = if segs.len() >= 2 {
                segs.get(segs.len() - 2).cloned()
            } else {
                None
            };
            if self.is_punct(*i, "(") {
                let close = self.skip_group(*i);
                let args = self.eval_args(*i, env);
                *i = close;
                // Lossless widening conversion keeps the interval.
                if last == "from" {
                    if let Some(q) = &qual {
                        if crate::parse::is_primitive_ty(q) && args.len() == 1 {
                            if let Some(a) = args.first() {
                                if a.abs.as_int().is_some() && !q.starts_with('f') {
                                    return Val::of(a.abs, q);
                                }
                            }
                        }
                    }
                }
                return self.call_result(qual, last);
            }
            // Associated constants on primitives.
            if let Some(q) = &qual {
                if let Some(ty) = IntTy::parse(q) {
                    match last.as_str() {
                        "MAX" => return Val::of(Abs::Int(IntItv::exact(ty.max())), q),
                        "MIN" => return Val::of(Abs::Int(IntItv::exact(ty.min())), q),
                        "BITS" => {
                            return Val::of(Abs::Int(IntItv::exact(i128::from(ty.bits))), "u32")
                        }
                        _ => {}
                    }
                }
                if q == "f64" || q == "f32" {
                    let k = match last.as_str() {
                        "INFINITY" => Some(f64::INFINITY),
                        "NEG_INFINITY" => Some(f64::NEG_INFINITY),
                        "MAX" => Some(f64::MAX),
                        "MIN" => Some(f64::MIN),
                        "EPSILON" => Some(f64::EPSILON),
                        "MIN_POSITIVE" => Some(f64::MIN_POSITIVE),
                        _ => None,
                    };
                    if let Some(k) = k {
                        return Val::of(Abs::Float(FltItv::exact(k)), q);
                    }
                }
            }
            return Val::unknown();
        }
        // Plain call.
        if self.is_punct(*i + 1, "(") && !is_kw(&name) {
            let close = self.skip_group(*i + 1);
            self.eval_args(*i + 1, env);
            *i = close;
            return self.call_result(None, name);
        }
        // Struct literal `Type { .. }`.
        if self.is_punct(*i + 1, "{") && name.chars().next().is_some_and(char::is_uppercase) {
            let close = self.skip_group(*i + 1);
            *i = close;
            return Val::unknown();
        }
        *i += 1;
        if let Some(v) = env.get(&name) {
            return v.clone();
        }
        // Module/impl-level `const NAME: TY = lit;` from this file.
        if let Some((ty, k)) = self.ctx.consts.get(&name) {
            return Val::of(Abs::Int(IntItv::exact(*k)), ty);
        }
        Val::unknown()
    }

    /// The value of a call expression: phase 1 leaves it unknown with a
    /// `dep` key for later discharge; phase 2 consults the fixpoint
    /// summary table and records ⊤-cut provenance for the statement.
    fn call_result(&mut self, qual: Option<String>, name: String) -> Val {
        let mut v = Val {
            abs: Abs::Unknown,
            ty: String::new(),
            dep: Some((qual, name)),
        };
        if let Some(resolve) = self.ctx.resolver {
            let key = v.dep.as_ref().map(|(q, n)| (q.as_deref(), n.as_str()));
            if let Some((q, n)) = key {
                if let Some(r) = resolve(q, n) {
                    if let Some(note) = r.assumed {
                        self.assumed_note.get_or_insert(note);
                    }
                    v.abs = r.abs;
                    v.ty = r.ty;
                }
            }
        }
        v
    }

    /// Evaluate the comma-separated argument regions inside the group
    /// opening at `open`; the caller advances past the group.
    fn eval_args(&mut self, open: usize, env: &mut Env) -> Vec<Val> {
        let close = self.skip_group(open);
        let inner_end = close.saturating_sub(1);
        let mut out = Vec::new();
        let mut s = open + 1;
        while s < inner_end {
            let e = self.find_top_level(s, inner_end, ",").unwrap_or(inner_end);
            if e > s {
                let v = self.eval_region(s, e, env);
                out.push(v);
            }
            s = e + 1;
        }
        out
    }

    /// Interval semantics of well-known methods; anything unknown
    /// becomes a `dep` call result for phase-2 discharge.
    #[allow(clippy::too_many_lines)]
    fn method(&mut self, recv: Val, name: &str, args: &[Val]) -> Val {
        let a0 = args.first();
        match name {
            "min" | "max" if args.len() == 1 => {
                let Some(a) = a0 else { return Val::unknown() };
                match (recv.abs, a.abs) {
                    (Abs::Int(x), Abs::Int(k)) if k.lo == k.hi && k.derived => {
                        let r = if name == "min" {
                            x.min_with(k.lo)
                        } else {
                            x.max_with(k.lo)
                        };
                        Val::of(Abs::Int(r), &recv.ty)
                    }
                    (Abs::Int(x), Abs::Int(k)) => {
                        let r = if name == "min" {
                            IntItv {
                                lo: x.lo.min(k.lo),
                                hi: x.hi.min(k.hi),
                                derived: x.derived && k.derived,
                            }
                        } else {
                            IntItv {
                                lo: x.lo.max(k.lo),
                                hi: x.hi.max(k.hi),
                                derived: x.derived && k.derived,
                            }
                        };
                        Val::of(Abs::Int(r), &recv.ty)
                    }
                    (Abs::Float(x), Abs::Float(k)) => {
                        let r = if name == "min" {
                            FltItv {
                                lo: x.lo.min(k.lo),
                                hi: x.hi.min(k.hi),
                                derived: x.derived && k.derived,
                            }
                        } else {
                            FltItv {
                                lo: x.lo.max(k.lo),
                                hi: x.hi.max(k.hi),
                                derived: x.derived && k.derived,
                            }
                        };
                        Val::of(Abs::Float(r), &recv.ty)
                    }
                    _ => Val::unknown(),
                }
            }
            "clamp" if args.len() == 2 => {
                let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
                    return Val::unknown();
                };
                match (a.abs, b.abs) {
                    (Abs::Int(lo), Abs::Int(hi)) if lo.lo <= hi.hi => {
                        // Result is within [lo.lo, hi.hi] regardless of
                        // the receiver — this is what makes
                        // `x.clamp(a, b) as _` provable even when `x`
                        // is unknown.
                        let base = recv.abs.as_int().unwrap_or_else(IntItv::top);
                        Val::of(Abs::Int(base.clamp_to(lo.lo, hi.hi)), &recv.ty)
                    }
                    (Abs::Float(lo), Abs::Float(hi)) if lo.lo <= hi.hi => {
                        let base = recv.abs.as_float().unwrap_or_else(FltItv::top);
                        let ty = if recv.ty.is_empty() { &a.ty } else { &recv.ty };
                        Val::of(Abs::Float(base.clamp_to(lo.lo, hi.hi)), ty)
                    }
                    _ => Val::unknown(),
                }
            }
            "floor" | "ceil" | "round" | "trunc" | "sqrt" | "abs" => match recv.abs {
                Abs::Float(f) => {
                    let r = match name {
                        "floor" => f.floor(),
                        "ceil" => f.ceil(),
                        "round" => f.round(),
                        "trunc" => f.trunc(),
                        "sqrt" => f.sqrt(),
                        _ => f.abs(),
                    };
                    Val::of(Abs::Float(r), &recv.ty)
                }
                Abs::Int(it) if name == "abs" => {
                    let (al, ah) = (it.lo.saturating_abs(), it.hi.saturating_abs());
                    let lo = if it.contains(0) { 0 } else { al.min(ah) };
                    Val::of(
                        Abs::Int(IntItv {
                            lo,
                            hi: al.max(ah),
                            derived: it.derived,
                        }),
                        &recv.ty,
                    )
                }
                _ => Val::unknown(),
            },
            "saturating_sub" if args.len() == 1 => {
                let Some(a) = a0 else { return Val::unknown() };
                match (recv.abs, a.abs) {
                    (Abs::Int(x), Abs::Int(y)) => {
                        let floor = IntTy::parse(&recv.ty).map_or(0, IntTy::min);
                        let raw = x.sub(y);
                        Val::of(
                            Abs::Int(IntItv {
                                lo: raw.lo.max(floor),
                                hi: raw.hi.max(floor),
                                derived: raw.derived,
                            }),
                            &recv.ty,
                        )
                    }
                    _ => Val::unknown(),
                }
            }
            "saturating_add" | "saturating_mul" if args.len() == 1 => {
                let Some(a) = a0 else { return Val::unknown() };
                match (recv.abs, a.abs) {
                    (Abs::Int(x), Abs::Int(y)) => {
                        let raw = if name == "saturating_add" {
                            x.add(y)
                        } else {
                            x.mul(y)
                        };
                        let r = match IntTy::parse(&recv.ty) {
                            Some(ty) => IntItv {
                                lo: raw.lo.clamp(ty.min(), ty.max()),
                                hi: raw.hi.clamp(ty.min(), ty.max()),
                                derived: raw.derived,
                            },
                            None => raw,
                        };
                        Val::of(Abs::Int(r), &recv.ty)
                    }
                    _ => Val::unknown(),
                }
            }
            "wrapping_add"
            | "wrapping_sub"
            | "wrapping_mul"
            | "wrapping_add_signed"
            | "saturating_add_signed" => Val::of(Abs::of_type(&recv.ty), &recv.ty),
            "leading_zeros" | "trailing_zeros" | "count_ones" | "count_zeros" => {
                // Bounded by the receiver's bit width regardless of its
                // value; kept non-derived so the bound never seeds
                // overflow/underflow sites on surrounding arithmetic.
                let bits = IntTy::parse(&recv.ty).map_or(128, |t| i128::from(t.bits));
                Val::of(
                    Abs::Int(IntItv {
                        lo: 0,
                        hi: bits,
                        derived: false,
                    }),
                    "u32",
                )
            }
            "isqrt" => match recv.abs {
                Abs::Int(it) if it.lo >= 0 => {
                    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
                    let hi = ((it.hi as f64).sqrt().clamp(0.0, i128::MAX as f64) as i128)
                        .saturating_add(1);
                    Val::of(
                        Abs::Int(IntItv {
                            lo: 0,
                            hi,
                            derived: it.derived,
                        }),
                        &recv.ty,
                    )
                }
                _ => Val::unknown(),
            },
            "len" => Val::of(Abs::of_type("usize"), "usize"),
            "clone" | "to_owned" => recv,
            // Checked/fallible forms never produce an A4 hazard; their
            // results are untracked on purpose.
            n if n.starts_with("checked_") || n == "try_into" || n == "try_from" => Val::unknown(),
            _ => self.call_result(None, name.to_owned()),
        }
    }

    /// `expr as ty` — emits a `LossyCast` site when the fit is not
    /// proven.
    fn cast(&mut self, l: Val, ty_name: &str, line: u32, snip: String) -> Val {
        if ty_name == "f64" || ty_name == "f32" {
            return match l.abs {
                Abs::Int(it) => {
                    #[allow(clippy::cast_precision_loss)]
                    let f = FltItv {
                        lo: it.lo as f64,
                        hi: it.hi as f64,
                        derived: it.derived,
                    };
                    Val::of(Abs::Float(f), ty_name)
                }
                Abs::Float(f) => Val::of(Abs::Float(f), ty_name),
                Abs::Unknown => Val::of(Abs::Float(FltItv::top()), ty_name),
            };
        }
        let Some(ty) = IntTy::parse(ty_name) else {
            return Val::unknown();
        };
        match l.abs {
            Abs::Int(it) => {
                if it.fits(ty) {
                    return Val::of(Abs::Int(it), ty_name);
                }
                let definite = it.lo > ty.max() || it.hi < ty.min();
                self.site(
                    A4Kind::LossyCast,
                    line,
                    snip,
                    ty_name,
                    format!("{it}"),
                    definite,
                    l.dep,
                );
            }
            Abs::Float(f) => {
                if f.fits_int(ty) {
                    // Rust float→int `as` casts saturate, and `fits_int`
                    // admits hi == 2^bits (the rounded type max), so pin
                    // the post-cast interval to the target type's range.
                    #[allow(clippy::cast_possible_truncation)]
                    let it = IntItv {
                        lo: (f.lo.trunc() as i128).clamp(ty.min(), ty.max()),
                        hi: (f.hi.trunc() as i128).clamp(ty.min(), ty.max()),
                        derived: f.derived,
                    };
                    return Val::of(Abs::Int(it), ty_name);
                }
                #[allow(clippy::cast_precision_loss)]
                let definite = f.lo > ty.max() as f64 || f.hi < ty.min() as f64;
                self.site(
                    A4Kind::LossyCast,
                    line,
                    snip,
                    ty_name,
                    format!("{f}"),
                    definite,
                    l.dep,
                );
            }
            Abs::Unknown => {
                self.site(
                    A4Kind::LossyCast,
                    line,
                    snip,
                    ty_name,
                    "⊤".to_owned(),
                    false,
                    l.dep,
                );
            }
        }
        Val::of(Abs::Int(ty.range()), ty_name)
    }

    /// Binary operator semantics, with overflow/underflow/div-zero
    /// site emission.
    #[allow(clippy::too_many_lines)]
    fn apply_bin(&mut self, op: &str, l: Val, r: Val, line: u32, snip: String) -> Val {
        if matches!(
            op,
            "==" | "!=" | "<" | "<=" | ">" | ">=" | "&&" | "||" | ".." | "..="
        ) {
            return Val::unknown();
        }
        let ty = if l.ty.is_empty() {
            r.ty.clone()
        } else {
            l.ty.clone()
        };
        match (l.abs, r.abs) {
            (Abs::Int(a), Abs::Int(b)) => match op {
                "+" | "*" => {
                    let raw = if op == "+" { a.add(b) } else { a.mul(b) };
                    if a.derived && b.derived {
                        if let Some(t) = IntTy::parse(&ty) {
                            if !raw.fits(t) {
                                let definite = raw.lo > t.max() || raw.hi < t.min();
                                self.site(
                                    A4Kind::Overflow,
                                    line,
                                    snip,
                                    &ty,
                                    format!("{raw}"),
                                    definite,
                                    None,
                                );
                            }
                        }
                    }
                    // Whatever actually executes lands inside the type's
                    // range (wrap in release, abort in debug), so the
                    // result interval may be saturated into it — this
                    // keeps loop accumulators at e.g. `[0, 2^64-1]`
                    // instead of drifting toward i128 bounds.
                    let res = match IntTy::parse(&ty) {
                        Some(t) => IntItv {
                            lo: raw.lo.clamp(t.min(), t.max()),
                            hi: raw.hi.clamp(t.min(), t.max()),
                            derived: raw.derived,
                        },
                        None => raw,
                    };
                    Val::of(Abs::Int(res), &ty)
                }
                "-" => {
                    let unsigned = IntTy::parse(&ty).is_some_and(|t| !t.signed);
                    let raw = a.sub(b);
                    if unsigned {
                        if a.lo >= b.hi {
                            // Provably non-negative.
                            return Val::of(
                                Abs::Int(IntItv {
                                    lo: raw.lo.max(0),
                                    hi: raw.hi.max(0),
                                    derived: raw.derived,
                                }),
                                &ty,
                            );
                        }
                        if a.derived && b.derived {
                            let definite = a.hi < b.lo;
                            self.site(
                                A4Kind::SubUnderflow,
                                line,
                                snip,
                                "-",
                                format!("{raw}"),
                                definite,
                                None,
                            );
                        }
                        return Val::of(
                            Abs::Int(IntItv {
                                lo: raw.lo.max(0),
                                hi: raw.hi.max(0),
                                derived: false,
                            }),
                            &ty,
                        );
                    }
                    if a.derived && b.derived {
                        if let Some(t) = IntTy::parse(&ty) {
                            if !raw.fits(t) {
                                let definite = raw.lo > t.max() || raw.hi < t.min();
                                self.site(
                                    A4Kind::Overflow,
                                    line,
                                    snip,
                                    &ty,
                                    format!("{raw}"),
                                    definite,
                                    None,
                                );
                            }
                        }
                    }
                    Val::of(Abs::Int(raw), &ty)
                }
                "/" | "%" => {
                    if b.contains(0) {
                        let definite = b.derived && b.lo == 0 && b.hi == 0;
                        self.site(
                            A4Kind::DivZero,
                            line,
                            snip,
                            op,
                            format!("{b}"),
                            definite,
                            r.dep,
                        );
                        return Val::of(
                            match IntTy::parse(&ty) {
                                Some(t) => Abs::Int(t.range()),
                                None => Abs::Int(IntItv::top()),
                            },
                            &ty,
                        );
                    }
                    let res = if op == "/" { a.div(b) } else { a.rem(b) };
                    Val::of(res.map_or(Abs::Unknown, Abs::Int), &ty)
                }
                "&" if a.lo >= 0 && b.lo >= 0 => {
                    // Masking with a non-negative operand bounds the
                    // result by the smaller upper bound — the
                    // `i & (len - 1)` power-of-two index idiom.
                    Val::of(
                        Abs::Int(IntItv {
                            lo: 0,
                            hi: a.hi.min(b.hi),
                            derived: a.derived || b.derived,
                        }),
                        &ty,
                    )
                }
                ">>" if a.lo >= 0 && b.derived && b.lo == b.hi && (0..128).contains(&b.lo) => {
                    // Shift right by an exact constant amount.
                    let k = u32::try_from(b.lo).unwrap_or(127);
                    Val::of(
                        Abs::Int(IntItv {
                            lo: a.lo >> k.min(127),
                            hi: a.hi >> k.min(127),
                            derived: a.derived,
                        }),
                        &ty,
                    )
                }
                ">>" if a.lo >= 0 => {
                    // Right shift never grows a non-negative value.
                    Val::of(
                        Abs::Int(IntItv {
                            lo: 0,
                            hi: a.hi,
                            derived: a.derived,
                        }),
                        &ty,
                    )
                }
                "<<" | ">>" | "&" | "|" | "^" => Val::of(
                    match IntTy::parse(&ty) {
                        Some(t) => Abs::Int(t.range()),
                        None => Abs::Int(IntItv::top()),
                    },
                    &ty,
                ),
                _ => Val::unknown(),
            },
            (Abs::Float(a), Abs::Float(b)) => {
                let r = match op {
                    "+" => a.add(b),
                    "-" => a.sub(b),
                    "*" => a.mul(b),
                    "/" => a.div(b),
                    _ => return Val::unknown(),
                };
                Val::of(Abs::Float(r), &ty)
            }
            _ => Val::unknown(),
        }
    }
}

/// Join two environments key-wise (both descend from the same parent,
/// so their key sets agree on everything that existed before the
/// branch).
fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (k, va) in a {
        if let Some(vb) = b.get(k) {
            out.insert(
                k.clone(),
                Val {
                    abs: va.abs.join(vb.abs),
                    ty: if va.ty == vb.ty {
                        va.ty.clone()
                    } else {
                        String::new()
                    },
                    dep: None,
                },
            );
        }
    }
    out
}

fn join_val(a: Val, b: Val) -> Val {
    Val {
        abs: a.abs.join(b.abs),
        ty: if a.ty == b.ty { a.ty } else { String::new() },
        dep: None,
    }
}

/// Binding power of a binary operator (Pratt precedence), `None` for
/// tokens that end the expression.
fn bp_of(op: &str) -> Option<u8> {
    Some(match op {
        ".." | "..=" => 1,
        "||" => 1,
        "&&" => 2,
        "==" | "!=" | "<" | "<=" | ">" | ">=" => 3,
        "|" => 4,
        "^" => 5,
        "&" => 6,
        "<<" | ">>" => 7,
        "+" | "-" => 8,
        "*" | "/" | "%" => 9,
        _ => return None,
    })
}

fn negate_cmp(op: &str) -> &str {
    match op {
        "==" => "!=",
        "!=" => "==",
        "<" => ">=",
        "<=" => ">",
        ">" => "<=",
        _ => "<",
    }
}

fn flip_cmp(op: &str) -> &str {
    match op {
        "<" => ">",
        "<=" => ">=",
        ">" => "<",
        ">=" => "<=",
        other => other,
    }
}

/// Apply `name eff k` to the environment entry for `name`.
fn refine_var(env: &mut Env, name: &str, eff: &str, k: IntItv) {
    let Some(v) = env.get_mut(name) else { return };
    let Abs::Int(mut it) = v.abs else { return };
    match eff {
        "==" => {
            let lo = it.lo.max(k.lo);
            let hi = it.hi.min(k.hi);
            if lo <= hi {
                it = IntItv {
                    lo,
                    hi,
                    derived: true,
                };
            }
        }
        "!=" if k.lo == k.hi => {
            if it.lo == k.lo && it.lo < it.hi {
                it.lo += 1;
            } else if it.hi == k.lo && it.lo < it.hi {
                it.hi -= 1;
            }
        }
        "<" => it.hi = it.hi.min(k.hi.saturating_sub(1)),
        "<=" => it.hi = it.hi.min(k.hi),
        ">" => it.lo = it.lo.max(k.lo.saturating_add(1)),
        ">=" => it.lo = it.lo.max(k.lo),
        _ => {}
    }
    if it.lo <= it.hi {
        v.abs = Abs::Int(it);
        v.dep = None;
    }
}

fn is_kw(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "move"
            | "ref"
            | "mut"
            | "as"
            | "let"
            | "fn"
            | "impl"
            | "where"
            | "unsafe"
            | "async"
            | "await"
            | "dyn"
            | "pub"
            | "use"
            | "struct"
            | "enum"
            | "trait"
            | "mod"
            | "const"
            | "static"
            | "type"
    )
}

/// No space in snippets around tight punctuation.
fn needs_space(before: &str, next: &str) -> bool {
    let tight_next = matches!(
        next,
        "(" | ")" | "[" | "]" | "," | ";" | "." | "::" | "?" | "!"
    );
    let tight_prev = before.ends_with('(')
        || before.ends_with('[')
        || before.ends_with('.')
        || before.ends_with("::");
    !(tight_next || tight_prev)
}

/// Parse an integer literal (underscores, radix prefixes, type
/// suffix). Returns `(value, suffix type or "")`.
pub(crate) fn parse_int_lit(text: &str) -> (Option<i128>, String) {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let mut body = t.as_str();
    let mut ty = String::new();
    for suf in [
        "u128", "i128", "usize", "isize", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
    ] {
        if let Some(stripped) = body.strip_suffix(suf) {
            if !stripped.is_empty() {
                body = stripped;
                ty = suf.to_owned();
                break;
            }
        }
    }
    let (digits, radix) =
        if let Some(h) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
            (h, 16)
        } else if let Some(o) = body.strip_prefix("0o") {
            (o, 8)
        } else if let Some(b) = body.strip_prefix("0b") {
            (b, 2)
        } else {
            (body, 10)
        };
    (i128::from_str_radix(digits, radix).ok(), ty)
}

/// Parse a float literal. Returns `(value, suffix type or "")`.
fn parse_float_lit(text: &str) -> (Option<f64>, String) {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let mut body = t.as_str();
    let mut ty = String::new();
    for suf in ["f64", "f32"] {
        if let Some(stripped) = body.strip_suffix(suf) {
            body = stripped.trim_end_matches('.');
            if body.is_empty() {
                body = "0";
            }
            ty = suf.to_owned();
            break;
        }
    }
    let body = body.trim_end_matches('.');
    let parsed: Option<f64> = if body.is_empty() {
        None
    } else {
        body.parse().ok()
    };
    (parsed, ty)
}

// ----------------------------------------------------------------------
// Phase 2: interprocedural fixpoint summaries + diagnostics
// ----------------------------------------------------------------------

/// The phase-1 (intra-procedural) summary of a function — the fallback
/// when its body cannot be re-walked in phase 2.
fn phase1_summary(f: &FnFact) -> Abs {
    if f.ret_abs == Abs::Unknown && !f.ret_ty.is_empty() {
        return Abs::of_type(&f.ret_ty);
    }
    f.ret_abs
}

/// The ⊤-cut summary for a call-cycle member: its declared return-type
/// range (assumed, never derived), or `Unknown`.
fn cut_summary(f: &FnFact) -> Abs {
    if f.ret_ty.is_empty() {
        Abs::Unknown
    } else {
        Abs::of_type(&f.ret_ty)
    }
}

/// Re-runs of a node's transfer function before widening kicks in.
/// With cycles cut at ⊤ the schedule is callee-first and one visit
/// suffices; the cap is a termination backstop, not a tuning knob.
const WIDEN_AFTER: u32 = 3;

/// The interprocedural fixpoint engine: call graph, SCC condensation,
/// per-function summaries, and ⊤-cut provenance.
struct Engine<'a> {
    files: &'a [FileFacts],
    /// Test-stripped token stream per file (`FnFact::body_span` indexes
    /// into it); empty when the file's source was not supplied.
    toks: Vec<Vec<Token>>,
    /// Module-level constants per file, keyed by name.
    consts: Vec<HashMap<String, (String, i128)>>,
    /// Flat node list: `(file index, fn index)`.
    nodes: Vec<(usize, usize)>,
    by_name: HashMap<(String, String), Vec<usize>>,
    by_qual: HashMap<(String, String, String), Vec<usize>>,
    /// Crate-visibility scope per file: its own crate plus direct deps.
    scopes: Vec<Vec<String>>,
    /// Call edges caller → callees. Self-edges are **kept** — direct
    /// recursion is a one-node cycle and must be cut like any other.
    callees: Vec<Vec<usize>>,
    callers: Vec<Vec<usize>>,
    /// Current summary per node (monotonically refined).
    summaries: Vec<Abs>,
    /// ⊤-cut provenance per node (`Some` for cycle members).
    assumed: Vec<Option<String>>,
}

impl<'a> Engine<'a> {
    fn new(
        files: &'a [FileFacts],
        srcs: &HashMap<String, String>,
        deps: &HashMap<String, Vec<String>>,
    ) -> Engine<'a> {
        let toks: Vec<Vec<Token>> = files
            .iter()
            .map(|ff| {
                srcs.get(&ff.rel_path)
                    .map(|s| crate::parse::stripped_tokens(s))
                    .unwrap_or_default()
            })
            .collect();
        let consts: Vec<HashMap<String, (String, i128)>> = files
            .iter()
            .map(|ff| {
                ff.consts
                    .iter()
                    .map(|(n, t, v)| (n.clone(), (t.clone(), *v)))
                    .collect()
            })
            .collect();
        let scopes: Vec<Vec<String>> = files
            .iter()
            .map(|ff| {
                let ck = ff.crate_key().to_owned();
                let mut scope = vec![ck.clone()];
                if let Some(ds) = deps.get(&ck) {
                    scope.extend(ds.iter().cloned());
                }
                scope
            })
            .collect();
        let mut nodes: Vec<(usize, usize)> = Vec::new();
        let mut by_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut by_qual: HashMap<(String, String, String), Vec<usize>> = HashMap::new();
        for (fi, ff) in files.iter().enumerate() {
            let ck = ff.crate_key().to_owned();
            for (gi, f) in ff.fns.iter().enumerate() {
                let id = nodes.len();
                nodes.push((fi, gi));
                by_name
                    .entry((ck.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
                if let Some(q) = &f.qual {
                    by_qual
                        .entry((ck.clone(), q.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
                if let Some(tr) = &f.trait_name {
                    by_qual
                        .entry((ck.clone(), tr.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        let summaries: Vec<Abs> = nodes
            .iter()
            .map(|&(fi, gi)| phase1_summary(&files[fi].fns[gi]))
            .collect();
        let assumed = vec![None; nodes.len()];
        let mut eng = Engine {
            files,
            toks,
            consts,
            nodes,
            by_name,
            by_qual,
            scopes,
            callees: Vec::new(),
            callers: Vec::new(),
            summaries,
            assumed,
        };
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); eng.nodes.len()];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); eng.nodes.len()];
        for (id, &(fi, gi)) in eng.nodes.iter().enumerate() {
            for call in &eng.files[fi].fns[gi].calls {
                let targets = eng.resolve_ids(fi, call.qual.as_deref(), &call.callee);
                callees[id].extend(targets);
            }
            callees[id].sort_unstable();
            callees[id].dedup();
            for &t in &callees[id] {
                callers[t].push(id);
            }
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }
        eng.callees = callees;
        eng.callers = callers;
        eng
    }

    fn fn_of(&self, id: usize) -> &FnFact {
        let (fi, gi) = self.nodes[id];
        &self.files[fi].fns[gi]
    }

    /// Candidate callee nodes visible from `fi` for a `(qual, name)`
    /// call key: qualified matches first, bare-name fallback otherwise.
    fn resolve_ids(&self, fi: usize, qual: Option<&str>, name: &str) -> Vec<usize> {
        let scope = &self.scopes[fi];
        let mut ids: Vec<usize> = Vec::new();
        if let Some(q) = qual {
            for c in scope {
                if let Some(v) = self
                    .by_qual
                    .get(&(c.clone(), q.to_owned(), name.to_owned()))
                {
                    ids.extend(v);
                }
            }
            if !ids.is_empty() {
                ids.sort_unstable();
                ids.dedup();
                return ids;
            }
        }
        for c in scope {
            if let Some(v) = self.by_name.get(&(c.clone(), name.to_owned())) {
                ids.extend(v);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The joined current summary for a call key, or `None` when the
    /// symbol is not a workspace function.
    fn resolved(&self, fi: usize, qual: Option<&str>, name: &str) -> Option<Resolved> {
        let ids = self.resolve_ids(fi, qual, name);
        if ids.is_empty() {
            return None;
        }
        let mut abs: Option<Abs> = None;
        let mut ty: Option<String> = None;
        let mut assumed: Option<String> = None;
        for &id in &ids {
            abs = Some(match abs {
                None => self.summaries[id],
                Some(p) => p.join(self.summaries[id]),
            });
            let rt = &self.fn_of(id).ret_ty;
            ty = Some(match ty {
                None => rt.clone(),
                Some(p) if &p == rt => p,
                Some(_) => String::new(),
            });
            if assumed.is_none() {
                assumed.clone_from(&self.assumed[id]);
            }
        }
        Some(Resolved {
            abs: abs.unwrap_or(Abs::Unknown),
            ty: ty.unwrap_or_default(),
            assumed,
        })
    }

    /// One application of a node's transfer function: re-walk the body
    /// with the current summary table in scope.
    fn compute_summary(&self, id: usize) -> Abs {
        let (fi, _) = self.nodes[id];
        let f = self.fn_of(id);
        let toks = &self.toks[fi];
        let (start, end) = f.body_span;
        if toks.is_empty() || start >= end || end > toks.len() {
            return phase1_summary(f);
        }
        let resolver = |q: Option<&str>, n: &str| self.resolved(fi, q, n);
        let ctx = Ctx {
            consts: &self.consts[fi],
            resolver: Some(&resolver),
        };
        let (abs, _sites) = analyze_fn(toks, start, end, f, &ctx);
        if abs == Abs::Unknown && !f.ret_ty.is_empty() {
            Abs::of_type(&f.ret_ty)
        } else {
            abs
        }
    }

    /// Run the summaries to a fixpoint: cut every cyclic SCC at ⊤,
    /// seed the worklist callee-first (Tarjan emits components in
    /// reverse topological order), and propagate caller-ward until no
    /// summary changes. A node revisited more than [`WIDEN_AFTER`]
    /// times is widened against its previous value as a termination
    /// backstop.
    fn run(&mut self) {
        let sccs = tarjan_sccs(&self.callees);
        let mut order: Vec<usize> = Vec::with_capacity(self.nodes.len());
        for scc in &sccs {
            let cyclic = scc.len() > 1 || self.callees[scc[0]].contains(&scc[0]);
            if cyclic {
                let mut names: Vec<String> =
                    scc.iter().map(|&n| self.fn_of(n).qualified()).collect();
                names.sort();
                names.dedup();
                let desc = format!("cycle through `{}`", names.join("`, `"));
                for &n in scc {
                    self.summaries[n] = cut_summary(self.fn_of(n));
                    self.assumed[n] = Some(desc.clone());
                }
                continue;
            }
            order.push(scc[0]);
        }
        let mut queued = vec![false; self.nodes.len()];
        let mut visits = vec![0u32; self.nodes.len()];
        let mut work: VecDeque<usize> = VecDeque::with_capacity(order.len());
        for n in order {
            queued[n] = true;
            work.push_back(n);
        }
        while let Some(n) = work.pop_front() {
            queued[n] = false;
            if self.assumed[n].is_some() {
                // ⊤-cut members are pinned; re-walking them cannot
                // lower a summary (that would be unsound mid-cycle).
                continue;
            }
            let new = self.compute_summary(n);
            if new == self.summaries[n] {
                continue;
            }
            visits[n] += 1;
            self.summaries[n] = if visits[n] > WIDEN_AFTER {
                new.widen(self.summaries[n])
            } else {
                new
            };
            for &c in &self.callers[n] {
                if !queued[c] && self.assumed[c].is_none() {
                    queued[c] = true;
                    work.push_back(c);
                }
            }
        }
    }

    /// Final emitting walk over one file: every function body is
    /// re-walked with the fixpoint summaries in scope. Falls back to
    /// the phase-1 sites when the source was not supplied.
    fn emit_sites(&self, fi: usize) -> Vec<A4Site> {
        let toks = &self.toks[fi];
        if toks.is_empty() {
            return self.files[fi]
                .a4
                .iter()
                .filter(|site| {
                    site.definite
                        || !site.dep.as_ref().is_some_and(|(q, n)| {
                            self.resolved(fi, q.as_deref(), n)
                                .is_some_and(|r| discharged(site, r.abs))
                        })
                })
                .cloned()
                .collect();
        }
        let mut out: Vec<A4Site> = Vec::new();
        for f in &self.files[fi].fns {
            let (start, end) = f.body_span;
            if start >= end || end > toks.len() {
                continue;
            }
            let resolver = |q: Option<&str>, n: &str| self.resolved(fi, q, n);
            let ctx = Ctx {
                consts: &self.consts[fi],
                resolver: Some(&resolver),
            };
            let (_enc, sites) = analyze_fn(toks, start, end, f, &ctx);
            out.extend(sites);
        }
        out.sort_by_key(|s| s.line);
        out
    }
}

/// Can a callee summary discharge a phase-1 site? (Fallback path for
/// files whose source is unavailable in phase 2.)
fn discharged(site: &A4Site, abs: Abs) -> bool {
    match site.kind {
        A4Kind::LossyCast => {
            let Some(ty) = IntTy::parse(&site.target) else {
                return false;
            };
            match abs {
                Abs::Int(it) => it.fits(ty),
                Abs::Float(f) => f.fits_int(ty),
                Abs::Unknown => false,
            }
        }
        A4Kind::DivZero => match abs {
            Abs::Int(it) => !it.contains(0),
            _ => false,
        },
        _ => false,
    }
}

/// Iterative Tarjan SCC over `callees`; components are emitted in
/// reverse topological order of the condensation (callees before
/// callers), which is exactly the fixpoint schedule.
pub(crate) fn tarjan_sccs(callees: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = callees.len();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            if frame.1 < callees[v].len() {
                let w = callees[v][frame.1];
                frame.1 += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                if let Some(parent) = frames.last() {
                    let p = parent.0;
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    sccs
}

fn message_for(site: &A4Site) -> String {
    match site.kind {
        A4Kind::LossyCast => {
            if site.definite {
                format!(
                    "`{}` \u{2208} {} provably exceeds `{}` — the `as` cast truncates; use `try_into` or clamp first",
                    site.expr, site.witness, site.target
                )
            } else {
                format!(
                    "`{}` \u{2208} {} flows into `as {}` — not provably lossless; use `try_into` or clamp first",
                    site.expr, site.witness, site.target
                )
            }
        }
        A4Kind::DivZero => {
            if site.definite {
                format!(
                    "divisor in `{}` is exactly zero ({}) — guard the division",
                    site.expr, site.witness
                )
            } else {
                format!(
                    "divisor interval {} in `{}` contains zero — guard or use `checked_{}`",
                    site.witness,
                    site.expr,
                    if site.target == "%" { "rem" } else { "div" }
                )
            }
        }
        A4Kind::SubUnderflow => format!(
            "unsigned `{}`: difference \u{2208} {} is not provably non-negative — use `checked_sub`/`saturating_sub`",
            site.expr, site.witness
        ),
        A4Kind::Overflow => format!(
            "`{}` \u{2208} {} exceeds the `{}` range — use `checked_`/`saturating_` arithmetic",
            site.expr, site.witness, site.target
        ),
    }
}

/// The global A4 pass: run the interprocedural summary engine to a
/// fixpoint, re-walk every function with the final summaries in scope,
/// apply waivers, and emit diagnostics (deny inside the paper-critical
/// modules listed in [`DENY_PATHS`], warn elsewhere).
#[must_use]
pub(crate) fn check(
    files: &[FileFacts],
    srcs: &HashMap<String, String>,
    allowlist: &[AllowEntry],
    deps: &HashMap<String, Vec<String>>,
) -> Vec<Diagnostic> {
    let mut eng = Engine::new(files, srcs, deps);
    eng.run();
    let mut out = Vec::new();
    for (fi, ff) in files.iter().enumerate() {
        for site in &eng.emit_sites(fi) {
            if inline_waived(ff, "A4", site.line) || allowlist_waived(allowlist, ff, "A4") {
                continue;
            }
            let deny = is_deny_path(&ff.rel_path);
            out.push(Diagnostic {
                path: ff.rel_path.clone(),
                line: site.line,
                rule: "A4".to_owned(),
                severity: if deny { "deny" } else { "warn" }.to_owned(),
                message: message_for(site),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    /// Parse one file and return its A4 sites.
    fn sites(src: &str) -> Vec<A4Site> {
        parse_file("crates/x/src/lib.rs", src).a4
    }

    /// Run the full A4 pass (phase 2, interprocedural discharge) over
    /// one in-memory file.
    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        let ff = parse_file(path, src);
        let mut srcs = HashMap::new();
        srcs.insert(path.to_owned(), src.to_owned());
        check(&[ff], &srcs, &[], &HashMap::new())
    }

    #[test]
    fn unbounded_param_cast_is_flagged_with_type_range_witness() {
        let s = sites("pub fn f(x: u64) -> u32 { x as u32 }\n");
        assert_eq!(s.len(), 1, "{s:?}");
        assert!(matches!(s[0].kind, A4Kind::LossyCast));
        assert_eq!(s[0].witness, "[0, 2^64-1]");
        assert_eq!(s[0].target, "u32");
        assert!(!s[0].definite);
    }

    #[test]
    fn min_bound_makes_narrowing_provable() {
        assert!(sites("pub fn f(x: u64) -> u32 { x.min(1000) as u32 }\n").is_empty());
        // Widening cast never flags.
        assert!(sites("pub fn f(x: u32) -> u64 { x as u64 }\n").is_empty());
    }

    #[test]
    fn clamp_scale_round_idiom_is_clean_and_raw_is_not() {
        // The odm ppm idiom: clamp to [0,1], scale, round, narrow.
        assert!(
            sites("pub fn f(d: f64) -> u64 { (d.clamp(0.0, 1.0) * 1e6).round() as u64 }\n")
                .is_empty()
        );
        let raw = sites("pub fn f(d: f64) -> u64 { (d * 1e6).round() as u64 }\n");
        assert_eq!(raw.len(), 1, "{raw:?}");
        assert!(matches!(raw[0].kind, A4Kind::LossyCast));
    }

    #[test]
    fn saturating_clamp_to_type_max_is_accepted() {
        // `clamp(0.0, uN::MAX as f64)` rounds the bound up to 2^N; the
        // saturating float→int cast still lands inside the type.
        assert!(
            sites("pub fn f(x: f64) -> u64 { x.clamp(0.0, u64::MAX as f64) as u64 }\n").is_empty()
        );
        assert!(
            sites("pub fn f(x: f64) -> u32 { x.clamp(0.0, u32::MAX as f64) as u32 }\n").is_empty()
        );
    }

    #[test]
    fn division_by_possible_zero_is_flagged_and_max_guard_discharges() {
        let s = sites("pub fn f(a: u64, k: u64) -> u64 { a / k }\n");
        assert_eq!(s.len(), 1, "{s:?}");
        assert!(matches!(s[0].kind, A4Kind::DivZero));
        assert!(s[0].witness.contains("[0, 2^64-1]"), "{s:?}");
        assert!(sites("pub fn f(a: u64, k: u64) -> u64 { a / k.max(1) }\n").is_empty());
    }

    #[test]
    fn early_return_refinement_shaves_zero_off_the_divisor() {
        assert!(sites(
            "pub fn f(a: u64, k: u64) -> u64 {\n    if k == 0 {\n        return 0;\n    }\n    a / k\n}\n"
        )
        .is_empty());
        // The then-branch division *is* guarded the other way round.
        assert!(sites(
            "pub fn f(a: u64, k: u64) -> u64 {\n    if k != 0 { a / k } else { 0 }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn widened_loop_accumulator_settles_at_the_type_range() {
        let s = sites(
            "pub fn f(n: u64) -> u32 {\n    let mut acc: u64 = 0;\n    for i in 0..n {\n        acc += i;\n    }\n    acc as u32\n}\n",
        );
        assert_eq!(s.len(), 1, "{s:?}");
        assert!(matches!(s[0].kind, A4Kind::LossyCast));
        assert_eq!(s[0].witness, "[0, 2^64-1]", "{s:?}");
    }

    #[test]
    fn exact_literal_overflow_is_definite_assumed_inputs_are_not_flagged() {
        let s = sites("pub fn f() -> u32 { 2_000_000_000u32 * 3 }\n");
        assert_eq!(s.len(), 1, "{s:?}");
        assert!(matches!(s[0].kind, A4Kind::Overflow));
        assert!(s[0].definite, "{s:?}");
        // Assumed (type-range) operands never produce overflow sites:
        // the tool would otherwise flag every `a + b` in the tree.
        assert!(sites("pub fn f(a: u64, b: u64) -> u64 { a + b }\n").is_empty());
    }

    #[test]
    fn exact_unsigned_sub_underflow_is_definite() {
        let s =
            sites("pub fn f() -> u64 {\n    let a: u64 = 3;\n    let b: u64 = 5;\n    a - b\n}\n");
        assert_eq!(s.len(), 1, "{s:?}");
        assert!(matches!(s[0].kind, A4Kind::SubUnderflow));
        assert!(s[0].definite, "{s:?}");
        // Ordered operands are provably fine.
        assert!(sites(
            "pub fn f() -> u64 {\n    let a: u64 = 5;\n    let b: u64 = 3;\n    a - b\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn match_arm_casts_are_walked() {
        let s = sites(
            "pub fn f(x: u64, c: u8) -> u32 {\n    match c {\n        0 => 0,\n        _ => x as u32,\n    }\n}\n",
        );
        assert_eq!(s.len(), 1, "{s:?}");
        assert_eq!(s[0].line, 4, "{s:?}");
    }

    #[test]
    fn interprocedural_summary_discharges_bounded_callee() {
        let bounded = "fn cap(x: u64) -> u64 {\n    x.min(9)\n}\npub fn use_it(x: u64) -> u32 {\n    cap(x) as u32\n}\n";
        assert!(diags("crates/x/src/lib.rs", bounded).is_empty());
        let unbounded = "fn raw(x: u64) -> u64 {\n    x\n}\npub fn use_it(x: u64) -> u32 {\n    raw(x) as u32\n}\n";
        let d = diags("crates/x/src/lib.rs", unbounded);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "A4");
        assert_eq!(d[0].severity, "warn");
    }

    #[test]
    fn deny_paths_escalate_severity_and_waivers_silence() {
        let src = "pub fn f(x: u64) -> u32 { x as u32 }\n";
        let d = diags("crates/mckp/src/fptas.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, "deny");
        let waived = "pub fn f(x: u64) -> u32 {\n    // analyze: allow(A4): saturation documented\n    x as u32\n}\n";
        assert!(diags("crates/mckp/src/fptas.rs", waived).is_empty());
    }

    #[test]
    fn messages_carry_witness_and_advice() {
        let d = diags(
            "crates/x/src/lib.rs",
            "pub fn f(a: u64, k: u64) -> u64 { a / k }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("contains zero"), "{}", d[0].message);
        assert!(d[0].message.contains("checked_div"), "{}", d[0].message);
    }
}
