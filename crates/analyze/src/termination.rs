//! A8: termination & loop-bound audit — statically prove the hot
//! paths can't stall.
//!
//! Three findings, built on the loop shapes phase 1 extracts
//! ([`crate::facts::LoopFact`]):
//!
//! 1. **In-scope unbounded loops.** Every `for` over an endless
//!    iterator idiom and every `while`/`loop` without a monotone
//!    progress witness (strictly advanced guard, drained source,
//!    unconditional top-level exit) is denied in the engine/solver
//!    core files ([`A8_DENY_FILES`]) and warned elsewhere in the
//!    product crates ([`A8_WARN_CRATES`]).
//! 2. **Unwitnessed recursion.** Cyclic SCCs of the call graph are
//!    condensed ([`crate::interval::tarjan_sccs`]); every in-scope
//!    member must carry a decreasing-argument witness on its recursive
//!    calls or an `// analyze: allow(A8): reason` sanction.
//! 3. **Hot-path `⊤` reachability.** Per-function symbolic step
//!    bounds (`O(1)`, `O(n)`, `O(n·m)`, …, `⊤`) are composed
//!    bottom-up over the SCC condensation; any `// analyze: hot-path`
//!    root whose call closure contains a `⊤`-bound function is denied
//!    with the shortest witness chain, like A6/A7.
//!
//! Unlike A1's deliberately over-approximate resolution
//! ([`crate::graph`]), the A8 call graph keeps only **uniquely
//! resolving** calls and *keeps self-edges*: a bare method name that
//! matches several workspace functions (`.push(…)`) would otherwise
//! manufacture recursion cycles between unrelated queue
//! implementations. Method-style calls are trusted only when the
//! immediate receiver is `self` (`self.dfs(…)`) — `self.inner.push(…)`
//! inside a workspace `push` is `Vec::push`, not recursion — and even
//! then never for names of well-known `std`/derive trait methods
//! ([`STD_METHODS`]): a hand-written `Ord::cmp` calling field `cmp`s
//! must not become a cycle. The cost is under-approximation on
//! method-call edges, recorded as a soundness caveat in DESIGN.md §16.

use crate::allow::AllowEntry;
use crate::facts::{FileFacts, LoopKind};
use crate::interval::tarjan_sccs;
use crate::{allowlist_waived, inline_waived, Diagnostic};
use std::collections::{HashMap, HashSet, VecDeque};

/// Workspace-relative files whose A8 loop/recursion findings are
/// `deny`: the audit scope from the issue — `sim::{event,system}`,
/// `mckp::{dp,fptas,branch_bound}`, `core::{odm,qpa,analysis}`, and
/// `exp::pool` (the QPA backward scan lives in `core`, not `mckp`).
const A8_DENY_FILES: &[&str] = &[
    "crates/sim/src/event.rs",
    "crates/sim/src/system.rs",
    "crates/mckp/src/dp.rs",
    "crates/mckp/src/fptas.rs",
    "crates/mckp/src/branch_bound.rs",
    "crates/core/src/odm.rs",
    "crates/core/src/qpa.rs",
    "crates/core/src/analysis.rs",
    "crates/exp/src/pool.rs",
];

/// Crates whose remaining files get `warn`-severity findings.
const A8_WARN_CRATES: &[&str] = &["core", "mckp", "sim", "exp"];

/// Method names that overwhelmingly belong to `std`
/// containers/iterators/sync primitives or derivable traits: a
/// method-style call to one of these never contributes an A8 edge,
/// even on a `self` receiver, even when a workspace function of the
/// same name happens to resolve uniquely.
const STD_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "len",
    "is_empty",
    "clear",
    "next",
    "next_back",
    "peek",
    "drain",
    "append",
    "extend",
    "take",
    "last",
    "first",
    "contains",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "retain",
    "truncate",
    "reserve",
    "sort",
    "sort_unstable",
    "swap",
    "entry",
    "iter",
    "clone",
    "min",
    "max",
    "abs",
    "load",
    "store",
    "send",
    "recv",
    "lock",
    "read",
    "write",
    "join",
    "cmp",
    "partial_cmp",
    "eq",
    "ne",
    "hash",
    "fmt",
    "default",
    "to_string",
];

/// Same well-known-`std` qualifier guard as [`crate::graph`]: a
/// qualified call on one of these types never falls back to bare-name
/// matching.
const STD_QUALS: &[&str] = &[
    "Vec",
    "String",
    "Box",
    "Rc",
    "Arc",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "VecDeque",
    "BinaryHeap",
    "Mutex",
    "RwLock",
    "Condvar",
    "PathBuf",
    "Path",
    "OsString",
    "CString",
    "Cell",
    "RefCell",
    "Cow",
    "Option",
    "Result",
    "Ordering",
    "Reverse",
    "PoisonError",
    "NonZeroUsize",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
];

/// Global function id, `(file index, fn index)`.
type Gid = (usize, usize);

/// One kept call edge of the unique-resolution graph.
#[derive(Clone, Copy)]
struct Edge {
    target: Gid,
    /// Loops lexically enclosing the call site in the caller.
    loop_depth: u32,
    /// Arguments carry a decreasing pattern (`x - 1`, `n / 2`,
    /// `saturating_sub`, subslice, …).
    decreasing: bool,
}

/// A function's symbolic step bound: `Some(degree)` is polynomial of
/// that degree (0 ⇒ `O(1)`, 1 ⇒ `O(n)`, …); `None` is `⊤`.
type Bound = Option<u32>;

/// Render a step bound for messages.
fn render_bound(b: Bound) -> String {
    match b {
        None => "⊤".into(),
        Some(0) => "O(1)".into(),
        Some(1) => "O(n)".into(),
        Some(2) => "O(n·m)".into(),
        Some(k) => format!("O(n^{k})"),
    }
}

/// Run the A8 termination audit over every file's facts.
#[must_use]
pub(crate) fn check(
    files: &[FileFacts],
    allowlist: &[AllowEntry],
    deps: &HashMap<String, Vec<String>>,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();

    // ---- the unique-resolution call graph (self-edges kept) ----
    let mut by_name: HashMap<(&str, &str), Vec<Gid>> = HashMap::new();
    let mut by_qual: HashMap<(&str, &str, &str), Vec<Gid>> = HashMap::new();
    let mut fns: Vec<Gid> = Vec::new();
    for (fi, ff) in files.iter().enumerate() {
        let ck = ff.crate_key();
        for (ni, f) in ff.fns.iter().enumerate() {
            let gid = (fi, ni);
            fns.push(gid);
            by_name.entry((ck, &f.name)).or_default().push(gid);
            if let Some(q) = &f.qual {
                by_qual.entry((ck, q, &f.name)).or_default().push(gid);
            }
            if let Some(t) = &f.trait_name {
                by_qual.entry((ck, t, &f.name)).or_default().push(gid);
            }
        }
    }
    let idx_of: HashMap<Gid, usize> = fns.iter().enumerate().map(|(i, &g)| (g, i)).collect();

    let empty: Vec<String> = Vec::new();
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
    for (fi, ff) in files.iter().enumerate() {
        let ck = ff.crate_key();
        let dep_dirs = deps.get(ck).unwrap_or(&empty);
        let scope: Vec<&str> = std::iter::once(ck)
            .chain(dep_dirs.iter().map(String::as_str))
            .collect();
        for (ni, f) in ff.fns.iter().enumerate() {
            let gid = (fi, ni);
            for call in &f.calls {
                if call.method && (!call.recv_self || STD_METHODS.contains(&call.callee.as_str())) {
                    continue;
                }
                let mut resolved: Vec<Gid> = Vec::new();
                if let Some(q) = &call.qual {
                    for ck2 in &scope {
                        if let Some(v) = by_qual.get(&(*ck2, q.as_str(), call.callee.as_str())) {
                            resolved.extend_from_slice(v);
                        }
                    }
                }
                let std_qual = call.qual.as_deref().is_some_and(|q| STD_QUALS.contains(&q));
                if resolved.is_empty() && !std_qual {
                    for ck2 in &scope {
                        if let Some(v) = by_name.get(&(*ck2, call.callee.as_str())) {
                            resolved.extend_from_slice(v);
                        }
                    }
                }
                resolved.sort_unstable();
                resolved.dedup();
                // Only uniquely-resolving calls contribute edges: an
                // ambiguous name proves nothing about *which* function
                // runs, and a wrong guess fabricates recursion.
                if resolved.len() == 1 {
                    edges[idx_of[&gid]].push(Edge {
                        target: resolved[0],
                        loop_depth: call.loop_depth,
                        decreasing: call.decreasing,
                    });
                }
            }
        }
    }

    // ---- SCC condensation (callee-first order) ----
    let callees: Vec<Vec<usize>> = edges
        .iter()
        .map(|es| {
            let mut v: Vec<usize> = es.iter().map(|e| idx_of[&e.target]).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let sccs = tarjan_sccs(&callees);
    let mut scc_of: Vec<usize> = vec![0; fns.len()];
    for (si, scc) in sccs.iter().enumerate() {
        for &m in scc {
            scc_of[m] = si;
        }
    }
    let cyclic: Vec<bool> = sccs
        .iter()
        .map(|scc| scc.len() > 1 || callees[scc[0]].contains(&scc[0]))
        .collect();

    let severity_of = |ff: &FileFacts| -> Option<&'static str> {
        if A8_DENY_FILES.contains(&ff.rel_path.as_str()) {
            Some("deny")
        } else if A8_WARN_CRATES.contains(&ff.crate_key()) {
            Some("warn")
        } else {
            None
        }
    };

    // ---- finding 1: in-scope loops without a progress witness ----
    for ff in files {
        let Some(sev) = severity_of(ff) else { continue };
        for f in &ff.fns {
            for l in &f.loops {
                if l.kind.is_bounded() {
                    continue;
                }
                if inline_waived(ff, "A8", l.line) || allowlist_waived(allowlist, ff, "A8") {
                    continue;
                }
                let what = match l.kind {
                    LoopKind::ForEndless => "iterates an endless source",
                    _ => "has no progress witness",
                };
                out.push(Diagnostic {
                    path: ff.rel_path.clone(),
                    line: l.line,
                    rule: "A8".into(),
                    severity: sev.into(),
                    message: format!(
                        "{} in `{}` {what} — no monotone guard, drained source, or \
                         unconditional top-level exit found; restructure or sanction with \
                         `// analyze: allow(A8): reason`",
                        l.desc, f.name
                    ),
                });
            }
        }
    }

    // ---- finding 2: cyclic SCC members without a decreasing witness ----
    // A member is witnessed when every one of its recursive (intra-SCC)
    // calls passes a decreasing argument; a sanction on the `fn` line
    // accepts the cycle as reviewed.
    let mut member_ok: Vec<bool> = vec![true; fns.len()];
    for (i, &gid) in fns.iter().enumerate() {
        let si = scc_of[i];
        if !cyclic[si] {
            continue;
        }
        let intra: Vec<&Edge> = edges[i]
            .iter()
            .filter(|e| scc_of[idx_of[&e.target]] == si)
            .collect();
        let witnessed = !intra.is_empty() && intra.iter().all(|e| e.decreasing);
        let ff = &files[gid.0];
        let f = &ff.fns[gid.1];
        let sanctioned = inline_waived(ff, "A8", f.line) || allowlist_waived(allowlist, ff, "A8");
        member_ok[i] = witnessed || sanctioned;
        if member_ok[i] {
            continue;
        }
        if let Some(sev) = severity_of(ff) {
            let mut peers: Vec<&str> = sccs[si]
                .iter()
                .filter(|&&m| m != i)
                .map(|&m| files[fns[m].0].fns[fns[m].1].name.as_str())
                .collect();
            peers.sort_unstable();
            peers.dedup();
            let cycle = if peers.is_empty() {
                "calls itself".to_string()
            } else {
                format!("is mutually recursive with `{}`", peers.join("`, `"))
            };
            out.push(Diagnostic {
                path: ff.rel_path.clone(),
                line: f.line,
                rule: "A8".into(),
                severity: sev.into(),
                message: format!(
                    "`{}` {cycle} without a decreasing-argument witness — make every \
                     recursive call strictly shrink an argument or sanction with \
                     `// analyze: allow(A8): reason`",
                    f.name
                ),
            });
        }
    }

    // ---- per-function step bounds, bottom-up over the condensation ----
    // `local[i]` is the function's own contribution: `None` (⊤) when it
    // owns an unsanctioned endless/unbounded loop, otherwise its
    // deepest loop nest. `⊤` causes are remembered for the chains.
    let mut local: Vec<Bound> = Vec::with_capacity(fns.len());
    let mut top_cause: Vec<Option<(String, u32)>> = Vec::with_capacity(fns.len());
    for &(fi, ni) in &fns {
        let ff = &files[fi];
        let f = &ff.fns[ni];
        let file_waived = allowlist_waived(allowlist, ff, "A8");
        let mut depth_max = 0u32;
        let mut cause: Option<(String, u32)> = None;
        for l in &f.loops {
            if !l.kind.is_bounded() && !file_waived && !inline_waived(ff, "A8", l.line) {
                cause.get_or_insert_with(|| (l.desc.clone(), l.line));
            }
            depth_max = depth_max.max(l.depth);
        }
        local.push(if cause.is_some() {
            None
        } else {
            Some(depth_max)
        });
        top_cause.push(cause);
    }
    let mut bound: Vec<Bound> = vec![Some(0); fns.len()];
    for (si, scc) in sccs.iter().enumerate() {
        let scc_set: HashSet<usize> = scc.iter().copied().collect();
        // The non-recursive part: own loops plus cross-SCC calls (whose
        // bounds are final — `tarjan_sccs` emits callees first).
        let mut base: Bound = Some(0);
        let mut all_ok = true;
        for &m in scc {
            base = join_max(base, local[m]);
            all_ok &= member_ok[m];
            for e in &edges[m] {
                let ti = idx_of[&e.target];
                if !scc_set.contains(&ti) {
                    base = join_max(base, bound[ti].map(|d| d + e.loop_depth));
                }
            }
        }
        let b = if cyclic[si] {
            if all_ok {
                // A witnessed/sanctioned cycle is one more bounded
                // dimension: the decreasing argument plays the role of
                // a loop counter.
                base.map(|d| d + 1)
            } else {
                None
            }
        } else {
            base
        };
        for &m in scc {
            bound[m] = b;
            if b.is_none() && top_cause[m].is_none() && cyclic[si] && !member_ok[m] {
                let f = &files[fns[m].0].fns[fns[m].1];
                top_cause[m] = Some((format!("unwitnessed recursion in `{}`", f.name), f.line));
            }
        }
    }

    // ---- finding 3: ⊤ reachable from a hot-path root ----
    // One deny finding per hot root whose closure contains a function
    // with a *local* ⊤ cause, with the shortest witness chain (BFS).
    for (i, &(fi, ni)) in fns.iter().enumerate() {
        let ff = &files[fi];
        let f = &ff.fns[ni];
        if !f.hot || bound[i].is_some() {
            continue;
        }
        if inline_waived(ff, "A8", f.line) || allowlist_waived(allowlist, ff, "A8") {
            continue;
        }
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut seen: HashSet<usize> = HashSet::new();
        let mut q: VecDeque<usize> = VecDeque::new();
        seen.insert(i);
        q.push_back(i);
        let mut culprit: Option<usize> = None;
        while let Some(n) = q.pop_front() {
            if top_cause[n].is_some() {
                culprit = Some(n);
                break;
            }
            for e in &edges[n] {
                let t = idx_of[&e.target];
                if seen.insert(t) {
                    parent.insert(t, n);
                    q.push_back(t);
                }
            }
        }
        let Some(c) = culprit else { continue };
        let mut chain: Vec<&str> = Vec::new();
        let mut n = c;
        loop {
            chain.push(files[fns[n].0].fns[fns[n].1].name.as_str());
            match parent.get(&n) {
                Some(&p) => n = p,
                None => break,
            }
        }
        chain.reverse();
        let (cause, cline) = top_cause[c].as_ref().map_or(("?".into(), 0), Clone::clone);
        let cpath = &files[fns[c].0].rel_path;
        out.push(Diagnostic {
            path: ff.rel_path.clone(),
            line: f.line,
            rule: "A8".into(),
            severity: "deny".into(),
            message: format!(
                "hot-path `{}` has step bound {}: {} — {cause} at {cpath}:{cline}; \
                 bound the loop or sanction with `// analyze: allow(A8): reason`",
                f.name,
                render_bound(bound[i]),
                chain.join(" → "),
            ),
        });
    }

    out
}

/// `max` on the bound lattice (`⊤` absorbs).
fn join_max(a: Bound, b: Bound) -> Bound {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let ff = parse_file(path, src);
        check(&[ff], &[], &HashMap::new())
    }

    #[test]
    fn bound_rendering() {
        assert_eq!(render_bound(None), "⊤");
        assert_eq!(render_bound(Some(0)), "O(1)");
        assert_eq!(render_bound(Some(1)), "O(n)");
        assert_eq!(render_bound(Some(2)), "O(n·m)");
        assert_eq!(render_bound(Some(3)), "O(n^3)");
    }

    #[test]
    fn unbounded_spin_denied_in_scope_file() {
        let d = run(
            "crates/sim/src/event.rs",
            "fn spin(flag: &AtomicBool) { while flag.load(Ordering::Acquire) {} }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "A8");
        assert_eq!(d[0].severity, "deny");
        assert!(
            d[0].message.contains("no progress witness"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn monotone_while_and_breaking_loop_are_quiet() {
        let d = run(
            "crates/sim/src/event.rs",
            "fn f(n: u32) -> u32 {\n    let mut i = 0;\n    while i < n { i += 1; }\n\
             \x20   loop { break; }\n    i\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn sanctioned_spin_is_quiet_and_warn_scope_warns() {
        let d = run(
            "crates/sim/src/event.rs",
            "fn spin() {\n    // analyze: allow(A8): hardware poll, bounded by watchdog\n\
             \x20   loop { poll(); }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run("crates/sim/src/render.rs", "fn g() { loop { step(); } }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, "warn");
    }

    #[test]
    fn recursion_without_witness_flagged_with_witness_quiet() {
        let d = run(
            "crates/mckp/src/dp.rs",
            "fn down(n: u32) -> u32 { if n == 0 { 0 } else { down(n - 1) } }\n\
             fn bad(n: u32) -> u32 { bad(n) }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("`bad` calls itself"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn hot_top_reachability_reports_chain() {
        let d = run(
            "crates/obs/src/lib.rs",
            "// analyze: hot-path\npub fn emit() { relay(); }\n\
             fn relay() { stall(); }\n\
             fn stall() { loop { step(); } }\n",
        );
        // obs is out of loop-finding scope, so the only finding is the
        // hot-path ⊤ chain.
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, "deny");
        assert!(
            d[0].message.contains("emit → relay → stall"),
            "{}",
            d[0].message
        );
        assert!(d[0].message.contains('⊤'), "{}", d[0].message);
    }

    #[test]
    fn witnessed_recursion_bumps_degree_not_top() {
        let d = run(
            "crates/obs/src/lib.rs",
            "// analyze: hot-path\npub fn emit(n: u32) { halve(n); }\n\
             fn halve(n: u32) { if n > 0 { halve(n / 2); } }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn std_method_collisions_do_not_fabricate_recursion() {
        // `self.inner.push(…)` inside a workspace `push` is `Vec::push`,
        // not recursion.
        let d = run(
            "crates/sim/src/event.rs",
            "impl Q {\n    pub fn push(&mut self, v: u64) { self.inner.push(v); }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
