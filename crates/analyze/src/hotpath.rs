//! A7 — hot-path allocation analysis.
//!
//! The static twin of the counting-allocator test
//! (`crates/bench/tests/alloc_budget.rs`): hot regions are marked in
//! source with an attribute comment,
//!
//! ```text
//! // analyze: hot-path
//! pub fn push(&mut self, ev: Event) { … }
//! ```
//!
//! on the line immediately above (or on) the `fn` line. The pass takes
//! the forward call-graph closure of every annotated function and flags
//! reachable allocating constructs recorded in phase 1
//! ([`AllocFact`]): container growth without `with_capacity`/`reserve`
//! evidence in the defining file, `String`/`format!` construction,
//! `Box`/`Rc`/`Arc` churn, and `.collect()`/`vec!` into growable
//! containers.
//!
//! Severity: `deny` inside a directly-annotated function (the author
//! declared it hot; an allocation there is a contract violation),
//! `warn` in functions that are merely reachable from a hot root — the
//! call may sit on a cold branch the token scanner cannot see. Every
//! reachable finding carries the annotated root and discovery chain so
//! the provenance is auditable.
//!
//! Sanctions reuse the shared waiver machinery: an inline
//! `// analyze: allow(A7): reason` on the allocation line (or above),
//! or a directory-prefix `lint.allow.toml` entry — reviewed claims that
//! the allocation is amortized, on the enabled-only path, or setup
//! rather than steady state.
//!
//! Soundness caveats (documented in DESIGN.md §14): capacity evidence
//! is file-granular, name resolution over-approximates across
//! same-named methods, and a hot annotation on a trait method does not
//! propagate to unannotated impls it dispatches to.
//!
//! [`AllocFact`]: crate::facts::AllocFact

use crate::allow::AllowEntry;
use crate::facts::{AllocKind, FileFacts, FnFact};
use crate::graph::{Gid, Graph};
use crate::{allowlist_waived, inline_waived, Diagnostic};
use std::collections::{HashMap, VecDeque};

/// Run the A7 analysis over every file's facts.
#[must_use]
pub(crate) fn check(
    files: &[FileFacts],
    allowlist: &[AllowEntry],
    deps: &HashMap<String, Vec<String>>,
) -> Vec<Diagnostic> {
    let g = Graph::build(files, allowlist, deps);

    // Multi-source forward BFS from the annotated roots, in
    // deterministic `fns` order, recording each function's discovery
    // parent so findings can cite their hot provenance chain.
    let mut parent: HashMap<Gid, Gid> = HashMap::new();
    let mut reached: HashMap<Gid, Gid> = HashMap::new(); // gid → root
    let mut queue: VecDeque<Gid> = VecDeque::new();
    for &gid in &g.fns {
        let (fi, ni) = gid;
        if files
            .get(fi)
            .and_then(|ff| ff.fns.get(ni))
            .is_some_and(|f| f.hot)
        {
            reached.insert(gid, gid);
            queue.push_back(gid);
        }
    }
    while let Some(gid) = queue.pop_front() {
        let root = reached[&gid];
        let Some(targets) = g.edges.get(&gid) else {
            continue;
        };
        for &t in targets {
            if reached.contains_key(&t) {
                continue;
            }
            reached.insert(t, root);
            parent.insert(t, gid);
            queue.push_back(t);
        }
    }

    let name_of = |gid: Gid| -> Option<String> {
        files
            .get(gid.0)
            .and_then(|ff| ff.fns.get(gid.1))
            .map(FnFact::qualified)
    };
    // Hot-provenance chain root → … → gid, as qualified names.
    let chain = |mut gid: Gid| -> Vec<String> {
        let mut rev = vec![gid];
        while let Some(&p) = parent.get(&gid) {
            rev.push(p);
            gid = p;
        }
        rev.reverse();
        rev.iter().filter_map(|&x| name_of(x)).collect()
    };

    let mut out = Vec::new();
    for &gid in &g.fns {
        if !reached.contains_key(&gid) {
            continue;
        }
        let (fi, ni) = gid;
        let Some(ff) = files.get(fi) else { continue };
        let Some(f) = ff.fns.get(ni) else { continue };
        for a in &f.allocs {
            if inline_waived(ff, "A7", a.line) || allowlist_waived(allowlist, ff, "A7") {
                continue;
            }
            // File-granular capacity evidence discharges growth sites:
            // the file pre-sizes *some* buffer, which we accept as
            // amortization evidence (documented over-approximation).
            if a.kind == AllocKind::GrowPush && ff.capacity_evidence {
                continue;
            }
            let (severity, provenance) = if f.hot {
                ("deny", format!("hot `{}`", f.qualified()))
            } else {
                (
                    "warn",
                    format!("reachable from hot: {}", chain(gid).join(" \u{2192} ")),
                )
            };
            let advice = match a.kind {
                AllocKind::GrowPush => "pre-size with `with_capacity`/`reserve` or reuse a buffer",
                AllocKind::Str => "format off the hot path or write into a reused buffer",
                AllocKind::BoxRc => "hoist the box out of the hot region",
                AllocKind::Collect => "collect outside the hot region or index in place",
            };
            out.push(Diagnostic {
                path: ff.rel_path.clone(),
                line: a.line,
                rule: "A7".into(),
                severity: severity.into(),
                message: format!(
                    "hot-path allocation: {} in `{}` ({provenance}) — {advice}, \
                     or sanction with `// analyze: allow(A7): reason`",
                    a.desc,
                    f.qualified()
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ffs: Vec<_> = files.iter().map(|(p, s)| parse_file(p, s)).collect();
        check(&ffs, &[], &HashMap::new())
    }

    #[test]
    fn direct_allocation_in_hot_fn_is_denied() {
        let src = "// analyze: hot-path\n\
                   pub fn emit(&self, v: u64) {\n    let s = format!(\"{v}\");\n}\n";
        let d = run(&[("crates/obs/src/lib.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, "deny");
        assert!(d[0].message.contains("`format!`"), "{d:?}");
        assert!(d[0].message.contains("hot `emit`"), "{d:?}");
    }

    #[test]
    fn reachable_allocation_warns_with_provenance_chain() {
        let src = "// analyze: hot-path\n\
                   pub fn pop(&mut self) -> u64 {\n    self.drain_one()\n}\n\
                   fn drain_one(&mut self) -> u64 {\n    let v: Vec<u64> = it.collect();\n    0\n}\n";
        let d = run(&[("crates/sim/src/event.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, "warn");
        assert!(d[0].message.contains("`.collect()`"), "{d:?}");
        assert!(
            d[0].message
                .contains("reachable from hot: pop \u{2192} drain_one"),
            "{d:?}"
        );
    }

    #[test]
    fn unannotated_functions_are_not_scanned() {
        let src = "pub fn setup() {\n    let s = format!(\"x\");\n    let v = vec![1, 2];\n}\n";
        assert!(run(&[("crates/sim/src/event.rs", src)]).is_empty());
    }

    #[test]
    fn capacity_evidence_discharges_growth_sites() {
        let evidenced = "// analyze: hot-path\n\
                         pub fn push(&mut self, v: u64) {\n    self.heap.push(v);\n}\n\
                         pub fn new(cap: usize) -> Self {\n    Self { heap: Vec::with_capacity(cap) }\n}\n";
        assert!(run(&[("crates/sim/src/event.rs", evidenced)]).is_empty());
        let bare = "// analyze: hot-path\n\
                    pub fn push(&mut self, v: u64) {\n    self.heap.push(v);\n}\n";
        let d = run(&[("crates/sim/src/event.rs", bare)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`heap.push(..)`"), "{d:?}");
    }

    #[test]
    fn sanction_comment_silences_the_site() {
        let src = "// analyze: hot-path\n\
                   pub fn solve(&self) {\n    \
                   // analyze: allow(A7): row buffers are set up once per solve, not per item\n    \
                   let dp = vec![0.0; 8];\n}\n";
        assert!(run(&[("crates/mckp/src/dp.rs", src)]).is_empty());
    }

    #[test]
    fn string_and_box_churn_are_flagged() {
        let src = "// analyze: hot-path\n\
                   pub fn hot(&self, x: u64) {\n    let a = x.to_string();\n    let b = Box::new(x);\n}\n";
        let d = run(&[("crates/core/src/x.rs", src)]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(
            d.iter().any(|x| x.message.contains("`.to_string()`")),
            "{d:?}"
        );
        assert!(d.iter().any(|x| x.message.contains("`Box::new`")), "{d:?}");
    }
}
