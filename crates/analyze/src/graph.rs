//! Phase 2: symbol resolution, the interprocedural call graph, and the
//! analyses that need it (A1 panic-reachability, interprocedural A2).
//!
//! Resolution is deliberately **over-approximate**: an unqualified call
//! `f(…)` or method call `.f(…)` resolves to *every* workspace function
//! named `f` in the caller's crate or its direct `rto-*` dependencies;
//! a qualified call `T::f(…)` resolves within the same scope but only
//! to functions whose surrounding `impl`/`trait` type is `T`. Calls
//! that resolve to nothing (std, vendored shims) contribute no edges,
//! and a qualified call on a known `std` type ([`STD_QUALS`]) never
//! falls back to bare-name matching — `Vec::new()` must not resolve to
//! every workspace constructor named `new`.
//! Over-approximation keeps the "no finding" direction trustworthy: if
//! A1 reports a public function as panic-free, no call chain the
//! scanner saw can reach a seed.

use crate::allow::AllowEntry;
use crate::facts::{FileFacts, SeedFact, SeedKind};
use crate::{allowlist_waived, inline_waived, Diagnostic};
use std::collections::{HashMap, HashSet, VecDeque};

/// Crates whose public panic-reachability findings are `deny` (the
/// paper's algorithmic core must be total).
const DENY_CRATES: &[&str] = &["core", "mckp"];
/// Crates whose findings are `warn` (simulator/observability surface).
const WARN_CRATES: &[&str] = &["sim", "obs"];

/// Qualifiers that name well-known `std` types: a qualified call on one
/// of these that resolves to no workspace `impl` is a `std` call, not a
/// module-path call, so the bare-name fallback would only add spurious
/// edges (every `new`/`from`/`with_capacity` in the crate).
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

/// Global function id: `(file index, fn index within the file)`.
pub(crate) type Gid = (usize, usize);

/// Run the call-graph analyses over every file's facts.
#[must_use]
pub(crate) fn check(
    files: &[FileFacts],
    allowlist: &[AllowEntry],
    deps: &HashMap<String, Vec<String>>,
) -> Vec<Diagnostic> {
    let g = Graph::build(files, allowlist, deps);
    let mut out = g.a1_reachability(files);
    out.extend(g.a2_interprocedural(files));
    out
}

/// The resolved call graph (shared with the A5 concurrency audit).
pub(crate) struct Graph {
    /// All functions, in deterministic `(file, fn)` order.
    pub(crate) fns: Vec<Gid>,
    /// Forward call edges, each target list sorted + deduped.
    pub(crate) edges: HashMap<Gid, Vec<Gid>>,
    /// Functions owning at least one *effective* (unwaived) seed.
    seeded: HashSet<Gid>,
    /// Transitive closure: functions from which a seed is reachable.
    can_panic: HashSet<Gid>,
}

impl Graph {
    pub(crate) fn build(
        files: &[FileFacts],
        allowlist: &[AllowEntry],
        deps: &HashMap<String, Vec<String>>,
    ) -> Self {
        // Name → candidate indices, per crate.
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
                // Trait methods are also reachable through the trait
                // name (`<T as Trait>::f`, `Trait::f`).
                if let Some(t) = &f.trait_name {
                    by_qual.entry((ck, t, &f.name)).or_default().push(gid);
                }
            }
        }

        let empty: Vec<String> = Vec::new();
        let mut edges: HashMap<Gid, Vec<Gid>> = HashMap::new();
        let mut seeded: HashSet<Gid> = HashSet::new();
        for (fi, ff) in files.iter().enumerate() {
            let ck = ff.crate_key();
            let dep_dirs = deps.get(ck).unwrap_or(&empty);
            // Resolution scope: the crate itself plus direct deps.
            let scope: Vec<&str> = std::iter::once(ck)
                .chain(dep_dirs.iter().map(String::as_str))
                .collect();
            for (ni, f) in ff.fns.iter().enumerate() {
                let gid = (fi, ni);
                if f.seeds.iter().any(|s| seed_effective(s, ff, allowlist)) {
                    seeded.insert(gid);
                }
                let mut targets: Vec<Gid> = Vec::new();
                for call in &f.calls {
                    let mut resolved = Vec::new();
                    if let Some(q) = &call.qual {
                        for ck2 in &scope {
                            if let Some(v) = by_qual.get(&(*ck2, q.as_str(), call.callee.as_str()))
                            {
                                resolved.extend_from_slice(v);
                            }
                        }
                    }
                    let std_qual = call.qual.as_deref().is_some_and(|q| STD_QUALS.contains(&q));
                    if resolved.is_empty() && !std_qual {
                        // Unqualified calls, and qualified calls whose
                        // qualifier is a *module* path rather than an
                        // impl type (`deep::pick(…)`), fall back to
                        // name matching — over-approximate, never
                        // under.
                        for ck2 in &scope {
                            if let Some(v) = by_name.get(&(*ck2, call.callee.as_str())) {
                                resolved.extend_from_slice(v);
                            }
                        }
                    }
                    targets.append(&mut resolved);
                }
                targets.sort_unstable();
                targets.dedup();
                targets.retain(|t| *t != gid); // self-recursion adds nothing
                if !targets.is_empty() {
                    edges.insert(gid, targets);
                }
            }
        }

        // Reverse fixpoint: a function can panic when it owns a seed or
        // calls (transitively) a function that does.
        let mut reverse: HashMap<Gid, Vec<Gid>> = HashMap::new();
        for (&caller, targets) in &edges {
            for &t in targets {
                reverse.entry(t).or_default().push(caller);
            }
        }
        let mut can_panic: HashSet<Gid> = seeded.clone();
        let mut work: VecDeque<Gid> = seeded.iter().copied().collect();
        while let Some(g) = work.pop_front() {
            if let Some(callers) = reverse.get(&g) {
                for &c in callers {
                    if can_panic.insert(c) {
                        work.push_back(c);
                    }
                }
            }
        }

        Graph {
            fns,
            edges,
            seeded,
            can_panic,
        }
    }

    /// A1: report public functions of the deny/warn crates that can
    /// transitively reach a panic seed, with a witness call chain.
    fn a1_reachability(&self, files: &[FileFacts]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for &gid in &self.fns {
            let (fi, ni) = gid;
            let Some(ff) = files.get(fi) else { continue };
            let Some(f) = ff.fns.get(ni) else { continue };
            let ck = ff.crate_key();
            let severity = if DENY_CRATES.contains(&ck) {
                "deny"
            } else if WARN_CRATES.contains(&ck) {
                "warn"
            } else {
                continue;
            };
            if !f.is_pub || !self.can_panic.contains(&gid) {
                continue;
            }
            let Some(chain) = self.witness(gid) else {
                continue;
            };
            let names: Vec<String> = chain
                .iter()
                .filter_map(|&(cfi, cni)| {
                    files
                        .get(cfi)
                        .and_then(|cf| cf.fns.get(cni))
                        .map(super::facts::FnFact::qualified)
                })
                .collect();
            let seed_desc = chain
                .last()
                .and_then(|&(cfi, cni)| {
                    let cf = files.get(cfi)?;
                    let cfn = cf.fns.get(cni)?;
                    cfn.seeds
                        .iter()
                        .filter(|s| !seed_waived(cf, s.line))
                        .min_by_key(|s| s.line)
                        .map(|s| format!("{} at {}:{}", seed_label(s.kind), cf.rel_path, s.line))
                })
                .unwrap_or_else(|| "a panic site".into());
            out.push(Diagnostic {
                path: ff.rel_path.clone(),
                line: f.line,
                rule: "A1".into(),
                severity: severity.into(),
                message: format!(
                    "public `{}` can transitively reach a panic: {} \u{2192} {}",
                    f.qualified(),
                    names.join(" \u{2192} "),
                    seed_desc
                ),
            });
        }
        out
    }

    /// Deterministic shortest witness: BFS over sorted adjacency from
    /// `from` to the nearest function that owns an effective seed.
    fn witness(&self, from: Gid) -> Option<Vec<Gid>> {
        if self.seeded.contains(&from) {
            return Some(vec![from]);
        }
        let mut parent: HashMap<Gid, Gid> = HashMap::new();
        let mut queue: VecDeque<Gid> = VecDeque::new();
        queue.push_back(from);
        let mut seen: HashSet<Gid> = HashSet::new();
        seen.insert(from);
        while let Some(g) = queue.pop_front() {
            let Some(targets) = self.edges.get(&g) else {
                continue;
            };
            for &t in targets {
                if !seen.insert(t) {
                    continue;
                }
                parent.insert(t, g);
                if self.seeded.contains(&t) {
                    let mut chain = vec![t];
                    let mut cur = t;
                    while let Some(&p) = parent.get(&cur) {
                        chain.push(p);
                        cur = p;
                    }
                    chain.reverse();
                    return Some(chain);
                }
                queue.push_back(t);
            }
        }
        None
    }

    /// Interprocedural A2: argument units must match the callee's
    /// parameter-name units. Only checked when every resolution
    /// candidate of matching arity agrees on the parameter's unit, so
    /// the method-name over-approximation cannot manufacture
    /// conflicting expectations.
    fn a2_interprocedural(&self, files: &[FileFacts]) -> Vec<Diagnostic> {
        // Rebuild the per-call candidate sets from the stored edges:
        // cheaper to recompute locally than to keep per-call targets.
        let mut by_name: HashMap<&str, Vec<Gid>> = HashMap::new();
        for &(fi, ni) in &self.fns {
            if let Some(f) = files.get(fi).and_then(|ff| ff.fns.get(ni)) {
                by_name.entry(&f.name).or_default().push((fi, ni));
            }
        }
        let mut out = Vec::new();
        for &gid in &self.fns {
            let (fi, ni) = gid;
            let Some(ff) = files.get(fi) else { continue };
            let Some(f) = ff.fns.get(ni) else { continue };
            let Some(targets) = self.edges.get(&gid) else {
                continue;
            };
            let target_set: HashSet<Gid> = targets.iter().copied().collect();
            for call in &f.calls {
                let Some(all) = by_name.get(call.callee.as_str()) else {
                    continue;
                };
                // Candidates: resolved targets of this caller with the
                // callee's name and matching arity.
                let cands: Vec<&crate::facts::FnFact> = all
                    .iter()
                    .filter(|g| target_set.contains(g))
                    .filter_map(|&(cfi, cni)| files.get(cfi).and_then(|cf| cf.fns.get(cni)))
                    .filter(|cf| cf.name == call.callee && cf.params.len() == call.arg_units.len())
                    .collect();
                if cands.is_empty() {
                    continue;
                }
                for (pos, &arg_unit) in call.arg_units.iter().enumerate() {
                    if !arg_unit.is_concrete() {
                        continue;
                    }
                    let expected: Vec<_> = cands
                        .iter()
                        .filter_map(|c| c.params.get(pos))
                        .filter(|(_, u)| u.is_concrete())
                        .collect();
                    let Some(first) = expected.first() else {
                        continue;
                    };
                    if expected.len() != cands.len() || expected.iter().any(|p| p.1 != first.1) {
                        continue; // candidates disagree / partial info
                    }
                    if first.1 != arg_unit {
                        out.push(Diagnostic {
                            path: ff.rel_path.clone(),
                            line: call.line,
                            rule: "A2".into(),
                            severity: "deny".into(),
                            message: format!(
                                "argument {} of `{}` carries {} but parameter `{}` expects {}",
                                pos + 1,
                                call.callee,
                                arg_unit,
                                first.0,
                                first.1
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

/// An inline `A1` or `L3` waiver marks a seed as a documented
/// non-panicking contract.
fn seed_waived(ff: &FileFacts, line: u32) -> bool {
    inline_waived(ff, "A1", line) || inline_waived(ff, "L3", line)
}

/// Is this seed live after inline *and* allowlist waivers? Allowlist
/// `L3` entries cover indexing seeds (they are the indexing lint's
/// whole-file escape hatch); `A1` entries cover every seed kind.
fn seed_effective(seed: &SeedFact, ff: &FileFacts, allowlist: &[AllowEntry]) -> bool {
    if seed_waived(ff, seed.line) {
        return false;
    }
    if allowlist_waived(allowlist, ff, "A1") {
        return false;
    }
    if seed.kind == SeedKind::Index && allowlist_waived(allowlist, ff, "L3") {
        return false;
    }
    true
}

/// Human label for a seed kind, used in witness messages.
fn seed_label(kind: SeedKind) -> &'static str {
    match kind {
        SeedKind::PanicMacro => "panic-family macro",
        SeedKind::Unwrap => "`.unwrap()`",
        SeedKind::Expect => "`.expect(..)`",
        SeedKind::Index => "bare indexing",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn deps() -> HashMap<String, Vec<String>> {
        let mut d = HashMap::new();
        d.insert("core".to_string(), vec!["mckp".to_string()]);
        d.insert("mckp".to_string(), Vec::new());
        d
    }

    #[test]
    fn reaches_seed_through_call_chain() {
        let a = parse_file(
            "crates/core/src/a.rs",
            "pub fn api() { helper(); }\nfn helper() { inner(); }\n\
             fn inner(x: Option<u8>) { x.unwrap(); }\n",
        );
        let diags = check(&[a], &[], &deps());
        let a1: Vec<_> = diags.iter().filter(|d| d.rule == "A1").collect();
        assert_eq!(a1.len(), 1, "{diags:?}");
        assert!(a1[0].message.contains("api"));
        assert!(a1[0].message.contains("helper"));
        assert!(a1[0].message.contains("inner"));
        assert!(a1[0].message.contains("`.unwrap()`"));
        assert_eq!(a1[0].severity, "deny");
    }

    #[test]
    fn cross_crate_edge_respects_deps() {
        // core → mckp edge exists (core depends on mckp)…
        let core = parse_file(
            "crates/core/src/a.rs",
            "pub fn api() { Solver::solve_it(); }\n",
        );
        let mckp = parse_file(
            "crates/mckp/src/b.rs",
            "pub struct Solver;\nimpl Solver {\n    pub fn solve_it() { panic!(\"boom\") }\n}\n",
        );
        let diags = check(&[core, mckp], &[], &deps());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "A1" && d.message.contains("api")),
            "{diags:?}"
        );
        // …but mckp → core does not (mckp has no core dep).
        let mckp2 = parse_file(
            "crates/mckp/src/b.rs",
            "pub fn clean() { core_only_helper(); }\n",
        );
        let core2 = parse_file(
            "crates/core/src/a.rs",
            "pub fn core_only_helper() { panic!(\"x\") }\n",
        );
        let diags = check(&[mckp2, core2], &[], &deps());
        assert!(
            !diags
                .iter()
                .any(|d| d.rule == "A1" && d.message.contains("clean")),
            "{diags:?}"
        );
    }

    #[test]
    fn waived_seed_does_not_taint() {
        // Either rule id waives the seed: A1 names the reachability
        // rule, L3 the per-site rule the seed also trips.
        for rule in ["A1", "L3"] {
            let a = parse_file(
                "crates/core/src/a.rs",
                &format!(
                    "pub fn api(x: Option<u8>) -> u8 {{\n    \
                     // analyze: allow({rule}): documented contract, caller validates\n    \
                     x.unwrap()\n}}\n"
                ),
            );
            let diags = check(&[a], &[], &deps());
            assert!(diags.iter().all(|d| d.rule != "A1"), "{rule}: {diags:?}");
        }
    }

    #[test]
    fn private_fns_are_not_reported() {
        let a = parse_file("crates/core/src/a.rs", "fn quiet() { panic!(\"x\") }\n");
        let diags = check(&[a], &[], &deps());
        assert!(diags.iter().all(|d| d.rule != "A1"), "{diags:?}");
    }

    #[test]
    fn interprocedural_unit_mismatch() {
        let a = parse_file(
            "crates/core/src/a.rs",
            "pub fn set_deadline(deadline_ns: u64) {}\n\
             pub fn caller(w_ms: f64) { set_deadline(w_ms); }\n",
        );
        let diags = check(&[a], &[], &deps());
        let a2: Vec<_> = diags.iter().filter(|d| d.rule == "A2").collect();
        assert_eq!(a2.len(), 1, "{diags:?}");
        assert!(a2[0].message.contains("expects ns"), "{}", a2[0].message);
    }
}
