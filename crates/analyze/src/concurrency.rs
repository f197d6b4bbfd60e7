//! A5 — concurrency audit over the worker pool and shared state.
//!
//! Three checks on the per-file atomic/lock/blocking facts plus the
//! shared interprocedural call graph:
//!
//! 1. **Ordering discipline.** Every atomic operation that names a
//!    non-`Relaxed` `Ordering::` outside `crates/obs` must carry an
//!    inline `// analyze: allow(A5): reason` justification (obs is the
//!    designated home of deliberate fences; everywhere else, stronger
//!    orderings are either unnecessary — `fetch_add` used purely for
//!    index distribution — or deserve a written claim).
//! 2. **Lock-order cycles.** Lock acquisitions are keyed by receiver
//!    name; sequential acquisitions within one function add `a → b`
//!    edges, and a call made while holding `a` adds edges to every
//!    lock the callee (transitively) acquires. Because calls resolve
//!    by bare name, an ambiguous callee (several same-named helpers
//!    on different types) contributes only the **intersection** of
//!    the candidates' locksets — a call to `self.lock()` definitely
//!    acquires only what every `lock` in scope acquires, which stops
//!    three unrelated `lock` helpers from fabricating a cycle. Two
//!    locks reachable from each other form a deadlock-capable cycle
//!    — denied.
//! 3. **Blocking in workers.** An A1-style reverse fixpoint marks
//!    every function from which a blocking call (`Mutex::lock`,
//!    channel `recv`, condvar waits, file I/O, `thread::sleep`) is
//!    reachable; any such call site lexically inside a `spawn(..)`
//!    closure — or a call from inside one to a can-block function —
//!    is reported (deny in `exp`, whose pool must stay wait-free on
//!    the distribution path; warn elsewhere).
//!
//! Like A1/A4, the audit reads only phase-1 facts, so its output is a
//! pure function of the sources.

use crate::allow::AllowEntry;
use crate::facts::FileFacts;
use crate::graph::{Gid, Graph};
use crate::{allowlist_waived, inline_waived, Diagnostic};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Crate whose blocking-in-worker findings are deny (the experiment
/// pool's distribution path).
const BLOCK_DENY_CRATES: &[&str] = &["exp"];
/// Crate exempt from the non-`Relaxed` justification requirement.
const ORDERING_EXEMPT_CRATES: &[&str] = &["obs"];

/// Run the A5 audit over every file's facts.
#[must_use]
pub(crate) fn check(
    files: &[FileFacts],
    allowlist: &[AllowEntry],
    deps: &HashMap<String, Vec<String>>,
) -> Vec<Diagnostic> {
    let g = Graph::build(files, allowlist, deps);
    let mut out = orderings(files, allowlist);
    out.extend(lock_cycles(files, allowlist, &g));
    out.extend(blocking(files, allowlist, &g));
    out
}

/// Check 1: unjustified non-`Relaxed` orderings outside obs.
fn orderings(files: &[FileFacts], allowlist: &[AllowEntry]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for ff in files {
        if ORDERING_EXEMPT_CRATES.contains(&ff.crate_key()) {
            continue;
        }
        for a in &ff.atomics {
            if a.ordering == "Relaxed" {
                continue;
            }
            if inline_waived(ff, "A5", a.line) || allowlist_waived(allowlist, ff, "A5") {
                continue;
            }
            out.push(Diagnostic {
                path: ff.rel_path.clone(),
                line: a.line,
                rule: "A5".to_owned(),
                severity: "deny".to_owned(),
                message: format!(
                    "`{}` uses `Ordering::{}` outside `obs` — justify with \
                     `// analyze: allow(A5): reason` or relax to `Relaxed`",
                    a.op, a.ordering
                ),
            });
        }
    }
    out
}

/// Check 2: lock-order cycle detection.
fn lock_cycles(files: &[FileFacts], allowlist: &[AllowEntry], g: &Graph) -> Vec<Diagnostic> {
    // Transitive lockset per function (which lock names a call into
    // this function may end up acquiring).
    let mut locks_all: HashMap<Gid, BTreeSet<String>> = HashMap::new();
    for &gid in &g.fns {
        let (fi, ni) = gid;
        let Some(f) = files.get(fi).and_then(|ff| ff.fns.get(ni)) else {
            continue;
        };
        if !f.lock_acqs.is_empty() {
            locks_all.insert(gid, f.lock_acqs.iter().map(|(n, _)| n.clone()).collect());
        }
    }
    let fn_name = |gid: Gid| -> Option<&str> {
        let (fi, ni) = gid;
        files
            .get(fi)
            .and_then(|ff| ff.fns.get(ni))
            .map(|f| f.name.as_str())
    };
    // Callee groups per caller: callee name → every name-matching
    // target. A caller definitely acquires, through a call, only the
    // intersection of the group's locksets.
    let mut groups: HashMap<Gid, HashMap<&str, Vec<Gid>>> = HashMap::new();
    for (&caller, targets) in &g.edges {
        let by_name = groups.entry(caller).or_default();
        for &t in targets {
            if let Some(name) = fn_name(t) {
                by_name.entry(name).or_default().push(t);
            }
        }
    }
    let group_locks = |group: &[Gid], locks_all: &HashMap<Gid, BTreeSet<String>>| {
        let mut inter: Option<BTreeSet<String>> = None;
        for &t in group {
            let l = locks_all.get(&t).cloned().unwrap_or_default();
            inter = Some(match inter {
                None => l,
                Some(i) => i.intersection(&l).cloned().collect(),
            });
        }
        inter.unwrap_or_default()
    };
    // Propagate locksets caller-ward to a fixpoint (the graph is
    // small; simple rounds keep the intersection semantics obvious).
    loop {
        let mut changed = false;
        for &caller in &g.fns {
            let Some(by_name) = groups.get(&caller) else {
                continue;
            };
            let mut gained: BTreeSet<String> = BTreeSet::new();
            for group in by_name.values() {
                gained.extend(group_locks(group, &locks_all));
            }
            if gained.is_empty() {
                continue;
            }
            let entry = locks_all.entry(caller).or_default();
            let before = entry.len();
            entry.extend(gained);
            changed |= entry.len() != before;
        }
        if !changed {
            break;
        }
    }

    // Edge map `a → b` with one witness (path, line) per edge.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for &gid in &g.fns {
        let (fi, ni) = gid;
        let Some(ff) = files.get(fi) else { continue };
        let Some(f) = ff.fns.get(ni) else { continue };
        if f.lock_acqs.is_empty() {
            continue;
        }
        // Intra-function: sequential acquisitions in source order.
        for (ai, (a, _)) in f.lock_acqs.iter().enumerate() {
            for (b, bl) in f.lock_acqs.iter().skip(ai + 1) {
                if a != b {
                    edges
                        .entry((a.clone(), b.clone()))
                        .or_insert_with(|| (ff.rel_path.clone(), *bl));
                }
            }
        }
        // Interprocedural: a call made at/after an acquisition may
        // acquire every lock the callee definitely acquires (the
        // intersection over same-named candidates).
        let Some(by_name) = groups.get(&gid) else {
            continue;
        };
        for (a, al) in &f.lock_acqs {
            for call in &f.calls {
                if call.line < *al {
                    continue;
                }
                let Some(group) = by_name.get(call.callee.as_str()) else {
                    continue;
                };
                for b in group_locks(group, &locks_all) {
                    if *a != b {
                        edges
                            .entry((a.clone(), b))
                            .or_insert_with(|| (ff.rel_path.clone(), call.line));
                    }
                }
            }
        }
    }

    // Reachability over the lock-order digraph.
    let mut succ: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        succ.entry(a.as_str()).or_default().insert(b.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = succ.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };

    let mut out = Vec::new();
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), (path, line)) in &edges {
        if !reaches(b, a) {
            continue;
        }
        // Report each unordered pair once, on the lexicographically
        // smaller direction, so both directions of a 2-cycle collapse
        // into one diagnostic.
        let key = if a < b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        if !reported.insert(key) {
            continue;
        }
        let ff = files.iter().find(|f| &f.rel_path == path);
        if let Some(ff) = ff {
            if inline_waived(ff, "A5", *line) || allowlist_waived(allowlist, ff, "A5") {
                continue;
            }
        }
        out.push(Diagnostic {
            path: path.clone(),
            line: *line,
            rule: "A5".to_owned(),
            severity: "deny".to_owned(),
            message: format!(
                "lock-order cycle: `{a}` and `{b}` are acquired in both orders — \
                 deadlock-capable; impose a global acquisition order"
            ),
        });
    }
    out
}

/// Check 3: blocking calls reachable from spawned worker closures.
fn blocking(files: &[FileFacts], allowlist: &[AllowEntry], g: &Graph) -> Vec<Diagnostic> {
    // Reverse fixpoint: functions from which a blocking site is
    // reachable.
    let mut can_block: HashSet<Gid> = HashSet::new();
    let mut block_desc: HashMap<Gid, String> = HashMap::new();
    for &gid in &g.fns {
        let (fi, ni) = gid;
        let Some(f) = files.get(fi).and_then(|ff| ff.fns.get(ni)) else {
            continue;
        };
        if let Some(b) = f.blocking.iter().min_by_key(|b| b.line) {
            can_block.insert(gid);
            block_desc.insert(gid, b.desc.clone());
        }
    }
    let mut reverse: HashMap<Gid, Vec<Gid>> = HashMap::new();
    for (&caller, targets) in &g.edges {
        for &t in targets {
            reverse.entry(t).or_default().push(caller);
        }
    }
    let mut work: VecDeque<Gid> = can_block.iter().copied().collect();
    while let Some(gid) = work.pop_front() {
        if let Some(callers) = reverse.get(&gid) {
            let desc = block_desc.get(&gid).cloned();
            for &c in callers {
                if can_block.insert(c) {
                    if let Some(d) = &desc {
                        block_desc.entry(c).or_insert_with(|| d.clone());
                    }
                    work.push_back(c);
                }
            }
        }
    }
    // Map gid → can-block for callee-name lookup.
    let mut blocky_names: HashMap<(&str, &str), &str> = HashMap::new();
    for &gid in &can_block {
        let (fi, ni) = gid;
        if let Some(ff) = files.get(fi) {
            if let Some(f) = ff.fns.get(ni) {
                let desc = block_desc
                    .get(&gid)
                    .map_or("a blocking call", String::as_str);
                blocky_names.insert((ff.crate_key(), f.name.as_str()), desc);
            }
        }
    }

    let mut out = Vec::new();
    for ff in files {
        let ck = ff.crate_key();
        let severity = if BLOCK_DENY_CRATES.contains(&ck) {
            "deny"
        } else {
            "warn"
        };
        for f in &ff.fns {
            // Direct blocking sites inside a spawn closure.
            for b in &f.blocking {
                if !b.in_spawn {
                    continue;
                }
                if inline_waived(ff, "A5", b.line) || allowlist_waived(allowlist, ff, "A5") {
                    continue;
                }
                out.push(Diagnostic {
                    path: ff.rel_path.clone(),
                    line: b.line,
                    rule: "A5".to_owned(),
                    severity: severity.to_owned(),
                    message: format!(
                        "{} inside a spawned worker closure — blocking stalls the pool; \
                         move it outside the worker or channel the data out",
                        b.desc
                    ),
                });
            }
            // Calls from inside a spawn closure into can-block
            // functions.
            for call in &f.calls {
                if !call.in_spawn {
                    continue;
                }
                let Some(desc) = blocky_names.get(&(ck, call.callee.as_str())) else {
                    continue;
                };
                if inline_waived(ff, "A5", call.line) || allowlist_waived(allowlist, ff, "A5") {
                    continue;
                }
                out.push(Diagnostic {
                    path: ff.rel_path.clone(),
                    line: call.line,
                    rule: "A5".to_owned(),
                    severity: severity.to_owned(),
                    message: format!(
                        "`{}` called from a spawned worker closure reaches {} — blocking \
                         stalls the pool",
                        call.callee, desc
                    ),
                });
            }
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
    fn non_relaxed_outside_obs_is_denied_waived_and_obs_are_quiet() {
        let src = "pub fn f(c: &std::sync::atomic::AtomicU64) {\n    c.fetch_add(1, std::sync::atomic::Ordering::SeqCst);\n}\n";
        let d = run(&[("crates/exp/src/pool.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Ordering::SeqCst"), "{d:?}");
        assert_eq!(d[0].severity, "deny");
        // Same code in obs is exempt.
        assert!(run(&[("crates/obs/src/metrics.rs", src)]).is_empty());
        // An inline justification silences it anywhere.
        let waived = "pub fn f(c: &std::sync::atomic::AtomicU64) {\n    // analyze: allow(A5): store pairs with the collector's Acquire load\n    c.store(1, std::sync::atomic::Ordering::Release);\n}\n";
        assert!(run(&[("crates/exp/src/pool.rs", waived)]).is_empty());
        // Relaxed needs no justification.
        let relaxed = "pub fn f(c: &std::sync::atomic::AtomicU64) {\n    c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);\n}\n";
        assert!(run(&[("crates/exp/src/pool.rs", relaxed)]).is_empty());
    }

    #[test]
    fn lock_order_cycle_is_denied_once_and_consistent_order_is_quiet() {
        let cyclic = "pub fn ab(s: &S) {\n    let _a = s.a.lock();\n    let _b = s.b.lock();\n}\npub fn ba(s: &S) {\n    let _b = s.b.lock();\n    let _a = s.a.lock();\n}\n";
        let d = run(&[("crates/exp/src/state.rs", cyclic)]);
        assert_eq!(d.len(), 1, "one report per unordered pair: {d:?}");
        assert!(d[0].message.contains("lock-order cycle"), "{d:?}");
        let ordered = "pub fn ab(s: &S) {\n    let _a = s.a.lock();\n    let _b = s.b.lock();\n}\npub fn ab2(s: &S) {\n    let _a = s.a.lock();\n    let _b = s.b.lock();\n}\n";
        assert!(run(&[("crates/exp/src/state.rs", ordered)]).is_empty());
    }

    #[test]
    fn cycle_through_a_callee_is_found() {
        let src = "fn grab_b(s: &S) {\n    let _b = s.b.lock();\n}\npub fn ab(s: &S) {\n    let _a = s.a.lock();\n    grab_b(s);\n}\npub fn ba(s: &S) {\n    let _b = s.b.lock();\n    let _a = s.a.lock();\n}\n";
        let d = run(&[("crates/exp/src/state.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`a` and `b`"), "{d:?}");
    }

    #[test]
    fn ambiguous_same_name_helpers_do_not_fabricate_cycles() {
        // Three types each with a private `lock` helper guarding a
        // different field (the obs layout). Name-keyed resolution must
        // intersect, not union, or phantom cycles appear.
        let src = "impl A {\n    fn lock(&self) -> G {\n        self.inner.lock().unwrap()\n    }\n    pub fn get(&self) -> u32 {\n        *self.lock()\n    }\n}\nimpl B {\n    fn lock(&self) -> G {\n        self.events.lock().unwrap()\n    }\n    pub fn get(&self) -> u32 {\n        *self.lock()\n    }\n}\nimpl C {\n    fn lock(&self) -> G {\n        self.state.lock().unwrap()\n    }\n    pub fn get(&self) -> u32 {\n        *self.lock()\n    }\n}\n";
        let d = run(&[("crates/obs/src/metrics.rs", src)]);
        let cycles: Vec<_> = d
            .iter()
            .filter(|x| x.message.contains("lock-order cycle"))
            .collect();
        assert!(cycles.is_empty(), "{cycles:?}");
    }

    #[test]
    fn blocking_in_spawn_is_deny_in_exp_warn_elsewhere() {
        let src = "pub fn go() {\n    std::thread::spawn(move || {\n        let _b = std::fs::read(\"x.bin\");\n    });\n}\n";
        let d = run(&[("crates/exp/src/pool.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, "deny");
        assert!(d[0].message.contains("fs::read"), "{d:?}");
        let d = run(&[("crates/sim/src/engine.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, "warn");
        // The same call outside any spawn closure is fine.
        let plain = "pub fn go() {\n    let _b = std::fs::read(\"x.bin\");\n}\n";
        assert!(run(&[("crates/exp/src/pool.rs", plain)]).is_empty());
    }

    #[test]
    fn blocking_reached_through_a_helper_is_found() {
        let src = "fn load() -> usize {\n    let _b = std::fs::read(\"x.bin\");\n    0\n}\npub fn go() {\n    std::thread::spawn(move || {\n        let _n = load();\n    });\n}\n";
        let d = run(&[("crates/exp/src/pool.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("`load`") && d[0].message.contains("reaches"),
            "{d:?}"
        );
    }
}
