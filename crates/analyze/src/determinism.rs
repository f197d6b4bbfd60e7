//! A6 — determinism-taint audit.
//!
//! Every guarantee the repo ships (paper-faithful ODM decisions,
//! byte-identical serial-vs-parallel sweeps, mergeable metric shards)
//! rests on run-to-run determinism. This pass models the ways that
//! property silently breaks:
//!
//! - **Hash-ordered iteration** over `HashMap`/`HashSet` (SipHash keys
//!   are seeded per process), including `for` loops and the iterator
//!   methods, with order-sensitive float reductions (`sum`/`fold`)
//!   called out in the witness;
//! - **wall-clock reads** (`Instant::now`, `SystemTime::now`) anywhere
//!   except `obs::Stopwatch`, the one sanctioned clock wrapper;
//! - **scheduler identity** (`thread::current()`);
//! - **ambient randomness** (`thread_rng`, `from_entropy`,
//!   `RandomState::new`);
//! - **environment and filesystem reads** (`env::var`, `fs::read`, …).
//!
//! Sources are recorded per function in phase 1 ([`NondetFact`]); this
//! pass propagates taint interprocedurally over the shared call graph
//! (an A1-style reverse fixpoint) and reports every **public** function
//! of a scoped crate from which an unsanctioned source is reachable,
//! with a deterministic shortest witness chain. A source is sanctioned
//! by an inline `// analyze: allow(A6): reason` on its line (or the
//! line above) or by a directory-prefix `lint.allow.toml` entry —
//! reviewed claims that the nondeterminism cannot reach replayed
//! output (e.g. a content-addressed cache whose hits replay recorded
//! bytes).
//!
//! Deny scope: the paper kernels and everything replayed (`core`,
//! `sim`, `exp`, `stats`, and `server::fleet`); warn scope: the rest of
//! the library surface. Boundary binaries (`cli`, `bench`) whose job is
//! I/O and wall-clock measurement are unscoped.
//!
//! [`NondetFact`]: crate::facts::NondetFact

use crate::allow::AllowEntry;
use crate::facts::{FileFacts, FnFact, NondetFact};
use crate::graph::{Gid, Graph};
use crate::{allowlist_waived, inline_waived, Diagnostic};
use std::collections::{HashMap, HashSet, VecDeque};

/// Crates whose findings are `deny`: nondeterminism here breaks
/// replayability invariants CI enforces elsewhere.
const A6_DENY_CRATES: &[&str] = &["core", "sim", "exp", "stats"];
/// Files outside the deny crates that are individually deny-scoped
/// (the fleet router's decisions are part of the replayed trace).
const A6_DENY_FILES: &[&str] = &["crates/server/src/fleet.rs"];
/// Crates whose findings are `warn`.
const A6_WARN_CRATES: &[&str] = &["mckp", "server", "obs", "workloads"];

/// Run the A6 audit over every file's facts.
#[must_use]
pub(crate) fn check(
    files: &[FileFacts],
    allowlist: &[AllowEntry],
    deps: &HashMap<String, Vec<String>>,
) -> Vec<Diagnostic> {
    let g = Graph::build(files, allowlist, deps);

    // Functions owning at least one effective (unsanctioned) source.
    let effective = |ff: &FileFacts, f: &FnFact| -> Option<NondetFact> {
        if allowlist_waived(allowlist, ff, "A6") {
            return None;
        }
        f.nondet
            .iter()
            .filter(|n| !inline_waived(ff, "A6", n.line))
            .min_by_key(|n| n.line)
            .cloned()
    };
    let mut sourced: HashSet<Gid> = HashSet::new();
    let mut source_of: HashMap<Gid, NondetFact> = HashMap::new();
    for &gid in &g.fns {
        let (fi, ni) = gid;
        let Some(ff) = files.get(fi) else { continue };
        let Some(f) = ff.fns.get(ni) else { continue };
        if let Some(n) = effective(ff, f) {
            sourced.insert(gid);
            source_of.insert(gid, n);
        }
    }

    // Reverse fixpoint: tainted = can reach a sourced function.
    let mut reverse: HashMap<Gid, Vec<Gid>> = HashMap::new();
    for (&caller, targets) in &g.edges {
        for &t in targets {
            reverse.entry(t).or_default().push(caller);
        }
    }
    let mut tainted: HashSet<Gid> = sourced.clone();
    let mut work: VecDeque<Gid> = sourced.iter().copied().collect();
    while let Some(gid) = work.pop_front() {
        if let Some(callers) = reverse.get(&gid) {
            for &c in callers {
                if tainted.insert(c) {
                    work.push_back(c);
                }
            }
        }
    }

    // Deterministic shortest witness from a tainted fn to the nearest
    // sourced fn (mirrors `Graph::witness` with A6's seed set).
    let witness = |from: Gid| -> Option<Vec<Gid>> {
        if sourced.contains(&from) {
            return Some(vec![from]);
        }
        let mut parent: HashMap<Gid, Gid> = HashMap::new();
        let mut queue: VecDeque<Gid> = VecDeque::new();
        let mut seen: HashSet<Gid> = HashSet::new();
        queue.push_back(from);
        seen.insert(from);
        while let Some(gid) = queue.pop_front() {
            let Some(targets) = g.edges.get(&gid) else {
                continue;
            };
            for &t in targets {
                if !seen.insert(t) {
                    continue;
                }
                parent.insert(t, gid);
                if sourced.contains(&t) {
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
    };

    let mut out = Vec::new();
    for &gid in &g.fns {
        let (fi, ni) = gid;
        let Some(ff) = files.get(fi) else { continue };
        let Some(f) = ff.fns.get(ni) else { continue };
        let severity = if A6_DENY_CRATES.contains(&ff.crate_key())
            || A6_DENY_FILES.contains(&ff.rel_path.as_str())
        {
            "deny"
        } else if A6_WARN_CRATES.contains(&ff.crate_key()) {
            "warn"
        } else {
            continue;
        };
        if !f.is_pub || !tainted.contains(&gid) {
            continue;
        }
        if inline_waived(ff, "A6", f.line) || allowlist_waived(allowlist, ff, "A6") {
            continue;
        }
        let Some(chain) = witness(gid) else { continue };
        let names: Vec<String> = chain
            .iter()
            .filter_map(|&(cfi, cni)| {
                files
                    .get(cfi)
                    .and_then(|cf| cf.fns.get(cni))
                    .map(FnFact::qualified)
            })
            .collect();
        let source_desc = chain
            .last()
            .and_then(|last| {
                let src = source_of.get(last)?;
                let cf = files.get(last.0)?;
                Some(format!("{} at {}:{}", src.desc, cf.rel_path, src.line))
            })
            .unwrap_or_else(|| "a nondeterminism source".into());
        out.push(Diagnostic {
            path: ff.rel_path.clone(),
            line: f.line,
            rule: "A6".into(),
            severity: severity.into(),
            message: format!(
                "public `{}` can reach a nondeterminism source: {} \u{2192} {} — \
                 make the order/input explicit (`BTreeMap`, seeded RNG, \
                 `obs::Stopwatch`) or sanction with `// analyze: allow(A6): reason`",
                f.qualified(),
                names.join(" \u{2192} "),
                source_desc
            ),
        });
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
    fn hash_iteration_taints_public_callers_transitively() {
        let src = "use std::collections::HashMap;\n\
                   fn tally(m: &HashMap<u32, f64>) -> f64 {\n    m.values().sum()\n}\n\
                   pub fn report(m: &HashMap<u32, f64>) -> f64 {\n    tally(m)\n}\n";
        let d = run(&[("crates/sim/src/report.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`report`"), "{d:?}");
        assert!(d[0].message.contains("tally"), "{d:?}");
        assert!(d[0].message.contains("`sum` reduction"), "{d:?}");
        assert_eq!(d[0].severity, "deny");
    }

    #[test]
    fn for_loop_over_hash_container_is_a_source() {
        let src = "use std::collections::HashSet;\n\
                   pub fn drain_all(s: &HashSet<u32>) {\n    for v in s {\n        use_it(v);\n    }\n}\n";
        let d = run(&[("crates/core/src/odm.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("`for` over hash-ordered `s`"),
            "{d:?}"
        );
    }

    #[test]
    fn membership_only_hash_use_is_clean() {
        let src = "use std::collections::HashSet;\n\
                   pub fn dedup(s: &mut HashSet<u32>, v: u32) -> bool {\n    s.insert(v)\n}\n";
        let d = run(&[("crates/core/src/odm.rs", src)]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn wall_clock_is_a_source_except_in_obs_stopwatch() {
        let src = "pub fn measure() -> u64 {\n    let t0 = std::time::Instant::now();\n    0\n}\n";
        let d = run(&[("crates/exp/src/engine.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Instant::now"), "{d:?}");
        assert_eq!(d[0].severity, "deny");
        // The same read inside the sanctioned wrapper file is exempt.
        assert!(run(&[("crates/obs/src/clock.rs", src)]).is_empty());
    }

    #[test]
    fn sanction_comment_silences_the_source() {
        let src = "pub fn load(p: &str) -> Option<String> {\n    \
                   // analyze: allow(A6): content-addressed cache; hits replay recorded bytes\n    \
                   std::fs::read_to_string(p).ok()\n}\n";
        assert!(run(&[("crates/exp/src/cache.rs", src)]).is_empty());
        let unsanctioned = "pub fn load(p: &str) -> Option<String> {\n    \
                            std::fs::read_to_string(p).ok()\n}\n";
        let d = run(&[("crates/exp/src/cache.rs", unsanctioned)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("fs::read_to_string"), "{d:?}");
    }

    #[test]
    fn severity_maps_by_scope_and_unscoped_crates_stay_quiet() {
        let src = "pub fn seed() -> u64 {\n    let r = thread_rng();\n    0\n}\n";
        let warn = run(&[("crates/mckp/src/x.rs", src)]);
        assert_eq!(warn.len(), 1, "{warn:?}");
        assert_eq!(warn[0].severity, "warn");
        assert!(warn[0].message.contains("ambient RNG"), "{warn:?}");
        // fleet.rs is deny-scoped even though server is a warn crate.
        let fleet = run(&[("crates/server/src/fleet.rs", src)]);
        assert_eq!(fleet[0].severity, "deny", "{fleet:?}");
        // cli is a boundary binary: unscoped.
        assert!(run(&[("crates/cli/src/main.rs", src)]).is_empty());
    }

    #[test]
    fn private_sources_unreachable_from_public_api_stay_quiet() {
        let src = "fn helper() {\n    let id = std::thread::current();\n}\n";
        assert!(run(&[("crates/core/src/x.rs", src)]).is_empty());
    }
}
