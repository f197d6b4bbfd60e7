//! A3: stale-waiver detection.
//!
//! A suppression that no longer suppresses anything is a lie in the
//! review record, so every escape hatch must still point at a live
//! finding:
//!
//! * A `lint.allow.toml` entry is stale when **no** file matching its
//!   `path` has a production (test-stripped) finding of its rule.
//! * An inline `// analyze: allow(Lx): reason` comment is stale when
//!   no full-stream finding of rule `Lx` sits on its line or the next
//!   (full stream, because waivers legitimately live in test code).
//! * `// analyze: allow(Ax): reason` must cover a site of its rule (a
//!   panic seed for A1, a local finding for A2, …) on its line or the
//!   next.

use crate::allow::AllowEntry;
use crate::facts::FileFacts;
use crate::Diagnostic;

/// Detect stale allowlist entries and stale inline waivers.
#[must_use]
pub(crate) fn check(files: &[FileFacts], allowlist: &[AllowEntry]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for entry in allowlist {
        let justified = files.iter().any(|ff| {
            if !entry.covers(&ff.rel_path) {
                return false;
            }
            match entry.rule.as_str() {
                "A4" => !ff.a4.is_empty(),
                "A6" => ff.fns.iter().any(|f| !f.nondet.is_empty()),
                "A7" => ff.fns.iter().any(|f| !f.allocs.is_empty()),
                "A8" => ff.fns.iter().any(|f| !f.loops.is_empty()),
                "A5" => {
                    ff.atomics.iter().any(|a| a.ordering != "Relaxed")
                        || ff
                            .fns
                            .iter()
                            .any(|f| !f.blocking.is_empty() || !f.lock_acqs.is_empty())
                }
                _ => ff.lint_prod.iter().any(|f| f.rule == entry.rule),
            }
        });
        if !justified {
            out.push(Diagnostic {
                path: "lint.allow.toml".into(),
                line: entry.defined_at,
                rule: "A3".into(),
                severity: "deny".into(),
                message: format!(
                    "stale allowlist entry: no {} finding remains under `{}` \u{2014} \
                     delete the entry",
                    entry.rule, entry.path
                ),
            });
        }
    }

    for ff in files {
        for w in &ff.waivers {
            let lines = [w.line, w.line.saturating_add(1)];
            let (live, what) = match w.rule.as_str() {
                "A1" => (
                    ff.fns
                        .iter()
                        .flat_map(|f| &f.seeds)
                        .any(|s| lines.contains(&s.line)),
                    "a panic-family seed".to_string(),
                ),
                "A2" => (
                    ff.a2_local.iter().any(|f| lines.contains(&f.line)),
                    "an A2 unit finding".to_string(),
                ),
                "A4" => (
                    ff.a4.iter().any(|s| lines.contains(&s.line)),
                    "an A4 interval site".to_string(),
                ),
                "A6" => (
                    ff.fns
                        .iter()
                        .flat_map(|f| &f.nondet)
                        .any(|n| lines.contains(&n.line)),
                    "an A6 nondeterminism source".to_string(),
                ),
                "A7" => (
                    ff.fns
                        .iter()
                        .flat_map(|f| &f.allocs)
                        .any(|a| lines.contains(&a.line)),
                    "an A7 allocation site".to_string(),
                ),
                "A8" => (
                    // A loop sanction sits above the loop keyword; a
                    // recursion / hot-path sanction sits above the
                    // `fn` line of a function that makes calls.
                    ff.fns.iter().any(|f| {
                        f.loops.iter().any(|l| lines.contains(&l.line))
                            || (lines.contains(&f.line) && !f.calls.is_empty())
                    }),
                    "an A8 loop or recursive function".to_string(),
                ),
                "A5" => (
                    ff.atomics
                        .iter()
                        .any(|a| a.ordering != "Relaxed" && lines.contains(&a.line))
                        || ff.fns.iter().any(|f| {
                            f.blocking.iter().any(|b| lines.contains(&b.line))
                                || f.lock_acqs.iter().any(|(_, l)| lines.contains(l))
                                || f.calls
                                    .iter()
                                    .any(|c| c.in_spawn && lines.contains(&c.line))
                        }),
                    "an A5 concurrency site".to_string(),
                ),
                rule => (
                    ff.lint_all
                        .iter()
                        .any(|f| f.rule == rule && lines.contains(&f.line)),
                    format!("an {rule} finding"),
                ),
            };
            if !live {
                out.push(Diagnostic {
                    path: ff.rel_path.clone(),
                    line: w.line,
                    rule: "A3".into(),
                    severity: "deny".into(),
                    message: format!(
                        "stale inline waiver `analyze: allow({})`: {what} no longer exists \
                         on this line or the next \u{2014} remove the comment",
                        w.rule
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

    fn entry(path: &str, rule: &str) -> AllowEntry {
        AllowEntry {
            path: path.into(),
            rule: rule.into(),
            defined_at: 3,
        }
    }

    #[test]
    fn live_allowlist_entry_is_quiet() {
        // Bare indexing in a lib crate produces an L3 warning.
        let ff = parse_file(
            "crates/mckp/src/dp.rs",
            "fn f(v: &[u8], i: usize) -> u8 { v[i] }\n",
        );
        let diags = check(&[ff], &[entry("crates/mckp/src/dp.rs", "L3")]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_allowlist_entry_is_denied() {
        let ff = parse_file("crates/mckp/src/dp.rs", "fn f() {}\n");
        let diags = check(&[ff], &[entry("crates/mckp/src/dp.rs", "L3")]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "A3");
        assert_eq!(diags[0].path, "lint.allow.toml");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn directory_entry_is_justified_by_any_file_below_it() {
        let live = parse_file(
            "crates/mckp/src/dp.rs",
            "fn f(v: &[u8], i: usize) -> u8 { v[i] }\n",
        );
        let diags = check(&[live], &[entry("crates/mckp/src/", "L3")]);
        assert!(diags.is_empty(), "{diags:?}");
        // A sibling crate's finding does not justify the entry.
        let stray = parse_file(
            "crates/sim/src/system.rs",
            "fn f(v: &[u8], i: usize) -> u8 { v[i] }\n",
        );
        let diags = check(&[stray], &[entry("crates/mckp/src/", "L3")]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "A3");
    }

    #[test]
    fn entry_for_missing_file_is_denied() {
        let ff = parse_file("crates/mckp/src/dp.rs", "fn f() {}\n");
        let diags = check(&[ff], &[entry("crates/mckp/src/gone.rs", "L3")]);
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn stale_inline_waiver_is_denied() {
        let ff = parse_file(
            "crates/core/src/x.rs",
            "fn f() {\n    // analyze: allow(L3): nothing here anymore\n    let _x = 1;\n}\n",
        );
        let diags = check(&[ff], &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("stale inline waiver"));
    }

    #[test]
    fn live_inline_waiver_is_quiet() {
        let ff = parse_file(
            "crates/core/src/x.rs",
            "fn f(v: &[u8], i: usize) -> u8 {\n    \
             // analyze: allow(L3): structurally in bounds\n    v[i]\n}\n",
        );
        let diags = check(&[ff], &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn l6_waiver_requires_relaxed_token() {
        let live = parse_file(
            "crates/obs/src/x.rs",
            "fn f(c: &std::sync::atomic::AtomicU64) {\n    \
             // analyze: allow(L6): independent counter\n    \
             c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);\n}\n",
        );
        assert!(check(&[live], &[]).is_empty());
        let dead = parse_file(
            "crates/obs/src/x.rs",
            "fn f() {\n    // analyze: allow(L6): nothing\n    let _x = 1;\n}\n",
        );
        assert_eq!(check(&[dead], &[]).len(), 1);
    }
}
