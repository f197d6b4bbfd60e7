//! End-to-end analysis of the fixture workspace under
//! `tests/fixtures/ws`: trait dispatch, closures, cross-module and
//! cross-crate calls, inline + allowlist waivers, and a golden SARIF
//! snapshot.
//!
//! Regenerate the snapshot after an intentional behavior change with:
//!
//! ```text
//! BLESS=1 cargo test -p rto-analyze --test fixture_ws
//! ```

use rto_analyze::{analyze_workspace, sarif, Analysis};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn analyze() -> Analysis {
    analyze_workspace(&fixture_root(), false).expect("fixture analysis")
}

/// All diagnostics whose rule is `rule`, as `path:line message`.
fn of_rule(a: &Analysis, rule: &str) -> Vec<String> {
    a.diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| format!("{}:{} {}", d.path, d.line, d.message))
        .collect()
}

#[test]
fn a1_reachability_set_is_exact() {
    let a = analyze();
    let a1 = of_rule(&a, "A1");
    // Tainted: cross-module closure chain, trait dispatch (caller and
    // the panicking impl), and direct indexing in the warn crate.
    assert!(
        a1.iter()
            .any(|m| m.contains("`schedule`") && m.contains("pick")),
        "{a1:?}"
    );
    assert!(
        a1.iter()
            .any(|m| m.contains("`run_any`") && m.contains("solve")),
        "{a1:?}"
    );
    assert!(a1.iter().any(|m| m.contains("`Reckless::solve`")), "{a1:?}");
    assert!(a1.iter().any(|m| m.contains("`render`")), "{a1:?}");
    // Clean, waived, or allowlisted surfaces stay silent.
    for quiet in [
        "`settle_ns`",
        "`contract`",
        "`lookup`",
        "`Careful::solve`",
        "`deadline_check`",
    ] {
        assert!(
            !a1.iter().any(|m| m.contains(quiet)),
            "{quiet} must not be A1-tainted: {a1:?}"
        );
    }
    assert_eq!(a1.len(), 4, "{a1:?}");
    // Severity mapping: deny in core, warn in sim.
    for d in a.diagnostics.iter().filter(|d| d.rule == "A1") {
        let expect = if d.path.starts_with("crates/core/") {
            "deny"
        } else {
            "warn"
        };
        assert_eq!(d.severity, expect, "{d:?}");
    }
}

#[test]
fn a2_findings_cover_local_and_interprocedural() {
    let a = analyze();
    let a2 = of_rule(&a, "A2");
    assert!(
        a2.iter()
            .any(|m| m.contains("within_ns") && m.contains("expects ns")),
        "interprocedural arg/param mismatch: {a2:?}"
    );
    assert!(
        a2.iter().any(|m| m.contains("unguarded difference")),
        "{a2:?}"
    );
    assert!(a2.iter().any(|m| m.contains("cross-unit `+`")), "{a2:?}");
    assert_eq!(a2.len(), 3, "{a2:?}");
}

#[test]
fn a3_reports_stale_waivers_only() {
    let a = analyze();
    let a3 = of_rule(&a, "A3");
    assert!(
        a3.iter()
            .any(|m| m.starts_with("lint.allow.toml") && m.contains("gone.rs")),
        "{a3:?}"
    );
    assert!(
        a3.iter()
            .any(|m| m.contains("crates/sim/src/lib.rs") && m.contains("allow(L1)")),
        "{a3:?}"
    );
    assert_eq!(a3.len(), 2, "live waivers must stay quiet: {a3:?}");
}

#[test]
fn a4_interval_findings_carry_witness_intervals() {
    let a = analyze();
    let a4 = of_rule(&a, "A4");
    // Float truncation with an unbounded witness.
    assert!(
        a4.iter()
            .any(|m| m.contains("(p / k).floor()") && m.contains("as u32")),
        "{a4:?}"
    );
    // Widened loop accumulator reports the settled type-range witness.
    assert!(
        a4.iter()
            .any(|m| m.contains("`acc` ∈ [0, 2^64-1]") && m.contains("as u32")),
        "{a4:?}"
    );
    // Exact-operand overflow is definite ("exceeds", not "not provably").
    assert!(
        a4.iter()
            .any(|m| m.contains("[6000000000, 6000000000]") && m.contains("exceeds")),
        "{a4:?}"
    );
    // Unguarded divisors, local (fixture mckp) and in fixture core.
    assert!(
        a4.iter()
            .any(|m| m.contains("total / k") && m.contains("contains zero")),
        "{a4:?}"
    );
    assert!(
        a4.iter()
            .any(|m| m.starts_with("crates/core/src/lib.rs:36") && m.contains("contains zero")),
        "{a4:?}"
    );
    assert_eq!(a4.len(), 8, "{a4:?}");
    // Clean or waived counterparts stay quiet.
    for line in [13, 14, 38, 42, 49] {
        assert!(
            !a4.iter()
                .any(|m| m.starts_with(&format!("crates/mckp/src/fptas.rs:{line} "))),
            "line {line} must be quiet: {a4:?}"
        );
    }
    // Severity: deny on the mckp deny path, warn elsewhere.
    for d in a.diagnostics.iter().filter(|d| d.rule == "A4") {
        let expect = if d.path.starts_with("crates/mckp/") {
            "deny"
        } else {
            "warn"
        };
        assert_eq!(d.severity, expect, "{d:?}");
    }
}

#[test]
fn a5_detects_cycle_ordering_and_blocking_in_workers() {
    let a = analyze();
    let a5 = of_rule(&a, "A5");
    // Direct blocking site inside the spawned closure.
    assert!(
        a5.iter()
            .any(|m| m.contains("fs::read") && m.contains("inside a spawned worker")),
        "{a5:?}"
    );
    // Interprocedural: the closure only calls a helper that blocks.
    assert!(
        a5.iter()
            .any(|m| m.contains("`load_trials`") && m.contains("reaches file I/O")),
        "{a5:?}"
    );
    // Unjustified non-Relaxed ordering outside obs.
    assert!(a5.iter().any(|m| m.contains("Ordering::AcqRel")), "{a5:?}");
    // Seeded lock-order cycle, reported once per unordered pair.
    assert!(
        a5.iter()
            .any(|m| m.contains("lock-order cycle: `a` and `b`")),
        "{a5:?}"
    );
    assert_eq!(a5.len(), 4, "{a5:?}");
    // Quiet: justified Release store, Relaxed ops, and the `a` → `c`
    // pair that keeps a consistent order.
    assert!(
        !a5.iter().any(|m| m.contains("Ordering::Release")),
        "{a5:?}"
    );
    assert!(!a5.iter().any(|m| m.contains("`c`")), "{a5:?}");
    // All fixture A5 findings land in the deny crate.
    for d in a.diagnostics.iter().filter(|d| d.rule == "A5") {
        assert_eq!(d.severity, "deny", "{d:?}");
    }
}

#[test]
fn a6_determinism_set_is_exact() {
    let a = analyze();
    let a6 = of_rule(&a, "A6");
    // Interprocedural witness: the public caller names the tainted
    // helper and the order-sensitive reduction it performs.
    assert!(
        a6.iter().any(|m| m.contains("`report`")
            && m.contains("report → tally")
            && m.contains("`sum` reduction")),
        "{a6:?}"
    );
    // Direct `for` loop over a hash container.
    assert!(
        a6.iter()
            .any(|m| m.contains("`drain`") && m.contains("`for` over hash-ordered")),
        "{a6:?}"
    );
    // Each remaining source kind appears once.
    for (fname, source) in [
        ("`stamp`", "wall-clock read"),
        ("`worker_tag`", "thread::current()"),
        ("`fresh_hasher`", "ambient hasher seed"),
        ("`configured`", "environment read"),
        ("`jitter`", "ambient RNG"),
        ("`spawn_reader`", "filesystem read"),
    ] {
        assert!(
            a6.iter().any(|m| m.contains(fname) && m.contains(source)),
            "{fname} with {source}: {a6:?}"
        );
    }
    // Interprocedural filesystem taint carries the chain.
    assert!(
        a6.iter()
            .any(|m| m.contains("spawn_loader → load_trials → filesystem read")),
        "{a6:?}"
    );
    // Quiet: membership-only hash use, ordered containers, sanctioned
    // sinks, and private sources no public function reaches.
    for quiet in ["`dedup`", "`ordered_total`", "`manifest`", "`idle_probe`"] {
        assert!(
            !a6.iter().any(|m| m.contains(quiet)),
            "{quiet} must not be A6-tainted: {a6:?}"
        );
    }
    assert_eq!(a6.len(), 9, "{a6:?}");
    // Severity: deny in sim/exp (replay-scoped), warn in mckp.
    for d in a.diagnostics.iter().filter(|d| d.rule == "A6") {
        let expect = if d.path.starts_with("crates/mckp/") {
            "warn"
        } else {
            "deny"
        };
        assert_eq!(d.severity, expect, "{d:?}");
    }
}

#[test]
fn a7_hotpath_set_is_exact() {
    let a = analyze();
    let a7 = of_rule(&a, "A7");
    // Every allocation kind fires directly inside an annotated hot
    // function, with `hot `...`` provenance.
    for (site, fname) in [
        ("`format!`", "emit_row"),
        ("`Box::new`", "box_event"),
        ("`.collect()`", "snapshot"),
        ("`buf.push(..)`", "enqueue"),
    ] {
        assert!(
            a7.iter()
                .any(|m| m.contains(site) && m.contains(&format!("hot `{fname}`"))),
            "{site} in {fname}: {a7:?}"
        );
    }
    // Reachable-only allocation warns and carries the call chain.
    assert!(
        a7.iter().any(
            |m| m.contains("`vec![..]`") && m.contains("reachable from hot: drain_all → stage")
        ),
        "{a7:?}"
    );
    // Quiet: sanctioned site, unannotated function, and growth vouched
    // for by file-level capacity evidence.
    for quiet in ["`label`", "`setup`", "`refill`"] {
        assert!(
            !a7.iter().any(|m| m.contains(quiet)),
            "{quiet} must be quiet: {a7:?}"
        );
    }
    assert_eq!(a7.len(), 5, "{a7:?}");
    // Severity: deny when directly hot, warn when merely reachable.
    let denies = a
        .diagnostics
        .iter()
        .filter(|d| d.rule == "A7" && d.severity == "deny")
        .count();
    let warns = a
        .diagnostics
        .iter()
        .filter(|d| d.rule == "A7" && d.severity == "warn")
        .count();
    assert_eq!((denies, warns), (4, 1));
}

#[test]
fn a8_termination_set_is_exact() {
    let a = analyze();
    let a8 = of_rule(&a, "A8");
    // Deny path (sim/event.rs): unwitnessed spin, endless `for`, the
    // unbounded stage, and the hot-path ⊤ chain that reaches it.
    assert!(
        a8.iter()
            .any(|m| m.contains("`while q.busy()`") && m.contains("`spin`")),
        "{a8:?}"
    );
    assert!(
        a8.iter()
            .any(|m| m.contains("`drain_forever`") && m.contains("endless source")),
        "{a8:?}"
    );
    assert!(
        a8.iter()
            .any(|m| m.contains("`stall_stage`") && m.contains("no progress witness")),
        "{a8:?}"
    );
    assert!(
        a8.iter().any(|m| m.contains("hot-path `pump`")
            && m.contains("step bound ⊤")
            && m.contains("pump → relay_stage → stall_stage")),
        "{a8:?}"
    );
    // Warn scope (mckp/shapes.rs): direct and mutual recursion without
    // a decreasing argument.
    assert!(
        a8.iter().any(|m| m.contains("`churn` calls itself")),
        "{a8:?}"
    );
    assert!(
        a8.iter()
            .any(|m| m.contains("`flip` is mutually recursive with `flop`")),
        "{a8:?}"
    );
    assert!(
        a8.iter()
            .any(|m| m.contains("`flop` is mutually recursive with `flip`")),
        "{a8:?}"
    );
    // Quiet: monotone guard, top-level break, sanctioned spin, bounded
    // and exact-count `for`, decreasing recursion, sanctioned cycle.
    for quiet in [
        "`settle`",
        "`one_shot`",
        "`gated`",
        "`warm`",
        "`shrink`",
        "`ping`",
        "`pong`",
    ] {
        assert!(
            !a8.iter().any(|m| m.contains(quiet)),
            "{quiet} must be A8-quiet: {a8:?}"
        );
    }
    assert_eq!(a8.len(), 7, "{a8:?}");
    // Severity: deny on the scoped file, warn elsewhere in the product
    // crates; the hot-path ⊤ chain is always deny.
    for d in a.diagnostics.iter().filter(|d| d.rule == "A8") {
        let expect = if d.path == "crates/sim/src/event.rs" {
            "deny"
        } else {
            "warn"
        };
        assert_eq!(d.severity, expect, "{d:?}");
    }
}

#[test]
fn fixpoint_cycles_cut_at_top_with_provenance() {
    // The engine terminates on every cycle shape (this test finishing
    // is the termination witness) and tags diagnostics that lean on a
    // ⊤-cut summary with the cycle that forced the cut.
    let a = analyze();
    let a4 = of_rule(&a, "A4");
    // Direct recursion: one-node cycle.
    assert!(
        a4.iter().any(|m| m.starts_with("crates/sim/src/chain.rs")
            && m.contains("assumed ⊤: cycle through `countdown`")),
        "{a4:?}"
    );
    // Mutual recursion: both members named, sorted.
    assert!(
        a4.iter()
            .any(|m| m.contains("assumed ⊤: cycle through `even_steps`, `odd_steps`")),
        "{a4:?}"
    );
    // Cycle that only closes through a trait method.
    assert!(
        a4.iter()
            .any(|m| m.contains("assumed ⊤: cycle through `Pendulum::tick`, `swing`")),
        "{a4:?}"
    );
    // The 3-deep acyclic chain keeps the leaf's `% 16` bound through
    // two summary hops: `chain_top(x) as u8` is provably lossless.
    assert!(
        !a4.iter().any(|m| m.contains("chain_top")),
        "3-deep summary chain must stay precise: {a4:?}"
    );
}

/// Recursively copy the fixture workspace so cached runs can write
/// `target/rto-analyze/` without dirtying the source tree.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read_dir") {
        let entry = entry.expect("dir entry");
        let dst = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).expect("copy");
        }
    }
}

/// A fresh copy of the fixture workspace under the temp dir.
fn temp_copy(tag: &str) -> PathBuf {
    let tmp =
        std::env::temp_dir().join(format!("rto-analyze-fixture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    copy_tree(&fixture_root(), &tmp);
    tmp
}

#[test]
fn warm_cache_diagnostics_are_byte_identical() {
    let tmp = temp_copy("warm");
    let cold = analyze_workspace(&tmp, true).expect("cold run");
    let warm = analyze_workspace(&tmp, true).expect("warm run");
    assert_eq!(cold.files_reparsed, cold.files_total);
    assert_eq!(
        warm.files_reparsed, 0,
        "warm run must be served entirely from cache"
    );
    assert_eq!(
        sarif::sarif(&cold.diagnostics),
        sarif::sarif(&warm.diagnostics),
        "warm-cache diagnostics drifted from the cold run"
    );

    let _ = std::fs::remove_dir_all(&tmp);
}

/// Run the analyzer on `root` with and without the cache: the two
/// must agree and differ from `before`. Returns the new SARIF.
fn assert_cache_follows(root: &Path, before: &str, what: &str) -> String {
    let cached = analyze_workspace(root, true).expect("cached run");
    let fresh = analyze_workspace(root, false).expect("uncached run");
    let cached = sarif::sarif(&cached.diagnostics);
    assert_eq!(
        cached,
        sarif::sarif(&fresh.diagnostics),
        "{what}: the cached run replayed stale diagnostics"
    );
    assert_ne!(
        cached, before,
        "{what}: the edit must change the diagnostics"
    );
    cached
}

#[test]
fn cached_runs_follow_each_edit() {
    let tmp = temp_copy("edits");
    let cold = sarif::sarif(&analyze_workspace(&tmp, true).expect("cold").diagnostics);

    // A new public core fn that unwraps: A1 and L3 findings appear.
    let core_lib = tmp.join("crates/core/src/lib.rs");
    let mut src = std::fs::read_to_string(&core_lib).expect("read lib.rs");
    src.push_str("\npub fn fresh(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n");
    std::fs::write(&core_lib, src).expect("write lib.rs");
    let after_fn = assert_cache_follows(&tmp, &cold, "new unwrapping fn");

    // The stale `gone.rs` allowlist entry deleted: its A3 finding goes.
    let allow = tmp.join("lint.allow.toml");
    let text = std::fs::read_to_string(&allow).expect("read allowlist");
    let at = text
        .find("[[allow]]\npath = \"crates/core/src/gone.rs\"\n")
        .expect("gone.rs entry");
    std::fs::write(&allow, &text[..at]).expect("write allowlist");
    assert_cache_follows(&tmp, &after_fn, "stale entry deleted");

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn golden_sarif_snapshot() {
    let a = analyze();
    let rendered = sarif::sarif(&a.diagnostics);
    let golden = fixture_root().join("../expected.sarif");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&golden, &rendered).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden).expect("read expected.sarif");
    assert_eq!(
        rendered, expected,
        "SARIF drifted from tests/fixtures/expected.sarif; re-bless with BLESS=1 if intended"
    );
}

#[test]
fn repeat_runs_are_deterministic() {
    let first = sarif::sarif(&analyze().diagnostics);
    let second = sarif::sarif(&analyze().diagnostics);
    assert_eq!(first, second);
}

#[test]
fn parser_sees_through_lexical_traps() {
    // Seeds hidden inside raw strings, byte strings, and nested block
    // comments must not count; the real one after them must.
    let src = r####"
pub fn f(x: Option<u8>) -> u8 {
    let _doc = r#"call .unwrap() like this"#;
    /* .unwrap() in a comment /* nested */ */
    let _s = b"panic!(no)";
    x.unwrap()
}
"####;
    let facts = rto_analyze::parse::parse_file("crates/core/src/t.rs", src);
    let seeds = &facts.fns[0].seeds;
    assert_eq!(seeds.len(), 1, "{seeds:?}");
    assert_eq!(seeds[0].line, 6);
}
