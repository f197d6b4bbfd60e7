//! Fixture-based self-tests for the token tier (L1–L6) and the one
//! waiver grammar, `// analyze: allow(RULE): reason`.
//!
//! Each file in `tests/fixtures/l*.rs` violates **exactly one** token
//! rule at the line marked `// VIOLATION`. The tests stage a fixture in
//! a throwaway workspace at a path that puts it in its rule's scope,
//! run the analyzer on that workspace, and assert the rule id, span,
//! severity, and what does and does not clear the finding. The CLI
//! tests assert the exit codes.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use rto_analyze::{analyze_workspace, Diagnostic};

/// `(fixture, staged path, rule)` for every token rule.
const FIXTURES: [(&str, &str, &str); 6] = [
    ("l1.rs", "crates/sim/src/l1.rs", "L1"),
    ("l2.rs", "crates/core/src/l2.rs", "L2"),
    ("l3.rs", "crates/core/src/l3.rs", "L3"),
    ("l4.rs", "crates/sim/src/l4.rs", "L4"),
    ("l5.rs", "crates/core/src/l5.rs", "L5"),
    ("l6.rs", "crates/obs/src/l6.rs", "L6"),
];

fn fixture(name: &str) -> String {
    let p = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {p}: {e}"))
}

/// 1-based line of the `// VIOLATION` marker.
fn violation_line(src: &str) -> u32 {
    let idx = src
        .lines()
        .position(|l| l.contains("// VIOLATION"))
        .expect("fixture has a VIOLATION marker");
    u32::try_from(idx).expect("fixture fits in u32") + 1
}

/// A throwaway workspace under the system temp dir.
struct TempWs {
    root: PathBuf,
}

impl TempWs {
    fn new(tag: &str) -> TempWs {
        let root =
            std::env::temp_dir().join(format!("rto-analyze-selftest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp workspace");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write manifest");
        TempWs { root }
    }

    fn put(&self, rel: &str, content: &str) {
        let p = self.root.join(rel);
        if let Some(dir) = p.parent() {
            fs::create_dir_all(dir).expect("mkdir");
        }
        fs::write(p, content).expect("write file");
    }

    fn analyze(&self) -> Vec<Diagnostic> {
        analyze_workspace(&self.root, false)
            .expect("analysis")
            .diagnostics
    }

    fn cli(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_rto-analyze"))
            .arg("--root")
            .arg(&self.root)
            .arg("--no-cache")
            .args(args)
            .output()
            .expect("spawn rto-analyze")
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// The `rule` diagnostics after staging `src` at `rel`.
fn findings_of(tag: &str, rel: &str, src: &str, rule: &str) -> Vec<Diagnostic> {
    let ws = TempWs::new(tag);
    ws.put(rel, src);
    ws.analyze()
        .into_iter()
        .filter(|d| d.rule == rule)
        .collect()
}

/// Assert the fixture yields exactly one finding of its rule: deny, at
/// the marked line, in the staged file.
fn assert_single(name: &str, rel: &str, rule: &str) {
    let src = fixture(name);
    let found = findings_of(rule, rel, &src, rule);
    assert_eq!(found.len(), 1, "{name}: expected one {rule}, got {found:?}");
    assert_eq!(found[0].severity, "deny", "{name}: wrong severity");
    assert_eq!(found[0].line, violation_line(&src), "{name}: wrong span");
    assert_eq!(found[0].path, rel, "{name}: wrong path");
}

#[test]
fn l1_fixture_raw_ns_arithmetic() {
    assert_single("l1.rs", "crates/sim/src/l1.rs", "L1");
}

#[test]
fn l2_fixture_float_equality() {
    assert_single("l2.rs", "crates/core/src/l2.rs", "L2");
}

#[test]
fn l3_fixture_unwrap_in_lib() {
    assert_single("l3.rs", "crates/core/src/l3.rs", "L3");
}

#[test]
fn l4_fixture_lossy_time_cast() {
    assert_single("l4.rs", "crates/sim/src/l4.rs", "L4");
}

#[test]
fn l5_fixture_wall_clock() {
    assert_single("l5.rs", "crates/core/src/l5.rs", "L5");
}

#[test]
fn l6_fixture_unjustified_relaxed() {
    assert_single("l6.rs", "crates/obs/src/l6.rs", "L6");
}

#[test]
fn inline_waiver_clears_each_fixture() {
    for (name, rel, rule) in FIXTURES {
        let src = fixture(name).replace(
            "// VIOLATION",
            &format!("// analyze: allow({rule}): fixture waiver test"),
        );
        let ws = TempWs::new(&format!("waived-{rule}"));
        ws.put(rel, &src);
        let diags = ws.analyze();
        assert!(
            !diags.iter().any(|d| d.rule == rule),
            "{name}: the waiver should clear {rule}: {diags:?}"
        );
        // The waiver is live, so A3 has nothing to report.
        assert!(
            !diags.iter().any(|d| d.rule == "A3"),
            "{name}: live waiver reported stale: {diags:?}"
        );
    }
}

#[test]
fn waivers_outside_the_grammar_do_not_clear() {
    for (name, rel, rule) in FIXTURES {
        let mut spellings = vec![
            // No reason.
            format!("// analyze: allow({rule}):"),
            // A doc comment only describes the syntax.
            format!("/// analyze: allow({rule}): doc comment"),
            // The retired spelling is just a comment now.
            format!("// lint: allow({rule}): old spelling"),
        ];
        if rule == "L6" {
            spellings.push("// lint: relaxed-ok: old spelling".to_string());
        }
        for spelling in spellings {
            let src = fixture(name).replace("// VIOLATION", &spelling);
            let found = findings_of(&format!("hollow-{rule}"), rel, &src, rule);
            assert_eq!(found.len(), 1, "{name} with `{spelling}`: {found:?}");
        }
    }
}

#[test]
fn analyze_spelling_waives_an_a1_seed() {
    // An `allow(A1)` waiver makes the unwrap a documented contract for
    // panic reachability; the per-site L3 finding is a separate rule
    // and stays.
    let src = "pub fn first(xs: Option<u32>) -> u32 {\n    \
               // analyze: allow(A1): callers check `is_some` first\n    \
               xs.unwrap()\n}\n";
    let ws = TempWs::new("a1-seed");
    ws.put("crates/core/src/seed.rs", src);
    let diags = ws.analyze();
    let rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
    assert_eq!(rules, ["L3"], "{diags:?}");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn cli_exits_one_on_each_fixture() {
    for (name, rel, rule) in FIXTURES {
        let ws = TempWs::new(&format!("cli-{rule}"));
        ws.put(rel, &fixture(name));
        let out = ws.cli(&[]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: expected exit 1, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!(
                "{rel}:{}: [{rule}/deny] ",
                violation_line(&fixture(name))
            )),
            "{name}: stdout should name {rule}: {stdout}"
        );
    }
}

#[test]
fn cli_exempts_tests_and_honours_the_allowlist() {
    let ws = TempWs::new("ws");
    ws.put(
        "crates/sim/src/clean.rs",
        "pub fn ok(x: u64) -> u64 { x }\n",
    );
    ws.put("crates/sim/src/bad.rs", &fixture("l1.rs"));
    // Test directories are exempt.
    ws.put("crates/sim/tests/itest.rs", &fixture("l1.rs"));

    let out = ws.cli(&["--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\":\"L1\""), "json: {json}");
    assert!(json.contains("crates/sim/src/bad.rs"), "json: {json}");
    assert!(!json.contains("itest.rs"), "tests/ must be exempt: {json}");

    // An allowlist entry with a reason clears the run.
    ws.put(
        "lint.allow.toml",
        "[[allow]]\npath = \"crates/sim/src/bad.rs\"\nrule = \"L1\"\nreason = \"fixture\"\n",
    );
    let out = ws.cli(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "allowlisted run should pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cli_rejects_malformed_allowlist() {
    let ws = TempWs::new("allow");
    ws.put(
        "crates/core/src/clean.rs",
        "pub fn ok(x: u64) -> u64 { x }\n",
    );
    // Missing reason: hard error, exit 2.
    ws.put(
        "lint.allow.toml",
        "[[allow]]\npath = \"x.rs\"\nrule = \"L1\"\n",
    );
    let out = ws.cli(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("reason"));
}

#[test]
fn cli_rejects_malformed_budget_file() {
    let ws = TempWs::new("budget");
    ws.put(
        "crates/core/src/clean.rs",
        "pub fn ok(x: u64) -> u64 { x }\n",
    );
    ws.put(
        "analyze.budget.toml",
        "a4_warn_max = \"0\"\na6_warn_max = 0\na7_warn_max = 0\na8_warn_max = 0\n",
    );
    let out = ws.cli(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("a4_warn_max"));
}
