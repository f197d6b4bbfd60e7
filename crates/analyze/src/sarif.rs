//! Output rendering: human, JSON, and SARIF 2.1.0.
//!
//! All three formats render the same sorted diagnostic list, so any
//! two runs that agree on diagnostics produce byte-identical output —
//! the property the warm-cache CI check asserts. JSON is emitted by
//! hand (the workspace is dependency-free by policy); only the small
//! SARIF subset GitHub code scanning consumes is produced: tool driver
//! with rule metadata, and one `result` per diagnostic with a physical
//! location.

use crate::Diagnostic;

/// Rule metadata shared by the JSON and SARIF writers.
const RULES: &[(&str, &str)] = &[
    (
        "A1",
        "Panic reachable from public API: a panic!/unwrap/expect/indexing site is \
         transitively reachable through the call graph.",
    ),
    (
        "A2",
        "Units-of-measure conflict: nanosecond/millisecond/ratio quantities mixed, or an \
         unguarded difference used as a divisor.",
    ),
    (
        "A3",
        "Stale waiver: an allowlist entry or inline waiver no longer matches any finding.",
    ),
    (
        "A4",
        "Value-range hazard: interval analysis could not prove a cast lossless, a divisor \
         nonzero, a difference non-negative, or a sum/product in range.",
    ),
    (
        "A5",
        "Concurrency hazard: unjustified non-Relaxed atomic ordering, a lock-order cycle, \
         or a blocking call reachable from a spawned worker closure.",
    ),
    (
        "A6",
        "Determinism hazard: a public function of a replay-scoped crate can reach a \
         nondeterminism source (hash-ordered iteration, wall clock, thread id, ambient \
         RNG, environment or filesystem read).",
    ),
    (
        "A7",
        "Hot-path allocation: an allocating construct (unsized growth, String/format!, \
         Box/Rc churn, collect) is reachable from a function annotated \
         `// analyze: hot-path`.",
    ),
    (
        "A8",
        "Termination hazard: a loop without a trip-count bound or monotone progress \
         witness, recursion without a decreasing argument, or a \u{22a4}-step-bound \
         function reachable from a `// analyze: hot-path` root.",
    ),
    (
        "L1",
        "Raw nanosecond arithmetic: `+ - * / %` on a `*_ns` value or an `as_ns()` result \
         outside core/src/time.rs.",
    ),
    (
        "L2",
        "Exact float comparison: `==` or `!=` against a float literal.",
    ),
    (
        "L3",
        "Panic in library code: unwrap/expect/panic-family macro (deny) or bare slice \
         indexing (warn) in a library crate.",
    ),
    (
        "L4",
        "Lossy time cast: an `as` cast that can truncate a nanosecond value.",
    ),
    (
        "L5",
        "Wall clock in a seed-deterministic crate: `std::time` or `SystemTime` in core or \
         sim.",
    ),
    (
        "L6",
        "Unjustified relaxed ordering: `Ordering::Relaxed` in obs without a waiver stating \
         why no happens-before edge is needed.",
    ),
];

/// Render diagnostics for terminals: `path:line: [rule/severity] msg`.
#[must_use]
pub fn human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}:{}: [{}/{}] {}\n",
            d.path, d.line, d.rule, d.severity, d.message
        ));
    }
    let denies = diags.iter().filter(|d| d.is_deny()).count();
    let warns = diags.len() - denies;
    out.push_str(&format!("rto-analyze: {denies} deny, {warns} warn\n"));
    out
}

/// Minimal JSON escaping for string values.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a JSON array of objects.
#[must_use]
pub fn json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"severity\":\"{}\",\
             \"message\":\"{}\"}}",
            esc(&d.path),
            d.line,
            esc(&d.rule),
            esc(&d.severity),
            esc(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Render diagnostics as a SARIF 2.1.0 log.
#[must_use]
pub fn sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"rto-analyze\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        env!("CARGO_PKG_VERSION")
    ));
    out.push_str("          \"informationUri\": \"https://example.invalid/rto\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{id}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            esc(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let level = if d.is_deny() { "error" } else { "warning" };
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"{level}\", \"message\": {{\"text\": \
             \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
             {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            esc(&d.rule),
            esc(&d.message),
            esc(&d.path),
            d.line,
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(path: &str, line: u32, rule: &str, sev: &str, msg: &str) -> Diagnostic {
        Diagnostic {
            path: path.into(),
            line,
            rule: rule.into(),
            severity: sev.into(),
            message: msg.into(),
        }
    }

    #[test]
    fn human_counts_severities() {
        let d = vec![
            diag("a.rs", 1, "A1", "deny", "m1"),
            diag("b.rs", 2, "A2", "warn", "m2"),
        ];
        let h = human(&d);
        assert!(h.contains("a.rs:1: [A1/deny] m1"));
        assert!(h.contains("1 deny, 1 warn"));
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let d = vec![diag("a.rs", 1, "A2", "deny", "saw `\"x\\y\"` here")];
        let j = json(&d);
        assert!(j.contains("\\\"x\\\\y\\\""), "{j}");
    }

    #[test]
    fn sarif_has_schema_rules_and_levels() {
        let d = vec![
            diag("crates/core/src/a.rs", 7, "A1", "deny", "boom"),
            diag("crates/sim/src/b.rs", 9, "A1", "warn", "maybe"),
        ];
        let s = sarif(&d);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("sarif-schema-2.1.0.json"));
        for id in [
            "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "L1", "L2", "L3", "L4", "L5", "L6",
        ] {
            assert!(s.contains(&format!("\"id\": \"{id}\"")), "{s}");
        }
        assert!(s.contains("\"level\": \"error\""));
        assert!(s.contains("\"level\": \"warning\""));
        assert!(s.contains("\"startLine\": 7"));
        assert!(s.contains("\"uri\": \"crates/core/src/a.rs\""));
    }

    #[test]
    fn empty_reports_are_well_formed() {
        assert_eq!(json(&[]), "[]\n");
        let s = sarif(&[]);
        assert!(s.contains("\"results\": [\n      ]"));
    }
}
