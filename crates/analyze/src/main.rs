//! `rto-analyze` CLI.
//!
//! ```text
//! rto-analyze [--root DIR] [--format human|json|sarif] [--out FILE]
//!             [--bench-out FILE] [--no-cache]
//! ```
//!
//! Exit codes: `0` clean (warnings allowed), `1` at least one deny
//! diagnostic or a warning count above its budget, `2` internal error
//! (I/O, malformed allowlist or budget file, bad usage).

use std::path::PathBuf;
use std::time::Instant;

fn main() {
    std::process::exit(run());
}

/// Parsed command line.
struct Opts {
    root: Option<PathBuf>,
    format: String,
    out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    use_cache: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        format: "human".into(),
        out: None,
        bench_out: None,
        use_cache: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ));
            }
            "--format" => {
                let f = args.next().ok_or("--format needs a value")?;
                if !matches!(f.as_str(), "human" | "json" | "sarif") {
                    return Err(format!("unknown format `{f}` (human|json|sarif)"));
                }
                opts.format = f;
            }
            "--out" => {
                opts.out = Some(PathBuf::from(args.next().ok_or("--out needs a path")?));
            }
            "--bench-out" => {
                opts.bench_out = Some(PathBuf::from(
                    args.next().ok_or("--bench-out needs a path")?,
                ));
            }
            "--no-cache" => opts.use_cache = false,
            "--help" | "-h" => {
                return Err(
                    "usage: rto-analyze [--root DIR] [--format human|json|sarif] \
                     [--out FILE] [--bench-out FILE] [--no-cache]"
                        .into(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn run() -> i32 {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rto-analyze: {e}");
            return 2;
        }
    };
    let root = match opts.root {
        Some(r) => r,
        None => match rto_analyze::find_workspace_root() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("rto-analyze: {e}");
                return 2;
            }
        },
    };

    let budgets = match read_budgets(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("rto-analyze: {e}");
            return 2;
        }
    };

    let start = Instant::now();
    let analysis = match rto_analyze::analyze_workspace(&root, opts.use_cache) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rto-analyze: {e}");
            return 2;
        }
    };
    let elapsed_us = start.elapsed().as_micros();

    let rendered = match opts.format.as_str() {
        "json" => rto_analyze::sarif::json(&analysis.diagnostics),
        "sarif" => rto_analyze::sarif::sarif(&analysis.diagnostics),
        _ => rto_analyze::sarif::human(&analysis.diagnostics),
    };
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("rto-analyze: cannot write {}: {e}", path.display());
            return 2;
        }
    } else {
        print!("{rendered}");
    }

    if let Some(path) = &opts.bench_out {
        let bench = format!(
            "{{\n  \"elapsed_us\": {elapsed_us},\n  \"parse_us\": {},\n  \
             \"files_total\": {},\n  \"files_reparsed\": {},\n  \"diagnostics\": {}\n}}\n",
            analysis.parse_us,
            analysis.files_total,
            analysis.files_reparsed,
            analysis.diagnostics.len()
        );
        if let Err(e) = std::fs::write(path, bench) {
            eprintln!("rto-analyze: cannot write {}: {e}", path.display());
            return 2;
        }
    }

    eprintln!(
        "rto-analyze: {} files ({} reparsed), {} diagnostics, {:.1} ms",
        analysis.files_total,
        analysis.files_reparsed,
        analysis.diagnostics.len(),
        elapsed_us as f64 / 1000.0
    );

    if let Some(code) = enforce_budgets(&budgets, &analysis.diagnostics) {
        return code;
    }

    if analysis
        .diagnostics
        .iter()
        .any(rto_analyze::Diagnostic::is_deny)
    {
        1
    } else {
        0
    }
}

/// The warning-budget ratchets: `(rule, key)` pairs of
/// `analyze.budget.toml` at the workspace root.
const BUDGET_KEYS: [(&str, &str); 4] = [
    ("A4", "a4_warn_max"),
    ("A6", "a6_warn_max"),
    ("A7", "a7_warn_max"),
    ("A8", "a8_warn_max"),
];

/// Read the committed warning budgets. An absent file means no budget
/// (fixture workspaces); a present file must give every key of
/// [`BUDGET_KEYS`] a decimal value, or the run fails with exit 2 like a
/// malformed allowlist, so a typo cannot silently turn a ratchet off.
fn read_budgets(root: &std::path::Path) -> Result<Vec<(&'static str, usize)>, String> {
    let path = root.join("analyze.budget.toml");
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_budgets(&text).map_err(|e| format!("analyze.budget.toml: {e}"))
}

/// Parse `key = <decimal>` lines (a trailing `# comment` is allowed)
/// into one ceiling per rule of [`BUDGET_KEYS`].
fn parse_budgets(text: &str) -> Result<Vec<(&'static str, usize)>, String> {
    BUDGET_KEYS
        .iter()
        .map(|&(rule, key)| {
            let value = text
                .lines()
                .find_map(|line| {
                    let rest = line.split('#').next().unwrap_or("").trim();
                    let (k, v) = rest.split_once('=')?;
                    (k.trim() == key).then(|| v.trim())
                })
                .ok_or_else(|| format!("missing `{key}`"))?;
            let max = Some(value)
                .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| format!("`{key}` must be a decimal count, got `{value}`"))?;
            Ok((rule, max))
        })
        .collect()
}

/// Enforce the warning-budget ratchets: the build fails when a residual
/// warning count rises above its ceiling, and contributors lower the
/// ceilings as they discharge warnings. Returns `Some(exit code)` on
/// the first failure.
fn enforce_budgets(budgets: &[(&str, usize)], diags: &[rto_analyze::Diagnostic]) -> Option<i32> {
    for &(rule, max) in budgets {
        let count = diags
            .iter()
            .filter(|d| d.rule == rule && d.severity == "warn")
            .count();
        if count > max {
            eprintln!(
                "rto-analyze: {rule} warning budget exceeded: {count} warnings > ceiling {max} \
                 (analyze.budget.toml); discharge the new warnings instead of raising the ceiling"
            );
            return Some(1);
        }
        eprintln!("rto-analyze: {rule} warning budget: {count}/{max}");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "a4_warn_max = 0\na6_warn_max = 1\na7_warn_max = 2\na8_warn_max = 3\n";

    #[test]
    fn every_key_parses_with_comments_allowed() {
        let got = parse_budgets(FULL).expect("valid budgets");
        assert_eq!(got, [("A4", 0), ("A6", 1), ("A7", 2), ("A8", 3)]);
        let noted = FULL.replace("a4_warn_max = 0", "a4_warn_max = 0  # note");
        assert_eq!(parse_budgets(&noted).expect("comment")[0], ("A4", 0));
    }

    #[test]
    fn missing_or_malformed_values_are_errors() {
        let missing = FULL.replace("a7_warn_max = 2\n", "");
        assert!(parse_budgets(&missing)
            .unwrap_err()
            .contains("missing `a7_warn_max`"));
        for bad in ["\"0\"", "-1", "0x10", "", "1.5"] {
            let text = FULL.replace("a4_warn_max = 0", &format!("a4_warn_max = {bad}"));
            assert!(
                parse_budgets(&text).unwrap_err().contains("a4_warn_max"),
                "`{bad}` must be rejected"
            );
        }
    }
}
