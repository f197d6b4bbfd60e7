//! `rto-analyze`: the static analyzer for the rto workspace.
//!
//! The paper's guarantee is arithmetic — integer-nanosecond Theorem-3
//! densities `(C1 + C2)/(D − R)` — and the rules below keep it true
//! under refactoring. Two tiers share one lexer ([`lexer`]), one waiver
//! grammar, one allowlist and one report:
//!
//! * **Token tier, L1–L6** (`rules.rs`): per-site checks on the
//!   test-stripped token stream — raw nanosecond arithmetic (L1),
//!   float equality (L2), panics in library crates (L3), lossy time
//!   casts (L4), wall clocks in `core`/`sim` (L5) and unjustified
//!   `Ordering::Relaxed` in `obs` (L6).
//! * **A1 — panic reachability.** An interprocedural call graph over
//!   every workspace crate; any public function of `core`/`mckp`
//!   (deny) or `sim`/`obs` (warn) from which a panic-family seed
//!   (`panic!`, `.unwrap()`, `.expect(…)`, bare indexing) is
//!   transitively reachable is reported with a witness call chain.
//! * **A2 — units of measure.** Nanosecond / millisecond / ratio tags
//!   inferred from naming conventions flow through let-bindings,
//!   returns, and call arguments; cross-unit arithmetic and unguarded
//!   `D − R` divisions are denied.
//! * **A3 — stale waivers.** Every `lint.allow.toml` entry and every
//!   inline waiver must still justify at least one finding; dead
//!   waivers are denied so suppressions cannot outlive the code they
//!   excused.
//! * **A4 — interval analysis** ([`interval`]) and **A5 — concurrency
//!   audit** ([`concurrency`]): value-range proofs for casts/divisions
//!   and ordering/lock-cycle/blocking checks over the worker pool.
//! * **A6 — determinism taint** ([`determinism`]): interprocedural
//!   propagation from nondeterminism sources (hash-ordered iteration,
//!   wall-clock reads, ambient RNG, env/fs reads) to the public API of
//!   the replay-critical crates, with witness chains.
//! * **A7 — hot-path allocation** ([`hotpath`]): forward reachability
//!   from `// analyze: hot-path` annotated functions to allocating
//!   constructs — the static twin of the counting-allocator test
//!   `crates/bench/tests/alloc_budget.rs`.
//! * **A8 — termination & loop bounds** ([`termination`]): every loop
//!   in the engine/solver core must carry a trip-count bound or a
//!   monotone progress witness, recursion needs a decreasing argument,
//!   and per-function symbolic step bounds are composed bottom-up so a
//!   `⊤`-bound function reachable from a hot-path root is denied.
//!
//! **Waivers.** One spelling, `// analyze: allow(RULE): reason`, on the
//! finding's line or the line above, with a non-empty reason and never
//! in a doc comment; `inline_waived` is its only reader. A seed of A1
//! is waived by `allow(A1)` or `allow(L3)`. Whole-file suppressions
//! live in `lint.allow.toml`, each with a mandatory reason.
//!
//! **Pipeline.** Every file is read and hashed; a fingerprint over the
//! hashes, the allowlist and the crate dependency graph keys the cached
//! diagnostics ([`cache`]). On a hit nothing is parsed. On a miss,
//! phase 1 ([`parse::parse_file`]) turns every file into facts and
//! phase 2 ([`graph`], [`stale`], …) applies waivers and runs the
//! rules. Output formats: human, JSON, and SARIF 2.1.0 ([`sarif`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allow;
pub mod cache;
pub mod concurrency;
pub mod determinism;
pub mod domains;
pub mod facts;
pub mod graph;
pub mod hotpath;
pub mod interval;
pub mod lexer;
pub mod parse;
mod rules;
pub mod sarif;
pub mod stale;
pub mod termination;

use allow::AllowEntry;
use facts::FileFacts;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One diagnostic produced by the global phase, ready for rendering.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id: `"L1"` … `"L6"` or `"A1"` … `"A8"`.
    pub rule: String,
    /// `"deny"` or `"warn"`.
    pub severity: String,
    /// Human-readable explanation (includes the witness chain for A1).
    pub message: String,
}

impl Diagnostic {
    /// True when this diagnostic should fail the build.
    #[must_use]
    pub fn is_deny(&self) -> bool {
        self.severity == "deny"
    }
}

/// Outcome of [`analyze_workspace`].
#[derive(Debug)]
pub struct Analysis {
    /// All diagnostics, sorted by `(path, line, rule, severity, message)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files considered.
    pub files_total: usize,
    /// Files parsed this run: all of them on a cache miss, none on a hit.
    pub files_reparsed: usize,
    /// Microseconds spent reading, hashing and (on a miss) parsing files.
    pub parse_us: u128,
}

/// Walk upward from the current directory to the workspace root
/// (the first ancestor whose `Cargo.toml` declares `[workspace]`).
///
/// # Errors
///
/// When no ancestor contains a workspace manifest.
pub fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no ancestor directory contains a [workspace] Cargo.toml".into());
        }
    }
}

/// Run the full analysis over the workspace at `root`.
///
/// With `use_cache`, the diagnostics are cached in
/// `target/rto-analyze/global.diag` under a whole-workspace fingerprint
/// (file hashes, allowlist, and dependency graph). A run whose
/// fingerprint matches replays them byte-identically without parsing
/// anything; any change to any input parses every file afresh.
///
/// # Errors
///
/// On unreadable files/directories or a malformed `lint.allow.toml`.
pub fn analyze_workspace(root: &Path, use_cache: bool) -> Result<Analysis, String> {
    let files = collect_workspace_files(root)?;
    let (allow_text, allowlist) = read_allowlist(root)?;
    let deps = crate_deps(root)?;
    let cache_dir = root.join("target").join("rto-analyze");

    let parse_start = Instant::now();
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in &files {
        let src =
            fs::read_to_string(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, src));
    }

    // Fingerprint of every input: file contents, the allowlist, and
    // the crate dependency graph.
    let fingerprint = {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (rel, src) in &sources {
            let _ = writeln!(s, "{rel}\t{:016x}", cache::fnv64(src.as_bytes()));
        }
        s.push_str(&allow_text);
        let mut dks: Vec<&String> = deps.keys().collect();
        dks.sort();
        for k in dks {
            let _ = writeln!(s, "D\t{k}\t{}", deps[k].join(","));
        }
        cache::fnv64(s.as_bytes())
    };
    if use_cache {
        if let Some(diagnostics) = cache::load_global(&cache_dir, fingerprint) {
            return Ok(Analysis {
                diagnostics,
                files_total: files.len(),
                files_reparsed: 0,
                parse_us: parse_start.elapsed().as_micros(),
            });
        }
    }

    let all_facts: Vec<FileFacts> = sources
        .iter()
        .map(|(rel, src)| parse::parse_file(rel, src))
        .collect();
    let parse_us = parse_start.elapsed().as_micros();
    let srcs: HashMap<String, String> = sources.into_iter().collect();

    let mut diagnostics: Vec<Diagnostic> = graph::check(&all_facts, &allowlist, &deps);
    diagnostics.extend(interval::check(&all_facts, &srcs, &allowlist, &deps));
    diagnostics.extend(concurrency::check(&all_facts, &allowlist, &deps));
    diagnostics.extend(determinism::check(&all_facts, &allowlist, &deps));
    diagnostics.extend(hotpath::check(&all_facts, &allowlist, &deps));
    diagnostics.extend(termination::check(&all_facts, &allowlist, &deps));
    diagnostics.extend(stale::check(&all_facts, &allowlist));
    // A global pass can reach one conclusion along several paths, so
    // its output is deduplicated. A per-file finding is one site: two
    // sites on one line (`v[i][j]`) stay two findings.
    diagnostics.sort();
    diagnostics.dedup();

    // Per-file findings — the token tier and the local A2 findings —
    // minus inline waivers and allowlist entries of their rule.
    for ff in &all_facts {
        for d in ff.lint_prod.iter().chain(&ff.a2_local) {
            if !inline_waived(ff, &d.rule, d.line) && !allowlist_waived(&allowlist, ff, &d.rule) {
                diagnostics.push(Diagnostic {
                    path: ff.rel_path.clone(),
                    line: d.line,
                    rule: d.rule.clone(),
                    severity: d.severity.clone(),
                    message: d.message.clone(),
                });
            }
        }
    }
    diagnostics.sort();

    if use_cache {
        cache::store_global(&cache_dir, fingerprint, &diagnostics)?;
    }

    Ok(Analysis {
        diagnostics,
        files_total: files.len(),
        files_reparsed: all_facts.len(),
        parse_us,
    })
}

/// Does an inline `// analyze: allow(rule): reason` waiver cover
/// `line`? (A waiver on line *w* covers findings on *w* and *w + 1*.)
/// The one place any rule reads inline waivers.
pub(crate) fn inline_waived(ff: &FileFacts, rule: &str, line: u32) -> bool {
    ff.waivers
        .iter()
        .any(|w| w.rule == rule && (w.line == line || w.line.saturating_add(1) == line))
}

/// Does a whole-file `lint.allow.toml` entry cover `(file, rule)`?
pub(crate) fn allowlist_waived(allowlist: &[AllowEntry], ff: &FileFacts, rule: &str) -> bool {
    allowlist.iter().any(|e| e.matches(rule, &ff.rel_path))
}

/// Read and parse `lint.allow.toml` at the workspace root, returning
/// its text (for the fingerprint) and entries. An absent file is empty.
fn read_allowlist(root: &Path) -> Result<(String, Vec<AllowEntry>), String> {
    let path = root.join("lint.allow.toml");
    if !path.is_file() {
        return Ok((String::new(), Vec::new()));
    }
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let entries = allow::parse(&text)?;
    Ok((text, entries))
}

/// Directories whose `.rs` files are exempt from analysis (test code,
/// fixtures, vendored shims, build output).
const SKIP_DIRS: &[&str] = &[
    "tests", "benches", "examples", "fixtures", "target", "vendor", ".git",
];

/// Collect every analyzable `.rs` file under `root`: the facade
/// package's `src/` plus each `crates/*/src` tree, skipping
/// [`SKIP_DIRS`].
fn collect_workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for dir in [root.join("src"), root.join("crates")] {
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Direct `rto-*` dependencies of each crate, from `crates/*/Cargo.toml`
/// (call resolution never crosses a missing dependency edge). The
/// facade package at the root gets the key `"rto"`.
///
/// # Errors
///
/// When the `crates/` directory cannot be listed.
pub fn crate_deps(root: &Path) -> Result<HashMap<String, Vec<String>>, String> {
    let mut deps: HashMap<String, Vec<String>> = HashMap::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries = fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir error: {e}"))?;
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().to_string();
            let manifest = entry.path().join("Cargo.toml");
            let text = fs::read_to_string(&manifest).unwrap_or_default();
            deps.insert(name, manifest_rto_deps(&text));
        }
    }
    // The facade package depends on the whole workspace.
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    deps.insert("rto".into(), manifest_rto_deps(&root_manifest));
    Ok(deps)
}

/// Crate directory names referenced by `path = ".../<dir>"` dependency
/// entries on `rto-*` lines of a manifest.
fn manifest_rto_deps(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if !line.starts_with("rto-") {
            continue;
        }
        let Some(idx) = line.find("path") else {
            continue;
        };
        let rest = &line[idx..];
        let Some(open) = rest.find('"') else { continue };
        let Some(close) = rest[open + 1..].find('"') else {
            continue;
        };
        let path = &rest[open + 1..open + 1 + close];
        if let Some(dir) = path.rsplit('/').next() {
            if !dir.is_empty() {
                out.push(dir.to_string());
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_dep_extraction() {
        let m = "[dependencies]\nrto-core = { path = \"../core\" }\n\
                 rto-obs = { path = \"../obs\" }\nserde = { path = \"../../vendor/serde\" }\n";
        assert_eq!(manifest_rto_deps(m), vec!["core".to_string(), "obs".into()]);
        let facade = "rto-mckp = { path = \"crates/mckp\" }\n";
        assert_eq!(manifest_rto_deps(facade), vec!["mckp".to_string()]);
    }

    #[test]
    fn inline_waiver_coverage() {
        let mut ff = FileFacts::default();
        ff.waivers.push(facts::WaiverComment {
            rule: "A2".into(),
            line: 10,
        });
        assert!(inline_waived(&ff, "A2", 10));
        assert!(inline_waived(&ff, "A2", 11));
        assert!(!inline_waived(&ff, "A2", 12));
        assert!(!inline_waived(&ff, "A1", 10));
    }
}
