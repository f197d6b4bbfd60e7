//! The whole-workspace diagnostics cache, `target/rto-analyze/global.diag`.
//!
//! One entry holds the final diagnostics of a run, keyed by a
//! fingerprint over every file's content hash, the allowlist, and the
//! crate dependency graph. A run whose fingerprint matches returns
//! those diagnostics verbatim without parsing anything, so cached and
//! uncached runs produce byte-identical output; any other run parses
//! everything. The analyzer's own sources are workspace files, so an
//! edit to a rule changes the fingerprint like any other edit.
//!
//! The format is deliberately dumb: a header line, then one
//! tab-separated record per diagnostic with `\t`/`\n`/`\r`/`\\` escaped
//! in free-text fields. Any parse hiccup (truncation, version bump,
//! hand-editing) is treated as a cache miss, never an error.

use crate::Diagnostic;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// The format tag in `global.diag`'s header; a file with another tag
/// is a miss.
pub(crate) const CACHE_VERSION: u32 = 5;

/// 64-bit FNV-1a hash (file content hashes and the fingerprint).
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Path of the cached diagnostics.
fn global_path(dir: &Path) -> PathBuf {
    dir.join("global.diag")
}

/// Load the cached diagnostics when the workspace fingerprint (and
/// cache version) match; any mismatch or decode failure is a miss.
#[must_use]
pub fn load_global(dir: &Path, fingerprint: u64) -> Option<Vec<Diagnostic>> {
    let text = fs::read_to_string(global_path(dir)).ok()?;
    let mut lines = text.lines();
    let mut h = lines.next()?.split('\t');
    if h.next()? != "rto-analyze-global" {
        return None;
    }
    if h.next()?.parse::<u32>().ok()? != CACHE_VERSION {
        return None;
    }
    if u64::from_str_radix(h.next()?, 16).ok()? != fingerprint {
        return None;
    }
    let mut out = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        out.push(Diagnostic {
            path: unesc(parts.next()?),
            line: parts.next()?.parse().ok()?,
            rule: unesc(parts.next()?),
            severity: unesc(parts.next()?),
            message: unesc(parts.next()?),
        });
    }
    Some(out)
}

/// Store the diagnostics under a workspace fingerprint.
///
/// # Errors
///
/// When the cache directory or file cannot be written.
pub fn store_global(dir: &Path, fingerprint: u64, diags: &[Diagnostic]) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "rto-analyze-global\t{CACHE_VERSION}\t{fingerprint:016x}"
    );
    for d in diags {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            esc(&d.path),
            d.line,
            esc(&d.rule),
            esc(&d.severity),
            esc(&d.message)
        );
    }
    let path = global_path(dir);
    fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn escaping_survives_tabs_and_newlines() {
        assert_eq!(unesc(&esc("a\tb\nc\\d\re")), "a\tb\nc\\d\re");
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rto-analyze-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn global_entry_round_trips_tabs_and_newlines() {
        let dir = temp_dir("roundtrip");
        let diags = vec![Diagnostic {
            path: "crates/core/src/a b.rs".into(),
            line: 7,
            rule: "A1".into(),
            severity: "deny".into(),
            message: "chain:\n\tf → g\\h\r".into(),
        }];
        store_global(&dir, 0xfeed, &diags).expect("store");
        assert_eq!(load_global(&dir, 0xfeed), Some(diags));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_fingerprint_or_version_misses() {
        let dir = temp_dir("miss");
        store_global(&dir, 42, &[]).expect("store");
        assert_eq!(load_global(&dir, 42), Some(Vec::new()));
        assert!(load_global(&dir, 43).is_none());
        let text = fs::read_to_string(global_path(&dir)).expect("read");
        let bumped = text.replace(
            &format!("rto-analyze-global\t{CACHE_VERSION}\t"),
            "rto-analyze-global\t999\t",
        );
        assert_ne!(bumped, text);
        fs::write(global_path(&dir), bumped).expect("write");
        assert!(load_global(&dir, 42).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
