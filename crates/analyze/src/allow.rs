//! Parser for the committed allowlist file (`lint.allow.toml`).
//!
//! The allowlist is the *reviewed* escape hatch: findings that are
//! understood, justified, and accepted live here, with a mandatory
//! human-readable reason. The file is a strict subset of TOML —
//! `[[allow]]` array-of-tables with `key = "string"` pairs — parsed by
//! hand so the analyzer stays dependency-free:
//!
//! ```toml
//! # lint.allow.toml
//! [[allow]]
//! path = "crates/obs/src/metrics.rs"
//! rule = "L1"
//! reason = "histogram bucket math on already-recorded ns samples"
//! ```
//!
//! Parse errors (unknown keys, missing `path`/`rule`, an empty
//! `reason`) fail the whole run with exit 2: a malformed allowlist
//! must never silently allow everything.

/// One reviewed suppression. The mandatory `reason` is checked at
/// parse time and is not needed afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AllowEntry {
    /// Workspace-relative path suffix the entry applies to, or a
    /// directory prefix when it ends with `/` (see [`Self::covers`]).
    pub(crate) path: String,
    /// Rule id (`"L1"` … `"L6"`, `"A1"` … `"A8"`).
    pub(crate) rule: String,
    /// Line in `lint.allow.toml` where the entry starts (for errors).
    pub(crate) defined_at: u32,
}

impl AllowEntry {
    /// Does this entry suppress `rule` findings in `path`?
    pub(crate) fn matches(&self, rule: &str, path: &str) -> bool {
        self.rule == rule && self.covers(path)
    }

    /// Does this entry's `path` cover the workspace-relative `path`?
    ///
    /// Two forms are accepted: a file pattern matches the whole path or
    /// a suffix that starts right after a `/` (`src/dp.rs`, never
    /// `src/xdp.rs`), and a pattern ending in `/` is a directory prefix
    /// covering every file under it (`crates/mckp/src/`). Directory
    /// entries keep the allowlist small when one justification holds
    /// for a whole kernel family.
    pub(crate) fn covers(&self, path: &str) -> bool {
        if self.path.ends_with('/') {
            path.starts_with(&self.path)
        } else {
            path.strip_suffix(self.path.as_str())
                .is_some_and(|head| head.is_empty() || head.ends_with('/'))
        }
    }
}

/// Parse the allowlist. Returns entries or a human-readable error.
///
/// # Errors
///
/// On any line that is not a comment, blank, `[[allow]]` header, or
/// `key = "value"` pair; on unknown keys; and on entries missing
/// `path`, `rule`, or a non-empty `reason`.
pub(crate) fn parse(src: &str) -> Result<Vec<AllowEntry>, String> {
    /// Partially parsed entry: start line plus optional path/rule/reason.
    type OpenEntry = (u32, Option<String>, Option<String>, Option<String>);

    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut open: Option<OpenEntry> = None;

    let finish =
        |open: &mut Option<OpenEntry>, entries: &mut Vec<AllowEntry>| -> Result<(), String> {
            if let Some((at, path, rule, reason)) = open.take() {
                let path = path.ok_or(format!("allowlist entry at line {at}: missing `path`"))?;
                let rule = rule.ok_or(format!("allowlist entry at line {at}: missing `rule`"))?;
                if reason.is_none_or(|r| r.trim().is_empty()) {
                    return Err(format!(
                        "allowlist entry at line {at}: missing or empty `reason`"
                    ));
                }
                entries.push(AllowEntry {
                    path,
                    rule,
                    defined_at: at,
                });
            }
            Ok(())
        };

    for (idx, raw) in src.lines().enumerate() {
        let lineno = u32::try_from(idx).unwrap_or(u32::MAX).saturating_add(1);
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish(&mut open, &mut entries)?;
            open = Some((lineno, None, None, None));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "allowlist line {lineno}: expected `key = \"value\"`, got `{line}`"
            ));
        };
        let Some((_, p, r, s)) = open.as_mut() else {
            return Err(format!(
                "allowlist line {lineno}: `{}` outside an [[allow]] entry",
                key.trim()
            ));
        };
        let value = value.trim();
        let unquoted = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or(format!(
                "allowlist line {lineno}: value must be a double-quoted string"
            ))?;
        match key.trim() {
            "path" => *p = Some(unquoted.to_string()),
            "rule" => *r = Some(unquoted.to_string()),
            "reason" => *s = Some(unquoted.to_string()),
            other => {
                return Err(format!("allowlist line {lineno}: unknown key `{other}`"));
            }
        }
    }
    finish(&mut open, &mut entries)?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_matches() {
        let src = r#"
# comment
[[allow]]
path = "crates/obs/src/metrics.rs"
rule = "L1"
reason = "bucket math on recorded samples"

[[allow]]
path = "crates/sim/src/render.rs"
rule = "L3"
reason = "ASCII rendering indices are clamped"
"#;
        let entries = parse(src).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].matches("L1", "crates/obs/src/metrics.rs"));
        assert!(!entries[0].matches("L2", "crates/obs/src/metrics.rs"));
        assert!(!entries[0].matches("L1", "crates/obs/src/sink.rs"));
        assert_eq!(entries[1].defined_at, 8);
    }

    #[test]
    fn directory_entries_cover_files_below_them_only() {
        let src = r#"
[[allow]]
path = "crates/mckp/src/"
rule = "L3"
reason = "kernel family indexes tables allocated in the same scope"
"#;
        let entries = parse(src).unwrap();
        assert!(entries[0].matches("L3", "crates/mckp/src/dp.rs"));
        assert!(entries[0].matches("L3", "crates/mckp/src/lp.rs"));
        // Wrong rule, sibling crate, and a non-prefix mention all miss.
        assert!(!entries[0].matches("L1", "crates/mckp/src/dp.rs"));
        assert!(!entries[0].matches("L3", "crates/sim/src/system.rs"));
        assert!(!entries[0].matches("L3", "crates/mckp/srcs/dp.rs"));
    }

    #[test]
    fn file_entries_match_whole_path_segments_only() {
        let src = "[[allow]]\npath = \"rng.rs\"\nrule = \"L3\"\nreason = \"fixture\"\n";
        let entries = parse(src).unwrap();
        assert!(entries[0].covers("rng.rs"));
        assert!(entries[0].covers("crates/stats/src/rng.rs"));
        // A suffix that does not start at a `/` is another file.
        assert!(!entries[0].covers("crates/stats/src/xrng.rs"));
        assert!(!entries[0].covers("crates/stats/src/rng.rs.bak"));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let src = "[[allow]]\npath = \"a.rs\"\nrule = \"L1\"\n";
        assert!(parse(src).unwrap_err().contains("reason"));
        let src = "[[allow]]\npath = \"a.rs\"\nrule = \"L1\"\nreason = \"  \"\n";
        assert!(parse(src).unwrap_err().contains("reason"));
    }

    #[test]
    fn unknown_key_and_stray_pair_are_errors() {
        assert!(parse("[[allow]]\nfoo = \"x\"\n")
            .unwrap_err()
            .contains("unknown key"));
        assert!(parse("path = \"x\"\n").unwrap_err().contains("outside"));
        assert!(parse("[[allow]]\npath = x\n")
            .unwrap_err()
            .contains("double-quoted"));
    }
}
