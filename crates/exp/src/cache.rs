//! Content-hashed trial-result cache under `target/rto-exp/`.
//!
//! Each trial's result is stored in its own file named by the FNV-1a
//! hash of the trial's **content key** (matrix name, spec fingerprint,
//! base seed, the point's content key, trial index, derived seed). The
//! key is also embedded verbatim in the file header, so a hash
//! collision can never serve the wrong payload — the embedded key
//! disambiguates before any payload is trusted.
//!
//! Because the key covers only *that trial's* inputs, editing one point
//! of a sweep invalidates only that point's files: a warm re-run
//! simulates just the delta.
//!
//! Results round-trip through the [`TrialData`] trait. Floats must be
//! encoded via [`f64_hex`]/[`f64_from_hex`] (IEEE-754 bit patterns in
//! hex), **not** decimal formatting — the determinism contract promises
//! warm runs are byte-identical to cold ones, and decimal round-trips
//! through the vendored serde shim are not guaranteed bit-exact.
//!
//! Every load failure mode (missing file, bad header, version bump, key
//! mismatch, payload decode error) degrades to a cache **miss**, never
//! an error: the engine simply re-simulates the trial.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Cache format version; bump on any layout change to invalidate old
/// entries wholesale.
const VERSION: u32 = 1;

/// Magic tag opening every trial file.
const MAGIC: &str = "rto-exp-trial";

/// A value that can round-trip through the trial cache.
///
/// `encode` must produce a *single line* (the escaper handles embedded
/// newlines, but keeping encodings line-shaped keeps files greppable)
/// and `decode` must be its exact inverse: `decode(&encode(v))` has to
/// reproduce `v` **bit-for-bit**, including float payloads (use
/// [`f64_hex`]).
pub trait TrialData: Sized {
    /// Serializes `self` into a string `decode` can reverse exactly.
    fn encode(&self) -> String;
    /// Parses a string produced by `encode`; `None` on any mismatch
    /// (treated as a cache miss, never an error).
    fn decode(s: &str) -> Option<Self>;
}

/// Encodes an `f64` as its IEEE-754 bit pattern in fixed-width hex —
/// the only float codec the cache sanctions, because it is bit-exact
/// by construction.
#[must_use]
pub fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`f64_hex`].
#[must_use]
pub fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// 64-bit FNV-1a over a byte string — the same keying hash
/// `rto-analyze` uses for its workspace fingerprint; collisions are tolerated
/// because the full key is embedded in the entry.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Escapes tabs, newlines, carriage returns, and backslashes so keys
/// and payloads can live on one line of a tab-separated header.
#[must_use]
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

/// Inverse of [`esc`]; `None` on a dangling or unknown escape.
#[must_use]
fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// Keeps only filesystem-safe characters of a matrix name for the
/// cache subdirectory; everything else becomes `_`.
#[must_use]
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// An open per-matrix trial cache directory.
///
/// One instance is shared (by reference) across all worker threads; it
/// holds only a path, and every operation is a self-contained file
/// read or write of a distinct per-trial file, so no locking is
/// needed.
#[derive(Debug)]
pub struct TrialCache {
    dir: PathBuf,
}

impl TrialCache {
    /// Opens (creating if needed) the cache directory for `matrix_name`
    /// under `root` (conventionally `target/rto-exp`).
    ///
    /// # Errors
    /// Propagates directory-creation failures; callers treat that as
    /// "run without a cache".
    pub fn open(root: &Path, matrix_name: &str) -> io::Result<Self> {
        let dir = root.join(sanitize(matrix_name));
        fs::create_dir_all(&dir)?;
        Ok(TrialCache { dir })
    }

    /// The file that would hold the entry for `key`.
    #[must_use]
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.trial", fnv64(key.as_bytes())))
    }

    /// Looks up `key`; any failure mode is a miss.
    #[must_use]
    pub fn load<R: TrialData>(&self, key: &str) -> Option<R> {
        // analyze: allow(A6): content-addressed trial cache; a hit replays byte-identical recorded rows
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut parts = header.split('\t');
        if parts.next()? != MAGIC {
            return None;
        }
        if parts.next()?.parse::<u32>().ok()? != VERSION {
            return None;
        }
        // Embedded key check: an FNV collision lands here and misses
        // instead of serving a stranger's payload.
        if unesc(parts.next()?)? != key {
            return None;
        }
        R::decode(&unesc(lines.next()?)?)
    }

    /// Stores `value` under `key`, overwriting any previous entry.
    ///
    /// # Errors
    /// Propagates I/O failures; the engine ignores them (a failed store
    /// only costs a future re-simulation).
    pub fn store<R: TrialData>(&self, key: &str, value: &R) -> io::Result<()> {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\t');
        out.push_str(&VERSION.to_string());
        out.push('\t');
        out.push_str(&esc(key));
        out.push('\n');
        out.push_str(&esc(&value.encode()));
        out.push('\n');
        let mut file = fs::File::create(self.entry_path(key))?;
        file.write_all(out.as_bytes())
    }
}

impl TrialData for String {
    fn encode(&self) -> String {
        self.clone()
    }
    fn decode(s: &str) -> Option<Self> {
        Some(s.to_owned())
    }
}

/// Fallible trials cache their errors too: a trial is a pure function
/// of its context, so an error is just as reproducible as a value and
/// re-simulating it would yield the same error again.
impl<T: TrialData> TrialData for Result<T, String> {
    fn encode(&self) -> String {
        match self {
            Ok(v) => format!("O{}", v.encode()),
            Err(e) => format!("E{e}"),
        }
    }
    fn decode(s: &str) -> Option<Self> {
        let rest = s.get(1..)?;
        match s.chars().next()? {
            'O' => T::decode(rest).map(Ok),
            'E' => Some(Err(rest.to_owned())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rto-exp-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_a_value() {
        let root = temp_root("roundtrip");
        let cache = TrialCache::open(&root, "unit").expect("open cache");
        let key = "matrix\u{1f}fp\u{1f}7\u{1f}util=0.5\u{1f}3\u{1f}00ff";
        assert_eq!(cache.load::<String>(key), None);
        cache.store(key, &String::from("payload")).expect("store");
        assert_eq!(cache.load::<String>(key), Some(String::from("payload")));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_mismatch_is_a_miss_even_with_a_planted_collision() {
        let root = temp_root("collide");
        let cache = TrialCache::open(&root, "unit").expect("open cache");
        cache.store("key-a", &String::from("va")).expect("store");
        // Forge a file whose name matches key-b's hash but whose
        // embedded key says otherwise.
        let forged = cache.entry_path("key-b");
        fs::write(&forged, format!("{MAGIC}\t{VERSION}\tkey-c\nvc\n")).expect("forge");
        assert_eq!(cache.load::<String>("key-b"), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_bump_and_garbage_are_misses() {
        let root = temp_root("garbage");
        let cache = TrialCache::open(&root, "unit").expect("open cache");
        let path = cache.entry_path("k");
        fs::write(&path, format!("{MAGIC}\t999\tk\nv\n")).expect("write stale");
        assert_eq!(cache.load::<String>("k"), None);
        fs::write(&path, "not a cache file at all").expect("write junk");
        assert_eq!(cache.load::<String>("k"), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn escaping_round_trips_awkward_keys() {
        let nasty = "tabs\there\nnewlines\\slashes\rret";
        assert_eq!(unesc(&esc(nasty)).as_deref(), Some(nasty));
        assert!(!esc(nasty).contains('\n'));
        assert!(unesc("dangling\\").is_none());
        assert!(unesc("bad\\q").is_none());
    }

    #[test]
    fn f64_hex_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 0.1 + 0.2, f64::INFINITY] {
            let back = f64_from_hex(&f64_hex(v)).expect("parse");
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let nan = f64_from_hex(&f64_hex(f64::NAN)).expect("parse");
        assert_eq!(nan.to_bits(), f64::NAN.to_bits());
        assert!(f64_from_hex("123").is_none());
        assert!(f64_from_hex("zzzzzzzzzzzzzzzz").is_none());
    }

    #[test]
    fn result_payloads_round_trip() {
        type R = Result<String, String>;
        let ok: R = Ok("value".into());
        let err: R = Err("boom".into());
        assert_eq!(R::decode(&ok.encode()), Some(ok));
        assert_eq!(R::decode(&err.encode()), Some(err));
        assert_eq!(R::decode(""), None);
        assert_eq!(R::decode("Xjunk"), None);
    }

    #[test]
    fn sanitize_keeps_names_filesystem_safe() {
        assert_eq!(sanitize("fig2/case study"), "fig2_case_study");
        assert_eq!(sanitize(""), "_");
    }
}
