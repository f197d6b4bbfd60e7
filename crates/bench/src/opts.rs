//! The one command-line parser of the `rto-bench` binaries and of
//! `rto-cli`'s subcommands.
//!
//! Each command line is a [`Cli`] constant here: what its one
//! positional argument is (a seed, a file path or none), the flags that
//! take a value, and the switches. [`Cli::parse`] rejects an unknown
//! flag, a valued flag without its value and a second positional, so a
//! typo fails loudly instead of being read as the seed or ignored. The
//! binaries that run on the `rto-exp` engine also take
//!
//! * `--jobs N` — worker threads (`0` = one per core, the default; the
//!   results never depend on this, only the wall clock does), and
//! * `--cache` — reuse cached trial results under `target/rto-exp/`
//!   (off by default so plain runs measure real simulation time).

use rto_exp::{default_cache_root, ExpOptions};
use std::fmt::Display;
use std::str::FromStr;

/// What a command line's one positional argument is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Positional {
    /// No positional: any is an error.
    None,
    /// An optional `u64` seed.
    Seed,
    /// A file path; the command decides whether it is required.
    Path,
}

/// One binary's command-line shape.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// What the positional argument is.
    pub positional: Positional,
    /// Flags that consume the next argument as their value.
    pub valued: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
}

/// `ablation [seed] [--jobs N] [--cache]`
pub const ABLATION: Cli = Cli {
    positional: Positional::Seed,
    valued: &["--jobs"],
    switches: &["--cache"],
};
/// `figure2 [seed] [--json] [--jobs N] [--cache]`
pub const FIGURE2: Cli = Cli {
    positional: Positional::Seed,
    valued: &["--jobs"],
    switches: &["--json", "--cache"],
};
/// `figure3 [seed] [--seeds N] [--json] [--jobs N] [--cache]`
pub const FIGURE3: Cli = Cli {
    positional: Positional::Seed,
    valued: &["--jobs", "--seeds"],
    switches: &["--json", "--cache"],
};
/// `motivation [seed]`
pub const MOTIVATION: Cli = Cli {
    positional: Positional::Seed,
    valued: &[],
    switches: &[],
};
/// `server_sweep [seed] [--json] [--jobs N] [--cache]`
pub const SERVER_SWEEP: Cli = FIGURE2;
/// `table1 [seed] [--json]`
pub const TABLE1: Cli = Cli {
    positional: Positional::Seed,
    valued: &[],
    switches: &["--json"],
};
/// `sweep_bench [seed] [--jobs N] [--seeds K] [--horizon H] [--out PATH]`
pub const SWEEP_BENCH: Cli = Cli {
    positional: Positional::Seed,
    valued: &["--jobs", "--seeds", "--horizon", "--out"],
    switches: &[],
};
/// `obs_bench [--events N] [--out PATH]`
pub const OBS_BENCH: Cli = Cli {
    positional: Positional::None,
    valued: &["--events", "--out"],
    switches: &[],
};
/// `sim_bench [--ops N] [--out PATH]`
pub const SIM_BENCH: Cli = Cli {
    positional: Positional::None,
    valued: &["--ops", "--out"],
    switches: &[],
};

/// `rto-cli sweep [--jobs N] [--seeds K] [--horizon S] [--seed B] [--cache] [--json]`
pub const CLI_SWEEP: Cli = Cli {
    positional: Positional::None,
    valued: &["--jobs", "--seeds", "--horizon", "--seed"],
    switches: &["--cache", "--json"],
};
/// `rto-cli serve-metrics [--addr H:P] [--linger-ms MS] [sweep flags]`
pub const CLI_SERVE_METRICS: Cli = Cli {
    positional: Positional::None,
    valued: &[
        "--jobs",
        "--seeds",
        "--horizon",
        "--seed",
        "--addr",
        "--linger-ms",
    ],
    switches: &["--cache", "--json"],
};

/// `rto-cli plan <file>` and `rto-cli analyze <file>`
pub const CLI_FILE: Cli = Cli {
    positional: Positional::Path,
    valued: &[],
    switches: &[],
};
/// `rto-cli simulate <file> [--gantt] [--trace-json <out>]`
pub const CLI_SIMULATE: Cli = Cli {
    positional: Positional::Path,
    valued: &["--trace-json"],
    switches: &["--gantt"],
};
/// `rto-cli trace <file> [--format chrome|jsonl] --out <path>`
pub const CLI_TRACE: Cli = Cli {
    positional: Positional::Path,
    valued: &["--format", "--out"],
    switches: &[],
};

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    /// The positional seed, when one was given.
    pub seed: Option<u64>,
    /// The positional file path, when one was given.
    pub path: Option<String>,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Cli {
    /// Parses `args` (the arguments after the program name).
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown flag, a valued flag with no
    /// value after it, a seed that is not a `u64`, and a positional the
    /// command does not take.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&flag) = self.valued.iter().find(|f| **f == arg) {
                let value = args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                parsed.values.push((flag, value));
            } else if let Some(&switch) = self.switches.iter().find(|s| **s == arg) {
                parsed.switches.push(switch);
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else if self.positional == Positional::Seed && parsed.seed.is_none() {
                parsed.seed = Some(arg.parse().map_err(|e| format!("seed {arg:?}: {e}"))?);
            } else if self.positional == Positional::Path && parsed.path.is_none() {
                parsed.path = Some(arg);
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(parsed)
    }
}

impl Args {
    /// Whether `switch` was given.
    #[must_use]
    pub fn switch(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The value given with `flag` (its first occurrence).
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value given with `flag`, parsed.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value(flag)
            .map(|v| v.parse().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    }

    /// The engine options of `--jobs` (default `0`, one per core) and
    /// `--cache`.
    ///
    /// # Errors
    ///
    /// Returns a message when `--jobs` is not a number.
    pub fn exp_options(&self) -> Result<ExpOptions, String> {
        Ok(ExpOptions {
            jobs: self.parsed("--jobs")?.unwrap_or(0),
            cache_root: self.switch("--cache").then(default_cache_root),
            obs: rto_obs::Obs::disabled(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cli: Cli, args: &[&str]) -> Result<Args, String> {
        cli.parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn a_flag_value_is_never_the_seed() {
        let a = parse(
            SWEEP_BENCH,
            &["--horizon", "1", "--seeds", "1", "--jobs", "1", "7"],
        )
        .expect("parses");
        assert_eq!(a.seed, Some(7));
        assert_eq!(
            (a.value("--horizon"), a.value("--seeds"), a.value("--jobs")),
            (Some("1"), Some("1"), Some("1"))
        );
        let a = parse(
            SWEEP_BENCH,
            &["--jobs", "1", "--seeds", "1", "--horizon", "1"],
        )
        .expect("parses");
        assert_eq!(a.seed, None);
    }

    #[test]
    fn a_flag_the_binary_does_not_take_is_an_error() {
        let err = parse(TABLE1, &["--jobs", "4"]).expect_err("table1 takes no --jobs");
        assert_eq!(err, "unknown flag --jobs");
        assert!(parse(FIGURE2, &["--seeds", "5"]).is_err());
        assert!(parse(SIM_BENCH, &["--op", "5"]).is_err());
    }

    #[test]
    fn a_missing_value_is_an_error() {
        assert_eq!(
            parse(SWEEP_BENCH, &["--jobs"])
                .expect_err("no value")
                .as_str(),
            "--jobs needs a value"
        );
        assert!(parse(FIGURE3, &["--seeds", "--json"]).is_err());
        assert!(parse(OBS_BENCH, &["--out"]).is_err());
    }

    #[test]
    fn stray_positionals_are_errors() {
        assert!(parse(FIGURE2, &["1", "2"]).is_err());
        assert!(parse(OBS_BENCH, &["7"]).is_err());
        assert!(parse(TABLE1, &["seven"]).is_err());
        assert!(parse(CLI_SIMULATE, &["a.json", "b.json"]).is_err());
    }

    #[test]
    fn a_path_positional_is_kept_verbatim_and_never_a_seed() {
        let a = parse(CLI_SIMULATE, &["--gantt", "7"]).expect("parses");
        assert_eq!((a.path.as_deref(), a.seed), (Some("7"), None));
        let a = parse(CLI_FILE, &[]).expect("parses");
        assert_eq!(a.path, None);
    }

    #[test]
    fn the_seed_may_come_before_or_after_the_flags() {
        let a = parse(FIGURE3, &["--jobs", "4", "2014"]).expect("parses");
        assert_eq!(a.seed, Some(2014));
        let a = parse(FIGURE3, &["2014", "--jobs", "4"]).expect("parses");
        assert_eq!(a.seed, Some(2014));
        let a = parse(FIGURE2, &["--json", "7"]).expect("parses");
        assert_eq!((a.seed, a.switch("--json")), (Some(7), true));
        let a = parse(FIGURE2, &["--jobs", "4", "--cache"]).expect("parses");
        assert_eq!(a.seed, None);
    }

    /// Every command line the docs, `scripts/check.sh` and CI give.
    #[test]
    fn documented_command_lines_parse() {
        let a = parse(FIGURE3, &["2014", "--seeds", "50"]).expect("parses");
        assert_eq!(
            (a.seed, a.parsed::<usize>("--seeds")),
            (Some(2014), Ok(Some(50)))
        );
        let a = parse(SERVER_SWEEP, &["--jobs", "8", "--cache"]).expect("parses");
        assert_eq!(
            (a.seed, a.value("--jobs"), a.switch("--cache")),
            (None, Some("8"), true)
        );
        let a = parse(SWEEP_BENCH, &["--jobs", "4", "--out", "BENCH_sweep.json"]).expect("parses");
        assert_eq!(
            (a.seed, a.value("--jobs"), a.value("--out")),
            (None, Some("4"), Some("BENCH_sweep.json"))
        );
        let a = parse(
            SWEEP_BENCH,
            &["5", "--jobs", "8", "--seeds", "600", "--horizon", "10"],
        )
        .expect("parses");
        assert_eq!(
            (
                a.seed,
                a.value("--jobs"),
                a.value("--seeds"),
                a.value("--horizon")
            ),
            (Some(5), Some("8"), Some("600"), Some("10"))
        );
        let a = parse(OBS_BENCH, &["--events", "60000", "--out", "bench.json"]).expect("parses");
        assert_eq!(
            (a.value("--events"), a.value("--out")),
            (Some("60000"), Some("bench.json"))
        );
        let a = parse(SIM_BENCH, &["--out", "BENCH_sim.json"]).expect("parses");
        assert_eq!(a.value("--out"), Some("BENCH_sim.json"));
        for cli in [TABLE1, FIGURE2, FIGURE3, MOTIVATION, ABLATION, SERVER_SWEEP] {
            assert_eq!(parse(cli, &[]).expect("parses").seed, None);
        }
    }

    #[test]
    fn defaults_are_all_cores_no_cache() {
        let o = parse(FIGURE2, &["2014", "--json"])
            .and_then(|a| a.exp_options())
            .expect("parses");
        assert_eq!(o.jobs, 0);
        assert!(o.cache_root.is_none());
    }

    #[test]
    fn jobs_and_cache_parse() {
        let o = parse(FIGURE2, &["--jobs", "4", "--cache"])
            .and_then(|a| a.exp_options())
            .expect("parses");
        assert_eq!(o.jobs, 4);
        assert_eq!(o.cache_root, Some(default_cache_root()));
    }

    #[test]
    fn bad_numbers_are_errors() {
        let a = parse(FIGURE2, &["--jobs", "many"]).expect("parses");
        assert_eq!(
            a.exp_options().expect_err("not a number").split(':').next(),
            Some("--jobs")
        );
        assert!(parse(FIGURE2, &["-1"]).is_err());
    }
}
