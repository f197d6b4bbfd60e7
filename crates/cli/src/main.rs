//! `rto-cli` — plan, analyze, and simulate compensation-based offloading
//! systems described in JSON.
//!
//! ```text
//! rto-cli demo                       print a sample config
//! rto-cli plan <config.json>         decide offloading (print the plan)
//! rto-cli analyze <config.json>      plan + all schedulability tests
//! rto-cli simulate <config.json>     plan + simulation report
//! rto-cli simulate <config.json> --gantt             … plus an ASCII Gantt chart
//! rto-cli simulate <config.json> --trace-json <out>  … plus a full JSON trace
//! rto-cli trace <config.json> --format chrome --out trace.json
//!                                    structured event trace (chrome|jsonl) + metrics
//! rto-cli sweep [--jobs N] [--seeds K] [--horizon S] [--seed B] [--cache] [--json]
//!                                    case-study utilization sweep on the parallel
//!                                    deterministic experiment engine
//! rto-cli serve-metrics [--addr H:P] [--linger-ms MS] [sweep flags]
//!                                    the same sweep with a live HTTP endpoint:
//!                                    /metrics /metrics.json /healthz /spans/recent
//! ```

#![forbid(unsafe_code)]

mod commands;
mod config;

use commands::{
    cmd_analyze, cmd_demo, cmd_plan, cmd_serve_metrics, cmd_simulate, cmd_sweep, cmd_trace,
    ServeArgs, SweepArgs, TraceFormat,
};
use config::SystemConfig;
use rto_bench::opts::{Args, CLI_FILE, CLI_SERVE_METRICS, CLI_SIMULATE, CLI_SWEEP, CLI_TRACE};
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: rto-cli <demo | plan <file> | analyze <file> | simulate <file> [--gantt] [--trace-json <out>] | trace <file> [--format chrome|jsonl] --out <path> | sweep [--jobs N] [--seeds K] [--horizon S] [--seed B] [--cache] [--json] | serve-metrics [--addr H:P] [--linger-ms MS] [sweep flags]>";

/// The sweep flags of `sweep` and `serve-metrics`, defaults filled in.
fn sweep_args(args: &Args) -> Result<SweepArgs, String> {
    let defaults = SweepArgs::default();
    Ok(SweepArgs {
        jobs: args.parsed("--jobs")?.unwrap_or(defaults.jobs),
        seeds: args.parsed("--seeds")?.unwrap_or(defaults.seeds),
        horizon_secs: args.parsed("--horizon")?.unwrap_or(defaults.horizon_secs),
        seed: args.parsed("--seed")?.unwrap_or(defaults.seed),
        cache: args.switch("--cache"),
        json: args.switch("--json"),
    })
}

/// `serve-metrics`' flags: the sweep's, the bind address and the linger.
fn serve_args(args: &Args) -> Result<ServeArgs, String> {
    let defaults = ServeArgs::default();
    Ok(ServeArgs {
        addr: args
            .value("--addr")
            .map_or(defaults.addr, ToOwned::to_owned),
        sweep: sweep_args(args)?,
        linger_ms: args.parsed("--linger-ms")?.unwrap_or(defaults.linger_ms),
    })
}

/// The system configuration at the command line's file path.
fn load(args: &Args) -> Result<SystemConfig, String> {
    let path = args.path.as_deref().ok_or(USAGE)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    SystemConfig::from_json(&text)
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = || args.iter().skip(1).cloned();
    match args.first().map(String::as_str) {
        Some("demo") => Ok(cmd_demo()),
        Some("plan") => cmd_plan(&load(&CLI_FILE.parse(rest())?)?),
        Some("analyze") => cmd_analyze(&load(&CLI_FILE.parse(rest())?)?),
        Some("simulate") => {
            let a = CLI_SIMULATE.parse(rest())?;
            cmd_simulate(&load(&a)?, a.switch("--gantt"), a.value("--trace-json"))
        }
        Some("trace") => {
            let a = CLI_TRACE.parse(rest())?;
            let (format, out) = trace_args(&a)?;
            cmd_trace(&load(&a)?, format, Path::new(out))
        }
        Some("sweep") => cmd_sweep(&sweep_args(&CLI_SWEEP.parse(rest())?)?),
        Some("serve-metrics") => cmd_serve_metrics(&serve_args(&CLI_SERVE_METRICS.parse(rest())?)?),
        _ => Err(USAGE.to_string()),
    }
}

/// `trace`'s format (default Chrome) and its required output path.
fn trace_args(args: &Args) -> Result<(TraceFormat, &str), String> {
    let format = args
        .value("--format")
        .map_or(Ok(TraceFormat::Chrome), str::parse)?;
    Ok((format, args.value("--out").ok_or(USAGE)?))
}

/// Writes the report and a newline to `out`. A reader that closed early
/// (`BrokenPipe`) ends the run quietly with success; any other write
/// error is one line on stderr and a failure.
fn emit(out: &mut impl Write, report: &str) -> ExitCode {
    match writeln!(out, "{report}").and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write the report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(report) => emit(&mut std::io::stdout().lock(), &report),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cli: rto_bench::opts::Cli, line: &str) -> Result<Args, String> {
        cli.parse(line.split_whitespace().map(ToOwned::to_owned))
    }

    #[test]
    fn a_misspelt_sweep_flag_is_an_error() {
        let err = parse(CLI_SWEEP, "--horizn 1 --seeds 1 --jobs 1 --json")
            .expect_err("--horizn is not a flag");
        assert_eq!(err, "unknown flag --horizn");
        assert!(parse(CLI_SERVE_METRICS, "--adr 127.0.0.1:0").is_err());
        assert!(parse(CLI_SWEEP, "--addr 127.0.0.1:0").is_err());
        assert!(parse(CLI_SWEEP, "7").is_err());
        assert!(parse(CLI_SWEEP, "--seeds").is_err());
    }

    /// The usage lines of this file and the command lines the README and
    /// DESIGN.md give.
    #[test]
    fn documented_command_lines_parse() {
        let sweep = |line| parse(CLI_SWEEP, line).and_then(|a| sweep_args(&a));
        let a = sweep("--jobs 4 --seeds 20 --horizon 300 --json").expect("parses");
        assert_eq!(
            (a.jobs, a.seeds, a.horizon_secs, a.json, a.cache),
            (4, 20, 300, true, false)
        );
        let a = sweep("--jobs 1 --seeds 2 --horizon 5 --seed 9 --cache").expect("parses");
        assert_eq!((a.seeds, a.horizon_secs, a.seed, a.cache), (2, 5, 9, true));
        let d = SweepArgs::default();
        let a = sweep("").expect("parses");
        assert_eq!(
            (a.jobs, a.seeds, a.horizon_secs, a.seed),
            (d.jobs, d.seeds, d.horizon_secs, d.seed)
        );

        let serve = |line| parse(CLI_SERVE_METRICS, line).and_then(|a| serve_args(&a));
        let a = serve("--addr 127.0.0.1:9184 --linger-ms 30000").expect("parses");
        assert_eq!((a.addr.as_str(), a.linger_ms), ("127.0.0.1:9184", 30_000));
        let a =
            serve("--addr 127.0.0.1:39184 --seeds 2 --horizon 5 --linger-ms 8000").expect("parses");
        assert_eq!(
            (a.sweep.seeds, a.sweep.horizon_secs, a.linger_ms),
            (2, 5, 8_000)
        );

        let a = parse(CLI_FILE, "system.json").expect("parses");
        assert_eq!(a.path.as_deref(), Some("system.json"));
        let a = parse(CLI_SIMULATE, "system.json --gantt --trace-json trace.json").expect("parses");
        assert_eq!(
            (
                a.path.as_deref(),
                a.switch("--gantt"),
                a.value("--trace-json")
            ),
            (Some("system.json"), true, Some("trace.json"))
        );
        let a = parse(CLI_SIMULATE, "system.json").expect("parses");
        assert_eq!(
            (a.switch("--gantt"), a.value("--trace-json")),
            (false, None)
        );
        for (line, format, out) in [
            (
                "system.json --format chrome --out trace.json",
                TraceFormat::Chrome,
                "trace.json",
            ),
            (
                "system.json --format jsonl --out trace.jsonl",
                TraceFormat::Jsonl,
                "trace.jsonl",
            ),
            ("--out t.json system.json", TraceFormat::Chrome, "t.json"),
        ] {
            let a = parse(CLI_TRACE, line).expect("parses");
            assert_eq!(a.path.as_deref(), Some("system.json"), "{line}");
            assert_eq!(trace_args(&a), Ok((format, out)), "{line}");
        }
    }

    #[test]
    fn a_misspelt_simulate_or_trace_flag_is_an_error() {
        let err = parse(CLI_SIMULATE, "system.json --gnatt").expect_err("--gnatt is not a flag");
        assert_eq!(err, "unknown flag --gnatt");
        assert!(parse(CLI_SIMULATE, "system.json --trace-json").is_err());
        assert!(parse(CLI_TRACE, "system.json --fromat jsonl --out t.json").is_err());
        assert!(parse(CLI_FILE, "system.json --gantt").is_err());
        let a = parse(CLI_TRACE, "system.json --format jsonl").expect("parses");
        assert_eq!(trace_args(&a), Err(USAGE.to_string()), "--out is required");
    }

    /// A writer that fails every write with `kind`.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_reader_ends_quietly_and_other_write_errors_fail() {
        assert_eq!(
            emit(&mut Failing(ErrorKind::BrokenPipe), "report"),
            ExitCode::SUCCESS
        );
        assert_eq!(
            emit(&mut Failing(ErrorKind::Other), "report"),
            ExitCode::FAILURE
        );
        let mut out = Vec::new();
        assert_eq!(emit(&mut out, "report"), ExitCode::SUCCESS);
        assert_eq!(out, b"report\n");
    }

    #[test]
    fn bad_numbers_name_their_flag() {
        let err = parse(CLI_SWEEP, "--horizon soon")
            .and_then(|a| sweep_args(&a))
            .expect_err("not a number");
        assert!(err.starts_with("--horizon"), "{err}");
        let err = parse(CLI_SERVE_METRICS, "--linger-ms -1")
            .and_then(|a| serve_args(&a))
            .expect_err("not a number");
        assert!(err.starts_with("--linger-ms"), "{err}");
    }
}
