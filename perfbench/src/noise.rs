//! Host-noise diagnostics, printed with every run and never gated: they
//! let a reader tell a noisy run from a regression.
//!
//! * run-queue wait of the measuring thread, from
//!   `/proc/thread-self/schedstat` (time it was ready but not running);
//! * steal time of the whole machine, from `/proc/stat`;
//! * op-time p90 with its sample count, and the drift of op time from the
//!   first to the last third of the run.

use crate::{median, quantile};

/// Host counters at one instant; `None` where `/proc` does not say.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    runq_wait_ns: Option<u64>,
    /// (steal ticks, all ticks) of the aggregate `cpu` line.
    steal: Option<(u64, u64)>,
}

/// Reads the host counters.
pub fn sample() -> Host {
    let runq_wait_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok());
    let steal = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
        let ticks: Vec<u64> = s
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        Some((*ticks.get(7)?, ticks.iter().sum()))
    });
    Host {
        runq_wait_ns,
        steal,
    }
}

/// One line describing the noise between `before` and `after` for a run
/// whose op times, in run order, are `op_ns`.
pub fn describe(before: Host, after: Host, op_ns: &[f64]) -> String {
    let runq = match (before.runq_wait_ns, after.runq_wait_ns) {
        (Some(a), Some(b)) => format!("{:.3}", b.saturating_sub(a) as f64 / 1e6),
        _ => "n/a".into(),
    };
    let steal = match (before.steal, after.steal) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!(
                "{:.3}",
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            )
        }
        _ => "n/a".into(),
    };
    let (p90, drift) = if op_ns.len() >= 3 {
        let third = op_ns.len() / 3;
        let first = median(&op_ns[..third]);
        let last = median(&op_ns[op_ns.len() - third..]);
        (
            format!("{:.4}", quantile(op_ns, 0.9) / 1e6),
            format!("{:+.2}", 100.0 * (last / first - 1.0)),
        )
    } else {
        ("n/a".into(), "n/a".into())
    };
    format!(
        "noise: runq_wait_ms={runq} steal_pct={steal} op_p90_ms={p90} ops={} drift_first_to_last_third_pct={drift}",
        op_ns.len()
    )
}
