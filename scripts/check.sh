#!/usr/bin/env bash
# The full local gate: formatting, lints, and the complete test suite.
#
# Mirrors .github/workflows/ci.yml so a green run here means a green CI.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test --workspace"
cargo test --workspace --offline -q

echo "==> perfbench tests (own workspace; tracing leaves SimReports byte-identical)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> benchmark smoke (each BENCHMARK.json workload for 1 s; its own checks must pass)"
python3 scripts/bench_smoke

echo "==> results/ snapshots: the six experiment binaries print them byte for byte"
CARGO_NET_OFFLINE=true python3 scripts/check_results

echo "==> rto-analyze (L1–L6, A1–A8)"
# The warning-budget ratchets live in analyze.budget.toml and are
# enforced by the rto-analyze runs below, which exit 2 on a missing or
# non-integer key; an absent file would silently disable every
# ratchet, so its presence is part of the gate.
test -f analyze.budget.toml || {
  echo "analyze.budget.toml missing: the warning-budget ratchets must stay committed" >&2
  exit 1
}
# The cold run starts from an empty cache; the warm run must agree
# byte for byte. Their timings (BENCH_analyze_cold.json and
# BENCH_analyze.json) are judged by bench trend at the end.
rm -rf target/rto-analyze
cargo run -p rto-analyze --offline -q -- --format sarif \
  --out target/rto-analyze-cold.sarif --bench-out BENCH_analyze_cold.json
cargo run -p rto-analyze --offline -q -- --format sarif \
  --out target/rto-analyze-warm.sarif --bench-out BENCH_analyze.json

echo "==> rto-analyze warm cache: identical diagnostics"
cmp target/rto-analyze-cold.sarif target/rto-analyze-warm.sarif

echo "==> rto-exp determinism: byte-identical rows for jobs 1/2/8 + warm cache"
cargo test -p rto-bench --offline -q --release --test exp_determinism

# The loom models and Miri check correctness, not timing, so they run
# before the host-timed bench gates below: a bench gate that fails on a
# noisy host must not hide a concurrency verdict.
echo "==> loom model tests (obs metrics + exp pool, RUSTFLAGS=--cfg loom)"
RUSTFLAGS="--cfg loom" cargo test -p rto-obs --offline -q --test loom_metrics
RUSTFLAGS="--cfg loom" cargo test -p rto-exp --offline -q --test loom_pool

# Miri needs the nightly component; skip locally when unavailable (the
# CI `miri` job always runs it).
if rustup component list --toolchain nightly 2>/dev/null | grep -q "^miri.*(installed)"; then
  echo "==> cargo +nightly miri test (core + mckp)"
  cargo +nightly miri test -p rto-core --lib
  cargo +nightly miri test -p rto-mckp --lib
else
  echo "==> skipping miri (nightly miri component not installed; CI runs it)"
fi

# The host-timed bench steps below do not stop the script: each failure
# is recorded and the next step still runs, so bench trend always runs
# last. The script then exits non-zero naming every failed step. No
# step is skipped or loosened by this; every step above still stops the
# script at once. A bench binary fails only on its own cross-check
# (identical rows, matching checksums, deterministic engine runs); every
# timing bound lives in bench.budget.toml, judged by bench trend.
failed_gates=()
gate() { # gate NAME COMMAND...
  local name=$1
  shift
  if ! "$@"; then
    echo "!!! gate failed: $name" >&2
    failed_gates+=("$name")
  fi
}

# A record left by an earlier run must never be judged.
rm -f BENCH_sweep.json BENCH_obs.json BENCH_sim.json

echo "==> sweep_bench: serial vs --jobs 4, identical-rows cross-check"
gate "sweep_bench" cargo run --release -p rto-bench --offline -q --bin sweep_bench -- --jobs 4 --out BENCH_sweep.json

echo "==> obs_bench: ns per event, sink disabled / in memory / jsonl"
gate "obs_bench" cargo run --release -p rto-bench --offline -q --bin obs_bench -- --out BENCH_obs.json

echo "==> sim_bench: calendar vs reference heap, engine jobs/s, determinism cross-check"
gate "sim_bench" cargo run --release -p rto-bench --offline -q --bin sim_bench -- --out BENCH_sim.json

echo "==> bench trend (every BENCH_*.json against bench.budget.toml)"
gate "bench_trend" python3 scripts/bench_trend

if [ ${#failed_gates[@]} -gt 0 ]; then
  echo "==> FAILED bench gates: ${failed_gates[*]}" >&2
  exit 1
fi
echo "==> all checks passed"
