#!/usr/bin/env bash
# The full local gate: formatting, lints, and the complete test suite.
#
# Mirrors .github/workflows/ci.yml so a green run here means a green CI.
# Note the `--workspace` flags: a bare `cargo test` from the repo root
# only tests the facade package, not the crates.
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

echo "==> rto-analyze (L1–L6, A1–A8)"
# The warning-budget ratchets live in analyze.budget.toml and are
# enforced by the rto-analyze runs below, which exit 2 on a missing or
# non-integer key; an absent file would silently disable every
# ratchet, so its presence is part of the gate.
test -f analyze.budget.toml || {
  echo "analyze.budget.toml missing: the warning-budget ratchets must stay committed" >&2
  exit 1
}
rm -rf target/rto-analyze
cargo run -p rto-analyze --offline -q -- --format sarif \
  --out target/rto-analyze-cold.sarif --bench-out target/rto-analyze-cold.json
cargo run -p rto-analyze --offline -q -- --format sarif \
  --out target/rto-analyze-warm.sarif --bench-out BENCH_analyze.json

echo "==> rto-analyze warm cache: identical diagnostics + >=5x speedup"
cmp target/rto-analyze-cold.sarif target/rto-analyze-warm.sarif
python3 - <<'EOF'
import json
cold = json.load(open("target/rto-analyze-cold.json"))
warm = json.load(open("BENCH_analyze.json"))
assert warm["files_reparsed"] == 0, f"warm run reparsed {warm['files_reparsed']} files"
speedup = cold["elapsed_us"] / max(warm["elapsed_us"], 1)
print(f"    cache speedup: {speedup:.1f}x "
      f"(cold {cold['elapsed_us']} us -> warm {warm['elapsed_us']} us, "
      f"{cold['files_total']} files)")
assert speedup >= 5.0, f"warm-cache speedup {speedup:.1f}x < 5x"
EOF

echo "==> rto-analyze runtime budget (<=2x committed baseline, cold and warm)"
python3 - <<'EOF'
import json
cold = json.load(open("target/rto-analyze-cold.json"))
warm = json.load(open("BENCH_analyze.json"))
base = json.load(open("results/BENCH_analyze_baseline.json"))
for label, run, key in [("cold", cold, "cold_elapsed_us"),
                        ("warm", warm, "warm_elapsed_us")]:
    ratio = run["elapsed_us"] / max(base[key], 1)
    print(f"    {label}: {run['elapsed_us']} us "
          f"(baseline {base[key]} us, ratio {ratio:.2f}x)")
    assert ratio <= 2.0, (
        f"{label} analyzer run regressed {ratio:.2f}x > 2x vs committed "
        f"baseline; investigate before re-blessing results/BENCH_analyze_baseline.json")
EOF

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

# The host-timed bench gates below do not stop the script: each failure
# is recorded and the next gate still runs, so bench trend always runs
# last. The script then exits non-zero naming every failed gate. No
# gate is skipped or loosened by this; every step above still stops the
# script at once.
failed_gates=()
gate() { # gate NAME COMMAND... (stdin passes through to COMMAND)
  local name=$1
  shift
  if ! "$@"; then
    echo "!!! gate failed: $name" >&2
    failed_gates+=("$name")
  fi
}

echo "==> sweep_bench: serial vs --jobs 4, identical-rows cross-check"
gate "sweep_bench" cargo run --release -p rto-bench --offline -q --bin sweep_bench -- --jobs 4 --out BENCH_sweep.json
# The >=2x speedup gate only means something with real cores under it;
# single-core machines still get the identical-rows check above (the
# CI `exp` job always asserts the gate on its 4-core runners).
if [ "$(nproc 2>/dev/null || echo 1)" -ge 4 ]; then
  gate "sweep_bench speedup" python3 - <<'EOF'
import json
b = json.load(open("BENCH_sweep.json"))
assert b["identical"] is True, b
print(f"    parallel speedup: {b['speedup']:.2f}x "
      f"({b['serial_ms']:.0f} ms -> {b['parallel_ms']:.0f} ms)")
assert b["speedup"] >= 2.0, f"parallel speedup {b['speedup']:.2f}x < 2x with 4 workers"
EOF
else
  echo "==> skipping speedup gate (<4 cores; CI asserts it)"
fi

echo "==> obs_bench: overhead budget (0 hot-path allocs, <=2x committed baseline)"
gate "obs_bench" cargo run --release -p rto-bench --offline -q --bin obs_bench -- --out BENCH_obs.json
gate "obs_bench budget" python3 - <<'EOF'
import json
b = json.load(open("BENCH_obs.json"))
base = json.load(open("results/BENCH_obs_baseline.json"))
assert b["hot_path_allocs"] == 0, f"hot path allocated: {b}"
ratio = b["disabled_ns_per_event"] / max(base["disabled_ns_per_event"], 1e-9)
print(f"    disabled path: {b['disabled_ns_per_event']:.1f} ns/event "
      f"(baseline {base['disabled_ns_per_event']:.1f} ns, ratio {ratio:.2f}x)")
assert ratio <= 2.0, f"disabled-path overhead regressed {ratio:.2f}x > 2x vs baseline"
EOF

echo "==> sim_bench: event-engine throughput (>=10x at 100k, <=1% hold allocs, engine scaling, <=2x committed baseline)"
# The binary itself fails if the calendar queue is under 10x the
# bench-local reference heap at 100k concurrent events, if steady-state
# holds allocate on more than 1% of operations, if two identical
# engine runs diverge, or if the engine at 10^4 tasks runs below 0.25x
# its 10^2-task jobs/s.
gate "sim_bench" cargo run --release -p rto-bench --offline -q --bin sim_bench -- --out BENCH_sim.json
gate "sim_bench baseline" python3 - <<'EOF'
import json
b = json.load(open("BENCH_sim.json"))
base = json.load(open("results/BENCH_sim_baseline.json"))
ratio = b["calendar_ns_per_event_100000"] / max(base["calendar_ns_per_event_100000"], 1e-9)
print(f"    100k hold: {b['calendar_ns_per_event_100000']:.1f} ns/event "
      f"(baseline {base['calendar_ns_per_event_100000']:.1f} ns, ratio {ratio:.2f}x), "
      f"speedup {b['speedup_100000']:.1f}x vs reference heap")
assert ratio <= 2.0, f"calendar hold regressed {ratio:.2f}x > 2x vs committed baseline"
EOF

echo "==> bench trend (fresh BENCH_*.json vs committed baselines; fails on missing/malformed records)"
gate "bench_trend" python3 scripts/bench_trend

if [ ${#failed_gates[@]} -gt 0 ]; then
  echo "==> FAILED bench gates: ${failed_gates[*]}" >&2
  exit 1
fi
echo "==> all checks passed"
