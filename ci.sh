#!/usr/bin/env bash
# Tier-1 gate for the sysunc workspace. Everything runs --offline: the
# workspace has zero external dependencies by policy (enforced by
# sysunc-tidy's `manifest` rule), so no step may touch the network.
set -euo pipefail
cd "$(dirname "$0")"

# The static-analysis gate runs first: it needs only the (small) tidy
# crate to build, so a lint violation fails in seconds instead of after
# a full release build + test cycle.
echo "== static-analysis gate =="
cargo run -q --offline -p sysunc-tidy

echo "== static-analysis gate (--json round-trip) =="
# The machine-readable findings must be valid JSON by the workspace's
# own reader; `jsonlint` (crates/prob's parser behind a tiny binary-free
# check) is exercised via the test suite, so here we only assert shape.
json="$(cargo run -q --offline -p sysunc-tidy -- --json)"
case "$json" in
  '{"schema":"sysunc-tidy/3"'*'"clean":true'*) echo "json findings: clean" ;;
  *) echo "unexpected --json output: $json" >&2; exit 1 ;;
esac

echo "== lint-suppression trend record =="
# Fold the findings into one sysunc-bench-trend/1 line so allowed/
# baselined exception counts per rule stay visible over time, and fail
# when any rule's count rose against the last recorded line (the
# exception ledger must only ratchet down).
printf '%s' "$json" | cargo run -q --offline -p sysunc-bench --bin tidy_trend -- \
  --out BENCH_tidy_trend.json --fail-on-regression

echo "== toolchain lint gate (clippy, workspace lint table) =="
# Generic lint duty belongs to rustc and clippy: every member inherits
# the root [workspace.lints] table (panic family, float_cmp,
# missing_docs, unreachable_pub, per-site #[expect] discipline), and
# serve/fleet deny clippy::indexing_slicing crate-wide. A check build
# fails in well under the release build's time.
cargo clippy --quiet --offline --workspace --lib

echo "== toolchain lint gate (clippy, perfbench) =="
# perfbench/ is its own workspace and does not inherit the table, so
# the panic-family and float lints are passed on the command line (the
# same list tests/tidy_gate.rs uses).
cargo clippy --quiet --offline --manifest-path perfbench/Cargo.toml \
  --target-dir target/tmp/perfbench-clippy -- \
  -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
  -D clippy::todo -D clippy::unimplemented -D clippy::float_cmp

echo "== perfbench unit tests (release) =="
# The benchmark's own tests: metric grammar, result line, agreement
# with BENCHMARK.json, request generators.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== build (release) =="
cargo build --release --offline

echo "== tests =="
# `default-members` covers every crate, so this runs the whole
# workspace's unit and integration tests.
cargo test -q --offline

echo "== verify tier (bounded-exhaustive, release) =="
# Kani-style bounded-exhaustive harnesses, #[ignore]-gated so a plain
# `cargo test` stays fast: all 2^n fault-tree assignments vs MOCUS cut
# sets, exact top probability vs enumeration and inclusion-exclusion,
# canonical-JSON idempotence + content-hash collision-freedom over the
# enumerated wire universe, and FNV-1a/64 injectivity on every input
# up to two bytes. The propcheck regression corpus
# (propcheck.regressions) is replayed by every property run in the
# ordinary test tier above.
cargo test -q --release --offline --test verify_exhaustive -- --ignored

echo "== engine-layer examples (release) =="
cargo run -q --release --offline --example propagation_methods
cargo run -q --release --offline --example strategy_workflow

echo "== serve smoke (ephemeral port, in-tree client) =="
# Boots the propagation server, propagates through every engine,
# scrapes /metrics, and shuts down gracefully — nonzero exit on any
# mismatch between served traffic and the metrics account.
cargo run -q --release --offline --example serve_smoke

echo "== fleet smoke (2 shards, crash injection, aggregated metrics) =="
# Boots a 2-shard process fleet, SIGKILLs a shard under concurrent
# load, and verifies zero failed requests, a recorded restart, routed
# cache locality, and the merged /metrics exposition.
cargo run -q --release --offline --example fleet_smoke

echo "== serve load benchmark (cold / cache-hot / batch) =="
# Self-hosted loadgen suite: every mode runs against one server (cold
# first, so the baseline sees an empty cache) and the per-mode
# throughput and latency percentiles land in BENCH_serve.json.
cargo run -q --release --offline -p sysunc-bench --bin loadgen -- \
  --clients 8 --requests 50 --budget 2048

echo "== fleet load benchmark (2 shards, same modes) =="
# The same suite through a 2-shard fleet front; a shard is SIGKILLed
# mid cache-hot run, so the numbers include a crash, the router's
# retry window, and the supervisor's restart. Keys gain a `fleet-`
# prefix and land in BENCH_fleet.json.
cargo run -q --release --offline -p sysunc-bench --bin loadgen -- \
  --clients 8 --requests 50 --budget 2048 --fleet 2 --out BENCH_fleet.json

echo "== serve trend tripwire =="
# Folds both suites into BENCH_serve_trend.json and fails on a >20%
# per-mode throughput drop against the committed baseline, on a
# cache-hot run that missed the cache more than clients x hot seeds
# times (counted from the server's X-Sysunc-Cache verdicts) or whose
# p50 is not below cold's, on any failed fleet request (crash
# tolerance must be total), or on
# fleet-cache-hot throughput below the hardware-aware bar (1.7x
# single-process on >=4 cores, an overhead floor when time-sliced).
# The baseline stays single-process; on a machine without one the
# single-process run becomes the baseline.
cargo run -q --release --offline -p sysunc-bench --bin serve_trend -- \
  --fleet-in BENCH_fleet.json

echo "== engine kernel benchmark (scalar vs chunked) =="
# Times every sampling engine on both paper models through the scalar
# reference path and the chunked struct-of-arrays driver; the per-row
# throughputs and speedups land in BENCH_engine.json.
cargo run -q --release --offline -p sysunc-bench --bin engine_bench

echo "== engine trend tripwire =="
# Folds the document into BENCH_engine_trend.json and fails when the
# chunked path loses its >=2x speedup over scalar for Monte Carlo or
# Latin hypercube, or when any engine/model row drops >20% against the
# committed baseline. On a machine without a baseline the run becomes
# the baseline.
cargo run -q --release --offline -p sysunc-bench --bin engine_trend -- \
  --fail-on-regression
