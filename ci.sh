#!/usr/bin/env bash
# Tier-1 gate for the sysunc workspace. Everything runs --offline: the
# workspace has zero external dependencies by policy (enforced by
# sysunc-tidy's `manifest` rule), so no step may touch the network.
set -euo pipefail
cd "$(dirname "$0")"

# The static-analysis gate runs first: it needs only the (small) tidy
# crate to build, so a lint violation fails in seconds instead of after
# a full release build + test cycle. Its per-rule count of
# acknowledged exceptions (the suppression ledger) is held equal to a
# committed table by tests/tidy_gate.rs, which the test step runs.
echo "== static-analysis gate =="
cargo run -q --offline -p sysunc-tidy

echo "== toolchain lint gate (clippy, workspace lint table) =="
# Generic lint duty belongs to rustc and clippy: every member inherits
# the root [workspace.lints] table (panic family, float_cmp,
# missing_docs, unreachable_pub, per-site #[expect] discipline), and
# serve/fleet deny clippy::indexing_slicing crate-wide. The binaries
# (experiment binaries, tidy, the servers) are held to the same table.
# `-D warnings` fails the step on clippy's default-level warnings too.
# A check build fails in well under the release build's time.
cargo clippy --quiet --offline --workspace --lib --bins -- -D warnings

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

echo "== engine kernel floors (chunked vs scalar, select vs sort; release) =="
# The chunked struct-of-arrays driver must run Monte Carlo and Latin
# hypercube at least 2x as fast as the scalar reference path on both
# paper models, and the engines' quantile selection must answer the
# default levels at least 2x as fast as sorting the outputs, at
# n = 4,000 and 16,384. Both sides of each ratio run on one thread and
# the best of five runs is compared, so the ratios measure this build's
# kernels, not the host. #[ignore]-gated: a debug build compresses them.
cargo test -q --release --offline --test engine_chunked -- --ignored

echo "== 408 lateness at the cost ceiling (release) =="
# With a 10 ms deadline, a job at the cost ceiling on each of the five
# engines, and an 8-job batch at the ceiling, must answer 408 within the
# lateness crates/serve/PROTOCOL.md states (250 ms past the deadline).
# Stages that make no model call cannot be cancelled, so the ceiling is
# what bounds this. #[ignore]-gated: it measures release-build timing.
cargo test -q --release --offline --test serve_integration -- --ignored

echo "== JSON string parsing is linear (release) =="
# A string 4x as long must parse in under 8x the time (linear code reads
# about 4x). #[ignore]-gated: it measures release-build timing.
cargo test -q --release --offline -p sysunc-prob --lib \
  json::tests::string_parsing_is_linear_in_the_string_length -- --ignored

echo "== engine-layer examples (release) =="
# `cargo test` builds every example but runs none, so each one runs
# here and must exit 0.
for example in quickstart orbital_models perception_chain safety_analysis \
  propagation_methods strategy_workflow; do
  cargo run -q --release --offline --example "$example"
done

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

echo "== perfbench correctness pass (one short run per workload) =="
# The workspace benchmark (BENCHMARK.json) drives each workload over
# HTTP against a self-hosted server or a 2-shard fleet and checks every
# answer. CI sets no speed threshold: a speed claim is judged by
# perfbench's pairs rule against the parent commit. Here a run must
# answer every job correctly, and each run must fill one block of at
# least 1,000 calls, which batch-mixed needs more seconds for.
for spec in cold-mc:2 batch-mixed:9 fleet-mixed:2; do
  workload="${spec%%:*}"
  result="$(bash perfbench/run.sh --workload "$workload" --seed 42 \
    --seconds "${spec##*:}" --trace 0 | tail -n 1)"
  case "$result" in
    *'"correct":true,'*'"failed":0,'*) echo "perfbench $workload: correct, 0 failed" ;;
    *) echo "perfbench $workload: incorrect or failed jobs: $result" >&2; exit 1 ;;
  esac
done
