#!/usr/bin/env bash
# Builds the benchmark and the sysunc-serve binary it hosts (release
# profile, offline), then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: perfbench/target). The last line of stdout is the result.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p perfbench -p sysunc-serve >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
