#!/usr/bin/env bash
# The benchmark's one command.  From the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# builds `graped`/`grape-worker` and the harness from source (release
# profile, one shared target directory, so the three binaries end up side
# by side) and runs the harness, which validates BENCHMARK.json before
# anything else.  Building on every call is what keeps the binaries from
# ever being older than the sources; when nothing changed it costs a
# fraction of a second and is outside every timed section.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet -p grape-daemon --bin graped --bin grape-worker
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/grape-benchmark" "$@"
