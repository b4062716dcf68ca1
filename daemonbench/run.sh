#!/usr/bin/env bash
# Build the daemon and the benchmark (release), then run the benchmark:
#   bash daemonbench/run.sh --workload parse_warm --seed 1 --seconds 5 --trace 0
# Both builds share one target directory ($CARGO_TARGET_DIR, else ./target),
# so the benchmark finds `ucfg` next to its own binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/cli ]; then
    echo "daemonbench: run from a checkout of the repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ucfg-cli --bin ucfg
cargo build --release --offline --quiet --manifest-path daemonbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/daemonbench" "$@"
