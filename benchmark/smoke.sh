#!/usr/bin/env bash
# Smoke run: every workload once at a tenth of its size, with all output
# checks, untraced and traced. A minute or so after the build; fails if
# any answer is wrong. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
run() {
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
run run --quick --seed "${1:-1}"
run trace --quick --seed "${1:-1}"
