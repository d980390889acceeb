#!/usr/bin/env bash
# Benchmark smoke check: the benchmark's own tests, which run every
# workload at quick size (one round, a sixteenth of the campaign seeds)
# through `run` and `trace` and check the traced mirror's parity. Exits
# non-zero when a correctness check, the parity check or a test fails.
#
#   benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")"

cargo test --release --offline -q
