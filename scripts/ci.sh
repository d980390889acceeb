#!/usr/bin/env bash
# Tier-1 verification plus the harness smoke campaign and regression gate.
#
#   scripts/ci.sh            # build, test, sweep, compare against baseline
#   scripts/ci.sh --refresh  # additionally rewrite baselines/BENCH_seed.json
#
# Set HWDP_CI_OUT=<dir> to keep the campaign artifacts (BENCH_*.json,
# AUDIT_*.json, CHAOS_*.json, REPRO_quick.md) instead of writing them to
# a throwaway temp dir; the GitHub Actions workflow uses this to archive
# them.
#
# The smoke campaign is deterministic (virtual-time simulation, per-job
# seeds derived from the campaign seed), so the comparison against the
# committed baseline is exact: any drift beyond the 5 % gate threshold —
# on any machine, any worker count, debug or release — is a real change
# in simulated behaviour.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release --workspace --offline

echo "== static analysis: hwdp lint =="
# The workspace contracts clippy cannot prove (crates/lint): call-graph
# reachability from the event loop and completion paths, unit-mix time
# dataflow, audit coverage, metric-key registry sync and spec-knob
# consistency. Fails on any finding not grandfathered in
# baselines/LINT_allow.txt (which holds only the hot-path-alloc census).
./target/release/hwdp lint --deny

echo "== clippy: style gate =="
# Every package and target, warnings denied. The default lints include
# incompatible_msrv, so no std API newer than rust-version (1.75) gets in.
# Test code may use what clippy.toml disallows (hash containers, clocks,
# threads); the restriction step below holds library and binary code to it.
cargo clippy --workspace --all-targets --offline -- -D warnings \
    -A clippy::disallowed_types -A clippy::disallowed_methods

# Determinism, panic policy and hygiene in library and binary code: the
# restriction lints, plus clippy.toml's disallowed hash containers, clocks
# and thread calls. Deliberate exceptions are narrow #[allow(clippy::...)]
# attributes with a reason; crate-wide ones sit at the crate root.
restriction=(
    -A clippy::all
    -D clippy::unwrap_used -D clippy::expect_used
    -D clippy::panic -D clippy::todo -D clippy::unimplemented
    -D clippy::dbg_macro -D clippy::print_stdout -D clippy::pointer_format
    -D clippy::let_underscore_must_use
    -D clippy::disallowed_types -D clippy::disallowed_methods
)

echo "== clippy: restriction step =="
# Test code is out of scope (--lib --bins), as it is for hwdp lint; the
# vendored criterion stand-in is not project code.
cargo clippy --workspace --exclude criterion --lib --bins --offline -- "${restriction[@]}"

echo "== clippy: seeded-defect corpus =="
# crates/lint/corpus plants one defect per restriction lint, each line
# tagged `// fires: <lint>...`, plus look-alikes that must stay silent. The
# same flags and clippy.toml must report exactly the tagged (line, lint)
# pairs: a lint dropped from the flags or from clippy.toml, or a false
# positive, fails the step.
corpus=crates/lint/corpus
expected="$(grep -n '// fires: ' "$corpus/src/lib.rs" \
    | sed 's|^\([0-9]*\):.*// fires: |\1 |' \
    | awk '{ for (i = 2; i <= NF; i++) print $1, $i }' | sort)"
reported="$(cargo clippy --manifest-path "$corpus/Cargo.toml" --lib --offline \
        --target-dir target/lint-corpus --message-format=json -- "${restriction[@]}" 2>/dev/null \
    | jq -r 'select(.reason == "compiler-message") | .message | select(.code)
        | "\(.spans[] | select(.is_primary) | .line_start) \(.code.code)"' | sort || true)"
if [[ "$expected" != "$reported" ]]; then
  diff <(echo "$expected") <(echo "$reported") || true
  echo "corpus: clippy's findings differ from the planted defects (< planted, > reported)"
  exit 1
fi
echo "corpus: $(echo "$reported" | wc -l) planted defects reported, nothing else"

echo "== tier-1: tests =="
cargo test -q --workspace --offline

echo "== criterion benches: compile =="
# Criterion is the workspace's one optional feature; compiling its bench
# targets here catches a broken bench before push.
cargo bench -p hwdp-bench --features criterion --no-run --offline

echo "== benchmark: build and smoke check =="
# The benchmark package sits outside the root workspace, so the tests
# above do not build it; this catches a crates/ API change that breaks
# it, and runs its traced-mirror parity test.
benchmark/check.sh

echo "== harness: smoke campaign (16 jobs, 4 workers) =="
if [[ -n "${HWDP_CI_OUT:-}" ]]; then
  out="$HWDP_CI_OUT"
  mkdir -p "$out"
else
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
fi
# Generated metric-key registry (every export_metrics sink key) and the
# workspace call graph (function-precise reachability: roots, SCCs, and
# per-fn det/panic/alloc sink classification); archived next to the
# campaign artifacts when HWDP_CI_OUT is set. The call graph is
# deterministic — byte-identical across runs on the same tree (pinned by
# crates/lint/tests/ratchet.rs).
./target/release/hwdp lint --metric-keys > "$out/metric-keys.json"
./target/release/hwdp lint --call-graph > "$out/call-graph.json"
./target/release/hwdp sweep \
  --name seed \
  --scenarios fio,ycsb-c --modes osdp,hwdp \
  --threads-list 1,2 --ratios 2,4 \
  --memory 256 --ops 150 --seed 42 \
  --workers 4 --out "$out"

if [[ "${1:-}" == "--refresh" ]]; then
  cp "$out/BENCH_seed.json" baselines/BENCH_seed.json
  echo "refreshed baselines/BENCH_seed.json"
fi

echo "== harness: regression gate =="
./target/release/hwdp compare \
  --baseline baselines/BENCH_seed.json \
  --current "$out/BENCH_seed.json" \
  --threshold 5

echo "== scheduler: throughput smoke (Fig. 12 grid) =="
# The same 16-job grid with throughput instrumentation on. Two assertions
# in one run: the simulated results are byte-identical to the baseline
# (the compare gate below tolerates the extra informational keys but
# still gates every simulated metric), and every job exports a nonzero
# `events_per_sec`.
./target/release/hwdp sweep \
  --name throughput \
  --scenarios fio,ycsb-c --modes osdp,hwdp \
  --threads-list 1,2 --ratios 2,4 \
  --memory 256 --ops 150 --seed 42 \
  --throughput \
  --workers 4 --out "$out"
grep -Eq '"events_processed": [1-9]' "$out/BENCH_throughput.json"
grep -Eq '"events_per_sec": [1-9]' "$out/BENCH_throughput.json"
./target/release/hwdp compare \
  --baseline baselines/BENCH_seed.json \
  --current "$out/BENCH_throughput.json" \
  --threshold 5
echo "scheduler: throughput smoke matches baseline, events_per_sec exported"

echo "== hwdp-audit: full-sanitize smoke campaign =="
# The same 16 jobs with every cross-layer invariant checker enabled. The
# sweep exits nonzero if any violation fires and writes AUDIT_audit.json;
# the grep makes the zero-violation assertion explicit in the log.
./target/release/hwdp sweep \
  --name audit \
  --scenarios fio,ycsb-c --modes osdp,hwdp \
  --threads-list 1,2 --ratios 2,4 \
  --memory 256 --ops 150 --seed 42 \
  --sanitize full \
  --workers 4 --out "$out"
grep -q '"violations_total": 0' "$out/AUDIT_audit.json"
echo "hwdp-audit: zero violations"

echo "== fault injection: recovery smoke campaign =="
# The seed grid under a moderate all-class fault plan, fully sanitized.
# The acceptance bar: every job completes (sweep exits zero), no audit
# invariant fires, and the artifact proves the recovery machinery actually
# ran (nonzero io_retries — the counter is only exported when recovery
# fired, so its presence alone is the assertion).
./target/release/hwdp sweep \
  --name faults \
  --scenarios fio,ycsb-c --modes osdp,hwdp \
  --threads-list 1,2 --ratios 2,4 \
  --memory 256 --ops 150 --seed 42 \
  --faults media=0.1,persistent=0.2,delay=0.05x50,drop=0.05,qfull=0.05x4 \
  --sanitize full \
  --workers 4 --out "$out"
grep -q '"violations_total": 0' "$out/AUDIT_faults.json"
grep -Eq '"io_retries": [1-9]' "$out/BENCH_faults.json"
grep -Eq '"smu_fallbacks_fault": [1-9]' "$out/BENCH_faults.json"
echo "fault injection: recovered cleanly (zero violations, retries exercised)"

echo "== chaos: crash-recovery smoke campaign =="
# Seeded random fault plans with controller crashes enabled, each run
# against a fault-free twin by the differential recovery oracle at full
# sanitize. The acceptance bar: zero oracle mismatches (chaos exits
# zero) and a nonzero controller-reset count — the campaign must have
# actually crashed and recovered, not skated through crash-free plans.
./target/release/hwdp chaos \
  --name ci \
  --seed 42 --jobs 8 \
  --sanitize full \
  --out "$out"
grep -q '"oracle_mismatches": 0' "$out/CHAOS_ci.json"
grep -Eq '"controller_resets": [1-9]' "$out/CHAOS_ci.json"
echo "chaos: recovery oracle clean (resets exercised, zero mismatches)"

echo "== figures: Fig. 14/15 campaign (YCSB-C 4 threads, 3 repeats) =="
# The per-figure headline bands (user-IPC gain, kernel-instruction
# reduction, FIO speedup) are asserted by hwdp-bench's cargo tests above;
# these sweeps prove the same campaigns run end-to-end through the CLI
# with statistics enabled, and produce the artifacts CI archives. The
# greps pin the new artifact surfaces: per-thread metric arrays and
# mean/stddev/ci95 spread keys from repeated runs.
./target/release/hwdp sweep \
  --name fig14 \
  --scenarios ycsb-c --modes osdp,hwdp \
  --threads-list 4 --ratios 2 \
  --memory 512 --ops 300 --seed 53596 --fixed-seed \
  --repeats 3 \
  --workers 4 --out "$out"
grep -q '"repeats": 3' "$out/BENCH_fig14.json"
grep -q '/stddev' "$out/BENCH_fig14.json"
grep -q '/ci95' "$out/BENCH_fig14.json"
grep -q '"threads": \[' "$out/BENCH_fig14.json"
echo "fig14/15: repeated campaign carries spread + per-thread metrics"

echo "== figures: Fig. 16 campaign (FIO vs SPEC SMT co-run) =="
./target/release/hwdp sweep \
  --name fig16 \
  --scenarios smt-perlbench,smt-gcc,smt-mcf,smt-lbm,smt-deepsjeng,smt-xz \
  --modes osdp,hwdp \
  --threads-list 1 --ratios 8 --pin 0 \
  --time-cap-ms 20 --ops 4611686018427387904 --kpted-us 20000 \
  --memory 512 --seed 53596 --fixed-seed \
  --workers 4 --out "$out"
grep -q '"pin": 0' "$out/BENCH_fig16.json"
grep -q '"threads": \[' "$out/BENCH_fig16.json"
grep -q '"hw_context": 1' "$out/BENCH_fig16.json"
echo "fig16: co-run campaign carries pinned per-context metrics"

echo "== tiered storage: migration smoke campaign =="
# YCSB-C over a Z-SSD capacity tier with an Optane-PMM fast tier, fully
# sanitized (the tier-* ownership invariants plus the cross-layer
# residence check run on every tick). The acceptance bar: zero audit
# violations and a migration daemon that actually moved pages — the
# tier/* metrics only exist in tiered jobs, so the greps double as a
# schema assertion.
./target/release/hwdp sweep \
  --name tier \
  --scenarios ycsb-c --modes osdp,hwdp \
  --threads-list 2 --ratios 4 \
  --memory 256 --ops 400 --seed 42 \
  --tiers fast:pmm,slow:zssd,policy:lru \
  --sanitize full \
  --workers 4 --out "$out"
grep -q '"violations_total": 0' "$out/AUDIT_tier.json"
grep -Eq '"tier/promotions": [1-9]' "$out/BENCH_tier.json"
grep -Eq '"tier/demotions": [1-9]' "$out/BENCH_tier.json"
# Pages the SMU mapped but kpted has not synced are in DRAM, so the daemon
# must not copy them: HWDP promotes at most twice what OSDP does here.
jq -e '[.jobs[] | {(.config.mode): .metrics["tier/promotions"]}] | add
    | .HWDP <= 2 * .OSDP' "$out/BENCH_tier.json" > /dev/null
# YCSB-C never writes, so no page diverges from its home block on the fast
# tier and every demotion commits without a copy: the slow tier is never
# written.
jq -e '[.jobs[] | select(.config.scenario == "ycsb-c") | .metrics["tier/slow_writes"] // 0]
    | length > 0 and all(. == 0)' "$out/BENCH_tier.json" > /dev/null
echo "tiered storage: pages migrated under full sanitize (zero violations)"

echo "== tiered storage: demand-read race smoke =="
# Tier migration beside demand reads under dropped completions: a 200 us
# watchdog, then a retry of the same block, keeps a read of a fast-tier
# slot outstanding while the daemon could demote its page. Freeing that
# slot before the read completes lets a promotion refill it, and the read
# returns another page's bytes with status Success. A job is bad when it
# fails more verifications than its surfaced I/O errors explain (two
# threads may each see a surfaced error); a missing counter is 0, since
# recovery counters are exported only when nonzero. Seed 26 hit the race
# before the guard.
for seed in $(seq 20 30); do
  ./target/release/hwdp sweep \
    --name "race$seed" \
    --scenarios ycsb-c,ycsb-f --modes osdp,hwdp \
    --threads-list 2 --ratios 4 \
    --memory 128 --ops 3000 --seed "$seed" \
    --tiers fast:pmm,slow:zssd,policy:lru \
    --faults drop=0.01 \
    --workers 4 --out "$out" > /dev/null
  jq -e '[.jobs[] | .metrics | select((.verify_failures // 0) > 2 * (.io_errors_surfaced // 0))]
      | length == 0' "$out/BENCH_race$seed.json" > /dev/null \
    || { echo "race smoke: seed $seed read another page's bytes"; exit 1; }
done
echo "tiered storage: every read of the race grid verified"

echo "== repro: every paper table at quick scale =="
# crates/bench/tests/tables.rs pins a hash of each table's text; the
# archived tables let a reviewer diff them when that pin fails.
./target/release/repro --quick --workers 1 --markdown > "$out/REPRO_quick.md"
grep -q '^### ext-prefetch ' "$out/REPRO_quick.md"
echo "repro: quick-scale tables written"

echo "== ci: ok =="
