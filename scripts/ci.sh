#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 tests, the byte identity of
# `repro all` against its golden output, and a smoke run of the repro
# harness with timings (exercises the parallel runner + run cache).
# Run from anywhere; `just ci` delegates here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + tests =="
cargo build --release
cargo test -q

echo "== workspace tests: every crate's unit and integration tests =="
# The tier-1 line above runs only the root package; the engine's own
# unit tests (gpu-sim isa/compile/plan/deps/concurrent) and every other
# crate's suites run only under --workspace.
cargo test -q --workspace

echo "== perfbench: build + unit tests of the benchmark package =="
# perfbench is its own package (empty [workspace], path deps on
# crates/), so --workspace skips it; it is the only caller of
# `SharedInterpreter` outside its crate, and building it here catches
# an API break before the benchmark does.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== ihw-lint: workspace invariant audit (deny new findings) =="
# Exits non-zero on findings not in lint-baseline.txt; the JSON
# diagnostics (schema ihw-lint/1) are kept as a CI artifact.
cargo run --release -p ihw-lint -- --json-out target/ihw-lint.json

echo "== ihw-analyze: static error bounds (deny new findings) =="
# Exits non-zero on findings not in analyze-baseline.txt; the bound per
# output is the combined min(interval, affine) pass and the advisory
# A009 cancellation-recovered rule never gates. The JSON diagnostics
# (schema ihw-analyze/2) are kept as a CI artifact.
cargo run --release -p ihw-bench --bin repro -- analyze --json-out target/ihw-analyze.json

echo "== ihw-racecheck: memory-dependence audit (deny new findings) =="
# Exits non-zero on findings not in racecheck-baseline.txt; the JSON
# diagnostics (schema ihw-racecheck/1) are kept as a CI artifact.
cargo run --release -p ihw-bench --bin repro -- racecheck --json-out target/ihw-racecheck.json

echo "== ihw-autotune: precision autotuner + A008 gate (deny new findings) =="
# Exits non-zero on A008 over-provisioned-precision findings not in
# autotune-baseline.txt; the JSON document (schema ihw-autotune/1,
# per-kernel Pareto fronts + findings) is kept as a CI artifact.
cargo run --release -p ihw-bench --bin repro -- autotune --json-out target/ihw-autotune.json

echo "== ihw-converge: convergence certification + A010 gate (deny new findings) =="
# Exits non-zero on A010 imprecision-divergence-risk findings not in
# converge-baseline.txt; the documented EXPECTED_DIVERGENT pairs are
# advisory and never gate. The JSON document (schema ihw-converge/1,
# per-pair certificates + findings) is kept as a CI artifact.
cargo run --release -p ihw-bench --bin repro -- converge --json-out target/ihw-converge.json

echo "== solverbench: certificates vs measured solver trajectories =="
# Fails (exit 1) if any certified kernel × config pair measures worse
# than its certificate — more sweeps than N(ε) or a final error above
# the effective tolerance. Refreshes the committed BENCH_solvers.json.
cargo run --release -p ihw-bench --bin repro -- converge --bench

echo "== racebench: interpreted reference vs compiled vs parallel (bit-identity + throughput) =="
# Fails if any compiled run diverges from the interpreted-sequential
# reference; refreshes the committed BENCH_kernel_throughput.json perf
# record. The default worker budget self-clamps to the host's cores
# (schema ihw-racebench/3 records workers_clamped), so no explicit
# --workers.
cargo run --release -p ihw-bench --bin repro -- racecheck --bench

echo "== serve-smoke: multi-tenant launch service (coalescing + bit-identity) =="
# Fails (exit 1) if any worker-budget row's coalesced responses are not
# bit-identical to the 1-worker reference, or the multi-tenant mix
# recorded zero dedup hits. The explicit --workers 4 keeps the recorded
# ladder multi-row even on small CI hosts (the default top self-clamps
# to the host's cores); refreshes the committed BENCH_serve.json.
cargo run --release -p ihw-bench --bin repro -- serve --workers 4

echo "== bench-sanity: every parallel row must pay for itself =="
# Fails (exit 1) if any row that actually took a parallel path recorded
# a speedup below 0.9x — i.e. the proof-gated fan-out made things
# slower. Rows the adaptive cutover kept sequential are exempt: they
# are the cost model working, not a regression. JSON kept as artifact.
cargo run --release -p ihw-bench --bin repro -- racecheck --bench \
    --threads 4096 --repeats 2 --min-speedup 0.9 --out target/bench-sanity.json

echo "== bench-compiled: compiled engine must beat the interpreter =="
# Fails (exit 1) if the geomean compiled-sequential speedup over the
# interpreted-sequential reference drops below the recorded floor
# (5.0x, set by the measurement committed in
# BENCH_kernel_throughput.json) across the four racebench kernels ×
# five stock configs, or if any row is not bit-identical. The floor
# assumes the committed .cargo/config.toml (target-cpu=native): the
# compiled lane loops rely on auto-vectorization. JSON kept as
# artifact.
cargo run --release -p ihw-bench --bin repro -- racecheck --bench \
    --threads 16384 --repeats 2 --min-compiled-speedup 5.0 \
    --out target/bench-compiled.json

echo "== repro-identity: repro all equals the golden output at any --jobs =="
# Fails if the 27 tables and figures of `repro all` differ by one byte
# from perfbench/expected/repro_all.txt, at the default worker budget or
# serially. The golden file is only read here, never refreshed.
cargo run --release -p ihw-bench --bin repro -- all > target/repro_all.txt
cmp target/repro_all.txt perfbench/expected/repro_all.txt
cargo run --release -p ihw-bench --bin repro -- --jobs 1 all > target/repro_all_jobs1.txt
cmp target/repro_all_jobs1.txt perfbench/expected/repro_all.txt

echo "== smoke: repro --timings table5 fig14 =="
cargo run --release -p ihw-bench --bin repro -- --timings table5 fig14

echo "CI OK"
