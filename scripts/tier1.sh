#!/usr/bin/env sh
# Tier-1 gate: everything a change must pass before it lands.
# Offline by design — all dependencies are vendored path crates; no network.
set -eu

cd "$(dirname "$0")/.."

echo "== tier1: format =="
cargo fmt --all --check

echo "== tier1: release build =="
cargo build --release --workspace

echo "== tier1: tests =="
cargo test -q --workspace
# The vendored crossbeam stand-in is a path dependency, not a workspace
# member, so `--workspace` skips its unit tests; the ingest data path runs
# through its channel, so they run here explicitly.
cargo test -q -p crossbeam

echo "== tier1: clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: paper-claim gate (16 shape checks vs the paper) =="
# Runs the full 13-day mission and checks every reproduced figure, table and
# prose statistic against the paper's shape; exits non-zero on any failed
# claim, so a behavioural drift cannot land green.
cargo run --release -q -p ares-bench --bin full_repro

echo "== tier1: bench smoke (per-stage timings -> BENCH_pipeline.json) =="
# bench_smoke writes the artifact fresh; the soaks below splice into it, so
# order matters: smoke first, then ingest, then fleet, then the guard.
cargo run --release -q -p ares-bench --bin bench_smoke BENCH_pipeline.json

echo "== tier1: ingest soak (multi-tenant streaming + chaos drill) =="
# Streams a full recorded day through the sharded ingest service twice —
# clean, then with shard 0's primary killed at noon — and splices sustained
# throughput plus a recovery-divergence bit into the artifact.
cargo run --release -q -p ares-bench --bin ingest_soak BENCH_pipeline.json

echo "== tier1: fleet soak (sharded mission service at fleet scale) =="
# Hundreds of seeded habitat variants behind the sharded deterministic
# scheduler; splices badge-day throughput, availability drill results and a
# fleet-determinism bit into the artifact.
cargo run --release -q -p ares-bench --bin fleet_soak BENCH_pipeline.json

echo "== tier1: scenario soak (seeded generated worlds through the slice) =="
# Generates dozens of seeded scenarios (the property tests in
# tests/scenario_properties.rs already ran under `cargo test` above),
# validates each against the layout rulebook, and proves recording/analysis/
# streaming bit-identity on the generated geometry; splices the scenario
# count, worst field-cache resolved fraction and a determinism bit into the
# artifact.
cargo run --release -q -p ares-bench --bin scenario_soak BENCH_pipeline.json

echo "== tier1: bench regression guard =="
# One structured pass over the artifact replaces the old grep/sed stanzas:
# determinism bits (engine, recording, fleet, scenario generation), recovery
# divergence, the localize/speech/ingest throughput floors, the >=1000
# badge-day fleet scale floor, and the >=25 validated-scenario floor with
# its field-cache purity minimum. Any violation is a build failure, not a
# number to eyeball.
cargo run --release -q -p ares-bench --bin bench_guard BENCH_pipeline.json

echo "== tier1: OK =="
