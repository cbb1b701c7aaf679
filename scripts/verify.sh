#!/usr/bin/env bash
# Tier-1 verification: offline release build, lint wall, rustfmt on the
# model checker, the event engine and the MAC layer, full test suite,
# perfbench's own tests, the `macaw-bench tables --quick` golden diff, and
# smoke runs of the `macaw-bench` subcommands. Exits non-zero if anything
# fails to build, clippy reports any warning, any test fails, the tables
# drift by a byte from crates/bench/tests/golden/tables_quick.txt, or any
# harness panics / produces non-finite throughput / loses the
# corruption-ablation claim (MACAW ahead of MACA on a corrupting channel).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt (model checker, event engine, MAC layer) =="
cargo fmt --check -p macaw-check
cargo fmt --check -p macaw-sim
cargo fmt --check -p macaw-mac

echo "== tests =="
cargo test -q --workspace

echo "== tables --quick byte-identity (the paper numbers are the spec) =="
cargo run --release -p macaw-bench -- tables --quick > target/tables_quick.txt
diff -u crates/bench/tests/golden/tables_quick.txt target/tables_quick.txt

echo "== perf smoke =="
cargo run --release -p macaw-bench -- perf --quick

echo "== engine smoke (FEL microbench + queue-backend equivalence) =="
cargo run --release -p macaw-bench -- engine --quick
cargo test -q --release -p macaw-sim --test proptest_queue
cargo test -q --release -p macaw-bench --test determinism ladder_and_heap

echo "== model-checker smoke (exhaustive proofs + reduction-ratio guard + --jobs determinism + seeded-bug detection) =="
cargo run --release -p macaw-bench -- check --smoke
cargo test -q --release -p macaw-check --test proofs
cargo test -q --release -p macaw-check --test regression

echo "== reduction soundness (reduced explorer vs oracle + parallel split determinism) =="
cargo test -q --release -p macaw-check --test reduction
cargo test -q --release -p macaw-bench --test check_par

echo "== faults smoke =="
cargo run --release -p macaw-bench -- faults --smoke

echo "== scale smoke (serial vs 4-shard bitwise identity) =="
cargo run --release -p macaw-bench -- scale --quick --shards 4

echo "== per-event-cost guard (flat medium cost across N) =="
cargo run --release -p macaw-bench -- scale --smoke

echo "== per-move-cost guard (flat mover cost across N + moving-run cache round-trip) =="
cargo run --release -p macaw-bench -- mobility --smoke

echo "== medium churn suite (slab vs oracles under end_tx-heavy schedules) =="
cargo test -q --release -p macaw-phy --test churn_medium

echo "== sharded-engine invariance suite =="
cargo test -q --release -p macaw-bench --test sharding

echo "== replicate smoke (executor + run cache + multi-seed sweep) =="
cargo run --release -p macaw-bench -- replicate --quick
cargo test -q --release -p macaw-bench --test executor

echo "== perfbench's own tests (transparency + output format) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== alloc-stats feature gate =="
cargo build --release -p macaw-bench --features alloc-stats

echo "verify: OK"
