#!/usr/bin/env bash
# Tier-1 gate: hermetic build + tests + formatting + lints + rustdoc.
#
# --offline is load-bearing, not an optimization: the workspace has a
# zero-external-dependency policy (see the root Cargo.toml and
# DESIGN.md), and running cargo with the network forbidden proves no PR
# can reintroduce a registry dependency — resolution itself would fail
# right here before a single test runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --workspace --offline
cargo fmt --check
cargo clippy --workspace --all-targets --offline -- -D warnings
# snicbench is its own package outside the workspace: lint it too.
cargo fmt --check --manifest-path snicbench/Cargo.toml
cargo clippy --offline --manifest-path snicbench/Cargo.toml --all-targets -- -D warnings
# Rustdoc warnings (an intra-doc link left dangling by a deletion) fail.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The parallel cluster runtime must actually prove worker-count
# invariance — fault-free, with the fault plane active, under open-loop
# arrival chains, with the KV service's online advisor re-placing the
# index, with the far-memory tier promoting/demoting pages, AND with
# the BF-3 DPA plane serving gets: run the six dedicated tests by
# name and refuse a run where the filter silently matched anything else (a rename would otherwise turn the
# gate into a no-op).
det_out=$(cargo test --release --offline -p offpath-smartnic --test determinism \
    cluster_worker_count_invariance 2>&1) || {
    echo "$det_out"
    echo "ci.sh: cluster determinism tests FAILED" >&2
    exit 1
}
if ! grep -q "6 passed" <<<"$det_out"; then
    echo "$det_out"
    echo "ci.sh: expected exactly cluster_worker_count_invariance +" \
        "cluster_worker_count_invariance_with_faults +" \
        "cluster_worker_count_invariance_openloop +" \
        "cluster_worker_count_invariance_kv +" \
        "cluster_worker_count_invariance_farmem +" \
        "cluster_worker_count_invariance_dpa (filtered out or renamed?)" >&2
    exit 1
fi

# The cluster serving arms must reproduce their golden digests (CSV
# plus every registry counter of ~30 short rack runs). Run the five
# golden tests by name and refuse a run where the filter matched
# anything else.
golden_out=$(cargo test --release --offline -p offpath-smartnic --test golden golden_ 2>&1) || {
    echo "$golden_out"
    echo "ci.sh: cluster golden digests FAILED" >&2
    exit 1
}
if ! grep -q "5 passed" <<<"$golden_out"; then
    echo "$golden_out"
    echo "ci.sh: expected exactly the five golden_* tests (filtered out or renamed?)" >&2
    exit 1
fi

# Smoke the cluster runtime end to end through its example, and the
# fault-injection, open-loop, KV-service, far-memory and BF-3 DPA
# sweeps through the figure runner.
cargo run --release --offline -p offpath-smartnic --example incast -- --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 15 --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 16 --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 17 --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 18 --quick
cargo run --release --offline -p snic-bench --bin run_all -- --only 19 --quick

# Figure 1 runs on the rack KV service as well: smoke its table and the
# two examples built on the same one-client, one-server helper.
cargo run --release --offline -p snic-bench --bin run_all -- --only fig1_ --quick
cargo run --release --offline -p offpath-smartnic --example kv_offload
cargo run --release --offline -p offpath-smartnic --example ycsb_mixes

# Repository benchmark smoke: snicbench's own tests, then every workload
# at --seconds 0 (its minimum of three passes). snicbench exits 0 even
# when a simulation fails its check, so each result line must report
# "failed": 0.
cargo test --offline --manifest-path snicbench/Cargo.toml
for workload in rack_verbs rack_services harness_sweep; do
    bench_out=$(cargo run --release --offline --quiet --manifest-path snicbench/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 0 --trace 0)
    echo "$bench_out"
    if ! tail -n 1 <<<"$bench_out" | grep -q '"failed": 0'; then
        echo "ci.sh: snicbench $workload reported failed operations" >&2
        exit 1
    fi
done

echo "ci.sh: build + tests + fmt + clippy (workspace and snicbench) + rustdoc + cluster determinism + golden digests + Figure-1 table and KV examples + benchmark smoke all green (offline)"
