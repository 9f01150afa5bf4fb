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

# The host LLC must stay exact: its lockstep property test drives the
# flat, lazily allocated tag arena and the per-line oracle it replaced
# with the same accesses, repeats of the previous access and tags at the
# 16-bit words' bound included, and the Xeon-spec test replays the
# requester's repeated receive-buffer write on both sides of the repeat
# memo's residency condition. The runs test drives the set-by-set path
# of accesses of at least two lines per set against the oracle, set by
# set. The width test pins the widening of the arena to 64-bit words,
# and the storage test the lazy chunks and the 16-bit arena of a fully
# touched Xeon LLC. Run the five by name and refuse a run where the
# filters matched anything else.
llc_out=$(cargo test --release --offline -p memsys --lib -- \
    lockstep_matches_per_line_oracle repeated_receive_buffer_write_on_xeon \
    runs_match_per_line_oracle narrow_tags_widen_in_place \
    tag_storage_is_allocated_per_touched_chunk 2>&1) || {
    echo "$llc_out"
    echo "ci.sh: LLC oracle tests FAILED" >&2
    exit 1
}
if ! grep -q "ok. 5 passed" <<<"$llc_out"; then
    echo "$llc_out"
    echo "ci.sh: expected exactly llc::tests::lockstep_matches_per_line_oracle +" \
        "llc::tests::repeated_receive_buffer_write_on_xeon +" \
        "llc::tests::runs_match_per_line_oracle +" \
        "llc::tests::narrow_tags_widen_in_place +" \
        "llc::tests::tag_storage_is_allocated_per_touched_chunk (filtered out or renamed?)" >&2
    exit 1
fi

# The scheduler and the per-request primitives must stay exact. The
# threshold property drives the engine's sorted deque and timing wheel
# against the heap oracle while the queue spills and returns; the other
# oracles pin the fast paths of `Nanos::from_nanos_f64`, `MultiServer`,
# the `Pipe` service memo and the `Zipf` guide table to the code they
# replaced, and the `HashIndex` to a naive linear-probing model (exact
# probe counts) and a `HashMap` (contents). Run the seven by name and
# refuse a run where the filters matched anything else.
prim_out=$(cargo test --release --offline -p simnet -p snic-kvstore --lib -- \
    engine_matches_baseline_across_the_deque_threshold from_nanos_f64_matches_round \
    multiserver_matches_heap_model pipe_memo_matches_uncached_service \
    zipf_guide_matches_the_searches probes_match_linear_probing_model \
    index_matches_hashmap_oracle 2>&1) || {
    echo "$prim_out"
    echo "ci.sh: scheduler and primitive oracle tests FAILED" >&2
    exit 1
}
if ! grep -q "ok. 5 passed" <<<"$prim_out" || ! grep -q "ok. 2 passed" <<<"$prim_out"; then
    echo "$prim_out"
    echo "ci.sh: expected exactly five simnet tests (engine_matches_baseline_across_the_deque_threshold," \
        "from_nanos_f64_matches_round, multiserver_matches_heap_model," \
        "pipe_memo_matches_uncached_service, zipf_guide_matches_the_searches) and two" \
        "snic-kvstore tests (probes_match_linear_probing_model," \
        "index_matches_hashmap_oracle) (filtered out or renamed?)" >&2
    exit 1
fi

# The rack runtime must route in global (depart, src, seq) order and
# hand a shard's panic to the caller. The outbox oracle drives the
# shipped outbox push and due-prefix take against an ordered map; the
# should-panic test pins the push's check that departures never
# decrease; the two panic tests pin the gate and run_cluster at one and
# two workers. Run the four by name and refuse a run where the filters
# matched anything else.
rt_out=$(cargo test --release --offline -p snic-cluster --lib -- \
    outboxes_release_messages_in_ordered_map_order \
    an_outbox_rejects_a_departure_before_its_last \
    gate_re_raises_a_worker_panic_on_the_driver a_worker_panic_reaches_the_caller 2>&1) || {
    echo "$rt_out"
    echo "ci.sh: rack runtime oracle tests FAILED" >&2
    exit 1
}
if ! grep -q "ok. 4 passed" <<<"$rt_out"; then
    echo "$rt_out"
    echo "ci.sh: expected exactly runtime::tests::outboxes_release_messages_in_ordered_map_order +" \
        "runtime::tests::an_outbox_rejects_a_departure_before_its_last +" \
        "runtime::tests::gate_re_raises_a_worker_panic_on_the_driver +" \
        "runtime::tests::a_worker_panic_reaches_the_caller (filtered out or renamed?)" >&2
    exit 1
fi

# Every DMA leg must stay exact: the digest test folds each leg's
# finish time, hop breakdown and PCIe counters on the three server NICs,
# healthy and degraded, into one constant. Run it by name and refuse a
# run where the filter matched anything else.
dma_out=$(cargo test --release --offline -p nicsim --lib dma_legs_match_recorded_digest 2>&1) || {
    echo "$dma_out"
    echo "ci.sh: DMA-leg digest test FAILED" >&2
    exit 1
}
if ! grep -q "ok. 1 passed" <<<"$dma_out"; then
    echo "$dma_out"
    echo "ci.sh: expected exactly server::tests::dma_legs_match_recorded_digest (filtered out or renamed?)" >&2
    exit 1
fi

# Smoke the README's first example (harness latency on paths 1 and 2,
# then the advisor), the cluster runtime end to end through its example,
# and the fault-injection, open-loop, KV-service, far-memory and BF-3
# DPA sweeps through the figure runner.
cargo run --release --offline -p offpath-smartnic --example quickstart
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

echo "ci.sh: build + tests + fmt + clippy (workspace and snicbench) + rustdoc + cluster determinism + golden digests + LLC oracle and width tests (lockstep_matches_per_line_oracle, repeated_receive_buffer_write_on_xeon, runs_match_per_line_oracle, narrow_tags_widen_in_place, tag_storage_is_allocated_per_touched_chunk) + scheduler and primitive oracles (engine_matches_baseline_across_the_deque_threshold, from_nanos_f64_matches_round, multiserver_matches_heap_model, pipe_memo_matches_uncached_service, zipf_guide_matches_the_searches, probes_match_linear_probing_model, index_matches_hashmap_oracle) + rack runtime oracles (outboxes_release_messages_in_ordered_map_order, an_outbox_rejects_a_departure_before_its_last, gate_re_raises_a_worker_panic_on_the_driver, a_worker_panic_reaches_the_caller) + DMA-leg digest (dma_legs_match_recorded_digest) + quickstart example + Figure-1 table and KV examples + benchmark smoke all green (offline)"
