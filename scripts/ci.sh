#!/usr/bin/env bash
# Local CI gate: formatting, lints, docs and the full test suite —
# everything a change must pass before it lands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "=== cargo clippy (workspace, warnings are errors) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo doc (no deps, warnings are errors) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "=== dpm-lint (determinism / no-panic invariants, findings are errors) ==="
cargo build --release -q -p dpm-lint
./target/release/dpm-lint --deny --baseline scripts/lint_baseline.json

echo "=== dpm-lint seeded-violation smoke (planted Instant must fail the gate) ==="
if ./target/release/dpm-lint --deny crates/lint/tests/fixtures/planted_instant.rs > /dev/null; then
    echo "dpm-lint missed the planted violation" >&2
    exit 1
fi

echo "=== dpm-lint seed-provenance smoke (raw seed_from_u64 in a library path must fail) ==="
if ./target/release/dpm-lint --deny crates/lint/tests/fixtures/seed_taint.rs > /dev/null; then
    echo "dpm-lint missed the planted underived seed" >&2
    exit 1
fi

echo "=== dpm-lint baseline-drift smoke (empty baseline must fail the gate) ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
printf '{"allows_by_rule": {}}\n' > "$SMOKE_DIR/empty_baseline.json"
if ./target/release/dpm-lint --baseline "$SMOKE_DIR/empty_baseline.json" > /dev/null; then
    echo "dpm-lint missed allow-count drift past the baseline" >&2
    exit 1
fi

echo "=== dpm-lint schema-registry smoke (schema id defined in two files must fail) ==="
printf 'pub const FORMAT: &str = "dpm-smoke/v1";\n' > "$SMOKE_DIR/schema_a.rs"
printf 'pub const FORMAT_COPY: &str = "dpm-smoke/v1";\n' > "$SMOKE_DIR/schema_b.rs"
if ./target/release/dpm-lint --deny "$SMOKE_DIR/schema_a.rs" "$SMOKE_DIR/schema_b.rs" > /dev/null; then
    echo "dpm-lint missed the duplicated schema-id definition" >&2
    exit 1
fi

echo "=== cargo test ==="
cargo test --workspace -q

echo "=== bit-identity proptests under eight seeds (release test binaries) ==="
# On every draw, not only on the default seed's: sparse-row LU must match
# the textbook elimination bit for bit; the flat Tarjan pass must match a
# reachability closure; the CTMDP and each policy's chain must match their
# reference constructions bit for bit.
for seed in $(seq 1 8); do
    PROPTEST_SEED="$seed" cargo test -q --release -p dpm-linalg --lib lu::tests
    PROPTEST_SEED="$seed" cargo test -q --release -p dpm-ctmc --lib graph::tests::flat_tarjan
    PROPTEST_SEED="$seed" cargo test -q --release -p dpm-mdp --test properties sparse_generator_for_matches
    PROPTEST_SEED="$seed" cargo test -q --release -p dpm-core --test ctmdp_assembly
done

echo "=== golden frontier digest (all 102 perfbench frontier points, every output bit) ==="
# The Q = 20 third runs with the suite above; the full sweep is ignored
# there because it is slow unoptimized.
cargo test -q --release -p dpm-core --test frontier_digest -- --ignored

echo "=== perfbench tests (the benchmark's calls into the public APIs must compile and pass) ==="
# perfbench is its own cargo workspace, so `--workspace` above skips it.
# Release: its tiny-size workload runs take ~2 s optimized, ~40 s in debug.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "=== harness smoke run (tiny plan, 2 workers, determinism gate) ==="
cargo build --release -q -p dpm-bench --bin heuristics -p dpm-harness --bin artifact_diff
./target/release/heuristics --workers 1 --requests 500 --seed 7 \
    --out "$SMOKE_DIR/w1.json" > /dev/null
./target/release/heuristics --workers 2 --requests 500 --seed 7 \
    --out "$SMOKE_DIR/w2.json" > /dev/null
./target/release/artifact_diff --a "$SMOKE_DIR/w1.json" --b "$SMOKE_DIR/w2.json"

echo "=== fault-injection smoke (task 3 panics; everything else must survive) ==="
./target/release/heuristics --workers 2 --requests 500 --seed 7 \
    --inject-panic 3 --out "$SMOKE_DIR/faulted.json" > /dev/null 2> /dev/null
grep -q '"tasks_failed": 1' "$SMOKE_DIR/faulted.json"
grep -q '"status": "failed"' "$SMOKE_DIR/faulted.json"
[ "$(grep -c '"status": "ok"' "$SMOKE_DIR/faulted.json")" -eq 13 ]
# A faulted task must recover under retry: same fault, two attempts.
./target/release/heuristics --workers 2 --requests 500 --seed 7 \
    --inject-panic 3:1 --max-attempts 2 --out "$SMOKE_DIR/retried.json" > /dev/null 2> /dev/null
grep -q '"tasks_failed": 0' "$SMOKE_DIR/retried.json"
grep -q '"tasks_retried": 1' "$SMOKE_DIR/retried.json"

echo "=== solve-phase smoke (1 vs 2 solve workers, determinism gate) ==="
cargo build --release -q -p dpm-bench --bin fig4
./target/release/fig4 --workers 1 --solve-workers 1 --requests 500 --reps 1 \
    --seed 11 --out "$SMOKE_DIR/solve1.json" > /dev/null
./target/release/fig4 --workers 1 --solve-workers 2 --requests 500 --reps 1 \
    --seed 11 --out "$SMOKE_DIR/solve2.json" > /dev/null
./target/release/artifact_diff --a "$SMOKE_DIR/solve1.json" --b "$SMOKE_DIR/solve2.json"

echo "=== scaling smoke (reducible greedy chains: dense GTH == sparse Gauss-Seidel on the closed class) ==="
cargo build --release -q -p dpm-bench --bin scaling
# scaling exits non-zero if a task fails or the two pipelines' π differ
# by more than 1e-9; these are the only reducible SYS chains CI solves.
./target/release/scaling --capacities 5,50 --modes 3,5 \
    --out "$SMOKE_DIR/scaling.json" > /dev/null

echo "=== solve-phase benchmark smoke (improvement fixpoint, pipeline identity, solver tiers) ==="
cargo build --release -q -p dpm-bench --bin bench_solve
# bench_solve exits non-zero if any of its checks fails.
./target/release/bench_solve --capacity 10 --rounds 2 \
    --tier-states 10000 \
    --out "$SMOKE_DIR/bench_solve.json" > /dev/null

echo "=== serving smoke (1 vs N shards, determinism gate at tolerance 0) ==="
cargo build --release -q -p dpm-bench --bin bench_serve
# bench_serve self-checks bit-identity across its --shards list and fails
# on any divergence; a small fleet keeps this fast on every host.
./target/release/bench_serve --systems 32 --requests 300 --shards 1,2 \
    --rounds 20 --lookup-capacity 50 --seed 7 \
    --out "$SMOKE_DIR/bench_serve.json" \
    --outcome-out "$SMOKE_DIR/serve1.json" > /dev/null
# Shard counts agreeing with each other does not catch a change to the
# random streams (every shard count moves with them), so pin the fleet
# fingerprint and the work totals as well.
pin() { # pin FILE LINE: FILE must contain the JSON line LINE exactly.
    if ! grep -qF "$2" "$1"; then
        echo "$1: pinned value moved (expected $2)" >&2
        exit 1
    fi
}
pin "$SMOKE_DIR/bench_serve.json" '"fingerprint": "afaef8aee9dd041b"'
pin "$SMOKE_DIR/bench_serve.json" '"events": 35139,'
pin "$SMOKE_DIR/bench_serve.json" '"policy_lookups": 35139,'
CORES="$(nproc)"
if [ "$CORES" -ge 4 ]; then
    # Enough cores for real parallelism: diff the 4-shard outcome against
    # the 1-shard outcome externally and record the measured speedup.
    ./target/release/bench_serve --systems 32 --requests 300 --shards 4,1 \
        --rounds 20 --lookup-capacity 50 --seed 7 \
        --out "$SMOKE_DIR/bench_serve4.json" \
        --outcome-out "$SMOKE_DIR/serve4.json" > /dev/null
    ./target/release/artifact_diff --a "$SMOKE_DIR/serve1.json" --b "$SMOKE_DIR/serve4.json"
    grep -o '"serve_4_shards_speedup_vs_1": [0-9.eE+-]*' "$SMOKE_DIR/bench_serve4.json" \
        | sed 's/^/multi-worker /'
else
    echo "($CORES core(s): skipping the 4-shard speedup leg; bit-identity already gated above)"
fi

echo "=== cluster smoke (K=2: matrix-free == materialized == lumped-refined, no escalation) ==="
cargo build --release -q -p dpm-bench --bin bench_cluster
# bench_cluster self-gates the three solve paths against each other and
# exits non-zero on any disagreement; K=2 keeps the joint gate tiny, and
# the K=8 fleet leg is lumped-only (1287 states) so it stays cheap while
# still exercising the >1e6-joint-states check.
./target/release/bench_cluster --gate-k 2 --fleet-k 2,8 \
    --out "$SMOKE_DIR/bench_cluster.json" > /dev/null
grep -q '"matrix_free_matches_materialized": true' "$SMOKE_DIR/bench_cluster.json"
grep -q '"lumping_refines_to_joint": true' "$SMOKE_DIR/bench_cluster.json"
# Every gate solve must run preconditioned: no block-Jacobi escalation.
if grep -q '"escalated": true' "$SMOKE_DIR/bench_cluster.json"; then
    echo "a matrix-free gate solve escalated (block-Jacobi factorization singular)" >&2
    exit 1
fi

echo "=== criterion micro-bench smoke (kernels must stay compiling) ==="
cargo bench --workspace --no-run -q

echo "=== kill-and-resume smoke (truncated journal must resume bit-identically) ==="
./target/release/heuristics --workers 2 --requests 500 --seed 7 \
    --checkpoint "$SMOKE_DIR/journal.jsonl" --out "$SMOKE_DIR/full.json" > /dev/null
# Simulate a kill after 6 completed tasks: header + 6 journal entries.
head -n 7 "$SMOKE_DIR/journal.jsonl" > "$SMOKE_DIR/partial.jsonl"
./target/release/heuristics --workers 2 --requests 500 --seed 7 \
    --resume "$SMOKE_DIR/partial.jsonl" --out "$SMOKE_DIR/resumed.json" > /dev/null
./target/release/artifact_diff --a "$SMOKE_DIR/w1.json" --b "$SMOKE_DIR/resumed.json"
# Simulate a kill mid-append: the same 7 lines plus half of line 8. The
# torn line is dropped and its task reruns.
LINE8="$(sed -n 8p "$SMOKE_DIR/journal.jsonl")"
{ cat "$SMOKE_DIR/partial.jsonl"; printf '%s' "${LINE8:0:$((${#LINE8} / 2))}"; } \
    > "$SMOKE_DIR/torn.jsonl"
./target/release/heuristics --workers 2 --requests 500 --seed 7 \
    --resume "$SMOKE_DIR/torn.jsonl" --out "$SMOKE_DIR/resumed_torn.json" > /dev/null
./target/release/artifact_diff --a "$SMOKE_DIR/w1.json" --b "$SMOKE_DIR/resumed_torn.json"

echo "=== serve chaos smoke (mid-run SIGKILL, resume, tol-0 diff vs uninterrupted) ==="
SERVE_CHAOS=(--systems 16 --requests 200000 --seed 99
    --inject-panic 3@400,5@250:2 --inject-error 7@300:max --max-attempts 3)
# The uninterrupted faulted reference: supervised serve, self-gated
# internally against a fault-free fleet, outcome artifact written.
./target/release/bench_serve "${SERVE_CHAOS[@]}" --shards 2 \
    --outcome-out "$SMOKE_DIR/serve_chaos_ref.json" > /dev/null 2> /dev/null
# The resume leg only diffs against this reference, which moves with the
# random streams, so pin its fingerprint too.
pin "$SMOKE_DIR/serve_chaos_ref.json" '"fingerprint": "cb7e9160613c1056"'
# The same run uninterrupted with a journal: journaling must not change
# the outcome, and the journal holds only what resume reads — the header,
# one epoch per retry (5) and one settlement per system (16).
./target/release/bench_serve "${SERVE_CHAOS[@]}" --shards 2 \
    --checkpoint "$SMOKE_DIR/serve_chaos_full.jsonl" \
    --outcome-out "$SMOKE_DIR/serve_chaos_journaled.json" > /dev/null 2> /dev/null
./target/release/artifact_diff --a "$SMOKE_DIR/serve_chaos_ref.json" \
    --b "$SMOKE_DIR/serve_chaos_journaled.json"
journal_lines() { # journal_lines FILE: line count, 0 while FILE is absent.
    if [ -e "$1" ]; then wc -l < "$1"; else echo 0; fi
}
CHAOS_LINES="$(journal_lines "$SMOKE_DIR/serve_chaos_full.jsonl")"
if [ "$CHAOS_LINES" -ne 22 ]; then
    echo "chaos journal holds $CHAOS_LINES lines (expected 22: header, 5 retries, 16 settlements)" >&2
    exit 1
fi
# The same run, SIGKILLed as soon as its journal holds a record beyond
# the header.
./target/release/bench_serve "${SERVE_CHAOS[@]}" --shards 2 \
    --checkpoint "$SMOKE_DIR/serve_chaos.jsonl" \
    --outcome-out "$SMOKE_DIR/serve_chaos_never.json" > /dev/null 2> /dev/null &
CHAOS_PID=$!
for _ in $(seq 1 500); do
    [ "$(journal_lines "$SMOKE_DIR/serve_chaos.jsonl")" -ge 2 ] && break
    sleep 0.01
done
kill -9 "$CHAOS_PID" 2> /dev/null || true
wait "$CHAOS_PID" 2> /dev/null || true
if [ -e "$SMOKE_DIR/serve_chaos_never.json" ]; then
    echo "(chaos run finished before the kill landed; resume leg still gates the journal)"
fi
# Resume from whatever the kill left behind — at a different shard count —
# and require the outcome to match the uninterrupted reference bit-for-bit.
./target/release/bench_serve "${SERVE_CHAOS[@]}" --shards 4 \
    --resume "$SMOKE_DIR/serve_chaos.jsonl" \
    --outcome-out "$SMOKE_DIR/serve_chaos_resumed.json" > /dev/null 2> /dev/null
./target/release/artifact_diff --a "$SMOKE_DIR/serve_chaos_ref.json" \
    --b "$SMOKE_DIR/serve_chaos_resumed.json"

echo "CI checks passed."
