# Development entry points, mirroring .github/workflows/ci.yml.

# Build every crate in release mode (the tier-1 build gate).
build:
    cargo build --release

# Run the whole test suite (unit, integration, property, doc tests).
test:
    cargo test -q

# Run the benchmark suite; `just bench-snapshot` refreshes the
# committed snapshot (BENCH_pr20.json gates the checker-scaling rows
# and BENCH_pr10.json every other gated row; BENCH_pr6, BENCH_pr3,
# BENCH_pr2, and BENCH_baseline.json are kept for the historical
# trajectory).
bench:
    cargo bench -p funtal-bench

# The snapshot combines three bench binaries via the shim's append
# mode (one JSON row per line; bench_check parses both layouts), at
# the bench-check budget.
bench-snapshot:
    rm -f {{justfile_directory()}}/BENCH_pr20.json
    BENCH_WARMUP_MS=50 BENCH_MEASURE_MS=600 BENCH_APPEND=1 \
        BENCH_OUTPUT={{justfile_directory()}}/BENCH_pr20.json \
        cargo bench -p funtal-bench --bench compile
    BENCH_WARMUP_MS=50 BENCH_MEASURE_MS=600 BENCH_APPEND=1 \
        BENCH_OUTPUT={{justfile_directory()}}/BENCH_pr20.json \
        cargo bench -p funtal-bench --bench batch
    BENCH_WARMUP_MS=50 BENCH_MEASURE_MS=600 BENCH_APPEND=1 \
        BENCH_OUTPUT={{justfile_directory()}}/BENCH_pr20.json \
        cargo bench -p funtal-bench --bench scaling

# Regression gate: re-measure the smoke benches and fail if any
# interpreted_vs_compiled / tail_call_ablation / fib_steady/bytecode/24
# / single-threaded batch_throughput median regressed >25% versus the
# committed BENCH_pr10.json, or if the persistent store's cross-process
# warm start drops below 2x over cold. A second call compares the fresh
# snapshot with itself: the fast machine must stay >= 22.1x faster than
# the Fig 8 oracle on strategy_ablation/*/12 within the same run, and
# counted fib_steady/counted/24 must stay within 1.15x of the bare
# fib_steady/bytecode/24 (see PERFORMANCE.md). Another call gates the FT checker's
# typecheck_scaling/* rows (>25% median regression) against
# BENCH_pr20.json. Rows whose medians are under the 10us noise floor
# are recorded but never fail.
# The 600ms measure budget matters: the slowest gated rows run ~15-45ms
# per iteration, and a median over only a handful of iterations can be
# poisoned by one background-CPU burst on a small runner.
bench-check:
    rm -f /tmp/funtal_bench_now.jsonl
    BENCH_WARMUP_MS=50 BENCH_MEASURE_MS=600 BENCH_APPEND=1 BENCH_OUTPUT=/tmp/funtal_bench_now.jsonl \
        cargo bench -p funtal-bench --bench compile
    BENCH_WARMUP_MS=50 BENCH_MEASURE_MS=600 BENCH_APPEND=1 BENCH_OUTPUT=/tmp/funtal_bench_now.jsonl \
        cargo bench -p funtal-bench --bench batch
    BENCH_WARMUP_MS=50 BENCH_MEASURE_MS=600 BENCH_APPEND=1 BENCH_OUTPUT=/tmp/funtal_bench_now.jsonl \
        cargo bench -p funtal-bench --bench scaling
    cargo run -q -p funtal-bench --bin bench_check -- \
        {{justfile_directory()}}/BENCH_pr10.json /tmp/funtal_bench_now.jsonl \
        --threshold 1.25 --min-abs-us 10 \
        --speedup store_warm_start/cold/24:store_warm_start/warm/24:2.0
    cargo run -q -p funtal-bench --bin bench_check -- \
        {{justfile_directory()}}/BENCH_pr20.json /tmp/funtal_bench_now.jsonl \
        --threshold 1.25 --min-abs-us 10 --prefix typecheck_scaling/
    cargo run -q -p funtal-bench --bin bench_check -- \
        /tmp/funtal_bench_now.jsonl /tmp/funtal_bench_now.jsonl \
        --threshold 1.25 --min-abs-us 10 \
        --speedup strategy_ablation/substitution/12:strategy_ablation/environment/12:22.1 \
        --speedup fib_steady/bytecode/24:fib_steady/counted/24:0.87

# Paired end-to-end runs of REF against the working tree: builds
# perfbench from a `git archive` of REF under target/perf-pairs/ and
# from the working tree, then runs N pairs on WORKLOAD at
# BENCHMARK.json's run_seconds, alternating which side goes first. For
# each end-to-end metric it prints both sides' medians and quartiles,
# the change's wins and a verdict by the pairing rule (see
# crates/bench/src/bin/perf_pairs.rs). perfbench/ is only built.
perf-pairs REF WORKLOAD SEED N="10":
    #!/usr/bin/env bash
    set -euo pipefail
    root={{justfile_directory()}}
    base="$root/target/perf-pairs/$(git -C "$root" rev-parse --short {{REF}})"
    if [ ! -d "$base" ]; then
        mkdir -p "$base"
        git -C "$root" archive {{REF}} | tar -x -C "$base"
    fi
    cargo build --release --offline --quiet --manifest-path "$base/perfbench/Cargo.toml"
    cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml"
    cargo build --release --offline --quiet -p funtal-bench --bin perf_pairs
    cd "$root"
    target/release/perf_pairs BENCHMARK.json \
        "$base/perfbench/target/release/funtal-perfbench" \
        perfbench/target/release/funtal-perfbench {{WORKLOAD}} {{SEED}} {{N}}

# Refresh the CLI golden snapshots after an intentional output change
# (review the diff like any other code change).
golden:
    UPDATE_GOLDEN=1 cargo test -p funtal-driver --test golden

# Formatting + clippy + intra-doc links, exactly as CI enforces them.
lint:
    cargo fmt --all --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps \
        --workspace --exclude proptest --exclude criterion --document-private-items
    ! grep -rn 'thread_local!' crates/*/src

# The static-analysis gate, exactly as CI runs it: every committed
# example must pass `funtal lint` clean at warning level. (The
# generated differential corpus is gated by the verify_props and
# fuel_bounds suites under `just test`.)
lint-gate:
    cargo run -q -p funtal-driver -- lint \
        examples/double_twice.ft examples/fact_t.ft \
        examples/fact.mf examples/poly.mf --deny warnings

# Evict the local persistent verdict store down to its size cap
# (default ~/.cache/funtal-store at 256 MiB; override DIR/CAP to match
# however you pointed --store-dir).
store-gc DIR="~/.cache/funtal-store" CAP="268435456":
    cargo run -q -p funtal-driver -- store gc \
        --store-dir {{DIR}} --store-cap {{CAP}}

# Lines of Rust outside vendor/, perfbench/ and target/: the size
# measure each change reports its net delta against.
loc:
    find {{justfile_directory()}} -name '*.rs' -not -path '*/vendor/*' \
        -not -path '*/perfbench/*' -not -path '*/target/*' -print0 \
        | xargs -0 cat | wc -l

# Apply formatting.
fmt:
    cargo fmt --all

# Everything CI runs, locally.
ci: build test lint lint-gate bench
