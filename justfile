# Developer workflow shortcuts. `just` (or `just check`) mirrors CI.

# Run everything CI runs, in the same order.
check: fmt build test clippy doc

fmt:
    cargo fmt --all --check

build:
    cargo build --release

test:
    cargo test -q --workspace --release

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# The workspace's rustdoc must build without a warning (broken intra-doc
# links and public docs that link private items included).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# e2e_bench is a workspace of its own, so nothing above compiles it: build
# it and run its own tests against the product crates, to catch a
# `hacc-core` API break before the benchmark pipeline does.
e2e-quick:
    cargo test -q --release --offline --manifest-path e2e_bench/Cargo.toml

# Dispatch-layer microbenchmarks (persistent pool vs spawn-per-dispatch).
bench-dispatch:
    cargo bench -p bench --bench dispatch_overhead

# Regenerate the paper's tables/figures benches.
bench-paper:
    cargo bench -p bench --bench paper_tables

# Re-measure the SoA/column kernel trajectory and rewrite the committed
# BENCH_kernels.json, then validate it with the CI gate. (The bench harness
# runs from the crate directory, hence the absolute path.)
bench-kernels:
    BENCH_KERNELS_JSON=$(pwd)/BENCH_kernels.json cargo bench -p bench --bench kernels
    cargo run --release -p bench --bin bench_check -- BENCH_kernels.json

# Where a PM step's time goes: eight 64³ steps under a recorder, per-span
# medians of the product's own `nbody` spans (deposit_columns / deposit /
# pm_solve / gather / kick / drift) and the solve and gather counts.
step-profile:
    cargo run --release --example step_profile

# First-party non-test Rust lines per crate (the number ROADMAP tracks):
# every `src/**/*.rs` line above the file's top-level `#[cfg(test)]`, the
# vendored stand-ins (rand, proptest, criterion, parking_lot, bytes) left out.
loc:
    @for c in src crates/*/src; do \
        case $c in crates/rand/*|crates/proptest/*|crates/criterion/*|crates/parking_lot/*|crates/bytes/*) continue;; esac; \
        find $c -name '*.rs' -print0 | xargs -0 awk -v c=$c 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{printf "%7d %s\n", n, c}'; \
    done | awk '{s+=$1; print} END{printf "%7d total\n", s}'

# Every first-party `pub fn` has a caller: fails on any whose name no other
# `.rs` file names outside a `use` / `pub use` statement (the vendored
# stand-ins skipped). Part of tier-1 (`cargo test`), so CI runs it too; a hit
# is deleted or made private, and the test's commented allow-list holds only
# `$crate::` macro targets and crash-window hooks.
api-audit:
    cargo test -q --test api_audit

# Run the workflow comparison and export a Chrome trace (load trace.json in
# Perfetto / chrome://tracing).
trace-demo:
    cargo run --release --example workflow_compare -- --trace trace.json

# Incremental re-execution: every workflow twice against one artifact cache;
# the warm pass must hit for everything and change no catalog byte.
cache-demo:
    cargo run --release --example cache_demo

# Multi-campaign service: ten campaigns through an eight-slot batch queue
# must saturate with backpressure, recover, and match their solo catalogs.
service-demo:
    cargo run --release --example service_demo

# The multi-campaign chaos + crash-schedule suite (CI sweeps CHAOS_SEED 1-3).
service:
    cargo test -q --release --test service

# Distributed artifact store: a streamed campaign, one store node killed for
# good, and a warm re-run that must recompute nothing (byte-compared).
store-demo:
    cargo run --release --example store_demo

# The store crash-schedule + node-death suite (CI sweeps CHAOS_SEED 1-3).
store:
    cargo test -q --release --test store

# In-situ visualization demo: every-step density render through the
# CosmoTools task, final frame as HCIM + ASCII, render-phase cost line.
render-demo:
    cargo run --release --example density_render

# The render chaos suite: fault-storm byte-identity, exactly-once frame
# listener crash/restart, warm re-runs with zero re-renders (CI sweeps
# CHAOS_SEED 1-3).
render:
    cargo test -q --release --test render

# Fast conformance suite: differential backends, physics oracles, bounded
# crash-schedule exploration, listener regressions, golden fixtures.
conformance:
    cargo test -q --release --test conformance
    cargo test -q --release -p conformance

# Nightly scope: crash at every recorded (site, hit) pair instead of the
# first hit per site.
conformance-exhaustive:
    CONFORMANCE_EXHAUSTIVE=1 cargo test -q --release --test conformance

# The smoke scenario sweep: 120 scenarios × 25 seeds on the virtual clock,
# artifacts (JSON/CSV/summary) under target/sweep.
sweep:
    cargo run --release -p scenarios --bin sweep -- --smoke

# The full grammar (1296 scenarios: every machine × load × workload ×
# strategy × fault plan × scheduler, minus the excluded combinations).
sweep-full:
    cargo run --release -p scenarios --bin sweep -- --full --out target/sweep-full

# Regenerate the golden fixtures under tests/goldens/ after an intentional
# behaviour change (the only sanctioned way to update them).
bless:
    BLESS=1 cargo test -q --release --test conformance golden
    BLESS=1 cargo test -q --release --test sweep
