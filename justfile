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
# every `src/**/*.rs` line outside column-0 `#[cfg(test)]` items (each item is
# skipped to its closing brace, or to its `;`, and the blank lines between it
# and the next test item go with it), the vendored stand-ins (rand, proptest,
# criterion, parking_lot, bytes) left out.
loc:
    @for c in src crates/*/src; do \
        case $c in crates/rand/*|crates/proptest/*|crates/criterion/*|crates/parking_lot/*|crates/bytes/*) continue;; esac; \
        find $c -name '*.rs' -print0 | xargs -0 awk -v c=$c 'FNR==1{t=0; p=0} !t && /^#\[cfg\(test\)\]/{t=1; d=0; o=0} t{l=$0; d+=gsub(/\{/,"{",l); d-=gsub(/\}/,"}",l); if(index($0,"{"))o=1; if((o&&d<=0)||(!o&&/;[ \t]*$/)){t=0; p=1; b=0}; next} p&&/^[ \t]*$/{b++; next} {if(p){n+=b; p=0}; n++} END{printf "%7d %s\n", n, c}'; \
    done | awk '{s+=$1; print} END{printf "%7d total\n", s}'

# Every first-party public item has a product caller or a written reason: a
# token-level resolver matches callers per definition (module paths, `use`s,
# `Type::name` / `.name(`, `$crate::` macro targets; comments, doc prose and
# strings are not callers) and classes each one (product, conformance, test,
# harness). An item with no product caller fails unless
# tests/goldens/api_no_product_caller.txt lists it with a reason from the
# closed set in tests/api_audit.rs; a listed item that gained its caller
# fails too. Part of tier-1 (`cargo test`), so CI runs it.
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
