#!/usr/bin/env bash
# The `command` of BENCHMARK.json: builds the benchmark and runs one
# workload, from the repository root. Its arguments go to
# `optum-benchmark run`.
#
# A bare checkout has no `.cargo/config.toml`. Without one the build
# needs crates.io, and cargo rebuilds `optum-trace` and every crate above
# it on each invocation (~40 s), because `crates/tracegen/build.rs`
# watches that file. So a missing one is written first, as
# offline/README.md describes it: the crates-io dependencies patched to
# the stand-ins under `offline/` (cargo resolves the paths against the
# repository root). An existing one is left alone.
set -eu
if [ ! -e .cargo/config.toml ]; then
    mkdir -p .cargo
    cat > .cargo/config.toml <<'EOF'
[patch.crates-io]
rand = { path = "offline/rand" }
proptest = { path = "offline/proptest" }
criterion = { path = "offline/criterion" }
crossbeam = { path = "offline/crossbeam" }
parking_lot = { path = "offline/parking_lot" }
serde = { path = "offline/serde" }
serde_json = { path = "offline/serde_json" }

[net]
offline = true
EOF
fi
exec cargo run --release --quiet -p optum-benchmark -- run "$@"
