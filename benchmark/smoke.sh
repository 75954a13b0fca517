#!/usr/bin/env bash
# Smoke test of the benchmark itself: its unit tests, then one round of
# every workload, the traced round and the probes at 1/20 of the record
# counts. The numbers it prints are labelled non-comparable. This is the
# hook a later change wires into .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline --manifest-path Cargo.toml
cargo run --release --offline --manifest-path Cargo.toml -- run --smoke --rounds 1
