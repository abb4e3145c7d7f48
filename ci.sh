#!/usr/bin/env bash
# CI gate: formatting, lints, and the tier-1 verify from ROADMAP.md.
# Everything runs offline — third-party deps resolve to the shims in
# compat/ (see Cargo.toml [workspace.dependencies]).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release --offline
cargo test -q --offline

echo "==> crate tests: cargo test --workspace --release"
# The root package's tests above leave out every crate's own tests —
# engine parity (crates/chase/tests/delta.rs), incr parity
# (crates/incr/tests/cli_parity.rs), the daemon cache properties
# (crates/serve/tests/cache_props.rs) and the unit tests.
cargo test -q --offline --workspace --release

echo "==> analyze goldens: ndl analyze over examples/programs/"
for f in examples/programs/*.ndl; do
  name="$(basename "$f" .ndl)"
  ./target/release/ndl analyze --json "$f" | diff -u "examples/programs/golden/$name.json" -
done
./target/release/ndl analyze --dot examples/programs/running.ndl \
  | diff -u examples/programs/golden/running.dot -
./target/release/ndl analyze --dot examples/programs/dead_code.ndl \
  | diff -u examples/programs/golden/dead_code.dot -

echo "==> lint golden: ndl lint --json over the dead-code example"
# ndl lint exits with its error+warning count (capped at 100): the report
# is pinned by the golden, the exit status on its own.
LINT_OUT="$(mktemp /tmp/ndl-ci-lint-XXXXXX.json)"
lint_status=0
./target/release/ndl lint --json examples/programs/dead_code.ndl > "$LINT_OUT" || lint_status=$?
diff -u examples/programs/golden/dead_code.lint.json "$LINT_OUT"
rm -f "$LINT_OUT"
[ "$lint_status" -eq 100 ]

echo "==> chase goldens: ndl chase --stats over terminating example programs"
for name in running pipeline; do
  ./target/release/ndl chase --stats --no-timings --no-delta "examples/programs/$name.ndl" \
    | diff -u "examples/programs/golden/$name.chase.json" -
done

echo "==> rendered chase goldens: the fact listing of plain ndl chase"
for name in running pipeline; do
  ./target/release/ndl chase "examples/programs/$name.ndl" \
    | diff -u "examples/programs/golden/$name.chase.txt" -
done
./target/release/ndl chase tests/lints/dead.ndl \
  | diff -u examples/programs/golden/dead.chase.txt -
./target/release/ndl chase examples/programs/dead_code.ndl \
  | diff -u examples/programs/golden/dead_code.chase.txt -

echo "==> delta chase golden: semi-naive stats (frontiers, touched counters)"
./target/release/ndl chase --stats --no-timings --delta examples/programs/running.ndl \
  | diff -u examples/programs/golden/running.delta.json -

echo "==> schedule goldens: ndl analyze --schedule over examples/programs/"
for f in examples/programs/*.ndl; do
  name="$(basename "$f" .ndl)"
  ./target/release/ndl analyze --schedule --json "$f" \
    | diff -u "examples/programs/golden/$name.schedule.json" -
done

echo "==> dataflow goldens: ndl analyze --dataflow over examples/programs/"
for f in examples/programs/*.ndl; do
  name="$(basename "$f" .ndl)"
  ./target/release/ndl analyze --dataflow --json "$f" \
    | diff -u "examples/programs/golden/$name.dataflow.json" -
done

echo "==> chase engine parity: naive (the oracle) and delta are bit-identical"
for name in running pipeline; do
  seq_out="$(./target/release/ndl chase --no-delta "examples/programs/$name.ndl")"
  diff <(echo "$seq_out") \
       <(./target/release/ndl chase --delta "examples/programs/$name.ndl")
done

echo "==> dataflow cert parity: pruned (certified) and unpruned chases are bit-identical"
for name in running pipeline; do
  f="examples/programs/$name.ndl"
  uncert_out="$(./target/release/ndl chase --no-cert "$f")"
  diff <(echo "$uncert_out") <(./target/release/ndl chase "$f")
  diff <(echo "$uncert_out") <(./target/release/ndl chase --no-delta "$f")
done
# The dead-code fixture is where the certificate actually prunes
# (two dead statements): certified and uncertified runs must agree.
uncert_out="$(./target/release/ndl chase --no-cert tests/lints/dead.ndl)"
diff <(echo "$uncert_out") <(./target/release/ndl chase tests/lints/dead.ndl)
diff <(echo "$uncert_out") <(./target/release/ndl chase --no-delta tests/lints/dead.ndl)

echo "==> incr golden: red-green replay of the committed edit script"
./target/release/ndl incr examples/programs/running.ndl \
  --edits examples/programs/running.edits.jsonl --json \
  | diff -u examples/programs/golden/running.incr.json -

echo "==> incr parity: incremental replay is byte-identical to --scratch"
# The committed script (real edits, churn, a compact, error paths) on the
# running example, plus a generic query script on every example program
# (recursive needs the budget; budget-exhaustion parity is part of the
# contract).
diff <(./target/release/ndl incr examples/programs/running.ndl \
         --edits examples/programs/running.edits.jsonl) \
     <(./target/release/ndl incr examples/programs/running.ndl \
         --edits examples/programs/running.edits.jsonl --scratch)
INCR_EDITS="$(mktemp /tmp/ndl-ci-incr-XXXXXX.jsonl)"
printf '%s\n' \
  '{"op":"query","q":"analysis"}' \
  '{"op":"query","q":"chase"}' \
  '{"op":"compact"}' \
  '{"op":"query","q":"chase"}' \
  '{"op":"query","q":"core"}' \
  '{"op":"query","q":"blocks"}' > "$INCR_EDITS"
for f in examples/programs/*.ndl; do
  diff <(./target/release/ndl incr "$f" --edits "$INCR_EDITS" --budget 64) \
       <(./target/release/ndl incr "$f" --edits "$INCR_EDITS" --budget 64 --scratch)
done
rm -f "$INCR_EDITS"

echo "==> serve goldens: daemon replay over examples/programs/serve_requests.jsonl"
SERVE_SOCK="$(mktemp -u /tmp/ndl-ci-serve-XXXXXX.sock)"
trap '[ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
./target/release/ndl serve --socket "$SERVE_SOCK" --workers 2 --budget 64 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.05; done
# The replay's last request is a shutdown, so the daemon drains and
# exits cleanly; stats in the golden pin --workers 2 --budget 64.
./target/release/ndl request --socket "$SERVE_SOCK" examples/programs/serve_requests.jsonl \
  | diff -u examples/programs/golden/requests.serve.json -
wait "$SERVE_PID"
SERVE_PID=""

echo "==> bench_serve smoke: concurrent daemon responses byte-compared to the CLI"
cargo build --release --offline -p ndl-bench --bin bench_serve
./target/release/bench_serve --smoke target/experiments

echo "==> bench_incr smoke: incremental replay identity-checked against scratch"
cargo build --release --offline -p ndl-bench --bin bench_incr
./target/release/bench_incr --smoke target/experiments

echo "==> bench_analyze: analysis cost stays near-linear up to 10^3 statements"
# Exits non-zero when a 10^3-statement program costs more than 20x per
# statement what a 10-statement one does.
cargo build --release --offline -p ndl-bench --bin bench_analyze
./target/release/bench_analyze target/experiments

echo "==> engine tests: cargo test -q -p ndl-hom"
cargo test -q -p ndl-hom --offline

echo "==> render oracle: the one-pass fact writer against per-null term rendering"
cargo test -q -p ndl-chase --offline --test render

echo "==> benches compile: cargo bench --no-run"
cargo bench --no-run --offline

echo "==> bench_chase builds (record regeneration stays opt-in)"
cargo build --release --offline -p ndl-bench --bin bench_chase

echo "==> bench_delta builds (record regeneration stays opt-in)"
cargo build --release --offline -p ndl-bench --bin bench_delta

echo "==> bench_dataflow builds (record regeneration stays opt-in)"
cargo build --release --offline -p ndl-bench --bin bench_dataflow

echo "==> cargo doc --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> miri (ndl-core), when the toolchain component is installed"
if cargo miri --version >/dev/null 2>&1; then
  cargo miri test -q -p ndl-core --offline
else
  echo "    cargo-miri not installed; skipping"
fi

echo "CI green."
