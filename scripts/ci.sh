#!/usr/bin/env bash
# Tier-1 gate. Every step must pass; any nonzero exit fails the run.
#
#   1. formatting        (skipped with a notice if rustfmt is absent)
#   2. release build     (the artifact we actually ship)
#   3. full test suite   under SLIME_THREADS=1 (serial fast paths) and
#                        SLIME_THREADS=4 (pool dispatch) — results must be
#                        bitwise identical, and the determinism test in
#                        crates/core checks exactly that; then one full
#                        pass with SLIME_SIMD=0 so every test also holds
#                        on the portable scalar kernels, and one with
#                        SLIME_FUSE=0 so every test also holds on the
#                        unfused eager paths (no epilogues, no step plans)
#   4. runtime knobs     the determinism test re-run across the full
#                        SLIME_FUSE={0,1} x SLIME_SIMD={0,1} x
#                        SLIME_POOL={0,1} x SLIME_THREADS={1,4} matrix:
#                        the buffer pool and the thread count are pure
#                        throughput knobs, never value knobs; the SIMD
#                        backend and the fuse gate select a numeric
#                        variant (FMA contraction / the hashed dropout
#                        sampler) but each variant must be internally
#                        bitwise stable
#   5. traced tests      one full pass with SLIME_TRACE=1: tracing is a
#                        pure observer, so every test must still pass with
#                        the instrumentation live
#   6. sanitizer tests   (NaN/Inf attribution under --features sanitize)
#   7. race sanitizer    slime-par under --features sanitize-race (the
#                        UnsafeSlice shadow interval log), plus the
#                        determinism test with the sanitizer live — the
#                        shadow log must be bitwise-neutral
#   8. slime-lint check  (offline purity, op coverage, transitive panic
#                         freedom, shape asserts, thread discipline, raw
#                         prints, disjoint-writer proofs, nondeterminism —
#                         exits 1 on any finding; artifact in lint.json)
#   9. trace overhead    the trace_overhead bench: asserts traced training
#                        costs <3% and the disabled hooks ~0
#  10. lint throughput   the lint_bench bench: asserts a full-workspace
#                        lint check stays under 2 s (artifact in
#                        BENCH_lint.json)
#  11. retrieval floors  the ann_sweep bench: exact vs two-stage retrieval
#                        at 10^3/10^5/10^6 items — asserts recall@10 >=
#                        0.95 at 10^5 and 10^6 items and two-stage >= 10x
#                        faster than exact at 10^6 (artifact in
#                        BENCH_ann.json)
#  12. fusion floors     the fuse_sweep bench: fused fast path (epilogues
#                        + recorded step plans + hashed dropout) vs the
#                        unfused eager SIMD baseline — asserts train step
#                        >= 1.25x and zero graph nodes allocated per plan
#                        replay (artifact in BENCH_fuse.json)
#  13. serving floors    the load_sweep bench: the slime-serve daemon
#                        under an 8-client closed-loop A/B plus an
#                        open-loop latency sweep — asserts batched >=
#                        1.05x unbatched QPS, zero transport/engine
#                        errors, and batch occupancy > 1 (artifact in
#                        BENCH_serve.json)
#  14. report round-trip a 4-thread traced training run, then
#                        `slime report` over the run dir (asserting >= 2
#                        worker lanes left timeline slices and that
#                        report.json / timeline.json parse — the report
#                        command self-checks both) and a `--baseline`
#                        self-diff that must report zero regressions
#  15. daemon smoke      `slime4rec serve --smoke` against the step-14
#                        trained model: 64 requests from 4 concurrent
#                        clients through the real TCP daemon — the CLI
#                        exits nonzero unless every request succeeds and
#                        at least one micro-batch gathered more than one
#                        request; also asserts clean daemon termination
#  16. corrupt checkpoint a copy of the step-14 model with one weight set
#                        to 1e39 (infinity as f32): `slime4rec evaluate`
#                        must refuse it with an error and exit 1, not
#                        panic (exit 101) or score with it
set -euo pipefail
cd "$(dirname "$0")/.."

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
else
    echo "==> rustfmt unavailable; skipping format check"
fi

echo "==> cargo build --release"
cargo build --release

echo "==> SLIME_THREADS=1 cargo test -q"
SLIME_THREADS=1 cargo test -q

echo "==> SLIME_THREADS=4 cargo test -q"
SLIME_THREADS=4 cargo test -q

echo "==> SLIME_SIMD=0 cargo test -q"
SLIME_SIMD=0 cargo test -q

echo "==> SLIME_FUSE=0 cargo test -q"
SLIME_FUSE=0 cargo test -q

# The determinism test internally sweeps thread counts, pool modes, SIMD
# backends, and the fuse gate, but the *ambient* environment each sweep
# starts from matters too: run it from every corner of the knob matrix so
# an env-dependent default can never mask a divergence.
for fuse in 0 1; do
    for simd in 0 1; do
        for pool in 0 1; do
            for threads in 1 4; do
                echo "==> SLIME_FUSE=$fuse SLIME_SIMD=$simd SLIME_POOL=$pool SLIME_THREADS=$threads determinism test"
                SLIME_FUSE=$fuse SLIME_SIMD=$simd SLIME_POOL=$pool SLIME_THREADS=$threads \
                    cargo test -q -p slime4rec --test determinism
            done
        done
    done
done

echo "==> SLIME_TRACE=1 SLIME_THREADS=4 cargo test -q"
SLIME_TRACE=1 SLIME_THREADS=4 cargo test -q

echo "==> cargo test -q -p slime-tensor --features sanitize"
cargo test -q -p slime-tensor --features sanitize

echo "==> cargo test -q -p slime-par --features sanitize-race"
cargo test -q -p slime-par --features sanitize-race

# The shadow log observes claims, never payloads: training must stay
# bitwise identical with the race sanitizer armed.
echo "==> cargo test -q -p slime4rec --features sanitize-race --test determinism"
cargo test -q -p slime4rec --features sanitize-race --test determinism

echo "==> cargo run -p slime-lint -- check --json lint.json"
cargo run -q -p slime-lint -- check --json lint.json

echo "==> cargo bench --bench trace_overhead -p slime-bench"
cargo bench --bench trace_overhead -p slime-bench

echo "==> cargo bench --bench lint_bench -p slime-bench"
cargo bench --bench lint_bench -p slime-bench

echo "==> cargo bench --bench ann_sweep -p slime-bench"
cargo bench --bench ann_sweep -p slime-bench

echo "==> cargo bench --bench fuse_sweep -p slime-bench"
cargo bench --bench fuse_sweep -p slime-bench

echo "==> cargo bench --bench load_sweep -p slime-bench"
cargo bench --bench load_sweep -p slime-bench
test -s BENCH_serve.json || {
    echo "load_sweep wrote no BENCH_serve.json" >&2
    exit 1
}

echo "==> traced run + slime report round-trip"
CI_RUN=$(mktemp -d)
trap 'rm -rf "$CI_RUN"' EXIT
./target/release/slime4rec generate --profile beauty --scale 0.1 --seed 3 \
    --out "$CI_RUN/data.json"
SLIME_THREADS=4 ./target/release/slime4rec train --data "$CI_RUN/data.json" \
    --out "$CI_RUN/model" --epochs 1 --hidden 16 --max-len 16 --layers 1 \
    --trace "$CI_RUN/run" --trace-level info
test -s "$CI_RUN/run/timeline.json" || {
    echo "traced run wrote no timeline.json" >&2
    exit 1
}
# The report command re-parses the report.json it writes and the run's
# timeline, so this step also asserts both artifacts are valid JSON.
./target/release/slime4rec report --run "$CI_RUN/run" --expect-workers 2
# A run diffed against itself must be regression-free — pins the diff
# policy (thresholds, op pairing, histogram filtering) every commit.
./target/release/slime4rec report --run "$CI_RUN/run" --baseline "$CI_RUN/run" \
    | grep -q "regressions: none" || {
    echo "self-baseline diff reported regressions" >&2
    exit 1
}

# Boot the daemon on the model just trained and drive it over real TCP:
# the smoke exits nonzero on any failed request, if no micro-batch ever
# gathered more than one request, or if shutdown hangs (the command only
# returns after joining the acceptor, batcher, and connection threads).
echo "==> slime4rec serve --smoke (daemon smoke over TCP)"
./target/release/slime4rec serve --model "$CI_RUN/model" --port 0 \
    --max-batch 8 --linger-us 2000 --smoke 64 --smoke-clients 4 --k 5 \
    | grep -q "smoke ok" || {
    echo "daemon smoke did not report 'smoke ok'" >&2
    exit 1
}

# A checkpoint that parses but cannot be loaded is an input error: the CLI
# names the bad record and exits 1 instead of panicking.
echo "==> slime4rec evaluate refuses a corrupt checkpoint"
cp -r "$CI_RUN/model" "$CI_RUN/bad-model"
sed -i '0,/"data":\[[^],]*/s//"data":[1e39/' "$CI_RUN/bad-model/weights.json"
status=0
./target/release/slime4rec evaluate --data "$CI_RUN/data.json" \
    --model "$CI_RUN/bad-model" 2>"$CI_RUN/bad-model.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "bad checkpoint" "$CI_RUN/bad-model.err"; then
    echo "corrupt checkpoint: want exit 1 with 'bad checkpoint', got exit $status:" >&2
    cat "$CI_RUN/bad-model.err" >&2
    exit 1
fi

echo "CI: all gates passed"
