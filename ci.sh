#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite — all offline.
#
# Usage: ./ci.sh [stage]
#   (none)   the default pipeline: fmt, clippy, tests, benches, smokes,
#            and the concurrency gates that need no special toolchain
#   --loom   model-check the speculation runtime: builds stats-core with
#            RUSTFLAGS="--cfg loom" (the sync facade swaps onto the model
#            checker), runs every model in tests/loom.rs and names them in
#            its summary line (the wake-free dispatch models must be there)
#   --miri   run the non-pool stats-core unit tests under Miri (needs the
#            nightly `miri` component; skips with a message otherwise)
#   --tsan   run tests/pool_stress.rs under ThreadSanitizer (needs nightly
#            + rust-src for -Zbuild-std; skips with a message otherwise)
#   --bench-gate
#            re-measure the pipeline benchmarks into a temp file and gate:
#            fails if speedup.tuner_serial < 1.0 (the closed regression
#            reopening) or if speedup.interp falls below 85% of the number
#            in the committed BENCH_pipeline.json (the margin absorbs
#            shared-container noise; a real regression blows through it);
#            also validates the serve section: >= 500 tenants, spill
#            engaged, zero solo mismatches
#   --serve-smoke
#            multi-tenant session-service smoke (docs/serving.md): a small
#            open-loop traffic run that must show spill engaged, every
#            spilled input replayed, and every tenant bit-identical to its
#            solo session
#   --dag-smoke
#            task-DAG speculation smoke (docs/dag.md): every stats-workloads
#            DAG family run sequentially and pooled at tiny scale; fails on
#            any pooled-vs-sequential divergence or any cut-set abort under
#            the families' tuned configs
#   --replay-smoke
#            session record/replay smoke (docs/replay.md): plain, faulted,
#            adaptive, and online-retuned sessions each recorded once and
#            replayed at two worker counts; fails on any canonical-event or
#            digest divergence
#
# The --loom/--miri/--tsan stages are separate entry points because each
# rebuilds the world under a different configuration; run them when
# touching anything under crates/stats-core/src/{sync,pool,session}.rs or
# vendor/loom. docs/concurrency.md documents what each stage proves.
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-}"

# ---- opt-in concurrency stages ---------------------------------------------

if [[ "$stage" == "--loom" ]]; then
    echo "== loom model checking (RUSTFLAGS=--cfg loom, release)"
    RUSTFLAGS="--cfg loom" cargo test --offline --release -p stats-core \
        --test loom -- --test-threads="$(nproc 2>/dev/null || echo 2)"
    models="$(RUSTFLAGS="--cfg loom" cargo test --offline --release -q \
        -p stats-core --test loom -- --list 2>/dev/null \
        | sed -n 's/: test$//p' | tr '\n' ' ')"
    # The wake-free dispatch handshakes (docs/concurrency.md) rest on these
    # three; a rename or deletion must not pass silently.
    for required in ticket_runs_exactly_once pool_submit_never_strands_a_sleeper \
        session_halfway_wakeup_never_strands_producer; do
        if [[ " $models " != *" $required "* ]]; then
            echo "error: loom model '$required' is missing from tests/loom.rs" >&2
            exit 1
        fi
    done
    echo "loom OK: $models"
    exit 0
fi

if [[ "$stage" == "--miri" ]]; then
    echo "== miri (non-pool stats-core unit tests)"
    if ! cargo +nightly miri --version >/dev/null 2>&1; then
        echo "skip: the nightly 'miri' component is not installed" \
             "(rustup component add --toolchain nightly miri)"
        exit 0
    fi
    # The pool/session suites spawn OS threads with timed condvar waits —
    # loom covers their interleavings; miri checks the rest for UB.
    MIRIFLAGS="-Zmiri-disable-isolation" cargo +nightly miri test --offline \
        -p stats-core --lib -- --skip pool:: --skip session::
    echo "miri OK"
    exit 0
fi

if [[ "$stage" == "--tsan" ]]; then
    echo "== ThreadSanitizer (tests/pool_stress.rs, STRESS_ITERS=${STRESS_ITERS:-4})"
    if ! cargo +nightly --version >/dev/null 2>&1; then
        echo "skip: no nightly toolchain (rustup toolchain install nightly)"
        exit 0
    fi
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if [[ ! -e "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library/Cargo.lock" ]]; then
        echo "skip: nightly rust-src is not installed, -Zbuild-std unavailable" \
             "(rustup component add --toolchain nightly rust-src)"
        exit 0
    fi
    STRESS_ITERS="${STRESS_ITERS:-4}" RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test --offline -Zbuild-std --target "$host" \
        -p stats-core --test pool_stress
    echo "tsan OK"
    exit 0
fi

if [[ "$stage" == "--bench-gate" ]]; then
    echo "== bench gate (fresh pipeline run vs committed BENCH_pipeline.json)"
    cargo build --offline --release -q -p bench
    fresh_json=$(mktemp /tmp/bench_pipeline.XXXXXX.json)
    ./target/release/bench_pipeline "$fresh_json" > /dev/null
    python3 - "$fresh_json" BENCH_pipeline.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    fresh = json.load(f)
with open(sys.argv[2]) as f:
    committed = json.load(f)
tuner = fresh["speedup"]["tuner_serial"]
interp = fresh["speedup"]["interp"]
floor = 0.85 * committed["speedup"]["interp"]
print(f"tuner_serial {tuner:.2f}x (gate: >= 1.0)")
print(f"interp {interp:.2f}x (gate: >= {floor:.2f}, 85% of committed "
      f"{committed['speedup']['interp']:.2f})")
if tuner < 1.0:
    sys.exit(f"bench gate: speedup.tuner_serial {tuner:.2f} < 1.0 — "
             "the tuner regression this gate guards against has reopened")
if interp < floor:
    sys.exit(f"bench gate: speedup.interp {interp:.2f} regressed below "
             f"{floor:.2f} (85% of the committed file)")
serve = fresh.get("serve")
if serve is None:
    sys.exit("bench gate: fresh run is missing the serve section")
for key in ("tenants", "inputs_per_sec", "tenant_p50_ms", "tenant_p95_ms",
            "tenant_p99_ms", "spilled_inputs", "spilled_segments",
            "solo_mismatches"):
    if key not in serve:
        sys.exit(f"bench gate: serve section is missing '{key}'")
    if key not in committed.get("serve", {}):
        sys.exit(f"bench gate: committed serve section is missing '{key}'")
print(f"serve {serve['tenants']} tenants, {serve['inputs_per_sec']:.0f} "
      f"inputs/s, p99 {serve['tenant_p99_ms']:.2f}ms, "
      f"{serve['spilled_inputs']} spilled")
if serve["tenants"] < 500:
    sys.exit(f"bench gate: serve ran only {serve['tenants']} tenants "
             "(heavy traffic means >= 500)")
if serve["spilled_inputs"] <= 0:
    sys.exit("bench gate: serve traffic never hit the spill path")
if serve["solo_mismatches"] != 0:
    sys.exit(f"bench gate: {serve['solo_mismatches']} tenants diverged "
             "from their solo sessions — determinism under multiplexing "
             "is broken")
dag = fresh.get("dag")
if dag is None:
    sys.exit("bench gate: fresh run is missing the dag section")
for family in ("windowed_join", "gameloop", "ensemble"):
    fam = dag.get(family)
    if fam is None:
        sys.exit(f"bench gate: dag section is missing the '{family}' family")
    for key in ("nodes", "inputs", "seq_inputs_per_sec",
                "pooled_inputs_per_sec", "speedup", "aborts", "mismatches"):
        if key not in fam:
            sys.exit(f"bench gate: dag.{family} is missing '{key}'")
    print(f"dag {family}: {fam['nodes']} nodes, seq "
          f"{fam['seq_inputs_per_sec']:.0f}/s, pooled "
          f"{fam['pooled_inputs_per_sec']:.0f}/s, "
          f"{fam['mismatches']} mismatches")
    if fam["mismatches"] != 0:
        sys.exit(f"bench gate: dag.{family} pooled run diverged from the "
                 "sequential topological reference — DAG determinism is "
                 "broken")
    if fam["aborts"] != 0:
        sys.exit(f"bench gate: dag.{family} aborted a cut-set under its "
                 "tuned config")
replay = fresh.get("replay")
if replay is None:
    sys.exit("bench gate: fresh run is missing the replay section")
for key in ("inputs_per_sec_plain", "inputs_per_sec_recorded",
            "record_overhead_pct", "replay_divergences", "events_compared",
            "log_bytes"):
    if key not in replay:
        sys.exit(f"bench gate: replay section is missing '{key}'")
    if key not in committed.get("replay", {}):
        sys.exit(f"bench gate: committed replay section is missing '{key}'")
print(f"replay overhead {replay['record_overhead_pct']:.2f}% "
      f"(gate: <= 5.0), {replay['replay_divergences']} divergences "
      f"over {replay['events_compared']} events (gate: 0)")
if replay["record_overhead_pct"] > 5.0:
    sys.exit(f"bench gate: record-mode overhead "
             f"{replay['record_overhead_pct']:.2f}% exceeds the 5% ceiling "
             "over the noop-sink arm")
if replay["replay_divergences"] != 0:
    sys.exit(f"bench gate: {replay['replay_divergences']} replay "
             "divergences — record/replay determinism is broken")
print("bench gate OK")
EOF
    rm -f "$fresh_json"
    exit 0
fi

if [[ "$stage" == "--serve-smoke" ]]; then
    echo "== serve smoke (multi-tenant fairness + spill/replay equality)"
    cargo build --offline --release -q -p bench
    ./target/release/serve_smoke
    exit 0
fi

if [[ "$stage" == "--dag-smoke" ]]; then
    echo "== dag smoke (plan families: pooled bit-identical to sequential)"
    cargo build --offline --release -q -p bench
    ./target/release/dag_smoke
    exit 0
fi

if [[ "$stage" == "--replay-smoke" ]]; then
    echo "== replay smoke (recorded sessions replay faithfully at any worker count)"
    cargo build --offline --release -q -p bench
    ./target/release/replay_smoke
    exit 0
fi

if [[ -n "$stage" ]]; then
    echo "error: unknown stage '$stage' (expected --loom, --miri, --tsan," \
         "--bench-gate, --serve-smoke, --dag-smoke, or --replay-smoke)" >&2
    exit 2
fi

# ---- default pipeline -------------------------------------------------------

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings + unsafe hygiene)"
cargo clippy --offline --workspace --all-targets -- -D warnings \
    -D clippy::undocumented_unsafe_blocks -D clippy::missing_safety_doc

echo "== sync facade gate (no raw atomics outside stats-core/src/sync.rs)"
# The memory-ordering audit (docs/concurrency.md) covers every atomic in
# the workspace because they all funnel through the `stats_core::sync`
# facade; an import anywhere else would dodge both the audit table and the
# loom models, so it fails CI.
if grep -rn --include='*.rs' 'std::sync::atomic' crates/ \
    | grep -v '^crates/stats-core/src/sync\.rs:'; then
    echo "error: raw std::sync::atomic import outside the stats_core::sync" \
         "facade (route it through crates/stats-core/src/sync.rs so the" \
         "loom models and docs/concurrency.md cover it)" >&2
    exit 1
fi

echo "== cargo test"
cargo test --offline --workspace -q

echo "== stats-benchmark correctness smokes (light + misspec, held-out seed)"
# Every repetition of every rung is checked bit-exactly against the
# sequential reference; the binary exits 1 on any failed operation. These
# two are the coordination-bound workloads, where who runs a group (a pool
# worker or the coordinator taking it back) changes most often.
for workload in light misspec; do
    cargo run --release --offline -q -p stats-benchmark -- \
        --workload "$workload" --seed 7919 --seconds 2 --trace 0 > /dev/null
done

echo "== bench smoke (parallel pipeline, emits BENCH_pipeline.json)"
cargo build --offline --release -q -p bench
./target/release/figures --tiny fig3 fig13 > /dev/null
./target/release/bench_pipeline BENCH_pipeline.json

echo "== chaos smoke (seeded fault plans, identical traces across two runs)"
./target/release/chaos_smoke

echo "== replay smoke (recorded sessions replay faithfully at any worker count)"
./target/release/replay_smoke

echo "== serve smoke (multi-tenant fairness + spill/replay equality)"
./target/release/serve_smoke

echo "== dag smoke (plan families: pooled bit-identical to sequential)"
./target/release/dag_smoke

echo "== rustdoc (deny warnings, workspace crates only)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q \
    --exclude rand --exclude proptest --exclude criterion \
    --exclude crossbeam --exclude parking_lot --exclude loom

echo "== streaming smoke (stream_run bench in test mode)"
cargo test --offline -q -p bench --bench stream_run

echo "== removed protocol shims (deleted in the RunOptions-only API; no references anywhere)"
# run_protocol_observed/run_protocol_segmented and the StateDependence
# with_pool/with_config/with_sink/with_seed builders were deleted when the
# RunOptions surface became the only public API (docs/observability.md has
# the migration table). No exclusions: the names must not reappear at all.
if grep -rn --include='*.rs' \
    -E 'run_protocol_observed|run_protocol_segmented|\.with_pool\(|\.with_config\(|\.with_sink\(|\.with_seed\(' \
    --exclude-dir=target --exclude-dir=vendor .; then
    echo "error: reference to a removed pre-RunOptions shim (use" \
         "run_protocol_with_options / RunOptions builders instead)" >&2
    exit 1
fi

echo "== observability smoke (stats-report + Chrome trace validation)"
cargo build --offline -q --bin stats-report
TRACE_JSON=$(mktemp /tmp/stats-report.XXXXXX.trace.json)
./target/debug/stats-report swaptions --inputs 24 --threads 4 \
    --trace "$TRACE_JSON" --check > /dev/null
python3 - "$TRACE_JSON" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "trace has no events"
sched = [e for e in events if e["ph"] == "X" and "deps" in e.get("args", {})]
assert sched, "trace has no virtual-schedule events"
for e in sched:
    for dep in e["args"]["deps"]:
        assert dep < e["args"]["node"], f"forward dependence edge: {e}"
begins = sum(1 for e in events if e["ph"] == "B")
ends = sum(1 for e in events if e["ph"] == "E")
assert begins == ends, f"unbalanced span events: {begins} B vs {ends} E"
print(f"trace OK: {len(events)} events, {len(sched)} scheduled nodes")
EOF
rm -f "$TRACE_JSON"

echo "== replay CLI smoke (stats-report replay record/verify round trip)"
REPLAY_LOG=$(mktemp /tmp/stats-replay.XXXXXX.statslog)
./target/debug/stats-report replay --record "$REPLAY_LOG" \
    --inputs 128 --fault-rate 0.2 --tune > /dev/null
./target/debug/stats-report replay --verify "$REPLAY_LOG" > /dev/null
rm -f "$REPLAY_LOG"

echo "== docs link check (relative links and [[rust-path]] refs resolve)"
python3 - <<'EOF'
import os, re, sys

link = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
rustref = re.compile(r"\[\[([^\]\s|]+)\]\]")
pages = sorted(
    os.path.join("docs", p) for p in os.listdir("docs") if p.endswith(".md")
)
problems = []
checked = 0
for page in pages:
    with open(page) as f:
        text = f.read()
    # Fenced code blocks hold example syntax, not navigable links.
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    for m in link.finditer(prose):
        target = m.group(1)
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        path = os.path.normpath(
            os.path.join(os.path.dirname(page), target.split("#")[0])
        )
        checked += 1
        if not os.path.exists(path):
            problems.append(f"{page}: broken link '{target}'")
    for m in rustref.finditer(prose):
        checked += 1
        if not os.path.exists(m.group(1)):
            problems.append(f"{page}: [[{m.group(1)}]] does not resolve")
for p in problems:
    print(f"error: {p}", file=sys.stderr)
if problems:
    sys.exit(1)
print(f"docs links OK: {checked} references across {len(pages)} pages")
EOF

echo "== stats-lint corpus smoke"
cargo build --offline -q --bin stats-lint
./target/debug/stats-lint --quiet examples/dsl/*.stats
if ./target/debug/stats-lint --quiet examples/dsl/violations/*.stats; then
    echo "error: violation corpus unexpectedly passed stats-lint" >&2
    exit 1
fi

echo "CI OK"
