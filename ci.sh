#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite — all offline.
#
# Usage: ./ci.sh [stage]
#   (none)   the default pipeline: fmt, clippy, tests, the stats-benchmark
#            correctness smokes, the CLI smokes, the docs check, and a final
#            check that none of it touched the source tree
#   --loom   model-check the speculation runtime: builds stats-core with
#            RUSTFLAGS="--cfg loom" (the sync facade swaps onto the model
#            checker), runs every model in tests/loom.rs and names them in
#            its summary line (the dispatch, session and serve models must
#            be there)
#   --miri   run the non-pool stats-core unit tests under Miri (needs the
#            nightly `miri` component; skips with a message otherwise)
#   --tsan   run tests/pool_stress.rs under ThreadSanitizer (needs nightly
#            + rust-src for -Zbuild-std; skips with a message otherwise)
#   --bench-gate BASE.json
#            `stats-benchmark run` into a temp file, then `stats-benchmark
#            compare BASE.json` against it; exits with compare's status
#            (1 on any end-to-end metric worse than BASE beyond its
#            BENCHMARK.json bound, or any differing exact count). BASE.json
#            is a `stats-benchmark run --out` file of the commit to gate
#            against, taken on this machine.
#
# The --loom/--miri/--tsan stages are separate entry points because each
# rebuilds the world under a different configuration; run them when
# touching anything under crates/stats-core/src/{sync,pool,session}.rs,
# crates/stats-core/src/serve/ or vendor/loom. docs/concurrency.md documents what each stage proves.
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-}"

# The one program that times anything (crates/stats-benchmark/README.md).
# Every repetition of every rung is checked bit-exactly against the
# sequential reference; it exits 1 on any failed operation.
bench() { cargo run --release --offline -q -p stats-benchmark -- "$@"; }

# ---- opt-in stages -----------------------------------------------------------

if [[ "$stage" == "--loom" ]]; then
    echo "== loom model checking (RUSTFLAGS=--cfg loom, release)"
    RUSTFLAGS="--cfg loom" cargo test --offline --release -p stats-core \
        --test loom -- --test-threads="$(nproc 2>/dev/null || echo 2)"
    models="$(RUSTFLAGS="--cfg loom" cargo test --offline --release -q \
        -p stats-core --test loom -- --list 2>/dev/null \
        | sed -n 's/: test$//p' | tr '\n' ' ')"
    # The wake-free dispatch handshakes, the one job queue and the
    # ordered-completion slots every batch and stream waits through rest on
    # the first four; the five session models drive the coordinator loop —
    # the linear engine over a stream's queue intake, with its
    # wake-after-store; the serve model drives a tenant's spill backlog
    # through its session's intake (docs/concurrency.md). A rename or
    # deletion must not pass silently.
    for required in ticket_runs_exactly_once pool_submit_never_strands_a_sleeper \
        pool_queue_never_loses_jobs pool_ordered_yields_each_result_once \
        session_push_finish_matches_batch session_group_completion_wakes_coordinator \
        session_halfway_wakeup_never_strands_producer session_drop_mid_stream_joins \
        session_panic_routing_try_finish serve_spill_intake_never_strands_a_backlog; do
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
    base="${2:-}"
    if [[ ! -f "$base" ]]; then
        echo "usage: ./ci.sh --bench-gate BASE.json   (BASE.json: a" \
             "'stats-benchmark run --out' file of the commit to gate against)" >&2
        exit 2
    fi
    echo "== bench gate (fresh stats-benchmark run vs $base)"
    fresh="$(mktemp /tmp/stats-benchmark.XXXXXX.json)"
    trap 'rm -f "$fresh"' EXIT
    bench run --out "$fresh"
    bench compare "$base" "$fresh"
    exit
fi

if [[ -n "$stage" ]]; then
    echo "error: unknown stage '$stage' (expected --loom, --miri, --tsan," \
         "or --bench-gate BASE.json)" >&2
    exit 2
fi

# ---- default pipeline -------------------------------------------------------

# What the tree looked like before CI ran; compared again at the end.
tree_state() { git status --porcelain 2>/dev/null; git diff HEAD 2>/dev/null | cksum; }
tree_before="$(tree_state)"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings + unsafe hygiene)"
cargo clippy --offline --workspace --all-targets -- -D warnings \
    -D clippy::undocumented_unsafe_blocks -D clippy::missing_safety_doc

echo "== sync facade gate (no raw atomics or locks outside stats-core/src/sync.rs)"
# The memory-ordering audit (docs/concurrency.md) covers every atomic in
# the workspace because they all funnel through the `stats_core::sync`
# facade; an import anywhere else would dodge both the audit table and the
# loom models, so it fails CI. Inside stats-core the same holds for locks
# and condvars, and for the two crates the facade once stood in for.
if grep -rn --include='*.rs' 'std::sync::atomic' crates/ \
    | grep -v '^crates/stats-core/src/sync\.rs:' \
   || grep -rnE --include='*.rs' \
        'std::sync::(\{[^}]*)?\b(Mutex|Condvar|RwLock)\b|\b(parking_lot|crossbeam)::' \
        crates/stats-core/src/ \
    | grep -v '^crates/stats-core/src/sync\.rs:'; then
    echo "error: raw std::sync atomic/lock (or parking_lot/crossbeam) import" \
         "outside the stats_core::sync facade (route it through" \
         "crates/stats-core/src/sync.rs so the loom models and" \
         "docs/concurrency.md cover it)" >&2
    exit 1
fi

echo "== no-unsafe gate (no unsafe block, fn or impl under stats-compiler/src)"
# The bytecode tier reads its code, frames and state through checked
# indexing, so the compiler crate needs no unsafe code; `--miri` runs only
# stats-core, so any that crept in would go unchecked.
if grep -rnE --include='*.rs' '\bunsafe[[:space:]]*(\{|fn\b|impl\b)' \
        crates/stats-compiler/src/; then
    echo "error: unsafe code under crates/stats-compiler/src (use checked" \
         "indexing; nothing runs this crate under Miri)" >&2
    exit 1
fi

echo "== interp leaf gate (no product source names interp)"
# `interp` is the reference semantics the bytecode tier is tested against;
# the execution rules both share live in `value`, and compiled code runs on
# `bytecode::BytecodeInterp`. Product code (the lines before a file's first
# `#[cfg(test)]` under crates/*/src, src/ and examples/) that names
# `interp` would put the reference back on the product path, so it fails
# CI. One named exception: crates/stats-benchmark/, whose `tune` job times
# the reference beside the bytecode tier (`interp.get_value_ns`); ROADMAP
# item 8 queues the benchmark change that drops it.
leaks="$(for f in $(find crates/*/src src examples -name '*.rs' | sort); do
    case "$f" in
        */stats-compiler/src/interp.rs | */stats-compiler/src/lib.rs) continue ;;
        crates/stats-benchmark/*) continue ;;
    esac
    sed '/^#\[cfg(test)\]/,$d' "$f" | { grep -nw 'interp' || true; } | sed "s|^|$f:|"
done)"
if [[ -n "$leaks" ]]; then
    echo "$leaks" >&2
    echo "error: product code names \`interp\` (run compiled code on" \
         "bytecode::BytecodeInterp and take values from stats_compiler::value)" >&2
    exit 1
fi

echo "== cargo test"
cargo test --offline --workspace -q

echo "== allocator tests, release build"
# These count what the allocator does (page faults, allocations, bytes),
# which differs between the debug and the release build; the product is
# the release build, so they run in both.
cargo test --offline --release -q -p stats-core --test stream_faults \
    --test reference_allocations --test stream_allocations

echo "== stats-benchmark correctness smokes (held-out seed)"
# Linear commit path, mismatch path, heap state with real aborts, plans
# pooled vs sequential (dag_small's nodes mostly run on the coordinator,
# dag_large's on the workers), tenants through admission and spill; then
# the traced passes of light and misspec, where an unfaithful replay is a
# failed operation (misspec's recorded session re-executes and aborts).
for workload in light misspec bodytrack dag_small dag_large serve_open; do
    bench --workload "$workload" --seed 7919 --seconds 2 --trace 0 > /dev/null
done
for workload in light misspec; do
    bench --workload "$workload" --seed 7919 --seconds 2 --trace 1 > /dev/null
done

echo "== figures smoke (Figures 3, 12, 13, 14 at tiny sizes, with their TSVs)"
FIG_DIR=$(mktemp -d /tmp/figures.XXXXXX)
cargo run --release --offline -q -p bench --bin figures -- \
    --tiny --out "$FIG_DIR" fig3 fig12 fig13 fig14 > /dev/null
# A TSV write error only prints to stderr, so check the files themselves.
for name in fig03 fig13 fig14; do
    test -s "$FIG_DIR/$name.tsv"
done
if [[ "$(find "$FIG_DIR" -name 'fig12_*.tsv' -size +0 | wc -l)" -ne 6 ]]; then
    echo "error: figures --out wrote fewer than six non-empty fig12_*.tsv" >&2
    exit 1
fi
rm -rf "$FIG_DIR"

echo "== rustdoc (deny warnings, workspace crates only)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q \
    --exclude rand --exclude proptest --exclude loom

echo "== observability smoke (stats-report: Chrome trace export + --check)"
cargo build --offline -q --bin stats-report
TRACE_JSON=$(mktemp /tmp/stats-report.XXXXXX.trace.json)
./target/debug/stats-report swaptions --inputs 24 --threads 4 \
    --trace "$TRACE_JSON" --check > /dev/null
test -s "$TRACE_JSON"
# One file, two processes: the simulated schedule and the run's wall clock.
python3 - "$TRACE_JSON" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["args"]["name"] for e in events if e["name"] == "process_name"}
missing = {"simulated schedule", "wall clock"} - names
if missing or not any(e["ph"] == "X" for e in events):
    sys.exit(f"stats-report --trace: processes {sorted(missing)} or complete events missing")
EOF
rm -f "$TRACE_JSON"

echo "== replay CLI smoke (stats-report replay record/verify round trip)"
REPLAY_LOG=$(mktemp /tmp/stats-replay.XXXXXX.statslog)
./target/debug/stats-report replay --record "$REPLAY_LOG" \
    --inputs 128 --fault-rate 0.2 --tune > /dev/null
./target/debug/stats-report replay --verify "$REPLAY_LOG" > /dev/null
# The same log, its events section now claiming 2^63 events: the reader
# must refuse it with a typed error (exit 1), never panic (exit 101).
python3 - "$REPLAY_LOG" <<'EOF'
import struct, sys
log = bytearray(open(sys.argv[1], "rb").read())
at = 12  # past magic and version; a section is tag u8, length u64, payload
while log[at] != 5:  # the events section (docs/replay.md)
    at += 9 + struct.unpack_from("<Q", log, at + 1)[0]
struct.pack_into("<Q", log, at + 9, 1 << 63)
open(sys.argv[1], "wb").write(log)
EOF
status=0
err="$(./target/debug/stats-report replay --verify "$REPLAY_LOG" 2>&1 > /dev/null)" || status=$?
if [[ $status -ne 1 || "$err" != *"corrupt session log: events section"* ]]; then
    echo "error: a hostile events count must exit 1 with a typed error;" \
         "got status $status: $err" >&2
    exit 1
fi
rm -f "$REPLAY_LOG"

echo "== docs check (links, BENCHMARK.json metric names, commands resolve)"
python3 - <<'EOF'
import fnmatch, json, os, re, sys

pages = sorted(os.path.join("docs", p) for p in os.listdir("docs") if p.endswith(".md"))
pages += ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
with open("BENCHMARK.json") as f:
    declared = json.load(f)
workloads = {w["name"] for w in declared["workloads"]}
end_to_end = {m["name"] for m in declared["end_to_end"]}
per_layer = {m["name"] for m in declared["per_layer"]}
layers = {name.split(".")[0] for name in per_layer}
with open("ci.sh") as f:
    stages = set(re.findall(r'"\$stage" == "(--[a-z-]+)"', f.read()))

link = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
rustref = re.compile(r"\[\[([^\]\s|]+)\]\]")
# `workload/metric` or `layer.metric`, nothing else inside the backticks;
# `F`, `<family>` and `*` stand for any one component (`dag.F.pooled_vs_seq`).
token = re.compile(r"`([a-z_]+)([/.])([A-Za-z0-9_.<>*]+)`")
file_ext = re.compile(r"(^|\.)(rs|md|json|toml|stats|statslog|tsv|sh|txt)$")
problems = []
checked = 0
for page in pages:
    with open(page) as f:
        text = f.read()
    # Fenced code blocks hold example syntax, not navigable links or names.
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    for m in link.finditer(prose):
        target = m.group(1)
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        path = os.path.normpath(os.path.join(os.path.dirname(page), target.split("#")[0]))
        checked += 1
        if not os.path.exists(path):
            problems.append(f"{page}: broken link '{target}'")
    for m in rustref.finditer(prose):
        checked += 1
        if not os.path.exists(m.group(1)):
            problems.append(f"{page}: [[{m.group(1)}]] does not resolve")
    for left, sep, right in token.findall(prose):
        if sep == "/" and left in workloads:
            names, name = end_to_end | per_layer, right
        elif sep == "." and left in layers and not file_ext.search(right):
            names, name = per_layer, f"{left}.{right}"
        else:
            continue
        checked += 1
        pattern = ".".join("*" if c in ("F", "<family>") else c for c in name.split("."))
        if not fnmatch.filter(names, pattern):
            problems.append(f"{page}: `{left}{sep}{right}` is not a BENCHMARK.json metric")
    # Commands are checked inside fenced blocks too.
    for name in re.findall(r"-p bench\b[^\n`]*?--bin ([\w-]+)", text):
        checked += 1
        if not os.path.exists(f"crates/bench/src/bin/{name}.rs"):
            problems.append(f"{page}: `-p bench --bin {name}` has no source file")
    for names in re.findall(r"ci\.sh ((?:--[a-z-]+/?)+)", text):
        for name in names.rstrip("/").split("/"):
            checked += 1
            if name not in stages:
                problems.append(f"{page}: `./ci.sh {name}` is not a stage of ci.sh")
for p in problems:
    print(f"error: {p}", file=sys.stderr)
if problems:
    sys.exit(1)
print(f"docs OK: {checked} references across {len(pages)} pages")
EOF

echo "== stats-lint corpus smoke (and stats-cli compile)"
cargo build --offline -q --bin stats-lint --bin stats-cli
./target/debug/stats-lint --quiet examples/dsl/*.stats
if ./target/debug/stats-lint --quiet examples/dsl/violations/*.stats; then
    echo "error: violation corpus unexpectedly passed stats-lint" >&2
    exit 1
fi
# README's compile example runs the whole pipeline and must print the
# value README shows; an option `compile` does not take, an index that is
# not a number and a dependence the program does not declare are usage
# errors; a call to a function nothing defines must fail at compile time
# (`verify`), not when run.
./target/debug/stats-cli compile examples/dsl/bodytrack_mini.stats \
    --dep body=9,3,1 --run update_model__aux_body 5 \
    | grep -qxF '; update_model__aux_body([Int(5)]) = Some(Int(35200))'
for bad in "--dep body=9,3,1 --optimize" "--dep body=9,x,1" "--dep nobody=9,3,1"; do
    # shellcheck disable=SC2086 # each case is several words on purpose
    if ./target/debug/stats-cli compile examples/dsl/bodytrack_mini.stats \
        $bad --run update_model__aux_body 5 > /dev/null 2>&1; then
        echo "error: stats-cli compile accepted \`$bad\`" >&2
        exit 1
    fi
done
UNDEF_DIR=$(mktemp -d /tmp/stats-undef.XXXXXX)
echo 'fn f(x) { return nope(x); }' > "$UNDEF_DIR/undef.stats"
if ./target/debug/stats-cli compile "$UNDEF_DIR/undef.stats" > /dev/null 2>&1; then
    echo "error: stats-cli compile accepted a call to an undefined function" >&2
    exit 1
fi
rm -rf "$UNDEF_DIR"

echo "== clean tree (CI wrote nothing outside target/ and /tmp)"
if [[ "$(tree_state)" != "$tree_before" ]]; then
    echo "error: CI modified or created files in the source tree:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "CI OK"
