#!/usr/bin/env bash
# run_checks.sh: tier-1 tests in the default configuration, a golden
# output check (default lookahead runs and the sis/abc/dc baseline flows on
# the regression circuits must reproduce the sha256 recorded in
# tests/data/golden.sha256), a check that `lls_opt --map --metrics`
# reports the mapping timer, a check that deleted flags exit 2, a
# budgeted determinism check of the CLI
# (same circuit + work budget at several --jobs values must produce
# byte-identical outputs), a batch
# jobs-invariance check (outputs byte-identical across --jobs 1/2/4), a
# don't-care-proof invariance check (outputs byte-identical across
# --jobs 1/2/4, budgeted and warm-cache variants included), a per-cone
# memory-quota determinism check (tight --cone-mem batch runs
# byte-identical across --jobs x cold/warm cache), fault-injection checks
# with the full suite re-run under AddressSanitizer, checkpoint/resume
# checks of the containment subsystem (including a --jobs 4 crash/resume
# cycle), persistent-memo-store checks (warm runs byte-identical to cold
# across --jobs, corrupted stores degrade to cold start), a
# graceful-shutdown check (SIGTERM mid-batch must exit with the
# documented resumable code, leave a valid journal, and --resume must
# reproduce the uninterrupted bytes), then the concurrency-sensitive
# engine/cancel/parse/io/persist tests — including the
# nested-parallel_for deadlock regressions in test_thread_pool and the
# cancellation watchdog paths — under ThreadSanitizer.
#
#   tools/run_checks.sh [--skip-tsan]
#
# Exit code is nonzero if any stage fails.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO="$PWD"
JOBS="$(nproc 2>/dev/null || echo 2)"
SKIP_TSAN=0
[[ "${1:-}" == "--skip-tsan" ]] && SKIP_TSAN=1

echo "== stage 1: tier-1 tests (RelWithDebInfo) =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== stage 1b: golden output hashes =="
# Speed work must not change results: default (lookahead) runs and the
# sis, abc and dc baseline flows on the regression circuits at --jobs 1 and
# 4 must write exactly the recorded bytes (flow outputs are named
# <circuit>.<flow>.blif), and so must the default run's mapped netlist
# (--verilog, <circuit>.v). A change that alters QoR on purpose regenerates
# tests/data/golden.sha256 and says why in CHANGES.md.
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
for j in 1 4; do
    mkdir -p "$WORKDIR/golden.j$j"
    for circuit in tests/data/rca16.blif tests/data/control24.blif; do
        name="$(basename "$circuit" .blif)"
        ./build/tools/lls_opt --jobs "$j" --verilog "$WORKDIR/golden.j$j/$name.v" "$circuit" \
            "$WORKDIR/golden.j$j/$name.blif" > /dev/null
        for flow in sis abc dc; do
            ./build/tools/lls_opt --flow "$flow" --jobs "$j" "$circuit" \
                "$WORKDIR/golden.j$j/$name.$flow.blif" > /dev/null
        done
    done
    (cd "$WORKDIR/golden.j$j" && sha256sum --check --quiet "$REPO/tests/data/golden.sha256")
    echo "outputs at --jobs $j match tests/data/golden.sha256"
done

echo "== stage 1c: the metrics report covers mapping =="
# --metrics is printed after --map runs, so the mapping timer appears.
./build/tools/lls_opt --map --metrics tests/data/rca16.blif > "$WORKDIR/map_metrics.txt"
grep -q "mapping.map" "$WORKDIR/map_metrics.txt" || {
    echo "mapping.map missing from lls_opt --map --metrics"; exit 1; }
echo "lls_opt --map --metrics reports mapping.map"

echo "== stage 1d: removed flags stay removed =="
# Deleted options must be usage errors (exit 2), not silently ignored.
for flag in "--mem-budget 64M" "--time-budget 5s" "--steal on" "--intra-cone on" \
            "--shared-bdd on"; do
    rc=0
    # shellcheck disable=SC2086 # the flag and its value are two words
    ./build/tools/lls_opt $flag tests/data/rca16.blif "$WORKDIR/removed.blif" \
        > /dev/null 2>&1 || rc=$?
    [[ "$rc" == 2 ]] || { echo "lls_opt $flag: expected exit 2, got $rc"; exit 1; }
done
echo "removed flags exit 2"

echo "== stage 2: budgeted determinism across job counts =="
# The core claim of the deterministic work budget: exhausting it must cut
# the run at the same round on every thread schedule, so the output files
# are byte-identical across --jobs. Checked on both regression circuits.
for circuit in tests/data/rca16.blif tests/data/control24.blif; do
    name="$(basename "$circuit" .blif)"
    for j in 1 2 4; do
        ./build/tools/lls_opt --work-budget 200 --jobs "$j" --iterations 6 \
            "$circuit" "$WORKDIR/$name.j$j.blif" > /dev/null
    done
    cmp "$WORKDIR/$name.j1.blif" "$WORKDIR/$name.j2.blif"
    cmp "$WORKDIR/$name.j1.blif" "$WORKDIR/$name.j4.blif"
    echo "$name: budgeted outputs identical for --jobs 1/2/4"
done

echo "== stage 2c: batch outputs are jobs-invariant =="
# Which worker runs a batch item is an execution detail: batch outputs
# must be byte-identical across --jobs 1/2/4.
for j in 1 2 4; do
    ./build/tools/lls_opt --batch --jobs "$j" --out-dir "$WORKDIR/batch.j$j" \
        tests/data/rca16.blif tests/data/control24.blif > /dev/null
done
for j in 2 4; do
    for name in rca16 control24; do
        cmp "$WORKDIR/batch.j1/$name.blif" "$WORKDIR/batch.j$j/$name.blif"
    done
done
echo "batch outputs identical across --jobs 1/2/4"

echo "== stage 2d: don't-care proofs are jobs- and cache-invariant =="
# Batch outputs and budgeted single runs must be byte-identical across
# --jobs 1/2/4, and a warm persistent-store replay must reproduce the
# cold bytes at every job count too.
for j in 1 2 4; do
    ./build/tools/lls_opt --batch --jobs "$j" --iterations 6 \
        --out-dir "$WORKDIR/ic.j$j" \
        tests/data/rca16.blif tests/data/control24.blif > /dev/null
    ./build/tools/lls_opt --work-budget 200 --jobs "$j" \
        --iterations 6 tests/data/rca16.blif "$WORKDIR/ic.budget.j$j.blif" > /dev/null
done
for j in 2 4; do
    for name in rca16 control24; do
        cmp "$WORKDIR/ic.j1/$name.blif" "$WORKDIR/ic.j$j/$name.blif"
    done
    cmp "$WORKDIR/ic.budget.j1.blif" "$WORKDIR/ic.budget.j$j.blif"
done
# Warm-cache variant: populate the persistent store cold, then replay it
# read-only at several --jobs values.
ICCACHE="$WORKDIR/dc_cache"
./build/tools/lls_opt --cache-dir "$ICCACHE" --jobs 1 --iterations 6 \
    --aiger "$WORKDIR/ic.cold.aag" \
    tests/data/rca16.blif "$WORKDIR/ic.cold.blif" > /dev/null
for j in 1 4; do
    ./build/tools/lls_opt --cache-dir "$ICCACHE" --cache-mode read --jobs "$j" \
        --iterations 6 --aiger "$WORKDIR/ic.warm.j$j.aag" \
        tests/data/rca16.blif "$WORKDIR/ic.warm.j$j.blif" > /dev/null
    cmp "$WORKDIR/ic.cold.aag" "$WORKDIR/ic.warm.j$j.aag"
done
echo "outputs identical across --jobs 1/2/4, budgeted + warm cache"

echo "== stage 2e: per-cone memory quota degrades deterministically =="
# The per-cone memory quota's core claim: a tight --cone-mem must trip at
# identical program points whatever the job count or cache state — batch
# outputs byte-identical across --jobs 1/2/4 x cold/warm persistent cache,
# with at least one cone actually degraded on each circuit (128K degrades
# 4 cones of rca16 and 2 of control24 at --iterations 6; SAT queries load
# only the cones they reach, so 1M and 512K degrade none).
MEMCACHE="$WORKDIR/memgov_cache"
# Seed run: populates the persistent store (quota-degraded evaluations
# memoize and persist like any deterministic fault) and is the byte
# reference for every later combination.
./build/tools/lls_opt --batch --cone-mem 128K --jobs 1 \
    --iterations 6 --cache-dir "$MEMCACHE" \
    --out-dir "$WORKDIR/mg.seed" \
    tests/data/rca16.blif tests/data/control24.blif > "$WORKDIR/mg.seed.log"
for name in rca16 control24; do
    grep -qE "$name\.blif: [1-9][0-9]* cone\(s\) exceeded --cone-mem" "$WORKDIR/mg.seed.log" || {
        echo "expected at least one quota-degraded cone of $name under --cone-mem 128K"; exit 1; }
done
for j in 1 2 4; do
    ./build/tools/lls_opt --batch --cone-mem 128K \
        --jobs "$j" --iterations 6 \
        --out-dir "$WORKDIR/mg.j$j.cold" \
        tests/data/rca16.blif tests/data/control24.blif \
        > "$WORKDIR/mg.j$j.cold.log"
    ./build/tools/lls_opt --batch --cone-mem 128K \
        --jobs "$j" --iterations 6 \
        --cache-dir "$MEMCACHE" --cache-mode read \
        --out-dir "$WORKDIR/mg.j$j.warm" \
        tests/data/rca16.blif tests/data/control24.blif \
        > "$WORKDIR/mg.j$j.warm.log"
done
for j in 1 2 4; do
    for pass in cold warm; do
        for name in rca16 control24; do
            cmp "$WORKDIR/mg.seed/$name.blif" "$WORKDIR/mg.j$j.$pass/$name.blif"
        done
    done
done
echo "quota'd outputs identical across --jobs 1/2/4 x cold/warm"

echo "== stage 3: fault injection never aborts and stays jobs-invariant =="
# Every engine site class, injected on the regression circuits: the run must
# exit 0 (contained, not crashed), verify equivalence, and produce the same
# bytes at every --jobs value. Plus a short fuzz run with injection enabled.
for spec in resource@decompose:1 invariant@spcf:1 solver@sat:1 verify@cec:1 \
            resource@decompose:3; do
    for circuit in tests/data/rca16.blif tests/data/control24.blif; do
        name="$(basename "$circuit" .blif)"
        tag="${spec//[@:]/_}"
        for j in 1 2 4; do
            ./build/tools/lls_opt --fault-inject "$spec" --jobs "$j" --iterations 6 \
                "$circuit" "$WORKDIR/$name.$tag.j$j.blif" > /dev/null
        done
        cmp "$WORKDIR/$name.$tag.j1.blif" "$WORKDIR/$name.$tag.j2.blif"
        cmp "$WORKDIR/$name.$tag.j1.blif" "$WORKDIR/$name.$tag.j4.blif"
        echo "$name: $spec contained, outputs identical for --jobs 1/2/4"
    done
done
# From inside WORKDIR so a failure's fuzz_corpus/ lands in the temp dir.
(cd "$WORKDIR" && "$REPO/build/tools/lls_fuzz" 3 4242 --fault-inject resource@decompose:1)
# Store-file mutation fuzzing: random corruption of published shards must
# always degrade to a byte-identical cold recompute, never a crash.
(cd "$WORKDIR" && "$REPO/build/tools/lls_fuzz" --mutate-store 3 4242)
# Memory-quota fuzzing: random tight per-cone quotas must always be
# contained (equivalent, never "recovered", byte-identical across job
# counts).
(cd "$WORKDIR" && "$REPO/build/tools/lls_fuzz" --cone-mem 3 4242)
# The full test suite again under AddressSanitizer: the recovery ladder's
# throw/catch/degrade paths and the quota exhaustion throws must be leak-
# and corruption-free, not just functionally right.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLLS_SANITIZE=address
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo "== stage 4: interrupted checkpoint + resume is byte-identical =="
# Run the batch uninterrupted; then crash it (simulated, exit 42) after one
# journaled circuit and resume from the checkpoint. The resumed outputs must
# match the uninterrupted ones byte for byte.
./build/tools/lls_opt --batch tests/data/rca16.blif tests/data/control24.blif \
    --out-dir "$WORKDIR/full" --jobs 2 > /dev/null
rc=0
./build/tools/lls_opt --batch tests/data/rca16.blif tests/data/control24.blif \
    --out-dir "$WORKDIR/resumed" --jobs 2 --checkpoint "$WORKDIR/ckpt.txt" \
    --fault-inject fatal@batch:1 > /dev/null 2>&1 || rc=$?
[[ "$rc" == 42 ]] || { echo "expected simulated crash exit 42, got $rc"; exit 1; }
./build/tools/lls_opt --batch tests/data/rca16.blif tests/data/control24.blif \
    --out-dir "$WORKDIR/resumed" --jobs 2 --checkpoint "$WORKDIR/ckpt.txt" \
    --resume > /dev/null
cmp "$WORKDIR/full/rca16.blif" "$WORKDIR/resumed/rca16.blif"
cmp "$WORKDIR/full/control24.blif" "$WORKDIR/resumed/control24.blif"
echo "checkpoint/resume outputs identical to uninterrupted run"

# The same crash/resume cycle with more workers than items: an
# interrupted --jobs 4 batch must resume byte-identical too.
rc=0
./build/tools/lls_opt --batch tests/data/rca16.blif tests/data/control24.blif \
    --out-dir "$WORKDIR/resumed-j4" --jobs 4 \
    --checkpoint "$WORKDIR/ckpt-j4.txt" \
    --fault-inject fatal@batch:1 > /dev/null 2>&1 || rc=$?
[[ "$rc" == 42 ]] || { echo "expected simulated crash exit 42, got $rc"; exit 1; }
./build/tools/lls_opt --batch tests/data/rca16.blif tests/data/control24.blif \
    --out-dir "$WORKDIR/resumed-j4" --jobs 4 \
    --checkpoint "$WORKDIR/ckpt-j4.txt" --resume > /dev/null
cmp "$WORKDIR/full/rca16.blif" "$WORKDIR/resumed-j4/rca16.blif"
cmp "$WORKDIR/full/control24.blif" "$WORKDIR/resumed-j4/control24.blif"
echo "--jobs 4 checkpoint/resume outputs identical to uninterrupted run"

echo "== stage 4b: persistent store warm runs are byte-identical =="
# Cold run populates the cache directory; warm runs at several --jobs
# values must replay to byte-identical AIGER output with warm hits > 0.
CACHE="$WORKDIR/memo_cache"
./build/tools/lls_opt --cache-dir "$CACHE" --jobs 1 --iterations 6 \
    --aiger "$WORKDIR/persist.cold.aag" \
    tests/data/rca16.blif "$WORKDIR/persist.cold.blif" > /dev/null
for j in 1 2 4; do
    ./build/tools/lls_opt --cache-dir "$CACHE" --cache-mode read --jobs "$j" \
        --iterations 6 --aiger "$WORKDIR/persist.warm.j$j.aag" \
        --metrics-json "$WORKDIR/persist.warm.j$j.json" \
        tests/data/rca16.blif "$WORKDIR/persist.warm.j$j.blif" > /dev/null
    cmp "$WORKDIR/persist.cold.aag" "$WORKDIR/persist.warm.j$j.aag"
    grep -q '"persist.warm_hits":0' "$WORKDIR/persist.warm.j$j.json" && {
        echo "expected persist.warm_hits > 0 at --jobs $j"; exit 1; }
    grep -q '"persist.warm_hits":' "$WORKDIR/persist.warm.j$j.json" || {
        echo "persist.warm_hits missing from metrics JSON"; exit 1; }
done
echo "warm outputs identical to cold for --jobs 1/2/4, warm hits recorded"

echo "== stage 4c: corrupted store degrades to cold start, not failure =="
# Truncate and bit-flip every shard: the run must exit 0, report a cold
# start, and still produce the same bytes (recomputed).
CORRUPT="$WORKDIR/memo_corrupt"
cp -r "$CACHE" "$CORRUPT"
for f in "$CORRUPT"/*.shard; do
    size=$(stat -c %s "$f")
    head -c "$((size / 2))" "$f" > "$f.t" && mv "$f.t" "$f"
    printf '\377' | dd of="$f" bs=1 seek=12 conv=notrunc status=none
done
./build/tools/lls_opt --cache-dir "$CORRUPT" --cache-mode read --jobs 2 \
    --iterations 6 --aiger "$WORKDIR/persist.corrupt.aag" \
    tests/data/rca16.blif "$WORKDIR/persist.corrupt.blif" > "$WORKDIR/persist.corrupt.log"
grep -q "persist: cold start" "$WORKDIR/persist.corrupt.log" || {
    echo "expected cold-start fallback on corrupted store"; exit 1; }
cmp "$WORKDIR/persist.cold.aag" "$WORKDIR/persist.corrupt.aag"
echo "corrupted store contained: cold start, byte-identical output"

echo "== stage 4d: SIGTERM mid-batch is resumable and byte-identical =="
# A larger batch (distinct copies so names stay unique in the journal and
# out-dir), killed with SIGTERM mid-flight: the process must exit with the
# documented resumable-shutdown code (30), keep a valid journal of every
# finished item, and --resume must complete the batch with outputs
# byte-identical to an uninterrupted run. Also exercises the deadline
# watchdog end-to-end first (--cone-deadline on a real run must exit 0).
./build/tools/lls_opt --cone-deadline 30s --jobs 2 --iterations 6 \
    tests/data/rca16.blif "$WORKDIR/deadline.blif" > /dev/null
echo "--cone-deadline run completed cleanly"
# Watchdog fuzzing: random circuits under microsecond-scale random cone
# deadlines must stay equivalent and well-formed (degrade-to-original).
(cd "$WORKDIR" && "$REPO/build/tools/lls_fuzz" --deadline 3 4242)
SIG_INPUTS=()
for i in 1 2 3; do
    cp tests/data/rca16.blif "$WORKDIR/sig_rca$i.blif"
    cp tests/data/control24.blif "$WORKDIR/sig_ctl$i.blif"
    SIG_INPUTS+=("$WORKDIR/sig_rca$i.blif" "$WORKDIR/sig_ctl$i.blif")
done
./build/tools/lls_opt --batch --jobs 2 --iterations 6 \
    --out-dir "$WORKDIR/sig-full" "${SIG_INPUTS[@]}" > /dev/null
rc=0
./build/tools/lls_opt --batch --jobs 2 --iterations 6 \
    --out-dir "$WORKDIR/sig-resumed" --checkpoint "$WORKDIR/sig-ckpt.txt" \
    "${SIG_INPUTS[@]}" > "$WORKDIR/sig.log" 2>&1 &
SIG_PID=$!
# Signal once the journal holds its first finished item, so the kill lands
# mid-batch: the whole batch can finish in about 0.3 s, so a fixed sleep
# would race it.
for _ in $(seq 3000); do
    [[ "$(wc -l < "$WORKDIR/sig-ckpt.txt" 2>/dev/null || echo 0)" -ge 2 ]] && break
    kill -0 "$SIG_PID" 2>/dev/null || break
    sleep 0.01
done
kill -TERM "$SIG_PID" 2>/dev/null || true
wait "$SIG_PID" || rc=$?
[[ "$rc" == 30 ]] || { echo "expected signal-shutdown exit 30, got $rc"; cat "$WORKDIR/sig.log"; exit 1; }
grep -q "terminated by signal 15" "$WORKDIR/sig.log" || {
    echo "missing shutdown diagnostic"; cat "$WORKDIR/sig.log"; exit 1; }
[[ -f "$WORKDIR/sig-ckpt.txt" ]] || { echo "journal missing after shutdown"; exit 1; }
./build/tools/lls_opt --batch --jobs 2 --iterations 6 \
    --out-dir "$WORKDIR/sig-resumed" --checkpoint "$WORKDIR/sig-ckpt.txt" \
    --resume "${SIG_INPUTS[@]}" > /dev/null
for i in 1 2 3; do
    cmp "$WORKDIR/sig-full/sig_rca$i.blif" "$WORKDIR/sig-resumed/sig_rca$i.blif"
    cmp "$WORKDIR/sig-full/sig_ctl$i.blif" "$WORKDIR/sig-resumed/sig_ctl$i.blif"
done
echo "SIGTERM shutdown: exit 30, journal intact, resumed outputs byte-identical"

if [[ "$SKIP_TSAN" == 1 ]]; then
    echo "== stage 5: skipped (--skip-tsan) =="
    exit 0
fi

echo "== stage 5: engine + cancel + persist tests under ThreadSanitizer =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLLS_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" \
    --target test_thread_pool test_engine test_parse test_cancel test_io \
             test_cache test_persist
(cd build-tsan && ctest -R 'test_thread_pool|test_engine|test_parse|test_cancel|test_io|test_cache|test_persist' \
    --output-on-failure)

echo "== all checks passed =="
