#!/usr/bin/env bash
# CI gate for the workspace. Run from the repository root:
#
#   scripts/ci.sh
#
# Mirrors what a hosted pipeline would run; kept as a script because the
# build environment is offline (no Actions runners, no network). Every
# step must pass; the script stops at the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no retired perf tooling, no environment reads in libraries =="
# Host-time performance has one instrument, the cold benchmark in
# coldbench/; the self-profile and microbench tooling it replaced must not
# grow back. Library code takes its configuration from its caller: only the
# binaries read the environment (`repro` parses every TINT_* variable into
# one RunConfig). (The pathspec needs the trailing `/*`: git matches
# `crates/*/src` against whole paths, so without it nothing under src/
# would be searched.)
if git grep -nE 'profile::|TINT_BENCH_QUICK|microbench::' -- crates; then
    echo "FAIL: retired perf tooling is referenced again (matches above)" >&2
    exit 1
fi
if git grep -n 'env::var' -- 'crates/*/src/*' ':!crates/bench/src/bin'; then
    echo "FAIL: library code reads the environment (matches above); parse it in the binary" >&2
    exit 1
fi
# The simulator crates and the figure harness hold no randomly seeded std
# maps, in tests either: their iteration order changes from process to
# process, so one loop over them can leak into output. Use
# `tint_hw::fxhash::FxHashMap` (unseeded; fxhash.rs is where it is built on
# std's map) or a BTreeMap/BTreeSet.
lib_src=()
for c in hw cache core kernel mem dram spmd workloads bench; do lib_src+=("crates/$c/src/*"); done
if git grep -nwE 'HashMap|HashSet' -- "${lib_src[@]}" ':!crates/hw/src/fxhash.rs'; then
    echo "FAIL: a library crate uses std HashMap/HashSet (matches above); use FxHashMap or a BTree map" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== fault-injection fuzz (bounded) =="
# A bounded pass of the memory-pressure fuzzer: mixed heap/syscall ops
# under injected faults, kernel invariants checked throughout. Release
# mode keeps the 5-seed pass to a few seconds; nightly-depth runs raise
# TINT_FUZZ_SEEDS instead.
TINT_FUZZ_SEEDS=5 cargo test --release -q -p tintmalloc --test fuzz_pressure

echo "== engine differential tests (release) =="
# The SPMD engine against its one-op-at-a-time oracle, in the optimized
# build the cold benchmark times: the engine's scheduling shortcuts must
# hold there too, not only under debug assertions.
cargo test --release -q -p tint-spmd --test engine_oracle

echo "== translation coherence properties (release) =="
# `System::access` reads each translation from the flat page table; these
# properties drive it across munmap, recolor, exit and injected faults in
# the optimized build the cold benchmark times.
cargo test --release -q -p tintmalloc --test prop_tlb

echo "== repro perf smoke =="
# Release probe cells at two configurations: one table per config, and the
# 16t4n record's simulated cycle count is fully deterministic (hard assert
# — any drift is a correctness bug in the pipeline).
cargo build --release -q -p tint-bench --bin repro
smoke_dir=$(mktemp -d)
(cd "$smoke_dir" && TINT_JOURNAL=0 TINT_SIM_CACHE=0 "$OLDPWD/target/release/repro" --reps 1 --configs 16t4n,4t4n probe:lbm > probe.txt)
probe_tables=$(grep -c '^=== Probe: lbm at ' "$smoke_dir/probe.txt" || true)
smoke_cycles=$(sed -n 's/.*"name": "probe:lbm@16_threads_4_nodes".*"sim_cycles": \([0-9]*\),.*/\1/p' "$smoke_dir/BENCH_repro.json")
rm -rf "$smoke_dir"
if [ "$probe_tables" != "2" ]; then
    echo "FAIL: probe:lbm at 16t4n,4t4n printed $probe_tables tables, expected 2" >&2
    exit 1
fi
if [ "$smoke_cycles" != "25652874" ]; then
    echo "FAIL: probe:lbm at 16t4n simulated $smoke_cycles cycles, expected 25652874" >&2
    exit 1
fi

echo "== cold benchmark smoke =="
# Every coldbench workload, briefly and cold (no cell cache, no journal),
# untraced and traced. Hard assert: its correctness gate fails on any
# failed operation or golden mismatch. Its timings are printed, not
# compared: a one-second run on a shared host is not a baseline.
coldbench/quick.sh
# The same at the held-out seed, whose goldens no tuning ever looked at.
coldbench/quick.sh 977

echo "== cold benchmark tests =="
# The benchmark package is its own workspace, so `cargo test --workspace`
# above never reaches its tests (gate parsing, metric arithmetic, units).
cargo test --release --offline -q --manifest-path coldbench/Cargo.toml

echo "== determinism smoke =="
# Two cold runs each of the page-migration ablation, a short soak and a
# short churn must print byte-identical output: recoloring migrates pages
# in a fixed order, the soak's OOM kills and exits walk the kernel's task
# table, and churn exits drain pcp batches and the color matrix back to
# the buddy allocator in bulk, so any dependence on hash-map or table
# iteration order (or other per-process state) shows up here. Then the
# whole command set must print the same at --jobs 1 and --jobs 2.
det_dir=$(mktemp -d)
for cmd in "ablate-migrate" "--scale 0.1 soak" "--scale 0.1 churn"; do
    for run in 1 2; do
        # shellcheck disable=SC2086 # $cmd is a word list on purpose
        (cd "$det_dir" && TINT_JOURNAL=0 TINT_SIM_CACHE=0 "$OLDPWD/target/release/repro" $cmd > "run$run.txt" 2> /dev/null)
    done
    if ! cmp -s "$det_dir/run1.txt" "$det_dir/run2.txt"; then
        echo "FAIL: two cold \`repro $cmd\` runs printed different output" >&2
        diff "$det_dir/run1.txt" "$det_dir/run2.txt" >&2 || true
        exit 1
    fi
done
# Every command, cold, at one and at two worker threads: cells are merged
# in canonical order, so the job count must not reach the output. Both
# must also print the pinned output: every command is a list of cells, and
# this hash is what the command set printed before they all were.
for jobs in 1 2; do
    (cd "$det_dir" && TINT_JOURNAL=0 TINT_SIM_CACHE=0 "$OLDPWD/target/release/repro" --jobs $jobs --scale 0.1 all > "all_jobs$jobs.txt" 2> /dev/null)
done
if ! cmp -s "$det_dir/all_jobs1.txt" "$det_dir/all_jobs2.txt"; then
    echo "FAIL: cold \`repro --scale 0.1 all\` printed different output at --jobs 1 and --jobs 2" >&2
    diff "$det_dir/all_jobs1.txt" "$det_dir/all_jobs2.txt" >&2 || true
    exit 1
fi
all_md5=$(md5sum "$det_dir/all_jobs1.txt" | cut -d' ' -f1)
if [ "$all_md5" != "a4d23c080b5aaf3149a5e686bbf009e0" ]; then
    echo "FAIL: cold \`repro --scale 0.1 all\` output md5 $all_md5 != a4d23c080b5aaf3149a5e686bbf009e0" >&2
    exit 1
fi
# `all` records one summed BENCH_repro.json entry, so the same command set
# (repro's COMMANDS list) runs cold once more, command by command, and every
# command that simulates must record non-zero `sim_cycles`
# (`tests/cli.rs` pins the exact values at `--scale 0.05`).
# Exempt:
#   gc-journal  compacts the cell journal; it simulates nothing (not run).
#   fig12       prints fig11's matrix, which the same invocation simulated.
#   fig14       prints fig13's sweep, which the same invocation simulated.
commands=$(sed -n '/^const COMMANDS/,/";$/p' crates/bench/src/bin/repro.rs \
    | sed 's/.*= "//; s/";$//; s/\\$//' | tr -s ' \n' '\n\n' | grep -v -x -e all -e gc-journal -e '')
# shellcheck disable=SC2086 # $commands is a word list on purpose
(cd "$det_dir" && rm -f BENCH_repro.json && TINT_JOURNAL=0 TINT_SIM_CACHE=0 "$OLDPWD/target/release/repro" \
    --scale 0.1 $commands > per_command.txt 2> /dev/null)
zero=$(sed -n 's/.*"name": "\([^"]*\)", "wall_ms": [0-9.]*, "sim_cycles": 0,.*/\1/p' "$det_dir/BENCH_repro.json" \
    | grep -v -x -e fig12 -e fig14 || true)
if [ -n "$zero" ]; then
    echo "FAIL: commands that simulate recorded \"sim_cycles\": 0:" $zero >&2
    exit 1
fi
rm -rf "$det_dir"

echo "== sim-cache smoke =="
# Cross-figure cell reuse, asserted hard: every fig13/fig14 cell is a
# subset of the fig11 matrix, so after fig11 runs in the same invocation,
# fig13 must be served entirely from the cell cache (zero misses, some
# hits) and fig14 must reuse the fig13 sweep via Ctx (zero traffic).
cache_dir=$(mktemp -d)
(cd "$cache_dir" && "$OLDPWD/target/release/repro" --reps 1 --scale 0.2 --configs 16t4n fig11 fig13 fig14 > /dev/null)
fig13_misses=$(sed -n 's/.*"name": "fig13".*"cache_misses": \([0-9]*\).*/\1/p' "$cache_dir/BENCH_repro.json")
fig13_hits=$(sed -n 's/.*"name": "fig13".*"cache_hits": \([0-9]*\),.*/\1/p' "$cache_dir/BENCH_repro.json")
fig14_misses=$(sed -n 's/.*"name": "fig14".*"cache_misses": \([0-9]*\).*/\1/p' "$cache_dir/BENCH_repro.json")
rm -rf "$cache_dir"
if [ "$fig13_misses" != "0" ] || [ "$fig14_misses" != "0" ]; then
    echo "FAIL: fig13/fig14 after the fig11 matrix simulated new cells (misses: fig13=$fig13_misses fig14=$fig14_misses)" >&2
    exit 1
fi
if [ -z "$fig13_hits" ] || [ "$fig13_hits" = "0" ]; then
    echo "FAIL: fig13 reported no cache hits (expected the whole sweep served from cache)" >&2
    exit 1
fi

echo "== crash-recovery smoke =="
# Three hard-asserted recovery paths of the journal/worker-isolation layer:
#
#  a) deterministic host faults at a moderate rate are fully masked by the
#     retry loop — stdout byte-identical to an undisturbed run;
#  b) a 100% fault rate defeats every retry — the run renders ERR cells
#     and exits nonzero instead of aborting the matrix;
#  c) a SIGKILL mid-matrix leaves a journal whose replay lets the resumed
#     run skip every completed cell and still print byte-identical output.
crash_dir=$(mktemp -d)
(cd "$crash_dir" && TINT_JOURNAL=0 "$OLDPWD/target/release/repro" --jobs 1 --reps 1 --scale 0.2 --configs 16t4n fig12 > clean.txt 2> /dev/null)
(cd "$crash_dir" && TINT_JOURNAL=0 TINT_HOST_FAULT=panic:50:7 "$OLDPWD/target/release/repro" --jobs 1 --reps 1 --scale 0.2 --configs 16t4n fig12 > faulted.txt 2> /dev/null)
if ! cmp -s "$crash_dir/clean.txt" "$crash_dir/faulted.txt"; then
    echo "FAIL: retried host faults changed figure output" >&2
    exit 1
fi
injected=$(sed -n 's/.*"host_faults_injected": \([0-9]*\).*/\1/p' "$crash_dir/BENCH_repro.json")
if [ -z "$injected" ] || [ "$injected" = "0" ]; then
    echo "FAIL: the host-fault plan injected nothing (injected=$injected)" >&2
    exit 1
fi
if (cd "$crash_dir" && TINT_JOURNAL=0 TINT_HOST_FAULT=panic:1000:1 "$OLDPWD/target/release/repro" --jobs 1 --reps 1 --scale 0.2 --configs 16t4n fig10 > total.txt 2> /dev/null); then
    echo "FAIL: a 100% fault rate must exit nonzero" >&2
    exit 1
fi
if ! grep -q "ERR" "$crash_dir/total.txt"; then
    echo "FAIL: poisoned cells did not render as ERR" >&2
    exit 1
fi
rm -rf "$crash_dir"

kill_dir=$(mktemp -d)
(cd "$kill_dir" && exec "$OLDPWD/target/release/repro" --jobs 2 --reps 2 --configs 16t4n fig11 > half.txt 2> /dev/null) &
kill_pid=$!
sleep 2
kill -9 "$kill_pid" 2>/dev/null || true
wait "$kill_pid" 2>/dev/null || true
(cd "$kill_dir" && "$OLDPWD/target/release/repro" --jobs 2 --reps 2 --configs 16t4n fig11 > resumed.txt 2> /dev/null)
clean_dir=$(mktemp -d)
(cd "$clean_dir" && TINT_JOURNAL=0 "$OLDPWD/target/release/repro" --jobs 2 --reps 2 --configs 16t4n fig11 > clean.txt 2> /dev/null)
if ! cmp -s "$kill_dir/resumed.txt" "$clean_dir/clean.txt"; then
    echo "FAIL: resumed-after-SIGKILL output differs from an undisturbed run" >&2
    exit 1
fi
replayed=$(sed -n 's/.*"journal": {"enabled": true, "replayed": \([0-9]*\),.*/\1/p' "$kill_dir/BENCH_repro.json")
jhits=$(sed -n 's/.*"journal": {[^}]*"hits": \([0-9]*\),.*/\1/p' "$kill_dir/BENCH_repro.json")
rm -rf "$kill_dir" "$clean_dir"
if [ -z "$replayed" ] || [ "$replayed" = "0" ]; then
    echo "FAIL: resume replayed no journaled cells (replayed=$replayed)" >&2
    exit 1
fi
if [ -z "$jhits" ] || [ "$jhits" -lt "$replayed" ]; then
    echo "FAIL: journal hits ($jhits) below replayed cells ($replayed) — prefix was re-simulated" >&2
    exit 1
fi

echo "== cell-farm smoke =="
# Two concurrent repro processes share one journal directory, each
# appending to its own shard (no locks on the append path). One is
# SIGKILLed mid-matrix, the other completes; a resume finishes the killed
# matrix. The differential: a third run over both matrices must simulate
# ZERO cells (the merged farm serves everything) and print byte-identical
# figures; `repro gc-journal` then compacts the shards into a fresh
# generation and the differential must still hold.
farm_dir=$(mktemp -d)
(cd "$farm_dir" && exec "$OLDPWD/target/release/repro" --jobs 2 --reps 2 --configs 16t4n fig11 > a.txt 2> /dev/null) &
farm_a=$!
(cd "$farm_dir" && exec "$OLDPWD/target/release/repro" --jobs 2 --reps 2 --configs 16t4n fig12 > b.txt 2> /dev/null) &
farm_b=$!
sleep 2
kill -9 "$farm_a" 2>/dev/null || true
wait "$farm_a" 2>/dev/null || true
wait "$farm_b"
(cd "$farm_dir" && "$OLDPWD/target/release/repro" --jobs 2 --reps 2 --configs 16t4n fig11 > /dev/null 2>&1)
(cd "$farm_dir" && "$OLDPWD/target/release/repro" --jobs 2 --reps 2 --configs 16t4n fig11 fig12 > farm.txt 2> /dev/null)
farm_misses=$(grep '"invocation"' "$farm_dir/BENCH_repro.json" | sed -n 's/.*"cache_misses": \([0-9]*\).*/\1/p')
if [ "$farm_misses" != "0" ]; then
    echo "FAIL: the merged cell farm re-simulated $farm_misses cells (expected 0)" >&2
    exit 1
fi
farm_clean_dir=$(mktemp -d)
(cd "$farm_clean_dir" && TINT_JOURNAL=0 "$OLDPWD/target/release/repro" --jobs 2 --reps 2 --configs 16t4n fig11 fig12 > clean.txt 2> /dev/null)
if ! cmp -s "$farm_dir/farm.txt" "$farm_clean_dir/clean.txt"; then
    echo "FAIL: farm-served figures differ from an undisturbed run" >&2
    exit 1
fi
if ! (cd "$farm_dir" && "$OLDPWD/target/release/repro" gc-journal > /dev/null 2>&1); then
    echo "FAIL: repro gc-journal exited nonzero" >&2
    exit 1
fi
(cd "$farm_dir" && "$OLDPWD/target/release/repro" --jobs 2 --reps 2 --configs 16t4n fig11 fig12 > post_gc.txt 2> /dev/null)
post_gc_misses=$(grep '"invocation"' "$farm_dir/BENCH_repro.json" | sed -n 's/.*"cache_misses": \([0-9]*\).*/\1/p')
if [ "$post_gc_misses" != "0" ] || ! cmp -s "$farm_dir/post_gc.txt" "$farm_clean_dir/clean.txt"; then
    echo "FAIL: the compacted generation lost cells (misses=$post_gc_misses)" >&2
    exit 1
fi
rm -rf "$farm_dir" "$farm_clean_dir"

echo "== io-fault degradation smoke =="
# With every journal filesystem operation failing (io:1000), the run must
# still complete correctly: exit 0, figures byte-identical to a clean run,
# exactly one warning on stderr, and the invocation block reporting the
# disarm. The journal is a cache — losing it may never take a run down.
io_dir=$(mktemp -d)
(cd "$io_dir" && TINT_JOURNAL=0 "$OLDPWD/target/release/repro" --reps 1 --scale 0.2 --configs 16t4n fig12 > clean.txt 2> /dev/null)
if ! (cd "$io_dir" && TINT_HOST_FAULT=io:1000:9 "$OLDPWD/target/release/repro" --reps 1 --scale 0.2 --configs 16t4n fig12 > faulted.txt 2> err.txt); then
    echo "FAIL: io:1000 run exited nonzero" >&2
    cat "$io_dir/err.txt" >&2
    exit 1
fi
if ! cmp -s "$io_dir/clean.txt" "$io_dir/faulted.txt"; then
    echo "FAIL: io faults changed figure output" >&2
    exit 1
fi
warns=$(grep -c "journaling disabled" "$io_dir/err.txt" || true)
if [ "$warns" != "1" ]; then
    echo "FAIL: expected exactly one disarm warning, got $warns:" >&2
    cat "$io_dir/err.txt" >&2
    exit 1
fi
if ! grep -q '"io_disarmed": true' "$io_dir/BENCH_repro.json"; then
    echo "FAIL: the invocation block did not report io_disarmed" >&2
    exit 1
fi
rm -rf "$io_dir"

echo "== churn reclamation smoke =="
# A short seeded multi-tenant churn run: tasks arrive, color themselves,
# live, and exit under every exhaustion policy with kernel invariants
# checked throughout. Each churn cell asserts the reclamation contract
# inside the cell (post-run buddy and color-list populations equal the
# post-boot baseline); a violation poisons the cell, which renders as ERR,
# and the run exits 1. The leaked_frames/pool_skew columns are re-checked
# here for belt and braces.
churn_dir=$(mktemp -d)
(cd "$churn_dir" && TINT_JOURNAL=0 "$OLDPWD/target/release/repro" --scale 0.1 churn > churn.txt 2> /dev/null)
if grep -E '"(leaked_frames|pool_skew)": "(-?[1-9])' "$churn_dir/BENCH_repro.json"; then
    echo "FAIL: churn run leaked frames or skewed pool populations" >&2
    exit 1
fi
if ! grep -q '"policy": "mixed"' "$churn_dir/BENCH_repro.json"; then
    echo "FAIL: churn figure missing the mixed-policy rows" >&2
    exit 1
fi
rm -rf "$churn_dir"

echo "== soak survival smoke =="
# A short seeded soak: sustained over-committed arrivals with the kernel
# fault injector armed, watermark admission control, OOM victim kills, and
# the incremental invariant auditor all on. Each soak cell asserts the
# survival contract inside the cell (every arrival reaches a terminal fate;
# the post-run pool populations equal the baseline — zero leaked frames);
# a violation poisons the cell, which renders as ERR, and the run exits 1.
# The window trace is re-checked here for belt and braces.
soak_dir=$(mktemp -d)
(cd "$soak_dir" && TINT_JOURNAL=0 "$OLDPWD/target/release/repro" --scale 0.1 soak > soak.txt 2> /dev/null)
if ! grep -q '"cell": "guarded"' "$soak_dir/BENCH_repro.json"; then
    echo "FAIL: soak figure missing the guarded cell" >&2
    exit 1
fi
if ! grep -q '"cell": "unguarded"' "$soak_dir/BENCH_repro.json"; then
    echo "FAIL: soak figure missing the unguarded cell" >&2
    exit 1
fi
# The final guarded window must show the incremental auditor actually ran.
audited=$(sed -n 's/.*"cell": "guarded".*"audited_frames": "\([0-9]*\)".*/\1/p' "$soak_dir/BENCH_repro.json" | tail -1)
if [ -z "$audited" ] || [ "$audited" = "0" ]; then
    echo "FAIL: soak guarded cell reported no audited frames (audited=$audited)" >&2
    exit 1
fi
# Zero-leak, re-checked from the trace: each cell's final window must show
# no live tenants and every one of the soak machine's 2,048 frames back in
# the buddy allocator.
for cell in guarded unguarded; do
    final=$(grep "\"cell\": \"$cell\"" "$soak_dir/BENCH_repro.json" | tail -1)
    if ! echo "$final" | grep -q '"live": "0", "buddy_free": "2048", "color_pages": "0"'; then
        echo "FAIL: soak $cell cell did not reclaim every frame: $final" >&2
        exit 1
    fi
done
rm -rf "$soak_dir"

echo "== figure bit-identity =="
# The six paper figures are bit-deterministic end to end; their combined
# stdout hash is the contract every refactor must preserve. Hard assert —
# any drift means the simulation pipeline changed behaviour.
md5_dir=$(mktemp -d)
(cd "$md5_dir" && TINT_JOURNAL=0 "$OLDPWD/target/release/repro" fig10 fig11 fig12 fig13 fig14 latency > figures.txt 2> /dev/null)
fig_md5=$(md5sum "$md5_dir/figures.txt" | cut -d' ' -f1)
rm -rf "$md5_dir"
if [ "$fig_md5" != "ba5e3f618bc062b31250615c57f2cc10" ]; then
    echo "FAIL: six-figure output md5 $fig_md5 != ba5e3f618bc062b31250615c57f2cc10" >&2
    exit 1
fi

echo "CI OK"
