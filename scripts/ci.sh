#!/usr/bin/env bash
# Tier-1 verification: everything a PR must pass before merge.
#
#   build (against the committed Cargo.lock) → tests → xtask lint
#   (ratcheted) → xtask graph --check (effect analysis) → clippy -D warnings
#   over all targets (lib, bins, tests and examples) → fmt check
#   → smoke determinism gate (parallel ≡ sequential ≡ pinned artifacts)
#   → every example and ablation study runs to completion
#   → kill-and-resume + storage-fault sweep (every IO op crash-tested)
#   → perfbench output gate (the benchmark builds; seed-1 outputs exact)
#
# Run from anywhere inside the repo. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release --locked"
# --locked: a Cargo.lock that no longer matches the manifests fails here
# instead of being rewritten silently.
cargo build --workspace --release --locked

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo xtask lint --format json"
cargo xtask lint --format json

echo "==> cargo xtask graph --check"
# Effect analysis: every parallel job root (and the journal replay path)
# must infer effect-free through the sanctioned islands.
cargo xtask graph --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets: lints the tests and examples along with the library and
# binary code.
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> smoke determinism gate (fig2 --threads 1 vs --threads 4)"
# The parallel Step-① characterisation must be byte-identical to the
# sequential run: CSV points, the saved resilience table, and — with
# --redact-timing — the telemetry run log and manifest too.
det_dir="$(mktemp -d)"
trap 'rm -rf "$det_dir"' EXIT
mkdir -p "$det_dir/t1" "$det_dir/t4"
cargo run -q -p reduce-bench --release --bin fig2 -- \
    --scale smoke --threads 1 --csv "$det_dir/t1" \
    --table-out "$det_dir/t1/table.json" \
    --out "$det_dir/t1" --redact-timing >/dev/null
cargo run -q -p reduce-bench --release --bin fig2 -- \
    --scale smoke --threads 4 --csv "$det_dir/t4" \
    --table-out "$det_dir/t4/table.json" \
    --out "$det_dir/t4" --redact-timing >/dev/null
diff "$det_dir/t1/fig2_resilience.csv" "$det_dir/t4/fig2_resilience.csv"
diff "$det_dir/t1/table.json" "$det_dir/t4/table.json"
diff "$det_dir/t1/run_log.jsonl" "$det_dir/t4/run_log.jsonl"
diff "$det_dir/t1/manifest.json" "$det_dir/t4/manifest.json"
# Pin the sequential run too: a change that moves the same bits at every
# thread count passes the diff above, so the CSV, table, run log (every
# epoch's accuracy and the workspace counters) and manifest (the grid
# section and the workspace totals) must also match the expected outputs
# checked in under scripts/expected/. A change that means to move them
# re-records these files and says why in CHANGES.md.
pinned=scripts/expected/fig2-smoke
diff "$pinned/fig2_resilience.csv" "$det_dir/t1/fig2_resilience.csv"
diff "$pinned/table.json" "$det_dir/t1/table.json"
diff "$pinned/run_log.jsonl" "$det_dir/t1/run_log.jsonl"
diff "$pinned/manifest.json" "$det_dir/t1/manifest.json"
echo "    parallel characterisation artifacts (csv, table, run log, manifest)"
echo "    are byte-identical to sequential and match $pinned"

echo "==> smoke determinism gate (fig3 --threads 1 vs --threads 4)"
# Same gate for the full pipeline (characterise + fleet deploy): the
# redacted run log — including the per-stage workspace_used counters —
# and the manifest must not depend on the thread count.
mkdir -p "$det_dir/f3t1" "$det_dir/f3t4"
cargo run -q -p reduce-bench --release --bin fig3 -- \
    --scale smoke --policy reduce-max --threads 1 \
    --out "$det_dir/f3t1" --redact-timing >/dev/null
cargo run -q -p reduce-bench --release --bin fig3 -- \
    --scale smoke --policy reduce-max --threads 4 \
    --out "$det_dir/f3t4" --redact-timing >/dev/null
diff "$det_dir/f3t1/run_log.jsonl" "$det_dir/f3t4/run_log.jsonl"
diff "$det_dir/f3t1/manifest.json" "$det_dir/f3t4/manifest.json"
grep -q '"event":"workspace_used"' "$det_dir/f3t1/run_log.jsonl"
grep -q '"workspace": \[{"stage"' "$det_dir/f3t1/manifest.json"
echo "    parallel deployment artifacts (run log incl. workspace counters,"
echo "    manifest) are byte-identical to sequential"

echo "==> examples and ablation studies (release, smoke scale)"
# No other stage runs examples/ or an ablation study with valid arguments,
# so every example and all seven studies must run to completion here; any
# non-zero exit fails the stage. These are the commands behind
# results/ablations_smoke.txt (one "=== <study> ===" block per study).
cargo build -q --release --examples
runs_start=$SECONDS
examples=0
for src in examples/*.rs; do
    cargo run -q --release --example "$(basename "$src" .rs)" >/dev/null
    examples=$((examples + 1))
done
for study in fault-model grid mitigation margin early-stop unprotected bn-recal; do
    cargo run -q -p reduce-bench --release --bin ablation -- "$study" --scale smoke >/dev/null
done
echo "    $examples examples and 7 ablation studies exited 0 in $((SECONDS - runs_start)) s"

echo "==> kill-and-resume gate (fig2 chaos run, interrupted ≡ uninterrupted)"
# A run killed mid-characterisation and resumed with --resume must
# publish byte-identical redacted artifacts to an uninterrupted run —
# including under seeded chaos with retries and quarantine. The kill is
# an --io-fault crash point (exit 4): ENOSPC at artifact IO op 20, the
# first op of the fourth journal append (each write_atomic is five IO
# ops, and the first append also writes the manifest), so the cut
# journal must verify clean and hold exactly three point records. The
# journal itself is completion-ordered and is deliberately never diffed.
jt() { cargo run -q -p reduce-bench --release --bin journal-tool -- "$@"; }
# The per-kind record counts `journal-tool stat` lists, one per line.
jt_kinds() { jt stat "$1" | grep -E '^  [a-z_]+: [0-9]+$' || true; }
# `journal-tool stat` of run directory $1 with the directory prefix
# stripped, for diffing against a pin under scripts/expected/.
jt_stat() { jt stat "$1" | sed "s#^$1/##"; }
chaos="--scale smoke --retries 2 --chaos-rate 0.35 --chaos-seed 7 --redact-timing"
mkdir -p "$det_dir/ref" "$det_dir/cut"
cargo run -q -p reduce-bench --release --bin fig2 -- \
    $chaos --threads 1 --csv "$det_dir/ref" --out "$det_dir/ref" >/dev/null
# The uninterrupted run journals exactly one record per grid cell: its
# record counts and byte size are pinned.
diff scripts/expected/fig2-chaos/journal_stat.txt <(jt_stat "$det_dir/ref")
rc=0
cargo run -q -p reduce-bench --release --bin fig2 -- \
    $chaos --threads 4 --csv "$det_dir/cut" --out "$det_dir/cut" \
    --io-fault enospc@20 >/dev/null || rc=$?
[ "$rc" -eq 4 ] || { echo "expected the enospc@20 crash point to exit 4, got $rc"; exit 1; }
jt verify "$det_dir/cut" >/dev/null || {
    echo "cut fig2 journal did not verify clean"; exit 1; }
[ "$(jt_kinds "$det_dir/cut")" = "  point: 3" ] || {
    echo "cut fig2 journal must hold exactly 3 point records:"; jt stat "$det_dir/cut"; exit 1; }
cargo run -q -p reduce-bench --release --bin fig2 -- \
    $chaos --threads 4 --csv "$det_dir/cut" --resume "$det_dir/cut" >/dev/null
diff "$det_dir/ref/fig2_resilience.csv" "$det_dir/cut/fig2_resilience.csv"
diff "$det_dir/ref/run_log.jsonl" "$det_dir/cut/run_log.jsonl"
diff "$det_dir/ref/manifest.json" "$det_dir/cut/manifest.json"
grep -q '"event":"job_failed"' "$det_dir/ref/run_log.jsonl"
echo "    interrupted+resumed chaos run artifacts (csv, run log, manifest)"
echo "    are byte-identical to the uninterrupted run"

echo "==> storage-fault sweep gate (fig2 chaos run, every artifact IO op)"
# ALICE-style crash sweep: arm the deterministic IO-fault injector at
# every artifact IO operation index of the chaos campaign in turn. Each
# armed run must die with exit 4 (the simulated crash), journal-tool must
# classify the surviving journal (repairing the rare corrupt middles),
# and --resume must publish byte-identical redacted artifacts to the
# uninterrupted reference. Fault kinds rotate so torn writes, short
# writes, ENOSPC, and failed renames all land on every phase of the run.
jt verify "$det_dir/cut" >/dev/null || {
    echo "resumed kill-and-resume journal did not verify clean"; exit 1; }
sweep_dir="$det_dir/sweep"
mkdir -p "$sweep_dir/probe"
rc=0
cargo run -q -p reduce-bench --release --bin fig2 -- \
    $chaos --threads 4 --csv "$sweep_dir/probe" --out "$sweep_dir/probe" \
    --io-fault enospc@1000000 >/dev/null 2>"$sweep_dir/probe.err" || rc=$?
[ "$rc" -eq 0 ] || { echo "op-count probe failed ($rc)"; cat "$sweep_dir/probe.err"; exit 1; }
total_ops=$(grep -oE "beyond the run's [0-9]+" "$sweep_dir/probe.err" | grep -oE '[0-9]+')
# The campaign's artifact IO-op count repeats exactly at any thread count,
# so it is pinned: a change that adds or drops an IO op re-records the
# file and says why in CHANGES.md.
expected_ops=$(cat scripts/expected/fig2-chaos/io_ops.txt)
[ "${total_ops:-none}" = "$expected_ops" ] || {
    echo "probe counted '${total_ops:-none}' artifact IO ops, expected $expected_ops"; exit 1; }
kinds=(torn short enospc rename-fail)
repaired=0
for ((i = 0; i < total_ops; i++)); do
    kind=${kinds[i % 4]}
    cut="$sweep_dir/cut"
    rm -rf "$cut"
    mkdir -p "$cut"
    rc=0
    cargo run -q -p reduce-bench --release --bin fig2 -- \
        $chaos --threads 4 --csv "$cut" --out "$cut" \
        --io-fault "$kind@$i" >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 4 ] || { echo "fault $kind@$i: expected crash exit 4, got $rc"; exit 1; }
    vrc=0
    jt verify "$cut" >/dev/null || vrc=$?
    case "$vrc" in
        0|2) ;;
        3) jt repair "$cut" >/dev/null || { echo "fault $kind@$i: repair failed"; exit 1; }
           repaired=$((repaired + 1)) ;;
        *) echo "fault $kind@$i: journal-tool verify exited $vrc"; exit 1 ;;
    esac
    cargo run -q -p reduce-bench --release --bin fig2 -- \
        $chaos --threads 4 --csv "$cut" --resume "$cut" >/dev/null
    diff "$det_dir/ref/fig2_resilience.csv" "$cut/fig2_resilience.csv"
    diff "$det_dir/ref/run_log.jsonl" "$cut/run_log.jsonl"
    diff "$det_dir/ref/manifest.json" "$cut/manifest.json"
    jt verify "$cut" >/dev/null || {
        echo "fault $kind@$i: resumed journal did not verify clean"; exit 1; }
done
echo "    $total_ops fault points x {torn,short,enospc,rename-fail}: every"
echo "    crash resumed to byte-identical artifacts ($repaired needed repair)"

echo "==> GEMM kernel-comparison gate (gemm_bench --check)"
# Every registered GEMM kernel must agree with the naive reference on the
# full workload set (exact for the blocked kernels, FMA tolerance for the
# packed ones) — the binary exits non-zero on any gate failure. The JSON
# document it writes must also keep the checked-in schema: numeric
# literals are normalised away (timings and error magnitudes vary run to
# run) but structure, names and the "ok" booleans must match
# BENCH_gemm.json byte for byte.
mkdir -p "$det_dir/gemm"
cargo run -q -p reduce-bench --release --bin gemm_bench -- \
    --check --out "$det_dir/gemm/BENCH_gemm.json" >/dev/null
normalise_nums() { sed -E 's/-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?/N/g' "$1"; }
diff <(normalise_nums BENCH_gemm.json) \
     <(normalise_nums "$det_dir/gemm/BENCH_gemm.json")
echo "    all kernels pass their correctness gates; BENCH_gemm.json schema"
echo "    matches the checked-in document"

echo "==> large-fleet streaming gate (fig3 --chips 20000)"
# The streaming fleet pipeline must hold memory constant at 10^4+ chips:
# chips come from a seeded source (never a materialised Vec), outcomes
# fold into a constant-size report, and the journal is sharded. Gate on
# the process peak RSS and require the throughput line.
fleet_out="$det_dir/fleet"
mkdir -p "$fleet_out"
cargo run -q -p reduce-bench --release --bin fig3 -- \
    --scale smoke --policy fixed:0 --chips 20000 --threads 4 \
    > "$fleet_out/stdout.txt"
grep -E "chips/sec" "$fleet_out/stdout.txt"
rss_kb=$(grep -oE 'peak_rss_kb=[0-9]+' "$fleet_out/stdout.txt" | cut -d= -f2)
[ -n "$rss_kb" ] || { echo "fig3 did not report peak_rss_kb"; exit 1; }
[ "$rss_kb" -lt 786432 ] || { echo "peak RSS ${rss_kb} kB breaks the 768 MB ceiling"; exit 1; }
echo "    20000-chip streamed fleet held peak RSS at ${rss_kb} kB (< 768 MB ceiling)"

echo "==> eFAT strategy gate (clustered beats per-chip Reduce, deterministically)"
# The cluster-aware pipeline must earn its keep on the same seeded smoke
# fleet: eFAT spends strictly fewer aggregate epochs than per-chip
# Reduce at equal-or-better yield. It must also keep the determinism
# contract with clustering enabled — redacted artifacts byte-identical
# across thread counts and across kill-and-resume.
efat_dir="$det_dir/efat"
mkdir -p "$efat_dir/t1" "$efat_dir/t4" "$efat_dir/ref" "$efat_dir/cut"
cargo run -q -p reduce-bench --release --bin fig3 -- \
    --scale smoke --strategy all --threads 1 \
    --out "$efat_dir/t1" --redact-timing > "$efat_dir/stdout.txt"
cargo run -q -p reduce-bench --release --bin fig3 -- \
    --scale smoke --strategy all --threads 4 \
    --out "$efat_dir/t4" --redact-timing >/dev/null
diff "$efat_dir/t1/run_log.jsonl" "$efat_dir/t4/run_log.jsonl"
diff "$efat_dir/t1/manifest.json" "$efat_dir/t4/manifest.json"
# The sequential run log (every epoch, the workspace counters and the
# cluster events) and manifest are pinned like the fig2 smoke run's above.
diff scripts/expected/fig3-smoke-all/run_log.jsonl "$efat_dir/t1/run_log.jsonl"
diff scripts/expected/fig3-smoke-all/manifest.json "$efat_dir/t1/manifest.json"
grep -q '"event":"cluster_formed"' "$efat_dir/t1/run_log.jsonl"
grep -q '"event":"warm_start_hit"' "$efat_dir/t1/run_log.jsonl"
# Comparison-table columns, counted from the right: epochs_saved,
# warm_starts, clusters, total_epochs, yield%, satisfied, chips.
table_field() { # $1: row pattern, $2: offset from NF
    awk -v pat="$1" -v off="$2" \
        '/^— strategy comparison/{s=1; next} s && $0 ~ pat {print $(NF-off); exit}' \
        "$efat_dir/stdout.txt"
}
reduce_epochs=$(table_field '^Reduce \\(max\\) +[0-9]' 3)
reduce_sat=$(table_field '^Reduce \\(max\\) +[0-9]' 5)
efat_epochs=$(table_field '\\+ eFAT' 3)
efat_sat=$(table_field '\\+ eFAT' 5)
[ -n "$reduce_epochs" ] && [ -n "$efat_epochs" ] || {
    echo "could not parse the strategy comparison table"; exit 1; }
[ "$efat_epochs" -lt "$reduce_epochs" ] || {
    echo "eFAT ($efat_epochs epochs) must spend strictly fewer than per-chip Reduce ($reduce_epochs)"
    exit 1; }
[ "$efat_sat" -ge "$reduce_sat" ] || {
    echo "eFAT yield ($efat_sat) fell below per-chip Reduce ($reduce_sat)"; exit 1; }
echo "    eFAT: $efat_epochs aggregate epochs vs Reduce's $reduce_epochs at yield $efat_sat>=$reduce_sat"
# Kill mid-run, resume, and require byte-identical artifacts to an
# uninterrupted run. The --io-fault crash point (exit 4) is ENOSPC at
# artifact IO op 50, the first op of the tenth journal append: it must
# cut into the clustered fleet batches, after all eight grid cells and
# one fleet batch, and leave a journal that verifies clean.
cargo run -q -p reduce-bench --release --bin fig3 -- \
    --scale smoke --strategy efat --threads 1 \
    --out "$efat_dir/ref" --redact-timing >/dev/null
# One record per grid cell and one per fleet batch, pinned like the fig2
# chaos journal above.
diff scripts/expected/fig3-smoke-efat/journal_stat.txt <(jt_stat "$efat_dir/ref")
# Its artifact IO-op count repeats exactly at any thread count, so it is
# pinned like the fig2 chaos campaign's: probed at one and four threads
# with a fault armed past the end of the run.
efat_ops=$(cat scripts/expected/fig3-smoke-efat/io_ops.txt)
for threads in 1 4; do
    probe="$efat_dir/probe-t$threads"
    mkdir -p "$probe"
    rc=0
    cargo run -q -p reduce-bench --release --bin fig3 -- \
        --scale smoke --strategy efat --threads "$threads" \
        --out "$probe" --redact-timing --io-fault enospc@1000000 \
        >/dev/null 2>"$probe.err" || rc=$?
    [ "$rc" -eq 0 ] || { echo "fig3 eFAT op-count probe failed ($rc)"; cat "$probe.err"; exit 1; }
    ops=$(grep -oE "beyond the run's [0-9]+" "$probe.err" | grep -oE '[0-9]+' || true)
    [ "${ops:-none}" = "$efat_ops" ] || {
        echo "fig3 eFAT probe at $threads thread(s) counted '${ops:-none}' artifact IO ops, expected $efat_ops"
        exit 1; }
done
rc=0
cargo run -q -p reduce-bench --release --bin fig3 -- \
    --scale smoke --strategy efat --threads 4 \
    --out "$efat_dir/cut" --redact-timing --io-fault enospc@50 >/dev/null || rc=$?
[ "$rc" -eq 4 ] || { echo "expected the enospc@50 crash point to exit 4, got $rc"; exit 1; }
jt verify "$efat_dir/cut" >/dev/null || {
    echo "cut eFAT journal did not verify clean"; exit 1; }
[ "$(jt_kinds "$efat_dir/cut")" = "$(printf '  point: 8\n  fleet_batch: 1')" ] || {
    echo "cut eFAT journal must hold exactly 8 point and 1 fleet_batch records:"
    jt stat "$efat_dir/cut"; exit 1; }
cargo run -q -p reduce-bench --release --bin fig3 -- \
    --scale smoke --strategy efat --threads 4 \
    --resume "$efat_dir/cut" --redact-timing >/dev/null
diff "$efat_dir/ref/run_log.jsonl" "$efat_dir/cut/run_log.jsonl"
diff "$efat_dir/ref/manifest.json" "$efat_dir/cut/manifest.json"
jt verify "$efat_dir/cut" >/dev/null || {
    echo "resumed eFAT journal did not verify clean"; exit 1; }
echo "    clustered artifacts are byte-identical across thread counts and"
echo "    across kill-and-resume (journal verifies clean after resume); the"
echo "    run performs $efat_ops artifact IO ops at 1 and 4 threads"

echo "==> perfbench output gate (every workload once at the recorded seed)"
# perfbench/ is its own cargo package, so nothing above builds it: an API
# change that breaks the benchmark, or a kernel change that moves one bit
# of a recorded output, would otherwise surface only when the benchmark
# runs. One round per workload at seed 1 is checked bit for bit against
# perfbench/expected/; the JSON line must report it correct, with no
# failed job. --locked: a dependency change that would rewrite
# perfbench/Cargo.lock fails here too.
bench() { cargo run -q --release --offline --locked --manifest-path perfbench/Cargo.toml -- "$@"; }
bench_err="$det_dir/perfbench.stderr"
for workload in characterize-vgg fleet-vgg-efat fleet-fap-resume; do
    line=$(bench --workload "$workload" --seed 1 --seconds 0.001 2>"$bench_err" | grep '^{' || true)
    if ! grep -q '"correct": true' <<<"$line" || ! grep -q '"failed": 0,' <<<"$line"; then
        # Compiler errors and perfbench's own diagnostics go to stderr.
        cat "$bench_err"
        echo "perfbench $workload failed its output check: ${line:-no JSON line}"
        exit 1
    fi
    echo "    $workload: outputs match perfbench/expected/, 0 failed"
done

echo "ci: all stages green"
