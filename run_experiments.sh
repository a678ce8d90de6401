#!/usr/bin/env bash
# Regenerates every paper artifact at the default reproduction scale and
# collects the outputs under results/. Each phase logs its wall time and
# ok/FAILED status so slowdowns and breakage are attributable to a
# specific artifact; the summary lands in results/phase_times.txt. A
# failing phase is recorded, the remaining phases still run, and the
# script exits nonzero.
#
# GURITA_THREADS (default 1) sets the intra-run component-pool width
# passed to every figure/sweep phase via --threads (0 = one worker per
# core; the online phase reads the variable directly); results are
# bit-for-bit identical at any setting, so this is purely a wall-time
# knob. The per-phase thread count is recorded in
# results/phase_times.txt so snapshots are comparable. Note: wall
# times from before the PR 9 SoA hot-state layout (CHANGELOG
# "Hot-loop overhaul") are not comparable to later snapshots — the
# engine's advance/full-pass cost model changed.
set -euo pipefail
cd "$(dirname "$0")"
BIN=./target/release
THREADS="${GURITA_THREADS:-1}"
mkdir -p results
: > results/phase_times.txt
failed=0

# phase <name> <threads> <command...>: run a phase, tee its console
# output, and append its wall time (seconds), thread count, and
# ok/FAILED status to the summary. `tee` must not mask the binary's
# exit code (pipefail), and one failing phase must not silently abort
# the sweep (the failure is recorded and re-raised at the end). The
# thread column records what the phase was *given* ("-" for phases
# without a --threads flag).
phase() {
    local name=$1 threads=$2
    shift 2
    local start end status
    start=$(date +%s)
    if "$@" | tee "results/${name}_console.txt"; then
        status=ok
    else
        status=FAILED
        failed=1
    fi
    end=$(date +%s)
    printf '%-12s %4ds  threads=%-4s %s\n' "$name" "$((end - start))" "$threads" "$status" \
        | tee -a results/phase_times.txt
}

total_start=$(date +%s)
phase motivation -          "$BIN/motivation"
phase fig5       "$THREADS" "$BIN/fig5" --jobs 120 --threads "$THREADS"
phase fig6       "$THREADS" "$BIN/fig6" --jobs 120 --threads "$THREADS"
phase fig7       "$THREADS" "$BIN/fig7" --jobs 30 --threads "$THREADS"
phase fig8       "$THREADS" "$BIN/fig8" --jobs 120 --threads "$THREADS"
phase ablation   "$THREADS" "$BIN/ablation" --jobs 80 --threads "$THREADS"
phase sweep      "$THREADS" "$BIN/sweep" --jobs 40 --threads "$THREADS" --trace-out results/trace
phase chaos      "$THREADS" "$BIN/chaos" --jobs 40 --threads "$THREADS" --control-faults
phase online     "$THREADS" env GURITA_THREADS="$THREADS" \
    GURITA_ONLINE_OUT=results/online_arrivals.json \
    GURITA_ONLINE_METRICS_OUT=results/daemon_metrics.json "$BIN/online_arrivals"
total_end=$(date +%s)
printf '%-12s %4ds\n' total "$((total_end - total_start))" | tee -a results/phase_times.txt

if [ "$failed" -ne 0 ]; then
    echo "some experiments FAILED (see results/phase_times.txt)" >&2
    exit 1
fi
echo "all experiments complete"
