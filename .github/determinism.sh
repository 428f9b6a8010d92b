#!/usr/bin/env bash
# Determinism gate: the same command run under PYTHONHASHSEED 0 and 1
# must print byte-identical output, and a sweep must also print the same
# transcript at --jobs 1 as at --jobs 4 (the merge gate: worker count
# may change wall-clock, never a transcript byte).
#
# usage: bash .github/determinism.sh net|crash|partsweep|schedsweep
#
# Run from the repository root.  Transcripts (NAME-a.txt) and sweep
# timings (HARNESS-timings-*.json) are left in the working directory.
set -euo pipefail
export PYTHONPATH=src

# same NAME CMD...: run CMD under both hash seeds and diff the outputs.
same() {
  local name=$1
  shift
  PYTHONHASHSEED=0 "$@" | tee "$name-a.txt"
  PYTHONHASHSEED=1 "$@" > "$name-b.txt"
  diff "$name-a.txt" "$name-b.txt"
}

# sweep HARNESS [ARG]: the hash-seed gate at --jobs 4, then the merge gate.
sweep() {
  local harness=$1
  shift
  same "$harness" python -m "repro.workloads.$harness" "$@" --jobs 4 \
    --timings "$harness-timings-jobs4.json"
  PYTHONHASHSEED=0 python -m "repro.workloads.$harness" "$@" --jobs 1 \
    --timings "$harness-timings-serial.json" > "$harness-serial.txt"
  diff "$harness-serial.txt" "$harness-a.txt"
  cat "$harness-timings-serial.json" "$harness-timings-jobs4.json"
}

case "${1:-}" in
  net)
    same netstack python examples/netstack.py
    # Each run also asserts its two fork-server replicas agree.
    same netbench python -m repro.workloads.netbench --jobs 2
    ;;
  crash)
    same crash python examples/crash_recovery.py
    sweep crashsweep all
    ;;
  partsweep) sweep partsweep all ;;
  schedsweep) sweep schedsweep ;;
  *)
    echo "usage: $0 net|crash|partsweep|schedsweep" >&2
    exit 2
    ;;
esac
