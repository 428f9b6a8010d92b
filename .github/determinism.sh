#!/usr/bin/env bash
# Determinism gate: the same command run under PYTHONHASHSEED 0 and 1
# must leave byte-identical output, and a sweep must also print the same
# transcript at --jobs 1 as at --jobs 4 (the merge gate: worker count
# may change wall-clock, never a transcript byte).
#
# usage: bash .github/determinism.sh ROW
#   net        the netstack demo and netbench (two fork-server replicas)
#   crash      the power-loss demo and every crashsweep site
#   partsweep  the full partition sweep
#   schedsweep the full schedule sweep
#   fault      the seeded chaos demo; a different chaos seed must differ,
#              and seed 2014 must inject at syscall.enter and have a
#              client exit 0
#   pressure   the memory-pressure demo: stdout, kill log, summary JSON;
#              and the warm-start demo, the only example whose forks are
#              copy-on-write (cow_fork=True)
#   golden     Figure-5 virtual time against the committed golden file,
#              and the Figure-4 home-screen demo's screenshots
#   trace      the two-machine netbench trace and its drift report,
#              diffed against benchmarks/netbench_world_diff.txt
#   telemetry  the profiled two-persona demo: stdout, summary, Chrome trace
#
# Run from the repository root.  Each seed runs in its own directory,
# NAME-a (seed 0) and NAME-b (seed 1), so both runs get identical file
# arguments; everything a run leaves there, its stdout.txt included, must
# agree.  Sweep timings (HARNESS-timings-*.json) land in the working
# directory.
set -euo pipefail
root=$PWD
export PYTHONPATH=$root/src

# same NAME CMD...: run CMD under both hash seeds, each in its own
# directory, and diff the directories.
same() {
  local name=$1
  shift
  rm -rf "$name-a" "$name-b"
  mkdir "$name-a" "$name-b"
  (cd "$name-a" && PYTHONHASHSEED=0 "$@" | tee stdout.txt)
  (cd "$name-b" && PYTHONHASHSEED=1 "$@" > stdout.txt)
  diff -r "$name-a" "$name-b"
}

# sweep HARNESS [ARG]: the hash-seed gate at --jobs 4, then the merge gate.
sweep() {
  local harness=$1
  shift
  same "$harness" python -m "repro.workloads.$harness" "$@" --jobs 4 \
    --timings "$root/$harness-timings-jobs4.json"
  PYTHONHASHSEED=0 python -m "repro.workloads.$harness" "$@" --jobs 1 \
    --timings "$harness-timings-serial.json" > "$harness-serial.txt"
  diff "$harness-serial.txt" "$harness-a/stdout.txt"
  cat "$harness-timings-serial.json" "$harness-timings-jobs4.json"
}

case "${1:-}" in
  net)
    same netstack python "$root/examples/netstack.py"
    # Each run also asserts its two fork-server replicas agree.
    same netbench python -m repro.workloads.netbench --jobs 2
    ;;
  crash)
    same crash python "$root/examples/crash_recovery.py"
    sweep crashsweep all
    ;;
  partsweep) sweep partsweep all ;;
  schedsweep) sweep schedsweep ;;
  fault)
    same fault python "$root/examples/fault_injection.py" 2014
    # Chaos must stay recoverable: clients get past dyld into main.
    if ! grep -q ' syscall\.enter ' fault-a/stdout.txt ||
      ! grep -qE 'exit=0( |$)' fault-a/stdout.txt; then
      echo "seed 2014: no syscall.enter injection or no client exited 0" >&2
      exit 1
    fi
    PYTHONHASHSEED=0 python examples/fault_injection.py 4102 > fault-4102.txt
    if diff -q fault-a/stdout.txt fault-4102.txt; then
      echo "different seeds produced identical runs" >&2
      exit 1
    fi
    ;;
  pressure)
    same pressure python "$root/examples/memory_pressure.py" 2014 \
      summary.json kills.txt
    same warm python "$root/examples/warm_start.py"
    ;;
  golden)
    same golden python -m repro.workloads.golden --verify
    same figure4 python "$root/examples/home_screen.py"
    ;;
  trace)
    same world python -m repro.workloads.netbench --world \
      --trace-out world.json
    python -m repro.obs.report diff world-a/world.json world-b/world.json \
      --fail-on-drift | tee trace-diff.txt
    diff trace-diff.txt benchmarks/netbench_world_diff.txt
    ;;
  telemetry) same profile python "$root/examples/profile_run.py" ;;
  *)
    echo "usage: $0 net|crash|partsweep|schedsweep|fault|pressure|golden|trace|telemetry" >&2
    exit 2
    ;;
esac
