#!/usr/bin/env python
"""Fetch through a scripted partition and watch the client ride it out.

Builds the two-machine netbench world — a Cider client and a vanilla
Android origin on one segment — then scripts the link with a
:class:`~repro.net.conditions.LinkSchedule`: a long full blackout
starting just after the first fetches.  An iOS app fires a burst of
``NSURLSession`` fetches through the shared resilience engine and the
whole failure ladder plays out deterministically:

* short outages are absorbed *below* the API — SYN retransmission and
  kernel socket deadlines (SO_RCVTIMEO/SO_SNDTIMEO) bound every wait;
* a blackout that outlasts the retransmit budget surfaces as a typed
  ``ETIMEDOUT``, the engine retries with seeded exponential backoff,
  and the per-host circuit breaker opens after consecutive failures;
* while the breaker is open, requests fail fast (``ECONNREFUSED`` in
  microseconds, no network traffic at all);
* after the cooldown a half-open probe finds the healed link and the
  breaker closes — recovery without a single hung request.

Everything printed (per-request outcomes, the breaker transition
timeline, stack drop counters) is reproducible bit-for-bit; the
``determinism`` CI job runs the full matrix version of this
(``repro.workloads.partsweep``) twice under different
``PYTHONHASHSEED`` values and diffs the transcripts.

Run:  PYTHONPATH=src python examples/partition_chaos.py
"""

from repro.binfmt import macho_executable
from repro.cider.system import run_world
from repro.kernel.errno import errno_name
from repro.net.conditions import LinkSchedule, LinkWindow
from repro.net.http import ORIGIN_HOST
from repro.workloads.partsweep import (
    REQUEST_TIMEOUT_NS,
    _build_world,
)

FETCHES = 6
MS = 1_000_000.0
#: The workload goes quiet after the blackout burst — long enough for
#: the link to heal and the breaker cooldown to elapse, so the next
#: fetch is the half-open probe.
QUIET_NS = 200 * MS


def fetch_burst(ctx, argv):
    from repro.ios.cfnetwork import NSURLSession
    from repro.net.resilience import ResilienceEngine, ResiliencePolicy

    out = argv[1]["out"]
    engine = ResilienceEngine.shared(
        ctx,
        ResiliencePolicy(
            max_attempts=2,
            breaker_threshold=2,
            breaker_cooldown_ns=30 * MS,
            request_timeout_ns=REQUEST_TIMEOUT_NS,
        ),
    )
    session = NSURLSession.shared(ctx)
    libc = ctx.libc
    clock = ctx.machine.clock
    out["first_fetch_ns"] = int(clock.now_ns)
    rows = out["rows"] = []
    sleep = getattr(libc, "nanosleep", None) or libc.sleep_ns
    for index in range(FETCHES):
        if index == FETCHES - 2:
            sleep(QUIET_NS)  # ride out the blackout + breaker cooldown
        start = clock.now_ns
        task = session.data_task_with_url(
            f"http://{ORIGIN_HOST}/hello"
        ).resume()
        elapsed = int(clock.now_ns - start)
        status = task.response.status_code if task.response else -1
        err = 0
        if task.error is not None and "errno=" in task.error:
            err = int(task.error.rsplit("=", 1)[1])
        rows.append((index, status, err, elapsed))
    out["summary"] = engine.summary()
    out["transitions"] = engine.transition_log()
    return 0


def main() -> int:
    client, origin = _build_world()
    vfs = client.kernel.vfs
    vfs.makedirs("/data/chaos")
    vfs.install_binary(
        "/data/chaos/burst", macho_executable("burst", fetch_burst)
    )

    # Script the link relative to "now": the workload's first fetch
    # starts a few virtual ms from here (process exec + dyld), so the
    # blackout at +25 ms lands squarely in the middle of the burst and
    # outlasts the kernel's whole SYN retransmit budget.
    base = client.machine.clock.now_ns
    schedule = LinkSchedule(
        [LinkWindow.partition(base + 25 * MS, base + 275 * MS)]
    )
    client.machine.net.install_schedule(schedule)
    print("link schedule:")
    for line in schedule.describe():
        print(f"  {line}")

    out = {}
    process = client.kernel.start_process(
        "/data/chaos/burst", ["/data/chaos/burst", {"out": out}]
    )
    run_world([client, origin], process.main_thread().sim_thread)

    print(f"\nfetch burst ({FETCHES} requests, 20 ms socket deadlines):")
    failures = 0
    for index, status, err, elapsed in out["rows"]:
        if status == 200:
            verdict = "200 OK"
        else:
            failures += 1
            verdict = f"failed ({errno_name(err)})"
        print(f"  #{index}: {verdict:24s} in {elapsed:>12,d} virtual ns")

    print("\nbreaker timeline:")
    transitions = out["transitions"]
    if transitions:
        for line in transitions:
            print(f"  {line}")
    else:
        print("  (breaker never opened)")

    summary = out["summary"]
    stack = client.machine.net.summary()
    print(
        f"\nresilience: retries={summary['retries_spent']} "
        f"hedges={summary['hedges']} fastfails={summary['fastfails']}"
    )
    print(
        f"link: partition_drops={stack['partition_drops']} "
        f"csum_drops={stack['csum_drops']} drops={stack['drops']}"
    )
    ok = FETCHES - failures
    print(f"\n{ok}/{FETCHES} requests succeeded; every request resolved "
          "inside its deadline — no hangs.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
