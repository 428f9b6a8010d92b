"""netbench: network microbenchmarks, Android vs Cider-iOS on one device.

Two phases, each "compiled" into both binary formats (the lmbench
pattern) and run against the same launchd-supervised in-sim origin on
the same machine:

* **fetch** — repeated small GETs (``/hello``) through each persona's
  native fetch API (``HttpURLConnection`` on Android, ``NSURLSession``
  on iOS), reporting mean per-fetch latency in virtual ns.
* **stream** — one large GET (``/bytes/N``) reporting goodput in
  virtual MB/s, plus a *storm*: C worker pthreads each fetching
  concurrently (exercises listener backlog + select/kqueue readiness
  under the deterministic scheduler).

Because both personas' clients dispatch into the *same* kernel socket
implementation, the iOS column differs from the Android column only by
the documented persona/dispatch overhead — the network-path half of the
paper's pass-through claim.  The summary ends with the machine's packet
log digest: two same-seed runs must print identical documents
(``tests/test_net.py`` and the ``determinism`` CI job assert it).

Run::

    PYTHONPATH=src python -m repro.workloads.netbench [--jobs N]

``--jobs N`` runs N independent replicas of the whole benchmark across
fork-server workers (``repro.sim.parallel``) and asserts every replica
renders the byte-identical document — the parallel determinism
self-check the ``determinism`` CI job exercises.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..binfmt import elf_executable, macho_executable
from ..kernel.process import UserContext
from ..net.http import ORIGIN_HOST
from . import argv_params

DEFAULT_FETCHES = 8
DEFAULT_STREAM_KB = 256
DEFAULT_STORM_WORKERS = 4

ELF_PATH = "/data/netbench/netbench"
MACHO_PATH = "/data/netbench-ios/netbench"

#: Two-machine ("world") mode: the Cider client fetches from a second,
#: vanilla-Android machine over the virtual segment.
WORLD_MACHO_PATH = "/data/netbench-world/netbench"
ORIGIN_NET_IP = "10.0.2.16"
DEFAULT_WORLD_FETCHES = 2


def _percentile(samples: List[float], q: float) -> float:
    """Deterministic nearest-rank percentile (no interpolation)."""
    import math

    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


# -- benchmark bodies ----------------------------------------------------------


def bench_android(ctx: UserContext, argv: List[str]) -> int:
    """The domestic client: java.net-style HttpURLConnection."""
    from ..android.urlconnection import url_open

    params = argv_params(argv)
    out = params.get("out", {})
    fetches = params.get("fetches", DEFAULT_FETCHES)
    stream_kb = params.get("stream_kb", DEFAULT_STREAM_KB)
    workers = params.get("storm_workers", DEFAULT_STORM_WORKERS)
    base = f"http://{ORIGIN_HOST}"

    watch = ctx.machine.stopwatch()
    samples: List[float] = []
    for _ in range(fetches):
        watch.restart()
        conn = url_open(ctx, base + "/hello")
        assert conn.get_response_code() == 200
        conn.disconnect()
        samples.append(watch.elapsed_ns())
    out["fetch_ns"] = sum(samples) / fetches
    out["fetch_p50_ns"] = _percentile(samples, 0.50)
    out["fetch_p95_ns"] = _percentile(samples, 0.95)

    watch.restart()
    conn = url_open(ctx, f"{base}/bytes/{stream_kb * 1024}")
    body = conn.read_body()
    assert conn.get_response_code() == 200 and len(body) == stream_kb * 1024
    elapsed = watch.elapsed_ns()
    out["stream_mb_s"] = (stream_kb / 1024.0) / (elapsed / 1e9)

    done = {"count": 0}

    def worker(wctx: UserContext) -> int:
        wconn = url_open(wctx, base + "/hello")
        assert wconn.get_response_code() == 200
        done["count"] += 1
        return 0

    watch.restart()
    for _ in range(workers):
        ctx.libc.pthread_create(worker, name="storm")
    while done["count"] < workers:
        ctx.libc.sched_yield()
    out["storm_ns"] = watch.elapsed_ns()
    return 0


def bench_ios(ctx: UserContext, argv: List[str]) -> int:
    """The foreign client: NSURLSession data tasks — byte-for-byte the
    same request/response exchange, reached through XNU trap numbers."""
    from ..ios.cfnetwork import NSURLSession

    params = argv_params(argv)
    out = params.get("out", {})
    fetches = params.get("fetches", DEFAULT_FETCHES)
    stream_kb = params.get("stream_kb", DEFAULT_STREAM_KB)
    workers = params.get("storm_workers", DEFAULT_STORM_WORKERS)
    base = f"http://{ORIGIN_HOST}"
    session = NSURLSession.shared(ctx)

    watch = ctx.machine.stopwatch()
    samples: List[float] = []
    for _ in range(fetches):
        watch.restart()
        task = session.data_task_with_url(base + "/hello").resume()
        assert task.response is not None and task.response.status_code == 200
        samples.append(watch.elapsed_ns())
    out["fetch_ns"] = sum(samples) / fetches
    out["fetch_p50_ns"] = _percentile(samples, 0.50)
    out["fetch_p95_ns"] = _percentile(samples, 0.95)

    watch.restart()
    task = session.data_task_with_url(
        f"{base}/bytes/{stream_kb * 1024}"
    ).resume()
    assert task.response is not None and task.response.status_code == 200
    assert len(task.data) == stream_kb * 1024
    elapsed = watch.elapsed_ns()
    out["stream_mb_s"] = (stream_kb / 1024.0) / (elapsed / 1e9)

    done = {"count": 0}

    def worker(wctx: UserContext) -> int:
        wtask = NSURLSession.shared(wctx).data_task_with_url(
            base + "/hello"
        ).resume()
        assert wtask.response is not None
        assert wtask.response.status_code == 200
        done["count"] += 1
        return 0

    watch.restart()
    for _ in range(workers):
        ctx.libc.pthread_create(worker, name="storm")
    while done["count"] < workers:
        ctx.libc.sched_yield()
    out["storm_ns"] = watch.elapsed_ns()
    return 0


def bench_world_ios(ctx: UserContext, argv: List[str]) -> int:
    """Two-machine traced client: each request is one causal trace.

    The plain requests are single-threaded on the client, so the charged
    picoseconds of the client's clock across one request equal the root
    span's ``total_ps`` exactly (the origin's work charges the *origin's*
    clock; blocking charges nothing) — the equality the causal-trace
    acceptance test asserts.  The final request first resolves notifyd
    through launchd (a Mach IPC RPC), so its trace spans client persona →
    Mach IPC → kernel sockets → virtual NIC → origin service and back.
    """
    from ..ios.services import NOTIFYD_SERVICE
    from ..net.http import HELLO_BODY, HTTPD_PORT, http_get

    params = argv_params(argv)
    out = params.get("out", {})
    fetches = params.get("fetches", DEFAULT_WORLD_FETCHES)
    machine = ctx.machine
    obs = machine.obs
    causal = obs.causal if obs is not None else None

    charged: List[int] = []
    for index in range(fetches):
        if causal is not None:
            causal.begin_trace(f"GET /hello #{index}")
        before = machine.clock.charged_ps
        with machine.span("netbench.request", "/hello", index=index):
            status, body = http_get(ctx, ORIGIN_HOST, "/hello", HTTPD_PORT)
        charged.append(machine.clock.charged_ps - before)
        if causal is not None:
            causal.end_trace()
        assert status == 200 and body == HELLO_BODY
    out["request_charged_ps"] = charged

    # Last request rides a Mach IPC hop before touching the network.
    if causal is not None:
        causal.begin_trace("GET /hello via-mach")
    with machine.span("netbench.request", "/hello-mach"):
        port = ctx.libc.bootstrap_look_up(NOTIFYD_SERVICE)
        assert port != 0, "bootstrap_look_up(notifyd) failed"
        status, body = http_get(ctx, ORIGIN_HOST, "/hello", HTTPD_PORT)
    if causal is not None:
        causal.end_trace()
    assert status == 200 and body == HELLO_BODY
    out["mach_lookup_ok"] = True
    return 0


# -- harness -------------------------------------------------------------------


def install_netbench(system) -> None:
    vfs = system.kernel.vfs
    vfs.makedirs("/data/netbench")
    vfs.makedirs("/data/netbench-ios")
    vfs.install_binary(
        ELF_PATH, elf_executable("netbench", bench_android, deps=["libc.so"])
    )
    vfs.install_binary(MACHO_PATH, macho_executable("netbench", bench_ios))


def run_netbench(
    fetches: int = DEFAULT_FETCHES,
    stream_kb: int = DEFAULT_STREAM_KB,
    storm_workers: int = DEFAULT_STORM_WORKERS,
    fault_plan=None,
) -> Dict[str, object]:
    """Boot one Cider machine with the supervised origin, run the Android
    build then the iOS build, and return the comparison document."""
    from ..cider.system import build_cider

    system = build_cider(with_httpd=True)
    if fault_plan is not None:
        system.machine.faults = fault_plan
    install_netbench(system)
    results: Dict[str, object] = {}
    for label, path in (("android", ELF_PATH), ("cider-ios", MACHO_PATH)):
        out: Dict[str, float] = {}
        params = {
            "out": out,
            "fetches": fetches,
            "stream_kb": stream_kb,
            "storm_workers": storm_workers,
        }
        code = system.run_program(path, [path, params])
        assert code == 0, f"{label} netbench exited {code}"
        results[label] = out
    net = system.machine.net
    results["packet_log_digest"] = net.log_digest()
    results["net"] = net.summary()
    results["virtual_ns"] = system.machine.clock.now_ns
    system.shutdown()
    return results


# -- two-machine world mode ----------------------------------------------------


def install_netbench_world(system) -> None:
    vfs = system.kernel.vfs
    vfs.makedirs("/data/netbench-world")
    vfs.install_binary(
        WORLD_MACHO_PATH, macho_executable("netbench", bench_world_ios)
    )


def build_world(durable: bool = False):
    """A Cider client plus a vanilla-Android origin on one segment, both
    with observatories, causal tracers and flight recorders installed.
    Returns ``(client, origin)`` — drive them with
    :func:`repro.cider.system.run_world`."""
    from ..cider.system import build_cider, build_vanilla_android
    from ..net.http import start_httpd_android

    client = build_cider(durable=durable)
    origin = build_vanilla_android()
    # Give the origin its own address *before* its netstack first exists.
    origin.machine.net_host_ip = ORIGIN_NET_IP
    for system, node in ((client, "client"), (origin, "origin")):
        system.machine.install_observatory()
        system.machine.install_causal_tracer(node=node)
        system.machine.install_flight_recorder()
    start_httpd_android(origin)
    origin.run_until_idle()  # let the origin reach its accept loop
    client.machine.net.connect_peer(origin.machine.net)
    client.machine.net.register_host(ORIGIN_HOST, ORIGIN_NET_IP)
    install_netbench_world(client)
    return client, origin


def run_netbench_world(
    fetches: int = DEFAULT_WORLD_FETCHES, durable: bool = False
) -> Dict[str, object]:
    """Run the two-machine fetch workload and assemble the causal trace."""
    from ..cider.system import run_world
    from ..obs.diff import assemble_trace

    client, origin = build_world(durable=durable)
    out: Dict[str, object] = {}
    params = {"out": out, "fetches": fetches}
    process = client.kernel.start_process(
        WORLD_MACHO_PATH, [WORLD_MACHO_PATH, params]
    )
    thread = process.main_thread().sim_thread
    result = run_world([client, origin], thread)
    code = result if isinstance(result, int) else 0
    assert code == 0, f"world netbench exited {code}"
    trace = assemble_trace(
        [client.machine, origin.machine], label="netbench-world"
    )
    results: Dict[str, object] = dict(out)
    results["trace"] = trace
    results["client_virtual_ns"] = client.machine.clock.now_ns_int
    results["origin_virtual_ns"] = origin.machine.clock.now_ns_int
    client.shutdown()
    origin.shutdown()
    return results


def world_main(argv: List[str]) -> None:
    from ..obs.diff import (
        critical_path,
        format_critical_path,
        save_trace,
        trace_ids,
    )

    trace_out = None
    if "--trace-out" in argv:
        trace_out = argv[argv.index("--trace-out") + 1]
    results = run_netbench_world()
    trace = results["trace"]
    print("netbench world — cider client, vanilla-android origin")
    for index, ps in enumerate(results["request_charged_ps"]):
        print(f"request {index}: client charged {ps} ps")
    print(f"client virtual ns: {results['client_virtual_ns']}")
    print(f"origin virtual ns: {results['origin_virtual_ns']}")
    print(f"traces: {' '.join(trace_ids(trace))}")
    print(format_critical_path(critical_path(trace)), end="")
    if trace_out is not None:
        save_trace(trace, trace_out)


def format_report(results: Dict[str, object]) -> str:
    """The byte-comparable single-machine netbench document."""
    android = results["android"]
    ios = results["cider-ios"]
    lines = ["netbench — same device, same origin, both personas"]
    lines.append(
        f"{'metric':<16}{'android':>14}{'cider-ios':>14}{'ios/android':>13}"
    )
    for key, unit in (
        ("fetch_ns", "ns"),
        ("fetch_p50_ns", "ns"),
        ("fetch_p95_ns", "ns"),
        ("stream_mb_s", "MB/s"),
        ("storm_ns", "ns"),
    ):
        a, i = android[key], ios[key]
        ratio = i / a if a else float("nan")
        lines.append(
            f"{key:<16}{a:>12.1f} {unit:<2}{i:>11.1f} {unit:<2}{ratio:>10.3f}x"
        )
    lines.append(f"packet log digest: {results['packet_log_digest']}")
    lines.append(json.dumps({"net": results["net"]}, sort_keys=True))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    import hashlib
    import sys

    from ..sim.sweep import parse_args

    args = list(sys.argv[1:] if argv is None else argv)
    if "--world" in args:
        world_main(args)
        return 0
    try:
        # Stray arguments are ignored, as they always were.
        _arg, jobs, _timings = parse_args(args, lambda _text: None)
    except ValueError:
        print(
            "usage: python -m repro.workloads.netbench [--jobs N]",
            file=sys.stderr,
        )
        return 2
    if jobs <= 1:
        print(format_report(run_netbench()), end="")
        return 0
    # Determinism self-check: run ``jobs`` independent replicas of the
    # whole benchmark across fork-server workers.  Every replica must
    # render the byte-identical document.
    from ..sim.parallel import run_cases

    reports = run_cases(jobs, lambda _index: format_report(run_netbench()),
                        jobs=jobs)
    print(reports[0], end="")
    digests = sorted({
        hashlib.sha256(report.encode()).hexdigest() for report in reports
    })
    if len(digests) != 1:
        print(
            f"netbench: determinism FAILED: {len(digests)} distinct "
            f"documents across {jobs} replicas: {' '.join(digests)}",
            file=sys.stderr,
        )
        return 1
    print(f"netbench determinism: {jobs} replicas identical sha256 {digests[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
