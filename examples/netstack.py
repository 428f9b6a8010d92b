#!/usr/bin/env python
"""The virtual network stack, end to end, from both personas.

Boots one Cider device whose launchd supervises an in-sim HTTP/1.1
origin, then fetches the same resources twice on the same machine:

* an **Android** client (ELF, Bionic, Linux trap numbers) through
  ``HttpURLConnection``,
* a **Cider-iOS** client (Mach-O, libSystem, XNU trap numbers) through
  ``NSURLSession``,

each resolving the origin's name with the deterministic in-sim DNS
resolver first.  Both dispatch into the *same* kernel socket
implementation — the pass-through network path — so the per-persona
latencies differ only by the documented persona/dispatch overhead.

The script ends with the machine's packet-log digest.  Everything here
is charged virtual time on a seeded scheduler: run it twice and the
output — digest included — is byte-identical (the ``determinism``
CI job does exactly that).

Run:  PYTHONPATH=src python examples/netstack.py
"""

from repro.binfmt import elf_executable, macho_executable
from repro.cider.system import build_cider
from repro.net.http import ORIGIN_HOST

FETCHES = 4


def android_main(ctx, argv):
    from repro.android.urlconnection import url_open

    out = argv[1]["out"]
    ip = ctx.libc.getaddrinfo(ORIGIN_HOST)
    out["resolved"] = ip
    watch = ctx.machine.stopwatch()
    for _ in range(FETCHES):
        conn = url_open(ctx, f"http://{ORIGIN_HOST}/hello")
        assert conn.get_response_code() == 200
        out["body"] = conn.read_body()
        conn.disconnect()
    out["fetch_ns"] = watch.elapsed_ns() / FETCHES
    return 0


def ios_main(ctx, argv):
    from repro.ios.cfnetwork import NSURLSession

    out = argv[1]["out"]
    ip = ctx.libc.getaddrinfo(ORIGIN_HOST)
    out["resolved"] = ip
    session = NSURLSession.shared(ctx)
    watch = ctx.machine.stopwatch()
    for _ in range(FETCHES):
        task = session.data_task_with_url(f"http://{ORIGIN_HOST}/hello").resume()
        assert task.response is not None and task.response.status_code == 200
        out["body"] = task.data
    out["fetch_ns"] = watch.elapsed_ns() / FETCHES
    return 0


def main() -> None:
    print("=== repro.net: one device, one origin, two personas ===\n")
    system = build_cider(with_httpd=True)
    vfs = system.kernel.vfs
    vfs.makedirs("/data/app")
    vfs.install_binary(
        "/data/app/netdemo", elf_executable("netdemo", android_main, deps=["libc.so"])
    )
    vfs.install_binary(
        "/data/app/netdemo-ios", macho_executable("netdemo", ios_main)
    )

    for label, path in (
        ("android  (ELF, Bionic, Linux NRs)", "/data/app/netdemo"),
        ("cider-iOS (Mach-O, libSystem, XNU NRs)", "/data/app/netdemo-ios"),
    ):
        out = {}
        code = system.run_program(path, [path, {"out": out}])
        assert code == 0
        body = out["body"].decode().strip()
        print(f"{label}")
        print(f"  {ORIGIN_HOST} -> {out['resolved']}")
        print(f"  GET /hello -> {body!r}")
        print(f"  mean fetch latency: {out['fetch_ns']:.1f} virtual ns\n")

    net = system.machine.net
    summary = net.summary()
    print(f"packets={summary['packets']} "
          f"tx={summary['bytes_sent']}B rx={summary['bytes_received']}B "
          f"drops={summary['drops']}")
    print(f"packet log digest: {net.log_digest()}")
    system.shutdown()


if __name__ == "__main__":
    main()
