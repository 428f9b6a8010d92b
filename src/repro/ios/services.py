"""iOS background user-level services: launchd, configd, notifyd.

"Background user-level services such as launchd, configd, and notifyd
were copied from an iOS device" (paper §3) — Cider runs them unmodified
over its kernel ABI.  launchd boots the Mach IPC service namespace
(the bootstrap port) and spawns the other daemons with posix_spawn;
configd serves configuration keys; notifyd is the asynchronous
notification server.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from ..compat.signals import XNU_SIGCHLD
from ..xnu.ipc import (
    KERN_SUCCESS,
    MACH_MSG_SUCCESS,
    MACH_MSG_TYPE_MAKE_SEND,
    MACH_PORT_NULL,
    MACH_RCV_PORT_DIED,
    MachMessage,
)

if TYPE_CHECKING:
    from ..kernel.process import UserContext

CONFIGD_SERVICE = "com.apple.SystemConfiguration.configd"
NOTIFYD_SERVICE = "com.apple.system.notification_center"
SYSLOGD_SERVICE = "com.apple.system.logger"

#: launchd keep-alive jobs: service binary -> bootstrap name.
KEEP_ALIVE_SERVICES = {
    "/usr/libexec/configd": CONFIGD_SERVICE,
    "/usr/libexec/notifyd": NOTIFYD_SERVICE,
    "/usr/libexec/syslogd": SYSLOGD_SERVICE,
}

#: Supervision policy: exponential backoff starting here, doubling per
#: restart, until the throttle limit marks the service dead.
RESTART_BACKOFF_BASE_NS = 10_000_000.0  # 10 ms
RESTART_THROTTLE_LIMIT = 5


def launchd_main(ctx: "UserContext", argv: List[str]) -> int:
    """PID-1 of the iOS user space: bootstrap server, service spawner,
    and keep-alive supervisor.

    Supervision: a SIGCHLD handler reaps exited services; keep-alive jobs
    are respawned by a helper pthread after an exponential backoff
    (10 ms · 2^(restarts−1)); after :data:`RESTART_THROTTLE_LIMIT`
    restarts the job is throttled — marked dead, never respawned — and a
    ``launchd:service_throttled`` trace event records it.
    """
    libc = ctx.libc
    kr, bootstrap_port = libc.mach_port_allocate()
    if kr != KERN_SUCCESS:
        return 1
    libc.host_set_bootstrap_port(bootstrap_port)
    ctx.machine.emit("launchd", "bootstrap_ready")
    if ctx.machine.boot_generation:
        # Post-reboot boot: the supervisor is restarting every keep-alive
        # job from scratch — the recovery log and the re-supervision
        # tests key off this event.
        ctx.machine.emit(
            "launchd", "resupervise",
            generation=ctx.machine.boot_generation,
        )

    supervise = "--no-keepalive" not in argv
    # Keep-alive job table: the stock iOS daemons plus whatever the
    # system builder registered (e.g. the in-sim HTTP origin).  Copied
    # here so per-boot additions never mutate the module global.
    keep_alive: Dict[str, str] = dict(KEEP_ALIVE_SERVICES)
    keep_alive.update(
        getattr(ctx.machine.kernel, "launchd_extra_services", {}) or {}
    )
    jobs: Dict[int, str] = {}  # live pid -> service binary
    restarts: Dict[str, int] = {}
    throttled: Set[str] = set()
    registry: Dict[str, int] = {}
    # Exposed for inspection (tests, ps-style tooling) via lib_state.
    state = ctx.lib_state("launchd")
    state["jobs"] = jobs
    state["restarts"] = restarts
    state["throttled"] = throttled
    state["registry"] = registry

    def spawn_service(spawn_ctx: "UserContext", path: str) -> None:
        pid = spawn_ctx.libc.posix_spawn(path)
        if isinstance(pid, int) and pid > 0:
            jobs[pid] = path
            spawn_ctx.machine.emit(
                "launchd", "service_start", path=path, pid=pid
            )

    def respawn_later(hctx: "UserContext", path: str, backoff_ns: float) -> None:
        # Through the handler's context, not ``libc``: a handler that held
        # this thread's facade would make a reference cycle through the
        # process's signal actions.
        def respawner(rctx: "UserContext") -> int:
            rctx.libc.sleep_ns(backoff_ns)
            if path not in throttled:
                spawn_service(rctx, path)
            return 0

        hctx.libc.pthread_create(
            respawner, name=f"respawn:{path.rsplit('/', 1)[-1]}"
        )

    def sigchld_handler(hctx: "UserContext", signum: int, info: object) -> None:
        child_pid = getattr(info, "sender_pid", 0)
        path = jobs.pop(child_pid, None)
        if path is None:
            return
        # The child is guaranteed zombie by SIGCHLD time: reap precisely it.
        result = hctx.libc.waitpid(child_pid)
        code = result[1] if isinstance(result, tuple) else -1
        hctx.machine.emit(
            "launchd", "service_exit", path=path, pid=child_pid, code=code
        )
        # The dead service's port right is useless now: drop it from the
        # bootstrap namespace so clients see "not registered" (and retry)
        # instead of a dead name, until the respawn re-registers.
        registry.pop(keep_alive.get(path, ""), None)
        if not supervise or path not in keep_alive:
            return
        count = restarts.get(path, 0) + 1
        restarts[path] = count
        if count > RESTART_THROTTLE_LIMIT:
            throttled.add(path)
            hctx.machine.emit(
                "launchd", "service_throttled", path=path, restarts=count
            )
            return
        backoff_ns = RESTART_BACKOFF_BASE_NS * (2 ** (count - 1))
        hctx.machine.emit(
            "launchd",
            "service_restart",
            path=path,
            restarts=count,
            backoff_ns=backoff_ns,
        )
        # Causal follows-from edge: the respawn is a consequence of the
        # trace that killed the service, but not part of that request.
        obs = hctx.machine.obs
        if obs is not None and obs.causal is not None:
            obs.causal.follow(f"launchd respawn {path}")
        respawn_later(hctx, path, backoff_ns)

    libc.signal(XNU_SIGCHLD, sigchld_handler)

    # Start the standard Mach IPC services (paper §2: "launchd starts
    # Mach IPC services such as configd ... notifyd").
    if "--no-services" not in argv:
        for service_path in keep_alive:
            spawn_service(ctx, service_path)

    while True:
        code, msg = libc.mach_msg_receive(bootstrap_port)
        if code == MACH_RCV_PORT_DIED:
            return 0  # our own bootstrap port died: nothing left to serve
        if code != MACH_MSG_SUCCESS or msg is None:
            continue  # transient failure (injected fault): keep serving
        body = msg.body if isinstance(msg.body, dict) else {}
        op = body.get("op")
        if op == "register" and msg.reply_port_name != MACH_PORT_NULL:
            # The service's port right arrived in the header reply slot.
            # Re-registration (a respawned service) replaces the old —
            # possibly dead — right, which is what heals clients.
            registry[body.get("name", "")] = msg.reply_port_name
            ctx.machine.emit("launchd", "register", service=body.get("name"))
        elif op == "lookup" and msg.reply_port_name != MACH_PORT_NULL:
            service_port = registry.get(body.get("name", ""), MACH_PORT_NULL)
            reply = MachMessage(msg.msg_id + 100, body={"found": bool(service_port)})
            reply.body_right_name = service_port
            libc.mach_msg_send(msg.reply_port_name, reply)


def configd_main(ctx: "UserContext", argv: List[str]) -> int:
    """The system configuration daemon: a key/value Mach service."""
    libc = ctx.libc
    kr, port = libc.mach_port_allocate()
    if kr != KERN_SUCCESS:
        return 1
    if libc.bootstrap_register(CONFIGD_SERVICE, port) != 0:
        return 1
    store: Dict[str, object] = {
        "Model": "Cider",
        "UserAssignedName": "cider-device",
    }
    while True:
        code, msg = libc.mach_msg_receive(port)
        if code == MACH_RCV_PORT_DIED:
            return 0
        if code != MACH_MSG_SUCCESS or msg is None:
            continue  # transient (injected) receive failure
        body = msg.body if isinstance(msg.body, dict) else {}
        op = body.get("op")
        if op == "set":
            store[body.get("key", "")] = body.get("value")
        if msg.reply_port_name != MACH_PORT_NULL:
            value = store.get(body.get("key", "")) if op in ("get", "set") else None
            libc.mach_msg_send(
                msg.reply_port_name,
                MachMessage(msg.msg_id + 100, body={"value": value}),
            )


def notifyd_main(ctx: "UserContext", argv: List[str]) -> int:
    """The asynchronous notification server (notify(3))."""
    libc = ctx.libc
    kr, port = libc.mach_port_allocate()
    if kr != KERN_SUCCESS:
        return 1
    if libc.bootstrap_register(NOTIFYD_SERVICE, port) != 0:
        return 1
    registrations: Dict[str, List[int]] = {}
    while True:
        code, msg = libc.mach_msg_receive(port)
        if code == MACH_RCV_PORT_DIED:
            return 0
        if code != MACH_MSG_SUCCESS or msg is None:
            continue  # transient (injected) receive failure
        body = msg.body if isinstance(msg.body, dict) else {}
        op = body.get("op")
        name = body.get("name", "")
        if op == "register" and msg.reply_port_name != MACH_PORT_NULL:
            registrations.setdefault(name, []).append(msg.reply_port_name)
        elif op == "post":
            for client_port in registrations.get(name, []):
                libc.mach_msg_send(
                    client_port,
                    MachMessage(0x2001, body={"notification": name}),
                )
            if msg.reply_port_name != MACH_PORT_NULL:
                libc.mach_msg_send(
                    msg.reply_port_name,
                    MachMessage(
                        msg.msg_id + 100,
                        body={"delivered": len(registrations.get(name, []))},
                    ),
                )


def syslogd_main(ctx: "UserContext", argv: List[str]) -> int:
    """The system log daemon: collects asl messages into /var/log."""
    libc = ctx.libc
    kr, port = libc.mach_port_allocate()
    if kr != KERN_SUCCESS:
        return 1
    if libc.bootstrap_register(SYSLOGD_SERVICE, port) != 0:
        return 1
    log_fd = libc.creat("/var/log/asl.log")
    lines = 0
    while True:
        code, msg = libc.mach_msg_receive(port)
        if code == MACH_RCV_PORT_DIED:
            return 0
        if code != MACH_MSG_SUCCESS or msg is None:
            continue  # transient (injected) receive failure
        body = msg.body if isinstance(msg.body, dict) else {}
        sender = body.get("sender", "?")
        text = body.get("message", "")
        libc.write(log_fd, f"<{sender}> {text}\n".encode())
        lines += 1
        if msg.reply_port_name != MACH_PORT_NULL:
            libc.mach_msg_send(
                msg.reply_port_name,
                MachMessage(msg.msg_id + 100, body={"logged": lines}),
            )


def syslog_send(ctx: "UserContext", message: str) -> int:
    """asl client: ship one log line to syslogd (what NSLog does)."""
    libc = ctx.libc
    service = libc.bootstrap_look_up(SYSLOGD_SERVICE)
    if service == MACH_PORT_NULL:
        return -1
    code = libc.mach_msg_send(
        service,
        MachMessage(
            0x3005,
            body={"sender": ctx.process.name, "message": message},
        ),
    )
    return 0 if code == MACH_MSG_SUCCESS else -1


# -- client helpers (what libnotify / SCDynamicStore wrappers do) ------------------


def lookup_service_retry(
    ctx: "UserContext",
    service_name: str,
    attempts: int = 5,
    backoff_ns: float = 1_000_000.0,
    timeout_ns: float = 50_000_000.0,
) -> int:
    """Bounded-backoff bootstrap lookup.

    A client whose service just crashed sees either MACH_PORT_NULL (not
    yet re-registered) or a dead name on first use; retrying the lookup
    with exponential backoff rides out launchd's restart window.  Gives
    up — returning MACH_PORT_NULL — after ``attempts`` tries, so a
    throttled-dead service yields a clean failure, not a hang.
    """
    libc = ctx.libc
    delay = backoff_ns
    for attempt in range(attempts):
        port = libc.bootstrap_look_up(service_name, timeout_ns=timeout_ns)
        if port != MACH_PORT_NULL:
            return port
        ctx.machine.emit(
            "bootstrap", "lookup_retry", service=service_name, attempt=attempt + 1
        )
        libc.sleep_ns(delay)
        delay *= 2
    return MACH_PORT_NULL


def configd_get(ctx: "UserContext", key: str) -> object:
    libc = ctx.libc
    port = libc.bootstrap_look_up(CONFIGD_SERVICE)
    if port == MACH_PORT_NULL:
        return None
    code, reply = libc.mach_msg_rpc(
        port, MachMessage(0x3001, body={"op": "get", "key": key})
    )
    if code != MACH_MSG_SUCCESS or reply is None:
        return None
    return reply.body.get("value") if isinstance(reply.body, dict) else None


def configd_set(ctx: "UserContext", key: str, value: object) -> object:
    libc = ctx.libc
    port = libc.bootstrap_look_up(CONFIGD_SERVICE)
    if port == MACH_PORT_NULL:
        return None
    code, reply = libc.mach_msg_rpc(
        port, MachMessage(0x3002, body={"op": "set", "key": key, "value": value})
    )
    return reply.body.get("value") if reply and isinstance(reply.body, dict) else None


def notify_register(ctx: "UserContext", name: str) -> int:
    """Register interest; returns the port to receive notifications on."""
    libc = ctx.libc
    service = libc.bootstrap_look_up(NOTIFYD_SERVICE)
    if service == MACH_PORT_NULL:
        return MACH_PORT_NULL
    kr, my_port = libc.mach_port_allocate()
    msg = MachMessage(
        0x3003,
        body={"op": "register", "name": name},
        reply_disposition=MACH_MSG_TYPE_MAKE_SEND,
    )
    libc.mach_msg_send(service, msg, my_port)
    return my_port


def notify_post(ctx: "UserContext", name: str) -> int:
    libc = ctx.libc
    service = libc.bootstrap_look_up(NOTIFYD_SERVICE)
    if service == MACH_PORT_NULL:
        return -1
    code, reply = libc.mach_msg_rpc(
        service, MachMessage(0x3004, body={"op": "post", "name": name})
    )
    if code != MACH_MSG_SUCCESS or reply is None:
        return -1
    return reply.body.get("delivered", 0) if isinstance(reply.body, dict) else 0
