"""The Android framework: SystemServer, input routing, app lifecycle.

"SystemServer starts Launcher, the home screen app on Android, and
SurfaceFlinger, the rendering engine ...  When a user interacts with an
Android app, input events are delivered from the Linux kernel device
driver through the Android framework to the app.  The app displays
content by obtaining window memory (a graphics surface) from
SurfaceFlinger and draws directly into the window memory." (paper §2)

Each app runs in its own process; input events travel from the kernel's
evdev node through the InputManager thread to the focused app's input
socket, using the same framing the CiderPress→eventpump bridge uses.
"""

from __future__ import annotations

import pickle
import struct
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..binfmt import elf_executable
from ..hw.touchscreen import TouchEvent
from ..kernel.files import O_RDONLY
from ..kernel.process import Process, UserContext
from ..kernel.syscalls_linux import EVIOC_READ_EVENT
from .skia import Canvas, SKIA_MULTIPLIERS
from .surfaceflinger import Surface

if TYPE_CHECKING:
    from ..cider.system import System


def encode_framed(event: dict) -> bytes:
    payload = pickle.dumps(event)
    return struct.pack(">I", len(payload)) + payload


def read_framed(libc, fd: int) -> Optional[dict]:
    header = b""
    while len(header) < 4:
        chunk = libc.read(fd, 4 - len(header))
        if chunk in (-1, b"", None):
            return None
        header += chunk
    (length,) = struct.unpack(">I", header)
    payload = b""
    while len(payload) < length:
        chunk = libc.read(fd, length - len(payload))
        if chunk in (-1, b"", None):
            return None
        payload += chunk
    return pickle.loads(payload)


class AndroidApp:
    """Base class for Android applications."""

    name = "app"
    icon = "A"
    #: False for apps whose surface is rendered by someone else
    #: (CiderPress proxies its display memory to the iOS app).
    draws_self = True

    def on_create(self, ctx: UserContext, controller: "AppController") -> None:
        """Called once the app's process and surface exist."""

    def on_resume(self, ctx: UserContext) -> None:
        pass

    def on_pause(self, ctx: UserContext) -> None:
        pass

    def on_stop(self, ctx: UserContext) -> None:
        pass

    def handle_touch(self, ctx: UserContext, event: TouchEvent) -> None:
        pass

    def render(self, ctx: UserContext, canvas: Canvas) -> None:
        pass


class AppController:
    """What a running app can do: draw, post, talk to the framework."""

    def __init__(
        self,
        framework: "AndroidFramework",
        record: "AppRecord",
        ctx: UserContext,
    ) -> None:
        self.framework = framework
        self.record = record
        self.ctx = ctx

    @property
    def surface(self) -> Surface:
        return self.record.surface

    def redraw(self) -> None:
        canvas = Canvas(self.record.surface.lock_back(), SKIA_MULTIPLIERS)
        canvas.pixels.clear(" ")
        self.record.app.render(self.ctx, canvas)
        self.record.surface.post()

    def start_app(self, name: str, extras: Optional[dict] = None) -> None:
        self.framework.activity_manager.request_start(name, extras)

    def finish(self) -> None:
        self.framework.activity_manager.request_stop(self.record.name)


class AppRecord:
    """Framework-side state of one running app."""

    def __init__(self, name: str, app: AndroidApp) -> None:
        self.name = name
        self.app = app
        self.process: Optional[Process] = None
        self.surface: Optional[Surface] = None
        self.input_fd_framework: Optional[int] = None  # SystemServer side
        self.state = "starting"
        self.thumbnail: Optional[str] = None
        self.controller: Optional[AppController] = None


class InputManager:
    """Reads kernel input events and routes them to the focused app —
    running, like the real InputReader/InputDispatcher, inside the
    system_server process."""

    def __init__(self, framework: "AndroidFramework") -> None:
        self.framework = framework
        self.events_routed = 0

    def run(self, ctx: UserContext) -> None:
        libc = ctx.libc
        # The accelerometer reader runs as a second InputReader thread.
        libc.pthread_create(self._accel_reader, name="accel-reader")
        fd = libc.open("/dev/input/event0", O_RDONLY)
        while True:
            event = libc.ioctl(fd, EVIOC_READ_EVENT)
            if event == -1:
                return
            ctx.machine.charge("input_event_route")
            self.events_routed += 1
            self.framework.route_touch(ctx, event)

    def _accel_reader(self, ctx: UserContext) -> int:
        libc = ctx.libc
        fd = libc.open("/dev/input/event1", O_RDONLY)
        while True:
            sample = libc.ioctl(fd, EVIOC_READ_EVENT)
            if sample == -1:
                return 0
            ctx.machine.charge("input_event_route")
            self.events_routed += 1
            self.framework.route_accel(ctx, sample)


class ActivityManager:
    """App lifecycle and the focus stack."""

    def __init__(self, framework: "AndroidFramework") -> None:
        self.framework = framework
        self.focus_stack: List[str] = []
        self.recents: List[Dict[str, object]] = []
        self._pending: List[tuple] = []

    # Requests are queued and executed by the framework loop so that app
    # code never re-enters the framework deeply.
    def request_start(self, name: str, extras: Optional[dict] = None) -> None:
        self._pending.append(("start", name, extras))

    def request_stop(self, name: str) -> None:
        self._pending.append(("stop", name, None))

    def drain(self) -> None:
        while self._pending:
            action, name, extras = self._pending.pop(0)
            if action == "start":
                self.framework.start_app(name, extras)
            else:
                self.framework.stop_app(name)

    @property
    def focused(self) -> Optional[str]:
        return self.focus_stack[-1] if self.focus_stack else None


class AndroidFramework:
    """The booted framework handle."""

    APP_Z_BASE = 10

    def __init__(self, system: "System") -> None:
        self.system = system
        self.kernel = system.kernel
        self.machine = system.machine
        self.flinger = system.machine.surfaceflinger
        self.input_manager = InputManager(self)
        self.activity_manager = ActivityManager(self)
        self.installed: Dict[str, Callable[[], AndroidApp]] = {}
        self.running: Dict[str, AppRecord] = {}
        #: pid -> the record of an app process that has not run yet.
        self._starting: Dict[int, AppRecord] = {}
        #: Native services started via :meth:`start_service`
        #: (name -> supervisor Process), Android-init style.
        self.services: Dict[str, Process] = {}
        self.system_server: Optional[Process] = None
        self._next_z = self.APP_Z_BASE

    def shutdown(self) -> None:
        """The system is going down and every thread is dead: let go of
        the system, its kernel, the managers and every app and service,
        so the framework is freed by reference count.  The binaries it
        installed close over it, and its managers and app controllers
        point back at it."""
        self.system = self.kernel = self.system_server = None
        self.input_manager = self.activity_manager = None
        self.running.clear()
        self._starting.clear()
        self.services.clear()

    # -- boot -----------------------------------------------------------------

    def boot(self) -> "AndroidFramework":
        """Start SystemServer (which hosts InputManager) and Launcher."""
        image = elf_executable(
            "system_server", self._system_server_main, text_kb=2048
        )
        self.kernel.vfs.makedirs("/system/framework")
        self.kernel.vfs.install_binary("/system/framework/system_server", image)
        self.system_server = self.kernel.start_process(
            "/system/framework/system_server", name="system_server", daemon=True
        )
        # system_server is never a lowmemorykiller victim.
        from ..kernel.pressure import OOM_ADJ_SYSTEM

        self.system_server.oom_adj = OOM_ADJ_SYSTEM
        self.install_app("launcher", lambda: Launcher())
        self.start_app("launcher")
        return self

    def _system_server_main(self, ctx: UserContext, argv: List[str]) -> int:
        ctx.machine.emit("framework", "system_server_started")
        self.input_manager.run(ctx)  # blocks reading input forever
        return 0

    # -- native services ----------------------------------------------------------

    def start_service(self, name: str, path: str, image) -> Process:
        """Start a native daemon under supervision (Android-init style).

        Installs ``image`` at ``path`` and spawns a supervisor daemon
        that fork+execs the service, reaps it with ``waitpid``, and
        respawns it with exponential backoff until a throttle limit —
        the domestic mirror of launchd's keep-alive jobs.  The in-sim
        HTTP origin (:mod:`repro.net.http`) rides this path.
        """
        from ..net.http import start_supervised_elf

        supervisor = start_supervised_elf(self.system, path, image, name)
        self.services[name] = supervisor
        self.machine.emit("framework", "service_registered", service=name)
        return supervisor

    # -- app management -----------------------------------------------------------

    def install_app(
        self, name: str, factory: Callable[[], AndroidApp]
    ) -> None:
        self.installed[name] = factory

    def start_app(self, name: str, extras: Optional[dict] = None) -> AppRecord:
        record = self.running.get(name)
        if record is not None and record.state in ("resumed", "paused"):
            self._focus(record)
            return record
        factory = self.installed.get(name)
        if factory is None:
            raise KeyError(f"app {name!r} is not installed")
        app = factory()
        if extras:
            app.extras = dict(extras)  # type: ignore[attr-defined]
        record = AppRecord(name, app)
        self.running[name] = record
        self._spawn_app_process(record)
        self._focus(record)
        return record

    def _spawn_app_process(self, record: AppRecord) -> None:
        # The process finds its record through ``_starting``: a binary
        # that closed over the record would make a reference cycle with
        # the process, which holds its binary.
        image = elf_executable(
            f"app:{record.name}",
            self._app_entry,
            deps=["libc.so", "libGLESv2.so", "libEGL.so", "libskia.so"],
            text_kb=160,
        )
        path = f"/data/app/{record.name}.app"
        self.kernel.vfs.makedirs("/data/app")
        self.kernel.vfs.install_binary(path, image)
        record.process = self.kernel.start_process(
            path, name=record.name, daemon=True
        )
        self._starting[record.process.pid] = record

    def _app_entry(self, ctx: UserContext, argv: List[str]) -> int:
        record = self._starting.pop(ctx.process.pid)
        try:
            return self._app_main(ctx, record)
        finally:
            # The app is over, returned or killed: its record and the
            # controller the app may keep point at each other.
            if record.controller is not None:
                record.controller.record = None

    def _app_main(self, ctx: UserContext, record: AppRecord) -> int:
        libc = ctx.libc
        display = self.machine.display
        self._next_z += 1
        record.surface = self.flinger.create_surface(
            record.name, display.width_px, display.height_px, self._next_z
        )
        app_fd, framework_fd = libc.socketpair()
        record.input_fd_framework = framework_fd
        record.controller = AppController(self, record, ctx)
        record.state = "resumed"
        record.app.on_create(ctx, record.controller)
        if record.app.draws_self:
            record.controller.redraw()
        while True:
            message = read_framed(libc, app_fd)
            if message is None:
                break
            kind = message.get("type")
            if kind == "touch":
                record.app.handle_touch(
                    ctx,
                    TouchEvent(
                        message.get("kind", "down"),
                        message.get("x", 0.0),
                        message.get("y", 0.0),
                        message.get("pointer_id", 0),
                    ),
                )
                if record.app.draws_self:
                    record.controller.redraw()
            elif kind == "accel":
                handler = getattr(record.app, "handle_accel", None)
                if handler is not None:
                    handler(ctx, message)
            elif kind == "lifecycle":
                action = message.get("action")
                if action == "pause":
                    record.state = "paused"
                    record.app.on_pause(ctx)
                elif action == "resume":
                    record.state = "resumed"
                    if record.surface is not None:
                        record.surface.visible = True
                        record.surface.flinger.composite()
                    record.app.on_resume(ctx)
                    if record.app.draws_self:
                        record.controller.redraw()
                elif action == "stop":
                    break
            self.activity_manager.drain()
        record.app.on_stop(ctx)
        record.state = "stopped"
        if record.surface is not None:
            record.thumbnail = record.surface.screenshot()
            self.flinger.destroy_surface(record.surface)
        self.running.pop(record.name, None)
        return 0

    # -- focus & input ---------------------------------------------------------------

    def _focus(self, record: AppRecord) -> None:
        from ..kernel.pressure import OOM_ADJ_BACKGROUND, OOM_ADJ_FOREGROUND

        stack = self.activity_manager.focus_stack
        previous = self.activity_manager.focused
        if previous and previous != record.name:
            self._send(previous, {"type": "lifecycle", "action": "pause"})
            prev_record = self.running.get(previous)
            # ActivityManager keeps oom_adj in step with focus, exactly
            # what the lowmemorykiller reads when picking victims.
            if (
                prev_record is not None
                and prev_record.process is not None
                and prev_record.process.alive
            ):
                prev_record.process.oom_adj = OOM_ADJ_BACKGROUND
            if prev_record is not None and prev_record.surface is not None:
                self.activity_manager.recents.insert(
                    0,
                    {
                        "name": previous,
                        "thumbnail": prev_record.surface.screenshot(),
                    },
                )
                # Occluded apps are removed from composition.
                prev_record.surface.visible = False
        if record.process is not None and record.process.alive:
            record.process.oom_adj = OOM_ADJ_FOREGROUND
        if record.surface is not None and not record.surface.visible:
            record.surface.visible = True
            self.flinger.composite()
        if record.name in stack:
            stack.remove(record.name)
        stack.append(record.name)

    def route_touch(self, ctx: UserContext, event: TouchEvent) -> None:
        focused = self.activity_manager.focused
        if focused is None:
            return
        self._send(
            focused,
            {
                "type": "touch",
                "kind": event.kind,
                "x": event.x,
                "y": event.y,
                "pointer_id": event.pointer_id,
            },
        )

    def route_accel(self, ctx: UserContext, sample) -> None:
        focused = self.activity_manager.focused
        if focused is None:
            return
        self._send(
            focused,
            {
                "type": "accel",
                "ax": sample.ax,
                "ay": sample.ay,
                "az": sample.az,
            },
        )

    def _send(self, app_name: str, message: dict) -> None:
        record = self.running.get(app_name)
        if record is None or record.input_fd_framework is None:
            return
        if record.process is None or not record.process.alive:
            return
        open_file = record.process.fd_table.get(record.input_fd_framework)
        open_file.write(encode_framed(message))

    def stop_app(self, name: str) -> None:
        self._send(name, {"type": "lifecycle", "action": "stop"})
        stack = self.activity_manager.focus_stack
        if name in stack:
            stack.remove(name)

    def home(self) -> None:
        launcher = self.running.get("launcher")
        if launcher is not None:
            self._focus(launcher)
            self._send(
                "launcher", {"type": "lifecycle", "action": "resume"}
            )

    # -- conveniences for tests/examples ------------------------------------------------

    def settle(self) -> None:
        """Run the simulation until all queued work drains."""
        self.machine.run()

    def tap(self, x: float, y: float) -> None:
        self.machine.touchscreen.tap(x, y)
        self.settle()

    def screenshot(self) -> str:
        return self.machine.display.screenshot()


class Shortcut:
    """A home-screen shortcut."""

    def __init__(self, label: str, icon: str, target: str, extras=None):
        self.label = label
        self.icon = icon
        self.target = target
        self.extras = extras or {}


class Launcher(AndroidApp):
    """The Android home screen: a grid of app shortcuts."""

    name = "launcher"
    icon = "H"
    COLS = 4
    CELL_W = 300
    CELL_H = 180

    def __init__(self) -> None:
        self.shortcuts: List[Shortcut] = []
        self._controller: Optional[AppController] = None

    def add_shortcut(self, shortcut: Shortcut) -> None:
        self.shortcuts.append(shortcut)
        if self._controller is not None:
            self._controller.redraw()

    def on_create(self, ctx: UserContext, controller: AppController) -> None:
        self._controller = controller

    def _cell_at(self, x: float, y: float) -> Optional[Shortcut]:
        col = int(x // self.CELL_W)
        row = int((y - 60) // self.CELL_H)
        index = row * self.COLS + col
        if 0 <= col < self.COLS and 0 <= index < len(self.shortcuts):
            return self.shortcuts[index]
        return None

    def handle_touch(self, ctx: UserContext, event: TouchEvent) -> None:
        if event.kind != "up":
            return
        shortcut = self._cell_at(event.x, event.y)
        if shortcut is not None and self._controller is not None:
            self._controller.start_app(shortcut.target, shortcut.extras)

    def render(self, ctx: UserContext, canvas: Canvas) -> None:
        canvas.draw_text(ctx, 20, 10, "Android")
        for index, shortcut in enumerate(self.shortcuts):
            col = index % self.COLS
            row = index // self.COLS
            x = col * self.CELL_W + 40
            y = 60 + row * self.CELL_H + 20
            canvas.fill_rect(ctx, x, y, 120, 80, shortcut.icon)
            canvas.draw_text(ctx, x, y + 90, shortcut.label[:12])


def boot_android_framework(system: "System") -> AndroidFramework:
    framework = AndroidFramework(system)
    framework.boot()
    # Let SystemServer and the Launcher reach their steady state.
    system.machine.run()
    return framework
