"""CiderPress: the proxy Android app that hosts iOS apps.

"CiderPress is a standard Android app that integrates launch and
execution of an iOS app with Android's Launcher and system services.  It
is directly started by Android's Launcher, receives input such as touch
events and accelerometer data from the Android input subsystem, and its
life cycle is managed like any other Android app.  CiderPress launches
the foreign binary, and proxies its own display memory, incoming input
events, and app state changes to the iOS app." (paper §3)

Concretely:

* its window surface is handed to the iOS app (via a machine-level
  surface handle registry standing in for gralloc handle passing), so
  the iOS frame lands in the surface Android manages — screenshots show
  up in recents like any Android app;
* it binds a BSD socket, spawns the Mach-O binary with
  ``--cider-socket``/``--cider-surface`` arguments, and forwards every
  touch/accelerometer/lifecycle event over the socket to the app's
  eventpump thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..android.framework import AndroidApp, AppController, encode_framed
from ..hw.touchscreen import TouchEvent
from ..kernel.process import UserContext

if TYPE_CHECKING:
    from ..android.skia import Canvas


class CiderPress(AndroidApp):
    """One CiderPress instance proxies one installed iOS app."""

    name = "ciderpress"
    icon = "C"
    draws_self = False

    def __init__(
        self,
        ios_binary_path: str,
        ios_app_name: str,
        icon: str = "C",
    ) -> None:
        self.ios_binary_path = ios_binary_path
        self.ios_app_name = ios_app_name
        self.icon = icon
        self.name = f"ciderpress:{ios_app_name}"
        self.socket_path = f"/tmp/cider-{ios_app_name}.sock"
        self._listen_fd: Optional[int] = None
        self._conn_fd: Optional[int] = None
        self._ctx: Optional[UserContext] = None
        self.ios_process = None
        self.events_forwarded = 0

    # -- lifecycle --------------------------------------------------------------

    def on_create(self, ctx: UserContext, controller: AppController) -> None:
        self._ctx = ctx
        libc = ctx.libc
        self._listen_fd = libc.socket()
        libc.bind(self._listen_fd, self.socket_path)

        # Proxy our display memory: publish the surface handle the iOS
        # app's EAGL bridge will attach to.
        surface = controller.surface
        surface.flinger.published[surface.surface_id] = surface

        # Launch the foreign binary (posix_spawn through the kernel, the
        # same path launchd uses).
        argv = [
            self.ios_binary_path,
            "--cider-socket",
            self.socket_path,
            "--cider-surface",
            str(surface.surface_id),
        ]
        self.ios_process = ctx.kernel.start_process(
            self.ios_binary_path,
            argv,
            name=self.ios_app_name,
            daemon=True,
        )
        # The iOS app's eventpump connects to our socket.
        self._conn_fd = libc.accept(self._listen_fd)
        ctx.machine.emit("ciderpress", "launched", app=self.ios_app_name)

    def _forward(self, event: dict) -> None:
        if self._conn_fd is None or self._ctx is None:
            return
        result = self._ctx.libc.write(self._conn_fd, encode_framed(event))
        if result != -1:
            self.events_forwarded += 1

    # -- proxied input ---------------------------------------------------------------

    def handle_touch(self, ctx: UserContext, event: TouchEvent) -> None:
        self._forward(
            {
                "type": "touch",
                "kind": event.kind,
                "x": event.x,
                "y": event.y,
                "pointer_id": event.pointer_id,
            }
        )

    def handle_accel(self, ctx: UserContext, message: dict) -> None:
        """Accelerometer data from the Android input subsystem (§3)."""
        self._forward(
            {
                "type": "accel",
                "ax": message.get("ax", 0.0),
                "ay": message.get("ay", 0.0),
                "az": message.get("az", 0.0),
            }
        )

    # -- proxied app state changes ------------------------------------------------------

    def on_pause(self, ctx: UserContext) -> None:
        self._forward({"type": "lifecycle", "action": "pause"})

    def on_resume(self, ctx: UserContext) -> None:
        self._forward({"type": "lifecycle", "action": "resume"})

    def on_stop(self, ctx: UserContext) -> None:
        self._forward({"type": "lifecycle", "action": "terminate"})
        if self._conn_fd is not None:
            ctx.libc.close(self._conn_fd)
            self._conn_fd = None

    def render(self, ctx: UserContext, canvas: "Canvas") -> None:
        # CiderPress draws nothing itself: the iOS app renders directly
        # into the proxied surface.  (A cold-start splash would go here.)
        pass
