"""UIKit-lite: the iOS user interface framework.

Enough of UIKit to make the paper's user-facing claims testable: view
hierarchies with hit testing, tap/pan/pinch gesture recognizers, an
on-screen keyboard, and a UIApplication whose run loop receives low-level
events on a **Mach IPC port** — "in iOS, every app monitors a Mach IPC
port for incoming low-level event notifications and passes these events
up the user space stack through gesture recognizers and event handlers"
(paper §5.2).  On Cider those events are pumped into the port by the
eventpump thread bridging from CiderPress.

Rendering follows the real pipeline shape: views build a CALayer tree,
QuartzCore rasterises it into an IOSurface (interposed to gralloc memory
on Cider), and the frame is presented through the OpenGL ES / EAGL
library (the diplomat replacement on Cider, the native stack on an iPad).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .quartzcore import CALayer

if TYPE_CHECKING:
    from ..kernel.process import UserContext

LIB_STATE_KEY = "UIKit"

# Event message ids on the app's event port.
EVENT_MSG_TOUCH = 0x1001
EVENT_MSG_ACCEL = 0x1002
EVENT_MSG_LIFECYCLE = 0x1003


class UITouch:
    """One touch point update."""

    def __init__(self, kind: str, x: float, y: float, pointer_id: int = 0):
        self.kind = kind  # down | move | up
        self.x = x
        self.y = y
        self.pointer_id = pointer_id


class UIView:
    """A rectangle of UI."""

    def __init__(
        self,
        x: float = 0,
        y: float = 0,
        width: float = 0,
        height: float = 0,
        background: str = " ",
    ) -> None:
        self.x = x
        self.y = y
        self.width = width
        self.height = height
        self.background = background
        self.hidden = False
        self.subviews: List["UIView"] = []
        self.superview: Optional["UIView"] = None
        self.gesture_recognizers: List["UIGestureRecognizer"] = []

    def add_subview(self, view: "UIView") -> None:
        view.superview = self
        self.subviews.append(view)

    def add_gesture_recognizer(self, recognizer: "UIGestureRecognizer"):
        recognizer.view = self
        self.gesture_recognizers.append(recognizer)

    def contains(self, x: float, y: float) -> bool:
        return self.x <= x < self.x + self.width and self.y <= y < self.y + self.height

    def hit_test(self, x: float, y: float) -> Optional["UIView"]:
        """Deepest visible descendant containing the point."""
        if self.hidden or not self.contains(x, y):
            return None
        for view in reversed(self.subviews):
            hit = view.hit_test(x - self.x, y - self.y)
            if hit is not None:
                return hit
        return self

    def build_layer(self) -> CALayer:
        layer = CALayer(self.x, self.y, self.width, self.height, self.background)
        layer.hidden = self.hidden
        text = getattr(self, "display_text", None)
        if text:
            layer.text = text
        for view in self.subviews:
            layer.add_sublayer(view.build_layer())
        return layer

    def on_touch(self, touch: UITouch) -> None:
        """Subclass hook for raw touches (after gesture recognizers)."""


class UILabel(UIView):
    def __init__(self, text: str, x=0, y=0, width=200, height=40):
        super().__init__(x, y, width, height)
        self.display_text = text

    @property
    def text(self) -> str:
        return self.display_text

    @text.setter
    def text(self, value: str) -> None:
        self.display_text = value


class UIButton(UIView):
    def __init__(
        self,
        title: str,
        x=0,
        y=0,
        width=120,
        height=48,
        on_tap: Optional[Callable] = None,
        background: str = "▢",
    ):
        super().__init__(x, y, width, height, background)
        self.display_text = title
        self.on_tap = on_tap
        self.tap_count = 0

    def on_touch(self, touch: UITouch) -> None:
        if touch.kind == "up":
            self.tap_count += 1
            if self.on_tap is not None:
                self.on_tap(self)


class UITextField(UIView):
    def __init__(self, x=0, y=0, width=300, height=44):
        super().__init__(x, y, width, height, background="_")
        self.text = ""
        self.focused = False

    @property
    def display_text(self) -> str:
        return self.text + ("|" if self.focused else "")

    def on_touch(self, touch: UITouch) -> None:
        if touch.kind == "up":
            self.focused = True


class UIWindow(UIView):
    pass


# -- gesture recognizers --------------------------------------------------------


class UIGestureRecognizer:
    def __init__(self) -> None:
        self.view: Optional[UIView] = None
        self.fired = 0

    def handle(self, ctx: "UserContext", touch: UITouch) -> None:
        raise NotImplementedError


class UITapGestureRecognizer(UIGestureRecognizer):
    def __init__(self, action: Callable) -> None:
        super().__init__()
        self.action = action
        self._down_at: Optional[tuple] = None

    def handle(self, ctx, touch: UITouch) -> None:
        if touch.kind == "down":
            self._down_at = (touch.x, touch.y)
        elif touch.kind == "up" and self._down_at is not None:
            dx = abs(touch.x - self._down_at[0])
            dy = abs(touch.y - self._down_at[1])
            if dx < 12 and dy < 12:
                self.fired += 1
                self.action(self)
            self._down_at = None


class UIPanGestureRecognizer(UIGestureRecognizer):
    def __init__(self, action: Callable) -> None:
        super().__init__()
        self.action = action
        self._last: Optional[tuple] = None
        self.total_dx = 0.0
        self.total_dy = 0.0

    def handle(self, ctx, touch: UITouch) -> None:
        if touch.kind == "down":
            self._last = (touch.x, touch.y)
        elif touch.kind == "move" and self._last is not None:
            dx = touch.x - self._last[0]
            dy = touch.y - self._last[1]
            self.total_dx += dx
            self.total_dy += dy
            self._last = (touch.x, touch.y)
            self.fired += 1
            self.action(self, dx, dy)
        elif touch.kind == "up":
            self._last = None


class UIPinchGestureRecognizer(UIGestureRecognizer):
    """Two-pointer pinch-to-zoom."""

    def __init__(self, action: Callable) -> None:
        super().__init__()
        self.action = action
        self._points: Dict[int, tuple] = {}
        self._start_spread: Optional[float] = None
        self.scale = 1.0

    def handle(self, ctx, touch: UITouch) -> None:
        if touch.kind in ("down", "move"):
            self._points[touch.pointer_id] = (touch.x, touch.y)
        elif touch.kind == "up":
            self._points.pop(touch.pointer_id, None)
            self._start_spread = None
            return
        if len(self._points) == 2:
            (x0, y0), (x1, y1) = list(self._points.values())
            spread = ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
            if self._start_spread is None:
                self._start_spread = max(spread, 1.0)
            else:
                self.scale = spread / self._start_spread
                self.fired += 1
                self.action(self, self.scale)


# -- the application object -------------------------------------------------------


class UIApplication:
    """The app singleton: event port, window, render loop."""

    def __init__(self, ctx: "UserContext", delegate: object) -> None:
        self.ctx = ctx
        self.delegate = delegate
        self.state = "active"
        self.frames_rendered = 0
        self.events_handled = 0
        libc = ctx.libc
        kr, self.event_port = libc.mach_port_allocate()
        ui_state = ctx.lib_state(LIB_STATE_KEY)
        ui_state["event_port"] = self.event_port
        ui_state["application"] = self
        width, height = self._display_dims()
        self.window = UIWindow(0, 0, width, height, background=".")
        self.keyboard: Optional[UIView] = None
        self._terminated = False
        # UIKit apps start in the foreground jetsam band and subscribe to
        # kernel memory-pressure notifications: when jetsam runs an
        # episode the app hears ``didReceiveMemoryWarning`` *before* the
        # kill phase and can shed caches to survive.
        from ..kernel.pressure import JETSAM_PRIORITY_FOREGROUND

        ctx.process.jetsam_priority = JETSAM_PRIORITY_FOREGROUND
        ctx.kernel.memory_pressure_listeners[ctx.process.pid] = (
            self._memory_warning
        )

    def _memory_warning(self, level: str) -> None:
        """Kernel pressure callback → ``didReceiveMemoryWarning``."""
        self.dispatch_lifecycle("memory_warning")

    def _display_dims(self) -> tuple:
        display = self.ctx.machine.display
        return display.width_px, display.height_px

    # -- framework symbol access ------------------------------------------------

    def _framework(self, lib: str, symbol: str) -> Callable:
        return self.ctx.dlsym(lib, symbol)

    def _window_surface(self):
        """The window memory this app draws into: proxied from CiderPress
        when present, otherwise allocated through the GL library."""
        state = self.ctx.lib_state(LIB_STATE_KEY)
        surface = state.get("window_surface")
        if surface is not None:
            return surface
        gles = self.ctx.process.loaded_libraries.get("OpenGLES")
        width, height = self._display_dims()
        if gles is not None and "_CiderCreateWindowSurface" in gles.exports:
            create = self._framework("OpenGLES", "_CiderCreateWindowSurface")
            surface = create(self.ctx.process.name, width, height)
        else:
            compositor = self.ctx.machine.surfaceflinger
            if compositor is None:
                raise RuntimeError("no window system available")
            surface = compositor.create_surface(
                self.ctx.process.name, width, height, z_order=10
            )
        state["window_surface"] = surface
        return surface

    # -- rendering ------------------------------------------------------------------

    def render(self) -> None:
        """Rasterise the view tree and present one frame."""
        ctx = self.ctx
        state = ctx.lib_state(LIB_STATE_KEY)
        width, height = self._display_dims()

        backing = state.get("backing_surface")
        if backing is None:
            create_surface = self._framework("IOSurface", "_IOSurfaceCreate")
            backing = create_surface(width, height)
            state["backing_surface"] = backing

        backing.base_address().clear(self.window.background)
        render_tree = self._framework("QuartzCore", "_CARenderLayerTree")
        render_tree(self.window.build_layer(), backing)

        window_surface = self._window_surface()
        window_surface.lock_back().blit(backing.base_address(), 0, 0)

        eagl = state.get("eagl_context")
        if eagl is None:
            eagl = self._framework("OpenGLES", "_EAGLContextCreate")()
            self._framework("OpenGLES", "_EAGLContextSetCurrent")(eagl)
            self._framework(
                "OpenGLES", "_EAGLRenderbufferStorageFromDrawable"
            )(eagl, window_surface)
            state["eagl_context"] = eagl
        self._framework("OpenGLES", "_EAGLContextPresentRenderbuffer")(eagl)
        self.frames_rendered += 1

    # -- event handling ---------------------------------------------------------------

    def dispatch_touch(self, touch: UITouch) -> None:
        self.ctx.machine.charge("gesture_process")
        self.events_handled += 1
        target = self.window.hit_test(touch.x, touch.y)
        view = target
        while view is not None:
            for recognizer in view.gesture_recognizers:
                recognizer.handle(self.ctx, touch)
            view = view.superview
        if target is not None:
            target.on_touch(touch)

    def dispatch_lifecycle(self, action: str) -> None:
        self.events_handled += 1
        from ..kernel.pressure import (
            JETSAM_PRIORITY_BACKGROUND,
            JETSAM_PRIORITY_FOREGROUND,
        )

        if action == "pause":
            self.state = "background"
            self.ctx.process.jetsam_priority = JETSAM_PRIORITY_BACKGROUND
            hook = getattr(self.delegate, "on_pause", None)
        elif action == "resume":
            self.state = "active"
            self.ctx.process.jetsam_priority = JETSAM_PRIORITY_FOREGROUND
            hook = getattr(self.delegate, "on_resume", None)
        elif action == "memory_warning":
            hook = getattr(self.delegate, "did_receive_memory_warning", None)
        elif action == "terminate":
            self._terminated = True
            hook = getattr(self.delegate, "will_terminate", None)
        else:
            hook = None
        if hook is not None:
            hook(self)

    def dispatch_accel(self, sample: object) -> None:
        self.events_handled += 1
        hook = getattr(self.delegate, "on_accelerometer", None)
        if hook is not None:
            hook(self, sample)

    # -- keyboard --------------------------------------------------------------------------

    def show_keyboard(self, target: UITextField) -> None:
        """Attach the on-screen keyboard wired to ``target``."""
        if self.keyboard is not None:
            return
        width, height = self._display_dims()
        keyboard = UIView(0, height - 200, width, 200, background="=")
        keys = "qwertyuiopasdfghjklzxcvbnm"
        for index, ch in enumerate(keys):
            col, row = index % 10, index // 10
            key = UIButton(
                ch,
                x=8 + col * (width - 16) // 10,
                y=8 + row * 62,
                width=(width - 16) // 10 - 4,
                height=56,
                on_tap=lambda btn, c=ch: self._key_pressed(target, c),
            )
            keyboard.add_subview(key)
        self.keyboard = keyboard
        self.window.add_subview(keyboard)

    def _key_pressed(self, target: UITextField, ch: str) -> None:
        target.text += ch

    def _tear_down(self) -> None:
        """The run loop is over, the app terminated or killed: empty the
        view tree (a view and its superview, and a view and its gesture
        recognizers, point at each other) and drop the delegate, which
        points back, so the app is freed by reference count."""
        views = [self.window]
        while views:
            view = views.pop()
            views.extend(view.subviews)
            view.subviews = []
            view.gesture_recognizers = []
        self.delegate = None

    # -- the run loop ------------------------------------------------------------------------

    def run(self) -> int:
        """Receive events from the Mach port until terminated."""
        libc = self.ctx.libc
        while not self._terminated:
            code, msg = libc.mach_msg_receive(self.event_port)
            if code != 0 or msg is None:
                break
            body = msg.body if isinstance(msg.body, dict) else {}
            if msg.msg_id == EVENT_MSG_TOUCH:
                self.dispatch_touch(
                    UITouch(
                        body.get("kind", "down"),
                        body.get("x", 0.0),
                        body.get("y", 0.0),
                        body.get("pointer_id", 0),
                    )
                )
            elif msg.msg_id == EVENT_MSG_ACCEL:
                self.dispatch_accel(body)
            elif msg.msg_id == EVENT_MSG_LIFECYCLE:
                self.dispatch_lifecycle(body.get("action", ""))
            if not self._terminated:
                self.render()
        return 0


def _apply_cider_arguments(ctx: "UserContext", app: UIApplication) -> None:
    """When launched by CiderPress, attach the proxied window surface and
    start the eventpump bridge thread (paper §3, §5.2)."""
    argv = ctx.process.argv
    state = ctx.lib_state(LIB_STATE_KEY)
    if "--cider-surface" in argv:
        surface_id = int(argv[argv.index("--cider-surface") + 1])
        surface = ctx.machine.surfaceflinger.published.get(surface_id)
        if surface is not None:
            state["window_surface"] = surface
    if "--cider-socket" in argv:
        from .eventpump import start_eventpump

        socket_path = argv[argv.index("--cider-socket") + 1]
        start_eventpump(ctx, socket_path, app.event_port)


def UIApplicationMain(ctx: "UserContext", delegate: object) -> int:
    """The UIKit entry point every iOS app's main() calls."""
    app = UIApplication(ctx, delegate)
    try:
        _apply_cider_arguments(ctx, app)
        launched = getattr(delegate, "did_finish_launching", None)
        if launched is not None:
            launched(app)
        app.render()
        return app.run()
    finally:
        app._tear_down()


def uikit_exports() -> Dict[str, object]:
    return {
        "_UIApplicationMain": UIApplicationMain,
    }
