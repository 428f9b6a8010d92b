"""Tests for the device framework: evdev, framebuffer, ioctls, hooks."""

import pytest

from repro.cider.system import build_vanilla_android
from repro.kernel import errno as E
from repro.kernel.devices import EvdevDriver, NullDriver
from repro.kernel.files import O_NONBLOCK, O_RDONLY
from repro.kernel.syscalls_linux import EVIOC_READ_EVENT, FBIOGET_VSCREENINFO

from helpers import run_elf


@pytest.fixture(scope="module")
def system():
    system = build_vanilla_android()
    yield system
    system.shutdown()


class TestEvdev:
    def test_touch_event_flows_to_reader(self, system):
        def body(ctx):
            libc = ctx.libc
            fd = libc.open("/dev/input/event0", O_RDONLY)
            ctx.machine.touchscreen.tap(12, 34)
            first = libc.ioctl(fd, EVIOC_READ_EVENT)
            second = libc.ioctl(fd, EVIOC_READ_EVENT)
            return (first.kind, first.x, first.y), second.kind

        first, second_kind = run_elf(system, body)
        assert first == ("down", 12, 34)
        assert second_kind == "up"

    def test_blocking_read_waits_for_hardware(self, system):
        def body(ctx):
            libc = ctx.libc
            fd = libc.open("/dev/input/event0", O_RDONLY)
            order = []

            def finger(tctx):
                order.append("inject")
                tctx.machine.touchscreen.inject(
                    __import__(
                        "repro.hw.touchscreen", fromlist=["TouchEvent"]
                    ).TouchEvent("down", 1, 1)
                )
                return 0

            libc.pthread_create(finger)
            order.append("read")
            event = libc.ioctl(fd, EVIOC_READ_EVENT)
            order.append("got")
            return order, event.kind

        order, kind = run_elf(system, body)
        assert order == ["read", "inject", "got"]
        assert kind == "down"

    def test_nonblocking_read_eagain(self, system):
        def body(ctx):
            libc = ctx.libc
            fd = libc.open("/dev/input/event0", O_RDONLY | O_NONBLOCK)
            result = libc.ioctl(fd, EVIOC_READ_EVENT)
            return result, libc.errno

        result, errno = run_elf(system, body)
        assert result == -1
        assert errno == E.EAGAIN

    def test_select_wakes_when_an_event_arrives(self):
        """select on an input node returns when the driver queues an
        event, not when its timeout runs out."""
        system = build_vanilla_android()
        try:

            def body(ctx):
                libc, machine = ctx.libc, ctx.machine
                fd = libc.open("/dev/input/event0", O_RDONLY)

                def tapper():
                    machine.scheduler.sleep(100_000)
                    machine.touchscreen.tap(5, 6)

                machine.spawn(tapper, name="tapper", daemon=True)
                start = machine.clock.now_ps
                ready = libc.select([fd], [], 5_000_000)
                return fd, ready, machine.clock.now_ps - start

            fd, ready, elapsed_ps = run_elf(system, body)
            assert ready == ([fd], [])
            assert 100_000_000 <= elapsed_ps < 1_000_000_000
        finally:
            system.shutdown()

    def test_accelerometer_node_separate(self, system):
        def body(ctx):
            libc = ctx.libc
            fd = libc.open("/dev/input/event1", O_RDONLY)
            ctx.machine.accelerometer.tilt(0.1, 0.2)
            sample = libc.ioctl(fd, EVIOC_READ_EVENT)
            return sample.ax, sample.ay

        assert run_elf(system, body) == (0.1, 0.2)


class TestFramebuffer:
    def test_vscreeninfo_ioctl(self, system):
        def body(ctx):
            libc = ctx.libc
            fd = libc.open("/dev/graphics/fb0", O_RDONLY)
            return libc.ioctl(fd, FBIOGET_VSCREENINFO)

        info = run_elf(system, body)
        assert info == {"xres": 1280, "yres": 800}


class TestIoctlErrors:
    def test_ioctl_on_regular_file_enotty(self, system):
        def body(ctx):
            libc = ctx.libc
            fd = libc.creat("/tmp/notadev")
            result = libc.ioctl(fd, 0x1234)
            return result, libc.errno

        result, errno = run_elf(system, body)
        assert result == -1
        assert errno == E.ENOTTY

    def test_unknown_request_on_driver_without_ioctl(self, system):
        def body(ctx):
            libc = ctx.libc
            fd = libc.open("/dev/null", O_RDONLY)
            result = libc.ioctl(fd, 0x9999)
            return result, libc.errno

        result, errno = run_elf(system, body)
        assert result == -1
        assert errno == E.EINVAL


class TestDeviceAddHooks:
    def test_hook_fires_for_new_devices(self, system):
        seen = []
        system.kernel.devices.device_add_hooks.append(
            lambda device: seen.append(device.name)
        )
        system.kernel.add_device("hooktest0", NullDriver(), "misc")
        assert seen == ["hooktest0"]
        assert system.kernel.vfs.exists("/dev/hooktest0")

    def test_nested_device_path_created(self, system):
        system.kernel.add_device("block/sda1", NullDriver(), "block")
        assert system.kernel.vfs.exists("/dev/block/sda1")
