"""Tests for duct-taped I/O Kit and the Linux device glue."""

import pytest

from repro.cider.system import build_cider, build_ipad_mini
from repro.ducttape.iokit_glue import AppleM2CLCD, LinuxDeviceNub
from repro.xnu.iokit import (
    IO_OBJECT_NULL,
    DriverPersonality,
    IORegistryEntry,
    IOService,
)
from repro.workloads.passmark import install_passmark
from repro.xnu.ipc import KERN_SUCCESS

from helpers import run_macho


@pytest.fixture(scope="module")
def system():
    system = build_cider()
    yield system
    system.shutdown()


class TestRegistryBasics:
    def test_registry_tree(self):
        root = IORegistryEntry("root")
        child = IORegistryEntry("child")
        root.attach(child)
        assert child.parent is root
        assert child.path() == "root/child"
        root.detach(child)
        assert child.parent is None

    def test_iterate_is_depth_first(self):
        root = IORegistryEntry("r")
        a, b = IORegistryEntry("a"), IORegistryEntry("b")
        root.attach(a)
        a.attach(b)
        assert [e.entry_name for e in root.iterate()] == ["r", "a", "b"]

    def test_properties(self):
        entry = IORegistryEntry("e", {"key": 1})
        assert entry.get_property("key") == 1
        entry.set_property("other", "x")
        assert entry.get_property("other") == "x"
        assert entry.get_property("missing") is None


class TestLinuxDeviceBridging:
    def test_every_linux_device_has_a_nub(self, system):
        """The device_add hook mirrors Linux devices into the registry."""
        iokit = system.kernel.iokit
        linux_devices = {d.name for d in system.kernel.devices.all_devices()}
        nubs = {
            e.get_property("linux-device")
            for e in iokit.root.iterate()
            if isinstance(e, LinuxDeviceNub)
        }
        assert linux_devices <= nubs

    def test_new_device_add_fires_hook(self, system):
        from repro.kernel.devices import NullDriver

        iokit = system.kernel.iokit
        system.kernel.add_device("testdev0", NullDriver(), "misc")
        found = [
            e
            for e in iokit.root.iterate()
            if e.get_property("linux-device") == "testdev0"
        ]
        assert len(found) == 1
        assert found[0].get_property("IOClass") == "IOLinuxNub"

    def test_display_nub_matched_by_applem2clcd(self, system):
        """The 'single C++ file in the display driver's source tree'
        wraps the Linux framebuffer driver (paper §5.1)."""
        iokit = system.kernel.iokit
        drivers = [
            e for e in iokit.root.iterate() if isinstance(e, AppleM2CLCD)
        ]
        assert len(drivers) == 1
        driver = drivers[0]
        assert driver.started
        info = driver.get_display_info()
        assert info["width"] == 1280
        assert info["height"] == 800

    def test_matching_is_by_ioclass_property(self, system):
        personality = DriverPersonality(
            "AppleM2CLCD", provider_class="IODisplayNub"
        )
        iokit = system.kernel.iokit
        display_nub = next(
            e
            for e in iokit.root.iterate()
            if e.get_property("IOClass") == "IODisplayNub"
        )
        assert personality.matches(system.kernel.cxx_runtime, display_nub)
        hid_nub = next(
            e
            for e in iokit.root.iterate()
            if e.get_property("IOClass") == "IOHIDNub"
        )
        assert not personality.matches(system.kernel.cxx_runtime, hid_nub)


class TestUserSpaceAccess:
    def test_get_matching_service_from_ios_app(self, system):
        def body(ctx):
            return ctx.libc.io_service_get_matching_service(
                {"IOClass": "AppleM2CLCD"}
            )

        assert run_macho(system, body) != IO_OBJECT_NULL

    def test_missing_service_returns_null(self, system):
        def body(ctx):
            return ctx.libc.io_service_get_matching_service(
                {"IOClass": "IOGraphicsAccelerator2"}  # Apple HW only
            )

        assert run_macho(system, body) == IO_OBJECT_NULL

    def test_query_device_property(self, system):
        def body(ctx):
            libc = ctx.libc
            service = libc.io_service_get_matching_service(
                {"IOClass": "IODisplayNub"}
            )
            return libc.io_registry_entry_get_property(service, "linux-device")

        kr, value = run_macho(system, body)
        assert kr == KERN_SUCCESS
        assert value == "graphics/fb0"

    def test_open_and_call_external_method(self, system):
        def body(ctx):
            libc = ctx.libc
            service = libc.io_service_get_matching_service(
                {"IOClass": "AppleM2CLCD"}
            )
            kr, connect = libc.io_service_open(service)
            assert kr == KERN_SUCCESS
            kr, info = libc.io_connect_call_method(connect, 0)
            libc.io_service_close(connect)
            return kr, info

        kr, info = run_macho(system, body)
        assert kr == KERN_SUCCESS
        assert info == {"width": 1280, "height": 800, "depth": 32}

    def test_call_after_close_fails(self, system):
        def body(ctx):
            libc = ctx.libc
            service = libc.io_service_get_matching_service(
                {"IOClass": "AppleM2CLCD"}
            )
            _, connect = libc.io_service_open(service)
            libc.io_service_close(connect)
            kr, _ = libc.io_connect_call_method(connect, 0)
            return kr

        assert run_macho(system, body) != KERN_SUCCESS

    def test_unknown_selector_rejected(self, system):
        def body(ctx):
            libc = ctx.libc
            service = libc.io_service_get_matching_service(
                {"IOClass": "AppleM2CLCD"}
            )
            _, connect = libc.io_service_open(service)
            kr, _ = libc.io_connect_call_method(connect, 99)
            return kr

        assert run_macho(system, body) != KERN_SUCCESS


class TestConnectionsCloseAtExit:
    def test_a_connection_works_until_its_task_exits(self, system):
        iokit = system.kernel.iokit

        def body(ctx):
            libc = ctx.libc
            service = libc.io_service_get_matching_service(
                {"IOClass": "AppleM2CLCD"}
            )
            _, connect = libc.io_service_open(service)
            kr, _ = libc.io_connect_call_method(connect, 0)
            return kr, connect in iokit._connections

        assert run_macho(system, body) == (KERN_SUCCESS, True)
        assert iokit._connections == {}

    def test_native_gl_runs_leave_no_connection(self):
        system = build_ipad_mini()
        try:
            path = install_passmark(system.kernel, "ios")
            for _ in range(3):
                argv = [path, {"out": {}, "tests": ["gfx3d_simple"]}]
                assert system.run_program(path, argv) == 0
                assert system.kernel.iokit._connections == {}
        finally:
            system.shutdown()


class TestAppleHardwareServices:
    def test_ipad_has_apple_graphics_services(self):
        system = build_ipad_mini()
        try:

            def body(ctx):
                libc = ctx.libc
                return (
                    libc.io_service_get_matching_service(
                        {"IOClass": "IOSurfaceRoot"}
                    ),
                    libc.io_service_get_matching_service(
                        {"IOClass": "IOGraphicsAccelerator2"}
                    ),
                )

            surface_root, accel = run_macho(system, body)
            assert surface_root != IO_OBJECT_NULL
            assert accel != IO_OBJECT_NULL
        finally:
            system.shutdown()

    def test_late_personality_registration_rescans(self, system):
        """Registering a driver after nubs exist re-runs matching
        (the I/O Kit catalogue behaviour)."""
        from repro.ducttape.cxx_runtime import OSObject

        iokit = system.kernel.iokit
        runtime = system.kernel.cxx_runtime

        class TestHIDDriver(IOService):
            def __init__(self, name="TestHIDDriver"):
                super().__init__(name, {"IOClass": "TestHIDDriver"})

        runtime.register_class(TestHIDDriver)
        iokit.register_personality(
            DriverPersonality("TestHIDDriver", provider_class="IOHIDNub")
        )
        drivers = [
            e for e in iokit.root.iterate() if isinstance(e, TestHIDDriver)
        ]
        assert drivers and all(d.started for d in drivers)
