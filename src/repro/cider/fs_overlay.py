"""The iOS filesystem overlay.

"Cider overlays a file system hierarchy on the existing Android FS ...
the overlaid FS hierarchy allows iOS apps to access familiar iOS paths,
such as /Documents" (paper §3).  Framework binaries land under
/System/Library and /usr/lib (installed by
:mod:`repro.ios.frameworks`); this module creates the directory skeleton
and the handful of plist/config files services expect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel

#: The iOS directory skeleton overlaid onto the Android root.
IOS_OVERLAY_DIRS: List[str] = [
    "/Documents",
    "/Library",
    "/Library/Preferences",
    "/Library/Caches",
    "/System/Library/Frameworks",
    "/System/Library/PrivateFrameworks",
    "/System/Library/LaunchDaemons",
    "/usr/lib",
    "/usr/lib/system",
    "/usr/libexec",
    "/private/var/mobile",
    "/private/var/mobile/Applications",
    "/private/var/tmp",
    "/var/log",
    "/var/mobile",
    "/var/mobile/Applications",
    "/User",
]


def create_ios_fs_overlay(kernel: "Kernel") -> None:
    """Create the overlay skeleton and boot plists."""
    vfs = kernel.vfs
    for path in IOS_OVERLAY_DIRS:
        vfs.makedirs(path)
    vfs.create_file(
        "/System/Library/LaunchDaemons/com.apple.configd.plist",
        data=b"<plist><dict><key>Program</key>"
        b"<string>/usr/libexec/configd</string></dict></plist>",
        exist_ok=True,
    )
    vfs.create_file(
        "/System/Library/LaunchDaemons/com.apple.notifyd.plist",
        data=b"<plist><dict><key>Program</key>"
        b"<string>/usr/libexec/notifyd</string></dict></plist>",
        exist_ok=True,
    )


def overlay_present(kernel: "Kernel") -> bool:
    return all(kernel.vfs.exists(path) for path in IOS_OVERLAY_DIRS)
