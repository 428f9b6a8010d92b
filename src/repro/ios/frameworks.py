"""The iOS framework/dylib closure.

Cider copies the framework binaries from the Xcode SDK and the background
service binaries from a real iOS device (paper §3).  This module builds
that library set as synthetic Mach-O images: the ~115 dylibs / ~90 MB that
dyld maps into *every* iOS process "irrespective of whether or not those
libraries are used by the binary" (§6.2) — the numbers behind the 14x
fork+exit result.

A handful of frameworks are functional (their exports are implemented by
modules in :mod:`repro.ios`); the long tail are structural filler with
realistic names and sizes, exactly the role they play in the fork/exec
measurements.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..binfmt import KB, MB, BinaryImage, macho_dylib
from .dyld import SHARED_CACHE_PATH, SharedCache

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel

#: Target closure shape from the paper.
TARGET_LIBRARY_COUNT = 115
TARGET_TOTAL_MB = 90

#: (name, install_path, size_kb) for the recognisable frameworks.
_MAJOR_LIBS: List[Tuple[str, str, int]] = [
    ("libSystem.B.dylib", "/usr/lib/libSystem.B.dylib", 1536),
    ("libobjc.A.dylib", "/usr/lib/libobjc.A.dylib", 1024),
    ("libc++.1.dylib", "/usr/lib/libc++.1.dylib", 900),
    ("libc++abi.dylib", "/usr/lib/libc++abi.dylib", 300),
    ("libicucore.A.dylib", "/usr/lib/libicucore.A.dylib", 2048),
    ("libz.1.dylib", "/usr/lib/libz.1.dylib", 256),
    ("libsqlite3.dylib", "/usr/lib/libsqlite3.dylib", 800),
    ("libxml2.2.dylib", "/usr/lib/libxml2.2.dylib", 1100),
    (
        "CoreFoundation",
        "/System/Library/Frameworks/CoreFoundation.framework/CoreFoundation",
        4096,
    ),
    (
        "Foundation",
        "/System/Library/Frameworks/Foundation.framework/Foundation",
        5120,
    ),
    ("UIKit", "/System/Library/Frameworks/UIKit.framework/UIKit", 11264),
    (
        "QuartzCore",
        "/System/Library/Frameworks/QuartzCore.framework/QuartzCore",
        3072,
    ),
    (
        "CoreGraphics",
        "/System/Library/Frameworks/CoreGraphics.framework/CoreGraphics",
        6144,
    ),
    (
        "OpenGLES",
        "/System/Library/Frameworks/OpenGLES.framework/OpenGLES",
        1024,
    ),
    ("IOSurface", "/System/Library/PrivateFrameworks/IOSurface.framework/IOSurface", 256),
    ("IOKit", "/System/Library/Frameworks/IOKit.framework/Versions/A/IOKit", 512),
    ("WebKit", "/System/Library/PrivateFrameworks/WebKit.framework/WebKit", 18432),
    (
        "JavaScriptCore",
        "/System/Library/PrivateFrameworks/JavaScriptCore.framework/JavaScriptCore",
        7168,
    ),
    ("CFNetwork", "/System/Library/Frameworks/CFNetwork.framework/CFNetwork", 2560),
    ("Security", "/System/Library/Frameworks/Security.framework/Security", 2048),
    (
        "SystemConfiguration",
        "/System/Library/Frameworks/SystemConfiguration.framework/SystemConfiguration",
        768,
    ),
    ("CoreText", "/System/Library/Frameworks/CoreText.framework/CoreText", 2048),
    ("ImageIO", "/System/Library/Frameworks/ImageIO.framework/ImageIO", 2048),
    ("CoreImage", "/System/Library/Frameworks/CoreImage.framework/CoreImage", 2560),
    ("AVFoundation", "/System/Library/Frameworks/AVFoundation.framework/AVFoundation", 3072),
    ("CoreMedia", "/System/Library/Frameworks/CoreMedia.framework/CoreMedia", 1536),
    ("CoreAudio", "/System/Library/Frameworks/CoreAudio.framework/CoreAudio", 512),
    ("AudioToolbox", "/System/Library/Frameworks/AudioToolbox.framework/AudioToolbox", 2560),
    ("MobileCoreServices", "/System/Library/Frameworks/MobileCoreServices.framework/MobileCoreServices", 256),
    ("CoreLocation", "/System/Library/Frameworks/CoreLocation.framework/CoreLocation", 768),
    ("AddressBook", "/System/Library/Frameworks/AddressBook.framework/AddressBook", 512),
    ("StoreKit", "/System/Library/Frameworks/StoreKit.framework/StoreKit", 256),
    ("iAd", "/System/Library/Frameworks/iAd.framework/iAd", 768),
    ("MapKit", "/System/Library/Frameworks/MapKit.framework/MapKit", 1536),
    ("GLKit", "/System/Library/Frameworks/GLKit.framework/GLKit", 512),
    ("SpriteKit", "/System/Library/Frameworks/SpriteKit.framework/SpriteKit", 1024),
    ("libdispatch.dylib", "/usr/lib/system/libdispatch.dylib", 512),
    ("libxpc.dylib", "/usr/lib/system/libxpc.dylib", 512),
    ("libnotify.dylib", "/usr/lib/system/libnotify.dylib", 128),
    ("libkqueue.dylib", "/usr/lib/system/libkqueue.dylib", 128),
]

#: Private-framework filler names used to reach TARGET_LIBRARY_COUNT.
_FILLER_NAMES = [
    "AppSupport", "BackBoardServices", "BaseBoard", "Bom", "CaptiveNetwork",
    "Celestial", "ChunkingLibrary", "CommonUtilities", "CoreBrightness",
    "CorePDF", "CoreSymbolication", "CoreTelephony", "CoreUtils",
    "CrashReporterSupport", "DataAccessExpress", "DictionaryServices",
    "FontServices", "GraphicsServices", "HomeSharing", "IAP",
    "IDSFoundation", "IMCore", "IOMobileFramebufferUser", "IOSurfaceAccelerator",
    "LangAnalysis", "MallocStackLogging", "ManagedConfiguration",
    "MediaControlSender", "MediaRemote", "MediaServices", "MobileAsset",
    "MobileBluetooth", "MobileIcons", "MobileInstallation",
    "MobileKeyBag", "MobileWiFi", "Notes", "PersistentConnection",
    "PhotoLibraryServices", "PlugInKit", "ProofReader", "ProtocolBuffer",
    "SpringBoardServices", "TCC", "TelephonyUtilities", "TextInput",
    "Twitter", "UserNotificationServices", "VectorKit", "WebCore",
    "WebBookmarks", "WirelessDiagnostics", "AccountSettings",
    "AggregateDictionary", "AirTraffic", "AppleAccount", "AssetsLibraryServices",
    "AuthKit", "BluetoothManager", "CacheDelete", "CalendarDaemon",
    "CalendarDatabase", "CalendarFoundation", "CertInfo", "CertUI",
    "ContentIndex", "CoreDAV", "CoreDuet", "CoreFollowUp",
    "CoreRecents", "CoreSDB", "CoreSuggestions", "DCIMServices",
    "DeviceIdentity", "DiagnosticLogCollection", "DistributedEvaluation",
]


def _functional_exports(lib_name: str) -> Optional[Dict[str, Callable]]:
    """Exports for the frameworks that have real implementations."""
    # Imported lazily: the framework modules depend on the wider ios
    # package, which depends on this module's image builders.
    if lib_name == "UIKit":
        from .uikit import uikit_exports

        return uikit_exports()
    if lib_name == "OpenGLES":
        from .opengles import native_opengles_exports

        return native_opengles_exports()
    if lib_name == "IOSurface":
        from .iosurface import native_iosurface_exports

        return native_iosurface_exports()
    if lib_name == "QuartzCore":
        from .quartzcore import quartzcore_exports

        return quartzcore_exports()
    if lib_name == "CoreGraphics":
        from .coregraphics import coregraphics_exports

        return coregraphics_exports()
    if lib_name == "Foundation":
        from .foundation import foundation_exports

        return foundation_exports()
    if lib_name == "WebKit":
        from .webkit import webkit_exports

        return webkit_exports()
    if lib_name == "libkqueue.dylib":
        from .kqueue import kqueue_exports

        return kqueue_exports()
    return None


@cache
def build_framework_images() -> Tuple[Tuple[str, BinaryImage], ...]:
    """The full (install_path, image) closure, built once per process:
    images are values, so every boot installs the same objects."""
    major_kb = sum(kb for _, _, kb in _MAJOR_LIBS)
    filler_count = TARGET_LIBRARY_COUNT - len(_MAJOR_LIBS)
    filler_total_kb = TARGET_TOTAL_MB * 1024 - major_kb
    filler_kb = max(64, filler_total_kb // filler_count)
    libs = list(_MAJOR_LIBS) + [
        (
            filler,
            f"/System/Library/PrivateFrameworks/{filler}.framework/{filler}",
            filler_kb,
        )
        for filler in _FILLER_NAMES[:filler_count]
    ]
    # libSystem is the umbrella: every iOS binary links it, and linking it
    # pulls the entire base closure (how a real SDK app ends up with ~115
    # images resident before main()).
    umbrella_deps = [path for _name, path, _kb in libs[1:]]
    return tuple(
        (
            path,
            macho_dylib(
                name,
                functions=_functional_exports(name),
                deps=umbrella_deps if index == 0 else None,
                text_kb=int(size_kb * 0.8),
                data_kb=int(size_kb * 0.2),
                install_name=path,
            ),
        )
        for index, (name, path, size_kb) in enumerate(libs)
    )


def install_ios_frameworks(
    kernel: "Kernel", shared_cache: bool = False
) -> List[BinaryImage]:
    """Copy the framework binaries into the overlay filesystem.

    With ``shared_cache=True`` a prelinked dyld cache file is also
    installed (the optimisation the Cider prototype lacked)."""
    vfs = kernel.vfs
    entries = build_framework_images()
    for path, image in entries:
        vfs.install_binary(path, image)
    if shared_cache:
        install_shared_cache(kernel)
    return [image for _path, image in entries]


def install_shared_cache(kernel: "Kernel") -> SharedCache:
    """Build the prelinked cache from the *currently installed* framework
    images (run after any interposition so the cache indexes the
    libraries dyld will actually hand out)."""
    from ..binfmt import BinaryFormat, BinaryKind
    from ..kernel.vfs import RegularFile

    vfs = kernel.vfs
    images = []
    for root in ("/usr/lib", "/System/Library"):
        if not vfs.exists(root):
            continue
        for path in vfs.walk(root):
            node = vfs.resolve(path)
            image = getattr(node, "binary_image", None)
            if (
                isinstance(node, RegularFile)
                and image is not None
                and image.format is BinaryFormat.MACHO
                and image.kind is BinaryKind.SHARED_LIBRARY
            ):
                images.append(image)
    cache_dir = SHARED_CACHE_PATH.rsplit("/", 1)[0]
    vfs.makedirs(cache_dir)
    cache_file = vfs.create_file(SHARED_CACHE_PATH, exist_ok=True)
    cache = SharedCache(images)
    cache_file.shared_cache = cache  # type: ignore[attr-defined]
    return cache
