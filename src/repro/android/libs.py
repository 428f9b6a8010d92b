"""Android shared-library images for the graphics stack.

These ELF images are what the diplomat generator scans ("searched through
a directory of Android ELF shared objects for a matching export") and
what diplomats load into foreign processes at call time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..binfmt import BinaryImage, elf_library
from .egl import egl_exports
from .eglbridge import eaglbridge_exports
from .gles import gles_exports
from .gralloc import gralloc_exports
from .notifications import notify_exports
from .skia import skia_exports

if TYPE_CHECKING:
    from ..kernel.kernel import Kernel


def make_libgles_image() -> BinaryImage:
    return elf_library(
        "libGLESv2.so", functions=gles_exports(), text_kb=700, data_kb=64
    )


def make_libegl_image() -> BinaryImage:
    return elf_library(
        "libEGL.so",
        functions=egl_exports(),
        deps=["libGLESv2.so"],
        text_kb=260,
        data_kb=32,
    )


def make_libeglbridge_image() -> BinaryImage:
    return elf_library(
        "libEGLbridge.so",
        functions=eaglbridge_exports(),
        deps=["libEGL.so"],
        text_kb=96,
        data_kb=16,
    )


def make_libgralloc_image() -> BinaryImage:
    return elf_library(
        "libgralloc.so", functions=gralloc_exports(), text_kb=120, data_kb=16
    )


def make_libskia_image() -> BinaryImage:
    return elf_library(
        "libskia.so", functions=skia_exports(), text_kb=1800, data_kb=128
    )


def make_libnotify_image() -> BinaryImage:
    return elf_library(
        "libandroidnotify.so", functions=notify_exports(), text_kb=48, data_kb=8
    )


def install_android_graphics_libs(kernel: "Kernel") -> Dict[str, BinaryImage]:
    """Install the graphics .so set (plus small service libs) under
    /system/lib."""
    images = {
        "libGLESv2.so": make_libgles_image(),
        "libEGL.so": make_libegl_image(),
        "libEGLbridge.so": make_libeglbridge_image(),
        "libgralloc.so": make_libgralloc_image(),
        "libskia.so": make_libskia_image(),
        "libandroidnotify.so": make_libnotify_image(),
    }
    vfs = kernel.vfs
    vfs.makedirs("/system/lib")
    for name, image in images.items():
        path = f"/system/lib/{name}"
        if not vfs.exists(path):
            vfs.install_binary(path, image)
    return images
