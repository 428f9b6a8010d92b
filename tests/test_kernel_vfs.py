"""Tests for the VFS and the memory-management accounting."""

import pytest

from repro.binfmt import elf_library
from repro.hw.profiles import nexus7
from repro.kernel import errno as E
from repro.kernel.mm import PAGE_SIZE, AddressSpace
from repro.kernel.errno import SyscallError
from repro.kernel.vfs import VFS, Directory, RegularFile


@pytest.fixture
def vfs():
    return VFS(nexus7().boot())


class TestPathResolution:
    def test_root(self, vfs):
        assert vfs.resolve("/") is vfs.root

    def test_nested_resolution(self, vfs):
        vfs.makedirs("/a/b/c")
        node = vfs.resolve("/a/b/c")
        assert isinstance(node, Directory)

    def test_missing_path_enoent(self, vfs):
        with pytest.raises(SyscallError) as err:
            vfs.resolve("/missing")
        assert err.value.errno == E.ENOENT

    def test_file_as_directory_enotdir(self, vfs):
        vfs.create_file("/f")
        with pytest.raises(SyscallError) as err:
            vfs.resolve("/f/sub")
        assert err.value.errno == E.ENOTDIR

    def test_relative_resolution_from_cwd(self, vfs):
        cwd = vfs.makedirs("/home")
        vfs.create_file("/home/file")
        assert isinstance(vfs.resolve("file", cwd), RegularFile)

    def test_dot_segments_ignored(self, vfs):
        vfs.makedirs("/a")
        assert vfs.resolve("/./a/.") is vfs.resolve("/a")

    def test_lookup_charges_per_component(self, vfs):
        machine = vfs._machine
        vfs.makedirs("/deep/er/and/deeper")
        before = machine.now_ns
        vfs.resolve("/deep/er/and/deeper")
        deep_cost = machine.now_ns - before
        before = machine.now_ns
        vfs.resolve("/deep")
        shallow_cost = machine.now_ns - before
        assert deep_cost == 4 * machine.costs["path_lookup_component"]
        assert shallow_cost < deep_cost


class TestNamespaceOps:
    def test_create_and_unlink(self, vfs):
        vfs.create_file("/f", data=b"hello")
        assert vfs.resolve("/f").size_bytes == 5
        vfs.unlink("/f")
        assert not vfs.exists("/f")

    def test_create_existing_eexist(self, vfs):
        vfs.create_file("/f")
        with pytest.raises(SyscallError) as err:
            vfs.create_file("/f")
        assert err.value.errno == E.EEXIST

    def test_create_exist_ok(self, vfs):
        first = vfs.create_file("/f")
        again = vfs.create_file("/f", exist_ok=True)
        assert first is again

    def test_mkdir_rmdir(self, vfs):
        vfs.mkdir("/d")
        vfs.rmdir("/d")
        assert not vfs.exists("/d")

    def test_rmdir_nonempty_rejected(self, vfs):
        vfs.makedirs("/d")
        vfs.create_file("/d/f")
        with pytest.raises(SyscallError) as err:
            vfs.rmdir("/d")
        assert err.value.errno == E.ENOTEMPTY

    def test_unlink_directory_eisdir(self, vfs):
        vfs.mkdir("/d")
        with pytest.raises(SyscallError) as err:
            vfs.unlink("/d")
        assert err.value.errno == E.EISDIR

    def test_listdir_sorted(self, vfs):
        vfs.makedirs("/d")
        for name in ("zeta", "alpha", "mid"):
            vfs.create_file(f"/d/{name}")
        assert vfs.listdir("/d") == ["alpha", "mid", "zeta"]

    def test_install_binary_creates_parents(self, vfs):
        lib = elf_library("libz.so")
        vfs.install_binary("/system/lib/arm/libz.so", lib)
        node = vfs.resolve("/system/lib/arm/libz.so")
        assert node.binary_image is lib
        assert node.size_bytes == lib.vm_size_bytes

    def test_install_binary_charges_what_create_file_charges(self):
        """On a new path, over an installed file and at the root,
        install_binary charges what makedirs then create_file charge."""
        lib = elf_library("libz.so")
        old_machine, new_machine = nexus7().boot(), nexus7().boot()
        old, new = VFS(old_machine), VFS(new_machine)
        for path in ("/system/lib/arm/libz.so", "/system/lib/arm/libz.so",
                     "/libtop.so", "/system/lib/arm/libc.so"):
            before = old_machine.clock.charged_ps
            old.makedirs("/" + "/".join(VFS.split(path)[:-1]))
            old.create_file(path, binary_image=lib, exist_ok=True)
            charged = old_machine.clock.charged_ps - before
            before = new_machine.clock.charged_ps
            assert new.install_binary(path, lib).binary_image is lib
            assert new_machine.clock.charged_ps - before == charged
        assert new.walk() == old.walk()

    def test_install_binary_looks_each_component_up_once(self, vfs, monkeypatch):
        lookups = []
        lookup = Directory.lookup
        monkeypatch.setattr(
            Directory, "lookup", lambda d, name: lookups.append(name) or lookup(d, name)
        )
        vfs.install_binary("/system/lib/arm/libz.so", elf_library("libz.so"))
        assert lookups == ["system", "lib", "arm", "libz.so"]

    def test_install_binary_over_a_directory_eexist(self, vfs):
        vfs.makedirs("/a/b")
        with pytest.raises(SyscallError) as err:
            vfs.install_binary("/a/b", elf_library("b"))
        assert err.value.errno == E.EEXIST

    def test_walk_lists_files(self, vfs):
        vfs.makedirs("/a/b")
        vfs.create_file("/a/f1")
        vfs.create_file("/a/b/f2")
        assert vfs.walk("/a") == ["/a/b/f2", "/a/f1"]


class TestAddressSpace:
    def test_pages_round_up(self):
        space = AddressSpace()
        vma = space.map("x", PAGE_SIZE + 1)
        assert vma.pages == 2

    def test_total_accounting(self):
        space = AddressSpace()
        space.map("a", 10 * PAGE_SIZE)
        space.map("b", 5 * PAGE_SIZE)
        assert space.total_pages == 15
        assert space.total_bytes == 15 * PAGE_SIZE

    def test_shared_cache_excluded_from_fork_copy(self):
        space = AddressSpace()
        space.map("app", 10 * PAGE_SIZE)
        space.map("cache", 1000 * PAGE_SIZE, shared_cache=True)
        assert space.copied_on_fork_pages == 10
        assert space.total_pages == 1010

    def test_fork_copy_is_deep(self):
        space = AddressSpace()
        space.map("a", PAGE_SIZE)
        child = space.fork_copy()
        space.unmap_all()
        assert child.total_pages == 1

    def test_find_and_unmap(self):
        space = AddressSpace()
        vma = space.map("target", PAGE_SIZE)
        assert space.find("target") is vma
        space.unmap(vma)
        assert space.find("target") is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().map("bad", -1)
