"""Unit tests for the virtual filesystem and the UNICORE data spaces."""

import pytest

from repro.vfs import (
    FileExistsVFSError,
    FileNotFoundVFSError,
    InMemoryFileSystem,
    QuotaExceededError,
    UspaceManager,
    VFSError,
    Workstation,
    Xspace,
)
from repro.vfs.filesystem import normalize


# -------------------------------------------------------------- normalize
def test_normalize_forms():
    assert normalize("a/b/c") == "/a/b/c"
    assert normalize("/a//b/./c/") == "/a/b/c"
    assert normalize("a/b/../c") == "/a/c"
    assert normalize("/") == "/"


def test_normalize_rejects_escape():
    with pytest.raises(VFSError):
        normalize("../etc/passwd")
    with pytest.raises(VFSError):
        normalize("a/../../b")
    with pytest.raises(VFSError):
        normalize("")


# -------------------------------------------------------------- filesystem
def test_write_read_roundtrip():
    fs = InMemoryFileSystem()
    fs.write("/a/b.txt", b"hello")
    assert fs.read("a/b.txt") == b"hello"
    assert fs.size("/a/b.txt") == 5
    assert fs.is_file("/a/b.txt")
    assert fs.is_dir("/a")


def test_read_missing_raises():
    with pytest.raises(FileNotFoundVFSError):
        InMemoryFileSystem().read("/nope")


def test_overwrite_flag():
    fs = InMemoryFileSystem()
    fs.write("/f", b"one")
    with pytest.raises(FileExistsVFSError):
        fs.write("/f", b"two", overwrite=False)
    fs.write("/f", b"two")
    assert fs.read("/f") == b"two"


def test_quota_enforced_and_accounts_replacement():
    fs = InMemoryFileSystem(quota_bytes=10)
    fs.write("/a", b"12345")
    fs.write("/b", b"12345")
    with pytest.raises(QuotaExceededError):
        fs.write("/c", b"x")
    # Replacing /a with something the same size is fine.
    fs.write("/a", b"abcde")
    # Shrinking frees quota.
    fs.write("/a", b"ab")
    fs.write("/c", b"xyz")
    assert fs.used_bytes == 10
    assert fs.free_bytes == 0


def test_quota_must_be_positive():
    with pytest.raises(VFSError):
        InMemoryFileSystem(quota_bytes=0)


def test_delete_file_frees_quota():
    fs = InMemoryFileSystem(quota_bytes=5)
    fs.write("/a", b"12345")
    fs.delete("/a")
    assert fs.used_bytes == 0
    fs.write("/b", b"12345")


def test_delete_directory_recursive():
    fs = InMemoryFileSystem()
    fs.write("/d/x", b"1")
    fs.write("/d/sub/y", b"22")
    fs.write("/keep", b"3")
    fs.delete("/d")
    assert not fs.exists("/d")
    assert not fs.exists("/d/sub/y")
    assert fs.exists("/keep")
    assert fs.used_bytes == 1


def test_delete_missing_raises():
    with pytest.raises(FileNotFoundVFSError):
        InMemoryFileSystem().delete("/ghost")


def test_delete_root_refused():
    with pytest.raises(VFSError):
        InMemoryFileSystem().delete("/")


def test_mkdir_and_listdir():
    fs = InMemoryFileSystem()
    fs.mkdir("/a/b")
    fs.write("/a/f.txt", b"x")
    fs.write("/a/b/g.txt", b"y")
    assert fs.listdir("/a") == ["b", "f.txt"]
    assert fs.listdir("/a/b") == ["g.txt"]
    assert fs.listdir("/") == ["a"]


def test_listdir_missing():
    with pytest.raises(FileNotFoundVFSError):
        InMemoryFileSystem().listdir("/nope")


def test_file_dir_conflicts():
    fs = InMemoryFileSystem()
    fs.write("/f", b"x")
    with pytest.raises(FileExistsVFSError):
        fs.mkdir("/f")
    with pytest.raises(FileExistsVFSError):
        fs.write("/f/child", b"y")  # /f is a file, not a directory
    fs.mkdir("/d")
    with pytest.raises(FileExistsVFSError):
        fs.write("/d", b"z")


def test_walk_files_sorted_and_scoped():
    fs = InMemoryFileSystem()
    fs.write("/a/2", b"")
    fs.write("/a/1", b"")
    fs.write("/b/3", b"")
    assert list(fs.walk_files("/a")) == ["/a/1", "/a/2"]
    assert list(fs.walk_files()) == ["/a/1", "/a/2", "/b/3"]


def test_append():
    fs = InMemoryFileSystem()
    fs.append("/log", b"one\n")
    fs.append("/log", b"two\n")
    assert fs.read("/log") == b"one\ntwo\n"


def test_write_requires_bytes():
    with pytest.raises(VFSError):
        InMemoryFileSystem().write("/f", "a string")


# ----------------------------------------------------------------- spaces
def test_workstation_stage_for_ajo():
    ws = Workstation("CN=Alice")
    ws.fs.write("/home/alice/input.dat", b"data")
    ws.fs.write("/home/alice/other.dat", b"other")
    staged = ws.stage_for_ajo(["/home/alice/input.dat"])
    assert staged == {"/home/alice/input.dat": b"data"}


def test_uspace_lifecycle():
    mgr = UspaceManager("FZJ-T3E")
    u = mgr.create("job1")
    u.write("input.dat", b"1234")
    assert u.read("input.dat") == b"1234"
    assert u.exists("input.dat")
    assert u.files() == ["input.dat"]
    assert u.used_bytes() == 4
    assert mgr.active_jobs == ["job1"]
    mgr.destroy("job1")
    assert mgr.active_jobs == []
    assert not mgr.fs.exists("/jobs/job1")


def test_uspace_isolation_between_jobs():
    mgr = UspaceManager("V")
    u1, u2 = mgr.create("j1"), mgr.create("j2")
    u1.write("f", b"one")
    u2.write("f", b"two")
    assert u1.read("f") == b"one"
    assert u2.read("f") == b"two"


def test_uspace_duplicate_create_rejected():
    mgr = UspaceManager("V")
    mgr.create("j")
    with pytest.raises(VFSError):
        mgr.create("j")


def test_uspace_get_missing():
    with pytest.raises(VFSError):
        UspaceManager("V").get("ghost")


def test_uspace_absolute_path_treated_as_relative():
    mgr = UspaceManager("V")
    u = mgr.create("j")
    u.write("/abs.txt", b"x")
    assert u.read("abs.txt") == b"x"
    # Must land inside the job directory, not the fs root.
    assert mgr.fs.is_file("/jobs/j/abs.txt")
