"""Unit tests for the virtual filesystem and the UNICORE data spaces."""

import sys

import pytest

from repro.vfs import (
    FileBody,
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


def test_walk_files_keeps_full_path_order_across_directories():
    """Sorted by whole path, as a scan of every path gave it: ``.`` sorts
    before ``/``, so ``/x/a.b/c`` precedes ``/x/a/b`` although directory
    ``a`` precedes ``a.b``."""
    fs = InMemoryFileSystem()
    for path in ("/x/a/b", "/x/a.b/c", "/x/a", "/xy", "/x!/z"):
        if path != "/x/a":
            fs.write(path, b"")
    assert list(fs.walk_files("/x")) == ["/x/a.b/c", "/x/a/b"]
    assert list(fs.walk_files("/xy")) == ["/xy"]
    assert list(fs.walk_files("/nowhere")) == []
    assert list(fs.walk_files()) == sorted(
        ["/x/a/b", "/x/a.b/c", "/xy", "/x!/z"]
    )


def test_deleting_a_directory_forgets_exactly_its_subtree():
    fs = InMemoryFileSystem()
    fs.write("/d/x", b"1")
    fs.write("/d/sub/deep/y", b"22")
    fs.write("/d2/z", b"333")
    fs.delete("/d/sub")
    assert fs.listdir("/d") == ["x"] and not fs.is_dir("/d/sub/deep")
    fs.delete("/d")
    assert fs.listdir("/") == ["d2"] and fs.used_bytes == 3
    fs.write("/d/sub", b"a file where a directory was")
    assert list(fs.walk_files()) == ["/d/sub", "/d2/z"]


def test_append():
    fs = InMemoryFileSystem()
    fs.append("/log", b"one\n")
    fs.append("/log", b"two\n")
    assert fs.read("/log") == b"one\ntwo\n"


def test_a_written_body_is_the_body_read_back_until_the_content_changes():
    fs = InMemoryFileSystem()
    body = FileBody(b"payload")
    digest = body.digest
    fs.write("/f", body)
    assert fs.body("/f") is body and fs.read("/f") is body.data
    fs.write("/copy", fs.body("/f"))  # a copy shares the body, memo intact
    assert fs.body("/copy") is body
    fs.append("/f", b"+more")
    appended = fs.body("/f")
    assert appended is not body and appended.data == b"payload+more"
    assert appended.digest != digest  # nothing stale rode along
    fs.write("/copy", b"payload")  # same bytes, written bare: a fresh body
    assert fs.body("/copy") is not body and fs.body("/copy") == body
    assert body.digest == digest and fs.used_bytes == len(b"payload+more") + 7


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


def _c_calls(fn) -> int:
    """How many C functions ``fn()`` calls: work metered, not time."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "c_call"

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_listing_a_uspace_costs_what_it_lists_not_what_the_spool_holds():
    mgr = UspaceManager("V")
    mine = mgr.create("mine")
    for path in ("in.dat", "out/result.dat", "stdout"):
        mine.write(path, b"1234")
    listings = (mine.files, mine.used_bytes, mine.listdir)
    alone = [_c_calls(listing) for listing in listings]
    for job in range(200):
        other = mgr.create(f"job{job}")
        for i in range(10):
            other.write(f"out{i}.dat", b"y")
    assert mgr.fs.file_count() == 2003
    assert [_c_calls(listing) for listing in listings] == alone
    assert mine.files() == ["in.dat", "out/result.dat", "stdout"]
    assert mine.used_bytes() == 12
    assert mine.listdir() == ["in.dat", "out", "stdout"]


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
