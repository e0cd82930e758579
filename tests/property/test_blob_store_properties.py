"""Property: both backends are the same blob store.

Backend parity for file bodies rests on this suite, not on a shared
codec: over arbitrary sequences of put / release / get (and batches that
roll back half-way) of arbitrary byte strings, ``MemoryBackend`` and
``SQLiteBackend`` agree on every value served, on the live digests, on
the bytes that reached the backend, and on ``dump()`` — and
``load(dump())`` is the identity on either.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import MemoryBackend, SQLiteBackend, StorageError

# A small alphabet of bodies, so sequences revisit them: dedup hits,
# releases of live digests and last-reference deletes all get drawn.
bodies = st.sampled_from([b"", b"a", b"\x00" * 64, b"\xff\xfe\x00tail"]) | st.binary(
    max_size=48
)
ops = st.lists(
    st.tuples(st.sampled_from(["put", "release", "get", "failed-batch"]), bodies),
    max_size=40,
)


class _Boom(Exception):
    pass


def _apply(backend, op, body):
    """One operation; what it observably returned or raised."""
    digest = hashlib.sha256(body).hexdigest()
    try:
        if op == "put":
            return backend.blobs.put(body)
        if op == "release":
            return backend.blobs.release(digest)
        if op == "get":
            return backend.blobs.get(digest)
        with pytest.raises(_Boom), backend.batch():
            backend.blobs.put(body)
            backend.blobs.put(b"only ever inside a failed batch")
            if digest in backend.blobs:
                backend.blobs.release(digest)
                backend.blobs.release(digest)
            raise _Boom
        return "rolled back"
    except StorageError as err:
        return err.code


@given(ops)
@settings(max_examples=150, deadline=None)
def test_backends_agree_on_every_blob_operation(sequence):
    memory, sqlite = MemoryBackend(), SQLiteBackend()
    dump = memory.dump()
    for op, body in sequence:
        before = dump
        assert _apply(memory, op, body) == _apply(sqlite, op, body)
        assert memory.blobs.digests() == sqlite.blobs.digests()
        assert memory.bytes_written == sqlite.bytes_written
        assert memory.bytes_read == sqlite.bytes_read
        assert memory.blob_dedup_hits == sqlite.blob_dedup_hits
        dump = memory.dump()
        assert dump == sqlite.dump()
        if op in ("get", "failed-batch"):
            assert dump == before
    assert list(dump["blobs"]) == sorted(dump["blobs"])
    for reloaded in (MemoryBackend(), SQLiteBackend()):
        reloaded.load(dump)
        assert reloaded.dump() == dump
        for digest in dump["blobs"]:
            assert hashlib.sha256(reloaded.blobs.get(digest)).hexdigest() == digest
