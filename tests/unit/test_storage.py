"""Unit tests for the pluggable persistence layer.

Backends (memory + sqlite), the value codec, spec parsing, transactional
batches with rollback, instrumentation counters, the journal-over-storage
refactor, and the deprecated-module compatibility shims.
"""

import hashlib

import pytest

from repro.observability import MetricsRegistry
from repro.storage import (
    JobJournal,
    MemoryBackend,
    OutcomeRecord,
    OutcomeStore,
    SQLiteBackend,
    StorageError,
    StorageSpec,
    decode_value,
    encode_value,
    resolve_storage,
    to_plain,
)

BACKENDS = [MemoryBackend, SQLiteBackend]


# -- codec -------------------------------------------------------------------
def test_codec_round_trips_bytes_tuples_and_nesting():
    value = {
        "raw": b"\x00\xff\xca\xfe",
        "nested": {"list": [1, 2.5, None, True, b"x"]},
        "tuple": (1, "two", b"three"),
    }
    decoded = decode_value(encode_value(value))
    assert decoded["raw"] == b"\x00\xff\xca\xfe"
    assert decoded["nested"]["list"] == [1, 2.5, None, True, b"x"]
    # Tuples canonicalize to lists (JSON has no tuple type).
    assert decoded["tuple"] == [1, "two", b"three"]


def test_codec_is_canonical():
    a = encode_value({"b": 1, "a": 2})
    b = encode_value({"a": 2, "b": 1})
    assert a == b


# -- backends ----------------------------------------------------------------
@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_table_crud_and_listing(backend_cls):
    backend = backend_cls()
    table = backend.table("t")
    assert table.get("missing") is None
    assert table.get("missing", 42) == 42
    table.put("b", {"x": 1})
    table.put("a", b"bytes")
    assert table.get("a") == b"bytes"
    assert table.keys() == ["a", "b"]
    assert "a" in table and "zz" not in table
    assert len(table) == 2
    table.delete("a")
    table.delete("never-existed")  # no error
    assert table.keys() == ["b"]
    assert dict(table.items()) == {"b": {"x": 1}}


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_table_items_is_one_read_in_key_order(backend_cls):
    backend = backend_cls()
    table = backend.table("t")
    for key in ("b", "c", "a"):
        table.put(key, {"n": key})
    backend.table("other").put("z", 0)
    reads, nbytes = backend.reads, backend.bytes_read
    assert table.items() == [(k, {"n": k}) for k in ("a", "b", "c")]
    assert backend.reads == reads + 1
    assert backend.bytes_read - nbytes == sum(
        len(encode_value({"n": k})) for k in "abc"
    )


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_dump_load_round_trip_across_backends(backend_cls):
    src = backend_cls()
    src.table("t1").put("k", {"payload": b"\x01\x02"})
    src.table("t2").put("U1/task", ["VS", "B001"])
    dump = src.dump()
    assert sorted(dump) == ["blobs", "tables"]
    for dst_cls in BACKENDS:
        dst = dst_cls()
        dst.load(dump)
        assert dst.table("t1").get("k") == {"payload": b"\x01\x02"}
        assert dst.table("t2").items() == [("U1/task", ["VS", "B001"])]
        assert dst.dump() == dump


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_batch_groups_writes_into_one_fsync(backend_cls):
    backend = backend_cls()
    table = backend.table("t")
    with backend.batch():
        table.put("a", 1)
        table.put("b", 2)
        with backend.batch():  # reentrant
            table.put("c", 3)
    assert backend.fsyncs == 1
    assert backend.writes == 3
    table.put("d", 4)  # unbatched: its own durable unit
    assert backend.fsyncs == 2


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_batch_rolls_back_on_error(backend_cls):
    backend = backend_cls()
    table, other, blobs = backend.table("t"), backend.table("o"), backend.blobs
    table.put("keep", "before")
    table.put("doomed", "still here")
    other.put("U1", {"n": 0})
    shared = blobs.put(b"shared body")
    kept = blobs.put(b"kept body")
    before = backend.dump()
    with pytest.raises(RuntimeError):
        with backend.batch():
            table.put("keep", "changed")
            table.put("new", "value")
            table.delete("doomed")
            other.put("U1/task", {"n": 1})
            other.delete("U1")
            blobs.put(b"shared body")       # a second reference
            blobs.put(b"brand new body")
            blobs.release(kept)             # would delete the body
            table.put("names-the-blob", {"files": {"f": shared}})
            raise RuntimeError("boom")
    assert table.get("keep") == "before"
    assert "new" not in table and "names-the-blob" not in table
    assert other.items() == [("U1", {"n": 0})]
    assert blobs.get(kept) == b"kept body"
    assert backend.dump() == before
    # No reference leaked: one release each empties the store.
    blobs.release(shared)
    blobs.release(kept)
    assert blobs.digests() == []


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_failed_record_put_takes_its_blob_with_it(backend_cls):
    backend = backend_cls()
    store = OutcomeStore(backend, "FZJ.outcomes")
    record = OutcomeRecord(
        job_id="U1", name="demo", user_dn="CN=a", status="successful",
        submitted_at=0.0, recovered=False, trace_id="",
        outcome_bytes=object(),  # not plain data: the record put fails
    )
    with pytest.raises(TypeError):
        store.put(record, {"out.dat": b"body"})
    assert backend.blobs.digests() == [] and store.get("U1") is None


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_blob_store_dedups_and_refcounts(backend_cls):
    backend = backend_cls()
    registry = MetricsRegistry()
    backend.bind_metrics(registry)
    blobs = backend.blobs
    body = b"\x00\xff" * 500
    digest = blobs.put(body)
    assert digest == hashlib.sha256(body).hexdigest()
    assert backend.bytes_written == len(body) and backend.writes == 1
    assert blobs.put(bytearray(body)) == digest
    # The second put only took a reference: a write of 0 bytes.
    assert backend.bytes_written == len(body) and backend.writes == 2
    assert backend.blob_dedup_hits == 1
    assert registry.counter("storage.blob.dedup_hits").value == 1
    assert blobs.get(digest) == body and digest in blobs and len(blobs) == 1
    assert backend.bytes_read == len(body)
    assert registry.counter("storage.bytes_read").value == len(body)
    blobs.release(digest)
    assert blobs.get(digest) == body
    blobs.release(digest)
    assert digest not in blobs and blobs.digests() == []
    with pytest.raises(StorageError):
        blobs.get(digest)
    with pytest.raises(StorageError):
        blobs.release(digest)


def test_memory_blob_store_keeps_the_callers_bytes_object():
    backend = MemoryBackend()
    body = b"x" * 4096
    assert backend.blobs.get(backend.blobs.put(body)) is body


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_load_refuses_a_blob_that_does_not_match_its_digest(backend_cls):
    src = MemoryBackend()
    digest = src.blobs.put(b"honest")
    dump = src.dump()
    dump["blobs"][digest]["body"] = to_plain(b"evil")
    dst = backend_cls()
    dst.table("t").put("k", 1)
    with pytest.raises(StorageError):
        dst.load(dump)
    assert dst.table("t").get("k") == 1  # refused before anything was cleared


def test_sqlite_file_survives_reopen(tmp_path):
    path = str(tmp_path / "site.db")
    first = SQLiteBackend(path)
    first.table("t").put("k", b"persisted")
    first.table("j").put("U1/task", {"seq": 1})
    digest = first.blobs.put(b"body")
    first.close()
    second = SQLiteBackend(path)
    assert second.table("t").get("k") == b"persisted"
    assert second.table("j").items() == [("U1/task", {"seq": 1})]
    assert second.blobs.get(digest) == b"body"


def test_counters_and_metrics_mirroring():
    backend = MemoryBackend()
    registry = MetricsRegistry()
    backend.bind_metrics(registry)
    backend.table("t").put("k", {"v": 1})
    backend.table("t").get("k")
    assert backend.writes == 1 and backend.reads == 1
    assert backend.bytes_written > 0 and backend.bytes_read > 0
    assert registry.counter("storage.writes").value == 1
    assert registry.counter("storage.reads").value == 1
    assert registry.counter("storage.fsyncs").value == backend.fsyncs
    assert registry.counter("storage.bytes").value == backend.bytes_written


# -- spec / registry ---------------------------------------------------------
def test_spec_parsing_spellings(monkeypatch):
    monkeypatch.delenv("REPRO_STORAGE", raising=False)
    assert StorageSpec.parse(None).kind == "memory"
    assert StorageSpec.parse("sqlite").kind == "sqlite"
    spec = StorageSpec.parse("sqlite:/tmp/x.db")
    assert spec.kind == "sqlite" and spec.options == {"path": "/tmp/x.db"}
    assert StorageSpec.parse(spec) is spec
    monkeypatch.setenv("REPRO_STORAGE", "sqlite")
    assert StorageSpec.parse(None).kind == "sqlite"
    with pytest.raises(TypeError):
        StorageSpec.parse(123)


def test_resolve_storage_by_kind():
    assert resolve_storage("memory").kind == "memory"
    assert resolve_storage("sqlite").kind == "sqlite"
    with pytest.raises(StorageError):
        resolve_storage("etcd")


# -- journal over storage ----------------------------------------------------
def _outcome(job_id):
    return OutcomeRecord(
        job_id=job_id, name="demo", user_dn="CN=b", status="successful",
        submitted_at=0.0, recovered=False, trace_id="", outcome_bytes=b"o",
    )


def _journal_with_traffic(backend):
    """U1 in flight with one delivery; U2 delivered, then finished."""
    journal = JobJournal(backend, name="njs.journal")
    outcomes = OutcomeStore(backend, "njs.outcomes")
    journal.record_consign("U1", b"ajo-1", "CN=a", trace_id="t1")
    journal.record_delivery("U1", "task", "VS", "B001")
    journal.record_consign("U2", b"ajo-2", "CN=b", workstation_files={"f": b"x"})
    journal.record_delivery("U2", "task", "VS", "B002")
    with backend.batch():
        journal.finish("U2")
        outcomes.put(_outcome("U2"), {})
    return journal, outcomes


def _seq(job_id):
    """Consignment order of the ids these tests issue (``U<n>[@site]``)."""
    return int(job_id[1:].partition("@")[0])


def _reborn(backend, outcomes):
    journal = JobJournal(backend, name="njs.journal")
    journal.reload(set(outcomes.job_ids()), _seq)
    return journal


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_journal_cold_reload_reads_only_what_is_in_flight(backend_cls):
    backend = backend_cls()
    journal, outcomes = _journal_with_traffic(backend)
    # Finishing retired U2 from memory and deleted its delivery row; its
    # consign row stays for queries until the job is disposed.
    assert len(journal) == 1 and journal.entry("U2") is None
    assert backend.table("njs.journal").keys() == ["U1", "U1/task", "U2"]
    # A brand-new journal over the same backend reads U1's two rows.
    reads = backend.reads
    reborn = _reborn(backend, outcomes)
    assert backend.reads == reads + 2
    assert len(reborn) == 1
    entry = reborn.entry("U1")
    assert entry.ajo_bytes == b"ajo-1" and entry.trace_id == "t1"
    assert entry.delivered == {"task": ("VS", "B001")}
    assert [e.job_id for e in reborn.incomplete()] == ["U1"]
    assert reborn.entry("U2") is None
    # The finished job's AJO is one read away, on demand.
    assert reborn.ajo_bytes("U2") == b"ajo-2"
    assert backend.reads == reads + 3
    with pytest.raises(StorageError):
        reborn.ajo_bytes("U3")
    # A delivery row whose consign row is gone has nothing to replay.
    backend.table("njs.journal").put("U9/task", ["VS", "B009"])
    assert len(_reborn(backend, outcomes)) == 1


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_journal_reload_keeps_consignment_order_past_the_id_padding(backend_cls):
    backend = backend_cls()
    journal = JobJournal(backend, name="njs.journal")
    ids = [f"U{seq:05d}@FZJ" for seq in (99998, 99999, 100000, 100001)]
    for job_id in ids:
        journal.record_consign(job_id, b"ajo", "CN=a")
    assert backend.table("njs.journal").keys() != ids  # text order differs
    reborn = JobJournal(backend, name="njs.journal")
    reborn.reload(set(), _seq)
    assert [e.job_id for e in reborn.incomplete()] == ids


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_journal_forget_deletes_every_row_of_the_job(backend_cls):
    backend = backend_cls()
    journal, outcomes = _journal_with_traffic(backend)
    journal.forget("U2")   # finished: the manifest comes from the row
    journal.forget("U1")   # still in flight: delivery rows go too
    journal.forget("U9")   # unknown: nothing to do
    assert backend.table("njs.journal").keys() == []
    assert backend.blobs.digests() == []
    assert len(journal) == 0 and len(_reborn(backend, outcomes)) == 0


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_journal_keeps_file_bodies_in_the_blob_store(backend_cls):
    backend = backend_cls()
    journal = JobJournal(backend, name="njs.journal")
    files = {"/home/a/in.dat": b"\x01" * 1000, "/home/a/copy.dat": b"\x01" * 1000}
    entry = journal.record_consign("U1", b"ajo", "CN=a", workstation_files=files)
    digest = hashlib.sha256(b"\x01" * 1000).hexdigest()
    assert entry.workstation_files == {path: digest for path in files}
    assert backend.blobs.digests() == [digest]
    # The consign row is metadata: it names the body, it does not hold it.
    assert backend.bytes_written < 1000 + 400
    read_before = backend.bytes_read
    reborn = JobJournal(backend, name="njs.journal")
    reborn.reload(set(), _seq)
    assert reborn.entry("U1").workstation_files == entry.workstation_files
    assert backend.bytes_read - read_before < 400
    assert reborn.staged_files(reborn.entry("U1")) == files
    reborn.forget("U1")
    assert backend.blobs.digests() == []


def test_record_naming_no_file_encodes_as_before_the_blob_store():
    backend = MemoryBackend()
    JobJournal(backend, name="j").record_consign("U1", b"ajo-1", "CN=a")
    assert backend.table("j").items() == [("U1", {
        "ajo_bytes": b"ajo-1",
        "user_dn": "CN=a", "workstation_files": {}, "trace_id": "",
        "parent_job_id": None, "forward_meta": None,
    })]
    assert backend.blobs.digests() == []


# -- outcome store -----------------------------------------------------------
def test_outcome_store_round_trip():
    backend = SQLiteBackend()
    store = OutcomeStore(backend, "FZJ.outcomes")
    record = OutcomeRecord(
        job_id="U1", name="demo", user_dn="CN=a", status="successful",
        submitted_at=12.5, recovered=True, trace_id="t1",
        outcome_bytes=b"outcome",
    )
    stored = store.put(record, {"stdout": b"hello\n"})
    assert stored.files == {"stdout": hashlib.sha256(b"hello\n").hexdigest()}
    fetched = OutcomeStore(backend, "FZJ.outcomes").get("U1")
    assert fetched == stored
    assert backend.blobs.get(fetched.files["stdout"]) == b"hello\n"
    assert store.job_ids() == ["U1"] and store.records(str) == [stored]
    store.forget("U1")
    assert store.get("U1") is None
    assert backend.blobs.digests() == []


def test_sqlite_refuses_a_file_of_another_format(tmp_path):
    import sqlite3

    path = str(tmp_path / "old.db")
    conn = sqlite3.connect(path)
    # The pre-blob-store layout: never stamped.
    conn.executescript(
        "CREATE TABLE kv (tbl TEXT, key TEXT, value BLOB, PRIMARY KEY (tbl, key));"
        "CREATE TABLE logs (log TEXT, seq INTEGER, value BLOB, PRIMARY KEY (log, seq));"
    )
    conn.close()
    with pytest.raises(StorageError) as caught:
        SQLiteBackend(path)
    assert caught.value.code == "storage.backend"
    # The layout that kept the journal as a log: stamped 2.
    conn = sqlite3.connect(path)
    conn.executescript(
        "CREATE TABLE blobs (digest TEXT PRIMARY KEY, refs INTEGER, body BLOB);"
        "PRAGMA user_version = 2;"
    )
    conn.close()
    with pytest.raises(StorageError) as caught:
        SQLiteBackend(path)
    assert caught.value.code == "storage.backend" and "format 2" in str(caught.value)
    with pytest.raises(StorageError):
        resolve_storage(f"sqlite:{path}")
