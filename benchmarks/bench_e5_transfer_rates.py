"""E5 — section 5.6: Uspace-to-Uspace transfer rates on the data plane.

Paper claim: "The file transfer between Uspaces has to be accomplished
through NJS – NJS communication via the gateway ... As this solution has
disadvantages with respect to transfer rates especially for huge data
sets UNICORE is working on alternatives."

The wire is now split into a control plane (small protocol messages)
and a data plane (chunked, binary-framed streams).  This experiment
measures what that split buys over the pre-split shape, where a file
travelled as one monolithic base64-in-JSON message:

1. **Framing overhead** — wire bytes per payload byte, per payload size
   and chunk size.  Binary frames carry file bytes raw, so the ratio
   converges to ~1.0 (frame headers plus SSL record framing); base64
   JSON floors at ~4/3.
2. **Control-plane latency under load** — a small control message sent
   mid-transfer queues behind at most one chunk per hop, not behind the
   whole file.  The monolithic shape would block it for the full
   serialization of the data set.

Expected shape: overhead ratio falls with payload size and is below
1.05 from 1 MiB up at the default chunk size; the mid-transfer control
delay is bounded by a few chunk serializations while the monolithic
bound grows linearly with the data set.
"""

import pytest

from benchmarks._util import print_table, run_as_script, smoke_mode
from repro.grid import build_grid
from repro.protocol.datapath import DEFAULT_CHUNK_BYTES
from repro.security.ssl import SSLSession
from repro.server.njs.peerlink import TransferAck

WAN_BW = 1_250_000.0  # 10 Mbit/s
WAN_LAT = 0.015
HOPS = 3  # NJS -> gateway -> peer gateway -> NJS

SIZES = [1 << 16, 1 << 20, 1 << 24, 1 << 27]
CHUNK_SIZES = [1 << 16, DEFAULT_CHUNK_BYTES, 1 << 20]
PROBE_STREAM_BYTES = 1 << 24

SMOKE_SIZES = [1 << 18, 1 << 20]
SMOKE_CHUNK_SIZES = [DEFAULT_CHUNK_BYTES]
SMOKE_PROBE_STREAM_BYTES = 1 << 22


def _legacy_wire_bytes(size: int) -> int:
    """The pre-split shape: file bytes base64'd into a JSON envelope."""
    b64 = 4 * -(-size // 3)
    return SSLSession.wire_bytes(b64 + 64)


def _build():
    return build_grid(
        {"A": ["FZJ-T3E"], "B": ["ZIB-SP2"]},
        seed=4, wan_latency_s=WAN_LAT, wan_bandwidth_Bps=WAN_BW,
    )


def _warm(njs_a):
    """Pay the route's SSL handshake before anything is measured."""
    yield from njs_a.peers.stream(
        "B", b"warm",
        {"kind": "forward-stage", "job": "warm", "path": "warm.dat"},
    )


def _measure_transfer(size: int, chunk_bytes: int) -> dict:
    """One streamed Uspace transfer A->B; time and per-hop wire bytes."""
    grid = _build()
    njs_a = grid.usites["A"].njs
    content = b"\xa5" * size
    result: dict = {}

    def scenario(sim):
        yield from _warm(njs_a)
        base_bytes = grid.network.total_bytes_sent()
        corr, reply_ev = njs_a.peers.expect("e5-ack")
        t0 = sim.now
        yield from njs_a.peers.stream(
            "B", content,
            {
                "kind": "uspace-file", "job": "U1@A", "path": "big.dat",
                "reply": "A", "corr": corr,
            },
            chunk_bytes=chunk_bytes,
        )
        ack = yield reply_ev
        assert ack.ok
        result["time_s"] = sim.now - t0
        # The same frames crossed all three hops (plus the small ack).
        result["wire_per_hop"] = (
            (grid.network.total_bytes_sent() - base_bytes) / HOPS
        )

    p = grid.sim.process(scenario(grid.sim))
    grid.sim.run(until=p)
    return result


def _control_delay(chunk_bytes: int, stream_bytes: int, busy: bool) -> float:
    """Route time of one small control message, idle or mid-stream."""
    grid = _build()
    njs_a = grid.usites["A"].njs
    result: dict = {}

    def scenario(sim):
        yield from _warm(njs_a)
        if busy:
            sim.process(
                njs_a.peers.stream(
                    "B", b"\x5a" * stream_bytes,
                    {"kind": "forward-stage", "job": "bulk", "path": "bulk.dat"},
                    chunk_bytes=chunk_bytes,
                ),
                name="bulk-stream",
            )
            # Probe mid-transfer, once the stream is in full flight.
            yield sim.timeout(2.0)
        probe = TransferAck(corr_id=999_999, ok=True)
        t0 = sim.now
        yield from njs_a.peers.send("B", probe)
        result["t"] = sim.now - t0

    p = grid.sim.process(scenario(grid.sim))
    grid.sim.run(until=p)
    return result["t"]


@pytest.mark.benchmark(group="E5-transfer-rates")
def test_e5_streaming_overhead_and_rates(benchmark):
    sizes = SMOKE_SIZES if smoke_mode() else SIZES
    chunks = SMOKE_CHUNK_SIZES if smoke_mode() else CHUNK_SIZES
    results: dict = {}

    def run():
        results.clear()
        for size in sizes:
            for chunk in chunks:
                results[(size, chunk)] = _measure_transfer(size, chunk)

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for size in sizes:
        for chunk in chunks:
            r = results[(size, chunk)]
            ratio = r["wire_per_hop"] / size
            legacy = _legacy_wire_bytes(size) / size
            rows.append((
                f"{size >> 10} KiB" if size < 1 << 20 else f"{size >> 20} MiB",
                f"{chunk >> 10} KiB",
                f"{r['time_s']:9.2f}",
                f"{size / r['time_s'] / 1e3:8.1f}",
                f"{ratio:6.4f}",
                f"{legacy:6.4f}",
            ))
    print_table(
        "E5: streamed Uspace->Uspace transfer via both gateways "
        f"({WAN_BW * 8 / 1e6:.0f} Mbit/s WAN)",
        ["size", "chunk", "time (s)", "KB/s", "wire/payload",
         "legacy b64-JSON"],
        rows,
    )

    default = {
        size: results[(size, DEFAULT_CHUNK_BYTES)]
        for size in sizes
        if (size, DEFAULT_CHUNK_BYTES) in results
    }
    # The headline gate: at the default chunk size, framing overhead is
    # within 5% from 1 MiB up — against the legacy floor of ~33%.
    for size, r in default.items():
        if size >= 1 << 20:
            assert r["wire_per_hop"] / size <= 1.05
        assert _legacy_wire_bytes(size) / size > 1.3
    # Overhead shrinks as payloads grow (headers amortize).
    ordered = [default[s]["wire_per_hop"] / s for s in sorted(default)]
    assert ordered[-1] <= ordered[0]
    # Throughput is WAN-limited, not protocol-limited: the biggest
    # transfer achieves at least half the raw link rate end to end.
    big = max(default)
    assert big / default[big]["time_s"] > 0.5 * WAN_BW


@pytest.mark.benchmark(group="E5-transfer-rates")
def test_e5_control_plane_latency_under_bulk_transfer(benchmark):
    chunk = DEFAULT_CHUNK_BYTES
    stream_bytes = (
        SMOKE_PROBE_STREAM_BYTES if smoke_mode() else PROBE_STREAM_BYTES
    )
    delays: dict = {}

    def run():
        delays["idle"] = _control_delay(chunk, stream_bytes, busy=False)
        delays["busy"] = _control_delay(chunk, stream_bytes, busy=True)

    benchmark.pedantic(run, rounds=1, iterations=1)

    chunk_tx = chunk / WAN_BW
    monolithic_tx = stream_bytes / WAN_BW
    extra = delays["busy"] - delays["idle"]
    print_table(
        "E5: control-message route time during a "
        f"{stream_bytes >> 20} MiB bulk transfer",
        ["probe", "delay (s)"],
        [
            ("idle link", f"{delays['idle']:7.3f}"),
            ("mid-transfer", f"{delays['busy']:7.3f}"),
            ("extra wait", f"{extra:7.3f}"),
            ("one chunk serialization", f"{chunk_tx:7.3f}"),
            ("monolithic message bound", f"{monolithic_tx:7.3f}"),
        ],
    )

    # Chunks interleave with control traffic: the control message waits
    # at most ~one chunk serialization per hop, never the whole file.
    assert extra <= 3 * chunk_tx + 0.05
    assert extra < 0.05 * monolithic_tx


if __name__ == "__main__":
    run_as_script(
        test_e5_streaming_overhead_and_rates,
        test_e5_control_plane_latency_under_bulk_transfer,
    )
