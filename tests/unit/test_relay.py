"""``Network.relay``: a crossing that delivers nothing holds the link as a
send would, and places no event."""

import pytest

from repro.faults.plan import FaultTargets
from repro.grid import build_grid
from repro.net import Network, NetworkError
from repro.net.aio_transport import AioTransport
from repro.simkernel import Simulator

SIZE = 50_000


def _net():
    """``nj -> gw -> wan``: a fast inner edge in front of a slow outer one."""
    sim = Simulator()
    net = Network(sim, seed=5)
    for name in ("nj", "gw", "wan"):
        net.add_host(name)
    net.link("nj", "gw", latency_s=0.0005, bandwidth_Bps=12_500_000.0)
    net.link("gw", "wan", latency_s=0.015, bandwidth_Bps=1_250_000.0)
    return sim, net


def _queue_ahead(net, sends):
    """``sends`` messages already waiting on the ``nj -> gw`` edge."""
    for i in range(sends):
        net.send("nj", "gw", ("ahead", i), SIZE, deliver=False)


def _chained(sends, delay_s, start):
    """Arrival time at ``wan`` of a send to ``gw`` and, once it is there,
    a send on to ``wan``."""
    sim, net = _net()

    def hops(sim):
        yield sim.timeout(start)
        _queue_ahead(net, sends)
        yield net.send("nj", "gw", "x", SIZE, deliver=False, delay_s=delay_s)
        yield net.send("gw", "wan", "x", SIZE)
        return sim.now

    return sim.run(until=sim.process(hops(sim)))


def _relayed(sends, delay_s, start):
    """The same with the first hop relayed and folded into the second."""
    sim, net = _net()

    def hops(sim):
        yield sim.timeout(start)
        _queue_ahead(net, sends)
        across = net.relay("nj", "gw", SIZE, delay_s)
        yield net.send("gw", "wan", "x", SIZE, delay_s=across)
        return sim.now

    return sim.run(until=sim.process(hops(sim)))


@pytest.mark.parametrize("sends", [0, 2], ids=["idle", "behind-two-sends"])
@pytest.mark.parametrize("delay_s", [0.0, 0.004])
def test_relay_then_send_arrives_when_two_chained_sends_do(sends, delay_s):
    for start in (0.0, 1234.5678):
        assert _relayed(sends, delay_s, start) == _chained(sends, delay_s, start)


def test_relay_counts_and_takes_a_message_id_as_a_send_does():
    sim, relayed = _net()
    _, sent = _net()
    link = relayed.get_link("nj", "gw")
    seconds = relayed.relay("nj", "gw", SIZE)
    sent.send("nj", "gw", "x", SIZE, deliver=False)
    assert seconds == pytest.approx(SIZE / 12_500_000.0 + 0.0005)
    assert (link.bytes_sent, link.messages_sent) == (SIZE, 1)
    assert relayed.total_bytes_sent() == sent.total_bytes_sent()
    assert relayed.state_cursors() == sent.state_cursors()  # the next id
    # ... and no event: nothing is due, nothing is delivered.
    assert sim.profile()["heap_size"] == 0
    assert relayed.host("gw").received_messages == 0


def test_relay_refuses_a_lossy_edge():
    sim, net = _net()
    net.link("gw", "wan", loss_probability=0.1)
    with pytest.raises(NetworkError) as refused:
        net.relay("gw", "wan", SIZE)
    assert refused.value.code == "net.error"
    assert net.get_link("gw", "wan").messages_sent == 0
    with pytest.raises(NetworkError):
        net.relay("nj", "gw", -1)


def test_the_real_socket_backend_relays_as_the_simulated_one():
    assert AioTransport.relay is Network.relay


def test_chaos_never_targets_a_firewall_socket():
    """Only WAN edges are fault targets, so no relayed edge turns lossy."""
    grid = build_grid({"FZJ": ["FZJ-T3E"], "ZIB": ["ZIB-SP2"]}, seed=7)
    sockets = {
        frozenset((usite.gateway_host.name, usite.njs_host.name))
        for usite in grid.usites.values()
    }
    targets = FaultTargets.from_grid(grid)
    assert targets.wan_links
    assert not {frozenset(link.split("|")) for link in targets.wan_links} & sockets
