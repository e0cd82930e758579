"""Unit tests for the simulated network and https channels."""

import pytest

from repro.net import (
    ConnectionLost,
    DirectChannel,
    HostUnreachable,
    Network,
    NetworkError,
    establish_https,
)
from repro.net.sim_transport import DEFAULT_TIMEOUT
from repro.security import CertificateAuthority, CertificateStore, DistinguishedName
from repro.security.ssl import HANDSHAKE_ROUND_TRIPS, SSLSession
from repro.security.x509 import CertificateRole
from repro.simkernel import Simulator


def make_net(loss=0.0, latency=0.01, bandwidth=1_000_000.0, seed=0):
    sim = Simulator()
    net = Network(sim, seed=seed)
    net.add_host("client")
    net.add_host("server")
    net.link("client", "server", latency_s=latency, bandwidth_Bps=bandwidth,
             loss_probability=loss)
    return sim, net


# ---------------------------------------------------------------- topology
def test_duplicate_host_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    with pytest.raises(NetworkError):
        net.add_host("a")


def test_unknown_host_and_link():
    sim, net = make_net()
    with pytest.raises(HostUnreachable):
        net.host("ghost")
    with pytest.raises(HostUnreachable):
        net.send("client", "ghost", "x", 10)
    net.add_host("island")
    with pytest.raises(HostUnreachable):
        net.send("client", "island", "x", 10)


def test_link_parameter_validation():
    sim, net = make_net()
    net.add_host("c")
    with pytest.raises(NetworkError):
        net.link("client", "c", latency_s=-1)
    with pytest.raises(NetworkError):
        net.link("client", "c", bandwidth_Bps=0)
    with pytest.raises(NetworkError):
        net.link("client", "c", loss_probability=1.0)


# ----------------------------------------------------------------- delivery
def test_delivery_time_latency_plus_transmission():
    sim, net = make_net(latency=0.05, bandwidth=1000.0)
    ev = net.send("client", "server", "hello", 500)  # tx = 0.5s
    sim.run(until=ev)
    assert sim.now == pytest.approx(0.55)


def test_message_lands_in_inbox():
    sim, net = make_net()

    def receiver(sim, host):
        msg = yield host.receive()
        return msg.payload

    host = net.host("server")
    p = sim.process(receiver(sim, host))
    net.send("client", "server", {"job": 1}, 100)
    assert sim.run(until=p) == {"job": 1}
    assert host.received_messages == 1
    assert host.received_bytes == 100


def test_serve_hands_over_earlier_arrivals_in_order_then_dispatches():
    sim, net = make_net()
    host = net.host("server")
    for n in (1, 2):
        net.send("client", "server", n, 10)
    sim.run()
    assert len(host.inbox) == 2  # nothing serves the host: a mailbox
    seen = []
    host.serve(lambda message: seen.append((message.payload, sim.now)))
    assert [payload for payload, _ in seen] == [1, 2] and not len(host.inbox)
    events = sim.processed_events
    sent = net.send("client", "server", 3, 10)
    sim.run()
    # Delivery is the dispatch: one entry, at the arrival instant.
    assert seen[2] == (3, sim.now) and sent.processed
    assert sim.processed_events - events == 1 and not len(host.inbox)


def test_deliver_false_skips_inbox():
    sim, net = make_net()
    host = net.host("server")
    ev = net.send("client", "server", "hs", 100, deliver=False)
    sim.run(until=ev)
    assert host.received_messages == 0
    assert net.get_link("client", "server").messages_sent == 1


def test_fifo_link_serialization():
    """Two bulk messages share the link: the second waits for the first."""
    sim, net = make_net(latency=0.0, bandwidth=1000.0)
    e1 = net.send("client", "server", "a", 1000)  # 1s
    e2 = net.send("client", "server", "b", 1000)  # queued behind
    times = []
    e1.callbacks.append(lambda e: times.append(sim.now))
    e2.callbacks.append(lambda e: times.append(sim.now))
    sim.run()
    assert times == [pytest.approx(1.0), pytest.approx(2.0)]


def test_loss_fails_event_after_timeout():
    sim, net = make_net(loss=0.999, seed=1)
    ev = net.send("client", "server", "doomed", 100)
    with pytest.raises(ConnectionLost):
        sim.run(until=ev)
    assert sim.now >= DEFAULT_TIMEOUT
    assert net.total_messages_lost() == 1


def test_loss_is_deterministic_per_seed():
    def run(seed):
        sim, net = make_net(loss=0.5, seed=seed)
        results = []
        for _ in range(20):
            ev = net.send("client", "server", "x", 10)
            ev.callbacks.append(lambda e: results.append(e.ok if e.triggered else None))
            ev.defuse()
        sim.run()
        return net.total_messages_lost()

    assert run(7) == run(7)
    # Not a hard guarantee in general, but with 20 draws at p=.5 two seeds
    # virtually never tie on the exact same loss pattern AND count; accept
    # equality of counts as long as the streams differ somewhere.
    sim_a, net_a = make_net(loss=0.5, seed=1)
    sim_b, net_b = make_net(loss=0.5, seed=2)


def test_symmetric_links_independent_stats():
    sim, net = make_net()
    e = net.send("server", "client", "reply", 42)
    sim.run(until=e)
    assert net.get_link("server", "client").bytes_sent == 42
    assert net.get_link("client", "server").bytes_sent == 0


def test_total_bytes_accounting():
    sim, net = make_net()
    net.send("client", "server", "a", 100)
    net.send("client", "server", "b", 200)
    sim.run()
    assert net.total_bytes_sent() == 300


# ------------------------------------------------------------------- https
@pytest.fixture(scope="module")
def pki():
    ca = CertificateAuthority(key_bits=384, seed=21)
    store = CertificateStore(trusted=[ca])
    c_cert, c_key = ca.issue(DistinguishedName(cn="Client"), role=CertificateRole.USER)
    s_cert, s_key = ca.issue(
        DistinguishedName(cn="server.site"), role=CertificateRole.SERVER
    )
    return dict(
        client_cert=c_cert, client_key=c_key,
        server_cert=s_cert, server_key=s_key,
        client_store=store, server_store=store,
    )


def _establish(sim, net, pki, **kw):
    def proc(sim):
        channel = yield from establish_https(
            sim, net, "client", "server", **pki, **kw
        )
        return channel

    return sim.process(proc(sim))


def test_https_establish_costs_round_trips(pki):
    sim, net = make_net(latency=0.1, bandwidth=1e9)
    p = _establish(sim, net, pki)
    channel = sim.run(until=p)
    # 2 round trips x 2 x latency, transmission negligible at 1 GB/s.
    assert sim.now == pytest.approx(HANDSHAKE_ROUND_TRIPS * 2 * 0.1, rel=0.01)
    assert channel.session.client.peer_certificate == pki["server_cert"]


def test_https_send_includes_framing_and_cpu(pki):
    sim, net = make_net(latency=0.0, bandwidth=1e6)
    p = _establish(sim, net, pki)
    channel = sim.run(until=p)
    start = sim.now
    payload_size = 100_000
    ev = channel.send("bulk", payload_size, deliver=False)
    sim.run(until=ev)
    elapsed = sim.now - start
    records = SSLSession.record_count(payload_size)
    wire = SSLSession.wire_bytes(payload_size)
    expected = wire / 1e6 + 2 * records * channel.per_record_cpu_s
    assert elapsed == pytest.approx(expected, rel=1e-6)
    assert channel.wire_bytes == wire
    assert channel.payload_bytes == payload_size


def test_https_rejects_rogue_server():
    sim, net = make_net()
    good_ca = CertificateAuthority(key_bits=384, seed=31)
    rogue_ca = CertificateAuthority(name="Rogue CA", key_bits=384, seed=32)
    store = CertificateStore(trusted=[good_ca])
    c_cert, c_key = good_ca.issue(
        DistinguishedName(cn="Client"), role=CertificateRole.USER
    )
    s_cert, s_key = rogue_ca.issue(
        DistinguishedName(cn="evil.site"), role=CertificateRole.SERVER
    )
    pki = dict(
        client_cert=c_cert, client_key=c_key,
        server_cert=s_cert, server_key=s_key,
        client_store=store, server_store=store,
    )
    from repro.security import AuthenticationError

    p = _establish(sim, net, pki)
    with pytest.raises(AuthenticationError):
        sim.run(until=p)


def test_direct_channel_setup_and_raw_send():
    sim, net = make_net(latency=0.05, bandwidth=1e6)

    def proc(sim):
        channel = yield from DirectChannel.establish(sim, net, "client", "server")
        setup_done = sim.now
        yield channel.send("bulk", 1_000_000, deliver=False)
        return setup_done, sim.now

    p = sim.process(proc(sim))
    setup_done, total = sim.run(until=p)
    assert setup_done == pytest.approx(2 * 0.05, rel=0.01)  # one RTT
    assert total - setup_done == pytest.approx(1.0 + 0.05, rel=0.01)


def test_https_server_to_client_direction(pki):
    sim, net = make_net()
    p = _establish(sim, net, pki)
    channel = sim.run(until=p)

    def receiver(sim):
        msg = yield net.host("client").receive()
        return msg.payload

    r = sim.process(receiver(sim))
    channel.send("outcome", 500, to_server=False)
    assert sim.run(until=r) == "outcome"
