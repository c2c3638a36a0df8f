"""Unit tests for the network substrate."""

import pytest

from repro.netsim.models import LinkModel, ethernet_1g, infiniband, loopback
from repro.netsim.transport import Endpoint
from repro.simenv.cluster import Cluster, ClusterSpec
from repro.simenv.kernel import Delay
from repro.util.errors import NetworkError
from tests.conftest import run_gen


class TestLinkModels:
    def test_transfer_time_components(self):
        model = LinkModel("x", latency_s=1e-5, bandwidth_Bps=1e8, per_msg_overhead_s=1e-6)
        assert model.transmit_time(0) == pytest.approx(1e-6)
        assert model.transmit_time(1_000_000) == pytest.approx(1e-6 + 0.01)
        assert model.transfer_time(0) == pytest.approx(1.1e-5)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ethernet_1g().transmit_time(-1)

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            LinkModel("x", latency_s=-1, bandwidth_Bps=1)
        with pytest.raises(ValueError):
            LinkModel("x", latency_s=0, bandwidth_Bps=0)

    def test_paper_testbed_relationships(self):
        eth, ib = ethernet_1g(), infiniband()
        # IB: an order of magnitude lower latency, much higher bandwidth.
        assert ib.latency_s * 5 <= eth.latency_s
        assert ib.bandwidth_Bps >= 5 * eth.bandwidth_Bps
        assert eth.checkpointable and not ib.checkpointable
        assert loopback().checkpointable


class TestFabric:
    def _pair(self, cluster):
        eth = cluster.eth
        a = eth.bind("node00", "pA")
        b = eth.bind("node01", "pB")
        return eth, a, b

    def test_send_recv_roundtrip(self, cluster):
        eth, a, b = self._pair(cluster)

        def main():
            yield from eth.send(a, b, {"x": 1}, 100)
            dgram = yield from eth.recv(b)
            return dgram

        dgram = run_gen(cluster.kernel, main())
        assert dgram.payload == {"x": 1}
        assert dgram.src == a and dgram.dst == b
        assert cluster.kernel.now >= eth.model.transfer_time(100)

    def test_in_order_delivery(self, cluster):
        eth, a, b = self._pair(cluster)

        def sender():
            for i in range(10):
                yield from eth.send(a, b, i, 50)

        def receiver():
            got = []
            for _ in range(10):
                dgram = yield from eth.recv(b)
                got.append(dgram.payload)
            return got

        cluster.kernel.spawn(sender(), "s")
        thread = cluster.kernel.spawn(receiver(), "r")
        cluster.kernel.run()
        assert thread.result == list(range(10))

    def test_nic_serialization_spreads_transmissions(self, cluster):
        """Two concurrent large sends from one node serialize on the NIC."""
        eth = cluster.eth
        a = eth.bind("node00", "p")
        b = eth.bind("node01", "p")
        size = 1_000_000

        def send_two():
            # Two threads sending concurrently from the same NIC.
            done = []

            def one():
                yield from eth.send(a, b, "x", size)
                done.append(cluster.kernel.now)

            cluster.kernel.spawn(one(), "s1")
            cluster.kernel.spawn(one(), "s2")
            yield from eth.recv(b)
            yield from eth.recv(b)
            return done

        done = run_gen(cluster.kernel, send_two())
        one_tx = eth.model.transmit_time(size)
        assert max(done) >= 2 * one_tx * 0.99

    def test_unbound_destination_drops(self, cluster):
        eth = cluster.eth
        a = eth.bind("node00", "p")
        ghost = Endpoint("node01", "ghost")

        def main():
            yield from eth.send(a, ghost, "x", 10)

        run_gen(cluster.kernel, main())
        assert eth.dropped == 1
        assert eth.delivered == 0

    def test_down_node_drops(self, cluster):
        eth = cluster.eth
        a = eth.bind("node00", "p")
        b = eth.bind("node01", "p")

        def main():
            cluster.node("node01").crash()
            yield from eth.send(a, b, "x", 10)

        run_gen(cluster.kernel, main())
        assert eth.dropped == 1

    def test_send_from_down_node_raises(self, cluster):
        eth = cluster.eth
        a = eth.bind("node00", "p")
        b = eth.bind("node01", "p")
        cluster.node("node00").crash()

        def main():
            yield from eth.send(a, b, "x", 10)

        with pytest.raises(NetworkError):
            run_gen(cluster.kernel, main())

    def test_double_bind_rejected(self, cluster):
        cluster.eth.bind("node00", "p")
        with pytest.raises(NetworkError):
            cluster.eth.bind("node00", "p")

    def test_bind_unknown_node_rejected(self, cluster):
        with pytest.raises(NetworkError):
            cluster.eth.bind("nodeXX", "p")

    def test_unbind_then_recv_rejected(self, cluster):
        ep = cluster.eth.bind("node00", "p")
        cluster.eth.unbind(ep)

        def main():
            yield from cluster.eth.recv(ep)

        with pytest.raises(NetworkError):
            run_gen(cluster.kernel, main())

    def test_try_recv_and_pending(self, cluster):
        eth, a, b = self._pair(cluster)
        ok, _ = eth.try_recv(b)
        assert not ok

        def main():
            yield from eth.send(a, b, "z", 10)

        run_gen(cluster.kernel, main())
        assert eth.pending(b) == 1
        ok, dgram = eth.try_recv(b)
        assert ok and dgram.payload == "z"

    def test_in_flight_accounting_returns_to_zero(self, cluster):
        eth, a, b = self._pair(cluster)

        def main():
            for _ in range(5):
                yield from eth.send(a, b, "m", 1000)
            for _ in range(5):
                yield from eth.recv(b)

        run_gen(cluster.kernel, main())
        assert eth.in_flight == 0
        assert eth.delivered == 5

    def test_nic_counters(self, cluster):
        eth, a, b = self._pair(cluster)

        def main():
            yield from eth.send(a, b, "m", 123)
            yield from eth.recv(b)

        run_gen(cluster.kernel, main())
        nic_a = cluster.node("node00").nics["eth"]
        nic_b = cluster.node("node01").nics["eth"]
        assert nic_a.tx_msgs == 1 and nic_a.tx_bytes == 123
        assert nic_b.rx_msgs == 1 and nic_b.rx_bytes == 123


class TestInFlightMessages:
    """What happens to a message between send and delivery: a sender
    that dies before the message is on the wire loses it; once on the
    wire it is delivered unless the destination is gone."""

    BIG = 100_000_000  # ~0.8 s of serialization on eth

    def _pair(self, cluster):
        eth = cluster.eth
        return eth, eth.bind("node00", "pA"), eth.bind("node01", "pB")

    def test_sender_killed_before_on_wire_drops(self, cluster):
        eth, a, b = self._pair(cluster)
        kernel = cluster.kernel

        def main():
            yield from eth.send(a, b, "x", self.BIG)

        thread = kernel.spawn(main(), "s")
        kernel.call_at(1e-6, thread.kill)
        kernel.run()
        assert (eth.in_flight, eth.delivered, eth.dropped) == (0, 0, 1)
        assert eth.pending(b) == 0

    def test_posted_sender_dead_before_on_wire_drops(self, cluster):
        eth, a, b = self._pair(cluster)
        kernel = cluster.kernel
        alive = [True]
        on_wire = []
        eth.post(a, b, "x", self.BIG, lambda: on_wire.append(kernel.now),
                 lambda: alive[0])
        assert eth.in_flight == 1
        kernel.call_at(1e-6, lambda: alive.__setitem__(0, False))
        kernel.run()
        assert (eth.in_flight, eth.delivered, eth.dropped) == (0, 0, 1)
        assert on_wire == [] and eth.pending(b) == 0

    def test_sender_dead_after_on_wire_still_delivered(self, cluster):
        eth, a, b = self._pair(cluster)
        kernel = cluster.kernel
        tx = eth.model.transmit_time(1000)
        alive = [True]
        on_wire = []
        eth.post(a, b, "p", 1000, lambda: on_wire.append(kernel.now),
                 lambda: alive[0])

        def main():
            yield from eth.send(a, b, "s", 1000)
            yield Delay(1.0)  # killed here, after the message left

        thread = kernel.spawn(main(), "s")
        # Both messages are on the wire by 2*tx and land latency later.
        kill_at = 2 * tx + eth.model.latency_s / 2
        kernel.call_at(kill_at, thread.kill)
        kernel.call_at(kill_at, lambda: alive.__setitem__(0, False))
        kernel.run()
        assert on_wire == [tx]
        assert (eth.in_flight, eth.delivered, eth.dropped) == (0, 2, 0)
        assert [eth.try_recv(b)[1].payload for _ in range(2)] == ["p", "s"]

    def test_destination_node_death_drops(self, cluster):
        eth, a, b = self._pair(cluster)
        kernel = cluster.kernel
        on_wire = []
        eth.post(a, b, "x", 10_000, lambda: on_wire.append(kernel.now),
                 lambda: True)
        kernel.call_at(1e-6, cluster.node("node01").crash)
        kernel.run()
        # the sender lived: its message left, then found no one home
        assert len(on_wire) == 1
        assert (eth.in_flight, eth.delivered, eth.dropped) == (0, 0, 1)

    def test_post_times_match_blocking_send(self):
        """Same NIC queueing and the same float arithmetic: a posted and
        a blocking send of one size are on the wire and delivered at
        bit-identical times."""
        times = {}
        for mode in ("send", "post"):
            cluster = Cluster(ClusterSpec(n_nodes=2))
            eth, a, b = self._pair(cluster)
            kernel = cluster.kernel
            wire = []
            for size in (1000, 65_537, 1 << 20):
                if mode == "post":
                    eth.post(a, b, size, size, lambda: wire.append(kernel.now),
                             lambda: True)
                else:
                    def one(size=size):
                        yield from eth.send(a, b, size, size)
                        wire.append(kernel.now)

                    kernel.spawn(one(), f"s{size}")

            def drain():
                got = []
                for _ in range(3):
                    yield from eth.recv(b)
                    got.append(kernel.now)
                return got

            landed = run_gen(kernel, drain())
            times[mode] = (wire, landed)
        assert times["post"] == times["send"]

    def test_post_from_down_node_raises(self, cluster):
        eth, a, b = self._pair(cluster)
        cluster.node("node00").crash()
        with pytest.raises(NetworkError):
            eth.post(a, b, "x", 10, None, lambda: True)
        assert eth.in_flight == 0


class TestClusterTopology:
    def test_default_fabrics(self, cluster):
        assert set(cluster.fabrics) == {"eth", "ib", "lo"}

    def test_no_infiniband_option(self):
        cluster = Cluster(ClusterSpec(n_nodes=2, with_infiniband=False))
        assert set(cluster.fabrics) == {"eth", "lo"}

    def test_every_node_on_every_fabric(self, cluster):
        for node in cluster.nodes:
            assert set(node.nics) == {"eth", "ib", "lo"}

    def test_node_lookup(self, cluster):
        assert cluster.node(0) is cluster.node("node00")
        with pytest.raises(KeyError):
            cluster.node("nodeXY")
        with pytest.raises(KeyError):
            cluster.fabric("myrinet")

    def test_rng_streams_deterministic(self, cluster):
        a1 = cluster.rng("s").uniform()
        a2 = Cluster(ClusterSpec(n_nodes=4)).rng("s").uniform()
        assert a1 == a2
        assert cluster.rng("other").uniform() != a1

    def test_rng_streams_persistent(self, cluster):
        """Repeated cluster.rng() calls return ONE stream that advances
        state — the Poisson-process fix: re-seeding per call would draw
        the identical first sample forever."""
        assert cluster.rng("s") is cluster.rng("s")
        draws = [cluster.rng("s").uniform() for _ in range(4)]
        assert len(set(draws)) == len(draws)
        # a fresh same-seed cluster reproduces the full sequence
        other = Cluster(ClusterSpec(n_nodes=4))
        assert [other.rng("s").uniform() for _ in range(4)] == draws
