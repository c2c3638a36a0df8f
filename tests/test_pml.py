"""In-simulation tests of the ob1 PML: protocols, wildcards, BTL
selection, pre-init buffering."""

import numpy as np
import pytest

from repro.apps.registry import _APPS
from repro.mca.params import MCAParams
from repro.tools.api import ompi_run
from repro.util.errors import MPIError
from tests.conftest import make_universe


def define_app(name, fn):
    """Register (or replace) a test application."""
    _APPS[name] = fn
    return name


class TestEagerAndRendezvous:
    def test_small_message_uses_eager(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(b"x" * 100, 1, 1)
            else:
                payload, status = yield from ctx.recv(0, 1)
                assert status.nbytes == 100
                return len(payload)

        define_app("t_eager", main)
        job = ompi_run(universe, "t_eager", 2)
        assert job.results[1] == 100

    def test_large_message_uses_rendezvous(self):
        universe = make_universe(2)
        stats = {}

        def main(ctx):
            big = np.zeros(200_000, dtype=np.uint8)
            if ctx.rank == 0:
                yield from ctx.send(big, 1, 1)
                stats.update(ctx._runner.ompi.pml_base.stats)
            else:
                payload, status = yield from ctx.recv(0, 1)
                assert status.nbytes == 200_000
                return int(payload.sum())

        define_app("t_rndv", main)
        job = ompi_run(universe, "t_rndv", 2)
        assert job.results[1] == 0
        assert stats["rndv_sent"] == 1
        assert stats["eager_sent"] == 0

    def test_eager_limit_parameter(self):
        universe = make_universe(2)
        stats = {}

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(b"y" * 2000, 1, 1)
                stats.update(ctx._runner.ompi.pml_base.stats)
            else:
                yield from ctx.recv(0, 1)

        define_app("t_limit", main)
        ompi_run(universe, "t_limit", 2, params=MCAParams({"pml_ob1_eager_limit": "1000"}))
        assert stats["rndv_sent"] == 1

    def test_eager_payload_is_copied(self):
        """Sender buffer reuse after eager send must not corrupt the
        receiver's data (MPI semantics)."""
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                buf = np.arange(10)
                req = yield ctx.isend(buf, 1, 1)
                yield ctx.wait(req)
                buf[:] = -1  # reuse after completion
                yield from ctx.barrier()
            else:
                yield from ctx.barrier()
                payload, _ = yield from ctx.recv(0, 1)
                return payload.tolist()

        define_app("t_copy", main)
        job = ompi_run(universe, "t_copy", 2)
        assert job.results[1] == list(range(10))


class TestWildcardsAndProbe:
    def test_any_source(self):
        universe = make_universe(4)

        def main(ctx):
            if ctx.rank == 0:
                sources = []
                for _ in range(3):
                    _payload, status = yield from ctx.recv(ctx.ANY_SOURCE, 5)
                    sources.append(status.source)
                return sorted(sources)
            yield ctx.compute(seconds=0.001 * ctx.rank)
            yield from ctx.send(ctx.rank, 0, 5)

        define_app("t_anysrc", main)
        job = ompi_run(universe, "t_anysrc", 4)
        assert job.results[0] == [1, 2, 3]

    def test_any_tag_preserves_order(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                for tag in (3, 7, 5):
                    yield from ctx.send(tag, 1, tag)
            else:
                got = []
                for _ in range(3):
                    payload, status = yield from ctx.recv(0, ctx.ANY_TAG)
                    got.append((payload, status.tag))
                return got

        define_app("t_anytag", main)
        job = ompi_run(universe, "t_anytag", 2)
        assert job.results[1] == [(3, 3), (7, 7), (5, 5)]

    def test_iprobe(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send("hello", 1, 9)
                yield from ctx.barrier()
            else:
                yield from ctx.barrier()  # ensures the message arrived
                status = yield ctx.iprobe(0, 9)
                missing = yield ctx.iprobe(0, 10)
                payload, _ = yield from ctx.recv(0, 9)
                return (status is not None, missing is None, payload)

        define_app("t_iprobe", main)
        job = ompi_run(universe, "t_iprobe", 2)
        assert job.results[1] == (True, True, "hello")

    def test_test_op(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield ctx.compute(seconds=0.01)
                yield from ctx.send(1, 1, 2)
            else:
                req = yield ctx.irecv(0, 2)
                done_early, _ = yield ctx.test(req)
                while True:
                    done, result = yield ctx.test(req)
                    if done:
                        return (done_early, result[0])
                    yield ctx.compute(seconds=0.002)

        define_app("t_test", main)
        job = ompi_run(universe, "t_test", 2)
        assert job.results[1] == (False, 1)


class TestValidation:
    def test_bad_destination_rank(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 5, 0)  # rank 5 does not exist

        define_app("t_badrank", main)
        job = ompi_run(universe, "t_badrank", 2)
        assert job.state.value == "failed"

    def test_reserved_tag_rejected(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 1, 2**29 + 5)

        define_app("t_badtag", main)
        job = ompi_run(universe, "t_badtag", 2)
        assert job.state.value == "failed"


class TestBTLSelection:
    def _stats_app(self, record):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(b"z" * 100, 1, 1)
                for btl in ctx._runner.ompi.btls:
                    record[btl.name] = btl.sent_msgs
            else:
                yield from ctx.recv(0, 1)

        return main

    def test_ib_preferred_between_nodes(self):
        universe = make_universe(2)
        record = {}
        define_app("t_btl1", self._stats_app(record))
        ompi_run(universe, "t_btl1", 2)
        assert record["ib"] >= 1
        assert record.get("sm", 0) == 0

    def test_tcp_when_ib_disabled(self):
        universe = make_universe(2)
        record = {}
        define_app("t_btl2", self._stats_app(record))
        ompi_run(universe, "t_btl2", 2, params=MCAParams({"btl_ib_disable": "1"}))
        assert "ib" not in record
        assert record["tcp"] >= 1

    def test_sm_for_same_node(self):
        universe = make_universe(1)  # both ranks on the single node
        record = {}
        define_app("t_btl3", self._stats_app(record))
        ompi_run(universe, "t_btl3", 2)
        assert record["sm"] >= 1

    def test_btl_include_list(self):
        universe = make_universe(2)
        record = {}
        define_app("t_btl4", self._stats_app(record))
        ompi_run(universe, "t_btl4", 2, params=MCAParams({"btl": "tcp"}))
        assert set(record) == {"tcp"}


class TestPreInitBuffering:
    def test_fast_sender_does_not_lose_messages(self):
        """A rank can leave MPI_INIT and send while peers are still
        initializing; traffic must be buffered, not dropped."""
        universe = make_universe(4)

        def main(ctx):
            if ctx.rank == 0:
                for peer in range(1, ctx.size):
                    yield from ctx.send(peer * 11, peer, 4)
            else:
                payload, _ = yield from ctx.recv(0, 4)
                return payload

        define_app("t_preinit", main)
        job = ompi_run(universe, "t_preinit", 4)
        assert [job.results[r] for r in (1, 2, 3)] == [11, 22, 33]


class TestThreadlessSends:
    """Sends post their fragments from timer callbacks: no thread is
    spawned per message, and the in-flight accounting that quiesce and
    image capture rely on still covers every posted send."""

    def _flood(self, n: int, size: int) -> int:
        """Threads spawned by a 2-rank job in which rank 0 sends *n*
        messages of *size* bytes to rank 1."""
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                reqs = []
                for _ in range(n):
                    reqs.append((yield ctx.isend(b"m" * size, 1, 3)))
                yield from ctx.waitall(reqs)
            else:
                for _ in range(n):
                    yield from ctx.recv(0, 3)

        define_app("t_flood", main)
        job = ompi_run(universe, "t_flood", 2)
        assert job.state.value == "finished"
        return universe.kernel.stats.threads_spawned

    @pytest.mark.parametrize("size", [100, 100_000], ids=["eager", "rendezvous"])
    def test_threads_spawned_independent_of_message_count(self, size):
        assert self._flood(40, size) == self._flood(20, size)

    def test_quiesce_returns_when_last_posted_send_is_on_wire(self):
        universe = make_universe(2)
        seen = {}

        def main(ctx):
            if ctx.rank == 1:
                for _ in range(3):
                    yield from ctx.recv(0, 2)
                return None
            ompi = ctx._runner.ompi
            pml = ompi.pml_base
            reqs = []
            for _ in range(3):
                reqs.append((yield ctx.isend(b"q" * 60_000, 1, 2)))
            btl = pml.select_btl(ompi.peer_card(1))
            seen["posted_at"] = universe.kernel.now
            # the NIC is reserved up to the moment the last byte leaves
            seen["last_on_wire"] = ompi.proc.node.nics[btl.fabric_name]._tx_free_at
            seen["active"] = pml.active_sends

            def quiesce():
                yield from pml.quiesce_sends()
                seen["quiet_at"] = universe.kernel.now
                seen["pending"] = len(pml.requests.pending_of_kind("send"))

            ompi.proc.spawn_thread(quiesce(), name="quiesce")
            yield from ctx.waitall(reqs)

        define_app("t_quiesce", main)
        job = ompi_run(universe, "t_quiesce", 2)
        assert job.state.value == "finished"
        assert seen["active"] == 3
        assert seen["quiet_at"] == seen["last_on_wire"] > seen["posted_at"]
        assert seen["pending"] == 0

    @pytest.mark.parametrize("size", [1000, 100_000], ids=["eager", "rendezvous"])
    def test_capture_refused_while_posted_send_active(self, size):
        universe = make_universe(2)
        seen = {}

        def main(ctx):
            if ctx.rank == 1:
                yield from ctx.recv(0, 2)
                return None
            pml = ctx._runner.ompi.pml_base
            req = yield ctx.isend(b"c" * size, 1, 2)
            try:
                pml.capture_state()
            except MPIError as exc:
                seen["refused"] = str(exc)
            yield ctx.wait(req)
            seen["captured"] = sorted(pml.capture_state())

        define_app("t_capture", main)
        job = ompi_run(universe, "t_capture", 2)
        assert job.state.value == "finished"
        assert "not quiesced (active=1" in seen["refused"]
        assert "matching" in seen["captured"]

    def test_sender_death_before_wire_loses_message(self):
        """A rank killed while its eager fragment is still serializing
        never delivers it, and the fabric's in-flight count drains."""
        universe = make_universe(2)
        seen = {}

        def main(ctx):
            pml = ctx._runner.ompi.pml_base
            seen[ctx.rank] = pml
            if ctx.rank == 0:
                req = yield ctx.isend(b"d" * 60_000, 1, 2)
                universe.kernel.call_later(1e-6, ctx._runner.proc.kill)
                yield ctx.wait(req)
            else:
                yield from ctx.recv(0, 2)

        define_app("t_sender_dies", main)
        job = ompi_run(universe, "t_sender_dies", 2,
                       params=MCAParams({"btl": "tcp"}))
        assert job.state.value == "failed"
        assert seen[0].stats["eager_sent"] == 0
        assert seen[1].stats["delivered"] == 0
        assert universe.cluster.eth.in_flight == 0
