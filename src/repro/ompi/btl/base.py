"""BTL framework base."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

from repro.core.ft_event import FTState
from repro.mca.component import Component
from repro.netsim.transport import Endpoint
from repro.simenv.kernel import SimGen
from repro.util.errors import NetworkError, SimInterrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.registry import FrameworkRegistry
    from repro.ompi.layer import OmpiLayer
    from repro.ompi.pml.ob1 import Ob1PML


class BTLComponent(Component):
    """Base class of byte-transfer-layer components."""

    framework_name = "btl"
    fabric_name = ""
    #: False if endpoint state cannot survive inside a process image
    checkpointable = True

    def __init__(self, params=None):
        super().__init__(params)
        self.ompi: "OmpiLayer | None" = None
        self.pml: "Ob1PML | None" = None
        self.ep: Endpoint | None = None
        self._pump = None
        #: peer port name -> its Endpoint (built once, not per message)
        self._peers: dict[str, Endpoint] = {}
        self._sender_alive: Callable[[], bool] | None = None
        self.sent_msgs = 0
        self.sent_bytes = 0

    # -- availability ------------------------------------------------------------

    def query(self, context: object | None = None) -> bool:
        ompi = context
        if ompi is None:
            return False
        node = ompi.proc.node
        return self.fabric_name in node.nics and self.fabric_name in ompi.cluster.fabrics

    # -- lifecycle ---------------------------------------------------------------

    def setup(self, ompi: "OmpiLayer", pml: "Ob1PML") -> None:
        self.ompi = ompi
        self.pml = pml
        proc = ompi.proc
        self._sender_alive = lambda: proc.alive

    @property
    def fabric(self):
        assert self.ompi is not None
        return self.ompi.cluster.fabric(self.fabric_name)

    def port_name(self) -> str:
        assert self.ompi is not None
        proc = self.ompi.proc
        return f"mpi.{proc.name.jobid}.{proc.name.vpid}.{proc.pid}.{self.name}"

    def open_endpoint(self) -> str:
        """Bind the receive endpoint and start the progress pump.

        Returns the port name for the modex business card.  Reopening
        after :meth:`close_endpoint` resumes processing of any frames
        that queued while the endpoint was down (peers re-establishing
        a connection do not lose traffic — they handshake).
        """
        assert self.ompi is not None and self.pml is not None
        if self.ep is None:
            self.ep = self.fabric.bind(self.ompi.proc.node.name, self.port_name())
        if self._pump is None:
            self._pump = self.ompi.proc.spawn_thread(
                self._pump_loop(), name=f"btl-{self.name}-pump", daemon=True
            )
        return self.ep.port

    def close_endpoint(self) -> None:
        """Tear down the connection state (stop the progress pump).

        The mailbox itself persists so in-flight frames from peers that
        resumed earlier wait for the reconnect instead of vanishing.
        """
        if self._pump is not None:
            self._pump.kill()
            self._pump = None

    def teardown(self) -> None:
        """Full teardown (MPI_FINALIZE / process halt): unbind too."""
        self.close_endpoint()
        if self.ep is not None:
            self.fabric.unbind(self.ep)
            self.ep = None

    def _pump_loop(self) -> SimGen:
        ep = self.ep
        assert ep is not None
        while True:
            dgram = yield from self.fabric.recv(ep)
            try:
                self.pml.handle_incoming(dgram.payload)
            except (GeneratorExit, SimInterrupt):  # pragma: no cover
                raise
            except BaseException as exc:  # noqa: BLE001
                # A progress-engine failure corrupts the MPI library;
                # kill the process loudly rather than dropping traffic.
                self.ompi.proc.kill(exc)
                return None

    @property
    def is_connected(self) -> bool:
        return self.ep is not None and self._pump is not None

    # -- data path ---------------------------------------------------------------

    def reaches(self, my_node: str, peer_card: dict) -> bool:
        """Can this BTL carry traffic to the peer described by *card*?

        Network BTLs yield same-node peers to ``sm`` (shared memory has
        exclusivity for local traffic, as in Open MPI).
        """
        ports = peer_card.get("ports", {})
        if (
            self.name != "sm"
            and peer_card.get("node") == my_node
            and "sm" in ports
        ):
            return False
        return self.name in ports

    def send_msg(
        self,
        peer_card: dict,
        msg,
        wire_bytes: int,
        on_wire: Callable[[], None] | None,
    ) -> None:
        """Post *msg* to the peer; returns at once.

        *on_wire* runs from a kernel timer once the message is
        serialized onto the wire; it is not called if this process dies
        first.  Raises :class:`NetworkError` if the endpoint is closed
        or the local NIC is down.
        """
        ep = self.ep
        if ep is None:
            raise NetworkError(f"BTL {self.name} endpoint is closed")
        port = peer_card["ports"][self.name]
        dst = self._peers.get(port)
        if dst is None or dst.node != peer_card["node"]:
            dst = self._peers[port] = Endpoint(peer_card["node"], port)
        payload = msg.payload
        if payload is not None and wire_bytes >= 4096:
            # Model the DMA/serialization work of moving bytes onto the
            # wire: large buffers are physically copied, so per-message
            # wall cost becomes payload-dominated at size (the effect
            # that amortizes fixed interposition overheads on hardware).
            copied = self._buffer_copy(payload)
            if copied is not payload:
                msg = dataclasses.replace(msg, payload=copied)
        self.fabric.post(ep, dst, msg, wire_bytes, on_wire, self._sender_alive)
        self.sent_msgs += 1
        self.sent_bytes += wire_bytes

    @staticmethod
    def _buffer_copy(payload):
        if hasattr(payload, "nbytes") and hasattr(payload, "copy"):  # ndarray
            return payload.copy()
        if isinstance(payload, (bytes, bytearray)):
            return bytes(payload)
        return payload

    # -- ft_event -----------------------------------------------------------------

    def ft_event(self, state: int) -> None:
        """Close non-checkpointable endpoints at CHECKPOINT; reconnect
        after (paper: "shutting down interconnect libraries that cannot
        be checkpointed and reconnecting peers when restarting")."""
        if not self.checkpointable:
            if state == FTState.CHECKPOINT:
                self.close_endpoint()
            elif state in (FTState.CONTINUE, FTState.RESTART):
                self.open_endpoint()
        if state == FTState.HALT:
            self.teardown()


def register_btl_components(registry: "FrameworkRegistry") -> None:
    from repro.ompi.btl.ib import IbBTL
    from repro.ompi.btl.sm import SmBTL
    from repro.ompi.btl.tcp import TcpBTL

    registry.add_component("btl", TcpBTL)
    registry.add_component("btl", IbBTL)
    registry.add_component("btl", SmBTL)
