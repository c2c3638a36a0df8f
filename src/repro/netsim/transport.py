"""Reliable, in-order datagram transport over a switched fabric.

Endpoints are ``(node_name, port)`` pairs.  A message occupies the
sender's NIC for its serialization delay and lands in the destination
endpoint's mailbox ``latency`` later.  ``Fabric.send`` is a blocking
(generator) send that returns once the message is on the wire;
``Fabric.post`` reserves the NIC at once and calls back from a timer
when it is, so the MPI data path needs no thread per message.  In-order
delivery between any endpoint pair is guaranteed by construction
(single event queue + per-NIC serialization + fixed latency).  A
message whose sender dies before it is on the wire is dropped; once on
the wire it is delivered unless its destination is gone.

In-flight accounting (``in_flight``) exists for tests and for the
fabric-level drain assertions in the CRCP experiments: the MPI-level
bookmark protocol must leave the fabric empty between any pair of
coordinated processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.netsim.models import LinkModel
from repro.netsim.nic import NIC
from repro.simenv.kernel import Delay, Queue, SimGen
from repro.util.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simenv.kernel import Kernel
    from repro.simenv.node import Node


@dataclass(frozen=True)
class Endpoint:
    """Address of a transport mailbox."""

    node: str
    port: str

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.node}:{self.port}"


#: metadata of datagrams sent without any (shared, read-only)
NO_META: Mapping = MappingProxyType({})


@dataclass(slots=True)
class Datagram:
    """One message on the wire."""

    src: Endpoint
    dst: Endpoint
    payload: Any
    nbytes: int
    fabric: str
    send_time: float
    meta: Mapping


class Fabric:
    """A switched network connecting every attached node."""

    def __init__(self, kernel: "Kernel", model: LinkModel):
        self.kernel = kernel
        self.model = model
        self.name = model.name
        self.nics: dict[str, NIC] = {}
        self._mailboxes: dict[Endpoint, Queue] = {}
        self.in_flight = 0
        self.delivered = 0
        self.dropped = 0

    # -- topology ------------------------------------------------------------

    def attach(self, node: "Node") -> NIC:
        if node.name in self.nics:
            raise NetworkError(f"{node.name} already attached to {self.name}")
        nic = NIC(node, self.model)
        self.nics[node.name] = nic
        node.nics[self.name] = nic
        return nic

    def has_node(self, node_name: str) -> bool:
        return node_name in self.nics

    # -- endpoints ----------------------------------------------------------

    def bind(self, node_name: str, port: str) -> Endpoint:
        if node_name not in self.nics:
            raise NetworkError(f"node {node_name} not on fabric {self.name}")
        ep = Endpoint(node_name, port)
        if ep in self._mailboxes:
            raise NetworkError(f"endpoint {ep} already bound on {self.name}")
        self._mailboxes[ep] = self.kernel.queue(f"{self.name}:{ep}")
        return ep

    def unbind(self, ep: Endpoint) -> None:
        self._mailboxes.pop(ep, None)

    def is_bound(self, ep: Endpoint) -> bool:
        return ep in self._mailboxes

    # -- data path ----------------------------------------------------------

    def _launch(
        self, src: Endpoint, dst: Endpoint, payload: Any, nbytes: int, meta: Mapping
    ) -> tuple[float, Datagram]:
        """Reserve the sender's NIC for one message and count it in
        flight; returns its serialization delay and the datagram."""
        nic = self.nics.get(src.node)
        if nic is None:
            raise NetworkError(f"node {src.node} not on fabric {self.name}")
        dgram = Datagram(src, dst, payload, nbytes, self.name, self.kernel.now, meta)
        delay = nic.reserve_tx(nbytes)
        self.in_flight += 1
        return delay, dgram

    def _unsent(self) -> None:
        """The sender died before its message was on the wire."""
        self.in_flight -= 1
        self.dropped += 1

    def send(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        nbytes: int,
        meta: Mapping | None = None,
    ) -> SimGen:
        """Blocking send: returns once the message is serialized onto
        the wire (not once delivered) — eager-protocol semantics."""
        delay, dgram = self._launch(
            src, dst, payload, nbytes, NO_META if meta is None else meta
        )
        on_wire = False
        try:
            yield Delay(delay)
            on_wire = True
        finally:
            if not on_wire:  # the sending thread was killed
                self._unsent()
        self.kernel.call_later(self.model.latency_s, lambda: self._deliver(dgram))
        return dgram

    def post(
        self,
        src: Endpoint,
        dst: Endpoint,
        payload: Any,
        nbytes: int,
        on_wire: Callable[[], None] | None,
        sender_alive: Callable[[], bool],
    ) -> None:
        """Non-blocking send: reserve the NIC now; when the message is
        on the wire, schedule its delivery and call *on_wire*.

        Same timing as :meth:`send`, without a thread: the wait is one
        timer.  If ``sender_alive()`` is false by then, the message is
        dropped and *on_wire* is not called.
        """
        delay, dgram = self._launch(src, dst, payload, nbytes, NO_META)
        kernel = self.kernel

        def wire() -> None:
            if not sender_alive():
                self._unsent()
                return
            kernel.call_at(kernel.now + self.model.latency_s,
                           lambda: self._deliver(dgram))
            if on_wire is not None:
                on_wire()

        kernel.call_at(kernel.now + delay, wire)

    def _deliver(self, dgram: Datagram) -> None:
        self.in_flight -= 1
        dst_nic = self.nics.get(dgram.dst.node)
        if dst_nic is None or not dst_nic.up or not dst_nic.node.up:
            self.dropped += 1
            return
        mailbox = self._mailboxes.get(dgram.dst)
        if mailbox is None:
            self.dropped += 1
            return
        dst_nic.note_rx(dgram.nbytes)
        self.delivered += 1
        mailbox.put(dgram)

    def recv(self, ep: Endpoint) -> SimGen:
        """Blocking receive from the endpoint's mailbox."""
        mailbox = self._mailboxes.get(ep)
        if mailbox is None:
            raise NetworkError(f"endpoint {ep} not bound on {self.name}")
        dgram = yield from mailbox.get()
        return dgram

    def try_recv(self, ep: Endpoint) -> tuple[bool, Datagram | None]:
        mailbox = self._mailboxes.get(ep)
        if mailbox is None:
            raise NetworkError(f"endpoint {ep} not bound on {self.name}")
        ok, dgram = mailbox.try_get()
        return ok, dgram

    def pending(self, ep: Endpoint) -> int:
        mailbox = self._mailboxes.get(ep)
        return len(mailbox) if mailbox is not None else 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Fabric {self.name} nodes={len(self.nics)} "
            f"inflight={self.in_flight}>"
        )
