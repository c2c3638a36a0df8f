"""Outside-in per-layer tracing: runtime wrappers around public entry points.

:func:`install` replaces each entry point listed in :data:`ENTRY_POINTS`
with a wrapper that records one span per call — name, host start and
end, the enclosing wrapped call as parent, simulated start and end —
and accumulates per-name call counts, self time and simulated time.
Nothing under ``src/`` is edited; :func:`uninstall` restores every
original object.

Generator functions (the simulator's blocking calls) are wrapped by a
generator that forwards every ``send``/``throw``/``close`` unchanged and
times each resume separately, so a span's host time covers only the
slices in which its generator actually ran.  Self time is a span's host
time minus the host time of the wrapped calls nested inside it.

Host time is read with ``time.perf_counter`` (the simulator is one
CPU-bound thread; ``process_time`` costs six times as much per read and
would inflate the overhead being measured).

Module-level functions are also replaced wherever another ``repro``
module imported them by name, so ``from x import f`` bindings are
covered as well as ``module.f`` lookups.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Callable, NamedTuple

# Counter hooks receive ``(tracer, args, kwargs, result)`` after a
# wrapped call returns; they turn arguments or results into layer
# counters.


def _btl_bytes(tr, args, kwargs, result):
    tr.count("btl.wire_bytes", args[3] if len(args) > 3 else kwargs["wire_bytes"])


def _crs_image(tr, args, kwargs, result):
    _ref, meta = result
    tr.count("crs.image_bytes", meta.total_bytes)


def _filem_bytes(tr, args, kwargs, result):
    tr.count("filem.bytes", result or 0)


def _cas_offered(tr, args, kwargs, result):
    tr.count("cas.chunks_offered", len(args[1]))


def _cas_shipped(tr, args, kwargs, result):
    tr.count("cas.chunks_shipped", len(args[1]))


def _vfs_written(tr, args, kwargs, result):
    if isinstance(args[1], list):
        tr.count("vfs.bytes_written", sum(len(d) for _, d in args[1]))
    else:
        tr.count("vfs.bytes_written", len(args[2]))


def _vfs_read(tr, args, kwargs, result):
    if isinstance(result, list):
        tr.count("vfs.bytes_read", sum(len(d) for d in result))
    else:
        tr.count("vfs.bytes_read", len(result))


#: the metrics a wrapped name reports, by its kind: ``sim`` for calls
#: that block in simulated time, ``cpu`` for calls that return at once,
#: ``calls`` for calls too cheap and many to time usefully
KIND_METRICS = {
    "sim": ("calls", "self_cpu_s", "sim_ms"),
    "cpu": ("calls", "self_cpu_s"),
    "calls": ("calls",),
}


class Entry(NamedTuple):
    """One wrapped entry point.  Several targets may share a name (their
    calls are summed); they then share its kind."""

    name: str
    target: str
    kind: str
    hook: Callable | None = None


ENTRY_POINTS = (
    Entry("pml.isend", "repro.ompi.pml.ob1:Ob1PML.isend", "cpu"),
    Entry("pml.irecv", "repro.ompi.pml.ob1:Ob1PML.irecv", "cpu"),
    Entry("pml.handle_incoming", "repro.ompi.pml.ob1:Ob1PML.handle_incoming", "cpu"),
    Entry("btl.send_msg", "repro.ompi.btl.base:BTLComponent.send_msg", "sim",
          _btl_bytes),
    Entry("netsim.send", "repro.netsim.transport:Fabric.send", "cpu"),
    Entry("crcp.isend", "repro.ompi.crcp.wrapper:CRCPWrapperPML.isend", "cpu"),
    Entry("crcp.coordinate", "repro.ompi.crcp.coord:CoordCRCP.coordinate", "sim"),
    Entry("coll.allreduce", "repro.ompi.coll.basic:BasicColl.allreduce", "sim"),
    Entry("crs.checkpoint", "repro.opal.crs.base:CRSComponent.checkpoint", "sim",
          _crs_image),
    Entry("crs.hash_chunk", "repro.opal.crs.chunks:hash_chunk", "cpu"),
    Entry("crs.manifest_json", "repro.opal.crs.chunks:ChunkManifest.to_json", "cpu"),
    Entry("crs.manifest_json", "repro.opal.crs.chunks:ChunkManifest.from_json", "cpu"),
    Entry("crs.load_chunks", "repro.opal.crs.chunks:load_chunks", "sim"),
    Entry("snapshot.meta_json", "repro.snapshot:LocalSnapshotMeta.to_json", "cpu"),
    Entry("snapshot.meta_json", "repro.snapshot:LocalSnapshotMeta.from_json", "cpu"),
    Entry("snapshot.meta_json", "repro.snapshot:GlobalSnapshotMeta.to_json", "cpu"),
    Entry("snapshot.meta_json", "repro.snapshot:GlobalSnapshotMeta.from_json", "cpu"),
    Entry("filem.ship_chunks", "repro.orte.filem.rsh:RshFILEM.ship_chunks", "sim",
          _filem_bytes),
    Entry("filem.fetch_chunks", "repro.orte.filem.rsh:RshFILEM.fetch_chunks", "sim",
          _filem_bytes),
    Entry("filem.broadcast", "repro.orte.filem.rsh:RshFILEM.broadcast", "sim",
          _filem_bytes),
    Entry("cas.missing", "repro.vfs.cas:ChunkStore.missing", "cpu", _cas_offered),
    Entry("cas.put_many", "repro.vfs.cas:ChunkStore.put_many", "sim", _cas_shipped),
    Entry("cas.get_many", "repro.vfs.cas:ChunkStore.get_many", "sim"),
    Entry("vfs.write", "repro.vfs.fsbase:FS.write", "sim", _vfs_written),
    Entry("vfs.write", "repro.vfs.fsbase:FS.write_many", "sim", _vfs_written),
    Entry("vfs.read", "repro.vfs.fsbase:FS.read", "sim", _vfs_read),
    Entry("vfs.read", "repro.vfs.fsbase:FS.read_many", "sim", _vfs_read),
    Entry("snapc.global_checkpoint",
          "repro.orte.snapc.full:FullSNAPC.global_checkpoint", "sim"),
    Entry("snapc.global_restart",
          "repro.orte.snapc.full:FullSNAPC.global_restart", "sim"),
    Entry("errmgr.on_rank_failure", "repro.orte.errmgr:ErrMgr.on_rank_failure", "sim"),
    Entry("statestore.put", "repro.orte.statestore:StateStore.put", "cpu"),
    Entry("statestore.replay", "repro.orte.statestore:StateStore.replay", "sim"),
    Entry("hnp.rehydrate", "repro.orte.hnp:HNP.rehydrate", "sim"),
    Entry("hnp.launch_and_init", "repro.orte.hnp:HNP.launch_and_init", "sim"),
    Entry("oob.rml_send", "repro.orte.oob:RML.send", "calls"),
    Entry("mca.default_registry", "repro.mca.registry:default_registry", "cpu"),
)

#: metric name -> layer, for per-layer self-time shares
LAYER_OF = {
    "pml": "pml", "btl": "btl", "netsim": "btl", "crcp": "crcp",
    "coll": "coll", "crs": "crs", "snapshot": "crs", "filem": "filem",
    "cas": "vfs", "vfs": "vfs", "snapc": "snapc", "errmgr": "errmgr",
    "statestore": "statestore", "hnp": "hnp", "oob": "hnp", "mca": "mca",
}
LAYERS = ("pml", "btl", "crcp", "coll", "crs", "filem", "vfs", "snapc",
          "errmgr", "statestore", "hnp", "mca")


class _Stat:
    __slots__ = ("calls", "self_s", "sim_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.sim_s = 0.0


class Tracer:
    """Span and counter store for one traced episode.

    Spans are kept in memory as tuples
    ``(id, name, parent_id, host_t0, host_t1, sim_t0, sim_t1)``; the
    caller writes them out and clears :attr:`spans` after each episode.
    """

    def __init__(self) -> None:
        self.kernel = None
        #: record only between :meth:`boot` and :meth:`settled`
        self.active = False
        #: host seconds spent recording in the current episode
        self.active_s = 0.0
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._t_boot = 0.0

    def boot(self, kernel) -> None:
        """Start recording a new episode on *kernel*."""
        self.kernel = kernel
        self.stats = {}
        self.counters = {}
        self._stack = []
        self.active = True
        self._t_boot = perf_counter()

    def settled(self) -> None:
        """The episode's run window closed: stop recording."""
        self.active = False
        self.active_s = perf_counter() - self._t_boot

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _now(self) -> float:
        kernel = self.kernel
        return kernel.now if kernel is not None else 0.0

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def _open(self):
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else None
        return self._next_id, parent

    def _close(self, name, span_id, parent, h0, h1, self_s, s0, s1) -> None:
        stat = self._stat(name)
        stat.calls += 1
        stat.self_s += self_s
        stat.sim_s += s1 - s0
        self.spans.append((span_id, name, parent, h0, h1, s0, s1))

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(name, fn, hook)
        return self._wrap_plain(name, fn, hook)

    def _wrap_plain(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id, parent = tracer._open()
            frame = [0.0, span_id]
            s0 = tracer._now()
            stack.append(frame)
            h0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                h1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += h1 - h0
                tracer._close(
                    name, span_id, parent, h0, h1, h1 - h0 - frame[0],
                    s0, tracer._now(),
                )
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _wrap_gen(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return (yield from gen)
            stack = tracer._stack
            span_id, parent = tracer._open()
            s0 = tracer._now()
            first = None
            self_s = 0.0
            value = exc = None

            def end() -> None:
                tracer._close(
                    name, span_id, parent, first, perf_counter(), self_s,
                    s0, tracer._now(),
                )

            while True:
                frame = [0.0, span_id]
                stack.append(frame)
                h0 = perf_counter()
                if first is None:
                    first = h0
                raised = True
                try:
                    yielded = gen.send(value) if exc is None else gen.throw(exc)
                    raised = False
                except StopIteration as stop:
                    raised = False
                    result = stop.value
                    break
                finally:
                    h1 = perf_counter()
                    stack.pop()
                    if stack:
                        stack[-1][0] += h1 - h0
                    self_s += h1 - h0 - frame[0]
                    if raised:
                        end()
                value = exc = None
                try:
                    value = yield yielded
                except GeneratorExit:
                    # the calling thread was killed: end the span here
                    gen.close()
                    end()
                    raise
                except BaseException as err:  # re-thrown into the callee
                    exc = err
            end()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced


def _resolve(target: str):
    module_name, _, attr_path = target.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


class Installation:
    """The set of patches one :func:`install` made."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        #: ``(name, target)`` of targets the program no longer has; the
        #: caller decides whether a missing target fails the run
        self.missing: list[tuple[str, str]] = []

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, entry: Entry) -> None:
        name, hook = entry.name, entry.hook
        try:
            module, owner, attr = _resolve(entry.target)
            raw = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append((name, entry.target))
            return
        if isinstance(raw, classmethod):
            wrapped = self.tracer.wrap(name, raw.__func__, hook)
            self._set(owner, attr, classmethod(wrapped))
            return
        wrapped = self.tracer.wrap(name, raw, hook)
        self._set(owner, attr, wrapped)
        if owner is module:
            # ``from module import fn`` bindings elsewhere in the program
            for other_name, other in list(sys.modules.items()):
                if (
                    other is None
                    or other is module
                    or not other_name.startswith("repro")
                ):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        self._set(other, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point in :data:`ENTRY_POINTS` around *tracer*."""
    installation = Installation(tracer)
    try:
        for entry in ENTRY_POINTS:
            installation.patch(entry)
    except BaseException:
        installation.uninstall()
        raise
    return installation


def entry_kinds() -> dict[str, str]:
    """Distinct wrapped names and their kinds, in table order."""
    return {entry.name: entry.kind for entry in ENTRY_POINTS}
