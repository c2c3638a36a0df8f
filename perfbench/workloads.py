"""The benchmark's three workloads, each one closed-loop episode at a time.

An *episode* boots a fresh universe from an episode seed, launches one
job, waits until the job is RUNNING (every rank past MPI_INIT), and
then times the *run window*: from that instant until the job's lineage
has settled and background staging has drained.  The clients live in
simulated threads and act only after the previous request or recovery
has completed:

* ``halo`` — jacobi, no checkpoints, no faults: the data plane alone.
* ``checkpoint`` — churn with CAS staging; the client issues each
  ``ompi_checkpoint`` on a jittered simulated cadence after the previous
  reply.  No faults.
* ``recover`` — churn with autorecovery and HNP failover; each wave
  checkpoints to stable storage, then injects a rank kill, a compute
  node crash or an HNP-node crash, and waits for the recovery (and the
  failover) to settle before the next wave.

Only public surfaces are used: ``Universe``, ``repro.tools.api``,
``FailureInjector``, the stager / chunk store / error-manager accessors,
the snapshot read functions and ``KernelStats``.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.mca.params import MCAParams
from repro.opal.crs import chunks as chunkstore
from repro.orte.job import JobState
from repro.orte.universe import Universe
from repro.simenv.campaign import follow_lineage
from repro.simenv.cluster import Cluster, ClusterSpec
from repro.simenv.kernel import DeadlockError, Delay, WaitEvent
from repro.snapshot import (
    STAGE_COMMITTED,
    GlobalSnapshotRef,
    LocalSnapshotRef,
    parse_global_dirname,
    read_global_meta,
    read_local_meta,
)
from repro.tools.api import ompi_checkpoint, ompi_run

MIB = float(1 << 20)


# ---------------------------------------------------------------------------
# Workload shapes
# ---------------------------------------------------------------------------

HALO = {
    "nodes": 4,
    "np": 8,
    "params": {},
    "app": "jacobi",
    # tol=0.0: the residual allreduce runs every 10 iterations but the
    # run never stops early
    "args": {"n_global": 4096, "iters": 1000, "tol": 0.0},
}

CHECKPOINT = {
    "nodes": 8,
    "np": 8,
    "params": {
        "filem": "rsh",
        "snapc_full_cas": "1",
        "crs_base_chunk_bytes": "256",
    },
    "app": "churn",
    "args": {"loops": 450, "compute_s": 0.01, "state_bytes": 256 * 1024},
    #: checkpoints the client issues per episode
    "checkpoints": 16,
    #: simulated gap between a reply and the next request (jittered)
    "cadence_s": 0.1,
}

RECOVER = {
    "np": 8,
    "params": {
        "filem": "rsh",
        "snapc_full_cas": "1",
        "crs_base_chunk_bytes": "65536",
        "orte_errmgr_autorecover": "1",
        "orte_hnp_failover": "1",
        "orte_hnp_heartbeat_s": "0.05",
    },
    "app": "churn",
    "args": {"loops": 100, "compute_s": 0.04, "state_bytes": 64 * 1024},
    #: fault waves per episode, cycling through FAULT_CYCLE
    "waves": 9,
}
FAULT_CYCLE = ("kill", "node", "hnp")
#: node and HNP crashes each consume a node that never comes back, so
#: the cluster carries one spare per such wave: survivors stay >= np
RECOVER["nodes"] = RECOVER["np"] + sum(
    1 for w in range(RECOVER["waves"]) if FAULT_CYCLE[w % 3] != "kill"
)
RECOVER["params"]["orte_errmgr_max_recoveries"] = str(RECOVER["waves"] + 2)

SHAPES = {"halo": HALO, "checkpoint": CHECKPOINT, "recover": RECOVER}


def episode_seed(workload: str, seed: int, index: int) -> int:
    """Seed of episode *index* in a run with *seed* (stable, 31-bit)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Episode record
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    seed: int
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: operations the workload's failure accounting counts
    attempted: int = 0
    failed: int = 0
    #: denominator of the workload's host-cost ratio
    units: float = 0.0
    #: simulated-latency samples, by metric name
    sim: dict = field(default_factory=dict)
    #: exact, deterministic outputs (must match between traced and
    #: untraced runs of the same episode)
    exact: dict = field(default_factory=dict)
    #: per-layer counters read from program state
    counters: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.errors.append(message)


def launch_until_running(shape: dict, ep_seed: int, probe=None):
    """Boot, submit the workload's job, and step the kernel until the
    job is RUNNING.  Returns ``(universe, job)``.

    A *probe* (the traced run's tracer) is told ``boot(kernel)`` before
    the universe boots and ``settled()`` when the run window closes.
    """
    cluster = Cluster(ClusterSpec(n_nodes=shape["nodes"], seed=ep_seed))
    if probe is not None:
        probe.boot(cluster.kernel)
    universe = Universe(cluster, MCAParams(dict(shape["params"])))
    job = ompi_run(
        universe, shape["app"], shape["np"], args=dict(shape["args"]), wait=False
    )
    kernel = universe.kernel
    while job.state != JobState.RUNNING:
        if job.is_done or not kernel.pending:
            raise RuntimeError(f"job {job.jobid} never reached RUNNING")
        kernel.run(until=kernel.now + 0.001)
    return universe, job


def _drain(universe: Universe) -> None:
    """Let background work (staging workers, timers) finish."""
    try:
        universe.kernel.run()
    except DeadlockError:
        # Killed incarnations leave threads parked on events that will
        # never fire; that is the expected end state of a fault run.
        pass


def _pml_stats(job) -> dict:
    totals = {"eager_sent": 0, "rndv_sent": 0, "delivered": 0}
    for proc in job.procs.values():
        ompi = proc.maybe_service("ompi")
        if ompi is None:
            continue
        for key in totals:
            totals[key] += ompi.pml_base.stats[key]
    return totals


def _crcp_drained(job) -> int:
    total = 0
    for proc in job.procs.values():
        ompi = proc.maybe_service("ompi")
        crcp = getattr(ompi, "crcp", None) if ompi is not None else None
        stats = getattr(crcp, "stats", None)
        if stats:
            total += stats.get("drained_msgs", 0)
    return total


#: KernelStats fields counted over the run window
KERNEL_COUNTERS = ("events", "threads_spawned", "heap_pushes", "ready_hits")


def _timed(universe: Universe, ep: Episode, body, probe=None) -> None:
    """Run *body()* as the run window, charging its host time and the
    kernel work it causes to *ep*."""
    stats = universe.kernel.stats
    base = {name: getattr(stats, name) for name in KERNEL_COUNTERS}
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    body()
    ep.cpu_s = time.process_time() - cpu0
    ep.wall_s = time.perf_counter() - wall0
    if probe is not None:
        probe.settled()
    for name in KERNEL_COUNTERS:
        ep.counters[f"kernel.{name}"] = getattr(stats, name) - base[name]


def _stager(universe: Universe):
    return universe.hnp.snapc.stager(universe.hnp)


# ---------------------------------------------------------------------------
# halo
# ---------------------------------------------------------------------------


def serial_jacobi_checksum(n_global: int, iters: int) -> float:
    """Single-process NumPy Jacobi with the same boundary conditions."""
    u = np.zeros(n_global + 2, dtype=np.float64)
    u[0] = 1.0
    for _ in range(iters):
        u[1:-1] = 0.5 * (u[:-2] + u[2:])
    return float(u[1:-1].sum())


#: relative tolerance of the distributed checksum against the serial
#: one: both sum the same float64 values, only in a different order
HALO_RTOL = 1e-9


def run_halo(seed: int, index: int, reference: float, probe=None) -> Episode:
    ep_seed = episode_seed("halo", seed, index)
    ep = Episode(ep_seed)
    universe, job = launch_until_running(HALO, ep_seed, probe)

    def body():
        universe.run_job_to_completion(job)
        _drain(universe)

    _timed(universe, ep, body, probe)
    pml = _pml_stats(job)
    ep.units = pml["delivered"]
    ep.attempted = 1
    checksums = {r["checksum"] for r in job.results.values()}
    ok = job.state == JobState.FINISHED and len(checksums) == 1
    if ok:
        got = checksums.pop()
        ok = abs(got - reference) <= HALO_RTOL * abs(reference)
        if not ok:
            ep.fail(f"halo checksum {got!r} != serial {reference!r}")
    else:
        ep.fail(f"halo job ended {job.state.value} with checksums {checksums}")
    ep.failed = 0 if ok else 1
    ep.counters.update({
        "pml.eager_sent": pml["eager_sent"],
        "pml.rndv_sent": pml["rndv_sent"],
        "pml.delivered": pml["delivered"],
        "crcp.drained_msgs": _crcp_drained(job),
    })
    ep.exact = {
        "sim_end": universe.kernel.now,
        "results": sorted(
            (r["rank"], r["iters"], r["checksum"]) for r in job.results.values()
        ),
        **{k: v for k, v in ep.counters.items()},
    }
    return ep


# ---------------------------------------------------------------------------
# Committed-interval verification (checkpoint and recover)
# ---------------------------------------------------------------------------


def _run_gen(universe: Universe, gen, name: str):
    kernel = universe.kernel
    thread = kernel.spawn(gen, name=name)
    kernel.run_until_complete(thread)
    return thread.result


def verify_committed(universe: Universe, records) -> list[str]:
    """Read every COMMITTED interval back through the public read
    functions and hash-verify its manifests and CAS chunks.

    Returns a list of problems (empty when every interval is intact).
    """
    problems: list[str] = []
    stable = universe.cluster.stable_fs
    store = _stager(universe).store
    for record in records:
        if record.state != STAGE_COMMITTED:
            continue
        ref = GlobalSnapshotRef(record.ref.path)
        meta = _run_gen(universe, read_global_meta(stable, ref), "verify-meta")
        if (meta.staging or {}).get("state") != STAGE_COMMITTED:
            problems.append(f"{ref.path}: metadata not COMMITTED")
            continue
        if not meta.cas:
            problems.append(f"{ref.path}: not staged through the chunk store")
            continue
        for rank in sorted(meta.locals):
            rank_dir = meta.locals[rank]["path"]
            local = _run_gen(
                universe,
                read_local_meta(stable, LocalSnapshotRef(stable.name, rank_dir)),
                "verify-local",
            )
            manifest = _run_gen(
                universe, chunkstore.read_manifest(stable, rank_dir),
                "verify-manifest",
            )
            if list(manifest.hashes) != list(local.chunk_hashes):
                problems.append(f"{rank_dir}: manifest disagrees with metadata")
                continue
            # get_many re-hashes every chunk against its address
            blobs = _run_gen(
                universe, store.get_many(list(manifest.hashes)), "verify-chunks"
            )
            image = b"".join(blobs)
            if len(image) != manifest.total_bytes:
                problems.append(f"{rank_dir}: image is {len(image)} bytes")
                continue
            pieces = chunkstore.split_chunks(image, manifest.chunk_bytes)
            if [hashlib.sha256(p).hexdigest() for p in pieces] != list(
                manifest.hashes
            ):
                problems.append(f"{rank_dir}: chunk hashes do not verify")
    return problems


def _stage_counters(records) -> dict:
    dispatched = len(records)
    committed = sum(1 for r in records if r.state == STAGE_COMMITTED)
    failed = sum(1 for r in records if r.settled and r.state != STAGE_COMMITTED)
    return {
        "snapc.stage.dispatched": dispatched,
        "snapc.stage.committed": committed,
        "snapc.stage.failed": failed,
    }


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------


def run_checkpoint(seed: int, index: int, reference=None, probe=None) -> Episode:
    ep_seed = episode_seed("checkpoint", seed, index)
    ep = Episode(ep_seed)
    rng = random.Random(ep_seed)
    universe, job = launch_until_running(CHECKPOINT, ep_seed, probe)
    kernel = universe.kernel
    requests: list[tuple[float, float, dict]] = []
    n_ckpt = CHECKPOINT["checkpoints"]
    cadence = CHECKPOINT["cadence_s"]
    # The client's choices: the phase of the first request and the
    # jitter of every gap.
    gaps = [cadence * rng.uniform(0.5, 1.5) for _ in range(n_ckpt)]

    def client():
        for gap in gaps:
            yield Delay(gap)
            if job.is_done:
                requests.append((kernel.now, kernel.now, {"ok": False,
                                 "error": "job ended before the request"}))
                continue
            t0 = kernel.now
            handle = ompi_checkpoint(universe, job.jobid, wait=False)
            yield WaitEvent(handle.done)
            requests.append((t0, kernel.now, handle.reply or {}))

    def body():
        thread = kernel.spawn(client(), name="bench-ckpt-client")
        universe.run_job_to_completion(job)
        kernel.run_until_complete(thread)
        _drain(universe)

    _timed(universe, ep, body, probe)

    stager = _stager(universe)
    records = stager.job_records(job.jobid)
    blocked, commit = [], []
    logical = 0
    committed = 0
    for t0, t1, reply in requests:
        ok = bool(reply.get("ok"))
        record = None
        if ok:
            parsed = parse_global_dirname(reply["snapshot"])
            record = stager.record_for(*parsed) if parsed else None
        if record is None or record.state != STAGE_COMMITTED:
            ep.fail(f"checkpoint at t={t0:.4f} did not commit: {reply}")
            continue
        committed += 1
        blocked.append((t1 - t0) * 1e3)
        commit.append((record.committed_at - t0) * 1e3)
        logical += record.bytes_logical
    ep.attempted = len(requests)
    ep.failed = ep.attempted - committed
    ep.units = logical / MIB
    ep.sim = {"ckpt_blocked_sim_ms": blocked, "ckpt_commit_sim_ms": commit}
    if job.state != JobState.FINISHED:
        ep.fail(f"checkpointed job ended {job.state.value}")
    for problem in verify_committed(universe, records):
        ep.fail(problem)
    pml = _pml_stats(job)
    ep.counters.update({
        "pml.eager_sent": pml["eager_sent"],
        "pml.rndv_sent": pml["rndv_sent"],
        "pml.delivered": pml["delivered"],
        "crcp.drained_msgs": _crcp_drained(job),
        "snapc.bytes_logical": logical,
        "snapc.bytes_moved": sum(r.bytes_moved for r in records),
        **_stage_counters(records),
    })
    ep.exact = {
        "sim_end": kernel.now,
        "blocked": blocked,
        "commit": commit,
        "results": sorted(
            (r["rank"], r["received"], r["checksum"]) for r in job.results.values()
        ),
        **ep.counters,
    }
    return ep


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------


def churn_reference(args: dict, np_: int) -> list:
    """Results of a fault-free run of the recover workload's job."""
    shape = dict(RECOVER, nodes=np_, params={})
    universe, job = launch_until_running(shape, 0)
    universe.run_job_to_completion(job)
    return sorted(
        (r["rank"], r["received"], r["checksum"]) for r in job.results.values()
    )


POLL_S = 0.002


def run_recover(seed: int, index: int, reference: list, probe=None) -> Episode:
    ep_seed = episode_seed("recover", seed, index)
    ep = Episode(ep_seed)
    rng = random.Random(ep_seed)
    universe, job0 = launch_until_running(RECOVER, ep_seed, probe)
    kernel = universe.kernel
    failures = universe.cluster.failures
    waves = RECOVER["waves"]
    faults: list[dict] = []
    failover_ms: list[float] = []
    outcome: dict = {}

    def settled(job) -> bool:
        hnp = universe.hnp
        return (
            job.state == JobState.RUNNING
            and hnp is not None
            and hnp.proc.alive
            and not universe.failover_in_flight
            and not hnp.errmgr.is_recovering(job)
        )

    def client():
        current = job0
        for wave in range(waves):
            while not settled(current):
                if current.is_done:
                    return current
                yield Delay(POLL_S)
            # Checkpoint to stable storage, then let the job run on.
            handle = ompi_checkpoint(
                universe, current.jobid, wait=False, wait_stable=True
            )
            yield WaitEvent(handle.done)
            if not (handle.reply or {}).get("ok"):
                ep.fail(f"wave {wave}: checkpoint failed: {handle.reply}")
                return current
            yield Delay(rng.uniform(0.02, 0.08))
            if current.is_done:
                ep.fail(f"wave {wave}: job ended before the fault")
                return current
            kind = FAULT_CYCLE[wave % len(FAULT_CYCLE)]
            head = universe.hnp.proc.node.name
            ranks = sorted(current.procs)
            if kind == "kill":
                rank = rng.choice(ranks)
                failures.kill_process_now(current.procs[rank])
                target = f"rank{rank}"
            elif kind == "node":
                nodes = sorted({
                    current.placements[r] for r in ranks
                    if current.placements[r] != head
                })
                target = rng.choice(nodes)
                failures.crash_node_now(target)
            else:
                before = universe.failovers
                target = failures.crash_hnp_node_now(universe)
                t0 = kernel.now
                while universe.failovers == before or universe.failover_in_flight:
                    yield Delay(POLL_S)
                failover_ms.append((kernel.now - t0) * 1e3)
            faults.append({"wave": wave, "kind": kind, "target": target,
                        "at": kernel.now})
            if not current.is_done:
                yield from current.wait()
            successor = yield WaitEvent(
                universe.hnp.errmgr.recovery_outcome(current.jobid)
            )
            if successor is None:
                ep.fail(f"wave {wave} ({kind}): recovery gave up")
                return current
            current = successor
        final = yield from follow_lineage(universe, current)
        outcome["final"] = final
        return final

    def body():
        thread = kernel.spawn(client(), name="bench-fault-client")
        kernel.run_until_complete(thread)
        _drain(universe)

    _timed(universe, ep, body, probe)

    errmgr = universe.hnp.errmgr
    records = list(errmgr.recovery_log)
    ok_records = [r for r in records if r.recovered]
    final = outcome.get("final")
    lineage_ok = (
        final is not None
        and final.state == JobState.FINISHED
        and sorted(
            (r["rank"], r["received"], r["checksum"])
            for r in final.results.values()
        ) == reference
    )
    if final is not None and not lineage_ok:
        ep.fail("recovered lineage did not finish with the fault-free result")
    if len(records) != waves:
        ep.fail(f"{len(records)} recovery episodes for {waves} faults")
    ep.attempted = waves + 1
    ep.failed = (waves - len(ok_records)) + (0 if lineage_ok else 1)
    ep.units = len(ok_records)
    ep.sim = {
        "recovery_sim_ms": [r.latency_s * 1e3 for r in ok_records],
        "failover_sim_ms": failover_ms,
        "work_lost_sim_s": [sum(r.work_lost_s or 0.0 for r in ok_records)],
    }
    all_records = []
    stager = _stager(universe)
    for jobid in sorted(universe.jobs):
        all_records.extend(stager.job_records(jobid))
    for problem in verify_committed(universe, all_records):
        ep.fail(problem)
    walkbacks = 0
    for rec in ok_records:
        failed_job = universe.jobs.get(rec.failed_jobid)
        if failed_job and failed_job.snapshots and (
            rec.snapshot != failed_job.snapshots[-1].path
        ):
            walkbacks += 1
    ep.counters.update({
        "errmgr.recoveries_attempted": len(records),
        "errmgr.recoveries_ok": len(ok_records),
        "errmgr.walkbacks": walkbacks,
        "universe.elections": universe.failovers,
        **_stage_counters(all_records),
    })
    ep.exact = {
        "sim_end": kernel.now,
        "faults": faults,
        "recoveries": [r.to_dict() for r in records],
        "failover_ms": failover_ms,
        **ep.counters,
    }
    return ep
