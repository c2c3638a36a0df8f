"""Fault-injection campaigns: Poisson-paced faults at a given MTBF.

A campaign arms a Poisson process of faults (inter-arrival times drawn
from an exponential distribution, the standard failure model of the
rollback-recovery literature) against a running universe, then follows
a job's recovery lineage — original job, first restart, second
restart, ... — until some incarnation finishes or the error manager
gives up.  The resulting :class:`CampaignReport` carries the classic
C/R tradeoff numbers: work lost to rollbacks, recovery latency, and
effective progress, to be plotted against the checkpoint interval.

Beyond node crashes, a campaign's :class:`FaultSpec` vocabulary can mix
in the faults that attack the C/R machinery itself — transient
stable-storage write failures and slowdowns, data-plane network
partitions mid-stage, and truncated snapshot metadata — so ErrMgr's
walk-back, skip-set, and staging-retry paths are exercised by injected
faults.

Victims are drawn at *fire time* from the nodes still up (minus the
current HNP's node — hostile campaigns can still attack the control
plane through the dedicated ``hnp_crash`` fault, legal only when HNP
failover is enabled and a surviving orted could win the election), so
a cascading campaign never re-kills a dead node.  Everything is
deterministic given the cluster seed and the campaign's RNG stream:
the stream is persistent on the cluster, so successive inter-arrivals
are i.i.d. draws, not the same first sample replayed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.simenv.kernel import DeadlockError, SimError, SimGen, WaitEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.job import Job
    from repro.orte.universe import Universe

#: fault kinds a campaign can inject (see :class:`FaultSpec`)
FAULT_NODE_CRASH = "node_crash"
FAULT_STABLE_WRITE_FAIL = "stable_write_fail"
FAULT_STABLE_SLOW = "stable_slow"
FAULT_NET_PARTITION = "net_partition"
FAULT_META_CORRUPT = "meta_corrupt"
FAULT_HNP_CRASH = "hnp_crash"

FAULT_KINDS = (
    FAULT_NODE_CRASH,
    FAULT_STABLE_WRITE_FAIL,
    FAULT_STABLE_SLOW,
    FAULT_NET_PARTITION,
    FAULT_META_CORRUPT,
    FAULT_HNP_CRASH,
)


@dataclass(frozen=True)
class FaultSpec:
    """One kind of fault a campaign may draw at each arrival.

    ``weight`` sets the relative draw probability among the faults
    *applicable* at fire time (a crash that would drop below
    ``min_survivors`` is not applicable; metadata corruption needs a
    snapshot to exist).  ``duration_s`` bounds transient windows
    (write-fail, slowdown, partition) and ``factor`` is the slowdown
    multiplier.
    """

    kind: str = FAULT_NODE_CRASH
    weight: float = 1.0
    duration_s: float = 0.2
    factor: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(have {', '.join(FAULT_KINDS)})"
            )
        if self.weight <= 0:
            raise ValueError("fault weight must be positive")


@dataclass(frozen=True)
class CampaignSpec:
    """Shape of one fault-injection campaign."""

    #: mean time between faults (simulated seconds)
    mtbf_s: float
    #: stop injecting after this many faults
    max_failures: int = 2
    #: earliest time the first fault may fire
    start_at: float = 0.0
    #: node names never crashed (the HNP's node is always excluded)
    exclude_nodes: tuple[str, ...] = ()
    #: stop crashing when this few eligible nodes would remain
    min_survivors: int = 1
    #: RNG stream name (deterministic per cluster seed)
    stream: str = "campaign"
    #: fault vocabulary drawn from at each arrival (weighted)
    faults: tuple[FaultSpec, ...] = (FaultSpec(),)


@dataclass
class CampaignReport:
    """What happened: completion, failures, and recovery economics."""

    completed: bool
    final_jobid: int
    final_state: str
    #: sim time when the lineage settled (finished or gave up)
    makespan_s: float
    #: injected faults: [{"at": sim_time, "kind": ..., "node": name|None}]
    failures: list = field(default_factory=list)
    #: per-episode recovery audit (see RecoveryRecord.to_dict)
    recoveries: list = field(default_factory=list)
    #: successful restarts across the lineage
    restarts: int = 0
    #: total progress rolled back across all recoveries
    work_lost_s: float = 0.0
    #: total failure-detection-to-running latency
    recovery_latency_s: float = 0.0
    #: intervals that reached stable storage across the followed lineage
    committed_checkpoints: int = 0
    #: injected faults per kind
    fault_counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


class FaultCampaign:
    """Arms and re-arms exponentially spaced faults against a cluster."""

    def __init__(self, universe: "Universe", spec: CampaignSpec):
        self.universe = universe
        self.spec = spec
        self.failures: list[dict] = []
        self.stopped = False
        self._static_exclude = tuple(spec.exclude_nodes)

    @property
    def _exclude(self) -> tuple[str, ...]:
        """Nodes shielded from ordinary crashes, *as of now*.

        The control-plane node is resolved at fire time, not arm time:
        after an HNP failover the newly elected HNP's node inherits the
        protection (only the dedicated ``hnp_crash`` fault may target
        it), and the old node is dead anyway.
        """
        universe = self.universe
        hnp = universe.hnp
        if hnp is not None and hnp.proc.alive:
            hnp_node = hnp.proc.node.name
        else:
            hnp_node = universe.cluster.nodes[0].name
        return tuple(set(self._static_exclude) | {hnp_node})

    def arm(self) -> None:
        self._schedule(max(0.0, self.spec.start_at))

    def stop(self) -> None:
        """No further faults (already-scheduled timers become no-ops)."""
        self.stopped = True

    def _rng(self):
        # One persistent stream per campaign stream name: every call
        # advances it, so inter-arrivals are i.i.d. exponential.
        return self.universe.cluster.rng(self.spec.stream)

    def _schedule(self, base_delay: float = 0.0) -> None:
        delay = base_delay + self._rng().exponential(self.spec.mtbf_s)
        self.universe.kernel.call_later(delay, self._fire)

    # -- fault applicability & execution ---------------------------------------

    def _eligible_nodes(self) -> list[str]:
        cluster = self.universe.cluster
        return [
            n.name for n in cluster.up_nodes if n.name not in self._exclude
        ]

    def _applicable(self, eligible: list[str]) -> list[FaultSpec]:
        out = []
        for fault in self.spec.faults:
            if fault.kind == FAULT_NODE_CRASH:
                if len(eligible) > self.spec.min_survivors:
                    out.append(fault)
            elif fault.kind == FAULT_NET_PARTITION:
                if eligible:
                    out.append(fault)
            elif fault.kind == FAULT_HNP_CRASH:
                if self._hnp_crash_applicable():
                    out.append(fault)
            else:
                # storage and metadata faults need no victim node
                out.append(fault)
        return out

    def _hnp_crash_applicable(self) -> bool:
        """A control-plane crash is legal only when failover can win.

        Needs failover enabled, a live HNP, at least one electable
        orted on a *different* up node (someone must be able to take
        over), and enough survivors left after the crash.
        """
        universe = self.universe
        if not universe.failover_enabled:
            return False
        hnp = universe.hnp
        if hnp is None or not hnp.proc.alive:
            return False
        hnp_node = hnp.proc.node.name
        if not any(
            o.node.name != hnp_node for o in universe.electable_orteds()
        ):
            return False
        survivors = [
            n for n in universe.cluster.up_nodes if n.name != hnp_node
        ]
        return len(survivors) >= max(1, self.spec.min_survivors)

    def _inject(self, fault: FaultSpec, eligible: list[str]) -> dict | None:
        """Fire one fault; returns the failure record or None."""
        failures = self.universe.cluster.failures
        rng = self._rng()
        if fault.kind == FAULT_NODE_CRASH:
            victim = failures.crash_random_up_node_now(
                exclude=self._exclude, stream=self.spec.stream
            )
            if victim is None:
                return None
            return {"kind": fault.kind, "node": victim}
        if fault.kind == FAULT_NET_PARTITION:
            victim = rng.choice(eligible)
            failures.partition_node_now(victim, fault.duration_s)
            return {"kind": fault.kind, "node": victim}
        if fault.kind == FAULT_STABLE_WRITE_FAIL:
            failures.fail_stable_writes_now(fault.duration_s)
            return {"kind": fault.kind, "node": None}
        if fault.kind == FAULT_STABLE_SLOW:
            failures.slow_stable_now(fault.duration_s, fault.factor)
            return {"kind": fault.kind, "node": None}
        if fault.kind == FAULT_META_CORRUPT:
            victim_path = failures.corrupt_newest_snapshot_meta_now()
            if victim_path is None:
                return None
            return {"kind": fault.kind, "node": None, "path": victim_path}
        if fault.kind == FAULT_HNP_CRASH:
            victim = failures.crash_hnp_node_now(self.universe)
            if victim is None:
                return None
            return {"kind": fault.kind, "node": victim}
        return None  # pragma: no cover

    def _fire(self) -> None:
        if self.stopped or len(self.failures) >= self.spec.max_failures:
            return
        eligible = self._eligible_nodes()
        applicable = self._applicable(eligible)
        if not applicable:
            # Nothing can fire right now (e.g. an HNP crash mid-
            # election); try again at the next arrival.
            self._schedule()
            return
        total = sum(f.weight for f in applicable)
        draw = self._rng().uniform(0.0, total)
        chosen = applicable[-1]
        for fault in applicable:
            draw -= fault.weight
            if draw <= 0:
                chosen = fault
                break
        record = self._inject(chosen, eligible)
        if record is not None:
            record["at"] = self.universe.kernel.now
            self.failures.append(record)
        # A fault that found no target (e.g. meta_corrupt before the
        # first snapshot) re-arms without consuming the failure budget.
        if len(self.failures) < self.spec.max_failures:
            self._schedule()


def follow_lineage(universe: "Universe", job: "Job") -> SimGen:
    """Generator: block until *job*'s recovery lineage settles.

    Returns the final incarnation — the job that FINISHED, or the last
    FAILED one when recovery was exhausted or impossible.
    """
    from repro.orte.job import JobState

    current = job
    while True:
        state = yield from current.wait()
        if state != JobState.FAILED:
            return current
        # Re-resolve the error manager every episode: an HNP failover
        # replaces it mid-campaign (the outcome events themselves live
        # on the universe, so none are lost across the swap).
        errmgr = universe.hnp.errmgr
        successor = yield WaitEvent(errmgr.recovery_outcome(current.jobid))
        if successor is None:
            return current
        current = successor


def _drain_background(universe: "Universe") -> None:
    """Let in-flight background work settle after the lineage has.

    Disarmed campaign timers fire as no-ops during the drain; staging
    workers finish committing in-flight intervals.  The ``try`` is
    scoped to the drain alone and forgives exactly one outcome: the
    kernel running out of runnable threads (:class:`DeadlockError`) —
    the expected end state, since killed incarnations leave non-daemon
    threads parked on events that will never fire.  A thread *crashing*
    during the drain, by contrast, is a real bug and is re-raised: the
    crash watcher piggybacks on ``kernel.trace`` (chaining to any
    caller-installed callback) and surfaces the thread's stored
    exception instead of letting the drain eat it.
    """
    kernel = universe.kernel
    crashed: list[str] = []
    prior = kernel.trace

    def watch(t: float, name: str, ev: str) -> None:
        if ev.startswith("crash:"):
            crashed.append(name)
        if prior is not None:
            prior(t, name, ev)

    kernel.trace = watch
    try:
        kernel.run()
    except DeadlockError:
        pass
    finally:
        kernel.trace = prior
    if crashed:
        for thread in kernel._threads:
            if thread.name in crashed and thread.done._exc is not None:
                raise thread.done._exc
        raise SimError(
            f"thread(s) crashed during campaign drain: {sorted(set(crashed))}"
        )


def build_campaign_report(
    universe: "Universe", job: "Job", campaign: FaultCampaign, makespan: float
) -> CampaignReport:
    """Assemble the post-campaign report for *job*'s settled lineage.

    Shared by the single-run path (:func:`run_campaign`) and the fleet
    worker (``repro.fleet.runner``), so lineage filtering, committed-
    interval counting, and fault tallies have exactly one
    implementation.  The final incarnation is the lineage's newest
    jobid — restarts always mint fresh, larger jobids, so the job that
    FINISHED (or the last FAILED one when recovery gave up) is the max.
    """
    from repro.orte.job import JobState
    from repro.snapshot import STAGE_COMMITTED

    errmgr = universe.hnp.errmgr
    lineage = errmgr.lineage_jobids(job)
    final = universe.jobs[max(lineage)]
    # Committed intervals of the *followed lineage only* — a stager in
    # a multi-job universe holds other jobs' records too.
    committed = 0
    stager_fn = getattr(universe.hnp.snapc, "stager", None)
    if stager_fn is not None:
        stager = stager_fn(universe.hnp)
        for jobid in lineage:
            committed += sum(
                1 for rec in stager.job_records(jobid)
                if rec.state == STAGE_COMMITTED
            )
    fault_counts: dict[str, int] = {}
    for entry in campaign.failures:
        kind = entry.get("kind", FAULT_NODE_CRASH)
        fault_counts[kind] = fault_counts.get(kind, 0) + 1
    lineage_records = [
        r for r in errmgr.recovery_log if r.failed_jobid in lineage
    ]
    lineage_recovered = [r for r in lineage_records if r.recovered]
    return CampaignReport(
        completed=final.state == JobState.FINISHED,
        final_jobid=final.jobid,
        final_state=final.state.value,
        makespan_s=makespan,
        failures=list(campaign.failures),
        recoveries=[r.to_dict() for r in lineage_records],
        restarts=len(lineage_recovered),
        work_lost_s=sum(r.work_lost_s or 0.0 for r in lineage_recovered),
        recovery_latency_s=sum(
            r.latency_s or 0.0 for r in lineage_recovered
        ),
        committed_checkpoints=committed,
        fault_counts=fault_counts,
    )


def run_campaign(
    universe: "Universe", job: "Job", spec: CampaignSpec
) -> CampaignReport:
    """Drive the kernel through a campaign against *job*'s lineage."""
    campaign = FaultCampaign(universe, spec)
    campaign.arm()
    marks: dict[str, float] = {}

    def tracked() -> SimGen:
        # Stamp the settle time from inside the simulation: kernel.now
        # read after run_until_complete() would include whatever later
        # campaign timers the final drain happened to process.
        final = yield from follow_lineage(universe, job)
        marks["settled_at"] = universe.kernel.now
        # Disarm now: no fault may land after the lineage settled, and
        # a campaign whose faults never become applicable again would
        # otherwise keep re-arming (and the kernel running) forever.
        campaign.stop()
        return final

    thread = universe.kernel.spawn(tracked(), name=f"campaign-job{job.jobid}")
    universe.kernel.run_until_complete(thread)
    makespan = marks.get("settled_at", universe.kernel.now)
    _drain_background(universe)
    return build_campaign_report(universe, job, campaign, makespan)
