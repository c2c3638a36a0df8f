"""Asynchronous staged aggregation + incremental checkpoints.

Covers the background staging coordinator (Figure 1-F made true):
checkpoint replies return at D/E while the gather/cleanup/commit run in
a per-job worker; backpressure bounds the pipeline; restart waits for
commit; a node death mid-stage fails the interval without touching the
application; and incremental (delta) intervals staged through the
content-addressed store restart on their own, while every other
interval is a full image.
"""

import pytest

from repro.obs.report import filter_spans
from repro.snapshot import (
    STAGE_COMMITTED,
    STAGE_FAILED,
    read_global_meta,
)
from repro.tools.api import (
    checkpoint_ref,
    ompi_checkpoint,
    ompi_restart,
    ompi_run,
)
from repro.util.errors import RestartError
from tests.conftest import make_universe, run_gen

CHURN = {"loops": 80, "compute_s": 0.01, "state_bytes": 4 << 20}


def churn_baseline(np: int = 4, args: dict | None = None) -> dict:
    universe = make_universe(4)
    job = ompi_run(universe, "churn", np, args=dict(args or CHURN))
    assert job.state.value == "finished"
    return job.results


@pytest.fixture(scope="module")
def baseline():
    return churn_baseline()


def read_meta(universe, ref):
    def gen():
        meta = yield from read_global_meta(universe.cluster.stable_fs, ref)
        return meta

    return run_gen(universe.kernel, gen())


def stage_spans(universe) -> list[dict]:
    spans = filter_spans(
        universe.kernel.tracer.to_dict(), name="snapc.stage"
    )
    spans.sort(key=lambda s: s["attrs"]["interval"])
    return spans


class TestAsyncStaging:
    def test_reply_before_commit_and_job_resumes(self, baseline):
        """The checkpoint reply returns at D/E; the gather and the
        metadata commit happen in the background stage span."""
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"
        assert job.results == baseline
        assert handle.result()["ok"]
        (stage,) = stage_spans(universe)
        ckpt = filter_spans(
            universe.kernel.tracer.to_dict(), name="snapc.checkpoint"
        )[0]
        # The request span (ends when the app resumes) closes before the
        # background stage does.
        assert ckpt["t0"] + ckpt["dur"] < stage["t0"] + stage["dur"]
        assert stage["attrs"]["ok"] is True
        assert stage["attrs"]["bytes"] > 0
        ref = checkpoint_ref(handle)
        meta = read_meta(universe, ref)
        assert meta.staging["state"] == STAGE_COMMITTED
        assert meta.staging["committed_sim_time"] is not None
        assert job.snapshots == [ref]

    def test_pipeline_overlap_with_depth_two(self):
        """With the default stage depth, a second interval fans out
        while the first is still staging."""
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        h1 = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        h2 = ompi_checkpoint(universe, job.jobid, at=0.16, wait=False)
        universe.run_job_to_completion(job)
        assert h1.result()["ok"] and h2.result()["ok"]
        assert h1.result()["interval"] == 1
        assert h2.result()["interval"] == 2
        stages = stage_spans(universe)
        ckpts = sorted(
            filter_spans(
                universe.kernel.tracer.to_dict(), name="snapc.checkpoint"
            ),
            key=lambda s: s["attrs"]["interval"],
        )
        # Interval 2's request phase ran while interval 1 still staged...
        assert ckpts[1]["t0"] < stages[0]["t0"] + stages[0]["dur"]
        # ...but commits stay FIFO: stage 1 closed before stage 2.
        assert stages[0]["t0"] + stages[0]["dur"] <= stages[1]["t0"] + stages[1]["dur"]
        assert [r.path for r in job.snapshots] == [
            h1.result()["snapshot"],
            h2.result()["snapshot"],
        ]

    def test_backpressure_depth_one_serializes_stages(self):
        """depth=1: the next request blocks (before the app is touched)
        until the previous interval settles, so stages never overlap."""
        universe = make_universe(
            4,
            params={"obs_trace_enabled": "1", "snapc_full_stage_depth": "1"},
        )
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        h1 = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        # 0.2: the app has resumed but interval 1 is still staging.
        h2 = ompi_checkpoint(universe, job.jobid, at=0.2, wait=False)
        universe.run_job_to_completion(job)
        assert h1.result()["ok"] and h2.result()["ok"]
        stages = stage_spans(universe)
        ckpts = sorted(
            filter_spans(
                universe.kernel.tracer.to_dict(), name="snapc.checkpoint"
            ),
            key=lambda s: s["attrs"]["interval"],
        )
        # Interval 2's request phase only started once interval 1 had
        # fully settled (its slot freed at stage close).
        assert ckpts[1]["t0"] >= stages[0]["t0"] + stages[0]["dur"]
        assert stages[1]["t0"] >= stages[0]["t0"] + stages[0]["dur"]

    def test_wait_stable_restores_synchronous_reply(self):
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(
            universe, job.jobid, at=0.1, wait=False, wait_stable=True
        )
        reply_time = {}

        def watch():
            from repro.simenv.kernel import Delay, WaitEvent

            while handle.done is None:
                yield Delay(1e-4)
            yield WaitEvent(handle.done)
            reply_time["t"] = universe.kernel.now
            return None

        universe.kernel.spawn(watch(), name="watch", daemon=True)
        universe.run_job_to_completion(job)
        assert handle.result()["ok"]
        (stage,) = stage_spans(universe)
        # The reply only left after the background commit finished.
        assert reply_time["t"] >= stage["t0"] + stage["dur"]

    def test_terminate_halts_at_de_and_commits_in_background(self, baseline):
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(
            universe, job.jobid, at=0.1, terminate=True, wait=False
        )
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        assert handle.result()["ok"]
        ref = checkpoint_ref(handle)
        meta = read_meta(universe, ref)
        assert meta.staging["state"] == STAGE_COMMITTED
        assert job.snapshots == [ref]
        new_job = ompi_restart(universe, ref)
        assert new_job.state.value == "finished"
        assert new_job.results == baseline


class TestStageFailure:
    def test_node_death_mid_stage_fails_interval_only(self):
        """A source node dying mid-gather exhausts the retries and marks
        the interval FAILED; restart from it is refused."""
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        # After the reply (~0.135) but before the gather finishes (~0.3).
        universe.cluster.failures.crash_node_at(0.17, "node03")
        universe.run_job_to_completion(job)
        # The reply had already returned OK; the app was never aborted —
        # it died because its own rank's node crashed, not because of
        # the staging machinery.
        assert handle.result()["ok"]
        ref = checkpoint_ref(handle)
        (stage,) = stage_spans(universe)
        assert stage["attrs"]["ok"] is False
        meta = read_meta(universe, ref)
        assert meta.staging["state"] == STAGE_FAILED
        assert meta.staging["error"]
        # Never committed: not in the job's usable snapshot list.
        assert job.snapshots == []
        with pytest.raises(RestartError):
            ompi_restart(universe, ref)

    def test_autorecover_uses_last_committed_interval(self):
        """With an earlier committed interval, recovery after a
        mid-stage node death restarts from the committed one."""
        args = dict(CHURN, loops=100)
        expected = churn_baseline(4, args)
        universe = make_universe(
            4,
            params={
                "obs_trace_enabled": "1",
                "orte_errmgr_autorecover": "1",
            },
        )
        job = ompi_run(universe, "churn", 4, args=args, wait=False)
        h1 = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        h2 = ompi_checkpoint(universe, job.jobid, at=0.5, wait=False)
        universe.cluster.failures.crash_node_at(0.57, "node03")
        universe.run_job_to_completion(job)
        assert job.state.value == "failed"
        assert h1.result()["ok"] and h2.result()["ok"]
        stages = stage_spans(universe)
        assert stages[0]["attrs"]["ok"] is True
        assert stages[1]["attrs"]["ok"] is False
        # Only the committed interval is recoverable, and it was used.
        assert job.snapshots == [checkpoint_ref(h1)]
        assert universe.hnp.errmgr.recoveries
        recovered = universe.job(universe.hnp.errmgr.recoveries[0][1])
        universe.run_job_to_completion(recovered)
        assert recovered.state.value == "finished"
        assert recovered.results == expected

    def test_restart_of_failed_metadata_refused(self):
        """Even without a live staging record (coordinator restarted),
        FAILED metadata on stable storage refuses the restart."""
        universe = make_universe(4, params={"obs_trace_enabled": "1"})
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.cluster.failures.crash_node_at(0.17, "node03")
        universe.run_job_to_completion(job)
        ref = checkpoint_ref(handle)
        # Forget the in-memory record; the metadata alone must decide.
        universe.hnp.snapc._stager._jobs.clear()
        with pytest.raises(RestartError, match="stable storage"):
            ompi_restart(universe, ref)


def write_bytes_by_interval(universe) -> dict[int, int]:
    """Local ``crs.write`` bytes per interval, summed over the ranks."""
    trace = universe.kernel.tracer.to_dict()
    writes = filter_spans(trace, name="crs.write")
    out = {}
    for ckpt in filter_spans(trace, name="snapc.checkpoint"):
        t0, t1 = ckpt["t0"], ckpt["t0"] + ckpt["dur"]
        out[ckpt["attrs"]["interval"]] = sum(
            w["attrs"]["bytes"] for w in writes if t0 <= w["t0"] <= t1
        )
    return out


class TestCASIncremental:
    """``snapc_full_interval_every`` on the content-addressed path: the
    ranks write only changed chunks, the store supplies the rest, and
    every committed interval restarts on its own."""

    ARGS = dict(CHURN, loops=100)
    PARAMS = {
        "obs_trace_enabled": "1",
        "filem": "rsh",
        "snapc_full_cas": "1",
        "snapc_full_interval_every": "3",
    }

    @pytest.fixture(scope="class")
    def four(self):
        universe = make_universe(4, params=dict(self.PARAMS))
        job = ompi_run(universe, "churn", 4, args=self.ARGS, wait=False)
        handles = [
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
            for at in (0.1, 0.3, 0.5, 0.7)
        ]
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"
        for handle in handles:
            assert handle.result()["ok"], handle.result()["error"]
        return universe, [checkpoint_ref(h) for h in handles]

    def test_cas_kinds_and_delta_write_bytes(self, four):
        universe, refs = four
        metas = [read_meta(universe, ref) for ref in refs]
        # every 3rd interval is full: full, delta, delta, full again
        assert [m.kind for m in metas] == ["full", "delta", "delta", "full"]
        assert all(m.cas for m in metas)
        assert [m.base_interval for m in metas] == [None, 1, 2, None]
        records = universe.hnp.snapc.stager(universe.hnp).job_records(
            metas[0].jobid
        )
        assert [r.state for r in records] == [STAGE_COMMITTED] * 4
        # A delta writes only its dirty chunks locally: a small
        # fraction of the full interval's image bytes.
        written = write_bytes_by_interval(universe)
        for interval in (2, 3):
            assert written[interval] < 0.5 * written[1]
        # Restart needs no other directory: each rank directory holds a
        # manifest listing every chunk, and no image of its own.
        stable = universe.cluster.stable_fs
        for ref in refs:
            assert not stable.exists(f"{ref.local_dir(0)}/image.pkl")

    def test_restart_from_every_interval(self, four):
        universe, refs = four
        expected = churn_baseline(4, self.ARGS)
        for ref in refs:
            new_job = ompi_restart(universe, ref)
            assert new_job.state.value == "finished", ref.path
            assert new_job.results == expected, ref.path

    def test_failed_cas_stage_forces_next_interval_full(self):
        """A delta interval whose staging fails forces the next
        interval to a full image, and that interval restarts."""
        expected = churn_baseline(4, self.ARGS)
        universe = make_universe(4, params=dict(self.PARAMS))
        job = ompi_run(universe, "churn", 4, args=self.ARGS, wait=False)
        handles = [
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
            for at in (0.1, 0.3, 0.5)
        ]
        # Stable storage refuses writes while interval 2 stages.
        universe.kernel.call_at(
            0.3,
            lambda: universe.cluster.failures.fail_stable_writes_now(0.15),
        )
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"
        for handle in handles:
            assert handle.result()["ok"], handle.result()["error"]
        refs = [checkpoint_ref(h) for h in handles]
        records = universe.hnp.snapc.stager(universe.hnp).job_records(
            job.jobid
        )
        assert [r.kind for r in records] == ["full", "delta", "full"]
        assert [r.state for r in records] == [
            STAGE_COMMITTED, STAGE_FAILED, STAGE_COMMITTED
        ]
        assert job.snapshots == [refs[0], refs[2]]
        new_job = ompi_restart(universe, refs[2])
        assert new_job.state.value == "finished"
        assert new_job.results == expected

    @pytest.mark.parametrize("filem,cas", [("rsh", "0"), ("shared", "1")])
    def test_non_cas_intervals_stay_full(self, filem, cas):
        """Without CAS staging (off, or a direct-to-stable FILEM that
        cannot speak the chunk protocol) every interval is a full image
        on stable storage, whatever the cadence asks."""
        expected = churn_baseline(4, self.ARGS)
        params = dict(self.PARAMS, filem=filem, snapc_full_cas=cas)
        universe = make_universe(4, params=params)
        job = ompi_run(universe, "churn", 4, args=self.ARGS, wait=False)
        handles = [
            ompi_checkpoint(universe, job.jobid, at=at, wait=False)
            for at in (0.1, 0.4)
        ]
        universe.run_job_to_completion(job)
        for handle in handles:
            assert handle.result()["ok"], handle.result()["error"]
        refs = [checkpoint_ref(h) for h in handles]
        stable = universe.cluster.stable_fs
        for ref in refs:
            meta = read_meta(universe, ref)
            assert meta.kind == "full" and not meta.cas
            for rank in range(4):
                assert stable.exists(f"{ref.local_dir(rank)}/image.pkl")
        new_job = ompi_restart(universe, refs[1])
        assert new_job.state.value == "finished"
        assert new_job.results == expected


class TestStagingAdmission:
    """Universe-level admission control over staging transfers.

    Unit tests drive the gate directly on a bare kernel; the
    integration test shows two jobs' transfers serializing under a
    one-token universe.
    """

    @staticmethod
    def _gate(kernel, tokens=1, bytes_per_s=0.0):
        from repro.orte.snapc.admission import StagingAdmission

        return StagingAdmission(kernel, tokens=tokens, bytes_per_s=bytes_per_s)

    @staticmethod
    def _holder(kernel, gate, jobid, hold_s, grants):
        """A thread that acquires, holds for hold_s, then releases."""
        from repro.simenv.kernel import Delay

        def gen():
            yield from gate.acquire(jobid)
            grants.append((kernel.now, jobid))
            yield Delay(hold_s)
            gate.release(jobid)
            return None

        return kernel.spawn(gen(), name=f"holder-job{jobid}")

    def test_unlimited_gate_never_blocks_or_posts_events(self, kernel):
        gate = self._gate(kernel, tokens=0)
        grants = []
        for jobid in (1, 2, 3):
            self._holder(kernel, gate, jobid, 0.5, grants)
        kernel.run()
        # All granted at t=0: no queueing, no token bookkeeping.
        assert [t for t, _ in grants] == [0.0, 0.0, 0.0]
        assert gate.queued == 0 and gate.admitted == 0

    def test_token_exhaustion_queues_staging(self, kernel):
        gate = self._gate(kernel, tokens=1)
        grants = []
        self._holder(kernel, gate, 1, 0.5, grants)
        self._holder(kernel, gate, 2, 0.5, grants)
        kernel.run()
        # Job 2's transfer was admitted only when job 1 released.
        assert grants == [(0.0, 1), (0.5, 2)]
        assert gate.queued == 1 and gate.admitted == 2
        assert gate.waiting == 0 and gate.held_by(1) == 0

    def test_release_wakes_waiters_fifo(self, kernel):
        from repro.simenv.kernel import Delay

        gate = self._gate(kernel, tokens=1)
        grants = []

        def staggered():
            # Queue jobs 2, 3, 4 in that order behind job 1's token.
            self._holder(kernel, gate, 1, 1.0, grants)
            yield Delay(0.01)
            self._holder(kernel, gate, 2, 1.0, grants)
            yield Delay(0.01)
            self._holder(kernel, gate, 3, 1.0, grants)
            yield Delay(0.01)
            self._holder(kernel, gate, 4, 1.0, grants)
            return None

        kernel.spawn(staggered(), name="staggered")
        kernel.run()
        # Strict FIFO: each release hands the token to the oldest waiter.
        assert [jobid for _, jobid in grants] == [1, 2, 3, 4]
        assert [t for t, _ in grants] == [0.0, 1.0, 2.0, 3.0]

    def test_job_death_releases_held_tokens(self, kernel):
        from repro.simenv.kernel import Delay

        gate = self._gate(kernel, tokens=2)
        grants = []

        def dead_job():
            # Job 1 takes both tokens and never releases (it "dies").
            yield from gate.acquire(1)
            yield from gate.acquire(1)
            return None

        def victim():
            yield from gate.acquire(2)
            grants.append(kernel.now)
            gate.release(2)
            return None

        def reaper():
            yield Delay(0.3)
            assert gate.held_by(1) == 2
            freed = gate.release_job(1)
            assert freed == 2
            return None

        kernel.spawn(dead_job(), name="dead-job")
        kernel.spawn(victim(), name="victim")
        kernel.spawn(reaper(), name="reaper")
        kernel.run()
        # The victim was unblocked by the force-release...
        assert grants == [0.3]
        assert gate.held_by(1) == 0
        # ...and the dead job's own late release is a no-op that cannot
        # inflate the pool past its capacity.
        gate.release(1)
        assert gate._available <= gate.tokens

    def test_byte_budget_serializes_concurrent_transfers(self, kernel):
        gate = self._gate(kernel, tokens=0, bytes_per_s=1e6)
        finished = []

        def mover(jobid):
            yield from gate.throttle(int(1e6))
            finished.append((kernel.now, jobid))
            return None

        kernel.spawn(mover(1), name="mover-1")
        kernel.spawn(mover(2), name="mover-2")
        kernel.run()
        # 1 MB each through a 1 MB/s shared pipe: second pays for the
        # first's bytes and lands at t=2.
        assert [t for t, _ in finished] == [1.0, 2.0]
        assert gate.throttled_s == 3.0

    def test_two_jobs_serialize_under_one_token(self):
        """Integration: tokens=1 forces the universe's two staging
        pipelines to take turns on the transfer phase."""
        universe = make_universe(
            4,
            params={
                "obs_trace_enabled": "1",
                "snapc_stage_admission_tokens": "1",
            },
        )
        job_a = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        job_b = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        h_a = ompi_checkpoint(universe, job_a.jobid, at=0.1, wait=False)
        h_b = ompi_checkpoint(universe, job_b.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job_a)
        universe.run_job_to_completion(job_b)
        assert h_a.result()["ok"] and h_b.result()["ok"]
        admission = universe.hnp.snapc.stager(universe.hnp).admission
        # One transfer queued behind the other's token and both settled.
        assert admission.queued >= 1
        assert admission.waiting == 0
        assert admission._held == {}
        # The gathers themselves never overlapped.
        gathers = filter_spans(
            universe.kernel.tracer.to_dict(), name="filem.stage_out"
        )
        assert len(gathers) >= 2
        gathers.sort(key=lambda s: s["t0"])
        for earlier, later in zip(gathers, gathers[1:]):
            assert earlier["t0"] + earlier["dur"] <= later["t0"] + 1e-12
        # The queued transfer's wait is visible as an admission span.
        waits = filter_spans(
            universe.kernel.tracer.to_dict(), name="snapc.admission"
        )
        assert waits and all(w["attrs"]["waited_s"] >= 0 for w in waits)
