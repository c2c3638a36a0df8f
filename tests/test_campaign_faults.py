"""Campaign RNG regression and the widened fault vocabulary.

The seed-era bug: ``Cluster.rng(stream)`` built a fresh ``RngStream``
per call, so every campaign inter-arrival was the *same* first
exponential sample — a fixed-period clock wearing a Poisson costume.
These tests pin the fix (non-constant, reproducible inter-arrivals)
and drive each new fault kind through an actual recovery, not just a
detection: stable-storage write failures and slowdowns, data-plane
partitions mid-stage, and truncated snapshot metadata.
"""

from __future__ import annotations

from repro.simenv import CampaignSpec, FaultCampaign, FaultSpec, run_campaign
from repro.simenv.kernel import DeadlockError
from repro.snapshot import STAGE_COMMITTED, STAGE_FAILED, parse_global_dirname
from repro.tools.api import ompi_checkpoint, ompi_run
from tests.conftest import make_universe

#: ~2 sim-seconds of runtime, intervals commit ~0.21 s after request
CHURN_SMALL = {"loops": 200, "compute_s": 0.01, "state_bytes": 4 << 20}
#: ~0.2 sim-seconds: finishes before a late-starting campaign fires
CHURN_TINY = {"loops": 20, "compute_s": 0.01, "state_bytes": 1 << 20}

RECOVER = {"orte_errmgr_autorecover": "1"}
SCHEDULED = dict(RECOVER, snapc_full_checkpoint_every="0.25")


def _records(universe, jobid):
    stager = universe.hnp.snapc.stager(universe.hnp)
    return stager.job_records(jobid)


class TestCampaignRngRegression:
    def _fire_times(self, seed: int) -> list[float]:
        universe = make_universe(6, seed=seed)
        campaign = FaultCampaign(
            universe, CampaignSpec(mtbf_s=0.1, max_failures=3)
        )
        campaign.arm()
        try:
            universe.kernel.run()
        except DeadlockError:
            pass
        assert len(campaign.failures) == 3
        return [f["at"] for f in campaign.failures]

    def test_inter_arrivals_non_constant_and_reproducible(self):
        """Poisson inter-arrivals are i.i.d. draws (the re-seeding bug
        made them all equal), yet identical across same-seed runs."""
        times = self._fire_times(seed=20070326)
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert len(set(round(d, 12) for d in deltas)) == len(deltas), deltas
        # same seed -> same schedule; different seed -> different one
        assert self._fire_times(seed=20070326) == times
        assert self._fire_times(seed=1234567) != times

    def test_victim_draws_advance_too(self):
        """crash_random_up_node_now shares the persistent stream, so
        successive victims are not forced onto one node."""
        universe = make_universe(8)
        injector = universe.cluster.failures
        victims = {
            injector.crash_random_up_node_now(exclude=("node00",))
            for _ in range(4)
        }
        assert len(victims) == 4  # dead nodes are never re-drawn anyway
        # a re-seeding rng would have produced the same *first* index
        # every call; with 7 eligible nodes at the first draw, four
        # draws landing on four distinct indices pins advancing state
        assert None not in victims


class TestStableStorageFaults:
    def test_write_fail_window_fails_interval_then_recovers(self):
        """Stable-storage writes bounce for a window: the staged
        interval FAILs (not the worker), later intervals commit, and a
        node crash still recovers from a committed snapshot."""
        universe = make_universe(4, params=SCHEDULED)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        universe.kernel.call_at(
            0.30, lambda: universe.cluster.failures.fail_stable_writes_now(0.3)
        )
        universe.cluster.failures.crash_node_at(1.1, "node03")
        universe.run_job_to_completion(job)

        records = _records(universe, job.jobid)
        failed = [r for r in records if r.state == STAGE_FAILED]
        committed = [r for r in records if r.state == STAGE_COMMITTED]
        assert failed, [r.state for r in records]
        assert any("write failed" in (r.error or "") for r in failed)
        assert committed  # the pipeline healed after the window
        errmgr = universe.hnp.errmgr
        assert errmgr.recoveries, "crash did not recover"
        assert errmgr.recovery_log[0].recovered
        final = universe.job(errmgr.recoveries[-1][1])
        assert final.state.value == "finished"

    def test_slowdown_window_stretches_commit_then_recovers(self):
        """A throughput slowdown stretches stable-commit latency but
        nothing fails; recovery from the slow-committed interval works."""

        def commit_latency(with_fault: bool) -> tuple[float, object]:
            universe = make_universe(4, params=SCHEDULED)
            job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
            if with_fault:
                universe.kernel.call_at(
                    0.30,
                    lambda: universe.cluster.failures.slow_stable_now(0.4, 25.0),
                )
                universe.cluster.failures.crash_node_at(1.3, "node03")
            universe.run_job_to_completion(job)
            record = _records(universe, job.jobid)[0]
            assert record.state == STAGE_COMMITTED
            assert record.committed_at is not None
            return record.committed_at - record.enqueued_at, universe

        baseline, _ = commit_latency(with_fault=False)
        slowed, universe = commit_latency(with_fault=True)
        assert slowed > 2 * baseline, (slowed, baseline)
        errmgr = universe.hnp.errmgr
        assert errmgr.recoveries and errmgr.recovery_log[0].recovered
        final = universe.job(errmgr.recoveries[-1][1])
        assert final.state.value == "finished"


class TestNetworkPartition:
    def test_partition_mid_stage_fails_gather_then_recovers(self):
        """A node partitioned from the storage network mid-stage fails
        the gather with NetworkError; staging retries, the interval
        FAILs, and a later crash still recovers from a later commit."""
        universe = make_universe(4, params=SCHEDULED)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        # interval 1 is requested at 0.25 and gathers until ~0.46;
        # partition one source node for the whole stage window
        universe.kernel.call_at(
            0.27,
            lambda: universe.cluster.failures.partition_node_now("node03", 0.25),
        )
        universe.cluster.failures.crash_node_at(1.1, "node02")
        universe.run_job_to_completion(job)

        records = _records(universe, job.jobid)
        failed = [r for r in records if r.state == STAGE_FAILED]
        assert failed, [r.state for r in records]
        assert any("partitioned" in (r.error or "") for r in failed)
        errmgr = universe.hnp.errmgr
        assert errmgr.recoveries and errmgr.recovery_log[0].recovered
        final = universe.job(errmgr.recoveries[-1][1])
        assert final.state.value == "finished"
        # the partition healed: the final incarnation kept committing
        assert any(
            r.state == STAGE_COMMITTED
            for r in _records(universe, final.jobid)
        ) or final.jobid == job.jobid


class TestMetadataCorruption:
    def test_corrupt_newest_meta_walks_back(self):
        """Truncating the newest committed metadata via the injector
        makes recovery walk back to the previous interval — the same
        path the hand-edited-metadata test exercised, now injected."""
        universe = make_universe(4, params=RECOVER)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.3, wait=False)
        # both intervals are committed by ~0.51; corrupt the newest
        corrupted: list[str] = []

        def corrupt():
            victim = (
                universe.cluster.failures.corrupt_newest_snapshot_meta_now()
            )
            if victim:
                corrupted.append(victim)

        universe.kernel.call_at(0.55, corrupt)
        universe.cluster.failures.crash_node_at(0.62, "node03")
        universe.run_job_to_completion(job)

        assert corrupted, "no snapshot metadata found to corrupt"
        victim_dir = corrupted[0].rsplit("/", 1)[0]
        assert parse_global_dirname(victim_dir) == (job.jobid, 2)
        errmgr = universe.hnp.errmgr
        [record] = errmgr.recovery_log
        assert record.recovered
        assert record.snapshot is not None
        assert parse_global_dirname(record.snapshot) == (job.jobid, 1)
        final = universe.job(errmgr.recoveries[-1][1])
        assert final.state.value == "finished"

    def test_corrupt_before_any_snapshot_is_a_noop(self):
        universe = make_universe(2)
        assert (
            universe.cluster.failures.corrupt_newest_snapshot_meta_now()
            is None
        )


class TestMixedFaultCampaign:
    HOSTILE = (
        FaultSpec("node_crash", weight=2.0),
        FaultSpec("stable_write_fail", weight=1.0, duration_s=0.15),
        FaultSpec("stable_slow", weight=1.0, duration_s=0.2, factor=10.0),
        FaultSpec("net_partition", weight=1.0, duration_s=0.15),
        FaultSpec("meta_corrupt", weight=1.0),
    )

    def test_mixed_campaign_completes_and_reports_kinds(self):
        universe = make_universe(6, params=SCHEDULED)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        spec = CampaignSpec(
            mtbf_s=0.25, max_failures=5, start_at=0.3, faults=self.HOSTILE
        )
        report = run_campaign(universe, job, spec)
        assert report.completed, report.to_dict()
        assert report.failures
        assert sum(report.fault_counts.values()) == len(report.failures)
        for entry in report.failures:
            assert entry["kind"] in {f.kind for f in self.HOSTILE}
        assert report.committed_checkpoints >= 1

    def test_unknown_fault_kind_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FaultSpec("cosmic_ray")


class TestCampaignRearm:
    FAILOVER = dict(
        RECOVER, orte_hnp_failover="1", snapc_full_checkpoint_every="0.15"
    )

    def test_inapplicable_draw_rearms(self):
        """An arrival with no applicable fault (an HNP crash while the
        previous failover is still electing) re-arms the campaign
        instead of ending it: all three HNP crashes land."""
        universe = make_universe(8, params=self.FAILOVER)
        job = ompi_run(
            universe, "churn", 4,
            args={"loops": 300, "compute_s": 0.01, "state_bytes": 1 << 20},
            wait=False,
        )
        spec = CampaignSpec(
            mtbf_s=0.3, start_at=0.3, max_failures=3,
            faults=(FaultSpec("hnp_crash"),),
        )
        report = run_campaign(universe, job, spec)
        assert report.completed, report.to_dict()
        assert report.fault_counts == {"hnp_crash": 3}
        assert universe.failovers == 3
        assert all(f["at"] <= report.makespan_s for f in report.failures)

    def test_never_applicable_campaign_stops_at_settle(self):
        """A fault kind that can never apply (HNP crash without
        failover) keeps re-arming only until the lineage settles."""
        universe = make_universe(4, params=RECOVER)
        job = ompi_run(universe, "churn", 2, args=CHURN_TINY, wait=False)
        spec = CampaignSpec(
            mtbf_s=0.05, max_failures=1, faults=(FaultSpec("hnp_crash"),)
        )
        report = run_campaign(universe, job, spec)
        assert report.completed and report.failures == []


class TestCommittedCheckpointScoping:
    def test_committed_count_is_lineage_scoped(self):
        """A bystander job's committed intervals must not inflate the
        campaign report (the multi-job E12 topology)."""
        universe = make_universe(6, params=SCHEDULED)
        bystander = ompi_run(universe, "churn", 1, args=CHURN_TINY, wait=False)
        ompi_checkpoint(universe, bystander.jobid, at=0.05, wait=False)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        spec = CampaignSpec(mtbf_s=0.4, max_failures=1, start_at=0.6)
        report = run_campaign(universe, job, spec)
        assert report.completed, report.to_dict()

        errmgr = universe.hnp.errmgr
        lineage = errmgr.lineage_jobids(job)
        assert bystander.jobid not in lineage
        stager = universe.hnp.snapc.stager(universe.hnp)
        total_committed = sum(
            1
            for st in stager._jobs.values()
            for rec in st.records.values()
            if rec.state == STAGE_COMMITTED
        )
        lineage_committed = sum(
            1
            for jobid in lineage
            for rec in stager.job_records(jobid)
            if rec.state == STAGE_COMMITTED
        )
        # the bystander committed at least one interval of its own
        assert total_committed > lineage_committed
        assert report.committed_checkpoints == lineage_committed
