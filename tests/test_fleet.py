"""Fleet spec/runner unit coverage: seed derivation, grid validation,
in-band error reporting, timeout watchdog, retry accounting, and
meta-report aggregation (KernelStats.merge)."""

from __future__ import annotations

import signal

import pytest

from repro.fleet import (
    FleetRunner,
    FleetSpec,
    FleetTimeout,
    GridCell,
    derive_cell_seed,
    run_cell,
)
from repro.fleet.presets import demo_fleet
from repro.simenv.campaign import CampaignSpec
from repro.simenv.kernel import KernelStats

QUIET = {"progress": lambda line: None}


def small_spec(**overrides) -> FleetSpec:
    fields = dict(
        name="unit",
        app="churn",
        np=2,
        app_args={"loops": 10, "compute_s": 0.005, "state_bytes": 1 << 16},
        seeds=(0,),
        clusters={"default": {"n_nodes": 4}},
        params={"default": {}},
        campaigns={"quiet": CampaignSpec(mtbf_s=5.0, max_failures=0)},
        retries=0,
    )
    fields.update(overrides)
    return FleetSpec(**fields)


class TestSeedDerivation:
    def test_pure_function_of_coordinates(self):
        assert derive_cell_seed(7, 0) == derive_cell_seed(7, 0)
        assert derive_cell_seed(7, 0) != derive_cell_seed(7, 1)
        assert derive_cell_seed(7, 0) != derive_cell_seed(8, 0)
        assert derive_cell_seed(7, 0, "a") != derive_cell_seed(7, 0, "b")

    def test_default_axes_share_arrivals_within_a_replica(self):
        spec = small_spec(
            seeds=(0, 1), params={"a": {}, "b": {}},
        )
        seed_a0 = spec.cell_seed(GridCell(0, "default", "a", "quiet"))
        seed_b0 = spec.cell_seed(GridCell(0, "default", "b", "quiet"))
        seed_a1 = spec.cell_seed(GridCell(1, "default", "a", "quiet"))
        # Same replica, different configuration: identical cluster seed
        # (the configurations race the same Poisson arrival process).
        assert seed_a0 == seed_b0
        assert seed_a0 != seed_a1

    def test_extra_axes_decorrelate(self):
        spec = small_spec(
            params={"a": {}, "b": {}}, seed_axes=("seed", "params")
        )
        assert spec.cell_seed(
            GridCell(0, "default", "a", "quiet")
        ) != spec.cell_seed(GridCell(0, "default", "b", "quiet"))


class TestGrid:
    def test_product_grid_order_is_deterministic(self):
        spec = small_spec(
            seeds=(0, 1),
            params={"b": {}, "a": {}},
            campaigns={
                "quiet": CampaignSpec(mtbf_s=5.0, max_failures=0),
                "loud": CampaignSpec(mtbf_s=0.1),
            },
        )
        keys = [cell.key for cell in spec.cells()]
        assert keys == sorted(keys, key=lambda k: k.split("/")) != []
        assert keys == [cell.key for cell in spec.cells()]

    def test_unknown_labels_rejected(self):
        spec = small_spec(
            cells_override=(GridCell(0, "default", "nope", "quiet"),)
        )
        with pytest.raises(ValueError, match="params label"):
            spec.cells()

    def test_duplicate_cells_rejected(self):
        cell = GridCell(0, "default", "default", "quiet")
        spec = small_spec(cells_override=(cell, cell))
        with pytest.raises(ValueError, match="duplicate"):
            spec.cells()


class TestRunCell:
    def test_worker_reports_errors_in_band(self):
        spec = small_spec(clusters={"default": {"n_nodes": 4, "bogus": 1}})
        payload = spec.payload(spec.cells()[0])
        out = run_cell(payload)
        assert out["ok"] is False
        assert out["error"].startswith("TypeError:")
        assert out["report"] is None

    def test_in_sim_job_failure_is_a_valid_result(self):
        # An unknown app crashes the *job*, not the worker: a settled
        # campaign with completed=False is data, not a fleet error.
        spec = small_spec(app="no-such-app")
        out = run_cell(spec.payload(spec.cells()[0]))
        assert out["ok"] is True
        assert out["report"]["completed"] is False

    def test_watchdog_times_out_a_wedged_run(self):
        spec = small_spec(
            app_args={
                "loops": 500_000, "compute_s": 0.001, "state_bytes": 1 << 10
            },
            timeout_s=0.2,
        )
        out = run_cell(spec.payload(spec.cells()[0]))
        assert out["ok"] is False
        assert out["error"].startswith("timeout:")

    def test_watchdog_survives_a_swallowed_alarm(self, monkeypatch):
        """The first alarm's FleetTimeout is lost, as when it lands in
        a collected generator's ``GeneratorExit`` cleanup; the watchdog
        fires again and the cell still times out."""
        real_signal = signal.signal
        swallowed = []

        def install(signum, handler):
            if signum != signal.SIGALRM or not callable(handler):
                return real_signal(signum, handler)

            def first_alarm_lost(num, frame):
                if swallowed:
                    return handler(num, frame)
                try:
                    handler(num, frame)
                except FleetTimeout:
                    swallowed.append(num)

            return real_signal(signum, first_alarm_lost)

        monkeypatch.setattr(signal, "signal", install)
        spec = small_spec(
            app_args={
                "loops": 100_000, "compute_s": 0.001, "state_bytes": 1 << 10
            },
            timeout_s=0.2,
        )
        out = run_cell(spec.payload(spec.cells()[0]))
        assert swallowed == [signal.SIGALRM]
        assert out["ok"] is False
        assert out["error"].startswith("timeout:")

    def test_successful_cell_ships_report_and_stats(self):
        spec = small_spec()
        out = run_cell(spec.payload(spec.cells()[0]))
        assert out["ok"], out["error"]
        assert out["report"]["completed"] is True
        assert out["kernel_stats"]["events"] > 0
        assert out["scheduler"] is not None


class TestRunner:
    def test_retry_accounting_on_persistent_failure(self):
        spec = small_spec(
            clusters={"default": {"n_nodes": 4, "bogus": 1}}, retries=1
        )
        report = FleetRunner(spec, **QUIET).run(workers=1)
        (cell,) = report.cells
        assert cell.ok is False
        assert cell.attempts == 2  # original + one retry
        assert report.aggregates()["failed"] == 1

    def test_results_keep_spec_order_across_workers(self):
        spec = demo_fleet()
        report = FleetRunner(spec, **QUIET).run(workers=2)
        assert [c.key for c in report.cells] == [
            c.key for c in spec.cells()
        ]
        assert all(c.ok for c in report.cells)

    def test_progress_lines_are_emitted(self):
        lines: list[str] = []
        spec = small_spec()
        FleetRunner(spec, progress=lines.append).run(workers=1)
        assert any("1/1 runs" in line for line in lines)
        assert any("events/cpu-sec" in line for line in lines)


class TestKernelStatsMerge:
    def test_counters_add_and_peaks_max(self):
        a, b = KernelStats(), KernelStats()
        a.events, b.events = 10, 32
        a.run_cpu_s, b.run_cpu_s = 1.0, 3.0
        a.peak_heap, b.peak_heap = 7, 5
        a.merge(b)
        assert a.events == 42
        assert a.run_cpu_s == 4.0
        assert a.peak_heap == 7

    def test_merge_accepts_dict_and_recomputes_rates(self):
        a = KernelStats()
        a.merge({"events": 100, "run_cpu_s": 2.0, "peak_ready": 3,
                 "events_per_cpu_sec": 123456.0})  # derived key ignored
        assert a.events == 100 and a.peak_ready == 3
        assert a.to_dict()["events_per_cpu_sec"] == pytest.approx(50.0)

    def test_fleet_report_aggregates_stats(self):
        report = FleetRunner(small_spec(), **QUIET).run(workers=1)
        merged = report.kernel_stats()
        assert merged["events"] == report.cells[0].kernel_stats["events"]
        assert merged["events_per_cpu_sec"] >= 0
