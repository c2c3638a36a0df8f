"""E5 — FILEM snapshot aggregation cost (paper sections 5.2, 6.2).

Two measurements, both persisted into ``BENCH_E5.json``:

* **App-blocked vs stable-commit latency** per image size, ``rsh``
  (stage on local disk, background remote-copy to stable storage)
  against ``shared`` (write directly to the shared filesystem).  With
  asynchronous staging the checkpoint reply returns once the local
  snapshots are written, so the app-blocked window no longer charges
  the remote copy: ``rsh`` app-blocked time sits within ~1.2x of
  ``shared`` while its end-to-end commit latency still pays every
  remotely moved byte.
* **Bytes per interval kind** (E5b): incremental checkpointing
  (``snapc_full_interval_every``) runs on the content-addressed staging
  path.  A delta interval of a mostly-clean image writes a small
  fraction of the full interval's bytes to local disk, and every
  interval ships far fewer bytes to stable storage than the plain
  ``rsh`` gather of the same image size.
"""

from repro.bench.harness import (
    Row,
    format_table,
    fresh_universe,
    run_and_checkpoint,
    write_bench_json,
)
from repro.obs.report import filter_spans
from repro.tools.api import ompi_checkpoint, ompi_run
from tests.test_staging import write_bytes_by_interval

SIZES = [1 << 16, 1 << 20, 4 << 20]


def measure(filem: str, state_bytes: int) -> dict:
    universe, m = run_and_checkpoint(
        "churn",
        4,
        {"loops": 60, "compute_s": 0.01, "state_bytes": state_bytes},
        at=0.1,
        n_nodes=4,
        params={"filem": filem},
        trace=True,
    )
    assert m["ok"], m["error"]
    transfers = filter_spans(m["trace"], name="filem.transfer", op="stage_out")
    return {
        "app_blocked_s": m["app_blocked_s"],
        "stable_commit_s": m["stable_commit_s"],
        "transfers": len(transfers),
        "moved_bytes": sum(s["attrs"].get("bytes", 0) for s in transfers),
        "transfer_s": sum(s["dur"] for s in transfers),
    }


def measure_incremental(state_bytes: int = 4 << 20) -> dict:
    """Three checkpoints of one job: full, delta, delta (rsh + CAS)."""
    universe = fresh_universe(
        4,
        {
            "filem": "rsh",
            "snapc_full_cas": "1",
            "snapc_full_interval_every": 3,
            "obs_trace_enabled": "1",
        },
    )
    job = ompi_run(
        universe,
        "churn",
        4,
        args={"loops": 80, "compute_s": 0.01, "state_bytes": state_bytes},
        wait=False,
    )
    handles = [
        ompi_checkpoint(universe, job.jobid, at=at, wait=False)
        for at in (0.1, 0.3, 0.5)
    ]
    universe.run_job_to_completion(job)
    for handle in handles:
        assert handle.result().get("ok"), handle.result().get("error")
    trace = universe.kernel.tracer.to_dict()
    written = write_bytes_by_interval(universe)
    intervals = []
    for span in filter_spans(trace, name="snapc.stage"):
        interval = span["attrs"].get("interval")
        intervals.append(
            {
                "interval": interval,
                "kind": span["attrs"].get("kind"),
                "written_bytes": written[interval],
                "moved_bytes": span["attrs"].get("bytes", 0),
            }
        )
    intervals.sort(key=lambda e: e["interval"])
    return {"intervals": intervals}


def test_e5_gather_cost_vs_image_size(benchmark):
    def run():
        out = {}
        for filem in ("rsh", "shared"):
            out[filem] = {size: measure(filem, size) for size in SIZES}
        out["incremental"] = measure_incremental()
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for size in SIZES:
        rsh, shared = results["rsh"][size], results["shared"][size]
        rows.append(
            Row(
                f"{size >> 10} KiB/rank",
                {
                    "rsh blocked (ms)": rsh["app_blocked_s"] * 1e3,
                    "shared blocked (ms)": shared["app_blocked_s"] * 1e3,
                    "blocked ratio": rsh["app_blocked_s"]
                    / shared["app_blocked_s"],
                    "rsh commit (ms)": rsh["stable_commit_s"] * 1e3,
                    "shared commit (ms)": shared["stable_commit_s"] * 1e3,
                },
            )
        )
    print()
    print(
        format_table(
            "E5: app-blocked vs stable-commit latency, FILEM rsh vs shared",
            [
                "rsh blocked (ms)",
                "shared blocked (ms)",
                "blocked ratio",
                "rsh commit (ms)",
                "shared commit (ms)",
            ],
            rows,
        )
    )
    intervals = results["incremental"]["intervals"]
    print()
    print(
        format_table(
            "E5b: bytes per interval kind (rsh + CAS, every 3rd full)",
            ["kind", "written bytes", "shipped bytes"],
            [
                Row(
                    f"interval {e['interval']}",
                    {
                        "kind": e["kind"],
                        "written bytes": e["written_bytes"],
                        "shipped bytes": e["moved_bytes"],
                    },
                )
                for e in intervals
            ],
        )
    )
    write_bench_json(
        "BENCH_E5.json",
        {
            "sizes": {
                str(size): {
                    filem: {
                        "app_blocked_s": results[filem][size]["app_blocked_s"],
                        "stable_commit_s": results[filem][size][
                            "stable_commit_s"
                        ],
                        "moved_bytes": results[filem][size]["moved_bytes"],
                    }
                    for filem in ("rsh", "shared")
                }
                for size in SIZES
            },
            "incremental_intervals": intervals,
        },
    )

    # Asynchronous staging takes the remote copy off the app's critical
    # path: at the largest image the rsh app-blocked window is within
    # 1.2x of shared's, while its end-to-end commit latency still pays
    # every remotely moved byte.
    big = SIZES[-1]
    assert (
        results["rsh"][big]["app_blocked_s"]
        <= 1.2 * results["shared"][big]["app_blocked_s"]
    )
    for size in SIZES:
        assert (
            results["rsh"][size]["stable_commit_s"]
            > results["shared"][size]["stable_commit_s"]
        )
        assert (
            results["rsh"][size]["stable_commit_s"]
            > results["rsh"][size]["app_blocked_s"]
        )
    # The trace exposes the mechanism: rsh remote-copies one snapshot
    # tree per node and its per-copy bytes grow with image size;
    # shared never issues a remote transfer at all.
    for size in SIZES:
        assert results["rsh"][size]["transfers"] > 0
        assert results["shared"][size]["transfers"] == 0
    assert (
        results["rsh"][SIZES[-1]]["moved_bytes"]
        > results["rsh"][SIZES[0]]["moved_bytes"]
    )
    # Incremental: interval 1 is full, 2 and 3 are deltas of a mostly
    # clean image (churn dirties one byte per loop), so each delta
    # writes well under half of the full interval's bytes locally...
    assert [e["kind"] for e in intervals] == ["full", "delta", "delta"]
    full_written = intervals[0]["written_bytes"]
    for delta in intervals[1:]:
        assert delta["written_bytes"] < 0.5 * full_written
    # ...and every later interval ships well under half of what the
    # plain rsh gather moves for the same image size.  (Interval 1 is
    # deduplicated by the store too, so it is not the yardstick.)
    plain_gather = results["rsh"][big]["moved_bytes"]
    for later in intervals[1:]:
        assert later["moved_bytes"] < 0.5 * plain_gather
