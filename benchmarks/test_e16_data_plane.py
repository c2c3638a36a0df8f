"""E16 — MPI data-plane cost per message: threads, kernel events, host time.

The paper's section 7 claim is about the failure-free message path:
C/R support may cost an ordinary MPI message almost nothing.  In the
simulator the matching host-side question is how much scheduler work
one message causes.  Sends are posted to the BTL and completed from
timer callbacks, so a message spawns no thread.

Method: every workload runs twice, with N and with 2N messages, in
fresh universes.  The differences between the two runs' kernel counters
are divided by the difference in delivered MPI payloads (eager and
rendezvous DATA fragments).  Launch, MPI_INIT and teardown cost the same
in both runs, so they cancel.  What is left is the marginal cost of one
message in the run window.  The counts are exact and deterministic.

Workloads, each with and without the coordinated CRCP interposed:

* ``jacobi`` — np=4 halo exchange (eager, 8-byte rows), on 4 nodes
  (network only) and on 2 nodes (network and shared memory);
* ``netpipe-eager`` / ``netpipe-rndv`` — 2-rank ping-pong at 1 KiB
  (eager) and 256 KiB (rendezvous: RTS, CTS and DATA fragments).

Gates, exact:

* zero threads spawned per message, eager and rendezvous;
* kernel events per message at most ``EVENTS_PER_MSG_CEILING``, the
  values this send path produces (the thread-per-message path it
  replaced cost one more event per eager message and three more per
  rendezvous message: 5.33 / 5.67 / 6 / 14 in the table's order).

Host µs per message is printed and written to ``BENCH_E16.json`` but is
informational: it is a small difference of two noisy CPU timings.
"""

from __future__ import annotations

import time

from repro.bench.harness import Row, format_table, fresh_universe, write_bench_json
from repro.tools.api import ompi_run

#: name -> (app, np, nodes, args for N messages, args for 2N messages)
WORKLOADS = {
    "jacobi/4 nodes": ("jacobi", 4, 4, {"n_global": 256, "iters": 200},
                       {"n_global": 256, "iters": 400}),
    "jacobi/2 nodes": ("jacobi", 4, 2, {"n_global": 256, "iters": 200},
                       {"n_global": 256, "iters": 400}),
    "netpipe-eager": ("netpipe", 2, 2, {"sizes": [1024], "reps_per_size": 100},
                      {"sizes": [1024], "reps_per_size": 200}),
    "netpipe-rndv": ("netpipe", 2, 2, {"sizes": [1 << 18], "reps_per_size": 50},
                     {"sizes": [1 << 18], "reps_per_size": 100}),
}

CONFIGS = {"no-ft": {"ompi_cr_enabled": "0"}, "ft+coord": {"crcp": "coord"}}

#: kernel events per delivered message (exact; see module docstring)
EVENTS_PER_MSG_CEILING = {
    "jacobi/4 nodes": 13 / 3,
    "jacobi/2 nodes": 14 / 3,
    "netpipe-eager": 5.0,
    "netpipe-rndv": 11.0,
}


def _run(app: str, np_: int, nodes: int, args: dict, params: dict) -> dict:
    universe = fresh_universe(nodes, params)
    stats = universe.kernel.stats
    threads0, events0 = stats.threads_spawned, stats.events
    cpu0 = time.process_time()
    job = ompi_run(universe, app, np_, args=args)
    cpu = time.process_time() - cpu0
    assert job.state.value == "finished", job.state
    messages = sum(
        proc.maybe_service("ompi").pml_base.stats["delivered"]
        for proc in job.procs.values()
    )
    return {
        "threads": stats.threads_spawned - threads0,
        "events": stats.events - events0,
        "messages": messages,
        "cpu_s": cpu,
    }


def per_message(name: str, params: dict) -> dict:
    app, np_, nodes, small, large = WORKLOADS[name]
    a = _run(app, np_, nodes, small, params)
    b = _run(app, np_, nodes, large, params)
    messages = b["messages"] - a["messages"]
    assert messages > 0
    return {
        "messages": messages,
        "threads_per_msg": (b["threads"] - a["threads"]) / messages,
        "events_per_msg": (b["events"] - a["events"]) / messages,
        "host_us_per_msg": (b["cpu_s"] - a["cpu_s"]) / messages * 1e6,
    }


def test_e16_data_plane_cost_per_message(benchmark):
    def run():
        return {
            (name, config): per_message(name, params)
            for name in WORKLOADS
            for config, params in CONFIGS.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        Row(
            f"{name} {config}",
            {
                "msgs": r["messages"],
                "threads/msg": r["threads_per_msg"],
                "events/msg": r["events_per_msg"],
                "ceiling": EVENTS_PER_MSG_CEILING[name],
                "host us/msg": r["host_us_per_msg"],
            },
        )
        for (name, config), r in results.items()
    ]
    print()
    print(
        format_table(
            "E16: marginal cost of one MPI message (host us informational)",
            ["msgs", "threads/msg", "events/msg", "ceiling", "host us/msg"],
            rows,
        )
    )
    write_bench_json(
        "BENCH_E16.json",
        {
            "experiment": "e16_data_plane",
            "events_per_msg_ceiling": EVENTS_PER_MSG_CEILING,
            "results": {
                f"{name} {config}": r for (name, config), r in results.items()
            },
        },
    )
    for (name, config), r in results.items():
        label = f"{name} {config}"
        assert r["threads_per_msg"] == 0, label
        assert r["events_per_msg"] <= EVENTS_PER_MSG_CEILING[name] + 1e-9, label
        # the CRCP wrapper acts inside the same events as the plain PML
        plain = results[name, "no-ft"]
        assert r["events_per_msg"] == plain["events_per_msg"], label

