"""Benchmark entry point: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload halo --seed 1 --seconds 20 --trace 0

* ``--trace 0`` — untraced episodes for ``--seconds``, with set-up
  probes in fresh interpreters spread over the same window; prints the
  end-to-end metrics.  Their normalized and raw medians are also
  written to ``.perfbench_out/report-<workload>-seed<seed>.json``.
* ``--trace 1`` — pairs of episodes with identical inputs, one untraced
  and one with the per-layer wrappers of ``tracing.py`` installed;
  checks that both produce identical simulated outputs and exact
  counters, and prints the per-layer metrics (medians over the traced
  episodes) and the tracing overhead.  Every traced episode's spans
  are written to ``.perfbench_out/`` in the repository root.

Every episode's outputs are verified (see ``workloads.py``).  A
human-readable report goes to standard output; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import logging
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("halo", "checkpoint", "recover")
#: fresh-interpreter set-ups per run (median reported)
SETUP_PROBES = 7
#: a run always measures at least this many episodes (pairs when traced)
MIN_EPISODES = 3
PROBE_TIMEOUT_S = 60

#: end-to-end metrics of every workload: name -> unit
END_TO_END = {
    "setup_s": "s",
    "run_cpu_s": "s",
    "run_wall_s": "s",
    "peak_rss_mib": "MiB",
    "host_us_per_op": "us",
}

#: what one "op" of host_us_per_op is, per workload
OP_NAME = {
    "halo": "MPI message delivered",
    "checkpoint": "MiB of rank images in COMMITTED intervals (logical)",
    "recover": "successful recovery",
}

COUNTERS = (
    "kernel.events", "kernel.threads_spawned", "kernel.heap_pushes",
    "kernel.ready_hits", "kernel.events_per_cpu_s",
    "pml.eager_sent", "pml.rndv_sent", "pml.threads_per_msg",
    "btl.wire_bytes", "crcp.drained_msgs", "crs.image_bytes", "filem.bytes",
    "cas.chunks_offered", "cas.chunks_shipped", "cas.ship_ratio",
    "vfs.bytes_written", "vfs.bytes_read",
    "snapc.stage.dispatched", "snapc.stage.committed", "snapc.stage.failed",
    "snapc.stage.commit_ratio",
    "errmgr.recoveries_attempted", "errmgr.recoveries_ok", "errmgr.walkbacks",
    "universe.elections",
)

SIM_METRICS = (
    "sim.ckpt_blocked_ms_p50", "sim.ckpt_blocked_ms_tail",
    "sim.ckpt_commit_ms_p50", "sim.ckpt_commit_ms_tail",
    "sim.recovery_ms_p50", "sim.failover_ms_p50", "sim.work_lost_s",
)

COUNTER_UNITS = {
    "kernel.events_per_cpu_s": "1/s", "pml.threads_per_msg": "ratio",
    "btl.wire_bytes": "bytes", "crs.image_bytes": "bytes",
    "filem.bytes": "bytes", "vfs.bytes_written": "bytes",
    "vfs.bytes_read": "bytes", "cas.ship_ratio": "ratio",
    "snapc.stage.commit_ratio": "ratio",
}


#: unit of each wrapped-entry-point metric, by suffix
ENTRY_UNITS = {"calls": "count", "self_cpu_s": "s", "sim_ms": "ms"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, as ``(name, unit)``."""
    out = [
        (f"{name}.{suffix}", ENTRY_UNITS[suffix])
        for name, kind in tracing.entry_kinds().items()
        for suffix in tracing.KIND_METRICS[kind]
    ]
    out += [(name, COUNTER_UNITS.get(name, "count")) for name in COUNTERS]
    out += [(f"share.{layer}", "ratio") for layer in tracing.LAYERS]
    out.append(("trace.overhead_ratio", "ratio"))
    out += [(name, "s" if name.endswith("_s") else "ms") for name in SIM_METRICS]
    return out


#: wrapped entry points each workload must exercise (zero calls fails
#: the traced run: a missed patch site shows up here)
EXERCISED = {
    "halo": (
        "pml.isend", "pml.irecv", "pml.handle_incoming", "btl.send_msg",
        "netsim.send", "crcp.isend", "coll.allreduce", "hnp.launch_and_init",
        "oob.rml_send", "mca.default_registry",
    ),
    "checkpoint": (
        "crcp.coordinate", "crs.checkpoint", "crs.hash_chunk",
        "crs.manifest_json", "crs.load_chunks", "snapshot.meta_json",
        "filem.ship_chunks", "cas.missing", "cas.put_many", "vfs.write",
        "vfs.read", "snapc.global_checkpoint", "hnp.launch_and_init",
        "mca.default_registry",
    ),
    "recover": (
        "crcp.coordinate", "crs.checkpoint", "crs.hash_chunk",
        "crs.manifest_json", "snapshot.meta_json", "filem.ship_chunks",
        "filem.fetch_chunks", "cas.missing", "cas.put_many", "cas.get_many",
        "vfs.write", "vfs.read", "snapc.global_checkpoint",
        "snapc.global_restart", "errmgr.on_rank_failure", "statestore.put",
        "statestore.replay", "hnp.rehydrate", "hnp.launch_and_init",
        "mca.default_registry",
    ),
}

#: pml.isend calls a checkpoint episode may make per rank and request
#: (the ballast exchange, CRCP bookmarks and the finalize barrier) —
#: "near zero" next to halo's ~1,900 per rank
CKPT_ISENDS_PER_RANK_PER_REQUEST = 4


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _log(message: str) -> None:
    print(message, flush=True)


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, index: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter: ``(raw_s, loop wall time
    measured around it)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    _, wall0 = calibrate.measure()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, str(seed), str(index)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe timed out after {exc.timeout}s")
    if proc.returncode != 0:
        raise BenchError(
            f"set-up probe failed ({proc.returncode}): "
            f"{proc.stderr.strip().splitlines()[-1:] or ''}"
        )
    _, wall1 = calibrate.measure()
    return float(proc.stdout.strip().splitlines()[-1]), (wall0 + wall1) / 2


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


#: percentiles tried for a tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (p in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values) -> tuple[float | None, float]:
    """The highest ladder percentile with at least ten samples beyond
    it, as ``(p, value)``; with fewer than 20 samples, ``(None, max)``."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            return p, percentile(values, p)
    return None, max(values, default=0.0)


def describe(values, unit: str) -> str:
    if not values:
        return "n=0"
    p, value = tail(values)
    tail_txt = f"p{p:g}={value:.4f}" if p is not None else f"max={value:.4f} (n<20)"
    return f"p50={median(values):.4f} {unit}  {tail_txt}  n={len(values)}"


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------


def make_runner(workload: str):
    import workloads as w

    if workload == "halo":
        args = w.HALO["args"]
        t0 = time.perf_counter()
        reference = w.serial_jacobi_checksum(args["n_global"], args["iters"])
        serial_s = time.perf_counter() - t0
        _log(f"reference: serial NumPy jacobi n={args['n_global']} "
             f"iters={args['iters']} checksum={reference!r} "
             f"in {serial_s * 1e3:.2f} ms host (baseline)")
        return w.run_halo, reference
    if workload == "checkpoint":
        return w.run_checkpoint, None
    reference = w.churn_reference(w.RECOVER["args"], w.RECOVER["np"])
    _log(f"reference: fault-free churn results for {len(reference)} ranks")
    return w.run_recover, reference


def calibrated(run, *args, **kwargs):
    """Run one episode between two calibration measurements; attaches
    ``cal_cpu_s``/``cal_wall_s`` (the mean of the two) to it."""
    cpu0, wall0 = calibrate.measure()
    episode = run(*args, **kwargs)
    cpu1, wall1 = calibrate.measure()
    episode.cal_cpu_s = (cpu0 + cpu1) / 2
    episode.cal_wall_s = (wall0 + wall1) / 2
    return episode


def run_untraced(workload, seed, seconds):
    """Episodes for *seconds*, with the set-up probes spread evenly over
    the same window (so both see the same machine)."""
    run, reference = make_runner(workload)
    episodes, setups = [], []
    start = time.perf_counter()
    index = 0
    while index < MIN_EPISODES or time.perf_counter() < start + seconds:
        due = len(setups) * seconds / SETUP_PROBES
        if len(setups) < SETUP_PROBES and time.perf_counter() - start >= due:
            setups.append(setup_probe(workload, seed, len(setups)))
        episodes.append(calibrated(run, seed, index, reference))
        # Free each universe before the next one boots, so the peak
        # RSS is one episode's footprint plus the program's own caches.
        gc.collect()
        index += 1
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload, seed, len(setups)))
    return episodes, setups


def run_traced(workload, seed, seconds, spans_out):
    """Pairs of untraced and traced episodes for *seconds*; each traced
    episode's spans are written to *spans_out* after it ends."""
    run, reference = make_runner(workload)
    tracer = tracing.Tracer()
    pairs = []
    spans = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_EPISODES or time.perf_counter() < deadline:
        plain = run(seed, index, reference)
        installation = tracing.install(tracer)
        try:
            traced = run(seed, index, reference, probe=tracer)
        finally:
            installation.uninstall()
        pairs.append(
            (plain, traced, tracer.active_s, tracer.stats, tracer.counters))
        spans += write_spans(spans_out, traced.seed, tracer)
        gc.collect()
        index += 1
    return pairs, installation.missing, spans


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(workload, pairs, missing) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced episodes) + problems."""
    problems: list[str] = []
    per_episode: list[dict] = []
    for plain, traced, episode_s, stats, counters in pairs:
        if plain.exact != traced.exact:
            diff = sorted(
                k for k in set(plain.exact) | set(traced.exact)
                if plain.exact.get(k) != traced.exact.get(k)
            )
            problems.append(
                f"episode {plain.seed}: traced run differs from untraced "
                f"in {diff}"
            )
        m: dict[str, float] = {}
        for name, kind in tracing.entry_kinds().items():
            stat = stats.get(name)
            values = {"calls": stat.calls, "self_cpu_s": stat.self_s,
                      "sim_ms": stat.sim_s * 1e3} if stat else {}
            for suffix in tracing.KIND_METRICS[kind]:
                m[f"{name}.{suffix}"] = values.get(suffix, 0)
        c = dict(traced.counters)
        c.update(counters)
        c["kernel.events_per_cpu_s"] = _ratio(
            plain.counters["kernel.events"], plain.cpu_s)
        sends = m["pml.isend.calls"]
        c["pml.threads_per_msg"] = _ratio(c["kernel.threads_spawned"], sends)
        c["cas.ship_ratio"] = _ratio(
            c.get("cas.chunks_shipped", 0), c.get("cas.chunks_offered", 0))
        c["snapc.stage.commit_ratio"] = _ratio(
            c.get("snapc.stage.committed", 0), c.get("snapc.stage.dispatched", 0))
        for name in COUNTERS:
            m[name] = float(c.get(name, 0))
        shares = {layer: 0.0 for layer in tracing.LAYERS}
        for name, stat in stats.items():
            shares[tracing.LAYER_OF[name.split(".", 1)[0]]] += stat.self_s
        for layer, self_s in shares.items():
            m[f"share.{layer}"] = _ratio(self_s, episode_s)
        m["trace.overhead_ratio"] = _ratio(traced.cpu_s, plain.cpu_s)
        sim = traced.sim
        blocked = sim.get("ckpt_blocked_sim_ms", [])
        commit = sim.get("ckpt_commit_sim_ms", [])
        m["sim.ckpt_blocked_ms_p50"] = median(blocked)
        m["sim.ckpt_blocked_ms_tail"] = tail(blocked)[1]
        m["sim.ckpt_commit_ms_p50"] = median(commit)
        m["sim.ckpt_commit_ms_tail"] = tail(commit)[1]
        m["sim.recovery_ms_p50"] = median(sim.get("recovery_sim_ms", []))
        m["sim.failover_ms_p50"] = median(sim.get("failover_sim_ms", []))
        m["sim.work_lost_s"] = sum(sim.get("work_lost_sim_s", []))
        per_episode.append(m)

    result = {
        name: median([m[name] for m in per_episode])
        for name, _unit in per_layer_metrics()
    }
    problems += check_coverage(workload, result, missing)
    return result, problems


def check_coverage(workload: str, m: dict, missing) -> list[str]:
    """Missing or zero-call wrappers and the bypass predictions."""
    problems = []
    for name, target in missing:
        if name in EXERCISED[workload]:
            problems.append(
                f"{workload}: entry point {target} ({name}) is not in the program")
    for name in EXERCISED[workload]:
        if m[f"{name}.calls"] == 0:
            problems.append(f"{workload}: wrapper {name} saw zero calls")
    if workload == "halo":
        for name in tracing.entry_kinds():
            if name.split(".")[0] in ("crs", "cas", "statestore") and m[f"{name}.calls"]:
                problems.append(f"halo: bypass violated, {name} was called")
    elif workload == "checkpoint":
        import workloads as w

        if m["statestore.put.calls"]:
            problems.append("checkpoint: bypass violated, statestore.put called")
        limit = (CKPT_ISENDS_PER_RANK_PER_REQUEST * w.CHECKPOINT["np"]
                 * w.CHECKPOINT["checkpoints"])
        if m["pml.isend.calls"] > limit:
            problems.append(
                f"checkpoint: {m['pml.isend.calls']:.0f} pml.isend calls "
                f"exceed the near-zero limit {limit}")
    return problems


def write_spans(fh, episode_seed, tracer) -> int:
    """One header line for the episode, then its spans, which are
    cleared; returns how many were written."""
    count = len(tracer.spans)
    fh.write(json.dumps({"episode_seed": episode_seed, "spans": count}) + "\n")
    fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    tracer.spans.clear()
    return count


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def report_untraced(workload, seed, episodes, setups):
    exponent = calibrate.EXPONENT[workload]
    cpu = [calibrate.normalize(e.cpu_s, e.cal_cpu_s, exponent)
           for e in episodes]
    wall = [calibrate.normalize(e.wall_s, e.cal_wall_s, exponent)
            for e in episodes]
    setup = [calibrate.normalize(raw, cal, calibrate.SETUP_EXPONENT)
             for raw, cal in setups]
    per_op = [c / e.units * 1e6 for c, e in zip(cpu, episodes) if e.units]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    _log(f"== {workload} seed={seed}: {len(episodes)} episodes ==")
    _log("host times are normalized to the calibration machine "
         "(see calibrate.py); raw values follow in brackets")
    _log(f"setup_s            {describe(setup, 's')}  "
         f"[raw {describe([raw for raw, _ in setups], 's')}]")
    _log(f"run_cpu_s          {describe(cpu, 's')}  "
         f"[raw {describe([e.cpu_s for e in episodes], 's')}]")
    _log(f"run_wall_s         {describe(wall, 's')}  "
         f"[raw {describe([e.wall_s for e in episodes], 's')}]")
    _log(f"calibration        {describe([e.cal_cpu_s * 1e3 for e in episodes], 'ms cpu')}"
         f"  reference {calibrate.REFERENCE_S * 1e3:g} ms")
    _log(f"peak_rss_mib       {rss:.1f} MiB")
    _log(f"host_us_per_op     {describe(per_op, 'us')}  (op = {OP_NAME[workload]})")
    if workload == "halo":
        _log(f"host_us_per_msg    {describe(per_op, 'us')}")
    elif workload == "checkpoint":
        _log(f"host_ms_per_ckpt_mib {describe([v / 1e3 for v in per_op], 'ms/MiB')}")
        blocked = [v for e in episodes for v in e.sim["ckpt_blocked_sim_ms"]]
        commit = [v for e in episodes for v in e.sim["ckpt_commit_sim_ms"]]
        _log(f"ckpt_blocked_sim_ms {describe(blocked, 'sim ms')}")
        _log(f"ckpt_commit_sim_ms  {describe(commit, 'sim ms')}")
    else:
        _log(f"host_ms_per_recovery {describe([v / 1e3 for v in per_op], 'ms')}")
        rec = [v for e in episodes for v in e.sim["recovery_sim_ms"]]
        fo = [v for e in episodes for v in e.sim["failover_sim_ms"]]
        lost = [sum(e.sim["work_lost_sim_s"]) for e in episodes]
        _log(f"recovery_sim_ms    {describe(rec, 'sim ms')}")
        _log(f"failover_sim_ms    {describe(fo, 'sim ms')}")
        _log(f"work_lost_sim_s    {describe(lost, 'sim s')} (per episode)")
    _log(f"failed_frac        {_ratio(failed, attempted):.4f} "
         f"({failed} failed / {attempted} attempted)")
    metrics = {
        "setup_s": median(setup),
        "run_cpu_s": median(cpu),
        "run_wall_s": median(wall),
        "peak_rss_mib": rss,
        "host_us_per_op": median(per_op),
    }
    raw = {
        "setup_s": median([raw for raw, _ in setups]),
        "run_cpu_s": median([e.cpu_s for e in episodes]),
        "run_wall_s": median([e.wall_s for e in episodes]),
        "host_us_per_op": median(
            [e.cpu_s / e.units * 1e6 for e in episodes if e.units]),
        "calibration_cpu_s": median([e.cal_cpu_s for e in episodes]),
        "calibration_setup_s": median([cal for _, cal in setups]),
    }
    path = os.path.join(OUT_DIR, f"report-{workload}-seed{seed}.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"normalized": metrics, "raw": raw,
                   "exponent": exponent,
                   "setup_exponent": calibrate.SETUP_EXPONENT,
                   "reference_s": calibrate.REFERENCE_S}, fh, indent=1)
    _log(f"normalized and raw medians in {os.path.relpath(path, ROOT)}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import workloads  # noqa: F401  (imports repro)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    # Recovery warnings are expected by design; keep stdout readable.
    logging.getLogger("repro").setLevel(logging.CRITICAL)

    try:
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(
                OUT_DIR, f"spans-{args.workload}.jsonl.gz")
            with gzip.open(path, "wt") as spans_out:
                pairs, missing, spans = run_traced(
                    args.workload, args.seed, args.seconds, spans_out)
            for name, target in missing:
                _log(f"note: entry point {target} ({name}) is not in the program")
            metrics, problems = layer_metrics(args.workload, pairs, missing)
            episodes = [p[0] for p in pairs] + [p[1] for p in pairs]
            _log(f"== {args.workload} seed={args.seed}: {len(pairs)} "
                 f"traced/untraced pairs; all {spans} spans of the traced "
                 f"episodes in {os.path.relpath(path, ROOT)}")
            for name, value in metrics.items():
                _log(f"{name:40s} {value:.6g}")
            attempted = sum(e.attempted for e in episodes)
            failed = sum(e.failed for e in episodes)
        else:
            episodes, setups = run_untraced(
                args.workload, args.seed, args.seconds)
            metrics, attempted, failed = report_untraced(
                args.workload, args.seed, episodes, setups)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for episode in episodes:
        problems += [f"episode {episode.seed}: {e}" for e in episode.errors]
    for problem in problems:
        _log(f"PROBLEM: {problem}")
    units = dict(per_layer_metrics()) if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
