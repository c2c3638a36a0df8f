"""Host-speed calibration for a shared, noisy machine.

On a box whose cores are shared with other tenants, the same Python
code runs up to twice as slow from one second to the next, and slow
phases last longer than a run.  A fixed calibration loop, timed right
before and right after each episode, tracks that drift: dividing an
episode's host time by the calibration time measured around it removes
most of the machine's speed change while keeping every change of the
program's own cost.

The loop is plain Python that never touches the program (a change to
the program cannot speed it up).  It mixes what the simulator spends
its time on: generator resumes, heap pushes and pops, dict updates,
small-object allocation and short hashes.

The workloads are not equally sensitive to that drift.  Over ten
30-second runs per workload on the 2-CPU x86-64 container the benchmark
was built on, the log-log slope of a run's median episode CPU time
against its median loop time was 0.59 for halo (correlation 0.96), 1.00
for checkpoint (0.99) and 0.63 for recover (0.92): hashing and
serialization slow down with the loop, the message-passing data plane
only about half as much.  Set-up in a fresh interpreter (imports, first
boot) followed the loop with a slope of 0.44 (correlation 0.67, 70
probes).  A normalized time is therefore
``raw * (REFERENCE / measured) ** exponent`` with the exponent of what
was timed.
``REFERENCE_S`` is the loop's typical time on that container, so a
normalized time reads as seconds on it.  The exponents hold only while a
workload's mix of layers does; measure them again when it changes (see
README.md, "Speed normalization").
"""

from __future__ import annotations

import hashlib
import heapq
import time

#: typical calibration time (min of REPEATS) on the reference machine
REFERENCE_S = 0.0100
REPEATS = 3
#: each workload's log-log slope of episode time against loop time
EXPONENT = {"halo": 0.6, "checkpoint": 1.0, "recover": 0.65}
#: the same slope for a set-up probe
SETUP_EXPONENT = 0.45


def _resumer(n: int):
    total = 0
    for i in range(n):
        total += yield i
    return total


def _loop() -> int:
    heap: list = []
    table: dict = {}
    digest = b""
    for j in range(40):
        gen = _resumer(300)
        next(gen)
        try:
            while True:
                value = gen.send(1)
                heapq.heappush(heap, (value * 7919 % 1000, j, value))
                key = value % 97
                table[key] = table.get(key, 0) + 1
        except StopIteration:
            pass
        while heap:
            heapq.heappop(heap)
        digest = hashlib.sha256(digest + bytes(64)).digest()
        _ = [(k, str(v)) for k, v in table.items()]
    return len(digest)


def measure() -> tuple[float, float]:
    """``(cpu_s, wall_s)`` of the calibration loop, each the minimum of
    :data:`REPEATS` back-to-back repetitions."""
    cpu = wall = float("inf")
    for _ in range(REPEATS):
        c0, w0 = time.process_time(), time.perf_counter()
        _loop()
        cpu = min(cpu, time.process_time() - c0)
        wall = min(wall, time.perf_counter() - w0)
    return cpu, wall


def normalize(raw_s: float, measured_s: float, exponent: float) -> float:
    """*raw_s* rescaled to the reference machine's speed, given the loop
    time *measured_s* around it and the timed code's *exponent*."""
    return raw_s * (REFERENCE_S / measured_s) ** exponent
