"""Pinned simulated clocks of the MPI data path.

The constants below were captured from the thread-per-message send
path, before sends became timer-posted fragments.  Any change to how
messages are scheduled must reproduce them bit for bit: a host-side
optimization of the data plane may not move a simulated clock.
"""

from __future__ import annotations

import pytest

from repro.bench.netpipe_bench import CONFIGS, _run_netpipe
from repro.tools.api import ompi_run
from tests.conftest import make_universe

JACOBI_ARGS = {"n_global": 256, "iters": 400, "tol": 2e-3}

#: nodes -> (sim end time, iterations per rank, global checksum, residual)
JACOBI_PINNED = {
    # one rank per node: every halo exchange crosses the network
    4: (0.032336779999999656, 250, 12.128259393401072, 0.0019368402289575148),
    # two ranks per node: shared-memory and network traffic share NICs
    2: (0.03214665599999962, 250, 12.128259393401072, 0.0019368402289575148),
}

NETPIPE_SIZES = [1, 65536, 65537, 1 << 20]  # eager limit is 65536
#: (size, one-way latency s, bandwidth B/s) per size
_SERIES = [
    (1, 5.565000000002512e-06, 179694.5193170797),
    (65536, 7.110000000000102e-05, 921744022.503503),
    (65537, 8.222900000000657e-05, 797005922.4847044),
    (1048576, 0.0010652679999999953, 984330703.6351459),
]
NETPIPE_PINNED = {
    "no-ft": _SERIES[:3] + [(1048576, 0.001065267999999996, 984330703.6351453)],
    "ft+none": _SERIES,
    "ft+coord": _SERIES,
}


@pytest.mark.parametrize("nodes", sorted(JACOBI_PINNED))
def test_jacobi_np4_clock_is_pinned(nodes):
    universe = make_universe(nodes)
    job = ompi_run(universe, "jacobi", 4, args=JACOBI_ARGS)
    end, iters, checksum, residual = JACOBI_PINNED[nodes]
    assert universe.kernel.now == end
    assert [job.results[r]["iters"] for r in range(4)] == [iters] * 4
    assert job.results[0]["checksum"] == checksum
    assert job.results[0]["residual"] == residual


@pytest.mark.parametrize("config", sorted(NETPIPE_PINNED))
def test_netpipe_series_is_pinned(config):
    _wall, series = _run_netpipe(CONFIGS[config], NETPIPE_SIZES, 3, warmup=False)
    assert [tuple(point) for point in series] == NETPIPE_PINNED[config]
