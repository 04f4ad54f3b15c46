"""Concurrency stress: several characterise jobs on one warm shared cache.

The bar: every sweep complete and every workspace's archive
byte-identical — concurrency must be invisible in the results — while
the shared cache serves more placements than it builds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.stages import characterize_workspace

from .conftest import make_workspace

N_JOBS = 6
N_THREADS = 3


def test_stress_shared_cache(tmp_path, cold_default_cache):
    # Every job characterises the same device identity from its own
    # workspace: maximal contention on the same cache keys.
    workspaces = [make_workspace(tmp_path / f"ws{i}") for i in range(N_JOBS)]
    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(characterize_workspace, workspaces))

    reference = (workspaces[0].char_dir / "wl03.npz").read_bytes()
    for ws in workspaces:
        assert ws.sweep_health()[3]["status"] == "complete"
        assert (ws.char_dir / "wl03.npz").read_bytes() == reference

    stats = cold_default_cache.stats()
    assert stats.stores >= 1
    # The warm shared cache did its job: far fewer placements than
    # requests (identical sweeps re-place nothing after the first).
    assert stats.memory_hits > stats.misses
