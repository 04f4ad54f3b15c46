"""Concurrency stress: several characterise jobs on one warm shared cache.

Runs with ``REPRO_SANITIZE=1`` so the cache's runtime race detector
journals every lock and install.  The bar: zero violations, every sweep
complete, and every workspace's archive byte-identical — concurrency
must be invisible in the results.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.parallel.cache import PlacedDesignCache
from repro.parallel.sanitize import read_journal
from repro.stages import characterize_workspace

from .conftest import make_workspace

N_JOBS = 6
N_THREADS = 3


def test_stress_shared_cache_sanitized(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cache = PlacedDesignCache(tmp_path / "shared_cache")
    assert cache.sanitizer is not None, "REPRO_SANITIZE did not arm"

    # Every job characterises the same device identity from its own
    # workspace: maximal contention on the same cache keys.
    workspaces = [
        make_workspace(tmp_path / f"ws{i}", cache=cache) for i in range(N_JOBS)
    ]
    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(characterize_workspace, workspaces))

    reference = (workspaces[0].char_dir / "wl03.npz").read_bytes()
    for ws in workspaces:
        assert ws.sweep_health()[3]["status"] == "complete"
        assert (ws.char_dir / "wl03.npz").read_bytes() == reference

    stats = cache.stats()
    assert stats.sanitizer_violations == 0
    assert read_journal(cache.directory) == []
    assert stats.stores >= 1
    # The warm shared cache did its job: far fewer placements than
    # requests (identical sweeps re-place nothing after the first).
    assert stats.memory_hits + stats.disk_hits > stats.misses
