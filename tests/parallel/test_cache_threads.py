"""Thread-safety of one shared PlacedDesignCache handle.

Stages run on several threads of one process share the process-wide
default cache; its one mutex must keep the dict and the counters
coherent.  Here: many threads, few keys, one handle — every requester
gets a bit-identical design and the counters add up exactly.
"""

from __future__ import annotations

import pickle
import threading

from repro.parallel.cache import PlacedDesignCache

KEYS = [(6, 3, (0, 0), 0), (6, 4, (1, 1), 1), (7, 3, (2, 2), 2), (7, 4, (0, 3), 3)]
N_THREADS = 8


def test_shared_handle_threads(device):
    cache = PlacedDesignCache()
    results: dict[int, list] = {i: [] for i in range(N_THREADS)}
    errors: list[Exception] = []
    barrier = threading.Barrier(N_THREADS)

    def worker(index: int) -> None:
        try:
            barrier.wait(10.0)
            for w_a, w_b, anchor, seed in KEYS:
                placed = cache.get_or_place(device, w_a, w_b, anchor, seed)
                results[index].append(placed)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not any(t.is_alive() for t in threads)
    assert errors == []

    # Every thread got a design for every key, and for any given key all
    # threads hold bit-identical payloads (racing placements of the same
    # key must converge on one deterministic result).
    reference = results[0]
    assert len(reference) == len(KEYS)
    for index in range(1, N_THREADS):
        for got, want in zip(results[index], reference):
            assert pickle.dumps(got) == pickle.dumps(want)

    stats = cache.stats()
    requests = N_THREADS * len(KEYS)
    assert stats.memory_hits + stats.misses == requests
    # Racing threads may synthesise the same key concurrently (both
    # results are identical), but never fewer than one miss per key.
    assert len(KEYS) <= stats.misses <= requests
    assert stats.stores == stats.misses
    # After the dust settles the cache serves everything.
    for w_a, w_b, anchor, seed in KEYS:
        cache.get_or_place(device, w_a, w_b, anchor, seed)
    assert cache.stats().memory_hits >= stats.memory_hits + len(KEYS)
