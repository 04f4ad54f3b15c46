"""Placed-design cache: stop re-synthesising geometry already placed.

Every placed multiplier in the flow — the characterisation circuit's DUT,
the projection datapath's MAC lanes, area-model sample runs — is fully
determined by ``(device identity, geometry, anchor, seed)``.  The cache
memoises :class:`~repro.synthesis.flow.PlacedDesign` instances on that
key, in memory for the current process and optionally on disk so later
sessions (and pool workers) skip :class:`~repro.synthesis.flow.SynthesisFlow`
entirely.

The device identity includes the operating conditions: the same die at a
different temperature or Vdd has different delays and must not alias.

Disk layout (one pickle per entry, written atomically)::

    <directory>/
      <sha256-of-key>.pkl     {"version", "key", "sha256", "placed"}
      <sha256-of-key>.lock    advisory fcntl lock serialising installs
      .sanitizer/             violation journal (REPRO_SANITIZE=1 only)

Entries are installed write-to-temp + ``os.replace`` under a per-entry
advisory ``fcntl`` lock, so any number of concurrent processes can share
one directory: racing same-key writers serialise, and the pure build
path guarantees whoever wins installed bit-identical bytes.  With
``REPRO_SANITIZE=1`` a :class:`~repro.parallel.sanitize.CacheSanitizer`
verifies both claims at runtime.

``placed`` is the pickled design as bytes and ``sha256`` its checksum:
a truncated, torn, bit-flipped or otherwise corrupt entry is *detected*
(not just unpicklable-by-luck), logged, removed, and transparently
rebuilt from synthesis — the build path is pure in the key, so a rebuild
is bit-identical to the lost entry.
"""

from __future__ import annotations

import fcntl
import hashlib
import logging
import os
import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from ..analysis import check_netlist
from ..fabric.device import FPGADevice
from ..obs import runtime as obs
from ..netlist.core import CompiledNetlist
from ..netlist.multipliers import unsigned_array_multiplier
from ..synthesis.flow import PlacedDesign, SynthesisFlow
from .sanitize import CacheSanitizer, sanitize_enabled

logger = logging.getLogger(__name__)

__all__ = [
    "CacheStats",
    "PlacedDesignCache",
    "PlacedKey",
    "REPRO_CACHE_DIR_ENV",
    "get_default_cache",
    "multiplier_netlist",
    "set_default_cache",
]

#: Environment variable giving the default on-disk cache directory.
REPRO_CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DISK_VERSION = 2  # v2: checksummed payload (v1 entries rebuild as stale)


@lru_cache(maxsize=None)
def multiplier_netlist(w_data: int, w_coeff: int) -> CompiledNetlist:
    """Compiled (and linted) generic multiplier, built once per geometry.

    Shared by the characterisation circuit and the datapath lanes: the
    netlist is frozen per ``(w_data, w_coeff)``; placement is what varies
    per instantiation.
    """
    netlist = unsigned_array_multiplier(w_data, w_coeff)
    check_netlist(netlist, context=f"multiplier {w_data}x{w_coeff}")
    return netlist.compile()


@dataclass(frozen=True)
class PlacedKey:
    """Identity of one placed multiplier geometry on one die.

    ``temperature_c``/``vdd``/``aging_years`` pin the operating
    conditions — condition scaling is baked into the placed delay
    annotations, so the same die under different conditions is a
    different cache entry.
    """

    family: str
    serial: int
    w_data: int
    w_coeff: int
    anchor: tuple[int, int]
    seed: int
    temperature_c: float
    vdd: float
    aging_years: float

    @classmethod
    def for_device(
        cls,
        device: FPGADevice,
        w_data: int,
        w_coeff: int,
        anchor: tuple[int, int],
        seed: int,
    ) -> "PlacedKey":
        cond = device.conditions
        return cls(
            family=device.family.name,
            serial=int(device.serial),
            w_data=int(w_data),
            w_coeff=int(w_coeff),
            anchor=(int(anchor[0]), int(anchor[1])),
            seed=int(seed),
            temperature_c=float(cond.temperature_c),
            vdd=float(cond.vdd),
            aging_years=float(cond.aging_years),
        )

    def digest(self) -> str:
        parts = (
            self.family,
            self.serial,
            self.w_data,
            self.w_coeff,
            self.anchor,
            self.seed,
            self.temperature_c,
            self.vdd,
            self.aging_years,
        )
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache instance plus its disk footprint."""

    memory_hits: int
    disk_hits: int
    misses: int
    stores: int
    corruptions: int
    memory_entries: int
    disk_entries: int
    disk_bytes: int
    directory: str | None
    sanitizer_violations: int = 0

    @property
    def requests(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        if total == 0:
            return 0.0
        return (self.memory_hits + self.disk_hits) / total

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "corruptions": self.corruptions,
            "memory_entries": self.memory_entries,
            "disk_entries": self.disk_entries,
            "disk_bytes": self.disk_bytes,
            "hit_rate": self.hit_rate,
            "directory": self.directory,
            "sanitizer_violations": self.sanitizer_violations,
        }


class PlacedDesignCache:
    """In-memory + optional on-disk cache of placed multiplier designs.

    Parameters
    ----------
    directory:
        On-disk cache directory; ``None`` keeps the cache memory-only.
        The directory is created lazily on the first store.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        # One handle may be shared by concurrent threads; the mutex
        # guards the memory tier and the counters.  Cross-process safety is the per-entry
        # fcntl lock's job, not this one's.
        self._mutex = threading.Lock()
        self._memory: dict[PlacedKey, PlacedDesign] = {}
        self._memory_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._stores = 0
        self._corruptions = 0
        self._sanitizer: CacheSanitizer | None = None
        if self.directory is not None and sanitize_enabled():
            self._sanitizer = CacheSanitizer(self.directory)

    @property
    def sanitizer(self) -> CacheSanitizer | None:
        """The runtime sanitizer, when ``REPRO_SANITIZE=1`` and disk-backed."""
        return self._sanitizer

    # ------------------------------------------------------------------
    def _entry_path(self, key: PlacedKey) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{key.digest()}.pkl"

    def _reject_entry(self, path: Path, reason: str) -> None:
        """Drop a damaged disk entry; the caller's miss path rebuilds it.

        Never silent: corruption is counted (``CacheStats.corruptions``)
        and logged, because a torn or bit-rotten entry is an operational
        signal (dying disk, concurrent-writer bug) even though the cache
        recovers from it transparently.
        """
        with self._mutex:
            self._corruptions += 1
        obs.counter_add("cache.placed.corruptions")
        logger.warning(
            "placed-design cache entry %s: %s; rebuilding from synthesis",
            path.name,
            reason,
        )
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass  # unreadable *and* undeletable: the rebuild still proceeds

    def _load_disk(self, key: PlacedKey) -> PlacedDesign | None:
        path = self._entry_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self._reject_entry(path, "unreadable entry (truncated or torn write)")
            return None
        if not isinstance(payload, dict) or payload.get("version") != _DISK_VERSION:
            version = payload.get("version") if isinstance(payload, dict) else None
            self._reject_entry(path, f"stale or foreign entry (version {version!r})")
            return None
        if payload.get("key") != key:
            self._reject_entry(path, "key mismatch (hash collision or tampering)")
            return None
        blob = payload.get("placed")
        if (
            not isinstance(blob, bytes)
            or hashlib.sha256(blob).hexdigest() != payload.get("sha256")
        ):
            self._reject_entry(path, "checksum mismatch (bit rot or tampering)")
            return None
        try:
            placed = pickle.loads(blob)
        except (pickle.UnpicklingError, EOFError, AttributeError):
            self._reject_entry(path, "payload undecodable despite valid checksum")
            return None
        if not isinstance(placed, PlacedDesign):
            self._reject_entry(path, f"payload is {type(placed).__name__}, not PlacedDesign")
            return None
        return placed

    @contextmanager
    def _entry_lock(self, path: Path) -> Iterator[None]:
        """Advisory per-entry ``fcntl`` lock serialising installs.

        Concurrent processes sharing the directory block here instead of
        racing their ``os.replace`` calls; the lock file rides alongside
        the entry so locking never touches entry bytes.  Advisory only —
        readers stay lock-free (the atomic replace keeps them safe).
        """
        lock_path = path.with_suffix(".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            if self._sanitizer is not None:
                self._sanitizer.lock_acquired(path.stem)
            try:
                yield
            finally:
                if self._sanitizer is not None:
                    self._sanitizer.lock_released(path.stem)
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _store_disk(self, key: PlacedKey, placed: PlacedDesign) -> None:
        path = self._entry_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(placed, protocol=pickle.HIGHEST_PROTOCOL)
        sha256 = hashlib.sha256(blob).hexdigest()
        payload = {
            "version": _DISK_VERSION,
            "key": key,
            "sha256": sha256,
            "placed": blob,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with self._entry_lock(path):
            if self._sanitizer is not None:
                self._sanitizer.check_install(path, key, sha256)
            try:
                with tmp.open("wb") as fh:
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)  # atomic: readers never see a torn entry
            finally:
                tmp.unlink(missing_ok=True)
            if self._sanitizer is not None:
                self._sanitizer.verify_install(path, sha256)

    # ------------------------------------------------------------------
    def get_or_place(
        self,
        device: FPGADevice,
        w_data: int,
        w_coeff: int,
        anchor: tuple[int, int],
        seed: int,
    ) -> PlacedDesign:
        """The placed multiplier for this key, synthesising on a miss.

        Deterministic: the build path is
        :func:`multiplier_netlist` + :meth:`SynthesisFlow.run`, which is
        pure in the key, so a hit is bit-identical to a rebuild.
        """
        key = PlacedKey.for_device(device, w_data, w_coeff, anchor, seed)
        with self._mutex:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory_hits += 1
        if hit is not None:
            obs.counter_add("cache.placed.hits")
            return hit
        placed = self._load_disk(key)
        if placed is not None:
            with self._mutex:
                self._disk_hits += 1
                self._memory[key] = placed
            obs.counter_add("cache.placed.hits")
            return placed
        with self._mutex:
            self._misses += 1
        obs.counter_add("cache.placed.misses")
        with obs.span(
            "cache.synthesize",
            w_data=w_data,
            w_coeff=w_coeff,
            anchor=f"{anchor[0]},{anchor[1]}",
        ):
            netlist = multiplier_netlist(w_data, w_coeff)
            # The netlist was linted when built; skip the per-placement gate.
            placed = SynthesisFlow(device).run(
                netlist, anchor=anchor, seed=seed, lint=False
            )
        # Racing same-key threads both reach here; the build is pure in
        # the key, so both built bit-identical designs and either install
        # order is fine (the disk install additionally serialises under
        # the entry lock).
        with self._mutex:
            self._memory[key] = placed
        self._store_disk(key, placed)
        with self._mutex:
            self._stores += 1
        obs.counter_add("cache.placed.stores")
        return placed

    # ------------------------------------------------------------------
    def disk_entries(self) -> list[Path]:
        if self.directory is None or not self.directory.exists():
            return []
        return sorted(self.directory.glob("*.pkl"))

    def verify(self) -> list[dict[str, str]]:
        """Read-only integrity walk of the content-addressed disk tier.

        Checks every entry's envelope version, that its filename matches
        its key's digest (the content address), and that the payload
        checksum holds — the same taxonomy :meth:`_load_disk` enforces —
        but never unlinks, rebuilds or counts corruptions: this is the
        health check behind ``repro cache verify``, safe to run against
        a store that live processes are sharing.

        Returns one ``{"entry", "problem"}`` dict per damaged entry
        (empty list: store is clean).
        """
        problems = []
        for path in self.disk_entries():
            problem = self._verify_entry(path)
            if problem is not None:
                problems.append({"entry": path.name, "problem": problem})
        return problems

    @staticmethod
    def _verify_entry(path: Path) -> str | None:
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
        except OSError:
            return "unreadable (I/O error)"
        except (pickle.UnpicklingError, EOFError, AttributeError):
            return "undecodable envelope (truncated or torn write)"
        if not isinstance(payload, dict) or payload.get("version") != _DISK_VERSION:
            version = payload.get("version") if isinstance(payload, dict) else None
            return f"stale or foreign entry (version {version!r})"
        key = payload.get("key")
        if not isinstance(key, PlacedKey):
            return "missing or malformed key"
        if key.digest() != path.stem:
            return "entry name does not match its key digest (misfiled entry)"
        blob = payload.get("placed")
        if not isinstance(blob, bytes):
            return "payload is not bytes"
        if hashlib.sha256(blob).hexdigest() != payload.get("sha256"):
            return "checksum mismatch (bit rot or tampering)"
        return None

    def stats(self) -> CacheStats:
        entries = self.disk_entries()
        with self._mutex:
            return CacheStats(
                memory_hits=self._memory_hits,
                disk_hits=self._disk_hits,
                misses=self._misses,
                stores=self._stores,
                corruptions=self._corruptions,
                memory_entries=len(self._memory),
                disk_entries=len(entries),
                disk_bytes=sum(p.stat().st_size for p in entries),
                directory=str(self.directory) if self.directory is not None else None,
                sanitizer_violations=(
                    len(self._sanitizer.violations) if self._sanitizer is not None else 0
                ),
            )

    def clear(self, disk: bool = True) -> int:
        """Drop all entries; returns the number of disk entries removed.

        Lock files are removed alongside their entries; the sanitizer
        journal (an audit trail, not an entry) is left in place.
        """
        with self._mutex:
            self._memory.clear()
        removed = 0
        if disk:
            for path in self.disk_entries():
                path.unlink(missing_ok=True)
                removed += 1
            if self.directory is not None and self.directory.exists():
                for lock in self.directory.glob("*.lock"):
                    lock.unlink(missing_ok=True)
        return removed


_default_cache: PlacedDesignCache | None = None


def get_default_cache() -> PlacedDesignCache:
    """The process-wide cache (disk-backed iff ``REPRO_CACHE_DIR`` is set)."""
    global _default_cache
    if _default_cache is None:
        directory = os.environ.get(REPRO_CACHE_DIR_ENV)
        _default_cache = PlacedDesignCache(directory or None)
    return _default_cache


def set_default_cache(cache: PlacedDesignCache | None) -> None:
    """Replace the process-wide cache (``None`` resets to lazy creation)."""
    global _default_cache
    _default_cache = cache
