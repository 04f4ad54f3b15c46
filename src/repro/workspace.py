"""Persistent per-device workspaces.

A real deployment of the paper's flow is not one Python session: the
characterisation runs once per device (or per maintenance interval) and
its artefacts are reused by every later optimisation, possibly on another
machine.  A :class:`Workspace` is a directory holding those artefacts:

```
<root>/
  workspace.json            device serial / settings / provenance
  characterization/
    wl03.npz ... wl09.npz   one CharacterizationResult per word-length
  area_model.json           fitted LE-cost model
  designs/
    <name>.json             design lists from optimisation runs
```

Everything round-trips bit-exactly, and :meth:`Workspace.framework`
rehydrates an :class:`~repro.framework.OptimizationFramework` whose
characterisation/area caches are pre-seeded from disk — no re-simulation.
"""

from __future__ import annotations

import json
import os
import threading
import zipfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

import numpy as np

from .characterization.results import CharacterizationResult
from .config import TableISettings
from .core.design import LinearProjectionDesign
from .errors import ConfigError, DesignError
from .fabric.device import FPGADevice, make_device
from .framework import OptimizationFramework
from .io import load_designs, save_designs
from .models.area_model import AreaModel
from .models.error_model import ErrorModel, ErrorModelSet, build_error_model

__all__ = ["Workspace"]

_META_VERSION = 1

#: What reading a damaged artefact raises: ``OSError`` for an unreadable
#: file; ``ValueError`` for text that is not JSON or an ``.npz`` that is
#: not an archive; ``EOFError``/``BadZipFile`` for a truncated ``.npz``;
#: ``KeyError``/``TypeError``/``IndexError``/``AttributeError`` for a
#: payload of the wrong shape (a missing field, a list where an object
#: belongs); ``DesignError`` for a design file of another format version.
_DAMAGED = (
    OSError,
    ValueError,
    EOFError,
    zipfile.BadZipFile,
    KeyError,
    TypeError,
    IndexError,
    AttributeError,
    DesignError,
)


@contextmanager
def _reading(path: Path, remedy: str) -> Iterator[None]:
    """Re-raise a damaged artefact as a :class:`ConfigError` naming the
    file and how to rewrite it."""
    try:
        yield
    except _DAMAGED as exc:
        raise ConfigError(f"cannot read {path} ({exc}); {remedy}") from exc


class Workspace:
    """A directory of per-device flow artefacts.

    Safe to share: every artefact write is atomic (write-to-temp +
    ``os.replace`` in the same directory), so concurrent readers — other
    processes or threads — never observe a torn file, and a stage
    interrupted mid-run leaves only complete artefacts behind.  An
    artefact damaged outside the library raises :class:`ConfigError`
    naming the file and the ``repro-flow`` stage that rewrites it.

    Parameters
    ----------
    root:
        Workspace directory (created on :meth:`initialize`).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        return self.root / "workspace.json"

    @property
    def char_dir(self) -> Path:
        return self.root / "characterization"

    @property
    def designs_dir(self) -> Path:
        return self.root / "designs"

    @property
    def area_model_path(self) -> Path:
        return self.root / "area_model.json"

    def exists(self) -> bool:
        return self.meta_path.exists()

    # ------------------------------------------------------------------
    @staticmethod
    def _writer_tag() -> str:
        """Unique-per-writer temp-name tag: pid plus thread id.

        The pid separates racing processes; the thread id separates
        writer threads, which share one pid.
        """
        return f"{os.getpid()}.{threading.get_ident()}"

    def _write_atomic(self, path: Path, text: str) -> None:
        """Atomic text write: same-directory temp file + ``os.replace``.

        The temp name carries a per-writer tag so concurrent same-file
        writers never collide on the temp path, and is dot-prefixed so
        directory globs (``wl*.npz``, ``*.json``) never pick up an
        in-flight write.
        """
        tmp = path.parent / f".{path.name}.tmp.{self._writer_tag()}"
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def initialize(self, device: FPGADevice, settings: TableISettings, seed: int) -> None:
        """Create the workspace for one device + settings combination."""
        if self.exists():
            raise ConfigError(f"workspace already initialised at {self.root}")
        meta = {
            "version": _META_VERSION,
            "device_serial": device.serial,
            "family": device.family.name,
            "seed": seed,
            "settings": asdict(settings),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        self.char_dir.mkdir(exist_ok=True)
        self.designs_dir.mkdir(exist_ok=True)
        self._write_atomic(self.meta_path, json.dumps(meta, indent=2))

    def _meta(self) -> tuple[int, TableISettings, int]:
        """The device serial, settings and seed ``workspace.json`` records."""
        if not self.exists():
            raise ConfigError(f"no workspace at {self.root}; initialise first")
        with _reading(self.meta_path, "remove it and run `repro-flow init` again"):
            meta = json.loads(self.meta_path.read_text())
            if meta.get("version") != _META_VERSION:
                raise ConfigError(f"unsupported workspace version in {self.meta_path}")
            settings = dict(meta["settings"])
            settings["betas"] = tuple(settings["betas"])
            return int(meta["device_serial"]), TableISettings(**settings), int(meta["seed"])

    def device(self) -> FPGADevice:
        """Rehydrate the workspace's device (the serial is the identity)."""
        serial, _, _ = self._meta()
        return make_device(serial)

    def settings(self) -> TableISettings:
        _, settings, _ = self._meta()
        return settings

    def seed(self) -> int:
        _, _, seed = self._meta()
        return seed

    # ------------------------------------------------------------------
    def save_characterization(self, wl: int, result: CharacterizationResult) -> Path:
        """Archive one sweep; its execution outcome lands in a JSON sidecar.

        The ``.npz`` holds only the data grids; the resilience provenance
        (attempt counts, retries, quarantined shards) goes to
        ``wlNN.outcome.json`` so ``repro-flow status`` can flag degraded
        artefacts without loading the arrays.
        """
        path = self.char_dir / f"wl{wl:02d}.npz"
        # The temp name keeps the .npz suffix (so numpy does not append
        # one) but is dot-prefixed and writer-tagged like every workspace
        # write: racing writers archiving the same sweep install atomically
        # and bit-identically, whoever wins.
        tmp = path.parent / f".{path.name}.tmp.{self._writer_tag()}.npz"
        try:
            result.save(tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        if result.outcome is not None:
            self._write_atomic(
                self.outcome_path(wl),
                json.dumps(result.outcome.as_dict(), indent=2),
            )
        return path

    def outcome_path(self, wl: int) -> Path:
        return self.char_dir / f"wl{wl:02d}.outcome.json"

    def sweep_health(self) -> dict[int, dict]:
        """Sweep-outcome summaries of every archived word-length.

        Word-lengths without a sidecar (pre-resilience archives) map to
        ``{"status": "complete"}`` — they could only have been written by
        a sweep that finished every shard.
        """
        health: dict[int, dict] = {}
        for wl in self.characterized_wordlengths():
            path = self.outcome_path(wl)
            if path.exists():
                with _reading(path, "re-run `repro-flow characterize`"):
                    data = json.loads(path.read_text())
                    health[wl] = {
                        "status": data.get("status", "complete"),
                        "n_shards": data.get("n_shards"),
                        "n_quarantined": data.get("n_quarantined", 0),
                        "quarantined": data.get("quarantined", []),
                        "total_attempts": data.get("total_attempts"),
                    }
            else:
                health[wl] = {"status": "complete", "n_quarantined": 0}
        return health

    def characterized_wordlengths(self) -> list[int]:
        """Word-lengths with an archived sweep.

        Only the names :meth:`save_characterization` writes (``wl`` and
        two digits) count; any other file in the directory is ignored.
        """
        if not self.char_dir.exists():
            return []
        return sorted(
            int(p.stem[2:]) for p in self.char_dir.glob("wl[0-9][0-9].npz")
        )

    def load_error_models(self) -> ErrorModelSet:
        """Rebuild the error-model set from the archived sweeps."""
        wls = self.characterized_wordlengths()
        if not wls:
            raise ConfigError(f"no characterisation archives in {self.char_dir}")
        models: dict[int, ErrorModel] = {}
        for wl in wls:
            path = self.char_dir / f"wl{wl:02d}.npz"
            with _reading(path, "re-run `repro-flow characterize`"):
                result = CharacterizationResult.load(path)
            models[wl] = build_error_model(result)
        return ErrorModelSet(models)

    # ------------------------------------------------------------------
    def save_area_model(self, model: AreaModel) -> Path:
        payload = {
            "coeffs": model.coeffs.tolist(),
            "residual_sigma": model.residual_sigma,
            "wl_range": list(model.wl_range),
            "n_samples": model.n_samples,
        }
        self._write_atomic(self.area_model_path, json.dumps(payload, indent=2))
        return self.area_model_path

    def load_area_model(self) -> AreaModel:
        if not self.area_model_path.exists():
            raise ConfigError(f"no area model at {self.area_model_path}")
        with _reading(self.area_model_path, "re-run `repro-flow fit-area`"):
            p = json.loads(self.area_model_path.read_text())
            return AreaModel(
                coeffs=np.asarray(p["coeffs"]),
                residual_sigma=float(p["residual_sigma"]),
                wl_range=(int(p["wl_range"][0]), int(p["wl_range"][1])),
                n_samples=int(p["n_samples"]),
            )

    # ------------------------------------------------------------------
    def _design_set_path(self, name: str) -> Path:
        """The file of design set ``name``; a name that is empty or holds a
        ``/`` would leave ``designs/`` and raises :class:`ConfigError`."""
        if not name or "/" in name:
            raise ConfigError(f"invalid design-set name {name!r}")
        return self.designs_dir / f"{name}.json"

    def save_design_set(self, name: str, designs: list[LinearProjectionDesign]) -> Path:
        path = self._design_set_path(name)
        tmp = path.parent / f".{path.name}.tmp.{self._writer_tag()}"
        try:
            save_designs(designs, tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def load_design_set(self, name: str) -> list[LinearProjectionDesign]:
        path = self._design_set_path(name)
        if not path.exists():
            raise ConfigError(
                f"no design set {name!r} in {self.designs_dir}; run "
                f"`repro-flow optimize --name {name}` first "
                f"(design sets: {self.design_sets() or 'none'})"
            )
        with _reading(path, f"re-run `repro-flow optimize --name {name}`"):
            return load_designs(path)

    def design_sets(self) -> list[str]:
        if not self.designs_dir.exists():
            return []
        return sorted(p.stem for p in self.designs_dir.glob("*.json"))

    # ------------------------------------------------------------------
    def framework(self) -> OptimizationFramework:
        """An OptimizationFramework pre-seeded from the archived artefacts.

        The characterisation and area-model caches are filled from disk if
        present, so :meth:`OptimizationFramework.optimize` and
        :meth:`~repro.framework.OptimizationFramework.evaluate` run without
        re-simulating the device.  The framework places through the
        process-wide default placed-design cache.
        """
        fw = OptimizationFramework(self.device(), self.settings(), seed=self.seed())
        if self.characterized_wordlengths():
            fw._error_models = self.load_error_models()
        if self.area_model_path.exists():
            fw._area_model = self.load_area_model()
        return fw
