"""Fault paths of a stage job: parity with the batch CLI, and cancellation.

A characterise job driven through :mod:`repro.stages` must tell the same
story as ``repro-flow``: a chaos plan that degrades a batch run degrades
the job to the same artefact bytes, and one that fails a batch run with
exit 3 fails the job with the error the CLI maps to exit 3.
Cancellation lands at artefact boundaries, so a cancelled job leaves
workspace and cache fully valid.
"""

from __future__ import annotations

import json

import pytest

from repro.characterization.results import CharacterizationResult
from repro.cli_flow import main as flow_main
from repro.config import ResilienceSettings
from repro.errors import SweepFailedError
from repro.parallel.cache import PlacedDesignCache
from repro.stages import characterize_workspace
from repro.workspace import Workspace

from .conftest import THREE_WORDLENGTHS, make_workspace

#: A shard that crashes on every attempt: unrecoverable by retries.
PERSISTENT_CRASH = {
    "seed": 5,
    "specs": [{"kind": "crash", "li": 0, "start": 0, "times": -1}],
}


class Cancelled(Exception):
    """Raised by a progress callback to cancel the running job."""


class TestChaosParity:
    @pytest.fixture(autouse=True)
    def chaos(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(PERSISTENT_CRASH))

    def test_degraded_job_matches_degraded_batch_run(self, tmp_path):
        cli_ws = make_workspace(tmp_path / "cli_ws")
        rc = flow_main([
            "characterize", str(cli_ws.root), "--allow-degraded",
            "--max-retries", "0",
        ])
        assert rc == 0

        job_ws = make_workspace(tmp_path / "job_ws")
        characterize_workspace(
            job_ws,
            resilience=ResilienceSettings(max_retries=0, allow_degraded=True),
        )
        health = job_ws.sweep_health()[3]
        assert health["status"] == "degraded"
        assert health["quarantined"] == [[0, 0]]
        assert health == cli_ws.sweep_health()[3]
        cli_blob = (cli_ws.char_dir / "wl03.npz").read_bytes()
        job_blob = (job_ws.char_dir / "wl03.npz").read_bytes()
        assert job_blob == cli_blob

    def test_failed_job_carries_batch_exit_3(self, tmp_path, capsys):
        cli_ws = make_workspace(tmp_path / "cli_ws")
        rc = flow_main(["characterize", str(cli_ws.root), "--max-retries", "0"])
        assert rc == 3
        assert "quarantined" in capsys.readouterr().err

        job_ws = make_workspace(tmp_path / "job_ws")
        with pytest.raises(SweepFailedError, match="quarantined"):
            characterize_workspace(
                job_ws,
                resilience=ResilienceSettings(max_retries=0),
            )
        # Neither run archived a failed sweep.
        assert not list(cli_ws.char_dir.glob("wl*"))
        assert not list(job_ws.char_dir.glob("wl*"))


class TestCancellation:
    def test_cancel_mid_run_leaves_workspace_and_cache_valid(self, tmp_path):
        """Cancel between word-length sweeps: whatever was archived is
        complete and loadable, no temp files linger, and re-running the
        same job on the same workspace converges to the clean result."""
        cache_dir = tmp_path / "cache"
        ws = make_workspace(
            tmp_path / "ws", THREE_WORDLENGTHS, cache=PlacedDesignCache(cache_dir)
        )
        starts = []

        def cancel_at_second_sweep(event):
            if event["event"] == "wordlength.start":
                starts.append(event["wl"])
                if len(starts) == 2:
                    raise Cancelled

        with pytest.raises(Cancelled):
            characterize_workspace(ws, progress=cancel_at_second_sweep)

        # No torn or in-flight files anywhere in the workspace or cache.
        assert not list(ws.root.rglob(".*tmp*"))
        assert not list(cache_dir.rglob("*.tmp*"))
        assert PlacedDesignCache(cache_dir).verify() == []
        archived = sorted(ws.char_dir.glob("wl*.npz"))
        assert [p.name for p in archived] == ["wl03.npz"]
        assert CharacterizationResult.load(archived[0]).variance.size > 0

        # The workspace and cache survived: the same job re-run in a new
        # session completes and matches an untouched reference run.
        characterize_workspace(
            Workspace(ws.root, cache=PlacedDesignCache(cache_dir))
        )
        ref_ws = make_workspace(tmp_path / "ref", THREE_WORDLENGTHS)
        characterize_workspace(ref_ws)
        for wl in (3, 4, 5):
            name = f"wl{wl:02d}.npz"
            assert (ws.char_dir / name).read_bytes() == (
                ref_ws.char_dir / name
            ).read_bytes()
