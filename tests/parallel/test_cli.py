"""CLI coverage for the parallel engine: cache subcommand, --jobs flags."""

import json

import pytest

from repro.cli import main as experiment_main
from repro.cli_flow import main as flow_main
from repro.parallel.cache import PlacedDesignCache


@pytest.fixture()
def populated_cache_dir(device, tmp_path):
    directory = tmp_path / "placed"
    cache = PlacedDesignCache(directory)
    cache.get_or_place(device, 8, 8, (0, 0), 0)
    cache.get_or_place(device, 8, 8, (4, 4), 0)
    return directory


class TestCacheCli:
    def test_info_text(self, populated_cache_dir, capsys):
        assert experiment_main(["cache", "info", "--dir", str(populated_cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "disk_entries: 2" in out

    def test_info_json(self, populated_cache_dir, capsys):
        rc = experiment_main(
            ["cache", "info", "--dir", str(populated_cache_dir), "--format", "json"]
        )
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["disk_entries"] == 2
        assert stats["disk_bytes"] > 0

    def test_clear(self, populated_cache_dir, capsys):
        assert experiment_main(["cache", "clear", "--dir", str(populated_cache_dir)]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert list(populated_cache_dir.glob("*.pkl")) == []

    def test_env_fallback(self, populated_cache_dir, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(populated_cache_dir))
        assert experiment_main(["cache", "info"]) == 0
        assert "disk_entries: 2" in capsys.readouterr().out

    def test_no_directory_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert experiment_main(["cache", "info"]) == 2
        assert "no cache directory" in capsys.readouterr().err


class TestCacheVerify:
    def test_clean_cache_verifies(self, populated_cache_dir, capsys):
        rc = experiment_main(
            ["cache", "verify", "--dir", str(populated_cache_dir)]
        )
        assert rc == 0
        assert "verified 2 entries" in capsys.readouterr().out

    def test_verify_flag_is_shorthand(self, populated_cache_dir, capsys):
        rc = experiment_main(
            ["cache", "--verify", "--dir", str(populated_cache_dir)]
        )
        assert rc == 0
        assert "0 problem(s)" in capsys.readouterr().out

    def test_torn_entry_is_reported_not_rebuilt(self, populated_cache_dir, capsys):
        victim = sorted(populated_cache_dir.glob("*.pkl"))[0]
        victim.write_bytes(b"garbage")
        rc = experiment_main(
            ["cache", "verify", "--dir", str(populated_cache_dir)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "1 problem(s)" in out
        assert victim.name in out
        # read-only: the damaged entry is still on disk, untouched
        assert victim.read_bytes() == b"garbage"

    def test_misfiled_entry_is_reported(self, populated_cache_dir, capsys):
        a, b = sorted(populated_cache_dir.glob("*.pkl"))[:2]
        misfiled = a.with_name("0" * len(a.stem) + ".pkl")
        misfiled.write_bytes(b.read_bytes())
        rc = experiment_main(
            ["cache", "verify", "--dir", str(populated_cache_dir)]
        )
        assert rc == 1
        assert "does not match its key digest" in capsys.readouterr().out

    def test_json_report(self, populated_cache_dir, capsys):
        sorted(populated_cache_dir.glob("*.pkl"))[0].write_bytes(b"junk")
        rc = experiment_main(
            ["cache", "verify", "--dir", str(populated_cache_dir),
             "--format", "json"]
        )
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 2
        assert len(report["problems"]) == 1
        assert "undecodable envelope" in report["problems"][0]["problem"]

    def test_verify_never_touches_counters_or_files(self, populated_cache_dir):
        before = sorted(p.name for p in populated_cache_dir.glob("*.pkl"))
        cache = PlacedDesignCache(populated_cache_dir)
        assert cache.verify() == []
        assert cache.stats().corruptions == 0
        assert sorted(p.name for p in populated_cache_dir.glob("*.pkl")) == before


class TestFlowJobs:
    @pytest.fixture()
    def workspace(self, tmp_path):
        ws = tmp_path / "ws"
        assert flow_main(["init", str(ws), "--serial", "7", "--scale", "0.012"]) == 0
        return ws

    def test_characterize_rejects_bad_jobs(self, workspace, capsys):
        assert flow_main(["characterize", str(workspace), "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_optimize_rejects_bad_jobs(self, workspace, capsys):
        # Only characterize sweeps; optimize and evaluate take no --jobs.
        for stage in ("optimize", "evaluate"):
            with pytest.raises(SystemExit) as exc_info:
                flow_main([stage, str(workspace), "--jobs", "2"])
            assert exc_info.value.code == 2
            assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_status_reports_cache(self, workspace, capsys):
        assert flow_main(["status", str(workspace)]) == 0
        assert "placed-design cache" in capsys.readouterr().out

    def test_characterize_populates_workspace_cache(self, workspace, capsys):
        # One real (tiny-scale) characterisation run: the CLI must leave
        # the placements in the workspace cache and report them via the
        # cache subcommand's --workspace flag.
        assert flow_main(["characterize", str(workspace), "--jobs", "1"]) == 0
        cache_dir = workspace / "cache" / "placed"
        assert len(list(cache_dir.glob("*.pkl"))) > 0
        capsys.readouterr()
        rc = experiment_main(["cache", "info", "--workspace", str(workspace)])
        assert rc == 0
        assert "disk_entries" in capsys.readouterr().out


class TestFlowExecutorFlag:
    """``--jobs`` (or ``REPRO_JOBS``) alone picks pool or inline execution."""

    @pytest.fixture()
    def workspace(self, tmp_path):
        ws = tmp_path / "ws"
        assert flow_main(["init", str(ws), "--serial", "7", "--scale", "0.012"]) == 0
        return ws

    def test_serial_executor_matches_default(self, tmp_path, capsys, monkeypatch):
        # REPRO_JOBS=2 makes the process pool the default; --jobs 1 runs
        # every shard inline.  The archives must not tell them apart.
        monkeypatch.setenv("REPRO_JOBS", "2")
        default_ws = tmp_path / "default_ws"
        serial_ws = tmp_path / "serial_ws"
        for ws in (default_ws, serial_ws):
            assert flow_main(
                ["init", str(ws), "--serial", "7", "--scale", "0.012"]
            ) == 0
        assert flow_main(["characterize", str(default_ws)]) == 0
        assert flow_main(["characterize", str(serial_ws), "--jobs", "1"]) == 0
        default_npz = sorted((default_ws / "characterization").glob("wl*.npz"))
        serial_npz = sorted((serial_ws / "characterization").glob("wl*.npz"))
        assert default_npz and len(default_npz) == len(serial_npz)
        for a, b in zip(default_npz, serial_npz):
            assert a.read_bytes() == b.read_bytes()

    def test_unknown_env_executor_is_a_config_error(
        self, workspace, capsys, monkeypatch
    ):
        # An executor name is not a worker count: exit 2, nothing run.
        monkeypatch.setenv("REPRO_JOBS", "pool")
        assert flow_main(["characterize", str(workspace)]) == 2
        assert "REPRO_JOBS='pool' is not an integer" in capsys.readouterr().err
        assert not list((workspace / "characterization").glob("wl*"))
