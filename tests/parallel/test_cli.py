"""CLI coverage for the parallel engine: the --jobs flags."""

import pytest

from repro.cli_flow import main as flow_main


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

    def test_characterize_writes_only_archives(self, workspace):
        # One real (tiny-scale) characterisation run: the placements stay
        # in memory, so the workspace holds only its archives.
        assert flow_main(["characterize", str(workspace), "--jobs", "1"]) == 0
        assert sorted(p.name for p in workspace.iterdir()) == [
            "characterization", "designs", "workspace.json",
        ]
        assert len(list((workspace / "characterization").glob("wl*.npz"))) == 7


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
