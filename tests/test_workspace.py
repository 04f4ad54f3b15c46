"""Tests for repro.workspace and the repro-flow CLI."""

import json

import numpy as np
import pytest

from repro.characterization import CharacterizationConfig, characterize_multiplier
from repro.config import TableISettings
from repro.core.klt import klt_reference_design
from repro.datasets import low_rank_gaussian
from repro.errors import ConfigError
from repro.models.area_model import collect_area_samples, fit_area_model
from repro.stages import optimize_workspace
from repro.workspace import Workspace

SETTINGS = TableISettings(
    n_characterization=60,
    n_train=30,
    n_test=30,
    burn_in=10,
    n_samples=30,
    q=2,
    min_coeff_wordlength=3,
    max_coeff_wordlength=4,
)


@pytest.fixture()
def ws(tmp_path, device):
    w = Workspace(tmp_path / "ws")
    w.initialize(device, SETTINGS, seed=3)
    return w


class TestLifecycle:
    def test_initialize_and_reload_meta(self, ws, device):
        assert ws.exists()
        assert ws.device().serial == device.serial
        assert ws.settings() == SETTINGS
        assert ws.seed() == 3

    def test_double_initialize_rejected(self, ws, device):
        with pytest.raises(ConfigError):
            ws.initialize(device, SETTINGS, seed=3)

    def test_missing_workspace_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            Workspace(tmp_path / "nope").device()

    def test_status_of_empty_workspace(self, ws):
        assert ws.characterized_wordlengths() == []
        assert ws.design_sets() == []


class TestArtefacts:
    def test_characterization_roundtrip(self, ws, device):
        cfg = CharacterizationConfig(
            freqs_mhz=(400.0, 500.0), n_samples=60, multiplicands=(1, 7), n_locations=1
        )
        for wl in (3, 4):
            r = characterize_multiplier(device, 9, wl, cfg, seed=3)
            ws.save_characterization(wl, r)
        assert ws.characterized_wordlengths() == [3, 4]
        models = ws.load_error_models()
        assert models.wordlengths == (3, 4)

    def test_area_model_roundtrip(self, ws, device):
        samples = collect_area_samples(device, (3, 4), w_data=9, n_runs=3, seed=0)
        model = fit_area_model(samples, degree=1)
        ws.save_area_model(model)
        loaded = ws.load_area_model()
        assert np.allclose(loaded.coeffs, model.coeffs)
        assert loaded.residual_sigma == model.residual_sigma
        assert loaded.wl_range == model.wl_range

    def test_missing_area_model_rejected(self, ws):
        with pytest.raises(ConfigError):
            ws.load_area_model()

    def test_design_set_roundtrip(self, ws):
        x = low_rank_gaussian(6, 3, 40, np.random.default_rng(0))
        designs = [klt_reference_design(x, 3, 4, 9, 310.0, area_le=100.0)]
        ws.save_design_set("baseline", designs)
        assert ws.design_sets() == ["baseline"]
        loaded = ws.load_design_set("baseline")
        assert np.allclose(loaded[0].values, designs[0].values)

    def test_bad_design_set_name_rejected(self, ws):
        with pytest.raises(ConfigError):
            ws.save_design_set("a/b", [])


class TestFrameworkRehydration:
    def test_preseeded_caches(self, ws, device):
        cfg = CharacterizationConfig(
            freqs_mhz=(400.0, 500.0), n_samples=60, n_locations=1
        )
        for wl in (3, 4):
            ws.save_characterization(
                wl, characterize_multiplier(device, 9, wl, cfg, seed=3)
            )
        samples = collect_area_samples(device, (3, 4), w_data=9, n_runs=3, seed=0)
        ws.save_area_model(fit_area_model(samples, degree=1))

        fw = ws.framework()
        # No re-simulation: the caches come straight from disk.
        assert fw.characterize().wordlengths == (3, 4)
        assert fw.fit_area_model().wl_range == (3, 4)


class TestFlowCli:
    def test_end_to_end_flow(self, tmp_path, capsys):
        from repro.cli_flow import main

        ws = str(tmp_path / "flow")
        assert main(["init", ws, "--serial", "77", "--scale", "0.012"]) == 0
        assert main(["status", ws]) == 0
        out = capsys.readouterr().out
        assert "serial 77" in out
        assert main(["characterize", ws]) == 0
        assert main(["fit-area", ws]) == 0
        assert main(["optimize", ws, "--beta", "4.0", "--name", "t1"]) == 0
        assert main(["evaluate", ws, "--name", "t1", "--domain", "predicted"]) == 0
        out = capsys.readouterr().out
        assert "predicted MSE" in out
        assert main(["status", ws]) == 0
        out = capsys.readouterr().out
        assert "t1" in out


class TestStageContract:
    """``optimize`` and ``evaluate`` read archived inputs; they never
    recompute a missing sweep or area model in memory."""

    @pytest.mark.parametrize("stage", ["optimize", "evaluate"])
    def test_init_only_workspace_is_refused(self, tmp_path, capsys, stage):
        from repro.cli_flow import main

        ws = tmp_path / "ws"
        assert main(["init", str(ws), "--serial", "7", "--scale", "0.012"]) == 0
        metrics = tmp_path / "metrics.json"
        assert main(["--metrics", str(metrics), stage, str(ws)]) == 2
        err = capsys.readouterr().err
        assert f"{stage} needs the characterisation archives" in err
        assert "[3, 4, 5, 6, 7, 8, 9]" in err
        assert "run `repro-flow characterize` first" in err
        assert list((ws / "designs").iterdir()) == []
        assert list((ws / "characterization").iterdir()) == []
        counters = json.loads(metrics.read_text())["counters"]
        assert "characterization.harness.calls" not in counters
        assert "synthesis.flow.calls" not in counters

    def test_missing_inputs_are_named(self, ws, device):
        cfg = CharacterizationConfig(
            freqs_mhz=(400.0, 500.0), n_samples=60, n_locations=1
        )
        ws.save_characterization(
            3, characterize_multiplier(device, 9, 3, cfg, seed=3)
        )
        with pytest.raises(
            ConfigError, match=r"word-lengths \[4\]; run `repro-flow characterize`"
        ):
            optimize_workspace(ws, "t", 4.0)
        ws.save_characterization(
            4, characterize_multiplier(device, 9, 4, cfg, seed=3)
        )
        with pytest.raises(ConfigError, match="area model; run `repro-flow fit-area`"):
            optimize_workspace(ws, "t", 4.0)
        assert ws.design_sets() == []

    @pytest.fixture()
    def archived_ws(self, ws, device):
        """Every input of optimize and evaluate archived, plus design set
        ``t`` and a copy of it at ``WS/x.json``, outside ``designs/``."""
        cfg = CharacterizationConfig(
            freqs_mhz=(400.0, 500.0), n_samples=60, n_locations=1
        )
        for wl in (3, 4):
            ws.save_characterization(
                wl, characterize_multiplier(device, 9, wl, cfg, seed=3)
            )
        samples = collect_area_samples(device, (3, 4), w_data=9, n_runs=3, seed=0)
        ws.save_area_model(fit_area_model(samples, degree=1))
        x = low_rank_gaussian(6, 3, 40, np.random.default_rng(0))
        path = ws.save_design_set(
            "t", [klt_reference_design(x, 3, 4, 9, 310.0, area_le=100.0)]
        )
        (ws.root / "x.json").write_bytes(path.read_bytes())
        return ws

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["evaluate", "--name", "nope"],
                "run `repro-flow optimize --name nope` first (design sets: ['t'])",
            ),
            (
                ["evaluate", "--name", "../x"],
                "invalid design-set name '../x'",
            ),
            (["optimize", "--beta", "0", "--name", "b"], "beta must be > 0, got 0.0"),
            (["optimize", "--beta", "nan", "--name", "b"], "beta must be > 0, got nan"),
        ],
        ids=["unknown-name", "name-outside-designs", "beta-zero", "beta-nan"],
    )
    def test_bad_input_exits_2(self, archived_ws, capsys, argv, message):
        from repro.cli_flow import main

        stage, *flags = argv
        assert main([stage, str(archived_ws.root), *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert archived_ws.design_sets() == ["t"]

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_bad_scale_exits_2(self, tmp_path, capsys, scale):
        from repro.cli_flow import main

        ws = tmp_path / "ws"
        assert main(["init", str(ws), "--scale", scale]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: scale factor must be finite and positive, got {scale}\n"
        )
        assert not ws.exists()

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_bad_shard_timeout_exits_2(self, tmp_path, capsys, timeout):
        from repro.cli_flow import main

        ws = tmp_path / "ws"
        assert main(["init", str(ws), "--serial", "7", "--scale", "0.012"]) == 0
        capsys.readouterr()
        argv = ["characterize", str(ws), "--jobs", "2", "--shard-timeout", timeout]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: shard timeout must be finite and positive (or None), "
            f"got {timeout}\n"
        )
        assert captured.out == ""
        assert list((ws / "characterization").iterdir()) == []

    @pytest.mark.parametrize(
        "stage, directory, flags, work",
        [
            ("characterize", "characterization", [], "characterization.harness.calls"),
            ("optimize", "designs", ["--name", "b"], "core.optimizer.calls"),
        ],
        ids=["characterize", "optimize"],
    )
    def test_missing_output_directory_exits_2_before_the_work(
        self, archived_ws, tmp_path, capsys, stage, directory, flags, work
    ):
        from repro.cli_flow import main

        path = archived_ws.root / directory
        for child in path.iterdir():
            child.unlink()
        path.rmdir()
        metrics = tmp_path / "metrics.json"
        argv = ["--metrics", str(metrics), stage, str(archived_ws.root), *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        # The one line after the error is the --metrics export notice.
        assert captured.err == (
            f"error: {stage} archives into {path}, which is missing; "
            f"recreate the directory\nmetrics written: {metrics}\n"
        )
        assert captured.out == ""
        assert not path.exists()
        assert work not in json.loads(metrics.read_text())["counters"]

    def test_stray_archive_name_is_ignored(self, archived_ws, capsys):
        from repro.cli_flow import main

        (archived_ws.char_dir / "wlxx.npz").write_text("stray")
        (archived_ws.char_dir / "wl3.npz").write_text("stray")
        assert archived_ws.characterized_wordlengths() == [3, 4]
        assert main(["status", str(archived_ws.root)]) == 0
        captured = capsys.readouterr()
        assert "characterised word-lengths: [3, 4]" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        "artefact, content, argv, remedy",
        [
            ("designs/t.json", "garbage", ["evaluate", "--name", "t"],
             "re-run `repro-flow optimize --name t`"),
            ("designs/t.json", '{"format_version": 2, "designs": []}',
             ["evaluate", "--name", "t"], "re-run `repro-flow optimize --name t`"),
            ("area_model.json", "garbage", ["optimize", "--name", "b"],
             "re-run `repro-flow fit-area`"),
            ("workspace.json", "garbage", ["status"],
             "remove it and run `repro-flow init` again"),
            ("workspace.json", '{"version": 1}', ["status"],
             "remove it and run `repro-flow init` again"),
            ("characterization/wl03.npz", "garbage", ["optimize", "--name", "b"],
             "re-run `repro-flow characterize`"),
            ("characterization/wl03.outcome.json", "[]", ["status"],
             "re-run `repro-flow characterize`"),
        ],
        ids=["design-set", "design-format-version", "area-model", "workspace-meta",
             "workspace-meta-fields", "sweep-archive", "sweep-outcome"],
    )
    def test_damaged_artefact_exits_2(
        self, archived_ws, capsys, artefact, content, argv, remedy
    ):
        from repro.cli_flow import main

        path = archived_ws.root / artefact
        assert path.exists()
        path.write_text(content)
        stage, *flags = argv
        assert main([stage, str(archived_ws.root), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path} (")
        assert captured.err.endswith(f"; {remedy}\n")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out


class TestSharedWorkspace:
    """Regressions for the sharing contract: atomic writes."""

    def test_atomic_writes_leave_no_temp_files(self, ws, device):
        cfg = CharacterizationConfig(
            freqs_mhz=(400.0, 500.0), n_samples=60,
            multiplicands=(1, 7), n_locations=1,
        )
        ws.save_characterization(
            3, characterize_multiplier(device, 9, 3, cfg, seed=3)
        )
        samples = collect_area_samples(device, (3, 4), w_data=9, n_runs=3, seed=0)
        ws.save_area_model(fit_area_model(samples, degree=1))
        ws.save_design_set("t", [])
        leftovers = [p for p in ws.root.rglob("*") if ".tmp." in p.name]
        assert leftovers == []
        # Globs only ever see complete artefacts, never in-flight temps.
        assert ws.characterized_wordlengths() == [3]
        assert ws.design_sets() == ["t"]

    def test_concurrent_saves_of_same_wordlength(self, ws, device):
        import threading

        cfg = CharacterizationConfig(
            freqs_mhz=(400.0, 500.0), n_samples=60,
            multiplicands=(1, 7), n_locations=1,
        )
        result = characterize_multiplier(device, 9, 3, cfg, seed=3)
        errors = []

        def save():
            try:
                ws.save_characterization(3, result)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=save) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        loaded = ws.load_error_models()
        assert loaded.wordlengths == (3,)
