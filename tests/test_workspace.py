"""Tests for repro.workspace and the repro-flow CLI."""

import numpy as np
import pytest

from repro.characterization import CharacterizationConfig, characterize_multiplier
from repro.config import TableISettings
from repro.core.klt import klt_reference_design
from repro.datasets import low_rank_gaussian
from repro.errors import ConfigError
from repro.models.area_model import collect_area_samples, fit_area_model
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


class TestSharedWorkspace:
    """Regressions for the sharing contract: idempotent initialisation,
    one memoised cache handle, and atomic writes."""

    def test_initialize_exist_ok_is_idempotent(self, ws, device):
        before = ws.meta_path.read_bytes()
        ws.initialize(device, SETTINGS, seed=3, exist_ok=True)
        assert ws.meta_path.read_bytes() == before

    def test_initialize_exist_ok_rejects_identity_mismatch(
        self, ws, device, other_device
    ):
        with pytest.raises(ConfigError, match="different"):
            ws.initialize(other_device, SETTINGS, seed=3, exist_ok=True)
        with pytest.raises(ConfigError, match="different"):
            ws.initialize(device, SETTINGS, seed=4, exist_ok=True)

    def test_placed_cache_is_memoised(self, ws):
        assert ws.placed_cache() is ws.placed_cache()

    def test_injected_cache_wins(self, tmp_path, device):
        from repro.parallel.cache import PlacedDesignCache

        shared = PlacedDesignCache(tmp_path / "shared")
        w = Workspace(tmp_path / "ws2", cache=shared)
        w.initialize(device, SETTINGS, seed=3)
        assert w.placed_cache() is shared
        # The framework places through the injected cache too.
        assert w.framework().cache is shared

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
