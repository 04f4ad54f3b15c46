"""Tests for repro.core.bayesian — the Gibbs projection sampler."""

import copy
import dataclasses
import hashlib
import math
from collections.abc import Callable

import numpy as np
import pytest

from repro.core import bayesian
from repro.core.bayesian import (
    GibbsConfig,
    sample_projection_vector,
    sample_projection_vectors,
)
from repro.core.klt import fit_klt
from repro.core.quantize import quantize_coefficients
from repro.errors import OptimizationError
from repro.models.prior import CoefficientPrior
from tests.conftest import make_synthetic_error_model
from tests.core import gibbs_oracle


def _prior(wl=6, beta=4.0, freq=250.0):
    """Default prior at an error-free frequency: flat (pure likelihood)."""
    return CoefficientPrior.from_error_model(
        make_synthetic_error_model(wl), freq, beta
    )


def _rank1_data(p=6, n=120, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    direction = np.linalg.qr(rng.normal(size=(p, 1)))[0][:, 0]
    x = np.outer(direction, rng.normal(size=n) * 0.5)
    x += noise * rng.normal(size=(p, n))
    return x, direction


FAST = GibbsConfig(burn_in=60, n_samples=240, thin=6)


class TestRecovery:
    def test_matches_quantised_klt_on_rank1(self):
        x, _ = _rank1_data()
        prior = _prior()
        oc = np.zeros_like(prior.values)
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(1), FAST)
        klt_dir = fit_klt(x, 1)[:, 0]
        q = quantize_coefficients(klt_dir, 6)
        from repro.core.bayesian import _column_mse

        assert s.mse <= _column_mse(q.values, x) * 1.2

    def test_deterministic_given_rng(self):
        x, _ = _rank1_data()
        prior = _prior()
        oc = np.zeros_like(prior.values)
        a = sample_projection_vector(x, prior, oc, np.random.default_rng(3), FAST)
        b = sample_projection_vector(x, prior, oc, np.random.default_rng(3), FAST)
        assert np.array_equal(a.values, b.values)

    def test_output_on_grid(self):
        x, _ = _rank1_data()
        prior = _prior(wl=4)
        oc = np.zeros_like(prior.values)
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(1), FAST)
        grid = set(np.round(prior.values, 12))
        assert all(np.round(v, 12) in grid for v in s.values)
        assert s.wordlength == 4
        assert np.all(s.magnitudes < (1 << 4))

    def test_score_decomposition(self):
        x, _ = _rank1_data()
        prior = _prior()
        oc = np.zeros_like(prior.values)
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(1), FAST)
        assert s.score == pytest.approx(s.mse + s.oc_penalty)
        assert s.oc_penalty == 0.0  # zero oc table
        assert s.n_scored > 0


class TestPriorInfluence:
    def test_penalised_magnitudes_avoided(self):
        """With a harsh prior, dense-popcount magnitudes are avoided."""
        x, _ = _rank1_data(noise=0.05)
        wl = 6
        model = make_synthetic_error_model(wl, freqs=(250.0, 300.0, 350.0))
        # 350 MHz: variance = popcount * 200 (errors everywhere except 0).
        prior = CoefficientPrior.from_error_model(model, 350.0, beta=8.0)
        scale = 2.0 ** (-2 * (9 + wl))
        oc = prior.variances * scale
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(2), FAST)
        pop = np.array([bin(m).count("1") for m in s.magnitudes])
        # The flat-prior solution would use dense magnitudes; the harsh
        # prior must keep the average popcount low.
        flat = CoefficientPrior.from_error_model(model, 250.0, beta=8.0)
        s_flat = sample_projection_vector(
            x, flat, np.zeros_like(flat.values), np.random.default_rng(2), FAST
        )
        pop_flat = np.array([bin(m).count("1") for m in s_flat.magnitudes])
        assert pop.mean() <= pop_flat.mean()

    def test_oc_penalty_reported(self):
        x, _ = _rank1_data()
        wl = 5
        model = make_synthetic_error_model(wl)
        prior = CoefficientPrior.from_error_model(model, 350.0, beta=0.5)
        oc = prior.variances * 2.0 ** (-2 * (9 + wl))
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(4), FAST)
        if np.any(s.magnitudes != 0):
            expected_nonzero = any(
                bin(m).count("1") > 0 for m in s.magnitudes
            )
            assert (s.oc_penalty > 0) == expected_nonzero


class TestValidation:
    def test_bad_data_shape_rejected(self):
        prior = _prior()
        with pytest.raises(OptimizationError):
            sample_projection_vector(
                np.zeros(5), prior, np.zeros_like(prior.values), np.random.default_rng(0), FAST
            )

    def test_too_few_cases_rejected(self):
        prior = _prior()
        with pytest.raises(OptimizationError):
            sample_projection_vector(
                np.zeros((5, 1)), prior, np.zeros_like(prior.values), np.random.default_rng(0), FAST
            )

    def test_misaligned_oc_table_rejected(self):
        x, _ = _rank1_data()
        prior = _prior()
        with pytest.raises(OptimizationError):
            sample_projection_vector(
                x, prior, np.zeros(3), np.random.default_rng(0), FAST
            )

    def test_config_validation(self):
        with pytest.raises(OptimizationError):
            GibbsConfig(burn_in=-1)
        with pytest.raises(OptimizationError):
            GibbsConfig(n_samples=0)
        with pytest.raises(OptimizationError):
            GibbsConfig(thin=0)
        with pytest.raises(OptimizationError):
            GibbsConfig(a0=1.0)
        with pytest.raises(OptimizationError):
            GibbsConfig(polish_passes=-1)


class TestPolish:
    def test_polish_never_hurts(self):
        x, _ = _rank1_data(seed=5)
        prior = _prior()
        oc = np.zeros_like(prior.values)
        rough = sample_projection_vector(
            x, prior, oc, np.random.default_rng(7),
            GibbsConfig(burn_in=20, n_samples=40, thin=4, polish_passes=0),
        )
        polished = sample_projection_vector(
            x, prior, oc, np.random.default_rng(7),
            GibbsConfig(burn_in=20, n_samples=40, thin=4, polish_passes=6),
        )
        assert polished.score <= rough.score + 1e-12


def _lockstep_prior(wl: int) -> CoefficientPrior:
    """The lockstep fixture's prior: mild (beta 0.5) at 300 MHz."""
    return CoefficientPrior.from_error_model(make_synthetic_error_model(wl), 300.0, 0.5)


def _lockstep_case():
    """Nine chains: word-lengths {3, 5, 9} on three residuals, two identical.

    At 300 MHz and beta 0.5 the prior is mild and the over-clocking
    penalty non-zero, so the chains land on non-zero, differing designs.
    """
    priors = {wl: _lockstep_prior(wl) for wl in (3, 5, 9)}
    ocs = {wl: prior.variances * 2.0 ** (-2 * (9 + wl)) for wl, prior in priors.items()}
    a, _ = _rank1_data(n=20, seed=11, noise=0.05)
    b, _ = _rank1_data(n=20, seed=12, noise=0.2)
    chains = [(x, wl) for x in (a, a.copy(), b) for wl in (3, 5, 9)]
    xs = [x for x, _ in chains]
    return xs, [priors[wl] for _, wl in chains], [ocs[wl] for _, wl in chains]


FIELDS = ("values", "magnitudes", "signs", "wordlength", "score", "mse", "oc_penalty",
          "n_scored")


def _digest(logits: np.ndarray) -> tuple:
    """Shape, dtype and a sha256 of the bytes of some logits."""
    digest = hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()
    return logits.shape, logits.dtype.str, digest


class _LogitsProbe(np.ndarray):
    """The oracle's Gumbel draw, handing the logits it is added to and the scores to ``seen``.

    The oracle's ``logits + g`` dispatches here before adding, so ``seen``
    receives the chain's pre-Gumbel logits and its scores exactly.
    """

    seen: Callable

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert (ufunc, method) == (np.add, "__call__")
        (logits,) = [x for x in inputs if x is not self]
        plain = [x.view(np.ndarray) if x is self else x for x in inputs]
        scores = ufunc(*plain, **kwargs)
        self.seen(logits, scores)
        return scores


class _RecordingGenerator:
    """A seeded generator that logs every draw, its arguments and the state after it.

    The normal's scale is ``(1 + lambda . lambda / psi) ** -0.5``, so the log
    pins the chain's continuous state (factors, residual, noise
    variances) every iteration, where the sampled designs would absorb a
    last-bit difference.  The oracle draws ``gumbel(size=(P, G))``; the
    lockstep sampler fills a ``(P, G)`` block with ``random(out=...)`` and
    keeps it in ``uniforms``.  The coefficient logits reach results only
    through the Gumbel argmax, so they are checked too.  In the lockstep
    sampler :func:`_probe_logits` logs each fill's windows into ``windows``
    (``row -> (lo, hi, digest of the window's logits)``).  As the oracle's
    generator, given that ``lockstep`` recorder, each Gumbel draw checks
    the oracle's logits and scores against the windows of its iteration as
    it goes (:meth:`_check`), and counts the draws in ``checked``.
    """

    def __init__(
        self, seed: int | np.random.Generator, lockstep: "_RecordingGenerator | None" = None
    ) -> None:
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.calls: list[tuple] = []
        self.windows: list[dict] = []
        self.lockstep = lockstep
        self.checked = 0
        self.uniforms: np.ndarray | None = None

    def _draw(self, method: str, *args, **kwargs):
        draw = getattr(self._rng, method)(*args, **kwargs)
        logged = sorted((k, v.shape if k == "out" else v) for k, v in kwargs.items())
        self.calls.append((method, args, logged, self._rng.bit_generator.state))
        return draw

    def normal(self, *args, **kwargs):
        return self._draw("normal", *args, **kwargs)

    def random(self, *, out):
        self._draw("random", out=out)
        self.uniforms = out.copy()
        self.windows.append({})
        return out

    def gumbel(self, *args, **kwargs):
        draw = self._draw("gumbel", *args, **kwargs).view(_LogitsProbe)
        draw.seen = self._check
        return draw

    def gamma(self, *args, **kwargs):
        return self._draw("gamma", *args, **kwargs)

    def _check(self, logits: np.ndarray, scores: np.ndarray) -> None:
        """Each lockstep window of this draw's iteration holds the oracle's
        logits at its grid indices, bit for bit, and every oracle score
        outside it lies more than 0.6 below the oracle's chosen score."""
        if self.lockstep is None:
            return
        windows = self.lockstep.windows[self.checked]
        self.checked += 1
        assert sorted(windows) == list(range(logits.shape[0]))
        for row, (lo, hi, digest) in windows.items():
            assert digest == _digest(logits[row, lo:hi])
            outside = np.concatenate([scores[row, :lo], scores[row, hi:]])
            assert (outside < scores[row].max() - 0.6).all()


def _as_uniform_fill(call: tuple) -> tuple:
    """An oracle ``gumbel(size=S)`` call as the ``random(out=...)`` of shape S
    that consumes the same doubles; other calls unchanged."""
    method, args, kwargs, state = call
    if method != "gumbel":
        return call
    assert not args and [k for k, _ in kwargs] == ["size"]
    return "random", (), [("out", kwargs[0][1])], state


def _probe_logits(monkeypatch, recorders: list[_RecordingGenerator]) -> None:
    """Log each row's window and its logits into its chain's recorder.

    The certified Gumbel-max step receives the windows' logits and
    uniforms, one row's segment after another; each segment's chain, row
    and first grid index are found by its uniforms, a slice of the block
    that only its own recorder drew.
    """
    certified = bayesian._gumbel_argmax

    def probe(logits, uniforms, scores, sizes):
        owners = [r for r in recorders if r.uniforms is not None]
        pool = np.concatenate([r.uniforms.ravel() for r in owners])
        order = np.argsort(pool)
        bases = np.cumsum([0] + [r.uniforms.size for r in owners])
        cuts = np.cumsum(sizes)[:-1]
        firsts = order[np.searchsorted(pool, uniforms[np.r_[0, cuts]], sorter=order)]
        for window, u, at in zip(np.split(logits, cuts), np.split(uniforms, cuts), firsts):
            k = np.searchsorted(bases, at, "right") - 1
            owner = owners[k]
            row, lo = divmod(int(at - bases[k]), owner.uniforms.shape[1])
            assert np.array_equal(owner.uniforms[row, lo : lo + u.size], u)
            assert row not in owner.windows[-1]
            owner.windows[-1][row] = (lo, lo + u.size, _digest(window))
        return certified(logits, uniforms, scores, sizes)

    monkeypatch.setattr(bayesian, "_gumbel_argmax", probe)


def _assert_equals_oracle(xs, priors, ocs, rngs, fresh_rngs, got, config=FAST) -> list:
    """Each lockstep result equals the serial oracle's, field for field, and
    each generator ends where the oracle's does; returns the oracle's
    generators."""
    assert len(got) == len(xs)
    serial_rngs = []
    for k, (x, prior, oc, rng, lockstep) in enumerate(zip(xs, priors, ocs, rngs, got)):
        serial_rngs.append(fresh_rngs(k))
        serial = gibbs_oracle.sample_projection_vector(x, prior, oc, serial_rngs[-1], config)
        for name in FIELDS:
            a, b = getattr(serial, name), getattr(lockstep, name)
            assert np.array_equal(a, b), (prior.wordlength, k, name, a, b)
            assert np.asarray(a).dtype == np.asarray(b).dtype
        assert rng.bit_generator.state == serial_rngs[-1].bit_generator.state, k
    return serial_rngs


def _stream(calls: list[tuple]) -> list[tuple]:
    """``(method, state after)`` per draw: a Gumbel draw named as the uniform
    fill it equals, and a fill's refills merged into it."""
    stream: list[tuple] = []
    for method, _, _, state in calls:
        method = "random" if method == "gumbel" else method
        if stream and method == stream[-1][0] == "random":
            stream.pop()
        stream.append((method, state))
    return stream


class TestLockstep:
    def test_chains_match_the_serial_oracle_bit_for_bit(self, monkeypatch):
        xs, priors, ocs = _lockstep_case()
        rngs = [_RecordingGenerator(100 + c) for c in range(len(xs))]
        _probe_logits(monkeypatch, rngs)
        got = sample_projection_vectors(xs, priors, ocs, rngs, FAST)
        serial_rngs = _assert_equals_oracle(
            xs, priors, ocs, rngs, lambda c: _RecordingGenerator(100 + c, rngs[c]), got
        )
        for prior, rng, serial_rng in zip(priors, rngs, serial_rngs):
            # The same stream: the same draws in the same order, with
            # bit-equal arguments, each Gumbel draw matched by a uniform
            # fill of its shape, and an equal generator state after each.
            assert rng.calls == [_as_uniform_fill(c) for c in serial_rng.calls], prior.wordlength
            # Every Gumbel draw met the oracle's pre-Gumbel logits bit for bit
            # in each row's window, and only entries that cannot win lay
            # outside it (checked as the oracle drew).
            n_gumbel = sum(call[0] == "gumbel" for call in serial_rng.calls)
            assert len(rng.windows) == serial_rng.checked == n_gumbel > 0
            if prior.wordlength == 9:
                assert any(hi - lo < prior.n_values for fill in rng.windows
                           for lo, hi, _ in fill.values())
        assert [c[0] for c in rngs[0].calls[:3]] == ["normal", "random", "gamma"]
        # The fixture must exercise distinct results, not nine copies of one.
        assert len({s.score for s in got}) > 3

    def test_single_chain_call_is_the_lockstep_call(self):
        xs, priors, ocs = _lockstep_case()
        alone = sample_projection_vector(xs[2], priors[2], ocs[2], np.random.default_rng(1), FAST)
        [stepped] = sample_projection_vectors(
            xs[2:3], priors[2:3], ocs[2:3], [np.random.default_rng(1)], FAST
        )
        for name in FIELDS:
            assert np.array_equal(getattr(alone, name), getattr(stepped, name))

    def test_seconds_split_the_call_by_prior_group(self):
        xs, priors, ocs = _lockstep_case()
        got = sample_projection_vectors(
            xs, priors, ocs, [np.random.default_rng(s) for s in range(len(xs))], FAST
        )
        # One record per draw; chains of one prior share one share.
        for wl in (3, 5, 9):
            shares = {s.seconds for s in got if s.wordlength == wl}
            assert len(shares) == 1 and shares.pop() > 0

    def test_no_chains_draw_nothing(self):
        assert sample_projection_vectors([], [], [], [], FAST) == []

    def test_one_input_per_chain_required(self):
        xs, priors, ocs = _lockstep_case()
        with pytest.raises(OptimizationError):
            sample_projection_vectors(xs, priors[:-1], ocs, [np.random.default_rng(0)] * 9, FAST)

    def test_residual_shapes_must_agree(self):
        xs, priors, ocs = _lockstep_case()
        xs[4] = xs[4][:, :-1]
        with pytest.raises(OptimizationError):
            sample_projection_vectors(
                xs, priors, ocs, [np.random.default_rng(s) for s in range(9)], FAST
            )


def _windows_against_oracle(
    monkeypatch, xs, priors, ocs, config=FAST, generator=_RecordingGenerator
):
    """Run the lockstep sampler under the window probe and check every chain
    against the serial oracle: results, generator states, the draw stream,
    the window logits and the scores outside the windows.  Returns each
    chain's lockstep recorder."""
    rngs = [generator(400 + c) for c in range(len(xs))]
    _probe_logits(monkeypatch, rngs)
    got = sample_projection_vectors(xs, priors, ocs, rngs, config)
    serial_rngs = _assert_equals_oracle(
        xs, priors, ocs, rngs, lambda c: generator(400 + c, rngs[c]), got, config
    )
    for rng, serial_rng in zip(rngs, serial_rngs):
        assert rng.calls == [_as_uniform_fill(c) for c in serial_rng.calls]
        assert serial_rng.checked == len(rng.windows) == config.burn_in + config.n_samples
    return rngs


def _spans(rng: _RecordingGenerator, row: int) -> list[tuple[int, int]]:
    """One row's window ``[lo, hi)`` per iteration."""
    return [fill[row][:2] for fill in rng.windows]


class _SilencedFactors(_RecordingGenerator):
    """Draws as seeded, but every factor noise draw reads as zeros."""

    def normal(self, *args, **kwargs):
        return 0.0 * super().normal(*args, **kwargs)


class TestWindows:
    """Rows at the limits of the windowed Gumbel-max, each against the oracle.

    Each chain must equal the serial oracle in results, generator states and
    draw stream; its window logits must equal the oracle's bit for bit, and
    no oracle score outside a window may come within 0.6 of the winner.
    """

    def test_means_far_outside_the_grid_reach_in_from_each_end(self, monkeypatch):
        """Five rows at 1.5 z saturate the grid, so row 0 at +3 z (or -3 z)
        has its conditional mean near +1.7 (or -1.7), beyond the grid's
        end; its window then holds only points next to that end."""
        rng = np.random.default_rng(11)
        z = rng.normal(size=100)
        noise = 0.02 * rng.normal(size=(6, 100))
        signs = (1.0, -1.0, 1.0, -1.0)
        xs = [np.outer([3.0 * s, 1.5, 1.5, 1.5, 1.5, 1.5], z) + noise for s in signs]
        priors = [_lockstep_prior(wl) for wl in (3, 3, 9, 9)]
        ocs = [prior.variances * 2.0 ** (-2 * (9 + prior.wordlength)) for prior in priors]
        runs = _windows_against_oracle(monkeypatch, xs, priors, ocs)
        for rng, prior, sign in zip(runs, priors, signs):
            g = prior.n_values
            for lo, hi in _spans(rng, 0):
                assert (0 < lo and hi == g) if sign > 0 else (lo == 0 and hi < g)

    def test_zero_precision_runs_full_width(self, monkeypatch):
        """A zero residual with silenced factor noise makes every factor 0,
        so ``sff = 0``: ``hp = 0`` and ``mu = 0`` on every row."""
        xs = [np.zeros((6, 20))] * 2
        priors = [_lockstep_prior(wl) for wl in (3, 9)]
        ocs = [np.zeros(prior.n_values) for prior in priors]
        runs = _windows_against_oracle(monkeypatch, xs, priors, ocs, generator=_SilencedFactors)
        for rng, prior in zip(runs, priors):
            for row in range(6):
                assert set(_spans(rng, row)) == {(0, prior.n_values)}

    def test_huge_precision_leaves_one_to_three_entries(self, monkeypatch):
        """A rank-one residual whose coefficients lie on the wl-3 grid, with
        1e-6 noise and a tiny noise-prior scale, drives ``hp`` past 1e3 at
        wl 3 and 6e6 at wl 9 after burn-in.  Every window then holds 1 to 3
        grid points."""
        rng = np.random.default_rng(11)
        x = np.outer([0.875, -0.875, 0.5, 0.25, -0.25, 0.125], rng.normal(size=20))
        x += 1e-6 * rng.normal(size=x.shape)
        priors = [_lockstep_prior(wl) for wl in (3, 9)]
        ocs = [prior.variances * 2.0 ** (-2 * (9 + prior.wordlength)) for prior in priors]
        config = dataclasses.replace(FAST, b0_scale=1e-9)
        runs = _windows_against_oracle(monkeypatch, [x, x], priors, ocs, config)
        for rng in runs:
            for row in range(6):
                spans = _spans(rng, row)[config.burn_in :]
                assert all(1 <= hi - lo <= 3 for lo, hi in spans)

    def test_zero_mass_anchor_runs_full_width(self, monkeypatch):
        """A row's first anchor is its starting coefficient.  With no prior
        mass there its logit ``L`` is -inf, so the first sweep runs every row
        full width; later anchors are drawn, hence of positive mass."""
        xs, priors, ocs = _lockstep_case()
        xs, priors, ocs = xs[:3], priors[:3], ocs[:3]
        for c, (x, prior, oc) in enumerate(zip(xs, priors, ocs)):
            start = bayesian._Chain(x, prior, oc, np.random.default_rng(0)).start(FAST)[0]
            mass = prior.mass.copy()
            mass[start] = 0.0
            priors[c] = dataclasses.replace(prior, mass=mass / mass.sum())
        runs = _windows_against_oracle(monkeypatch, xs, priors, ocs)
        for rng, prior in zip(runs, priors):
            for row in range(6):
                assert _spans(rng, row)[0] == (0, prior.n_values)
            if prior.wordlength == 9:
                assert any(hi - lo < prior.n_values for lo, hi in _spans(rng, 0)[1:])

    def test_wide_fixture_of_thirty_five_chains(self, monkeypatch):
        """Word-lengths 3 to 9 on five residuals (35 chains, as in Algorithm
        1's later dimensions) over 100 sweeps, under a harsh prior."""
        priors = {
            wl: CoefficientPrior.from_error_model(make_synthetic_error_model(wl), 350.0, 4.0)
            for wl in range(3, 10)
        }
        residuals = [_rank1_data(n=20, seed=20 + s, noise=0.02 + 0.05 * s)[0] for s in range(5)]
        chains = [(x, wl) for x in residuals for wl in priors]
        xs = [x for x, _ in chains]
        ocs = [priors[wl].variances * 2.0 ** (-2 * (9 + wl)) for _, wl in chains]
        config = GibbsConfig(burn_in=20, n_samples=80, thin=5)
        runs = _windows_against_oracle(
            monkeypatch, xs, [priors[wl] for _, wl in chains], ocs, config
        )
        assert len(runs) == 35


#: PCG64's 128-bit LCG multiplier: the state steps ``s <- s * MULT + inc``.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _zero_double_generator(hi: int, draws_before: int) -> np.random.Generator:
    """A PCG64 generator whose double after ``draws_before`` 64-bit draws is 0.0.

    PCG64 steps its state, then outputs XSL-RR ``rotr64(hi ^ lo, hi >> 58)``
    of the new state's halves, which is 0 when the halves agree; its
    double is the output's top 53 bits times 2**-53.  So the state
    ``hi:hi`` is stepped back ``draws_before + 1`` times through the
    inverted LCG step ``s <- (s - inc) / MULT``.
    """
    bitgen = np.random.PCG64(0)
    state = bitgen.state
    inc = state["state"]["inc"]
    s = (hi << 64) | hi
    inverse = pow(_PCG64_MULT, -1, 1 << 128)
    for _ in range(draws_before + 1):
        s = ((s - inc) * inverse) % (1 << 128)
    state["state"]["state"] = s
    bitgen.state = state
    return np.random.Generator(bitgen)


def _zero_inside_first_gumbel(n: int, offset: int, hi0: int) -> int:
    """The first ``hi >= hi0`` whose generator's ``normal(size=n)`` reads one
    64-bit draw per value, so its first Gumbel block's uniform ``offset``
    is the zero."""
    for hi in range(hi0, hi0 + 100):
        rng = _zero_double_generator(hi, n + offset)
        step = copy.deepcopy(rng.bit_generator)
        step.advance(n)
        rng.normal(size=n)
        if rng.bit_generator.state == step.state:
            rng.random(offset)
            assert rng.random() == 0.0
            return hi
    raise AssertionError("no state found")  # pragma: no cover


class TestCertifiedGumbel:
    """The certified Gumbel-max step's two rare branches and its bound."""

    def test_fill_skips_a_zero_double_as_gumbel_does(self):
        rng = _zero_double_generator(hi=12345, draws_before=0)
        reference = _zero_double_generator(hi=12345, draws_before=0)
        assert _zero_double_generator(12345, 0).random() == 0.0
        uniforms = np.empty((1, 2, 3))
        bayesian._fill_uniforms([rng], uniforms)
        assert uniforms.all()
        gumbel = reference.gumbel(size=(2, 3))
        assert [-math.log(-math.log(1.0 - u)) for u in uniforms.ravel()] == gumbel.ravel().tolist()
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_chain_meeting_a_zero_double_equals_the_oracle(self, where):
        """``rng.gumbel`` skips a double of exactly 0.0; so does the fill.

        Chain 0 (wl 3) and chain 2 (wl 9) meet a zero in their first Gumbel
        block, at its first or its last uniform; the rest draw as seeded.
        A zero chain's stream equals the oracle's draw by draw, with one
        refill call beside the oracle's Gumbel draw.
        """
        xs, priors, ocs = _lockstep_case()
        p, n = xs[0].shape
        crafted = {}
        for c in (0, 2):
            offset = 0 if where == "first" else p * priors[c].n_values - 1
            crafted[c] = (_zero_inside_first_gumbel(n, offset, hi0=1 + 1000 * c), n + offset)

        def fresh(c):
            if c in crafted:
                return _RecordingGenerator(_zero_double_generator(*crafted[c]))
            return np.random.default_rng(200 + c)

        rngs = [fresh(c) for c in range(len(xs))]
        got = sample_projection_vectors(xs, priors, ocs, rngs, FAST)
        serial_rngs = _assert_equals_oracle(xs, priors, ocs, rngs, fresh, got)
        for c in crafted:
            assert len(rngs[c].calls) == len(serial_rngs[c].calls) + 1
            assert _stream(rngs[c].calls) == _stream(serial_rngs[c].calls), c

    def test_every_row_rescored_with_libm_still_equals_the_oracle(self, monkeypatch):
        """With an infinite margin every row takes the ``math.log`` rescoring
        over all its entries, including a chain whose prior puts no mass on
        the negative coefficients (their logits are -inf)."""
        xs, priors, ocs = _lockstep_case()
        wl5 = priors[1]
        mass = np.where(wl5.values < 0, 0.0, wl5.mass)
        xs.append(xs[2])
        priors.append(dataclasses.replace(wl5, mass=mass / mass.sum()))
        ocs.append(ocs[1])
        assert np.isneginf(priors[-1].log_mass()).any()
        config = GibbsConfig(burn_in=10, n_samples=30, thin=6)

        class CountingMath:
            logs = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def log(self, x):
                CountingMath.logs += 1
                return math.log(x)

        monkeypatch.setattr(bayesian, "_TAU", math.inf)
        monkeypatch.setattr(bayesian, "math", CountingMath())
        rngs = [np.random.default_rng(300 + c) for c in range(len(xs))]
        got = sample_projection_vectors(xs, priors, ocs, rngs, config)
        entries = sum(x.shape[0] * prior.n_values for x, prior in zip(xs, priors))
        iterations = config.burn_in + config.n_samples
        assert CountingMath.logs == 2 * iterations * entries
        monkeypatch.undo()
        _assert_equals_oracle(
            xs, priors, ocs, rngs, lambda c: np.random.default_rng(300 + c), got, config
        )

    def test_numpy_gumbels_lie_far_inside_the_margin(self):
        """Over 10**6 uniforms and the extremes 2**-53, 0.5 and 1 - 2**-53,
        NumPy's SIMD-log Gumbel stays far closer to libm's than ``_TAU``."""
        extremes = [2.0**-53, 0.5, 1.0 - 2.0**-53]
        uniforms = np.concatenate([np.random.default_rng(5).random(10**6), extremes])
        libm = np.concatenate([
            np.random.default_rng(5).gumbel(size=10**6),
            [-math.log(-math.log(1.0 - u)) for u in extremes],
        ])
        numpy_gumbel = -np.log(-np.log(1.0 - uniforms))
        assert np.isfinite(numpy_gumbel).all()
        assert np.abs(numpy_gumbel - libm).max() < bayesian._TAU * 1e-3

    def test_a_libm_tie_resolves_to_the_first_maximum(self):
        """Two entries whose libm scores tie exactly: ``np.argmax`` over the
        oracle's scores takes the first, and so must the certified step.
        Where the host's SIMD log reads a Gumbel below libm's, the first
        entry takes such a uniform, so the SIMD scores alone would pick the
        second."""
        uniforms = np.random.default_rng(8).random(10**5)
        libm = np.random.default_rng(8).gumbel(size=10**5)
        simd = -np.log(-np.log(1.0 - uniforms))
        below = np.flatnonzero(simd < libm)
        a = below[0] if below.size else 0
        b = next(
            k for k in range(1, 10**5)
            if simd[k] == libm[k] and (libm[a] - libm[k]) + libm[k] == libm[a]
        )
        logits = np.array([[[0.0, libm[a] - libm[b], -5.0]]])
        row = np.array([[[uniforms[a], uniforms[b], 0.5]]])
        oracle = logits + np.array([libm[a], libm[b], -math.log(-math.log(0.5))])
        assert oracle[0, 0, 0] == oracle[0, 0, 1] > oracle[0, 0, 2]
        got = bayesian._gumbel_argmax(logits, row, np.empty_like(logits))
        assert got.tolist() == [[0]] == oracle.argmax(axis=2).tolist()

