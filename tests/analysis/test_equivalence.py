"""Generated multipliers compute exact integer products.

Every generator is evaluated with ``evaluate_ints`` and compared with
Python integer products over the input space it is characterised on:

* the 8x8 array, Wallace and Baugh-Wooley multipliers: all 256 ``a``
  at each pinned multiplicand ``m`` (the characterisation configuration,
  one operand fixed, the other swept);
* each 8-bit constant-coefficient multiplier (CCM): every ``x``, for
  all 256 coefficients;
* the 4x4 array and the 4x4 and 6x6 sign-magnitude multipliers: their
  full input spaces;
* the 8x8 MAC: every corner combination of its buses plus seeded random
  vectors;
* the 4x4 MAC at ``b = 9``: every ``a`` and ``acc``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netlist import (
    baugh_wooley_multiplier,
    ccm_multiplier,
    mac_block,
    sign_magnitude_multiplier,
    unsigned_array_multiplier,
    wallace_tree_multiplier,
)

#: Eight distinct multiplicands spanning the 8-bit range (zero, one,
#: low/high popcount, boundary values).
MULTIPLICANDS = [0, 1, 37, 93, 128, 170, 222, 255]

_A8 = np.arange(256, dtype=np.int64)
_A8_SIGNED = np.arange(-128, 128, dtype=np.int64)


def _grid(*axes: np.ndarray) -> list[np.ndarray]:
    """Every combination of the value axes, one flat array per axis."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _corners(lo: int, hi: int) -> np.ndarray:
    """Bus corner values: both ends, one step inside each, the middle."""
    return np.array(sorted({lo, lo + 1, (lo + hi) // 2, hi - 1, hi}), dtype=np.int64)


def _assert_products(multiplier, m: int, a: np.ndarray, signed: bool = False) -> None:
    got = multiplier.compile().evaluate_ints(
        signed_out=signed, a=a, b=np.full_like(a, m)
    )["p"]
    np.testing.assert_array_equal(got, a * m)


class TestExhaustiveAcceptance:
    @pytest.mark.parametrize("m", MULTIPLICANDS)
    def test_wallace_8x8(self, m):
        _assert_products(wallace_tree_multiplier(8, 8), m, _A8)

    @pytest.mark.parametrize("m", MULTIPLICANDS)
    def test_array_8x8(self, m):
        _assert_products(unsigned_array_multiplier(8, 8), m, _A8)

    @pytest.mark.parametrize("m", [-128, -93, -1, 0, 1, 37, 93, 127])
    def test_baugh_wooley_8x8(self, m):
        _assert_products(baugh_wooley_multiplier(8, 8), m, _A8_SIGNED, signed=True)

    @pytest.mark.parametrize("c", range(256))
    def test_ccm_8bit(self, c):
        got = ccm_multiplier(c, 8).compile().evaluate_ints(x=_A8)["p"]
        np.testing.assert_array_equal(got, c * _A8)

    def test_full_space_small_multiplier(self):
        a, b = _grid(np.arange(16), np.arange(16))
        got = unsigned_array_multiplier(4, 4).compile().evaluate_ints(a=a, b=b)["p"]
        np.testing.assert_array_equal(got, a * b)

    def test_sign_magnitude(self):
        for width in (4, 6):
            mags = np.arange(1 << width)
            a, b, sa, sb = _grid(mags, mags, np.arange(2), np.arange(2))
            out = sign_magnitude_multiplier(width, width).compile().evaluate_ints(
                a=a, b=b, sa=sa, sb=sb
            )
            np.testing.assert_array_equal(out["p"], a * b)
            np.testing.assert_array_equal(out["sp"], sa ^ sb)


class TestStratified:
    def test_mac_stratified(self):
        w_acc = 18  # 16 product bits + 2 guard bits
        highs = (255, (1 << w_acc) - 1, 255)  # buses a, acc, b
        rng = np.random.default_rng(3)
        a, acc, b = (
            np.concatenate([corners, rng.integers(0, hi + 1, 512, dtype=np.int64)])
            for corners, hi in zip(_grid(*(_corners(0, hi) for hi in highs)), highs)
        )
        out = mac_block(8, 8).compile().evaluate_ints(a=a, b=b, acc=acc)
        np.testing.assert_array_equal(out["p"], a * b)
        np.testing.assert_array_equal(out["acc_out"], (acc + a * b) % (1 << w_acc))

    def test_pinned_mac_exhaustive(self):
        w_acc = 10  # 8 product bits + 2 guard bits
        a, acc = _grid(np.arange(16), np.arange(1 << w_acc))
        out = mac_block(4, 4).compile().evaluate_ints(
            a=a, b=np.full_like(a, 9), acc=acc
        )
        np.testing.assert_array_equal(out["p"], a * 9)
        np.testing.assert_array_equal(out["acc_out"], (acc + a * 9) % (1 << w_acc))
