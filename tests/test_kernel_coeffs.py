"""Coefficient families a_l, b_l, c_s and their lemma-level properties."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fracheat import AlphaParam, a_coeff, b_coeff, bar_weights, c_weights
from fracheat import lemmas
from fracheat.kernel import _l2_levels
from fracheat.lemmas import (ALPHA_GRID, CheckResult, check_c_bounds, check_c_chain,
                             check_c_positivity_combo)


def test_alpha_param_rejects_boundary_values():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            AlphaParam(bad)


def test_alpha_param_gamma_recurrence():
    # Gamma(2-a) = (1-a) Gamma(1-a)
    for a in np.arange(0.05, 1.0, 0.05):
        p = AlphaParam(float(a))
        assert p.gamma_2ma == pytest.approx((1.0 - p.alpha) * p.gamma_1ma, rel=1e-14)


def test_a_coeff_values():
    alpha = AlphaParam(0.5)
    assert a_coeff(0, alpha) == 1.0
    assert a_coeff(1, alpha) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)


def test_a_coeff_in_bracket():
    alpha = AlphaParam(0.3)
    val = a_coeff(10, alpha)
    assert 0.7 / 11.0**0.3 < val < 0.7 / 10.0**0.3


def test_a_coeff_rejects_negative_index():
    with pytest.raises(ValueError):
        a_coeff(-1, AlphaParam(0.5))


@pytest.mark.parametrize("coeff", (a_coeff, b_coeff))
@pytest.mark.parametrize("l, named", [
    (math.nan, "l = nan"), (2.5, "l = 2.5"), (-1.0, "l = -1.0"), (math.inf, "l = inf"),
    (np.array([0.0, 1.0, 2.5, math.nan]), "l[2] = 2.5"), (np.array([[0.0, 1.0], [math.nan, 3.0]]), "l[1, 0] = nan"),
])
def test_coefficients_reject_an_index_that_is_not_a_nonnegative_integer(coeff, l, named):
    # a NaN index used to give nan and l = 2.5 a value between a_2 and a_3
    with pytest.raises(ValueError, match=re.escape(f"must be an integer >= 0, got {named}")):
        coeff(l, AlphaParam(0.5))


@pytest.mark.parametrize("coeff", (a_coeff, b_coeff))
def test_coefficients_take_integer_valued_floats(coeff):
    alpha = AlphaParam(0.3)
    ints = coeff(np.arange(50), alpha)
    assert coeff(np.arange(50, dtype=float), alpha).tobytes() == ints.tobytes()
    assert coeff(7.0, alpha) == coeff(7, alpha) == ints[7]


def test_b_coeff_values():
    alpha = AlphaParam(0.5)
    assert b_coeff(0, alpha) == pytest.approx(1.0 / 1.5 - 0.5, rel=1e-15)
    # bracket at l=1: (0.25/(12*2^1.5), 0.25/12)
    val = b_coeff(1, alpha)
    assert 0.25 / (12.0 * 2.0**1.5) < val < 0.25 / 12.0


def test_b_coeff_matches_textbook_form_where_it_is_accurate():
    # the rearranged evaluation must agree with the plain closed form at small
    # l, within the plain form's own rounding (~eps * l^(2-a))
    for a in (0.1, 0.5, 0.9):
        alpha = AlphaParam(a)
        for l in range(0, 50):
            plain = ((l + 1) ** (2 - a) - l ** (2 - a)) / (2 - a) - 0.5 * (
                (l + 1) ** (1 - a) + l ** (1 - a)
            )
            assert b_coeff(l, alpha) == pytest.approx(plain, abs=1e-13)


@pytest.mark.parametrize("a, bound", [(0.05, 4.7e-13), (0.1, 3.0e-13), (0.5, 3.6e-15), (0.9, 3.8e-17)])
def test_b_coeff_within_its_stated_error_of_40_digit_decimal(a, bound):
    # the absolute errors the b_coeff docstring states, with 10 % slack; alpha
    # enters the oracle as the exact value of its double
    ls = np.unique(np.round(np.logspace(0, 4, 41))).astype(int)
    got = b_coeff(ls, AlphaParam(a))
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(a)
        worst = 0.0
        for l, g in zip(ls.tolist(), got.tolist()):
            lo, hi = Decimal(l), Decimal(l + 1)
            exact = (hi ** (2 - d) - lo ** (2 - d)) / (2 - d) - (hi ** (1 - d) + lo ** (1 - d)) / 2
            worst = max(worst, float(abs(Decimal(g) - exact)))
    assert worst <= 1.1 * bound


def test_b_coeff_vanishes_monotonically_for_large_l():
    alpha = AlphaParam(0.9)
    vals = b_coeff(np.arange(1, 2000), alpha)
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] < 1e-6


def test_c_weights_rejects_level_zero():
    with pytest.raises(ValueError):
        c_weights(0, AlphaParam(0.5))


def test_c_weights_j1_closed_form():
    # c_0 = (2+a)/(2^a (2-a)), c_1 = (2-3a)/(2^a (2-a))
    for a in (0.1, 0.5, 0.9):
        alpha = AlphaParam(a)
        c = c_weights(1, alpha)
        denom = 2.0**a * (2.0 - a)
        assert c[0] == pytest.approx((2.0 + a) / denom, rel=1e-14)
        assert c[1] == pytest.approx((2.0 - 3.0 * a) / denom, rel=1e-13, abs=1e-15)
    c = c_weights(1, AlphaParam(0.5))
    assert c[0] == pytest.approx(1.1785113019775793, rel=1e-12)
    assert c[1] == pytest.approx(0.23570226039551587, rel=1e-12)


def test_c_weights_j2_term_by_term():
    for a in (0.2, 0.5, 0.8):
        alpha = AlphaParam(a)
        c = c_weights(2, alpha)
        av = [a_coeff(l, alpha) for l in range(3)]
        bv = [b_coeff(l, alpha) for l in range(3)]
        assert c[0] == pytest.approx(av[0] + bv[0], rel=1e-14)
        assert c[1] == pytest.approx(av[1] + bv[1] + bv[2] - bv[0], rel=1e-14)
        assert c[2] == pytest.approx(av[2] - bv[2] - bv[1], rel=1e-14)


def test_c_weights_j_large_term_by_term():
    alpha = AlphaParam(0.4)
    j = 7
    c = c_weights(j, alpha)
    av = [a_coeff(l, alpha) for l in range(j + 1)]
    bv = [b_coeff(l, alpha) for l in range(j + 1)]
    assert c[0] == pytest.approx(av[0] + bv[0], rel=1e-14)
    for s in range(1, j - 1):
        assert c[s] == pytest.approx(av[s] + bv[s] - bv[s - 1], rel=1e-13)
    assert c[j - 1] == pytest.approx(av[j - 1] + bv[j - 1] + bv[j] - bv[j - 2], rel=1e-13)
    assert c[j] == pytest.approx(av[j] - bv[j] - bv[j - 1], rel=1e-13)


def test_c_weights_monotone_chain():
    c = c_weights(5, AlphaParam(0.5))
    assert c[0] > c[2] > c[3] > c[4] > c[5]


def test_c_weights_sum_telescopes():
    # sum of the weights collapses to (j+1)^(1-a); this is what makes the
    # operator exact on u(t) = t
    for a in (0.25, 0.75):
        alpha = AlphaParam(a)
        for j in (1, 2, 3, 10, 47):
            c = c_weights(j, alpha)
            assert c.sum() == pytest.approx((j + 1) ** (1 - a), rel=1e-13)


def test_bar_weights_rejects_small_level():
    for j in (0, 1):
        with pytest.raises(ValueError):
            bar_weights(j, AlphaParam(0.5))


def test_bar_weights_collapse_at_j2():
    alpha = AlphaParam(0.35)
    c2 = c_weights(2, alpha)[2]
    assert np.allclose(bar_weights(2, alpha), [c2, c2, c2], rtol=1e-15)


def test_bar_weights_match_c_from_index_two():
    alpha = AlphaParam(0.5)
    c = c_weights(4, alpha)
    bc = bar_weights(4, alpha)
    assert bc[0] == bc[1] == c[2]
    assert np.array_equal(bc[2:], c[2:])


def test_bar_weights_nonincreasing():
    alpha = AlphaParam(0.5)
    bc = bar_weights(3, alpha)
    assert bc[0] == bc[1] >= bc[3]
    for j in (2, 5, 20, 200):
        bc = bar_weights(j, alpha)
        assert np.all(np.diff(bc) <= 1e-16)


def _true_coefficients(a, j_max):
    alpha = AlphaParam(a)
    idx = np.arange(j_max + 1)
    return a_coeff(idx, alpha), b_coeff(idx, alpha)


def _reference_c_checks(j_max, alphas=ALPHA_GRID, coefficients=_true_coefficients):
    """The three c-weight lemma checks built the plain way: the whole weight
    vector of every level 2 <= j <= j_max, one at a time."""
    bounds = chain = combo = np.inf
    for a in alphas:
        alpha = AlphaParam(a)
        av, bv = coefficients(a, j_max)
        c1 = c_weights(1, alpha)
        combo = min(combo, c1[0] + 3.0 * c1[1])
        levels = _l2_levels(av, bv)
        for j in range(2, j_max + 1):
            c = levels(j)
            lo = (11.0 / 16.0) * (1.0 - a) / (j + 1.0) ** a
            hi = (1.0 - a) / j**a
            bounds = min(bounds, c[j] - lo, hi - c[j])
            chain = min(chain, float(np.min(-np.diff(np.concatenate(([c[0]], c[2:]))))))
            combo = min(combo, c[0] + 3.0 * c[1] - 4.0 * c[2])
    return [
        CheckResult("c_j bounds", bounds > 0.0, f"worst margin {bounds:.3e}"),
        CheckResult("c monotone chain", chain > 0.0, f"worst step {chain:.3e}"),
        CheckResult("c_0+3c_1-4c_2 positivity", combo > 0.0, f"worst value {combo:.3e}"),
    ]


def _c_checks(j_max, alphas=ALPHA_GRID):
    return [check(alphas, j_max) for check in (check_c_bounds, check_c_chain, check_c_positivity_combo)]


@pytest.mark.parametrize("j_max", (2, 3, 4, 5, 6, 7, 10, 50, 1000))
def test_c_lemma_checks_match_the_level_by_level_reference(j_max):
    assert _c_checks(j_max) == _reference_c_checks(j_max)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("j_max", (4, 5, 10, 50))
def test_c_lemma_checks_match_the_reference_on_arbitrary_coefficients(monkeypatch, seed, j_max):
    # The checks share work between levels by algebra alone, so they must
    # agree with the reference on any coefficient tables.  On the true ones
    # (b_s > 0) the worst value always sits in the end weights; tables with
    # b_s of either sign also put it in a bulk step or at a level j >= 4 of
    # the combination.
    rng = np.random.default_rng(seed)
    tables = rng.standard_normal(j_max + 1), rng.standard_normal(j_max + 1)
    monkeypatch.setattr(lemmas, "_coefficients", lambda a, j: tables)
    alphas = (0.5,)
    assert _c_checks(j_max, alphas) == _reference_c_checks(j_max, alphas, lambda a, j: tables)
