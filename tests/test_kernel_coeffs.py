"""Coefficient families a_l, b_l, c_s and their lemma-level properties."""

import math

import numpy as np
import pytest

from fracheat import AlphaParam, a_coeff, b_coeff, bar_weights, c_weights


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
