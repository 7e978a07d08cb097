"""The verdict of every lemma check: a NaN among the values it reads fails it."""

import numpy as np
import pytest

from fracheat import lemmas

# every check -> (a name in lemmas it reads, the flat index of the value made NaN)
POISONED = {
    "check_a_bounds": ("a_coeff", 7),
    "check_a_decrement_bounds": ("a_coeff", 7),
    "check_b_bounds": ("b_coeff", 7),
    "check_c_bounds": ("_coefficients", 5),  # a_5 of the (a, b) pair
    "check_c_chain": ("_coefficients", 5),
    "check_c_positivity_combo": ("c_weights", 1),
    "check_bar_weight_hypotheses": ("_coefficients", 5),
    "check_energy_inequality": ("energy_E", 1),
    "check_history_energy_inequality": ("energy_E", 0),
    "check_truncation_order": ("caputo_by_quadrature", 0),
    "check_norm_equivalence": ("apply_compact_H", 3),
}


def _nan_on_second_call(fn, index):
    """fn, except that its second result has a NaN at flat index `index`."""
    calls = []

    def poisoned(*args):
        out = fn(*args)
        calls.append(None)
        if len(calls) != 2:
            return out
        out = np.array(out, dtype=float)
        out.flat[index] = np.nan
        return out

    return poisoned


@pytest.mark.parametrize("check", [name for name in lemmas.__all__ if name.startswith("check_")])
def test_one_nan_value_fails_the_check(monkeypatch, check):
    # Python's min and max keep a NaN only as their first argument; a check
    # that reduced its margins through them would pass here
    target, index = POISONED[check]
    monkeypatch.setattr(lemmas, target, _nan_on_second_call(getattr(lemmas, target), index))
    result = getattr(lemmas, check)()
    assert result.passed is False, result
    assert "nan" in result.detail, result


def test_every_verdict_is_a_python_bool():
    assert [type(r.passed) for r in lemmas.run_all_checks()] == [bool] * len(POISONED)
