"""Adaptive Gauss-Legendre quadrature against closed forms and scipy."""

import math

import numpy as np
import pytest
from scipy import integrate

from spinwitness.quadrature import (
    QuadratureError,
    adaptive_quadrature,
    adaptive_quadrature_rows,
)


def test_polynomial_is_exact():
    # degree 8 is inside the 10-point rule's exactness range
    value = adaptive_quadrature(lambda x: x ** 8, 0.0, 2.0)
    assert abs(value - 2.0 ** 9 / 9.0) < 1e-12


def test_matches_scipy_on_smooth_integrand():
    f = lambda x: np.exp(np.sin(3.0 * x))
    mine = adaptive_quadrature(f, 0.0, 5.0, abs_tol=1e-12)
    ref, _ = integrate.quad(lambda x: math.exp(math.sin(3.0 * x)), 0.0, 5.0,
                            epsabs=1e-13, epsrel=1e-13)
    assert abs(mine - ref) < 1e-11


def test_kink_with_presplit():
    value = adaptive_quadrature(lambda x: np.abs(np.cos(x)), 0.0, math.pi,
                                seeds=(math.pi / 2,))
    assert abs(value - 2.0) < 1e-12


def test_kink_without_presplit_still_converges():
    value = adaptive_quadrature(lambda x: np.abs(np.cos(x)), 0.0, math.pi)
    assert abs(value - 2.0) < 1e-10


def test_empty_and_reversed_intervals():
    assert adaptive_quadrature(np.sin, 1.3, 1.3) == 0.0
    forward = adaptive_quadrature(np.sin, 0.0, 2.0)
    backward = adaptive_quadrature(np.sin, 2.0, 0.0)
    assert abs(forward + backward) < 1e-14


def test_deterministic():
    f = lambda x: np.exp(np.sin(3.0 * x))
    assert adaptive_quadrature(f, 0.0, 5.0) == adaptive_quadrature(f, 0.0, 5.0)


def test_budget_exhaustion_raises():
    # integrable singularity: each bisection only halves the estimate
    f = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.sqrt(2.0)) + 1e-300)
    with pytest.raises(QuadratureError, match="panels"):
        adaptive_quadrature(f, 0.0, 1.0, abs_tol=1e-12, max_panels=64)


def test_wild_oscillation_raises_rather_than_lying():
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda x: np.sin(1.0 / (x + 1e-12)), 0.0, 1.0,
                            abs_tol=1e-12, max_panels=128)


def test_split_points_outside_interval_are_ignored():
    plain = adaptive_quadrature(np.cos, 0.0, 1.0)
    split = adaptive_quadrature(np.cos, 0.0, 1.0, seeds=(-5.0, 0.0, 1.0, 7.0))
    assert split == plain


def test_split_reassembles_the_full_integral():
    value = adaptive_quadrature(np.sin, 0.0, math.pi, seeds=(1.1, 2.2))
    assert abs(value - 2.0) < 1e-12


def _rows_of(funcs):
    """A parametric integrand whose row i is ``funcs[i]``."""
    def f(rows, x):
        out = np.empty_like(x)
        for r in np.unique(rows):
            out[rows == r] = funcs[r](x[rows == r])
        return out
    return f


ROW_FUNCS = [np.cos, lambda x: np.exp(np.sin(3.0 * x)), lambda x: np.abs(np.cos(x))]


def test_rows_match_the_scalar_routine():
    values, failures = adaptive_quadrature_rows(_rows_of(ROW_FUNCS), 3, 0.0, 5.0,
                                                abs_tol=1e-12)
    assert failures == {}
    for value, f in zip(values, ROW_FUNCS):
        assert abs(value - adaptive_quadrature(f, 0.0, 5.0, abs_tol=1e-12)) < 2e-12


def test_rows_fail_alone_and_do_not_see_each_other():
    singular = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.sqrt(2.0)) + 1e-300)
    funcs = [ROW_FUNCS[1], singular, ROW_FUNCS[2]]
    values, failures = adaptive_quadrature_rows(_rows_of(funcs), 3, 0.0, 1.0, max_panels=64)
    assert set(failures) == {1} and "64 panels" in failures[1]
    assert math.isnan(values[1])
    for i in (0, 2):
        solo, _ = adaptive_quadrature_rows(_rows_of([funcs[i]]), 1, 0.0, 1.0, max_panels=64)
        assert values[i] == solo[0]


def test_rows_stop_at_floating_point_resolution():
    # a jump is never resolved; its panel halves down to one ulp
    step = lambda x: np.where(x < 0.3, 0.0, 1.0)
    values, failures = adaptive_quadrature_rows(_rows_of([step]), 1, 0.0, 1.0)
    assert math.isnan(values[0]) and "floating-point resolution" in failures[0]


def test_rows_empty_and_reversed_intervals():
    f = _rows_of([np.sin, np.cos])
    assert adaptive_quadrature_rows(f, 2, 1.3, 1.3)[0].tolist() == [0.0, 0.0]
    forward, _ = adaptive_quadrature_rows(f, 2, 0.0, 2.0)
    backward, _ = adaptive_quadrature_rows(f, 2, 2.0, 0.0)
    assert np.max(np.abs(forward + backward)) < 1e-14


@pytest.mark.parametrize("seeds", [(), (0.7,), (2.5, 0.7, 0.7, 9.0, -1.0), (1.0, 1.0 + 1e-17)])
@pytest.mark.parametrize("a,b", [(0.0, 5.0), (5.0, 0.0)])
def test_scalar_driver_is_a_one_row_rows_call(seeds, a, b):
    # one acceptance rule, two drivers: the same bits, seeded or not, either direction
    for f in ROW_FUNCS:
        row = np.array([seeds], dtype=float).reshape(1, -1)
        values, failures = adaptive_quadrature_rows(_rows_of([f]), 1, a, b, abs_tol=1e-12,
                                                    seeds=row)
        assert failures == {}
        assert adaptive_quadrature(f, a, b, abs_tol=1e-12, seeds=seeds) == values[0]


def test_rows_take_their_own_nan_padded_seeds():
    seeds = np.array([[0.7, np.nan, np.nan], [np.nan, 4.0, 1.5], [1.5, 1.5, np.nan]])
    values, failures = adaptive_quadrature_rows(_rows_of(ROW_FUNCS), 3, 0.0, 5.0,
                                                abs_tol=1e-12, seeds=seeds)
    assert failures == {}
    for i, f in enumerate(ROW_FUNCS):
        own = tuple(x for x in seeds[i] if not math.isnan(x))
        assert values[i] == adaptive_quadrature(f, 0.0, 5.0, abs_tol=1e-12, seeds=own)
    with pytest.raises(ValueError, match="shape"):
        adaptive_quadrature_rows(_rows_of(ROW_FUNCS), 3, 0.0, 5.0, seeds=np.zeros(3))


def test_seeds_find_a_step_hidden_at_a_panel_edge():
    # The step sits at x = 1, the edge of [1, 3]: both rules' nodes lie on
    # the flat part, agree, and accept a value that misses ln(2)/1e4.
    f = lambda x: np.tanh((x - 1.0) * 1e4)
    exact = 2.0 - math.log(2.0) * 1e-4  # (1/s) ln cosh(2s), s = 1e4
    assert abs(adaptive_quadrature(f, 1.0, 3.0) - exact) > 6e-5
    seeded = adaptive_quadrature(f, 1.0, 3.0, seeds=(1.0 + 1e-4, 1.0 + 4e-4, 1.0 + 16e-4))
    assert abs(seeded - exact) < 1e-10
