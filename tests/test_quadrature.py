"""Adaptive Gauss-Legendre quadrature against closed forms and scipy."""

import math

import numpy as np
import pytest
from scipy import integrate

from spinwitness import quadrature
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


def test_budget_exhaustion_raises(monkeypatch):
    # integrable singularity: each bisection only halves the estimate
    f = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.sqrt(2.0)) + 1e-300)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    with pytest.raises(QuadratureError, match="panels"):
        adaptive_quadrature(f, 0.0, 1.0, abs_tol=1e-12)


def test_wild_oscillation_raises_rather_than_lying(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 128)
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda x: np.sin(1.0 / (x + 1e-12)), 0.0, 1.0, abs_tol=1e-12)


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


def test_rows_fail_alone_and_do_not_see_each_other(monkeypatch):
    singular = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.sqrt(2.0)) + 1e-300)
    funcs = [ROW_FUNCS[1], singular, ROW_FUNCS[2]]
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    values, failures = adaptive_quadrature_rows(_rows_of(funcs), 3, 0.0, 1.0)
    assert set(failures) == {1} and "64 panels" in failures[1]
    assert math.isnan(values[1])
    for i in (0, 2):
        solo, _ = adaptive_quadrature_rows(_rows_of([funcs[i]]), 1, 0.0, 1.0)
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


@pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
def test_non_finite_bounds_are_rejected_up_front(end):
    # A NaN end once gave zero rows with no failure, and the scalar routine
    # refined to its panel budget before it raised QuadratureError.
    f = _rows_of([np.cos])
    for a, b in ((0.0, end), (end, 1.0), (end, end)):
        with pytest.raises(ValueError, match="bounds must be finite"):
            adaptive_quadrature(np.cos, a, b)
        with pytest.raises(ValueError, match="bounds must be finite"):
            adaptive_quadrature_rows(f, 1, a, b)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-10, math.inf, np.array([1e-10, math.nan]),
                                 np.array([1e-10, 0.0]), np.array([-1e-10, 1e-10]),
                                 np.array([1e-10]), np.array([[1e-10, 1e-10]])])
def test_tolerances_must_be_finite_and_positive(bad):
    # such a tolerance is never met: every point once ran to the panel budget
    # and then reported a numerical failure
    for a, b in ((0.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match="abs_tol"):
            adaptive_quadrature_rows(_rows_of([np.cos, np.sin]), 2, a, b, abs_tol=bad)
        if np.ndim(bad) == 0:
            with pytest.raises(ValueError, match="abs_tol"):
                adaptive_quadrature(np.cos, a, b, abs_tol=bad)


def test_rows_take_their_own_tolerance_in_every_block():
    # 300 rows span three blocks; each row equals its one-row call at its own tolerance
    rng = np.random.default_rng(5)
    scale = rng.uniform(0.5, 8.0, 300)
    tols = 10.0 ** rng.uniform(-13.0, -4.0, 300)
    f = lambda rows, x: np.exp(np.sin(scale[rows, None] * x))
    values, failures = adaptive_quadrature_rows(f, 300, 0.0, 5.0, abs_tol=tols)
    assert failures == {}
    for i in range(300):
        alone, _ = adaptive_quadrature_rows(lambda rows, x: np.exp(np.sin(scale[i] * x)),
                                            1, 0.0, 5.0, abs_tol=float(tols[i]))
        assert values[i] == alone[0]
    shared, _ = adaptive_quadrature_rows(f, 300, 0.0, 5.0, abs_tol=1e-13)
    assert np.count_nonzero(shared != values) > 150  # the tolerances do matter


def test_failed_rows_name_their_own_tolerance(monkeypatch):
    singular = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.sqrt(2.0)) + 1e-300)
    step = lambda x: np.where(x < 0.3, 0.0, 1.0)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
    values, failures = adaptive_quadrature_rows(_rows_of([singular, np.cos, step]), 3, 0.0, 1.0,
                                                abs_tol=np.array([3e-12, 1e-3, 2e-9]))
    assert failures[0] == "quadrature did not reach abs_tol=3e-12 within 64 panels"
    assert set(failures) == {0, 2}
    assert failures[2].startswith("quadrature did not reach abs_tol=2e-09")
    assert np.isnan(values[[0, 2]]).all() and math.isfinite(values[1])


# Integrands that fail on [0, 5], each with the panel budget it runs under.
FAILING_FUNCS = [
    (lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.sqrt(2.0)) + 1e-300), 64),  # panel budget
    (lambda x: np.where(x < 0.7, np.cos(x), np.nan), 4096),  # NaN estimates are always split
]
# A jump at x = 0.3: halved down to floating-point resolution for most first
# panels, accepted where both rules' nodes fall on one side of it.
JUMP = lambda x: np.where(x < 0.3, 0.0, 1.0)


def _both_drivers(f, a, b, abs_tol=1e-12, max_panels=4096, seeds=()):
    """(rows driver, scalar driver) outcomes under the panel budget ``max_panels``: a value,
    or the failure message."""
    row = np.array([seeds], dtype=float).reshape(1, -1)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(quadrature, "MAX_PANELS", max_panels)
        values, failures = adaptive_quadrature_rows(_rows_of([f]), 1, a, b, abs_tol=abs_tol,
                                                    seeds=row)
        assert set(failures) <= {0} and math.isnan(values[0]) == bool(failures)
        try:
            scalar = adaptive_quadrature(f, a, b, abs_tol=abs_tol, seeds=seeds)
        except QuadratureError as exc:
            scalar = str(exc)
    return failures.get(0, values[0]), scalar


@pytest.mark.parametrize("seeds", [(), (0.7,), (2.5, 0.7, 0.7, 9.0, -1.0), (1.0, 1.0 + 1e-17),
                                   (math.nan, 0.7, math.nan), (math.nan,),
                                   (0.0, 5.0), (5.0, 2.5, 0.0, 2.5)])
@pytest.mark.parametrize("a,b", [(0.0, 5.0), (5.0, 0.0)])
def test_scalar_driver_is_a_one_row_rows_call(seeds, a, b):
    # one acceptance rule, two loops of rounds: the same bits, seeded or not,
    # either direction (NaN seeds and seeds at a or b cut nothing), and where
    # the row fails, the rows driver's message raised as QuadratureError
    for f in ROW_FUNCS:
        rows, scalar = _both_drivers(f, a, b, seeds=seeds)
        assert isinstance(rows, float) and scalar == rows
    for f, max_panels in FAILING_FUNCS:
        rows, scalar = _both_drivers(f, a, b, max_panels=max_panels, seeds=seeds)
        assert rows.endswith(f"within {max_panels} panels") and scalar == rows
    rows, scalar = _both_drivers(JUMP, a, b, seeds=seeds)
    assert scalar == rows
    if (a, b, seeds) == (0.0, 5.0, (0.7,)):
        assert "reached floating-point resolution" in rows
    # a list of floats is taken as given, other seeds through numpy: the same cut
    listed = [float(s) for s in seeds]
    assert adaptive_quadrature(ROW_FUNCS[2], a, b, abs_tol=1e-12, seeds=listed) == \
        adaptive_quadrature(ROW_FUNCS[2], a, b, abs_tol=1e-12, seeds=np.array(seeds))


@pytest.mark.parametrize("a,b", [(1.0, 1.0 + 1e-12), (1.0 + 1e-12, 1.0)])
@pytest.mark.parametrize("abs_tol", [1e-13, 1e-10, 100.0])
def test_scalar_driver_fails_at_floating_point_resolution_as_the_rows_driver(a, b, abs_tol):
    # a tiny interval whose every panel misses the tolerance: halved down to one ulp
    pole = a + (b - a) / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rows, scalar = _both_drivers(lambda x: 1.0 / (x - pole) ** 2, a, b, abs_tol=abs_tol)
    assert "reached floating-point resolution" in rows and scalar == rows


@pytest.mark.parametrize("max_panels", [1, 2, 3, 9, 40])
@pytest.mark.parametrize("f, b, seeds", [(ROW_FUNCS[1], 5.0, ()),
                                         (ROW_FUNCS[1], 5.0, (1.0, 2.0, 3.0, 4.0)),
                                         (np.cos, 0.5, (0.1, 0.2, 0.3))])
def test_scalar_driver_counts_panels_as_the_rows_driver(max_panels, f, b, seeds):
    # first panels plus one per split: a budget below the first panels fails
    # only once a panel is split, and then with the rows driver's message
    rows, scalar = _both_drivers(f, 0.0, b, max_panels=max_panels, seeds=seeds)
    assert scalar == rows


def test_a_jump_inside_a_panel_needs_a_seed_at_it():
    # The rule assumes a smooth integrand between seeds: unseeded, the first
    # panel's nodes all miss the jump and the two rules agree on 4.6875;
    # seeded at the jump, each side is smooth and the integral is 4.7.
    assert abs(adaptive_quadrature(JUMP, 0.0, 5.0, abs_tol=1e-12) - 4.6875) < 1e-12
    for a, b in ((0.0, 5.0), (5.0, 0.0)):
        rows, scalar = _both_drivers(JUMP, a, b, seeds=(0.3,))
        assert scalar == rows
        assert abs(scalar - math.copysign(4.7, b - a)) <= 1e-12


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
