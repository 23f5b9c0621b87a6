"""Infinite-chain integrals, the (kT, B) region, and the low-T ferromagnet."""

import functools
import json
import math
import re

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from spinwitness import quadrature, thermolimit
from spinwitness.model import SpecError
from spinwitness.thermolimit import (
    BoundaryCurve,
    RegionGrid,
    boundary_trace,
    critical_field_low_temperature,
    critical_field_zero_temperature,
    critical_temperature_zero_field,
    lowtemp_ferro_log_partition,
    lowtemp_ferro_witness,
    region_scan,
    xx_internal_energy,
    xx_log_partition_density,
    xx_magnetization,
    xx_witness,
    xx_witness_single_integral,
)
from spinwitness.witness import per_site_witness_report

# root of W(kT, 0) = 1; cross-checked with scipy.integrate.quad + brentq
KTC_ZERO_FIELD = 1.36683616383713
# closed form 2*sqrt(1 - pi^2/16)
BC_ZERO_TEMPERATURE = 1.237981784893324


def _quad(f):
    value, _ = integrate.quad(f, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value / math.pi


@pytest.mark.parametrize("kt,b", [(0.5, 0.0), (1.0, 0.8), (2.0, 1.5), (0.7, 2.5)])
def test_integrals_match_scipy(kt, b):
    k, c = 1.0 / kt, b / kt
    lnz_ref = _quad(lambda w: math.log(2.0 * math.cosh(2.0 * k * math.cos(w) - c)))
    u_ref = -kt * _quad(lambda w: (2.0 * k * math.cos(w) - c)
                        * math.tanh(2.0 * k * math.cos(w) - c))
    m_ref = _quad(lambda w: -math.tanh(2.0 * k * math.cos(w) - c))
    assert abs(xx_log_partition_density(k, c) - lnz_ref) < 1e-12
    assert abs(xx_internal_energy(kt, b, 1.0) - u_ref) < 1e-12
    assert abs(xx_magnetization(kt, b, 1.0) - m_ref) < 1e-12


def test_decoupled_spins_closed_forms():
    # J = 0 leaves independent spins in a field
    assert abs(xx_magnetization(1.0, 0.8, 0.0) - math.tanh(0.8)) < 1e-14
    assert abs(xx_internal_energy(1.0, 0.8, 0.0) + 0.8 * math.tanh(0.8)) < 1e-14
    assert abs(xx_log_partition_density(0.0, 0.0) - math.log(2.0)) < 1e-14


def test_zero_field_magnetization_is_exactly_zero():
    assert xx_magnetization(0.7, 0.0, 1.0) == 0.0


def test_sign_quadrants_are_bit_identical():
    for kt, b in ((0.4, 0.0), (1.3, 0.9)):
        w = xx_witness(kt, b, 1.0).value
        assert xx_witness(kt, b, -1.0).value == w
        assert xx_witness(kt, -b, 1.0).value == w
        assert xx_witness(kt, -b, -1.0).value == w
        assert xx_log_partition_density(1.0 / kt, b / kt) \
            == xx_log_partition_density(-1.0 / kt, -b / kt)


def test_magnetization_is_odd_in_the_field():
    assert xx_magnetization(0.9, 0.6, 1.0) == -xx_magnetization(0.9, -0.6, 1.0)


def test_two_witness_routes_agree():
    for kt, b in ((0.3, 0.0), (1.0, 0.8), (2.5, 1.6)):
        two = xx_witness(kt, b, 1.0).value
        one = xx_witness_single_integral(kt, b, 1.0)
        assert abs(two - one) < 1e-10


def test_as_printed_magnetization_is_the_documented_variant():
    """The literal printed integrand disagrees with the lnZ derivative."""
    canonical = xx_magnetization(1.0, 0.0, 1.0)
    printed = xx_magnetization(1.0, 0.0, 1.0, as_printed=True)
    assert canonical == 0.0
    assert abs(printed) > 0.5  # nonzero at B = 0: cannot be a magnetization
    # and it is even in B instead of odd
    assert abs(xx_magnetization(1.0, 0.7, 1.0, as_printed=True)
               - xx_magnetization(1.0, -0.7, 1.0, as_printed=True)) < 1e-9


def test_witness_approaches_the_zero_temperature_form():
    for b in (0.0, 0.5, 1.0):
        closed = (4.0 / math.pi) * math.sqrt(1.0 - (b / 2.0) ** 2)
        assert abs(xx_witness(1e-3, b, 1.0).value - closed) < 5e-4
    assert abs(xx_witness(1e-3, 0.0, 1.0).value - 4.0 / math.pi) < 1e-5


# kT = 1e-8 down to kT = 10, and B from 0 through the kink region to beyond 2|J|
LIMIT_GRID = [(kt, b) for kt in (1e-8, 1e-6, 1e-4, 1e-3, 0.05, 1.0, 10.0)
              for b in (0.0, kt, 10.0 * kt, 0.6, 1.2, 1.6, 1.99, 2.5)]


@pytest.mark.parametrize("kt,b", LIMIT_GRID)
def test_every_witness_route_matches_the_reference(kt, b):
    # Each route is within 1e-10 of mpmath or fails honestly. At kT = 1e-8
    # with B >= 0.6, 2K cos w - C cancels badly near the step and a cell
    # may fail; from kT = 1e-6 up nothing fails.
    reference = _reference_witness(kt, b)
    failed = set()
    for name, route in (("two-integral", lambda: xx_witness(kt, b, 1.0).value),
                        ("one-integral", lambda: xx_witness_single_integral(kt, b, 1.0))):
        try:
            assert abs(route() - reference) < 1e-10, name
        except quadrature.QuadratureError:
            failed.add(name)
    grid = region_scan(np.array([kt]), np.array([b]))
    if grid.cell_errors:
        assert math.isnan(grid.w[0, 0]) and not grid.entangled[0, 0]
        assert "one-integral" in failed  # the same rule fails the same way
    else:
        assert abs(grid.w[0, 0] - reference) < 1e-10
        assert grid.w[0, 0] == xx_witness_single_integral(kt, b, 1.0)  # the same bits
    if kt >= 1e-6:
        assert not failed and not grid.cell_errors


@pytest.mark.parametrize("kt", [1e-300, 1e-100, 1e-20])
def test_witness_at_vanishing_temperature_is_the_closed_form(kt):
    for b in (0.0, 0.3, 1.2, 1.9):
        closed = (4.0 / math.pi) * math.sqrt(1.0 - (b / 2.0) ** 2)
        assert abs(xx_witness(kt, b, 1.0).value - closed) < 1e-12


def test_endpoint_roots_are_roots_of_the_reference():
    # both endpoints solve the batched one-integral W; at kT = 1e-3 its
    # root must be a root of the mpmath W too, not just of the route's own
    bc = critical_field_low_temperature(kt_over_j=1e-3, residual_tol=1e-9)
    assert abs(_reference_witness(1e-3, bc) - 1.0) < 2e-9
    ktc = critical_temperature_zero_field(residual_tol=1e-9)
    assert abs(_reference_witness(ktc, 0.0) - 1.0) < 2e-9
    with pytest.raises(SpecError):
        critical_field_low_temperature(kt_over_j=-1e-3)


def test_critical_field_closed_form():
    assert critical_field_zero_temperature(1.0) == BC_ZERO_TEMPERATURE
    assert critical_field_zero_temperature(-2.0) == 2.0 * BC_ZERO_TEMPERATURE


def test_critical_temperature_zero_field():
    ktc = critical_temperature_zero_field(residual_tol=1e-9)
    assert abs(ktc - KTC_ZERO_FIELD) < 1e-6
    assert abs(xx_witness(ktc, 0.0, 1.0).value - 1.0) < 1e-9
    assert critical_temperature_zero_field(j=2.0, residual_tol=1e-9) == pytest.approx(
        2.0 * ktc, abs=1e-6)


def test_critical_field_at_low_temperature_nears_the_closed_form():
    bc = critical_field_low_temperature(kt_over_j=1e-3)
    assert abs(bc - BC_ZERO_TEMPERATURE) / BC_ZERO_TEMPERATURE < 2e-3


def test_boundary_trace():
    curve = boundary_trace(np.array([0.0, 0.4, 0.9, 1.3, 2.0]))
    assert [b for b, _ in curve.points] == [0.0, 0.4, 0.9]
    assert curve.no_crossing == (1.3, 2.0)  # beyond the critical field
    ktcs = [t for _, t in curve.points]
    assert all(a >= b for a, b in zip(ktcs, ktcs[1:]))  # kT_c falls with B
    assert abs(curve.zero_field_ktc - KTC_ZERO_FIELD) < 1e-5
    assert curve.zero_temperature_bc == BC_ZERO_TEMPERATURE


def test_boundary_trace_serialization():
    curve = boundary_trace(np.array([0.0, 1.3]))
    csv = curve.to_csv()
    lines = csv.splitlines()
    assert "B_over_J,kTc_over_J" in lines
    assert any(line.startswith("# no crossing: B_over_J = 1.3") for line in lines)
    header_at = lines.index("B_over_J,kTc_over_J")
    b, ktc = (float(x) for x in lines[header_at + 1].split(","))
    assert (b, ktc) == curve.points[0]
    payload = json.loads(curve.to_json())
    assert payload["kind"] == "boundary-curve"
    assert payload["no_crossing"] == [1.3]
    assert payload["metadata"]["zero_temperature_bc"] == BC_ZERO_TEMPERATURE
    assert "generated_at" in payload["metadata"]


def test_boundary_trace_window_validation():
    with pytest.raises(SpecError):
        boundary_trace([0.0], kt_min=0.0)
    with pytest.raises(SpecError):
        boundary_trace([0.0], kt_min=2.0, kt_max=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(SpecError):
            boundary_trace([0.0], kt_max=bad)
        with pytest.raises(SpecError):
            boundary_trace([0.0, bad])


def test_boundary_fields_are_independent_of_the_batch():
    fields = [0.0, 0.3, 0.9, 1.1, 2.0]
    curve = boundary_trace(np.array(fields))
    assert curve.zero_field_ktc == curve.points[0][1]  # the B = 0 root, reused
    for b, ktc in curve.points:
        single = boundary_trace(np.array([b]))
        assert single.points == ((b, ktc),)
        assert single.zero_field_ktc == curve.zero_field_ktc
    assert boundary_trace(np.array([2.0])).no_crossing == (2.0,)


def _counting_witness_calls(monkeypatch):
    """Patch the root finders' batched W - 1 so that each call records its point count."""
    calls = []
    original = thermolimit._w_minus_one

    def counted(kt_over_j, b_over_j, abs_tol):
        calls.append(np.size(kt_over_j))
        return original(kt_over_j, b_over_j, abs_tol)

    monkeypatch.setattr(thermolimit, "_w_minus_one", counted)
    return calls


def test_root_searches_take_few_batched_witness_calls(monkeypatch):
    calls = _counting_witness_calls(monkeypatch)
    fields = np.linspace(0.0, 1.2, 13)
    curve = boundary_trace(fields)
    assert len(curve.points) == 13
    assert len(calls) <= 10 and sum(calls) / fields.size <= 8.0
    for b, ktc in curve.points:
        assert abs(xx_witness_single_integral(ktc, b, 1.0) - 1.0) < 1e-6
    for endpoint in (critical_temperature_zero_field,
                     lambda: critical_field_low_temperature(kt_over_j=1e-3)):
        calls.clear()
        endpoint()
        assert len(calls) <= 10


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1e-6])
def test_root_finders_reject_residual_tolerances_up_front(bad, monkeypatch):
    # inf once returned kT_c = 1.538 at the first secant point (true 1.367);
    # NaN, 0 or a negative value ran 200 steps and then raised
    calls = _counting_witness_calls(monkeypatch)
    for route in (lambda: boundary_trace([0.5], residual_tol=bad),
                  lambda: critical_temperature_zero_field(residual_tol=bad),
                  lambda: critical_field_low_temperature(residual_tol=bad)):
        with pytest.raises(SpecError, match="residual_tol"):
            route()
    assert calls == []  # rejected before any W is evaluated


def _plain_regula_falsi_steps(f, a, b, tol, max_steps):
    """Steps unmodified regula falsi takes to |f| < tol, or None."""
    fa, fb = f(a), f(b)
    for step in range(1, max_steps + 1):
        x = (a * fb - b * fa) / (fb - fa)
        fx = f(x)
        if abs(fx) < tol:
            return step
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return None


def _rows_of(*functions, calls=None):
    """g(x, rows) for the root finder: row r is ``functions[r]``."""
    def g(x, rows):
        if calls is not None:
            calls.append(rows.copy())
        return np.array([functions[r](v) for v, r in zip(x, rows)])
    return g


def test_root_finder_closes_in_where_one_end_is_flat():
    # x^3 - 1e-3 is flat near 0: regula falsi keeps the far end for
    # hundreds of steps; halving the kept residual breaks the stall
    def flat(x):
        return x ** 3 - 1e-3

    assert _plain_regula_falsi_steps(flat, 0.0, 1.0, 1e-9, 200) is None
    calls = []
    root = thermolimit._illinois(_rows_of(flat, calls=calls), 1, 0.0, 1.0, 1e-9)[0]
    assert abs(flat(root)) < 1e-9
    assert len(calls) <= 20


def test_root_finder_rows_are_independent_and_step_only_open_rows():
    functions = (lambda x: x ** 3 - 1e-3, lambda x: math.tanh(20.0 * (x - 0.3)),
                 lambda x: x - 0.75)
    calls = []
    together = thermolimit._illinois(_rows_of(*functions, calls=calls), 3, 0.0, 1.0, 1e-12)
    for r, f in enumerate(functions):
        alone = thermolimit._illinois(_rows_of(f), 1, 0.0, 1.0, 1e-12)[0]
        assert together[r] == alone and abs(f(alone)) < 1e-12
    assert calls[0].tolist() == [0, 1, 2, 0, 1, 2]  # both ends, once
    assert all(len(set(rows.tolist())) == rows.size for rows in calls[1:])


def test_root_finder_returns_a_root_at_a_bracket_end():
    calls = []
    g = _rows_of(lambda x: x - 1.0, lambda x: 2.0 - x, calls=calls)
    assert thermolimit._illinois(g, 2, 1.0, 2.0, 1e-12).tolist() == [1.0, 2.0]
    assert len(calls) == 1


def test_root_finder_gives_nan_without_a_sign_change():
    g = _rows_of(lambda x: x * x + 1.0, lambda x: x - 0.5)
    roots = thermolimit._illinois(g, 2, 0.0, 1.0, 1e-12)
    assert math.isnan(roots[0]) and abs(roots[1] - 0.5) < 1e-12


def test_root_finder_raises_when_steps_run_out():
    g = _rows_of(lambda x: x ** 3 - 1e-3)
    with pytest.raises(quadrature.QuadratureError, match="residual 1e-09 in 3 steps"):
        thermolimit._illinois(g, 1, 0.0, 1.0, 1e-9, max_iter=3)


def test_region_scan_values_and_flags():
    kt = np.array([0.3, 0.9, 1.8])
    b = np.array([0.0, 0.8])
    grid = region_scan(kt, b)
    assert grid.w.shape == (2, 3)
    for ib in range(2):
        for ik in range(3):
            w = grid.w[ib, ik]
            assert w == region_scan(kt[ik:ik + 1], b[ib:ib + 1]).w[0, 0]
            assert abs(w - xx_witness(float(kt[ik]), float(b[ib]), 1.0).value) < 1e-10
            assert grid.entangled[ib, ik] == (w > 1.0)
    assert grid.cell_errors == ()


@pytest.mark.parametrize("block_rows", [1, 7, 256, 5000])
def test_region_scan_bytes_do_not_depend_on_block_size(monkeypatch, block_rows):
    kt = np.linspace(0.02, 3.0, 23)
    b = np.linspace(0.0, 3.0, 17)
    reference = region_scan(kt, b).to_csv()
    assert region_scan(kt, b).to_csv() == reference
    monkeypatch.setattr(quadrature, "_BLOCK_ROWS", block_rows)
    assert region_scan(kt, b).to_csv() == reference


@pytest.mark.parametrize("chunk_panels", [1, 7, 100])
def test_region_scan_bytes_do_not_depend_on_chunk_size(monkeypatch, chunk_panels):
    kt = np.linspace(0.02, 3.0, 23)
    b = np.linspace(0.0, 3.0, 17)
    reference = region_scan(kt, b).to_csv()
    monkeypatch.setattr(quadrature, "_CHUNK_PANELS", chunk_panels)
    assert region_scan(kt, b).to_csv() == reference


@pytest.mark.parametrize("kt", [0.02, 0.3, 3.0])
@pytest.mark.parametrize("b", [0.0, 1.2, 3.0])
def test_batched_witness_matches_both_scalar_routes(kt, b):
    w = region_scan(np.array([kt]), np.array([b])).w[0, 0]
    assert abs(w - xx_witness_single_integral(kt, b, 1.0)) < 1e-10
    assert abs(w - xx_witness(kt, b, 1.0).value) < 1e-10


def _always_seeded(integrand, k, c, abs_tol, limit=thermolimit._MAX_ARGUMENT):
    """The scalar integral seeded by _step_seeds whether or not there is a step."""
    reason = thermolimit._out_of_range(k, c, limit)
    if reason is not None:
        raise quadrature.QuadratureError(reason)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN seeds where there is no step
        seeds = thermolimit._step_seeds(np.float64(k), np.float64(c))
    return quadrature.adaptive_quadrature(integrand, 0.0, math.pi, abs_tol=abs_tol, seeds=seeds)


def _scalar_limit_values(kt, b, j):
    return (xx_witness_single_integral(kt, b, j), xx_internal_energy(kt, b, j),
            xx_magnetization(kt, b, j), xx_magnetization(kt, b, j, as_printed=True),
            xx_log_partition_density(j / kt, b / kt))


# B = 2|J| makes C/2K exactly +-1, a step at w* = 0 or pi; the floats next
# to 2 land on either side of it or round back onto it.
@pytest.mark.parametrize("kt", [0.02, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("b", [0.0, 1.2, math.nextafter(2.0, 0.0), 2.0,
                               math.nextafter(2.0, 3.0), 2.5, -2.0, -3.0])
@pytest.mark.parametrize("j", [1.0, -1.0])
def test_scalar_integrals_seed_only_at_a_step_and_keep_the_bits(monkeypatch, kt, b, j):
    values = _scalar_limit_values(kt, b, j)
    step_seeds, quotients = thermolimit._step_seeds, []

    def recorded(k, c):
        quotients.append(c / (2.0 * k))
        return step_seeds(k, c)

    monkeypatch.setattr(thermolimit, "_step_seeds", recorded)
    assert _scalar_limit_values(kt, b, j) == values
    assert all(abs(q) <= 1.0 for q in quotients)
    if abs(b) <= 2.0:
        assert len(quotients) == len(values)
    monkeypatch.setattr(thermolimit, "_integrate", _always_seeded)
    assert _scalar_limit_values(kt, b, j) == values


def test_scalar_routes_are_one_row_rows_calls(monkeypatch):
    # Each scalar route's integral is a one-row adaptive_quadrature_rows call
    # with the same integrand, seeded by its _step_seeds row (NaN without a
    # step): the same bits, or QuadratureError with that call's message. The
    # grid holds no-step rows (B > 2|J|), K = 0, deep seeded rows and rows
    # that fail at kT <= 1e-7.
    calls, integrate = [], thermolimit._integrate

    def recorded(integrand, k, c, abs_tol, limit=thermolimit._MAX_ARGUMENT):
        try:
            outcome = integrate(integrand, k, c, abs_tol, limit)
        except quadrature.QuadratureError as exc:
            outcome = exc
        calls.append((integrand, k, c, abs_tol, outcome))
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(thermolimit, "_integrate", recorded)
    for kt in (1e-8, 1e-7, 1e-3, 0.051, 0.3, 3.0):
        for b in (0.0, 1.2, 2.045, 2.5):
            for j in (1.0, -1.0, 0.0):
                for route in (xx_witness_single_integral, xx_internal_energy, xx_magnetization,
                              functools.partial(xx_magnetization, as_printed=True),
                              lambda kt, b, j: xx_log_partition_density(j / kt, b / kt)):
                    try:
                        route(kt, b, j)
                    except quadrature.QuadratureError:
                        pass
    assert len(calls) == 6 * 4 * 3 * 5
    kinds = set()
    for integrand, k, c, abs_tol, outcome in calls:
        with np.errstate(divide="ignore", invalid="ignore"):
            seeds = thermolimit._step_seeds(np.array([k]), np.array([c]))
        values, failures = quadrature.adaptive_quadrature_rows(
            lambda rows, x, integrand=integrand: integrand(x), 1, 0.0, math.pi,
            abs_tol=abs_tol, seeds=seeds)
        if failures:
            assert isinstance(outcome, quadrature.QuadratureError), (k, c)
            assert str(outcome) == failures[0]
            kinds.add("failed")
        else:
            assert outcome == values[0], (k, c)
            kinds.add("seeded" if np.isfinite(seeds).any() else "no step")
    assert kinds == {"failed", "seeded", "no step"}


def test_an_accepted_first_panel_is_the_only_evaluation(monkeypatch):
    # At kT = 20 and B = 2.5 > 2|J| there is no step and [0, pi] is accepted
    # at once: one evaluation of one panel, no further round.
    shapes, witness_integrand = [], thermolimit._witness_integrand

    def counted(k, c, omega):
        shapes.append(omega.shape)
        return witness_integrand(k, c, omega)

    monkeypatch.setattr(thermolimit, "_witness_integrand", counted)
    xx_witness_single_integral(20.0, 2.5, 1.0)
    assert shapes == [(1, 30)]


def test_a_zero_coupling_has_no_step_and_keeps_the_bits(monkeypatch):
    values = [xx_log_partition_density(0.0, c) for c in (0.0, 0.5, -4.0)]
    monkeypatch.setattr(thermolimit, "_integrate", _always_seeded)
    assert [xx_log_partition_density(0.0, c) for c in (0.0, 0.5, -4.0)] == values


def _reference_witness(kt, b):
    """W by mpmath's tanh-sinh rule, split at the kink w* = arccos(B/2J)."""
    with mpmath.workdps(30):
        k, c = 1 / mpmath.mpf(kt), abs(mpmath.mpf(b)) / mpmath.mpf(kt)
        nodes = [0, mpmath.acos(c / (2 * k)), mpmath.pi] if c <= 2 * k else [0, mpmath.pi]
        value = mpmath.quad(lambda w: mpmath.cos(w) * mpmath.tanh(2 * k * mpmath.cos(w) - c),
                            nodes)
        return float(2 / mpmath.pi * abs(value))


def _reference_printed_witness(kt, b):
    """|U + B M_printed| (J = 1) by mpmath's tanh-sinh rule, split around the kink."""
    with mpmath.workdps(30):
        kt, b = mpmath.mpf(kt), mpmath.mpf(b)
        k, c = 1 / kt, b / kt
        nodes = [mpmath.mpf(0), mpmath.pi]
        if abs(c) <= 2 * k:  # the kink w* and +-{1, 16} step widths around it
            star = mpmath.acos(c / (2 * k))
            width = 1 / max(2 * k * mpmath.sin(star), mpmath.sqrt(k))
            nodes = sorted({*nodes, *(min(max(star + s * width, 0), mpmath.pi)
                                      for s in (-16, -1, 0, 1, 16))})

        def energy(w):
            x = 2 * k * mpmath.cos(w) - c
            return x * mpmath.tanh(x)

        def printed(w):
            f = abs(2 * k * mpmath.cos(w) - c)
            return 4 * k * k * mpmath.cos(w) ** 2 * (mpmath.tanh(f) / f if f else 1)

        u = -kt * mpmath.quad(energy, nodes) / mpmath.pi
        m = -mpmath.quad(printed, nodes) / mpmath.pi
        return float(abs(u + b * m))


def test_printed_scan_matches_the_reference():
    # the printed M integrates to U's scaled tolerance abs_tol * max(1, K, C): with
    # a bare abs_tol, the cell at kT = 1e-3, B = 0.9 ran out of panels
    kts, bs = [1e-3, 5e-3, 0.05, 1.0], [0.0, 0.9, 2.5]
    grid = region_scan(np.array(kts), np.array(bs), as_printed=True)
    assert grid.cell_errors == ()
    for ib, b in enumerate(bs):
        for ik, kt in enumerate(kts):
            reference = _reference_printed_witness(kt, b)
            assert abs(grid.w[ib, ik] - reference) < 1e-8 * reference, (kt, b)


@pytest.mark.parametrize("b", [1.2, 3.0])
def test_batched_witness_is_accurate_at_low_temperature(b):
    # kT = 1e-3: the tanh step near the kink is ~5e-4 wide. The per-panel
    # acceptance resolves it; the scalar two-integral route's summed
    # estimate does not (it is ~1.7e-4 off at B = 1.2).
    w = region_scan(np.array([1e-3]), np.array([b])).w[0, 0]
    assert abs(w - _reference_witness(1e-3, b)) < 1e-10
    assert abs(w - xx_witness_single_integral(1e-3, b, 1.0)) < 1e-10


def test_region_scan_at_vanishing_temperature_is_exact_or_flagged():
    # At kT = 1e-300 the integrand is a step at the kink: each cell either
    # resolves it (T -> 0 closed form; the 10/20-node difference is no
    # strict error bound across a jump, hence 1e-9) or fails honestly;
    # neighbours are unaffected.
    kt = np.array([1e-300, 0.5, 2.0])
    b = np.array([0.0, 0.5, 1.0, 1.5, 2.5])
    grid = region_scan(kt, b)
    failed = {(ib, ik) for ib, ik, _ in grid.cell_errors}
    assert all(ik == 0 for _, ik in failed)
    for ib, bb in enumerate(b):
        closed = (4.0 / math.pi) * math.sqrt(max(0.0, 1.0 - (bb / 2.0) ** 2))
        if (ib, 0) in failed:
            assert math.isnan(grid.w[ib, 0]) and not grid.entangled[ib, 0]
        else:
            assert abs(grid.w[ib, 0] - closed) < 1e-9
        for ik in (1, 2):
            assert grid.w[ib, ik] == region_scan(kt[ik:ik + 1], b[ib:ib + 1]).w[0, 0]


def test_region_scan_isolates_failing_cells(monkeypatch):
    # A two-panel budget fails the cells that need more panels and only them.
    monkeypatch.setattr(thermolimit, "adaptive_quadrature_rows",
                        functools.partial(quadrature.adaptive_quadrature_rows, max_panels=2))
    kt = np.array([0.05, 0.5, 3.0, 30.0])
    b = np.array([0.0, 1.0, 3.0])
    grid = region_scan(kt, b)
    failed = {(ib, ik) for ib, ik, _ in grid.cell_errors}
    assert 0 < len(failed) < grid.w.size
    for ib, ik, message in grid.cell_errors:
        assert math.isnan(grid.w[ib, ik]) and not grid.entangled[ib, ik]
        assert "2 panels" in message
    for ib in range(b.size):
        for ik in range(kt.size):
            if (ib, ik) not in failed:
                assert grid.w[ib, ik] == region_scan(kt[ik:ik + 1], b[ib:ib + 1]).w[0, 0]


def test_region_scan_csv_layout():
    grid = region_scan(np.array([0.5, 1.0]), np.array([0.0, 1.0]))
    lines = grid.to_csv().splitlines()
    assert lines[0] == "kT_over_J,B_over_J,W,entangled"
    assert len(lines) == 5
    # row-major in B, then kT; floats survive a repr round-trip
    kt_col = [float(line.split(",")[0]) for line in lines[1:]]
    b_col = [float(line.split(",")[1]) for line in lines[1:]]
    assert kt_col == [0.5, 1.0, 0.5, 1.0]
    assert b_col == [0.0, 0.0, 1.0, 1.0]
    w00 = float(lines[1].split(",")[2])
    assert w00 == grid.w[0, 0]
    assert lines[1].split(",")[3] in ("true", "false")


def test_region_scan_json_metadata():
    grid = region_scan(np.array([0.5]), np.array([0.0]))
    payload = json.loads(grid.to_json())
    assert payload["kind"] == "region-grid"
    assert payload["metadata"]["magnetization_form"] == "lnz-derivative"
    assert payload["metadata"]["threshold"] == 1.0
    printed = region_scan(np.array([0.5]), np.array([0.0]), as_printed=True)
    assert json.loads(printed.to_json())["metadata"]["magnetization_form"] == "as-printed"


def test_region_scan_axis_validation():
    with pytest.raises(SpecError):
        region_scan(np.array([]), np.array([0.0]))
    with pytest.raises(SpecError):
        region_scan(np.array([0.0, 1.0]), np.array([0.0]))  # kT must be positive
    with pytest.raises(SpecError):
        region_scan(np.array([[0.5]]), np.array([0.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(SpecError):
            region_scan(np.array([0.5, bad]), np.array([0.0]))
        with pytest.raises(SpecError):
            region_scan(np.array([0.5]), np.array([bad]))
    # B/kT overflows: legal input, a numerical failure of its cell
    grid = region_scan(np.array([1e-300]), np.array([1e10]))
    assert np.isnan(grid.w[0, 0])
    assert len(grid.cell_errors) == 1 and "overflows" in grid.cell_errors[0][2]


def test_witness_report_source_is_the_limit():
    report = xx_witness(1.0, 0.5, 1.0)
    assert report.source == "thermodynamic-limit"
    assert report.inputs.n_sites is None


def _sympy_lowtemp(n, kt, b, j):
    beta_s, b_s, j_s, n_s = sp.symbols("beta b j n", positive=True)
    lnz = n_s * beta_s * (j_s + b_s) + sp.log(
        1 + n_s * sp.exp(-2 * beta_s * b_s) / sp.sqrt(8 * sp.pi * beta_s * j_s))
    subs = {n_s: n, beta_s: sp.Rational(1) / sp.nsimplify(kt),
            b_s: sp.nsimplify(b), j_s: sp.nsimplify(j)}
    u = float((-sp.diff(lnz, beta_s)).subs(subs).evalf(40))
    m = float((sp.diff(lnz, b_s) / beta_s).subs(subs).evalf(40))
    return float(lnz.subs(subs).evalf(40)), u, m


@pytest.mark.parametrize("n,kt,b,j", [(10 ** 6, 0.2, 0.4, 1.0), (100, 0.1, 0.2, 0.5)])
def test_lowtemp_ferro_matches_symbolic_derivatives(n, kt, b, j):
    lnz_ref, u_ref, m_ref = _sympy_lowtemp(n, kt, b, j)
    assert abs(lowtemp_ferro_log_partition(n, kt, b, j) - lnz_ref) < 1e-9 * abs(lnz_ref)
    report = lowtemp_ferro_witness(n, kt, b, j)
    assert abs(report.inputs.u - u_ref) < 1e-9 * abs(u_ref)
    assert abs(report.inputs.m - m_ref) < 1e-9 * max(1.0, abs(m_ref))


def test_lowtemp_ferro_witness_stays_below_one():
    gaps = []
    for n in (10 ** 2, 10 ** 4, 10 ** 6):
        report = lowtemp_ferro_witness(n, 0.2, 0.4, 1.0)
        assert report.value < 1.0
        assert report.source == "lowtemp-approx"
        gaps.append(1.0 - report.value)
    assert gaps[0] > gaps[1] > gaps[2]  # W -> 1 from below as N grows
    assert gaps[-1] < 1e-3


def test_lowtemp_printed_exponent_loses_the_conclusion():
    # the variant reading drops the extensive ground-state term; W collapses
    report = lowtemp_ferro_witness(10 ** 6, 0.2, 0.4, 1.0, printed_exponent=True)
    assert report.value < 0.1


def test_lowtemp_rejections():
    with pytest.raises(SpecError):
        lowtemp_ferro_witness(100, 0.2, 0.4, -1.0)
    with pytest.raises(SpecError):
        lowtemp_ferro_witness(100, 0.2, 0.0, 1.0)
    with pytest.raises(SpecError):
        lowtemp_ferro_witness(0, 0.2, 0.4, 1.0)
    with pytest.raises(SpecError):
        lowtemp_ferro_log_partition(100, -0.2, 0.4, 1.0)


@pytest.mark.parametrize("n", [10.5, True, False, "8"])
def test_lowtemp_rejects_counts_that_are_not_integers(n):
    with pytest.raises(SpecError):
        lowtemp_ferro_witness(n, 0.1, 0.5, 1.0)
    with pytest.raises(SpecError):
        lowtemp_ferro_log_partition(n, 0.1, 0.5, 1.0)


def test_lowtemp_log_partition_past_the_float_range_raises():
    # beta = 1/kT = inf: lnZ = N beta (J + B) is infinite, while W = 1 - sigma/(2 N beta J)
    # is exactly 1, since sigma = 0
    with pytest.raises(FloatingPointError, match="lnZ = inf is not finite"):
        lowtemp_ferro_log_partition(10, 1e-320, 0.4, 1.0)
    assert lowtemp_ferro_witness(10, 1e-320, 0.4, 1.0).value == 1.0


@pytest.mark.parametrize("b, j", [(math.nan, 1.0), (0.4, math.inf), (math.inf, 1.0)])
def test_lowtemp_rejects_non_finite_couplings(b, j):
    for route in (lowtemp_ferro_witness, lowtemp_ferro_log_partition):
        with pytest.raises(SpecError, match="B and J must be finite"):
            route(10, 0.1, b, j)


def test_huge_chains_do_not_overflow():
    # the magnon correction underflows entirely; W lands on 1.0 exactly
    report = lowtemp_ferro_witness(10 ** 12, 1e-3, 0.4, 1.0)
    assert math.isfinite(report.value)
    assert report.value <= 1.0


# ---------------------------------------------------------------------------
# Couplings at the edge of the float range


def test_overflowing_couplings_are_numerical_failures():
    # |J|/kT = 1e308: 2K cos w - C would overflow, so every route raises
    # before any arithmetic can (a leaked RuntimeWarning fails the test).
    routes = [lambda: xx_witness(1e-300, 0.5, 1e8),
              lambda: xx_witness_single_integral(1e-300, 0.5, 1e8),
              lambda: xx_log_partition_density(1e308, 0.0),
              lambda: xx_magnetization(1e-300, 0.5, 1e8),
              # the printed magnetization squares K
              lambda: xx_magnetization(1e-160, 0.5, 1.0, as_printed=True)]
    for route in routes:
        with pytest.raises(quadrature.QuadratureError, match="overflows"):
            route()
    with pytest.raises(quadrature.QuadratureError, match="overflows"):
        boundary_trace([0.5], kt_min=1e-308)


@pytest.mark.parametrize("k, c", [(math.nan, 0.5), (1.0, math.inf), (math.inf, 0.0)])
def test_log_partition_rejects_non_finite_couplings(k, c):
    # bad input, not a numerical failure: the same error as the (J, B, kT) routes
    with pytest.raises(SpecError, match="dimensionless couplings must be finite"):
        xx_log_partition_density(k, c)


@pytest.mark.parametrize("as_printed", [False, True])
def test_overflowing_scan_cells_fail_alone(as_printed):
    grid = region_scan(np.array([1e-308, 0.5]), np.array([0.0, 0.5]), as_printed=as_printed)
    assert np.isnan(grid.w[:, 0]).all() and not grid.entangled[:, 0].any()
    assert [error[:2] for error in grid.cell_errors] == [(0, 0), (1, 0)]
    assert all("overflows" in error[2] for error in grid.cell_errors)
    alone = region_scan(np.array([0.5]), np.array([0.0, 0.5]), as_printed=as_printed)
    assert np.array_equal(grid.w[:, 1], alone.w[:, 0])


def _printed_cell(kt, b, abs_tol):
    """One printed-magnetization cell by the scalar routes: (W, None) or (NaN, message)."""
    try:
        u = xx_internal_energy(kt, b, 1.0, abs_tol=abs_tol)
        m = xx_magnetization(kt, b, 1.0, abs_tol=abs_tol, as_printed=True)
    except quadrature.QuadratureError as exc:
        return math.nan, str(exc)
    return per_site_witness_report(u, m, b, 1.0).value, None


@pytest.mark.parametrize("kts, bs, abs_tol, n_errors", [
    # rows with no tanh step (|B| > 2|J|), a deep step (kT = 0.02), negative fields
    ([0.02, 0.3, 1.0, 2.5], [-2.6, -0.7, 0.0, 0.9, 2.5], 1e-10, 0),
    # kT = 1e-308 fails in U (|K| beyond its range); kT = 1e-170 only in the
    # printed M, whose range is smaller since it squares K
    ([1e-308, 1e-170, 0.5], [-0.5, 0.0, 1.2], 1e-10, 6),
    # both fail on the panel budget; U's message wins, with U's own
    # tolerance abs_tol * max(1, K, C), not M's abs_tol
    ([0.5, 0.25], [0.0, 0.3], 1e-17, 4),
    # U's tolerance abs_tol * max(1, K, C) passes the float range at kT = 4e-307,
    # where K is in U's range but not in the printed M's
    ([1e-308, 4e-307, 0.5], [0.0, 1.5], 100.0, 4),
])
def test_printed_scan_is_the_scalar_route_cell_by_cell(kts, bs, abs_tol, n_errors):
    grid = region_scan(np.array(kts), np.array(bs), abs_tol=abs_tol, as_printed=True)
    errors = []
    for ib, b in enumerate(bs):
        for ik, kt in enumerate(kts):
            w, message = _printed_cell(kt, b, abs_tol)
            assert np.array_equal(grid.w[ib, ik], w, equal_nan=True), (kt, b, grid.w[ib, ik], w)
            if message is not None:
                errors.append((ib, ik, message))
    assert grid.cell_errors == tuple(errors)
    assert len(errors) == n_errors


def test_scaled_tolerances_are_capped_at_the_largest_float():
    # abs_tol * max(1, K, C) = 100 * 2.5e306 is past the float range; capped,
    # it accepts every first panel as the infinite product once did, and
    # returns those values rather than rejecting the tolerance
    for b, w in ((0.0, 1.2732395447351632), (0.5, 1.2328088881230002)):
        assert xx_witness(4e-307, b, 1.0, abs_tol=100.0).value == w
    assert xx_log_partition_density(2.5e306, 1.25e306, abs_tol=100.0) == 3.283098778445416e+306


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-10, math.inf])
def test_scaled_tolerances_name_the_given_one(bad):
    for route in (lambda: xx_internal_energy(0.5, 0.3, 1.0, abs_tol=bad),
                  lambda: xx_log_partition_density(2.0, 0.6, abs_tol=bad),
                  lambda: region_scan(np.array([0.5, 1.0]), np.array([0.3]), abs_tol=bad,
                                      as_printed=True)):
        with pytest.raises(ValueError, match=f"abs_tol .* got {re.escape(repr(bad))}$"):
            route()


def test_couplings_just_inside_the_float_range():
    # kT/|J| = 1e-306 still integrates, to the T -> 0 form (4/pi) sqrt(1 - (B/2J)^2)
    expected = 4.0 / math.pi * math.sqrt(1.0 - 0.125 ** 2)
    assert abs(xx_witness(1e-306, 0.5, 2.0).value - expected) < 1e-12
    assert abs(xx_witness_single_integral(1e-306, 0.5, 2.0) - expected) < 1e-12
    assert abs(region_scan(np.array([1e-306]), np.array([0.25])).w[0, 0] - expected) < 1e-12


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(log_kt=st.floats(-6.0, 3.0),
       b=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       j=st.sampled_from([-1.0, 1.0]))
def test_both_limit_routes_agree_or_both_fail(log_kt, b, j):
    kt = 10.0 ** log_kt
    outcomes = []
    for route in (lambda: xx_witness(kt, b, j).value,
                  lambda: xx_witness_single_integral(kt, b, j)):
        try:
            outcomes.append(route())
        except quadrature.QuadratureError:
            outcomes.append(None)
    two, one = outcomes
    if two is None or one is None:
        assert two is None and one is None, (kt, b, outcomes)
    else:
        assert abs(two - one) < 1e-10, (kt, b, outcomes)
