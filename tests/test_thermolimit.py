"""Infinite-chain integrals, the (kT, B) region, and the low-T ferromagnet."""

import functools
import json
import math

import mpmath
import numpy as np
import pytest
import sympy as sp
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
    # both endpoints bisect the batched one-integral W; at kT = 1e-3 its
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


def _reference_witness(kt, b):
    """W by mpmath's tanh-sinh rule, split at the kink w* = arccos(B/2J)."""
    with mpmath.workdps(30):
        k, c = 1 / mpmath.mpf(kt), abs(mpmath.mpf(b)) / mpmath.mpf(kt)
        nodes = [0, mpmath.acos(c / (2 * k)), mpmath.pi] if c <= 2 * k else [0, mpmath.pi]
        value = mpmath.quad(lambda w: mpmath.cos(w) * mpmath.tanh(2 * k * mpmath.cos(w) - c),
                            nodes)
        return float(2 / mpmath.pi * abs(value))


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
    with pytest.raises(SpecError):  # B/kT overflows
        region_scan(np.array([1e-300]), np.array([1e10]))


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


def test_huge_chains_do_not_overflow():
    # the magnon correction underflows entirely; W lands on 1.0 exactly
    report = lowtemp_ferro_witness(10 ** 12, 1e-3, 0.4, 1.0)
    assert math.isfinite(report.value)
    assert report.value <= 1.0
