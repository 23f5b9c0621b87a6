"""Thermodynamic-limit XX chain and the (kT, B) entanglement region.

The infinite XX chain has a closed-form free energy as one integral over
the Brillouin zone. With K = J/kT and C = B/kT the dimensionless
dispersion is

    f(w) = sqrt(2K^2 + 2K^2 cos 2w - 4CK cos w + C^2) = |2K cos w - C|

and, per site,

    lnZ = (1/pi) int_0^pi ln(2 cosh f) dw
    U   = -(kT/pi) int_0^pi f tanh(f) dw
    M   = (1/pi) int_0^pi tanh(f) (C - 2K cos w) / f dw.

The magnetization above is the lnZ field-derivative and simplifies to
-(1/pi) int tanh(2K cos w - C) dw. A differently printed variant,
-(1/pi) int (4K^2 cos^2 w / f) tanh(f) dw, is kept behind ``as_printed``
for side-by-side reporting only: it is nonzero at B = 0 and even in B, so
it cannot be the physical magnetization (see README).

The witness W = |U + B*M| / |J| (per site) collapses to a single smooth
integral,

    W = (2/pi) | int_0^pi cos(w) tanh(2K cos w - C) dw |,

whose T -> 0 limit is (4/pi) sqrt(1 - (B/2J)^2) for |B| < 2|J| and 0
beyond. Hence the entangled region touches kT = 0 out to the critical
field B_c = 2 sqrt(1 - pi^2/16) |J| and B = 0 up to kT_c of order |J|.

Routes: ``region_scan``, ``boundary_trace`` and the two endpoint root
finders evaluate W by this one integral, batched over all cells or fields
in one vectorized quadrature, and share one lockstep Illinois (modified
regula falsi) root finder. ``region_scan(as_printed=True)`` batches U
and the printed magnetization the same way, one quadrature each. Single
points use the scalar routes: ``xx_witness`` (U + B*M from two integrals)
and ``xx_witness_single_integral``, which returns the batched route's
bits; the two are each other's cross-check in ``validate``. A scalar
route integrates one (K, C) by ``adaptive_quadrature``'s own one-row
loop, seeded by float seeds with the batched seeds' bits, so each scalar
integral equals its batched row.

Every integral is pre-split around the step of tanh(2K cos w - C) at
w* = arccos(C/2K) (``_step_seeds``), so low-T steps are resolved; past
|C| = 2|K| there is no step, and its tail is pre-split at the nearer
end while |C| - 2|K| <= ``_STEP_TAIL``.

U is exactly even in both K and C, and M even in K and odd in C; all
integrals are evaluated at (|K|, |C|) with M's sign restored afterwards,
which makes W(J,B) = W(-J,B) = W(J,-B) hold bit-for-bit.

Bad input is a kT that is not finite and > 0 (``model.require_kt``) or a
J or B that is not finite: SpecError. The endpoints, which scale by |J|,
and the per-site witness report also reject J = 0
(``model.require_coupling``). A legal point whose |K| or |C|
passes max_float/64 (the printed M: the square root of that, halved),
or overflows to inf, is a numerical failure: a scalar route, root finder
or endpoint raises QuadratureError ("... the integrand overflows"), and
a scan records a NaN cell with that message.

The ferromagnetic XXX chain's low-temperature closed forms
(lowtemp_ferro_*) also live here; they exhibit W -> 1 from below as
N -> infinity, i.e. the witness never fires on the ferromagnet.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial

import numpy as np

from .model import SpecError, require_count, require_coupling, require_kt
from .quadrature import (
    DEFAULT_ABS_TOL,
    QuadratureError,
    adaptive_quadrature,
    adaptive_quadrature_rows,
)
from .witness import (
    SOURCE_LOWTEMP_APPROX,
    WitnessReport,
    _report,
    per_site_witness_report,
)

MAGNETIZATION_LNZ_DERIVATIVE = "lnz-derivative"
MAGNETIZATION_AS_PRINTED = "as-printed"

DEFAULT_ROOT_RESIDUAL = 1e-6
ZERO_FIELD_KT_WINDOW = (1e-3, 5.0)  # kT/|J| searched for W(kT, 0) = 1; the trace's default
_MAX_ROOT_STEPS = 200  # Illinois steps before the root finder gives up


def _ln_2cosh(x):
    """ln(2 cosh x), overflow-safe: |x| + log1p(exp(-2|x|))."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax))


def _tanh_over(f):
    """tanh(f)/f for f >= 0, with the f -> 0 limit value 1 (error < 1e-16)."""
    f = np.asarray(f, dtype=float)
    safe = np.where(f > 1e-8, f, 1.0)
    return np.where(f > 1e-8, np.tanh(safe) / safe, 1.0)


_SEED_OFFSETS = np.array([-16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0])
# np.tanh(x) rounds to +-1 for |x| >= 19: where |C| - 2|K| is larger, 2K cos w - C
# keeps that far from zero and the integrands carry no trace of the step.
_STEP_TAIL = 19.0
_FLOAT_SEED_OFFSETS = _SEED_OFFSETS.tolist()

_MAX_FLOAT = float(np.finfo(float).max)
# Largest |K| and |C| integrated. Up to here 2K cos w - C, its integrands
# and their panel sums stay well inside the float range; beyond it a point
# is a numerical failure, raised before any arithmetic can overflow.
_MAX_ARGUMENT = _MAX_FLOAT / 64.0
_MAX_PRINTED_ARGUMENT = math.sqrt(_MAX_ARGUMENT) / 2.0  # 4K^2 must stay in range too


def _out_of_range(k, c, limit=_MAX_ARGUMENT) -> str | None:
    """Why (K, C) cannot be integrated without overflow, or None."""
    if abs(k) <= limit and abs(c) <= limit:
        return None
    return (f"J/kT = {float(k):g}, B/kT = {float(c):g}: beyond |{limit:g}| "
            "the integrand overflows")


def _ratios(j, b, kt):
    """(J/kT, B/kT) of the scalar routes; SpecError unless kT, J and B are legal.

    A ratio past the float range is inf, a numerical failure of :func:`_integrate`.
    """
    kt, j, b = require_kt(kt), float(j), float(b)
    if not (math.isfinite(j) and math.isfinite(b)):
        raise SpecError("dimensionless couplings must be finite")
    return j / kt, b / kt


def _scaled_tol(abs_tol, k, c):
    """abs_tol * max(1, K, C) for K, C >= 0 (floats or arrays), at most the largest float.

    Near the range limit an abs_tol above 64 takes the product past the
    float range; the cap still accepts every first panel, as inf would.
    ValueError, naming ``abs_tol``, unless it is finite and > 0.
    """
    if not 0.0 < abs_tol < math.inf:
        raise ValueError(f"abs_tol must be finite and > 0, got {abs_tol!r}")
    with np.errstate(over="ignore"):
        return np.minimum(abs_tol * np.maximum(1.0, np.maximum(k, c)), _MAX_FLOAT)


def _witness_integrand(k, c, omega):
    """cos w tanh(2K cos w - C), the integrand of the one-integral W, for both routes.

    K and C are floats for the scalar route and row columns for the batched one.
    """
    cos = np.cos(omega)
    return cos * np.tanh(2.0 * k * cos - c)


def _energy_integrand(k, c, omega):
    """x tanh(x) with x = 2K cos w - C, U's integrand, like :func:`_witness_integrand`."""
    x = 2.0 * k * np.cos(omega) - c
    return x * np.tanh(x)


def _printed_integrand(k, c, omega):
    """-4K^2 cos^2 w tanh(f)/f with f = |2K cos w - C|, the printed M's integrand."""
    cos = np.cos(omega)
    return -4.0 * k * k * cos ** 2 * _tanh_over(np.abs(2.0 * k * cos - c))


def _step_seeds(k, c):
    """Quadrature seeds around the zero w* = arccos(C/2K) of 2K cos w - C.

    Seven seeds per (K, C), along a last axis added to K and C (floats or
    arrays): w* and w* +- {1, 4, 16} s, s = 1/max(2|K| sin w*, sqrt|K|)
    the width of the tanh step there. Where |C| > 2|K| there is no zero,
    but within ``_STEP_TAIL`` of one the step's tail still shows at the
    end w* = 0 or pi nearest to it, and is seeded there; further out the
    seeds are NaN, as for K = 0 (callers of arrays silence that warning).
    The quadrature drops seeds outside (0, pi) and repeats. A seed on w*
    alone would let the step hide between a panel's edge and its first
    node, where the 10- and 21-node sums then agree and accept the panel;
    an unseeded tail at an end can be accepted the same way, far off.
    """
    ratio = c / (2.0 * k)  # +-inf or NaN for K = 0
    tail = (np.abs(np.abs(c) - 2.0 * np.abs(k)) <= _STEP_TAIL) & (k != 0.0)
    star = np.arccos(np.where(tail, np.clip(ratio, -1.0, 1.0), ratio))  # NaN past the tail
    ak = np.abs(k)
    width = 1.0 / np.maximum(2.0 * ak * np.sin(star), np.sqrt(ak))
    return star[..., None] + width[..., None] * _SEED_OFFSETS


def _float_step_seeds(k, c):
    """:func:`_step_seeds` of one float (K, C), as a list; [] if there is no step.

    Float arithmetic with only arccos and sin from numpy, so the seeds keep
    the bits of the array route whichever arccos and sin numpy was built
    with. Without a step every seed is NaN and makes no panel, so the empty
    list cuts the same first panels.
    """
    ratio = c / (2.0 * k) if k != 0.0 else math.nan
    if abs(abs(c) - 2.0 * abs(k)) <= _STEP_TAIL:
        ratio = min(max(ratio, -1.0), 1.0)  # NaN stays
    if not abs(ratio) <= 1.0:
        return []
    star = float(np.arccos(ratio))
    ak = abs(k)
    width = 1.0 / max(2.0 * ak * float(np.sin(star)), math.sqrt(ak))
    return [star + width * offset for offset in _FLOAT_SEED_OFFSETS]


def _integrate(integrand, k, c, abs_tol, limit=_MAX_ARGUMENT):
    """Integral of ``integrand`` over [0, pi], seeded at the step of (K, C).

    Raises :class:`QuadratureError` if |K| or |C| exceeds ``limit``.
    """
    reason = _out_of_range(k, c, limit)
    if reason is not None:
        raise QuadratureError(reason)
    return adaptive_quadrature(integrand, 0.0, math.pi, abs_tol=abs_tol,
                               seeds=_float_step_seeds(k, c))


def xx_log_partition_density(coupling_over_kt, field_over_kt,
                             abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """lnZ per site: (1/pi) int_0^pi ln(2 cosh f) dw.

    lnZ is exactly even in both K and C (substitute w -> pi - w), so the
    integral is taken at (|K|, |C|).

    ``abs_tol`` is a tolerance per unit of max(1, |K|, |C|), the size of
    the integral: the integral may be off by up to
    ``abs_tol * max(1, |K|, |C|)``, so lnZ's relative error is of order
    ``abs_tol`` at every temperature.
    """
    k, c = map(abs, _ratios(coupling_over_kt, field_over_kt, 1.0))  # the ratios at kT = 1

    def integrand(omega):
        return _ln_2cosh(2.0 * k * np.cos(omega) - c)

    return _integrate(integrand, k, c, _scaled_tol(abs_tol, k, c)) / math.pi


def xx_internal_energy(kt, b, j, abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """U per site: -(kT/pi) int_0^pi f tanh(f) dw.

    The integrand x tanh(x) with x = 2K cos w - C is even in x, hence
    smooth through the f-kink, and U is even in both J and B.

    As for lnZ, ``abs_tol`` is a tolerance per unit of max(1, |K|, |C|):
    the integral may be off by up to ``abs_tol * max(1, |K|, |C|)``, so U
    is off by at most ``abs_tol * max(kT, |J|, |B|) / pi``, a fixed share
    of the largest energy scale.
    """
    k, c = map(abs, _ratios(j, b, kt))
    integral = _integrate(partial(_energy_integrand, k, c), k, c, _scaled_tol(abs_tol, k, c))
    return -float(kt) * integral / math.pi


def xx_magnetization(kt, b, j, abs_tol: float = DEFAULT_ABS_TOL,
                     as_printed: bool = False) -> float:
    """M per site in [-1, 1], from the lnZ field-derivative.

    The integrand tanh(f) (C - 2K cos w)/f steps at the f-kink
    w* = arccos(C/2K). M is even in J and odd in B; the
    integral runs at (|K|, |C|) and the sign of B is restored, so B = 0
    returns exactly 0.

    ``as_printed=True`` instead evaluates the literal variant
    -(1/pi) int (4K^2 cos^2 w / f) tanh(f) dw at the given (K, C) with no
    symmetrization. It fails M(B=0) = 0 and the lnZ-derivative check and
    exists only so the discrepancy can be reported, never silently patched.
    Its integrand grows like K, so as for U, ``abs_tol`` is then a
    tolerance per unit of max(1, |K|, |C|).
    """
    k, c = _ratios(j, b, kt)
    if as_printed:
        return _integrate(partial(_printed_integrand, k, c), k, c,
                          _scaled_tol(abs_tol, abs(k), abs(c)),
                          limit=_MAX_PRINTED_ARGUMENT) / math.pi
    sign = math.copysign(1.0, c) if c != 0.0 else 0.0
    k, c = abs(k), abs(c)

    def integrand(omega):
        x = 2.0 * k * np.cos(omega) - c
        f = np.abs(x)
        return _tanh_over(f) * (-x)

    return sign * _integrate(integrand, k, c, abs_tol) / math.pi


def xx_witness(kt, b, j, abs_tol: float = DEFAULT_ABS_TOL) -> WitnessReport:
    """Thermodynamic-limit witness W = |U + B*M| / |J| per site."""
    u = xx_internal_energy(kt, b, j, abs_tol=abs_tol)
    m = xx_magnetization(kt, b, j, abs_tol=abs_tol)
    return per_site_witness_report(u, m, b, j)


def xx_witness_single_integral(kt, b, j, abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """W via the one-integral simplification (2/pi)|int cos w tanh(2K cos w - C) dw|.

    Must agree with the two-integral route to well below 1e-8; both are
    exposed so that agreement is a checkable property rather than an
    assumption. Same integrand, seeds and rule as the batched route, so at
    J = 1 it returns a 1x1 :func:`region_scan`'s bits.
    """
    k, c = map(abs, _ratios(j, b, kt))
    return abs(2.0 * _integrate(partial(_witness_integrand, k, c), k, c, abs_tol) / math.pi)


# ---------------------------------------------------------------------------
# Region scan and boundary trace (the figure-1 plane)


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """Witness surface sampled over a (kT/|J|, B/|J|) grid.

    ``w`` and ``entangled`` are indexed [b_index, kt_index]. Cells whose
    quadrature failed carry W = NaN, entangled False, and an entry in
    ``cell_errors`` (b_index, kt_index, message).
    """

    kt_over_j: np.ndarray
    b_over_j: np.ndarray
    w: np.ndarray
    entangled: np.ndarray
    cell_errors: tuple[tuple[int, int, str], ...]
    abs_tol: float
    magnetization_form: str

    def to_csv(self) -> str:
        """CSV rows, row-major in B then kT; byte-stable for a given grid."""
        # Whole rows as Python floats and bools, each axis value formatted once.
        kts = [repr(kt) for kt in np.asarray(self.kt_over_j, dtype=float).tolist()]
        lines = ["kT_over_J,B_over_J,W,entangled"]
        for b, w_row, flags in zip(np.asarray(self.b_over_j, dtype=float).tolist(),
                                   np.asarray(self.w, dtype=float).tolist(),
                                   np.asarray(self.entangled, dtype=bool).tolist()):
            tail = f",{b!r},"
            lines.extend(f"{kt}{tail}{w!r},{'true' if flag else 'false'}"
                         for kt, w, flag in zip(kts, w_row, flags))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """JSON object with one line per key, and per grid row of W and ``entangled``."""
        def rows(grid):  # json's indenting encoder is pure Python; each row uses the C one
            return "[\n    " + ",\n    ".join(map(json.dumps, grid.tolist())) + "\n  ]"

        fields = {
            "kind": json.dumps("region-grid"),
            "kT_over_J": json.dumps(np.asarray(self.kt_over_j, dtype=float).tolist()),
            "B_over_J": json.dumps(np.asarray(self.b_over_j, dtype=float).tolist()),
            "W": rows(np.asarray(self.w, dtype=float)),
            "entangled": rows(np.asarray(self.entangled, dtype=bool)),
            "cell_errors": json.dumps([list(e) for e in self.cell_errors]),
            "metadata": json.dumps({
                "abs_tol": self.abs_tol,
                "magnetization_form": self.magnetization_form,
                "threshold": 1.0,
                "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            }),
        }
        return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields.items()) + "\n}\n"


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """The W = 1 contour kT_c(B), traced by a root finder in kT at fixed B.

    ``points`` holds (B/|J|, kT_c/|J|) pairs sorted by B; B values whose
    kT window never brackets W = 1 land in ``no_crossing``. The two
    analytic endpoints travel with the curve as metadata.
    """

    points: tuple[tuple[float, float], ...]
    no_crossing: tuple[float, ...]
    residual_tol: float
    kt_window: tuple[float, float]
    zero_field_ktc: float
    zero_temperature_bc: float

    def to_csv(self) -> str:
        lines = [
            f"# zero-field endpoint: kTc_over_J = {self.zero_field_ktc!r} (root of W(kT, 0) = 1)",
            f"# zero-temperature endpoint: Bc_over_J = {self.zero_temperature_bc!r} "
            "(closed form 2*sqrt(1 - pi^2/16))",
        ]
        for b in self.no_crossing:
            lines.append(f"# no crossing: B_over_J = {float(b)!r} "
                         f"(searched kT_over_J in [{self.kt_window[0]!r}, {self.kt_window[1]!r}])")
        lines.append("B_over_J,kTc_over_J")
        for b, ktc in self.points:
            lines.append(f"{float(b)!r},{float(ktc)!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "kind": "boundary-curve",
            "points": [{"B_over_J": float(b), "kTc_over_J": float(t)} for b, t in self.points],
            "no_crossing": [float(b) for b in self.no_crossing],
            "metadata": {
                "residual_tol": self.residual_tol,
                "kt_window": list(self.kt_window),
                "zero_field_ktc": self.zero_field_ktc,
                "zero_temperature_bc": self.zero_temperature_bc,
                "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            },
        }, indent=2) + "\n"


def _rows(integrand, k, c, abs_tol, limit=_MAX_ARGUMENT):
    """:func:`_integrate` at many (K, C), batched; ``abs_tol`` is a float or one per point.

    Returns ``(values, failures)`` as :func:`adaptive_quadrature_rows` does.
    Points with |K| or |C| beyond ``limit`` fail with a range message; they
    run only as placeholders at K = C = 0 and tolerance 1, where nothing overflows.
    """
    out, failures = np.maximum(np.abs(k), np.abs(c)) > limit, {}
    if out.any():
        failures = {int(i): _out_of_range(k[i], c[i], limit) for i in np.flatnonzero(out)}
        k, c, abs_tol = np.where(out, 0.0, k), np.where(out, 0.0, c), np.where(out, 1.0, abs_tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        seeds = _step_seeds(k, c)
    values, failed = adaptive_quadrature_rows(
        lambda block_rows, omega: integrand(k[block_rows, None], c[block_rows, None], omega),
        k.size, 0.0, math.pi, abs_tol=abs_tol, seeds=seeds)
    values[out] = np.nan
    return values, {**failed, **failures}


def _couplings(kt_over_j, b_over_j):
    """(K, C) = (1, B/|J|) / (kT/|J|) at many points; a ratio past the float range is inf."""
    with np.errstate(over="ignore"):
        return 1.0 / kt_over_j, b_over_j / kt_over_j


def region_scan(kt_over_j_values, b_over_j_values, abs_tol: float = DEFAULT_ABS_TOL,
                as_printed: bool = False) -> RegionGrid:
    """Evaluate the witness on the full (kT/|J|, B/|J|) grid.

    All cells go through one batched quadrature of the one-integral route
    (2/pi)|int cos w tanh(2K cos w - C) dw|; a cell's value does not depend
    on the rest of the grid, so a 1x1 scan of a point reproduces its cell
    bit for bit. ``as_printed=True`` batches the two-integral U + B*M route
    with the printed magnetization instead, each cell failing as
    :func:`xx_witness` would. Per-cell quadrature failures are recorded, not raised.
    """
    kt_values = np.asarray(kt_over_j_values, dtype=float)
    b_values = np.asarray(b_over_j_values, dtype=float)
    if kt_values.ndim != 1 or b_values.ndim != 1 or kt_values.size == 0 or b_values.size == 0:
        raise SpecError("grid axes must be non-empty 1-D arrays")
    if not (np.all(np.isfinite(kt_values)) and np.all(np.isfinite(b_values))):
        raise SpecError("grid axes must be finite")
    if np.any(kt_values <= 0.0):
        raise SpecError("kT/|J| axis must be strictly positive")

    kt, b = np.tile(kt_values, b_values.size), np.repeat(b_values, kt_values.size)
    k, c = _couplings(kt, b)
    if as_printed:
        tol = _scaled_tol(abs_tol, k, np.abs(c))
        u, u_failures = _rows(_energy_integrand, k, np.abs(c), tol)
        m, failures = _rows(_printed_integrand, k, c, tol, limit=_MAX_PRINTED_ARGUMENT)
        flat = np.abs(-kt * u / math.pi + b * (m / math.pi))
        failures.update(u_failures)  # U's message wins, as U is evaluated first
    else:
        integral, failures = _rows(_witness_integrand, k, np.abs(c), abs_tol)
        flat = np.abs(2.0 * integral / math.pi)
    w = flat.reshape(b_values.size, kt_values.size)
    errors = [(*divmod(i, kt_values.size), failures[i]) for i in sorted(failures)]
    entangled = np.where(np.isnan(w), False, w > 1.0)
    form = MAGNETIZATION_AS_PRINTED if as_printed else MAGNETIZATION_LNZ_DERIVATIVE
    return RegionGrid(kt_over_j=kt_values, b_over_j=b_values, w=w, entangled=entangled,
                      cell_errors=tuple(errors), abs_tol=abs_tol, magnetization_form=form)


def _illinois(g, n: int, lo: float, hi: float, residual_tol: float) -> np.ndarray:
    """Roots of g(x, row) = 0 on [lo, hi] for rows 0 .. n-1, in lockstep.

    ``g(x, rows)`` returns row ``rows[i]``'s residual at ``x[i]``; each step
    is one call on the open rows. Each open row moves to the secant point
    of its own bracket, or to the midpoint where that point is not strictly
    inside; an end kept twice in a row has its stored residual halved
    (Illinois, Dowell & Jarratt, BIT 11, 168 (1971)), so a row whose one
    end is flat still closes in on the root. A row stops at |g(x)| <
    residual_tol, or gets NaN if its ends do not bracket a sign change.
    SpecError, before any call, unless residual_tol is finite and > 0.
    """
    if not 0.0 < residual_tol < math.inf:
        raise SpecError(f"residual_tol must be finite and > 0, got {residual_tol!r}")
    rows = np.arange(n)
    lo_x, hi_x = np.full(n, float(lo)), np.full(n, float(hi))
    g_ends = g(np.concatenate((lo_x, hi_x)), np.concatenate((rows, rows)))
    g_lo, g_hi = g_ends[:n], g_ends[n:]
    roots = np.where(g_lo == 0.0, lo_x, np.where(g_hi == 0.0, hi_x, np.nan))
    active = np.flatnonzero((g_lo != 0.0) & (g_hi != 0.0)
                            & (np.signbit(g_lo) != np.signbit(g_hi)))
    kept_lo = np.zeros(n, dtype=bool)  # which end the last step kept
    kept_hi = np.zeros(n, dtype=bool)
    for _ in range(_MAX_ROOT_STEPS):
        if active.size == 0:
            return roots
        a, b, ga, gb = lo_x[active], hi_x[active], g_lo[active], g_hi[active]
        with np.errstate(all="ignore"):
            x = (a * gb - b * ga) / (gb - ga)
        outside = ~((a < x) & (x < b))  # also where x is NaN
        x[outside] = 0.5 * (a[outside] + b[outside])
        g_x = g(x, active)
        done = np.abs(g_x) < residual_tol
        roots[active[done]] = x[done]
        up = np.signbit(g_x) == np.signbit(ga)  # x replaces lo, hi is kept
        lo_x[active[up]], g_lo[active[up]] = x[up], g_x[up]
        hi_x[active[~up]], g_hi[active[~up]] = x[~up], g_x[~up]
        g_hi[active[up & kept_hi[active]]] *= 0.5
        g_lo[active[~up & kept_lo[active]]] *= 0.5
        kept_hi[active], kept_lo[active] = up, ~up
        active = active[~done]
    if active.size:
        raise QuadratureError(f"Illinois root finder did not reach residual {residual_tol:g} "
                              f"in {_MAX_ROOT_STEPS} steps")
    return roots


def _w_minus_one(kt_over_j, b_over_j):
    """Batched one-integral W - 1 at the default tolerance; any failed point raises its message."""
    k, c = _couplings(kt_over_j, b_over_j)
    integral, failures = _rows(_witness_integrand, k, np.abs(c), DEFAULT_ABS_TOL)
    if failures:
        raise QuadratureError(failures[min(failures)])
    return np.abs(2.0 * integral / math.pi) - 1.0


def critical_field_zero_temperature(j: float = 1.0) -> float:
    """Closed-form T -> 0 critical field: 2 sqrt(1 - pi^2/16) |J| ~ 1.238 |J|.

    At T = 0 the witness is (4/pi) sqrt(1 - (B/2J)^2) up to B = 2|J|;
    setting it to 1 gives this field, beyond which no entanglement is
    detected at any temperature.
    """
    return 2.0 * abs(require_coupling(j, "witness")) * math.sqrt(1.0 - math.pi ** 2 / 16.0)


def critical_temperature_zero_field(j: float = 1.0,
                                    residual_tol: float = DEFAULT_ROOT_RESIDUAL) -> float:
    """kT_c at B = 0: the root of W(kT, 0) = 1, of order |J| (~1.367 |J|)."""
    j = require_coupling(j, "witness")
    root = _illinois(lambda kt, rows: _w_minus_one(kt, np.zeros_like(kt)),
                     1, *ZERO_FIELD_KT_WINDOW, residual_tol)[0]
    if math.isnan(root):
        raise QuadratureError("W(kT, 0) = 1 not bracketed in kT/|J| within "
                              f"{list(ZERO_FIELD_KT_WINDOW)}")
    return float(root) * abs(j)


def critical_field_low_temperature(kt_over_j: float = 1e-3, j: float = 1.0,
                                   residual_tol: float = DEFAULT_ROOT_RESIDUAL) -> float:
    """Field where W crosses 1 at a small fixed kT (T -> 0 is approached).

    Converges to :func:`critical_field_zero_temperature` as kt_over_j -> 0.
    """
    kt, j = require_kt(kt_over_j), require_coupling(j, "witness")
    root = _illinois(lambda b, rows: _w_minus_one(np.full_like(b, kt), b),
                     1, 0.0, 2.0, residual_tol)[0]
    if math.isnan(root):
        raise QuadratureError(f"W = 1 not bracketed in B/|J| at kT/|J| = {kt_over_j}")
    return float(root) * abs(j)


def boundary_trace(b_over_j_values, kt_min: float = ZERO_FIELD_KT_WINDOW[0],
                   kt_max: float = ZERO_FIELD_KT_WINDOW[1],
                   residual_tol: float = DEFAULT_ROOT_RESIDUAL) -> BoundaryCurve:
    """Trace kT_c(B) by an Illinois root search in kT at each requested field.

    All fields, plus B = 0 for the zero-field endpoint unless it is among
    them, are solved in lockstep with batched one-integral W evaluations;
    a field's root does not depend on the other fields.
    Fields where [kt_min, kt_max] does not bracket W = 1 (above the
    critical field, or kT_c below kt_min) are reported as no-crossing
    entries rather than errors.
    """
    if not (math.isfinite(kt_min) and math.isfinite(kt_max) and 0.0 < kt_min < kt_max):
        raise SpecError(f"need finite 0 < kt_min < kt_max, got [{kt_min}, {kt_max}]")
    fields = sorted(float(b) for b in np.atleast_1d(np.asarray(b_over_j_values, dtype=float)))
    if not all(math.isfinite(b) for b in fields):
        raise SpecError("fields must be finite")
    zero_at = next((i for i, b in enumerate(fields) if b == 0.0), len(fields))
    solve = np.array(fields if zero_at < len(fields) else [*fields, 0.0])
    roots = _illinois(lambda kt, rows: _w_minus_one(kt, solve[rows]),
                      solve.size, kt_min, kt_max, residual_tol)
    points = [(b, float(t)) for b, t in zip(fields, roots) if not math.isnan(t)]
    no_crossing = [b for b, t in zip(fields, roots) if math.isnan(t)]
    return BoundaryCurve(points=tuple(points), no_crossing=tuple(no_crossing),
                         residual_tol=residual_tol, kt_window=(kt_min, kt_max),
                         zero_field_ktc=float(roots[zero_at]),
                         zero_temperature_bc=critical_field_zero_temperature(1.0))


# ---------------------------------------------------------------------------
# Ferromagnetic XXX chain at low temperature


def _expit(x: float) -> float:
    """Logistic function 1/(1 + e^-x), stable for large |x|."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _lowtemp_args(n_sites, kt, b, j):
    """Validated (N, beta, B, J, ln h), h = N exp(-2 beta B)/sqrt(8 pi beta J)."""
    n = require_count(n_sites, "n_sites")
    beta = 1.0 / require_kt(kt)
    b, j = float(b), float(j)
    if not (math.isfinite(b) and math.isfinite(j)):
        raise SpecError(f"B and J must be finite, got B = {b}, J = {j}")
    if j <= 0.0:
        raise SpecError("the low-temperature form needs a ferromagnetic coupling J > 0")
    if b <= 0.0:
        raise SpecError("the low-temperature form needs a field B > 0")
    ln_h = math.log(n) - 2.0 * beta * b - 0.5 * math.log(8.0 * math.pi * beta * j)
    return n, beta, b, j, ln_h


def lowtemp_ferro_log_partition(n_sites, kt, b, j,
                                printed_exponent: bool = False) -> float:
    """Low-temperature lnZ of the ferromagnetic XXX ring in a field B > 0.

    lnZ = N beta (J + B) + ln(1 + h) with h = N exp(-2 beta B)/sqrt(8 pi
    beta J): the fully aligned ground state at energy -N(J+B) plus the
    one-magnon band integrated in the quadratic-dispersion approximation.
    h is handled in log space (h = e^{ln h}) so huge N or tiny kT cannot
    overflow h; FloatingPointError where lnZ itself leaves the float range.
    Validity wants kT << J; this is advisory, not enforced.

    ``printed_exponent=True`` swaps the leading term for B beta (J + B), a
    variant reading kept only for comparison: it loses the extensive
    ground-state energy and with it the W -> 1 conclusion.
    """
    n, beta, b, j, ln_h = _lowtemp_args(n_sites, kt, b, j)
    leading = (b if printed_exponent else n) * beta * (j + b)
    log_partition = leading + float(np.logaddexp(0.0, ln_h))
    if not math.isfinite(log_partition):
        raise FloatingPointError(f"lnZ = {log_partition} is not finite")
    return log_partition


def lowtemp_ferro_witness(n_sites, kt, b, j,
                          printed_exponent: bool = False) -> WitnessReport:
    """Witness of the low-temperature ferromagnet, from exact lnZ derivatives.

    With sigma = h/(1+h), U = -N(J+B) + sigma (2B + 1/(2 beta)) and
    M = N - 2 sigma, so U + B M = -N J + sigma/(2 beta): W = 1 -
    sigma/(2 N beta J) < 1, approaching 1 from below as N grows -- the
    witness never fires on the ferromagnet. The ``printed_exponent``
    variant instead yields U + B M = B^2 + sigma/(2 beta), i.e. W -> 0 for
    large N, contradicting the W = 1 conclusion; it is reported for
    comparison only.

    W is taken from these closed forms of U + B M, not from the sum of U
    and B M, whose N B terms cancel and would cost (B/J) eps of accuracy.
    """
    n, beta, b, j, ln_h = _lowtemp_args(n_sites, kt, b, j)
    sigma = _expit(ln_h)
    band = sigma * (2.0 * b + 0.5 / beta)
    thermal = sigma * (0.5 / beta)
    if printed_exponent:
        u = -b * (j + b) + band
        m = (j + 2.0 * b) - 2.0 * sigma
        u_plus_bm = b * b + thermal
    else:
        u = -n * (j + b) + band
        m = n - 2.0 * sigma
        u_plus_bm = -n * j + thermal
    if not (math.isfinite(u) and math.isfinite(m)):
        raise FloatingPointError(f"U = {u} or M = {m} is not finite")
    return _report(u, m, b, j, n, SOURCE_LOWTEMP_APPROX, u_plus_bm)
