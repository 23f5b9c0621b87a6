"""Self-checks wiring the independent computation routes against each other.

Each check compares two routes to the same physics (witness identity,
free-fermion oracle vs exact diagonalization, quadrature vs derivative,
symmetry pairs) and returns the worst residual, with its note if it has
one; :func:`run_validation_suite` applies every tolerance in one loop and
reports a note with a failure only.
The CLI ``validate`` subcommand fails its exit code if any check fails.
A user-supplied tolerance override applies to the quadrature identity
checks only; failures induced purely by tightening below what quadrature
can deliver are flagged as such rather than left looking like physics bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import exactdiag, freefermion, thermolimit, witness
from .model import BOUNDARY_OPEN, BOUNDARY_PERIODIC, FAMILY_XX, FAMILY_XXX, ModelSpec, SpecError

_SEED = 20240811

# Checks whose tolerance a --tol override replaces (the quadrature-identity
# family); everything else keeps its own default.
TOL_OVERRIDE_CHECKS = frozenset({
    "two-route-witness",
    "magnetization-lnz-derivative",
    "limit-symmetry",
})


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    note: str = ""


def _random_eligible_specs(rng, count):
    specs = []
    while len(specs) < count:
        family = rng.choice([FAMILY_XXX, FAMILY_XX])
        boundary = rng.choice([BOUNDARY_OPEN, BOUNDARY_PERIODIC])
        n = int(rng.integers(3 if boundary == BOUNDARY_PERIODIC else 2, 8))
        j = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-1.0, 1.0))
        kt = float(rng.uniform(0.2, 3.0))
        make = ModelSpec.xxx if family == FAMILY_XXX else ModelSpec.xx
        specs.append((make(j=j, b=b, n_sites=n, boundary=boundary), kt))
    return specs


def _check_eq2_identity(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for spec, kt in _random_eligible_specs(rng, 12):
        obs = exactdiag.thermal_observables(spec, kt)
        via_energy = witness.witness_value(obs.u, obs.m, spec.b, spec.jx, spec.n_sites).value
        via_corr = witness.witness_from_correlators(obs.bond_correlators, spec.n_sites,
                                                    spec.family)
        worst = max(worst, abs(via_energy - via_corr))
    return worst


def _check_separable_bound(family, best):
    aligned = witness.product_state_witness(
        np.tile([1.0, 0.0, 0.0] if family == FAMILY_XX else [0.0, 0.0, 1.0], (8, 1)), family)
    residual = max(best - 1.0, abs(aligned - 1.0))
    return residual, "" if aligned == 1.0 else "aligned state did not saturate exactly"


def _check_concurrence_identity():
    worst = 0.0
    for n in (4, 6):
        spec = ModelSpec.xxx(j=1.0, b=0.0, n_sites=n, boundary=BOUNDARY_PERIODIC)
        for kt in (0.1, 0.5, 1.0, 2.0):
            obs = exactdiag.thermal_observables(spec, kt)
            pair = exactdiag.reduced_pair_state(spec, kt, (0, 1))
            c_pair = exactdiag.concurrence(pair)
            c_energy = witness.concurrence_from_energy(obs.u, n, 1.0)
            worst = max(worst, abs(c_pair - c_energy))
    return worst


def _check_jw_vs_exactdiag():
    worst = 0.0
    for b in (0.0, 0.7):
        spec = ModelSpec.xx(j=1.0, b=b, n_sites=8, boundary=BOUNDARY_OPEN)
        for kt in (0.5, 1.0, 2.0):
            obs = exactdiag.thermal_observables(spec, kt)
            u_jw, m_jw = freefermion.jw_observables(8, kt, 1.0, b)
            worst = max(worst,
                        abs(u_jw - obs.u / 8) / max(1.0, abs(obs.u / 8)),
                        abs(m_jw - obs.m / 8) / max(1.0, abs(obs.m / 8)))
    return worst


def _check_katsura_vs_jw():
    worst = 0.0
    for kt in (0.5, 1.0, 2.0):
        for b in (0.0, 1.0, 2.0):
            u_jw, m_jw = freefermion.jw_observables(2000, kt, 1.0, b)
            worst = max(worst,
                        abs(thermolimit.xx_internal_energy(kt, b, 1.0) - u_jw),
                        abs(thermolimit.xx_magnetization(kt, b, 1.0) - m_jw))
    return worst


def _check_magnetization_lnz(as_printed):
    worst = 0.0
    h = 1e-3
    for k in (0.5, 1.0, 2.0):
        for c in (0.0, 0.5, 1.5):
            lnz_up = thermolimit.xx_log_partition_density(k, c + h, abs_tol=1e-12)
            lnz_dn = thermolimit.xx_log_partition_density(k, c - h, abs_tol=1e-12)
            fd = (lnz_up - lnz_dn) / (2.0 * h)
            m = thermolimit.xx_magnetization(1.0, c, k, as_printed=as_printed)
            worst = max(worst, abs(m - fd))
    if as_printed:
        return worst, ("documented discrepancy: the as-printed integrand is not the "
                       "lnZ field-derivative (nonzero magnetization at B = 0)")
    return worst


def _check_thermo_consistency_finite():
    spec = ModelSpec.xxx(j=1.0, b=0.5, n_sites=6, boundary=BOUNDARY_PERIODIC)
    return max(exactdiag.thermo_consistency(spec, 1.0))


def _check_thermo_consistency_limit():
    worst = 0.0
    j = 1.0
    for kt in (0.5, 1.0, 2.0):
        for b in (0.0, 0.8):
            beta = 1.0 / kt
            h = 1e-3 * beta
            lnz_up = thermolimit.xx_log_partition_density((beta + h) * j, (beta + h) * b,
                                                          abs_tol=1e-12)
            lnz_dn = thermolimit.xx_log_partition_density((beta - h) * j, (beta - h) * b,
                                                          abs_tol=1e-12)
            u_fd = -(lnz_up - lnz_dn) / (2.0 * h)
            u = thermolimit.xx_internal_energy(kt, b, j)
            worst = max(worst, abs(u - u_fd) / max(1.0, abs(u)))
    return worst


def _check_two_route_witness():
    worst = 0.0
    for kt in (0.3, 1.0, 2.5):
        for b in (0.0, 0.8, 1.6):
            two = thermolimit.xx_witness(kt, b, 1.0).value
            one = thermolimit.xx_witness_single_integral(kt, b, 1.0)
            worst = max(worst, abs(two - one))
    return worst


def _check_symmetry():
    worst = 0.0
    for kt in (0.4, 1.3):
        for b in (0.0, 0.9):
            w = thermolimit.xx_witness(kt, b, 1.0).value
            worst = max(worst,
                        abs(w - thermolimit.xx_witness(kt, b, -1.0).value),
                        abs(w - thermolimit.xx_witness(kt, -b, 1.0).value))
    for j in (1.0,):
        for b in (0.0, 0.6):
            spec = ModelSpec.xx(j=j, b=b, n_sites=6, boundary=BOUNDARY_OPEN)
            w = witness.witness_from_model(spec, 0.8).value
            flipped_j = ModelSpec.xx(j=-j, b=b, n_sites=6, boundary=BOUNDARY_OPEN)
            flipped_b = ModelSpec.xx(j=j, b=-b, n_sites=6, boundary=BOUNDARY_OPEN)
            worst = max(worst,
                        abs(w - witness.witness_from_model(flipped_j, 0.8).value),
                        abs(w - witness.witness_from_model(flipped_b, 0.8).value))
    return worst


def _check_lowtemp_ferro():
    report = thermolimit.lowtemp_ferro_witness(10 ** 6, 0.2, 0.4, 1.0)
    gap_large = abs(report.value - 1.0)
    gap_small = abs(thermolimit.lowtemp_ferro_witness(10 ** 2, 0.2, 0.4, 1.0).value - 1.0)
    return gap_large, "|W - 1| did not decrease with N" if gap_large >= gap_small else ""


def run_validation_suite(tol_override: float | None = None,
                         as_printed: bool = False,
                         seed: int | None = None) -> list[CheckResult]:
    """Run every cross-check; returns one :class:`CheckResult` per check.

    SpecError unless ``tol_override`` is None or finite and > 0.
    """
    if tol_override is not None:
        tol_override = float(tol_override)
        if not (math.isfinite(tol_override) and tol_override > 0.0):
            raise SpecError(f"tolerance override must be finite and > 0, got {tol_override}")

    # both separable bounds score the product states of one sweep
    xxx_best, xx_best = witness._sweep_maxima(20000, 8, (FAMILY_XXX, FAMILY_XX), _SEED, True)
    checks = [  # (name, default tolerance, check): a residual, or (residual, note)
        ("eq2-identity", 1e-10, partial(_check_eq2_identity, _SEED if seed is None else seed)),
        ("separable-bound-xxx", 1e-12, partial(_check_separable_bound, FAMILY_XXX, xxx_best)),
        ("separable-bound-xx", 1e-12, partial(_check_separable_bound, FAMILY_XX, xx_best)),
        ("concurrence-identity", 1e-8, _check_concurrence_identity),
        ("jw-vs-exactdiag", 1e-8, _check_jw_vs_exactdiag),
        ("katsura-vs-jw", 1e-3, _check_katsura_vs_jw),
        ("magnetization-lnz-derivative", 1e-6, partial(_check_magnetization_lnz, as_printed)),
        ("thermo-consistency-finite", 1e-5, _check_thermo_consistency_finite),
        ("thermo-consistency-limit", 1e-5, _check_thermo_consistency_limit),
        ("two-route-witness", 1e-8, _check_two_route_witness),
        ("limit-symmetry", 1e-12, _check_symmetry),
        ("lowtemp-ferro", 1e-3, _check_lowtemp_ferro),
    ]
    results = []
    for name, default, check in checks:
        outcome = check()
        residual, note = outcome if isinstance(outcome, tuple) else (outcome, "")
        tol = tol_override if tol_override is not None and name in TOL_OVERRIDE_CHECKS else default
        passed = bool(residual < tol)
        if not passed and not note and residual < default:
            note = f"tolerance-induced: residual passes the default {default:g}"
        results.append(CheckResult(name, passed, float(residual), float(tol),
                                   "" if passed else note))  # a note explains a failure
    return results
