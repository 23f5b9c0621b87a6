"""Macroscopic thermodynamical entanglement witness.

For a Heisenberg chain the combination (U + B*M)/(N*J) equals, up to sign,
the mean nearest-neighbor exchange correlation per site,

    (U + B*M)/(N*J) = -(1/N) * sum_bonds (<sx.sx> + <sy.sy> + <sz.sz>),

with the zz term absent for the XX family. Product states bound each bond
term by the Cauchy-Schwarz inequality |u_i . u_i+1| <= 1 for unit Bloch
vectors, and the bound is convex, so every separable state obeys
|U + B*M|/(N*|J|) <= 1. A measured value W > 1 therefore certifies
entanglement from two macroscopic observables alone -- no state tomography.
Detection is one-sided: W <= 1 means "not detected", never "separable".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exactdiag import thermal_observables
from .model import (
    BOUNDARY_PERIODIC,
    FAMILY_XX,
    FAMILY_XXX,
    WITNESS_ELIGIBLE_FAMILIES,
    SpecError,
    frozen_instance,
    require_boundary,
    require_count,
    require_coupling,
    require_ring,
    require_seed,
    validate_spec,
)

THRESHOLD = 1.0

SOURCE_FINITE_EXACT = "finite-exact"
SOURCE_THERMODYNAMIC_LIMIT = "thermodynamic-limit"
SOURCE_LOWTEMP_APPROX = "lowtemp-approx"
SOURCE_EXTERNAL = "external-measurement"

_CORRELATOR_SLOP = 1e-9

# Site vectors the separable sweep draws and scores at a time (4096 samples
# at N = 8, at least one sample), so its memory does not grow with the input.
_SWEEP_BLOCK_SITES = 1 << 15

# The pruning slack of the sweep (see _sweep_maxima), per N^2 (u = 2^-53). A
# computed score or z bound is built from at most four sums of N terms, each
# term at most 2 in size once scaled, and a sum taken in any order is within
# 2 (N - 1) N u of the exact sum of its terms; the roundings inside each term,
# the square root's and the cosine's included, add under 60 u a term. So a
# computed score lies within 8 N^2 u + 60 N u of what its computed bounds say,
# and a test that sets one sample's upper bound against another sample's lower
# bound needs twice that: under 64 N^2 u for N >= 3. N^2 2^-44 = 512 N^2 u
# leaves eightfold room and is still only 4e-12 at N = 8.
_SWEEP_MARGIN = 2.0 ** -44


@dataclass(frozen=True)
class WitnessInputs:
    """The macroscopic inputs a witness value was computed from.

    For finite sources ``u`` and ``m`` are chain totals; for
    thermodynamic-limit sources (``n_sites`` None) they are per-site
    densities.
    """

    u: float
    m: float
    b: float
    j: float
    n_sites: int | None


@dataclass(frozen=True)
class WitnessReport:
    """Witness value W = |U + B*M|/(N*|J|) with its verdict and provenance."""

    value: float
    entangled: bool
    source: str
    inputs: WitnessInputs
    threshold: float = THRESHOLD

    def to_dict(self) -> dict:
        return {
            "W": self.value,
            "threshold": self.threshold,
            "entangled": self.entangled,
            "source": self.source,
            "inputs": {
                "U": self.inputs.u,
                "M": self.inputs.m,
                "B": self.inputs.b,
                "J": self.inputs.j,
                "n_sites": self.inputs.n_sites,
            },
        }


def _report(u, m, b, j: float, n: int | None, source: str, u_plus_bm=None) -> WitnessReport:
    """The report of W = |U + B*M|/(N*|J|), or |u + B*m|/|J| per site where ``n`` is None.

    ``j`` and ``n`` come checked; ``source`` is the calling route's own label.
    A closed form of U + B*M (``u_plus_bm``) avoids the cancellation of the
    N*B terms in the sum of U and B*M; the report still carries U and M. A
    NaN or infinite U, M or B would yield a meaningless verdict (SpecError);
    finite inputs whose W overflows raise FloatingPointError.
    """
    u, m, b = float(u), float(m), float(b)
    if not math.isfinite(u + m + b):  # or finite inputs whose sum overflows
        for name, value in (("U", u), ("M", m), ("B", b)):
            if not math.isfinite(value):
                raise SpecError(f"witness input {name} must be finite, got {value}")
    u_plus_bm = u + b * m if u_plus_bm is None else float(u_plus_bm)
    scale = abs(j) if n is None else n * abs(j)
    value = abs(u_plus_bm) / scale
    if value == math.inf:
        raise FloatingPointError(f"W = |U + B*M|/(N|J|) = {abs(u_plus_bm):g}/{scale:g} "
                                 "overflows the float range")
    inputs = frozen_instance(WitnessInputs, {"u": u, "m": m, "b": b, "j": j, "n_sites": n})
    return frozen_instance(WitnessReport, {"value": value, "entangled": value > THRESHOLD,
                                           "source": source, "inputs": inputs,
                                           "threshold": THRESHOLD})


def witness_value(u, m, b, j, n_sites) -> WitnessReport:
    """Evaluate W = |U + B*M| / (N*|J|) from measured totals.

    U must be referenced to zero at infinite temperature (the natural
    convention here, since every Hamiltonian term is traceless). The
    verdict is W > 1; anything else is merely "not detected". Finite
    inputs whose W overflows raise FloatingPointError.
    """
    j = require_coupling(j, "witness")
    return _report(u, m, b, j, require_count(n_sites, "n_sites"), SOURCE_EXTERNAL)


def witness_from_totals(spec, u, m) -> WitnessReport:
    """:func:`witness_value` of measured totals U and M on the chain ``spec``: J = Jx, B, N.

    ``spec`` is checked as :func:`witness_from_model` checks it, except for
    a ring's n_sites >= 3: that rule keeps a Hamiltonian from counting a
    bond twice, and measured totals have no Hamiltonian to build.
    :func:`witness_value` checks the count itself.
    """
    vspec = validate_spec(replace(spec, n_sites=None))
    _eligible_family(vspec.family)
    return witness_value(u, m, vspec.b, vspec.jx, spec.n_sites)


def per_site_witness_report(u_per_site, m_per_site, b, j) -> WitnessReport:
    """Report W = |u + B*m| / |J| from per-site densities (N -> infinity)."""
    return _report(u_per_site, m_per_site, b, require_coupling(j, "witness"), None,
                   SOURCE_THERMODYNAMIC_LIMIT)


def _eligible_family(family) -> str:
    """``family`` lowercased; SpecError unless the witness proofs cover it (XXX, XX)."""
    family = str(family).lower()
    if family not in WITNESS_ELIGIBLE_FAMILIES:
        raise SpecError(
            f"family {family!r} is not witness-eligible (proofs cover {WITNESS_ELIGIBLE_FAMILIES})")
    return family


def witness_from_correlators(bond_correlators, n_sites, family) -> float:
    """(1/N)|sum_bonds (xx + yy + zz)|, dropping zz for the XX family.

    This is the correlator side of the witness identity; it must match
    :func:`witness_value` on the same thermal state to near machine
    precision. A ring has N bonds and an open chain N - 1; any other count,
    or a ring of fewer than three sites (as :func:`validate_spec` rules), is
    a SpecError.
    """
    with_zz = _eligible_family(family) == FAMILY_XXX
    n = require_count(n_sites, "n_sites")
    bound = 1.0 + _CORRELATOR_SLOP
    total = 0.0
    bonds = 0
    for bonds, (xx, yy, zz) in enumerate(bond_correlators, 1):
        xx, yy, zz = float(xx), float(yy), float(zz)
        if not (abs(xx) <= bound and abs(yy) <= bound and abs(zz) <= bound):  # NaN fails
            c = next(c for c in (xx, yy, zz) if not abs(c) <= bound)
            raise SpecError(f"correlator component {c} outside [-1, 1]")
        total += xx + yy + zz if with_zz else xx + yy
    if bonds != n - 1 and not bonds == n >= 3:
        ring = f"a ring has {n} bonds" if n >= 3 else "a ring needs n_sites >= 3"
        raise SpecError(f"{bonds} bond correlators for {n} sites: {ring}, an open chain {n - 1}")
    return abs(total) / n


def product_state_witness(bloch_vectors, family, boundary=BOUNDARY_PERIODIC) -> float:
    """Witness value of a pure product state given one Bloch vector per site.

    Product-state correlators factorize, <s_i^a s_j^a> = u_i[a]*u_j[a], so
    the witness is (1/N)|sum_bonds u_i . u_j| (xy components only for XX).
    ``boundary`` is read as :class:`ModelSpec` reads it (case-insensitive),
    and a ring needs three sites, as there.
    """
    u = np.asarray(bloch_vectors, dtype=float)
    if u.ndim != 2 or u.shape[1] != 3:
        raise SpecError(f"expected (n_sites, 3) Bloch vectors, got shape {u.shape}")
    if u.shape[0] == 0:
        raise SpecError("expected at least one Bloch vector, got an empty (0, 3) array")
    norms = np.linalg.norm(u, axis=1)
    if not np.max(np.abs(norms - 1.0)) <= 1e-9:  # a NaN component fails too
        raise SpecError("Bloch vectors must be unit length")
    family = _eligible_family(family)
    ring = require_boundary(boundary) == BOUNDARY_PERIODIC
    if ring:
        require_ring(u.shape[0])
    v = u[:, :3 if family == FAMILY_XXX else 2]
    partner = np.roll(v, -1, axis=0) if ring else v[1:]
    total = float(np.einsum("na,na->", v[:partner.shape[0]], partner))
    return abs(total) / u.shape[0]


def _ring_bonds(op, x, n, out):
    """out[i] = op(x[i], x[i + 1]) over rings of n consecutive sites of the flat x.

    Each ring's last site pairs with its first, so ``out`` holds what
    op(x, np.roll(x, -1)) gives per ring, without the roll's copy.
    """
    op(x[:-1], x[1:], out=out[:-1])
    op(x[n - 1::n], x[::n], out=out[n - 1::n])
    return out


def separable_sweep(n_samples, n_sites, family, seed, include_corners: bool = True) -> float:
    """Max witness over random product states on a ring (plus corner states).

    Each site gets an independent Bloch vector uniform on the sphere, drawn
    from two uniforms as z = cos(theta) = 2 u1 - 1 and phi = 2 pi u2: the
    height of a uniform point on the sphere is itself uniform on [-1, 1]
    (Archimedes' hat-box theorem). A bond scores
    u_i . u_j = z_i z_j + r_i r_j cos(phi_i - phi_j), r = sqrt(1 - z^2),
    and the XX family keeps only the r_i r_j cos term, so no vector is
    formed or normalized. The Cauchy-Schwarz bound guarantees the result
    never exceeds 1 beyond roundoff; aligned corner states saturate it
    exactly. Mixed separable states need no sampling: the witness is
    convex, so its maximum over separable states is attained on pure
    products.

    Only samples that could beat the largest score so far get a cosine: a
    bound from z alone, |S| <= |sum z_i z_j| + N - sum z^2, rules out the
    others (see :func:`_sweep_maxima`). With the corners the largest score
    starts at exactly 1, and at 10^5 samples and N = 8 no sample passes the
    bound.

    Samples are drawn and scored in blocks of about 2^15 sites, so memory
    is constant in ``n_samples`` and in ``n_sites`` (a few MiB; only a ring
    of more than 2^15 sites makes a one-sample block larger). Blocks are
    consecutive draws from one generator, so the result is the same bits
    as scoring every sample at once. ``seed`` is None or an integer >= 0
    (SpecError otherwise).
    """
    n_samples = require_count(n_samples, "n_samples")
    n = require_ring(require_count(n_sites, "n_sites"))
    return _sweep_maxima(n_samples, n, (_eligible_family(family),), require_seed(seed),
                         include_corners)[0]


def _largest_sum(dots: np.ndarray) -> float:
    """The largest |row sum| of the (samples, bonds) ``dots``, 0 for no samples."""
    return float(np.max(np.abs(dots.sum(axis=1)), initial=0.0))


def _contenders(largest: dict, room, zz_sum, margin: float) -> np.ndarray:
    """Indices of the rows that may hold a family's largest |score|.

    Each row's xy sum lies in [-``room``, ``room``]; its XXX score adds
    ``zz_sum``, so |score| is at most room + |zz| and at least |zz| - room
    (room and 0 for XX). A row stays if, for some family, its upper bound
    reaches both the largest score so far and every row's lower bound, less
    ``margin``.
    """
    keep = np.zeros(len(room), dtype=bool)
    for family, best in largest.items():
        zz = np.abs(zz_sum) if family == FAMILY_XXX else 0.0
        floor = max(best, float(np.max(zz - room, initial=0.0)))
        keep |= room + zz >= floor - margin
    return np.flatnonzero(keep)


def _sweep_maxima(n_samples: int, n: int, families: tuple, seed,
                  include_corners: bool) -> list[float]:
    """:func:`separable_sweep` of each of ``families`` (eligible, lowercase), all scored on
    the same draws: the XX row sums are taken before the zz term is added.

    A sample's score is S = Z + X, Z = sum_b z_i z_j (0 for XX) and
    X = sum_b r_i r_j cos(phi_i - phi_j). Since r_i r_j <= (r_i^2 + r_j^2)/2
    around the ring and r^2 = 1 - z^2, |X| <= N - sum z^2, which bounds |S|
    from above and from below without a cosine. A sample is scored only if
    its upper bound reaches both its family's largest score so far and
    every lower bound in its block, less ``_SWEEP_MARGIN`` N^2, so no pruned
    sample could have held the maximum; each maximum keeps the bits of
    scoring every sample.

    With ``include_corners`` each largest score starts at exactly N, the
    x-aligned product state's score in both families, and the z bound
    reaches N only if the z are nearly equal or alternate in sign (XXX), or
    are all nearly 0 (XX).
    """
    rng = np.random.default_rng(seed)
    block = min(n_samples, max(1, _SWEEP_BLOCK_SITES // n))
    margin = _SWEEP_MARGIN * n * n
    ones = np.ones(n)
    draws = np.empty((block, n, 2))  # reused by every block, as is a
    a = np.empty(block * n)
    with_zz = FAMILY_XXX in families
    largest = dict.fromkeys(families, float(n) if include_corners else 0.0)
    for start in range(0, n_samples, block):
        m = min(block, n_samples - start)
        uniforms = rng.random(out=draws[:m]).reshape(m, n, 2)
        z, phi = uniforms[..., 0], uniforms[..., 1]  # views: z is formed in place
        z *= 2.0
        z -= 1.0
        room = n - np.multiply(z, z, out=a[:m * n].reshape(m, n)) @ ones  # N - sum z^2
        zz_sum = 0.0
        if with_zz:
            zz_sum = _ring_bonds(np.multiply, z.reshape(m * n), n, a[:m * n]).reshape(m, n) @ ones
        rows = _contenders(largest, room, zz_sum, margin)
        if not len(rows):
            continue

        k = len(rows)
        zs = z[rows].reshape(k * n)
        angles = phi[rows].reshape(k * n)
        angles *= 2.0 * math.pi
        dots = _ring_bonds(np.subtract, angles, n, np.empty(k * n))
        np.cos(dots, out=dots)
        r = np.sqrt(1.0 - zs * zs)
        dots *= _ring_bonds(np.multiply, r, n, a[:k * n])
        dots = dots.reshape(k, n)
        if FAMILY_XX in largest:
            largest[FAMILY_XX] = max(largest[FAMILY_XX], _largest_sum(dots))
        if with_zz:
            dots += _ring_bonds(np.multiply, zs, n, a[:k * n]).reshape(k, n)
            largest[FAMILY_XXX] = max(largest[FAMILY_XXX], _largest_sum(dots))
    return [largest[family] / n for family in families]


def concurrence_from_energy(u, n_sites, j, antiferromagnetic: bool = True) -> float:
    """Nearest-neighbor concurrence of the XXX chain at B = 0 from U alone.

    C = (1/2) max(0, |U|/(N|J|) - 1). In the ferromagnetic regime the
    thermal state carries no pair entanglement at any temperature, so the
    identity is replaced by C = 0 there. Finite inputs whose |U|/(N|J|)
    overflows raise FloatingPointError.
    """
    j = require_coupling(j, "concurrence identity")
    n = require_count(n_sites, "n_sites")
    u = float(u)
    if not math.isfinite(u):  # max(0.0, nan) would read as "no concurrence"
        raise SpecError(f"concurrence input U must be finite, got {u}")
    if not antiferromagnetic:
        return 0.0
    ratio = abs(u) / (n * abs(j))
    if ratio == math.inf:
        raise FloatingPointError(f"|U|/(N|J|) = {abs(u):g}/{n * abs(j):g} overflows the float range")
    return 0.5 * max(0.0, ratio - 1.0)


def witness_from_model(spec, kt: float) -> WitnessReport:
    """Evaluate the witness on a finite chain's exact thermal state."""
    vspec = validate_spec(spec)
    _eligible_family(vspec.family)
    if vspec.n_sites is None:
        raise SpecError(
            "finite n_sites required; use thermolimit.xx_witness for the N -> infinity XX chain")
    obs = thermal_observables(vspec, kt)
    return _report(obs.u, obs.m, vspec.b, require_coupling(vspec.jx, "witness"), vspec.n_sites,
                   SOURCE_FINITE_EXACT)
