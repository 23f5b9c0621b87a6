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
from dataclasses import dataclass

import numpy as np

from .exactdiag import thermal_observables
from .model import (
    BOUNDARY_PERIODIC,
    FAMILY_XX,
    FAMILY_XXX,
    WITNESS_ELIGIBLE_FAMILIES,
    SpecError,
    frozen_instance,
    require_count,
    require_coupling,
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
    precision.
    """
    with_zz = _eligible_family(family) == FAMILY_XXX
    n = require_count(n_sites, "n_sites")
    bound = 1.0 + _CORRELATOR_SLOP
    total = 0.0
    for xx, yy, zz in bond_correlators:
        xx, yy, zz = float(xx), float(yy), float(zz)
        if not (abs(xx) <= bound and abs(yy) <= bound and abs(zz) <= bound):  # NaN fails
            c = next(c for c in (xx, yy, zz) if not abs(c) <= bound)
            raise SpecError(f"correlator component {c} outside [-1, 1]")
        total += xx + yy + zz if with_zz else xx + yy
    return abs(total) / n


def product_state_witness(bloch_vectors, family, boundary=BOUNDARY_PERIODIC) -> float:
    """Witness value of a pure product state given one Bloch vector per site.

    Product-state correlators factorize, <s_i^a s_j^a> = u_i[a]*u_j[a], so
    the witness is (1/N)|sum_bonds u_i . u_j| (xy components only for XX).
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
    v = u[:, :3 if family == FAMILY_XXX else 2]
    partner = np.roll(v, -1, axis=0) if boundary == BOUNDARY_PERIODIC else v[1:]
    total = float(np.einsum("na,na->", v[:partner.shape[0]], partner))
    return abs(total) / u.shape[0]


def _corner_states(n_sites: int):
    """Hand-picked extremal product states: aligned and alternating, z and x."""
    aligned_z = np.tile([0.0, 0.0, 1.0], (n_sites, 1))
    aligned_x = np.tile([1.0, 0.0, 0.0], (n_sites, 1))
    signs = np.where(np.arange(n_sites) % 2 == 0, 1.0, -1.0)[:, None]
    return (aligned_z, aligned_x, aligned_z * signs, aligned_x * signs)


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
    formed or normalized: a site costs two uniforms, one square root and
    one cosine. The Cauchy-Schwarz bound guarantees the result never
    exceeds 1 beyond roundoff; aligned corner states saturate it exactly.
    Mixed separable states need no sampling: the witness is convex, so its
    maximum over separable states is attained on pure products.

    Samples are drawn and scored in blocks of about 2^15 sites, so memory
    is constant in ``n_samples`` and in ``n_sites`` (a few MiB; only a ring
    of more than 2^15 sites makes a one-sample block larger). Blocks are
    consecutive draws from one generator, so the result is the same bits
    as scoring every sample at once.
    """
    n_samples = require_count(n_samples, "n_samples")
    n = require_count(n_sites, "n_sites")
    if n < 3:
        raise SpecError(f"the sweep samples rings, which need n_sites >= 3, got {n}")
    return _sweep_maxima(n_samples, n, (_eligible_family(family),), seed, include_corners)[0]


def _largest_sum(dots: np.ndarray) -> float:
    """The largest |row sum| of the (samples, bonds) ``dots``."""
    return float(np.max(np.abs(dots.sum(axis=1))))


def _sweep_maxima(n_samples: int, n: int, families: tuple, seed,
                  include_corners: bool) -> list[float]:
    """:func:`separable_sweep` of each of ``families`` (eligible, lowercase), all scored on
    the same draws: the XX row sums are taken before the zz term is added."""
    rng = np.random.default_rng(seed)
    block = max(1, _SWEEP_BLOCK_SITES // n)
    largest = dict.fromkeys(families, 0.0)
    for start in range(0, n_samples, block):
        m = min(block, n_samples - start)
        uniforms = rng.random((m, n, 2)).reshape(m * n, 2)
        z, phi = uniforms[:, 0], uniforms[:, 1]  # views: the draws become z and phi in place
        z *= 2.0
        z -= 1.0
        phi *= 2.0 * math.pi
        r = z * z
        np.subtract(1.0, r, out=r)
        np.sqrt(r, out=r)
        dots = _ring_bonds(np.subtract, phi, n, np.empty(m * n))
        np.cos(dots, out=dots)
        pair = _ring_bonds(np.multiply, r, n, np.empty(m * n))
        dots *= pair
        if FAMILY_XX in largest:
            largest[FAMILY_XX] = max(largest[FAMILY_XX], _largest_sum(dots.reshape(m, n)))
        if FAMILY_XXX in largest:
            dots += _ring_bonds(np.multiply, z, n, pair)
            largest[FAMILY_XXX] = max(largest[FAMILY_XXX], _largest_sum(dots.reshape(m, n)))
    corners = _corner_states(n) if include_corners else ()
    return [max([largest[family] / n] + [product_state_witness(c, family) for c in corners])
            for family in families]


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
