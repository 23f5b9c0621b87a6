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
    FAMILY_XXX,
    WITNESS_ELIGIBLE_FAMILIES,
    SpecError,
    require_count,
    validate_spec,
)

THRESHOLD = 1.0

SOURCE_FINITE_EXACT = "finite-exact"
SOURCE_THERMODYNAMIC_LIMIT = "thermodynamic-limit"
SOURCE_LOWTEMP_APPROX = "lowtemp-approx"
SOURCE_EXTERNAL = "external-measurement"
SOURCES = (SOURCE_FINITE_EXACT, SOURCE_THERMODYNAMIC_LIMIT,
           SOURCE_LOWTEMP_APPROX, SOURCE_EXTERNAL)

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


def _finite_inputs(u, m, b) -> tuple[float, float, float]:
    """(U, M, B) as floats; a NaN or infinite one would yield a meaningless verdict."""
    values = (float(u), float(m), float(b))
    for name, value in zip(("U", "M", "B"), values):
        if not math.isfinite(value):
            raise SpecError(f"witness input {name} must be finite, got {value}")
    return values


def witness_value(u, m, b, j, n_sites, source: str = SOURCE_EXTERNAL) -> WitnessReport:
    """Evaluate W = |U + B*M| / (N*|J|) from measured totals.

    U must be referenced to zero at infinite temperature (the natural
    convention here, since every Hamiltonian term is traceless). The
    verdict is W > 1; anything else is merely "not detected".
    """
    j = float(j)
    if j == 0.0 or not math.isfinite(j):
        raise SpecError("witness undefined for J = 0")
    n = require_count(n_sites, "n_sites")
    if source not in SOURCES:
        raise SpecError(f"unknown witness source {source!r}")
    u, m, b = _finite_inputs(u, m, b)
    value = abs(u + b * m) / (n * abs(j))
    return WitnessReport(value=value, entangled=value > THRESHOLD, source=source,
                         inputs=WitnessInputs(u=u, m=m, b=b, j=j, n_sites=n))


def per_site_witness_report(u_per_site, m_per_site, b, j,
                            source: str = SOURCE_THERMODYNAMIC_LIMIT) -> WitnessReport:
    """Report W = |u + B*m| / |J| from per-site densities (N -> infinity)."""
    j = float(j)
    if j == 0.0 or not math.isfinite(j):
        raise SpecError("witness undefined for J = 0")
    u, m, b = _finite_inputs(u_per_site, m_per_site, b)
    value = abs(u + b * m) / abs(j)
    return WitnessReport(value=value, entangled=value > THRESHOLD, source=source,
                         inputs=WitnessInputs(u=u, m=m, b=b, j=j, n_sites=None))


def witness_from_correlators(bond_correlators, n_sites, family) -> float:
    """(1/N)|sum_bonds (xx + yy + zz)|, dropping zz for the XX family.

    This is the correlator side of the witness identity; it must match
    :func:`witness_value` on the same thermal state to near machine
    precision.
    """
    family = str(family).lower()
    if family not in WITNESS_ELIGIBLE_FAMILIES:
        raise SpecError(
            f"family {family!r} is not witness-eligible (proofs cover {WITNESS_ELIGIBLE_FAMILIES})")
    n = require_count(n_sites, "n_sites")
    total = 0.0
    for triple in bond_correlators:
        xx, yy, zz = (float(c) for c in triple)
        for c in (xx, yy, zz):
            if abs(c) > 1.0 + _CORRELATOR_SLOP:
                raise SpecError(f"correlator component {c} outside [-1, 1]")
        total += xx + yy + (zz if family == FAMILY_XXX else 0.0)
    return abs(total) / n


def product_state_witness(bloch_vectors, family, boundary=BOUNDARY_PERIODIC) -> float:
    """Witness value of a pure product state given one Bloch vector per site.

    Product-state correlators factorize, <s_i^a s_j^a> = u_i[a]*u_j[a], so
    the witness is (1/N)|sum_bonds u_i . u_j| (xy components only for XX).
    """
    u = np.asarray(bloch_vectors, dtype=float)
    if u.ndim != 2 or u.shape[1] != 3:
        raise SpecError(f"expected (n_sites, 3) Bloch vectors, got shape {u.shape}")
    norms = np.linalg.norm(u, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise SpecError("Bloch vectors must be unit length")
    family = str(family).lower()
    if family not in WITNESS_ELIGIBLE_FAMILIES:
        raise SpecError(f"family {family!r} is not witness-eligible")
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


def separable_sweep(n_samples, n_sites, family, seed, include_corners: bool = True) -> float:
    """Max witness over random product states on a ring (plus corner states).

    Each site gets an independent Bloch vector uniform on the sphere
    (normalized Gaussian triple). The Cauchy-Schwarz bound guarantees the
    result never exceeds 1 beyond roundoff; aligned corner states saturate
    it exactly. Mixed separable states need no sampling: the witness is
    convex, so its maximum over separable states is attained on pure
    products.

    Samples are drawn and scored in blocks of about 2^15 site vectors, so
    memory is constant in ``n_samples`` and in ``n_sites`` (a few MiB; only
    a ring of more than 2^15 sites makes a one-sample block larger). Blocks
    are consecutive draws from one generator, so the result is the same
    bits as scoring every sample at once.
    """
    n_samples = require_count(n_samples, "n_samples")
    n = require_count(n_sites, "n_sites")
    if n < 3:
        raise SpecError(f"the sweep samples rings, which need n_sites >= 3, got {n}")
    family = str(family).lower()
    if family not in WITNESS_ELIGIBLE_FAMILIES:
        raise SpecError(f"family {family!r} is not witness-eligible")

    rng = np.random.default_rng(seed)
    components = 3 if family == FAMILY_XXX else 2
    block = max(1, _SWEEP_BLOCK_SITES // n)
    largest = 0.0
    for start in range(0, n_samples, block):
        vecs = rng.normal(size=(min(block, n_samples - start), n, 3))
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        dots = np.einsum("sna,sna->sn", vecs[:, :, :components],
                         np.roll(vecs, -1, axis=1)[:, :, :components])
        largest = max(largest, float(np.max(np.abs(dots.sum(axis=1)))))
    best = largest / n
    if include_corners:
        for corner in _corner_states(n):
            best = max(best, product_state_witness(corner, family))
    return best


def concurrence_from_energy(u, n_sites, j, antiferromagnetic: bool = True) -> float:
    """Nearest-neighbor concurrence of the XXX chain at B = 0 from U alone.

    C = (1/2) max(0, |U|/(N|J|) - 1). In the ferromagnetic regime the
    thermal state carries no pair entanglement at any temperature, so the
    identity is replaced by C = 0 there.
    """
    j = float(j)
    if j == 0.0 or not math.isfinite(j):
        raise SpecError("concurrence identity undefined for J = 0")
    n = require_count(n_sites, "n_sites")
    if not antiferromagnetic:
        return 0.0
    return 0.5 * max(0.0, abs(float(u)) / (n * abs(j)) - 1.0)


def witness_from_model(spec, kt: float) -> WitnessReport:
    """Evaluate the witness on a finite chain's exact thermal state."""
    vspec = validate_spec(spec)
    if not vspec.witness_eligible:
        raise SpecError(
            f"family {vspec.family!r} is not witness-eligible (only XXX and XX are)")
    if vspec.n_sites is None:
        raise SpecError(
            "finite n_sites required; use thermolimit.xx_witness for the N -> infinity XX chain")
    obs = thermal_observables(vspec, kt)
    return witness_value(obs.u, obs.m, vspec.b, vspec.jx, vspec.n_sites,
                         source=SOURCE_FINITE_EXACT)
