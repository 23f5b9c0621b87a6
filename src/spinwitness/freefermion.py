"""Jordan-Wigner free-fermion solution of the open XX chain.

Mapping spin-up to an empty fermion site (sz_j = 1 - 2 n_j), the open-chain
XX Hamiltonian

    H = s*J sum_j (sx_j sx_j+1 + sy_j sy_j+1) - B sum_j sz_j

becomes quadratic hopping with single-particle modes

    e_k = 4*s*J*cos(pi k / (N+1)) + 2B,   k = 1..N,

plus the constant offset -B*N, with no boundary or parity term to track.
The cosine values come in +/- pairs, so the mode set -- and with it every
thermal quantity -- is exactly invariant under J -> -J and under the sign
convention s; agreement with exact diagonalization fixes the overall
scaling. This module is the independent large-N oracle bridging finite
chains to the thermodynamic-limit integrals, which it approaches at rate
O(1/N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FAMILY_XX, ModelSpec, SpecError, ThermalPoint, require_count, validate_spec

__all__ = ["ModeSpectrum", "jw_modes", "jw_observables", "jw_observables_for_spec"]


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Single-particle energies of the open XX chain in a field.

    Total many-body energies are sum_k energies[k]*n_k + offset over
    occupations n_k in {0, 1}.
    """

    energies: np.ndarray
    offset: float
    n_sites: int


def jw_modes(n_sites: int, j: float, b: float = 0.0) -> ModeSpectrum:
    """Free-fermion mode energies of the open XX chain.

    Validates the XX spec (so only Jx = Jy, Jz = 0 physics is ever mapped)
    and returns e_k = 4 J cos(pi k/(N+1)) + 2B with offset -B*N.
    """
    n = require_count(n_sites, "n_sites")
    validate_spec(ModelSpec.xx(j=float(j), b=float(b), n_sites=n, boundary="open"))
    k = np.arange(1, n + 1)
    energies = 4.0 * float(j) * np.cos(np.pi * k / (n + 1)) + 2.0 * float(b)
    return ModeSpectrum(energies=energies, offset=-float(b) * n, n_sites=n)


def jw_observables(n_sites: int, kt: float, j: float, b: float = 0.0) -> tuple[float, float]:
    """Per-site (U/N, M/N) of the open XX chain from mode occupations.

    Fermi factors are computed as 0.5*(1 - tanh(beta*e/2)), which cannot
    overflow; U = sum_k e_k f_k + offset and M = N - 2 sum_k f_k.
    """
    beta = ThermalPoint(float(kt)).beta
    modes = jw_modes(n_sites, j, b)
    occupation = 0.5 * (1.0 - np.tanh(0.5 * beta * modes.energies))
    u = float(modes.energies @ occupation) + modes.offset
    m = modes.n_sites - 2.0 * float(occupation.sum())
    return u / modes.n_sites, m / modes.n_sites


def jw_observables_for_spec(spec, kt: float) -> tuple[float, float]:
    """Per-site (U/N, M/N) for a validated open XX ModelSpec."""
    vspec = validate_spec(spec)
    if vspec.family != FAMILY_XX:
        raise SpecError(f"free-fermion oracle covers only the XX family, got {vspec.family!r}")
    if vspec.boundary != "open":
        raise SpecError("free-fermion oracle covers only open boundaries")
    if vspec.n_sites is None:
        raise SpecError("free-fermion oracle needs a finite n_sites")
    return jw_observables(vspec.n_sites, kt, vspec.jx, vspec.b)
