"""Exact diagonalization of finite Heisenberg chains, one symmetry sector at a time.

The Hamiltonian acts on N Pauli spins,

    H = s * sum_bonds (Jx sx.sx + Jy sy.sy + Jz sz.sz) - B * sum_j sz_j,

with s = +1 under the ``singlet-ground`` convention and s = -1 under
``as-printed`` (see :mod:`spinwitness.model`). Basis states are bit
strings: site j lives on bit (N-1-j) and bit value 0 means sz = +1, so
basis index 0 is the all-up state. In this basis sx.sx and sy.sy both map a
state to its double-flip partner with a real coefficient, s (Jx + Jy) for an
antiparallel pair and s (Jx - Jy) for a parallel one, hence H is real
symmetric.

A double flip keeps the parity of the number of down spins, and when
Jx == Jy it only moves antiparallel pairs, so it keeps that number too. H
is therefore block diagonal: in the N + 1 total-S^z sectors (basis states
of fixed popcount) when Jx == Jy, otherwise in the two S^z-parity
sectors. Each block is assembled from index tables that depend only on
(N, boundary, conserved quantity) and diagonalized by its own
`numpy.linalg.eigh` call; no 2^N x 2^N matrix is formed. Every state of a
total-S^z sector has sum_j sz_j = N - 2k, so there B only shifts the
block's energies by -B (N - 2k): those eigensystems are cached without B,
and one diagonalization serves every field. :func:`build_hamiltonian`
assembles the dense matrix, which serves as an independent oracle.

Thermal averages never special-case T -> 0: weights are
exp(-beta (E - E0)) normalized through a log-sum-exp partition function, so
lowering kT simply concentrates weight on the ground multiplet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import (
    BOUNDARY_PERIODIC,
    SpecError,
    ThermalPoint,
    ValidatedSpec,
    validate_spec,
)

# Exact-diagonalization cap: at N = 14 the widest total-S^z block is 3432
# and a parity block 8192. Deliberately a plain module attribute so callers
# can raise it at their own risk.
SITE_CAP = 14

# A cached eigensystem holds sum_k dim_k^2 floats. At N = 14 that is
# C(28, 14) * 8 B ~ 320 MB in total-S^z sectors and 1.1 GB in the two parity
# sectors (a dense one would be 2 GB); keep the cache small.
_EIG_CACHE_SIZE = 8

_DEGENERACY_TOL = 1e-9

_SIGMA_YY = np.array([[0.0, 0.0, 0.0, -1.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0, 0.0],
                      [-1.0, 0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class ThermalObservables:
    """Thermal expectation values of one finite chain at one temperature.

    ``u`` is the total internal energy <H>, ``m`` the total magnetization
    sum_j <sz_j>, ``bond_correlators`` one (xx, yy, zz) triple per bond in
    bond-list order, and ``log_partition`` is ln Z (NaN for ground-multiplet
    averages, which carry no temperature).
    """

    u: float
    m: float
    bond_correlators: tuple[tuple[float, float, float], ...]
    log_partition: float


@dataclass(frozen=True, eq=False)
class PairState:
    """A two-qubit density matrix (unit trace, Hermitian, PSD)."""

    matrix: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"pair state must be 4x4, got shape {rho.shape}")
        if abs(np.trace(rho) - 1.0) > 1e-12:
            raise ValueError(f"pair state trace {np.trace(rho)} is not 1")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("pair state is not Hermitian")
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] < -1e-12:
            raise ValueError("pair state is not positive semidefinite")
        object.__setattr__(self, "matrix", rho)


def bond_list(n_sites: int, boundary: str) -> tuple[tuple[int, int], ...]:
    """Nearest-neighbor site pairs: N-1 for open chains, N for rings."""
    bonds = [(i, i + 1) for i in range(n_sites - 1)]
    if boundary == BOUNDARY_PERIODIC:
        bonds.append((n_sites - 1, 0))
    return tuple(bonds)


def _require_finite(vspec: ValidatedSpec) -> int:
    if vspec.n_sites is None:
        raise SpecError("exact diagonalization requires a finite n_sites")
    if vspec.n_sites > SITE_CAP:
        raise SpecError(
            f"n_sites={vspec.n_sites} exceeds the exact-diagonalization cap "
            f"{SITE_CAP} (raise spinwitness.exactdiag.SITE_CAP to override)")
    return vspec.n_sites


def _site_z(n_sites: int) -> np.ndarray:
    """Table z[j, r] = sz value (+1/-1) of site j in basis state r."""
    r = np.arange(1 << n_sites, dtype=np.int64)
    z = np.empty((n_sites, r.size))
    for j in range(n_sites):
        z[j] = 1.0 - 2.0 * ((r >> (n_sites - 1 - j)) & 1)
    return z


def _flip_mask(n_sites: int, i: int, j: int) -> int:
    return (1 << (n_sites - 1 - i)) | (1 << (n_sites - 1 - j))


def build_hamiltonian(spec) -> np.ndarray:
    """The dense real-symmetric 2^N x 2^N Hamiltonian of a finite spec.

    This is the oracle for the block-diagonal production path, not part of
    it. For each bond (i, j): sz.sz is diagonal, while sx.sx and sy.sy
    connect r to r ^ mask with coefficients 1 and -z_i(r) z_j(r). The
    diagonal also carries the field term -B sum_j sz_j.
    """
    vspec = validate_spec(spec)
    n = _require_finite(vspec)
    s = float(vspec.coupling_sign)
    dim = 1 << n
    z = _site_z(n)
    r = np.arange(dim, dtype=np.int64)

    h = np.zeros((dim, dim))
    diag = -vspec.b * z.sum(axis=0)
    for i, j in bond_list(n, vspec.boundary):
        zij = z[i] * z[j]
        diag += s * vspec.jz * zij
        h[r ^ _flip_mask(n, i, j), r] += s * (vspec.jx - vspec.jy * zij)
    h[r, r] += diag
    return h


class _Sector(NamedTuple):
    """One diagonal block: its basis states and its off-diagonal pattern."""

    states: np.ndarray   # basis indices in the block, ascending
    span: slice          # the block's rows in the per-state tables of _Basis
    flips: np.ndarray    # flat indices (to * dim + from) of the bond flips in the block
    n_antiparallel: int  # flips[:n_antiparallel] move antiparallel pairs, the rest parallel


class _Basis(NamedTuple):
    """The blocks of one chain geometry, with per-state tables in block order."""

    sectors: tuple[_Sector, ...]
    states: np.ndarray     # every basis index, block after block
    zsum: np.ndarray       # sum_j sz_j of each state
    zz_sum: np.ndarray     # sum_bonds sz_i sz_j of each state
    bond_zz: np.ndarray    # (n_bonds, 2^N): sz_i sz_j of each bond and state
    flip_slot: np.ndarray  # for every flip of every block: its bond, + n_bonds if parallel


def _partners(states: np.ndarray, mask: int):
    """Positions (to, from) of the pairs (state ^ mask, state) inside ``states``."""
    partner = states ^ mask
    to = np.minimum(np.searchsorted(states, partner), states.size - 1)
    inside = states[to] == partner
    return to[inside], np.flatnonzero(inside)


@lru_cache(maxsize=64)
def _basis(n_sites: int, boundary: str, conserve_sz: bool) -> _Basis:
    """Block tables of an N-site chain; no coupling or field enters them.

    Blocks are the total-S^z sectors (ordered by the number of down spins
    k) when ``conserve_sz``, otherwise the even and odd parity sectors.
    """
    z = _site_z(n_sites)
    downs = np.rint((n_sites - z.sum(axis=0)) / 2.0).astype(np.int64)
    label = downs if conserve_sz else downs % 2
    states = np.argsort(label, kind="stable")  # by block, ascending inside each
    bonds = bond_list(n_sites, boundary)
    bond_zz = np.empty((len(bonds), states.size))
    for b, (i, j) in enumerate(bonds):
        bond_zz[b] = (z[i] * z[j])[states]

    sectors, slots, start = [], [np.empty(0, np.int64)], 0
    for dim in np.bincount(label).tolist():
        span = slice(start, start + dim)
        start += dim
        flat, slot = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for b, (i, j) in enumerate(bonds):
            to, frm = _partners(states[span], _flip_mask(n_sites, i, j))
            flat.append(to * dim + frm)
            slot.append(np.where(bond_zz[b, span][frm] < 0.0, b, b + len(bonds)))
        flat, slot = np.concatenate(flat), np.concatenate(slot)
        order = np.argsort(slot >= len(bonds), kind="stable")  # antiparallel flips first
        sectors.append(_Sector(states[span], span, flat[order],
                               int(np.count_nonzero(slot < len(bonds)))))
        slots.append(slot[order])
    return _Basis(tuple(sectors), states, z.sum(axis=0)[states], bond_zz.sum(axis=0),
                  bond_zz, np.concatenate(slots))


@lru_cache(maxsize=_EIG_CACHE_SIZE)
def _eigensystem(vspec: ValidatedSpec):
    """Energies (ascending within each block, in block order) and per-block vectors.

    Cached per spec; ``lru_cache`` serializes insertion, so concurrent
    readers are safe and at worst two threads diagonalize one spec once each.
    """
    basis = _basis(vspec.n_sites, vspec.boundary, vspec.jx == vspec.jy)
    s = float(vspec.coupling_sign)
    diagonal = s * vspec.jz * basis.zz_sum - vspec.b * basis.zsum
    energies = np.empty(diagonal.size)
    vectors = []
    for sec in basis.sectors:
        dim = sec.states.size
        h = np.zeros((dim, dim))
        # Distinct bonds flip distinct masks, so no (to, from) entry repeats.
        h.flat[sec.flips[:sec.n_antiparallel]] = s * (vspec.jx + vspec.jy)
        h.flat[sec.flips[sec.n_antiparallel:]] = s * (vspec.jx - vspec.jy)
        h.flat[::dim + 1] = diagonal[sec.span]
        block_energies, block_vectors = np.linalg.eigh(h)
        energies[sec.span] = block_energies
        block_vectors.setflags(write=False)
        vectors.append(block_vectors)
    energies.setflags(write=False)
    return energies, tuple(vectors)


def _spectrum(vspec: ValidatedSpec):
    """(basis, energies at the spec's field, per-block eigenvectors)."""
    conserve_sz = vspec.jx == vspec.jy
    basis = _basis(vspec.n_sites, vspec.boundary, conserve_sz)
    if not conserve_sz:
        return (basis, *_eigensystem(vspec))
    energies, vectors = _eigensystem(replace(vspec, b=0.0))
    return basis, energies - vspec.b * basis.zsum, vectors


def _boltzmann(energies: np.ndarray, beta: float):
    """Weights exp(-beta (E - E0)) / Z' and ln Z, with E0 the lowest energy."""
    e0 = float(energies.min())
    w = np.exp(-beta * (energies - e0))
    z0 = float(w.sum())
    return w / z0, math.log(z0) - beta * e0


def _block_densities(basis: _Basis, vectors, p: np.ndarray):
    """Yield (sector, rho) with rho = V diag(p) V^T of the block's weighted vectors.

    Vectors of weight exactly 0 (outside the ground multiplet, or with an
    underflowed Boltzmann factor) add nothing and are skipped; a block with
    no weight at all yields rho = None.
    """
    for sec, v in zip(basis.sectors, vectors):
        p_block = p[sec.span]
        keep = p_block > 0.0
        if not keep.any():
            yield sec, None
            continue
        weighted = v[:, keep] * np.sqrt(p_block[keep])
        yield sec, weighted @ weighted.T


def _observables_from_weights(basis: _Basis, energies, vectors, p):
    """(U, M, bond correlators) for the mixture sum_k p[k] |v_k><v_k|.

    A bond's xx sums rho[r ^ mask, r] over its flips; yy weights each term
    by -z_i z_j, i.e. +1 for an antiparallel pair and -1 for a parallel one.
    """
    q = np.zeros(p.size)  # basis-diagonal of rho
    flip_values = []
    for sec, rho in _block_densities(basis, vectors, p):
        if rho is None:
            flip_values.append(np.zeros(sec.flips.size))
            continue
        q[sec.span] = rho.diagonal()
        flip_values.append(rho.ravel()[sec.flips])
    n_bonds = basis.bond_zz.shape[0]
    by_slot = np.bincount(basis.flip_slot, np.concatenate(flip_values),
                          minlength=2 * n_bonds)
    antiparallel, parallel = by_slot[:n_bonds], by_slot[n_bonds:]
    correlators = zip((antiparallel + parallel).tolist(), (antiparallel - parallel).tolist(),
                      (basis.bond_zz @ q).tolist())
    return float(p @ energies), float(q @ basis.zsum), tuple(correlators)


def thermal_observables(spec, kt: float) -> ThermalObservables:
    """U, M, per-bond correlators, and ln Z of the thermal state at kT.

    Weights use the spectrum shifted by its minimum, exp(-beta (E - E0)),
    so no exponential can overflow at low temperature.
    """
    vspec = validate_spec(spec)
    _require_finite(vspec)
    beta = ThermalPoint(float(kt)).beta
    basis, energies, vectors = _spectrum(vspec)
    p, log_partition = _boltzmann(energies, beta)
    u, m, correlators = _observables_from_weights(basis, energies, vectors, p)
    return ThermalObservables(u=u, m=m, bond_correlators=correlators,
                              log_partition=log_partition)


def ground_state_energy(spec) -> float:
    """Lowest eigenvalue of the chain Hamiltonian."""
    vspec = validate_spec(spec)
    _require_finite(vspec)
    return float(_spectrum(vspec)[1].min())


def ground_state_observables(spec) -> ThermalObservables:
    """U, M, correlators averaged uniformly over the ground multiplet.

    This is the T -> 0 limit of the thermal state; ``log_partition`` is NaN
    since no temperature is involved. The multiplet may span several blocks.
    """
    vspec = validate_spec(spec)
    _require_finite(vspec)
    basis, energies, vectors = _spectrum(vspec)
    e0 = energies.min()
    scale = max(1.0, abs(e0))
    members = (energies - e0) < _DEGENERACY_TOL * scale
    p = members / members.sum()
    u, m, correlators = _observables_from_weights(basis, energies, vectors, p)
    return ThermalObservables(u=u, m=m, bond_correlators=correlators,
                              log_partition=float("nan"))


def thermo_consistency(spec, kt: float) -> tuple[float, float]:
    """Residuals of U against -d(lnZ)/d(beta) and M against (1/beta) d(lnZ)/dB.

    Both derivatives are central finite differences with relative steps
    (1e-4 in beta, 1e-4*kT in B, the natural lnZ variation scales), and the
    residuals are normalized by max(1, |U|) and max(1, |M|).
    """
    vspec = validate_spec(spec)
    _require_finite(vspec)
    beta = ThermalPoint(float(kt)).beta
    obs = thermal_observables(vspec, kt)

    h_beta = 1e-4 * beta
    lnz_up = thermal_observables(vspec, 1.0 / (beta + h_beta)).log_partition
    lnz_dn = thermal_observables(vspec, 1.0 / (beta - h_beta)).log_partition
    u_residual = abs(obs.u + (lnz_up - lnz_dn) / (2.0 * h_beta)) / max(1.0, abs(obs.u))

    h_b = 1e-4 * float(kt)
    lnz_bup = thermal_observables(replace(vspec, b=vspec.b + h_b), kt).log_partition
    lnz_bdn = thermal_observables(replace(vspec, b=vspec.b - h_b), kt).log_partition
    m_fd = (lnz_bup - lnz_bdn) / (2.0 * h_b) / beta
    m_residual = abs(obs.m - m_fd) / max(1.0, abs(obs.m))
    return u_residual, m_residual


def reduced_pair_state(spec, kt: float, site_pair: tuple[int, int]) -> PairState:
    """Partial trace of the thermal state down to two sites.

    The returned 4x4 matrix is in the |s_a s_b> product basis with
    s_pair[0] first; basis order (uu, ud, du, dd). The thermal state is
    real and conserves S^z parity, so every two-site Pauli expectation
    with an odd number of x/y factors, or with one x and one y, vanishes:
    rho = (1/4) sum over {1, z_a, z_b, z_a z_b, x_a x_b, y_a y_b} of
    <P> P, each <P> summed block by block.
    """
    vspec = validate_spec(spec)
    n = _require_finite(vspec)
    a, b = (int(site_pair[0]), int(site_pair[1]))
    if not (0 <= a < n and 0 <= b < n):
        raise SpecError(f"site pair {site_pair} out of range for n_sites={n}")
    if a == b:
        raise SpecError("site pair must name two distinct sites")

    beta = ThermalPoint(float(kt)).beta
    basis, energies, vectors = _spectrum(vspec)
    p, _ = _boltzmann(energies, beta)
    z_a, z_b = (1.0 - 2.0 * ((basis.states >> (n - 1 - site)) & 1) for site in (a, b))
    z_ab = z_a * z_b
    mask = _flip_mask(n, a, b)
    q = np.zeros(p.size)
    xx = yy = 0.0
    for sec, rho in _block_densities(basis, vectors, p):
        if rho is None:
            continue
        q[sec.span] = rho.diagonal()
        to, frm = _partners(sec.states, mask)
        values = rho[to, frm]
        xx += float(values.sum())
        yy -= float(values @ z_ab[sec.span][frm])
    za, zb, zab = float(q @ z_a), float(q @ z_b), float(q @ z_ab)
    rho = np.diag([1.0 + za + zb + zab, 1.0 + za - zb - zab,
                   1.0 - za + zb - zab, 1.0 - za - zb + zab])
    rho[0, 3] = rho[3, 0] = xx - yy
    rho[1, 2] = rho[2, 1] = xx + yy
    return PairState(rho / 4.0)


def concurrence(pair) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1].

    Uses the spin-flipped product sqrt(rho) rho~ sqrt(rho) (Hermitian PSD,
    same square-root eigenvalues as rho rho~ but numerically better
    behaved): C = max(0, l1 - l2 - l3 - l4) with the l's descending.
    """
    if not isinstance(pair, PairState):
        pair = PairState(pair)
    rho = pair.matrix
    evals, evecs = np.linalg.eigh(rho)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    flipped = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(sqrt_rho @ flipped @ sqrt_rho), 0.0, None))
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))
