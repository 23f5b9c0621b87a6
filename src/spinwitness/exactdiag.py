"""Exact diagonalization of finite Heisenberg chains, one symmetry block at a time.

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
sectors. Every state of a total-S^z sector has sum_j sz_j = N - 2k, so
there B only shifts the energies by -B (N - 2k): those eigensystems are
cached without B, and one diagonalization serves every field. At B = 0,
flipping every spin maps sector k onto sector N - k with the same
energies, so only k <= N/2 is diagonalized. For even N that spin
inversion Z also maps sector k = N/2, where B does not act, onto itself,
so that sector is solved as its two Z-parity halves, each half the size
(Sandvik, arXiv:1101.3281, section 4.2; H. Q. Lin, PRB 42, 6561 (1990)).
Energies then ascend inside each half only, not across the sector.

A ring also commutes with the translation T (site j -> j+1), so each
sector splits further by lattice momentum q. A representative a (the
smallest state of its T-orbit, orbit size R_a) spans the momentum state

    |a, q> = R_a^(-1/2) sum_{l < R_a} e^(-2 pi i q l / N) T^l |a>,

which exists only when q R_a = 0 mod N. A bond flip taking a to T^l b adds
c e^(2 pi i q l / N) sqrt(R_a / R_b) to <b, q|H|a, q> (Sandvik,
arXiv:1101.3281, section 4). Block N - q is the complex conjugate of block
q, so only q <= N/2 is diagonalized and 0 < q < N/2 counts twice. An open
chain is the same construction with a translation group of order 1: every
state is its own representative and only q = 0 exists. Both boundaries
share one layout and build each block's H from one sparse table of four
coupling-free operators: sum_j sz_j and, summed over a tuple of site
pairs, sz.sz and the flips that move an antiparallel or a parallel pair.
The blocks of k = N/2 are laid out in their Z-parity halves, and blocks
of equal size are stacked into one `numpy.linalg.eigh` call; 1 x 1 blocks
need none.

Only the readers differ. A ring's thermal state commutes with T, so every
ring bond has the same correlators: its eigensystem stores, per
eigenstate, <M> and the translation sums of the bond operators (diagonal
ones read as sum_i |v_i|^2 diag_i, flip ones multiplied into the vectors
only where they have entries), and any average is one weighted sum over
that table. An open chain stores only energies and <M>; each call forms
the density (V sqrt p)(V sqrt p)^T of every stack of equal-size blocks and
reads it pair by pair. No 2^N x 2^N matrix is formed;
:func:`build_hamiltonian` assembles the dense matrix, which serves as an
independent oracle.

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
    BOUNDARY_OPEN,
    BOUNDARY_PERIODIC,
    SpecError,
    ThermalPoint,
    ValidatedSpec,
    validate_spec,
)

# Exact-diagonalization cap: at N = 14 the widest open-chain block is 3003
# (total S^z, k = 6; k = 7 is solved as two halves of 1716) or 8192 (parity),
# the widest ring momentum block 217 or 596. Deliberately a plain module
# attribute so callers can raise it at their own risk.
SITE_CAP = 14

# A cached eigensystem holds the vectors of its solved blocks. At N = 14 an
# open chain's are about 160 MB in total-S^z sectors (k <= N/2) and 1.1 GB in
# the two parity sectors (a dense one would be 2 GB), a ring's 13 MB and
# 80 MB. Keep the cache small.
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


@lru_cache(maxsize=16)
def _site_z(n_sites: int) -> np.ndarray:
    """Table z[j, r] = sz value (+1/-1) of site j in basis state r (read-only)."""
    r = np.arange(1 << n_sites, dtype=np.int64)
    z = np.empty((n_sites, r.size))
    for j in range(n_sites):
        z[j] = 1.0 - 2.0 * ((r >> (n_sites - 1 - j)) & 1)
    z.setflags(write=False)
    return z


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
    r = np.arange(dim, dtype=np.int64)

    h = np.zeros((dim, dim))
    diag = -vspec.b * _site_z(n).sum(axis=0)
    for mask, zij in zip(*_pair_operators(n, bond_list(n, vspec.boundary))):
        diag += s * vspec.jz * zij
        h[r ^ mask, r] += s * (vspec.jx - vspec.jy * zij)
    h[r, r] += diag
    return h


def _boltzmann(energies: np.ndarray, beta: float, multiplicity):
    """Weights g exp(-beta (E - E0)) / Z' and ln Z, with E0 the lowest energy.

    ``multiplicity`` g counts the states each energy stands for.
    """
    e0 = float(energies.min())
    w = multiplicity * np.exp(-beta * (energies - e0))
    z0 = float(w.sum())
    return w / z0, math.log(z0) - beta * e0


def _ground_weights(energies: np.ndarray, multiplicity) -> np.ndarray:
    """Uniform weights over the ground multiplet (which may span several blocks)."""
    e0 = energies.min()
    members = multiplicity * ((energies - e0) < _DEGENERACY_TOL * max(1.0, abs(e0)))
    return members / members.sum()


def _pair_matrix(za: float, zb: float, zab: float, xx: float, yy: float) -> PairState:
    """The two-site state (1/4) sum over {1, z_a, z_b, z_a z_b, x_a x_b, y_a y_b} of <P> P."""
    rho = np.diag([1.0 + za + zb + zab, 1.0 + za - zb - zab,
                   1.0 - za + zb - zab, 1.0 - za - zb + zab])
    rho[0, 3] = rho[3, 0] = xx - yy
    rho[1, 2] = rho[2, 1] = xx + yy
    return PairState(rho / 4.0)


# ---------------------------------------------------------------------------
# Symmetry blocks: momentum blocks of each total-S^z or parity sector. An open
# chain is a ring whose translation group has order 1.


class _Group(NamedTuple):
    """Blocks of one size, diagonalized by one stacked eigh."""

    reps: np.ndarray      # (m, d): each block's representatives, ascending
    orbits: np.ndarray    # (m, d): site states each basis state spans: the orbit size R
                          # of its representative, 2R for a spin-inversion pair
    momenta: np.ndarray   # (m,): q of each block
    parity: np.ndarray    # (m,): +1 or -1 for the spin-inversion halves of k = N/2, else 0
    dtype: type           # float when every block has q = 0 or q = N/2


class _Layout(NamedTuple):
    """Block layout of one chain; eigenstates are numbered group by group."""

    order: int                # of the translation group: N for a ring, 1 for an open chain
    conserve_sz: bool
    groups: tuple[_Group, ...]
    rep: np.ndarray           # representative of every basis state
    shift: np.ndarray         # l with state = T^l rep, for every basis state
    solved: int               # eigenstates solved by the groups; the rest are images
    source: np.ndarray        # every eigenstate's solved state: its own, then the
                              # spin-flip images of k < N/2 (total S^z only)
    multiplicity: np.ndarray  # per eigenstate: 2 for 0 < q < N/2 (q and N - q), else 1


class _Terms(NamedTuple):
    """One group's operators for a tuple of site pairs (i, j), summed, without couplings.

    The four layers are sum_j sz_j over every site, the sum of sz_i sz_j
    over the pairs, and the sums of the pair flips that move an
    antiparallel and a parallel pair. ``values`` holds them row by row at
    the cells ``flat`` of the group's (m, d, d) stack of blocks that any of
    them fills; the first two are diagonal.
    """

    flat: np.ndarray      # distinct indices into the (m, d, d) stack
    values: np.ndarray    # (4, cells): every layer's entry at each cell
    diagonal: np.ndarray  # (2, m, 1, d): the diagonal layers, block by block
    flips: slice          # the rows of ``values`` whose flip layers have entries here
    apart: tuple | None   # open chains: the pairs' terms kept apart, as (zz, cells,
                          # values, slots): the (pairs, m d) sz_i sz_j of every state,
                          # and per flip its cell, its entry and its slot, the pair's
                          # index plus len(pairs) for a parallel pair


class _Eigensystem(NamedTuple):
    """A chain's energies, per-eigenstate table and stacked vectors, numbered as in _Layout."""

    layout: _Layout
    table: np.ndarray     # per eigenstate: its energy, its <M> and, for rings only, its
                          # expectation of the other layers of the bond _Terms
    vectors: tuple        # per group, the (m, d, d) stacked eigenvectors
    pair_layers: dict     # rings: distance d > 1 -> rows 2-4 of the table for pairs
                          # (i, i+d), filled on first use

    @property
    def energies(self) -> np.ndarray:
        return self.table[0]

    @property
    def magnetization(self) -> np.ndarray:
        return self.table[1]

    @property
    def multiplicity(self) -> np.ndarray:
        return self.layout.multiplicity


class _RingEigensystem(_Eigensystem):
    """A ring's eigensystem, read through its per-eigenstate table."""

    __slots__ = ()

    def observables(self, n_sites: int, energies: np.ndarray, p: np.ndarray):
        """(U, M, bond correlators): every bond gets the translation average."""
        m, zz, antiparallel, parallel = (self.table[1:] @ p).tolist()
        bond = ((antiparallel + parallel) / n_sites, (antiparallel - parallel) / n_sites,
                zz / n_sites)
        return float(p @ energies), m, (bond,) * n_sites

    def pair_state(self, n_sites: int, p: np.ndarray, a: int, b: int) -> PairState:
        """The (a, b) pair state from translation sums over pairs (i, i+d).

        The state commutes with T, so it depends on d = b - a only, and the
        pair operators of d and N - d are the same sums.
        """
        n = n_sites
        distance = min((b - a) % n, (a - b) % n)
        layers = self.table[2:] if distance == 1 else self._pair_layers(n, distance)
        z = float(p @ self.magnetization) / n
        zz, antiparallel, parallel = (layers @ p / n).tolist()
        return _pair_matrix(z, z, zz, antiparallel + parallel, antiparallel - parallel)

    def _pair_layers(self, n_sites: int, distance: int) -> np.ndarray:
        """Every eigenstate's zz, antiparallel and parallel flip sums at ``distance``.

        Spin flip leaves these three unchanged, so the images share their
        source state's values.
        """
        layers = self.pair_layers.get(distance)
        if layers is None:
            pairs = tuple((i, (i + distance) % n_sites) for i in range(n_sites))
            terms = _terms(n_sites, n_sites, self.layout.conserve_sz, pairs)
            layers = np.concatenate([_expectations(t, v) for t, v in zip(terms, self.vectors)],
                                    axis=1)
            layers = layers[:, self.layout.source][1:]
            layers.setflags(write=False)
            layers = self.pair_layers.setdefault(distance, layers)
        return layers


class _OpenEigensystem(_Eigensystem):
    """An open chain's eigensystem, read through per-call densities of each group."""

    __slots__ = ()

    def observables(self, n_sites: int, energies: np.ndarray, p: np.ndarray):
        """(U, M, bond correlators) for the mixture sum_k p[k] |v_k><v_k|, bond by bond."""
        zz, antiparallel, parallel = self._read(n_sites, p, bond_list(n_sites, BOUNDARY_OPEN))
        correlators = zip((antiparallel + parallel).tolist(),
                          (antiparallel - parallel).tolist(), zz.tolist())
        return float(p @ energies), float(p @ self.magnetization), tuple(correlators)

    def pair_state(self, n_sites: int, p: np.ndarray, a: int, b: int) -> PairState:
        """The (a, b) pair state, read from every group's density."""
        zz, antiparallel, parallel = self._read(n_sites, p, ((min(a, b), max(a, b)),))[:, 0]
        z_a, z_b = self._site_magnetizations(n_sites, p, (a, b))
        return _pair_matrix(z_a, z_b, float(zz), float(antiparallel + parallel),
                            float(antiparallel - parallel))

    def _read(self, n_sites: int, p: np.ndarray, pairs) -> np.ndarray:
        """(3, pairs): the zz, antiparallel-flip and parallel-flip values of each pair.

        Every group's density rho = (V sqrt w)(V sqrt w)^T is formed once and
        read through the tables of all pairs. ``w`` folds each spin-flip
        image's weight onto its source state, since the pair operators are
        even under a global flip. Vectors of weight exactly 0 in every block
        of the group (outside the ground multiplet, or with an underflowed
        Boltzmann factor) add nothing and are skipped.
        """
        root = np.sqrt(np.bincount(self.layout.source, p))
        sums, start = np.zeros(3 * len(pairs)), 0
        for v, terms in zip(self.vectors, _terms(n_sites, 1, self.layout.conserve_sz, pairs)):
            zz, cells, values, slots = terms.apart
            m, d, _ = v.shape
            w = root[start:start + m * d].reshape(m, 1, d)
            start += m * d
            live = (w > 0.0).any(axis=(0, 1))
            if not live.all():
                if not live.any():
                    continue
                v, w = v[:, :, live], w[:, :, live]
            weighted = v * w
            rho = weighted @ weighted.transpose(0, 2, 1)
            sums[:len(pairs)] += zz @ rho.diagonal(axis1=1, axis2=2).ravel()
            sums[len(pairs):] += np.bincount(slots, values * rho.reshape(-1)[cells],
                                             minlength=2 * len(pairs))
        return sums.reshape(3, -1)

    def _site_magnetizations(self, n_sites: int, p: np.ndarray, sites) -> list:
        """<sz_j> of each site j in ``sites``.

        sz_j is odd under a global flip, so an image's weight counts
        negated, and in a spin-inversion half it reads 0, the mean over a
        state and its image.
        """
        solved, source = self.layout.solved, self.layout.source
        signed = p[:solved] - np.bincount(source[solved:], p[solved:], minlength=solved)
        bits = n_sites - 1 - np.array(sites)
        z, start = np.zeros(len(sites)), 0
        for g, v in zip(self.layout.groups, self.vectors):
            m, d = g.reps.shape
            occupation = ((v * v) @ signed[start:start + m * d].reshape(m, d, 1))[..., 0]
            start += m * d
            occupation *= (g.parity == 0)[:, None]
            z += occupation.reshape(-1) @ (1.0 - 2.0 * ((g.reps.reshape(-1, 1) >> bits) & 1))
        return z.tolist()


@lru_cache(maxsize=32)
def _layout(n_sites: int, order: int, conserve_sz: bool) -> _Layout:
    """Block layout of an N-site chain whose translation group has ``order`` elements.

    A ring has order N. An open chain has order 1: every state is its own
    representative, with orbit size 1, and only q = 0 exists. No coupling
    or field enters the layout. Solved blocks are q = 0..order/2 of the
    sectors k = 0..N/2 when ``conserve_sz`` (sector N - k is the spin-flip
    image of k at B = 0), otherwise of both parity sectors. The blocks of
    k = N/2 are solved as their two spin-inversion halves (see
    :func:`_inversion_halves`).
    """
    n = n_sites
    states = np.arange(1 << n, dtype=np.int64)
    images = np.empty((order, states.size), np.int64)  # images[l] = T^l state
    images[0] = states
    for l in range(1, order):  # T: site j -> j+1, i.e. bit N-1-j -> bit N-2-j, cyclically
        images[l] = (images[l - 1] >> 1) | ((images[l - 1] & 1) << (n - 1))
    to_rep = images.argmin(axis=0)
    rep = images[to_rep, states]
    shift = (-to_rep) % order
    period = order // (images == states).sum(axis=0)  # R_a = order / #{l : T^l a = a}
    downs = np.rint((n - _site_z(n).sum(axis=0)) / 2.0).astype(np.int64)
    label = downs if conserve_sz else downs % 2

    blocks = {}  # size -> [(reps, orbits, q, parity, sector)]
    for sector in range(n // 2 + 1) if conserve_sz else (0, 1):
        members = np.flatnonzero((rep == states) & (label == sector))
        for q in range(order // 2 + 1):
            reps = members[q * period[members] % order == 0]
            if conserve_sz and 2 * sector == n:
                halves = _inversion_halves(reps, q, rep, shift, period, order)
            else:
                halves = [(reps, period[reps], 0)]
            for half, orbits, parity in halves:
                if half.size:
                    blocks.setdefault(half.size, []).append((half, orbits, q, parity, sector))
    groups, sectors, momenta = [], [], []
    for size in sorted(blocks):
        reps, orbits, q, parity, sector = (np.array(column) for column in zip(*blocks[size]))
        dtype = complex if (2 * q % order).any() else float
        groups.append(_Group(reps, orbits, q, parity, dtype))
        sectors.append(np.repeat(sector, size))
        momenta.append(np.repeat(q, size))
    sectors, momenta = np.concatenate(sectors), np.concatenate(momenta)
    source = np.arange(sectors.size)
    if conserve_sz:
        source = np.concatenate([source, np.flatnonzero(2 * sectors < n)])
    multiplicity = np.where(2 * momenta[source] % order == 0, 1.0, 2.0)
    for array in (rep, shift, source, multiplicity):
        array.setflags(write=False)
    return _Layout(order, conserve_sz, tuple(groups), rep, shift, sectors.size, source,
                   multiplicity)


def _inversion_halves(reps, q, rep, shift, period, order):
    """The two spin-inversion halves of momentum block q of sector k = N/2.

    Inverting every spin (Z) takes |a, q> to e^(2 pi i q m / N) |b, q>,
    where the inverted a is T^m b (Sandvik, arXiv:1101.3281, section 4.2).
    Each pair a < b spans one state (|a, q> +- Z|a, q>)/sqrt 2 of each
    half, listed under a; it spans the 2 R_a site states of both orbits.
    A state with b = a is its own image times +-1 and lies in one half;
    an open chain has none. Returns (representatives, orbit sizes, parity)
    of the + and - halves.
    """
    inverted = (rep.size - 1) ^ reps
    image = rep[inverted]
    sign = np.where(q * shift[inverted] % order == 0, 1, -1)
    orbits = np.where(image == reps, 1, 2) * period[reps]
    halves = []
    for parity in (1, -1):
        keep = (image > reps) | ((image == reps) & (sign == parity))
        halves.append((reps[keep], orbits[keep], parity))
    return halves


def _pair_operators(n_sites: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """(flip masks, (pairs, 2^N) table of sz_i sz_j) of the site pairs (i, j) in ``pairs``."""
    first, second = np.array(pairs, np.int64).reshape(-1, 2).T
    z = _site_z(n_sites)
    return (1 << (n_sites - 1 - first)) | (1 << (n_sites - 1 - second)), z[first] * z[second]


@lru_cache(maxsize=64)
def _terms(n_sites: int, order: int, conserve_sz: bool,
           pairs: tuple[tuple[int, int], ...]) -> tuple[_Terms, ...]:
    """Per group of :func:`_layout`, the operators summed over the site pairs ``pairs``.

    A ring's H and its pair layers at distance d take every pair (i, i+d);
    an open chain's H and bond reader take its N - 1 bonds, its pair
    reader one pair. A flip taking representative a to a state T^l b adds
    e^(2 pi i q l / N) sqrt(R_a / R_b) to entry (b, a) of block q, with R
    the orbit sizes of :class:`_Group`. In a spin-inversion half of parity
    p, a b whose image b' (inverted b = T^m b') is smaller stands for the
    state listed under b', with the extra factor p e^(2 pi i q m / N); p is
    carried as a sign, since with order 1 it is no power of a root of
    unity. Repeats (several pairs reaching one state) are summed. Phases
    and roots are taken only for entries inside a block.
    """
    n = n_sites
    layout = _layout(n, order, conserve_sz)
    masks, pair_zz = _pair_operators(n, pairs)
    diagonal = np.stack((_site_z(n).sum(axis=0), pair_zz.sum(axis=0)))
    roots = np.exp(2j * np.pi / order * np.arange(order))
    terms = []
    for g in layout.groups:
        m, d = g.reps.shape
        block = np.arange(m)[:, None, None]
        q = g.momenta[:, None, None]
        partner = g.reps[:, :, None] ^ masks
        target = layout.rep[partner]
        turns = q * layout.shift[partner]  # the phase is e^(2 pi i turns / N)
        negate = None
        if g.parity.any():
            inverted = ((1 << n) - 1) ^ target
            image = layout.rep[inverted]
            listed = (g.parity[:, None, None] != 0) & (image < target)
            target = np.where(listed, image, target)
            turns = turns + listed * q * layout.shift[inverted]
            negate = listed & (g.parity[:, None, None] < 0)
        # Representatives keyed by (block, state) are ascending over the whole group.
        keys = ((np.arange(m)[:, None] << n) + g.reps).ravel()
        target = (block << n) + target
        found = np.minimum(np.searchsorted(keys, target), keys.size - 1)
        inside = keys[found] == target
        block, row, pair = np.nonzero(inside)
        found = found[inside]
        phase = roots[turns[inside] % order]
        values = (phase if g.dtype is complex else phase.real) * np.sqrt(
            g.orbits[block, row] / g.orbits.ravel()[found])
        if negate is not None:
            values[negate[inside]] *= -1.0
        cells = (block * d + found % d) * d + row
        parallel = pair_zz[pair, g.reps[block, row]] > 0.0
        apart = None
        if order == 1:
            apart = (pair_zz[:, g.reps.ravel()], cells, values, pair + len(pairs) * parallel)
        on_diagonal = (np.arange(m)[:, None] * (d * d) + np.arange(d) * (d + 1)).ravel()
        cells = np.concatenate((on_diagonal, on_diagonal, cells))
        layer = np.concatenate((np.zeros(m * d, np.int64), np.ones(m * d, np.int64),
                                2 + parallel))
        values = np.concatenate((diagonal[:, g.reps].reshape(-1), values))
        flat, column = np.unique(cells, return_inverse=True)
        where = layer * flat.size + column
        summed = np.bincount(where, values.real, minlength=4 * flat.size)
        if g.dtype is complex:  # phases are +-1 for q = 0 and q = N/2
            summed = summed + 1j * np.bincount(where, values.imag, minlength=4 * flat.size)
        filled = 2 + np.flatnonzero(np.bincount(layer, minlength=4)[2:])  # 2, 3 or both
        flips = slice(filled.min(), filled.max() + 1) if filled.size else slice(2, 2)
        terms.append(_Terms(flat, summed.reshape(4, -1),
                            diagonal[:, g.reps][:, :, None, :], flips, apart))
    return tuple(terms)


def _expectations(terms: _Terms, vectors: np.ndarray) -> np.ndarray:
    """(4, m d): every layer's expectation in every eigenstate (column) of the group.

    A diagonal layer's is sum_i |v_i|^2 diag_i. A flip layer is multiplied
    into the vectors only if it has entries in the group; otherwise its
    expectations are exactly 0, as for the parallel flips in total-S^z
    blocks.
    """
    m, d, _ = vectors.shape
    rows = np.zeros((4, m * d))
    if d == 1:  # every eigenvector is 1, and every cell is on the diagonal
        rows[:, terms.flat] = terms.values.real
        return rows
    bra = vectors.conj()
    rows[:2] = (terms.diagonal @ (bra * vectors).real).reshape(2, -1)
    flips = terms.values[terms.flips]
    if flips.size:
        layers = np.zeros((flips.shape[0], m * d * d), vectors.dtype)
        layers[:, terms.flat] = flips
        products = bra * (layers.reshape(-1, m, d, d) @ vectors)
        rows[terms.flips] = products.real.sum(axis=-2).reshape(flips.shape[0], -1)
    return rows


@lru_cache(maxsize=_EIG_CACHE_SIZE)
def _eigensystem(vspec: ValidatedSpec) -> _Eigensystem:
    """Energies, observable table and stacked vectors of a chain, cached per spec.

    ``lru_cache`` serializes insertion, so concurrent readers are safe and
    at worst two threads diagonalize one spec once each. Total-S^z specs
    arrive here with B = 0 only, where sector N - k is the spin-flip image
    of k: the same energies and table, with M negated. Each group's H is
    assembled straight from the :class:`_Terms` of the chain's bonds. A
    ring's table holds every layer's expectation; an open chain's holds
    only <M>, since its reader works from densities.
    """
    n = vspec.n_sites
    periodic = vspec.boundary == BOUNDARY_PERIODIC
    order = n if periodic else 1
    conserve_sz = vspec.jx == vspec.jy
    layout = _layout(n, order, conserve_sz)
    s = float(vspec.coupling_sign)
    couplings = np.array([-vspec.b, s * vspec.jz, s * (vspec.jx + vspec.jy),
                          s * (vspec.jx - vspec.jy)])
    table = np.empty((5 if periodic else 2, layout.solved))
    vectors, start = [], 0
    bonds = bond_list(n, vspec.boundary)
    for g, terms in zip(layout.groups, _terms(n, order, conserve_sz, bonds)):
        m, d = g.reps.shape
        h = np.zeros((m, d, d), g.dtype)
        h.reshape(-1)[terms.flat] = couplings @ terms.values
        if d == 1:  # a 1 x 1 block is its own eigensystem
            block_energies, block_vectors = h.real, np.ones_like(h)
        else:
            block_energies, block_vectors = np.linalg.eigh(h)
        rows = table[:, start:start + m * d]
        start += m * d
        rows[0] = block_energies.ravel()
        if periodic:
            rows[1:] = _expectations(terms, block_vectors)
        else:
            rows[1] = (terms.diagonal[0] @ (block_vectors * block_vectors)).ravel()
        block_vectors.setflags(write=False)
        vectors.append(block_vectors)
    table = table[:, layout.source]
    table[1, layout.solved:] *= -1.0  # M of the spin-flip images
    table.setflags(write=False)
    reader = _RingEigensystem if periodic else _OpenEigensystem
    return reader(layout, table, tuple(vectors), {})


# ---------------------------------------------------------------------------
# Public routines


def _spectrum(vspec: ValidatedSpec):
    """(the cached eigensystem, its energies at the spec's field)."""
    if vspec.jx != vspec.jy:
        eig = _eigensystem(vspec)
        return eig, eig.energies
    eig = _eigensystem(replace(vspec, b=0.0))
    return eig, eig.energies - vspec.b * eig.magnetization


def thermal_observables(spec, kt: float) -> ThermalObservables:
    """U, M, per-bond correlators, and ln Z of the thermal state at kT.

    Weights use the spectrum shifted by its minimum, exp(-beta (E - E0)),
    so no exponential can overflow at low temperature.
    """
    vspec = validate_spec(spec)
    _require_finite(vspec)
    beta = ThermalPoint(float(kt)).beta
    eig, energies = _spectrum(vspec)
    p, log_partition = _boltzmann(energies, beta, eig.multiplicity)
    u, m, correlators = eig.observables(vspec.n_sites, energies, p)
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
    eig, energies = _spectrum(vspec)
    p = _ground_weights(energies, eig.multiplicity)
    u, m, correlators = eig.observables(vspec.n_sites, energies, p)
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


def _site_indices(site_pair) -> tuple[int, int]:
    """The two sites of a pair as ints; bools and non-integral values are usage errors."""
    try:
        a, b = site_pair
        if not any(isinstance(site, bool) or int(site) != site for site in (a, b)):
            return int(a), int(b)
    except (TypeError, ValueError, OverflowError):
        pass
    raise SpecError(f"site pair must be two integer site indices, got {site_pair!r}")


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
    a, b = _site_indices(site_pair)
    if not (0 <= a < n and 0 <= b < n):
        raise SpecError(f"site pair {site_pair} out of range for n_sites={n}")
    if a == b:
        raise SpecError("site pair must name two distinct sites")

    beta = ThermalPoint(float(kt)).beta
    eig, energies = _spectrum(vspec)
    p, _ = _boltzmann(energies, beta, eig.multiplicity)
    return eig.pair_state(n, p, a, b)


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
