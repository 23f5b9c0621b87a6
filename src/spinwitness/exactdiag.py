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
cached without B, and one diagonalization serves every field. They are also
cached without the couplings' common scale and sign: H is linear in its
couplings, H(lambda c) = lambda H(c), so every chain on one ray c keeps the
eigenvectors and the table of one solve at lambda = s (Jx + Jy) (or 1 where
that is 0), and its energies are lambda times those. At B = 0,
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
state is its own representative and only q = 0 exists.

Every block is made real by the reflection R (site j -> N-1-j, which
reverses the bit string) combined with complex conjugation K (Sandvik,
section 4.3, momentum states with reflection). R T R = T^-1, so KR keeps
q and commutes with H for both boundaries, all couplings and any B, and
(KR)^2 = 1. It maps |a, q> to e^(i phi) |c, q>, where R a = T^m c, c is
a representative and phi = 2 pi q m / N. A block keeps its size and
takes the KR-invariant basis

    e^(i phi / 2) |a, q>                     if c = a,
    (|a, q> + KR|a, q>) / sqrt 2,
    (i|a, q> + KR(i|a, q>)) / sqrt 2         if c != a, listed under min(a, c),

in which H and every KR-even operator are real. At q = 0 and q = N/2,
e^(i phi) = +-1, so these states are R-even or R-odd, H does not couple
the two kinds, and the block is solved as its two reflection halves; an
open chain's every block halves. Inside the spin-inversion halves of
k = N/2 the same basis is built from their half states (Z commutes with
T, R and K). Both boundaries share one layout and build each block's H
from one sparse table of four coupling-free operators: sum_j sz_j and,
summed over a tuple of site pairs, sz.sz and the flips that move an
antiparallel or a parallel pair. Blocks of equal size are stacked into
one `numpy.linalg.eigh` call; 1 x 1 blocks need none. No complex number
enters.

Both boundaries also share one reader. The thermal state commutes with
the chain's translations and with R, so sites, or site pairs, in one orbit
of that group read the same. Per eigenstate the eigensystem stores its
energy, sum_j sz_j, the mean sz over each site class (an orbit of sites)
and the mean xx, yy and zz over each bond class: one class of each on a
ring, a site or bond with its mirror image on an open chain. Any average is
then one weighted sum over that table, and a pair reads the rows of its
pair orbit, built once from the vectors. The cache holds tables, not
vectors: only the latest solve's vectors are kept, and a pair orbit of an
older chain solves that chain again. No 2^N x 2^N matrix is formed;
:func:`build_hamiltonian` assembles the dense matrix, which serves as an
independent oracle.

Thermal averages never special-case T -> 0: weights are
exp(-beta (E - E0)) normalized through a log-sum-exp partition function, so
lowering kT simply concentrates weight on the ground multiplet. With
E = lambda e they are exp(-beta lambda (e - e0)), e0 the e of the lowest
energy (the largest e where lambda < 0), so lambda folds into beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .model import (
    BOUNDARY_PERIODIC,
    SIGN_SINGLET_GROUND,
    ModelSpec,
    SpecError,
    frozen_instance,
    require_kt,
    validate_spec,
)

# Exact-diagonalization cap: at N = 14 the widest open-chain block is 1519
# (total S^z, a reflection half of k = 6) or 4160 (a reflection half of a
# parity sector), the widest ring momentum block 217 or 594. Deliberately a
# plain module attribute so callers can raise it at their own risk.
SITE_CAP = 14

# A cached eigensystem holds its table, 2 + S + 3 C rows per eigenstate: at
# N = 14, 30 rows or 3.9 MB for an open chain and 6 rows or 0.45 MB for a
# ring (0.85 and 0.12 MB at N = 12). The vectors, kept for the latest solve
# only, are far larger: at N = 14 an open chain's are about 80 MB in total-S^z
# sectors (k <= N/2) and 540 MB in the two parity sectors, a ring's 6 MB and
# 39 MB. The cache keeps every XXX and XX chain of N <= 8 of both boundaries
# (26 rays) between their repeats.
_EIG_CACHE_SIZE = 64

_DEGENERACY_TOL = 1e-9

# Numbers per buffer of gathered vector rows: 125 KiB, below the 128 KiB from
# which malloc maps fresh pages for every temporary.
_GATHER_SIZE = 16000

# Numbers per stack of squared vectors (at least one matrix): 2 MiB, so a
# group's squares never add more than that to its vectors, while every group
# of a ring up to N = 12 is still squared whole.
_SQUARE_SIZE = 1 << 18

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


def _require_finite(vspec: ModelSpec) -> int:
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
    s = 1.0 if vspec.sign_convention == SIGN_SINGLET_GROUND else -1.0
    dim = 1 << n
    r = np.arange(dim, dtype=np.int64)

    h = np.zeros((dim, dim))
    diag = -vspec.b * _site_z(n).sum(axis=0)
    for mask, zij in zip(*_pair_operators(n, bond_list(n, vspec.boundary))):
        diag += s * vspec.jz * zij
        h[r ^ mask, r] += s * (vspec.jx - vspec.jy * zij)
    h[r, r] += diag
    return h


def _boltzmann(energies: np.ndarray, e0: float, beta: float, scale: float, multiplicity,
               spread: float):
    """Weights g exp(-beta (E - E0)) / Z' and ln Z of the energies E = scale * e.

    E0 = scale * e0 is the lowest energy: e0 is the smallest e, or the
    largest where ``scale`` < 0. ``multiplicity`` g counts the states each
    energy stands for, the finite ``spread`` bounds |e - e0|, and
    |scale| * spread is finite.
    """
    if not math.isfinite(beta):
        raise FloatingPointError(f"beta = 1/kT = {beta} is not finite")
    w = energies - e0
    rate = beta * scale
    if math.isfinite(rate * spread):
        w *= -rate
    else:  # beta (E - E0) could overflow; exp(-1000) is 0
        w *= scale
        np.minimum(w, 1e3 / beta, out=w)
        w *= -beta
    np.exp(w, out=w)
    w *= multiplicity
    z0 = float(w.sum())
    w /= z0
    return w, math.log(z0) - beta * (scale * e0)


def _ground_weights(energies: np.ndarray, scale: float, multiplicity) -> np.ndarray:
    """Uniform weights over the ground multiplet of E = scale * e (it may span several blocks).

    A state is in it when E - E0 <= tol (E_max - E0): a share of the spectrum's
    own width, so the rule does not depend on the energy scale or its sign. A
    flat spectrum is one multiplet.
    """
    lo, hi = float(energies.min()), float(energies.max())
    e0 = lo if scale > 0.0 else hi
    members = multiplicity * (np.abs(energies - e0) <= _DEGENERACY_TOL * (hi - lo))
    return members / members.sum()


def _checked(u: float, m: float, correlators, means, log_partition=None) -> ThermalObservables:
    """The observables, or FloatingPointError if U, M, a correlator or ln Z is not finite.

    ``means`` are the bond classes' mean correlators, of which every bond's
    are copies. ``log_partition`` None marks a ground-multiplet average, whose
    ln Z is NaN. Correlators lie in [-1, 1], so their sum is finite exactly
    when each is.
    """
    if not (math.isfinite(u) and math.isfinite(m) and math.isfinite(sum(means))
            and (log_partition is None or math.isfinite(log_partition))):
        raise FloatingPointError(f"non-finite thermal observables: U = {u}, M = {m}, "
                                 f"ln Z = {log_partition}, correlators {correlators[:1]}")
    return frozen_instance(ThermalObservables, {
        "u": u, "m": m, "bond_correlators": correlators,
        "log_partition": math.nan if log_partition is None else log_partition})


def _pair_matrix(za: float, zb: float, zab: float, xx: float, yy: float) -> PairState:
    """The two-site state (1/4) sum over {1, z_a, z_b, z_a z_b, x_a x_b, y_a y_b} of <P> P."""
    rho = np.diag([1.0 + za + zb + zab, 1.0 + za - zb - zab,
                   1.0 - za + zb - zab, 1.0 - za - zb + zab])
    rho[0, 3] = rho[3, 0] = xx - yy
    rho[1, 2] = rho[2, 1] = xx + yy
    # a partial trace of a thermal state, unchecked: the checks guard matrices from outside
    return frozen_instance(PairState, {"matrix": np.asarray(rho / 4.0, dtype=complex)})


# ---------------------------------------------------------------------------
# Symmetry blocks: real blocks of each total-S^z or parity sector and momentum,
# halved by spin inversion and by reflection where those act inside a block. An
# open chain is a ring whose translation group has order 1.


class _Group(NamedTuple):
    """Blocks of one size, diagonalized by one stacked eigh."""

    states: slice         # the group's basis states in the layout's _Basis, block by block
    reps: np.ndarray      # (m, d): each basis state's representative, block by block


class _Basis(NamedTuple):
    """The real basis states of all groups, numbered group by group, one array each."""

    reps: np.ndarray      # the representative a each state is listed under
    orbits: np.ndarray    # site states it spans: R_a, twice that for a spin-inversion pair,
                          # and twice again for a KR pair
    angles: np.ndarray    # its phase in units of pi / (2 order): 0 for the first state of
                          # a KR pair, order (a factor i) for the second, phi / 2 for a
                          # state KR maps onto itself
    momenta4: np.ndarray  # 4 q: the angle of one translation step in block q
    sign_angle: np.ndarray  # (1 - p) order: the angle of the half's sign p (only read
                            # where p is +1 or -1)
    lookup: np.ndarray    # offset of its (q, p > 0) table in the layout's ``index``
    block: np.ndarray     # index of its block, with a sentinel -1 appended
    row: np.ndarray       # offset of its row in its group's (m, d, d) stack of blocks
    column: np.ndarray    # its column inside its block
    group: np.ndarray     # index of its group


class _Layout(NamedTuple):
    """Block layout of one chain; eigenstates are numbered group by group."""

    order: int                # of the translation group: N for a ring, 1 for an open chain
    conserve_sz: bool
    groups: tuple[_Group, ...]
    basis: _Basis
    landing: np.ndarray       # (4, 2^N) per site state: the representative of the basis
                              # state it stands for, and the turns, half signs and
                              # conjugation of its factor (see _terms)
    index: np.ndarray         # (q, p > 0, second of a KR pair, representative) -> basis
                              # state, or the sentinel `solved`; flattened
    solved: int               # eigenstates solved by the groups; the rest are images
    source: np.ndarray        # every eigenstate's solved state: its own, then the
                              # spin-flip images of k < N/2 (total S^z only)
    multiplicity: np.ndarray  # per eigenstate: 2 for 0 < q < N/2 (q and N - q), else 1


class _Terms(NamedTuple):
    """One group's operators for S site classes and C pair classes, without couplings.

    Per site class the sum of sz_j, per pair class the sums of sz_i sz_j and
    of the flips that move an antiparallel and a parallel pair: the table's
    S + 3 C rows. H's four layers are these summed over the classes, kept as
    entries of the group's (m, d, d) stack, the 2 m d diagonal ones first;
    entries at one cell add up.
    """

    diagonal: np.ndarray  # (m, S + C, d): the diagonal rows, block by block
    rows: int             # S + 3 C
    cells: np.ndarray     # per H entry, its index into the (m, d, d) stack,
    layers: np.ndarray    # its layer (the field, zz, antiparallel or parallel flips)
    values: np.ndarray    # and its value
    chunks: tuple         # the flip entries in chunks of (flat rows i and j of the (m d, d)
                          # vectors, the (rows, entries) matrix summing them into the rows
                          # r m + b of flip row r in block b, the slice of those rows)


class _Classes(NamedTuple):
    """A chain's sites and bonds in orbits under its translations and its reflection."""

    sites: tuple          # site classes, each a sorted tuple of 1-tuples (j,)
    site_class: tuple     # per site, the index of its class
    bonds: tuple          # bond classes, each a sorted tuple of sorted site pairs
    bond_class: tuple     # per bond of bond_list, the index of its class


class _Eigensystem(NamedTuple):
    """A chain's per-eigenstate table, numbered as in _Layout, and the key of its solve."""

    layout: _Layout
    classes: _Classes
    key: tuple            # the arguments of :func:`_solve` that give its vectors
    table: np.ndarray     # per eigenstate: its energy, sum_j <sz_j>, the mean <sz_j> over each
                          # site class, then the mean <xx>, <yy> and <zz> over each bond class
                          # (2 + S + 3 C rows: S site rows, C of each bond kind)
    lowest: float         # the smallest and the largest energy in the table
    highest: float
    pair_layers: dict     # pair orbit -> its three rows (mean xx, yy, zz): the bond classes'
                          # table rows, other orbits added on first use

    @property
    def energies(self) -> np.ndarray:
        return self.table[0]

    def observables(self, p: np.ndarray, scale: float, field: float):
        """(U, M, bond correlators, the bond classes' mean xx, yy and zz) of
        sum_k p[k] |v_k><v_k|, E_k = scale e_k - field M_k.

        e_k is the table's energy. Each bond reads its class: on a ring, the one class.
        """
        values = (self.table @ p).tolist()
        classes = self.classes
        bonds = len(classes.bonds)
        means = values[2 + len(classes.sites):]
        if bonds == 1:
            correlators = (tuple(means),) * len(classes.bond_class)
        else:
            per_class = list(zip(means[:bonds], means[bonds:2 * bonds], means[2 * bonds:]))
            correlators = tuple(map(per_class.__getitem__, classes.bond_class))
        return scale * values[0] - field * values[1], values[1], correlators, means

    def pair_state(self, n_sites: int, p: np.ndarray, a: int, b: int) -> PairState:
        """The (a, b) pair state from the rows of its site classes and its pair orbit.

        A new orbit's rows are built once from the vectors of :func:`_solve`,
        which solves the chain again unless it was the latest solved; spin-flip
        images share their source state's rows, which spin flip leaves
        unchanged.
        """
        layout, classes = self.layout, self.classes
        orbit = _orbit(n_sites, layout.order, (a, b))
        layers = self.pair_layers.get(orbit)
        if layers is None:
            terms = _terms(n_sites, layout.order, layout.conserve_sz, (), (orbit,))
            sums = np.concatenate([_expectations(t, vectors)
                                   for t, (_, vectors) in zip(terms, _solve(*self.key))], axis=1)
            layers = _pair_means(sums[:, layout.source], [len(orbit)])
            layers.setflags(write=False)
            layers = self.pair_layers.setdefault(orbit, layers)
        xx, yy, zz = (layers @ p).tolist()
        sites = self.table[2:2 + len(classes.sites)] @ p
        return _pair_matrix(float(sites[classes.site_class[a]]),
                            float(sites[classes.site_class[b]]), zz, xx, yy)


@lru_cache(maxsize=32)
def _layout(n_sites: int, order: int, conserve_sz: bool) -> _Layout:
    """Block layout of an N-site chain whose translation group has ``order`` elements.

    A ring has order N. An open chain has order 1: every state is its own
    representative, with orbit size 1, and only q = 0 exists. No coupling
    or field enters the layout. Solved blocks are q = 0..order/2 of the
    sectors k = 0..N/2 when ``conserve_sz`` (sector N - k is the spin-flip
    image of k at B = 0), otherwise of both parity sectors. The blocks of
    k = N/2 are split into their spin-inversion halves, and every block
    takes the KR-invariant basis of the module docstring, in which q = 0
    and q = N/2 split again into reflection halves. Every basis state is
    labelled with arrays (sector, q, half, reflection half) and sorted once,
    by block size, block and slot.
    """
    n = n_sites
    full = (1 << n) - 1
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
    halved = conserve_sz & (2 * downs == n)  # k = N/2: solved in spin-inversion halves
    reverse = np.zeros_like(states)  # R: site j -> N-1-j reverses the bit string
    for j in range(n):
        reverse |= ((states >> j) & 1) << (n - 1 - j)

    def listed(x, turns):
        """The state each representative x is listed under in a spin-inversion half.

        Z|x, q> = e^(2 pi i q m / N) |x', q> with inverted x = T^m x'; the
        half of sign p lists the pair under the smaller of x and x', and
        |x, q> there stands for p e^(2 pi i q m / N) times the listed one.
        Returns (listed, turns + m where swapped, swapped). Element j of x
        lies in the sector of site state j, whose ``halved`` it reads.
        """
        inverted = full ^ x
        swapped = halved & (rep[inverted] < x)
        return np.where(swapped, rep[inverted], x), turns + swapped * shift[inverted], swapped

    # Every site state stands for a phase times the half state listed under x,
    # and KR maps that onto e^(i Phi) times the half state listed under c, with
    # Phi = 4 q c_turns + (1 - p) order c_signs in units of pi / (2 order).
    x, x_turns, x_signs = listed(rep, shift)
    mirrored = reverse[x]
    c, c_turns, c_signs = listed(rep[mirrored], shift[mirrored])
    conjugated = c < x
    landing = np.stack((np.minimum(x, c), np.where(conjugated, c_turns - x_turns, x_turns),
                        np.where(conjugated, c_signs.astype(np.int64) - x_signs, x_signs),
                        np.where(conjugated, -1, 1)))

    # Listed states: representatives of the solved sectors, first of their
    # spin-inversion pair and first of their KR pair, at each momentum they carry.
    kept = (rep == states) & (x == states) & (c >= states)
    if conserve_sz:
        kept &= 2 * downs <= n
    a = np.flatnonzero(kept)
    momenta = np.arange(order // 2 + 1)
    carried, q = np.nonzero(momenta * period[a, None] % order == 0)
    a = a[carried]
    # A spin-inversion pair has a state in both halves; a state Z maps onto
    # itself, times e^(2 pi i q m / N) = +-1, lies in the half of that sign.
    inverted = full ^ a
    paired = halved[a] & (rep[inverted] != a)
    sign = np.where(q * shift[inverted] % order == 0, 1, -1)
    p = np.where(halved[a], np.where(paired, 1, sign), 0)
    orbits = period[a] * (1 + paired)
    a, q, p, orbits = (np.concatenate((v, v[paired])) for v in (a, q, p, orbits))
    p[p.size - paired.sum():] = -1
    phi = (4 * q * c_turns[a] + (1 - p) * order * c_signs[a]) % (4 * order)
    alone = c[a] == a
    # q = 0 and q = N/2: KR acts as R; its pairs give an R-even and an R-odd
    # state, and a state it maps onto itself is R-even when phi = 0.
    halves = 2 * q % order == 0
    mirror = np.where(halves, np.where(alone & (phi != 0), -1, 1), 0)
    second = ~alone
    a, q, p = (np.concatenate((v, v[second])) for v in (a, q, p))
    slots = 2 * a
    slots[slots.size - second.sum():] += 1
    orbits = np.concatenate((orbits * (1 + second), 2 * orbits[second]))
    angles = np.concatenate((np.where(alone, phi // 2, 0), np.full(second.sum(), order)))
    mirror = np.concatenate((mirror, np.where(halves[second], -1, 0)))
    sector = downs[a] if conserve_sz else downs[a] % 2

    label = ((sector * momenta.size + q) * 3 + p + 1) * 3 + mirror + 1
    size = np.bincount(label)[label]
    ranked = np.lexsort((slots, label, size))
    a, q, p, slots, orbits, angles, mirror, sector, label, size = (
        v[ranked] for v in (a, q, p, slots, orbits, angles, mirror, sector, label, size))
    numbered = np.arange(a.size)
    new_block = np.concatenate(([True], label[1:] != label[:-1]))
    block = np.cumsum(new_block) - 1
    column = numbered - np.flatnonzero(new_block)[block]
    new_group = np.concatenate(([True], size[1:] != size[:-1]))
    group = np.cumsum(new_group) - 1
    group_starts = np.flatnonzero(new_group).tolist() + [a.size]
    row = (numbered - np.array(group_starts)[group]) * size
    lookup = (2 * (2 * q + (p > 0))) << n
    index = np.full((4 * momenta.size) << n, a.size, np.int32)
    index[lookup + ((slots & 1) << n) + a] = numbered

    groups = []
    for lo, hi in zip(group_starts[:-1], group_starts[1:]):
        d = int(size[lo])
        groups.append(_Group(slice(lo, hi), a[lo:hi].reshape(-1, d)))
    basis = _Basis(a, orbits.astype(float), angles, 4 * q, (1 - p) * order, lookup,
                   np.append(block, -1), row, column, group)
    source = numbered
    if conserve_sz:
        source = np.concatenate([source, np.flatnonzero(2 * sector < n)])
    multiplicity = np.where(2 * q[source] % order == 0, 1.0, 2.0)
    for array in (*basis, landing, index, source, multiplicity):
        array.setflags(write=False)
    return _Layout(order, conserve_sz, tuple(groups), basis, landing, index, a.size, source,
                   multiplicity)


@lru_cache(maxsize=8)
def _cosines(order: int) -> np.ndarray:
    """cos(k pi / (2 order)) for k < 4 order, exact at multiples of pi / 2."""
    cosines = np.cos(np.pi / (2 * order) * np.arange(4 * order))
    cosines[::order] = (1.0, 0.0, -1.0, 0.0)
    cosines.setflags(write=False)
    return cosines


def _pair_operators(n_sites: int, pairs, states=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(flip masks, (pairs, states) table of sz_i sz_j) of the site pairs (i, j) in ``pairs``."""
    first, second = np.array(pairs, np.int64).reshape(-1, 2).T
    z = _site_z(n_sites)[:, states]
    return (1 << (n_sites - 1 - first)) | (1 << (n_sites - 1 - second)), z[first] * z[second]


@lru_cache(maxsize=4096)
def _orbit(n_sites: int, order: int, sites: tuple) -> tuple:
    """The sorted images of ``sites`` under the ``order`` translations j -> j + l mod N and
    the reflection j -> N-1-j, each a sorted tuple: one result for every member."""
    n = n_sites
    return tuple(sorted({tuple(sorted((j + l) % n for j in image))
                         for image in (sites, tuple(n - 1 - j for j in sites))
                         for l in range(order)}))


@lru_cache(maxsize=32)
def _classes(n_sites: int, order: int, bonds: tuple) -> _Classes:
    """The orbits of the sites and of the ``bonds`` of a chain, numbered in first-seen order.

    A ring (order N) has one site class and one bond class. An open chain
    (order 1) pairs each site and each bond with its mirror image.
    """
    def orbits(members):
        found, index = [], {}
        for member in members:
            if member not in index:
                orbit = _orbit(n_sites, order, member)
                index.update(dict.fromkeys(orbit, len(found)))
                found.append(orbit)
        return tuple(found), tuple(index[member] for member in members)

    return _Classes(*orbits([(j,) for j in range(n_sites)]),
                    *orbits([tuple(sorted(bond)) for bond in bonds]))


def _flips(n_sites: int, layout: _Layout, masks: np.ndarray):
    """(source, target, pair, value) of every entry the flips ``masks`` make inside a block.

    Sources and targets are basis states of the layout, ``pair`` indexes
    ``masks``, and entries come by source. A flip takes representative a to
    a site state y, which stands for the half state of x (y = T^l x, and x
    is swapped for its spin-inversion image, a factor p e^(2 pi i q m / N));
    with the source's own phase this is e^(i theta) times that state. If x
    is listed, the entry with the basis state s' of x is
    sqrt(W_s / W_s') cos(theta - angle_s'), where W counts the site states a
    basis state spans and angle_s' is its phase (0 and pi/2 read the real and
    imaginary part). Otherwise x is the KR image e^(-i Phi) KR|c> of a listed
    c, and theta becomes Phi - theta. ``layout.landing`` holds, per site
    state, the listed representative and the integers of theta: turns (4 q
    each), half signs ((1 - p) order each) and -1 where theta is conjugated.
    Cosines are taken only for entries inside a block.
    """
    basis = layout.basis
    partner = basis.reps[:, None] ^ masks
    # Both states listed under the landing's representative: the first of a KR
    # pair (or the one state KR maps onto itself) and the second. Each counts
    # if it lies in the source's block.
    wanted = basis.lookup[:, None] + layout.landing[0][partner]
    candidates = layout.index[wanted[..., None] + [0, 1 << n_sites]]
    inside = (basis.block[candidates] == basis.block[:-1, None, None]).ravel()
    entries = np.flatnonzero(inside)
    target = candidates.ravel()[entries]
    entries >>= 1
    source, pair = np.divmod(entries, masks.size)
    _, turns, signs, conjugate = layout.landing[:, partner.ravel()[entries]]
    angle = (basis.momenta4[source] * turns + basis.sign_angle[source] * signs
             + conjugate * basis.angles[source] - basis.angles[target])
    values = (np.sqrt(basis.orbits[source] / basis.orbits[target])
              * _cosines(layout.order)[angle % (4 * layout.order)])
    return source, target, pair, values


@lru_cache(maxsize=64)
def _terms(n_sites: int, order: int, conserve_sz: bool, sites: tuple,
           pairs: tuple) -> tuple[_Terms, ...]:
    """Per group of :func:`_layout`, the operators of the classes ``sites`` and ``pairs``.

    A chain's H and table take its site and bond classes, a pair state its
    pair orbit and no site class. Every class must be closed under the
    chain's translations and reflection, so its operators are even under
    KR; then each entry comes from the flips of the listed states alone
    (:func:`_flips`, whose (states, pairs) index tables are freed before the
    groups' arrays are cut), in one pass over every group.
    """
    n = n_sites
    layout = _layout(n, order, conserve_sz)
    basis = layout.basis
    masks, pair_zz = _pair_operators(n, tuple(chain.from_iterable(pairs)), basis.reps)
    source, target, pair, values = _flips(n, layout, masks)
    cells = basis.row[target] + basis.column[source]
    parallel = pair_zz[pair, source] > 0.0
    owner = np.repeat(np.arange(len(pairs)), [len(c) for c in pairs])
    flip_row = owner[pair] + len(pairs) * parallel  # antiparallel rows first, then parallel

    # sz_j reads 0 in the spin-inversion halves (sign angle 0 or 2 order),
    # where sum_j sz_j = 0 anyway.
    z = _site_z(n)[:, basis.reps]
    classes = np.array([z[np.ravel(site)].sum(axis=0) for site in sites]
                       + [pair_zz[owner == c].sum(axis=0) for c in range(len(pairs))])
    classes[:len(sites)] *= basis.sign_angle == order
    diagonal = np.stack((classes[:len(sites)].sum(axis=0), classes[len(sites):].sum(axis=0)))
    on_diagonal = basis.row + basis.column

    # H's entries group by group: the field and the zz entries of its states, then its flips.
    groups = layout.groups
    states = basis.reps.size
    starts = np.array([g.states.start for g in groups] + [states])
    by_group = np.argsort(np.concatenate((basis.group, basis.group, basis.group[source])),
                          kind="stable")
    h_cells = np.concatenate((on_diagonal, on_diagonal, cells))[by_group]
    h_layers = np.concatenate((np.zeros(states, np.int64), np.ones(states, np.int64),
                               2 + parallel))[by_group]
    h_values = np.concatenate((diagonal[0], diagonal[1], values))[by_group]
    h_bounds = (2 * starts + np.searchsorted(source, starts)).tolist()

    # Flip rows are gathered: an entry (i, j) indexes the group's (m d, d)
    # vectors from its first state. A block's rows are symmetric, so only
    # i <= j is gathered, and i < j counts twice. Entries are sorted by group
    # and by their flip row r m + b (flip row r, block b), and cut into chunks
    # of at most _GATHER_SIZE numbers, none spanning two groups; each chunk's
    # (rows, entries) matrix is cut from one array filled by one scatter.
    flip_rows = 2 * len(pairs)
    stack, width = np.array([g.reps.shape for g in groups]).reshape(-1, 2).T
    kept = np.flatnonzero(target <= source)
    group = basis.group[source[kept]]
    first, second = target[kept] - starts[group], source[kept] - starts[group]
    row = flip_row[kept] * stack[group] + first // width[group]
    weight = np.where(first < second, 2.0, 1.0) * values[kept]
    ranked = np.argsort(row + flip_rows * starts[group], kind="stable")  # keeps each group's place
    first, second, row, weight = (v[ranked] for v in (first, second, row, weight))
    split = np.searchsorted(group, np.arange(len(groups) + 1))
    index = np.arange(group.size)
    heads = (index - split[group]) % np.maximum(1, _GATHER_SIZE // width)[group] == 0
    c0 = np.flatnonzero(heads)
    c1 = np.append(c0, group.size)[1:]
    r0, r1 = row[c0], row[c1 - 1] + 1
    columns = c1 - c0
    size = (r1 - r0) * columns
    offset = np.cumsum(size) - size
    # Entry e lands in row row_e - r0 and column e - c0 of its chunk's matrix.
    chunk = np.cumsum(heads) - 1
    sums = np.zeros(int(size.sum()))
    sums[(offset - r0 * columns - c0)[chunk] + row * columns[chunk] + index] = weight
    chunks = [(first[lo:hi], second[lo:hi], sums[at:at + (b - a) * (hi - lo)].reshape(b - a, -1),
               slice(a, b))
              for lo, hi, a, b, at in zip(*(v.tolist() for v in (c0, c1, r0, r1, offset)))]
    chunk_bounds = np.searchsorted(c0, split).tolist()

    terms = []
    for g, h0, h1, k0, k1 in zip(groups, h_bounds[:-1], h_bounds[1:], chunk_bounds[:-1],
                                 chunk_bounds[1:]):
        m, d = g.reps.shape
        terms.append(_Terms(
            classes[:, g.states].reshape(-1, m, d).transpose(1, 0, 2).copy(),
            len(sites) + len(pairs) + flip_rows,
            h_cells[h0:h1], h_layers[h0:h1], h_values[h0:h1], tuple(chunks[k0:k1])))
    return tuple(terms)


def _expectations(terms: _Terms, vectors: np.ndarray) -> np.ndarray:
    """(rows, m d): every table row's expectation in every eigenstate (column) of the group.

    A diagonal row's is sum_i v_i^2 diag_i, squared a few whole matrices at
    a time, so the squares never cost another copy of the vectors. A flip
    row's is the sum of value v_i v_j over its entries, gathered chunk by
    chunk into two reused buffers.
    """
    m, d, _ = vectors.shape
    classes = terms.diagonal.shape[1]
    rows = np.zeros((terms.rows, m, d))
    step = max(1, _SQUARE_SIZE // (d * d))
    for start in range(0, m, step):
        part = slice(start, start + step)
        squares = vectors[part] * vectors[part]
        rows[:classes, part] = (terms.diagonal[part] @ squares).transpose(1, 0, 2)
    if terms.chunks:
        flat, flips = vectors.reshape(m * d, d), rows[classes:].reshape(-1, d)
        size = terms.chunks[0][0].size  # the first chunk is full
        left, right = np.empty((size, d)), np.empty((size, d))
        for first, second, sums, span in terms.chunks:
            product, other = left[:first.size], right[:first.size]
            flat.take(first, axis=0, out=product, mode="clip")
            flat.take(second, axis=0, out=other, mode="clip")
            product *= other
            flips[span] += sums @ product
    return rows.reshape(terms.rows, m * d)


def _pair_means(sums: np.ndarray, sizes) -> np.ndarray:
    """The mean xx, yy and zz rows of C pair classes from their zz, antiparallel and parallel
    flip sums (3 C rows), ``sizes`` the classes' pair counts."""
    c = len(sizes)
    means = sums / np.array(sizes * 3)[:, None]
    zz, antiparallel, parallel = means[:c], means[c:2 * c], means[2 * c:]
    return np.concatenate((antiparallel + parallel, antiparallel - parallel, zz))


@lru_cache(maxsize=1)
def _solve(n_sites: int, boundary: str, field: float, zz: float, antiparallel: float,
           parallel: float) -> tuple:
    """Per group of the chain's layout, its (m, d) energies and (m, d, d) stacked vectors.

    The arguments are those of :func:`_eigensystem`. Only the latest solve
    is kept: the vectors of a chain take far more memory than its table.
    """
    n = n_sites
    order = n if boundary == BOUNDARY_PERIODIC else 1
    conserve_sz = parallel == 0.0
    layout = _layout(n, order, conserve_sz)
    classes = _classes(n, order, bond_list(n, boundary))
    couplings = np.array([field, zz, antiparallel, parallel])
    solved = []
    for g, terms in zip(layout.groups,
                        _terms(n, order, conserve_sz, classes.sites, classes.bonds)):
        m, d = g.reps.shape
        h = np.bincount(terms.cells, couplings[terms.layers] * terms.values,
                        minlength=m * d * d).reshape(m, d, d)
        if d == 1:  # a 1 x 1 block is its own eigensystem
            energies, vectors = h[..., 0], np.ones_like(h)
        else:
            energies, vectors = np.linalg.eigh(h)
        vectors.setflags(write=False)
        solved.append((energies, vectors))
    return tuple(solved)


@lru_cache(maxsize=_EIG_CACHE_SIZE)
def _eigensystem(n_sites: int, boundary: str, field: float, zz: float, antiparallel: float,
                 parallel: float) -> _Eigensystem:
    """Energies and observable table of a chain, cached per coupling ray.

    The key is the site count, the boundary and the four couplings of the
    layers of :class:`_Terms`, -B, s Jz, s (Jx + Jy) and s (Jx - Jy), divided
    by their scale (see :func:`_spectrum`). ``lru_cache`` serializes
    insertion, so concurrent readers are safe and at worst two threads
    diagonalize one key once each. A miss drops the latest solve's vectors
    before it solves, so one chain's vectors are held at a time. Total-S^z
    chains (parallel = 0) arrive here with B = 0 only, where sector N - k is
    the spin-flip image of k: the same energies and table, with every sz
    negated. The :class:`_Terms` of the chain's site and bond classes give
    each group's table rows.
    """
    n = n_sites
    order = n if boundary == BOUNDARY_PERIODIC else 1
    conserve_sz = parallel == 0.0
    layout = _layout(n, order, conserve_sz)
    classes = _classes(n, order, bond_list(n, boundary))
    key = (n, boundary, field, zz, antiparallel, parallel)
    sites = len(classes.sites)
    sums = np.empty((1 + sites + 3 * len(classes.bonds), layout.solved))
    _solve.cache_clear()
    for g, terms, (energies, vectors) in zip(
            layout.groups, _terms(n, order, conserve_sz, classes.sites, classes.bonds),
            _solve(*key)):
        rows = sums[:, g.states]
        rows[0] = energies.ravel()
        rows[1:] = _expectations(terms, vectors)
    sums = sums[:, layout.source]
    z = sums[1:1 + sites]
    z[:, layout.solved:] *= -1.0  # sz of the spin-flip images
    table = np.concatenate((sums[:1], z.sum(axis=0, keepdims=True),
                            z / np.array([[len(c)] for c in classes.sites]),
                            _pair_means(sums[1 + sites:], [len(c) for c in classes.bonds])))
    table.setflags(write=False)
    bonds = len(classes.bonds)
    pair_layers = {bond: table[2 + sites + c::bonds] for c, bond in enumerate(classes.bonds)}
    return _Eigensystem(layout, classes, key, table, float(table[0].min()),
                        float(table[0].max()), pair_layers)


# ---------------------------------------------------------------------------
# Public routines


def _on_ray(n_sites: int, boundary: str, couplings: tuple, field: float, scale: float):
    """:func:`_spectrum`'s result with the couplings divided by ``scale``, or None where the
    float range does not hold the divided couplings, H or the spectrum."""
    field_layer, zz, antiparallel, parallel = couplings
    ray = (field_layer / scale, zz / scale, antiparallel / scale, parallel / scale)
    # Every entry of a block, and every partial sum forming it, is at most
    # 2 N^1.5 sum |c| (N terms per layer, each at most sqrt(4 N) |c|).
    if not math.isfinite(4.0 * n_sites ** 2 * (abs(ray[0]) + abs(ray[1]) + abs(ray[2])
                                               + abs(ray[3]))):
        return None
    eig = _eigensystem(n_sites, boundary, *ray)
    shift = field / scale
    spread = 2.0 * (max(abs(eig.lowest), abs(eig.highest)) + abs(shift) * n_sites)
    if not math.isfinite(spread * scale):
        return None
    if shift:
        energies = eig.energies - shift * eig.table[1]
        e0 = float(energies.min() if scale > 0.0 else energies.max())
    else:
        energies, e0 = eig.energies, eig.lowest if scale > 0.0 else eig.highest
    return eig, energies, e0, scale, field, spread


def _spectrum(vspec: ModelSpec):
    """(the cached eigensystem, its energies e at the spec's field, the e0 of the lowest
    energy, their scale, the field that acts outside the cache, a bound on |e - e'|): the
    spectrum is scale * e, and e0 is the smallest e, or the largest where the scale is < 0.

    H(lambda c) = lambda H(c) for the four couplings c of :func:`_eigensystem`,
    so the cache is keyed on c / lambda with the scale lambda = s (Jx + Jy):
    every XXX chain's key is exactly (0, 1/2, 1, 0) and every XX chain's
    (0, 0, 1, 0). lambda = 1 where s (Jx + Jy) = 0, and also where the
    divided couplings or the spectrum would leave the float range (a small
    scale beside a large coupling or field). Total-S^z chains (Jx = Jy) are
    keyed with B = 0, and their energies are shifted by -(B / lambda) M,
    with |M| <= N.
    Raises FloatingPointError unless H and twice the largest |E| fit the
    float range, so that no energy and no difference of two overflows.
    """
    s = 1.0 if vspec.sign_convention == SIGN_SINGLET_GROUND else -1.0
    conserve_sz = vspec.jx == vspec.jy
    couplings = (0.0 if conserve_sz else -vspec.b, s * vspec.jz, s * (vspec.jx + vspec.jy),
                 s * (vspec.jx - vspec.jy))
    field = vspec.b if conserve_sz else 0.0
    n, boundary = vspec.n_sites, vspec.boundary
    found = (_on_ray(n, boundary, couplings, field, couplings[2] or 1.0)
             or _on_ray(n, boundary, couplings, field, 1.0))
    if found is not None:
        return found
    if not math.isfinite(4.0 * n ** 2 * sum(map(abs, couplings))):
        raise FloatingPointError(f"the couplings (-B, s Jz, s (Jx + Jy), s (Jx - Jy)) = "
                                 f"{couplings} overflow the Hamiltonian")
    raise FloatingPointError(f"the spectrum at B = {vspec.b} spans more than the float range")


def thermal_observables(spec, kt: float) -> ThermalObservables:
    """U, M, per-bond correlators, and ln Z of the thermal state at kT.

    Weights use the spectrum shifted by its minimum, exp(-beta (E - E0)),
    so no exponential can overflow at low temperature. Raises
    FloatingPointError where a coupling, the spectrum, beta or a result
    leaves the float range.
    """
    vspec = validate_spec(spec)
    _require_finite(vspec)
    beta = 1.0 / require_kt(kt)
    eig, energies, e0, scale, field, spread = _spectrum(vspec)
    p, log_partition = _boltzmann(energies, e0, beta, scale, eig.layout.multiplicity, spread)
    return _checked(*eig.observables(p, scale, field), log_partition)


def ground_state_energy(spec) -> float:
    """Lowest eigenvalue of the chain Hamiltonian."""
    vspec = validate_spec(spec)
    _require_finite(vspec)
    _, _, e0, scale, _, _ = _spectrum(vspec)
    return scale * e0


def ground_state_observables(spec) -> ThermalObservables:
    """U, M, correlators averaged uniformly over the ground multiplet.

    This is the T -> 0 limit of the thermal state; ``log_partition`` is NaN
    since no temperature is involved. The multiplet may span several blocks.
    """
    vspec = validate_spec(spec)
    _require_finite(vspec)
    eig, energies, _, scale, field, _ = _spectrum(vspec)
    p = _ground_weights(energies, scale, eig.layout.multiplicity)
    return _checked(*eig.observables(p, scale, field))


def thermo_consistency(spec, kt: float) -> tuple[float, float]:
    """Residuals of U against -d(lnZ)/d(beta) and M against (1/beta) d(lnZ)/dB.

    Both derivatives are central finite differences with relative steps
    (1e-4 in beta, 1e-4*kT in B, the natural lnZ variation scales), and the
    residuals are normalized by max(1, |U|) and max(1, |M|).
    """
    vspec = validate_spec(spec)
    _require_finite(vspec)
    beta = 1.0 / require_kt(kt)
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

    beta = 1.0 / require_kt(kt)
    eig, energies, e0, scale, _, spread = _spectrum(vspec)
    p, _ = _boltzmann(energies, e0, beta, scale, eig.layout.multiplicity, spread)
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
