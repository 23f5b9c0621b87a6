"""Exact diagonalization against closed forms and independent oracles.

The oracle Hamiltonian is assembled from explicit Kronecker products of
Pauli matrices (site 0 = leftmost factor, sz = diag(+1, -1)), with thermal
averages via scipy's expm. Agreement pins down the bit-twiddling basis
conventions, not just the spectra. The symmetry-sector production path is
also compared with one dense diagonalization of the whole space.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import linalg

from spinwitness import exactdiag
from spinwitness.exactdiag import (
    PairState,
    ThermalObservables,
    bond_list,
    build_hamiltonian,
    concurrence,
    ground_state_energy,
    ground_state_observables,
    reduced_pair_state,
    thermal_observables,
    thermo_consistency,
)
from spinwitness.model import ModelSpec, SpecError, validate_spec

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def op_at(op, site, n):
    full = np.eye(1, dtype=complex)
    for j in range(n):
        full = np.kron(full, op if j == site else np.eye(2, dtype=complex))
    return full


def kron_hamiltonian(spec):
    vspec = validate_spec(spec)
    n = vspec.n_sites
    s = 1 if vspec.sign_convention == "singlet-ground" else -1
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i, j in bond_list(n, vspec.boundary):
        for coupling, op in ((vspec.jx, SX), (vspec.jy, SY), (vspec.jz, SZ)):
            h += s * coupling * op_at(op, i, n) @ op_at(op, j, n)
    for j in range(n):
        h -= vspec.b * op_at(SZ, j, n)
    return h


def test_bond_list():
    assert bond_list(4, "open") == ((0, 1), (1, 2), (2, 3))
    assert bond_list(4, "periodic") == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert bond_list(1, "open") == ()


def test_package_surface_leaves_out_the_oracle_and_the_scalar_quadrature():
    # Both stay module attributes, reachable by name.
    import spinwitness
    from spinwitness import quadrature
    for name, module in (("build_hamiltonian", exactdiag), ("adaptive_quadrature", quadrature)):
        assert name not in spinwitness.__all__ and not hasattr(spinwitness, name)
        assert callable(getattr(module, name))


def test_two_site_xxx_spectrum_both_conventions():
    # singlet-ground: J > 0 antiferromagnetic, singlet at -3J below the triplet
    h = build_hamiltonian(ModelSpec.xxx(1.0, n_sites=2, boundary="open"))
    assert np.allclose(np.linalg.eigvalsh(h), [-3.0, 1.0, 1.0, 1.0], atol=1e-12)
    # as-printed: the global sign flips, the triplet drops below the singlet
    h = build_hamiltonian(ModelSpec.xxx(1.0, n_sites=2, boundary="open",
                                        sign_convention="as-printed"))
    assert np.allclose(np.linalg.eigvalsh(h), [-1.0, -1.0, -1.0, 3.0], atol=1e-12)


def test_two_site_xx_spectrum_in_field():
    h = build_hamiltonian(ModelSpec.xx(1.0, b=0.5, n_sites=2, boundary="open"))
    assert np.allclose(np.linalg.eigvalsh(h), [-2.0, -1.0, 1.0, 2.0], atol=1e-12)


def test_three_site_ring_spectrum():
    # frustrated triangle: two degenerate doublets at -3J, quadruplet at +3J
    h = build_hamiltonian(ModelSpec.xxx(1.0, n_sites=3))
    assert np.allclose(np.linalg.eigvalsh(h), [-3.0] * 4 + [3.0] * 4, atol=1e-12)


def test_four_site_ring_ground_energy():
    assert abs(ground_state_energy(ModelSpec.xxx(1.0, n_sites=4)) + 8.0) < 1e-12


def test_eight_site_ring_ground_energy_regression():
    # pinned against the expm-verified machinery (and the 4ln2-1 extrapolation)
    e = ground_state_energy(ModelSpec.xxx(1.0, n_sites=8)) / 8.0
    assert abs(e - (-1.8255467044685885)) < 1e-9


def test_single_site_closed_forms():
    spec = ModelSpec.xxx(1.0, b=0.7, n_sites=1, boundary="open")
    obs = thermal_observables(spec, 0.9)
    x = 0.7 / 0.9
    assert abs(obs.u - (-0.7 * math.tanh(x))) < 1e-14
    assert abs(obs.m - math.tanh(x)) < 1e-14
    assert abs(obs.log_partition - math.log(2.0 * math.cosh(x))) < 1e-14
    assert obs.bond_correlators == ()


def test_hamiltonian_matches_kron_oracle():
    for spec in (ModelSpec.xxx(1.3, b=0.4, n_sites=4),
                 ModelSpec.xx(-0.8, b=0.2, n_sites=5, boundary="open"),
                 ModelSpec.xyz(0.9, -0.4, 0.6, b=0.3, n_sites=4, boundary="open"),
                 ModelSpec.xxx(1.0, b=0.1, n_sites=3, sign_convention="as-printed")):
        mine = build_hamiltonian(spec)
        oracle = kron_hamiltonian(spec)
        assert np.max(np.abs(oracle.imag)) < 1e-12
        assert np.max(np.abs(mine - oracle.real)) < 1e-12


def test_hamiltonian_is_real_symmetric():
    h = build_hamiltonian(ModelSpec.xyz(1.0, -0.3, 0.7, b=0.5, n_sites=5,
                                        boundary="open"))
    assert h.dtype == np.float64
    assert np.max(np.abs(h - h.T)) == 0.0


def test_total_sz_is_conserved():
    for spec in (ModelSpec.xxx(1.0, b=0.4, n_sites=5),
                 ModelSpec.xx(1.0, b=0.4, n_sites=5)):
        h = build_hamiltonian(spec)
        sz_total = sum(op_at(SZ, j, 5).real for j in range(5))
        assert np.max(np.abs(h @ sz_total - sz_total @ h)) < 1e-12


def test_thermal_observables_match_expm_oracle():
    spec = ModelSpec.xyz(0.9, -0.4, 0.6, b=0.3, n_sites=5, boundary="open")
    kt = 0.7
    h = kron_hamiltonian(spec)
    rho = linalg.expm(-h / kt)
    z = np.trace(rho).real
    rho /= z
    obs = thermal_observables(spec, kt)
    assert abs(obs.u - np.trace(rho @ h).real) < 1e-12
    m_oracle = sum(np.trace(rho @ op_at(SZ, j, 5)).real for j in range(5))
    assert abs(obs.m - m_oracle) < 1e-12
    assert abs(obs.log_partition - math.log(z)) < 1e-12
    for (i, j), (xx, yy, zz) in zip(bond_list(5, "open"), obs.bond_correlators):
        for value, op in ((xx, SX), (yy, SY), (zz, SZ)):
            oracle = np.trace(rho @ op_at(op, i, 5) @ op_at(op, j, 5)).real
            assert abs(value - oracle) < 1e-12


def test_low_temperature_does_not_overflow():
    obs = thermal_observables(ModelSpec.xxx(1.0, n_sites=2, boundary="open"), 1e-8)
    assert abs(obs.u + 3.0) < 1e-10
    assert math.isfinite(obs.log_partition)


def test_infinite_temperature_washout():
    spec = ModelSpec.xxx(1.0, b=0.5, n_sites=6)
    u5 = abs(thermal_observables(spec, 1e5).u)
    u6 = abs(thermal_observables(spec, 1e6).u)
    assert u5 < 2.5e-4 and u6 < 2.5e-5
    assert abs(u5 / u6 - 10.0) < 0.5  # leading order is 1/kT
    assert abs(thermal_observables(spec, 1e6).m) < 1e-5


def test_su2_isotropy_of_xxx_correlators():
    obs = thermal_observables(ModelSpec.xxx(1.0, b=0.0, n_sites=6), 0.8)
    assert abs(obs.m) < 1e-12
    for xx, yy, zz in obs.bond_correlators:
        assert abs(xx - yy) < 1e-10 and abs(xx - zz) < 1e-10
        assert abs(xx) <= 1.0 + 1e-12


def test_ground_state_observables_singlet():
    obs = ground_state_observables(ModelSpec.xxx(1.0, n_sites=2, boundary="open"))
    assert abs(obs.u + 3.0) < 1e-12
    assert abs(obs.m) < 1e-12
    xx, yy, zz = obs.bond_correlators[0]
    assert max(abs(xx + 1), abs(yy + 1), abs(zz + 1)) < 1e-12
    assert math.isnan(obs.log_partition)


def test_ground_multiplet_is_averaged_uniformly():
    # the 3-ring ground space is two S=1/2 doublets; a uniform average has M = 0
    obs = ground_state_observables(ModelSpec.xxx(1.0, n_sites=3))
    assert abs(obs.m) < 1e-12
    # triangle ground energy: (sigma_total^2 - 9)/2 = -3 for total spin 1/2
    assert abs(obs.u + 3.0) < 1e-12


@pytest.mark.parametrize("j", [1e-12, 1e-155, 1.0, 1e150])
@pytest.mark.parametrize("spec_at", [lambda j: ModelSpec.xxx(j, n_sites=6),
                                     lambda j: ModelSpec.xx(j, n_sites=5, boundary="open")],
                         ids=["xxx-ring-6", "xx-open-5"])
def test_ground_multiplet_does_not_depend_on_the_energy_scale(spec_at, j):
    # The multiplet is E - E0 <= 1e-9 (E_max - E0); an absolute floor would
    # average every state of a spectrum narrower than it.
    spec = spec_at(j)
    e0 = np.linalg.eigvalsh(build_hamiltonian(spec))[0]
    assert abs(ground_state_observables(spec).u - e0) < 1e-11 * abs(e0)


def test_a_flat_spectrum_is_one_multiplet():
    p = exactdiag._ground_weights(np.zeros(5), 1.0, np.array([1.0, 2.0, 2.0, 1.0, 2.0]))
    assert p.tolist() == [0.125, 0.25, 0.25, 0.125, 0.25]
    obs = ground_state_observables(ModelSpec.xxx(0.0, n_sites=4))
    assert obs.u == 0.0 and obs.m == 0.0


def test_thermo_consistency_residuals_are_small():
    cases = [(ModelSpec.xxx(1.0, b=0.5, n_sites=6), 1.0),
             (ModelSpec.xx(0.8, b=0.3, n_sites=5, boundary="open"), 0.7),
             (ModelSpec.xyz(0.9, -0.4, 0.6, b=0.2, n_sites=4, boundary="open"), 0.5)]
    for spec, kt in cases:
        u_res, m_res = thermo_consistency(spec, kt)
        assert u_res < 1e-7 and m_res < 1e-7


def test_reduced_pair_state_of_the_singlet():
    spec = ModelSpec.xxx(1.0, n_sites=2, boundary="open")
    rho = reader_pair(spec, 1e-6, (0, 1))
    singlet = np.zeros(4)
    singlet[1], singlet[2] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    assert np.max(np.abs(rho - np.outer(singlet, singlet))) < 1e-10


def test_reduced_pair_state_consistent_with_bond_correlators():
    spec = ModelSpec.xxx(1.0, b=0.3, n_sites=5)
    kt = 0.9
    rho = reader_pair(spec, kt, (0, 1))
    xx, yy, zz = thermal_observables(spec, kt).bond_correlators[0]
    for value, op in ((xx, SX), (yy, SY), (zz, SZ)):
        assert abs(np.trace(rho @ np.kron(op, op)).real - value) < 1e-12


def test_nearest_neighbor_pair_of_xxx_ring_is_werner():
    """An SU(2)-invariant thermal state reduces to a Werner pair state."""
    spec = ModelSpec.xxx(1.0, b=0.0, n_sites=6)
    rho = reader_pair(spec, 0.5, (0, 1))
    singlet = np.zeros((4, 1))
    singlet[1, 0], singlet[2, 0] = 1.0, -1.0
    proj = (singlet @ singlet.T) / 2.0
    traceless = proj - np.eye(4) / 4.0
    p = float(np.real(np.trace((rho - np.eye(4) / 4.0) @ traceless))
              / np.trace(traceless @ traceless).real)
    assert np.max(np.abs(rho - (p * proj + (1.0 - p) * np.eye(4) / 4.0))) < 1e-12
    # Wootters concurrence of a Werner state has a closed form
    assert abs(concurrence(rho) - max(0.0, (3.0 * p - 1.0) / 2.0)) < 1e-12


def test_reduced_pair_state_site_validation():
    spec = ModelSpec.xxx(1.0, n_sites=4)
    with pytest.raises(SpecError):
        reduced_pair_state(spec, 1.0, (0, 4))
    with pytest.raises(SpecError):
        reduced_pair_state(spec, 1.0, (2, 2))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("site_pair", [(0, 1.7), (0, True), (False, 2), (0.5, 1),
                                       (0, float("nan")), (0, float("inf")), ("0", 1),
                                       (0, None), (0, 1, 2), (1,)])
def test_reduced_pair_state_rejects_non_integer_sites(boundary, site_pair):
    with pytest.raises(SpecError, match="integer site indices"):
        reduced_pair_state(ModelSpec.xxx(1.0, n_sites=4, boundary=boundary), 1.0, site_pair)


def test_reduced_pair_state_accepts_integral_site_values():
    spec = ModelSpec.xxx(1.0, b=0.2, n_sites=5, boundary="open")
    expected = reduced_pair_state(spec, 0.8, (1, 3)).matrix
    for site_pair in ((1.0, 3.0), (np.int64(1), np.int32(3)), [1, 3]):
        assert np.array_equal(reduced_pair_state(spec, 0.8, site_pair).matrix, expected)


def test_concurrence_extremes():
    singlet = np.zeros(4)
    singlet[1], singlet[2] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    assert abs(concurrence(np.outer(singlet, singlet)) - 1.0) < 1e-12
    product = np.zeros((4, 4))
    product[0, 0] = 1.0
    assert concurrence(product) == 0.0
    maximally_mixed = np.eye(4) / 4.0
    assert concurrence(maximally_mixed) == 0.0


def test_concurrence_werner_closed_form():
    singlet = np.zeros((4, 1))
    singlet[1, 0], singlet[2, 0] = 1.0, -1.0
    proj = (singlet @ singlet.T) / 2.0
    for p in (0.0, 1.0 / 3.0, 0.5, 0.9, 1.0):
        rho = p * proj + (1.0 - p) * np.eye(4) / 4.0
        assert abs(concurrence(rho) - max(0.0, (3.0 * p - 1.0) / 2.0)) < 1e-12


def test_concurrence_is_local_unitary_invariant():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    base = concurrence(rho)
    for _ in range(3):
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u1, u2)
        assert abs(concurrence(u @ rho @ u.conj().T) - base) < 1e-10


def test_pair_state_validation():
    with pytest.raises(ValueError, match="4x4"):
        PairState(np.eye(3) / 3.0)
    with pytest.raises(ValueError, match="trace"):
        PairState(np.eye(4))
    skew = np.eye(4, dtype=complex) / 4.0
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        PairState(skew)
    indefinite = np.diag([0.6, 0.5, -0.05, -0.05])
    with pytest.raises(ValueError, match="positive"):
        PairState(indefinite)


def test_site_cap_enforced():
    with pytest.raises(SpecError, match="cap"):
        build_hamiltonian(ModelSpec.xxx(1.0, n_sites=exactdiag.SITE_CAP + 1))


def test_finite_chain_required():
    with pytest.raises(SpecError):
        thermal_observables(ModelSpec.xx(1.0), 1.0)


def test_temperature_must_be_positive():
    spec = ModelSpec.xxx(1.0, n_sites=3)
    with pytest.raises(SpecError):
        thermal_observables(spec, 0.0)
    with pytest.raises(SpecError):
        thermal_observables(spec, -1.0)


# ---------------------------------------------------------------------------
# Symmetry sectors against one dense diagonalization of the whole space


def reader_pair(spec, kt, site_pair):
    """reduced_pair_state's matrix, after the four checks PairState runs on outside input.

    The reader builds its states unchecked; PairState(rho) raises unless rho
    is 4x4 with unit trace, Hermitian and positive semidefinite.
    """
    rho = reduced_pair_state(spec, kt, site_pair).matrix
    assert rho.dtype == complex
    PairState(rho)
    return rho


def dense_reference(spec, kt):
    """U, M, bond correlators, ln Z and a pair-state function from one dense eigh.

    ``kt=None`` averages uniformly over the ground multiplet instead. The
    pair state is the explicit partial trace of the weighted eigenvectors.
    """
    vspec = validate_spec(spec)
    n = vspec.n_sites
    energies, vectors = np.linalg.eigh(build_hamiltonian(vspec))
    shifted = energies - energies[0]
    if kt is None:
        members = shifted <= 1e-9 * (energies[-1] - energies[0])
        p, log_z = members / members.sum(), float("nan")
    else:
        w = np.exp(-shifted / kt)
        p, log_z = w / w.sum(), math.log(w.sum()) - energies[0] / kt
    weighted = vectors * np.sqrt(p)
    rho = weighted @ weighted.T
    r = np.arange(1 << n)
    z = 1.0 - 2.0 * ((r[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1)
    correlators = []
    for i, j in bond_list(n, vspec.boundary):
        flipped = rho[r ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j))), r]
        zij = z[i] * z[j]
        correlators.append((flipped.sum(), -(flipped @ zij), rho.diagonal() @ zij))

    def pair(a, b):
        tensor = weighted.reshape((2,) * n + (weighted.shape[1],))
        bra = np.moveaxis(tensor, (a, b), (0, 1)).reshape(4, -1)
        return bra @ bra.T

    obs = ThermalObservables(u=float(p @ energies), m=float(rho.diagonal() @ z.sum(axis=0)),
                             bond_correlators=tuple(correlators), log_partition=log_z)
    return obs, pair


def assert_observables_close(obs, ref, tol):
    assert abs(obs.u - ref.u) < tol * max(1.0, abs(ref.u))
    assert abs(obs.m - ref.m) < tol
    if math.isnan(ref.log_partition):
        assert math.isnan(obs.log_partition)
    else:
        assert abs(obs.log_partition - ref.log_partition) < tol * max(1.0, abs(ref.log_partition))
    assert len(obs.bond_correlators) == len(ref.bond_correlators)
    for mine, theirs in zip(obs.bond_correlators, ref.bond_correlators):
        assert np.max(np.abs(np.subtract(mine, theirs))) < tol


SECTOR_CASES = [(family, boundary, sign, n)
                for family in ("xxx", "xx", "xyz")
                for boundary in ("open", "periodic")
                for sign in ("singlet-ground", "as-printed")
                for n in range(1, 10)
                if boundary == "open" or n >= 3]


def sector_case_spec(family, boundary, sign, n, b=0.45):
    if family == "xyz":
        return ModelSpec.xyz(0.9, -0.4, 0.6, b=b, n_sites=n, boundary=boundary,
                             sign_convention=sign)
    make = ModelSpec.xxx if family == "xxx" else ModelSpec.xx
    return make(-1.3, b=b, n_sites=n, boundary=boundary, sign_convention=sign)


@pytest.mark.parametrize("family, boundary, sign, n", SECTOR_CASES)
def test_sectors_match_dense_diagonalization(family, boundary, sign, n):
    spec = sector_case_spec(family, boundary, sign, n)
    for kt in (0.3, 2.0, None):
        ref, ref_pair = dense_reference(spec, kt)
        if kt is None:
            assert_observables_close(ground_state_observables(spec), ref, 1e-11)
            continue
        assert_observables_close(thermal_observables(spec, kt), ref, 1e-11)
        for a, b in {(0, 1), (0, n - 1), (n - 1, 0)} if n >= 2 else ():
            rho = reader_pair(spec, kt, (a, b))
            assert np.max(np.abs(rho - ref_pair(a, b))) < 1e-11


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["xxx", "xx", "xyz"]),
       boundary=st.sampled_from(["open", "periodic"]),
       sign=st.sampled_from(["singlet-ground", "as-printed"]),
       n=st.integers(1, 6),
       couplings=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       b=st.one_of(st.just(0.0), st.floats(-3.0, 3.0),
                   st.floats(10.0, 1e3).flatmap(lambda x: st.sampled_from([x, -x]))),
       kt=st.floats(1e-3, 1e3))
def test_sectors_match_dense_for_random_specs(family, boundary, sign, n, couplings, b, kt):
    assume(boundary == "open" or n >= 3)
    jx, jy, jz = couplings
    if family == "xyz":
        spec = ModelSpec.xyz(jx, jy, jz, b=b, n_sites=n, boundary=boundary,
                             sign_convention=sign)
    else:
        make = ModelSpec.xxx if family == "xxx" else ModelSpec.xx
        spec = make(jx, b=b, n_sites=n, boundary=boundary, sign_convention=sign)
    # Both routes carry eigenvalue errors of a few ulps of the energy scale;
    # a Boltzmann weight moves by beta times that.
    energy_scale = n * (abs(jx) + abs(jy) + abs(jz) + abs(b))
    tol = 1e-12 * (1.0 + energy_scale / kt)
    obs = thermal_observables(spec, kt)
    ref, _ = dense_reference(spec, kt)
    assert abs(obs.u - ref.u) < tol * max(1.0, energy_scale)
    assert abs(obs.log_partition - ref.log_partition) < tol
    assert abs(obs.m - ref.m) < tol * n
    for mine, theirs in zip(obs.bond_correlators, ref.bond_correlators):
        assert np.max(np.abs(np.subtract(mine, theirs))) < tol * n


def count_eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_field_sweep_costs_one_diagonalization_when_sz_is_conserved(monkeypatch):
    calls = count_eigh_calls(monkeypatch)
    # The eigensystem cache starts cold. Only the blocks k <= N/2 are solved
    # (k and N - k are spin-flip images at B = 0), k = N/2 as its two
    # spin-inversion halves, and q = 0 and q = N/2 (every block of an open
    # chain) as their two reflection halves; blocks are stacked by size, and
    # 1 x 1 blocks need no eigh.
    exactdiag._eigensystem.cache_clear()
    cases = [
        # N = 6 ring: k = 2 has orbits 000011, 000101 (size 6) and 001001
        # (size 3), each mapped onto itself by reflection. Its blocks q = 0..3
        # have sizes 3 2 3 2; q = 0 is all R-even (3), q = 3 splits into 1 + 1.
        # k = 3 has orbits 000111, 001011, 001101 of size 6 and 010101 of
        # size 2; spin inversion swaps the orbits of 001011 and 001101 and maps
        # the other two onto themselves. Its spin-inversion halves (+, -) have
        # sizes q0: 3 1, q1: 1 2, q2: 2 1, q3: 1 3, and reflection keeps each
        # q = 0 and q = 3 half whole. The 2 x 2 blocks are k = 2 q = 1, k = 3
        # q = 1 (-) and k = 3 q = 2 (+); the 3 x 3 ones k = 2 q = 0 and q = 2,
        # k = 3 q = 0 (+) and q = 3 (-).
        (ModelSpec.xxx(0.8137, n_sites=6), [(3, 2, 2), (4, 3, 3)]),
        # N = 5 open chain: k = 1 (5 states, one palindrome 00100) splits into
        # R-even 3 and R-odd 2; k = 2 (10 states, palindromes 01010 and 10001)
        # into 6 and 4.
        (ModelSpec.xx(-0.6113, n_sites=5, boundary="open"),
         [(1, 2, 2), (1, 3, 3), (1, 4, 4), (1, 6, 6)]),
        # N = 4 open chain: k = 1 (4 states, no palindrome) splits into 2 + 2.
        # k = 2 is solved as two spin-inversion halves of 3: reflection maps
        # 0011, 0101 and 0110 onto their own inversion images, so the + half is
        # all R-even (3) and the - half splits into R-even 0110 (1) and R-odd
        # 0011, 0101 (2).
        (ModelSpec.xx(-0.6113, n_sites=4, boundary="open"), [(3, 2, 2), (1, 3, 3)]),
        # N = 4 ring: k = 2 has orbits 0011 (size 4) and 0101 (size 2), each its
        # own inversion and reflection image; only the R-even + half of q = 0
        # holds both.
        (ModelSpec.xyz(0.7121, 0.7121, -0.3, n_sites=4), [(1, 2, 2)]),
    ]
    for spec, shapes in cases:
        for b in (0.0, 0.35, -1.7, 40.0):
            thermal_observables(replace(spec, b=b), 0.9)
            ground_state_observables(replace(spec, b=b))
            reduced_pair_state(replace(spec, b=b), 0.4, (0, 1))
            reduced_pair_state(replace(spec, b=b), 0.4, (3, 1))
            ground_state_energy(replace(spec, b=b))
        thermo_consistency(replace(spec, b=0.2), 0.7)
        assert calls == shapes
        calls.clear()


def test_parity_sectors_rediagonalize_per_field(monkeypatch):
    calls = count_eigh_calls(monkeypatch)
    exactdiag._eigensystem.cache_clear()
    fields = (0.0, 0.35, -1.7)
    # N = 5 ring: each parity sector has 4 orbits (one of size 1), each its own
    # reflection image with phase 1 at q = 0, so blocks q = 0 keep size 4 (all
    # R-even) and q = 1, 2 have size 3. The open chain's two parity sectors of
    # 16 states (4 palindromes each) split into R-even 10 and R-odd 6.
    for spec, shapes in ((ModelSpec.xyz(0.6217, -0.4, 0.3, n_sites=5), [(4, 3, 3), (2, 4, 4)]),
                         (ModelSpec.xyz(0.6217, -0.4, 0.3, n_sites=5, boundary="open"),
                          [(2, 6, 6), (2, 10, 10)])):
        for b in fields:
            thermal_observables(replace(spec, b=b), 0.9)
            thermal_observables(replace(spec, b=b), 0.2)
        assert calls == shapes * len(fields)
        calls.clear()


# ---------------------------------------------------------------------------
# Ring momentum blocks against one dense diagonalization


def test_momentum_blocks_count_every_state_once():
    # Rings (translation order N) and open chains (order 1) alike.
    for n in range(1, 13):
        for order in {1, n} if n >= 3 else {1}:
            for conserve_sz in (True, False):
                assert exactdiag._layout(n, order, conserve_sz).multiplicity.sum() == 2 ** n


RING_PAIR_CASES = [(family, sign, n, b)
                   for family in ("xxx", "xx", "xyz")
                   for sign in ("singlet-ground", "as-printed")
                   for n in range(3, 10)
                   for b in (0.0, 0.45)]


@pytest.mark.parametrize("family, sign, n, b", RING_PAIR_CASES)
def test_ring_pair_states_match_dense_at_every_distance(family, sign, n, b):
    spec = sector_case_spec(family, "periodic", sign, n, b=b)
    _, ref_pair = dense_reference(spec, 0.7)
    for d in range(1, n):
        for a in (0, n - 1):
            pair = (a, (a + d) % n)
            rho = reader_pair(spec, 0.7, pair)
            assert np.max(np.abs(rho - ref_pair(*pair))) < 1e-11, (pair, d)


def test_ground_multiplet_spread_across_momenta():
    # The XXX triangle's -3J level holds two S = 1/2 doublets, one at q = 1
    # and one at q = 2 = N - 1, in the sectors k = 1 and k = 2.
    spec = ModelSpec.xxx(1.0, n_sites=3)
    assert np.sum(np.abs(np.linalg.eigvalsh(build_hamiltonian(spec)) + 3.0) < 1e-9) == 4
    ref, ref_pair = dense_reference(spec, None)
    assert_observables_close(ground_state_observables(spec), ref, 1e-12)
    for kt in (1e-3, 0.5):
        ref, ref_pair = dense_reference(spec, kt)
        assert_observables_close(thermal_observables(spec, kt), ref, 1e-12)
        for pair in ((0, 1), (2, 0)):
            rho = reader_pair(spec, kt, pair)
            assert np.max(np.abs(rho - ref_pair(*pair))) < 1e-12


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("family", ["xxx", "xx", "xyz"])
def test_rings_with_a_momentum_pi_block(family, n):
    for b in (0.0, 0.45):
        spec = sector_case_spec(family, "periodic", "singlet-ground", n, b=b)
        vspec = validate_spec(spec)
        ring = exactdiag._layout(n, n, vspec.jx == vspec.jy)
        assert (ring.basis.momenta4 == 2 * n).any()  # 4 q = 2 N: q = N/2
        for kt in (0.3, None):
            ref, ref_pair = dense_reference(spec, kt)
            if kt is None:
                assert_observables_close(ground_state_observables(spec), ref, 1e-11)
                continue
            assert_observables_close(thermal_observables(spec, kt), ref, 1e-11)
            rho = reader_pair(spec, kt, (1, 1 + n // 2))
            assert np.max(np.abs(rho - ref_pair(1, 1 + n // 2))) < 1e-11


@pytest.mark.parametrize("family", ["xxx", "xx", "xyz"])
def test_ring_bond_correlators_are_identical(family):
    spec = sector_case_spec(family, "periodic", "as-printed", 7)
    for obs in (thermal_observables(spec, 0.6), ground_state_observables(spec)):
        assert len(obs.bond_correlators) == 7
        assert len(set(obs.bond_correlators)) == 1
    ref, _ = dense_reference(spec, 0.6)
    assert_observables_close(thermal_observables(spec, 0.6), ref, 1e-11)


@pytest.mark.parametrize("spec", [
    ModelSpec.xyz(0.9, -0.4, 0.6, b=0.45, n_sites=10),
    ModelSpec.xx(-1.3, b=0.45, n_sites=11, sign_convention="as-printed"),
    ModelSpec.xyz(0.9, -0.4, 0.6, b=0.45, n_sites=10, boundary="open"),
    ModelSpec.xx(-1.3, b=0.45, n_sites=11, boundary="open", sign_convention="as-printed"),
], ids=["xyz-n10", "xx-n11", "open-xyz-n10", "open-xx-n11"])
def test_large_rings_match_dense(spec):
    # Beyond SECTOR_CASES: the open chains' widest blocks (240, 256 and 272
    # states at N = 10, 226 and 236 at N = 11) gather their flip rows in 9
    # to 38 chunks, with runs of one row and block across chunk edges.
    n = spec.n_sites
    for kt in (0.3, None):
        ref, ref_pair = dense_reference(spec, kt)
        if kt is None:
            assert_observables_close(ground_state_observables(spec), ref, 1e-11)
            continue
        assert_observables_close(thermal_observables(spec, kt), ref, 1e-11)
        # A bond, a pair at distance 2, a pair across the chain, a pair that
        # is its own mirror image on an open chain, and the middle bond.
        for pair in ((0, 1), (3, 1), (2, 2 + n // 2), (2, n - 3), (n // 2 - 1, n // 2)):
            rho = reader_pair(spec, kt, pair)
            assert np.max(np.abs(rho - ref_pair(*pair))) < 1e-11, pair


@pytest.fixture
def tiny_gather_chunks(monkeypatch):
    """Flip entries gathered a few dozen numbers at a time, from term tables built cold."""
    def clear():
        exactdiag._terms.cache_clear()
        exactdiag._eigensystem.cache_clear()

    clear()
    monkeypatch.setattr(exactdiag, "_GATHER_SIZE", 40)
    yield
    clear()


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("family", ["xxx", "xx", "xyz"])
@pytest.mark.parametrize("n", [6, 7, 8])
def test_flip_rows_across_chunk_edges_match_dense(tiny_gather_chunks, family, boundary, n):
    # A chunk of 40 numbers holds at most 40 // d entries of a group of
    # d-state blocks, so every group wider than a few states spans several
    # chunks, and some flip row of a block is summed across a chunk edge: in
    # total-S^z (XXX, XX) and in parity sectors (XYZ), for the table and for
    # a pair orbit built later.
    spec = sector_case_spec(family, boundary, "singlet-ground", n)
    vspec = validate_spec(spec)
    order = n if boundary == "periodic" else 1
    classes = exactdiag._classes(n, order, bond_list(n, boundary))
    terms = exactdiag._terms(n, order, vspec.jx == vspec.jy, classes.sites, classes.bonds)
    assert any(left[3].stop - 1 == right[3].start
               for t in terms for left, right in zip(t.chunks, t.chunks[1:]))
    ref, ref_pair = dense_reference(spec, 0.7)
    assert_observables_close(thermal_observables(spec, 0.7), ref, 1e-11)
    for pair in ((0, 1), (1, n - 2)):  # a bond and a pair that is not one
        rho = reader_pair(spec, 0.7, pair)
        assert np.max(np.abs(rho - ref_pair(*pair))) < 1e-11, pair


@pytest.mark.parametrize("n, boundary, couplings", [
    (13, "periodic", (0.4, -0.9, 1.1, 0.35)),  # twelve 315-state blocks, two at a time
    (11, "open", (0.4, -0.9, 1.1, 0.35)),      # two reflection halves, one at a time
])
def test_diagonal_rows_squared_a_few_matrices_at_a_time_keep_the_whole_stack_bits(
        n, boundary, couplings):
    # Squaring the whole (m, d, d) stack at once doubled the memory of a
    # group's vectors (9.3 MiB for the N = 13 XYZ ring's 12 x 315 group);
    # each sub-stack keeps the same matmul per matrix. Parity-sector groups
    # are the ones wide enough to be split before the site cap.
    order = n if boundary == "periodic" else 1
    classes = exactdiag._classes(n, order, bond_list(n, boundary))
    terms = exactdiag._terms(n, order, couplings[3] == 0.0, classes.sites, classes.bonds)
    split = 0
    for t, (_, vectors) in zip(terms, exactdiag._solve(n, boundary, *couplings)):
        m, d, _ = vectors.shape
        rows = t.diagonal.shape[1]
        whole = (t.diagonal @ (vectors * vectors)).transpose(1, 0, 2).reshape(rows, m * d)
        assert np.array_equal(exactdiag._expectations(t, vectors)[:rows], whole)
        split += m * d * d > exactdiag._SQUARE_SIZE and m > 1
    assert split  # some group is squared in several sub-stacks


# The eigensystem cache starts cold. The N = 8 ring's parity sectors have
# momentum blocks of 14, 17, 14 (even sector) and 16, 16, 16 (odd sector)
# states at q = 1, 2, 3; reflection splits q = 0 into 18 + 2 and 12 + 4, and
# q = 4 into 9 + 9 and 12 + 4. Its total-S^z blocks, with k = 4 in
# spin-inversion halves and q = 0 and 4 in reflection halves, come in groups
# of eight 1 x 1, five 2 x 2, four 3 x 3, four 4 x 4, six 5 x 5 and four 7 x 7.
# The N = 8 open chain's parity sectors split by reflection into 72 + 56 (the
# even one holds all 16 palindromes) and 64 + 64. Its total-S^z sectors split
# into k = 0: 1, k = 1: 4 + 4, k = 2: 16 + 12 and k = 3: 28 + 28; k = 4 is
# solved as two spin-inversion halves of 35, split into 20 + 15 and 23 + 12.
PAIR_LAYER_SHAPES = {
    "periodic": ([(1, 2, 2), (2, 4, 4), (2, 9, 9), (2, 12, 12), (2, 14, 14), (3, 16, 16),
                  (1, 17, 17), (1, 18, 18)],
                 [(8, 1, 1), (5, 2, 2), (4, 3, 3), (4, 4, 4), (6, 5, 5), (4, 7, 7)]),
    "open": ([(1, 56, 56), (2, 64, 64), (1, 72, 72)],
             [(1, 1, 1), (2, 4, 4), (2, 12, 12), (1, 15, 15), (1, 16, 16), (1, 20, 20),
              (1, 23, 23), (2, 28, 28)]),
}


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_pair_layers_are_built_once_per_orbit(monkeypatch, boundary):
    # A pair reads its orbit under the chain's translations and reflection:
    # on the N = 8 ring the pairs at distance d and N - d, on the open chain
    # the pair and its mirror image. Bond orbits are rows of the table.
    calls = []
    expectations = exactdiag._expectations

    def counting(terms, vectors):
        calls.append(vectors.shape)
        return expectations(terms, vectors)

    monkeypatch.setattr(exactdiag, "_expectations", counting)
    exactdiag._eigensystem.cache_clear()
    for spec, shapes in zip(
            (ModelSpec.xyz(0.5531, -0.37, 0.21, b=0.3, n_sites=8, boundary=boundary),
             ModelSpec.xxx(-0.7219, b=0.3, n_sites=8, boundary=boundary)),
            PAIR_LAYER_SHAPES[boundary]):
        conserve_sz = spec.jx == spec.jy
        first = reduced_pair_state(spec, 0.6, (1, 4)).matrix
        # One call per group for the eigensystem's table, then one for the orbit of (1, 4).
        assert calls == shapes * 2
        calls.clear()
        # The same orbit at other temperatures, and at other fields where S^z
        # is conserved, reuses its cached rows; bonds and thermal calls read
        # the table.
        repeats = [(spec, 0.6, (1, 4)), (spec, 1.3, (4, 1)), (spec, 0.2, (6, 3))]
        if conserve_sz:
            repeats.append((replace(spec, b=-0.9), 0.6, (3, 6)))
        for case in repeats:
            reduced_pair_state(*case)
        reduced_pair_state(spec, 0.6, (2, 3))
        reduced_pair_state(spec, 1.3, (5, 4))
        thermal_observables(spec, 1.3)
        ground_state_observables(spec)
        if conserve_sz:
            thermal_observables(replace(spec, b=-0.9), 0.6)
            reduced_pair_state(replace(spec, b=0.7), 0.6, (5, 4))
        assert calls == []
        assert np.array_equal(reduced_pair_state(spec, 0.6, (1, 4)).matrix, first)
        # A new orbit builds its rows once, one call per group.
        reduced_pair_state(spec, 0.6, (0, 2))
        reduced_pair_state(spec, 0.9, (7, 5))
        assert calls == shapes
        calls.clear()


def test_open_chain_pair_terms_are_built_once_per_pair():
    # An open chain reads each call's densities through coupling-free term
    # tables: its bonds share the table H is built from, and each pair state
    # builds the table of its pair once. The cache starts empty so that
    # every table build shows as a miss.
    def misses():
        return exactdiag._terms.cache_info().misses

    exactdiag._terms.cache_clear()
    exactdiag._eigensystem.cache_clear()
    for spec in (ModelSpec.xyz(0.4127, -0.53, 0.29, b=0.3, n_sites=9, boundary="open"),
                 ModelSpec.xxx(-0.8311, b=0.3, n_sites=9, boundary="open")):
        start = misses()
        thermal_observables(spec, 0.6)
        assert misses() - start == 1  # the bond table, shared by H and the reader
        first = reduced_pair_state(spec, 0.6, (2, 6)).matrix
        assert misses() - start == 2
        # The same pair, either way round, at other temperatures, and at other
        # fields where S^z is conserved, reuses the table.
        repeats = [(spec, 0.6, (6, 2)), (spec, 1.3, (2, 6)), (spec, 0.2, (6, 2))]
        if spec.jx == spec.jy:
            repeats.append((replace(spec, b=-0.9), 0.6, (2, 6)))
        for case in repeats:
            reduced_pair_state(*case)
        thermal_observables(spec, 0.9)
        assert misses() - start == 2
        assert np.array_equal(reduced_pair_state(spec, 0.6, (2, 6)).matrix, first)
        # A new pair builds its table once.
        reduced_pair_state(spec, 0.6, (0, 8))
        reduced_pair_state(spec, 0.9, (8, 0))
        assert misses() - start == 3


# ---------------------------------------------------------------------------
# The k = N/2 sector in spin-inversion halves


def split_case_spec(family, boundary, sign, n, b):
    if family == "xxz":
        return ModelSpec.xyz(0.9, 0.9, -0.4, b=b, n_sites=n, boundary=boundary,
                             sign_convention=sign)
    make = ModelSpec.xxx if family == "xxx" else ModelSpec.xx
    return make(1.3, b=b, n_sites=n, boundary=boundary, sign_convention=sign)


SPLIT_CASES = [(family, boundary, sign, n, b)
               for family in ("xxx", "xx", "xxz")
               for boundary in ("open", "periodic")
               for sign in ("singlet-ground", "as-printed")
               for n in (2, 4, 6, 8)
               for b in (0.0, 0.45)
               if boundary == "open" or n >= 4]
SPLIT_CASES += [("xxx", "periodic", "singlet-ground", 10, 0.0),
                ("xx", "open", "as-printed", 10, 0.45)]


@pytest.mark.parametrize("family, boundary, sign, n, b", SPLIT_CASES)
def test_spin_inversion_halves_match_dense(family, boundary, sign, n, b):
    spec = split_case_spec(family, boundary, sign, n, b)
    if boundary == "periodic":
        # a half's sign p = +-1 has the angle (1 - p) N, 0 or 2N; p = 0 has N
        assert (exactdiag._layout(n, n, True).basis.sign_angle != n).any()
    ref, _ = dense_reference(spec, None)
    assert_observables_close(ground_state_observables(spec), ref, 1e-11)
    assert abs(ground_state_energy(spec) - ref.u) < 1e-11 * max(1.0, abs(ref.u))
    for kt in (1e-3, 0.3, 2.0) if n < 10 else (0.3,):
        ref, ref_pair = dense_reference(spec, kt)
        assert_observables_close(thermal_observables(spec, kt), ref, 1e-11)
        for d in range(1, n):
            for a in (0, n - 1) if boundary == "periodic" else (0,):
                pair = (a, (a + d) % n)
                rho = reader_pair(spec, kt, pair)
                assert np.max(np.abs(rho - ref_pair(*pair))) < 1e-11, (pair, kt)


@pytest.mark.parametrize("n, e0_over_j", [(12, -5.387390917), (14, -6.263549533)])
def test_xxx_ring_ground_energies_above_dense_sizes(n, e0_over_j):
    # Published ground energies of the spin-1/2 Heisenberg ring in S.S units;
    # in Pauli units they are four times larger. The singlet lies in k = N/2.
    spec = ModelSpec.xxx(1.0, n_sites=n)
    e0 = 4.0 * e0_over_j
    assert abs(ground_state_energy(spec) - e0) < 1e-9 * abs(e0)
    # The bond correlators come from the eigenvectors, so they check U independently.
    obs = ground_state_observables(spec)
    assert abs(obs.u - e0) < 1e-9 * abs(e0)
    assert abs(sum(map(sum, obs.bond_correlators)) - obs.u) < 1e-10 * abs(e0)
    assert abs(obs.m) < 1e-12


# ---------------------------------------------------------------------------
# Symmetries of the thermal state


def symmetry_tolerance(spec, kt):
    """As for the random-spec test: a few ulps of the energy scale, times beta."""
    scale = spec.n_sites * (abs(spec.jx) + abs(spec.jy) + abs(spec.jz) + abs(spec.b))
    return 1e-12 * (1.0 + scale / kt) * max(1.0, scale)


KTS = st.floats(1e-3, 1e3)
FIELDS = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["xxx", "xx", "xxz"]),
       boundary=st.sampled_from(["open", "periodic"]),
       sign=st.sampled_from(["singlet-ground", "as-printed"]),
       n=st.integers(1, 8), j=st.floats(-3.0, 3.0), b=FIELDS, kt=KTS)
def test_field_reversal_negates_m_only(family, boundary, sign, n, j, b, kt):
    # Inverting every spin maps H(B) onto H(-B) when Jx = Jy.
    assume(boundary == "open" or n >= 3)
    if family == "xxz":
        spec = ModelSpec.xyz(j, j, 0.7, b=b, n_sites=n, boundary=boundary, sign_convention=sign)
    else:
        make = ModelSpec.xxx if family == "xxx" else ModelSpec.xx
        spec = make(j, b=b, n_sites=n, boundary=boundary, sign_convention=sign)
    tol = symmetry_tolerance(spec, kt)
    obs, flipped = thermal_observables(spec, kt), thermal_observables(replace(spec, b=-b), kt)
    assert abs(obs.u - flipped.u) < tol
    assert abs(obs.m + flipped.m) < tol
    for mine, theirs in zip(obs.bond_correlators, flipped.bond_correlators):
        assert np.max(np.abs(np.subtract(mine, theirs))) < tol


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(boundary=st.sampled_from(["open", "periodic"]),
       sign=st.sampled_from(["singlet-ground", "as-printed"]),
       n=st.integers(1, 8), j=st.floats(-3.0, 3.0), b=FIELDS, kt=KTS)
def test_xx_coupling_reversal_keeps_u_and_m(boundary, sign, n, j, b, kt):
    # Rotating every other spin by pi about z maps H(J) onto H(-J) on a
    # bipartite chain: open chains and even rings (odd rings are frustrated).
    assume(boundary == "open" or (n >= 4 and n % 2 == 0))
    spec, reverse = (ModelSpec.xx(coupling, b=b, n_sites=n, boundary=boundary,
                                  sign_convention=sign) for coupling in (j, -j))
    tol = symmetry_tolerance(spec, kt)
    obs, reversed_obs = thermal_observables(spec, kt), thermal_observables(reverse, kt)
    assert abs(obs.u - reversed_obs.u) < tol
    assert abs(obs.m - reversed_obs.m) < tol


# ---------------------------------------------------------------------------
# One solve per coupling ray: H(lambda c) = lambda H(c)


RAY_JS = (0.37, -1.3, 2.9)
SIGNS = ("singlet-ground", "as-printed")


def ray_specs(family, boundary, n, b=0.45):
    """Every J of RAY_JS under both sign conventions. XYZ takes J (0.9, -0.4, 0.6), so that
    s (Jx + Jy) < 0 for some, and J (0.8, -0.8, 0.5), where Jx + Jy = 0 keeps the scale 1."""
    specs = []
    for j in RAY_JS:
        for sign in SIGNS:
            if family == "xyz":
                specs += [ModelSpec.xyz(x * j, y * j, z * j, b=b, n_sites=n, boundary=boundary,
                                        sign_convention=sign)
                          for x, y, z in ((0.9, -0.4, 0.6), (0.8, -0.8, 0.5))]
            else:
                make = ModelSpec.xxx if family == "xxx" else ModelSpec.xx
                specs.append(make(j, b=b, n_sites=n, boundary=boundary, sign_convention=sign))
    return specs


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("family", ["xxx", "xx", "xyz"])
def test_coupling_rays_match_dense(family, boundary, n):
    # Odd rings with J > 0 are frustrated, so -H is not unitarily equivalent
    # to H there: the sign route is checked, not implied by a symmetry.
    for spec in ray_specs(family, boundary, n):
        ref, ref_pair = dense_reference(spec, 0.7)
        assert_observables_close(thermal_observables(spec, 0.7), ref, 1e-11)
        for pair in ((0, 1), (0, 2)):  # (0, 2) is a bond only on the 3-site ring
            rho = reader_pair(spec, 0.7, pair)
            assert np.max(np.abs(rho - ref_pair(*pair))) < 1e-11, (spec, pair)


@pytest.mark.parametrize("family, boundary, n", [("xxx", "periodic", 7), ("xx", "open", 6)])
def test_every_coupling_on_a_ray_costs_one_solve(monkeypatch, family, boundary, n):
    # Every J, both sign conventions and every field share one eigensystem:
    # the XXX ray (0, 1/2, 1, 0) and the XX ray (0, 0, 1, 0) are exact. On
    # the frustrated 7-ring H(-J) = -H(J) is not unitarily equivalent to
    # H(J), yet both read one solve; the dense-oracle test above checks both.
    calls = count_eigh_calls(monkeypatch)
    exactdiag._eigensystem.cache_clear()
    for b in (0.0, 0.45, -1.7):
        for spec in ray_specs(family, boundary, n, b=b):
            thermal_observables(spec, 0.7)
            ground_state_observables(spec)
            ground_state_energy(spec)
            reduced_pair_state(spec, 0.7, (0, 2))
        if b == 0.0:
            shapes = list(calls)
    assert exactdiag._eigensystem.cache_info().misses == 1
    assert calls == shapes and shapes


EXTREME_SCALES = (1e-300, 1e-155, 1e150, 1e300)


@pytest.mark.parametrize("j", EXTREME_SCALES)
@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("chain", ["xxx-ring", "xyz-open"])
def test_extreme_scales_give_a_value_or_floating_point_error(chain, sign, j):
    # The scale divides the couplings and multiplies the energies back, so
    # every J, B and kT gives finite values that match the dense oracle, or
    # FloatingPointError where ln Z leaves the float range; never NaN. At
    # B = 0.45 J and kT = 0.7 J the thermal state is the unit chain's,
    # rescaled, so every average must match; elsewhere a tiny kT / J can pick
    # one state of a multiplet that rounding splits, so M, the bonds and the
    # pair state need only be finite. kT = 1e-300 makes beta (E - E0)
    # overflow, for scales of either sign.
    def spec_at(b):
        if chain == "xxx-ring":
            return ModelSpec.xxx(j, b=b, n_sites=6, sign_convention=sign)
        return ModelSpec.xyz(0.9 * j, -0.4 * j, 0.6 * j, b=b, n_sites=5, boundary="open",
                             sign_convention=sign)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (*EXTREME_SCALES, 0.0, 0.45 * j):
            spec = spec_at(b)
            e0 = np.linalg.eigvalsh(build_hamiltonian(spec))[0]
            assert abs(ground_state_energy(spec) - e0) < 1e-11 * abs(e0)
            # The ground multiplet is a share of the spectrum's width at any scale.
            ground = ground_state_observables(spec)
            assert abs(ground.u - e0) < 1e-11 * abs(e0), b
            assert np.isfinite([ground.u, ground.m, *np.ravel(ground.bond_correlators)]).all()
            for kt in (1.0, 0.7 * j, 1e-300):
                with np.errstate(over="ignore"):
                    ref, ref_pair = dense_reference(spec, kt)
                rho = reader_pair(spec, kt, (0, 2))
                if not math.isfinite(ref.log_partition):
                    with pytest.raises(FloatingPointError):
                        thermal_observables(spec, kt)
                    continue
                obs = thermal_observables(spec, kt)
                assert abs(obs.u - ref.u) < 1e-11 * max(abs(ref.u), abs(e0)), (b, kt)
                assert abs(obs.log_partition - ref.log_partition) < (
                    1e-11 * max(1.0, abs(ref.log_partition))), (b, kt)
                if b == 0.45 * j and kt == 0.7 * j:
                    assert_observables_close(obs, ref, 1e-11)
                    assert np.max(np.abs(rho - ref_pair(0, 2))) < 1e-11
                assert np.isfinite([obs.m, *np.ravel(obs.bond_correlators)]).all()
                assert np.isfinite(rho).all()


# ---------------------------------------------------------------------------
# Real blocks and reflection halves


@pytest.mark.parametrize("family", ["xxx", "xx", "xyz"])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_every_eigensystem_is_real(family, boundary):
    for n in range(1 if boundary == "open" else 3, 11):
        eig, energies, *_ = exactdiag._spectrum(validate_spec(
            sector_case_spec(family, boundary, "singlet-ground", n)))
        assert eig.table.dtype == energies.dtype == np.float64
        # The latest solve's vectors, where a new pair orbit reads them.
        assert all(v.dtype == np.float64 for _, v in exactdiag._solve(*eig.key)), n


OPEN_MIRROR_SPECS = [sector_case_spec(family, "open", "singlet-ground", n)
                     for family in ("xxx", "xx", "xyz") for n in (6, 7)]


@pytest.mark.parametrize("spec", OPEN_MIRROR_SPECS,
                         ids=lambda spec: f"{spec.family}-n{spec.n_sites}")
def test_open_chain_reads_are_mirror_symmetric(spec):
    # The open-chain readers return mirror means: bond i and bond N-2-i, and
    # pair (a, b) and (N-1-b, N-1-a), agree, and each matches the dense oracle.
    n = spec.n_sites
    swap = np.eye(4)[[0, 2, 1, 3]]
    for kt in (0.3, None):
        ref, ref_pair = dense_reference(spec, kt)
        obs = ground_state_observables(spec) if kt is None else thermal_observables(spec, kt)
        assert_observables_close(obs, ref, 1e-11)
        bonds = np.array(obs.bond_correlators)
        assert np.max(np.abs(bonds - bonds[::-1])) < 1e-12
        if kt is None:
            continue
        for a, b in ((0, 1), (0, 2), (1, 4), (4, 1), (0, n - 1), (2, 3)):
            rho = reader_pair(spec, kt, (a, b))
            mirror = reader_pair(spec, kt, (n - 1 - b, n - 1 - a))
            assert np.max(np.abs(rho - swap @ mirror @ swap)) < 1e-12
            assert np.max(np.abs(rho - reduced_pair_state(spec, kt, (n - 1 - a, n - 1 - b))
                                 .matrix)) < 1e-12
            assert np.max(np.abs(rho - ref_pair(a, b))) < 1e-11
            assert np.max(np.abs(mirror - ref_pair(n - 1 - b, n - 1 - a))) < 1e-11


# ---------------------------------------------------------------------------
# The warm read: class means, the stored e0 and the finiteness check


READ_SPECS = [ModelSpec.xxx(1.1, n_sites=8), ModelSpec.xxx(-0.7, b=0.4, n_sites=7),
              ModelSpec.xx(1.3, b=-0.2, n_sites=6, boundary="open"),
              ModelSpec.xxx(0.9, b=0.3, n_sites=5, boundary="open", sign_convention="as-printed"),
              ModelSpec.xyz(0.7, 1.2, 0.9, b=0.3, n_sites=6, boundary="open"),
              ModelSpec.xyz(-0.6, 0.4, 1.1, n_sites=6)]


@pytest.mark.parametrize("spec", READ_SPECS, ids=lambda s: f"{s.family}-{s.boundary}-n{s.n_sites}")
def test_bond_correlators_repeat_the_class_means_and_e0_is_the_lowest(spec):
    # _checked tests the class means for finiteness: every bond's triple is
    # one of them, and every class is some bond's
    eig, energies, e0, scale, field, spread = exactdiag._spectrum(validate_spec(spec))
    assert e0 == (energies.min() if scale > 0.0 else energies.max())
    p, _ = exactdiag._boltzmann(energies, e0, 1.3, scale, eig.layout.multiplicity, spread)
    u, m, correlators, means = eig.observables(p, scale, field)
    c = len(means) // 3
    assert set(zip(means[:c], means[c:2 * c], means[2 * c:])) == set(correlators)
    assert len(correlators) == len(bond_list(spec.n_sites, spec.boundary))


def test_checked_reads_finiteness_off_the_class_means():
    correlators = ((0.1, 0.2, 0.3),) * 4
    obs = exactdiag._checked(-1.5, 0.25, correlators, [0.1, 0.2, 0.3], 0.5)
    built = ThermalObservables(u=-1.5, m=0.25, bond_correlators=correlators, log_partition=0.5)
    assert obs == built and hash(obs) == hash(built) and repr(obs) == repr(built)
    assert replace(obs, u=2.0).u == 2.0
    assert math.isnan(exactdiag._checked(-1.5, 0.25, correlators, [0.1, 0.2, 0.3]).log_partition)
    message = ("non-finite thermal observables: U = -1.5, M = 0.25, ln Z = 0.5, "
               "correlators ((0.1, 0.2, 0.3),)")
    for means in ([0.1, math.nan, 0.3], [-math.inf, 0.2, 0.3], [0.1, 0.2, 0.3, math.nan]):
        with pytest.raises(FloatingPointError) as caught:
            exactdiag._checked(-1.5, 0.25, correlators, means, 0.5)
        assert str(caught.value) == message
    for u, m, log_partition in ((math.nan, 0.25, 0.5), (-1.5, math.inf, 0.5),
                                (-1.5, 0.25, math.inf)):
        with pytest.raises(FloatingPointError, match="non-finite thermal observables"):
            exactdiag._checked(u, m, correlators, [0.1, 0.2, 0.3], log_partition)


# ---------------------------------------------------------------------------
# Overflow: an honest numerical failure, never a NaN result


OVERFLOW_CASES = [
    (ModelSpec.xxx(1.0, b=1e308, n_sites=6), 1.0),  # -B M leaves the float range
    (ModelSpec.xxx(1.0, n_sites=6), 1e-320),  # beta = 1/kT overflows
    (ModelSpec.xyz(1.0, 2.0, 1e308, n_sites=5), 1.0),  # s Jz overflows into H
    (ModelSpec.xyz(1.0, 2.0, 1e308, n_sites=5, boundary="open"), 1.0),
    (ModelSpec.xx(1e308, n_sites=6), 1.0),  # s (Jx + Jy) overflows
    (ModelSpec.xx(1e308, n_sites=6, boundary="open"), 1.0),
]


@pytest.mark.parametrize("spec, kt", OVERFLOW_CASES)
def test_overflow_raises_floating_point_error(spec, kt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            thermal_observables(spec, kt)
        with pytest.raises(FloatingPointError):
            reduced_pair_state(spec, kt, (0, 1))
        if kt == 1.0:
            with pytest.raises(FloatingPointError):
                ground_state_observables(spec)


def test_weights_beyond_the_float_range_are_zero():
    # beta (E - E0) overflows for the top of the XXX N = 6 spectrum (E0 =
    # -11.2, top +6), while ln Z = -beta E0 stays finite: the thermal state is
    # the ground singlet.
    spec = ModelSpec.xxx(1.0, n_sites=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs = thermal_observables(spec, 8e-308)
    ground = ground_state_observables(spec)
    assert obs.u == pytest.approx(ground.u, rel=1e-12)
    assert obs.log_partition == pytest.approx(-ground.u / 8e-308, rel=1e-12)
    # At kT = 1e-308, ln Z = -beta E0 overflows, but the pair state needs no ln Z.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="ln Z = inf"):
            thermal_observables(spec, 1e-308)
        rho = reader_pair(spec, 1e-308, (0, 1))
    assert np.max(np.abs(rho - reduced_pair_state(spec, 8e-308, (0, 1)).matrix)) < 1e-15
