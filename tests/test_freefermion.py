"""Free-fermion XX solution: mode algebra, spectra, and the large-N bridge."""

import itertools

import numpy as np
import pytest

from spinwitness import thermolimit
from spinwitness.exactdiag import build_hamiltonian, thermal_observables
from spinwitness.freefermion import jw_modes, jw_observables, jw_observables_for_spec
from spinwitness.model import ModelSpec, SpecError


def test_two_site_modes():
    modes = jw_modes(2, 1.0, 0.5)
    # 4 J cos(pi k / 3) + 2B for k = 1, 2
    assert np.allclose(modes.energies, [2.0 + 1.0, -2.0 + 1.0])
    assert modes.offset == -1.0
    assert modes.n_sites == 2


def test_mode_occupations_reconstruct_the_spin_spectrum():
    """Every subset sum of mode energies (plus offset) is a many-body level."""
    for n, j, b in ((2, 1.0, 0.5), (3, -0.7, 0.2), (4, 1.3, 0.0)):
        modes = jw_modes(n, j, b)
        fermionic = sorted(
            modes.offset + sum(occ * e for occ, e in zip(bits, modes.energies))
            for bits in itertools.product((0, 1), repeat=n))
        spec = ModelSpec.xx(j, b=b, n_sites=n, boundary="open")
        spin = np.linalg.eigvalsh(build_hamiltonian(spec))
        assert np.allclose(fermionic, spin, atol=1e-12)


def test_matches_exact_diagonalization_thermally():
    for n in (2, 5, 8, 11):
        for b in (0.0, 0.7):
            spec = ModelSpec.xx(1.0, b=b, n_sites=n, boundary="open")
            for kt in (0.5, 1.0, 2.0):
                obs = thermal_observables(spec, kt)
                u, m = jw_observables(n, kt, 1.0, b)
                assert abs(u - obs.u / n) < 1e-12
                assert abs(m - obs.m / n) < 1e-12


def test_coupling_sign_is_irrelevant():
    # the cosine modes come in +/- pairs, so J -> -J permutes them only
    for n in (4, 7):
        u_plus, m_plus = jw_observables(n, 0.8, 1.0, 0.3)
        u_minus, m_minus = jw_observables(n, 0.8, -1.0, 0.3)
        assert abs(u_plus - u_minus) < 1e-13
        assert abs(m_plus - m_minus) < 1e-13


def test_zero_field_has_zero_magnetization():
    for n in (6, 7):  # odd n adds an exactly-zero mode
        _, m = jw_observables(n, 0.9, 1.0, 0.0)
        assert abs(m) < 1e-15


def test_converges_to_the_thermodynamic_limit():
    kt, b = 1.0, 0.5
    u_inf = thermolimit.xx_internal_energy(kt, b, 1.0)
    m_inf = thermolimit.xx_magnetization(kt, b, 1.0)
    u_errors, m_errors = [], []
    for n in (100, 200, 400, 800, 1600):
        u, m = jw_observables(n, kt, 1.0, b)
        u_errors.append(abs(u - u_inf))
        m_errors.append(abs(m - m_inf))
    assert all(a > b for a, b in zip(u_errors, u_errors[1:]))
    assert all(a > b for a, b in zip(m_errors, m_errors[1:]))
    assert u_errors[-1] < 5e-4 and m_errors[-1] < 1e-4


def test_spec_entry_point():
    spec = ModelSpec.xx(1.2, b=0.4, n_sites=9, boundary="open")
    assert jw_observables_for_spec(spec, 0.7) == jw_observables(9, 0.7, 1.2, 0.4)


def test_spec_entry_point_rejections():
    with pytest.raises(SpecError):
        jw_observables_for_spec(ModelSpec.xxx(1.0, n_sites=6, boundary="open"), 1.0)
    with pytest.raises(SpecError):
        jw_observables_for_spec(ModelSpec.xx(1.0, n_sites=6, boundary="periodic"), 1.0)
    with pytest.raises(SpecError):
        jw_observables_for_spec(ModelSpec.xx(1.0), 1.0)
    with pytest.raises(SpecError):
        jw_modes(0, 1.0)


@pytest.mark.parametrize("count", [10.5, True, "10", float("inf")])
def test_non_integral_site_counts_are_rejected(count):
    with pytest.raises(SpecError, match="n_sites must be an integer"):
        jw_observables(count, 0.7, 1.0, 0.3)
    with pytest.raises(SpecError, match="n_sites must be an integer"):
        jw_modes(count, 1.0)
    assert jw_observables(10.0, 0.7, 1.0, 0.3) == jw_observables(10, 0.7, 1.0, 0.3)
