"""Witness evaluation, the correlator identity, and the separable bound."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from spinwitness import witness
from spinwitness.exactdiag import concurrence, reduced_pair_state, thermal_observables
from spinwitness.model import ModelSpec, SpecError
from spinwitness.witness import (
    SOURCE_FINITE_EXACT,
    THRESHOLD,
    concurrence_from_energy,
    per_site_witness_report,
    product_state_witness,
    separable_sweep,
    witness_from_correlators,
    witness_from_model,
    witness_value,
)


def test_witness_value_two_site_singlet():
    # U = -3J for the two-site singlet: W = 3/2 with one bond over two sites
    report = witness_value(u=-3.0, m=0.0, b=0.0, j=1.0, n_sites=2)
    assert report.value == 1.5
    assert report.entangled
    assert report.threshold == THRESHOLD
    assert report.inputs.n_sites == 2


def test_witness_value_field_term_and_sign_conventions():
    report = witness_value(u=-2.0, m=1.5, b=2.0, j=-1.0, n_sites=4)
    assert report.value == abs(-2.0 + 2.0 * 1.5) / 4.0
    assert witness_value(-2.0, 1.5, 2.0, 1.0, 4).value == report.value  # |J| only
    assert not report.entangled


def test_witness_value_rejections():
    with pytest.raises(SpecError):
        witness_value(1.0, 0.0, 0.0, 0.0, 4)
    with pytest.raises(SpecError):
        witness_value(1.0, 0.0, 0.0, float("inf"), 4)
    with pytest.raises(SpecError):
        witness_value(1.0, 0.0, 0.0, 1.0, 0)
    with pytest.raises(SpecError):
        witness_value(1.0, 0.0, 0.0, 1.0, 4, source="hearsay")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_measured_inputs_are_rejected(bad):
    for u, m, b in ((bad, 0.0, 0.0), (-3.0, bad, 0.5), (-3.0, 0.0, bad)):
        with pytest.raises(SpecError, match="finite"):
            witness_value(u, m, b, 1.0, 4)
        with pytest.raises(SpecError, match="finite"):
            per_site_witness_report(u, m, b, 1.0)


def test_report_to_dict_is_json_ready():
    report = witness_value(-3.0, 0.0, 0.0, 1.0, 2)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["W"] == 1.5
    assert payload["entangled"] is True
    assert payload["inputs"]["n_sites"] == 2


def test_per_site_report_marks_the_limit():
    report = per_site_witness_report(-1.2, 0.3, 0.5, 1.0)
    assert report.value == abs(-1.2 + 0.5 * 0.3)
    assert report.inputs.n_sites is None


def test_witness_from_correlators_hand_sum():
    bonds = [(-0.5, -0.4, -0.3), (-0.2, -0.1, 0.6)]
    assert abs(witness_from_correlators(bonds, 2, "xxx") - abs(-0.5 - 0.4 - 0.3 - 0.2 - 0.1 + 0.6) / 2) < 1e-15
    assert abs(witness_from_correlators(bonds, 2, "xx") - abs(-0.5 - 0.4 - 0.2 - 0.1) / 2) < 1e-15


def test_witness_from_correlators_rejections():
    with pytest.raises(SpecError):
        witness_from_correlators([(-2.0, 0.0, 0.0)], 1, "xxx")
    with pytest.raises(SpecError):
        witness_from_correlators([(0.0, 0.0, 0.0)], 1, "xyz")
    with pytest.raises(SpecError):
        witness_from_correlators([], 0, "xxx")


def test_two_routes_agree_on_thermal_states():
    for spec, kt in ((ModelSpec.xxx(1.0, b=0.4, n_sites=6), 0.7),
                     (ModelSpec.xx(-1.3, b=0.2, n_sites=5, boundary="open"), 1.5)):
        obs = thermal_observables(spec, kt)
        via_energy = witness_value(obs.u, obs.m, spec.b, spec.jx, spec.n_sites).value
        via_corr = witness_from_correlators(obs.bond_correlators, spec.n_sites, spec.family)
        assert abs(via_energy - via_corr) < 1e-12


def test_aligned_product_states_saturate_the_bound():
    aligned_z = np.tile([0.0, 0.0, 1.0], (6, 1))
    aligned_x = np.tile([1.0, 0.0, 0.0], (6, 1))
    assert product_state_witness(aligned_z, "xxx") == 1.0
    assert product_state_witness(aligned_x, "xx") == 1.0
    # z-aligned spins have no xy correlation at all
    assert product_state_witness(aligned_z, "xx") == 0.0


def test_alternating_product_state_also_saturates():
    signs = np.where(np.arange(6) % 2 == 0, 1.0, -1.0)[:, None]
    alternating = np.tile([0.0, 0.0, 1.0], (6, 1)) * signs
    assert product_state_witness(alternating, "xxx") == 1.0


def test_open_chain_product_witness_counts_bonds_over_sites():
    aligned = np.tile([0.0, 0.0, 1.0], (4, 1))
    assert product_state_witness(aligned, "xxx", boundary="open") == 0.75


def _product_witness_by_bond_loop(u, family, boundary):
    """Reference: one Python dot product per bond."""
    components = 3 if family == "xxx" else 2
    n = len(u)
    bonds = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if boundary == "periodic" else [])
    return abs(sum(float(u[i, :components] @ u[j, :components]) for i, j in bonds)) / n


@pytest.mark.parametrize("n", [2, 3, 8, 2000])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("family", ["xxx", "xx"])
def test_product_state_witness_matches_a_bond_loop(n, boundary, family):
    rng = np.random.default_rng(n)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    assert abs(product_state_witness(u, family, boundary=boundary)
               - _product_witness_by_bond_loop(u, family, boundary)) < 1e-12
    aligned = np.tile([1.0, 0.0, 0.0], (n, 1))
    value = product_state_witness(aligned, family, boundary=boundary)
    assert value == _product_witness_by_bond_loop(aligned, family, boundary)
    assert value == (1.0 if boundary == "periodic" else (n - 1) / n)


def test_product_state_validation():
    with pytest.raises(SpecError):
        product_state_witness(np.ones((4, 3)), "xxx")  # not unit length
    with pytest.raises(SpecError):
        product_state_witness(np.ones((4, 2)), "xxx")
    with pytest.raises(SpecError):
        product_state_witness(np.tile([0.0, 0.0, 1.0], (4, 1)), "xyz")


def test_xx_sum_is_two_thirds_on_isotropic_ground_state():
    from spinwitness.exactdiag import ground_state_observables
    obs = ground_state_observables(ModelSpec.xxx(1.0, n_sites=6))
    full = witness_from_correlators(obs.bond_correlators, 6, "xxx")
    xy_only = witness_from_correlators(obs.bond_correlators, 6, "xx")
    assert abs(xy_only / full - 2.0 / 3.0) < 1e-12


def test_separable_sweep_respects_the_bound():
    for family in ("xxx", "xx"):
        best = separable_sweep(2000, 8, family, seed=123)
        assert best <= 1.0 + 1e-12
        assert best == 1.0  # the aligned corner saturates, random never exceeds
        no_corners = separable_sweep(2000, 8, family, seed=123, include_corners=False)
        assert no_corners < 1.0


def test_separable_sweep_is_seeded():
    a = separable_sweep(500, 6, "xxx", seed=7, include_corners=False)
    b = separable_sweep(500, 6, "xxx", seed=7, include_corners=False)
    c = separable_sweep(500, 6, "xxx", seed=8, include_corners=False)
    assert a == b
    assert a != c


def test_separable_sweep_rejections():
    with pytest.raises(SpecError):
        separable_sweep(0, 6, "xxx", seed=1)
    with pytest.raises(SpecError):
        separable_sweep(10, 2, "xxx", seed=1)
    with pytest.raises(SpecError):
        separable_sweep(10, 6, "xyz", seed=1)


def unblocked_sweep(n_samples, n, family, seed, include_corners):
    """The sweep scored as one (n_samples, N, 3) array."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n_samples, n, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    components = 3 if family == "xxx" else 2
    dots = np.einsum("sna,sna->sn", vecs[:, :, :components],
                     np.roll(vecs, -1, axis=1)[:, :, :components])
    best = float(np.max(np.abs(dots.sum(axis=1))) / n)
    if include_corners:
        best = max(best, 1.0)  # the x-aligned corner scores exactly 1, the others at most 1
    return best


# Each size spans several blocks of the default budget, the last one partial.
SWEEP_SIZES = {3: 12_001, 8: 9_001, 17: 4_001, 2000: 50}


@pytest.mark.parametrize("n", sorted(SWEEP_SIZES))
@pytest.mark.parametrize("per_block", [None, 1, 7, "all"])
def test_blocked_sweep_is_bit_identical_to_the_unblocked_reference(monkeypatch, n, per_block):
    n_samples = SWEEP_SIZES[n]
    if per_block is not None:
        n_samples = min(n_samples, 300)  # 300 and 50 are not multiples of 7
        samples = n_samples + 1 if per_block == "all" else per_block
        monkeypatch.setattr(witness, "_SWEEP_BLOCK_SITES", samples * n)
    for family in ("xxx", "xx"):
        for corners in (True, False):
            expected = unblocked_sweep(n_samples, n, family, n, corners)
            assert separable_sweep(n_samples, n, family, n, corners) == expected


@pytest.mark.parametrize("n_samples, n", [(20_000, 8), (200_000, 8), (64, 2000)])
def test_separable_sweep_memory_is_bounded(n_samples, n):
    # The whole-array sweep peaked at 10, 98 and 8 MiB on these inputs.
    tracemalloc.start()
    try:
        separable_sweep(n_samples, n, "xxx", seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


NON_INTEGRAL_COUNTS = [2.5, 10.9, True, "4", float("nan"), None]


@pytest.mark.parametrize("count", NON_INTEGRAL_COUNTS)
def test_witness_value_rejects_non_integral_site_counts(count):
    with pytest.raises(SpecError, match="n_sites must be an integer"):
        witness_value(3.0, 1.0, 0.5, 1.0, count)


@pytest.mark.parametrize("count", NON_INTEGRAL_COUNTS)
def test_witness_from_correlators_rejects_non_integral_site_counts(count):
    with pytest.raises(SpecError, match="n_sites must be an integer"):
        witness_from_correlators([(-0.5, -0.4, -0.3)] * 2, count, "xxx")


@pytest.mark.parametrize("count", NON_INTEGRAL_COUNTS)
def test_concurrence_from_energy_rejects_non_integral_site_counts(count):
    with pytest.raises(SpecError, match="n_sites must be an integer"):
        concurrence_from_energy(-3.0, count, 1.0)


@pytest.mark.parametrize("count", NON_INTEGRAL_COUNTS)
def test_separable_sweep_rejects_non_integral_counts(count):
    with pytest.raises(SpecError, match="n_samples must be an integer"):
        separable_sweep(count, 8, "xxx", seed=1)
    with pytest.raises(SpecError, match="n_sites must be an integer"):
        separable_sweep(10, count, "xxx", seed=1)


def test_integral_counts_of_any_type_are_accepted():
    for count in (4, 4.0, np.int64(4), np.float64(4.0)):
        assert witness_value(-3.0, 0.0, 0.0, 1.0, count).inputs.n_sites == 4
        assert separable_sweep(count, count, "xx", seed=3) == separable_sweep(4, 4, "xx", seed=3)


def test_concurrence_from_energy_values():
    assert concurrence_from_energy(-3.0, 2, 1.0) == 0.25
    assert concurrence_from_energy(-1.5, 2, 1.0) == 0.0  # below the threshold
    assert concurrence_from_energy(-3.0, 2, 1.0, antiferromagnetic=False) == 0.0
    with pytest.raises(SpecError):
        concurrence_from_energy(-3.0, 2, 0.0)
    with pytest.raises(SpecError):
        concurrence_from_energy(-3.0, 0, 1.0)


def test_concurrence_from_energy_matches_wootters():
    spec = ModelSpec.xxx(1.0, b=0.0, n_sites=6)
    kt = 0.5
    u = thermal_observables(spec, kt).u
    c_energy = concurrence_from_energy(u, 6, 1.0)
    c_pair = concurrence(reduced_pair_state(spec, kt, (0, 1)))
    assert abs(c_energy - c_pair) < 1e-10


def test_witness_from_model():
    spec = ModelSpec.xxx(1.0, b=0.5, n_sites=6)
    obs = thermal_observables(spec, 0.8)
    report = witness_from_model(spec, 0.8)
    assert report.source == SOURCE_FINITE_EXACT
    assert report.value == abs(obs.u + 0.5 * obs.m) / 6.0


def test_witness_from_model_field_flip_invariance():
    spec = ModelSpec.xx(1.0, b=0.6, n_sites=6, boundary="open")
    flipped = ModelSpec.xx(1.0, b=-0.6, n_sites=6, boundary="open")
    assert abs(witness_from_model(spec, 0.8).value
               - witness_from_model(flipped, 0.8).value) < 1e-13


def test_witness_from_model_rejections():
    with pytest.raises(SpecError):
        witness_from_model(ModelSpec.xyz(1.0, 0.5, 0.2, n_sites=4), 1.0)
    with pytest.raises(SpecError):
        witness_from_model(ModelSpec.xx(1.0), 1.0)  # thermodynamic limit
