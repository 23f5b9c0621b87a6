"""Witness evaluation, the correlator identity, and the separable bound."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spinwitness import validation, witness
from spinwitness.exactdiag import concurrence, reduced_pair_state, thermal_observables
from spinwitness.model import ModelSpec, SpecError, require_count
from spinwitness.witness import (
    SOURCE_FINITE_EXACT,
    THRESHOLD,
    WitnessInputs,
    WitnessReport,
    concurrence_from_energy,
    per_site_witness_report,
    product_state_witness,
    separable_sweep,
    witness_from_correlators,
    witness_from_model,
    witness_from_totals,
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_measured_inputs_are_rejected(bad):
    for u, m, b in ((bad, 0.0, 0.0), (-3.0, bad, 0.5), (-3.0, 0.0, bad)):
        with pytest.raises(SpecError, match="finite"):
            witness_value(u, m, b, 1.0, 4)
        with pytest.raises(SpecError, match="finite"):
            per_site_witness_report(u, m, b, 1.0)


def test_overflowing_witness_is_a_numerical_failure():
    # finite inputs whose |U + B*M|/(N|J|) passes the float range once gave
    # W = inf with the verdict "entangled"
    with pytest.raises(FloatingPointError, match="overflows the float range"):
        witness_value(1e300, 0.0, 0.0, 1e-10, 1)
    with pytest.raises(FloatingPointError, match="overflows the float range"):
        witness_value(0.0, 1e200, 1e200, 1.0, 1)  # B*M itself overflows
    with pytest.raises(FloatingPointError, match="overflows the float range"):
        per_site_witness_report(1e300, 0.0, 0.0, 1e-10)
    with pytest.raises(FloatingPointError, match="overflows the float range"):
        per_site_witness_report(-1e300, 1e300, 1e300, 1.0)
    # just inside the range it is still a number
    assert witness_value(1.7e308, 0.0, 0.0, 1.0, 1).value == 1.7e308


@pytest.mark.parametrize("u, m, b, j, n", [(-3.0, 0.0, 0.0, 1.0, 2), (-2.0, 1.5, 2.0, -1.0, 4),
                                           (-6.25, 0.3, -0.7, 0.45, 8), (1e-300, 0.0, 0.0, 1e-5, 3),
                                           (1e300, 1.0, -1e300, 1.0, 1)])
def test_ordinary_witness_inputs_keep_their_bits(u, m, b, j, n):
    assert witness_value(u, m, b, j, n).value == abs(u + b * m) / (n * abs(j))
    assert per_site_witness_report(u, m, b, j).value == abs(u + b * m) / abs(j)


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


# The two witness routes as they read before their per-call overhead was
# cut: the production routes must return the same bits and raise the same
# exception, with the same message, on every input.


def reference_witness_value(u, m, b, j, n_sites):
    j = float(j)
    if j == 0.0 or not math.isfinite(j):
        raise SpecError("witness undefined for J = 0")
    n = require_count(n_sites, "n_sites")
    values = (float(u), float(m), float(b))
    for name, value in zip(("U", "M", "B"), values):
        if not math.isfinite(value):
            raise SpecError(f"witness input {name} must be finite, got {value}")
    u, m, b = values
    value = abs(u + b * m) / (n * abs(j))
    if value == math.inf:
        raise FloatingPointError(f"W = |U + B*M|/(N|J|) = {abs(u + b * m):g}/{n * abs(j):g} "
                                 "overflows the float range")
    return WitnessReport(value=value, entangled=value > THRESHOLD, source="external-measurement",
                         inputs=WitnessInputs(u=u, m=m, b=b, j=j, n_sites=n))


def reference_witness_from_correlators(bond_correlators, n_sites, family):
    family = str(family).lower()
    if family not in ("xxx", "xx"):
        raise SpecError(
            f"family {family!r} is not witness-eligible (proofs cover ('xxx', 'xx'))")
    n = require_count(n_sites, "n_sites")
    total = 0.0
    for triple in bond_correlators:
        xx, yy, zz = (float(c) for c in triple)
        for c in (xx, yy, zz):
            if not abs(c) <= 1.0 + 1e-9:  # NaN included
                raise SpecError(f"correlator component {c} outside [-1, 1]")
        total += xx + yy + (zz if family == "xxx" else 0.0)
    bonds = len(bond_correlators)
    if bonds not in (n, n - 1):
        raise SpecError(f"{bonds} bond correlators for {n} sites: a ring has {n} bonds, "
                        f"an open chain {n - 1}")
    return abs(total) / n


def outcome(route, *args):
    """repr of the result (its bits, NaN aside), or the exception type and message."""
    try:
        return repr(route(*args))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


COMPONENTS = st.one_of(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    st.sampled_from([math.nan, 1.0 + 1e-9, -1.0 - 1e-9, 1.0 + 2e-9, -1.5, math.inf, -0.0]))
TRIPLES = st.tuples(COMPONENTS, COMPONENTS, COMPONENTS)
CONTAINERS = st.sampled_from([tuple, list, lambda t: tuple(map(np.float64, t)), np.array])
FAMILIES = st.sampled_from(["xxx", "xx", "XXX", "Xx", "xyz", "heisenberg"])
COUNTS = st.one_of(st.integers(1, 40), st.sampled_from(
    [0, -2, 2.5, True, "4", None, math.nan, np.int64(7), 12.0]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), open_chain=st.booleans(),
       family=st.sampled_from(["xxx", "xx"]), container=CONTAINERS,
       outer=st.sampled_from([list, tuple]), nan_at=st.one_of(st.none(), st.integers(0, 119)))
def test_correlator_route_keeps_the_reference_bits(seed, n, open_chain, family, container,
                                                   outer, nan_at):
    # generic components in [-1, 1], so a changed summation order shows
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n - open_chain, 3))
    if nan_at is not None and nan_at < values.size:
        values.flat[nan_at] = math.nan
    bonds = outer(container(t) for t in values.tolist())
    expected = outcome(reference_witness_from_correlators, bonds, n, family)
    assert outcome(witness_from_correlators, bonds, n, family) == expected
    # a NaN component is rejected, an XX chain's unused zz included
    assert isinstance(expected, tuple) == (nan_at is not None and nan_at < values.size)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bonds=st.lists(TRIPLES, min_size=1, max_size=40), container=CONTAINERS,
       outer=st.sampled_from([list, tuple]), n=COUNTS, family=FAMILIES)
def test_correlator_route_keeps_the_reference_errors(bonds, container, outer, n, family):
    bonds = outer(container(t) for t in bonds)
    assert (outcome(witness_from_correlators, bonds, n, family)
            == outcome(reference_witness_from_correlators, bonds, n, family))


@pytest.mark.parametrize("triple", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), (), [0.5], np.zeros(4)])
@pytest.mark.parametrize("family", ["xxx", "xx"])
def test_correlator_triples_of_the_wrong_length_raise_as_before(triple, family):
    bonds = [(0.1, -0.2, 0.3), triple]
    expected = outcome(reference_witness_from_correlators, bonds, 2, family)
    assert expected[0] is ValueError
    assert outcome(witness_from_correlators, bonds, 2, family) == expected


def test_correlator_route_names_the_first_component_out_of_range():
    bonds = [(0.1, 0.2, 0.3), (0.4, -1.25, 1.5), (2.0, 0.0, 0.0)]
    for family in ("xxx", "xx"):
        with pytest.raises(SpecError, match=r"component -1.25 outside"):
            witness_from_correlators(bonds, 3, family)
    # a NaN component fails the bound test rather than making W NaN
    with pytest.raises(SpecError, match=r"component nan outside"):
        witness_from_correlators([(0.1, math.nan, 0.3)], 1, "xxx")


def test_correlator_route_takes_a_ring_or_an_open_chain_of_bonds_only():
    bond = (-0.25, -0.25, -0.5)  # sums exactly: -1 with zz, -0.5 without
    for bonds, n in (([bond], 5), ([], 3), ([bond] * 6, 4), ([bond] * 2, 4)):
        for family in ("xxx", "xx"):
            with pytest.raises(SpecError, match=rf"{len(bonds)} bond correlators for {n} sites"):
                witness_from_correlators(bonds, n, family)
            assert outcome(reference_witness_from_correlators, bonds, n, family)[0] is SpecError
    for bonds in ([bond] * 4, [bond] * 3):  # a ring of 4 sites, an open chain of 4
        assert witness_from_correlators(bonds, 4, "xxx") == len(bonds) / 4
        assert witness_from_correlators(iter(bonds), 4, "xx") == len(bonds) / 8


SCALARS = st.one_of(st.floats(-50.0, 50.0), st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308,
                                     np.float64(0.75), np.float64(math.nan)]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(u=SCALARS, m=SCALARS, b=SCALARS, j=SCALARS, n=COUNTS)
def test_totals_route_keeps_the_reference_bits_and_errors(u, m, b, j, n):
    assert (outcome(witness_value, u, m, b, j, n)
            == outcome(reference_witness_value, u, m, b, j, n))


def test_totals_route_builds_the_same_report():
    # finite inputs whose sum overflows are still finite inputs
    for args in ((-3.0, 0.5, 0.7, 1.1, 10), (1e308, 1e308, -1.0, 2.0, 3)):
        report, expected = witness_value(*args), reference_witness_value(*args)
        assert report == expected and hash(report) == hash(expected)
        assert report.to_dict() == expected.to_dict()
        assert replace(report, source=SOURCE_FINITE_EXACT).inputs == expected.inputs


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
    with_nan = np.tile([0.0, 0.0, 1.0], (4, 1))
    with_nan[2, 0] = math.nan  # once passed the unit-norm test and made W NaN
    with pytest.raises(SpecError, match="unit length"):
        product_state_witness(with_nan, "xxx")
    with pytest.raises(SpecError, match="empty"):  # not numpy's zero-size reduction error
        product_state_witness(np.empty((0, 3)), "xxx")
    # the boundary is read by the model's rule: "Periodic" was once scored as an open chain
    aligned = np.tile([0.0, 0.0, 1.0], (4, 1))
    assert product_state_witness(aligned, "xxx", "Periodic") == 1.0
    assert product_state_witness(aligned, "xxx", "OPEN") == 0.75
    for boundary in ("ring", "periodc", None):
        with pytest.raises(SpecError, match="unknown boundary"):
            product_state_witness(aligned, "xxx", boundary)


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


@pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0, got -1"),
                                           (1.5, "seed must be an integer"),
                                           (True, "seed must be an integer"),
                                           ("3", "seed must be an integer")])
def test_separable_sweep_rejects_bad_seeds(seed, message):
    # numpy's own ValueError (-1) and TypeError (1.5) read as numerical failures
    with pytest.raises(SpecError, match=message):
        separable_sweep(10, 4, "xxx", seed=seed)


def test_separable_sweep_takes_none_and_integral_seeds():
    assert separable_sweep(10, 4, "xxx", seed=None) == 1.0
    reference = separable_sweep(50, 4, "xx", seed=7, include_corners=False)
    for seed in (np.int64(7), 7.0):
        assert separable_sweep(50, 4, "xx", seed=seed, include_corners=False) == reference
    assert separable_sweep(10, 4, "xxx", seed=0) == 1.0


def sweep_bond_dots(n_samples, n, family, seed):
    """The sweep's (n_samples, N) ring bond dots, drawn as one (n_samples, N, 2) array."""
    rng = np.random.default_rng(seed)
    u = rng.random((n_samples, n, 2))
    z = 2.0 * u[..., 0] - 1.0
    phi = 2.0 * math.pi * u[..., 1]
    r = np.sqrt(1.0 - z * z)
    dots = r * np.roll(r, -1, axis=1) * np.cos(phi - np.roll(phi, -1, axis=1))
    if family == "xxx":
        dots = z * np.roll(z, -1, axis=1) + dots
    return dots


def unblocked_sweep(n_samples, n, family, seed, include_corners):
    """The sweep scored as one array."""
    dots = sweep_bond_dots(n_samples, n, family, seed)
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


@pytest.mark.parametrize("n", sorted(SWEEP_SIZES))
@pytest.mark.parametrize("per_block", [None, 1, 7, "all"])
def test_one_sweep_scores_both_families_bit_for_bit(monkeypatch, n, per_block):
    # validate scores the XXX and XX bounds on one sweep's draws
    n_samples = SWEEP_SIZES[n]
    if per_block is not None:
        n_samples = min(n_samples, 300)
        samples = n_samples + 1 if per_block == "all" else per_block
        monkeypatch.setattr(witness, "_SWEEP_BLOCK_SITES", samples * n)
    for corners in (True, False):
        both = witness._sweep_maxima(n_samples, n, ("xxx", "xx"), n, corners)
        assert both == [separable_sweep(n_samples, n, family, n, corners)
                        for family in ("xxx", "xx")]
        assert both == [unblocked_sweep(n_samples, n, family, n, corners)
                        for family in ("xxx", "xx")]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 64), n_samples=st.integers(1, 3000),
       families=st.sampled_from([("xxx",), ("xx",), ("xxx", "xx"), ("xx", "xxx")]),
       corners=st.booleans(), per_block=st.integers(1, 8))
def test_pruned_sweep_is_bit_identical_to_scoring_every_sample(seed, n, n_samples, families,
                                                               corners, per_block):
    # Blocks of a few samples: the running maximum prunes from the second
    # block on, and each block's lower bounds prune inside it.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witness, "_SWEEP_BLOCK_SITES", per_block * n)
        maxima = witness._sweep_maxima(n_samples, n, families, seed, corners)
    assert maxima == [unblocked_sweep(n_samples, n, family, seed, corners) for family in families]


@pytest.fixture
def cosine_sizes(monkeypatch):
    """The size of each argument np.cos receives in the test."""
    cos, sizes = np.cos, []

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counting)
    return sizes


@pytest.mark.parametrize("family", ["xxx", "xx"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_takes_cosines_only_of_the_samples_past_the_z_bound(cosine_sizes, monkeypatch,
                                                                 family, seed):
    # Each sample the z bound keeps gets one cosine per bond, and no other
    # sample gets any; without the corners 50-75% of these samples pass.
    contenders, kept = witness._contenders, []

    def counting(*args):
        rows = contenders(*args)
        kept.append(len(rows))
        return rows

    monkeypatch.setattr(witness, "_contenders", counting)
    separable_sweep(20_000, 8, family, seed=seed, include_corners=False)
    assert 0 < sum(kept) < 20_000
    assert sum(cosine_sizes) == 8 * sum(kept)


@pytest.mark.parametrize("sweep", [
    lambda: separable_sweep(10 ** 5, 8, "xxx", seed=5),
    lambda: witness._sweep_maxima(20_000, 8, ("xxx", "xx"), validation._SEED, True),
    lambda: separable_sweep(100, 2000, "xxx", seed=5)], ids=["benchmark", "validate", "wide"])
def test_corners_stop_every_draw_of_a_sweep_at_the_z_bound(cosine_sizes, sweep):
    # The corners start each maximum at N, which no draw's z bound reaches
    # here; from a maximum of 0, 31 272 of the first input's draws passed it.
    assert sweep() in (1.0, [1.0, 1.0])
    assert sum(cosine_sizes) == 0


def test_sweep_without_corners_prunes_only_what_cannot_win():
    # A keep test of bound >= floor + 1e-3, in place of floor - margin,
    # prunes every sample here and returns 0.0 for both families.
    maxima = witness._sweep_maxima(2000, 3, ("xxx", "xx"), 11, False)
    assert maxima == [unblocked_sweep(2000, 3, family, 11, False) for family in ("xxx", "xx")]
    assert 0.97 < min(maxima)


def test_contenders_keep_bounds_within_the_margin_of_the_floor():
    margin = witness._SWEEP_MARGIN * 64
    high = np.array([8.0 - margin / 2, 8.0 - 2 * margin, 1.0])
    low = np.zeros(3)
    for family in ("xxx", "xx"):
        assert witness._contenders({family: 8.0}, low, high, 0.0, margin).tolist() == [0]
        assert witness._contenders({family: 8.0}, -high, -low, 0.0, margin).tolist() == [0]
    # another row's lower bound in the block is a floor too
    low[2], high[2] = 8.0, 9.0
    assert witness._contenders({"xx": 0.0}, low, high, 0.0, margin).tolist() == [0, 2]


def test_xxx_bond_dots_are_uniform_on_minus_one_to_one():
    # u . v of independent uniform unit vectors is exactly Uniform[-1, 1].
    # The open-chain bonds 0 .. N-2 of a ring are mutually independent.
    dots = sweep_bond_dots(20_000, 8, "xxx", seed=11)[:, :-1].ravel()
    assert stats.kstest(dots, stats.uniform(loc=-1.0, scale=2.0).cdf).pvalue > 0.01


def test_xx_bond_dots_have_mean_zero_and_variance_two_ninths():
    # r r' cos(dphi): E = 0, E[x^2] = E[r^2]^2 E[cos^2] = (2/3)^2 / 2 = 2/9,
    # with standard errors 1.3e-3 and 6.4e-4 over these 140 000 bonds.
    dots = sweep_bond_dots(20_000, 8, "xx", seed=11)[:, :-1].ravel()
    assert abs(dots.mean()) < 7e-3
    assert abs(dots.var() - 2.0 / 9.0) < 3.5e-3


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
    # legal input whose |U|/(N|J|) = 1e310 overflows: a numerical failure, not C = inf
    with pytest.raises(FloatingPointError, match="overflows the float range"):
        concurrence_from_energy(1e300, 1, 1e-10)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("antiferromagnetic", [True, False])
def test_concurrence_from_energy_rejects_a_non_finite_energy(u, antiferromagnetic):
    # max(0.0, nan) once read as C = 0, and U = inf gave C = inf
    with pytest.raises(SpecError, match="concurrence input U must be finite"):
        concurrence_from_energy(u, 4, 1.0, antiferromagnetic)


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


def test_each_route_labels_its_own_source():
    # no caller picks the label: each report builder names the route it computes
    assert witness_value(-3.0, 0.0, 0.0, 1.0, 2).source == "external-measurement"
    assert per_site_witness_report(-1.2, 0.3, 0.5, 1.0).source == "thermodynamic-limit"
    for spec in (ModelSpec.xxx(-0.7, b=0.3, n_sites=5, boundary="open"),
                 ModelSpec.xx(1.3, b=0.4, n_sites=6)):
        obs = thermal_observables(spec, 0.9)
        report = witness_from_model(spec, 0.9)
        assert report.source == "finite-exact"
        totals = witness_value(obs.u, obs.m, spec.b, spec.jx, spec.n_sites)
        assert replace(report, source=totals.source) == totals
    with pytest.raises(SpecError, match="witness undefined for J = 0"):
        witness_from_model(ModelSpec.xxx(0.0, n_sites=4), 1.0)


def test_measured_totals_take_the_spec_a_model_witness_takes():
    # J = Jx, B and N from the spec; a two-site ring is legal for measured totals
    spec = ModelSpec.xx(2.0, b=0.3, n_sites=2)
    assert witness_from_totals(spec, -6.0, 0.5) == witness_value(-6.0, 0.5, 0.3, 2.0, 2)
    assert witness_from_totals(spec, -6.0, 0.5).value == 1.4625
    for bad, message in ((ModelSpec.xyz(0.7, 1.2, 0.9, n_sites=2), "not witness-eligible"),
                         (replace(spec, jz=1.0), "family 'xx' requires"),
                         (ModelSpec.xxx(0.0, n_sites=2), "J = 0"),
                         (replace(spec, n_sites=0), "n_sites must be >= 1")):
        with pytest.raises(SpecError, match=message):
            witness_from_totals(bad, -6.0, 0.5)


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


BLOCH = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda u: math.hypot(*u) > 1e-3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["xxx", "xx"]),
       boundary=st.sampled_from(["open", "periodic"]),
       vectors=st.lists(BLOCH, min_size=2, max_size=40))
def test_product_states_never_exceed_the_separable_bound(family, boundary, vectors):
    u = np.array(vectors)
    u /= np.sqrt((u * u).sum(axis=1))[:, None]
    assert product_state_witness(u, family, boundary) <= 1.0 + 1e-12
