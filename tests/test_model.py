"""Model spec construction, validation, and unit plumbing."""

import math
import sys
from collections import namedtuple
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from spinwitness.model import (
    BOUNDARY_OPEN,
    BOUNDARY_PERIODIC,
    FAMILY_XX,
    FAMILY_XXX,
    FAMILY_XYZ,
    SIGN_AS_PRINTED,
    THERMODYNAMIC_LIMIT,
    ModelSpec,
    SpecError,
    require_count,
    require_kt,
    spec_from_config,
    validate_spec,
)
from spinwitness.exactdiag import (
    ground_state_observables,
    reduced_pair_state,
    thermal_observables,
)
from spinwitness.freefermion import jw_observables
from spinwitness.witness import witness_from_model
from spinwitness.quadrature import QuadratureError
from spinwitness.thermolimit import (
    boundary_trace,
    critical_field_low_temperature,
    critical_temperature_zero_field,
    lowtemp_ferro_log_partition,
    lowtemp_ferro_witness,
    region_scan,
    xx_internal_energy,
    xx_log_partition_density,
    xx_magnetization,
    xx_witness,
    xx_witness_single_integral,
)


def test_family_constructors_fill_couplings():
    assert ModelSpec.xxx(1.5) == ModelSpec(FAMILY_XXX, 1.5, 1.5, 1.5)
    assert ModelSpec.xx(0.7) == ModelSpec(FAMILY_XX, 0.7, 0.7, 0.0)
    xyz = ModelSpec.xyz(1.0, -0.5, 0.3, b=0.2, n_sites=4)
    assert (xyz.jx, xyz.jy, xyz.jz, xyz.b, xyz.n_sites) == (1.0, -0.5, 0.3, 0.2, 4)


def test_validate_normalizes_and_is_idempotent():
    spec = ModelSpec("XXX", 1, 1, 1, n_sites=6, boundary="Periodic",
                     sign_convention="Singlet-Ground")
    v1 = validate_spec(spec)
    v2 = validate_spec(v1)
    assert v1 == v2
    assert v1.family == FAMILY_XXX
    assert v1.boundary == BOUNDARY_PERIODIC
    assert isinstance(v1.jx, float)


def test_validated_spec_is_hashable():
    v = validate_spec(ModelSpec.xxx(1.0, n_sites=4))
    assert {v: "cached"}[validate_spec(v)] == "cached"


@pytest.mark.parametrize("spec", [ModelSpec.xxx(1.0, n_sites=4),
                                  ModelSpec.xx(-2, b=1, n_sites=7, boundary="OPEN",
                                               sign_convention="as-printed"),
                                  ModelSpec.xyz(1.0, 0.5, 0.2, b=0.3)])
def test_validated_spec_is_the_dataclass_its_constructor_builds(spec):
    # validate_spec builds its ModelSpec without __init__; it must be the same object
    v = validate_spec(spec)
    assert type(v) is ModelSpec
    built = ModelSpec(**{f.name: getattr(v, f.name) for f in fields(ModelSpec)})
    assert v == built and hash(v) == hash(built) and repr(v) == repr(built)
    assert validate_spec(v) == v
    assert validate_spec(replace(v, b=0.25)) == replace(built, b=0.25)
    with pytest.raises(FrozenInstanceError):
        v.b = 1.0


def test_validate_names_the_first_non_finite_coupling():
    for values, name in (((math.nan, 1.0, 1.0, 0.0), "jx"), ((1.0, 1.0, -math.inf, 0.0), "jz"),
                         ((1.0, 1.0, 1.0, math.inf), "b")):
        with pytest.raises(SpecError, match=f"^{name} must be finite"):
            validate_spec(ModelSpec("xyz", *values))
    # finite couplings whose sum overflows are finite
    assert validate_spec(ModelSpec.xxx(1e308, b=1e308)).jx == 1e308


def test_witness_from_model_takes_only_the_eligible_families():
    for spec in (ModelSpec.xxx(1.0, n_sites=4), ModelSpec.xx(1.0, n_sites=4)):
        assert witness_from_model(spec, 1.0).inputs.n_sites == 4
    with pytest.raises(SpecError, match=r"^family 'xyz' is not witness-eligible "
                                        r"\(proofs cover \('xxx', 'xx'\)\)$"):
        witness_from_model(ModelSpec.xyz(1.0, 0.5, 0.2, n_sites=4), 1.0)


def test_limit_marker():
    assert validate_spec(ModelSpec.xx(1.0, n_sites=THERMODYNAMIC_LIMIT)).n_sites is None


@pytest.mark.parametrize("bad", [
    ModelSpec("xyzzy", 1, 1, 1),
    ModelSpec.xxx(1.0, boundary="moebius"),
    ModelSpec.xxx(1.0, sign_convention="whatever"),
    ModelSpec(FAMILY_XXX, 1.0, 1.0, 0.5),           # unequal XXX couplings
    ModelSpec(FAMILY_XX, 1.0, 0.9, 0.0),            # Jx != Jy
    ModelSpec(FAMILY_XX, 1.0, 1.0, 0.1),            # Jz != 0
    ModelSpec.xxx(float("nan")),
    ModelSpec.xxx(1.0, b=float("inf")),
    ModelSpec.xxx(1.0, n_sites=0),
    ModelSpec.xxx(1.0, n_sites=-3),
    ModelSpec.xxx(1.0, n_sites=2.5),
    ModelSpec.xxx(1.0, n_sites=True),
    ModelSpec.xxx(1.0, n_sites=2, boundary=BOUNDARY_PERIODIC),  # 2-site ring
])
def test_validate_rejects_bad_specs(bad):
    with pytest.raises(SpecError):
        validate_spec(bad)


def test_require_count_accepts_integral_values_of_any_type():
    for value in (5, 5.0, np.int64(5), np.float64(5.0)):
        count = require_count(value, "n")
        assert count == 5 and type(count) is int


@pytest.mark.parametrize("value, fragment", [
    (2.5, "must be an integer"), (True, "must be an integer"), (False, "must be an integer"),
    ("5", "must be an integer"), (None, "must be an integer"),
    (float("nan"), "must be an integer"), (float("inf"), "must be an integer"),
    (0, "must be >= 1"), (-3, "must be >= 1"),
])
def test_require_count_rejections(value, fragment):
    with pytest.raises(SpecError, match=f"n_widgets {fragment}"):
        require_count(value, "n_widgets")


_SPEC_FIELDS = dict(family="xxx", jx=1.0, jy=1.0, jz=1.0, b=0.0, n_sites=4,
                    boundary="periodic", sign_convention="singlet-ground")


@pytest.mark.parametrize("not_a_spec", [
    None, "xxx", _SPEC_FIELDS, SimpleNamespace(**_SPEC_FIELDS),
    namedtuple("SpecLike", _SPEC_FIELDS)(**_SPEC_FIELDS),
], ids=["none", "str", "dict", "namespace", "namedtuple"])
def test_validate_rejects_non_specs(not_a_spec):
    # an object with all eight fields is still not a ModelSpec
    with pytest.raises(SpecError, match="^expected ModelSpec, got "):
        validate_spec(not_a_spec)


def test_two_site_open_chain_is_fine():
    assert validate_spec(ModelSpec.xxx(1.0, n_sites=2, boundary=BOUNDARY_OPEN)).n_sites == 2


def test_require_kt():
    assert require_kt(0.5) == 0.5
    assert type(require_kt(np.float32(0.5))) is float
    assert require_kt(1e-320) == 1e-320  # legal, though 1/kT overflows
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(SpecError, match=f"kT must be finite and > 0, got {bad}"):
            require_kt(bad)


def test_limit_witness_depends_only_on_the_ratios():
    # (J/kT, B/kT) is unchanged, bit for bit, when kT, B and J are all scaled by 8
    assert (xx_witness_single_integral(4.0, 0.5, 2.0)
            == xx_witness_single_integral(4.0 * 8, 0.5 * 8, 2.0 * 8))
    for bad_kt in (0.0, -2.0):
        with pytest.raises(SpecError):
            xx_witness_single_integral(bad_kt, 0.0, 1.0)


def test_config_roundtrip():
    spec = spec_from_config("""
        # chain under study
        family = xxx
        jx = 1.25        # sets the scale
        b = 0.4
        n_sites = 8
        boundary = open
        sign_convention = as-printed
    """)
    assert spec == ModelSpec.xxx(1.25, b=0.4, n_sites=8, boundary=BOUNDARY_OPEN,
                                 sign_convention=SIGN_AS_PRINTED)


def test_config_family_defaults():
    xxx = spec_from_config("family = xxx\njx = 2.0")
    assert (xxx.jy, xxx.jz) == (2.0, 2.0)
    xx = spec_from_config("family = xx\njx = 2.0")
    assert (xx.jy, xx.jz) == (2.0, 0.0)
    assert xx.n_sites is None


def test_config_thermodynamic_limit_marker():
    spec = spec_from_config("family = xx\njx = 1\nn_sites = thermodynamic-limit")
    assert spec.n_sites is None


def test_config_xyz_requires_all_couplings():
    with pytest.raises(SpecError):
        spec_from_config("family = xyz\njx = 1.0")
    spec = spec_from_config("family = xyz\njx = 1\njy = -0.5\njz = 0.25")
    assert (spec.jx, spec.jy, spec.jz) == (1.0, -0.5, 0.25)


@pytest.mark.parametrize("text,fragment", [
    ("jx = 1.0", "family"),
    ("family = xxx", "jx"),
    ("family = xxx\njx = one", "not a number"),
    ("family = xxx\njx = 1\ncolor = blue", "unknown key"),
    ("family = xxx\njx = 1\nn_sites = few", "n_sites"),
    ("family xxx", "key = value"),
])
def test_config_errors(text, fragment):
    with pytest.raises(SpecError, match=fragment):
        spec_from_config(text)


def test_config_validates_downstream():
    spec = spec_from_config("family = xx\njx = 1\njz = 0.5")
    with pytest.raises(SpecError):
        validate_spec(spec)


def test_overflowing_ratio_is_a_numerical_failure():
    # J/kT = 1e300 integrates; J/kT past the float range is legal input that overflows
    assert math.isfinite(xx_witness_single_integral(1e-300, 0.0, 1.0))
    with pytest.raises(QuadratureError, match="overflows"):
        xx_witness_single_integral(1e-300, 0.0, 1e300)


# ---------------------------------------------------------------------------
# One kT rule for every route: legal extremes are numbers or numerical failures


def _ring(j, b):
    return ModelSpec.xxx(j, b=b, n_sites=4)


def _ratio(x, kt):
    """x/kT (x > 0) capped at the largest float: lnZ takes the ratios, which must be finite."""
    return min(x / kt, sys.float_info.max)


def _scan_cells(kt, j, b, as_printed):
    """A 1x1 scan's W; a NaN cell must carry an overflow cell error."""
    grid = region_scan(np.array([kt / abs(j)]), np.array([b / abs(j)]), as_printed=as_printed)
    for ib, ik, message in grid.cell_errors:
        assert np.isnan(grid.w[ib, ik]) and "overflows" in message, message
    return grid.w[~np.isnan(grid.w)]


def _ed_thermal(kt, j, b):
    obs = thermal_observables(_ring(j, b), kt)
    return (obs.u, obs.m, obs.log_partition, *np.ravel(obs.bond_correlators))


def _ed_ground(kt, j, b):
    obs = ground_state_observables(_ring(j, b))  # no kT; its ln Z is NaN by definition
    return (obs.u, obs.m, *np.ravel(obs.bond_correlators))


_ROUTES = {
    "ed-thermal": _ed_thermal,
    "ed-ground": _ed_ground,
    "ed-pair": lambda kt, j, b: reduced_pair_state(_ring(j, b), kt, (0, 1)).matrix,
    "jw": lambda kt, j, b: jw_observables(6, kt, j, b),
    "limit-u": lambda kt, j, b: xx_internal_energy(kt, b, j),
    "limit-m": lambda kt, j, b: xx_magnetization(kt, b, j),
    "limit-m-printed": lambda kt, j, b: xx_magnetization(kt, b, j, as_printed=True),
    "limit-lnz": lambda kt, j, b: xx_log_partition_density(_ratio(j, kt), _ratio(b, kt)),
    "limit-w": lambda kt, j, b: xx_witness(kt, b, j).value,
    "limit-w-single-integral": lambda kt, j, b: xx_witness_single_integral(kt, b, j),
    "scan": lambda kt, j, b: _scan_cells(kt, j, b, as_printed=False),
    "scan-printed": lambda kt, j, b: _scan_cells(kt, j, b, as_printed=True),
    "boundary": lambda kt, j, b: np.ravel(boundary_trace([b / abs(j)], kt_min=kt / abs(j)).points),
    "endpoint-field": lambda kt, j, b: critical_field_low_temperature(kt / abs(j), j),
    "endpoint-temperature": lambda kt, j, b: critical_temperature_zero_field(j),
    "lowtemp-ferro-w": lambda kt, j, b: lowtemp_ferro_witness(10, kt, b, j).value,
    "lowtemp-ferro-lnz": lambda kt, j, b: lowtemp_ferro_log_partition(10, kt, b, j),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kt, j, b", [
    (1e-320, 1.0, 0.5),  # 1/kT and J/kT overflow
    (1e-300, 1e9, 0.5),  # J/kT overflows
    (1e-10, 1.0, 1e300),  # B/kT overflows
], ids=["subnormal-kt", "overflowing-j-over-kt", "overflowing-b-over-kt"])
@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_legal_extremes_are_numbers_or_numerical_failures(route, kt, j, b):
    # never SpecError (the input is legal) and never a silent NaN
    try:
        values = _ROUTES[route](kt, j, b)
    except (QuadratureError, FloatingPointError):
        return
    assert np.isfinite(np.asarray(values)).all(), values
