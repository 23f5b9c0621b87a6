"""Model spec construction, validation, and unit plumbing."""

import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from spinwitness.model import (
    BOUNDARY_OPEN,
    BOUNDARY_PERIODIC,
    FAMILY_XX,
    FAMILY_XXX,
    FAMILY_XYZ,
    SIGN_AS_PRINTED,
    SIGN_SINGLET_GROUND,
    THERMODYNAMIC_LIMIT,
    ModelSpec,
    SpecError,
    ThermalPoint,
    ValidatedSpec,
    require_count,
    spec_from_config,
    to_dimensionless,
    validate_spec,
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
    v = validate_spec(spec)
    built = ValidatedSpec(**{f.name: getattr(v, f.name) for f in fields(ValidatedSpec)})
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


def test_coupling_sign_per_convention():
    assert validate_spec(ModelSpec.xxx(1.0, n_sites=2, boundary=BOUNDARY_OPEN,
                                       sign_convention=SIGN_SINGLET_GROUND)).coupling_sign == 1
    assert validate_spec(ModelSpec.xxx(1.0, n_sites=2, boundary=BOUNDARY_OPEN,
                                       sign_convention=SIGN_AS_PRINTED)).coupling_sign == -1


def test_witness_eligibility_flags():
    assert validate_spec(ModelSpec.xxx(1.0)).witness_eligible
    assert validate_spec(ModelSpec.xx(1.0)).witness_eligible
    assert not validate_spec(ModelSpec.xyz(1.0, 0.5, 0.2)).witness_eligible


def test_finite_flag_and_limit_marker():
    assert validate_spec(ModelSpec.xxx(1.0, n_sites=5)).is_finite
    limit = validate_spec(ModelSpec.xx(1.0, n_sites=THERMODYNAMIC_LIMIT))
    assert not limit.is_finite
    assert limit.n_sites is None


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


def test_validate_rejects_non_specs():
    with pytest.raises(SpecError):
        validate_spec({"family": "xxx"})


def test_two_site_open_chain_is_fine():
    assert validate_spec(ModelSpec.xxx(1.0, n_sites=2, boundary=BOUNDARY_OPEN)).n_sites == 2


def test_thermal_point():
    assert ThermalPoint(0.5).beta == 2.0
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(SpecError):
            ThermalPoint(bad)


def test_to_dimensionless_values_and_scale_invariance():
    point = to_dimensionless(2.0, 0.5, 4.0)
    assert point.coupling_over_kt == 0.5
    assert point.field_over_kt == 0.125
    scaled = to_dimensionless(2.0 * 8, 0.5 * 8, 4.0 * 8)
    assert scaled == point
    with pytest.raises(SpecError):
        to_dimensionless(1.0, 0.0, 0.0)
    with pytest.raises(SpecError):
        to_dimensionless(1.0, 0.0, -2.0)


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


def test_dimensionless_point_requires_finite():
    assert math.isfinite(to_dimensionless(1.0, 0.0, 1e-300).coupling_over_kt)
    with pytest.raises(SpecError):
        to_dimensionless(1e300, 0.0, 1e-300)
