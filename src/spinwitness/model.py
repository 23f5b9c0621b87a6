"""Chain model parameterization, validation, and unit conventions.

All couplings, fields, and temperatures share one energy unit; the
Boltzmann constant is absorbed into kT. Spin operators are Pauli matrices
(not spin-1/2 operators), which fixes the scale of every formula in the
package.

The Hamiltonian realized downstream is

    H = s * sum_bonds (Jx sx sx + Jy sy sy + Jz sz sz) - B * sum_i sz_i

where the overall coupling sign s depends on ``sign_convention``:

* ``"as-printed"``   -> s = -1 (coupling sum enters with a global minus).
* ``"singlet-ground"`` -> s = +1, so that J > 0 puts the XXX ground state in
  the total-spin singlet sector, i.e. J > 0 is antiferromagnetic.

The two conventions disagree about which sign of J is "antiferromagnetic";
both are provided because common usage is inconsistent. Witness values are
built from absolute values and do not depend on the choice; ground-state
labelled statements do.

Every route checks its temperature with :func:`require_kt`: a kT that is
not finite and > 0 is bad input (:class:`SpecError`), like a non-finite J
or B. A legal kT whose 1/kT, J/kT or B/kT leaves the float range is a
numerical failure, raised by the route that meets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FAMILY_XXX = "xxx"
FAMILY_XX = "xx"
FAMILY_XYZ = "xyz"
FAMILIES = (FAMILY_XXX, FAMILY_XX, FAMILY_XYZ)

BOUNDARY_PERIODIC = "periodic"
BOUNDARY_OPEN = "open"
BOUNDARIES = (BOUNDARY_PERIODIC, BOUNDARY_OPEN)

SIGN_SINGLET_GROUND = "singlet-ground"
SIGN_AS_PRINTED = "as-printed"
SIGN_CONVENTIONS = (SIGN_SINGLET_GROUND, SIGN_AS_PRINTED)

# n_sites value marking the thermodynamic limit.
THERMODYNAMIC_LIMIT = None
THERMODYNAMIC_LIMIT_LABEL = "thermodynamic-limit"

# Families whose separable bound is proven; only these may feed the witness.
WITNESS_ELIGIBLE_FAMILIES = (FAMILY_XXX, FAMILY_XX)


class SpecError(ValueError):
    """Raised for inconsistent or out-of-range model parameters."""


@dataclass(frozen=True)
class ModelSpec:
    """Unvalidated chain description.

    ``n_sites`` is a positive integer for finite chains or ``None``
    (:data:`THERMODYNAMIC_LIMIT`) for the infinite chain.
    """

    family: str
    jx: float
    jy: float
    jz: float
    b: float = 0.0
    n_sites: int | None = None
    boundary: str = BOUNDARY_PERIODIC
    sign_convention: str = SIGN_SINGLET_GROUND

    @classmethod
    def xxx(cls, j, b=0.0, n_sites=None, boundary=BOUNDARY_PERIODIC,
            sign_convention=SIGN_SINGLET_GROUND):
        return cls(FAMILY_XXX, j, j, j, b, n_sites, boundary, sign_convention)

    @classmethod
    def xx(cls, j, b=0.0, n_sites=None, boundary=BOUNDARY_PERIODIC,
           sign_convention=SIGN_SINGLET_GROUND):
        return cls(FAMILY_XX, j, j, 0.0, b, n_sites, boundary, sign_convention)

    @classmethod
    def xyz(cls, jx, jy, jz, b=0.0, n_sites=None, boundary=BOUNDARY_PERIODIC,
            sign_convention=SIGN_SINGLET_GROUND):
        return cls(FAMILY_XYZ, jx, jy, jz, b, n_sites, boundary, sign_convention)


@dataclass(frozen=True)
class ValidatedSpec:
    """Normalized spec with derived flags; hashable, safe as a cache key."""

    family: str
    jx: float
    jy: float
    jz: float
    b: float
    n_sites: int | None
    boundary: str
    sign_convention: str
    witness_eligible: bool
    coupling_sign: int

    @property
    def is_finite(self) -> bool:
        return self.n_sites is not None


def frozen_instance(cls, fields: dict):
    """The frozen dataclass ``cls`` holding ``fields`` (every field), built without its __init__:
    no object.__setattr__ per field (about 0.2 us each) and no __post_init__."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def require_count(value, name: str) -> int:
    """``value`` as a positive int.

    A bool, or a value that an int does not equal (2.5, "8"), is a usage
    error rather than something to truncate.
    """
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or isinstance(value, bool):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise SpecError(f"{name} must be >= 1, got {value}")
    return count


def validate_spec(spec) -> ValidatedSpec:
    """Normalize and check a :class:`ModelSpec`; idempotent on valid input.

    Rejects family/coupling mismatches, non-positive site counts, and
    periodic chains with fewer than three sites (a two-site ring would
    double-count its single bond). The witness-eligibility flag is set only
    for the XXX and XX families, whose separable bound is proven.
    """
    # a ValidatedSpec is checked again from the eight ModelSpec fields it shares
    if not isinstance(spec, (ModelSpec, ValidatedSpec)):
        raise SpecError(f"expected ModelSpec, got {type(spec).__name__}")

    family = str(spec.family).lower()
    if family not in FAMILIES:
        raise SpecError(f"unknown family {spec.family!r}; expected one of {FAMILIES}")
    boundary = str(spec.boundary).lower()
    if boundary not in BOUNDARIES:
        raise SpecError(f"unknown boundary {spec.boundary!r}; expected one of {BOUNDARIES}")
    sign = str(spec.sign_convention).lower()
    if sign not in SIGN_CONVENTIONS:
        raise SpecError(
            f"unknown sign convention {spec.sign_convention!r}; expected one of {SIGN_CONVENTIONS}")

    jx, jy, jz, b = (float(spec.jx), float(spec.jy), float(spec.jz), float(spec.b))
    if not math.isfinite(jx + jy + jz + b):  # or finite values whose sum overflows
        for name, value in (("jx", jx), ("jy", jy), ("jz", jz), ("b", b)):
            if not math.isfinite(value):
                raise SpecError(f"{name} must be finite, got {value}")

    if family == FAMILY_XXX and not (jx == jy == jz):
        raise SpecError(f"family 'xxx' requires Jx = Jy = Jz, got ({jx}, {jy}, {jz})")
    if family == FAMILY_XX and not (jx == jy and jz == 0.0):
        raise SpecError(f"family 'xx' requires Jx = Jy and Jz = 0, got ({jx}, {jy}, {jz})")

    n_sites = spec.n_sites
    if n_sites is not None:
        n_sites = require_count(n_sites, "n_sites")
        if boundary == BOUNDARY_PERIODIC and n_sites < 3:
            raise SpecError(
                f"periodic boundary requires n_sites >= 3 (got {n_sites}); "
                "a 2-site ring double-counts its only bond")

    return frozen_instance(ValidatedSpec, {
        "family": family, "jx": jx, "jy": jy, "jz": jz, "b": b, "n_sites": n_sites,
        "boundary": boundary, "sign_convention": sign,
        "witness_eligible": family in WITNESS_ELIGIBLE_FAMILIES,
        "coupling_sign": +1 if sign == SIGN_SINGLET_GROUND else -1,
    })


def require_kt(kt) -> float:
    """kT as a float; SpecError unless it is finite and > 0 (the one scalar kT check)."""
    kt = float(kt)
    if not (math.isfinite(kt) and kt > 0.0):
        raise SpecError(f"kT must be finite and > 0, got {kt}")
    return kt


_CONFIG_KEYS = ("family", "jx", "jy", "jz", "b", "n_sites", "boundary", "sign_convention")


def spec_from_config(text: str) -> ModelSpec:
    """Build a :class:`ModelSpec` from ``key = value`` lines.

    Keys mirror the ModelSpec fields: family, jx, jy, jz, b, n_sites,
    boundary, sign_convention. ``#`` starts a comment. ``n_sites`` accepts
    an integer or the marker string ``thermodynamic-limit``. Missing jy/jz
    default from the family (xxx: jy = jz = jx; xx: jy = jx, jz = 0).
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise SpecError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value.strip()

    if "family" not in values:
        raise SpecError("config is missing required key 'family'")
    family = values["family"].lower()
    if "jx" not in values:
        raise SpecError("config is missing required key 'jx'")

    def as_float(key, default=None):
        if key not in values:
            if default is None:
                raise SpecError(f"config is missing required key {key!r}")
            return default
        try:
            return float(values[key])
        except ValueError as exc:
            raise SpecError(f"config key {key!r}: not a number: {values[key]!r}") from exc

    jx = as_float("jx")
    if family == FAMILY_XXX:
        jy, jz = as_float("jy", jx), as_float("jz", jx)
    elif family == FAMILY_XX:
        jy, jz = as_float("jy", jx), as_float("jz", 0.0)
    else:
        jy, jz = as_float("jy"), as_float("jz")

    n_sites: int | None = THERMODYNAMIC_LIMIT
    if "n_sites" in values:
        raw_n = values["n_sites"].lower()
        if raw_n != THERMODYNAMIC_LIMIT_LABEL:
            try:
                n_sites = int(raw_n)
            except ValueError as exc:
                raise SpecError(
                    f"config key 'n_sites': expected integer or "
                    f"{THERMODYNAMIC_LIMIT_LABEL!r}, got {values['n_sites']!r}") from exc

    return ModelSpec(
        family=family, jx=jx, jy=jy, jz=jz, b=as_float("b", 0.0),
        n_sites=n_sites,
        boundary=values.get("boundary", BOUNDARY_PERIODIC).lower(),
        sign_convention=values.get("sign_convention", SIGN_SINGLET_GROUND).lower(),
    )
