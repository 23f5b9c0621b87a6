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
numerical failure, raised by the route that meets it. Every route that
scales by |J| (the witness, the concurrence identity, the limit endpoints)
checks J with :func:`require_coupling`: J = 0 or a non-finite J is bad input.
"""

from __future__ import annotations

import math
import re
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
    """Chain description; :func:`validate_spec` returns it normalized (hashable, a cache key).

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


def frozen_instance(cls, fields: dict):
    """The frozen dataclass ``cls`` holding ``fields`` (every field), built without its __init__:
    no object.__setattr__ per field (about 0.2 us each) and no __post_init__."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def _integer(value, name: str) -> int:
    """``value`` as an int. A bool, or a value that an int does not equal (2.5,
    "8"), is a usage error rather than something to truncate."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or isinstance(value, bool):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return number


def require_count(value, name: str) -> int:
    """``value`` as a positive int, by the integer rule of :func:`_integer`."""
    count = _integer(value, name)
    if count < 1:
        raise SpecError(f"{name} must be >= 1, got {value}")
    return count


def require_boundary(boundary) -> str:
    """``boundary`` lowercased; SpecError unless it is one of :data:`BOUNDARIES`."""
    name = str(boundary).lower()
    if name not in BOUNDARIES:
        raise SpecError(f"unknown boundary {boundary!r}; expected one of {BOUNDARIES}")
    return name


def require_ring(n_sites: int) -> int:
    """``n_sites`` of a ring; SpecError below three sites, where a ring would
    bond a site to itself (one site) or count its only bond twice (two)."""
    if n_sites < 3:
        raise SpecError(f"periodic boundary requires n_sites >= 3 (got {n_sites}); a smaller "
                        "ring bonds a site to itself or counts its only bond twice")
    return n_sites


def require_seed(seed) -> int | None:
    """``seed`` as a random generator seed: None, or a non-negative int by the
    integer rule of :func:`_integer`. numpy's own errors for a negative or a
    fractional seed would read as numerical failures."""
    if seed is None:
        return None
    seed = _integer(seed, "seed")
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    return seed


def validate_spec(spec) -> ModelSpec:
    """The :class:`ModelSpec` ``spec`` normalized and checked; idempotent on valid input.

    Rejects family/coupling mismatches, non-positive site counts, and
    periodic chains with fewer than three sites (a two-site ring would
    double-count its single bond).
    """
    if not isinstance(spec, ModelSpec):
        raise SpecError(f"expected ModelSpec, got {type(spec).__name__}")

    family = str(spec.family).lower()
    if family not in FAMILIES:
        raise SpecError(f"unknown family {spec.family!r}; expected one of {FAMILIES}")
    boundary = require_boundary(spec.boundary)
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
        if boundary == BOUNDARY_PERIODIC:
            require_ring(n_sites)

    return frozen_instance(ModelSpec, {
        "family": family, "jx": jx, "jy": jy, "jz": jz, "b": b, "n_sites": n_sites,
        "boundary": boundary, "sign_convention": sign})


def require_kt(kt) -> float:
    """kT as a float; SpecError unless it is finite and > 0 (the one scalar kT check)."""
    kt = float(kt)
    if not (math.isfinite(kt) and kt > 0.0):
        raise SpecError(f"kT must be finite and > 0, got {kt}")
    return kt


def require_coupling(j, what: str) -> float:
    """J as a float; SpecError, naming ``what``, unless it is finite and nonzero.

    The one J check of every route that divides by |J|.
    """
    j = float(j)
    if j == 0.0 or not math.isfinite(j):
        raise SpecError(f"{what} undefined for J = 0")
    return j


def integer_text(text) -> int | None:
    """``text`` as an int if, blanks stripped, it is an optional sign and ASCII digits, else
    None (int() alone also takes digit-group underscores and non-ASCII digits)."""
    text = str(text).strip()
    return int(text) if re.fullmatch(r"[+-]?[0-9]+", text) else None


def parse_site_count(text, what: str) -> int | None:
    """The site count ``text`` (config file or CLI) as an int, or THERMODYNAMIC_LIMIT for
    the label (any case) or None; SpecError naming ``what`` otherwise."""
    if text is None or str(text).strip().lower() == THERMODYNAMIC_LIMIT_LABEL:
        return THERMODYNAMIC_LIMIT
    count = integer_text(text)
    if count is None:
        raise SpecError(f"{what} expects an integer or {THERMODYNAMIC_LIMIT_LABEL!r}, "
                        f"got {text!r}")
    return count


# Each ModelSpec field, which is also its config key, and the CLI flag that sets it.
_FIELD_FLAGS = {"family": "--model", "jx": "--jx", "jy": "--jy", "jz": "--jz", "b": "--b",
               "n_sites": "--n", "boundary": "--boundary", "sign_convention": "--sign"}


def config_fields(text: str) -> dict[str, str]:
    """The raw values of ``key = value`` lines (``#`` starts a comment) by ModelSpec field."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _FIELD_FLAGS:
            raise SpecError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def spec_from_fields(fields: dict) -> ModelSpec:
    """The :class:`ModelSpec` of ``fields``, config text or flag values by field name.

    The one rule for fields left out: family and jx are required; jy and jz
    default from the family (xxx: jy = jz = jx; xx: jy = jx, jz = 0; xyz:
    required); the rest default as ModelSpec's fields do.
    """
    def given(key, default=None):
        if key not in fields and default is None:
            raise SpecError(f"missing required field {key!r}: give config key {key!r} "
                            f"or flag {_FIELD_FLAGS[key]}")
        return fields.get(key, default)

    def number(key, default=None):
        value = given(key, default)
        try:
            return float(value)
        except ValueError as exc:
            raise SpecError(f"config key {key!r}: not a number: {value!r}") from exc

    family, jx = str(given("family")).lower(), number("jx")
    jy, jz = {FAMILY_XXX: (jx, jx), FAMILY_XX: (jx, 0.0)}.get(family, (None, None))
    return ModelSpec(
        family=family, jx=jx, jy=number("jy", jy), jz=number("jz", jz), b=number("b", 0.0),
        n_sites=parse_site_count(fields.get("n_sites"), "config key 'n_sites' or flag --n"),
        boundary=str(given("boundary", BOUNDARY_PERIODIC)).lower(),
        sign_convention=str(given("sign_convention", SIGN_SINGLET_GROUND)).lower(),
    )


def spec_from_config(text: str) -> ModelSpec:
    """The :class:`ModelSpec` of ``key = value`` lines (see :func:`spec_from_fields`)."""
    return spec_from_fields(config_fields(text))
