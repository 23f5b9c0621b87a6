"""Thermodynamic entanglement witnesses for 1D Heisenberg spin chains.

Two macroscopic observables -- internal energy U and magnetization M --
certify entanglement whenever W = |U + B*M| / (N*|J|) exceeds 1. The
package evaluates W on exact finite chains (diagonalized in symmetry
sectors), on the infinite XX chain (closed-form integrals, with a
free-fermion oracle in between), and maps the entangled region of the
(kT/|J|, B/|J|) plane.
"""

from .exactdiag import (
    PairState,
    ThermalObservables,
    bond_list,
    concurrence,
    ground_state_energy,
    ground_state_observables,
    reduced_pair_state,
    thermal_observables,
    thermo_consistency,
)
from .freefermion import ModeSpectrum, jw_modes, jw_observables, jw_observables_for_spec
from .model import (
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
    spec_from_config,
    validate_spec,
)
from .quadrature import QuadratureError
from .thermolimit import (
    BoundaryCurve,
    RegionGrid,
    boundary_trace,
    critical_field_low_temperature,
    critical_field_zero_temperature,
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
from .validation import CheckResult, run_validation_suite
from .witness import (
    THRESHOLD,
    WitnessInputs,
    WitnessReport,
    concurrence_from_energy,
    per_site_witness_report,
    product_state_witness,
    separable_sweep,
    witness_from_correlators,
    witness_from_model,
    witness_value,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_OPEN", "BOUNDARY_PERIODIC", "BoundaryCurve", "CheckResult",
    "FAMILY_XX", "FAMILY_XXX", "FAMILY_XYZ",
    "ModeSpectrum", "ModelSpec", "PairState",
    "QuadratureError", "RegionGrid", "SIGN_AS_PRINTED", "SIGN_SINGLET_GROUND",
    "SpecError", "THERMODYNAMIC_LIMIT", "THRESHOLD", "ThermalObservables",
    "WitnessInputs", "WitnessReport",
    "bond_list", "boundary_trace", "concurrence",
    "concurrence_from_energy", "critical_field_low_temperature",
    "critical_field_zero_temperature", "critical_temperature_zero_field",
    "ground_state_energy", "ground_state_observables",
    "jw_modes", "jw_observables", "jw_observables_for_spec",
    "lowtemp_ferro_log_partition", "lowtemp_ferro_witness",
    "per_site_witness_report", "product_state_witness", "reduced_pair_state",
    "region_scan", "run_validation_suite", "separable_sweep",
    "spec_from_config", "thermal_observables", "thermo_consistency",
    "validate_spec", "witness_from_correlators",
    "witness_from_model", "witness_value", "xx_internal_energy",
    "xx_log_partition_density", "xx_magnetization", "xx_witness",
    "xx_witness_single_integral",
]
