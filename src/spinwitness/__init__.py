"""Thermodynamic entanglement witnesses for 1D Heisenberg spin chains.

Two macroscopic observables -- internal energy U and magnetization M --
certify entanglement whenever W = |U + B*M| / (N*|J|) exceeds 1. The
package evaluates W on exact finite chains (diagonalized in symmetry
sectors), on the infinite XX chain (closed-form integrals, with a
free-fermion oracle in between), and maps the entangled region of the
(kT/|J|, B/|J|) plane.

The names below are the library surface that README documents; model
constants, ground-state and free-fermion helpers import from their modules.
"""

from .exactdiag import (PairState, ThermalObservables, concurrence, reduced_pair_state,
                        thermal_observables)
from .model import ModelSpec, SpecError, validate_spec
from .quadrature import QuadratureError
from .thermolimit import (
    BoundaryCurve,
    RegionGrid,
    boundary_trace,
    critical_field_low_temperature,
    critical_field_zero_temperature,
    critical_temperature_zero_field,
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
    "ModelSpec", "SpecError", "validate_spec", "QuadratureError",
    "thermal_observables", "ThermalObservables", "reduced_pair_state", "PairState", "concurrence",
    "witness_value", "witness_from_model", "witness_from_correlators", "per_site_witness_report",
    "WitnessReport", "product_state_witness", "separable_sweep", "concurrence_from_energy",
    "xx_witness", "xx_witness_single_integral", "xx_internal_energy", "xx_magnetization",
    "xx_log_partition_density", "region_scan", "RegionGrid", "boundary_trace", "BoundaryCurve",
    "critical_temperature_zero_field", "critical_field_zero_temperature",
    "critical_field_low_temperature", "lowtemp_ferro_witness",
    "run_validation_suite", "CheckResult",
]
