"""The package's top-level surface: the names README documents, and no more."""

import importlib
import re
import types
from pathlib import Path

import spinwitness

EXPORTED = {
    "ModelSpec", "SpecError", "validate_spec", "QuadratureError",
    "thermal_observables", "ThermalObservables", "reduced_pair_state", "PairState", "concurrence",
    "witness_value", "witness_from_model", "witness_from_correlators", "per_site_witness_report",
    "WitnessReport", "product_state_witness", "separable_sweep", "concurrence_from_energy",
    "xx_witness", "xx_witness_single_integral", "xx_internal_energy", "xx_magnetization",
    "xx_log_partition_density", "region_scan", "RegionGrid", "boundary_trace", "BoundaryCurve",
    "critical_temperature_zero_field", "critical_field_zero_temperature",
    "critical_field_low_temperature", "lowtemp_ferro_witness",
    "run_validation_suite", "CheckResult",
}

# Names the package root once re-exported; each stays in its module.
MODULE_ONLY = {
    "model": ["BOUNDARY_OPEN", "BOUNDARY_PERIODIC", "FAMILY_XX", "FAMILY_XXX", "FAMILY_XYZ",
              "SIGN_AS_PRINTED", "SIGN_SINGLET_GROUND", "THERMODYNAMIC_LIMIT",
              "spec_from_config"],
    "exactdiag": ["bond_list", "ground_state_energy", "ground_state_observables",
                  "thermo_consistency"],
    "freefermion": ["ModeSpectrum", "jw_modes", "jw_observables", "jw_observables_for_spec"],
    "thermolimit": ["lowtemp_ferro_log_partition"],
    "witness": ["THRESHOLD", "WitnessInputs"],
}


def test_the_package_exports_the_documented_surface_only():
    assert len(EXPORTED) == 32 and sorted(spinwitness.__all__) == sorted(EXPORTED)
    for name in EXPORTED:
        assert getattr(spinwitness, name) is not None, name
    public = {name for name, value in vars(spinwitness).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTED
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert hasattr(importlib.import_module(f"spinwitness.{module}"), name), (module, name)
            assert not hasattr(spinwitness, name), name
    # README's Library section names every exported name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    missing = sorted(name for name in EXPORTED if not re.search(rf"\b{name}\b", library))
    assert not missing
