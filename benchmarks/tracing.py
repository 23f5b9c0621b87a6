"""Spans and counters recorded from outside the package.

The traced run wraps the package's public functions (and numpy's dense
eigensolvers) in every module namespace that binds them, so calls made
inside the package are seen too. Spans are (name, start, end, parent)
records kept in memory and written once the pass ends. Importing this
module installs nothing; only :func:`install` does, in a traced pass.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np

import spinwitness
from spinwitness import (cli, exactdiag, freefermion, model, quadrature, svgfig,
                         thermolimit, validation, witness)

MODULES = (spinwitness, model, exactdiag, freefermion, quadrature, thermolimit,
           witness, validation, svgfig, cli)

# Attribute set on every wrapper, so a pass can tell whether any is installed.
MARKER = "__bench_wrapper__"

# Eigensolves at or below this dimension are concurrence's 4x4 solves and
# the pair-state PSD check; they are not counted as exact diagonalization.
SMALL_EIGENSOLVE_DIM = 4

# Gauss-Legendre nodes per panel: 10 + 20 (see spinwitness.quadrature).
NODES_PER_PANEL = 30


class Tracer:
    """In-memory span log plus counters; ``enabled`` False makes wrappers pass through."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.enabled = True

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()

    def self_times(self) -> Counter:
        """Per span name: summed duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] += (end - start) - covered
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _wrap(tracer, name, fn, before=None, after=None, span=True):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            args, kwargs = before(args, kwargs)
        result = tracer.call(name, fn, args, kwargs) if span else fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(wrapper, MARKER, True)
    return wrapper


def _replace_everywhere(original, wrapper):
    """Rebind every package-module attribute that is ``original``."""
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points; the counters they feed are named like the metrics."""
    c = tracer.counters

    def eigensolver(fn):
        def wrapper(a, *args, **kwargs):
            dim = np.shape(a)[-1]
            if not tracer.enabled or dim <= SMALL_EIGENSOLVE_DIM:
                return fn(a, *args, **kwargs)
            c["exactdiag.eigensolve_calls"] += 1
            c["exactdiag.eigensolve_dim3_sum"] += dim ** 3
            c["exactdiag.eigensolve_dim_max"] = max(c["exactdiag.eigensolve_dim_max"], dim)
            return tracer.call("exactdiag.eigensolve", fn, (a, *args), kwargs)

        setattr(wrapper, MARKER, True)
        return functools.wraps(fn)(wrapper)

    np.linalg.eigh = eigensolver(np.linalg.eigh)
    np.linalg.eigvalsh = eigensolver(np.linalg.eigvalsh)

    def count_calls(key):
        def before(args, kwargs):
            c[key] += 1
            return args, kwargs
        return before

    def count_integrand(args, kwargs):
        c["quadrature.calls"] += 1
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            c["quadrature.nodes"] += np.size(x)
            return f(x)

        return (counted, *args[1:]), kwargs

    def count_modes(args, kwargs):
        c["freefermion.modes"] += int(args[0] if args else kwargs["n_sites"])
        return args, kwargs

    def count_samples(args, kwargs):
        c["witness.separable_samples"] += int(args[0] if args else kwargs["n_samples"])
        return args, kwargs

    boundary_start = []

    def boundary_before(args, kwargs):
        boundary_start.append(c["thermolimit.witness_evals"])
        fields = args[0] if args else kwargs["b_over_j_values"]
        c["thermolimit.boundary_fields"] += int(np.size(fields))
        return args, kwargs

    def boundary_after(args, kwargs, result):
        c["thermolimit.boundary_witness_evals"] += (
            c["thermolimit.witness_evals"] - boundary_start.pop())

    def svg_bytes(args, kwargs, result):
        c["svgfig.bytes"] += len(result.encode())

    targets = [
        (model, "validate_spec", "model.validate", dict(before=count_calls("model.validate_calls"),
                                                         span=False)),
        (exactdiag, "build_hamiltonian", "exactdiag.build", {}),
        (exactdiag, "thermal_observables", "exactdiag.observables", {}),
        (exactdiag, "ground_state_observables", "exactdiag.observables", {}),
        (exactdiag, "thermo_consistency", "exactdiag.thermo_consistency", {}),
        (exactdiag, "reduced_pair_state", "exactdiag.pair", {}),
        (exactdiag, "concurrence", "exactdiag.pair", {}),
        (quadrature, "adaptive_quadrature", "quadrature.adaptive", dict(before=count_integrand)),
        (freefermion, "jw_modes", "freefermion.modes", dict(before=count_modes, span=False)),
        (freefermion, "jw_observables", "freefermion.observables", {}),
        (thermolimit, "xx_witness", "thermolimit.witness",
         dict(before=count_calls("thermolimit.witness_evals"))),
        (thermolimit, "xx_witness_single_integral", "thermolimit.witness",
         dict(before=count_calls("thermolimit.witness_evals"))),
        (thermolimit, "region_scan", "thermolimit.region_scan", {}),
        (thermolimit, "boundary_trace", "thermolimit.boundary_trace",
         dict(before=boundary_before, after=boundary_after)),
        (thermolimit, "critical_temperature_zero_field", "thermolimit.endpoint", {}),
        (thermolimit, "critical_field_low_temperature", "thermolimit.endpoint", {}),
        (witness, "witness_value", "witness.value", {}),
        (witness, "witness_from_correlators", "witness.correlators", {}),
        (witness, "witness_from_model", "witness.from_model", {}),
        (witness, "separable_sweep", "witness.separable_sweep", dict(before=count_samples)),
        (validation, "run_validation_suite", "validation.suite", {}),
        (svgfig, "render_region_svg", "svgfig.render", dict(after=svg_bytes)),
        (cli, "main", "cli.main", {}),
    ]
    for module, attr, name, hooks in targets:
        original = getattr(module, attr)
        _replace_everywhere(original, _wrap(tracer, name, original, **hooks))


def installed() -> bool:
    """True if any wrapper from :func:`install` is bound in numpy or the package."""
    bound = [np.linalg.eigh, np.linalg.eigvalsh]
    bound += [value for module in MODULES for value in vars(module).values()]
    return any(getattr(value, MARKER, False) for value in bound)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass (times in s, the rest counts)."""
    c = tracer.counters
    self_s = tracer.self_times()

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    fields = c["thermolimit.boundary_fields"]
    return {
        "exactdiag.eigensolve_calls": c["exactdiag.eigensolve_calls"],
        "exactdiag.eigensolve_dim_max": c["exactdiag.eigensolve_dim_max"],
        "exactdiag.eigensolve_dim3_sum": c["exactdiag.eigensolve_dim3_sum"],
        "exactdiag.eigensolve_s": self_s["exactdiag.eigensolve"],
        "exactdiag.build_s": self_s["exactdiag.build"],
        "exactdiag.observables_s": self_s["exactdiag.observables"],
        "exactdiag.pair_s": self_s["exactdiag.pair"],
        "model.validate_calls": c["model.validate_calls"],
        "quadrature.calls": c["quadrature.calls"],
        "quadrature.nodes": c["quadrature.nodes"],
        "quadrature.panels": c["quadrature.nodes"] / NODES_PER_PANEL,
        "quadrature.s": layer_self("quadrature"),
        "thermolimit.witness_evals": c["thermolimit.witness_evals"],
        "thermolimit.root_evals_per_field":
            c["thermolimit.boundary_witness_evals"] / fields if fields else 0.0,
        "thermolimit.self_s": layer_self("thermolimit"),
        "freefermion.modes": c["freefermion.modes"],
        "freefermion.s": layer_self("freefermion"),
        "witness.separable_samples": c["witness.separable_samples"],
        "witness.s": layer_self("witness"),
        "validation.self_s": layer_self("validation"),
        "svgfig.s": layer_self("svgfig"),
        "svgfig.bytes": c["svgfig.bytes"],
        "cli.self_s": layer_self("cli"),
    }
