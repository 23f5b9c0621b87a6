"""Command-line surface for the witness toolkit.

Subcommands
-----------
witness   one witness evaluation: finite chain, XX thermodynamic limit, or
          directly measured (U, M) -- the witness needs no tomography
exact     thermal observables (U, M, lnZ, bond correlators) of a finite chain
scan      witness surface over the (kT/|J|, B/|J|) plane -> CSV/JSON (+ SVG)
boundary  the W = 1 contour kT_c(B) -> CSV/JSON with endpoint metadata
validate  cross-check suite; exit 3 iff any check fails

Exit codes: 0 success (verdicts are data, never errors), 1 usage or
validation errors, 2 numerical failures, 3 validation-suite failure.

Model fields may come from a ``key = value`` config file (--config);
explicit flags beat the file, and model's one rule fills anything left. All
inputs are reduced units per |J| when --j is left at its default 1.0;
pass an explicit --j for absolute energy units.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .exactdiag import bond_list, thermal_observables
from .model import (
    BOUNDARIES,
    FAMILIES,
    FAMILY_XX,
    FAMILY_XXX,
    SIGN_CONVENTIONS,
    THERMODYNAMIC_LIMIT_LABEL,
    ModelSpec,
    SpecError,
    config_fields,
    integer_text,
    spec_from_fields,
    validate_spec,
)
from .quadrature import DEFAULT_ABS_TOL, QuadratureError
from .svgfig import render_region_svg
from .thermolimit import (DEFAULT_ROOT_RESIDUAL, ZERO_FIELD_KT_WINDOW, boundary_trace,
                          region_scan, xx_witness)
from .validation import run_validation_suite
from .witness import witness_from_model, witness_from_totals

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """argparse type of every --tol: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _steps(text: str) -> int:
    """argparse type of --kt-steps and --b-steps: an integer by the site count's digit rule."""
    steps = integer_text(text)
    if steps is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")  # argparse's int wording
    return steps


def _add_model_flags(p):
    p.add_argument("--model", choices=FAMILIES, help="chain family")
    p.add_argument("--n", help=f"site count or '{THERMODYNAMIC_LIMIT_LABEL}'")
    p.add_argument("--j", type=float, help="coupling J (sets Jx=Jy[=Jz]); default 1.0")
    p.add_argument("--jx", type=float, help="Jx for the xyz family")
    p.add_argument("--jy", type=float, help="Jy for the xyz family (required there without --j)")
    p.add_argument("--jz", type=float, help="Jz for the xyz family (required there without --j)")
    p.add_argument("--b", type=float, help="field B; default 0.0")
    p.add_argument("--boundary", choices=BOUNDARIES)
    p.add_argument("--sign", choices=SIGN_CONVENTIONS, dest="sign")
    p.add_argument("--config", help="key = value file seeding the model fields")


def _add_out_flags(p, default_stem):
    p.add_argument("--out", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--out-path", help=f"output file (default {default_stem}.<format>)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing does not change it."""
    parser = _Parser(prog="spinwitness",
                     description="Thermodynamic entanglement witnesses for Heisenberg chains")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("witness", help="evaluate the witness at one point")
    _add_model_flags(p)
    p.add_argument("--kt", type=float, help="temperature kT")
    p.add_argument("--measured", action="store_true",
                   help="use directly measured totals --u and --m instead of a model")
    p.add_argument("--u", type=float, help="measured internal energy (total)")
    p.add_argument("--m", type=float, help="measured magnetization (total)")
    p.add_argument("--out", choices=("csv", "json"), default="csv",
                   help="json prints the full report as JSON")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_ABS_TOL,
                   help="quadrature tolerance (limit route)")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("exact", help="thermal observables of a finite chain")
    _add_model_flags(p)
    p.add_argument("--kt", type=float, required=True, help="temperature kT")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_exact)

    p = sub.add_parser("scan", help="witness surface over the (kT/|J|, B/|J|) plane")
    p.add_argument("--kt-min", type=float, default=0.05)
    p.add_argument("--kt-max", type=float, default=3.0)
    p.add_argument("--kt-steps", type=_steps, default=60)
    p.add_argument("--b-min", type=float, default=0.0)
    p.add_argument("--b-max", type=float, default=3.0)
    p.add_argument("--b-steps", type=_steps, default=60)
    _add_out_flags(p, "region")
    p.add_argument("--svg", help="also render the region figure to this path")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_ABS_TOL,
                   help="quadrature absolute tolerance")
    p.add_argument("--eq9-as-printed", action="store_true",
                   help="use the literal printed magnetization integrand (discrepancy reporting)")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("boundary", help="trace the W = 1 contour kT_c(B)")
    p.add_argument("--b-min", type=float, default=0.0)
    p.add_argument("--b-max", type=float, default=1.2)
    p.add_argument("--b-steps", type=_steps, default=13)
    p.add_argument("--kt-min", type=float, default=ZERO_FIELD_KT_WINDOW[0])
    p.add_argument("--kt-max", type=float, default=ZERO_FIELD_KT_WINDOW[1])
    _add_out_flags(p, "boundary")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_ROOT_RESIDUAL,
                   help=f"root-finder residual |W - 1| target (default {DEFAULT_ROOT_RESIDUAL:g})")
    p.set_defaults(handler=cmd_boundary)

    p = sub.add_parser("validate", help="run the cross-check suite")
    p.add_argument("--tol", type=_tolerance,
                   help="override tolerance of the quadrature identity checks")
    p.add_argument("--eq9-as-printed", action="store_true",
                   help="run the magnetization check on the literal printed integrand")
    p.add_argument("--seed", type=int, help="seed for the randomized identity check")
    p.add_argument("--out", choices=("csv", "json"), default="csv",
                   help="json prints machine-readable results")
    p.set_defaults(handler=cmd_validate)

    return parser


def _resolve_spec(args) -> ModelSpec:
    """Family xxx and Jx = 1, then the config file's fields, then the flags: spec_from_fields."""
    fields = {"family": FAMILY_XXX, "jx": 1.0}
    if args.config:
        fields.update(config_fields(Path(args.config).read_text()))
    if args.model:
        fields["family"] = args.model
    if args.j is not None:  # Jx = Jy = Jz = J, and Jz = 0 for xx
        xx = str(fields["family"]).lower() == FAMILY_XX
        fields.update(jx=args.j, jy=args.j, jz=0.0 if xx else args.j)
    flags = {"jx": args.jx, "jy": args.jy, "jz": args.jz, "b": args.b, "n_sites": args.n,
             "boundary": args.boundary, "sign_convention": args.sign}
    fields.update((key, value) for key, value in flags.items() if value is not None)
    return spec_from_fields(fields)


def _render_report(report, out_format):
    if out_format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return
    verdict = "entangled" if report.entangled else "not detected"
    i = report.inputs
    n_text = THERMODYNAMIC_LIMIT_LABEL if i.n_sites is None else str(i.n_sites)
    print(f"W = {report.value:.12g} (threshold {report.threshold:g}) -> {verdict}")
    print(f"source: {report.source}")
    print(f"inputs: U={i.u:.12g} M={i.m:.12g} B={i.b:g} J={i.j:g} N={n_text}")


def cmd_witness(args) -> int:
    if args.measured:
        if args.u is None or args.m is None:
            raise SpecError("--measured needs --u and --m")
        spec = _resolve_spec(args)
        if spec.n_sites is None:
            raise SpecError("--measured needs a finite --n or config key n_sites "
                            "(the site count the totals refer to)")
        _render_report(witness_from_totals(spec, args.u, args.m), args.out)
        return EXIT_OK

    if args.kt is None:
        raise SpecError("witness needs --kt (or --measured with --u/--m)")
    vspec = validate_spec(_resolve_spec(args))
    if vspec.n_sites is None:
        if vspec.family != FAMILY_XX:
            raise SpecError("the thermodynamic-limit witness is available for the XX family only")
        report = xx_witness(args.kt, vspec.b, vspec.jx,
                            abs_tol=args.tol)
    else:
        report = witness_from_model(vspec, args.kt)
    _render_report(report, args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    vspec = validate_spec(_resolve_spec(args))
    obs = thermal_observables(vspec, args.kt)
    if args.out == "json":
        print(json.dumps({
            "U": obs.u, "M": obs.m, "log_partition": obs.log_partition,
            "bond_correlators": [list(t) for t in obs.bond_correlators],
            "kT": args.kt,
            "spec": asdict(vspec),
        }, indent=2))
        return EXIT_OK
    print(f"U = {obs.u:.12g}")
    print(f"M = {obs.m:.12g}")
    print(f"lnZ = {obs.log_partition:.12g}")
    print("bond correlators (xx, yy, zz):")
    for bond, (xx, yy, zz) in zip(bond_list(vspec.n_sites, vspec.boundary),
                                  obs.bond_correlators):
        print(f"  {bond}: {xx:.12g}, {yy:.12g}, {zz:.12g}")
    return EXIT_OK


def _axis(lo, hi, steps, name):
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpecError(f"{name} range must be finite, got [{lo}, {hi}]")
    if steps < 1:
        raise SpecError(f"{name} steps must be >= 1, got {steps}")
    if steps == 1:
        return np.array([lo])
    if not hi > lo:
        raise SpecError(f"{name} range needs max > min, got [{lo}, {hi}]")
    return np.linspace(lo, hi, steps)


def cmd_scan(args) -> int:
    grid = region_scan(_axis(args.kt_min, args.kt_max, args.kt_steps, "kT"),
                       _axis(args.b_min, args.b_max, args.b_steps, "B"),
                       abs_tol=args.tol,
                       as_printed=args.eq9_as_printed)
    out_path = Path(args.out_path or f"region.{args.out}")
    out_path.write_text(grid.to_csv() if args.out == "csv" else grid.to_json())
    cells = grid.w.size
    print(f"wrote {out_path} ({cells} cells, {int(grid.entangled.sum())} entangled, "
          f"{len(grid.cell_errors)} cell errors)")
    if args.svg:
        Path(args.svg).write_text(render_region_svg(grid))
        print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_boundary(args) -> int:
    curve = boundary_trace(_axis(args.b_min, args.b_max, args.b_steps, "B"),
                           kt_min=args.kt_min, kt_max=args.kt_max,
                           residual_tol=args.tol)
    out_path = Path(args.out_path or f"boundary.{args.out}")
    out_path.write_text(curve.to_csv() if args.out == "csv" else curve.to_json())
    print(f"wrote {out_path} ({len(curve.points)} points, "
          f"{len(curve.no_crossing)} without a crossing)")
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_validation_suite(tol_override=args.tol,
                                   as_printed=args.eq9_as_printed,
                                   seed=args.seed)
    if args.out == "json":
        print(json.dumps([{"name": r.name, "passed": r.passed, "residual": r.residual,
                           "tolerance": r.tolerance, "note": r.note} for r in results],
                         indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            note = f"  [{r.note}]" if r.note else ""
            print(f"{status} {r.name:<{width}} residual={r.residual:.3e} "
                  f"tol={r.tolerance:.1e}{note}")
        failed = sum(not r.passed for r in results)
        print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.handler(args))
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
