"""The benchmark's workloads: seeded inputs, requests, and correctness checks.

A workload is a list of requests plus a check. Each request is one
closed-loop call from a single client into a user-facing entry point:
``spinwitness.cli.main(argv)`` for CLI commands (stdout captured, files
written to a scratch directory) or a documented library function. Calls go
through module attributes at call time, so a traced pass sees them.

Inputs are drawn from the seed by stratified sampling: the seed moves the
parameter values inside fixed strata, never the sizes or the mix, so the
work per pass barely depends on the seed.

Every check compares against an independent route or a closed form, with
tolerances no looser than the repository's tests and ``validate``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from spinwitness import cli, exactdiag, freefermion, thermolimit, witness
from spinwitness.model import ModelSpec

# Tolerances, each taken from the repository's tests or validate suite.
TWO_ROUTE_TOL = 1e-10          # totals vs correlator route (criterion 03), limit routes
JW_ED_TOL = 1e-8               # free fermions vs exact diagonalization (criterion 06)
JW_LIMIT_TOL = 1e-3            # N >= 2000 fermions vs limit integrals (criterion 06)
CONCURRENCE_TOL = 1e-8         # concurrence-energy identity (criterion 05)
THERMO_TOL = 1e-5              # lnZ-derivative residuals (criterion 09)
SEPARABLE_TOL = 1e-12          # separable bound (criterion 04)
ANCHOR_REL_TOL = 0.015         # ground-energy anchor 1.773 (criterion 01)
ROOT_RESIDUAL_TOL = 1e-6       # |W - 1| at a traced root (criterion 07)
KTC_TOL = 1e-5                 # zero-field kT_c at the default residual
BC_LOWT_REL_TOL = 2e-3         # B_c at kT = 1e-3 vs the closed form

GROUND_ENERGY_ANCHOR = 1.773
# Zero-field kT_c/|J| solved to |W - 1| < 1e-9 (the repository's reference value).
KTC_ZERO_FIELD = 1.36683616383713
BC_ZERO_TEMPERATURE = 2.0 * math.sqrt(1.0 - math.pi ** 2 / 16.0)


class Workload:
    """Requests as (label, thunk) pairs and a check over their outputs."""

    def __init__(self):
        self.requests: list[tuple[str, object]] = []
        self.checks: list = []   # one callable per request: output -> error text or None
        self.joint: list = []    # (request indices, callable over outputs -> error or None)

    def add(self, label, thunk, check):
        self.requests.append((label, thunk))
        self.checks.append(check)
        return len(self.requests) - 1

    def check(self, outputs) -> dict[int, str]:
        """Map request index -> reason, for every request whose output is off."""
        problems = {}
        for i, (output, check) in enumerate(zip(outputs, self.checks)):
            if output is not None:
                reason = check(output)
                if reason:
                    problems[i] = f"{self.requests[i][0]}: {reason}"
        for indices, check in self.joint:
            if all(outputs[i] is not None for i in indices):
                reason = check([outputs[i] for i in indices])
                if reason:
                    for i in indices:
                        problems.setdefault(i, f"{self.requests[i][0]}: {reason}")
        return problems


def _strata(rng, lo, hi, count, log=False):
    """One draw in the middle fifth of each of ``count`` equal strata of [lo, hi], shuffled.

    Narrow draws keep the cost of a pass nearly the same for every seed:
    the quadrature's panel count changes fast with kT near its low end.
    """
    u = (np.arange(count) + 0.4 + 0.2 * rng.uniform(size=count)) / count
    values = np.exp(np.log(lo) + u * np.log(hi / lo)) if log else lo + u * (hi - lo)
    return [float(v) for v in rng.permutation(values)]


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _off(value, reference, tol, what="value"):
    if not abs(value - reference) < tol:
        return f"{what} {value!r} vs reference {reference!r} (tol {tol:g})"
    return None


# ---------------------------------------------------------------------------
# Finite-chain requests shared by ed-rings and small-chains


def _thermal_routes(spec, kt):
    """(totals route, correlator route) of one thermal state.

    Witness-eligible chains give W both ways; XYZ chains give U + B*M and
    the coupling-weighted bond sum, normalized by N*max|J|.
    """
    obs = exactdiag.thermal_observables(spec, kt)
    return _routes(spec, obs), obs


def _routes(spec, obs):
    if spec.family != "xyz":
        totals = witness.witness_value(obs.u, obs.m, spec.b, spec.jx, spec.n_sites).value
        bonds = witness.witness_from_correlators(obs.bond_correlators, spec.n_sites,
                                                 spec.family)
        return totals, bonds
    s = 1.0 if spec.sign_convention == "singlet-ground" else -1.0
    scale = spec.n_sites * max(abs(spec.jx), abs(spec.jy), abs(spec.jz))
    bond_sum = sum(spec.jx * xx + spec.jy * yy + spec.jz * zz
                   for xx, yy, zz in obs.bond_correlators)
    return (obs.u + spec.b * obs.m) / scale, s * bond_sum / scale


def _routes_agree(output):
    (totals, bonds), _ = output
    return _off(totals, bonds, TWO_ROUTE_TOL, "totals route")


def _jw_off(spec, kt, u_total, m_total):
    """Reason the open-XX totals are off the free-fermion route, or None."""
    u_jw, m_jw = freefermion.jw_observables(spec.n_sites, kt, spec.jx, spec.b)
    n = spec.n_sites
    return (_off(u_total / n, u_jw, JW_ED_TOL * max(1.0, abs(u_jw)), "U/N")
            or _off(m_total / n, m_jw, JW_ED_TOL * max(1.0, abs(m_jw)), "M/N"))


def _ground_routes(spec):
    obs = exactdiag.ground_state_observables(spec)
    return _routes(spec, obs), obs


# ---------------------------------------------------------------------------
# ed-rings: dense eigh dominates; quadrature never runs


def ed_rings(rng, scratch: Path) -> Workload:
    wl = Workload()
    j = float(rng.uniform(0.8, 1.25))
    kts = _strata(rng, 0.3, 2.5, 3, log=True)
    ground = {}
    thermal12 = None
    for n in (8, 10, 12):
        ring = ModelSpec.xxx(j, n_sites=n)
        ground[n] = wl.add(f"ground-n{n}", lambda ring=ring: _ground_routes(ring),
                           _routes_agree)
        for i, kt in enumerate(kts):
            index = wl.add(f"thermal-n{n}-kt{kt:.3f}",
                           lambda ring=ring, kt=kt: _thermal_routes(ring, kt), _routes_agree)
            if n == 12 and i == 1:
                thermal12 = index
        if n == 8:
            kt_pair = float(rng.uniform(0.1, 2.0))

            def pair(ring=ring, kt=kt_pair):
                return exactdiag.concurrence(exactdiag.reduced_pair_state(ring, kt, (0, 1)))

            def pair_check(c, ring=ring, kt=kt_pair):
                u = exactdiag.thermal_observables(ring, kt).u
                return _off(c, witness.concurrence_from_energy(u, ring.n_sites, j),
                            CONCURRENCE_TOL, "concurrence")

            wl.add("pair-concurrence-n8", pair, pair_check)
        if n == 12:
            # Same ring and kT as a library request: the cached eigensystem is reused.
            argv = ["witness", "--model", "xxx", "--n", "12", f"--j={j!r}",
                    f"--kt={kts[1]!r}", "--out", "json"]
            cli_index = wl.add("cli-witness-n12", lambda argv=argv: json.loads(_run_cli(argv)),
                               lambda out: None)
            wl.joint.append(((cli_index, thermal12), lambda outs: _off(
                outs[0]["W"], outs[1][0][1], TWO_ROUTE_TOL, "CLI W vs correlator route")))

    def anchor(outs):
        per_site = {n: obs.u / (n * j) for n, (_, obs) in zip((8, 10, 12), outs)}
        x = np.array([1.0 / n ** 2 for n in per_site])
        extrapolated = abs(float(np.polyfit(x, np.array(list(per_site.values())), 1)[1]))
        rel = abs(extrapolated - GROUND_ENERGY_ANCHOR) / GROUND_ENERGY_ANCHOR
        return None if rel < ANCHOR_REL_TOL else f"E0/(N|J|) -> {extrapolated} (rel {rel:.2e})"

    wl.joint.append((tuple(ground.values()), anchor))

    kt_sweep = float(rng.uniform(0.5, 1.0))
    for b in _strata(rng, 0.2, 2.0, 8):
        spec = ModelSpec.xxx(j, b=b, n_sites=10)
        wl.add(f"field-sweep-n10-b{b:.3f}", lambda spec=spec: _thermal_routes(spec, kt_sweep),
               _routes_agree)

    thermo_spec = ModelSpec.xxx(j, b=float(rng.uniform(0.2, 0.6)), n_sites=10)
    kt_thermo = float(rng.uniform(0.6, 1.2))
    wl.add("thermo-consistency-n10",
           lambda: exactdiag.thermo_consistency(thermo_spec, kt_thermo),
           lambda res: None if max(res) < THERMO_TOL else f"residuals {res}")

    j_xx = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.25))
    b_xx, kt_xx = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.4, 1.5))
    argv = ["exact", "--model", "xx", "--n", "10", "--boundary", "open", f"--j={j_xx!r}",
            f"--b={b_xx!r}", f"--kt={kt_xx!r}", "--out", "json"]
    xx_open = ModelSpec.xx(j_xx, b=b_xx, n_sites=10, boundary="open")

    wl.add("cli-exact-open-xx-n10", lambda: json.loads(_run_cli(argv)),
           lambda out: _jw_off(xx_open, kt_xx, out["U"], out["M"]))

    jx, jy, jz = (float(v) for v in rng.uniform(0.5, 1.5, size=3))
    xyz = ModelSpec.xyz(jx, jy, jz, b=float(rng.uniform(0.1, 0.8)), n_sites=10)
    kt_xyz = float(rng.uniform(0.4, 1.5))
    wl.add("xyz-ring-n10", lambda: _thermal_routes(xyz, kt_xyz), _routes_agree)
    return wl


# ---------------------------------------------------------------------------
# limit-plane: quadrature and root-finding; exactdiag never runs


def _single_integral_w(kt, b):
    return thermolimit.xx_witness_single_integral(kt, b, 1.0)


def limit_plane(rng, scratch: Path) -> Workload:
    wl = Workload()
    kt_min = 0.02 * float(rng.uniform(1.0, 1.1))
    kt_max = 3.0 * float(rng.uniform(0.97, 1.0))
    b_max = 3.0 * float(rng.uniform(0.97, 1.0))
    kt_step, b_step = (kt_max - kt_min) / 59, b_max / 59
    sample_rng = np.random.default_rng(rng.integers(2 ** 32))

    def scan_check(csv_path, svg_path):
        rows = csv_path.read_text().splitlines()[1:]
        if len(rows) != 900:
            return f"{len(rows)} cells, expected 900"
        for i in sample_rng.choice(len(rows), size=6, replace=False):
            kt, b, w, flag = rows[i].split(",")
            reason = _off(float(w), _single_integral_w(float(kt), float(b)), TWO_ROUTE_TOL,
                          f"W({kt}, {b})")
            if reason or (flag == "true") != (float(w) > 1.0):
                return reason or f"flag {flag} disagrees with W {w}"
        polygon = ET.parse(svg_path).getroot().find(".//{*}polygon[@id='entangled-region']")
        if polygon is None or not polygon.get("points"):
            return "SVG has no entangled-region polygon"
        return None

    # The 60x60 plane is scanned as four interleaved 30x30 grids, one CLI
    # call each. On a contended VM the best latency of a 0.2 s call over
    # the passes is much steadier than that of a single 0.8 s call.
    for dk, db in ((0, 0), (1, 0), (0, 1), (1, 1)):
        csv_path, svg_path = scratch / f"region{dk}{db}.csv", scratch / f"region{dk}{db}.svg"
        argv = ["scan", f"--kt-min={kt_min + dk * kt_step!r}",
                f"--kt-max={kt_min + (58 + dk) * kt_step!r}", "--kt-steps=30",
                f"--b-min={db * b_step!r}", f"--b-max={(58 + db) * b_step!r}", "--b-steps=30",
                "--out-path", str(csv_path), "--svg", str(svg_path)]
        wl.add(f"cli-scan-30x30-{dk}{db}", lambda argv=argv: _run_cli(argv),
               lambda _, csv_path=csv_path, svg_path=svg_path: scan_check(csv_path, svg_path))

    b_top = 1.2 * float(rng.uniform(0.95, 1.0))
    boundary_path = scratch / "boundary.csv"
    argv_b = ["boundary", "--b-min=0", f"--b-max={b_top!r}", "--b-steps=13",
              "--out-path", str(boundary_path)]

    def boundary_check(_):
        lines = boundary_path.read_text().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        rows = [tuple(map(float, line.split(","))) for line in lines
                if not line.startswith("#") and not line.startswith("B_over_J")]
        if len(rows) != 13 or any("no crossing" in line for line in comments):
            return f"{len(rows)} boundary points, expected 13 crossings"
        ktc = float(comments[0].split("=")[1].split()[0])
        bc = float(comments[1].split("=")[1].split()[0])
        reason = (_off(ktc, KTC_ZERO_FIELD, KTC_TOL, "zero-field kT_c")
                  or (None if bc == BC_ZERO_TEMPERATURE else f"B_c {bc!r} is not the closed form"))
        for b, kt in rows:
            reason = reason or _off(_single_integral_w(kt, b), 1.0, ROOT_RESIDUAL_TOL,
                                    f"W at kT_c({b})")
        kts = [kt for _, kt in rows]
        if not reason and any(a < c for a, c in zip(kts, kts[1:])):
            reason = "kT_c does not fall with B"
        return reason

    wl.add("cli-boundary-13", lambda: _run_cli(argv_b), boundary_check)

    wl.add("critical-temperature-zero-field", thermolimit.critical_temperature_zero_field,
           lambda ktc: _off(ktc, KTC_ZERO_FIELD, KTC_TOL, "kT_c")
           or _off(_single_integral_w(ktc, 0.0), 1.0, ROOT_RESIDUAL_TOL, "W(kT_c, 0)"))
    kt_low = 1e-3 * float(rng.uniform(0.5, 1.0))
    wl.add("critical-field-low-temperature",
           lambda: thermolimit.critical_field_low_temperature(kt_over_j=kt_low),
           lambda bc: _off(bc / BC_ZERO_TEMPERATURE, 1.0, BC_LOWT_REL_TOL, "B_c/closed form"))

    # Every kT stratum meets every B stratum: a point's panel count depends
    # on both, so a random pairing would make the cost depend on the seed.
    for kt, b in [(kt, b) for kt in _strata(rng, 0.02, 3.0, 8, log=True)
                  for b in _strata(rng, 0.0, 3.0, 5)]:
        j = float(rng.choice([-1.0, 1.0]))
        wl.add(f"single-integral-kt{kt:.3f}-b{b:.3f}",
               lambda kt=kt, b=b, j=j: thermolimit.xx_witness_single_integral(kt, b, j),
               lambda w, kt=kt, b=b, j=j: _off(w, thermolimit.xx_witness(kt, b, j).value,
                                               TWO_ROUTE_TOL, "single-integral W"))
    return wl


# ---------------------------------------------------------------------------
# small-chains: hundreds of cheap independent requests; per-call overhead shows


def small_chains(rng, scratch: Path) -> Workload:
    wl = Workload()
    chains = []
    for family in ("xxx", "xx", "xyz"):
        for boundary in ("open", "periodic"):
            for n in range(2 if boundary == "open" else 3, 9):
                for sign in ("singlet-ground", "as-printed"):
                    chains += [(family, boundary, n, sign)] * 4
    for k in rng.permutation(len(chains)):
        family, boundary, n, sign = chains[k]
        j = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        b, kt = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.2, 3.0))
        if family == "xyz":
            jx, jy, jz = (float(v) for v in rng.uniform(-2.0, 2.0, size=3))
            spec = ModelSpec.xyz(jx, jy, jz, b=b, n_sites=n, boundary=boundary,
                                 sign_convention=sign)
        else:
            make = ModelSpec.xxx if family == "xxx" else ModelSpec.xx
            spec = make(j, b=b, n_sites=n, boundary=boundary, sign_convention=sign)
        check = _routes_agree
        if family == "xx" and boundary == "open":
            def check(output, spec=spec, kt=kt):
                obs = output[1]
                return _routes_agree(output) or _jw_off(spec, kt, obs.u, obs.m)

        wl.add(f"{family}-{boundary}-n{n}-{sign}", lambda spec=spec, kt=kt: _thermal_routes(spec, kt),
               check)

    for _ in range(16):
        n = int(rng.integers(2, 51))
        u, m = float(rng.uniform(-3.0 * n, 3.0 * n)), float(rng.uniform(-n, n))
        b, j = float(rng.uniform(-2.0, 2.0)), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        argv = ["witness", "--measured", f"--u={u!r}", f"--m={m!r}", f"--n={n}", f"--b={b!r}",
                f"--j={j!r}", "--out", "json"]
        closed = abs(u + b * m) / (n * abs(j))
        wl.add(f"cli-witness-measured-n{n}", lambda argv=argv: json.loads(_run_cli(argv)),
               lambda out, closed=closed: _off(out["W"], closed, TWO_ROUTE_TOL * max(1.0, closed),
                                               "measured W"))

    for n in (2000, 5000, 10000):
        for kt, b in zip(_strata(rng, 0.5, 2.0, 2), _strata(rng, 0.0, 2.0, 2)):
            j = float(rng.choice([-1.0, 1.0]))

            def limit_check(out, kt=kt, b=b, j=j):
                u_jw, m_jw = out
                return (_off(u_jw, thermolimit.xx_internal_energy(kt, b, j), JW_LIMIT_TOL, "U/N")
                        or _off(m_jw, thermolimit.xx_magnetization(kt, b, j), JW_LIMIT_TOL, "M/N"))

            wl.add(f"jw-observables-n{n}",
                   lambda n=n, kt=kt, b=b, j=j: freefermion.jw_observables(n, kt, j, b),
                   limit_check)

    sweep_seed = int(rng.integers(2 ** 31))
    wl.add("separable-sweep-xxx",
           lambda: witness.separable_sweep(100_000, 8, "xxx", seed=sweep_seed),
           lambda best: None if 1.0 <= best <= 1.0 + SEPARABLE_TOL else f"max W {best!r}")

    validate_seed = int(rng.integers(2 ** 31))

    def validate_check(text):
        passed, total = text.strip().splitlines()[-1].split()[0].split("/")
        return None if passed == total == "12" else text.strip().splitlines()[-1]

    wl.add("cli-validate", lambda: _run_cli(["validate", f"--seed={validate_seed}"]),
           validate_check)
    return wl


WORKLOADS = {"ed-rings": ed_rings, "limit-plane": limit_plane, "small-chains": small_chains}


def build(name: str, seed: int, scratch: Path) -> Workload:
    """The named workload's requests, drawn from ``seed``; CLI files go to ``scratch``."""
    return WORKLOADS[name](np.random.default_rng(seed), scratch)
