"""End-to-end CLI behavior: routes, precedence, exit codes, artifacts."""

import contextlib
import io
import json
import math
import warnings
import xml.etree.ElementTree as ET
from dataclasses import asdict

import numpy as np
import pytest

from spinwitness import cli, quadrature, svgfig, thermolimit
from spinwitness.cli import main
from spinwitness.quadrature import QuadratureError
from spinwitness.svgfig import region_geometry
from spinwitness.thermolimit import region_scan, xx_witness
from spinwitness.witness import witness_from_model
from spinwitness.model import ModelSpec, SpecError, spec_from_config, validate_spec


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_measured_witness(capsys):
    rc, out, _ = run(["witness", "--measured", "--u", "-6", "--m", "0", "--n", "2"], capsys)
    assert rc == 0
    assert "W = 3" in out and "entangled" in out


def test_measured_witness_json(capsys):
    rc, out, _ = run(["witness", "--measured", "--u", "-6", "--m", "0", "--n", "2",
                      "--out", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["W"] == 3.0
    assert payload["entangled"] is True
    assert payload["source"] == "external-measurement"


def test_measured_witness_requires_inputs(capsys):
    rc, _, err = run(["witness", "--measured", "--m", "0", "--n", "2"], capsys)
    assert rc == 1 and err.startswith("error:")
    rc, _, err = run(["witness", "--measured", "--u", "-6", "--m", "0"], capsys)
    assert rc == 1 and "--n" in err
    rc, _, err = run(["witness", "--measured", "--u", "-6", "--m", "0",
                      "--n", "thermodynamic-limit"], capsys)
    assert rc == 1


@pytest.mark.parametrize("flag, value", [("--u", "nan"), ("--m", "inf"), ("--b", "-inf")])
def test_measured_witness_rejects_non_finite_inputs(capsys, flag, value):
    argv = {"--u": "-6", "--m": "0", "--b": "0"}
    argv[flag] = value
    rc, out, err = run(["witness", "--measured", "--n", "4"]
                       + [f"{k}={v}" for k, v in argv.items()], capsys)
    assert rc == 1
    assert out == "" and "finite" in err


def test_measured_witness_past_the_float_range_exits_2(capsys):
    # legal input whose W overflows is a numerical failure, not W = inf "entangled"
    rc, out, err = run(["witness", "--measured", "--u", "1e300", "--m", "0", "--j", "1e-10",
                        "--n", "1"], capsys)
    assert rc == 2
    assert out == "" and "overflows the float range" in err


def test_model_witness_matches_the_library(capsys):
    rc, out, _ = run(["witness", "--model", "xxx", "--n", "6", "--b", "0.5",
                      "--kt", "0.8", "--out", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    expected = witness_from_model(ModelSpec.xxx(1.0, b=0.5, n_sites=6), 0.8)
    assert payload["W"] == expected.value
    assert payload["source"] == "finite-exact"


def test_limit_witness_matches_the_library(capsys):
    rc, out, _ = run(["witness", "--model", "xx", "--n", "thermodynamic-limit",
                      "--b", "0.5", "--kt", "1.0", "--out", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["W"] == xx_witness(1.0, 0.5, 1.0).value
    assert payload["source"] == "thermodynamic-limit"
    assert payload["inputs"]["n_sites"] is None


def test_limit_witness_fails_numerically_where_the_integrand_overflows(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails the test
        rc, out, err = run(["witness", "--model", "xx", "--n", "thermodynamic-limit",
                            "--j", "1e8", "--b", "0.5", "--kt", "1e-300"], capsys)
    assert rc == 2 and out == ""
    assert "numerical failure" in err and "overflows" in err


def test_limit_witness_takes_a_large_tolerance_near_the_range_limit(capsys):
    # U's scaled tolerance 100 * max(1, K, C) is past the float range here
    rc, out, _ = run(["witness", "--model", "xx", "--n", "thermodynamic-limit",
                      "--b", "0.5", "--kt", "5e-307", "--tol", "100", "--out", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["W"] == xx_witness(5e-307, 0.5, 1.0, abs_tol=100.0).value


def test_limit_witness_is_xx_only(capsys):
    rc, _, err = run(["witness", "--model", "xxx", "--n", "thermodynamic-limit",
                      "--kt", "1.0"], capsys)
    assert rc == 1 and "XX" in err


def test_witness_needs_a_temperature(capsys):
    rc, _, err = run(["witness", "--model", "xxx", "--n", "6"], capsys)
    assert rc == 1 and "--kt" in err


def test_negative_temperature_is_a_usage_error(capsys):
    rc, _, err = run(["witness", "--model", "xxx", "--n", "6", "--kt", "-1"], capsys)
    assert rc == 1 and "kT" in err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_reused_parser_gives_what_a_fresh_parser_gives(tmp_path, monkeypatch):
    # main parses with one cached parser per process; a run of mixed calls
    # must print and exit exactly as with a new parser for every call
    calls = [["scan", "--kt-steps", "3", "--b-steps", "3",
              "--out-path", str(tmp_path / "r.csv")],
             ["scan", "--kt-steps", "x"],
             ["witness", "--measured", "--u", "-6", "--m", "0", "--n", "2"],
             ["--help"]]

    def session():
        results = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            results.append((rc, out.getvalue(), err.getvalue()))
        return results

    cached = session()
    assert [rc for rc, _, _ in cached] == [0, 1, 0, 0]
    assert "invalid int value" in cached[1][2] and cached[1][1] == ""
    assert cached[3][1].startswith("usage: spinwitness")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert session() == cached


def test_exact_json(capsys):
    rc, out, _ = run(["exact", "--model", "xxx", "--n", "2", "--boundary", "open",
                      "--kt", "0.01", "--out", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert abs(payload["U"] + 3.0) < 1e-10  # singlet energy at low kT
    xx, yy, zz = payload["bond_correlators"][0]
    assert max(abs(xx + 1.0), abs(yy + 1.0), abs(zz + 1.0)) < 1e-10
    assert payload["spec"]["boundary"] == "open"


def test_exact_text(capsys):
    rc, out, _ = run(["exact", "--model", "xxx", "--n", "4", "--kt", "1.0"], capsys)
    assert rc == 0
    assert "U = " in out and "lnZ = " in out and "bond correlators" in out


def test_exact_needs_finite_n(capsys):
    rc, _, err = run(["exact", "--model", "xx", "--kt", "1.0"], capsys)
    assert rc == 1 and "finite" in err


def test_sign_convention_flag_accepted(capsys):
    rc, out, _ = run(["witness", "--model", "xxx", "--n", "6", "--kt", "0.5",
                      "--sign", "as-printed", "--out", "json"], capsys)
    assert rc == 0
    json.loads(out)


def test_config_seeds_fields_and_flags_win(tmp_path, capsys):
    config = tmp_path / "chain.cfg"
    config.write_text("family = xx\njx = 2.0\nb = 0.3\nn_sites = 6\nboundary = open\n")
    rc, out, _ = run(["witness", "--config", str(config), "--b", "0.7",
                      "--kt", "1.0", "--out", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["inputs"]["B"] == 0.7   # flag beats the file
    assert payload["inputs"]["J"] == 2.0   # file beats the default
    assert payload["inputs"]["n_sites"] == 6

    rc, out, _ = run(["witness", "--config", str(config), "--j", "1.5",
                      "--kt", "1.0", "--out", "json"], capsys)
    payload = json.loads(out)
    assert payload["inputs"]["J"] == 1.5
    assert payload["inputs"]["B"] == 0.3   # untouched field keeps the file value


def test_config_can_request_the_limit(tmp_path, capsys):
    config = tmp_path / "limit.cfg"
    config.write_text("family = xx\njx = 1.0\nn_sites = thermodynamic-limit\n")
    rc, out, _ = run(["witness", "--config", str(config), "--kt", "1.0",
                      "--out", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["source"] == "thermodynamic-limit"


def _site_count_outcome(parse):
    """The parsed n_sites, or the error kind and the message after the source's name."""
    try:
        return parse().n_sites
    except SpecError as exc:
        return SpecError, str(exc).split(" expects ", 1)[1]


# int() also reads digit-group underscores and non-ASCII digits; a count must not
NOT_ASCII_DIGITS = ["1_0", "1_2", "\u0668", "\u0661\u0662", "\uff11\uff12"]


@pytest.mark.parametrize("text", ["8", " 12 ", "+7", "0", "-3", "thermodynamic-limit",
                                  "Thermodynamic-Limit", "8.5", "eight", "1e3", "inf", "",
                                  *NOT_ASCII_DIGITS])
def test_site_count_text_means_the_same_in_a_flag_and_a_config(text):
    # --n and a config file's n_sites share one parser: same count, or same error
    flag = _site_count_outcome(lambda: cli._resolve_spec(
        cli.build_parser().parse_args(["exact", f"--n={text}", "--kt", "1"])))
    config = _site_count_outcome(
        lambda: spec_from_config(f"family = xxx\njx = 1\nn_sites = {text}"))
    assert flag == config
    if text.strip() in ("8", "12", "+7", "0", "-3"):
        assert flag == int(text)
    if text in NOT_ASCII_DIGITS:
        assert flag == (SpecError, f"an integer or 'thermodynamic-limit', got {text!r}")


@pytest.mark.parametrize("text", ["8", " 12 ", "+7", "-3", "8.5", "eight", "", *NOT_ASCII_DIGITS])
def test_grid_steps_read_integers_as_the_site_count_does(text, tmp_path, capsys):
    # --kt-steps and --b-steps take an optional sign and ASCII digits, like --n
    count = _site_count_outcome(
        lambda: spec_from_config(f"family = xxx\njx = 1\nn_sites = {text}"))
    for argv in (["scan", f"--kt-steps={text}"], ["scan", f"--b-steps={text}"],
                 ["boundary", f"--b-steps={text}"]):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 1 and isinstance(count, tuple)
            assert f"invalid int value: {text!r}" in capsys.readouterr().err
        else:
            assert (args.b_steps if "--b-steps" in argv[1] else args.kt_steps) == count
    if text in NOT_ASCII_DIGITS:
        out_path = tmp_path / "region.csv"
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--kt-steps", "3", "--b-steps", text, "--out-path", str(out_path)])
        assert exc.value.code == 1 and not out_path.exists()


COUPLING_FLAGS = [{}, {"jx": 0.7}, {"jx": 0.7, "jy": 1.2}, {"jx": 0.7, "jz": 0.9},
                  {"jx": 0.7, "jy": 1.2, "jz": 0.9}, {"jx": 0.7, "jy": 0.7, "jz": 0.7},
                  {"jx": 0.7, "jy": 0.7, "jz": 0.0}, {"jy": 1.2, "jz": 0.9}]


@pytest.mark.parametrize("family", ["xxx", "xx", "xyz"])
@pytest.mark.parametrize("couplings", [*COUPLING_FLAGS, "--j"])
def test_flags_and_a_config_file_fill_couplings_alike(family, couplings, tmp_path, capsys):
    # one rule fills in the couplings a user leaves out, whether the given ones
    # come as flags or as config keys; --j sets Jx = Jy = Jz (Jz = 0 for xx)
    tail = ["--n", "4", "--kt", "1", "--out", "json"]
    config = tmp_path / "chain.cfg"
    if couplings == "--j":
        config.write_text(f"family = {family}\n")
        by_flags = run(["exact", "--model", family, "--j=-1.3", *tail], capsys)
        by_file = run(["exact", "--config", str(config), "--j=-1.3", *tail], capsys)
        jz = 0.0 if family == "xx" else -1.3
        expected = spec_from_config(f"family = {family}\njx = -1.3\njy = -1.3\njz = {jz}\n"
                                    "n_sites = 4")
    else:
        config.write_text(f"family = {family}\n"
                          + "".join(f"{key} = {value}\n" for key, value in couplings.items()))
        by_flags = run(["exact", "--model", family,
                        *[f"--{key}={value}" for key, value in couplings.items()], *tail], capsys)
        by_file = run(["exact", "--config", str(config), *tail], capsys)
        expected = {"jx": 1.0, **couplings}  # the CLI starts from Jx = 1
        if family != "xyz":
            expected.setdefault("jy", expected["jx"])
            expected.setdefault("jz", expected["jx"] if family == "xxx" else 0.0)
        expected = ModelSpec(family, expected["jx"], expected.get("jy", math.nan),
                             expected.get("jz", math.nan), n_sites=4)
    assert by_flags == by_file
    rc, out, err = by_flags
    if family == "xyz" and couplings != "--j" and not {"jy", "jz"} <= set(couplings):
        missing = "jy" if "jy" not in couplings else "jz"
        assert rc == 1 and f"'{missing}'" in err and f"--{missing}" in err
    elif rc == 0:
        assert json.loads(out)["spec"] == asdict(validate_spec(expected))
    else:  # couplings the family does not allow
        assert rc == 1 and "requires" in err
        with pytest.raises(SpecError, match="requires"):
            validate_spec(expected)


def test_a_config_family_changed_by_flag_takes_its_couplings_from_the_new_family(tmp_path,
                                                                                capsys):
    # the file's xx chain becomes an xxx chain whose Jz the new family fills in (Jz = Jx)
    config = tmp_path / "xx.cfg"
    config.write_text("family = xx\njx = 0.8\nn_sites = 4\n")
    rc, out, _ = run(["exact", "--config", str(config), "--model", "xxx", "--kt", "1",
                      "--out", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["spec"] == asdict(ModelSpec.xxx(0.8, n_sites=4))


def test_flags_complete_a_config_file_that_lacks_a_coupling(tmp_path, capsys):
    # the file's fields and the flags are merged before the one rule asks for Jy and Jz
    config = tmp_path / "xyz.cfg"
    config.write_text("family = xyz\njx = 0.7\nn_sites = 4\n")
    rc, _, err = run(["exact", "--config", str(config), "--kt", "1"], capsys)
    assert rc == 1 and "missing required field 'jy': give config key 'jy' or flag --jy" in err
    rc, out, _ = run(["exact", "--config", str(config), "--jy", "1.2", "--jz", "0.9", "--kt", "1",
                      "--out", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["spec"] == asdict(ModelSpec.xyz(0.7, 1.2, 0.9, n_sites=4))


def test_missing_config_file(capsys):
    rc, _, err = run(["witness", "--config", "/no/such/file.cfg", "--kt", "1.0"], capsys)
    assert rc == 1 and "error:" in err


SCAN_ARGS = ["scan", "--kt-min", "0.3", "--kt-max", "1.5", "--kt-steps", "4",
             "--b-min", "0.0", "--b-max", "1.5", "--b-steps", "3"]


def test_scan_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "region.csv"
    rc, out, _ = run([*SCAN_ARGS, "--out-path", str(out_path)], capsys)
    assert rc == 0
    assert f"wrote {out_path}" in out and "12 cells" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "kT_over_J,B_over_J,W,entangled"
    assert len(lines) == 13


@pytest.mark.parametrize("block_rows", [1, 5, 256])
def test_scan_bytes_are_stable_across_runs_and_block_sizes(tmp_path, capsys, monkeypatch,
                                                          block_rows):
    def scan(stem):
        csv, svg = tmp_path / f"{stem}.csv", tmp_path / f"{stem}.svg"
        run([*SCAN_ARGS, "--out-path", str(csv), "--svg", str(svg)], capsys)
        return csv.read_bytes(), svg.read_bytes()

    first, second = scan("a"), scan("b")
    monkeypatch.setattr(quadrature, "_BLOCK_ROWS", block_rows)
    assert first == second == scan("c")


def test_scan_and_boundary_where_the_integrand_overflows(tmp_path, capsys):
    # kT/|J| = 1e-308 makes K = 1e308: the scan's cells there are NaN with an
    # error each, and the boundary's root finder fails with exit code 2.
    csv = tmp_path / "region.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails the test
        rc, out, _ = run(["scan", "--kt-min", "1e-308", "--kt-max", "0.5", "--kt-steps", "2",
                          "--b-min", "0", "--b-max", "0.5", "--b-steps", "2",
                          "--out-path", str(csv)], capsys)
        assert rc == 0 and "2 cell errors" in out
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert [row[2] for row in rows if float(row[0]) == 1e-308] == ["nan", "nan"]
        assert all(math.isfinite(float(row[2])) for row in rows if float(row[0]) == 0.5)
        rc, _, err = run(["boundary", "--kt-min", "1e-308", "--b-steps", "2",
                          "--out-path", str(tmp_path / "boundary.csv")], capsys)
    assert rc == 2 and "overflows" in err


@pytest.mark.parametrize("command", ["scan", "boundary"])
@pytest.mark.parametrize("flag", ["--b-max", "--kt-max", "--b-min"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_axis_bounds_are_usage_errors(tmp_path, capsys, command, flag, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails the test
        rc, _, err = run([command, f"{flag}={bad}", "--out-path", str(tmp_path / "x.csv")],
                         capsys)
    assert rc == 1 and "error:" in err and "Warning" not in err
    assert not (tmp_path / "x.csv").exists()


TOL_ARGV = {
    "witness": ["witness", "--model", "xx", "--n", "thermodynamic-limit", "--kt", "0.5"],
    "scan": ["scan", "--kt-steps", "2", "--b-steps", "2"],
    "boundary": ["boundary", "--b-steps", "2"],
    "validate": ["validate"],
}


@pytest.mark.parametrize("command", sorted(TOL_ARGV))
@pytest.mark.parametrize("bad", ["nan", "inf", "-1", "0"])
def test_bad_tolerances_are_usage_errors(tmp_path, capsys, command, bad):
    argv = TOL_ARGV[command] + [f"--tol={bad}"]
    if command in ("scan", "boundary"):
        argv += ["--out-path", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails the test
        with pytest.raises(SystemExit) as exc:
            main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert "--tol" in err and "finite number > 0" in err
    assert not (tmp_path / "x.csv").exists()


def test_boundary_tolerance_defaults_to_the_root_residual(tmp_path, capsys):
    paths = [tmp_path / "default.csv", tmp_path / "explicit.csv"]
    rc, _, _ = run(["boundary", "--b-steps", "3", "--out-path", str(paths[0])], capsys)
    assert rc == 0
    rc, _, _ = run(["boundary", "--b-steps", "3", "--out-path", str(paths[1]),
                    f"--tol={thermolimit.DEFAULT_ROOT_RESIDUAL!r}"], capsys)
    assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scan_json(tmp_path, capsys):
    out_path = tmp_path / "region.json"
    rc, _, _ = run([*SCAN_ARGS, "--out", "json", "--out-path", str(out_path)], capsys)
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "region-grid"
    assert len(payload["W"]) == 3 and len(payload["W"][0]) == 4
    assert payload["metadata"]["magnetization_form"] == "lnz-derivative"


def test_scan_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, _, _ = run(SCAN_ARGS, capsys)
    assert rc == 0
    assert (tmp_path / "region.csv").exists()


def test_scan_svg_matches_the_grid_geometry(tmp_path, capsys):
    svg_path = tmp_path / "region.svg"
    rc, _, _ = run([*SCAN_ARGS, "--out-path", str(tmp_path / "r.csv"),
                    "--svg", str(svg_path)], capsys)
    assert rc == 0
    grid = region_scan(np.linspace(0.3, 1.5, 4), np.linspace(0.0, 1.5, 3))
    _, expected_contour = region_geometry(grid)
    root = ET.fromstring(svg_path.read_text())
    ns = {"svg": "http://www.w3.org/2000/svg"}
    contour = root.find(".//svg:polyline[@id='witness-contour']", ns)
    points = [tuple(float(v) for v in pair.split(","))
              for pair in contour.get("points").split()]
    assert points == expected_contour


def per_cell_csv(grid):
    """RegionGrid.to_csv with one float() per cell: the writer's oracle."""
    lines = ["kT_over_J,B_over_J,W,entangled"]
    for ib, b in enumerate(grid.b_over_j):
        for ik, kt in enumerate(grid.kt_over_j):
            flag = "true" if bool(grid.entangled[ib, ik]) else "false"
            lines.append(f"{float(kt)!r},{float(b)!r},{float(grid.w[ib, ik])!r},{flag}")
    return "\n".join(lines) + "\n"


def per_cell_payload(grid):
    """RegionGrid.to_json's content with one float() or bool() per value, no timestamp."""
    return {
        "kind": "region-grid",
        "kT_over_J": [float(x) for x in grid.kt_over_j],
        "B_over_J": [float(x) for x in grid.b_over_j],
        "W": [[float(x) for x in row] for row in grid.w],
        "entangled": [[bool(x) for x in row] for row in grid.entangled],
        "cell_errors": [list(e) for e in grid.cell_errors],
        "metadata": {"abs_tol": grid.abs_tol, "magnetization_form": grid.magnetization_form,
                     "threshold": 1.0, "generated_at": None},
    }


def parsed_payload(text):
    """The parsed JSON with its timestamp blanked, re-encoded so that NaN cells compare equal."""
    payload = json.loads(text)
    assert payload["metadata"]["generated_at"]
    payload["metadata"]["generated_at"] = None
    return json.dumps(payload)


def column_crossing_by_index(b_values, w_column):
    """svgfig._column_crossing reading numpy scalars by index: its oracle."""
    if not (w_column[0] > 1.0):
        return None
    for i in range(len(b_values) - 1):
        lo, hi = w_column[i], w_column[i + 1]
        if np.isnan(hi):
            return float(b_values[i])
        if lo > 1.0 >= hi:
            if hi == lo:
                return float(b_values[i])
            frac = (lo - 1.0) / (lo - hi)
            return float(b_values[i] + frac * (b_values[i + 1] - b_values[i]))
    return float(b_values[-1])


def geometry_by_index(grid):
    """svgfig.region_geometry over numpy columns: its oracle."""
    b_values, kt_values = np.asarray(grid.b_over_j), np.asarray(grid.kt_over_j)
    contour = []
    for ik, kt in enumerate(kt_values):
        crossing = column_crossing_by_index(b_values, grid.w[:, ik])
        if crossing is None:
            break
        contour.append((float(kt), crossing))
    if not contour:
        return [], []
    floor = float(b_values[0])
    return [(contour[0][0], floor), *contour, (contour[-1][0], floor)], contour


def oracle_svg(grid, monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(svgfig, "region_geometry", geometry_by_index)
        return svgfig.render_region_svg(grid)


def assert_writers_match_the_oracles(grid, monkeypatch):
    assert grid.to_csv() == per_cell_csv(grid)
    text = grid.to_json()
    assert parsed_payload(text) == json.dumps(per_cell_payload(grid))
    # one line per grid row of W and of entangled, not one per cell
    assert len(text.splitlines()) == 2 * len(grid.b_over_j) + 11
    assert region_geometry(grid) == geometry_by_index(grid)
    assert svgfig.render_region_svg(grid) == oracle_svg(grid, monkeypatch)


@pytest.mark.parametrize("argv, kt, b", [
    ([], np.linspace(0.05, 3.0, 60), np.linspace(0.0, 3.0, 60)),  # the default scan
    (["--tol", "1e-17", "--kt-steps", "8", "--b-steps", "8"],  # NaN cells
     np.linspace(0.05, 3.0, 8), np.linspace(0.0, 3.0, 8)),
])
def test_scan_artifacts_match_the_per_cell_writers(tmp_path, capsys, monkeypatch, argv, kt, b):
    csv, svg = tmp_path / "region.csv", tmp_path / "region.svg"
    rc, _, _ = run(["scan", *argv, "--out-path", str(csv), "--svg", str(svg)], capsys)
    assert rc == 0
    grid = region_scan(kt, b, abs_tol=float(argv[1]) if argv else quadrature.DEFAULT_ABS_TOL)
    assert csv.read_text() == per_cell_csv(grid)
    assert svg.read_text() == oracle_svg(grid, monkeypatch)
    assert_writers_match_the_oracles(grid, monkeypatch)
    assert grid.entangled.any() if not argv else np.isnan(grid.w).any()


def _grid(kt, b, w):
    w = np.asarray(w, dtype=float)
    return thermolimit.RegionGrid(
        kt_over_j=np.asarray(kt, dtype=float), b_over_j=np.asarray(b, dtype=float), w=w,
        entangled=np.where(np.isnan(w), False, w > 1.0), cell_errors=(), abs_tol=1e-10,
        magnetization_form="lnz-derivative")


WRITER_GRIDS = {
    "one-field": lambda: region_scan(np.linspace(0.05, 3.0, 7), np.array([0.5])),
    "one-temperature": lambda: region_scan(np.array([0.5]), np.linspace(0.0, 3.0, 7)),
    "negative-fields": lambda: region_scan(np.linspace(0.05, 1.5, 9), np.linspace(-0.5, 1.5, 9)),
    "clamped": lambda: region_scan(np.linspace(0.05, 0.5, 5), np.linspace(0.0, 0.5, 5)),
    "nan-in-a-crossing-column": lambda: _grid(
        [0.1, 0.2, 0.3], [0.0, 1.0, 2.0],
        [[2.0, 1.5, 1.25], [float("nan"), 1.2, float("nan")], [0.5, 0.3, 0.75]]),
}


@pytest.mark.parametrize("name", sorted(WRITER_GRIDS))
def test_region_writers_match_the_per_cell_writers(monkeypatch, name):
    grid = WRITER_GRIDS[name]()
    assert_writers_match_the_oracles(grid, monkeypatch)
    _, contour = region_geometry(grid)
    if name == "clamped":  # entangled at every field: each crossing sits on the top edge
        assert [b for _, b in contour] == [0.5] * 5
    if name in ("negative-fields", "nan-in-a-crossing-column"):
        assert contour


def test_scan_as_printed_changes_the_surface(tmp_path, capsys):
    canonical = tmp_path / "canonical.csv"
    printed = tmp_path / "printed.csv"
    run([*SCAN_ARGS, "--out-path", str(canonical)], capsys)
    run([*SCAN_ARGS, "--eq9-as-printed", "--out-path", str(printed)], capsys)
    rows_c = canonical.read_text().splitlines()[1:]
    rows_p = printed.read_text().splitlines()[1:]
    diffs = [abs(float(c.split(",")[2]) - float(p.split(",")[2]))
             for c, p in zip(rows_c, rows_p)
             if float(c.split(",")[1]) != 0.0]  # B = 0 rows agree: B*M drops out
    assert max(diffs) > 0.01


def test_boundary_csv(tmp_path, capsys):
    out_path = tmp_path / "boundary.csv"
    rc, out, _ = run(["boundary", "--b-min", "0.0", "--b-max", "1.0", "--b-steps", "3",
                      "--out-path", str(out_path)], capsys)
    assert rc == 0 and "3 points" in out
    lines = out_path.read_text().splitlines()
    header_at = lines.index("B_over_J,kTc_over_J")
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[header_at + 1:]]
    assert [b for b, _ in rows] == [0.0, 0.5, 1.0]
    ktcs = [t for _, t in rows]
    assert all(a >= b for a, b in zip(ktcs, ktcs[1:]))
    for b, ktc in rows:
        assert abs(xx_witness(ktc, b, 1.0).value - 1.0) < 1e-5


def test_boundary_json(tmp_path, capsys):
    out_path = tmp_path / "boundary.json"
    rc, _, _ = run(["boundary", "--b-min", "0.0", "--b-max", "0.5", "--b-steps", "2",
                    "--out", "json", "--out-path", str(out_path)], capsys)
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "boundary-curve"
    assert payload["metadata"]["zero_temperature_bc"] == pytest.approx(
        2.0 * math.sqrt(1.0 - math.pi ** 2 / 16.0))


def test_validate_json_and_exit_codes(capsys):
    rc, out, _ = run(["validate", "--out", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert len(payload) == 12
    assert all(entry["passed"] is True for entry in payload)


def test_validate_text_table(capsys):
    rc, out, _ = run(["validate"], capsys)
    assert rc == 0
    assert "12/12 checks passed" in out
    assert out.count("PASS") == 12


def test_validate_tight_tolerance_exits_three(capsys):
    rc, out, _ = run(["validate", "--tol", "1e-14"], capsys)
    assert rc == 3
    assert "FAIL" in out and "tolerance-induced" in out


def test_validate_as_printed_exits_three(capsys):
    rc, out, _ = run(["validate", "--eq9-as-printed"], capsys)
    assert rc == 3
    assert "documented discrepancy" in out


def test_numerical_failures_exit_two(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise QuadratureError("synthetic non-convergence")

    monkeypatch.setattr("spinwitness.cli.xx_witness", explode)
    rc, _, err = run(["witness", "--model", "xx", "--n", "thermodynamic-limit",
                      "--kt", "1.0"], capsys)
    assert rc == 2
    assert "numerical failure" in err


@pytest.mark.parametrize("command", ["exact", "witness"])
@pytest.mark.parametrize("args", [
    ["--model", "xxx", "--n", "6", "--b=1e308", "--kt", "1"],
    ["--model", "xxx", "--n", "6", "--kt", "1e-320"],
    ["--model", "xx", "--j=1e308", "--n", "6", "--kt", "1"],
    ["--model", "xyz", "--jx", "1", "--jy", "2", "--jz=1e308", "--n", "5", "--kt", "1"],
    # B / (2J) overflows, so the couplings are not scaled; ln Z then overflows.
    ["--model", "xxx", "--n", "6", "--j=1e-300", "--b=1e300", "--kt=1e-300"]])
def test_exact_diagonalization_overflow_exits_two(capsys, command, args):
    # An overflow is a numerical failure, never a NaN result or a usage
    # error; XYZ chains are not witness-eligible, which is a usage error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run([command, *args], capsys)
    if command == "witness" and "xyz" in args:
        assert rc == 1 and "witness-eligible" in err
        return
    assert rc == 2 and err.startswith("numerical failure:")
    assert "nan" not in out.lower()
