"""End-to-end checks of the command line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from toricshrink.cli import main
from toricshrink.polyhedra import (
    box, from_halfspaces, half_line, interval, save_polyhedron,
)
from toricshrink.potentials import GridCorrection


@pytest.fixture
def teardrop_file(tmp_path):
    path = tmp_path / "teardrop.json"
    save_polyhedron(interval(-2, "2/3", 1, 3), path)
    return str(path)


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    save_polyhedron(interval(-2, 2), path)
    return str(path)


@pytest.fixture
def zero_potential_file(tmp_path):
    path = tmp_path / "zero.json"
    corr = GridCorrection.zeros([(-2.0, 2.0)], [8])
    path.write_text(json.dumps({"correction": corr.to_dict()}))
    return str(path)


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    save_polyhedron(box([(-2, 2)] * 3), path)
    return str(path)


@pytest.fixture
def half_line_file(tmp_path):
    path = tmp_path / "halfline.json"
    save_polyhedron(half_line(-2), path)
    return str(path)


def test_validate_ok(teardrop_file, capsys):
    assert main(["validate", teardrop_file]) == 0
    out = capsys.readouterr().out
    assert "proper: True" in out
    assert "simple: True" in out


def test_validate_rejects_general_offsets(tmp_path, capsys):
    path = tmp_path / "shifted.json"
    save_polyhedron(interval(0, 4), path)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert err.count("\n") == 1
    assert main(["validate", str(path), "--allow-general-offsets"]) == 0


def test_bad_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["validate", str(path)]) == 4
    assert capsys.readouterr().err.startswith("error: io:")


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 4
    assert capsys.readouterr().err.startswith("error: io:")


def test_malformed_payload_is_parse_error(tmp_path, capsys):
    path = tmp_path / "weird.json"
    path.write_text('{"dim": 1}')
    assert main(["validate", str(path)]) == 4
    assert capsys.readouterr().err.startswith("error: parse:")


def test_empty_polyhedron_is_validation_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    payload = {"dim": 1, "facets": [
        {"normal": [1], "label": 1, "offset": 2},
        {"normal": [-1], "label": 1, "offset": -4},
    ]}
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path), "--allow-general-offsets"]) == 2
    assert capsys.readouterr().err.startswith("error: validation:")


def test_structure_groups_of_teardrop(teardrop_file, capsys, tmp_path):
    out_path = tmp_path / "groups.json"
    assert main(["structure-group", teardrop_file, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "trivial" in out
    assert "Z/3" in out
    data = json.loads(out_path.read_text())
    orders = sorted(r["order"] for r in data["structure_groups"])
    assert orders == [1, 3]


def test_vertices_and_delzant_and_fan(teardrop_file, tmp_path):
    assert main(["vertices", teardrop_file,
                 "--out", str(tmp_path / "v.json")]) == 0
    verts = json.loads((tmp_path / "v.json").read_text())["vertices"]
    assert sorted(v["point"][0] for v in verts) == ["-2", "2/3"]
    assert main(["delzant", teardrop_file,
                 "--out", str(tmp_path / "d.json")]) == 0
    data = json.loads((tmp_path / "d.json").read_text())
    assert data["kernel_basis"] == [[3, 1]]
    assert main(["fan", teardrop_file, "--out", str(tmp_path / "f.json")]) == 0
    cones = json.loads((tmp_path / "f.json").read_text())["cones"]
    assert [c["face_indices"] for c in cones] == [[], [0], [1]]


def test_fan_of_improper_polyhedron_is_validation_error(tmp_path, capsys):
    # the half-plane x >= -2 contains the lines along (0, 1)
    path = tmp_path / "halfplane.json"
    save_polyhedron(from_halfspaces(2, [((1, 0), 1, 2)]), path)
    assert main(["fan", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["vertices", "structure-group"])
@pytest.mark.parametrize("rows, flags", [
    # the strip |x| <= 2 contains the lines along (0, 1)
    ([((1, 0), 1, 2), ((-1, 0), 1, 2)], []),
    # the half-plane x >= -2, also under --allow-general-offsets
    ([((1, 0), 1, 2)], ["--allow-general-offsets"]),
], ids=["strip", "half-plane"])
def test_vertices_of_improper_polyhedron_are_validation_error(tmp_path, capsys,
                                                               command, rows, flags):
    path = tmp_path / "improper.json"
    save_polyhedron(from_halfspaces(2, rows), path)
    assert main([command, str(path), "--out", str(tmp_path / "v.json")] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: validation: contains line: (0, 1)\n"
    assert not (tmp_path / "v.json").exists()


def test_vertices_of_4d_box(tmp_path, capsys):
    path = tmp_path / "box4.json"
    save_polyhedron(box([(-2, 2)] * 4), path)
    assert main(["vertices", str(path), "--out", str(tmp_path / "v.json")]) == 0
    assert capsys.readouterr().out.count("vertex ") == 16
    verts = json.loads((tmp_path / "v.json").read_text())["vertices"]
    assert all(len(v["edge_generators"]) == 4 for v in verts)


def test_soliton_vector_half_line(half_line_file, tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    assert main(["soliton-vector", half_line_file, "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert abs(data["b"][0] - 0.5) < 1e-8
    assert data["gradient_norm"] < 1e-10


def test_divergent_weight_is_validation_error(half_line_file, capsys):
    # e^{-bx} with b < 0 blows up along the recession ray of [-2, oo)
    assert main(["solve", half_line_file, "--b", "-0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: validation:")


def test_solve_and_residual_roundtrip(interval_file, tmp_path, capsys):
    art = tmp_path / "round.json"
    assert main(["solve", interval_file, "--out", str(art)]) == 0
    data = json.loads(art.read_text())
    assert abs(data["constant"] + np.log(2)) < 1e-9
    assert data["residual_deviation"] < 1e-9
    assert data["correction"]["kind"] == "chebyshev-tensor"

    capsys.readouterr()
    assert main(["residual", interval_file, "--potential", str(art),
                 "--out", str(tmp_path / "res.csv")]) == 0
    out = capsys.readouterr().out
    assert "std:" in out
    lines = (tmp_path / "res.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,residual"
    assert len(lines) == 201
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.std(vals) < 1e-9


def test_solve_csv_artifact(interval_file, tmp_path):
    art = tmp_path / "round.csv"
    assert main(["solve", interval_file, "--out", str(art)]) == 0
    lines = art.read_text().strip().splitlines()
    assert lines[0] == "x0,s,residual"
    first = lines[1].split(",")
    assert float(first[0]) == -2.0
    assert np.isfinite(float(first[2]))


def test_solve_artifacts_are_deterministic(half_line_file, tmp_path):
    a1, a2 = tmp_path / "g1.json", tmp_path / "g2.json"
    assert main(["solve", half_line_file, "--out", str(a1)]) == 0
    assert main(["solve", half_line_file, "--out", str(a2)]) == 0
    assert a1.read_bytes() == a2.read_bytes()


def test_residual_samples_are_seeded(interval_file, tmp_path):
    a1, a2, a3 = (tmp_path / f"r{i}.csv" for i in range(3))
    assert main(["residual", interval_file, "--seed", "7", "--out", str(a1)]) == 0
    assert main(["residual", interval_file, "--seed", "7", "--out", str(a2)]) == 0
    assert main(["residual", interval_file, "--seed", "8", "--out", str(a3)]) == 0
    assert a1.read_bytes() == a2.read_bytes()
    assert a1.read_bytes() != a3.read_bytes()


def test_ding_scan_csv(interval_file, tmp_path, capsys):
    art = tmp_path / "round.json"
    assert main(["solve", interval_file, "--out", str(art)]) == 0
    scan = tmp_path / "scan.csv"
    assert main(["ding-scan", interval_file, "--potential", str(art),
                 "--num-t", "5", "--out", str(scan)]) == 0
    lines = scan.read_text().strip().splitlines()
    assert lines[0] == "t,D1,D"
    assert len(lines) == 6
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts == [0.0, 0.25, 0.5, 0.75, 1.0]
    d_vals = [float(line.split(",")[2]) for line in lines[1:]]
    diffs = np.diff(d_vals, 2)
    assert diffs.min() > -1e-8


def test_ding_scan_requires_potential(interval_file, capsys):
    assert main(["ding-scan", interval_file]) == 4
    assert capsys.readouterr().err.startswith("error: parse:")


def test_check_potential(interval_file, tmp_path, capsys):
    art = tmp_path / "round.json"
    assert main(["solve", interval_file, "--out", str(art)]) == 0
    capsys.readouterr()
    assert main(["check-potential", interval_file,
                 "--potential", str(art)]) == 0
    out = capsys.readouterr().out
    assert "hessian positive: True" in out


def test_bad_weight_vector_is_parse_error(interval_file, capsys):
    assert main(["residual", interval_file, "--b", "1,2"]) == 4
    assert capsys.readouterr().err.startswith("error: parse:")
    assert main(["residual", interval_file, "--b", "oops"]) == 4


@pytest.mark.parametrize("polyhedron, argv, code", [
    ("interval", ["solve", "--b", "nan"], 4),
    ("interval", ["residual", "--b", "inf"], 4),
    ("interval", ["check-potential", "--b=-inf"], 4),
    ("half_line", ["solve", "--grid", "1"], 4),
    ("half_line", ["solve", "--truncation", "nan"], 4),
    ("interval", ["residual", "--samples", "0"], 4),
    # a finite level below the facet leaves no domain to solve on
    ("half_line", ["solve", "--truncation", "-5"], 2),
    ("half_line", ["solve", "--grid", "abc"], 4),
    ("interval", ["validate", "--bogus"], 4),
    ("half_line", ["solve", "--tol", "nan"], 4),
    ("interval", ["soliton-vector", "--tol", "-1"], 4),
    # the discrete subcommands take no tolerance
    ("interval", ["validate", "--tol", "1e-3"], 4),
    ("interval", ["ding-scan", "--potential", "ZERO", "--num-t", "1"], 4),
])
def test_bad_numeric_flags_exit_with_one_error_line(interval_file, half_line_file,
                                                    zero_potential_file, capsys,
                                                    polyhedron, argv, code):
    path = interval_file if polyhedron == "interval" else half_line_file
    argv = [zero_potential_file if a == "ZERO" else a for a in argv]
    assert main([argv[0], path] + argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: parse:" if code == 4 else "error: validation:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command", ["residual", "ding-scan"])
def test_nonconvex_potential_is_validation_error(interval_file, tmp_path, capsys,
                                                 command):
    # u = u_P - x^2/2 on [-2, 2] has u'' = 1/4 + 1/4 - 1 < 0 at the origin
    corr = GridCorrection.from_function(lambda x: -0.5 * x[0] ** 2, [(-2.0, 2.0)], [8])
    path = tmp_path / "bent.json"
    path.write_text(json.dumps({"correction": corr.to_dict()}))
    assert main([command, interval_file, "--potential", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert err.count("\n") == 1
    assert "np." not in err


def test_library_runtime_error_is_convergence_error(tmp_path, capsys):
    # b nearly orthogonal to the ray (0, 1) of the quadrant: the tail of
    # e^{-<b,x>} never drops below tolerance as the truncation grows
    path = tmp_path / "quadrant.json"
    save_polyhedron(box([(-2, None), (-2, None)]), path)
    assert main(["check-potential", str(path), "--b", "1,1e-30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: convergence:")
    assert err.count("\n") == 1


def test_verdicts_are_json_booleans(interval_file, tmp_path):
    assert main(["validate", interval_file, "--out", str(tmp_path / "v.json")]) == 0
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["proper"] is True
    assert report["simple"] is True
    assert main(["check-potential", interval_file,
                 "--out", str(tmp_path / "c.json")]) == 0
    space = json.loads((tmp_path / "c.json").read_text())
    assert space["boundary"]["density_ok"] is True
    assert space["space"]["hessian_positive"] is True


def test_solve_csv_lists_the_grid_values_in_c_order(tmp_path):
    path = tmp_path / "rectangle.json"
    save_polyhedron(box([(-2, "2/3"), (-1, 2)], labels=[1, 3, 2, 1]), path)
    for suffix in ("json", "csv"):
        assert main(["solve", str(path), "--grid", "6",
                     "--out", str(tmp_path / f"sol.{suffix}")]) == 0
    corr = json.loads((tmp_path / "sol.json").read_text())["correction"]
    rows = np.loadtxt(tmp_path / "sol.csv", delimiter=",", skiprows=1)
    x, y = np.meshgrid(*corr["axes"], indexing="ij")
    assert np.array_equal(rows[:, 0], x.ravel())
    assert np.array_equal(rows[:, 1], y.ravel())
    assert np.array_equal(rows[:, 2], np.ravel(corr["values"]))


def test_console_entry_point(teardrop_file):
    proc = subprocess.run(
        [sys.executable, "-m", "toricshrink", "validate", teardrop_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "proper: True" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["soliton-vector"],
    ["residual"],
    ["check-potential"],
    ["check-potential", "--b", "0,0,0"],
])
def test_3d_numerics_are_validation_errors(cube_file, capsys, argv):
    # the quadrature exists in dimensions 1 and 2 only
    assert main([argv[0], cube_file] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    code = ("import sys, toricshrink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_potential_of_wrong_dimension_is_parse_error(cube_file, interval_file,
                                                     tmp_path, capsys):
    art = tmp_path / "round.json"
    assert main(["solve", interval_file, "--out", str(art)]) == 0
    capsys.readouterr()
    assert main(["ding-scan", cube_file, "--potential", str(art)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: parse:")
    assert err.count("\n") == 1


SUBCOMMANDS = ["validate", "vertices", "structure-group", "delzant", "fan",
               "soliton-vector", "residual", "solve", "ding-scan", "check-potential"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: toricshrink {command}")


@pytest.mark.parametrize("command, tol", [("ding-scan", "1e-08"), ("solve", "1e-10")])
def test_help_shows_the_tol_default_in_use(command, tol, capsys):
    with pytest.raises(SystemExit):
        main([command, "-h"])
    assert f"numerical tolerance (default {tol})" in " ".join(capsys.readouterr().out.split())
