"""End-to-end checks of the command line interface."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_ding import square_canonical_ding

from toricshrink.cli import main
from toricshrink.ding import ding
from toricshrink.polyhedra import (
    box, from_halfspaces, half_line, interval, save_polyhedron,
)
from toricshrink.potentials import CorrectedPotential, GridCorrection


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
    corr = GridCorrection.from_function(lambda x: 0.0, [(-2.0, 2.0)], [8])
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


@pytest.mark.parametrize("facet", [
    '{"normal": [1], "label": 2.7, "offset": 2}',
    '{"normal": [1.5], "label": 1, "offset": 2}',
    '{"normal": [1], "label": true, "offset": 2}',
    '{"normal": [1], "label": 1, "offset": 1e400}',  # json reads inf
    '{"normal": [1], "label": 1, "offset": "1/0"}',
])
def test_non_integer_entries_and_non_finite_offsets_are_parse_errors(tmp_path, capsys,
                                                                     facet):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 1, "facets": [%s, {"normal": [-1], "label": 1, "offset": 2}]}'
                    % facet)
    assert main(["validate", str(path), "--allow-general-offsets"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: parse: bad polyhedron file:") and err.count("\n") == 1


@pytest.mark.parametrize("dim", ["1.9", "true", "1e400"])
def test_a_non_integer_dim_is_a_parse_error(tmp_path, capsys, dim):
    # int() would read 1.9 and true as 1, a valid interval
    path = tmp_path / "bad.json"
    path.write_text('{"dim": %s, "facets": [{"normal": [1], "label": 1, "offset": 2}, '
                    '{"normal": [-1], "label": 1, "offset": 2}]}' % dim)
    assert main(["validate", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: parse: bad polyhedron file:") and err.count("\n") == 1


# the box [-1, 2]^3, lower facets of label 2 and upper facets of label 1
_BOX3 = [{"normal": [s * int(i == d) for i in range(3)], "label": m, "offset": 2}
         for d in range(3) for s, m in ((1, 2), (-1, 1))]


@pytest.mark.parametrize("extra, message", [
    ({"normal": [1, 1, 0], "label": 1, "offset": 2},  # meets the box in an edge
     "facet 6 (normal (1, 1, 0)) does not meet the polyhedron in a facet; "
     "labels on it would be meaningless"),
    ({"normal": [-1, 0, 0], "label": 2, "offset": -2},  # with x >= -1, only the face x = -1 is left
     "inequality system has empty interior"),
])
def test_construction_verdicts_in_3d(tmp_path, capsys, extra, message):
    path = tmp_path / "box3.json"
    path.write_text(json.dumps({"dim": 3, "facets": _BOX3 + [extra]}))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: validation: {message}\n"


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
    assert data["achieved"] < 1e-10
    assert f"achieved: {data['achieved']!r}" in capsys.readouterr().out


def test_soliton_vector_with_the_origin_outside_is_validation_error(tmp_path, capsys):
    # x >= 1: F has no minimiser, so no b is printed and the exit code is 2
    path = tmp_path / "ray.json"
    save_polyhedron(half_line(1), path)
    assert main(["soliton-vector", str(path), "--allow-general-offsets"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: validation: the origin is not interior")


@pytest.mark.parametrize("k", [300, 400])
def test_soliton_vector_far_out_is_a_convergence_error(k, tmp_path, capsys):
    # [-10^-k, 1]: a singular Hessian (k = 300) and an overflow (k = 400) both exit 3
    path = tmp_path / "interval.json"
    save_polyhedron(interval(f"-1/{10**k}", 1), path)
    assert main(["soliton-vector", str(path), "--allow-general-offsets"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: convergence: ")


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


@pytest.mark.parametrize("spec, grid, tol, converged, warning", [
    ((2, [((1, 0), 1, 2), ((-1, 0), 3, 2), ((0, 1), 2, 2), ((0, -1), 1, 2)]), 8, 1e-11, False,
     "warning: the interpolant misses --tol 1e-11 between the grid's nodes by up to 4.05e-09; "
     "a finer --grid may meet it\n"),
    ((1, [((1,), 1, 2), ((-1,), 3, 2)]), 64, 1e-15, True, ""),
    # the s'' series never chops by n = 256, though its tail bound meets tol:
    # no finer --grid would help
    ((1, [((1,), 1, 2), ((-1,), 30, 2)]), 48, 1e-11, False,
     "warning: a factor's s'' series did not resolve in 256 samples\n"),
    # on a coarse grid both reasons hold: the warning names both and, as
    # the series stays unresolved on every grid, advises no finer --grid
    ((1, [((1,), 1, 2), ((-1,), 30, 2)]), 14, 1e-11, False,
     "warning: the interpolant misses --tol 1e-11 between the grid's nodes by up to 1.48e-06, "
     "and a factor's s'' series did not resolve in 256 samples\n"),
], ids=["rectangle_8", "teardrop_64", "labels_1_30", "labels_1_30_grid_14"])
def test_solve_warns_when_it_misses_tol(tmp_path, capfd, spec, grid, tol, converged, warning):
    # a missed tol between the grid's nodes, or an unresolved series, is one
    # warning line on stderr and a false converged in the artifact; the exit
    # code stays 0
    path = tmp_path / "P.json"
    save_polyhedron(from_halfspaces(*spec), path)
    art = tmp_path / "solve.json"
    assert main(["solve", str(path), "--grid", str(grid), "--tol", str(tol),
                 "--out", str(art)]) == 0
    out, err = capfd.readouterr()
    assert f"converged: {converged}" in out
    assert json.loads(art.read_text())["converged"] is converged
    assert err == warning


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


def test_library_runtime_error_is_convergence_error(half_line_file, capfd):
    # on the half-line (label 1) b = 1e-300 is far from the soliton
    # component 1/2: the defect 1 - 2b of the unbounded axis is about 1, so
    # the solve raises NoConvergence. capfd also sees what a library writes
    # to the process's own streams.
    assert main(["solve", half_line_file, "--b", "1e-300"]) == 3
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error: convergence:")
    assert err.count("\n") == 1


def test_ding_scan_at_a_weight_past_the_float_range(tmp_path, capfd):
    # at b = (-400, 0) on the square F is about e^800; D is invariant under
    # rescaling the weight, so the scan takes it as e^{-<b,x>-800}
    square = tmp_path / "square.json"
    save_polyhedron(box([(-2, 2), (-2, 2)]), square)
    solved = tmp_path / "square.solve.json"
    scan = tmp_path / "scan.json"
    assert main(["solve", str(square), "--grid", "8", "--out", str(solved)]) == 0
    capfd.readouterr()
    assert main(["ding-scan", str(square), "--potential", str(solved), "--b=-400,0",
                 "--out", str(scan)]) == 0
    assert capfd.readouterr().err == ""
    first = json.loads(scan.read_text())["scan"][0]
    assert first["D"] == pytest.approx(square_canonical_ding(-400.0), rel=1e-10)


def test_quadrant_solve_pipes_into_ding_scan(tmp_path, capfd):
    # the grid ends at <beta, x> = 32, and what the cut drops, integrated
    # exactly, meets the default tol. u_P solves the soliton equation on the
    # quadrant, so the solved correction is zero to rounding and d1 = e^2
    quadrant = tmp_path / "quadrant.json"
    save_polyhedron(box([(-2, None), (-2, None)]), quadrant)
    solved = tmp_path / "quadrant.solve.json"
    scan = tmp_path / "scan.json"
    assert main(["solve", str(quadrant), "--grid", "16", "--truncation", "32",
                 "--out", str(solved)]) == 0
    capfd.readouterr()
    assert main(["ding-scan", str(quadrant), "--potential", str(solved),
                 "--out", str(scan)]) == 0
    assert capfd.readouterr().err == ""
    first = json.loads(scan.read_text())["scan"][0]
    assert first["D1"] == pytest.approx(np.exp(2.0), rel=1e-12)


@pytest.mark.parametrize("P", [
    half_line(-2),
    box([(-2, 1), ("-2/3", None)], labels=[1, 2, 3]),
    box([(-2, None), (-2, None)]),
], ids=["half_line", "half_strip", "quadrant"])
def test_default_solve_pipes_into_ding_scan(P, tmp_path, capfd):
    # solve's default truncation takes the grid past what the scan's
    # default tol lets its cut drop
    path, solved = tmp_path / "P.json", tmp_path / "P.solve.json"
    save_polyhedron(P, path)
    assert main(["solve", str(path), "--out", str(solved)]) == 0
    assert main(["ding-scan", str(path), "--potential", str(solved)]) == 0
    assert capfd.readouterr().err == ""


def test_steep_weight_on_a_bounded_polyhedron_is_integrable(tmp_path, capfd):
    # every weight is integrable on a bounded polyhedron: e^{400 x} on the
    # square overflows a float, but not the verdict
    square = tmp_path / "square.json"
    save_polyhedron(box([(-2, 2), (-2, 2)]), square)
    assert main(["check-potential", str(square), "--b=-400,0"]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert "integrable: True" in out


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


def test_record_artifacts_pin_their_records_fields(teardrop_file, tmp_path):
    # these six artifacts are result records written field by field, so
    # renaming a record field changes an artifact key; the literal sets catch it
    def run(command, *flags):
        out = tmp_path / f"{command}.json"
        assert main([command, teardrop_file, *flags, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    report = run("validate")
    assert set(report) == {"proper", "rational", "simple", "improper_line",
                           "nonsimple_vertex", "facets"}
    assert [set(f) for f in report["facets"]] == [{"normal", "label", "offset"}] * 2
    assert [f["offset"] for f in report["facets"]] == ["2", "2"]
    assert report["proper"] is report["rational"] is report["simple"] is True
    assert report["improper_line"] is None and report["nonsimple_vertex"] is None

    rows = run("vertices")["vertices"]
    assert [set(r) for r in rows] == [
        {"point", "point_float", "active_facets", "edge_generators"}] * 2

    delzant = run("delzant")
    assert set(delzant) == {"projection", "kernel_basis", "offsets"}
    assert delzant["offsets"] == ["2", "2"]

    assert set(run("soliton-vector")) == {"b", "F_value", "gradient_norm",
                                          "achieved", "iterations"}

    solved = run("solve")
    assert set(solved) == {"b", "correction", "constant", "residual_deviation",
                           "offnode_deviation", "converged", "iterations", "grid",
                           "domain", "truncated_axes", "truncation"}
    assert solved["converged"] is True

    check = run("check-potential", "--potential", str(tmp_path / "solve.json"))
    assert set(check) == {"boundary", "space", "b"}
    assert set(check["boundary"]) == {"checks", "correction_ok", "density_ok"}
    assert [set(c) for c in check["boundary"]["checks"]] == [
        {"facet", "correction_bounded", "gradient_bounded", "density_bounded",
         "density_value"}] * 2
    assert set(check["space"]) == {"hessian_positive", "boundary_behaviour",
                                   "gradient_surjective", "integrable", "note"}
    verdicts = [check["boundary"]["correction_ok"], check["boundary"]["density_ok"],
                *(c[k] for c in check["boundary"]["checks"]
                  for k in ("correction_bounded", "gradient_bounded", "density_bounded")),
                *(v for k, v in check["space"].items() if k != "note")]
    assert all(v is True for v in verdicts), check


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
    ["solve"],
    ["check-potential"],
    ["check-potential", "--b", "0,0,0"],
])
def test_3d_numerics_are_validation_errors(cube_file, capsys, argv):
    # the quadrature exists in dimensions 1 and 2 only
    assert main([argv[0], cube_file] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert err.count("\n") == 1


def test_cli_import_loads_no_numpy():
    code = ("import sys, toricshrink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    code = ("import sys, toricshrink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_imports_leave_the_canonical_rules_unbuilt():
    # the Gauss rules of the canonical term are built at the first Ding call
    code = ("import toricshrink.cli, toricshrink.ding, toricshrink.quadrature as q; "
            "print(q._line_rules.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_ding_scan_between_two_payloads(teardrop_file, tmp_path, capsys):
    # a solution and the same solution plus an affine tilt: D is flat along
    # the segment, and its t = 0 row is the library's ding of the first payload
    first, second, out = (str(tmp_path / f) for f in ("s.json", "tilted.json", "scan.json"))
    assert main(["solve", teardrop_file, "--grid", "16", "--out", first]) == 0
    s = GridCorrection.from_dict(json.loads(Path(first).read_text())["correction"])
    tilted = GridCorrection(s.axes, s.values + 0.3 - 0.2 * s.axes[0])
    Path(second).write_text(json.dumps({"correction": tilted.to_dict()}))
    assert main(["ding-scan", teardrop_file, "--potential", first,
                 "--potential2", second, "--out", out]) == 0
    capsys.readouterr()
    art = json.loads(Path(out).read_text())
    D = [row["D"] for row in art["scan"]]
    assert max(D) - min(D) <= 1e-12
    P = interval(-2, "2/3", 1, 3)
    v = ding(CorrectedPotential(P, s), P, b_X=art["b"])
    assert (art["scan"][0]["D1"], art["scan"][0]["D"]) == (v.d1, v.value)


def test_ding_scan_between_payloads_of_two_grid_bases(teardrop_file, tmp_path, capsys):
    # the endpoints must share a grid basis; the one error line names both
    first, second = (str(tmp_path / f) for f in ("g16.json", "g12.json"))
    assert main(["solve", teardrop_file, "--grid", "16", "--out", first]) == 0
    assert main(["solve", teardrop_file, "--grid", "12", "--out", second]) == 0
    capsys.readouterr()
    assert main(["ding-scan", teardrop_file, "--potential", first,
                 "--potential2", second]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: validation: correction's grid basis")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert "(12,))" in captured.err and "(16,))" in captured.err


@pytest.mark.parametrize("command", ["residual", "check-potential", "ding-scan"])
@pytest.mark.parametrize("field, index, entry", [
    ("values", 1, math.nan), ("values", 1, math.inf), ("axes", 1, math.nan), ("axes", 4, math.inf),
])
def test_a_non_finite_correction_payload_is_a_parse_error(interval_file, tmp_path, capsys,
                                                          command, field, index, entry):
    # json writes and reads NaN and Infinity; a NaN node passes a test for diff <= 0
    payload = {"kind": "chebyshev-tensor", "axes": [[-2, -1, 0, 1, 2]], "values": [0] * 5}
    (payload["values"] if field == "values" else payload["axes"][0])[index] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main([command, interval_file, "--potential", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: parse: bad potential payload:")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("command", ["residual", "check-potential", "ding-scan"])
@pytest.mark.parametrize("payload", ["[1, 2]", '"abc"', '{"correction": 5}'])
def test_a_potential_payload_that_is_no_object_is_a_parse_error(interval_file, tmp_path, capsys,
                                                                command, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    assert main([command, interval_file, "--potential", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: parse: bad potential payload:")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["residual", "--potential", "{other}"],
    ["ding-scan", "--potential", "{other}"],
    ["ding-scan", "--potential", "{zero}", "--potential2", "{other}"],
    ["check-potential", "--potential", "{other}"],
], ids=["residual", "ding-scan", "ding-scan-potential2", "check-potential"])
def test_a_payload_solved_on_another_polyhedron_is_a_parse_error(
        teardrop_file, interval_file, zero_potential_file, tmp_path, capsys, argv):
    # the teardrop's grid [-2, 2/3] misses the vertex 2 of [-2, 2]; read there,
    # its polynomial would pass for a nonconvex potential. On the teardrop the
    # grid ends at the vertex 2/3 exactly
    other = str(tmp_path / "teardrop.solve.json")
    assert main(["solve", teardrop_file, "--out", other]) == 0
    argv = [a.format(other=other, zero=zero_potential_file) for a in argv]
    assert main([argv[0], teardrop_file, "--potential", other]) == 0
    capsys.readouterr()
    assert main([argv[0], interval_file] + argv[1:]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: parse: bad potential payload: grid axis 0 spans "
                            "[-2.0, 0.6666666666666666], which misses vertex (2.0,) "
                            "of the polyhedron\n")


# the square pyramid z >= -2, z <= 2 +- x, z <= 2 +- y: four facets meet at its apex
SQUARE_PYRAMID = from_halfspaces(3, [((0, 0, 1), 1, 2), ((1, 0, -1), 1, 2), ((-1, 0, -1), 1, 2),
                                     ((0, 1, -1), 1, 2), ((0, -1, -1), 1, 2)])


@pytest.mark.parametrize("P, argv, code, line", [
    (from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 1, 2)]), ["validate"], 2,
     "contains line: (0, 1)"),
    (SQUARE_PYRAMID, ["validate"], 2,
     "non-simple vertex witness: ((0.0, 0.0, 2.0), (1, 2, 3, 4))"),
    (interval(-2, 2), ["residual", "--potential", "{tmp}/orders.json"], 4,
     "error: parse: bad potential payload: stored orders disagree with axis lengths"),
    (interval(-2, 2), ["residual", "--potential", "{tmp}/missing.json"], 4,
     "error: io: cannot read potential: "),
    (interval(-2, 2), ["validate", "--out", "{tmp}/v.csv"], 4,
     "error: io: this subcommand has no CSV artifact; use a .json path"),
    (interval(-2, 2), ["validate", "--out", "{tmp}"], 4, "error: io: cannot write artifact: "),
], ids=["strip", "square-pyramid", "payload-orders", "missing-potential", "validate-csv",
        "out-directory"])
def test_error_paths_print_their_one_line(tmp_path, capsys, P, argv, code, line):
    # a verdict's witness goes to stdout, an error to stderr as its one line
    path = tmp_path / "P.json"
    save_polyhedron(P, path)
    payload = GridCorrection.from_function(lambda x: 0.0, [(-2.0, 2.0)], [8]).to_dict()
    (tmp_path / "orders.json").write_text(json.dumps(dict(payload, orders=[5])))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main([argv[0], str(path)] + argv[1:]) == code
    captured = capsys.readouterr()
    if line.startswith("error: "):
        assert captured.err.startswith(line) and captured.err.count("\n") == 1
    else:
        assert line in captured.out.splitlines() and captured.err == ""


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


# main over a list of calls in a fresh process, each call's stdout to its own
# file; the last line lists the toricshrink modules loaded at the end
_FRESH = """
import contextlib, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from toricshrink.cli import main
for argv, log in json.loads(sys.argv[2]):
    with open(log, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = main(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
print(sorted(m for m in sys.modules if m.startswith("toricshrink.")))
"""


def _fresh(calls, block_numpy=False):
    """Run [(argv, stdout log)] through main in a new process; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, "block" if block_numpy else "-", json.dumps(calls)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


DISCRETE = ["validate", "vertices", "structure-group", "delzant", "fan"]


def test_discrete_subcommands_run_without_numpy(tmp_path, capsys):
    inputs = {
        "rectangle": box([(-2, "2/3"), (-1, 2)], labels=[1, 3, 2, 1]),
        "simplex3": from_halfspaces(3, [((1, 0, 0), 1, 2), ((0, 1, 0), 2, 2),
                                        ((0, 0, 1), 3, 2), ((-1, -1, -1), 1, 2)]),
    }
    calls = []
    for name, P in inputs.items():
        path = tmp_path / f"{name}.json"
        save_polyhedron(P, path)
        calls += [(tmp_path / f"{name}.{command}", [command, str(path)])
                  for command in DISCRETE]
    # numpy is blocked: importing it anywhere on these paths raises
    _fresh([(argv + ["--out", f"{stem}.blocked.json"], f"{stem}.blocked.txt")
            for stem, argv in calls], block_numpy=True)
    for stem, argv in calls:
        assert main(argv + ["--out", f"{stem}.json"]) == 0
        assert capsys.readouterr().out == Path(f"{stem}.blocked.txt").read_text()
        assert Path(f"{stem}.json").read_bytes() == Path(f"{stem}.blocked.json").read_bytes()


def test_numeric_subcommands_other_than_ding_scan_load_no_ding(interval_file, tmp_path):
    sol = str(tmp_path / "sol.json")
    calls = [
        (["soliton-vector", interval_file], str(tmp_path / "b.txt")),
        (["solve", interval_file, "--grid", "8", "--out", sol], str(tmp_path / "s.txt")),
        (["residual", interval_file, "--potential", sol, "--samples", "5"],
         str(tmp_path / "r.txt")),
        (["check-potential", interval_file, "--potential", sol], str(tmp_path / "c.txt")),
    ]
    loaded = _fresh(calls).splitlines()[-1]
    assert "toricshrink.shrinker" in loaded
    assert "toricshrink.ding" not in loaded


@pytest.mark.parametrize("flags, error", [
    (["--b", "2"], "truncation tail estimate"),  # DivergentD1: d1's tail past the cut
    (["--b", "1e-300"], "correction grid too small"),  # NotInE: the cut drops all of F
    ([], "correction grid too small"),  # NotInE at the default b: it drops 2.26e-06 of F
])
def test_ding_errors_exit_3_through_the_lazy_import(half_line_file, tmp_path, capsys,
                                                     flags, error):
    # a half-line solve cut at <b,x> = 12 is too short for the scan's
    # default tol; ding is imported only inside ding-scan, in the child process
    sol = str(tmp_path / "sol.json")
    assert main(["solve", half_line_file, "--truncation", "12", "--out", sol]) == 0
    capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "toricshrink", "ding-scan", half_line_file,
         "--potential", sol, *flags],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: convergence: {error}")
    assert proc.stderr.count("\n") == 1
