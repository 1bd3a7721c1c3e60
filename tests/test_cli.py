import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import eqlab
from eqlab.cli import run
from eqlab.schemas import (
    REPORT_SCHEMA,
    SURFACE_SCHEMA,
    validate,
)

PANTS_TRI = {
    "triangles": [0, 1],
    "edges": [
        {"id": 0, "sides": [[0, 0], [1, 2]], "shear": 0.5},
        {"id": 1, "sides": [[0, 1], [1, 1]], "shear": 0.8},
        {"id": 2, "sides": [[0, 2], [1, 0]], "shear": -0.3},
    ],
}

SURFACE = {
    "pants": [{"id": 0}, {"id": 1}],
    "gluings": [
        {"cuffs": [[0, 0], [1, 0]], "length": 2.0, "twist": 0.1, "spiral_signs": [1, 1]},
        {"cuffs": [[0, 1], [1, 1]], "length": 2.5, "twist": -0.2, "spiral_signs": [1, 1]},
        {"cuffs": [[0, 2], [1, 2]], "length": 3.0, "twist": 0.3, "spiral_signs": [1, 1]},
    ],
    "weights": {"0": 1.0},
}

CHAIN = {"steps": [[1, 0.5], [2, -0.4], [1, 0.8]], "weights": [1.0, 2.0, 0.5]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestPants:
    def test_shears_to_lengths(self, tmp_path, capsys):
        assert run(["pants", "--shears", "1,1,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lengths"] == [2, 2, 2]

    def test_lengths_to_shears(self, tmp_path, capsys):
        assert run(["pants", "--lengths", "2,2,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shears"] == [1, 1, 1]
        for tr in doc["traces"]:
            assert abs(tr - 2.0 * math.cosh(1.0)) < 1e-9

    def test_random_suite_passes(self, capsys):
        assert run(["pants", "--random", "25", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_no_mode_is_input_error(self, capsys):
        assert run(["pants"]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["--lengths", "2,2"], "--lengths"),
        (["--lengths", "2,2,2", "--signs", "1,1"], "--signs"),
        (["--lengths", "2,2,2", "--signs", "1,0,1"], "--signs"),
        (["--shears", "1,2"], "--shears"),
    ])
    def test_arity_and_signs_rejected_at_parse(self, argv, flag, capsys):
        assert run(["pants", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err

    @pytest.mark.parametrize("lengths", ["0,2,2", "-2,2,2"])
    def test_nonpositive_lengths_rejected_at_parse(self, lengths, capsys):
        assert run(["pants", f"--lengths={lengths}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --lengths:" in captured.err


class TestNonFiniteJson:
    # json.load reads NaN and +-Infinity unless told not to; they are
    # rejected when the file is loaded, before any numerics run
    @pytest.mark.parametrize("argv, doc, key, token", [
        (["earthquake", "--t", "0.1"], SURFACE, '"twist": 0.1', "Infinity"),
        (["verify", "conjugacy", "--ts", "0,0.1"], SURFACE, '"length": 2.0', "NaN"),
        (["develop"], PANTS_TRI, '"shear": -0.3', "-Infinity"),
    ], ids=["twist", "length", "shear"])
    def test_rejected_at_load(self, argv, doc, key, token, tmp_path, capsys):
        name, _ = key.split(": ")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc).replace(key, f"{name}: {token}", 1))
        assert run([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and f"non-finite number {token}" in captured.err


def attached(argv, flag):
    """argv with the value of `flag` attached as --flag=value."""
    k = argv.index(flag)
    return argv[:k] + [f"{flag}={argv[k + 1]}"] + argv[k + 2:]


class TestNegativeListValues:
    # a list that starts with a minus parses as if written --flag=value
    LAM = {"leaves": [{"endpoints": [0, "inf"], "weight": 1.0}]}

    @pytest.mark.parametrize("argv, flag", [
        (["pants", "--lengths", "2,2,2", "--signs", "-1,1,1"], "--signs"),
        (["pants", "--shears", "-1,2,3"], "--shears"),
        (["pants", "--lengths", "-0.5,2,2"], "--lengths"),
        (["verify", "fundamental-lemma", "--config", "{chain}", "--ts", "-0.1,0.2"], "--ts"),
        (["earthquake", "--config", "{lam}", "--t", "0.5", "--base", "-1,1",
          "--targets", "-2,1;1,1"], "--base"),
        (["earthquake", "--config", "{lam}", "--t", "0.5", "--base", "-1,1",
          "--targets", "-2,1;1,1"], "--targets"),
    ])
    def test_same_as_attached_form(self, argv, flag, tmp_path, capsys):
        files = {"{chain}": write(tmp_path, "chain.json", CHAIN),
                 "{lam}": write(tmp_path, "lam.json", self.LAM)}
        argv = [files.get(arg, arg) for arg in argv]
        want_rc = run(attached(argv, flag))
        want = capsys.readouterr()
        assert run(argv) == want_rc
        got = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)
        assert want_rc == 0 or "expected one argument" not in got.err

    def test_negative_scientific_time(self, tmp_path, capsys):
        cfg = write(tmp_path, "lam.json", self.LAM)
        assert run(["earthquake", "--config", cfg, "--t", "-1e-3", "--base=-1,1",
                    "--targets=1,1"]) == 0
        x, y = json.loads(capsys.readouterr().out)["images"][0]
        assert abs(x - math.exp(-1e-3)) < 1e-12


class TestDevelop:
    def test_placements(self, tmp_path, capsys):
        cfg = write(tmp_path, "tri.json", PANTS_TRI)
        assert run(["develop", "--config", cfg, "--words", ";0;0,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        root = doc["placements"][0]
        assert root["triangle"] == 0
        assert root["vertices"] == [-1, 0, "inf"]

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.json", {"triangles": [0], "edges": "nope"})
        assert run(["develop", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "input error at /edges: 'nope' is not of type 'array'\n"

    def test_missing_file_exit_2(self, capsys):
        assert run(["develop", "--config", "/nonexistent.json"]) == 2


class TestTransport:
    def test_spike_spec(self, tmp_path, capsys):
        cfg = write(tmp_path, "spike.json", {
            "spike": {"edges": [[0, "inf"], [1, "inf"]], "vertex": "inf"},
            "depths": [1, 2, 3, 4],
        })
        assert run(["transport", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        # product of upper-triangular steps: top-right sums e^{-k}
        expected = sum(math.exp(-k) for k in (1, 2, 3, 4))
        assert abs(doc["value"][0][1] - expected) < 1e-12

    def test_factor_list(self, tmp_path, capsys):
        cfg = write(tmp_path, "factors.json", {
            "factors": [{"matrix": [[1.0, 0.25], [0.0, 1.0]], "order_key": 0.0}],
        })
        assert run(["transport", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["retained"] == 1


class TestEarthquakeCommand:
    def test_lamination_mode(self, tmp_path, capsys):
        cfg = write(tmp_path, "lam.json",
                    {"leaves": [{"endpoints": [0, "inf"], "weight": 1.0}]})
        rc = run(["earthquake", "--config", cfg, "--t", "0.5",
                  "--base=-1,1", "--targets", "1,1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        x, y = doc["images"][0]
        assert abs(x - math.exp(0.5)) < 1e-12 and abs(y - math.exp(0.5)) < 1e-12

    @pytest.mark.parametrize("arg, flag", [
        ("--base=0", "--base"),
        ("--base=0,0.5,1", "--base"),
        ("--targets=0", "--targets"),
        ("--targets=0,10,3", "--targets"),
        ("--targets=1,1;2", "--targets"),
    ])
    def test_point_arity_rejected_at_parse(self, arg, flag, tmp_path, capsys):
        cfg = write(tmp_path, "lam.json",
                    {"leaves": [{"endpoints": [0, "inf"], "weight": 1.0}]})
        rc = run(["earthquake", "--config", cfg, "--t", "0.5", "--base=-1,1",
                  "--targets=1,1", arg])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err

    def test_surface_mode(self, tmp_path, capsys):
        cfg = write(tmp_path, "surf.json", SURFACE)
        assert run(["earthquake", "--config", cfg, "--t", "0.25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate(doc, SURFACE_SCHEMA)
        assert doc["gluings"][0]["twist"] == pytest.approx(0.35)
        assert doc["gluings"][1]["twist"] == pytest.approx(-0.2)


class TestVerifyCommands:
    def test_fundamental_lemma_passes(self, tmp_path, capsys):
        cfg = write(tmp_path, "chain.json", CHAIN)
        rc = run(["verify", "fundamental-lemma", "--config", cfg, "--ts", "0.1,0.2,0.3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        validate(doc, REPORT_SCHEMA)
        assert doc["max_residual"] < 1e-9

    def test_conjugacy_passes(self, tmp_path, capsys):
        cfg = write(tmp_path, "surf.json", SURFACE)
        rc = run(["verify", "conjugacy", "--config", cfg, "--ts", "0,0.1,0.2,0.3,0.4,0.5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        validate(doc, REPORT_SCHEMA)

    def test_non_integer_weight_key_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "surf.json", {**SURFACE, "weights": {"x": 1}})
        assert run(["verify", "conjugacy", "--config", cfg, "--ts", "0.1"]) == 2
        assert capsys.readouterr().err == (
            "input error at /weights/x: 'x' is not an integer cuff id\n")

    def test_failed_verification_exit_1_report_written(self, tmp_path, capsys, monkeypatch):
        # the chain's residual is a few ulps; the conjugacy residual is a
        # readback of the twist and may be exactly 0
        monkeypatch.setenv("EQLAB_TOL", "1e-30")
        cfg = write(tmp_path, "chain.json", CHAIN)
        out = tmp_path / "report.json"
        rc = run(["verify", "fundamental-lemma", "--config", cfg, "--ts", "0,0.3",
                  "--out", str(out)])
        assert rc == 1
        doc = json.loads(out.read_text())
        validate(doc, REPORT_SCHEMA)
        assert doc["passed"] is False

    @pytest.mark.parametrize("ts", ["0,30", "0,45"])
    def test_conjugacy_large_times(self, ts, tmp_path, capsys):
        # the twist is an additive log-coordinate: no false failure at t = 30
        # and no matrix determinant underflow at t = 45
        surface = {**SURFACE, "gluings": [{**g, "twist": 0.0} for g in SURFACE["gluings"]]}
        cfg = write(tmp_path, "surf.json", surface)
        assert run(["verify", "conjugacy", "--config", cfg, "--ts", ts]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate(doc, REPORT_SCHEMA)
        assert doc["passed"] is True

    @pytest.mark.parametrize("kind, doc", [("fundamental-lemma", CHAIN), ("conjugacy", SURFACE)])
    def test_empty_time_list_exit_2(self, kind, doc, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", doc)
        assert run(["verify", kind, "--config", cfg, "--ts=,"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "time list" in out.err

    def test_tol_flag_overrides_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EQLAB_TOL", "1e-30")
        cfg = write(tmp_path, "chain.json", CHAIN)
        rc = run(["verify", "fundamental-lemma", "--config", cfg,
                  "--ts", "0.1", "--tol", "1e-9"])
        assert rc == 0

    def test_nonfinite_time_rejected_at_parse(self, tmp_path, capsys):
        cfg = write(tmp_path, "chain.json", CHAIN)
        rc = run(["verify", "fundamental-lemma", "--config", cfg, "--ts", "0.1,nan"])
        assert rc == 2
        assert "--ts" in capsys.readouterr().err

    def test_nonpositive_tol_rejected_at_parse(self, tmp_path, capsys):
        cfg = write(tmp_path, "chain.json", CHAIN)
        rc = run(["verify", "fundamental-lemma", "--config", cfg, "--ts", "0.1",
                  "--tol", "-1"])
        assert rc == 2
        assert "--tol" in capsys.readouterr().err

    def test_bad_env_tol_rejected_before_loading(self, monkeypatch, capsys):
        monkeypatch.setenv("EQLAB_TOL", "inf")
        rc = run(["verify", "fundamental-lemma", "--config", "/nonexistent.json",
                  "--ts", "0.1"])
        assert rc == 2
        assert "EQLAB_TOL" in capsys.readouterr().err

    @pytest.mark.parametrize("cuffs", ["a", "0.5", "0,x"])
    def test_bad_cuffs_rejected_at_parse(self, cuffs, capsys):
        rc = run(["verify", "conjugacy", "--config", "/nonexistent.json", "--ts", "0",
                  f"--cuffs={cuffs}"])
        assert rc == 2
        assert "argument --cuffs:" in capsys.readouterr().err

    def test_csv_emission(self, tmp_path, capsys):
        cfg = write(tmp_path, "surf.json", SURFACE)
        rc = run(["verify", "conjugacy", "--config", cfg, "--ts", "0,0.5",
                  "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,measured_x,measured_y,predicted_x,predicted_y"
        assert len(lines) == 3

    def test_unsupported_format_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "surf.json", SURFACE)
        assert run(["verify", "conjugacy", "--config", cfg, "--ts", "0",
                    "--format", "svg"]) == 2
        assert run(["pants", "--shears", "1,1,1", "--format", "csv"]) == 2


class TestTimesBeyondFloatRange:
    # a shift t·w whose fault translation or moved twist overflows floats is
    # an input error that names t·w, not a traceback: exit 1 means a failed check
    LAM = {"leaves": [{"endpoints": [-1, 1], "weight": 1.0},
                      {"endpoints": [-2, 2], "weight": 1.0}]}
    HEAVY = {**SURFACE, "weights": {"0": 10.0}}

    @pytest.mark.parametrize("argv, doc", [
        (["earthquake", "--t", "1e308", "--base", "0,0.5", "--targets", "0,10"], LAM),
        # just past 2 ln(float max) = 1419.57, where e^(|t·w|/2) overflows
        (["earthquake", "--t", "1420", "--base", "0,0.5", "--targets", "0,10"], LAM),
        (["verify", "fundamental-lemma", "--ts", "0,1e308"], CHAIN),
        (["verify", "conjugacy", "--ts", "0,1e308"], HEAVY),
    ])
    def test_exit_2_naming_the_shift(self, argv, doc, tmp_path, capsys):
        cfg = write(tmp_path, "config.json", doc)
        assert run([*argv, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: earthquake shift t·w = ")

    def test_refused_product_exit_2_naming_the_crossed_mass(self, tmp_path, capsys):
        # each fault's shift at t = 711 is within SHIFT_LIMIT, and the target
        # is carried through them with no product formed, but its image,
        # at a height of about e^(-t·mass), is not a float
        cfg = write(tmp_path, "config.json", self.LAM)
        argv = ["earthquake", "--t", "711", "--base", "0,0.5", "--targets", "0,10"]
        assert run([*argv, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: earthquake shift t·(mass crossed) = 1422.0 "
                                       "carries the image out of float range")
        assert "Traceback" not in captured.err

    def test_merged_chain_vertices_exit_2_naming_the_time(self, tmp_path, capsys):
        # at t = 30 the first triangle's moved vertices merge in floats
        cfg = write(tmp_path, "config.json", {**CHAIN, "weights": [1.0, 0.0, 0.5]})
        assert run(["verify", "fundamental-lemma", "--config", cfg, "--ts", "0.1,30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: t = 30.0 merges the vertices of triangle 0\n"

    def test_moves_where_products_were_refused(self, tmp_path, capsys):
        # t = 20 and 100 were refused while each product was rescaled by its
        # determinant, recomputed with cancellation
        cfg = write(tmp_path, "config.json", self.LAM)
        for t in ("20", "100"):
            argv = ["earthquake", "--t", t, "--base", "0,0.5", "--targets", "0,10"]
            assert run([*argv, "--config", cfg]) == 0
            (x, y), = json.loads(capsys.readouterr().out)["images"]
            assert abs(x + 1.0) < 1e-8 and 0.0 < y < 1e-17


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path, "surf.json", SURFACE)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert run(["verify", "conjugacy", "--config", cfg,
                        "--ts", "0,0.1,0.2", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seeded_random_suite_deterministic(self, tmp_path):
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        for out in (out1, out2):
            assert run(["pants", "--random", "20", "--seed", "11",
                        "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def arc_center_from_path(x1, y1, r, large, sweep, x2, y2):
    """Endpoint-to-center conversion for a circular SVG arc."""
    hx, hy = (x1 - x2) / 2.0, (y1 - y2) / 2.0
    p2 = hx * hx + hy * hy
    scale = math.sqrt(max(r * r - p2, 0.0) / p2)
    if large == sweep:
        scale = -scale
    cx = scale * r * hy / r + (x1 + x2) / 2.0
    cy = -scale * r * hx / r + (y1 + y2) / 2.0
    return cx, cy


class TestRender:
    CONFIG = {
        "triangulation": PANTS_TRI,
        "words": [[], [0], [0, 1], [1], [2]],
        "lamination": {"leaves": [{"endpoints": [-2, 2], "weight": 1.0}]},
        "objects": ["triangles", "leaves", "tangency"],
    }

    def render(self, tmp_path):
        cfg = write(tmp_path, "render.json", self.CONFIG)
        out = tmp_path / "plot.svg"
        assert run(["render", "--config", cfg, "--format", "svg",
                    "--out", str(out)]) == 0
        return out.read_text()

    def test_well_formed_svg(self, tmp_path):
        svg = self.render(tmp_path)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("path") for child in root)

    def test_geodesic_arcs_orthogonal(self, tmp_path):
        svg = self.render(tmp_path)
        arc_re = re.compile(
            r'M (-?[\d.]+),(-?[\d.]+) A (-?[\d.]+),(?:-?[\d.]+) 0 (\d),(\d) (-?[\d.]+),(-?[\d.]+)'
        )
        px_per_unit = 600.0 / 2.1
        arcs = arc_re.findall(svg)
        assert arcs
        for x1, y1, r, large, sweep, x2, y2 in arcs:
            x1, y1, r, x2, y2 = map(float, (x1, y1, r, x2, y2))
            cx, cy = arc_center_from_path(x1, y1, r, int(large), int(sweep), x2, y2)
            # orthogonality to the unit circle: |c|^2 = 1 + r^2
            defect_units = abs(math.hypot(cx, cy) - math.sqrt(1.0 + r * r))
            assert defect_units * px_per_unit < 0.5

    def test_endpoints_on_unit_circle(self, tmp_path):
        svg = self.render(tmp_path)
        for match in re.finditer(r'M (-?[\d.]+),(-?[\d.]+)', svg):
            x, y = float(match.group(1)), float(match.group(2))
            assert abs(math.hypot(x, y) - 1.0) < 1e-9

    def test_determinism(self, tmp_path):
        one = self.render(tmp_path)
        two = self.render(tmp_path)
        assert one == two

    def test_empty_object_selection_rejected(self, tmp_path):
        cfg = write(tmp_path, "render.json", {**self.CONFIG, "objects": []})
        assert run(["render", "--config", cfg, "--format", "svg"]) == 2


def _float_ids(doc):
    """`doc` with every integer but the weights spelled as an integral float."""
    if isinstance(doc, dict):
        return {k: v if k == "weights" else _float_ids(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_float_ids(x) for x in doc]
    return float(doc) if type(doc) is int else doc


@pytest.mark.parametrize("argv, doc", [
    (["develop", "--words", ";0;0,1;1,2,0"], PANTS_TRI),
    (["verify", "conjugacy", "--ts", "0,0.5"], SURFACE),
    (["earthquake", "--t", "0.5"], SURFACE),
    (["render", "--format", "svg"], TestRender.CONFIG),
])
def test_integral_floats_read_as_integers(argv, doc, tmp_path, capsys):
    outputs = []
    for spelled in (doc, _float_ids(doc)):
        cfg = write(tmp_path, "doc.json", spelled)
        assert run(argv + ["--config", cfg]) == 0
        outputs.append(capsys.readouterr().out)
    assert json.dumps(doc) != json.dumps(_float_ids(doc))
    assert outputs[0] == outputs[1]


def test_cli_import_skips_numpy_and_jsonschema(tmp_path):
    # neither the import nor a command that validates its input loads them
    src = os.path.dirname(os.path.dirname(os.path.abspath(eqlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write(tmp_path, "tri.json", PANTS_TRI)
    probe = ("import eqlab.cli, sys; "
             "loaded = lambda: sorted(m for m in ('numpy', 'jsonschema') if m in sys.modules); "
             "print(loaded()); code = eqlab.cli.run(['develop', '--config', sys.argv[1]]); "
             "print(code, loaded())")
    out = subprocess.run([sys.executable, "-c", probe, cfg], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0] == "[]"
    assert out[-1] == "0 []"
