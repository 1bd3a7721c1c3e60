import argparse
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import eqlab
from eqlab.cli import _load_json, build_parser, run
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

    def test_negative_trial_count_is_input_error(self, capsys):
        # range(-5) runs no trial: the suite would pass having checked nothing
        assert run(["pants", "--random", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--random -5" in captured.err

    def test_zero_trial_count_names_itself(self, capsys):
        # --random 0 was given: the error is the trial count, not a missing mode
        assert run(["pants", "--random", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --random 0: the trace suite needs at least one trial\n"

    @pytest.mark.parametrize("argv", [
        ["--shears", "1,1,1", "--random", "5"],
        ["--random", "5", "--lengths", "2,2,2"],
        ["--shears", "1,1,1", "--lengths", "2,2,2"],
    ])
    def test_modes_are_exclusive(self, argv, capsys):
        assert run(["pants", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

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

    # a literal past float range, which reads as inf (1e999) or as an int
    # no float holds (400 digits), is refused by name at load; SPOT marks
    # where each document takes it
    SPOT = 12345.5
    LAM = {"leaves": [{"endpoints": [0, "inf"], "weight": SPOT}]}

    @pytest.mark.parametrize("token", ["1e999", "-1e999", "9" * 400],
                             ids=["1e999", "-1e999", "400-digits"])
    @pytest.mark.parametrize("argv, doc", [
        (["develop"], {**PANTS_TRI, "edges": [*PANTS_TRI["edges"][:2],
                                              {**PANTS_TRI["edges"][2], "shear": SPOT}]}),
        (["transport"], {"spike": {"edges": [[0, "inf"], [1, "inf"]], "vertex": "inf"},
                         "depths": [1, SPOT]}),
        (["earthquake", "--t", "0.5", "--base=-1,1", "--targets=1,1"], LAM),
        (["earthquake", "--t", "0.5"], {**SURFACE, "weights": {"0": SPOT}}),
        (["verify", "fundamental-lemma", "--ts", "0.1"], {**CHAIN, "steps": [[1, SPOT]],
                                                          "weights": [1.0]}),
        (["verify", "conjugacy", "--ts", "0,0.1"],
         {**SURFACE, "gluings": [{**SURFACE["gluings"][0], "length": SPOT},
                                 *SURFACE["gluings"][1:]]}),
        (["render", "--format", "svg"], {"triangulation": PANTS_TRI, "lamination": LAM}),
    ], ids=["develop", "transport", "earthquake-lamination", "earthquake-surface",
            "verify-chain", "verify-conjugacy", "render"])
    def test_beyond_float_range_rejected_at_load(self, argv, doc, token, tmp_path, capsys):
        path = tmp_path / "doc.json"
        text = json.dumps(doc)
        assert text.count(repr(self.SPOT)) == 1
        path.write_text(text.replace(repr(self.SPOT), token))
        assert run([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {path}: number {token} is beyond float range\n"

    @pytest.mark.parametrize("token, shown", [
        ("9" * 309, "9" * 309),
        ("1" + "0" * 309, "1" + "0" * 309),
        ("9" * 5000, "9" * 20 + "... (5000 characters)"),
        ("-" + "9" * 5000, "-" + "9" * 19 + "... (5001 characters)"),
    ], ids=["309-digits", "310-digits", "5000-digits", "minus-5000-digits"])
    def test_long_integer_literal_named(self, token, shown, tmp_path, capsys):
        # an integer past 4300 digits, which int() refuses for its length
        # alone, is refused as beyond float range, naming the file and the
        # token's head
        doc = {**SURFACE, "gluings": [{**SURFACE["gluings"][0], "length": self.SPOT},
                                      *SURFACE["gluings"][1:]]}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc).replace(repr(self.SPOT), token))
        assert run(["verify", "conjugacy", "--ts", "0,0.1", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {path}: number {shown} is beyond float range\n"

    # the JSON reader recurses once per level and raised RecursionError,
    # a traceback with exit 1, the code of a failed verification
    @pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                      '{"leaves": ' * 3000 + "[]" + "}" * 3000],
                             ids=["arrays", "leaves"])
    def test_deep_nesting_refused_at_load(self, text, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert run(["earthquake", "--config", str(path), "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: {path}: arrays and objects nest too deeply to "
                                f"read within the recursion limit of {sys.getrecursionlimit()}\n")

    def test_numbers_in_float_range_load_as_written(self, tmp_path):
        # the largest float still loads, and an integer literal loads exactly,
        # as an int
        path = write(tmp_path, "doc.json", {"big": 1.7976931348623157e308, "int": 10 ** 308})
        doc = _load_json(path)
        assert doc == {"big": 1.7976931348623157e308, "int": 10 ** 308}
        assert type(doc["int"]) is int


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

    def test_collapsed_word_names_itself(self, tmp_path, capsys):
        cfg = write(tmp_path, "tri.json", PANTS_TRI)
        words = ",".join(["0,1,2"] * 10)
        assert run(["develop", "--config", cfg, "--words", words]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: the word (0, 1, 2, 0, 1, 2, 0, 1, ...) of 30 crossings collapses in "
            "floats at crossing 28 (edge 0): ideal triangle needs three distinct vertices\n")

    # a repeated label built: every letter 0 took the first edge listed, so
    # the second could never be crossed, and a repeated triangle developed
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["edges"][1].update(id=0), "edge id 0 is listed more than once"),
        (lambda doc: doc["triangles"].append(1), "triangle id 1 is listed more than once"),
    ])
    def test_repeated_label_exit_2_naming_it(self, edit, message, tmp_path, capsys):
        doc = json.loads(json.dumps(PANTS_TRI))
        edit(doc)
        assert run(["develop", "--config", write(tmp_path, "tri.json", doc), "--words", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"


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

    # the mode test once read `"leaves" in doc` of any document, and a number
    # or null ended in a TypeError traceback with exit 1
    @pytest.mark.parametrize("text, shown", [
        ("5", "5"), ("null", "None"), ('"x"', "'x'"), ("[]", "[]"),
    ])
    def test_document_not_an_object_exit_2(self, text, shown, tmp_path, capsys):
        cfg = tmp_path / "doc.json"
        cfg.write_text(text)
        assert run(["earthquake", "--config", str(cfg), "--t", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error at /: {shown} is not of type 'object'\n"


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
            "input error at /weights/x: 'x' is not one of the cuff ids ['0', '1', '2']\n")

    # int() read "00" and " 1" as cuffs 0 and 1: {"0": 1, "00": 2} moved
    # twist 0 by 2 and verified, exit 0
    @pytest.mark.parametrize("weights, bad", [
        ({"0": 1, "00": 2}, ["00"]), ({" 1": 1}, [" 1"]), ({"1_0": 1}, ["1_0"]),
        ({"5": 1}, ["5"]), ({"+1": 1, "0": 1, "٣": 1}, ["+1", "٣"]),
    ])
    @pytest.mark.parametrize("argv", [["earthquake", "--t", "1"],
                                      ["verify", "conjugacy", "--ts", "0,1"]])
    def test_weight_key_not_a_cuff_id_exit_2(self, argv, weights, bad, tmp_path, capsys):
        cfg = write(tmp_path, "surf.json", {**SURFACE, "weights": weights})
        assert run([*argv, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "".join(
            f"input error at /weights/{key}: {key!r} is not one of the cuff ids ['0', '1', '2']\n"
            for key in bad)

    # json.load kept a repeated key's last value: twist 1 moved by 0.5·t, exit 0
    @pytest.mark.parametrize("old, new, key", [
        ('"weights": {"0": 1.0}', '"weights": {"1": 1.0, "1": 0.5}', "1"),
        ('"twist": -0.2', '"twist": -0.2, "twist": 5.0', "twist"),
    ], ids=["weights", "gluing"])
    @pytest.mark.parametrize("argv", [["earthquake", "--t", "1"],
                                      ["verify", "conjugacy", "--ts", "0,1"]])
    def test_repeated_key_exit_2_naming_it(self, argv, old, new, key, tmp_path, capsys):
        path = tmp_path / "surf.json"
        text = json.dumps(SURFACE)
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        assert run([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {path}: key {key!r} is repeated in one object\n"

    def test_repeated_pants_id_exit_2_naming_it(self, tmp_path, capsys):
        # a repeated pants id once verified, exit 0
        doc = {**SURFACE, "pants": [{"id": 0}, {"id": 0}, {"id": 1}]}
        cfg = write(tmp_path, "surf.json", doc)
        assert run(["verify", "conjugacy", "--config", cfg, "--ts", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: pants id 0 is listed more than once\n"

    def test_failed_verification_exit_1_report_written(self, tmp_path, capsys):
        # the chain's residual is a few ulps; the conjugacy residual is a
        # readback of the twist and may be exactly 0
        cfg = write(tmp_path, "chain.json", CHAIN)
        out = tmp_path / "report.json"
        rc = run(["verify", "fundamental-lemma", "--config", cfg, "--ts", "0,0.3",
                  "--tol", "1e-30", "--out", str(out)])
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

    @pytest.mark.parametrize("kind, doc", [("fundamental-lemma", CHAIN), ("conjugacy", SURFACE)],
                             ids=["fundamental-lemma", "conjugacy"])
    def test_environment_sets_no_tolerance(self, kind, doc, tmp_path, monkeypatch, capsys):
        # only --tol sets a tolerance; the report is the same bytes with
        # EQLAB_TOL, once read as the default, set or not
        cfg = write(tmp_path, "cfg.json", doc)
        argv = ["verify", kind, "--config", cfg, "--ts", "0,0.3"]
        monkeypatch.delenv("EQLAB_TOL", raising=False)
        assert run(argv) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("EQLAB_TOL", "1e-30")
        assert run(argv) == 0
        assert capsys.readouterr() == unset

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

    # an empty list used to verify every weighted cuff, and a repeated id to sample it twice
    # a cuff id is written as a weight key is, so "+1", "00", " 2" and "٣" name none
    @pytest.mark.parametrize("cuffs", ["a", "0.5", "0,x", "", ",", "0,0", "1,0,1",
                                       "+1", "00", " 2", "٣", "0,"])
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


class TestFlags:
    # each command declares only the flags it reads; argparse refuses any
    # other before the config file, which does not exist here, is opened
    MISSING = "/nonexistent.json"
    COMMANDS = {
        "pants": ["pants", "--shears", "1,1,1"],
        "develop": ["develop", "--config", MISSING],
        "transport": ["transport", "--config", MISSING],
        "earthquake": ["earthquake", "--config", MISSING, "--t", "0.5"],
        "verify": ["verify", "fundamental-lemma", "--config", MISSING, "--ts", "0.1"],
        "render": ["render", "--config", MISSING],
    }
    VALUES = {"--tol": "1", "--format": "json", "--seed": "3"}
    UNREAD = [("pants", "--format"),
              ("develop", "--tol"), ("develop", "--format"), ("develop", "--seed"),
              ("transport", "--tol"), ("transport", "--format"), ("transport", "--seed"),
              ("earthquake", "--tol"), ("earthquake", "--format"), ("earthquake", "--seed"),
              ("verify", "--seed"),
              ("render", "--tol"), ("render", "--seed")]

    def test_each_command_declares_the_flags_it_reads(self):
        sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        declared = {name: {flag for action in parser._actions for flag in action.option_strings}
                    - {"-h", "--help"} for name, parser in sub.choices.items()}
        assert declared == {
            "pants": {"--shears", "--lengths", "--random", "--signs", "--seed", "--tol",
                      "--out"},
            "develop": {"--config", "--words", "--out"},
            "transport": {"--config", "--out"},
            "earthquake": {"--config", "--t", "--base", "--targets", "--out"},
            "verify": {"--config", "--ts", "--cuffs", "--tol", "--format", "--out"},
            "render": {"--config", "--format", "--out"},
        }

    @pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
    def test_unread_flag_refused_at_parse(self, command, flag, capsys):
        value = self.VALUES[flag]
        assert run([*self.COMMANDS[command], flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert "input error" not in captured.err

    # a flag that only another mode of its command reads: pants and verify
    # refuse it before any file is touched (pants has no config, so its
    # output path is one that cannot be written), earthquake right after
    # loading the document that tells its mode
    SURFACE_QUAKE = ["earthquake", "--config", "{surface}", "--t", "1"]
    OTHER_MODE = [
        (["pants", "--shears", "1,1,1", "--out", "/nonexistent/out.json"], "pants: --shears mode",
         "--signs", "1,1,1"),
        (["pants", "--shears", "1,1,1", "--out", "/nonexistent/out.json"], "pants: --shears mode",
         "--seed", "4"),
        (["pants", "--shears", "1,1,1", "--out", "/nonexistent/out.json"], "pants: --shears mode",
         "--tol", "1e-3"),
        (["pants", "--lengths", "1,1,1", "--out", "/nonexistent/out.json"],
         "pants: --lengths mode", "--seed", "4"),
        (["pants", "--lengths", "1,1,1", "--out", "/nonexistent/out.json"],
         "pants: --lengths mode", "--tol", "1e-3"),
        (["pants", "--random", "3", "--out", "/nonexistent/out.json"], "pants: --random mode",
         "--signs", "-1,1,1"),
        (SURFACE_QUAKE, "earthquake: surface mode", "--base", "0,1"),
        (SURFACE_QUAKE, "earthquake: surface mode", "--targets", "0,1;1,2"),
        (["verify", "fundamental-lemma", "--config", MISSING, "--ts", "0.1"],
         "verify: fundamental-lemma", "--cuffs", "0,5"),
    ]

    @pytest.mark.parametrize("argv, mode, flag, value", OTHER_MODE,
                             ids=[f"{m.split(':')[0]}-{m.split()[1].lstrip('-')}{f}"
                                  for _, m, f, _ in OTHER_MODE])
    def test_flag_of_another_mode_refused(self, argv, mode, flag, value, tmp_path, capsys):
        surface = write(tmp_path, "surface.json", SURFACE)
        argv = [arg.replace("{surface}", surface) for arg in argv]
        assert run([*argv, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{mode} does not read {flag}\n"

    def test_flags_of_another_mode_named_together(self, capsys):
        assert run(["pants", "--shears", "1,1,1", "--tol", "1e-3", "--seed", "4"]) == 2
        assert capsys.readouterr().err == "pants: --shears mode does not read --seed, --tol\n"

    # a list flag reads its fields through one splitter, which refuses an
    # empty field where it used to skip it: --signs=1,,-1,1 ran with three
    # signs and --words=0,x failed after loading with int()'s message
    LISTS = [
        (["pants", "--shears=1,,2,3"], "--shears"),
        (["pants", "--shears=1,2,3,"], "--shears"),
        (["pants", "--lengths=,1,2,3"], "--lengths"),
        (["pants", "--lengths", "1,1,1", "--signs=1,,-1,1"], "--signs"),
        ([*COMMANDS["verify"], "--ts=0,,1"], "--ts"),
        ([*COMMANDS["earthquake"], "--base=0.5,,0.5"], "--base"),
        ([*COMMANDS["earthquake"], "--targets=0,1;;1,2"], "--targets"),
        (["verify", "conjugacy", "--config", MISSING, "--ts", "0", "--cuffs=0,"], "--cuffs"),
        (["verify", "conjugacy", "--config", MISSING, "--ts", "0", "--cuffs=+1,00"], "--cuffs"),
        ([*COMMANDS["develop"], "--words=0,,1"], "--words"),
        ([*COMMANDS["develop"], "--words=0,x"], "--words"),
    ]

    @pytest.mark.parametrize("argv, flag", LISTS, ids=[argv[-1] for argv, _ in LISTS])
    def test_malformed_list_refused_at_parse(self, argv, flag, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err
        assert "input error" not in captured.err

    @pytest.mark.parametrize("value", ["csv", "json"])
    def test_render_writes_only_svg(self, value, capsys):
        assert run([*self.COMMANDS["render"], "--format", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --format: invalid choice: '{value}'" in captured.err


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


# the one golden table: each command with the golden file it prints and
# its exit code, 0 for the bytes it printed on stdout when its golden was
# written, 2 for a refusal's stderr, in which {g} stands for this directory
# as in the argv; scripts/check_goldens.py runs the same table through
# `python -m eqlab.cli`
with open(os.path.join(GOLDEN, "commands.json"), encoding="utf-8") as fh:
    GOLDEN_TABLE = json.load(fh)
GOLDEN_COMMANDS = [(e["argv"], e["golden"]) for e in GOLDEN_TABLE if e["exit"] == 0]
GOLDEN_REFUSALS = [(e["argv"], e["golden"]) for e in GOLDEN_TABLE if e["exit"] == 2]


def test_golden_table_covers_every_golden():
    # an entry of another exit code would run nowhere, and a golden output
    # missing from the table would be checked by nothing
    assert {e["exit"] for e in GOLDEN_TABLE} <= {0, 2}
    outputs = {name for name in os.listdir(GOLDEN)
               if name.endswith((".out", ".err", ".csv", ".svg"))}
    assert sorted(e["golden"] for e in GOLDEN_TABLE) == sorted(outputs)


@pytest.mark.parametrize("argv, name", GOLDEN_COMMANDS, ids=[name for _, name in GOLDEN_COMMANDS])
def test_golden_bytes(argv, name, capsys):
    assert run([arg.replace("{g}", GOLDEN) for arg in argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert captured.out.encode("utf-8") == fh.read()


@pytest.mark.parametrize("argv, name", GOLDEN_REFUSALS, ids=[name for _, name in GOLDEN_REFUSALS])
def test_golden_refusals(argv, name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    assert run([arg.replace("{g}", GOLDEN) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert captured.err.encode("utf-8") == fh.read().replace(b"{g}", GOLDEN.encode())


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


def _added_modules(probe, *argv):
    """The modules a fresh interpreter adds to sys.modules while running probe with argv;
    those its start-up already loaded (site may import typing) do not count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(eqlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys\n_before = set(sys.modules)\n" + probe
             + "\nimport json\nprint(json.dumps(sorted(set(sys.modules) - _before)))")
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    return set(json.loads(out[-1]))


def _fresh_modules(probe, *argv):
    """The eqlab modules a fresh interpreter loads while running probe with argv."""
    return {m for m in _added_modules(probe, *argv) if m.startswith("eqlab")}


LAYERS = {f"eqlab.{m}" for m in ("lamination", "conjugacy", "surface", "transport", "render")}


class TestImportFootprint:
    def test_bare_import_loads_no_submodule(self):
        assert _fresh_modules("import eqlab") == {"eqlab"}

    def test_pants_loads_only_hyp_and_triangle(self):
        loaded = _fresh_modules("import eqlab.cli; assert eqlab.cli.run(['pants', '--shears', '1,1,1']) == 0")
        assert loaded.isdisjoint(LAYERS)
        assert {"eqlab.hyp", "eqlab.triangle"} <= loaded

    def test_earthquake_loads_by_mode(self, tmp_path):
        run_quake = "import eqlab.cli, sys; assert eqlab.cli.run(sys.argv[1:]) == 0"
        lam = write(tmp_path, "lam.json", TestNegativeListValues.LAM)
        loaded = _fresh_modules(run_quake, "earthquake", "--config", lam, "--t", "0.5",
                                "--base=-1,1", "--targets=1,1")
        assert "eqlab.lamination" in loaded and "eqlab.surface" not in loaded
        surface = write(tmp_path, "surface.json", SURFACE)
        loaded = _fresh_modules(run_quake, "earthquake", "--config", surface, "--t", "0.5")
        assert "eqlab.surface" in loaded and "eqlab.lamination" not in loaded

    def test_fundamental_lemma_loads_no_surface(self, tmp_path):
        cfg = write(tmp_path, "chain.json", CHAIN)
        loaded = _fresh_modules("import eqlab.cli, sys; assert eqlab.cli.run(sys.argv[1:]) == 0",
                                "verify", "fundamental-lemma", "--config", cfg, "--ts", "0.1,0.2")
        assert "eqlab.conjugacy" in loaded and "eqlab.surface" not in loaded

    def test_render_without_a_lamination_loads_no_lamination(self, tmp_path):
        doc = {k: v for k, v in TestRender.CONFIG.items() if k != "lamination"}
        cfg = write(tmp_path, "render.json", doc)
        loaded = _fresh_modules("import eqlab.cli, sys; assert eqlab.cli.run(sys.argv[1:]) == 0",
                                "render", "--config", cfg, "--out", str(tmp_path / "plot.svg"))
        assert "eqlab.render" in loaded and "eqlab.lamination" not in loaded
        assert _fresh_modules("import eqlab.render") == {"eqlab", "eqlab.hyp", "eqlab.render",
                                                         "eqlab.triangle"}

    def test_submodules_resolve_after_bare_import(self):
        probe = "import eqlab; print(eqlab.hyp.__name__, eqlab.lamination.__name__)"
        assert _fresh_modules(probe) == {"eqlab", "eqlab.hyp", "eqlab.lamination"}

    def test_every_public_name_resolves(self):
        namespace = {}
        for name in eqlab.__all__:
            exec(f"from eqlab import {name}", namespace)
        assert all(namespace[name] is getattr(eqlab, name) for name in eqlab.__all__)
        assert set(eqlab.__all__) <= set(dir(eqlab))

    @pytest.mark.parametrize("argv, doc", [
        (["pants", "--shears", "1,1,1"], None),
        (["pants", "--lengths", "1,2,3", "--signs", "1,-1,1"], None),
        (["pants", "--random", "3", "--seed", "1"], None),
        (["develop", "--config", "{}", "--words", ";0;0,1"], PANTS_TRI),
        (["transport", "--config", "{}"],
         {"spike": {"edges": [[0, "inf"], [1, "inf"]], "vertex": "inf"}, "depths": [1, 2]}),
        (["earthquake", "--config", "{}", "--t", "0.5", "--base=-1,1", "--targets=1,1"],
         TestNegativeListValues.LAM),
        (["earthquake", "--config", "{}", "--t", "0.5"], SURFACE),
        (["verify", "fundamental-lemma", "--config", "{}", "--ts", "0.1,0.2"], CHAIN),
        (["verify", "conjugacy", "--config", "{}", "--ts", "0,0.1"], SURFACE),
        (["render", "--config", "{}", "--out", "{}.svg"], TestRender.CONFIG),
    ], ids=["pants-shears", "pants-lengths", "pants-random", "develop", "transport",
            "earthquake-lamination", "earthquake-surface", "verify-chain", "verify-conjugacy",
            "render"])
    def test_commands_load_no_dataclasses_inspect_or_typing(self, argv, doc, tmp_path):
        # eqlab's values are Records, so no command pays for these modules
        if doc is not None:
            cfg = write(tmp_path, "doc.json", doc)
            argv = [arg.format(cfg) for arg in argv]
        added = _added_modules("import eqlab.cli\nassert eqlab.cli.run(sys.argv[1:]) == 0",
                               *argv)
        assert "eqlab.cli" in added
        assert added.isdisjoint({"dataclasses", "inspect", "typing"})

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            eqlab.no_such_name
        with pytest.raises(ImportError):
            exec("from eqlab import no_such_name", {})
