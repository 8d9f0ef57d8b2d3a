import json
import subprocess
import sys

import pytest

from lipfree.cli import main
from lipfree.free import Molecule
from lipfree.functions import LipFunction
from lipfree.metric import FiniteMetricSpace, build_half_line_space
from lipfree.scalars import rat


@pytest.fixture
def space_file(tmp_path, line4):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(line4.to_json()))
    return str(path)


@pytest.fixture
def molecule_file(tmp_path, line4):
    m = Molecule(line4, 1, 2).element()
    path = tmp_path / "mol.json"
    path.write_text(json.dumps(m.to_json()))
    return str(path)


class TestExitCodes:
    def test_valid_space_passes(self, space_file, capsys):
        assert main(["validate", space_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["ok"] is True

    def test_broken_metric_fails(self, tmp_path, capsys):
        bad = {"labels": ["a", "b", "c"], "base": 0,
               "d": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["validate", str(path)]) == 1

    @pytest.mark.parametrize(
        "d, message",
        [
            ([["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
             "the triangle check fails at ('a', 'b', 'c') by 3"),
            ([["0", "1", "2"], ["1", "0", "1"], ["2", "3/2", "0"]],
             "the symmetry check fails at ('b', 'c') by -1/2"),
            ([["0", "1", "2"], ["1", "1/2", "1"], ["2", "1", "0"]], "the diagonal check fails at ('b') by 1/2"),
        ],
        ids=["triangle", "symmetry", "diagonal"],
    )
    @pytest.mark.parametrize("command", ["freenorm", "dist", "lipnorm"])
    def test_space_that_is_no_metric_is_an_error(self, tmp_path, capsys, d, message, command):
        # on the triangle case the norm of delta_c restricted to {a, c} was
        # d(a, c) = 5 with exit 0, where the full space gives 2
        space = {"labels": ["a", "b", "c"], "base": 0, "d": d}
        (tmp_path / "space.json").write_text(json.dumps(space))
        (tmp_path / "delta.json").write_text(json.dumps({"weights": {"c": "1"}}))
        (tmp_path / "f.json").write_text(json.dumps({"space": space, "values": ["0", "1", "1"]}))
        argv = {
            "freenorm": ["freenorm", "delta.json", "--space", "space.json"],
            "dist": ["dist", "delta.json", "delta.json", "--space", "space.json"],
            "lipnorm": ["lipnorm", "f.json"],
        }[command]
        assert main([str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the space is not a metric: {message}" in captured.err
        assert main(["validate", str(tmp_path / "space.json")]) == 1

    def test_missing_file_is_an_error(self, capsys):
        assert main(["validate", "/nonexistent/space.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_duplicate_labels_are_an_error(self, line4, molecule_file, tmp_path, capsys):
        obj = line4.to_json()
        obj["labels"][3] = obj["labels"][1]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(obj))
        assert main(["freenorm", molecule_file, "--space", str(path)]) == 2
        assert "duplicate point label" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space, element, message",
        [
            ({"d": 5}, None, "'d'"),
            ({"d": [["0", "1", "3", "7"], 1, ["3", "2", "0", "4"], ["7", "6", "4", "0"]]},
             None, "'d'"),
            ([], None, "must hold a JSON object"),
            (None, {"weights": [["1", "1"], ["3", "-1"]]}, "'weights'"),
            (None, {"weights": {"zz": "1"}}, "unknown point label: 'zz'"),
            ({"d": [["0", "1", "3", "7"], ["1", "0", "2", float("inf")],
                    ["3", "2", "0", "4"], ["7", "6", "4", "0"]]},
             None, "field 'd' holds inf, not a number"),
            (None, {"weights": {"1": float("nan"), "3": "-1"}},
             "field 'weights' holds nan, not a number"),
        ],
        ids=["d-number", "d-row-not-list", "top-level-array", "weights-list", "unknown-label",
             "d-infinity", "weights-nan"],
    )
    def test_malformed_input_is_an_error(self, line4, tmp_path, capsys, space, element, message):
        # a dict edits the valid space, a list replaces it by [space]
        obj = line4.to_json()
        obj = [obj] if isinstance(space, list) else {**obj, **(space or {})}
        (tmp_path / "space.json").write_text(json.dumps(obj))
        element = element or Molecule(line4, 1, 2).element().to_json()
        (tmp_path / "mol.json").write_text(json.dumps(element))
        argv = ["freenorm", str(tmp_path / "mol.json"), "--space", str(tmp_path / "space.json")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, field",
        [("space", "labels"), ("space", "base"), ("space", "d"), ("element", "weights"),
         ("function", "values")],
    )
    def test_missing_field_is_named(self, line4, tmp_path, capsys, kind, field):
        # a missing field once printed the bare KeyError, error: 'd'
        space, element = line4.to_json(), Molecule(line4, 1, 2).element().to_json()
        function = {"space": line4.to_json(), "values": ["0", "1", "3", "7"]}
        del {"space": space, "element": element, "function": function}[kind][field]
        (tmp_path / "space.json").write_text(json.dumps(space))
        (tmp_path / "mol.json").write_text(json.dumps(element))
        (tmp_path / "f.json").write_text(json.dumps(function))
        if kind == "function":
            argv = ["lipnorm", str(tmp_path / "f.json")]
        else:
            argv = ["freenorm", str(tmp_path / "mol.json"), "--space", str(tmp_path / "space.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {kind} field '{field}' is missing"]

    @pytest.mark.parametrize(
        "value, shown", [(float("-inf"), "-inf"), (True, "True"), ("1/0", "'1/0'")],
        ids=["minus-infinity", "boolean", "zero-denominator"],
    )
    @pytest.mark.parametrize("command", ["lipnorm", "extend"])
    def test_value_that_is_no_finite_number_is_an_error(
        self, line4, tmp_path, capsys, command, value, shown
    ):
        # json.load reads Infinity and NaN, which Fraction meets with
        # OverflowError or ValueError, and turns true into 1
        if command == "lipnorm":
            path = tmp_path / "f.json"
            path.write_text(json.dumps({"space": line4.to_json(), "values": ["0", value, "3", "7"]}))
            argv = ["lipnorm", str(path)]
        else:
            (tmp_path / "space.json").write_text(json.dumps(line4.to_json()))
            (tmp_path / "vals.json").write_text(json.dumps({"0": "0", "3": value}))
            argv = ["extend", "--space", str(tmp_path / "space.json"), "--values", str(tmp_path / "vals.json")]
        assert main(argv) == 2
        assert f"field 'values' holds {shown}, not a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "daugavet", "--stages", "0"], "k must be >= 1"),
            (["certify", "daug-rec", "--stages", "0"], "k must be >= 1"),
            (["certify", "annuli", "--pairs", "0"], "k must be >= 1"),
            (["construct", "delta-hat", "--scale", "0"], "scale a must be positive"),
            (["certify", "example2", "--samples", "-1"], "--samples"),
            (["certify", "annuli", "--samples", "-3"], "--samples"),
        ],
        ids=["daugavet-stages", "daug-rec-stages", "annuli-pairs", "hat-scale",
             "example2-samples", "annuli-samples"],
    )
    def test_bad_count_or_scale_is_an_error(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["extend", "--space", "space.json", "--values", "vals.json", "--lip", "1/0"],
            ["slice", "--space", "space.json", "--function", "fn.json", "--alpha", "1/0"],
            ["construct", "delta-hat", "--pairs", "3", "--scale", "1/0"],
            ["certify", "two-anchor", "--N", "5", "--deltas", "1/0"],
            ["certify", "example2", "--N", "4", "--n", "3", "--samples", "2", "--eps", "1/0"],
            ["certify", "annuli", "--pairs", "2", "--eps", "1/0"],
            ["scan-dichotomy", "--space", "space.json", "--function", "fn.json", "--radius", "1/0"],
            ["scan-dichotomy", "--space", "space.json", "--function", "fn.json", "--eps-grid", "1/2,1/0"],
        ],
        ids=["extend-lip", "slice-alpha", "hat-scale", "two-anchor-deltas", "example2-eps",
             "annuli-eps", "scan-radius", "scan-eps-grid"],
    )
    def test_zero_denominator_option_is_an_error(self, line4, tmp_path, capsys, argv):
        # Fraction("1/0") raises ZeroDivisionError, which once ended in a traceback
        (tmp_path / "space.json").write_text(json.dumps(line4.to_json()))
        (tmp_path / "vals.json").write_text(json.dumps({"0": "0", "3": "1"}))
        (tmp_path / "fn.json").write_text(json.dumps({"values": ["0", "1", "3", "7"]}))
        assert main([str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: '1/0' has a zero denominator"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["example2", "--alpha", ",", "--eps", ","], "alpha"),
            (["example2", "--eps", ","], "eps"),
            (["two-anchor", "--N", "5", "--deltas", ""], "delta_grid"),
        ],
        ids=["example2-alpha-and-eps", "example2-eps", "two-anchor-deltas"],
    )
    def test_empty_parameter_list_is_an_error(self, capsys, argv, message):
        # an empty list once skipped every check it indexes: example 2 passed
        # with neither part (a) nor part (b) run
        small = ["--N", "4", "--n", "3", "--samples", "2"] if argv[0] == "example2" else []
        assert main(["certify", *argv, *small]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message} must list at least one value" in captured.err

    def test_empty_eps_grid_is_an_error(self, space_file, tmp_path, capsys):
        # an empty grid once printed the CSV header alone and exited 0
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"values": ["0", "1", "3", "7"]}))
        argv = ["scan-dichotomy", "--space", space_file, "--function", str(fn), "--eps-grid", ""]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: eps_grid must list at least one value" in captured.err

    @pytest.mark.parametrize("command", ["slice", "scan-dichotomy"])
    def test_function_space_must_match_space(self, tmp_path, capsys, command):
        simplex = FiniteMetricSpace.from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        (tmp_path / "space.json").write_text(json.dumps(simplex.to_json()))
        f = LipFunction(build_half_line_space([0, 1, 2, 3, 4]), tuple(rat(i) for i in range(5)))
        (tmp_path / "fn.json").write_text(json.dumps(f.to_json()))
        argv = [command, "--space", str(tmp_path / "space.json"), "--function", str(tmp_path / "fn.json")]
        assert main(argv + (["--alpha", "1/2"] if command == "slice" else [])) == 2
        assert "differs from --space" in capsys.readouterr().err


class TestScalarCommands:
    def test_lipnorm_of_function_on_its_space(self, line4, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"space": line4.to_json(), "values": ["0", "1", "1", "7"]}))
        assert main(["lipnorm", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "3/2"

    @pytest.mark.parametrize("distance", ["-1", "0"])
    def test_lipnorm_rejects_a_distance_that_is_not_positive(self, tmp_path, capsys, distance):
        # values (0, 1, 3) with d(a, c) = d(b, c) = 1; over d(a, b) = -1 an
        # unchecked cross-multiplied comparison flips and reports -1
        space = {"labels": ["a", "b", "c"], "base": 0,
                 "d": [["0", distance, "1"], [distance, "0", "1"], ["1", "1", "0"]]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"space": space, "values": ["0", "1", "3"]}))
        assert main(["lipnorm", str(path)]) == 2
        assert f"d('a', 'b') = {distance} is not positive" in capsys.readouterr().err

    def test_freenorm_prints_bare_value(self, space_file, molecule_file, capsys):
        assert main(["freenorm", molecule_file, "--space", space_file]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_dist_of_element_with_itself(self, space_file, molecule_file, capsys):
        assert main(["dist", molecule_file, molecule_file, "--space", space_file]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_freenorm_envelope_with_out(self, space_file, molecule_file, tmp_path):
        out = tmp_path / "res.json"
        assert main([
            "freenorm", molecule_file, "--space", space_file, "--out", str(out)
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["mode"] == "exact" and obj["result"]["norm"] == "1"
        assert obj["result"]["plan"]  # transport certificate included

    def test_bare_freenorm_builds_no_witness(self, space_file, molecule_file, tmp_path, capsys, lifts):
        # the molecule's support and the base miss a point of line4, so its
        # witness is a McShane extension: built for --out, never for the bare value
        assert main(["freenorm", molecule_file, "--space", space_file]) == 0
        assert capsys.readouterr().out == "1\n" and lifts == []
        assert main(["freenorm", molecule_file, "--space", space_file, "--out", str(tmp_path / "o.json")]) == 0
        assert len(lifts) == 1


def _envelope(mode, result, seed=0):
    return json.dumps({"mode": mode, "seed": seed, "result": result}, indent=2, sort_keys=True) + "\n"


class TestOutputContract:
    """What each command writes under --mode, to stdout and to --out, byte
    for byte: a bare value for lipnorm, freenorm and dist without --out, the
    {mode, seed, result} envelope otherwise, the CSV table as it is."""

    @pytest.fixture
    def files(self, tmp_path, line4, space_file, molecule_file):
        def write(name, obj):
            path = tmp_path / name
            path.write_text(json.dumps(obj))
            return str(path)

        return {
            "space": space_file,
            "mol": molecule_file,
            "el": write("el.json", {"weights": {"1": "1/3", "3": "-2/7"}}),
            "zero": write("zero.json", {"weights": {}}),
            "f": write("f.json", {"values": ["0", "1/3", "7/3", "19/3"]}),
            "f43": write("f43.json", {"values": ["0", "1/3", "3", "7"]}),
            "vals": write("vals.json", {"0": "0", "3": "3"}),
        }

    CASES = {
        "lipnorm-float": (
            ["lipnorm", "f43", "--space", "space"], "float", "norm", {"norm": "1.3333333333333333"},
        ),
        "freenorm-float": (
            ["freenorm", "el", "--space", "space"], "float", "norm",
            {"norm": "0.6190476190476191",
             "plan": [["1", "0", "0.047619047619047616"], ["1", "3", "0.2857142857142857"]],
             "witness": ["0.0", "1.0", "-1.0", "-5.0"]},
        ),
        "freenorm-zero-exact": (
            ["freenorm", "zero", "--space", "space"], "exact", "norm",
            {"norm": "0", "plan": [], "witness": ["0", "0", "0", "0"]},
        ),
        "freenorm-zero-float": (
            ["freenorm", "zero", "--space", "space"], "float", "norm",
            {"norm": "0.0", "plan": [], "witness": ["0.0", "0.0", "0.0", "0.0"]},
        ),
        "dist-float": (
            ["dist", "mol", "el", "--space", "space"], "float", "dist", {"dist": "0.47619047619047616"},
        ),
        "extend-float": (
            ["extend", "--space", "space", "--values", "vals", "--direction", "upper", "--lip", "3/2",
             "--shift-base"],
            "float", None, {"norm": "1.5", "values": ["0.0", "1.5", "3.0", "9.0"]},
        ),
        "slice-float": (
            ["slice", "--space", "space", "--function", "f", "--alpha", "1/3"], "float", None,
            {"alpha": "0.3333333333333333",
             "molecules": [
                 {"u": "3", "v": "0", "value": "0.7777777777777778"},
                 {"u": "3", "v": "1", "value": "1.0"},
                 {"u": "7", "v": "0", "value": "0.9047619047619048"},
                 {"u": "7", "v": "1", "value": "1.0"},
                 {"u": "7", "v": "3", "value": "1.0"},
             ]},
        ),
        "nearest-exact": (
            ["construct", "nearest", "--space", "space", "--sites", "0,3"], "exact", None,
            {"function": ["0", "1", "0", "4"], "norm": "1"},
        ),
        "nearest-float": (
            ["construct", "nearest", "--space", "space", "--sites", "0,3"], "float", None,
            {"function": ["0.0", "1.0", "0.0", "4.0"], "norm": "1.0"},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stdout_and_out_file(self, files, tmp_path, capsys, case):
        words, mode, bare, result = self.CASES[case]
        argv = [files.get(w, w) for w in words] + ["--mode", mode]
        assert main(argv) == 0
        expected = _envelope(mode, result)
        assert capsys.readouterr().out == (expected if bare is None else result[bare] + "\n")
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == expected

    def test_scan_dichotomy_csv_in_float_mode(self, files, tmp_path, capsys):
        argv = ["scan-dichotomy", "--space", files["space"], "--function", files["f"],
                "--eps-grid", "1/2,1/4,1/9", "--radius", "2", "--mode", "float"]
        table = (
            "eps,molecules,min_pair_distance,max_support_radius,small_pair_witness,escaping_witness\n"
            "0.5,5,2.0,7.0,0,1\n0.25,5,2.0,7.0,0,1\n0.1111111111111111,4,2.0,7.0,0,1\n"
        )
        assert main(argv) == 0
        assert capsys.readouterr().out == table
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == table

    def test_handler_is_looked_up_when_main_runs(self, files, monkeypatch, capsys):
        # a cli.cmd_* rebound after a first call (as the benchmark tracer
        # does) is the handler the next call runs
        import lipfree.cli as cli

        argv = ["dist", files["mol"], files["mol"], "--space", files["space"]]
        assert main(argv) == 0
        seen = []
        handler = cli.cmd_dist

        def wrapped(args):
            seen.append(args.command)
            return handler(args)

        monkeypatch.setattr(cli, "cmd_dist", wrapped)
        assert main(argv) == 0
        assert seen == ["dist"]
        assert capsys.readouterr().out == "0\n0\n"


class TestExtendAndSlice:
    def test_extend(self, space_file, tmp_path, capsys):
        values = tmp_path / "vals.json"
        values.write_text(json.dumps({"0": "0", "3": "3"}))
        assert main(["extend", "--space", space_file, "--values", str(values)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["norm"] == "1"

    def test_extend_rejects_bad_data(self, space_file, tmp_path, capsys):
        values = tmp_path / "vals.json"
        values.write_text(json.dumps({"0": "0", "1": "100"}))
        assert main(["extend", "--space", space_file, "--values", str(values)]) == 2
        values.write_text(json.dumps({"0": "0", "1": ["1"]}))
        assert main(["extend", "--space", space_file, "--values", str(values)]) == 2
        assert "'values'" in capsys.readouterr().err

    def test_slice_lists_molecules(self, space_file, tmp_path, capsys):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"values": ["0", "1", "3", "7"]}))
        assert main([
            "slice", "--space", space_file, "--function", str(fn), "--alpha", "1/2",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["result"]["molecules"]) > 0


class TestConstruct:
    def test_daugavet_stages(self, capsys):
        assert main(["construct", "daugavet", "--stages", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["result"]["stages"]) == 3
        assert all(s["ok"] for s in obj["result"]["stages"])

    def test_delta_hat(self, capsys):
        assert main(["construct", "delta-hat", "--pairs", "5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj["result"]["g"]) == {"2", "3", "4", "5"}

    def test_nearest(self, space_file, capsys):
        assert main([
            "construct", "nearest", "--space", space_file, "--sites", "0,7",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["function"][3] == "0"


class TestCertify:
    def test_small_certificate_passes(self, capsys):
        assert main([
            "certify", "example1", "--N", "8", "--n", "2", "--samples", "2",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["overall"] is True

    def test_failure_goes_to_stderr(self, capsys, monkeypatch, tmp_path):
        # an annuli battery run with samples=0 still passes; force a failure
        # through a tiny two-anchor search where stages are trivially found
        import lipfree.reproduce as reproduce
        from lipfree.reports import CertificateReport

        def fake(**kwargs):
            rep = CertificateReport(name="forced", parameters={})
            rep.add("forced failure", "x", {}, False)
            return rep

        monkeypatch.setattr(reproduce, "verify_example1", fake)
        assert main(["certify", "example1"]) == 1
        assert "certificate failed" in capsys.readouterr().err


class TestScanDichotomy:
    def test_csv_output(self, space_file, tmp_path, capsys):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"values": ["0", "1", "3", "7"]}))
        assert main([
            "scan-dichotomy", "--space", space_file, "--function", str(fn),
            "--eps-grid", "1/2,1/4", "--radius", "2",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("eps,molecules,")
        assert len(lines) == 3

    def test_json_output(self, space_file, tmp_path, capsys):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"values": ["0", "1", "3", "7"]}))
        assert main([
            "scan-dichotomy", "--space", space_file, "--function", str(fn),
            "--format", "json",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["result"]["overall"] is True


class TestDeterminism:
    def _run(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "lipfree.cli", *argv],
            capture_output=True,
            text=True,
        )

    def test_byte_identical_certificates(self):
        argv = ["certify", "example1", "--N", "8", "--n", "2",
                "--samples", "2", "--seed", "5"]
        a = self._run(argv)
        b = self._run(argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_module_entry_point(self, space_file, tmp_path):
        ok = self._module_run(["validate", space_file])
        assert ok.returncode == 0
        assert json.loads(ok.stdout)["result"]["ok"] is True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": ["a", "b", "c"], "base": 0,
                                   "d": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]}))
        assert self._module_run(["validate", str(bad)]).returncode == 1

    def _module_run(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "lipfree", *argv], capture_output=True, text=True
        )

    def test_entry_point_installed(self):
        res = subprocess.run(
            ["lipfree", "--help"], capture_output=True, text=True
        )
        assert res.returncode == 0
        assert "certify" in res.stdout
