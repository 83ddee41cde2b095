import io
import json
import math
import warnings

import pytest

from hypwidth.cli import main
from hypwidth.polyio import SCAN_CSV_HEADER, emit_polygon, parse_polygon
from hypwidth.reduced import regular_apothem, regular_ngon


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(emit_polygon(regular_ngon(5, 1.0), model="klein"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHappyPaths:
    def test_width_side(self, capsys, pentagon_file):
        code, out = run(capsys, "width", "--input", pentagon_file, "--side", "0")
        assert code == 0
        doc = json.loads(out)
        expected = 1.0 + regular_apothem(5, 1.0)
        assert doc["width"] == pytest.approx(expected, abs=1e-10)

    def test_width_explicit_line(self, capsys, pentagon_file):
        # supporting line tangent to the pentagon at vertex 0
        line = f"{math.cosh(1.0)},0,{math.sinh(1.0)}"
        code, out = run(capsys, "width", "--input", pentagon_file, "--line", line)
        assert code == 0
        assert json.loads(out)["width"] > 0

    def test_thickness(self, capsys, pentagon_file):
        code, out = run(capsys, "thickness", "--input", pentagon_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["thickness"] == pytest.approx(1.0 + regular_apothem(5, 1.0), abs=1e-9)
        assert doc["achieved_on_side"] is not None

    def test_diameter(self, capsys, pentagon_file):
        code, out = run(capsys, "diameter", "--input", pentagon_file)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["pair"]) == 2

    def test_check_reduced(self, capsys, pentagon_file):
        code, out = run(capsys, "check-reduced", "--input", pentagon_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert len(doc["vertices"]) == 5

    def test_regular_by_thickness(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        code, _ = run(capsys, "regular", "--n", "3", "--thickness", "1.0",
                      "--output", str(out_path))
        assert code == 0
        V = parse_polygon(out_path.read_text())
        assert V.n == 3

    def test_solve_roundtrip(self, capsys, tmp_path, pentagon_file):
        code, out = run(capsys, "solve", "--seed", pentagon_file, "--delta",
                        str(1.0 + regular_apothem(5, 1.0)))
        assert code == 0
        V = parse_polygon(out)
        assert V.n == 5

    def test_verify_claims_on_input(self, capsys, pentagon_file):
        code, out = run(capsys, "verify", "--theorem", "claims",
                        "--input", pentagon_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["passed"] is True

    def test_verify_theorem3_default_corpus(self, capsys):
        code, out = run(capsys, "verify", "--theorem", "3", "--seed-rng", "1")
        assert code == 0
        doc = json.loads(out)
        assert all(r["passed"] for r in doc["results"])

    def test_verify_reducedness_on_input(self, capsys, pentagon_file):
        code, out = run(capsys, "verify", "--theorem", "1", "--input", pentagon_file)
        assert code == 0
        assert json.loads(out)["results"][0]["verdict"] is True

    def test_verify_halving_on_input(self, capsys, pentagon_file):
        code, out = run(capsys, "verify", "--theorem", "2", "--input", pentagon_file)
        assert code == 0
        assert json.loads(out)["results"][0]["passed"] is True

    def test_scan_csv(self, capsys):
        code, out = run(capsys, "scan", "--ns", "3", "--deltas", "0.5,1.0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(SCAN_CSV_HEADER)
        assert len(lines) == 3

    def test_scan_large_regular_row(self, capsys):
        code, out = run(capsys, "scan", "--ns", "1001", "--deltas", "1")
        assert code == 0
        header, row = (line.split(",") for line in out.strip().split("\n"))
        fields = dict(zip(header, row))
        assert fields["polygon_id"] == "regular-n1001-d1"
        R = float(fields["circumradius"])
        assert float(fields["inradius"]) == pytest.approx(regular_apothem(1001, R), abs=1e-9)

    def test_render_svg(self, capsys, tmp_path, pentagon_file):
        out_path = tmp_path / "p.svg"
        code, _ = run(capsys, "render", "--input", pentagon_file, "--chart",
                      "poincare", "--show-feet", "--output", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("<?xml")

    def test_line_relation(self, capsys):
        code, out = run(capsys, "line-relation", "--line1", "0,1,0",
                        "--line2", "1,0,0")
        assert code == 0
        assert json.loads(out)["kind"] == "intersecting"


class TestExitCodes:
    def test_validation_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model":"klein","vertices":[[0.4,0],[0,0.4],[-0.4,-0.4],[0.05,0]]}')
        code, _ = run(capsys, "thickness", "--input", str(bad))
        assert code == 2

    @pytest.mark.parametrize("command", ["thickness", "diameter"])
    def test_nan_vertex_is_2(self, capsys, tmp_path, command):
        bad = tmp_path / "nan.json"
        bad.write_text('{"model": "klein", "vertices": [[0.3, 0], [NaN, 0.26], [-0.15, -0.26]]}')
        code, out = run(capsys, command, "--input", str(bad))
        assert code == 2
        assert out == ""

    def test_schema_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _ = run(capsys, "diameter", "--input", str(bad))
        assert code == 2

    def test_numerical_failure_is_3(self, capsys, tmp_path, pentagon_file):
        # one iteration cannot reach the residual target from a far-off delta
        code, _ = run(capsys, "solve", "--seed", pentagon_file, "--delta", "2.5",
                      "--max-iterations", "1")
        assert code == 3

    def test_zero_iterations_on_converged_seed_is_0(self, capsys, pentagon_file):
        code, out = run(capsys, "solve", "--seed", pentagon_file, "--delta",
                        str(1.0 + regular_apothem(5, 1.0)), "--max-iterations", "0")
        assert code == 0
        assert parse_polygon(out).n == 5

    def test_infinite_delta_is_2(self, capsys, pentagon_file, caplog):
        code, out = run(capsys, "solve", "--seed", pentagon_file, "--delta", "inf")
        assert code == 2
        assert out == ""
        assert "must be positive and finite, got inf" in caplog.text

    def test_negative_iterations_is_2(self, capsys, pentagon_file):
        code, out = run(capsys, "solve", "--seed", pentagon_file, "--delta", "1",
                        "--max-iterations", "-1")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tolerance_is_2(self, capsys, pentagon_file, tol):
        code, out = run(capsys, "check-reduced", "--input", pentagon_file, "--tol", tol)
        assert code == 2
        assert out == ""

    def test_bracket_failure_is_3(self, capsys):
        code, _ = run(capsys, "regular", "--n", "3", "--thickness", "1e-7")
        assert code == 3

    def test_thickness_beyond_domain_is_2(self, capsys, caplog):
        code, out = run(capsys, "regular", "--n", "3", "--thickness", "400")
        assert code == 2
        assert out == ""
        assert "circumradius 399.45" in caplog.text

    @pytest.mark.parametrize("R", ["400", "800"])
    def test_overflowing_circumradius_is_2(self, capsys, caplog, R):
        code, out = run(capsys, "regular", "--n", "5", "--circumradius", R)
        assert code == 2
        assert out == ""
        assert f"circumradius {float(R)}" in caplog.text

    def test_overflowing_vertex_is_2(self, capsys, caplog, tmp_path):
        # The first row parses to (inf, 0, 1); x^2 + y^2 + t^2 overflows.
        bad = tmp_path / "inf.json"
        bad.write_text('{"model":"hyperboloid","vertices":[[1e400,0,1],'
                       '[0,0.5,1.118033988749895],[-0.5,0,1.118033988749895]]}')
        code, out = run(capsys, "thickness", "--input", str(bad))
        assert code == 2
        assert out == ""
        assert "field 'vertices[0]'" in caplog.text

    def test_overflowing_line_is_2_without_warning(self, capsys, pentagon_file):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "width", "--input", pentagon_file,
                            "--line", "1.3e154,0,1e154")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["thickness", "check-reduced"])
    def test_far_polygon_is_0_without_warning(self, capsys, tmp_path, command):
        # The squares of this pentagon's side-normal and foot rows overflow
        # float64 unless the rows are rescaled first.
        far = tmp_path / "far.json"
        far.write_text(emit_polygon(regular_ngon(5, 300.0), model="hyperboloid"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, command, "--input", str(far))
        assert code == 0
        doc = json.loads(out)
        expected = 300.0 + regular_apothem(5, 300.0)
        if command == "thickness":
            assert doc["thickness"] == pytest.approx(expected, rel=1e-13)
        else:
            assert doc["verdict"] is True
            assert doc["mean_distance"] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("line", ["1e200,0,1e200", "1e200,0,0", "nan,0,1"])
    def test_unspacelike_line_is_2(self, capsys, caplog, pentagon_file, line):
        # B(u,u) of the first line is inf - inf = NaN; all three name that fault.
        code, out = run(capsys, "width", "--input", pentagon_file, "--line", line)
        assert code == 2
        assert out == ""
        assert "validation error: vector is not spacelike" in caplog.text

    def test_negative_perturbations_is_2(self, capsys):
        code, out = run(capsys, "scan", "--ns", "5", "--deltas", "1",
                        "--perturbations", "-1")
        assert code == 2
        assert out == ""

    def test_io_error_is_4(self, capsys):
        code, _ = run(capsys, "width", "--input", "/nonexistent/poly.json",
                      "--side", "0")
        assert code == 4

    def test_conflicting_flags_is_2(self, capsys, pentagon_file):
        code, _ = run(capsys, "width", "--input", pentagon_file)
        assert code == 2


class TestInputErrors:
    """Each validation error exits 2, prints nothing and logs its exact text."""

    def assert_rejected(self, capsys, caplog, argv, text):
        code, out = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"validation error: {text}\n" in caplog.text

    def test_stdin_input(self, capsys, monkeypatch, pentagon_file):
        with open(pentagon_file) as fh:
            monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
        from_stdin = run(capsys, "thickness", "--input", "-")
        assert from_stdin[0] == 0
        assert from_stdin == run(capsys, "thickness", "--input", pentagon_file)

    @pytest.mark.parametrize("doc, text", [
        ("[]", "document root must be a JSON object"),
        ('{"model": "klein", "vertices": []}', "field 'vertices': expected a non-empty list"),
        ('{"model": "klein", "vertices": [[0.3, 0], [-0.15, 0.26], [-0.15, -0.26]], '
         '"metadata": 1}', "field 'metadata': expected an object"),
    ])
    def test_document_shape_on_stdin(self, capsys, caplog, monkeypatch, doc, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        self.assert_rejected(capsys, caplog, ["thickness", "--input", "-"], text)

    def test_short_line(self, capsys, caplog, pentagon_file):
        self.assert_rejected(capsys, caplog,
                             ["width", "--input", pentagon_file, "--line", "1,2"],
                             "expected --line as 'ux,uy,ut'")

    @pytest.mark.parametrize("sizes", [[], ["--thickness", "1", "--circumradius", "1"]])
    def test_regular_needs_one_size(self, capsys, caplog, sizes):
        self.assert_rejected(capsys, caplog, ["regular", "--n", "5", *sizes],
                             "give exactly one of --thickness or --circumradius")

    @pytest.mark.parametrize("n, thickness, text", [
        ("5", "0", "thickness must be positive and finite, got 0.0"),
        ("4", "1", "regular construction requires an odd n >= 3, got n = 4"),
    ])
    def test_regular_thickness_rejected(self, capsys, caplog, n, thickness, text):
        self.assert_rejected(capsys, caplog, ["regular", "--n", n, "--thickness", thickness],
                             text)
