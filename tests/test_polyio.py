import json
import warnings

import numpy as np
import pytest

from hypwidth.errors import GeometryError, NonConvex, SchemaError
from hypwidth.extremal import ScanRow
from hypwidth.hcore import HPoint, chart_to_hyperboloid
from hypwidth.polygon import make_polygon
from hypwidth.polyio import (MODELS, SCAN_CSV_HEADER, emit_polygon, parse_polygon,
                             parse_polygon_file, polygon_from_file,
                             scan_rows_to_csv)
from hypwidth.reduced import regular_ngon
from polygon_families import jittered_circle_polygon, random_convex_polygon


class TestParse:
    def test_symmetric_klein_triangle(self):
        V = parse_polygon('{"model":"klein","vertices":[[0.3,0],[-0.15,0.26],[-0.15,-0.26]]}')
        assert V.n == 3

    def test_clockwise_normalized(self):
        ccw = parse_polygon('{"model":"klein","vertices":[[0.3,0],[-0.15,0.26],[-0.15,-0.26]]}')
        cw = parse_polygon('{"model":"klein","vertices":[[0.3,0],[-0.15,-0.26],[-0.15,0.26]]}')
        k = cw.klein
        area2 = float(np.sum(k[:, 0] * np.roll(k[:, 1], -1) - np.roll(k[:, 0], -1) * k[:, 1]))
        assert area2 > 0
        assert {tuple(np.round(r, 12)) for r in ccw.klein} == \
               {tuple(np.round(r, 12)) for r in cw.klein}

    def test_outside_disk_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_polygon('{"model":"poincare","vertices":[[0.9,0.9],[0,0.1],[0.1,0]]}')
        assert "vertices[0]" in str(exc.value)

    def test_integer_beyond_float_range_rejected(self):
        huge = "1" * 400
        with pytest.raises(SchemaError) as exc:
            parse_polygon_file('{"model":"klein","vertices":[[0.3,0],[' + huge
                               + ',0.26],[-0.15,-0.26]]}')
        assert "vertices[1]" in str(exc.value)

    @pytest.mark.parametrize("model, rows, text", [
        ("klein", "[[0.3,0],[0.9,0.9],[2,0]]",
         "field 'vertices[1]': chart coordinates outside the unit disk: r^2 = 1.62"),
        ("poincare", "[[0.3,0],[0.1,0.1],[0.6,0.8]]",
         "field 'vertices[2]': chart coordinates outside the unit disk: "
         "r^2 = 1.0"),
        ("klein", "[[0.3,0],[1e200,0],[0.1,0.1]]",
         "field 'vertices[1]': chart coordinates outside the unit disk: r^2 = inf"),
        ("poincare", "[[0.3,0],[-Infinity,0],[0.1,0.1]]",
         "field 'vertices[1]': chart coordinates outside the unit disk: r^2 = inf"),
        ("klein", "[[0.3,0],[0.1,NaN],[2,0]]",
         "field 'vertices[1]': point not on the unit hyperboloid: B(p,p)+1 = nan"),
        ("poincare", "[[0.3,0],[2,0],[0.1,NaN]]",
         "field 'vertices[1]': chart coordinates outside the unit disk: r^2 = 4.0"),
        ("hyperboloid", "[[0,0,1],[0.5,0,1],[0,0,-1]]",
         "field 'vertices[1]': point not on the unit hyperboloid: B(p,p)+1 = 2.500e-01"),
        ("hyperboloid", "[[0,0,1],[0,0,-1],[0.5,0,1]]",
         "field 'vertices[1]': point on the lower sheet (t <= 0)"),
        ("klein", "[[0.3,0],[0.1,\"a\"],[2,0]]",
         "field 'vertices[1]': expected 2 numbers for model 'klein'"),
        ("klein", "[[0.3,0],[0.1,0.2],[0.1,0.2,0.3]]",
         "field 'vertices[2]': expected 2 numbers for model 'klein'"),
        ("poincare", "[[0.3,0],[0.1,0.2],[true,0.3]]",
         "field 'vertices[2]': expected 2 numbers for model 'poincare'"),
        ("klein", "[[0.3,0],[0.1,0.2],[1" + "0" * 400 + ",0.3]]",
         "field 'vertices[2]': int too large to convert to float"),
    ])
    def test_first_bad_vertex_named(self, model, rows, text):
        doc = '{"model":"%s","vertices":%s}' % (model, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError) as exc:
                parse_polygon(doc)
        assert str(exc.value) == text

    def test_bad_json_reports_line(self):
        with pytest.raises(SchemaError) as exc:
            parse_polygon('{"model": "klein",\n "vertices": [[0.1, ]]}')
        assert "line 2" in str(exc.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            parse_polygon('{"model":"klein","vertices":[[0,0.1],[0.1,0],[0,0]],"color":"red"}')

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            parse_polygon('{"model":"klein","vertices":[[0.1,0,0],[0,0.1,0],[0,0,1]]}')

    def test_bad_model_rejected(self):
        with pytest.raises(SchemaError):
            parse_polygon('{"model":"halfplane","vertices":[[0.1,0],[0,0.1],[0,0]]}')

    def test_nonconvex_propagates(self):
        with pytest.raises(NonConvex):
            parse_polygon('{"model":"klein","vertices":'
                          '[[0.4,0],[0,0.4],[-0.4,-0.4],[0.05,0]]}')

    @pytest.mark.parametrize("doc, text", [
        ('[[0.3, 0], [-0.15, 0.26], [-0.15, -0.26]]', "document root must be a JSON object"),
        ('{"model": "klein", "vertices": []}', "field 'vertices': expected a non-empty list"),
        ('{"model": "klein", "vertices": [[0.3, 0], [-0.15, 0.26], [-0.15, -0.26]], '
         '"metadata": ["t"]}', "field 'metadata': expected an object"),
    ])
    def test_document_shape_rejected(self, doc, text):
        with pytest.raises(SchemaError) as exc:
            parse_polygon(doc)
        assert str(exc.value) == text

    def test_metadata_kept(self):
        pf = parse_polygon_file('{"model":"klein","vertices":[[0.3,0],[-0.15,0.26],'
                                '[-0.15,-0.26]],"metadata":{"name":"t"}}')
        assert pf.metadata == {"name": "t"}
        assert polygon_from_file(pf).n == 3


class TestLiftBytes:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("model", MODELS)
    def test_same_vertex_bytes_as_point_path(self, model, reverse):
        rng = np.random.default_rng(31)
        polys = [regular_ngon(7, 1.1), regular_ngon(101, 2.0)]
        polys += [random_convex_polygon(rng, int(rng.integers(3, 12))) for _ in range(10)]
        polys += [jittered_circle_polygon(rng, 25, 1.5, 2.0) for _ in range(3)]
        for V in polys:
            rows = json.loads(emit_polygon(V, model=model))["vertices"]
            rows = rows[::-1] if reverse else rows
            W = parse_polygon(json.dumps({"model": model, "vertices": rows}))
            if model == "hyperboloid":
                ref = make_polygon(HPoint(*r) for r in rows)
            else:
                ref = make_polygon(chart_to_hyperboloid(x, y, model) for x, y in rows)
            assert W.vertex_matrix.tobytes() == ref.vertex_matrix.tobytes()
            assert W == ref
            assert hash(W) == hash(ref)


class TestEmit:
    @pytest.mark.parametrize("model", ["hyperboloid", "klein", "poincare"])
    def test_round_trip_exact(self, model):
        V = regular_ngon(7, 1.1)
        W = parse_polygon(emit_polygon(V, model=model))
        for a, b in zip(V.vertices, W.vertices):
            assert abs(a.x - b.x) < 1e-12
            assert abs(a.y - b.y) < 1e-12
            assert abs(a.t - b.t) < 1e-12

    def test_emit_is_valid_json_with_metadata(self):
        V = regular_ngon(3, 0.5)
        doc = json.loads(emit_polygon(V, model="klein", metadata={"name": "tri"}))
        assert doc["model"] == "klein"
        assert doc["metadata"] == {"name": "tri"}
        assert len(doc["vertices"]) == 3

    def test_unknown_model_rejected(self):
        with pytest.raises(GeometryError) as exc:
            emit_polygon(regular_ngon(3, 0.5), model="halfplane")
        assert type(exc.value) is GeometryError
        assert str(exc.value) == ("unknown model 'halfplane', expected one of "
                                  "('hyperboloid', 'klein', 'poincare')")

    def test_seventeen_digit_floats(self):
        V = regular_ngon(3, 1.0)
        text = emit_polygon(V, model="hyperboloid")
        assert "1.1752011936438014" in text  # sinh(1) round-trips


class TestScanCsv:
    def test_header_and_shape(self):
        rows = [ScanRow(n=3, delta=1.0, polygon_id="regular-n3-d1", diameter=1.2,
                        ratio=1.2, perimeter=3.9, area=0.5, circumradius=0.7,
                        inradius=0.4)]
        text = scan_rows_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == ",".join(SCAN_CSV_HEADER)
        assert lines[1].startswith("3,1.0,regular-n3-d1,1.2,")
        assert text.endswith("\n")
        assert "\r" not in text
