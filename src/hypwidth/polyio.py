"""Polygon document format (JSON) and CSV serialization of scan rows.

A polygon document is a JSON object with a ``model`` ("hyperboloid", "klein"
or "poincare"), a ``vertices`` list of coordinate pairs (disk charts) or
triples (hyperboloid), and an optional ``metadata`` object.  Numbers are
emitted with 17 significant digits so emit/parse round-trips are exact.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GeometryError, NonConvex, SchemaError, TooFewVertices
from .extremal import ScanRow
from .hcore import (chart_rows_to_hyperboloid, chart_to_hyperboloid, hyperboloid_to_chart,
                    off_sheet)
from .polygon import ConvexPolygon, polygon_from_rows

MODELS = ("hyperboloid", "klein", "poincare")


@dataclass(frozen=True)
class PolygonFile:
    """Parsed polygon document before geometric validation."""

    model: str
    vertices: tuple[tuple[float, ...], ...]
    metadata: dict = field(default_factory=dict)


def parse_polygon_file(text: str) -> PolygonFile:
    """Parse and schema-check a polygon document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be a JSON object")
    unknown = set(doc) - {"model", "vertices", "metadata"}
    if unknown:
        raise SchemaError(f"unknown field(s): {', '.join(sorted(unknown))}")
    model = doc.get("model")
    if model not in MODELS:
        raise SchemaError(f"field 'model': expected one of {MODELS}, got {model!r}")
    verts = doc.get("vertices")
    if not isinstance(verts, list) or len(verts) == 0:
        raise SchemaError("field 'vertices': expected a non-empty list")
    width = 3 if model == "hyperboloid" else 2
    rows = []
    for i, row in enumerate(verts):
        # JSON numbers decode to exactly int or float, and true/false to bool.
        if type(row) is not list or len(row) != width or not set(map(type, row)) <= {int, float}:
            raise SchemaError(
                f"field 'vertices[{i}]': expected {width} numbers for model {model!r}")
        try:
            rows.append(tuple(map(float, row)))
        except OverflowError as exc:
            raise SchemaError(f"field 'vertices[{i}]': {exc}") from exc
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("field 'metadata': expected an object")
    return PolygonFile(model=model, vertices=tuple(rows), metadata=metadata)


def polygon_from_file(pf: PolygonFile) -> ConvexPolygon:
    """Lift a parsed document to a validated convex polygon.

    All rows lift at once.  When rows are off the upper sheet, a SchemaError
    names the first of them and carries HPoint's error for it.  A chart row
    outside the unit disk lifts off the sheet; that row alone is lifted again
    to give the unit-disk message instead.
    """
    rows = np.array(pf.vertices, dtype=float)
    m = rows if pf.model == "hyperboloid" else chart_rows_to_hyperboloid(rows, pf.model)
    try:
        return polygon_from_rows(m)
    except (NonConvex, TooFewVertices):
        raise
    except GeometryError as exc:  # HPoint's error for the first row off the sheet
        i = int(np.flatnonzero(off_sheet(m))[0])
        err = exc
        if pf.model != "hyperboloid":
            try:  # the same floats: raises the unit-disk error, or HPoint's again
                chart_to_hyperboloid(*pf.vertices[i], pf.model)
            except GeometryError as lift:
                err = lift
        raise SchemaError(f"field 'vertices[{i}]': {err}") from err


def parse_polygon(text: str) -> ConvexPolygon:
    """Parse a polygon document directly into a convex polygon."""
    return polygon_from_file(parse_polygon_file(text))


def _fmt(x: float) -> str:
    return f"{x + 0.0:.17g}"


def emit_polygon(V: ConvexPolygon, model: str = "klein", metadata: dict | None = None) -> str:
    """Serialize a polygon to its JSON document form."""
    if model not in MODELS:
        raise GeometryError(f"unknown model {model!r}, expected one of {MODELS}")
    m = V.vertex_matrix
    coords = m if model == "hyperboloid" else hyperboloid_to_chart(m, model)
    rows = ["[" + ", ".join(map(_fmt, r)) + "]" for r in coords.tolist()]
    parts = [f'{{"model": "{model}", "vertices": [' + ", ".join(rows) + "]"]
    if metadata:
        parts.append(', "metadata": ' + json.dumps(metadata, sort_keys=True))
    parts.append("}")
    return "".join(parts)


SCAN_CSV_HEADER = ("n", "delta", "polygon_id", "diameter", "ratio",
                   "perimeter", "area", "circumradius", "inradius")


def scan_rows_to_csv(rows: Sequence[ScanRow]) -> str:
    """RFC-4180 CSV for scan rows, with LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_CSV_HEADER)
    for r in rows:
        writer.writerow([int(r.n), repr(float(r.delta)), r.polygon_id,
                         repr(float(r.diameter)), repr(float(r.ratio)),
                         repr(float(r.perimeter)), repr(float(r.area)),
                         repr(float(r.circumradius)), repr(float(r.inradius))])
    return buf.getvalue()
