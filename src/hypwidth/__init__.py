"""Width, thickness and reduced polygons in the hyperbolic plane.

The package works in the hyperboloid (Minkowski) model: points are unit
timelike vectors on the upper sheet, geodesic lines are unit spacelike
normals, and the Klein disk serves as the chart for convexity tests and
rendering.  The reduced-polygon solver works on the (x, y) coordinates of the
hyperboloid, which cover the whole plane.
"""

from .errors import (BracketFailure, EvenGon, GeometryError, LeftFamily,
                     NoConvergence, NonConvex, NotOrdinaryReduced,
                     NotSupporting, NumericalError, SchemaError,
                     TooFewVertices)
from .hcore import (HLine, HPoint, LineRelation, angle_at,
                    chart_to_hyperboloid, dist_pp, foot, geodesic_point,
                    hyperboloid_to_chart, line_relation, line_through, mink,
                    signed_dist)
from .polygon import ConvexPolygon, area, contains, make_polygon, perimeter, side_line
from .width import (ThicknessReport, WidthReport, diameter, diameter_via_width,
                    thickness, width_line, width_ultraparallel_oracle)
from .reduced import (HalvingRecord, HalvingReport, ReducednessReport,
                      VertexProjection, check_ordinary_reduced, diameter_bound,
                      diameter_within_bound, opposite_side, perimeter_halving,
                      regular_ngon, regular_ngon_with_thickness,
                      solve_ordinary_reduced)
from .extremal import ScanRow, circumdisk, indisk, ratio_scan, rhombus
from .polyio import PolygonFile, emit_polygon, parse_polygon, parse_polygon_file
from .render import RenderSpec, render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
