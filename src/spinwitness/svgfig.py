"""Self-contained SVG rendering of the entanglement region.

No plotting library: the figure is plain SVG primitives. Data geometry is
drawn inside a single translate+scale group, so the polygon and contour
coordinates stored in the file are literal (kT/|J|, B/|J|) values that a
test (or any consumer) can parse back and check numerically. Strokes carry
``vector-effect="non-scaling-stroke"`` to survive the non-uniform scale,
and no timestamp is embedded, so output bytes are stable for a given grid.
"""

from __future__ import annotations

import math

import numpy as np

from .model import SpecError
from .thermolimit import RegionGrid

_WIDTH, _HEIGHT = 640, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 78, 22, 34, 58

_REGION_FILL = "#9ecae1"
_CONTOUR_STROKE = "#1f4e79"
_AXIS_COLOR = "#222222"
_TITLE = "Entangled region: W > 1"


def _column_crossing(b_values: list[float], w_column: list[float]) -> float | None:
    """B where W crosses 1 in one kT column, by linear interpolation.

    Takes the column as Python floats. Returns None when the column is not
    entangled at its lowest field. Columns entangled across the whole
    sampled field range clamp to the top edge. NaN cells (failed
    quadrature) end the upward search.
    """
    if not (w_column[0] > 1.0):
        return None
    for i in range(len(b_values) - 1):
        lo, hi = w_column[i], w_column[i + 1]
        if math.isnan(hi):
            return b_values[i]
        if lo > 1.0 >= hi:
            if hi == lo:
                return b_values[i]
            frac = (lo - 1.0) / (lo - hi)
            return b_values[i] + frac * (b_values[i + 1] - b_values[i])
    return b_values[-1]


def region_geometry(grid: RegionGrid):
    """(polygon, contour) vertex lists in data coordinates.

    The contour is the interpolated W = 1 crossing per kT column; the
    polygon closes it along the bottom (lowest-B) grid edge, matching the
    region's physical shape: a single connected set attached to the
    low-temperature, low-field corner.
    """
    b_values = np.asarray(grid.b_over_j, dtype=float)
    kt_values = np.asarray(grid.kt_over_j, dtype=float)
    if b_values.size > 1 and not np.all(np.diff(b_values) > 0):
        raise SpecError("SVG rendering expects a strictly increasing B axis")
    if kt_values.size > 1 and not np.all(np.diff(kt_values) > 0):
        raise SpecError("SVG rendering expects a strictly increasing kT axis")

    b_list = b_values.tolist()
    contour = []
    for kt, column in zip(kt_values.tolist(), np.asarray(grid.w, dtype=float).T.tolist()):
        crossing = _column_crossing(b_list, column)
        if crossing is None:
            break
        contour.append((kt, crossing))
    if not contour:
        return [], []
    floor = b_list[0]
    polygon = [(contour[0][0], floor), *contour, (contour[-1][0], floor)]
    return polygon, contour


def _points_attr(points) -> str:
    return " ".join(f"{float(x)!r},{float(y)!r}" for x, y in points)


def _ticks(lo: float, hi: float, count: int = 5):
    if hi == lo:
        return [lo]
    return [float(v) for v in np.linspace(lo, hi, count)]


def render_region_svg(grid: RegionGrid) -> str:
    """Render the W > 1 region and the W = 1 contour to an SVG string."""
    kt_values = np.asarray(grid.kt_over_j, dtype=float)
    b_values = np.asarray(grid.b_over_j, dtype=float)
    kt_lo, kt_hi = float(kt_values[0]), float(kt_values[-1])
    b_lo, b_hi = float(b_values[0]), float(b_values[-1])
    kt_span = (kt_hi - kt_lo) or 1.0
    b_span = (b_hi - b_lo) or 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    sx = plot_w / kt_span
    sy = plot_h / b_span
    # (kt, b) -> (left + sx*(kt - kt_lo), top + sy*(b_hi - b))
    tx = _MARGIN_LEFT - sx * kt_lo
    ty = _MARGIN_TOP + sy * b_hi

    def to_px(kt, b):
        return _MARGIN_LEFT + sx * (kt - kt_lo), _MARGIN_TOP + sy * (b_hi - b)

    polygon, contour = region_geometry(grid)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="20" font-size="15" text-anchor="middle" '
        f'fill="{_AXIS_COLOR}">{_TITLE}</text>',
        f'<g id="data-space" transform="translate({tx!r},{ty!r}) scale({sx!r},{-sy!r})">',
        f'<polygon id="entangled-region" points="{_points_attr(polygon)}" '
        f'fill="{_REGION_FILL}" stroke="none"/>',
        f'<polyline id="witness-contour" points="{_points_attr(contour)}" fill="none" '
        f'stroke="{_CONTOUR_STROKE}" stroke-width="1.8" vector-effect="non-scaling-stroke"/>',
        '</g>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="{_AXIS_COLOR}"/>',
    ]

    for kt in _ticks(kt_lo, kt_hi):
        x, _ = to_px(kt, b_lo)
        parts.append(f'<line x1="{x!r}" y1="{_MARGIN_TOP + plot_h}" x2="{x!r}" '
                     f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="{_AXIS_COLOR}"/>')
        parts.append(f'<text x="{x!r}" y="{_MARGIN_TOP + plot_h + 19}" font-size="12" '
                     f'text-anchor="middle" fill="{_AXIS_COLOR}">{kt:.3g}</text>')
    for b in _ticks(b_lo, b_hi):
        _, y = to_px(kt_lo, b)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{y!r}" x2="{_MARGIN_LEFT}" '
                     f'y2="{y!r}" stroke="{_AXIS_COLOR}"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 9}" y="{y!r}" font-size="12" '
                     f'text-anchor="end" dominant-baseline="middle" '
                     f'fill="{_AXIS_COLOR}">{b:.3g}</text>')

    parts.append(f'<text id="x-axis-label" x="{_MARGIN_LEFT + plot_w / 2}" '
                 f'y="{_HEIGHT - 14}" font-size="14" text-anchor="middle" '
                 f'fill="{_AXIS_COLOR}">kT/|J|</text>')
    parts.append(f'<text id="y-axis-label" x="20" y="{_MARGIN_TOP + plot_h / 2}" '
                 f'font-size="14" text-anchor="middle" fill="{_AXIS_COLOR}" '
                 f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2})">B/|J|</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
