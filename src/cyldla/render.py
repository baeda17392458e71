"""Static cluster rendering: portable pixmaps and SVG.

Cycle bases (d = 2) unroll to a vertex-by-layer pixel grid where each stuck
particle is colored by its stick order along a monotone cold-to-warm ramp,
so the growth history reads directly off the image.  Other bases fall back
to a per-layer load bar chart.  Output bytes are a pure function of the
snapshot and the style flags.  The renderer draws a snapshot as given;
``cyldla render`` first replays it on its graph with
:func:`cyldla.dla.cluster_from_snapshot`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dla import SnapshotData

BACKGROUND = (12, 12, 16)
BASE_COLOR = (110, 110, 118)
RAMP_FROM = (40, 90, 220)
RAMP_TO = (240, 220, 60)
BAR_COLOR = (70, 140, 210)
BAR_CELLS = 64  # width of a load bar chart, in cells of ``scale`` pixels


@dataclass(frozen=True)
class RenderResult:
    data: bytes
    width: int
    height: int
    style: str
    fmt: str
    warnings: tuple[str, ...]


def _ramp(order, total: int) -> np.ndarray:
    """Ramp colour at ``order / total`` as uint8 RGB; ``order`` may be an array of orders."""
    f = np.asarray(order)[..., None] / total
    start = np.array(RAMP_FROM)
    return np.rint(start + f * (np.array(RAMP_TO) - start)).astype(np.uint8)


def _ppm(layer_rows: np.ndarray, scale: int) -> bytes:
    """Binary pixmap from one row of RGB pixels per layer, top layer first.

    Each row already repeats every cell's colour ``scale`` times across; it
    is emitted ``scale`` times down.
    """
    height, width = len(layer_rows) * scale, layer_rows.shape[1]
    return b"".join((b"P6\n%d %d\n255\n" % (width, height), np.repeat(layer_rows, scale, axis=0)))


def _svg(width: int, height: int, rects) -> bytes:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" shape-rendering="crispEdges">',
        f'<rect width="{width}" height="{height}" fill="rgb{BACKGROUND}"/>',
    ]
    for x, y, w, h, color in rects:
        parts.append(
            f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="rgb{color}"/>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("ascii")


def render_snapshot(
    snap: SnapshotData,
    style: str = "auto",
    fmt: str = "ppm",
    scale: int = 4,
) -> RenderResult:
    """Render a cluster snapshot deterministically.

    ``style`` is ``pixels`` (cycle bases only), ``bars``, or ``auto`` which
    picks pixels exactly when d = 2.  Requesting pixels on a non-cycle base
    falls back to bars with a warning.  The floor is drawn from n and stick
    k takes the ramp colour at k / t, the last stick on a cell showing; the
    sticks are not checked against the sticking rule here, but the header's
    t must count them and each must lie in n x layers 0..t, since stick k
    lies at most at layer k (ValueError).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if fmt not in ("ppm", "svg"):
        raise ValueError(f"format must be 'ppm' or 'svg', got {fmt!r}")
    warnings: list[str] = []
    if style == "auto":
        style = "pixels" if snap.d == 2 else "bars"
    elif style == "pixels" and snap.d != 2:
        warnings.append("pixel style needs a cycle base (d=2); falling back to bars")
        style = "bars"
    if style not in ("pixels", "bars"):
        raise ValueError(f"style must be 'auto', 'pixels', or 'bars', got {style!r}")
    if snap.t != len(snap.sticks):
        raise ValueError(f"snapshot header has t={snap.t} but lists {len(snap.sticks)} sticks")
    layer, vertex = snap.columns
    if layer.size and (layer.min() < 0 or vertex.min() < 0 or vertex.max() >= snap.n):
        raise ValueError(f"snapshot has a stick outside n={snap.n} x layers >= 0")
    if layer.size and layer.max() > snap.t:
        raise ValueError(f"snapshot has a stick above layer t={snap.t}")
    layers = int(layer.max(initial=0)) + 1  # the full floor layer 0 up to the highest stick
    cells = layers * (snap.n if style == "pixels" else BAR_CELLS)
    if 3 * cells * scale * scale > np.iinfo(np.intp).max:
        raise ValueError(f"scale {scale} makes an image of {cells} cells too large for one array")
    if style == "pixels":
        data, width, height = _render_pixels(snap, layer, vertex, layers, fmt, scale)
    else:
        data, width, height = _render_bars(snap.n, layer, layers, fmt, scale)
    return RenderResult(data, width, height, style, fmt, tuple(warnings))


def _render_pixels(snap: SnapshotData, layer, vertex, layers: int, fmt: str, scale: int):
    width, height = snap.n * scale, layers * scale
    palette = np.vstack([BACKGROUND, BASE_COLOR, _ramp(np.arange(1, snap.t + 1), snap.t)]).astype(np.uint8)
    index = np.min_scalar_type(snap.t + 1)
    cell = np.zeros((layers, snap.n), dtype=index)  # palette index: 0 empty, 1 floor, k + 1 stick k
    cell[0] = 1
    np.maximum.at(cell, (layer, vertex), np.arange(2, snap.t + 2, dtype=index))  # the last stick on a cell wins
    if fmt == "ppm":
        return _ppm(np.repeat(palette[cell[::-1]], scale, axis=1), scale), width, height
    columns, rows = np.nonzero(cell.T)  # drawn cells by vertex, then layer
    rects = [
        (x, y, scale, scale, tuple(color))
        for x, y, color in zip(
            (columns * scale).tolist(),
            ((layers - 1 - rows) * scale).tolist(),
            palette[cell[rows, columns]].tolist(),
        )
    ]
    return _svg(width, height, rects), width, height


def _render_bars(n: int, layer, layers: int, fmt: str, scale: int):
    loads = np.bincount(layer, minlength=layers)
    loads[0] += n
    bar_width = BAR_CELLS * scale
    width, height = bar_width, layers * scale
    fills = np.rint(bar_width * loads / n).astype(np.int64)
    colors = np.array([BASE_COLOR] + [BAR_COLOR] * (layers - 1), dtype=np.uint8)
    if fmt == "ppm":
        lit = np.arange(bar_width) < fills[:, None]
        rows = np.where(lit[..., None], colors[:, None], np.array(BACKGROUND, dtype=np.uint8))
        return _ppm(rows[::-1], scale), width, height
    rects = [
        (0, (layers - 1 - z) * scale, fill, scale, BASE_COLOR if z == 0 else BAR_COLOR)
        for z, fill in enumerate(fills.tolist())
        if fill > 0
    ]
    return _svg(width, height, rects), width, height
