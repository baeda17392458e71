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

from .dla import SnapshotData

BACKGROUND = (12, 12, 16)
BASE_COLOR = (110, 110, 118)
RAMP_FROM = (40, 90, 220)
RAMP_TO = (240, 220, 60)
BAR_COLOR = (70, 140, 210)


@dataclass(frozen=True)
class RenderResult:
    data: bytes
    width: int
    height: int
    style: str
    fmt: str
    warnings: tuple[str, ...]


def _ramp(order: int, total: int) -> tuple[int, int, int]:
    if total <= 0:
        return BASE_COLOR
    f = order / total
    return tuple(
        int(round(a + f * (b - a))) for a, b in zip(RAMP_FROM, RAMP_TO)
    )


def _ppm(width: int, height: int, layer_rows, scale: int) -> bytes:
    """Binary pixmap from one row of pixel bytes per layer, top layer first.

    Each row already repeats every cell's colour ``scale`` times across; it
    is emitted ``scale`` times down.
    """
    return b"P6\n%d %d\n255\n" % (width, height) + b"".join(row * scale for row in layer_rows)


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
    k takes the ramp colour at k / t; the sticks are not checked here.
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
    if style == "pixels":
        result = _render_pixels(snap, fmt, scale)
    elif style == "bars":
        result = _render_bars(snap, fmt, scale)
    else:
        raise ValueError(f"style must be 'auto', 'pixels', or 'bars', got {style!r}")
    data, width, height = result
    return RenderResult(data, width, height, style, fmt, tuple(warnings))


def _layer_count(snap: SnapshotData) -> int:
    """Layers drawn: the full floor layer 0 up to the highest stick."""
    return max((layer for layer, _ in snap.sticks), default=0) + 1


def _render_pixels(snap: SnapshotData, fmt: str, scale: int):
    layers = _layer_count(snap)
    width, height = snap.n * scale, layers * scale
    grid = {(vertex, 0): BASE_COLOR for vertex in range(snap.n)}
    for k, (layer, vertex) in enumerate(snap.sticks, start=1):
        grid[(vertex, layer)] = _ramp(k, snap.t)
    if fmt == "ppm":
        background = bytes(BACKGROUND) * scale
        cells = [[background] * snap.n for _ in range(layers)]
        for (vertex, layer), color in grid.items():
            cells[layer][vertex] = bytes(color) * scale
        rows = [b"".join(row) for row in reversed(cells)]
        return _ppm(width, height, rows, scale), width, height
    rects = [
        (vertex * scale, (layers - 1 - layer) * scale, scale, scale, color)
        for (vertex, layer), color in sorted(grid.items())
    ]
    return _svg(width, height, rects), width, height


def _render_bars(snap: SnapshotData, fmt: str, scale: int):
    layers = _layer_count(snap)
    loads = [snap.n] + [0] * (layers - 1)
    for layer, _ in snap.sticks:
        loads[layer] += 1
    bar_width = 64 * scale
    width, height = bar_width, layers * scale
    fills = [round(bar_width * load / snap.n) for load in loads]
    if fmt == "ppm":
        rows = []
        for layer in reversed(range(layers)):
            fill = min(fills[layer], bar_width)
            color = BASE_COLOR if layer == 0 else BAR_COLOR
            rows.append(bytes(color) * fill + bytes(BACKGROUND) * (bar_width - fill))
        return _ppm(width, height, rows, scale), width, height
    rects = [
        (0, (layers - 1 - layer) * scale, fills[layer], scale,
         BASE_COLOR if layer == 0 else BAR_COLOR)
        for layer in range(layers)
        if fills[layer] > 0
    ]
    return _svg(width, height, rects), width, height
