import numpy as np
import pytest

from cyldla import dla
from cyldla.graphs import make_cycle, make_torus, parse_graph_spec
from cyldla.render import BACKGROUND, BAR_COLOR, BASE_COLOR, _ramp, render_snapshot


def _snapshot(graph, particles, seed):
    c = dla.new_cluster(graph)
    if particles:
        dla.grow(c, np.random.default_rng(seed), particles=particles)
    return dla.SnapshotData(
        graph.label,
        graph.n,
        graph.d,
        c.t,
        c.M,
        tuple((layer, vertex) for _, vertex, layer in c.stick_log),
    )


def _parse_ppm(data):
    assert data.startswith(b"P6\n")
    header, rest = data.split(b"255\n", 1)
    w, h = (int(x) for x in header.split(b"\n")[1].split())
    pixels = np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)
    return w, h, pixels


def test_fresh_cluster_renders_single_bottom_row():
    snap = _snapshot(make_cycle(6), 0, 0)
    res = render_snapshot(snap, scale=1)
    assert res.style == "pixels" and res.fmt == "ppm"
    w, h, px = _parse_ppm(res.data)
    assert (w, h) == (6, 1)
    assert [tuple(p) for p in px[0]] == [BASE_COLOR] * 6


def test_pixel_render_dimensions_and_determinism():
    snap = _snapshot(make_cycle(6), 40, 1)
    a = render_snapshot(snap, scale=3)
    b = render_snapshot(snap, scale=3)
    assert a.data == b.data
    layers = max(layer for layer, _ in snap.sticks) + 1
    assert (a.width, a.height) == (18, layers * 3)
    w, h, px = _parse_ppm(a.data)
    # bottom row is the base layer, top row contains at least one stick color
    assert tuple(px[-1, 0]) == BASE_COLOR
    top = {tuple(p) for p in px[0]}
    assert top - {BACKGROUND}


def test_non_cycle_base_auto_bars_and_pixel_fallback():
    snap = _snapshot(make_torus(3, 2), 30, 2)
    auto = render_snapshot(snap)
    assert auto.style == "bars" and not auto.warnings
    forced = render_snapshot(snap, style="pixels")
    assert forced.style == "bars" and forced.warnings


def test_svg_output():
    snap = _snapshot(make_cycle(5), 20, 3)
    res = render_snapshot(snap, fmt="svg", scale=2)
    text = res.data.decode()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert text.count("<rect") > snap.t
    again = render_snapshot(snap, fmt="svg", scale=2)
    assert res.data == again.data


def test_bar_chart_reflects_loads():
    g = make_torus(3, 2)
    c = dla.synthetic_cluster(g, layer=2, count=9)
    sticks = tuple((layer, vertex) for _, vertex, layer in c.stick_log)
    snap = dla.SnapshotData(g.label, g.n, g.d, c.t, c.M, sticks)
    res = render_snapshot(snap, style="bars", scale=1)
    w, h, px = _parse_ppm(res.data)
    assert h == 3  # layers 0..2
    # full layers: every row fully filled
    assert not np.array_equal(px[0], np.broadcast_to(BACKGROUND, px[0].shape))


def test_render_rejects_bad_args():
    snap = _snapshot(make_cycle(4), 5, 4)
    with pytest.raises(ValueError):
        render_snapshot(snap, scale=0)
    with pytest.raises(ValueError):
        render_snapshot(snap, fmt="png")
    with pytest.raises(ValueError):
        render_snapshot(snap, style="dots")


def _per_pixel_ppm(snap, style, scale):
    # the pixmap written out one pixel at a time, straight from the entries:
    # the floor at order 0, then stick k at order k
    entries = [(0, v, 0) for v in range(snap.n)]
    entries += [(layer, vertex, k) for k, (layer, vertex) in enumerate(snap.sticks, start=1)]
    layers = max(layer for layer, _, _ in entries) + 1
    if style == "pixels":
        grid = {
            (vertex, layer): BASE_COLOR if order == 0 else _ramp(order, snap.t)
            for layer, vertex, order in entries
        }
        width = snap.n * scale

        def pixel_at(x, y):
            return grid.get((x // scale, layers - 1 - y // scale), BACKGROUND)

    else:
        loads = [0] * layers
        for layer, _, _ in entries:
            loads[layer] += 1
        width = 64 * scale
        fills = [round(width * load / snap.n) for load in loads]

        def pixel_at(x, y):
            layer = layers - 1 - y // scale
            if x < fills[layer]:
                return BASE_COLOR if layer == 0 else BAR_COLOR
            return BACKGROUND

    height = layers * scale
    pixels = bytearray()
    for y in range(height):
        for x in range(width):
            pixels.extend(pixel_at(x, y))
    return b"P6\n%d %d\n255\n" % (width, height) + bytes(pixels)


@pytest.mark.parametrize("scale", [1, 2, 3])
@pytest.mark.parametrize("spec, particles", [("cycle:16", 120), ("random:40:3:seed=2", 200)])
def test_row_renderer_matches_per_pixel_reference(spec, particles, scale):
    snap = _snapshot(parse_graph_spec(spec), particles, 5)
    for style in ("pixels", "bars"):
        res = render_snapshot(snap, style=style, scale=scale)
        # pixels on a non-cycle base fall back to bars
        assert res.data == _per_pixel_ppm(snap, res.style, scale)
