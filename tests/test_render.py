import hashlib

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


RENDER_DIGESTS = {
    ("pixels", "ppm", 1): "ade226ed920bef5a2dde6943d12000ee9452f837156ddd3139feebbb16ef066b",
    ("pixels", "ppm", 2): "53e89e411c9de3e6f9bad3acd5e423800f52df7acae7d3ddfea147737b82394f",
    ("pixels", "ppm", 4): "cedde661e82aa58ec8c855628bf3b6b6408d7ba9018782f790222b32e0c3119c",
    ("pixels", "svg", 1): "5667d79eccfa9bd9897a76c9572382ecf1e2d3bfa5b7c04294890cd9cf8bb06f",
    ("pixels", "svg", 2): "181f1a5f6fc042a0da3fb633514a1269f28cb8585d560daaf620726a229e4699",
    ("pixels", "svg", 4): "3df2511d5248a74ae5a8d781a2e814bb956cc950ad1b00abda169fe3356e0410",
    ("bars", "ppm", 1): "6f629c39d799fe1a2553ca21336e8d55a2c393b24e6a8f840d20a69e8de9b291",
    ("bars", "ppm", 2): "5aff656084802d904f86f10e499f0f7a3e4c8973413c1f4fd0ad127c48d6b0fe",
    ("bars", "ppm", 4): "2de1b90a6cc34606310737b00efa47c7d1922a0f1e91e352490b8430076915a0",
    ("bars", "svg", 1): "47bc7b7e75112ce867ba2599046bf74227b955e4cbb7382e0f13c7f6c653fcc2",
    ("bars", "svg", 2): "c85e17d7be44e806ce9b7608dba7cb35cb308a5d927994b4ea3cf347dce2780c",
    ("bars", "svg", 4): "a44e502f540bab6b2ef69fb99bc254ecbebe58c55d2d0c153bf4b4ce7d50fa56",
}


@pytest.mark.parametrize("style, fmt, scale", sorted(RENDER_DIGESTS))
def test_render_bytes_are_pinned(style, fmt, scale):
    # cycle:24 grown 250 particles from seed 7: M = 53, no wall
    snap = _snapshot(make_cycle(24), 250, 7)
    data = render_snapshot(snap, style=style, fmt=fmt, scale=scale).data
    assert hashlib.sha256(data).hexdigest() == RENDER_DIGESTS[style, fmt, scale]


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("ppm", "3ad454c2f65481b1f4f69590e5cddf8825e69e33f70dd496bef5d93543bd09a0"),
        ("svg", "7f66a7044d88f12299b8934a1e93f80fd24a7bcf11f019e36fc0ce6e1828ca6b"),
    ],
)
def test_snapshot_is_drawn_as_given_with_the_last_stick_on_top(fmt, digest):
    # a repeated cell and a stick on the floor: no replay would accept this
    snap = dla.SnapshotData("cycle:5", 5, 2, 4, 3, ((1, 0), (2, 4), (1, 0), (0, 3)))
    data = render_snapshot(snap, fmt=fmt, scale=1).data
    assert hashlib.sha256(data).hexdigest() == digest
    if fmt == "ppm":
        _, _, px = _parse_ppm(data)
        assert tuple(px[1, 0]) == tuple(_ramp(3, 4)) and tuple(px[2, 3]) == tuple(_ramp(4, 4))


@pytest.mark.parametrize("style", ["pixels", "bars"])
@pytest.mark.parametrize(
    "t, sticks, message",
    [
        (2, ((1, 0),), "snapshot header has t=2 but lists 1 sticks"),
        (1, ((1, 0), (2, 0)), "snapshot header has t=1 but lists 2 sticks"),
        (1, ((1, 5),), "snapshot has a stick outside n=5 x layers >= 0"),
        (1, ((-1, 0),), "snapshot has a stick outside n=5 x layers >= 0"),
        *((1, ((layer, 0),), "snapshot has a stick above layer t=1") for layer in (2, 2**63 - 1, 10**20)),
    ],
)
def test_render_refuses_a_snapshot_it_cannot_draw(style, t, sticks, message):
    snap = dla.SnapshotData("cycle:5", 5, 2, t, 2, sticks)
    with pytest.raises(ValueError, match=f"^{message}$"):
        render_snapshot(snap, style=style)


@pytest.mark.parametrize("layer", [2, 2**63 - 1, 10**20])
def test_render_refuses_a_loaded_stick_above_layer_t(tmp_path, layer):
    # stick k lies at most at layer k, and no grid is sized by a higher one
    path = tmp_path / "high.snap"
    path.write_text(f"cyldla v2 graph=cycle:8 n=8 d=2 t=1 M=2\n{layer} 0\n")
    with pytest.raises(ValueError, match="^snapshot has a stick above layer t=1$"):
        render_snapshot(dla.load_snapshot(path))
