import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyldla.graphs import (
    add_self_loops,
    bipartite,
    edge_list_lines,
    make_complete,
    make_cycle,
    make_hypercube,
    make_random_regular,
    make_torus,
    parse_graph_spec,
    validate,
)


def test_cycle_smallest():
    g = make_cycle(3)
    assert set(g.neighbors[0]) == {1, 2}
    assert g.d == 2 and g.transitive_hint


def test_cycle_500():
    g = make_cycle(500)
    assert g.d == 2 and g.n == 500 and g.transitive_hint
    assert validate(g).passed


def test_cycle_symmetry():
    assert set(make_cycle(4).neighbors[1]) == {0, 2}


def test_cycle_rejects_small():
    with pytest.raises(ValueError):
        make_cycle(2)


def test_torus_counts():
    g = make_torus(3, 2)
    assert g.n == 9 and g.d == 4
    g = make_torus(4, 3)
    assert g.n == 64 and g.d == 6


def test_torus_dim1_is_cycle():
    t = make_torus(3, 1)
    c = make_cycle(3)
    assert [set(r) for r in t.neighbors] == [set(r) for r in c.neighbors]


def test_torus_rejects_side2():
    with pytest.raises(ValueError):
        make_torus(2, 2)


def test_complete():
    g = make_complete(4)
    assert g.d == 3 and set(g.neighbors[0]) == {1, 2, 3}
    assert [set(r) for r in make_complete(3).neighbors] == [
        set(r) for r in make_cycle(3).neighbors
    ]
    g10 = make_complete(10)
    for v, row in enumerate(g10.neighbors):
        assert len(set(row)) == 9 and v not in row


def test_hypercube():
    q2 = make_hypercube(2)
    # Q_2 is a 4-cycle: 2-regular, connected, 4 vertices
    assert q2.n == 4 and q2.d == 2 and validate(q2).passed
    q3 = make_hypercube(3)
    assert q3.n == 8 and q3.d == 3
    # bipartite: every edge joins labels of opposite parity
    for v in range(8):
        for u in q3.neighbors[v]:
            assert bin(v).count("1") % 2 != bin(u).count("1") % 2


@pytest.mark.parametrize(
    "spec", ["cycle:8", "cycle:9", "torus:4x4", "torus:3x3", "hypercube:3", "complete:4",
             "random:6:3:seed=0", "random:12:3:seed=2"]
)
def test_bipartite_is_a_smallest_eigenvalue_of_minus_one(spec):
    g = parse_graph_spec(spec)
    # a raw eigh, since walk_spectrum takes its -1 from the colouring itself
    assert bipartite(g) == (np.linalg.eigvalsh(g.transition_matrix())[0] <= -1.0 + 1e-9)
    assert not bipartite(add_self_loops(g))  # a loop slot is an odd cycle


def test_random_regular_valid_and_reproducible():
    a = make_random_regular(10, 3, seed=1)
    b = make_random_regular(10, 3, seed=1)
    assert validate(a).passed
    assert a.neighbors == b.neighbors
    c = make_random_regular(10, 3, seed=2)
    assert c.neighbors != a.neighbors or c.label != a.label


def test_random_regular_parity_rejected():
    with pytest.raises(ValueError):
        make_random_regular(5, 3, seed=1)


def test_random_regular_that_pairing_cannot_build_is_a_configuration_error():
    # 8-regular on 10 vertices: nearly every matching has a loop or a multi-edge
    with pytest.raises(ValueError, match="pairing-model sampling failed after"):
        make_random_regular(10, 8, seed=1)
    with pytest.raises(ValueError, match="bad graph spec 'random:10:8:seed=1'"):
        parse_graph_spec("random:10:8:seed=1")


@pytest.mark.parametrize(
    "g",
    [
        make_cycle(7),
        make_torus(3, 2),
        make_complete(5),
        make_hypercube(3),
        make_random_regular(20, 3, 5),
        add_self_loops(make_random_regular(20, 3, 5)),
    ],
    ids=lambda g: g.label,
)
def test_rows_hold_python_ints(g):
    # the walker indexes rows and sticking-map bytes with these entries
    assert all(type(u) is int for row in g.neighbors for u in row)


def test_random_regular_k4_degrees():
    g = make_random_regular(4, 3, seed=0)
    # only simple 3-regular graph on 4 vertices is K_4
    assert [set(r) for r in g.neighbors] == [set(r) for r in make_complete(4).neighbors]


def test_add_self_loops():
    g = add_self_loops(make_cycle(3))
    for v, row in enumerate(g.neighbors):
        assert set(row) == {(v - 1) % 3, (v + 1) % 3, v}
    assert g.d == 3
    twice = add_self_loops(g)
    assert twice.d == 4
    assert all(row.count(v) == 2 for v, row in enumerate(twice.neighbors))
    assert validate(twice).passed


def test_validate_catches_broken_symmetry():
    from cyldla.graphs import RegularGraph

    g = RegularGraph(3, 2, ((1, 2), (0, 0), (0, 0)), "broken")
    diag = validate(g)
    assert not diag.symmetric and not diag.passed


def test_validate_catches_disconnection():
    from cyldla.graphs import RegularGraph

    two_triangles = tuple(
        tuple((v + delta) % 3 + 3 * (v // 3) for delta in (1, 2)) for v in range(6)
    )
    g = RegularGraph(6, 2, two_triangles, "2xK3")
    diag = validate(g)
    assert diag.regular and diag.symmetric and not diag.connected


def test_parse_graph_spec():
    assert parse_graph_spec("cycle:500").n == 500
    assert parse_graph_spec("torus:3x3").d == 4
    assert parse_graph_spec("complete:64").d == 63
    assert parse_graph_spec("hypercube:6").n == 64
    g = parse_graph_spec("random:100:4:seed=7")
    assert g.n == 100 and g.d == 4
    for bad in ("nosuch:3", "torus:3x4", "cycle:2", "random:10:3", "cycle:x"):
        with pytest.raises(ValueError):
            parse_graph_spec(bad)


@pytest.mark.parametrize(
    "g",
    [
        make_cycle(9),
        make_torus(4, 2),
        make_torus(3, 3),
        make_hypercube(4),
        make_complete(6),
        make_random_regular(20, 3, 5),
    ],
    ids=lambda g: g.label,
)
def test_label_parses_back_to_the_same_graph(g):
    # a snapshot names its base graph by label, and render rebuilds it from that
    again = parse_graph_spec(g.label)
    assert (again.n, again.d, again.neighbors, again.lattice) == (g.n, g.d, g.neighbors, g.lattice)
    assert again.label == g.label


def test_edge_list_round_numbers():
    g = make_cycle(4)
    lines = edge_list_lines(g)
    assert len(lines) == 4  # 4 edges
    gl = add_self_loops(g)
    lines = edge_list_lines(gl)
    assert lines.count("0 0") == 1 and len(lines) == 8


@settings(max_examples=25)
@given(n=st.integers(min_value=3, max_value=60))
def test_generators_always_validate_cycle(n):
    assert validate(make_cycle(n)).passed


@settings(max_examples=15)
@given(side=st.integers(min_value=3, max_value=5), dim=st.integers(min_value=1, max_value=3))
def test_generators_always_validate_torus(side, dim):
    g = make_torus(side, dim)
    assert validate(g).passed and g.n == side**dim


@settings(max_examples=15)
@given(n=st.integers(min_value=3, max_value=20))
def test_loops_preserve_validation(n):
    g = add_self_loops(make_complete(n))
    assert validate(g).passed


@pytest.mark.parametrize(
    "g",
    [
        make_cycle(3), make_cycle(10), make_torus(3, 3), make_torus(4, 2), make_torus(5, 1),
        make_hypercube(4),
    ],
    ids=lambda g: g.label,
)
def test_lattice_descriptor_matches_neighbor_slots(g):
    sides, steps = g.lattice
    assert len(steps) == g.d and all(len(step) == len(sides) for step in steps)
    strides = [1]
    for side in sides[:-1]:
        strides.append(strides[-1] * side)
    for v in range(g.n):
        coords = [v // stride % side for stride, side in zip(strides, sides)]
        for s, step in enumerate(steps):
            moved = [(c + dc) % side for c, dc, side in zip(coords, step, sides)]
            assert sum(c * stride for c, stride in zip(moved, strides)) == g.neighbors[v][s]


def test_lattice_slot_order_is_pinned():
    # the walker and the stream read slots by position, so their order is part of the output
    assert make_cycle(4).neighbors == ((3, 1), (0, 2), (1, 3), (2, 0))
    assert make_hypercube(2).neighbors == ((1, 2), (0, 3), (3, 0), (2, 1))
    torus = make_torus(3, 2)
    assert (torus.neighbors[0], torus.neighbors[4]) == ((2, 1, 6, 3), (3, 5, 1, 7))


def test_only_lattice_constructors_set_a_lattice():
    assert make_torus(5, 2).lattice == ((5, 5), ((-1, 0), (1, 0), (0, -1), (0, 1)))
    assert make_hypercube(2).lattice == ((2, 2), ((1, 0), (0, 1)))
    assert add_self_loops(make_cycle(6)).lattice is None
    assert make_complete(5).lattice is None
    assert make_random_regular(12, 3, seed=2).lattice is None
