import numpy as np
import pytest

from cyldla.cylinder import sample_return_shape
from cyldla.dla import Cluster, _return_to_front, drop_particle, grow, is_boundary, new_cluster
from cyldla.graphs import add_self_loops, make_complete, make_cycle, parse_graph_spec
from cyldla.oracles import excursion_kernel, first_hit_distribution
from lawgate import draw_gate


def _law(graph, loops):
    """One step's probabilities as the negative control defines them: with
    D = d + loops, each neighbour 1/(D+2), and up and down each
    (2+loops)/(2(D+2)).  ``loops`` = 0 is the fair walk."""
    big_d = graph.d + loops
    return 1.0 / (big_d + 2), (2 + loops) / (2 * (big_d + 2))


def dense_first_hit(cluster, top, kernel=None, loops=0):
    """Reference: the start row of the dense hitting matrix solve(I - Q, R).

    With ``kernel`` the up move from layer ``top`` returns to that layer
    through the kernel's row; without it the top layer reflects (its up move
    is dropped), which is exact only in the limit of a high top.  The walk
    law is :func:`_law` at ``loops``.
    """
    n = cluster.graph.n
    side, vert = _law(cluster.graph, loops)
    transient, absorbing = [], []
    for z in range(1, top + 1):
        for g in range(n):
            if z < len(cluster.occ) and cluster.occ[z][g]:
                continue
            (absorbing if is_boundary(cluster, (g, z)) else transient).append((g, z))
    ti = {s: i for i, s in enumerate(transient)}
    ai = {s: i for i, s in enumerate(absorbing)}
    q = np.zeros((len(transient), len(transient)))
    r = np.zeros((len(transient), len(absorbing)))
    for (g, z), i in ti.items():
        moves = [((g, z - 1), vert)] + [((u, z), side) for u in cluster.graph.neighbors[g]]
        if z < top:
            moves.append(((g, z + 1), vert))
        elif kernel is not None:
            moves += [((h, z), vert * kernel[g, h]) for h in range(n)]
        total = 1.0 if z < top or kernel is not None else 1.0 - vert
        for s, weight in moves:
            if s in ti:
                q[i, ti[s]] += weight / total
            else:
                r[i, ai[s]] += weight / total
    hit = np.linalg.solve(np.eye(len(transient)) - q, r)
    start = np.zeros(len(absorbing))
    for g in range(n):
        s = (g, cluster.M)
        if s in ai:
            start[ai[s]] += 1.0 / n
        else:
            start += hit[ti[s]] / n
    return {s: float(p) for s, p in zip(absorbing, start) if p > 0.0}


def strip_kernel(graph, loops=0, height=60):
    """Reference K: first return to layer 0 from (g, 1) on an empty strip of
    layers 1..height with a reflecting top, by one dense solve, under the
    walk law :func:`_law` at ``loops``."""
    n = graph.n
    side, vert = _law(graph, loops)
    q = np.zeros((n * height, n * height))
    r = np.zeros((n * height, n))
    for z in range(height):  # state z * n + g is (g, z + 1)
        for g in range(n):
            i = z * n + g
            total = 1.0 if z < height - 1 else 1.0 - vert
            for u in graph.neighbors[g]:
                q[i, z * n + u] += side / total
            if z < height - 1:
                q[i, i + n] += vert / total
            if z > 0:
                q[i, i - n] += vert / total
            else:
                r[i, g] += vert / total
    return np.linalg.solve(np.eye(n * height) - q, r)[:n]


def _stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


GROWN = {
    "cycle:6": (make_cycle(6), 3),
    "torus:3x3": (parse_graph_spec("torus:3x3"), 4),
    "loops(cycle:6)": (add_self_loops(make_cycle(6)), 5),
}
# the two oracle-check states: spec, target layer, M, each grown from stream (7, k)
ORACLE_CHECK = {"cycle:16": (0, 12, 13), "random:40:3:seed=2": (1, 8, 9)}
# negative controls Cluster(base, vertical_loops=loops): base, loops, growth seed
CONTROLS = {
    f"control{loops}({spec})": (graph, loops, seed)
    for spec, graph, seed in (("cycle:6", make_cycle(6), 3), ("complete:4", make_complete(4), 6))
    for loops in (1, 2)
}
STATES = ["complete:3", *GROWN, *ORACLE_CHECK, *CONTROLS]


def _loops(label):
    return CONTROLS[label][1] if label in CONTROLS else 0


def _state(label):
    if label == "complete:3":
        c = new_cluster(make_complete(3))
        drop_particle(c, np.random.default_rng(14))
    elif label in GROWN:
        graph, seed = GROWN[label]
        c = new_cluster(graph)
        grow(c, np.random.default_rng(seed), particles=10)
    elif label in CONTROLS:
        graph, loops, seed = CONTROLS[label]
        c = Cluster(graph, vertical_loops=loops)
        grow(c, np.random.default_rng(seed), particles=10)
    else:
        k, layer, m = ORACLE_CHECK[label]
        c = new_cluster(parse_graph_spec(label))
        grow(c, _stream(7, k), target_layer=layer)
        assert c.M == m
    return c


def _max_gap(got, want):
    assert got.keys() == want.keys()
    return max(abs(got[s] - want[s]) for s in want)


@pytest.mark.parametrize("label", STATES)
def test_sparse_solve_matches_dense_reference(label):
    cluster = _state(label)
    loops = _loops(label)
    kernel = strip_kernel(cluster.graph, loops)
    t = cluster.M + 28
    for top in (cluster.M, cluster.M + 1, t, 2 * t):
        got = first_hit_distribution(cluster, top)
        assert _max_gap(got, dense_first_hit(cluster, top, kernel, loops)) < 1e-12
        assert abs(sum(got.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("label", STATES)
def test_exact_law_matches_the_reflecting_chain_at_a_high_top(label):
    cluster = _state(label)
    reflecting = dense_first_hit(cluster, 2 * (cluster.M + 28), loops=_loops(label))
    assert _max_gap(first_hit_distribution(cluster), reflecting) < 1e-9


# base and loops of the walk law, the fair walk at loops = 0 (q = 2/(d+2))
KERNEL_CASES = [
    ("complete:3", 0), ("cycle:6", 0), ("random:12:3:seed=2", 0),
    ("cycle:6", 1), ("complete:4", 2), ("random:12:3:seed=2", 5),
]


@pytest.mark.parametrize(
    "spec, loops", KERNEL_CASES, ids=[f"{s}+{k}loops" if k else s for s, k in KERNEL_CASES]
)
def test_excursion_kernel_is_the_strip_first_return_law(spec, loops):
    graph = parse_graph_spec(spec)
    k = excursion_kernel(graph, (2 + loops) / (graph.d + loops + 2))
    assert k.shape == (graph.n, graph.n)
    assert (k >= 0.0).all()
    assert np.abs(k.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(k - k.T).max() <= 1e-12
    assert np.abs(k - strip_kernel(graph, loops)).max() <= 1e-9


# bases of the return draw: lattice, hops then uniform (uniform_cut 330), eigen, complete
RETURN_BASES = ("cycle:16", "random:12:3:seed=2", "random:6:3:seed=0", "complete:5")


def _landings(spec, height, back=_return_to_front):
    """10,000 landings of ``back`` from vertex 0, ``height`` layers above an
    empty front, and row 0 of K^height."""
    cluster = new_cluster(parse_graph_spec(spec))
    rng = _stream(28, RETURN_BASES.index(spec) * 16 + height)
    landed = [back(cluster, 0, height, rng)[0] for _ in range(10_000)]
    kernel = excursion_kernel(cluster.graph, cluster.vertical_prob)
    return landed, np.linalg.matrix_power(kernel, height)[0]


def _skip_the_kernel(cluster, g, height, rng):
    """A faulty return that lands where the walk left, as if no same-layer move were taken."""
    v, gamma = sample_return_shape(rng, height, cluster.vertical_prob)
    return g, v + gamma


@pytest.mark.lawgate
@pytest.mark.parametrize("height", (1, 4, 10))
@pytest.mark.parametrize("spec", RETURN_BASES)
def test_return_lands_by_the_kernel_power(spec, height):
    """A walk ``height`` layers above an empty front first reaches it from
    vertex 0 at a vertex with law row 0 of K^height, K the excursion kernel.
    At height 4 the gate also rejects a return that skips the kernel, a
    fault that the drop-level gates on frozen states do not catch."""
    draw_gate(*_landings(spec, height), p_min=1e-4)
    if height == 4:
        with pytest.raises(AssertionError):
            draw_gate(*_landings(spec, height, _skip_the_kernel), p_min=1e-4)


def test_first_hit_at_workload_scale():
    # the dense reference would need about 7 GB at the highest top here
    c = new_cluster(parse_graph_spec("cycle:128"))
    grow(c, np.random.default_rng(5), target_layer=30)
    assert c.M == 31
    law = first_hit_distribution(c)
    assert abs(sum(law.values()) - 1.0) < 1e-9
    assert all(is_boundary(c, s) for s in law)
    for top in (c.M + 1, c.M + 28, 2 * (c.M + 28)):
        assert _max_gap(first_hit_distribution(c, top), law) < 1e-12


def test_closing_below_the_front_is_rejected():
    c = new_cluster(make_cycle(6))
    grow(c, np.random.default_rng(3), particles=10)
    for top in (1, c.M - 1):
        with pytest.raises(ValueError, match="closing layer"):
            first_hit_distribution(c, top)
