import numpy as np
import pytest

from cyldla.dla import drop_particle, grow, is_boundary, new_cluster
from cyldla.graphs import add_self_loops, make_complete, make_cycle, parse_graph_spec
from cyldla.oracles import first_hit_distribution, total_variation


def dense_first_hit(cluster, truncate_layer):
    """Reference: the start row of the dense hitting matrix solve(I - Q, R)."""
    n = cluster.graph.n
    transient, absorbing = [], []
    for z in range(1, truncate_layer + 1):
        for g in range(n):
            if z < len(cluster.occ) and cluster.occ[z][g]:
                continue
            (absorbing if is_boundary(cluster, (g, z)) else transient).append((g, z))
    ti = {s: i for i, s in enumerate(transient)}
    ai = {s: i for i, s in enumerate(absorbing)}
    q = np.zeros((len(transient), len(transient)))
    r = np.zeros((len(transient), len(absorbing)))
    for (g, z), i in ti.items():
        moves = ([(g, z + 1)] if z < truncate_layer else []) + [(g, z - 1)]
        moves += [(u, z) for u in cluster.graph.neighbors[g]]
        for s in moves:
            if s in ti:
                q[i, ti[s]] += 1.0 / len(moves)
            else:
                r[i, ai[s]] += 1.0 / len(moves)
    hit = np.linalg.solve(np.eye(len(transient)) - q, r)
    start = np.zeros(len(absorbing))
    for g in range(n):
        s = (g, cluster.M)
        if s in ai:
            start[ai[s]] += 1.0 / n
        else:
            start += hit[ti[s]] / n
    return {s: float(p) for s, p in zip(absorbing, start) if p > 0.0}


def _stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


GROWN = {
    "cycle:6": (make_cycle(6), 3),
    "torus:3x3": (parse_graph_spec("torus:3x3"), 4),
    "loops(cycle:6)": (add_self_loops(make_cycle(6)), 5),
}
# the two oracle-check states: spec, target layer, M, each grown from stream (7, k)
ORACLE_CHECK = {"cycle:16": (0, 12, 13), "random:40:3:seed=2": (1, 8, 9)}


def _state(label):
    if label == "complete:3":
        c = new_cluster(make_complete(3))
        drop_particle(c, np.random.default_rng(14))
    elif label in GROWN:
        graph, seed = GROWN[label]
        c = new_cluster(graph)
        grow(c, np.random.default_rng(seed), particles=10)
    else:
        k, layer, m = ORACLE_CHECK[label]
        c = new_cluster(parse_graph_spec(label))
        grow(c, _stream(7, k), target_layer=layer)
        assert c.M == m
    return c


@pytest.mark.parametrize("label", ["complete:3", *GROWN, *ORACLE_CHECK])
def test_sparse_solve_matches_dense_reference(label):
    cluster = _state(label)
    t = cluster.M + 28
    # Q is symmetric below the reflecting top layer, so only a low top can
    # tell (I - Q)^T from I - Q
    for truncate in (cluster.M + 1, t, 2 * t):
        got = first_hit_distribution(cluster, truncate)
        want = dense_first_hit(cluster, truncate)
        assert got.keys() == want.keys()
        assert max(abs(got[s] - want[s]) for s in want) < 1e-12
        assert abs(sum(got.values()) - 1.0) < 1e-12


def test_first_hit_at_workload_scale():
    # dense Q would need about 7 GB at 4T here
    c = new_cluster(parse_graph_spec("cycle:128"))
    grow(c, np.random.default_rng(5), target_layer=30)
    assert c.M == 31
    t = c.M + 28
    laws = [first_hit_distribution(c, k * t) for k in (1, 2, 4)]
    for law in laws:
        assert abs(sum(law.values()) - 1.0) < 1e-9
        assert all(is_boundary(c, s) for s in law)
    assert total_variation(laws[1], laws[2]) < total_variation(laws[0], laws[1])


def test_truncation_at_or_below_the_front_is_rejected():
    c = new_cluster(make_cycle(6))
    grow(c, np.random.default_rng(3), particles=10)
    for truncate in (c.M - 1, c.M):
        with pytest.raises(ValueError, match="truncation"):
            first_hit_distribution(c, truncate)
