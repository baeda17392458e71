"""Independent oracles used to verify the simulator.

The first-hit oracle computes the exact sticking distribution of the next
particle on a fixed cluster from the absorbing chain on the cylinder
truncated at a reflecting top layer.  Only the start row of that chain's
hitting matrix is wanted, so it makes one sparse solve of the transposed
system; ``scipy.sparse`` is imported inside the solve, so importing this
module (and ``cyldla.verify``, which imports it) loads no scipy.  It shares no
code path with the walk simulation, so agreement between the two is a real
check.
"""
from __future__ import annotations

import numpy as np

from .dla import Cluster


def first_hit_distribution(cluster: Cluster, truncate_layer: int) -> dict[tuple[int, int], float]:
    """Exact stick distribution of the next particle, truncated at a layer.

    States above ``truncate_layer`` are removed and the top layer reflects
    (no up move there).  With Q the transient-to-transient and R the
    transient-to-boundary steps, and s the uniform start on layer M split
    into its transient part s_t and boundary part s_abs, the law is
    s_abs + Rᵀ y where (I − Q)ᵀ y = s_t: one sparse solve for the start row
    only, with y the expected visits to each transient state.  The walk mixes
    in the base during any long excursion, so the truncation error decays
    rapidly in the truncation height; callers should confirm stability by
    doubling it.
    """
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import spsolve

    graph = cluster.graph
    n = graph.n
    top = truncate_layer
    if top <= cluster.M:
        raise ValueError("truncation must lie above the lowest empty layer")
    held = min(len(cluster.occ), top + 2)
    occ = np.zeros((top + 2, n), dtype=bool)
    occ[:held] = np.frombuffer(b"".join(cluster.occ[:held]), dtype=np.uint8).reshape(held, n)
    nbrs = np.array(graph.neighbors, dtype=np.intp).reshape(n, graph.d)
    # layers 1..top; a loop neighbour is the free vertex itself, so it never touches
    layer = occ[1 : top + 1]
    touch = occ[:top] | occ[2:] | layer[:, nbrs].any(axis=2)
    free = ~layer
    transient = free & ~touch
    absorbing = free & touch
    nt, na = int(transient.sum()), int(absorbing.sum())
    t_index = np.full((top + 2, n), -1, dtype=np.intp)
    a_index = np.full((top + 2, n), -1, dtype=np.intp)
    t_index[1 : top + 1][transient] = np.arange(nt)
    a_index[1 : top + 1][absorbing] = np.arange(na)
    tz, tg = np.nonzero(transient)
    tz += 1
    # one row of options per transient state, in the order up, down, neighbours;
    # the top layer reflects, so its up option is dropped
    to_z = np.empty((nt, graph.d + 2), dtype=np.intp)
    to_g = np.empty_like(to_z)
    to_z[:, 0], to_z[:, 1], to_z[:, 2:] = tz + 1, tz - 1, tz[:, None]
    to_g[:, :2], to_g[:, 2:] = tg[:, None], nbrs[tg]
    valid = np.ones(to_z.shape, dtype=bool)
    valid[:, 0] = tz < top
    p = np.broadcast_to((1.0 / valid.sum(axis=1))[:, None], valid.shape)
    src = np.broadcast_to(np.arange(nt)[:, None], valid.shape)
    ti = t_index[to_z, to_g]
    ai = a_index[to_z, to_g]
    stray = valid & (ti < 0) & (ai < 0)
    if stray.any():
        i, k = np.argwhere(stray)[0]
        raise RuntimeError(
            f"transient state {(int(tg[i]), int(tz[i]))} leads to {(int(to_g[i, k]), int(to_z[i, k]))}, "
            "which is neither transient nor boundary; the cluster state is inconsistent"
        )
    to_q = valid & (ti >= 0)
    to_r = valid & (ai >= 0)
    q = coo_matrix((p[to_q], (src[to_q], ti[to_q])), shape=(nt, nt))
    r = coo_matrix((p[to_r], (src[to_r], ai[to_r])), shape=(nt, na))
    start_t = np.zeros(nt)
    start_abs = np.zeros(na)
    m_t, m_a = t_index[cluster.M], a_index[cluster.M]
    start_t[m_t[m_t >= 0]] = 1.0 / n
    start_abs[m_a[m_a >= 0]] = 1.0 / n
    visits = spsolve((identity(nt) - q).T.tocsc(), start_t)
    hit = start_abs + r.T @ visits
    az, ag = np.nonzero(absorbing)
    return {
        (int(g), int(z) + 1): float(v) for g, z, v in zip(ag, az, hit) if v > 0.0
    }


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
