"""Independent oracles used to verify the simulator.

The first-hit oracle gives the exact sticking distribution of the next
particle on a fixed cluster: the absorbing chain on layers 1..M, closed at
the lowest empty layer M by the excursion kernel K, with one sparse solve
for its start row.  ``scipy.sparse`` is imported inside the solve, so
importing this module (and ``cyldla.verify``) loads no scipy.  It reads the
walk law from the cluster's slot table and shares no other code with the
walk simulation, so agreement between the two is a real check.
"""
from __future__ import annotations

import numpy as np

from . import spectral
from .dla import Cluster
from .graphs import RegularGraph

KERNEL_TOL = 1e-12


def excursion_kernel(g: RegularGraph, q: float) -> np.ndarray:
    """Law K[g, h] of the base vertex h at which a walk that steps up from
    vertex g of a layer, with nothing above it, first returns to that layer.

    A step is vertical with probability ``q``, up or down alike, and else
    moves to a uniform base neighbour.  So each vertical move follows a
    geometric number of base moves, h(P) = q (I - (1-q) P)^-1, and the
    vertical moves of the return have the first-passage generating function
    F(x) = (1 - sqrt(1 - x^2))/x, so K = U diag(F(h(w))) U^T.  With w = 1
    taken exactly and b = q/h(w) = q + (1-q)(1-w), F(h(w)) =
    q / (b + sqrt((1-q)(1-w)(b+q))) has no cancellation at its singularity.
    """
    w, u = g.walk_spectrum
    if abs(w[-1] - 1.0) > spectral.EIG_TOL:
        raise RuntimeError(f"top eigenvalue {w[-1]} of {g.label} differs from 1 beyond tolerance")
    gap = np.append(1.0 - w[:-1], 0.0)
    b = q + (1.0 - q) * gap
    k = (u * (q / (b + np.sqrt((1.0 - q) * gap * (b + q))))) @ u.T
    if not (np.all(k >= -KERNEL_TOL) and np.all(np.abs(k.sum(axis=1) - 1.0) <= KERNEL_TOL)):
        raise RuntimeError(f"excursion kernel of {g.label} is not stochastic within {KERNEL_TOL}")
    return np.maximum(k, 0.0)


def first_hit_distribution(cluster: Cluster, top: int | None = None) -> dict[tuple[int, int], float]:
    """Exact stick distribution of the next particle.

    The chain runs on layers 1..``top`` (default M, the smallest system; every
    ``top`` >= M gives the same law).  The walk law is the cluster's
    ``slot_table``, as for its walker: with c the count of each walker slot
    in it, a transient state moves up, down or to each neighbour with
    probability c[slot] / c.sum(), and the up option from layer ``top`` comes
    back to it through the state's row of :func:`excursion_kernel`.  With Q
    the transient-to-transient and R the transient-to-boundary steps, and s
    the uniform start on layer M split into s_t and s_abs, the law is
    s_abs + Rᵀ y where (I − Q)ᵀ y = s_t.
    """
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import spsolve

    graph = cluster.graph
    n, d = graph.n, graph.d
    top = cluster.M if top is None else top
    if top < cluster.M:
        raise ValueError("the closing layer must not lie below the lowest empty layer M")
    held = min(len(cluster.occ), top + 2)
    occ = np.zeros((top + 2, n), dtype=bool)
    occ[:held] = np.frombuffer(b"".join(cluster.occ[:held]), dtype=np.uint8).reshape(held, n)
    nbrs = np.array(graph.neighbors, dtype=np.intp).reshape(n, d)
    c = np.bincount(cluster.slot_table, minlength=d + 2)  # weight of each walker slot
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
    # the options as (source, layer, vertex, weight): down and the neighbours,
    # up from below the top, and up from the top back to it through K
    near_z = np.column_stack([tz - 1, np.repeat(tz[:, None], d, axis=1)])
    up, back = np.flatnonzero(tz < top), np.flatnonzero(tz == top)
    src = np.concatenate([np.repeat(np.arange(nt), d + 1), up, np.repeat(back, n)])
    to_z = np.concatenate([near_z.ravel(), tz[up] + 1, np.full(back.size * n, top)])
    near_g = np.column_stack([tg, nbrs[tg]])
    to_g = np.concatenate([near_g.ravel(), tg[up], np.tile(np.arange(n), back.size)])
    kernel_rows = excursion_kernel(graph, (c[0] + c[1]) / c.sum())[tg[back]].ravel()
    weight = np.concatenate([np.tile(c[1:], nt), np.full(up.size, c[0]), c[0] * kernel_rows]) / c.sum()
    ti = t_index[to_z, to_g]
    ai = a_index[to_z, to_g]
    stray = (ti < 0) & (ai < 0)
    if stray.any():
        i = int(np.flatnonzero(stray)[0])
        s = src[i]
        raise RuntimeError(
            f"transient state {(int(tg[s]), int(tz[s]))} leads to {(int(to_g[i]), int(to_z[i]))}, "
            "which is neither transient nor boundary; the cluster state is inconsistent"
        )
    to_q = ti >= 0
    to_r = ai >= 0
    q = coo_matrix((weight[to_q], (src[to_q], ti[to_q])), shape=(nt, nt))
    r = coo_matrix((weight[to_r], (src[to_r], ai[to_r])), shape=(nt, na))
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
