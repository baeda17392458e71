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

from . import dla
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
    if truncate_layer <= cluster.M:
        raise ValueError("truncation must lie above the lowest empty layer")
    transient_index: dict[tuple[int, int], int] = {}
    absorbing_index: dict[tuple[int, int], int] = {}
    for z in range(1, truncate_layer + 1):
        occ_row = cluster.occ[z] if z < len(cluster.occ) else None
        for g in range(n):
            if occ_row is not None and occ_row[g]:
                continue
            if dla.is_boundary(cluster, (g, z)):
                absorbing_index[(g, z)] = len(absorbing_index)
            else:
                transient_index[(g, z)] = len(transient_index)
    nt, na = len(transient_index), len(absorbing_index)
    q_from, q_to, q_p = [], [], []
    r_from, r_to, r_p = [], [], []
    for (g, z), i in transient_index.items():
        options = []
        if z < truncate_layer:
            options.append((g, z + 1))
        options.append((g, z - 1))
        for u in graph.neighbors[g]:
            options.append((u, z))
        p = 1.0 / len(options)
        for state in options:
            if state in transient_index:
                q_from.append(i)
                q_to.append(transient_index[state])
                q_p.append(p)
            elif state in absorbing_index:
                r_from.append(i)
                r_to.append(absorbing_index[state])
                r_p.append(p)
            else:
                raise RuntimeError(
                    f"transient state {(g, z)} leads to {state}, which is neither "
                    "transient nor boundary; the cluster state is inconsistent"
                )
    start_t = np.zeros(nt)
    start_abs = np.zeros(na)
    for g in range(n):
        state = (g, cluster.M)
        if state in absorbing_index:
            start_abs[absorbing_index[state]] += 1.0 / n
        else:
            start_t[transient_index[state]] += 1.0 / n
    q = coo_matrix((q_p, (q_from, q_to)), shape=(nt, nt))
    r = coo_matrix((r_p, (r_from, r_to)), shape=(nt, na))
    visits = spsolve((identity(nt) - q).T.tocsc(), start_t)
    hit = start_abs + r.T @ visits
    return {state: float(p) for state, p in zip(absorbing_index, hit) if p > 0.0}


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
