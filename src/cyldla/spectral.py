"""Transition-matrix spectra, lazy mixing times, and path-count bounds."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import RegularGraph, bipartite, lattice_coords
from .stats import BoundCheck, EstimateSummary

EIG_TOL = 1e-9
PATH_BOUND_RTOL = 1e-9
MIN_ENTRY_SLACK = 1e-12


@dataclass(frozen=True)
class SpectralProfile:
    """Spectrum of the uniform-slot walk P = A/d on one graph.

    ``eigenvalues`` is the full spectrum in descending order.  ``lam`` is
    the largest absolute eigenvalue after removing one copy of the top
    eigenvalue 1, so bipartite graphs report lam = 1 and gap = 0 exactly.
    Bipartiteness is read from the graph's two-colouring
    (:func:`graphs.bipartite`), never from a rounded eigenvalue.
    """

    n: int
    d: int
    eigenvalues: tuple[float, ...]
    lam: float
    gap: float


def eigen_profile(g: RegularGraph) -> SpectralProfile:
    """Full spectrum of P = A/d, exact at every size.

    Lattice bases take the closed form of :func:`_character_spectrum`; other
    bases read ``g.walk_spectrum``, the graph's one dense ``eigh`` (O(n^2)
    memory), which the excursion sampler also reads on such bases.
    """
    w = _character_spectrum(g) if g.lattice is not None else g.walk_spectrum[0]
    w = np.sort(w)[::-1]
    if abs(w[0] - 1.0) > EIG_TOL:
        raise RuntimeError(f"top eigenvalue {w[0]} differs from 1 beyond tolerance")
    if bipartite(g):
        lam = 1.0
    else:
        lam = min(float(np.max(np.abs(w[1:]))), 1.0) if g.n > 1 else 0.0
    return SpectralProfile(g.n, g.d, tuple(w.tolist()), lam, 1.0 - lam)


def _character_spectrum(g: RegularGraph) -> np.ndarray:
    """Eigenvalues of A/d on a lattice base, one per character of its group.

    The base is the Cayley graph of the product of cyclic groups Z_side, so
    the character j (indexed like the vertices, by ``lattice_coords`` j_k)
    has eigenvalue (1/d) sum_s cos(2 pi sum_k j_k step_s[k] / side_k).
    Each phase term is reduced mod 1 in integers first.  No n x n matrix.
    """
    sides, steps = g.lattice
    coords = lattice_coords(sides)
    w = sum(np.cos(2.0 * np.pi * (coords * step % sides / sides).sum(axis=1)) for step in steps)
    return w / g.d


def lazy_transition_matrix(g: RegularGraph) -> np.ndarray:
    """(A + I)/(d + 1): the walk on the graph with one loop added per vertex."""
    return (g.adjacency_matrix() + np.eye(g.n)) / (g.d + 1)


def mixing_time(g: RegularGraph, cap: int) -> int | None:
    """Least t such that every entry of P_lazy^t is >= 1/(2n), or None.

    Rows of P_lazy^t take one lazy step at a time through the neighbor
    slots, b <- (b + sum_s b[:, nbrs[:, s]]) / (d + 1), which is b @ P_lazy
    for the symmetric slot adjacency.  A lattice base is a Cayley graph, so
    every row is a translate of row 0 and row 0 alone is carried; other bases
    carry all n rows.  The minimum entry is non-decreasing in t (each entry
    of the next power is an average of current entries), so the first t
    found holds for every s >= t; that monotonicity is asserted.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    nbrs = np.array(g.neighbors, dtype=np.intp)
    b = np.eye(1 if g.lattice is not None else g.n, g.n)
    threshold = 1.0 / (2 * g.n)
    prev_min = -1.0
    for t in range(1, cap + 1):
        b = (b + sum(b[:, col] for col in nbrs.T)) / (g.d + 1)
        cur_min = float(b.min())
        if cur_min < prev_min - MIN_ENTRY_SLACK:
            raise RuntimeError(
                f"minimum transition entry decreased at t={t}: {prev_min} -> {cur_min}"
            )
        prev_min = cur_min
        if cur_min >= threshold - MIN_ENTRY_SLACK:
            return t
    return None


def fast_mixing_threshold(n: int) -> float:
    """log^2(n) / (loglog n)^5, defined for n > e."""
    if n <= math.e:
        raise ValueError(f"threshold undefined for n <= e, got n={n}")
    return math.log(n) ** 2 / math.log(math.log(n)) ** 5


def check_fast_mixing(n: int, mixing_time: int) -> BoundCheck:
    """Verdict on mixing_time <= log^2(n)/(loglog n)^5.

    This documents which bases meet the fast-mixing hypothesis of the
    growth-rate bound; ``cyldla mixing`` prints it.  At desk scale most
    bases do not, and the verdict is informational.
    """
    if not isinstance(mixing_time, int):
        raise ValueError(f"mixing_time must be a computed int, got {mixing_time!r}")
    thr = fast_mixing_threshold(n)
    verdict = "pass" if mixing_time <= thr else "fail"
    return BoundCheck(
        name="fast-mixing-hypothesis",
        bound_value=thr,
        direction="<=",
        estimate=float(mixing_time),
        verdict=verdict,
        applicability="asymptotic hypothesis; no finite-size calibration is claimed",
    )


def avoidance_bound(profile: SpectralProfile, set_fractions) -> float:
    """Upper bound exp(-(c/2)(1-lam)) on staying inside prescribed sets.

    ``set_fractions`` are the relative sizes c_s of the sets the walk must
    stay in; c = sum_s (1 - c_s).
    """
    fracs = list(set_fractions)
    for c in fracs:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"set fraction {c} outside [0, 1]")
    c_total = sum(1.0 - c for c in fracs)
    return math.exp(-0.5 * c_total * (1.0 - profile.lam))


@dataclass(frozen=True)
class PathCount:
    """Exact constrained-walk count with its spectral upper bound."""

    count: int
    bound: float
    log_bound: float


def count_constrained_paths(g: RegularGraph, sets) -> PathCount:
    """Exact number of walks x_0..x_t with x_s in C_s for every s >= 1.

    x_0 ranges over all vertices.  Counting is exact big-integer dynamic
    programming over layers; the result is checked against the bound
    n * prod_s sqrt(c_s d^2 + (1 - c_s) d^2 lam^2) before returning.
    """
    set_list = [frozenset(c) for c in sets]
    if not set_list:
        raise ValueError("need at least one constraint set")
    for c in set_list:
        for v in c:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} outside graph of size {g.n}")
    counts = [1] * g.n
    for c in set_list:
        nxt = [0] * g.n
        for v in range(g.n):
            if counts[v]:
                cv = counts[v]
                for u in g.neighbors[v]:
                    if u in c:
                        nxt[u] += cv
        counts = nxt
    total = sum(counts)
    lam = eigen_profile(g).lam
    fracs = tuple(len(c) / g.n for c in set_list)
    log_bound = math.log(g.n)
    degenerate = False
    for c_s in fracs:
        inner = c_s + (1.0 - c_s) * lam * lam
        if inner == 0.0:
            degenerate = True
            break
        log_bound += math.log(g.d) + 0.5 * math.log(inner)
    if degenerate:
        bound = 0.0
        ok = total == 0
    else:
        bound = math.exp(log_bound) if log_bound < 700 else math.inf
        ok = total == 0 or math.log(total) <= log_bound + math.log1p(PATH_BOUND_RTOL)
    if not ok:
        raise RuntimeError(
            f"exact path count {total} exceeds spectral bound {bound} on {g.label}"
        )
    return PathCount(total, bound, log_bound if not degenerate else -math.inf)


def avoidance_frequency(g: RegularGraph, sets, trials: int, seed) -> EstimateSummary:
    """Monte-Carlo frequency of a uniform-start walk staying in all sets."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    nbrs = np.array(g.neighbors, dtype=np.int64)
    pos = rng.integers(0, g.n, size=trials)
    ok = np.ones(trials, dtype=bool)
    for c in sets:
        member = np.zeros(g.n, dtype=bool)
        member[list(c)] = True
        pos = nbrs[pos, rng.integers(0, g.d, size=trials)]
        ok &= member[pos]
    return EstimateSummary.from_bernoulli(int(ok.sum()), trials)
