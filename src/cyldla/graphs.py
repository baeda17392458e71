"""Finite d-regular base graphs for cylinder growth experiments.

Adjacency is stored as fixed-width neighbor slot lists: every vertex owns
exactly ``d`` slots, a self loop occupies one slot, and "move to a uniform
neighbor" is a single uniform slot draw.  All generators produce connected
simple graphs (loops only appear through :func:`add_self_loops`), and tag
vertex-transitive families via ``transitive_hint``.  The hint is supplied by
the generator and never verified algorithmically; it only gates which bound
checks the experiments apply.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_PAIRING_ATTEMPTS = 10_000
EIG_TOL = 1e-9


@dataclass(frozen=True)
class RegularGraph:
    """Immutable d-regular graph with slot-list adjacency.

    ``neighbors[v]`` has exactly ``d`` entries, Python ints on every base,
    which the walker indexes rows with; an entry equal to ``v`` represents
    one self loop.  Instances are safe to share across threads;
    :attr:`walk_spectrum` is computed on first use and cached on the instance.

    ``lattice`` is the ``(sides, slot_steps)`` tag that :func:`make_lattice`
    builds a cycle, torus or hypercube from, else None.
    """

    n: int
    d: int
    neighbors: tuple[tuple[int, ...], ...]
    label: str
    transitive_hint: bool = False
    lattice: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None = None

    def adjacency_matrix(self) -> np.ndarray:
        """Dense adjacency with multiplicity (loops add 1 to the diagonal)."""
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for v, row in enumerate(self.neighbors):
            for u in row:
                a[v, u] += 1.0
        return a

    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic matrix of the uniform-slot walk, A/d."""
        return self.adjacency_matrix() / self.d

    @cached_property
    def walk_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and orthonormal eigenvectors of A/d.

        The one decomposition of the base walk (spectral profile, excursion
        sampler, oracle kernel), shared, so read-only.  The top eigenvalue is
        exactly 1 (an ``eigh`` top more than ``EIG_TOL`` away raises), and the
        bottom one exactly -1 when :func:`bipartite` holds.
        """
        w, u = np.linalg.eigh(self.transition_matrix())
        if abs(w[-1] - 1.0) > EIG_TOL:
            raise RuntimeError(f"top eigenvalue {w[-1]} of {self.label} differs from 1 beyond tolerance")
        w[-1] = 1.0
        if bipartite(self):
            w[0] = -1.0
        w.flags.writeable = False
        u.flags.writeable = False
        return w, u

    def loop_count(self) -> int:
        return sum(1 for v, row in enumerate(self.neighbors) for u in row if u == v)


@dataclass(frozen=True)
class GraphDiagnostics:
    """Report-only result of :func:`validate`."""

    size_ok: bool
    regular: bool
    symmetric: bool
    connected: bool

    @property
    def passed(self) -> bool:
        return self.size_ok and self.regular and self.symmetric and self.connected


def lattice_strides(sides: tuple[int, ...]) -> np.ndarray:
    """Place values of a lattice base: vertex v has coordinates c, v = sum_k c_k strides[k]."""
    return np.cumprod((1,) + sides[:-1])


def lattice_coords(sides: tuple[int, ...]) -> np.ndarray:
    """Coordinates of every vertex of a lattice base, shape (n, len(sides))."""
    return np.arange(math.prod(sides))[:, None] // lattice_strides(sides) % sides


def make_lattice(
    sides: tuple[int, ...], steps: tuple[tuple[int, ...], ...], label: str
) -> RegularGraph:
    """Cayley graph of Z_sides[0] x Z_sides[1] x ...; slot s adds ``steps[s]`` mod ``sides``."""
    nbrs = (lattice_coords(sides)[:, None, :] + np.array(steps)) % sides @ lattice_strides(sides)
    rows = tuple(map(tuple, nbrs.tolist()))
    return RegularGraph(len(rows), len(steps), rows, label, transitive_hint=True, lattice=(sides, steps))


def make_cycle(n: int) -> RegularGraph:
    """Cycle C_n; vertex i is adjacent to i-1 and i+1 mod n."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3 to stay simple, got {n}")
    return make_lattice((n,), ((-1,), (1,)), f"cycle:{n}")


def make_torus(side: int, dim: int) -> RegularGraph:
    """Discrete torus (C_side)^dim; degree 2*dim, n = side**dim."""
    if side < 3:
        raise ValueError(f"torus needs side >= 3 to stay simple, got {side}")
    if dim < 1:
        raise ValueError(f"torus needs dim >= 1, got {dim}")
    steps = tuple(tuple(delta * (j == k) for j in range(dim)) for k in range(dim) for delta in (-1, 1))
    return make_lattice((side,) * dim, steps, "torus:" + "x".join([str(side)] * dim))


def make_complete(n: int) -> RegularGraph:
    """Complete graph K_n."""
    if n < 3:
        raise ValueError(f"complete graph needs n >= 3, got {n}")
    nbrs = tuple(tuple(u for u in range(n) if u != v) for v in range(n))
    return RegularGraph(n, n - 1, nbrs, f"complete:{n}", transitive_hint=True)


def make_hypercube(dim: int) -> RegularGraph:
    """Hypercube Q_dim: binary labels adjacent iff they differ in one bit."""
    if dim < 2:
        raise ValueError(f"hypercube needs dim >= 2, got {dim}")
    steps = tuple(tuple(int(j == b) for j in range(dim)) for b in range(dim))
    return make_lattice((2,) * dim, steps, f"hypercube:{dim}")


def make_random_regular(n: int, d: int, seed: int) -> RegularGraph:
    """Uniform-ish simple d-regular graph via the pairing model.

    Half-edge stubs are matched uniformly; matchings producing loops or
    multi-edges are rejected and resampled.  Deterministic given ``seed``.
    Raises ``ValueError`` when ``DEFAULT_PAIRING_ATTEMPTS`` rejections are
    exhausted: the (n, d) pair is then a configuration the model cannot build.
    """
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d < 3:
        raise ValueError(f"random regular generator needs d >= 3, got {d}")
    if d >= n:
        raise ValueError(f"need d < n, got d={d}, n={n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(DEFAULT_PAIRING_ATTEMPTS):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        edges = {(min(a, b), max(a, b)) for a, b in pairs.tolist()}
        if len(edges) != len(pairs):
            continue
        rows: list[list[int]] = [[] for _ in range(n)]
        for a, b in sorted(edges):
            rows[a].append(b)
            rows[b].append(a)
        g = RegularGraph(
            n, d, tuple(tuple(r) for r in rows), f"random:{n}:{d}:seed={seed}"
        )
        if _connected(g):
            return g
    raise ValueError(
        f"pairing-model sampling failed after {DEFAULT_PAIRING_ATTEMPTS} attempts (n={n}, d={d})"
    )


def add_self_loops(g: RegularGraph) -> RegularGraph:
    """Return a copy with one extra self-loop slot at every vertex.

    The degree grows by one.  Applying this twice yields two loop slots per
    vertex; each slot is drawn independently by the walk.
    """
    nbrs = tuple(row + (v,) for v, row in enumerate(g.neighbors))
    return RegularGraph(
        g.n, g.d + 1, nbrs, f"{g.label}+loops", transitive_hint=g.transitive_hint
    )


def _connected(g: RegularGraph) -> bool:
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for u in g.neighbors[v]:
            if not seen[u]:
                seen[u] = 1
                count += 1
                queue.append(u)
    return count == g.n


def bipartite(g: RegularGraph) -> bool:
    """Whether the component of vertex 0 has a two-colouring.

    A breadth-first search colours each vertex against its parent and stops
    at the first edge inside one colour class; a loop slot is such an edge,
    an odd cycle of length one.
    """
    colour = [-1] * g.n
    colour[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        other = 1 - colour[v]
        for u in g.neighbors[v]:
            if colour[u] < 0:
                colour[u] = other
                queue.append(u)
            elif colour[u] != other:
                return False
    return True


def validate(g: RegularGraph) -> GraphDiagnostics:
    """Check regularity, symmetry with multiplicity, and connectivity."""
    size_ok = g.n >= 2 and g.d >= 2
    regular = all(len(row) == g.d for row in g.neighbors) and len(g.neighbors) == g.n
    mult: Counter[tuple[int, int]] = Counter()
    in_range = True
    for v, row in enumerate(g.neighbors):
        for u in row:
            if not 0 <= u < g.n:
                in_range = False
            elif u != v:
                mult[(v, u)] += 1
    symmetric = in_range and all(
        mult[(v, u)] == mult[(u, v)] for (v, u) in list(mult)
    )
    connected = in_range and _connected(g)
    return GraphDiagnostics(size_ok, regular, symmetric, connected)


def parse_graph_spec(spec: str) -> RegularGraph:
    """Build a graph from a CLI spec string.

    Accepted forms: ``cycle:N``, ``torus:AxAx...`` (equal sides),
    ``complete:N``, ``hypercube:D``, ``random:N:D:seed=S``.
    """
    parts = spec.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "cycle" and len(parts) == 2:
            return make_cycle(int(parts[1]))
        if kind == "complete" and len(parts) == 2:
            return make_complete(int(parts[1]))
        if kind == "hypercube" and len(parts) == 2:
            return make_hypercube(int(parts[1]))
        if kind == "torus" and len(parts) == 2:
            sides = [int(s) for s in parts[1].lower().split("x")]
            if len(set(sides)) != 1:
                raise ValueError("torus spec needs equal sides, e.g. torus:3x3")
            return make_torus(sides[0], len(sides))
        if kind == "random" and len(parts) == 4 and parts[3].startswith("seed="):
            return make_random_regular(int(parts[1]), int(parts[2]), int(parts[3][5:]))
    except ValueError as exc:
        raise ValueError(f"bad graph spec {spec!r}: {exc}") from exc
    raise ValueError(f"unrecognized graph spec {spec!r}")


def edge_list_lines(g: RegularGraph) -> list[str]:
    """Plain-text edge list, one ``u v`` pair per line, loops as ``v v``.

    Each undirected edge appears once per multiplicity unit.
    """
    lines = []
    for v, row in enumerate(g.neighbors):
        for u in row:
            if u == v:
                lines.append(f"{v} {v}")
            elif v < u:
                lines.append(f"{v} {u}")
    return lines
