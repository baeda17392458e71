"""Cylinder DLA cluster state machine: drops, sticking, loads, snapshots.

The cluster starts as a fully occupied bottom layer.  Each particle enters
at the lowest empty layer M with a uniform base coordinate and walks until
it first occupies a boundary vertex (checked before any step, so an entry
that is already on the boundary sticks with zero steps).  The cluster keeps
a sticking map beside its occupancy, one byte per vertex that is set exactly
when the vertex is occupied or has an occupied neighbour, so the walker
decides "stuck?" with one read per step.  :func:`_commit` is the only code
that writes either during growth; a replay builds both at once from the
finished occupancy.

No boundary vertex exists strictly above layer M, so the walk cannot stick
during an excursion above M, and it reads no sticking-map row there.  Most
excursions are short (half return after one vertical move) and are stepped
literally, but their length has infinite mean: a walk that climbs H =
``CEILING_HEIGHT`` layers above M is brought back to M in one exact draw,
the return shape from :func:`cyldla.cylinder.sample_return_shape` and the
base coordinate from the exact base kernel
:class:`cyldla.cylinder.GTransitionSampler`.  This is exact by the strong
Markov property at the first hit of layer M + H.

On cycle bases with at least 2R + 2 vertices (R = ``BOX_RADIUS``) the walk
also crosses empty space in one draw: where no occupied vertex lies within
L-infinity distance R, the sticking map says so, and the walk's exit from
the (2R+1)^2 box around it is drawn from :func:`cyldla.cylinder.box_table`.
Narrower cycles never fit a box, since every layer below M holds a stick.

The step count kappa still reports the full walk length, including the
returns from the ceiling and the box steps.  The step cap applies to
literally simulated steps, those above M included; a cap hit aborts the
drop with a hard error rather than resampling, which would bias the
sticking distribution.

A snapshot file names its base graph by label and lists the sticks in
order.  :func:`load_snapshot` only parses it; :func:`cluster_from_snapshot`
rebuilds the cluster on the named graph in whole-array passes over a grid
of arrival times and one of neighbour arrivals, the one check of the
sticking rule a snapshot meets.
"""
from __future__ import annotations

import bisect
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cylinder import (
    BOX_RADIUS,
    CEILING_HEIGHT,
    GTransitionSampler,
    box_table,
    sample_excursion_shape,  # not called here; bench/tracing.py looks it up on this module
    sample_return_shape,
    slot_table,
    uniform_below,
    walk_slots,
)
from .graphs import RegularGraph, add_self_loops
from .stats import BoundCheck, Chi2Result, EstimateSummary, chi_square_two_sample, make_bound_check

DEFAULT_STEP_CAP = 100_000_000
SNAPSHOT_MAGIC = "cyldla v2"
BOX = 2  # sticking-map value: a box of radius BOX_RADIUS fits here


class CapExceededError(RuntimeError):
    """A particle walk exhausted its literal step budget."""

    def __init__(self, message: str, literal_steps: int, kappa: int, min_layer: int):
        super().__init__(message)
        self.literal_steps = literal_steps
        self.kappa = kappa
        self.min_layer = min_layer


@dataclass(frozen=True)
class ParticleOutcome:
    start_g: int
    kappa: int
    H: int
    stick_g: int
    new_layer: bool
    min_layer_visited: int
    literal_steps: int  # kappa less the steps that return and box draws stood in for


@dataclass(frozen=True)
class GrowthStats:
    """Step counts kappa of the drops made by one :func:`grow` call.

    Growth times, walls and the particle count live on the cluster
    (``first_reach``, ``wall_times``, ``t``).
    """

    kappa_histogram: Counter


class Cluster:
    """Growing cluster on graph x naturals, one occupancy byte per vertex.

    Layer 0 is always full.  ``loads[i]`` counts occupied vertices at layer
    i, ``M`` is the lowest empty layer, ``t`` the number of particles added,
    and ``stick_log`` records (t, vertex, layer) per particle.
    ``near[z][g]`` is 1 exactly when (g, z) is occupied or has an occupied
    neighbour: (g, z +- 1), or (u, z) for a non-loop base neighbour u.  A
    free vertex with ``near`` 1 is a boundary vertex.  ``graph`` is the one
    record of the base: the walker, the kernel, the estimators and the
    oracle read it from here.  ``slot_table`` is the walk law (see
    :func:`cyldla.cylinder.slot_table`) and its one record: the walker, the
    return draw, the box test and the first-hit oracle all read it.
    ``vertical_prob`` is the chance that one step is vertical, the table's
    share of up and down slots, which every return draw reads.
    ``Cluster(G, vertical_loops=k)`` is the loop-equivalence test's
    negative control on G: the walk as if G had k loop slots per vertex,
    each resolved as a fair vertical move, a deliberately wrong law.  When
    ``boxes`` is set (the plain cycle's lattice tag, n >= 2R + 2, the fair
    walk), ``near`` is ``BOX`` where no occupied vertex lies within
    L-infinity distance R = ``BOX_RADIUS``, columns counted round the cycle.
    Both ``occ`` and ``near`` hold M + 2 layers; growth writes them only
    through :func:`_commit`, and :func:`cluster_from_snapshot` builds them
    whole.  A cluster holds no random state: each drop draws from
    the generator it is given.
    Confine one cluster to one thread; independent replicas may run
    concurrently.
    """

    def __init__(self, graph: RegularGraph, vertical_loops: int = 0):
        self.graph = graph
        self.slot_table = slot_table(graph.d, vertical_loops)
        self.vertical_prob = (self.slot_table.count(0) + self.slot_table.count(1)) / len(self.slot_table)
        self.boxes = (
            self.slot_table == slot_table(graph.d)
            and graph.lattice == ((graph.n,), ((-1,), (1,)))
            and graph.n >= 2 * BOX_RADIUS + 2
        )
        self.occ: list[bytearray] = [bytearray([1] * graph.n), bytearray(graph.n), bytearray(graph.n)]
        self.near: list[bytearray] = [bytearray([1] * graph.n), bytearray([1] * graph.n), bytearray(graph.n)]
        self.loads: list[int] = [graph.n, 0, 0]
        self.M = 1
        self.t = 0
        self.stick_log: list[tuple[int, int, int]] = []
        self.wall_times: list[tuple[int, int]] = []
        self.first_reach: dict[int, int] = {}
        self._kernel: GTransitionSampler | None = None

    def kernel(self) -> GTransitionSampler:
        if self._kernel is None:
            self._kernel = GTransitionSampler(self.graph)
        return self._kernel

    def _ensure_capacity(self) -> None:
        while len(self.occ) < self.M + 2:
            self.occ.append(bytearray(self.graph.n))
            self.near.append(self._empty_row(len(self.near)))
            self.loads.append(0)

    def _empty_row(self, z: int) -> bytearray:
        """Sticking-map row of the empty layer z: ``BOX`` where a box fits."""
        n = self.graph.n
        if not self.boxes:
            return bytearray(n)
        r = BOX_RADIUS
        rows = self.occ[max(0, z - r) : z + r + 1]
        taken = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), n).any(axis=0)
        return bytearray(_box_marks(taken))


def _box_marks(taken: np.ndarray) -> np.ndarray:
    """``BOX`` where none of columns g-R..g+R of ``taken`` is set, else 0.

    ``taken`` says, per layer and column, whether any vertex within R
    layers is occupied; columns are counted round the cycle.  The window
    runs along the last axis, so one row and a stack of rows share it.
    """
    r = BOX_RADIUS
    ring = np.concatenate([np.zeros_like(taken[..., :1]), taken[..., -r:], taken, taken[..., :r]], axis=-1)
    sums = ring.cumsum(axis=-1, dtype=np.int32)
    free = sums[..., 2 * r + 1 :] == sums[..., : -2 * r - 1]  # none of columns g-r..g+r
    return free.view(np.uint8) * np.uint8(BOX)


def new_cluster(graph: RegularGraph) -> Cluster:
    """Fresh cluster: layer 0 fully occupied, M = 1, no particles."""
    return Cluster(graph)


def is_boundary(cluster: Cluster, pos) -> bool:
    """True iff ``pos`` is unoccupied and adjacent to an occupied vertex.

    Loop slots never make a vertex its own neighbor here: an occupied vertex
    reports False regardless, and so does a layer outside the cluster's rows.
    """
    g, z = pos
    occ = cluster.occ
    depth = len(occ)
    if not 0 <= z < depth or occ[z][g]:
        return False
    if occ[z - 1][g]:  # z >= 1 here: the floor layer is full
        return True
    if z + 1 < depth and occ[z + 1][g]:
        return True
    row = occ[z]
    for u in cluster.graph.neighbors[g]:
        if u != g and row[u]:
            return True
    return False


def probe_particle(
    cluster: Cluster, rng: np.random.Generator, cap: int = DEFAULT_STEP_CAP
) -> ParticleOutcome:
    """Walk one particle from a uniform entry (g0, M) to the first boundary vertex.

    Nothing is committed; the drop's one record is returned.  Every step is
    taken literally, above M too, except where one exact draw stands in for
    many: a walk that climbs ``CEILING_HEIGHT`` layers above M is brought
    back to M at once (:func:`_return_to_front`; exact by the strong Markov
    property at the first hit of that layer, since nothing can stick above
    M), and so is the walk across each empty box (:func:`_box_jumps`).  The
    walk law is the cluster's slot table, read block by block from a fresh
    :func:`cyldla.cylinder.walk_slots` stream, so the outcome depends only
    on the cluster and the state of ``rng``.  Each position at or below M
    costs one read of ``cluster.near``: 0 steps on, 1 sticks, ``BOX`` jumps;
    above M the walk reads no row of it.  The cap is checked before every
    slot is taken, so no block is drawn once ``cap`` literal steps are spent.
    """
    nbrs = cluster.graph.neighbors
    near = cluster.near
    m_layer = cluster.M
    ceiling = m_layer + CEILING_HEIGHT

    g0 = uniform_below(rng, cluster.graph.n)
    g, z = g0, m_layer
    literal = 0
    fast_forwarded = 0  # return and box steps beyond the literal ones, so kappa = literal + this
    min_layer = m_layer
    if near[z][g] == BOX:
        g, z, fast_forwarded, min_layer = _box_jumps(cluster, g, z, min_layer, rng)
    if near[z][g]:
        return _stuck(cluster, g0, g, z, fast_forwarded, min_layer, 0)
    if cap <= 0:
        raise _cap_exceeded(cap, 0, fast_forwarded, min_layer)
    for block in walk_slots(rng, cluster.slot_table):
        for s in block:
            literal += 1
            if s >= 2:
                g = nbrs[g][s - 2]
            elif s == 0:
                z += 1
                if z == ceiling:
                    g, returned = _return_to_front(cluster, g, CEILING_HEIGHT, rng)
                    fast_forwarded += returned
                    z = m_layer
            else:
                if z == 0:
                    raise RuntimeError("walk reached the floor layer without sticking")
                z -= 1
                if z < min_layer:
                    min_layer = z
            if z <= m_layer and near[z][g]:
                if near[z][g] == BOX:
                    g, z, jumped, min_layer = _box_jumps(cluster, g, z, min_layer, rng)
                    fast_forwarded += jumped
                if near[z][g]:
                    return _stuck(cluster, g0, g, z, literal + fast_forwarded, min_layer, literal)
            if literal >= cap:
                raise _cap_exceeded(cap, literal, literal + fast_forwarded, min_layer)


def _return_to_front(cluster: Cluster, g: int, height: int, rng: np.random.Generator):
    """Bring a walk at base vertex g, ``height`` layers above M, down to M.

    Returns (g, steps): the base vertex where the walk first reaches M and
    the steps it took.  One return-shape draw gives the vertical and
    same-layer move counts, and the base kernel moves g by the latter.
    """
    v, gamma = sample_return_shape(rng, height, cluster.vertical_prob)
    return cluster.kernel().sample(g, gamma, rng), v + gamma


def _box_jumps(cluster: Cluster, g: int, z: int, min_layer: int, rng: np.random.Generator):
    """Cross empty boxes from (g, z) until the walk stands where none fits.

    Returns (g, z, steps, min_layer).  Each draw from the box table moves
    the walk to its exit from the box (or to where it stands after the
    table's last step) and lowers ``min_layer`` to the lowest layer it
    reached.  Nothing can stick above M, so a walk that ends h > 0 layers
    above M is brought back to M by :func:`_return_to_front`.
    """
    table = box_table()
    n = cluster.graph.n
    near = cluster.near
    m_layer = cluster.M
    steps = 0
    while True:
        t, dx, dz, low = table.draw(rng)
        steps += t
        if z + low < min_layer:
            min_layer = z + low
        g = (g + dx) % n
        z += dz
        if z > m_layer:
            g, returned = _return_to_front(cluster, g, z - m_layer, rng)
            steps += returned
            z = m_layer
        if near[z][g] != BOX:
            return g, z, steps, min_layer


def _stuck(cluster: Cluster, g0: int, g: int, z: int, kappa: int, min_layer: int, literal: int):
    if cluster.occ[z][g]:
        raise RuntimeError("walk entered an occupied vertex; cluster state is corrupt")
    return ParticleOutcome(g0, kappa, z, g, z == cluster.M, min_layer, literal)


def _cap_exceeded(cap: int, literal: int, kappa: int, min_layer: int) -> CapExceededError:
    return CapExceededError(
        f"drop exceeded {cap} literal steps (kappa={kappa}, min layer {min_layer})",
        literal,
        kappa,
        min_layer,
    )


def drop_particle(
    cluster: Cluster, rng: np.random.Generator, cap: int = DEFAULT_STEP_CAP
) -> ParticleOutcome:
    """Drop one particle, stick it, and update all bookkeeping."""
    outcome = probe_particle(cluster, rng, cap)
    _commit(cluster, outcome.stick_g, outcome.H)
    return outcome


def _commit(cluster: Cluster, g: int, h: int) -> None:
    cluster.t += 1
    cluster.occ[h][g] = 1
    near = cluster.near
    if cluster.boxes:
        _clear_boxes(near, g, h, cluster.graph.n)
    row = near[h]
    row[g] = 1
    near[h + 1][g] = 1
    if h > 0:
        near[h - 1][g] = 1
    for u in cluster.graph.neighbors[g]:
        row[u] = 1
    cluster.loads[h] += 1
    cluster.stick_log.append((cluster.t, g, h))
    if h == cluster.M:
        cluster.first_reach[h] = cluster.t
        cluster.M += 1
        cluster._ensure_capacity()
    if h >= 1 and cluster.loads[h] == cluster.graph.n:
        cluster.wall_times.append((h, cluster.t))


def _clear_boxes(near: list[bytearray], g: int, h: int, n: int) -> None:
    """Drop the ``BOX`` marks within L-infinity distance R of a new stick (g, h)."""
    r = BOX_RADIUS
    lo, hi = g - r, g + r + 1
    if lo < 0:
        spans = ((lo + n, n), (0, hi))
    elif hi > n:
        spans = ((lo, n), (0, hi - n))
    else:
        spans = ((lo, hi),)
    for row in near[max(0, h - r) : h + r + 1]:
        for a, b in spans:
            if row.find(BOX, a, b) >= 0:
                row[a:b] = row[a:b].replace(b"\x02", b"\x00")


def grow(
    cluster: Cluster,
    rng: np.random.Generator,
    particles: int | None = None,
    target_layer: int | None = None,
    cap: int = DEFAULT_STEP_CAP,
) -> GrowthStats:
    """Drop particles until a budget is spent or a layer is first reached."""
    if particles is None and target_layer is None:
        raise ValueError("need a particle budget or a target layer")
    if particles is not None and particles < 1:
        raise ValueError("particle budget must be >= 1")
    if target_layer is not None and target_layer < 1:
        raise ValueError("target layer must be >= 1")
    if cap < 0:
        raise ValueError(f"step cap must be >= 0, got {cap}")
    kappa_hist: Counter = Counter()
    added = 0
    while True:
        if particles is not None and added >= particles:
            break
        if target_layer is not None and cluster.M > target_layer:
            break
        out = drop_particle(cluster, rng, cap)
        added += 1
        kappa_hist[out.kappa] += 1
    return GrowthStats(kappa_hist)


def load_at_least(cluster: Cluster, i: int) -> int:
    """L(>=i): total load on layers >= i (zero at and above M)."""
    if i < 0:
        raise ValueError("layer index must be >= 0")
    return sum(cluster.loads[i:])


def load_upto(cluster: Cluster, i: int) -> int:
    """L(<=i): total load on layers 1..i, excluding the full layer 0."""
    if i < 0:
        raise ValueError("layer index must be >= 0")
    return sum(cluster.loads[1 : i + 1])


def density_upto(cluster: Cluster, m: int) -> float:
    """D(m) = L(<=m) / (m n) against the current occupancy."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return load_upto(cluster, m) / (m * cluster.graph.n)


def detect_walls(cluster: Cluster) -> list[int]:
    """Layers i >= 1 whose load equals n; they block all passage below."""
    return [i for i in range(1, len(cluster.loads)) if cluster.loads[i] == cluster.graph.n]


def wall_blocking_violations(cluster: Cluster) -> list[tuple[int, int, int]]:
    """Sticks strictly below an earlier-completed wall: (t, layer, wall).

    One pass over the stick log.  ``wall_times`` is in completion order, so
    the walls completed before time t form a prefix of it, and a stick can
    only violate one of them if it lies below the highest wall of that
    prefix.  Violations are listed wall by wall, in stick-log order.
    """
    walls = cluster.wall_times
    wall_ts = [wall_t for _, wall_t in walls]
    tops = list(itertools.accumulate((w for w, _ in walls), max, initial=0))
    found = []
    for t, _, layer in cluster.stick_log:
        k = bisect.bisect_left(wall_ts, t)
        if layer < tops[k]:
            found.extend((i, (t, layer, w)) for i, (w, _) in enumerate(walls[:k]) if layer < w)
    found.sort(key=lambda item: item[0])
    return [v for _, v in found]


# --- synthetic-state estimators -----------------------------------------------


def synthetic_cluster(graph: RegularGraph, layer: int, count: int) -> Cluster:
    """Deterministic cluster with vertices 0..count-1 occupied at layers 1..layer.

    Column-wise occupation keeps every occupied vertex adjacent to an
    occupied vertex below it, so the cluster is connected by construction.
    """
    if not 1 <= count <= graph.n:
        raise ValueError(f"count must be in [1, n], got {count}")
    if layer < 1:
        raise ValueError("layer must be >= 1")
    cluster = new_cluster(graph)
    for z in range(1, layer + 1):
        for g in range(count):
            _commit(cluster, g, z)
    return cluster


@dataclass(frozen=True)
class VisitSetResult:
    mean_summary: EstimateSummary
    bound_check: BoundCheck
    single_visit: EstimateSummary
    single_visit_exact: float


def entry_layer_visit_set(graph: RegularGraph, trials: int, seed) -> VisitSetResult:
    """Distinct base vertices visited before the walk first leaves its layer.

    The mean set size is checked against the lower bound (2d+2)/(d+2); the
    chance of leaving immediately (set size 1) equals 2/(d+2) exactly.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    d = graph.d
    nbrs = graph.neighbors
    slots = itertools.chain.from_iterable(walk_slots(rng, slot_table(d)))
    sizes = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        g = uniform_below(rng, graph.n)
        seen = {g}
        while True:
            s = next(slots)
            if s < 2:
                break
            g = nbrs[g][s - 2]
            seen.add(g)
        sizes[i] = len(seen)
    summary = EstimateSummary.from_samples(sizes)
    check = make_bound_check(
        "entry-layer-visit-set-mean", (2 * d + 2) / (d + 2), ">=", summary
    )
    singles = EstimateSummary.from_bernoulli(int((sizes == 1).sum()), trials)
    return VisitSetResult(summary, check, singles, 2 / (d + 2))


# --- loop-augmentation equivalence --------------------------------------------


def collect_height_tuples(
    graph: RegularGraph,
    particles: int,
    trials: int,
    rng: np.random.Generator,
    vertical_loops: int = 0,
) -> Counter:
    """Counter of stick-height tuples over independent short processes.

    Each process grows ``particles`` drops on a fresh
    ``Cluster(graph, vertical_loops)``, all of them on ``graph`` itself.
    """
    counts: Counter = Counter()
    for _ in range(trials):
        cluster = Cluster(graph, vertical_loops)
        counts[tuple(drop_particle(cluster, rng).H for _ in range(particles))] += 1
    return counts


@dataclass(frozen=True)
class LoopEquivalenceReport:
    chi2: Chi2Result
    passed: bool
    trials: int


def loop_equivalence_check(
    graph: RegularGraph, particles: int, trials: int, seed: int, mutant: bool = False
) -> LoopEquivalenceReport:
    """Two-sample test: growth on G versus on G with one loop per vertex.

    The loop-augmented side should be distributed identically to the plain
    side; the test passes when its p-value exceeds 0.01.  With
    ``mutant=True`` the second side is the negative control instead,
    ``Cluster(graph, vertical_loops=1)`` on the caller's graph: each loop
    slot is resolved as a fair vertical move, a deliberately broken law that
    the test is expected to detect.
    """
    rng_a = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    rng_b = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    counts_a = collect_height_tuples(graph, particles, trials, rng_a)
    if mutant:
        counts_b = collect_height_tuples(graph, particles, trials, rng_b, vertical_loops=1)
    else:
        counts_b = collect_height_tuples(add_self_loops(graph), particles, trials, rng_b)
    chi2 = chi_square_two_sample(counts_a, counts_b)
    return LoopEquivalenceReport(chi2, chi2.p_value > 0.01, trials)


# --- snapshots ------------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotData:
    """A parsed snapshot: the label of its base graph, sizes, and sticks in order.

    ``sticks[k - 1]`` is (layer, vertex) of the k-th stuck particle.
    """

    graph: str
    n: int
    d: int
    t: int
    M: int
    sticks: tuple[tuple[int, int], ...]

    @cached_property
    def columns(self) -> np.ndarray:
        """Read-only int64 (layer, vertex) columns, clipped to -1..t+1 and -1..n, so none overflows."""
        cast = np.clip(np.array(self.sticks).reshape(-1, 2), -1, (len(self.sticks) + 1, self.n)).astype(np.int64)
        cast.flags.writeable = False
        return cast.T


def snapshot_lines(cluster: Cluster) -> list[str]:
    g = cluster.graph
    header = f"{SNAPSHOT_MAGIC} graph={g.label} n={g.n} d={g.d} t={cluster.t} M={cluster.M}"
    return [header] + [f"{layer} {vertex}" for _, vertex, layer in cluster.stick_log]


def save_snapshot(cluster: Cluster, path) -> None:
    if len(cluster.stick_log) != cluster.t:
        raise ValueError("snapshot needs the full stick log")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(snapshot_lines(cluster)) + "\n")


def load_snapshot(path) -> SnapshotData:
    """Parse a snapshot file; a malformed header or line raises ValueError.

    Only the layout is checked: the header names the base graph and gives
    integer n, d, t and M, and each line is one stick ``layer vertex`` with
    0 <= vertex < n and layer >= 1.  Whether the sticks could have grown is
    checked by :func:`cluster_from_snapshot` on the named graph.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(fh, start=1) if line.strip()]
    head = lines[0][1] if lines else ""
    words = head.split()
    if words[:2] == ["cyldla", "v1"]:
        raise ValueError("snapshot is cyldla v1, which names no base graph")
    if words[:2] != SNAPSHOT_MAGIC.split():
        raise ValueError(f"snapshot file does not start with {SNAPSHOT_MAGIC!r}")
    fields = dict(word.partition("=")[::2] for word in words[2:])
    if not fields.get("graph"):
        raise ValueError(f"snapshot header needs a graph=: {head!r}")
    header = []
    for key in ("n", "d", "t", "M"):
        try:
            header.append(int(fields[key]))
        except (KeyError, ValueError):
            raise ValueError(f"snapshot header needs an integer {key}=: {head!r}") from None
    n = header[0]
    sticks = []
    for lineno, line in lines[1:]:
        try:
            layer, vertex = (int(x) for x in line.split())
        except ValueError:
            raise ValueError(f"snapshot line {lineno} is not 2 integers: {line!r}") from None
        if not 0 <= vertex < n or layer < 1:
            raise ValueError(f"snapshot line {lineno} is outside n={n} x layers >= 1: {line!r}")
        sticks.append((layer, vertex))
    return SnapshotData(fields["graph"], *header, tuple(sticks))


def cluster_from_snapshot(snap: SnapshotData, graph: RegularGraph) -> Cluster:
    """Replay a snapshot on its graph; the one sticking check a snapshot meets.

    ``graph`` must carry the label, n and d the snapshot names.  Each stick,
    in order, must land on a boundary vertex of the cluster before it, and
    the replay must end at the header's t and M; otherwise ValueError.

    The sticks are checked and the cluster built in whole-array passes over
    ``arrive[z][g]``, the number of the first stick at (g, z): 0 on the
    floor layer and t + 1 where none lands, and ``touch[z][g]``, the first
    arrival at a neighbour of (g, z): (g, z +- 1) or (u, z) for a base
    neighbour u.  Stick k at (g, h) is on the boundary of the cluster before
    it exactly when ``arrive[h][g]`` is k and ``touch[h][g]`` is below k.
    That holds up to the first stick that fails, since every stick before
    it was placed.  After the last stick the same grids give the sticking
    map: a vertex is marked when it or a neighbour has arrived.  A stick
    above layer k can never land and is not placed, so no layer of the grid
    lies above t.
    """
    if (graph.label, graph.n, graph.d) != (snap.graph, snap.n, snap.d):
        raise ValueError(
            f"snapshot names graph={snap.graph} n={snap.n} d={snap.d}, "
            f"not {graph.label} with n={graph.n} d={graph.d}"
        )
    cluster = new_cluster(graph)
    n, t = graph.n, len(snap.sticks)
    nbrs = np.array(graph.neighbors, dtype=np.int64).reshape(n, graph.d)
    order = np.arange(1, t + 1)
    layer, vertex = snap.columns
    placed = (layer >= 1) & (layer <= order) & (vertex >= 0) & (vertex < n)
    h, g, k = layer[placed], vertex[placed], order[placed]
    top = int(h.max(initial=0))
    arrive = np.full((top + 3, n), t + 1, dtype=np.min_scalar_type(t + 1))
    arrive[0] = 0
    cells, first = np.unique(h * n + g, return_index=True)
    arrive.flat[cells] = k[first]
    touch = np.full_like(arrive, t + 1)
    touch[1:] = arrive[:-1]
    np.minimum(touch[:-1], arrive[1:], out=touch[:-1])
    for column in nbrs.T:  # one neighbour slot at a time, so no layers x n x d grid is built
        np.minimum(touch, arrive[:, column], out=touch)
    landed = np.zeros(t, dtype=bool)
    landed[placed] = (arrive[h, g] == k) & (touch[h, g] < k)
    if not landed.all():
        bad = int(np.argmin(landed))
        layer, vertex = snap.sticks[bad]
        raise ValueError(
            f"snapshot stick {bad + 1} at layer {layer}, vertex {vertex} "
            "is not on the boundary of the cluster before it"
        )
    if top + 1 != snap.M or t != snap.t:
        raise ValueError(
            f"snapshot header has t={snap.t} M={snap.M}; "
            f"its sticks give t={t} M={top + 1}"
        )
    occ = (arrive <= t).view(np.uint8)
    near = occ | (touch <= t)
    if cluster.boxes:
        # where a box fits, no vertex within R is occupied, so near is 0 there
        r, z = BOX_RADIUS, np.arange(top + 3)
        sums = np.zeros((top + 4, n), dtype=np.min_scalar_type(top + 3))  # sums[z]: occupied rows below z
        np.cumsum(occ, axis=0, dtype=sums.dtype, out=sums[1:])
        near |= _box_marks(sums[np.minimum(z + r + 1, top + 3)] != sums[np.maximum(z - r, 0)])
    loads = occ.sum(axis=1)
    walls = np.flatnonzero(loads[1:] == n) + 1
    wall_ts = arrive[walls].max(axis=1)
    by_time = np.argsort(wall_ts)
    cluster.occ = [bytearray(row) for row in occ]
    cluster.near = [bytearray(row) for row in near]
    cluster.loads = loads.tolist()
    cluster.M = top + 1
    cluster.t = t
    cluster.stick_log = [(k, vertex, layer) for k, (layer, vertex) in enumerate(snap.sticks, start=1)]
    cluster.first_reach = dict(zip(range(1, top + 1), arrive[1 : top + 1].min(axis=1).tolist()))
    cluster.wall_times = list(zip(walls[by_time].tolist(), wall_ts[by_time].tolist()))
    return cluster


__all__ = [
    "CapExceededError",
    "Cluster",
    "DEFAULT_STEP_CAP",
    "GrowthStats",
    "LoopEquivalenceReport",
    "ParticleOutcome",
    "SnapshotData",
    "VisitSetResult",
    "cluster_from_snapshot",
    "collect_height_tuples",
    "density_upto",
    "detect_walls",
    "drop_particle",
    "entry_layer_visit_set",
    "grow",
    "is_boundary",
    "load_at_least",
    "load_snapshot",
    "load_upto",
    "loop_equivalence_check",
    "new_cluster",
    "probe_particle",
    "save_snapshot",
    "snapshot_lines",
    "synthetic_cluster",
    "wall_blocking_violations",
]
