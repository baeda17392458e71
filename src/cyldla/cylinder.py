"""Simple random walk on a graph cylinder and its excursion statistics.

The cylinder over a base graph G has vertices (g, zeta) with zeta in the
naturals; one step moves to a uniform option among the d same-layer neighbor
slots plus up and down (down is unavailable at zeta = 0).  Excursions are the
walk segments between consecutive visits to a reference layer; a same-layer
hop returns immediately and forms its own one-step excursion.

The cluster walker itself lives in :mod:`cyldla.dla`; this module holds what
it is built from and checked against:

* the walk law as a slot table, read one drop at a time, block by block,
  through :func:`walk_slots`, which cuts exact uniform slots from the
  generator's raw 64-bit words; :func:`uniform_below` draws one uniform
  vertex from one word;
* exact-law machinery for the heavy-tailed part of the walk.  The vertical
  first-return time of an excursion has infinite mean, so the walker steps
  through an excursion above the front only up to ``CEILING_HEIGHT`` layers;
  from there :func:`sample_return_shape` draws the (vertical moves,
  same-layer moves) pair of the return to the front from its exact joint
  law (:func:`sample_excursion_shape` is the same law for one whole
  excursion), and :class:`GTransitionSampler` advances the base coordinate by
  an arbitrary number gamma of same-layer moves in one shot: exact slot
  counts on lattice bases, literal hops up to a cut and then a uniform draw
  (within total variation 1e-14) on other non-bipartite bases, and an exact
  eigenvector row of P^gamma on other bipartite bases;
* the exit law of the fair walk on Z x Z from the centre of an empty
  (2R+1) x (2R+1) box (:func:`box_table`), with which the walker crosses
  empty space on cycle bases in one draw;
* a vectorized skeleton simulation of independent excursions
  (:func:`long_excursion_frequency`), an independent route to the same
  excursion law.
"""
from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import spectral
from .graphs import RegularGraph, lattice_strides
from .stats import BoundCheck, EstimateSummary, make_bound_check
from .walk1d import sample_first_passage_moves

DEFAULT_EXCURSION_CAP = 1_000_000
_UNIFORM_TV_CUT = 1e-14
_DIRECT_HOP_LIMIT = 64
BOX_RADIUS = 10
CEILING_HEIGHT = 4  # layers above the front a walk steps literally before one return draw


# --- exact excursion-shape sampling ------------------------------------------


class SamplingRangeError(RuntimeError):
    """An exact draw is beyond the numeric range of its sampler."""


def sample_negative_binomial(rng: np.random.Generator, successes: int, p: float) -> int:
    """Failures before the given number of successes, drawn exactly.

    numpy's Poisson-Gamma sampler takes counts up to about 9.2e18 at p = 1/2
    (3.7e18 at p = 2/7); beyond that the draw aborts with
    :class:`SamplingRangeError`, never an approximation.
    """
    if successes <= 0:
        return 0
    try:
        return int(rng.negative_binomial(successes, p))
    except ValueError as exc:
        raise SamplingRangeError(
            f"negative binomial with {successes} successes at p={p:g} is beyond numpy's range"
        ) from exc


def sample_excursion_shape(rng: np.random.Generator, vertical_prob: float) -> tuple[int, int, int]:
    """Draw (vertical_moves, g_moves, total_steps) of one vertical excursion.

    Conditioned on the first step being vertical, the later vertical moves
    form a fair +-1 walk whose first return needs ``V`` further moves with
    the exact first-passage law, and each of those moves is preceded by a
    geometric number of same-layer moves.  Hence g_moves is negative
    binomial with ``V`` successes at ``vertical_prob``.  The total can be
    astronomically large; no cap is applied here.
    """
    v, gamma = sample_return_shape(rng, 1, vertical_prob)
    return 1 + v, gamma, 1 + v + gamma


def sample_return_shape(rng: np.random.Generator, height: int, vertical_prob: float) -> tuple[int, int]:
    """Draw (vertical_moves, g_moves) of a walk's first return from ``height`` layers up.

    The vertical moves form a fair +-1 walk, so the moves it needs to first
    come down ``height`` layers are a sum of ``height`` independent
    first-passage draws ``V``, and g_moves is negative binomial with ``V``
    successes at ``vertical_prob``, as in :func:`sample_excursion_shape`.
    """
    v = 0
    for _ in range(height):
        v += sample_first_passage_moves(rng)
    return v, sample_negative_binomial(rng, v, vertical_prob)


class GTransitionSampler:
    """Sampling of the base coordinate after many same-layer moves.

    The base coordinate after ``gamma`` uniform slot moves from ``g`` has the
    law of row g of P^gamma, P = A/d.  One of three routes draws it (the
    second within total variation 1e-14 of that law, the others exactly):

    * lattice bases (``g.lattice`` set: cycle, torus, hypercube) draw how
      often each slot was taken, one multinomial over the d slots, and add
      the net displacement to the coordinates mod the sides.  The moves
      commute, so this is the law at every gamma, parity included, and the
      graph's spectrum is never read;
    * other non-bipartite bases step literally below ``uniform_cut``, with
      neighbor slots cut from raw words as the walker's are
      (:func:`draw_slots`), and draw a uniform vertex from there on
      (:func:`uniform_below`).  ``uniform_cut`` is the least
      gamma with 1/2 sqrt(n) lambda^gamma <= 1e-14, a bound on the total
      variation distance of the row from uniform, where lambda is
      ``eigen_profile(g).lam``, the largest |eigenvalue| of P other than 1;
    * other bases with lambda = 1 (bipartite) step literally up to
      ``_DIRECT_HOP_LIMIT`` moves and beyond take one eigenvector row of
      P^gamma from the graph's cached decomposition (``g.walk_spectrum``),
      which keeps parity.
    """

    def __init__(self, g: RegularGraph):
        self.graph = g
        self._nbrs = g.neighbors
        self.uniform_cut: int | None = None
        self._lattice_dims = None
        if g.lattice is not None:
            sides, steps = g.lattice
            self._slot_probs = np.full(g.d, 1.0 / g.d)
            self._lattice_dims = tuple(
                (stride, side, tuple((s, step[k]) for s, step in enumerate(steps) if step[k]))
                for k, (stride, side) in enumerate(zip(lattice_strides(sides).tolist(), sides))
            )
            return
        self._hops = tuple(range(g.d))
        lam = spectral.eigen_profile(g).lam
        if lam < 1.0:
            self.uniform_cut = 1 if lam == 0.0 else math.ceil(
                (math.log(_UNIFORM_TV_CUT) - math.log(0.5 * math.sqrt(g.n))) / math.log(lam)
            )
        else:
            w, self._u = g.walk_spectrum
            # +-1 taken exactly: a rounded 1 - 1e-16 would decay at huge gamma and empty the row
            self._w = np.where(np.abs(w) >= 1.0 - spectral.EIG_TOL, np.sign(w), w)

    def sample(self, g_start: int, gamma: int, rng: np.random.Generator) -> int:
        if gamma <= 0:
            return g_start
        if self._lattice_dims is not None:
            # Python ints: counts near 9.2e18 must not overflow
            counts = rng.multinomial(gamma, self._slot_probs).tolist()
            v = 0
            for stride, side, terms in self._lattice_dims:
                c = g_start // stride + sum(counts[s] * step for s, step in terms)
                v += c % side * stride
            return v
        cut = self.uniform_cut
        if cut is not None and gamma >= cut:
            return uniform_below(rng, self.graph.n)
        if cut is None and gamma > _DIRECT_HOP_LIMIT:
            return self._sample_eigen(g_start, gamma, rng)
        pos = g_start
        nbrs = self._nbrs
        for s in draw_slots(rng, self._hops, gamma):
            pos = nbrs[pos][s]
        return pos

    def _sample_eigen(self, g_start: int, gamma: int, rng: np.random.Generator) -> int:
        w = self._w
        with np.errstate(divide="ignore"):
            mags = np.exp(float(gamma) * np.log(np.abs(w)))
        if gamma % 2 == 1:
            mags = np.where(w < 0.0, -mags, mags)
        row = self._u @ (mags * self._u[g_start])
        row = np.clip(row, 0.0, None)
        total = row.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise RuntimeError(f"row {g_start} of P^{gamma} on {self.graph.label} sums to {total}")
        cdf = np.cumsum(row / total)
        return int(np.searchsorted(cdf, rng.random(), side="right"))


# --- exact box jumps ------------------------------------------------------------


class BoxTable:
    """Exit law of the fair walk on Z x Z from the centre of a (2R+1)^2 box.

    Each step moves up, down, left or right with probability 1/4.  Entry i
    is the event that the walk first reaches L-infinity distance R after
    ``steps[i]`` steps, at offset (``dx[i]``, ``dz[i]``), having reached
    ``low[i]`` as its lowest vertical offset (exit point included).  A walk
    still inside after ``t_max`` = 2R^2 steps is an entry too, at its
    interior offset with ``steps`` = t_max; its walk goes on from there.
    ``cdf`` holds the cumulative probabilities divided by their total
    ``mass`` (1 up to rounding), and :meth:`draw` inverts it with one
    uniform.  Build one with :func:`build_box_table`.
    """

    def __init__(self, radius: int):
        self.radius = radius
        self.t_max = 2 * radius * radius
        self.steps = array("h")
        self.dx = array("b")
        self.dz = array("b")
        self.low = array("b")
        self.cdf = array("d")
        self.mass = 0.0

    def draw(self, rng: np.random.Generator) -> tuple[int, int, int, int]:
        """One (steps, dx, dz, low) from the exit law."""
        i = bisect_right(self.cdf, rng.random())
        return self.steps[i], self.dx[i], self.dz[i], self.low[i]

    def _add(self, t: int, x: np.ndarray, z: np.ndarray, low: np.ndarray, prob: np.ndarray) -> None:
        r = self.radius
        self.steps.extend(array("h", [t]) * x.size)
        self.dx.frombytes((x - r).astype(np.int8).tobytes())
        self.dz.frombytes((z - r).astype(np.int8).tobytes())
        self.low.frombytes((low - r).astype(np.int8).tobytes())
        cum = np.cumsum(prob)
        cum += self.mass
        self.cdf.frombytes(cum.tobytes())
        if cum.size:
            self.mass = float(cum[-1])


def build_box_table(radius: int) -> BoxTable:
    """Iterate the killed walk from the box centre for 2R^2 steps.

    The state is (dx, dz, lowest dz so far) on a (2R+1, 2R+1, R+1) grid of
    probabilities; mass that reaches the box edge is recorded as an exit at
    that step and removed.  Every move probability is 1/4, a power of two.
    Entries are stored as they are found, in arrays, so the build holds no
    more than the finished table.
    """
    r = radius
    if not 1 <= r <= 60:
        raise ValueError("box radius must be in [1, 60]: offsets are stored as int8")
    table = BoxTable(r)
    side = 2 * r + 1
    p = np.zeros((side, side, r + 1))  # [dx + r, dz + r, low + r]
    p[r, r, r] = 1.0
    edge = np.ones((side, side), dtype=bool)
    edge[1:-1, 1:-1] = False
    ex, ez, el = np.nonzero(np.broadcast_to(edge[:, :, None], p.shape))
    for t in range(1, table.t_max + 1):
        q = p * 0.25
        p = np.zeros_like(p)
        p[1:] += q[:-1]
        p[:-1] += q[1:]
        p[:, 1:] += q[:, :-1]
        down = np.zeros_like(p)
        down[:, :-1] = q[:, 1:]
        for j in range(r):  # a walk at its lowest offset sets a new low
            down[:, j, j] += down[:, j, j + 1]
            down[:, j, j + 1] = 0.0
        p += down
        out = p[ex, ez, el]
        hit = np.flatnonzero(out)
        table._add(t, ex[hit], ez[hit], el[hit], out[hit])
        p[edge] = 0.0
    sx, sz, sl = np.nonzero(p)
    table._add(table.t_max, sx, sz, sl, p[sx, sz, sl])
    np.frombuffer(table.cdf)[:] /= table.mass  # the last entry becomes exactly 1.0
    return table


@functools.cache
def box_table() -> BoxTable:
    """The one table at ``BOX_RADIUS``, built at the first box of the process."""
    return build_box_table(BOX_RADIUS)


# --- walk law -----------------------------------------------------------------


def slot_table(d: int, vertical_loops: int = 0) -> tuple[int, ...]:
    """The walk law on a loop-free d-regular base, as raw draw -> walker slot.

    Walker slot 0 moves up, 1 moves down and s >= 2 moves to neighbor s - 2.
    With no vertical loops the table is the identity on d + 2 slots: the fair
    walk.  ``vertical_loops`` adds that many slots per vertex that each
    resolve to a fair vertical move (the negative control of the
    loop-equivalence test).  Every slot then appears twice and the two copies
    of a loop slot go up and down, so with D = d + loops each neighbor has
    probability 1/(D+2) and up and down each (2+loops)/(2(D+2)).
    """
    if vertical_loops < 0:
        raise ValueError(f"vertical_loops must be >= 0, got {vertical_loops}")
    if vertical_loops == 0:
        return tuple(range(d + 2))
    return tuple(s for s in range(d + 2) for _ in (0, 1)) + (0, 1) * vertical_loops


def _raw_words(rng: np.random.Generator):
    """``rng``'s source of raw 64-bit words, its ``random_raw``.

    A bit generator whose raw words are narrower would leave the high bytes
    zero and bias every slot cut from them, so it is refused.
    """
    bits = rng.bit_generator
    if isinstance(bits, np.random.MT19937):
        raise TypeError(f"{type(bits).__name__} draws 32-bit raw words; the walk needs 64-bit words")
    return bits.random_raw


def _raw_bytes(raw, words: int) -> bytes:
    """``words`` words from the source ``raw``, each as 8 bytes in little-endian order."""
    return raw(words).astype("<u8", copy=False).tobytes()


def uniform_below(rng: np.random.Generator, n: int) -> int:
    """A uniform integer in [0, n) from one raw 64-bit word w, by multiply-shift.

    floor(w n / 2^64) takes each value for floor(2^64 / n) or one more words
    w; rejecting the words whose low part (w n) mod 2^64 is below 2^64 mod n
    leaves exactly floor(2^64 / n) for each (Lemire), and the word is drawn
    again.
    """
    raw = _raw_words(rng)
    threshold = (1 << 64) % n
    while True:
        m = raw() * n
        if m & 0xFFFF_FFFF_FFFF_FFFF >= threshold:
            return m >> 64


@functools.lru_cache(maxsize=None)
def slot_cutter(table: tuple[int, ...]):
    """(cut, unit): exact uniform slots of ``table`` cut from raw bytes.

    With k = ``len(table)`` at most 256, a unit is one byte b: ``cut`` keeps
    each b < 256 - 256 mod k as ``table[b % k]`` and deletes the others, all
    in one ``bytes.translate``, so each slot has exactly (256 - 256 mod k)/k
    accepting bytes.  A larger table takes 2-byte little-endian units under
    the same rule with 2^16 in place of 256.  ``unit`` is the unit's size in
    bytes.  The pair is cached per table, so the table stays the one record
    of the law.
    """
    k = len(table)
    if k <= 256:
        keep = 256 - 256 % k
        translation = bytes(table[b % k] if b < keep else 0 for b in range(256))
        rejected = bytes(range(keep, 256))
        return (lambda raw: raw.translate(translation, rejected)), 1
    if k > 1 << 16:
        raise ValueError(f"a slot table of {k} slots is beyond 2-byte units")
    keep = (1 << 16) - (1 << 16) % k
    slots = np.array(table)

    def cut(raw: bytes) -> list[int]:
        units = np.frombuffer(raw, dtype="<u2")
        return slots[units[units < keep] % k].tolist()

    return cut, 2


def draw_slots(rng: np.random.Generator, table: tuple[int, ...], count: int):
    """Exactly ``count`` slots of ``table``, cut from as few raw words as hold them."""
    cut, unit = slot_cutter(table)
    raw = _raw_words(rng)
    slots = cut(_raw_bytes(raw, -(-count * unit // 8)))
    while len(slots) < count:
        slots += cut(_raw_bytes(raw, -(-(count - len(slots)) * unit // 8)))
    return slots[:count]


def walk_slots(rng: np.random.Generator, table: tuple[int, ...]):
    """Walker slots for one drop, as blocks of raw bytes cut through ``table``.

    Each block takes 64, 128, ... up to 4,096 raw bytes from ``rng``'s 64-bit
    words and keeps the uniform slots cut from them (:func:`slot_cutter`),
    so a block may hold a few fewer slots than it has bytes.  Each block is
    drawn only when the consumer asks for it, after the previous block is
    used up, so a drop that sticks early consumes few words, a long one pays
    one generator call per 4,096 bytes, and draws the consumer makes between
    blocks (return shapes, base kernel, box exits) interleave with the block
    draws in a fixed order.  The block sizes are part of the output stream.
    """
    cut = slot_cutter(table)[0]
    raw = _raw_words(rng)
    words = 8
    while True:
        yield cut(_raw_bytes(raw, words))
        words = min(2 * words, 512)


# --- bulk excursion study -----------------------------------------------------


@dataclass(frozen=True)
class ExcursionStudy:
    """Result of simulating independent excursions at a high start layer."""

    alpha: float
    trials: int
    cap: int
    signs: np.ndarray  # +1 / -1 / 0 per trial
    g_steps: np.ndarray
    lengths: np.ndarray
    capped: np.ndarray
    positive_long: EstimateSummary
    negative_long: EstimateSummary
    bound: float
    bound_check: BoundCheck

    @property
    def symmetry_gap(self) -> float:
        return abs(self.positive_long.mean - self.negative_long.mean)

    @property
    def symmetry_sigma(self) -> float:
        return math.sqrt(
            self.positive_long.std_error**2 + self.negative_long.std_error**2
        )


def _simulate_excursion_skeletons(
    d: int, trials: int, cap: int, rng: np.random.Generator
):
    """Vectorized literal simulation of the vertical skeleton of excursions.

    Only the layer increments matter for (sign, g_steps, length): each step
    is up/down with probability 1/(d+2) each, else a same-layer move.  The
    base coordinate is irrelevant to those statistics and is not tracked.
    """
    vmap = np.zeros(d + 2, dtype=np.int64)
    vmap[0] = 1
    vmap[1] = -1
    first = rng.integers(0, d + 2, size=trials, dtype=np.int64)
    signs = np.where(first == 0, 1, np.where(first == 1, -1, 0)).astype(np.int8)
    g_steps = (first >= 2).astype(np.int64)
    lengths = np.ones(trials, dtype=np.int64)
    capped = np.zeros(trials, dtype=bool)
    active = np.nonzero(first < 2)[0]
    pos = vmap[first[active]]
    block = 64
    while active.size:
        n_active = active.size
        slots = rng.integers(0, d + 2, size=(n_active, block), dtype=np.int16)
        vmove = vmap[slots]
        rel = pos[:, None] + np.cumsum(vmove, axis=1)
        gcum = np.cumsum(slots >= 2, axis=1, dtype=np.int64)
        hit = rel == 0
        has = hit.any(axis=1)
        idx = np.argmax(hit, axis=1)
        fin = np.nonzero(has)[0]
        if fin.size:
            rows = active[fin]
            cols = idx[fin]
            g_steps[rows] += gcum[fin, cols]
            lengths[rows] += cols + 1
        sur = np.nonzero(~has)[0]
        rows = active[sur]
        g_steps[rows] += gcum[sur, -1]
        lengths[rows] += block
        pos = rel[sur, -1]
        active = rows
        over = lengths[active] >= cap  # not back by the cap, so longer than it
        capped[active[over]] = True
        active, pos = active[~over], pos[~over]
        block = min(block * 2, 8192)
    capped |= lengths > cap  # and those that returned inside the block that crossed the cap
    return signs, g_steps, lengths, capped


def long_excursion_probability_bound(d: int, alpha: float) -> float:
    """Lower bound 1/(12 (d+2) sqrt(alpha)) for a positive alpha-long excursion."""
    if alpha < 2:
        raise ValueError("the lower bound needs alpha >= 2")
    return 1.0 / (12.0 * (d + 2) * math.sqrt(alpha))


def long_excursion_frequency(
    g: RegularGraph,
    alpha: float,
    trials: int,
    seed,
    cap: int = DEFAULT_EXCURSION_CAP,
) -> ExcursionStudy:
    """Simulate independent excursions and check the alpha-long lower bound.

    Excursions that outrun ``cap`` steps are reported separately and count
    as not alpha-long, which only makes the lower-bound check more
    conservative.
    """
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    rng = np.random.default_rng(seed)
    signs, g_steps, lengths, capped = _simulate_excursion_skeletons(g.d, trials, cap, rng)
    ok = ~capped & (g_steps >= alpha)
    pos_long = int(((signs == 1) & ok).sum())
    neg_long = int(((signs == -1) & ok).sum())
    cap_hits = int(capped.sum())
    pos_summary = EstimateSummary.from_bernoulli(pos_long, trials, cap_hits=cap_hits)
    neg_summary = EstimateSummary.from_bernoulli(neg_long, trials, cap_hits=cap_hits)
    bound = long_excursion_probability_bound(g.d, alpha)
    check = make_bound_check(
        f"positive-{alpha:g}-long-excursion-lower-bound", bound, ">=", pos_summary
    )
    return ExcursionStudy(
        alpha=alpha,
        trials=trials,
        cap=cap,
        signs=signs,
        g_steps=g_steps,
        lengths=lengths,
        capped=capped,
        positive_long=pos_summary,
        negative_long=neg_summary,
        bound=bound,
        bound_check=check,
    )
