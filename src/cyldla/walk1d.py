"""Exact and simulated facts about one-dimensional random walks.

These are the trust anchors for the cylinder walk's vertical coordinate:
closed forms are kept in exact rational arithmetic, and an exhaustive path
enumerator provides an independent ground-truth oracle for small step
counts.  The first-passage sampler at the bottom drives the cluster
simulator's exact returns to the growth front from above it.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MAX_EXACT_HALF_STEPS = 32  # closed forms use big-integer binomials up to 2n = 64
MAX_ENUM_STEPS = 20


@dataclass(frozen=True)
class LazyWalkParams:
    """Lazy walk on the integers: hold with probability 1 - alpha, else +-1."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


def ballot_probability(n: int) -> Fraction:
    """P[S(i) >= 0 for all 1 <= i <= 2n] for the simple +-1 walk from 0.

    Equals 2^(-2n) * C(2n, n), which is also the probability that the walk
    has not hit -1 by time 2n.
    """
    if not 1 <= n <= MAX_EXACT_HALF_STEPS:
        raise ValueError(f"n must be in [1, {MAX_EXACT_HALF_STEPS}], got {n}")
    return Fraction(math.comb(2 * n, n), 4**n)


def zero_count_cdf(n: int, m: int) -> Fraction:
    """P[L(2n) < m] where L counts visits to 0 among steps 1..2n.

    Closed form 2^(-2n) * sum_{j=0}^{m-1} 2^j * C(2n - j, n), valid for
    1 <= m <= n.
    """
    if not 1 <= n <= MAX_EXACT_HALF_STEPS:
        raise ValueError(f"n must be in [1, {MAX_EXACT_HALF_STEPS}], got {n}")
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= n, got m={m}, n={n}")
    total = sum(2**j * math.comb(2 * n - j, n) for j in range(m))
    return Fraction(total, 4**n)


def _simple_paths(steps: int) -> np.ndarray:
    idx = np.arange(2**steps, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(steps)) & 1
    return (2 * bits - 1).astype(np.int8)


def enumerate_paths(steps: int, event) -> Fraction:
    """Exact probability of ``event`` for the simple +-1 walk, by enumeration.

    ``event`` receives the partial-sum array of shape (2^steps, steps + 1)
    including S(0) = 0 and must return a boolean mask; the result is an
    exact ``Fraction``.  Memory grows like 2^steps; the hard cap is
    ``steps <= 20``.
    """
    if not 0 <= steps <= MAX_ENUM_STEPS:
        raise ValueError(f"steps must be in [0, {MAX_ENUM_STEPS}], got {steps}")
    inc = _simple_paths(steps)
    paths = np.concatenate(
        [np.zeros((inc.shape[0], 1), dtype=np.int16), np.cumsum(inc, axis=1, dtype=np.int16)],
        axis=1,
    )
    mask = np.asarray(event(paths), dtype=bool)
    return Fraction(int(mask.sum()), 2**steps)


def simulate_lazy_walks(params: LazyWalkParams, steps: int, walks: int, seed) -> np.ndarray:
    """Reproducible batch of lazy-walk paths S(0..steps), shape (walks, steps + 1).

    ``seed`` may be a Generator.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = np.random.default_rng(seed)
    u = rng.random((walks, steps))
    inc = np.where(u < params.alpha / 2.0, 1, np.where(u < params.alpha, -1, 0))
    out = np.zeros((walks, steps + 1), dtype=np.int64)
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


@dataclass(frozen=True)
class MaxTailBound:
    """Kolmogorov-inequality bound on the running maximum of a lazy walk."""

    threshold: float  # sqrt(beta * alpha * m)
    bound: float  # 1 / beta
    variance: float  # Var[S(m)] = alpha * m


def lazy_max_tail(alpha: float, m: int, beta: float) -> MaxTailBound:
    """Bound P[max_{1<=i<=m} |S(i)| >= sqrt(beta*alpha*m)] <= 1/beta."""
    LazyWalkParams(alpha)
    if m < 1:
        raise ValueError("m must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    return MaxTailBound(math.sqrt(beta * alpha * m), 1.0 / beta, alpha * m)


def zeros_constant(alpha: float, eps: float) -> float:
    """Constant C with P[L(ceil(C n^2)) < n] <= eps for every n >= 1.

    L counts zero visits of the lazy walk with move probability ``alpha``.
    C is assembled from the explicit inequality chain

        2*exp(-(alpha^2/2) * C * n^2) + sqrt(2)*n / sqrt(alpha*C*n^2 - 4n) <= eps,

    which requires C > 4/alpha; both terms decrease in n, so the binding
    case is n = 1.  Found by bisection on that scalar inequality.
    """
    LazyWalkParams(alpha)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")

    def worst(c: float) -> float:
        return 2.0 * math.exp(-(alpha**2) * c / 2.0) + math.sqrt(2.0) / math.sqrt(alpha * c - 4.0)

    lo = 4.0 / alpha
    hi = lo + 1.0
    while worst(hi) > eps:
        hi = lo + 2.0 * (hi - lo)
    left = lo
    for _ in range(200):
        mid = 0.5 * (left + hi)
        if mid <= lo or worst(mid) > eps:
            left = mid
        else:
            hi = mid
    return hi


# --- first-passage law of the fair +-1 walk ---------------------------------
#
# rho = number of moves a simple +-1 walk takes to first reach one step below
# its start.  rho is odd, and P(rho > 2k) = 2^(-2k) * C(2k, k).  The sampler
# inverts this tail: an exact product for k <= 64, and above that the
# asymptotic series of the central binomial coefficient, whose relative error
# is below 1.3e-12 at k = 65 and reaches machine precision near k = 1e3.  The
# series stays finite and non-increasing at every k the sampler can reach,
# which a difference of log-gamma values does not (it overflows near 6.5e16).
# The sampler looks the tail up in a table of its negated values up to
# k = 4,096 and searches beyond; the tail is non-increasing, so both find
# the same k.

_SMALL_TAIL = [1.0]
for _k in range(1, 65):
    _SMALL_TAIL.append(_SMALL_TAIL[-1] * (2 * _k - 1) / (2 * _k))


def first_passage_tail(k: int) -> float:
    """P(rho > 2k): probability the walk needs more than 2k moves."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k < len(_SMALL_TAIL):
        return _SMALL_TAIL[k]
    return float(_series_tail(k))


def _series_tail(k):
    """The asymptotic series of P(rho > 2k), at an int k or a float array of them."""
    x = 1.0 / k
    series = 1.0 - x / 8.0 + x * x / 128.0 + 5.0 * x**3 / 1024.0 - 21.0 * x**4 / 32768.0
    return series / np.sqrt(math.pi * k)


_TAIL_TABLE_TOP = 4096
_NEG_TAIL = array(
    "d",
    (-np.concatenate([_SMALL_TAIL, _series_tail(np.arange(len(_SMALL_TAIL), _TAIL_TABLE_TOP + 1.0))])).tobytes(),
)


def sample_first_passage_moves(rng: np.random.Generator) -> int:
    """Draw rho: the odd number of +-1 moves to first reach start - 1.

    Inverse-CDF sampling on the exact tail; the returned value can be
    astronomically large (the law has infinite mean), which callers must
    tolerate.
    """
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    # find the largest j with tail(j) >= u, i.e. rho = 2j + 1
    j = bisect_right(_NEG_TAIL, -u) - 1
    if j < _TAIL_TABLE_TOP:
        return 2 * j + 1
    lo = _TAIL_TABLE_TOP  # tail(lo) >= u
    hi = 2 * lo
    while first_passage_tail(hi) >= u:
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if first_passage_tail(mid) >= u:
            lo = mid
        else:
            hi = mid
    return 2 * lo + 1
