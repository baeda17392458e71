"""Estimate summaries, bound checks, and small statistical helpers."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CI95_MULTIPLIER = 1.96
BOUND_SIGMAS = 3.0


@dataclass(frozen=True)
class EstimateSummary:
    """Monte-Carlo estimate with normal-approximation confidence interval."""

    mean: float
    std_error: float
    ci95: float
    trials: int
    cap_hits: int = 0

    @staticmethod
    def from_samples(values) -> "EstimateSummary":
        x = np.asarray(values, dtype=np.float64)
        if x.size == 0:
            raise ValueError("cannot summarize zero samples")
        se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
        return EstimateSummary(float(x.mean()), se, CI95_MULTIPLIER * se, int(x.size))

    @staticmethod
    def from_bernoulli(successes: int, trials: int, cap_hits: int = 0) -> "EstimateSummary":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        p = successes / trials
        se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        return EstimateSummary(p, se, CI95_MULTIPLIER * se, trials, cap_hits)


@dataclass(frozen=True)
class BoundCheck:
    """Verdict of an estimate against a one-sided bound.

    ``direction`` is the relation the estimate is expected to satisfy
    against ``bound_value`` ("<=" or ">=").  The verdict's margin is
    ``BOUND_SIGMAS`` standard errors of the estimate.  Verdicts:

    - ``pass``: the bound holds with more than the margin;
    - ``inconclusive-within-ci``: consistent with the bound at the margin;
    - ``fail``: the bound is violated by more than the margin.

    ``applicability`` carries caveats for bounds whose hypotheses contain
    uncalibrated constants; it never affects the verdict.
    """

    name: str
    bound_value: float
    direction: str
    estimate: float
    verdict: str
    applicability: str | None = None

    @property
    def violated(self) -> bool:
        return self.verdict == "fail"


def make_bound_check(
    name: str,
    bound_value: float,
    direction: str,
    summary: EstimateSummary,
    applicability: str | None = None,
) -> BoundCheck:
    if direction not in ("<=", ">="):
        raise ValueError(f"direction must be '<=' or '>=', got {direction!r}")
    est = summary.mean
    ci = BOUND_SIGMAS * summary.std_error
    if direction == "<=":
        if est + ci <= bound_value:
            verdict = "pass"
        elif est - ci > bound_value:
            verdict = "fail"
        else:
            verdict = "inconclusive-within-ci"
    else:
        if est - ci >= bound_value:
            verdict = "pass"
        elif est + ci < bound_value:
            verdict = "fail"
        else:
            verdict = "inconclusive-within-ci"
    return BoundCheck(name, bound_value, direction, est, verdict, applicability)


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    p_value: float
    categories: tuple
    collapsed: bool


def chi_square_two_sample(counts_a: dict, counts_b: dict) -> Chi2Result:
    """Two-sample chi-square test on categorical counts.

    Categories whose combined count is below 10 are merged into a single
    rest bucket so every cell has a usable expectation; the
    ``collapsed`` flag reports whether merging happened.  ``scipy.special``
    is imported here, so that importing the package loads no scipy.
    """
    from scipy.special import chdtrc

    keys = sorted(set(counts_a) | set(counts_b), key=lambda k: (-(counts_a.get(k, 0) + counts_b.get(k, 0)), repr(k)))
    kept, rest_a, rest_b = [], 0, 0
    for k in keys:
        total = counts_a.get(k, 0) + counts_b.get(k, 0)
        if total >= 10:
            kept.append(k)
        else:
            rest_a += counts_a.get(k, 0)
            rest_b += counts_b.get(k, 0)
    a = [counts_a.get(k, 0) for k in kept]
    b = [counts_b.get(k, 0) for k in kept]
    collapsed = rest_a + rest_b > 0
    if collapsed:
        a.append(rest_a)
        b.append(rest_b)
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    n_a, n_b = a_arr.sum(), b_arr.sum()
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples need at least one observation")
    col = a_arr + b_arr
    grand = n_a + n_b
    stat = 0.0
    df = 0
    for ca, cb, ct in zip(a_arr, b_arr, col):
        if ct == 0:
            continue
        ea = ct * n_a / grand
        eb = ct * n_b / grand
        stat += (ca - ea) ** 2 / ea + (cb - eb) ** 2 / eb
        df += 1
    df = max(df - 1, 1)
    p = float(chdtrc(df, stat))
    cats = tuple(kept) + (("<rest>",) if collapsed else ())
    return Chi2Result(float(stat), p, cats, collapsed)
