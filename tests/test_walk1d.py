import math
from fractions import Fraction

import numpy as np
import pytest

from cyldla.walk1d import (
    LazyWalkParams,
    ballot_probability,
    enumerate_paths,
    first_passage_tail,
    lazy_max_tail,
    sample_first_passage_moves,
    simulate_lazy_walks,
    zero_count_cdf,
    zeros_constant,
)


def all_prefixes_nonneg(paths):
    return paths[:, 1:].min(axis=1) >= 0


def zero_visits_below(m):
    return lambda paths: (paths[:, 1:] == 0).sum(axis=1) < m


def test_ballot_small_values():
    assert ballot_probability(1) == Fraction(1, 2)
    assert ballot_probability(2) == Fraction(3, 8)


def test_ballot_closed_form_shape():
    for n in range(1, 11):
        assert ballot_probability(n) == Fraction(math.comb(2 * n, n), 4**n)


def test_ballot_equals_enumeration():
    for n in range(1, 8):
        assert ballot_probability(n) == enumerate_paths(2 * n, all_prefixes_nonneg)


def test_zero_count_small_values():
    assert zero_count_cdf(1, 1) == Fraction(1, 2)
    assert zero_count_cdf(2, 1) == Fraction(3, 8)


def test_zero_count_equals_enumeration():
    for n in range(1, 8):
        for m in range(1, n + 1):
            assert zero_count_cdf(n, m) == enumerate_paths(2 * n, zero_visits_below(m))


def test_zero_count_monotone_in_m():
    values = [zero_count_cdf(12, m) for m in range(1, 13)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_zero_count_rejects_bad_m():
    with pytest.raises(ValueError):
        zero_count_cdf(4, 5)
    with pytest.raises(ValueError):
        zero_count_cdf(4, 0)


def test_enumerate_simple_examples():
    assert enumerate_paths(2, lambda p: p[:, 2] == 0) == Fraction(1, 2)
    assert enumerate_paths(4, zero_visits_below(1)) == Fraction(3, 8)


def test_enumerate_rejects_large():
    with pytest.raises(ValueError):
        enumerate_paths(21, all_prefixes_nonneg)


def test_simulate_lazy_walk():
    params = LazyWalkParams(0.5)
    assert simulate_lazy_walks(params, 0, 1, 1)[0].tolist() == [0]
    path = simulate_lazy_walks(LazyWalkParams(1.0), 1000, 1, 3)[0]
    assert np.all(np.abs(np.diff(path)) == 1)  # no holds at alpha=1
    a = simulate_lazy_walks(params, 200, 1, 9)[0]
    b = simulate_lazy_walks(params, 200, 1, 9)[0]
    assert np.array_equal(a, b)


def test_lazy_params_validation():
    with pytest.raises(ValueError):
        LazyWalkParams(0.0)
    with pytest.raises(ValueError):
        LazyWalkParams(1.5)


def test_variance_identity():
    for alpha, m in ((0.5, 100), (0.6, 64)):
        paths = simulate_lazy_walks(LazyWalkParams(alpha), m, 100_000, seed=17)
        var = paths[:, -1].astype(float).var()
        assert abs(var - alpha * m) < 0.05 * alpha * m


def test_max_tail_values():
    mt = lazy_max_tail(1.0, 4, 1.0)
    assert mt.bound == 1.0  # vacuous
    mt = lazy_max_tail(1.0, 4, 4.0)
    assert mt.threshold == pytest.approx(4.0)
    exact = enumerate_paths(4, lambda p: np.abs(p[:, 1:]).max(axis=1) >= 4)
    assert exact == Fraction(1, 8) and float(exact) <= mt.bound
    assert mt.variance == pytest.approx(4.0)


def test_max_tail_monte_carlo():
    for alpha, m, beta in ((0.5, 100, 4.0), (1.0, 64, 9.0)):
        mt = lazy_max_tail(alpha, m, beta)
        paths = simulate_lazy_walks(LazyWalkParams(alpha), m, 40_000, seed=23)
        freq = (np.abs(paths[:, 1:]).max(axis=1) >= mt.threshold).mean()
        se = math.sqrt(freq * (1 - freq) / 40_000)
        assert freq <= mt.bound + 3 * se


def test_zeros_constant_properties():
    for alpha in (0.3, 0.5, 1.0):
        c = zeros_constant(alpha, 0.5)
        assert c > 4.0 / alpha
    cs = [zeros_constant(0.5, eps) for eps in (0.5, 0.2, 0.1)]
    assert cs[0] <= cs[1] <= cs[2]


def test_zeros_constant_monte_carlo():
    alpha, eps = 0.5, 0.5
    c = zeros_constant(alpha, eps)
    for n in (2, 4, 8):
        steps = math.ceil(c * n * n)
        paths = simulate_lazy_walks(LazyWalkParams(alpha), steps, 3000, seed=100 + n)
        few = ((paths[:, 1:] == 0).sum(axis=1) < n).mean()
        se = math.sqrt(max(few * (1 - few), 1e-12) / 3000)
        assert few <= eps + 3 * se


def test_first_passage_tail_matches_ballot():
    assert first_passage_tail(0) == 1.0
    for k in range(1, 11):
        assert first_passage_tail(k) == pytest.approx(float(ballot_probability(k)), rel=1e-12)
    # the table's recurrence holds at its last entry
    assert first_passage_tail(64) == pytest.approx(
        first_passage_tail(63) * 127 / 128, rel=1e-12
    )


@pytest.mark.parametrize("k", [65, 66, 100, 1_000, 12_345, 10**5])
def test_first_passage_tail_exact_beyond_table(k):
    exact = float(Fraction(math.comb(2 * k, k), 4**k))
    assert first_passage_tail(k) == pytest.approx(exact, rel=1e-11, abs=0.0)


def test_first_passage_tail_monotone_and_finite_to_1e18():
    ks = sorted({int(k) for k in np.geomspace(64, 1e18, 2_000)})
    tails = [first_passage_tail(k) for k in ks]
    assert all(math.isfinite(t) and t > 0.0 for t in tails)
    assert all(a > b for a, b in zip(tails, tails[1:]))
    assert first_passage_tail(10**18) == pytest.approx(1 / math.sqrt(math.pi * 1e18), rel=1e-15)


class _FixedUniform:
    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize("u", [0.5, 1e-3, 1e-9, 1e-12, 2.0**-53])
def test_first_passage_sampler_inverts_extreme_uniforms(u):
    rho = sample_first_passage_moves(_FixedUniform(u))
    j = (rho - 1) // 2
    assert rho % 2 == 1
    assert first_passage_tail(j) >= u > first_passage_tail(j + 1)
    if u <= 1e-9:  # deep in the tail, P(rho > 2k) = 1/sqrt(pi k) to ~1/(8k)
        assert j == pytest.approx(1.0 / (math.pi * u * u), rel=1e-9, abs=0.0)


def test_first_passage_sampler_distribution():
    rng = np.random.default_rng(5)
    draws = np.array([sample_first_passage_moves(rng) for _ in range(30_000)])
    assert np.all(draws % 2 == 1)
    for moves, prob in ((1, 0.5), (3, 0.125), (5, 0.0625)):
        freq = (draws == moves).mean()
        se = math.sqrt(prob * (1 - prob) / draws.size)
        assert abs(freq - prob) <= 3 * se + 1e-9
    # heavy tail present: some draw should exceed 1000 moves w.h.p.
    assert draws.max() > 1000


def _first_passage_by_search(u):
    """The doubling-and-bisection search on the tail, the sampler's reference."""
    if first_passage_tail(1) < u:
        return 1
    lo, hi = 1, 2
    while first_passage_tail(hi) >= u:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if first_passage_tail(mid) >= u:
            lo = mid
        else:
            hi = mid
    return 2 * lo + 1


def test_first_passage_lookup_matches_the_search():
    tails = [first_passage_tail(k) for k in range(4100)]
    edges = [np.nextafter(t, side) for t in tails for side in (0.0, 1.0)]
    uniforms = np.random.default_rng(12).random(50_000).tolist()
    for u in tails[1:] + edges[2:] + uniforms + [1e-12, 2.0**-53]:
        assert sample_first_passage_moves(_FixedUniform(u)) == _first_passage_by_search(u), u
