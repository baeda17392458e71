"""Deterministic verification suites behind the ``verify`` CLI command.

:data:`SUITES` names every check once, in report order.  A check takes the
suite seed and returns ``(passed, detail)``; :func:`run_suite` turns each
into a pass/fail line.  Monte-Carlo checks run on fixed sub-seeds derived
from the suite seed, so the whole report is reproducible byte for byte.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dla, walk1d
from .cylinder import long_excursion_frequency
from .experiment import estimate_new_layer_probability, replica_rng
from .graphs import (
    make_complete,
    make_cycle,
    make_hypercube,
    make_torus,
    parse_graph_spec,
)
from .oracles import first_hit_distribution, total_variation
from .spectral import (
    avoidance_bound,
    avoidance_frequency,
    count_constrained_paths,
    eigen_profile,
    lazy_transition_matrix,
    mixing_time,
)
from .stats import BOUND_SIGMAS, EstimateSummary


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# --- walk1d suite ---------------------------------------------------------------


def _check_ballot_enumeration(_seed: int) -> tuple[bool, str]:
    for n in range(1, 9):
        exact = walk1d.ballot_probability(n)
        enum = walk1d.enumerate_paths(2 * n, lambda p: p[:, 1:].min(axis=1) >= 0)
        if exact != enum:
            return False, f"mismatch at n={n}: {exact} vs {enum}"
    return True, "exact equality for n=1..8"


def _check_zero_count_enumeration(_seed: int) -> tuple[bool, str]:
    for n in range(1, 9):
        for m in range(1, n + 1):
            exact = walk1d.zero_count_cdf(n, m)
            enum = walk1d.enumerate_paths(
                2 * n, lambda p, m=m: (p[:, 1:] == 0).sum(axis=1) < m
            )
            if exact != enum:
                return False, f"mismatch at n={n}, m={m}: {exact} vs {enum}"
    return True, "exact equality for n=1..8, all m"


def _check_zero_count_monotone(_seed: int) -> tuple[bool, str]:
    n = 10
    values = [walk1d.zero_count_cdf(n, m) for m in range(1, n + 1)]
    ok = all(a <= b for a, b in zip(values, values[1:]))
    return ok, f"n={n}, m=1..{n}"


def _check_stirling_style_bound(_seed: int) -> tuple[bool, str]:
    for n in range(2, 33):
        for m in range(1, n):
            if float(walk1d.zero_count_cdf(n, m)) >= m / math.sqrt(2 * n - 2 * m):
                return False, f"violated at n={n}, m={m}"
    return True, "holds on 2<=n<=32, m<n grid"


def _check_max_tail_exact(_seed: int) -> tuple[bool, str]:
    mt = walk1d.lazy_max_tail(1.0, 4, 4.0)
    exact = walk1d.enumerate_paths(
        4, lambda p, thr=mt.threshold: np.abs(p[:, 1:]).max(axis=1) >= thr
    )
    ok = exact == Fraction(1, 8) and exact <= Fraction(mt.bound).limit_denominator()
    return ok, f"P={exact} <= bound {mt.bound}"


def _check_lazy_variance(seed: int) -> tuple[bool, str]:
    for tag, (alpha, m) in enumerate([(0.5, 100), (0.6, 64)]):
        params = walk1d.LazyWalkParams(alpha)
        paths = walk1d.simulate_lazy_walks(params, m, 100_000, replica_rng(seed, 10 + tag))
        var = float(paths[:, -1].astype(np.float64).var())
        if abs(var - alpha * m) > 0.05 * alpha * m:
            return False, f"alpha={alpha}, m={m}: var {var:.3f}"
    return True, "within 5% of alpha*m"


def _check_zeros_constant(seed: int) -> tuple[bool, str]:
    alpha, eps = 0.5, 0.5
    c = walk1d.zeros_constant(alpha, eps)
    if c <= 4.0 / alpha:
        return False, f"C={c} not above 4/alpha"
    params = walk1d.LazyWalkParams(alpha)
    for tag, n in enumerate((2, 4, 8)):
        steps = math.ceil(c * n * n)
        walks = 2000
        paths = walk1d.simulate_lazy_walks(params, steps, walks, replica_rng(seed, 20 + tag))
        few_zeros = int(((paths[:, 1:] == 0).sum(axis=1) < n).sum())
        summary = EstimateSummary.from_bernoulli(few_zeros, walks)
        if summary.mean - BOUND_SIGMAS * summary.std_error > eps:
            return False, f"n={n}: frequency {summary.mean:.3f} above eps"
    return True, f"C={c:.2f} validated at n in {{2,4,8}}"


def _check_first_passage_sampler(seed: int) -> tuple[bool, str]:
    for k in range(0, 11):
        if not math.isclose(
            walk1d.first_passage_tail(k), float(walk1d.ballot_probability(max(k, 1)) if k else 1.0)
        ):
            return False, f"tail mismatch at k={k}"
    rng = replica_rng(seed, 30)
    draws = np.array([walk1d.sample_first_passage_moves(rng) for _ in range(20_000)])
    for moves, prob in ((1, 0.5), (3, 0.125), (5, 0.0625)):
        est = EstimateSummary.from_bernoulli(int((draws == moves).sum()), draws.size)
        if abs(est.mean - prob) > BOUND_SIGMAS * est.std_error + 1e-9:
            return False, f"P(rho={moves}) off: {est.mean:.4f}"
    return True, "tail identity and pmf agree"


# --- spectral suite -------------------------------------------------------------


def _check_known_spectra(_seed: int) -> tuple[bool, str]:
    k4 = eigen_profile(make_complete(4))
    if abs(k4.lam - 1.0 / 3.0) > 1e-9:
        return False, f"K4 lambda {k4.lam}"
    c9 = eigen_profile(make_cycle(9))
    if abs(c9.lam - abs(math.cos(8 * math.pi / 9))) > 1e-9:
        return False, f"C9 lambda {c9.lam}"
    q3 = eigen_profile(make_hypercube(3))
    if abs(q3.lam - 1.0) > 1e-9 or abs(q3.gap) > 1e-9:
        return False, f"Q3 lambda {q3.lam}"
    return True, "K4, C9, Q3 eigenvalues match"


def _check_trace_identity(_seed: int) -> tuple[bool, str]:
    from .graphs import add_self_loops

    for g in (make_complete(4), add_self_loops(make_cycle(5)), make_hypercube(3)):
        prof = eigen_profile(g)
        trace = g.loop_count() / g.d
        if abs(sum(prof.eigenvalues) - trace) > 1e-6:
            return False, f"{g.label}: {sum(prof.eigenvalues)}"
    return True, "sum(eig) = loops/d"


def _exact_mixing_oracle(g, cap: int) -> int | None:
    n = g.n
    p = [[Fraction(0) for _ in range(n)] for _ in range(n)]
    for v, row in enumerate(g.neighbors):
        p[v][v] += Fraction(1, g.d + 1)
        for u in row:
            p[v][u] += Fraction(1, g.d + 1)
    b = [row[:] for row in p]
    threshold = Fraction(1, 2 * n)
    for t in range(1, cap + 1):
        if min(min(row) for row in b) >= threshold:
            return t
        b = [
            [sum(b[i][k] * p[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return None


def _check_mixing_times(_seed: int) -> tuple[bool, str]:
    for g, expected in ((make_complete(3), 1), (make_cycle(4), 2)):
        got = mixing_time(g, 50)
        oracle = _exact_mixing_oracle(g, 50)
        if got != expected or oracle != expected:
            return False, f"{g.label}: got {got}, oracle {oracle}, expected {expected}"
    q3 = mixing_time(make_hypercube(3), 1000)
    if not isinstance(q3, int):
        return False, "Q3 did not mix under cap"
    return True, f"K3=1, C4=2 (rational oracle), Q3={q3}"


def _check_mixing_monotone(_seed: int) -> tuple[bool, str]:
    p = lazy_transition_matrix(make_cycle(5))
    b = p.copy()
    mins = []
    for _ in range(40):
        mins.append(float(b.min()))
        b = b @ p
    ok = all(y >= x - 1e-12 for x, y in zip(mins, mins[1:]))
    return ok, "40 powers of lazy C5"


def _check_avoidance_bound_values(_seed: int) -> tuple[bool, str]:
    k4 = eigen_profile(make_complete(4))
    if abs(avoidance_bound(k4, [1.0, 1.0, 1.0]) - 1.0) > 1e-12:
        return False, "all-ones case"
    if abs(avoidance_bound(k4, [0.5, 0.5]) - math.exp(-1.0 / 3.0)) > 1e-12:
        return False, "K4 half-sets case"
    return True, "plug-in values match"


def _check_path_counts(_seed: int) -> tuple[bool, str]:
    k3 = make_complete(3)
    hand = count_constrained_paths(k3, [{0}, {1}])
    if hand.count != 2:
        return False, f"got {hand.count}"
    full = count_constrained_paths(k3, [set(range(3))])
    if full.count != 3 * 2:
        return False, f"full set: {full.count}"
    empty = count_constrained_paths(k3, [set()])
    if empty.count != 0:
        return False, f"empty set: {empty.count}"
    return True, "K3 hand enumeration matches"


def _random_set_families(g, rng, families: int):
    for _ in range(families):
        t = int(rng.integers(1, 6))  # 1 to 5 sets
        yield [
            set(int(v) for v in rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False))
            for _ in range(t)
        ]


def _check_path_bound_random(seed: int) -> tuple[bool, str]:
    rng = replica_rng(seed, 40)
    checked = 0
    for g in (make_complete(4), make_cycle(5), parse_graph_spec("random:10:3:seed=1")):
        for sets in _random_set_families(g, rng, 20):
            count_constrained_paths(g, sets)  # raises where the exact count exceeds the bound
            checked += 1
    return True, f"{checked} random families within bound"


def _check_avoidance_monte_carlo(seed: int) -> tuple[bool, str]:
    rng = replica_rng(seed, 41)
    for g in (make_complete(4), make_cycle(5), make_torus(3, 2)):
        prof = eigen_profile(g)
        for i, sets in enumerate(_random_set_families(g, rng, 5)):
            bound = avoidance_bound(prof, [len(c) / g.n for c in sets])
            freq = avoidance_frequency(g, sets, 4000, replica_rng(seed, 100 + i))
            if freq.mean - BOUND_SIGMAS * freq.std_error > bound:
                return False, f"{g.label}: frequency {freq.mean:.4f} above bound {bound:.4f}"
    return True, "stay-in-sets frequency within bound"


# --- dla suite ------------------------------------------------------------------


def _check_first_particle(_seed: int) -> tuple[bool, str]:
    for g in (make_cycle(8), make_complete(5), make_torus(3, 2), make_hypercube(3)):
        rng = replica_rng(0, 50)
        for _ in range(200):
            cluster = dla.new_cluster(g)
            out = dla.drop_particle(cluster, rng)
            if out.kappa != 0 or out.H != 1 or cluster.first_reach.get(1) != 1:
                return False, g.label
    return True, "kappa=0, H=1, T_1=1 on 4 bases x200"


def _check_cluster_invariants(seed: int) -> tuple[bool, str]:
    g = make_cycle(5)
    cluster = dla.new_cluster(g)
    dla.grow(cluster, replica_rng(seed, 51), particles=300)
    if sum(cluster.loads) != g.n + cluster.t:
        return False, "mass conservation failed"
    if cluster.loads[0] != g.n:
        return False, "layer 0 not full"
    for i in range(1, cluster.M):
        if cluster.loads[i] < 1:
            return False, f"empty layer {i} below M"
    if any(x > 0 for x in cluster.loads[cluster.M :]):
        return False, "occupied layer at or above M"
    times = sorted(cluster.first_reach.items())
    if [m for m, _ in times] != list(range(1, cluster.M)):
        return False, "first-reach layers not contiguous"
    if not all(b > a for (_, a), (_, b) in zip(times, times[1:])):
        return False, "T_m not strictly increasing"
    return True, "loads, mass, and T_m shape hold"


def _check_load_event_identity(seed: int) -> tuple[bool, str]:
    cluster = dla.new_cluster(make_complete(4))
    dla.grow(cluster, replica_rng(seed, 52), particles=200)
    heights = [h for _, _, h in cluster.stick_log]
    for i in range(1, cluster.M + 1):
        if sum(h >= i for h in heights) != dla.load_at_least(cluster, i):
            return False, f"final L(>={i})"
    return True, "L(>=i) increments exactly when H >= i"


def _check_first_hit_oracle(seed: int) -> tuple[bool, str]:
    cluster = dla.new_cluster(make_complete(3))
    dla.drop_particle(cluster, replica_rng(seed, 53))
    oracle = first_hit_distribution(cluster)
    trials = 20_000
    outcomes = estimate_new_layer_probability(cluster, trials, replica_rng(seed, 54)).outcomes
    counts = Counter((out.stick_g, out.H) for out in outcomes)
    tv = total_variation({k: v / trials for k, v in counts.items()}, oracle)
    return tv <= 0.02, f"TV={tv:.4f} at {trials} probes"


def _check_stick_above(seed: int) -> tuple[bool, str]:
    g = make_complete(3)
    res = dla.stick_above_frequency(g, layer=1, count=1, trials=3000, seed=replica_rng(seed, 55))
    if res.bound_check.violated:
        return False, f"freq {res.summary.mean:.3f}"
    wall = dla.stick_above_frequency(g, layer=1, count=3, trials=200, seed=replica_rng(seed, 56))
    if wall.summary.mean != 1.0:
        return False, "wall case not certain"
    return True, f"freq {res.summary.mean:.3f} >= 1/3 - 3se; wall case = 1"


def _check_visit_set(seed: int) -> tuple[bool, str]:
    res = dla.entry_layer_visit_set(make_cycle(6), trials=20_000, seed=replica_rng(seed, 57))
    if res.bound_check.violated:
        return False, f"mean {res.mean_summary.mean:.3f}"
    gap = abs(res.single_visit.mean - res.single_visit_exact)
    if gap > BOUND_SIGMAS * res.single_visit.std_error + 1e-9:
        return False, f"P(|S|=1) off by {gap:.4f}"
    return True, (
        f"mean {res.mean_summary.mean:.3f} >= {res.bound_check.bound_value:.3f}; "
        f"P(|S|=1) within noise of {res.single_visit_exact:.3f}"
    )


def _check_new_layer_probe(seed: int) -> tuple[bool, str]:
    cluster = dla.new_cluster(make_complete(3))
    dla.drop_particle(cluster, replica_rng(seed, 58))
    res = estimate_new_layer_probability(cluster, 5000, replica_rng(seed, 59))
    ok = res.bound_check is not None and not res.bound_check.violated
    return ok, f"frequency {res.summary.mean:.3f} vs bound {res.bound_check.bound_value:.3f}"


def _check_loop_equivalence(seed: int) -> tuple[bool, str]:
    g = make_complete(3)
    fair = dla.loop_equivalence_check(g, particles=5, trials=1500, seed=seed + 64)
    mutant = dla.loop_equivalence_check(g, particles=5, trials=1500, seed=seed + 64, mutant=True)
    if not fair.passed:
        return False, f"equivalence rejected p={fair.chi2.p_value:.4f}"
    if mutant.passed:
        return False, "negative control not detected"
    return True, f"p={fair.chi2.p_value:.3f}; mutant p={mutant.chi2.p_value:.2e}"


def _check_excursion_bound(seed: int) -> tuple[bool, str]:
    study = long_excursion_frequency(
        make_cycle(6), alpha=4.0, trials=20_000, seed=replica_rng(seed, 61)
    )
    if study.bound_check.violated:
        return False, f"freq {study.positive_long.mean:.4f}"
    if study.symmetry_gap > BOUND_SIGMAS * study.symmetry_sigma + 1e-9:
        return False, "positive/negative asymmetry"
    return True, f"freq {study.positive_long.mean:.4f} > {study.bound:.4f} - 3se; symmetric"


def _check_snapshot_roundtrip(seed: int) -> tuple[bool, str]:
    import os
    import tempfile

    g = make_cycle(5)
    cluster = dla.new_cluster(g)
    dla.grow(cluster, replica_rng(seed, 62), particles=120)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cluster.snap")
        dla.save_snapshot(cluster, path)
        rebuilt = dla.cluster_from_snapshot(dla.load_snapshot(path), g)
        path2 = os.path.join(tmp, "cluster2.snap")
        dla.save_snapshot(rebuilt, path2)
        with open(path, "rb") as fa, open(path2, "rb") as fb:
            ok = fa.read() == fb.read()
    return ok, "save -> load -> save is bit-exact"


def _check_wall_blocking(seed: int) -> tuple[bool, str]:
    cluster = dla.new_cluster(make_complete(3))
    dla.grow(cluster, replica_rng(seed, 63), particles=400)
    violations = dla.wall_blocking_violations(cluster)
    if violations:
        return False, f"{len(violations)} sticks below a wall"
    return True, f"{len(dla.detect_walls(cluster))} walls, no stick below any"


SUITES = {
    "walk1d": (
        ("ballot-vs-enumeration", _check_ballot_enumeration),
        ("zero-count-cdf-vs-enumeration", _check_zero_count_enumeration),
        ("zero-count-cdf-monotone-in-m", _check_zero_count_monotone),
        ("zero-count-stirling-style-upper", _check_stirling_style_bound),
        ("max-tail-exact-small-case", _check_max_tail_exact),
        ("lazy-walk-variance", _check_lazy_variance),
        ("zeros-constant", _check_zeros_constant),
        ("first-passage-sampler", _check_first_passage_sampler),
    ),
    "spectral": (
        ("known-spectra", _check_known_spectra),
        ("eigenvalue-trace-identity", _check_trace_identity),
        ("mixing-time-exact-oracle", _check_mixing_times),
        ("mixing-min-entry-monotone", _check_mixing_monotone),
        ("avoidance-bound-values", _check_avoidance_bound_values),
        ("path-count-hand-case", _check_path_counts),
        ("path-count-spectral-bound", _check_path_bound_random),
        ("avoidance-monte-carlo", _check_avoidance_monte_carlo),
    ),
    "dla": (
        ("first-particle-deterministic", _check_first_particle),
        ("cluster-invariants", _check_cluster_invariants),
        ("load-increment-identity", _check_load_event_identity),
        ("first-hit-oracle", _check_first_hit_oracle),
        ("stick-above-load-bound", _check_stick_above),
        ("entry-layer-visit-set", _check_visit_set),
        ("new-layer-probability-bound", _check_new_layer_probe),
        ("loop-augmentation-equivalence", _check_loop_equivalence),
        ("long-excursion-bound", _check_excursion_bound),
        ("snapshot-roundtrip", _check_snapshot_roundtrip),
        ("wall-blocking", _check_wall_blocking),
    ),
}


def run_suite(suite: str, seed: int = 0) -> list[CheckResult]:
    """Results of one suite, or of every suite in order for ``"all"``."""
    if suite == "all":
        checks = [c for table in SUITES.values() for c in table]
    elif suite in SUITES:
        checks = SUITES[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; pick one of {', '.join(SUITES)}, all")
    results = []
    for name, check in checks:
        try:
            passed, detail = check(seed)
        except Exception as exc:  # a check that raises fails on its own line, named by its type
            passed, detail = False, ": ".join(filter(None, (type(exc).__name__, str(exc))))
        results.append(CheckResult(name, passed, detail))
    return results
