"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test appends a PASS line (with its elapsed time) to the report that
the terminal summary prints; a failing assertion keeps the line out and
fails the suite.
"""
import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_REPORT
from cyldla import cli, dla, walk1d
from cyldla.cylinder import long_excursion_frequency
from cyldla.experiment import (
    ExperimentConfig,
    estimate_density,
    estimate_new_layer_probability,
    fit_growth_exponent,
    stick_above_frequency,
)
from cyldla.graphs import (
    make_complete,
    make_cycle,
    make_hypercube,
    make_torus,
    parse_graph_spec,
)
from cyldla.spectral import avoidance_bound, avoidance_frequency, count_constrained_paths, eigen_profile
from cyldla.stats import EstimateSummary
from lawgate import drop_gate


class criterion:
    """Times a criterion and reports it on success."""

    def __init__(self, number: int, budget_seconds: float, detail: str = ""):
        self.number = number
        self.budget = budget_seconds
        self.detail = detail

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def note(self, detail: str) -> None:
        self.detail = detail

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} overran: {elapsed:.1f}s"
            ACCEPTANCE_REPORT.append(
                f"criterion {self.number:2d} PASS ({elapsed:6.1f}s) {self.detail}"
            )
        return False


def test_criterion_01_exact_closed_forms_match_enumeration():
    with criterion(1, 10.0) as c:
        for n in range(1, 11):
            steps = 2 * n
            idx = np.arange(2**steps, dtype=np.int64)
            increments = ((idx[:, None] >> np.arange(steps)) & 1).astype(np.int8) * 2 - 1
            paths = np.cumsum(increments, axis=1, dtype=np.int16)
            nonneg = int((paths.min(axis=1) >= 0).sum())
            assert walk1d.ballot_probability(n) == Fraction(nonneg, 2**steps)
            zero_visits = (paths == 0).sum(axis=1)
            for m in range(1, n + 1):
                below = int((zero_visits < m).sum())
                assert walk1d.zero_count_cdf(n, m) == Fraction(below, 2**steps)
        c.note("ballot and zero-count closed forms equal enumeration, n <= 10")


def test_criterion_02_first_layer_time_is_always_one():
    with criterion(2, 5.0) as c:
        bases = [make_cycle(8), make_complete(5), make_torus(3, 2), make_hypercube(3)]
        for g in bases:
            rng = np.random.default_rng(2)
            for _ in range(1000):
                cluster = dla.new_cluster(g)
                out = dla.drop_particle(cluster, rng)
                assert out.kappa == 0 and out.H == 1
                assert cluster.first_reach[1] == 1
        c.note("T_1 = 1 in 1000 consecutive drops on 4 bases, zero tolerance")


@pytest.mark.lawgate
def test_criterion_03_first_hit_oracle_total_variation():
    with criterion(3, 60.0) as c:
        cluster = dla.new_cluster(make_complete(3))
        dla.drop_particle(cluster, np.random.default_rng(3))
        tv, _ = drop_gate(cluster, 30, 100_000, bound=0.01)
        c.note(f"particle-2 stick distribution TV={tv:.4f} <= 0.01 vs linear system")


def test_criterion_04_stick_above_loaded_layer():
    with criterion(4, 60.0) as c:
        g = make_complete(4)
        details = []
        for m in (1, 2, 3):
            res = stick_above_frequency(g, layer=2, count=m, trials=10_000, seed=40 + m)
            freq, se = res.summary.mean, res.summary.std_error
            assert freq >= m / 4 - 3 * se, f"m={m}: {freq}"
            details.append(f"m={m}: {freq:.3f}>={m / 4:.2f}-3se")
        c.note("; ".join(details))


def test_criterion_05_new_layer_probability_fresh_states():
    with criterion(5, 60.0) as c:
        details = []
        for g in (make_cycle(6), make_torus(3, 2)):
            res = estimate_new_layer_probability(dla.new_cluster(g), trials=10_000, seed=5)
            bound = (2 * g.d + 2) / ((g.d + 2) * g.n)
            freq, se = res.summary.mean, res.summary.std_error
            assert freq >= bound - 3 * se
            details.append(f"{g.label}: {freq:.3f}>={bound:.3f}-3se")
        c.note("; ".join(details))


_DENSITY_CACHE = []


def _density_runs():
    """Shared cycle:8 density runs: criterion 7 reuses criterion 6's replicas."""
    if not _DENSITY_CACHE:
        config = ExperimentConfig(
            graph_spec="cycle:8",
            target_layers=(20,),
            replicas=50,
            base_seed=6,
            density_overshoot=15,
        )
        with pytest.warns(UserWarning):  # phi/m = 0.75 exceeds the smallness guideline
            _DENSITY_CACHE.append(estimate_density(config))
    return _DENSITY_CACHE[0]


def test_criterion_06_density_bounded_by_two_thirds():
    with criterion(6, 300.0) as c:
        est = _density_runs().per_layer[0]
        mean, se = est.summary.mean, est.summary.std_error
        assert mean <= 2 / 3 + 3 * se, f"D(20) = {mean}"
        assert "per-particle probability" in est.leak_note
        transitive = est.bound_checks[0]
        assert transitive.bound_value == pytest.approx(2 / 3) and not transitive.violated
        c.note(f"D(20) = {mean:.4f} +- {se:.4f} <= 2/3 + 3se; leak bound reported")


def test_criterion_07_density_equals_scaled_growth_time():
    with criterion(7, 60.0) as c:
        est = _density_runs().per_layer[0]
        cons = est.consistency  # D(20) vs T_35/(35 n), index-matched normalization
        assert cons.ok, (cons.left, cons.right, cons.combined_sigma)
        assert est.first_touch_consistency.ok
        c.note(
            f"D(20)={cons.left:.4f} vs T_35/(35n)={cons.right:.4f} "
            f"within 3*{cons.combined_sigma:.4f}"
        )


def test_criterion_08_long_excursion_lower_bound():
    with criterion(8, 120.0) as c:
        g = make_cycle(6)  # d = 2
        details = []
        for alpha in (2.0, 4.0, 16.0):
            study = long_excursion_frequency(g, alpha, trials=100_000, seed=int(alpha))
            pos, se = study.positive_long.mean, study.positive_long.std_error
            assert pos > study.bound - 3 * se, f"alpha={alpha}"
            assert study.symmetry_gap <= 3 * study.symmetry_sigma + 1e-12
            details.append(f"a={alpha:g}: {pos:.4f}>{study.bound:.4f}")
        c.note("; ".join(details) + "; +/- symmetric at 3 sigma")


def test_criterion_09_path_count_and_avoidance_bounds():
    with criterion(9, 120.0) as c:
        rng = np.random.default_rng(9)
        families = 0
        for g in (make_complete(4), make_cycle(5), parse_graph_spec("random:10:3:seed=1")):
            profile = eigen_profile(g)
            for i in range(20):
                t = int(rng.integers(1, 6))
                sets = [
                    set(map(int, rng.choice(g.n, size=rng.integers(1, g.n + 1), replace=False)))
                    for _ in range(t)
                ]
                count_constrained_paths(g, sets)  # raises if the exact count beats the bound
                bound = avoidance_bound(profile, [len(s) / g.n for s in sets])
                freq = avoidance_frequency(g, sets, trials=3000, seed=900 + families)
                assert freq.mean - 3 * freq.std_error <= bound
                families += 1
        c.note(f"{families} random set families: exact counts and walk frequencies within bounds")


def test_criterion_10_loop_equivalence_with_negative_control():
    with criterion(10, 120.0) as c:
        g = make_complete(3)
        fair = dla.loop_equivalence_check(g, particles=10, trials=10_000, seed=2024)
        assert fair.chi2.p_value > 0.01, f"p={fair.chi2.p_value}"
        mutant = dla.loop_equivalence_check(g, particles=10, trials=10_000, seed=2024, mutant=True)
        assert mutant.chi2.p_value <= 0.01, f"mutant undetected p={mutant.chi2.p_value}"
        c.note(
            f"equivalence p={fair.chi2.p_value:.3f} > 0.01; "
            f"mutant p={mutant.chi2.p_value:.2e} rejected"
        )


def test_criterion_11_lazy_walk_bounds():
    with criterion(11, 60.0) as c:
        for alpha, m, beta in ((0.5, 100, 4.0), (1.0, 64, 9.0)):
            mt = walk1d.lazy_max_tail(alpha, m, beta)
            paths = walk1d.simulate_lazy_walks(walk1d.LazyWalkParams(alpha), m, 50_000, seed=11)
            hits = int((np.abs(paths[:, 1:]).max(axis=1) >= mt.threshold).sum())
            summary = EstimateSummary.from_bernoulli(hits, 50_000)
            assert summary.mean <= mt.bound + 3 * summary.std_error
        alpha, eps = 0.5, 0.5
        const = walk1d.zeros_constant(alpha, eps)
        assert const > 4.0 / alpha
        for n in (2, 4, 8):
            steps = math.ceil(const * n * n)
            paths = walk1d.simulate_lazy_walks(walk1d.LazyWalkParams(alpha), steps, 4000, seed=110 + n)
            few = int(((paths[:, 1:] == 0).sum(axis=1) < n).sum())
            summary = EstimateSummary.from_bernoulli(few, 4000)
            assert summary.mean <= eps + 3 * summary.std_error
        c.note(f"running-max tails within 1/beta + 3se; zeros constant C={const:.1f} validated")


def test_criterion_12_growth_rate_family():
    with criterion(12, 600.0) as c:
        specs = ["complete:8", "complete:16", "complete:32"]
        family = fit_growth_exponent(specs, m=5, replicas=30, base_seed=12)  # as `fit-gamma`
        for spec, base in zip(specs, family.bases):
            assert base.pathwise_monotone  # T_m strictly increasing in every replica
            for est in base.per_layer:
                upper = [b for b in est.bound_checks if "4mn" in b.name][0]
                assert upper.applicability is not None
            code, _, err = _run_cli_captured(["mixing", spec])
            assert code == 0
            fast = [line for line in err.splitlines() if "fast-mixing-hypothesis" in line]
            # caveat emitted, never silently asserted
            assert len(fast) == 1 and "no finite-size calibration" in fast[0]
        fit = family.gamma_fit
        assert math.isfinite(fit.gamma) and math.isfinite(fit.residual_norm)
        c.note(
            f"T_m bound checks on K8/K16/K32 with caveats; pathwise T_m monotone; "
            f"gamma={fit.gamma:.3f} residual={fit.residual_norm:.3f}"
        )


def _run_cli_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_13_byte_identical_reruns(tmp_path):
    with criterion(13, 300.0) as c:
        base = ["simulate", "cycle:6", "--layers", "5", "--replicas", "5", "--seed", "13"]
        code_a, _, _ = _run_cli_captured(base + ["--out", str(tmp_path / "a")])
        code_b, _, _ = _run_cli_captured(base + ["--out", str(tmp_path / "b")])
        assert code_a == code_b == 0
        for name in ("growth.csv", "density.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        runs = [_run_cli_captured(["verify", "all", "--seed", "13"]) for _ in range(2)]
        assert runs[0][0] == runs[1][0] == 0
        assert runs[0][1] == runs[1][1]
        assert "FAIL" not in runs[0][1]
        c.note("simulate outputs and `verify all` reports byte-identical across reruns")
