import math
from collections import Counter

import numpy as np
import pytest

from cyldla.stats import (
    EstimateSummary,
    chi_square_two_sample,
    make_bound_check,
)


def test_summary_from_samples():
    s = EstimateSummary.from_samples([1.0, 2.0, 3.0])
    assert s.mean == 2.0 and s.trials == 3
    assert s.ci95 == pytest.approx(1.96 * s.std_error)
    single = EstimateSummary.from_samples([5.0])
    assert single.std_error == 0.0
    with pytest.raises(ValueError):
        EstimateSummary.from_samples([])


def test_summary_from_bernoulli():
    s = EstimateSummary.from_bernoulli(30, 120)
    assert s.mean == 0.25
    assert s.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 120))
    assert EstimateSummary.from_bernoulli(0, 10).std_error == 0.0


def test_bound_check_verdicts():
    tight = EstimateSummary(0.5, 0.01, 0.0196, 100)
    assert make_bound_check("a", 0.6, "<=", tight).verdict == "pass"
    assert make_bound_check("b", 0.4, "<=", tight).verdict == "fail"
    assert make_bound_check("c", 0.51, "<=", tight).verdict == "inconclusive-within-ci"
    assert make_bound_check("d", 0.4, ">=", tight).verdict == "pass"
    assert make_bound_check("e", 0.6, ">=", tight).verdict == "fail"
    assert make_bound_check("f", 0.49, ">=", tight).verdict == "inconclusive-within-ci"
    assert make_bound_check("e", 0.6, ">=", tight).violated
    with pytest.raises(ValueError):
        make_bound_check("g", 0.5, "==", tight)


def test_bound_check_deterministic_estimates():
    exact = EstimateSummary(1.0, 0.0, 0.0, 1)
    assert make_bound_check("h", 1.0, "<=", exact).verdict == "pass"
    assert make_bound_check("i", 0.99, "<=", exact).verdict == "fail"


def test_chi_square_identical_counts_gives_p_one():
    counts = Counter({"a": 50, "b": 30, "c": 20})
    res = chi_square_two_sample(counts, counts)
    assert res.statistic == pytest.approx(0.0)
    assert res.p_value == pytest.approx(1.0)


def test_chi_square_detects_difference():
    a = Counter({"x": 900, "y": 100})
    b = Counter({"x": 500, "y": 500})
    res = chi_square_two_sample(a, b)
    assert res.p_value < 1e-10


def test_chi_square_collapses_rare_categories():
    a = Counter({"x": 500, "y": 400, **{f"rare{i}": 1 for i in range(10)}})
    b = Counter({"x": 510, "y": 390, **{f"rare{i}": 1 for i in range(8)}})
    res = chi_square_two_sample(a, b)
    assert res.collapsed
    assert "<rest>" in res.categories
    assert res.p_value > 0.001


def test_chi_square_calibration_under_null():
    rng = np.random.default_rng(1)
    probs = np.array([0.5, 0.3, 0.2])
    low = 0
    for _ in range(300):
        a = Counter(dict(enumerate(rng.multinomial(400, probs))))
        b = Counter(dict(enumerate(rng.multinomial(400, probs))))
        if chi_square_two_sample(a, b).p_value < 0.05:
            low += 1
    assert 2 <= low <= 35  # roughly 5% of 300


def test_chi_square_p_value_is_the_chi2_survival_function():
    from scipy.stats import chi2

    a = {"x": 40, "y": 25, "z": 12, "w": 3}
    b = {"x": 30, "y": 35, "z": 9, "w": 6}
    res = chi_square_two_sample(a, b)
    assert res.p_value == float(chi2.sf(res.statistic, len(res.categories) - 1))


def test_import_and_growth_load_no_scipy():
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import numpy as np\n"
        "import cyldla\n"
        "import cyldla.cli, cyldla.oracles, cyldla.verify\n"
        "c = cyldla.new_cluster(cyldla.parse_graph_spec('cycle:16'))\n"
        "cyldla.grow(c, np.random.default_rng(0), particles=50)\n"
        "assert c.t == 50\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
