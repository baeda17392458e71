import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cyldla import cli, dla, experiment
from cyldla.graphs import (
    EIG_TOL,
    RegularGraph,
    add_self_loops,
    bipartite,
    make_complete,
    make_cycle,
    make_hypercube,
    make_torus,
    parse_graph_spec,
)
from cyldla.spectral import (
    MIN_ENTRY_SLACK,
    avoidance_bound,
    avoidance_frequency,
    check_fast_mixing,
    count_constrained_paths,
    eigen_profile,
    fast_mixing_threshold,
    lazy_transition_matrix,
    mixing_time,
)
from lawgate import count_calls


def test_complete_graph_spectrum():
    prof = eigen_profile(make_complete(4))
    assert prof.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
    assert sorted(prof.eigenvalues)[:3] == pytest.approx([-1 / 3] * 3, abs=1e-9)
    assert prof.lam == pytest.approx(1 / 3, abs=1e-9)
    assert prof.gap == pytest.approx(2 / 3, abs=1e-9)


def test_odd_cycle_spectrum():
    prof = eigen_profile(make_cycle(9))
    assert prof.lam == pytest.approx(abs(math.cos(8 * math.pi / 9)), abs=1e-9)


def test_even_cycle_reports_unit_lambda():
    # bipartite base: the -1 eigenvalue is kept, so lam = 1 and gap = 0
    prof = eigen_profile(make_cycle(8))
    assert prof.lam == 1.0 and prof.gap == 0.0


def test_hypercube_bipartite():
    prof = eigen_profile(make_hypercube(3))
    assert prof.lam == pytest.approx(1.0, abs=1e-9)
    assert min(prof.eigenvalues) == pytest.approx(-1.0, abs=1e-9)


def test_eigenvalues_bounded_and_trace():
    for g in (make_complete(5), add_self_loops(make_cycle(5)), make_torus(3, 2)):
        prof = eigen_profile(g)
        assert all(-1 - 1e-9 <= x <= 1 + 1e-9 for x in prof.eigenvalues)
        assert sum(prof.eigenvalues) == pytest.approx(g.loop_count() / g.d, abs=1e-6)


LATTICE_SPECS = (
    [f"cycle:{n}" for n in range(3, 40)]
    + ["cycle:500", "cycle:501"]
    + [f"torus:{s}x{s}" for s in range(3, 8)]
    + [f"torus:{s}x{s}x{s}" for s in range(3, 8)]
    + [f"hypercube:{k}" for k in range(2, 9)]
)


@pytest.mark.parametrize("spec", LATTICE_SPECS)
def test_lattice_characters_match_dense_eigh(spec):
    g = parse_graph_spec(spec)
    dense = np.linalg.eigh(g.transition_matrix())[0][::-1]
    prof = eigen_profile(g)
    assert "walk_spectrum" not in g.__dict__
    assert len(prof.eigenvalues) == g.n and prof.eigenvalues[0] == 1.0
    assert np.abs(np.array(prof.eigenvalues) - dense).max() <= 1e-12
    bipartite = dense[-1] <= -1.0 + 1e-9
    assert bipartite == (prof.eigenvalues[-1] <= -1.0 + 1e-9)
    expected = 1.0 if bipartite else float(np.abs(dense[1:]).max())
    assert abs(prof.lam - expected) <= 1e-12 and (prof.lam == 1.0) == bipartite


def test_large_cycle_lambda_is_exact():
    # from n = 70,249 on, -cos(pi/n) lies within 1e-9 of -1
    for n in (5001, 70249):
        prof = eigen_profile(make_cycle(n))
        assert abs(prof.lam - math.cos(math.pi / n)) <= 1e-12
        assert len(prof.eigenvalues) == n


def test_walk_spectrum_is_cached_and_read_only():
    g = make_torus(4, 2)
    w, u = g.walk_spectrum
    assert g.walk_spectrum[0] is w and g.walk_spectrum[1] is u
    assert np.all(np.diff(w) >= 0.0)
    assert np.allclose(u @ np.diag(w) @ u.T, g.transition_matrix(), atol=1e-12)
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


def test_one_decomposition_per_graph(monkeypatch):
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
    config = experiment.ExperimentConfig(
        graph_spec="random:40:3:seed=1",
        target_layers=(4,),
        replicas=5,
        base_seed=2,
        density_overshoot=2,
    )
    result = experiment.estimate_density(config)
    g = result.clusters[0].graph
    # a non-bipartite base: each sampler reads lambda and no eigenvectors
    assert all(c._kernel.uniform_cut == 533 for c in result.clusters)
    assert not any(hasattr(c._kernel, "_u") for c in result.clusters)
    assert eigh.total() == 1 and not eigvalsh
    assert eigen_profile(g).eigenvalues == tuple(float(x) for x in g.walk_spectrum[0][::-1])
    assert eigh.total() == 1 and not eigvalsh


def test_no_dense_eigendecomposition_on_lattice_bases(monkeypatch, capsys):
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
    g = parse_graph_spec("torus:20x20x20")
    cluster = dla.new_cluster(g)
    dla.grow(cluster, np.random.default_rng(4), particles=100)
    assert cluster.t == 100 and cluster.M >= 3  # drops above layer 1 walk and fast-forward
    assert not eigh and not eigvalsh
    assert "walk_spectrum" not in g.__dict__
    assert cli.main(["spectra", "torus:20x20x20"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "8000,6,1.0,0.0,"
    assert cli.main(["density", "cycle:12", "--layers", "3", "--phi", "1", "--replicas", "2"]) == 0
    assert not eigh and not eigvalsh


BIPARTITE_SPECS = (
    [f"cycle:{n}" for n in range(4, 65, 2)]
    + [f"hypercube:{k}" for k in range(2, 9)]
    + ["torus:4x4", "torus:6x6x6"]
)


@pytest.mark.parametrize("spec", BIPARTITE_SPECS)
def test_bipartite_bases_report_exact_unit_lambda(spec):
    g = parse_graph_spec(spec)
    prof = eigen_profile(g)
    assert prof.lam == 1.0 and prof.gap == 0.0
    # a raw eigh, since walk_spectrum takes its -1 from the colouring itself
    assert np.linalg.eigvalsh(g.transition_matrix())[0] <= -1.0 + 1e-9


# bases off the lattice route, whose spectrum only walk_spectrum gives
GENERIC_SPECS = ["random:6:3:seed=0", "random:40:3:seed=2", "random:500:3:seed=1", "random:10:3:seed=1", "complete:5"]


@pytest.mark.parametrize("spec", BIPARTITE_SPECS + GENERIC_SPECS + ["complete:4+loops", "cycle:6-untagged"])
def test_walk_spectrum_takes_plus_and_minus_one_exactly(spec):
    if spec == "complete:4+loops":
        g = add_self_loops(make_complete(4))
    elif spec == "cycle:6-untagged":  # its eigh gives 1 - 1.1e-16 and -1 + 2.2e-16
        g = dataclasses.replace(make_cycle(6), label=spec, lattice=None)
    else:
        g = parse_graph_spec(spec)
    w = g.walk_spectrum[0]
    assert w[-1] == 1.0
    assert (w[0] == -1.0) == bipartite(g)


def test_walk_spectrum_refuses_a_top_eigenvalue_away_from_one():
    # rows that are not a symmetric walk: eigh reads the lower triangle,
    # whose symmetric matrix has top eigenvalue sqrt(2)
    g = RegularGraph(3, 2, ((1, 2), (0, 0), (0, 0)), "lopsided")
    assert abs(np.linalg.eigh(g.transition_matrix())[0][-1] - 1.0) > EIG_TOL
    with pytest.raises(RuntimeError, match="top eigenvalue 1.414.* of lopsided differs from 1"):
        g.walk_spectrum


def _exact_lazy_mixing(g, cap):
    n = g.n
    p = [[Fraction(0)] * n for _ in range(n)]
    for v, row in enumerate(g.neighbors):
        p[v][v] += Fraction(1, g.d + 1)
        for u in row:
            p[v][u] += Fraction(1, g.d + 1)
    b = [row[:] for row in p]
    for t in range(1, cap + 1):
        if min(min(r) for r in b) >= Fraction(1, 2 * n):
            return t
        b = [[sum(b[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return None


def test_mixing_k3_is_one():
    assert mixing_time(make_complete(3), 10) == 1


def test_mixing_c4_matches_exact_oracle():
    g = make_cycle(4)
    assert mixing_time(g, 50) == _exact_lazy_mixing(g, 50) == 2


def test_mixing_q3_finite_despite_bipartite():
    t = mixing_time(make_hypercube(3), 500)
    assert isinstance(t, int) and t >= 1
    assert t == _exact_lazy_mixing(make_hypercube(3), 500)


def _dense_mixing(g, cap):
    p = lazy_transition_matrix(g)
    b = p.copy()
    for t in range(1, cap + 1):
        if b.min() >= 1.0 / (2 * g.n) - MIN_ENTRY_SLACK:
            return t
        b = b @ p
    return None


@pytest.mark.parametrize(
    "spec",
    ["cycle:4", "cycle:5", "cycle:31", "cycle:64", "torus:5x5", "torus:7x7", "torus:4x4x4",
     "hypercube:3", "hypercube:6", "random:40:3:seed=2", "random:100:4:seed=7", "complete:16"],
)
def test_mixing_time_equals_dense_powers(spec):
    g = parse_graph_spec(spec)
    assert mixing_time(g, 2000) == _dense_mixing(g, 2000) is not None
    assert mixing_time(add_self_loops(g), 2000) == _dense_mixing(add_self_loops(g), 2000)


def test_mixing_cap_sentinel():
    assert mixing_time(make_cycle(30), 3) is None


def test_mixing_min_entry_monotone():
    g = make_cycle(5)
    p = lazy_transition_matrix(g)
    b = p.copy()
    mins = []
    for _ in range(30):
        mins.append(b.min())
        b = b @ p
    assert all(y >= x - 1e-12 for x, y in zip(mins, mins[1:]))


def test_check_fast_mixing_value():
    thr = fast_mixing_threshold(16)
    assert thr == pytest.approx(math.log(16) ** 2 / math.log(math.log(16)) ** 5)
    assert thr == pytest.approx(6.977, abs=0.01)
    check = check_fast_mixing(16, mixing_time(make_complete(16), 10_000))
    assert check.estimate == 1.0 and check.verdict == "pass"
    assert check.applicability is not None


def test_check_fast_mixing_rejections():
    with pytest.raises(ValueError):
        fast_mixing_threshold(2)
    with pytest.raises(ValueError):
        check_fast_mixing(30, mixing_time(make_cycle(30), 3))  # None: cap exceeded


def test_avoidance_bound_values():
    k4 = eigen_profile(make_complete(4))
    assert avoidance_bound(k4, [1.0, 1.0]) == pytest.approx(1.0)
    zero_lam = eigen_profile(make_complete(4))
    # lam = 1/3 for K4; build the exact plug-in cases instead
    assert avoidance_bound(k4, [0.5, 0.5]) == pytest.approx(math.exp(-1 / 3))
    from cyldla.spectral import SpectralProfile

    flat = SpectralProfile(4, 3, (1.0, 0.0, 0.0, 0.0), 0.0, 1.0)
    assert avoidance_bound(flat, [0.0]) == pytest.approx(math.exp(-0.5))
    with pytest.raises(ValueError):
        avoidance_bound(k4, [1.5])


def test_count_constrained_paths_examples():
    k3 = make_complete(3)
    assert count_constrained_paths(k3, [set(range(3))]).count == 3 * 2
    assert count_constrained_paths(k3, [set()]).count == 0
    assert count_constrained_paths(k3, [{0}, {1}]).count == 2


def test_count_constrained_paths_loops_multiplicity():
    g = add_self_loops(make_complete(3))
    # single unconstrained step: every slot counts, n * d walks
    assert count_constrained_paths(g, [set(range(3))]).count == 3 * 3


def test_path_count_bound_random_families():
    rng = np.random.default_rng(3)
    for g in (make_complete(4), make_cycle(5), make_torus(3, 2)):
        for _ in range(25):
            t = int(rng.integers(1, 6))
            sets = [
                set(map(int, rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False)))
                for _ in range(t)
            ]
            res = count_constrained_paths(g, sets)  # raises if the bound fails
            if res.count > 0:
                assert math.log(res.count) <= res.log_bound + 1e-9


def test_avoidance_monte_carlo_within_bound():
    rng = np.random.default_rng(11)
    for g in (make_complete(4), make_cycle(5)):
        prof = eigen_profile(g)
        for trial in range(5):
            t = int(rng.integers(1, 5))
            sets = [
                set(map(int, rng.choice(g.n, size=rng.integers(1, g.n + 1), replace=False)))
                for _ in range(t)
            ]
            bound = avoidance_bound(prof, [len(c) / g.n for c in sets])
            freq = avoidance_frequency(g, sets, 4000, seed=500 + trial)
            assert freq.mean - 3 * freq.std_error <= bound
