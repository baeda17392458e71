import math
import warnings

import numpy as np
import pytest

from cyldla import dla, experiment
from cyldla.experiment import (
    ExperimentConfig,
    csv_lines,
    estimate_T,
    estimate_density,
    estimate_new_layer_probability,
    fit_gamma,
    fit_growth_exponent,
    replica_rng,
    run_replicas,
    run_sweep,
)
from cyldla.graphs import make_complete, make_cycle, parse_graph_spec


def test_config_validation_and_hash():
    cfg = ExperimentConfig(graph_spec="cycle:6", target_layers=(3, 1), replicas=2, base_seed=5)
    assert cfg.density_overshoot == math.ceil(math.sqrt(3)) + 10
    assert cfg.config_hash() == cfg.config_hash()
    other = ExperimentConfig(graph_spec="cycle:6", target_layers=(3, 1), replicas=2, base_seed=6)
    assert other.config_hash() != cfg.config_hash()
    with pytest.raises(ValueError):
        ExperimentConfig(graph_spec="cycle:6", target_layers=())
    with pytest.raises(ValueError):
        ExperimentConfig(graph_spec="cycle:6", target_layers=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(graph_spec="cycle:6", target_layers=(3,), replicas=0)
    with pytest.raises(ValueError, match="probe trials"):
        ExperimentConfig(graph_spec="cycle:6", target_layers=(3,), probe_trials=-3)


def test_config_warns_on_large_overshoot():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # building the config grows nothing, so it does not warn
        cfg = ExperimentConfig(graph_spec="cycle:6", target_layers=(4,), replicas=2, density_overshoot=3)
    with pytest.warns(UserWarning, match="^overshoot 3 exceeds half the largest target layer"):
        estimate_density(cfg)


def test_estimate_T_first_layer_exact():
    res = estimate_T(make_cycle(6), (1,), replicas=10, base_seed=1, cap=dla.DEFAULT_STEP_CAP)
    est = res.per_layer[0]
    assert est.summary.mean == 1.0 and est.summary.std_error == 0.0
    lower = [c for c in est.bound_checks if c.name.endswith("trivial-lower")][0]
    assert lower.verdict != "fail"


def test_estimate_T_transitive_bound_and_monotonicity():
    res = estimate_T(
        make_cycle(4), range(1, 7), replicas=60, base_seed=2, cap=dla.DEFAULT_STEP_CAP
    )
    assert res.pathwise_monotone
    for est in res.per_layer:
        transitive = [c for c in est.bound_checks if "transitive" in c.name]
        assert transitive and not transitive[0].violated
        assert transitive[0].bound_value == pytest.approx(est.m * 4 * 4 / 6)
        upper = [c for c in est.bound_checks if "4mn" in c.name][0]
        assert upper.applicability is not None


def test_estimate_density_fields_and_bounds():
    cfg = ExperimentConfig(
        graph_spec="cycle:4",
        target_layers=(8,),
        replicas=40,
        base_seed=3,
        density_overshoot=6,
    )
    with pytest.warns(UserWarning, match="^overshoot 6 exceeds half"):
        res = estimate_density(cfg)
    est = res.per_layer[0]
    assert est.phi == 6 and res.grow_to_layer == 14
    assert 0.0 < est.summary.mean < 1.0
    transitive = est.bound_checks[0]
    assert transitive.bound_value == pytest.approx(2 / 3)
    assert not transitive.violated
    assert est.consistency.ok, (est.consistency.left, est.consistency.right)
    assert est.first_touch_consistency.name.startswith("D_8-vs-T_8")
    assert "overshoot 6" in est.leak_note
    assert len(est.samples) == 40


def test_new_layer_probability_fresh_state_is_one():
    g = make_cycle(6)
    res = estimate_new_layer_probability(dla.new_cluster(g), trials=500, seed=4)
    assert res.summary.mean == 1.0
    assert res.bound_check is not None and not res.bound_check.violated


def test_new_layer_probability_after_one_particle():
    g = make_complete(3)
    cluster = dla.new_cluster(g)
    dla.drop_particle(cluster, np.random.default_rng(5))
    res = estimate_new_layer_probability(cluster, trials=6000, seed=6)
    # (2d+2)/((d+2)n) with d=2, n=3
    assert res.bound_check.bound_value == pytest.approx(6 / 12)
    assert res.summary.mean >= res.bound_check.bound_value - 3 * res.summary.std_error


def test_fit_gamma_self_tests():
    ns = [8, 16, 32, 64]
    exact = fit_gamma(ns, [n * 1.0 for n in ns])  # T_m = m*n
    assert exact.gamma == pytest.approx(1.0, abs=1e-9)
    assert exact.residual_norm == pytest.approx(0.0, abs=1e-9)
    half = fit_gamma(ns, [math.sqrt(n) for n in ns])  # T_m = m*sqrt(n)
    assert half.gamma == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError):
        fit_gamma([8, 16], [8.0, 16.0])


def test_fit_gamma_needs_three_distinct_sizes():
    # a line through one or two x values is no exponent, however many points sit there
    for ns in ([4, 4, 4], [8, 8, 16, 16]):
        with pytest.raises(ValueError, match="3 or more distinct sizes"):
            fit_gamma(ns, [1.0 + i for i in range(len(ns))])
    # a size whose only point is not finite does not count
    with pytest.raises(ValueError, match="3 or more distinct sizes"):
        fit_gamma([8, 16, 32], [8.0, 16.0, math.inf])


def test_estimate_T_rejects_empty_targets_and_replicas():
    with pytest.raises(ValueError):
        estimate_T(make_cycle(6), (), replicas=2, base_seed=0, cap=dla.DEFAULT_STEP_CAP)
    with pytest.raises(ValueError):
        estimate_T(make_cycle(6), (0, 2), replicas=2, base_seed=0, cap=dla.DEFAULT_STEP_CAP)
    with pytest.raises(ValueError):
        estimate_T(make_cycle(6), (2,), replicas=0, base_seed=0, cap=dla.DEFAULT_STEP_CAP)


def test_fit_growth_exponent_runs():
    specs = ["complete:8", "complete:16", "complete:32"]
    family = fit_growth_exponent(specs, m=3, replicas=6, base_seed=10)
    fit = family.gamma_fit
    assert math.isfinite(fit.gamma) and math.isfinite(fit.residual_norm)
    assert fit.ns == (8, 16, 32)
    assert len(family.bases) == 3
    for i, (spec, base) in enumerate(zip(specs, family.bases)):
        assert base.pathwise_monotone
        assert [est.m for est in base.per_layer] == [1, 2, 3]
        alone = estimate_T(
            parse_graph_spec(spec), (3,), replicas=6, base_seed=10 + i, cap=dla.DEFAULT_STEP_CAP
        )
        assert np.array_equal(base.per_layer[-1].samples, alone.per_layer[0].samples)
    assert fit.t_over_m == tuple(b.per_layer[-1].summary.mean / 3 for b in family.bases)
    with pytest.raises(ValueError):
        fit_growth_exponent(["complete:8", "complete:16"], m=3, replicas=2, base_seed=0)


def test_merge_invariance_and_replica_split():
    g = make_cycle(5)
    clusters = run_replicas(g, 6, 4, base_seed=11, cap=dla.DEFAULT_STEP_CAP)
    # four replicas equal four independent single runs on the same spawned streams
    for r in range(4):
        cluster = dla.new_cluster(g)
        dla.grow(cluster, replica_rng(11, r), target_layer=6)
        assert cluster.first_reach[6] == clusters[r].first_reach[6]
        assert cluster.stick_log == clusters[r].stick_log


def test_run_sweep_outputs_and_determinism(tmp_path):
    def make(outdir):
        return ExperimentConfig(
            graph_spec="cycle:5",
            target_layers=(2, 4),
            replicas=3,
            base_seed=12,
            density_overshoot=3,
            probe_trials=5,
            output_dir=str(outdir),
        )

    with pytest.warns(UserWarning, match="^overshoot 3 exceeds half"):
        out_a = run_sweep(make(tmp_path / "a"))
        out_b = run_sweep(make(tmp_path / "b"))
    for pa, pb in (
        (out_a.growth_csv, out_b.growth_csv),
        (out_a.density_csv, out_b.density_csv),
        (out_a.probes_csv, out_b.probes_csv),
    ):
        ba = open(pa, "rb").read()
        bb = open(pb, "rb").read()
        assert ba == bb
    lines = open(out_a.growth_csv).read().splitlines()
    assert lines[0].startswith("# cyldla v6 config_hash=")
    assert lines[1] == "replica,m,T_m"
    assert len(lines) == 2 + 3 * 2
    dlines = open(out_a.density_csv).read().splitlines()
    assert dlines[1] == "replica,m,phi,D_m"
    plines = open(out_a.probes_csv).read().splitlines()
    assert plines[1] == "trial,kappa,H,new_layer,min_layer"
    assert len(plines) == 2 + 5


def test_run_sweep_removes_the_file_it_was_writing(tmp_path, monkeypatch):
    # the second CSV fails after its file is opened: neither file is left
    calls = []

    def failing_lines(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("disk went away")
        return csv_lines(*args)

    monkeypatch.setattr(experiment, "csv_lines", failing_lines)
    cfg = ExperimentConfig(
        graph_spec="cycle:5", target_layers=(2,), replicas=1, base_seed=0, output_dir=str(tmp_path)
    )
    with pytest.raises(RuntimeError, match="disk went away"), pytest.warns(UserWarning, match="^overshoot 12"):
        run_sweep(cfg)
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def test_run_sweep_requires_output_dir():
    cfg = ExperimentConfig(graph_spec="cycle:5", target_layers=(2,), replicas=1, base_seed=0)
    with pytest.raises(ValueError):
        run_sweep(cfg)
