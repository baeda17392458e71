import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cyldla import cli, dla
from cyldla.graphs import (
    add_self_loops,
    make_complete,
    make_cycle,
    make_hypercube,
    make_random_regular,
    make_torus,
    parse_graph_spec,
)
from lawgate import count_calls

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    parser = cli.build_parser()
    parts = [parser.format_help()]
    sub_actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    for name, sub in sub_actions[0].choices.items():
        parts.append(f"===== {name} =====\n" + sub.format_help())
    expected = (DATA / "cli_help.txt").read_text()
    assert "\n".join(parts) == expected


def test_every_run_echoes_config(capsys):
    code, out, err = run_cli(capsys, "spectra", "cycle:8")
    assert code == 0
    assert err.startswith("# config: ")
    assert '"spec": "cycle:8"' in err


def test_spectra_csv(capsys):
    code, out, _ = run_cli(capsys, "spectra", "cycle:8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,d,lambda,gap,mixing_time"
    assert lines[1] == "8,2,1.0,0.0,"


def test_mixing_csv(capsys):
    code, out, _ = run_cli(capsys, "mixing", "complete:3", "--cap", "10")
    assert code == 0
    assert out.splitlines()[1].endswith(",1")
    code, out, _ = run_cli(capsys, "mixing", "cycle:30", "--cap", "3")
    assert out.splitlines()[1].endswith(",exceeded-cap")


def test_gen_graph_stdout_and_loops(capsys):
    code, out, err = run_cli(capsys, "gen-graph", "cycle:4")
    assert code == 0
    assert out.splitlines() == ["0 3", "0 1", "1 2", "2 3"]
    assert "validate cycle:4" in err
    code, out, _ = run_cli(capsys, "gen-graph", "cycle:3", "--add-loops")
    assert out.count("0 0") == 1


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectra", "cycle:8", "--nonsense"])
    assert exc.value.code == 2


def test_missing_graph_spec_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--layers", "3"])
    assert exc.value.code == 2


def test_bad_graph_spec_exits_two(capsys):
    code, _, err = run_cli(capsys, "simulate", "nosuch:4", "--layers", "2", "--replicas", "1")
    assert code == 2
    assert "error:" in err


def test_negative_probe_count_exits_two(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "cycle:6", "--layers", "2", "--probes", "-3", "--out", str(tmp_path)
    )
    assert code == 2
    assert err.splitlines()[-1] == "error: probe trials must be >= 0"
    assert list(tmp_path.iterdir()) == []


def test_probes_without_out_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "cycle:6", "--layers", "2", "--replicas", "2", "--probes", "5"
    )
    assert code == 2
    assert err.splitlines()[-1] == "error: --probes needs --out"
    assert "replica,m,T_m" not in out


def test_tiny_cap_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "cycle:16", "--layers", "8", "--replicas", "2",
        "--seed", "7", "--cap", "10",
    )
    assert code == 3
    assert "step cap exceeded" in err


def test_simulate_writes_schema_a(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "cycle:16", "--layers", "10", "--replicas", "20",
        "--seed", "7", "--out", str(tmp_path),
    )
    assert code == 0
    growth = (tmp_path / "growth.csv").read_text().splitlines()
    assert growth[0].startswith("# cyldla v6 config_hash=")
    assert growth[1] == "replica,m,T_m"
    assert len(growth) == 2 + 20 * 10
    first = growth[2].split(",")
    assert first == ["0", "1", "1"]  # T_1 = 1


def test_simulate_stdout_mode(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "cycle:6", "--layers", "3", "--replicas", "2", "--seed", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "replica,m,T_m"
    assert len(lines) == 2 + 2 * 3


def test_simulate_stdout_mode_has_no_overshoot_warning(tmp_path, capsys):
    # stdout mode grows no overshoot and reads no density; --out does both
    args = ["simulate", "cycle:6", "--layers", "3", "--replicas", "2", "--seed", "3"]
    code, _, err = run_cli(capsys, *args)
    assert code == 0 and "overshoot" not in err
    code, _, err = run_cli(capsys, *args, "--out", str(tmp_path))
    assert code == 0
    assert "# warning: overshoot 12 exceeds half the largest target layer" in err


@pytest.mark.parametrize("spec", ["cycle:16", "random:40:3:seed=2"])
def test_simulate_stdout_equals_growth_csv(tmp_path, capsys, monkeypatch, spec):
    targets = count_calls(monkeypatch, dla, "grow", key=lambda *args, target_layer, cap: target_layer)
    args = ["simulate", spec, "--layers", "6", "--replicas", "5", "--seed", "4"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and targets == {6: 5}  # no density overshoot is grown
    targets.clear()
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path))
    assert code == 0 and min(targets) > 6
    assert out == (tmp_path / "growth.csv").read_text()


def test_density_command(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "density", "cycle:6", "--layers", "4", "--phi", "3",
        "--replicas", "3", "--seed", "5", "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert lines[1] == "replica,m,phi,D_m"
    assert "transitive-upper" in err
    assert "per-particle probability" in err
    # D(m) against the growth rate, over the grown range and at first touch
    assert "# D_4-vs-T_7/(7n): " in err
    touch = [l for l in err.splitlines() if l.startswith("# D_4-vs-T_4/(4n): ")]
    assert len(touch) == 1 and " vs " in touch[0] and "(3*sigma=" in touch[0]


def test_excursions_csv(capsys):
    code, out, err = run_cli(
        capsys, "excursions", "cycle:6", "--alpha", "2", "--trials", "8", "--seed", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,sign,g_steps,total_steps,alpha_long"
    assert len(lines) == 9
    assert "lower bound" in err


def test_verify_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "walk1d", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("PASS", "FAIL", "#")) for line in lines)
    assert any("ballot-vs-enumeration" in line for line in lines)
    assert lines[-1].startswith("#") and "checks passed" in lines[-1]


def test_render_cli(tmp_path, capsys):
    import numpy as np

    from cyldla import dla
    from cyldla.graphs import make_cycle

    c = dla.new_cluster(make_cycle(6))
    dla.grow(c, np.random.default_rng(0), particles=30)
    snap_path = tmp_path / "c.snap"
    dla.save_snapshot(c, snap_path)
    out_path = tmp_path / "c.ppm"
    code, out, _ = run_cli(capsys, "render", str(snap_path), "--out", str(out_path))
    assert code == 0
    data = out_path.read_bytes()
    assert data.startswith(b"P6\n")
    out2 = tmp_path / "again.ppm"
    run_cli(capsys, "render", str(snap_path), "--out", str(out2))
    assert out2.read_bytes() == data


SNAP3 = "cyldla v2 graph=cycle:3 n=3 d=2"


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "lines",
    [
        ["cyldla v2 graph=cycle:3 n=3 t=1 M=2", "1 1"],
        ["cyldla v2 graph=cycle:3 n=3 d=two t=1 M=2", "1 1"],
        ["cyldla v2 graph=cycle:3 n=3 d t=1 M=2", "1 1"],
        [SNAP3 + " t=1 M=2", "1"],
        [SNAP3 + " t=1 M=2", "1 1 1"],
        [SNAP3 + " t=1 M=2", "1 x"],
        [SNAP3 + " t=1 M=2", "1 7"],
        [SNAP3 + " t=1 M=2", "1 -1"],
        [SNAP3 + " t=1 M=2", "-1 1"],
        [SNAP3 + " t=1 M=1", "0 1"],  # a stick on the full floor layer
        ["cyldla v2 graph= n=3 d=2 t=1 M=2", "1 1"],
        ["cyldla v1 n=3 d=2 t=1 M=2", "0 0 0", "0 1 0", "0 2 0", "1 1 1"],
    ],
    ids=[
        "no-d", "d-not-int", "d-no-value", "one-int", "three-ints", "vertex-not-int",
        "vertex-above-n", "vertex-negative", "layer-negative", "layer-zero", "empty-graph", "v1",
    ],
)
def test_malformed_snapshot_is_a_configuration_error(tmp_path, capsys, lines):
    from cyldla import dla

    path = _write_lines(tmp_path / "bad.snap", lines)
    with pytest.raises(ValueError):
        dla.load_snapshot(path)
    code, _, err = run_cli(capsys, "render", str(path), "--out", str(tmp_path / "bad.ppm"))
    assert code == 2 and err.splitlines()[-1].startswith("error: snapshot")
    assert not (tmp_path / "bad.ppm").exists()


@pytest.mark.parametrize(
    "lines",
    [
        [SNAP3 + " t=2 M=2", "1 1", "1 1"],  # a duplicate
        ["cyldla v2 graph=cycle:4 n=4 d=2 t=2 M=3", "1 0", "2 2"],  # floats above an empty column
        # (3, 2) touches its layer, but 3 and 0 are not neighbours on cycle:6
        ["cyldla v2 graph=cycle:6 n=6 d=2 t=3 M=3", "1 0", "2 0", "2 3"],
        ["cyldla v2 graph=cycle:6 n=6 d=2 t=3 M=3", "1 0", "2 3", "2 0"],
        [SNAP3 + " t=2 M=2", "1 1"],  # the header's t is not the stick count
        [SNAP3 + " t=1 M=3", "1 1"],  # the header's M is not the replayed M
        ["cyldla v2 graph=cycle:4 n=3 d=2 t=1 M=2", "1 1"],  # n is not the graph's
        ["cyldla v2 graph=CYCLE:3 n=3 d=2 t=1 M=2", "1 1"],  # parses to another label
    ],
    ids=[
        "duplicate", "floating", "off-graph-neighbour", "off-graph-column", "t-mismatch",
        "M-mismatch", "n-mismatch", "label-not-canonical",
    ],
)
def test_snapshot_that_fails_replay_is_a_configuration_error(tmp_path, capsys, lines):
    from cyldla import dla

    path = _write_lines(tmp_path / "bad.snap", lines)
    snap = dla.load_snapshot(path)
    with pytest.raises(ValueError):
        dla.cluster_from_snapshot(snap, parse_graph_spec(snap.graph))
    code, _, err = run_cli(capsys, "render", str(path), "--out", str(tmp_path / "bad.ppm"))
    assert code == 2 and err.splitlines()[-1].startswith("error: snapshot")
    assert not (tmp_path / "bad.ppm").exists()


def test_wellformed_snapshot_text_renders(tmp_path, capsys):
    path = _write_lines(tmp_path / "good.snap", [SNAP3 + " t=1 M=2", "1 1"])
    code, _, _ = run_cli(capsys, "render", str(path), "--out", str(tmp_path / "good.ppm"))
    assert code == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_cycle(7),
        lambda: make_torus(3, 2),
        lambda: make_torus(3, 3),
        lambda: make_hypercube(3),
        lambda: make_complete(5),
        lambda: make_random_regular(12, 3, 4),
    ],
    ids=["cycle", "torus2", "torus3", "hypercube", "complete", "random"],
)
def test_saved_snapshot_replays_and_renders_on_every_family(tmp_path, capsys, make):
    import numpy as np

    from cyldla import dla

    g = make()
    c = dla.new_cluster(g)
    dla.grow(c, np.random.default_rng(8), particles=40)
    path = tmp_path / "c.snap"
    dla.save_snapshot(c, path)
    snap = dla.load_snapshot(path)
    assert dla.cluster_from_snapshot(snap, parse_graph_spec(snap.graph)).stick_log == c.stick_log
    code, _, _ = run_cli(capsys, "render", str(path), "--out", str(tmp_path / "c.ppm"))
    assert code == 0 and (tmp_path / "c.ppm").read_bytes().startswith(b"P6\n")


def test_loop_graph_snapshot_is_saved_but_not_rendered(tmp_path, capsys):
    import numpy as np

    from cyldla import dla

    c = dla.new_cluster(add_self_loops(make_cycle(6)))
    dla.grow(c, np.random.default_rng(9), particles=10)
    path = tmp_path / "c.snap"
    dla.save_snapshot(c, path)
    assert dla.load_snapshot(path).graph == "cycle:6+loops"
    code, _, err = run_cli(capsys, "render", str(path), "--out", str(tmp_path / "c.ppm"))
    assert code == 2 and "is not a graph spec" in err
    assert not (tmp_path / "c.ppm").exists()


def test_fit_gamma_cli(capsys):
    import numpy as np

    from cyldla import dla
    from cyldla.experiment import run_replicas

    specs =["complete:8", "complete:16", "complete:32"]
    code, out, err = run_cli(
        capsys, "fit-gamma", *specs, "--layers", "3", "--replicas", "4", "--seed", "2",
    )
    assert code == 0
    assert out.startswith("gamma=")
    assert "residual_norm=" in out
    points = [line for line in out.splitlines() if line.startswith("point ")]
    assert len(points) == 3
    for i, (spec, line) in enumerate(zip(specs, points)):
        clusters = run_replicas(parse_graph_spec(spec), 3, 4, 2 + i, dla.DEFAULT_STEP_CAP)
        mean = float(np.mean([c.first_reach[3] for c in clusters]))
        assert line == f"point n={int(spec[9:])} T_over_m={mean / 3!r}"
        upper = [l for l in err.splitlines() if l.startswith(f"# {spec} T_3-upper-4mn")]
        assert len(upper) == 1
        assert " -> " in upper[0] and "uncalibrated size threshold" in upper[0]
        assert f"# {spec}: T_3 estimate {mean!r}" in err
    assert err.count("pathwise_monotone=True") == 3


def test_mixing_prints_fast_mixing_verdict(capsys):
    code, out, err = run_cli(capsys, "mixing", "complete:8")
    assert code == 0 and out.splitlines()[-1].endswith(",1")
    fast = [l for l in err.splitlines() if l.startswith("# fast-mixing-hypothesis:")]
    assert len(fast) == 1
    assert fast[0].startswith("# fast-mixing-hypothesis: estimate 1.0 <= ")
    assert "-> pass (asymptotic hypothesis" in fast[0]
    code, out, err = run_cli(capsys, "mixing", "cycle:30", "--cap", "3")
    assert code == 0 and out.splitlines()[-1].endswith(",exceeded-cap")
    assert "# fast-mixing-hypothesis: not decided" in err
    assert "-> " not in err


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("CYLDLA_SEED", "123")
    code, out, err = run_cli(capsys, "excursions", "cycle:6", "--alpha", "2", "--trials", "3")
    assert code == 0
    assert '"seed": 123' in err


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["excursions", "cycle:6", "--alpha", "2", "--trials", "3", "--seed", "-1"], None,
         "error: --seed must be a non-negative integer, got '-1'"),
        (["verify", "walk1d", "--seed", "x1"], None,
         "error: --seed must be a non-negative integer, got 'x1'"),
        (["excursions", "cycle:6", "--alpha", "2", "--trials", "3"], "abc",
         "error: CYLDLA_SEED must be a non-negative integer, got 'abc'"),
        (["simulate", "cycle:6", "--layers", "2", "--replicas", "1"], "-4",
         "error: CYLDLA_SEED must be a non-negative integer, got '-4'"),
    ],
    ids=["flag-negative", "flag-text", "env-text", "env-negative"],
)
def test_bad_seed_is_a_configuration_error(monkeypatch, capsys, argv, env, message):
    if env is not None:
        monkeypatch.setenv("CYLDLA_SEED", env)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == message


def test_command_without_seed_ignores_a_bad_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("CYLDLA_SEED", "abc")
    code, out, err = run_cli(capsys, "spectra", "cycle:5")
    assert code == 0 and out.splitlines()[0] == "n,d,lambda,gap,mixing_time"
    assert "seed" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "cycle:6", "--layers", "2", "--replicas", "2", "--cap", "-5"],
        ["density", "cycle:6", "--layers", "2", "--replicas", "2", "--cap", "-1"],
        ["fit-gamma", "cycle:6", "cycle:8", "cycle:10", "--layers", "2", "--replicas", "2",
         "--cap", "-1"],
    ],
    ids=["simulate", "density", "fit-gamma"],
)
def test_negative_step_cap_exits_two_before_any_drop(monkeypatch, capsys, argv):
    def no_drop(*args, **kwargs):
        raise AssertionError("a drop ran under a negative cap")

    monkeypatch.setattr(dla, "drop_particle", no_drop)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.splitlines()[-1] == f"error: step cap must be >= 0, got {argv[-1]}"


HUGE = str(10**20)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "cycle:6", "--layers", HUGE, "--replicas", "2"],
        ["density", "cycle:6", "--layers", HUGE, "--replicas", "2"],
        ["fit-gamma", "cycle:6", "cycle:8", "cycle:10", "--layers", HUGE, "--replicas", "2"],
    ],
    ids=["simulate", "density", "fit-gamma"],
)
def test_layers_beyond_a_sequence_exit_two_before_any_drop(monkeypatch, capsys, argv):
    def no_drop(*args, **kwargs):
        raise AssertionError("a drop ran for an unrepresentable --layers")

    monkeypatch.setattr(dla, "drop_particle", no_drop)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: --layers must be at most {2**63 - 1}, got {HUGE}"


def test_render_scale_beyond_one_array_exits_two(tmp_path, capsys):
    c = dla.new_cluster(make_cycle(6))
    dla.grow(c, np.random.default_rng(0), particles=30)
    dla.save_snapshot(c, tmp_path / "c.snap")
    out_path = tmp_path / "c.ppm"
    code, out, err = run_cli(capsys, "render", str(tmp_path / "c.snap"), "--out", str(out_path), "--scale", HUGE)
    assert code == 2 and out == "" and not out_path.exists()
    assert err.splitlines()[-1].startswith(f"error: scale {HUGE} makes an image of ")


# the child caps its own address space at 3 GiB, so a run too large for memory fails fast
CAPPED_CLI = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
    "from cyldla.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_capped_cli(*argv):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    return run.returncode, run.stdout, run.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "cycle:6", "--layers", str(10**12), "--replicas", "2"],
        ["density", "cycle:6", "--layers", str(10**12), "--replicas", "2"],
        ["fit-gamma", "cycle:6", "cycle:8", "cycle:10", "--layers", str(10**12), "--replicas", "2"],
    ],
    ids=["simulate", "density", "fit-gamma"],
)
def test_layers_beyond_memory_exit_two(argv):
    code, out, err = run_capped_cli(*argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == "error: the run does not fit in memory"


def test_render_scale_beyond_memory_exits_two_and_writes_nothing(tmp_path):
    c = dla.new_cluster(make_cycle(6))
    dla.grow(c, np.random.default_rng(0), particles=30)
    dla.save_snapshot(c, tmp_path / "c6.snap")
    out_path = tmp_path / "c6.ppm"
    code, out, err = run_capped_cli("render", str(tmp_path / "c6.snap"), "--out", str(out_path), "--scale", "100000")
    assert code == 2 and out == "" and "Traceback" not in err and not out_path.exists()
    assert err.splitlines()[-1].startswith("error: the run does not fit in memory: Unable to allocate 3.11 TiB")


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_excursions_refuse_a_non_finite_alpha(capsys, alpha):
    code, out, err = run_cli(capsys, "excursions", "cycle:6", "--alpha", alpha, "--trials", "10")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: alpha must be a finite number >= 2, got {alpha}"


def test_unbuildable_random_spec_exits_two(capsys):
    code, out, err = run_cli(capsys, "gen-graph", "random:10:8:seed=1")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: bad graph spec 'random:10:8:seed=1': pairing-model")


def test_fit_gamma_needs_three_distinct_sizes_before_any_drop(monkeypatch, capsys):
    def no_drop(*args, **kwargs):
        raise AssertionError("a drop ran for a family of one base size")

    monkeypatch.setattr(dla, "drop_particle", no_drop)
    code, out, err = run_cli(
        capsys, "fit-gamma", "complete:4", "complete:4", "complete:4",
        "--layers", "2", "--replicas", "3", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: need family members of at least 3 distinct base sizes"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["density", "cycle:6", "--layers", "2", "--replicas", "1"],
         "error: density needs --replicas >= 2 for its 3-sigma checks, got 1"),
        (["fit-gamma", "complete:4", "complete:5", "complete:6", "--layers", "2", "--replicas", "1"],
         "error: replicas must be >= 2 for a standard error, got 1"),
    ],
    ids=["density", "fit-gamma"],
)
def test_one_replica_gives_no_verdict(monkeypatch, capsys, tmp_path, argv, message):
    drop = dla.drop_particle

    def no_drop(*args, **kwargs):
        raise AssertionError("a drop ran for a one-replica verdict")

    monkeypatch.setattr(dla, "drop_particle", no_drop)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == message
    # simulate prints no verdict, so one replica stays a valid sweep
    monkeypatch.setattr(dla, "drop_particle", drop)
    code, *_ = run_cli(capsys, "simulate", "cycle:6", "--layers", "2", "--replicas", "1",
                       "--out", str(tmp_path))
    assert code == 0 and (tmp_path / "density.csv").exists()


def test_simulate_determinism(tmp_path, capsys):
    args = ["simulate", "cycle:6", "--layers", "4", "--replicas", "3", "--seed", "9"]
    code_a, *_ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    code_b, *_ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert code_a == code_b == 0
    for name in ("growth.csv", "density.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_negative_binomial_range_error_is_a_sampling_abort(monkeypatch, capsys):
    from cyldla import cylinder

    monkeypatch.setattr(cylinder, "sample_first_passage_moves", lambda rng: 10**19)
    code, _, err = run_cli(capsys, "simulate", "cycle:6", "--layers", "4", "--replicas", "1")
    assert code == 3
    assert err.splitlines()[-1].startswith("error: sampling range exceeded: negative binomial")
