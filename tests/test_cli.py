from pathlib import Path

import pytest

from cyldla import cli

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
    assert growth[0].startswith("# cyldla v3 config_hash=")
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


SNAPSHOT_FLOOR = "0 0 0\n0 1 0\n0 2 0\n"


@pytest.mark.parametrize(
    "text",
    [
        "cyldla v1 n=3 t=1 M=2\n" + SNAPSHOT_FLOOR + "1 1 1\n",  # no d
        "cyldla v1 n=3 d=two t=1 M=2\n" + SNAPSHOT_FLOOR + "1 1 1\n",
        "cyldla v1 n=3 d t=1 M=2\n" + SNAPSHOT_FLOOR + "1 1 1\n",
        "cyldla v1 n=3 d=2 t=1 M=2\n" + SNAPSHOT_FLOOR + "1 1\n",
        "cyldla v1 n=3 d=2 t=1 M=2\n" + SNAPSHOT_FLOOR + "1 1 1 0\n",
        "cyldla v1 n=3 d=2 t=1 M=2\n" + SNAPSHOT_FLOOR + "1 x 1\n",
        "cyldla v1 n=3 d=2 t=1 M=2\n" + SNAPSHOT_FLOOR + "1 7 1\n",
        "cyldla v1 n=3 d=2 t=1 M=2\n" + SNAPSHOT_FLOOR + "1 -1 1\n",
        "cyldla v1 n=3 d=2 t=1 M=2\n" + SNAPSHOT_FLOOR + "-1 1 1\n",
        # sticks that no walk can place: a duplicate, a floating particle
        # above an empty column, and a stick on the full floor layer
        "cyldla v1 n=3 d=2 t=2 M=2\n" + SNAPSHOT_FLOOR + "1 1 1\n1 1 2\n",
        "cyldla v1 n=4 d=2 t=2 M=3\n" + SNAPSHOT_FLOOR + "0 3 0\n1 0 1\n2 2 2\n",
        "cyldla v1 n=3 d=2 t=1 M=1\n" + SNAPSHOT_FLOOR + "0 1 1\n",
    ],
)
def test_malformed_snapshot_is_a_configuration_error(tmp_path, capsys, text):
    from cyldla import dla

    path = tmp_path / "bad.snap"
    path.write_text(text)
    with pytest.raises(ValueError):
        dla.load_snapshot(path)
    code, _, err = run_cli(capsys, "render", str(path), "--out", str(tmp_path / "bad.ppm"))
    assert code == 2 and err.splitlines()[-1].startswith("error: snapshot")
    assert not (tmp_path / "bad.ppm").exists()


def test_wellformed_snapshot_text_renders(tmp_path, capsys):
    path = tmp_path / "good.snap"
    path.write_text("cyldla v1 n=3 d=2 t=1 M=2\n" + SNAPSHOT_FLOOR + "1 1 1\n")
    code, _, _ = run_cli(capsys, "render", str(path), "--out", str(tmp_path / "good.ppm"))
    assert code == 0


def test_fit_gamma_cli(capsys):
    code, out, _ = run_cli(
        capsys, "fit-gamma", "complete:8", "complete:16", "complete:32",
        "--layers", "3", "--replicas", "4", "--seed", "2",
    )
    assert code == 0
    assert out.startswith("gamma=")
    assert "residual_norm=" in out


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("CYLDLA_SEED", "123")
    code, out, err = run_cli(capsys, "excursions", "cycle:6", "--alpha", "2", "--trials", "3")
    assert code == 0
    assert '"seed": 123' in err


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
