"""Pinned digests of the v3 random stream and the v2 snapshot layout.

Criterion 13 compares two runs of the same code; these digests compare
against the outputs recorded for the v3 stream (one slot stream per drop,
exact excursion draws, and the base kernel's multinomial slot counts on
lattice bases), so any change in how the walk consumes random numbers fails
here.  A deliberate change bumps the ``cyldla v3`` CSV header and re-records
the digests.  The snapshot digest pins the same v3 sticks written in the
``cyldla v2`` snapshot layout (the header names the graph, one
``layer vertex`` line per stick); a layout change bumps the snapshot magic.
"""
import hashlib

import numpy as np

from cyldla import cli, dla, graphs

SIMULATE_DIGESTS = {
    "growth.csv": "54c39762748842a25aea78c185a0e93a9af16e7422cb4bb7f04815341230fac6",
    "density.csv": "72141e08b2e57ced0a9da428096ee5ad5efd12860f4e9f5f213ee9dc3f24d89b",
    "probes.csv": "bbce856894bd0be23769c0ba5462cd0f321ad13361849a20833c3fc17dbe8209",
}
GROW_SNAPSHOT_DIGEST = "ebe699674ce05cd37cfe020d2459d664a3c1475cc87cb27f433578a836a53f23"
VERIFY_ALL_SEED_1_DIGEST = "24eddf391e53d22f8b054eda217d71702007a0fa13ab7187da80a848a4bc8eaa"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_csvs_match_v3_stream(tmp_path, capsys):
    argv = ["simulate", "cycle:16", "--layers", "8", "--replicas", "6", "--seed", "3"]
    assert cli.main(argv + ["--probes", "300", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {name: _sha256(tmp_path / name) for name in SIMULATE_DIGESTS} == SIMULATE_DIGESTS


def test_grow_snapshot_v2_layout_matches_v3_stream(tmp_path):
    cluster = dla.new_cluster(graphs.parse_graph_spec("cycle:16"))
    dla.grow(cluster, np.random.default_rng(0), particles=300)
    dla.save_snapshot(cluster, tmp_path / "grow.snap")
    assert _sha256(tmp_path / "grow.snap") == GROW_SNAPSHOT_DIGEST


def test_verify_report_matches_v3_stream(capsys):
    assert cli.main(["verify", "all", "--seed", "1"]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("ascii")).hexdigest() == VERIFY_ALL_SEED_1_DIGEST
