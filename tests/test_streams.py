"""Pinned digests of the v2 random stream.

Criterion 13 compares two runs of the same code; these digests compare
against the outputs recorded for the v2 stream (one slot stream per drop,
exact excursion draws), so any change in how the walk consumes random
numbers fails here.  A deliberate change bumps the ``cyldla v2`` CSV header
and re-records the digests.  The snapshot header stays ``cyldla v1``: its
layout has not changed.
"""
import hashlib

import numpy as np

from cyldla import cli, dla, graphs

SIMULATE_DIGESTS = {
    "growth.csv": "f80b8feef787325cdd07cefc0848d05f5cbd248a680ea6689fe0ba0cf7389339",
    "density.csv": "f84b216d87f86626d4993ac524de0ac5bd51248145ca09f61e5efbe6407703de",
    "probes.csv": "368bbe2e4803d740ef6f575fcfa255ab4886e0a16955da1dedc5b45e40f4be8a",
}
GROW_SNAPSHOT_DIGEST = "ef59ee7a8f05eebbedabad2cd3f9e93abd744609c2b9f39af1e976a2aacf323b"
VERIFY_ALL_SEED_1_DIGEST = "4a77e8e81eb206c9330f2d5af2791318167d292015a7aad9b75d29f38cc423cc"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_csvs_match_v2_stream(tmp_path, capsys):
    argv = ["simulate", "cycle:16", "--layers", "8", "--replicas", "6", "--seed", "3"]
    assert cli.main(argv + ["--probes", "300", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {name: _sha256(tmp_path / name) for name in SIMULATE_DIGESTS} == SIMULATE_DIGESTS


def test_grow_snapshot_matches_v2_stream(tmp_path):
    cluster = dla.new_cluster(graphs.parse_graph_spec("cycle:16"))
    dla.grow(cluster, np.random.default_rng(0), particles=300)
    dla.save_snapshot(cluster, tmp_path / "grow.snap")
    assert _sha256(tmp_path / "grow.snap") == GROW_SNAPSHOT_DIGEST


def test_verify_report_matches_v2_stream(capsys):
    assert cli.main(["verify", "all", "--seed", "1"]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("ascii")).hexdigest() == VERIFY_ALL_SEED_1_DIGEST
