"""Pinned digests of the v1 fair-walk random stream.

Criterion 13 compares two runs of the same code; these digests compare
against the outputs recorded for the v1 stream, so any change in how the
fair walk consumes random numbers fails here.  A deliberate change bumps
the ``cyldla v1`` headers and re-records the digests.
"""
import hashlib

import numpy as np

from cyldla import cli, dla, graphs

SIMULATE_DIGESTS = {
    "growth.csv": "4800297b29e409871037f64d14d171886048492dc96dfa9e87d343f23a632a7a",
    "density.csv": "ee4bc9b41ad17d5f59cf0ba5920bb6c385a7f9d4b07d62683df8a7ba3693b38d",
    "probes.csv": "c6b9e77f7ea2bf9c9e58ffce3a740f0d0cf8a303891b3763f030a7884d6d5972",
}
GROW_SNAPSHOT_DIGEST = "27fdf852b37c7038ec21c335c86d1ebf590d3dcc323d054a0af3eccef974657b"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_csvs_match_v1_stream(tmp_path, capsys):
    argv = ["simulate", "cycle:16", "--layers", "8", "--replicas", "6", "--seed", "3"]
    assert cli.main(argv + ["--probes", "300", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {name: _sha256(tmp_path / name) for name in SIMULATE_DIGESTS} == SIMULATE_DIGESTS


def test_grow_snapshot_matches_v1_stream(tmp_path):
    cluster = dla.new_cluster(graphs.parse_graph_spec("cycle:16"))
    dla.grow(cluster, np.random.default_rng(0), particles=300)
    dla.save_snapshot(cluster, tmp_path / "grow.snap")
    assert _sha256(tmp_path / "grow.snap") == GROW_SNAPSHOT_DIGEST
