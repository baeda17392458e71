"""Pinned digests of the v5 random stream and the v2 snapshot layout.

Criterion 13 compares two runs of the same code; these digests compare
against the outputs recorded for the stream (one slot stream per drop,
steps above the front taken literally up to the ceiling and one exact
return draw from there, and the base kernel's multinomial slot counts on
lattice bases), so any change in how the walk consumes random numbers fails
here.  A deliberate change bumps the CSV header and re-records the digests.
The v5 stream moved every pin here: the walk now consumes slots above the
front where it used to draw an excursion shape, so the sticks of the
``simulate`` replicas and probes, the ``grow`` snapshot and the statistics
of the seed-1 ``verify`` report all changed.  The snapshot digest pins the
sticks written in the ``cyldla v2`` snapshot layout (the header names the
graph, one ``layer vertex`` line per stick); a layout change bumps the
snapshot magic.
"""
import hashlib

import numpy as np

from cyldla import cli, dla, graphs

SIMULATE_DIGESTS = {
    "growth.csv": "c9574ae74c83324e4efd3ea3ad0164bc23e9cdb4749e3f3be4f7984968c70422",
    "density.csv": "709a0ba6213f1303db8d9b22fd3a55ee33c0160316c6935741070bf26a63e7b1",
    "probes.csv": "3d27d75e28938e1ec94dac605495ba78b05070cfd3bd041ab22d4f1968f134fc",
}
GROW_SNAPSHOT_DIGEST = "b5a59f634336d10b838a135b477571208911bf4803502e317de1e4ffccb26811"
VERIFY_ALL_SEED_1_DIGEST = "a52cc8d213bebde6a394de234d445c9a0f02e06240e6a6ced6cc8a760416b769"


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
