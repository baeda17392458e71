"""Pinned digests of the v6 random stream and the v2 snapshot layout.

Criterion 13 compares two runs of the same code; these digests compare
against the outputs recorded for the stream, so any change in how the walk
consumes random numbers fails here.  A deliberate change bumps the CSV
header and re-records the digests.  The v6 stream cuts every integer the
walk draws from the generator's raw 64-bit words: the walker's slots and
the base kernel's literal hops come from little-endian bytes with the
rejected bytes deleted (one slot stream per drop, in blocks of 64 up to
4,096 bytes), and the entry vertex and the kernel's uniform vertex each
take one word by multiply-shift.  The rest is as in v5: steps above the
front taken literally up to the ceiling and one exact return draw from
there, and the base kernel's multinomial slot counts on lattice bases.
The v6 stream moved every pin here: the sticks of the ``simulate``
replicas and probes, the ``grow`` snapshot and the statistics of the
seed-1 ``verify`` report.  The snapshot digest pins the sticks written in
the ``cyldla v2`` snapshot layout (the header names the graph, one
``layer vertex`` line per stick); a layout change bumps the snapshot magic.
"""
import hashlib

import numpy as np

from cyldla import cli, dla, graphs

SIMULATE_DIGESTS = {
    "growth.csv": "d6d9b20379294925e6e4d55a2ab33730bb47ee7ee98ea11b3c574ad5007049eb",
    "density.csv": "215e796cfa29f4e0b9135093aefd518daeef0e7425668f18de04a854c45d8534",
    "probes.csv": "ea1b39eebebd8431436329fda6bdf1fe07374833657c6a737f1948dd7038c1cc",
}
GROW_SNAPSHOT_DIGEST = "dfdf39587dbb6e462a1087b7df684d7511be7ec4c91b2ecb2a24e77c458f57db"
VERIFY_ALL_SEED_1_DIGEST = "e9cf03a5a457fd344ffc12f49adc423d5087b0a57dfe35b75cfd5cd81127bbf9"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_csvs_match_v6_stream(tmp_path, capsys):
    argv = ["simulate", "cycle:16", "--layers", "8", "--replicas", "6", "--seed", "3"]
    assert cli.main(argv + ["--probes", "300", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {name: _sha256(tmp_path / name) for name in SIMULATE_DIGESTS} == SIMULATE_DIGESTS


def test_grow_snapshot_v2_layout_matches_v6_stream(tmp_path):
    cluster = dla.new_cluster(graphs.parse_graph_spec("cycle:16"))
    dla.grow(cluster, np.random.default_rng(0), particles=300)
    dla.save_snapshot(cluster, tmp_path / "grow.snap")
    assert _sha256(tmp_path / "grow.snap") == GROW_SNAPSHOT_DIGEST


def test_verify_report_matches_v6_stream(capsys):
    assert cli.main(["verify", "all", "--seed", "1"]) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("ascii")).hexdigest() == VERIFY_ALL_SEED_1_DIGEST
