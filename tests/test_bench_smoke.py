"""The benchmark's smoke mode, so the harness in bench/ cannot rot.

``bench/run.py --smoke`` runs every workload at tiny sizes, traced and
untraced, and checks its gates and output schema.  The tracer wraps program
functions by name, so the names it reads or patches are also checked here
with a clearer message than a failing smoke run gives.
"""
import json
import subprocess
import sys
from pathlib import Path

from cyldla import cylinder, dla

ROOT = Path(__file__).resolve().parents[1]


def test_bench_names_exist():
    assert "kappa_histogram" in dla.GrowthStats.__dataclass_fields__
    assert isinstance(cylinder._DIRECT_HOP_LIMIT, int)
    for attr in ("__init__", "sample", "_sample_eigen"):
        assert callable(getattr(cylinder.GTransitionSampler, attr))
    assert dla.sample_excursion_shape is cylinder.sample_excursion_shape
    assert callable(cylinder.sample_negative_binomial)
    assert callable(cylinder.sample_first_passage_moves)
    # the bench times each drop and probe by patching these module globals
    assert "drop_particle" in dla.grow.__code__.co_names
    assert "probe_particle" in dla.drop_particle.__code__.co_names


def test_bench_smoke_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {"smoke": "pass"}
