"""The benchmark's smoke mode, so the harness in bench/ cannot rot.

``bench/run.py --smoke`` runs every workload at tiny sizes, traced and
untraced, and checks its gates and output schema.  The tracer wraps program
functions by name, so the names it reads or patches are also checked here
with a clearer message than a failing smoke run gives.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from cyldla import dla

ROOT = Path(__file__).resolve().parents[1]


def _bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_names_exist():
    assert "kappa_histogram" in dla.GrowthStats.__dataclass_fields__
    tracing = _bench_tracing()
    replacements = tracing.traced_calls(tracing.Tracer("names"))
    assert replacements
    for owner, attr, traced in replacements:
        # each patched name is still bound to the function the tracer wraps
        assert getattr(owner, attr) is traced.__wrapped__, f"{owner.__name__}.{attr}"
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
