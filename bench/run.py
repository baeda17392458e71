"""cyldla benchmark: end-to-end metrics, a traced per-layer run, and a smoke mode.

Usage (from the repository root):

    python3 bench/run.py --workload grow-cycle500 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` the last line of standard output is one JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it carries
every per-layer metric instead.  The line before it is a report with the
environment, the exact work counters of every round, the science-output
digest and every gate.  The exit code is 0 when every gate passed, 1 when a
gate failed and 2 when the program or the benchmark definition is missing.
Metric definitions: bench/METRICS.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)


def fail_setup(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0 - 1e-9:
            return p
    return 50.0


def tail_value(values: list[float], p: float) -> float:
    xs = sorted(values)
    beyond = int(len(xs) * (100.0 - p) / 100.0 + 1e-9)
    return xs[max(0, len(xs) - beyond - 1)]


def setup_probes(spec: str, count: int) -> list[dict]:
    """Run the set-up probe in ``count`` fresh interpreters, one after another."""
    probes = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), spec],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cyldla").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
        break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment(seed: int, cfg: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "code_sha": code_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "seed": seed,
        "config": cfg,
        "config_hash": hashlib.sha256(
            json.dumps({"seed": seed, "config": cfg}, sort_keys=True).encode()
        ).hexdigest()[:16],
    }


def run_round(workload, cfg: dict, seed: int, tracer, prepared):
    """One round in a scratch directory inside the checkout; never raises."""
    from tracing import patched, traced_calls

    OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="round-", dir=OUT)
    try:
        with patched(traced_calls(tracer) if tracer is not None else []):
            return workload.round(cfg, seed, outdir, tracer, prepared), None
    except Exception:  # the gate reports any failure of the program
        return None, traceback.format_exc()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def steal_seconds() -> float | None:
    """CPU time the host took from this virtual machine so far (/proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def round_stats(r, steal) -> dict:
    n = len(r.item_s)
    p = tail_percentile(n)
    return {
        "steal_s": steal,
        "wall_s": r.wall,
        "items_per_s": n / r.wall,
        "item_ms_p50": statistics.median(r.item_s) * 1e3,
        "item_ms_tail": tail_value(r.item_s, p) * 1e3,
        "tail_percentile": p,
        "items": n,
    }


def check_repeat(name: str, seed: int, env: dict, record: dict) -> list[str]:
    """Compare this run's counters with an earlier run of the same code and seed."""
    path = OUT / "counters" / f"{name}-seed{seed}-{env['config_hash']}-{env['code_sha']}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [] if earlier == record else [f"counters differ from the earlier run in {path.name}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return []


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                  probes: list[dict] | None = None):
    """Run one workload; return (result line, report)."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, graph_specs, warm_spectral

    workload = WORKLOADS[name]
    cfg = workload.smoke if smoke else workload.full
    env = environment(seed, cfg)
    if probes is None:
        probes = setup_probes(graph_specs(cfg)[0], SETUP_PROBES)
    warm_spectral(cfg)
    prepared = workload.prepare(cfg)

    rounds, steals, errors, tracer = [], [], [], None

    def one_round(round_tracer) -> bool:
        before = steal_seconds()
        r, err = run_round(workload, cfg, seed, round_tracer, prepared)
        after = steal_seconds()
        if err:
            errors.append(err)
            return False
        rounds.append(r)
        steals.append(None if before is None or after is None else after - before)
        return True

    start = time.perf_counter()
    while True:
        last = time.perf_counter()
        if not one_round(None):
            break
        now = time.perf_counter()
        if trace or now - start + (now - last) > seconds:
            break
    if trace and not errors:
        tracer = Tracer(f"{name}-seed{seed}-pid{os.getpid()}")
        one_round(tracer)

    checks = [c for r in rounds for c in r.checks]
    counters = [r.counters for r in rounds]
    digests = sorted({r.digest for r in rounds})
    repeat = [] if len({json.dumps(c, sort_keys=True) for c in counters}) <= 1 else [
        "work counters differ between rounds"
    ]
    if len(digests) > 1:
        repeat.append("science outputs differ between rounds")
    if rounds and not repeat and not errors:
        repeat += check_repeat(name, seed, env, {"counters": counters[0], "digest": digests[0]})
    checks.append(("repeatable", not repeat, "; ".join(repeat) or "ok"))

    attempted = sum(len(r.item_s) for r in rounds) + len(errors)
    failed = len(errors) + sum(
        len(r.item_s) for r in rounds if not all(ok for _, ok, _ in r.checks)
    )
    per_round = [round_stats(r, steal) for r, steal in zip(rounds, steals)]

    if trace:
        traced = rounds[-1] if tracer is not None and len(rounds) > 1 else None
        values = {}
        if traced is not None:
            values = layer_metrics(tracer, len(traced.item_s))
            values.update(traced.layer)
            values["trace.overhead_frac"] = traced.wall / rounds[0].wall
        values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["setup.first_spectral_s"] = statistics.median(p["spectral_s"] for p in probes)
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{name}-seed{seed}.npz")
    elif per_round:
        values = {
            key: statistics.median(s[key] for s in per_round)
            for key in ("wall_s", "items_per_s", "item_ms_p50", "item_ms_tail")
        }
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        values = {}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    attempted = max(1, attempted)
    if repeat or missing:
        failed = attempted  # nothing of this run can be trusted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }
    report = {
        "workload": name,
        "trace": int(trace),
        "smoke": smoke,
        "environment": env,
        "setup_probes": probes,
        "rounds": per_round,
        "counters": counters,
        "digest": digests,
        "failed_frac": result["failed"] / result["attempted"],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "errors": errors,
        "missing_metrics": missing,
    }
    return result, report


def validate_schema(result: dict, trace: bool) -> list[str]:
    """Problems with a result line against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not an integer")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for key, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != wanted.get(key):
            problems.append(f"{key}: bad entry {m}")
        elif not isinstance(m["value"], float) or m["value"] != m["value"]:
            problems.append(f"{key}: value {m['value']!r} is not a number")
    return problems


def smoke() -> int:
    """Every workload at tiny sizes, traced and untraced; checks the output schema."""
    from workloads import WORKLOADS

    probes = setup_probes("cycle:8", 1)
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, report = run_benchmark(name, 0, 0.0, trace, smoke=True, probes=probes)
            result = json.loads(json.dumps(result))
            problems = validate_schema(result, trace)
            if not result["correct"]:
                problems.append(f"gates failed: {report['checks']} {report['errors']}")
            ok = ok and not problems
            print(f"smoke {name} trace={int(trace)}: {'ok' if not problems else problems}")
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, schema check")
    args = parser.parse_args(argv)
    if not (SRC / "cyldla" / "__init__.py").is_file():
        return fail_setup(f"program source not found under {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail_setup("BENCHMARK.json not found at the repository root")
    sys.path.insert(0, str(SRC))
    import cyldla

    if Path(cyldla.__file__).resolve().parent != SRC / "cyldla":
        return fail_setup(f"imported cyldla from {cyldla.__file__}, not from {SRC}")
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail_setup(f"--workload must be one of {sorted(WORKLOADS)}")
    result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "report": report}, indent=1)
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
