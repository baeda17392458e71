"""The four benchmark workloads and their correctness gates.

A workload runs in rounds.  One round is a fixed amount of work that depends
only on the workload seed, so every round of a run repeats the same work and
its exact counters must repeat too.  ``round`` returns a :class:`RoundResult`
whose ``wall`` covers only the timed phase; the gates run after it, because
some of them (``wall_blocking_violations``) cost O(walls x particles).
"""
from __future__ import annotations

import copy
import hashlib
import math
import os
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from cyldla import dla, experiment, graphs, oracles, render
from cyldla.cylinder import GTransitionSampler

from tracing import Tracer, patched

CLOCK = time.perf_counter


@dataclass
class RoundResult:
    wall: float
    item_s: list[float]
    counters: dict  # exact work counts, identical in every round of a run
    digest: str  # sha256 of the round's science outputs
    checks: list[tuple[str, bool, str]]
    layer: dict = field(default_factory=dict)  # per-layer values the workload measures itself


def item_timer(fn, times: list, tracer: Tracer | None, seen: list | None = None):
    """Wrap the call that makes one item, recording its duration.

    ``seen`` collects each call's first argument (the cluster) for the gates.
    """

    def timed(*args, **kwargs):
        if tracer is not None:
            tracer.item = len(times)
        if seen is not None:
            seen.append(args[0])
        t = CLOCK()
        out = fn(*args, **kwargs)
        times.append(CLOCK() - t)
        return out

    return timed


def stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def cluster_invariants(cluster: dla.Cluster) -> list[str]:
    """Violations of the bookkeeping every grown cluster must satisfy."""
    n = cluster.graph.n
    bad = []
    if cluster.loads[0] != n or sum(cluster.loads[1:]) != cluster.t:
        bad.append(f"loads sum to {sum(cluster.loads)}, expected n + t = {n + cluster.t}")
    if any(sum(row) != load for row, load in zip(cluster.occ, cluster.loads)):
        bad.append("occupancy rows disagree with loads")
    if len(cluster.stick_log) != cluster.t:
        bad.append("stick log length differs from t")
    reach = [cluster.first_reach.get(m) for m in range(1, cluster.M)]
    if None in reach or any(b <= a for a, b in zip(reach, reach[1:])):
        bad.append("T_m is not strictly increasing over 1..M-1")
    if dla.wall_blocking_violations(cluster):
        bad.append("a particle stuck below a completed wall")
    return bad


def gate(name: str, problems: list[str]) -> tuple[str, bool, str]:
    return (name, not problems, "; ".join(problems[:3]) or "ok")


# --- grow-cycle500 and grow-random500 ------------------------------------------


def grow_prepare(cfg: dict) -> dla.Cluster:
    """Starting cluster: grown from the fixed ``base_seed`` stream to ``base_layer``.

    The starting state is an input like the graph: it does not depend on the
    workload seed, which drives only the timed growth.  On a cycle base the
    cost of a drop depends strongly on the cluster's shape, and a spike that
    runs ahead of the front makes every later drop slower, so long growths
    from scratch differ by up to 2x in drop time between seeds.  Several short
    growths from one fixed state keep the spread between seeds small.
    """
    cluster = dla.new_cluster(graphs.parse_graph_spec(cfg["graph"]))
    if cfg["base_layer"] > 0:
        dla.grow(cluster, np.random.default_rng(cfg["base_seed"]), target_layer=cfg["base_layer"])
    return cluster


def grow_round(cfg: dict, seed: int, outdir: str, tracer: Tracer | None, base) -> RoundResult:
    """Grow copies of the starting cluster; snapshot, reload, replay and render the last."""
    times: list[float] = []
    clusters = [copy.deepcopy(base) for _ in range(cfg["segments"])]
    kappa_sum = 0
    snap_path = os.path.join(outdir, "cluster.snap")
    t0 = CLOCK()
    graph = graphs.parse_graph_spec(cfg["graph"])
    with patched([(dla, "drop_particle", item_timer(dla.drop_particle, times, tracer))]):
        for k, cluster in enumerate(clusters):
            stats = dla.grow(cluster, stream(seed, k), particles=cfg["particles"])
            kappa_sum += sum(kappa * count for kappa, count in stats.kappa_histogram.items())
    dla.save_snapshot(clusters[-1], snap_path)
    snap = dla.load_snapshot(snap_path)
    replayed = dla.cluster_from_snapshot(snap, graph)
    image = render.render_snapshot(snap, scale=cfg["scale"])
    wall = CLOCK() - t0

    with open(snap_path, "rb") as fh:
        snap_bytes = fh.read()
    again = os.path.join(outdir, "replayed.snap")
    dla.save_snapshot(replayed, again)
    with open(again, "rb") as fh:
        same = fh.read() == snap_bytes
    problems = [f"segment {k}: {p}" for k, c in enumerate(clusters) for p in cluster_invariants(c)]
    checks = [
        gate("cluster-invariants", problems),
        gate("replayed-invariants", cluster_invariants(replayed)),
        gate("snapshot-round-trip", [] if same else ["replayed snapshot bytes differ"]),
        gate("particle-count", [] if len(times) == cfg["segments"] * cfg["particles"] else ["items"]),
    ]
    digest = hashlib.sha256()
    for cluster in clusters[:-1]:
        digest.update("\n".join(dla.snapshot_lines(cluster)).encode())
    digest.update(snap_bytes + image.data)
    counters = {
        "items": len(times),
        "start_M": base.M,
        "final_M": [cluster.M for cluster in clusters],
        "kappa_sum": kappa_sum,
        "walls": sum(len(cluster.wall_times) for cluster in clusters),
        "render_bytes": len(image.data),
    }
    layer = {"dla.final_M": max(counters["final_M"]), "render.bytes": len(image.data)}
    return RoundResult(wall, times, counters, digest.hexdigest(), checks, layer)


def no_state(cfg: dict) -> None:
    return None


def graph_specs(cfg: dict) -> list[str]:
    """Base graphs of a workload config, the first one first."""
    return [cfg["graph"]] if "graph" in cfg else [spec for spec, _ in cfg["states"]]


def warm_spectral(cfg: dict) -> None:
    """Build one spectral object per base graph so no first ``eigh`` is timed."""
    for spec in graph_specs(cfg):
        GTransitionSampler(graphs.parse_graph_spec(spec))


# --- density-sweep -----------------------------------------------------------


def _csv_rows(path: str) -> tuple[str, list[list[str]]]:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    return lines[0], [line.split(",") for line in lines[2:]]


def density_round(cfg: dict, seed: int, outdir: str, tracer: Tracer | None, base) -> RoundResult:
    """``experiment.run_sweep``: replicas, density reads, probes and three CSVs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = experiment.ExperimentConfig(
            graph_spec=cfg["graph"],
            target_layers=tuple(cfg["targets"]),
            replicas=cfg["replicas"],
            base_seed=seed,
            density_overshoot=cfg["overshoot"],
            probe_trials=cfg["probes"],
            output_dir=outdir,
        )
    times: list[float] = []
    clusters: list[dla.Cluster] = []
    t0 = CLOCK()
    with patched([(dla, "grow", item_timer(dla.grow, times, tracer, clusters))]):
        out = experiment.run_sweep(config)
    wall = CLOCK() - t0

    problems = [f"{c.graph.label} replica: {p}" for c in clusters for p in cluster_invariants(c)]
    header = f"# {experiment.CSV_MAGIC} config_hash={config.config_hash()}"
    growth_head, growth = _csv_rows(out.growth_csv)
    density_head, density = _csv_rows(out.density_csv)
    probes_head, probes = _csv_rows(out.probes_csv)
    if {growth_head, density_head, probes_head} != {header}:
        problems.append("CSV header does not carry the config hash")
    targets = sorted(cfg["targets"])
    expected = [
        [str(r), str(m), str(c.first_reach[m])] for r, c in enumerate(clusters) for m in targets
    ]
    if growth != expected:
        problems.append("growth.csv disagrees with the replicas' T_m")
    if len(density) != len(clusters) * len(targets) or len(probes) != cfg["probes"]:
        problems.append("density.csv or probes.csv has the wrong row count")
    checks = [
        gate("no-config-warning", [str(w.message) for w in caught]),
        gate("replica-count", [] if len(clusters) == cfg["replicas"] else ["replica count"]),
        gate("sweep-outputs", problems),
    ]
    digest = hashlib.sha256()
    for path in (out.growth_csv, out.density_csv, out.probes_csv):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    counters = {
        "items": len(times),
        "particles": sum(c.t for c in clusters),
        "final_M_sum": sum(c.M for c in clusters),
        "probe_rows": len(probes),
    }
    layer = {
        "experiment.replica_s_p50": float(np.median(times)) if times else 0.0,
        "dla.final_M": max(c.M for c in clusters),
    }
    return RoundResult(wall, times, counters, digest.hexdigest(), checks, layer)


# --- oracle-check ------------------------------------------------------------


def transient_count(cluster: dla.Cluster, truncate_layer: int) -> int:
    """States of the oracle's linear system: empty, non-boundary, layers 1..T."""
    count = 0
    for z in range(1, truncate_layer + 1):
        row = cluster.occ[z] if z < len(cluster.occ) else None
        for g in range(cluster.graph.n):
            if not (row is not None and row[g]) and not dla.is_boundary(cluster, (g, z)):
                count += 1
    return count


def null_tv(oracle: dict, trials: int) -> float:
    """Expected TV between ``trials`` exact draws from ``oracle`` and the oracle."""
    return 0.5 * sum(
        min(math.sqrt(2.0 * p * (1.0 - p) / (math.pi * trials)), 2.0 * p)
        for p in oracle.values()
    )


def cluster_state(cluster: dla.Cluster):
    return ([bytes(row) for row in cluster.occ], list(cluster.loads), cluster.M, cluster.t)


def oracle_round(cfg: dict, seed: int, outdir: str, tracer: Tracer | None, base) -> RoundResult:
    """Exact first-hit solves at T and 2T, then probes, on frozen grown states.

    The states are inputs like the graphs: they grow from the fixed
    ``state_seed`` stream, and the workload seed drives only the probes.  On
    bases this small the probe cost depends on the state's shape, which would
    otherwise spread the probe times between seeds by about a quarter.  T
    sits a fixed number of layers above the state's front M.
    """
    states = []
    for k, (spec, layer) in enumerate(cfg["states"]):
        cluster = dla.new_cluster(graphs.parse_graph_spec(spec))
        dla.grow(cluster, stream(cfg["state_seed"], k), target_layer=layer)
        states.append((cluster, stream(seed, k), cluster_state(cluster)))
    times: list[float] = []
    solved = []
    outcomes = []
    trials = cfg["probes"]
    t0 = CLOCK()
    for cluster, rng, _ in states:
        truncate = cluster.M + cfg["truncate_above_front"]
        low = oracles.first_hit_distribution(cluster, truncate)
        high = oracles.first_hit_distribution(cluster, 2 * truncate)
        solved.append((low, high))
        for _ in range(trials):
            if tracer is not None:
                tracer.item = len(times)
            t = CLOCK()
            out = dla.probe_particle(cluster, rng)
            times.append(CLOCK() - t)
            outcomes.append((out.stick_g, out.H, out.kappa))
    wall = CLOCK() - t0

    checks = []
    tvs, truncation_tvs, transient = [], [], 0
    for k, ((cluster, _, before), (low, high)) in enumerate(zip(states, solved)):
        label = f"{cluster.graph.label}@M={cluster.M}"
        counts = Counter((g, h) for g, h, _ in outcomes[k * trials : (k + 1) * trials])
        tv = oracles.total_variation({s: v / trials for s, v in counts.items()}, high)
        limit = 3.0 * null_tv(high, trials)
        trunc = oracles.total_variation(low, high)
        tvs.append(tv)
        truncation_tvs.append(trunc)
        truncate = cluster.M + cfg["truncate_above_front"]
        transient += transient_count(cluster, truncate) + transient_count(cluster, 2 * truncate)
        checks.append(gate(f"oracle-tv {label}", [] if tv <= limit else [f"TV {tv:.4f} > {limit:.4f}"]))
        checks.append(
            gate(f"truncation-tv {label}", [] if trunc <= cfg["truncation_tol"] else [f"TV {trunc:.3g}"])
        )
        checks.append(
            gate(f"probes-commit-nothing {label}", [] if cluster_state(cluster) == before else ["state changed"])
        )
    digest = hashlib.sha256()
    digest.update(repr(outcomes).encode())
    for low, high in solved:
        digest.update(repr(sorted((s, float(f"{p:.10e}")) for s, p in high.items())).encode())
    counters = {
        "items": len(times),
        "kappa_sum": sum(kappa for _, _, kappa in outcomes),
        "final_M": [cluster.M for cluster, _, _ in states],
        "transient_states": transient,
        "absorbing_states": sum(len(high) for _, high in solved),
    }
    layer = {
        "oracles.transient_states": transient,
        "oracles.tv": max(tvs),
        "oracles.truncation_tv": max(truncation_tvs),
        "dla.final_M": max(cluster.M for cluster, _, _ in states),
    }
    return RoundResult(wall, times, counters, digest.hexdigest(), checks, layer)


@dataclass(frozen=True)
class Workload:
    round: object  # (cfg, seed, outdir, tracer, prepared) -> RoundResult
    prepare: object  # (cfg) -> state shared read-only by every round, or None
    full: dict
    smoke: dict


# Why each workload exists is recorded in BENCHMARK.json and bench/METRICS.md.
WORKLOADS = {
    "grow-cycle500": Workload(
        grow_round,
        grow_prepare,
        full={"graph": "cycle:500", "base_seed": 2026, "base_layer": 100, "segments": 4,
              "particles": 200, "scale": 2},
        smoke={"graph": "cycle:32", "base_seed": 2026, "base_layer": 4, "segments": 2,
               "particles": 30, "scale": 2},
    ),
    "grow-random500": Workload(
        grow_round,
        grow_prepare,
        full={"graph": "random:500:3:seed=1", "base_seed": 0, "base_layer": 0, "segments": 1,
              "particles": 8000, "scale": 2},
        smoke={"graph": "random:40:3:seed=1", "base_seed": 0, "base_layer": 0, "segments": 1,
               "particles": 200, "scale": 2},
    ),
    "density-sweep": Workload(
        density_round,
        no_state,
        full={
            "graph": "random:500:3:seed=1",
            "targets": [10, 14],
            "overshoot": 7,
            "replicas": 40,
            "probes": 2000,
        },
        smoke={
            "graph": "random:40:3:seed=1",
            "targets": [4, 6],
            "overshoot": 3,
            "replicas": 12,
            "probes": 50,
        },
    ),
    "oracle-check": Workload(
        oracle_round,
        no_state,
        full={
            "states": [["cycle:16", 12], ["random:40:3:seed=2", 8]],
            "state_seed": 7,
            "truncate_above_front": 28,
            "truncation_tol": 1e-9,
            "probes": 5000,
        },
        smoke={
            "states": [["cycle:6", 3]],
            "state_seed": 7,
            "truncate_above_front": 8,
            "truncation_tol": 1e-6,
            "probes": 200,
        },
    ),
}
