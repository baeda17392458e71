"""In-memory spans around the public calls into each cyldla module.

The tracer replaces module attributes with timing wrappers for the length of
a ``with`` block and restores them afterwards; no program file is edited.
Each span records (name, start, end, parent span, item).  An item is one
drop, replica or probe, so the spans of one item share its identifier.

The per-step slot draw (``DrawSource.slot``) is deliberately not wrapped: it
runs once per literal step, and wrapping it more than doubled the wall time
of 600 drops on cycle:500 at M = 41 (0.81-0.84 s untraced, 0.83-0.96 s with
these spans, 1.75-1.80 s with slot spans too).  Literal steps are instead
counted exactly from the wrapped excursion draws as sum(kappa) - sum(total - 1).
"""
from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

from cyldla import cylinder, dla, experiment, graphs, oracles, render, spectral, walk1d


class Tracer:
    """Spans kept in flat arrays, plus exact counters taken at the same calls."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.items = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.item = -1
        self.counters: Counter = Counter()
        self.depths: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None):
        """Wrapper that records one span per call, then runs ``on_call(args, result)``."""
        nid = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.items.append(self.item)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds."""
        if not self.starts:
            return {}
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        nids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = ends - starts
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(nids, minlength=k)
        total = np.bincount(nids, weights=dur, minlength=k)
        own = np.bincount(nids, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            item=np.frombuffer(self.items, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def traced_calls(tracer: Tracer):
    """Replacement list that wraps the public calls into each module.

    Functions are wrapped at every name their callers look them up by: a
    function imported with ``from x import f`` is patched in the importing
    module too.
    """
    c = tracer.counters
    direct_limit = cylinder._DIRECT_HOP_LIMIT

    def on_probe(args, out):
        c["kappa_sum"] += out.kappa
        tracer.depths.append(args[0].M - out.min_layer_visited)

    def on_excursion(args, shape):
        c["excursions"] += 1
        c["excursion_steps_minus_one"] += shape[2] - 1

    def on_sample(args, result):
        gamma = args[2]  # (self, g_start, gamma, rng)
        if gamma > direct_limit:
            c["kernel_long"] += 1
        elif gamma > 0:
            c["kernel_direct"] += 1

    parse = tracer.wrap("graphs.parse_graph_spec", graphs.parse_graph_spec)
    eigen_profile = tracer.wrap("spectral.eigen_profile", spectral.eigen_profile)
    excursion = tracer.wrap("dla.sample_excursion_shape", dla.sample_excursion_shape, on_excursion)
    gts = cylinder.GTransitionSampler
    return [
        (graphs, "parse_graph_spec", parse),
        (experiment, "parse_graph_spec", parse),
        (spectral, "eigen_profile", eigen_profile),
        (experiment, "eigen_profile", eigen_profile),
        (gts, "__init__", tracer.wrap("cylinder.GTransitionSampler.__init__", gts.__init__)),
        (gts, "sample", tracer.wrap("cylinder.GTransitionSampler.sample", gts.sample, on_sample)),
        (gts, "_sample_eigen", tracer.wrap("cylinder.GTransitionSampler._sample_eigen", gts._sample_eigen)),
        (dla, "sample_excursion_shape", excursion),
        (cylinder, "sample_negative_binomial",
         tracer.wrap("cylinder.sample_negative_binomial", cylinder.sample_negative_binomial)),
        (cylinder, "sample_first_passage_moves",
         tracer.wrap("walk1d.sample_first_passage_moves", walk1d.sample_first_passage_moves)),
        (dla, "drop_particle", tracer.wrap("dla.drop_particle", dla.drop_particle)),
        (dla, "probe_particle", tracer.wrap("dla.probe_particle", dla.probe_particle, on_probe)),
        (experiment, "run_replicas", tracer.wrap("experiment.run_replicas", experiment.run_replicas)),
        (experiment, "estimate_new_layer_probability",
         tracer.wrap("experiment.estimate_new_layer_probability",
                     experiment.estimate_new_layer_probability)),
        (experiment, "_write_csv", tracer.wrap("experiment.write_csv", experiment._write_csv)),
        (oracles, "first_hit_distribution",
         tracer.wrap("oracles.first_hit_distribution", oracles.first_hit_distribution)),
        (dla, "save_snapshot", tracer.wrap("dla.save_snapshot", dla.save_snapshot)),
        (dla, "load_snapshot", tracer.wrap("dla.load_snapshot", dla.load_snapshot)),
        (dla, "cluster_from_snapshot", tracer.wrap("dla.cluster_from_snapshot", dla.cluster_from_snapshot)),
        (render, "render_snapshot", tracer.wrap("render.render_snapshot", render.render_snapshot)),
    ]


def layer_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-layer values from one traced round, keyed by BENCHMARK.json names."""
    s = tracer.summary()
    c = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return s.get(name, empty)

    def mean_us(name):
        sp = span(name)
        return sp["total_s"] / sp["calls"] * 1e6 if sp["calls"] else 0.0

    literal = c["kappa_sum"] - c["excursion_steps_minus_one"]
    walk_self = span("dla.probe_particle")["self_s"]
    eigen_calls = span("cylinder.GTransitionSampler._sample_eigen")["calls"]
    kernel_init = span("cylinder.GTransitionSampler.__init__")
    profile = span("spectral.eigen_profile")
    solve = span("oracles.first_hit_distribution")
    return {
        "dla.literal_steps": literal,
        "dla.literal_steps_per_item": literal / items if items else 0.0,
        "dla.literal_step_ns": walk_self / literal * 1e9 if literal else 0.0,
        "dla.walk_self_s": walk_self,
        "dla.depth_below_front_mean": float(np.mean(tracer.depths)) if tracer.depths else 0.0,
        "cylinder.excursion_calls": c["excursions"],
        "cylinder.excursion_us": mean_us("dla.sample_excursion_shape"),
        "cylinder.negbin_us": mean_us("cylinder.sample_negative_binomial"),
        "walk1d.first_passage_us": mean_us("walk1d.sample_first_passage_moves"),
        "cylinder.kernel_sample_calls": span("cylinder.GTransitionSampler.sample")["calls"],
        "cylinder.kernel_sample_us": mean_us("cylinder.GTransitionSampler.sample"),
        "cylinder.kernel_direct_calls": c["kernel_direct"],
        "cylinder.kernel_uniform_calls": c["kernel_long"] - eigen_calls,
        "cylinder.kernel_eigen_calls": eigen_calls,
        "cylinder.kernel_eigen_us": mean_us("cylinder.GTransitionSampler._sample_eigen"),
        "cylinder.kernel_init_calls": kernel_init["calls"],
        "cylinder.kernel_init_ms": kernel_init["total_s"] * 1e3,
        "spectral.eigen_profile_calls": profile["calls"],
        "spectral.eigen_profile_ms": profile["total_s"] * 1e3,
        "graphs.parse_ms": span("graphs.parse_graph_spec")["total_s"] * 1e3,
        "experiment.csv_write_ms": span("experiment.write_csv")["total_s"] * 1e3,
        "experiment.probe_s": span("experiment.estimate_new_layer_probability")["total_s"],
        "oracles.solve_s": solve["total_s"] / solve["calls"] if solve["calls"] else 0.0,
        "dla.snapshot_save_ms": span("dla.save_snapshot")["total_s"] * 1e3,
        "dla.snapshot_load_ms": span("dla.load_snapshot")["total_s"] * 1e3,
        "dla.replay_ms": span("dla.cluster_from_snapshot")["total_s"] * 1e3,
        "render.render_ms": span("render.render_snapshot")["total_s"] * 1e3,
        # measured by the workloads that exercise these layers, zero elsewhere
        "dla.final_M": 0,
        "experiment.replica_s_p50": 0.0,
        "oracles.transient_states": 0,
        "oracles.tv": 0.0,
        "oracles.truncation_tv": 0.0,
        "render.bytes": 0,
    }
