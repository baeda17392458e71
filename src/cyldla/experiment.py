"""Monte-Carlo sweeps: growth times, densities, probe probabilities, bounds.

Replicas of the growth process run on disjoint random streams derived from a
base seed by spawn keys, so merged results are reproducible and independent
of execution order.  Execution here is sequential; replicas share no state
and may be farmed out externally without changing any output.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import dla
from .dla import Cluster
from .graphs import RegularGraph, parse_graph_spec
from .spectral import eigen_profile
from .stats import BOUND_SIGMAS, BoundCheck, EstimateSummary, make_bound_check

CSV_MAGIC = "cyldla v6"


def replica_rng(base_seed: int, index: int) -> np.random.Generator:
    """Stream for one replica: PCG64 seeded by (base_seed, spawn_key=(index,))."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(index,)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one ``simulate`` or ``density`` sweep.

    ``density_overshoot`` is the number of layers grown past the largest
    target before densities are read.  Passed as None, it is resolved at
    construction to ceil(sqrt(max m)) + 10, so the field always holds the
    overshoot that is grown and hashed.  Only :func:`estimate_density` grows
    it, and it warns when the overshoot exceeds half the largest target.
    """

    graph_spec: str
    target_layers: tuple[int, ...]
    replicas: int = 30
    base_seed: int = 0
    step_cap: int = dla.DEFAULT_STEP_CAP
    density_overshoot: int | None = None
    probe_trials: int = 0
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.target_layers:
            raise ValueError("need at least one target layer")
        if any(m < 1 for m in self.target_layers):
            raise ValueError("target layers must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.probe_trials < 0:
            raise ValueError("probe trials must be >= 0")
        if self.density_overshoot is None:
            object.__setattr__(self, "density_overshoot", math.ceil(math.sqrt(max(self.target_layers))) + 10)
        if self.density_overshoot < 1:
            raise ValueError("density overshoot must be >= 1")

    def resolved(self) -> dict:
        """The hashed record: every field but where outputs go."""
        return {k: v for k, v in asdict(self).items() if k != "output_dir"}

    def config_hash(self) -> str:
        payload = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def run_replicas(
    graph: RegularGraph, grow_to_layer: int, replicas: int, base_seed: int, cap: int
) -> list[Cluster]:
    """Independent clusters in replica order, each grown to ``grow_to_layer``."""
    clusters = []
    for r in range(replicas):
        cluster = dla.new_cluster(graph)
        dla.grow(cluster, replica_rng(base_seed, r), target_layer=grow_to_layer, cap=cap)
        clusters.append(cluster)
    return clusters


def growth_bound_checks(
    graph: RegularGraph, m: int, summary: EstimateSummary
) -> list[BoundCheck]:
    """The T_m bound checks for one E[T_m] estimate."""
    n = graph.n
    checks = [
        make_bound_check(
            f"T_{m}-upper-4mn-over-loglog-n",
            4.0 * m * n / math.log(math.log(n)) if n > math.e else math.inf,
            "<=",
            summary,
            applicability=(
                "holds for fast-mixing bases beyond an uncalibrated size threshold; "
                "reported for all n"
            ),
        ),
        make_bound_check(f"T_{m}-trivial-lower", float(m), ">=", summary),
    ]
    if graph.transitive_hint:
        checks.append(
            make_bound_check(
                f"T_{m}-transitive-upper",
                m * (graph.d + 2) * n / (2.0 * graph.d + 2.0),
                "<=",
                summary,
            )
        )
    return checks


@dataclass(frozen=True)
class GrowthEstimate:
    m: int
    summary: EstimateSummary
    samples: np.ndarray
    bound_checks: tuple[BoundCheck, ...]


@dataclass(frozen=True)
class GrowthResult:
    graph: RegularGraph
    per_layer: tuple[GrowthEstimate, ...]
    pathwise_monotone: bool


def estimate_T(
    graph: RegularGraph, target_layers, replicas: int, base_seed: int, cap: int
) -> GrowthResult:
    """Estimate E[T_m] for every target layer with its bound checks.

    Every replica grows once to the largest target, so a replica's stream
    does not depend on which smaller layers are read.  The bound checks need
    a standard error, so at least two replicas are required.
    """
    targets = sorted(target_layers)
    if not targets or targets[0] < 1:
        raise ValueError("need target layers >= 1")
    if replicas < 2:
        raise ValueError(f"replicas must be >= 2 for a standard error, got {replicas}")
    max_m = targets[-1]
    clusters = run_replicas(graph, max_m, replicas, base_seed, cap)
    monotone = all(
        _strictly_increasing([c.first_reach[m] for m in range(1, max_m + 1)]) for c in clusters
    )
    estimates = []
    for m in targets:
        samples = np.array([c.first_reach[m] for c in clusters], dtype=np.int64)
        summary = EstimateSummary.from_samples(samples)
        estimates.append(
            GrowthEstimate(m, summary, samples, tuple(growth_bound_checks(graph, m, summary)))
        )
    return GrowthResult(graph, tuple(estimates), monotone)


def _strictly_increasing(xs) -> bool:
    return all(b > a for a, b in zip(xs, xs[1:]))


@dataclass(frozen=True)
class ConsistencyCheck:
    """Two estimates expected to agree within a combined margin."""

    name: str
    left: float
    right: float
    combined_sigma: float
    ok: bool


@dataclass(frozen=True)
class DensityEstimate:
    m: int
    phi: int
    summary: EstimateSummary
    samples: np.ndarray
    bound_checks: tuple[BoundCheck, ...]
    consistency: ConsistencyCheck
    first_touch_consistency: ConsistencyCheck
    leak_note: str


@dataclass(frozen=True)
class DensityResult:
    config: ExperimentConfig
    grow_to_layer: int
    per_layer: tuple[DensityEstimate, ...]
    clusters: tuple[Cluster, ...]  # in replica order


def estimate_density(config: ExperimentConfig) -> DensityResult:
    """Estimate D(m) after growing past m, with bounds and consistency checks.

    Every replica grows once to max(target) + overshoot; D(m) is then read
    from the final occupancy, so each target enjoys at least the configured
    overshoot.  Two density-vs-growth consistency checks accompany each
    estimate, both with index-matched normalization (the ratios converge to
    the same limit): D(m) against T_{m'}/(m' n) over the grown range, and
    D(m) against T_m/(m n) at first touch.  The per-particle leak bound
    past the overshoot is reported, never inverted.
    """
    graph = parse_graph_spec(config.graph_spec)
    phi = config.density_overshoot
    if phi / max(config.target_layers) > 0.5:
        warnings.warn(
            f"overshoot {phi} exceeds half the largest target layer; "
            "density reads will be dominated by the growth frontier",
            stacklevel=2,
        )
    m_prime = max(config.target_layers) + phi
    clusters = run_replicas(graph, m_prime, config.replicas, config.base_seed, config.step_cap)
    gap = eigen_profile(graph).gap
    n = graph.n
    per_layer = []
    for m in sorted(config.target_layers):
        phi = m_prime - m
        d_samples = np.array([dla.density_upto(c, m) for c in clusters])
        t_prime_samples = np.array(
            [c.first_reach[m_prime] / (m_prime * n) for c in clusters], dtype=np.float64
        )
        t_touch_samples = np.array(
            [c.first_reach[m] / (m * n) for c in clusters], dtype=np.float64
        )
        summary = EstimateSummary.from_samples(d_samples)
        t_scaled = EstimateSummary.from_samples(t_prime_samples)
        t_touch = EstimateSummary.from_samples(t_touch_samples)
        checks = []
        if graph.transitive_hint:
            checks.append(
                make_bound_check(
                    f"D_{m}-transitive-upper",
                    (graph.d + 2) / (2.0 * graph.d + 2.0),
                    "<=",
                    summary,
                )
            )
        consistency = _consistency_check(
            f"D_{m}-vs-T_{m_prime}/({m_prime}n)", summary, t_scaled
        )
        first_touch = _consistency_check(f"D_{m}-vs-T_{m}/({m}n)", summary, t_touch)
        per_particle_leak = 3.0 * math.exp(-gap * phi / (8.0 * n))
        leak_note = (
            f"per-particle probability of sticking at or below layer {m} after the "
            f"cluster passed layer {m_prime} is < {per_particle_leak:.6g} "
            f"(spectral gap {gap:.6g}, overshoot {phi}); crude whole-process bound "
            f"multiplies by (n+1)*(d+2)^(n-1)*n^n and is vacuous at this scale"
        )
        per_layer.append(
            DensityEstimate(
                m,
                phi,
                summary,
                d_samples,
                tuple(checks),
                consistency,
                first_touch,
                leak_note,
            )
        )
    return DensityResult(config, m_prime, tuple(per_layer), tuple(clusters))


def _consistency_check(
    name: str, left: EstimateSummary, right: EstimateSummary
) -> ConsistencyCheck:
    combined = math.sqrt(left.std_error**2 + right.std_error**2)
    ok = abs(left.mean - right.mean) <= BOUND_SIGMAS * combined
    return ConsistencyCheck(name, left.mean, right.mean, combined, ok)


@dataclass(frozen=True)
class NewLayerResult:
    summary: EstimateSummary
    bound_check: BoundCheck | None
    outcomes: tuple[dla.ParticleOutcome, ...]  # one record per probe, in trial order


def estimate_new_layer_probability(
    cluster: Cluster, trials: int, seed, cap: int = dla.DEFAULT_STEP_CAP
) -> NewLayerResult:
    """Probe frequency of sticking at the lowest empty layer of ``cluster``.

    The state is restored for every trial (probes never commit).  For
    vertex-transitive bases (read from ``cluster.graph``) the frequency is
    checked against the lower bound (2d+2)/((d+2)n).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    graph = cluster.graph
    outcomes = tuple(dla.probe_particle(cluster, rng, cap) for _ in range(trials))
    summary = EstimateSummary.from_bernoulli(sum(out.new_layer for out in outcomes), trials)
    check = None
    if graph.transitive_hint:
        check = make_bound_check(
            "new-layer-probability-lower",
            (2.0 * graph.d + 2.0) / ((graph.d + 2.0) * graph.n),
            ">=",
            summary,
        )
    return NewLayerResult(summary, check, outcomes)


@dataclass(frozen=True)
class StickAboveResult:
    summary: EstimateSummary
    bound_check: BoundCheck
    layer: int
    count: int


def stick_above_frequency(
    graph: RegularGraph, layer: int, count: int, trials: int, seed
) -> StickAboveResult:
    """Frequency of probes sticking above a layer holding ``count`` vertices.

    A synthetic cluster with load ``count`` on layers 1..layer is probed by
    :func:`estimate_new_layer_probability`; the frequency of sticking at
    layer+1 or higher is checked against the lower bound count / n.
    """
    probe = estimate_new_layer_probability(dla.synthetic_cluster(graph, layer, count), trials, seed)
    summary = EstimateSummary.from_bernoulli(sum(out.H > layer for out in probe.outcomes), trials)
    check = make_bound_check(f"stick-above-layer-{layer}-load-{count}", count / graph.n, ">=", summary)
    return StickAboveResult(summary, check, layer, count)


@dataclass(frozen=True)
class GammaFit:
    gamma: float
    intercept: float
    residual_norm: float
    ns: tuple[int, ...]
    t_over_m: tuple[float, ...]


def fit_gamma(ns, t_over_m) -> GammaFit:
    """Least-squares exponent of E[T_m]/m against the base size."""
    ns = list(ns)
    ys = [float(v) for v in t_over_m]
    finite = [(n, y) for n, y in zip(ns, ys) if math.isfinite(y) and y > 0]
    if len({n for n, _ in finite}) < 3:
        raise ValueError("an exponent fit needs finite positive points at 3 or more distinct sizes")
    x = np.log([n for n, _ in finite])
    y = np.log([y for _, y in finite])
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    res = float(np.sqrt(residuals[0])) if residuals.size else 0.0
    return GammaFit(
        float(coeffs[0]),
        float(coeffs[1]),
        res,
        tuple(n for n, _ in finite),
        tuple(y for _, y in finite),
    )


@dataclass(frozen=True)
class GrowthFamily:
    bases: tuple[GrowthResult, ...]  # in family order, layers 1..m
    gamma_fit: GammaFit


def fit_growth_exponent(
    family_specs,
    m: int,
    replicas: int,
    base_seed: int,
    cap: int = dla.DEFAULT_STEP_CAP,
) -> GrowthFamily:
    """Estimate T_1..T_m with bound checks per base and fit E[T_m] ~ m * n^gamma.

    Base i runs its replicas from ``base_seed + i``.  The fit is exploratory:
    it is reported with its residual norm and no pass/fail verdict.  The
    family must hold at least 3 distinct base sizes, checked before any drop.
    """
    graphs = [parse_graph_spec(spec) for spec in family_specs]
    if len({g.n for g in graphs}) < 3:
        raise ValueError("need family members of at least 3 distinct base sizes")
    bases = tuple(
        estimate_T(g, range(1, m + 1), replicas, base_seed + i, cap)
        for i, g in enumerate(graphs)
    )
    fit = fit_gamma(
        [b.graph.n for b in bases], [b.per_layer[-1].summary.mean / m for b in bases]
    )
    return GrowthFamily(bases, fit)


# --- CSV output -----------------------------------------------------------------


def csv_lines(config_hash: str, header: str, rows) -> list[str]:
    """One output CSV: the version and config-hash comment, the header, the rows."""
    lines = [f"# {CSV_MAGIC} config_hash={config_hash}", header]
    lines += [",".join(str(x) for x in row) for row in rows]
    return lines


def _write_csv(path: str, config_hash: str, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(csv_lines(config_hash, header, rows)) + "\n")


def growth_csv_rows(clusters, target_layers) -> list[tuple]:
    """Schema-A rows (replica, m, T_m) from clusters in replica order."""
    targets = sorted(target_layers)
    return [(r, m, c.first_reach[m]) for r, c in enumerate(clusters) for m in targets]


def density_csv_rows(result: DensityResult) -> list[tuple]:
    """Schema-B rows (replica, m, phi, D_m) from a density run."""
    targets = sorted(result.config.target_layers)
    by_m = {est.m: est for est in result.per_layer}
    return [
        (r, m, by_m[m].phi, repr(float(by_m[m].samples[r])))
        for r in range(len(result.clusters))
        for m in targets
    ]


@dataclass(frozen=True)
class SweepOutputs:
    growth_csv: str
    density_csv: str
    probes_csv: str | None


def run_sweep(config: ExperimentConfig) -> SweepOutputs:
    """Run the configured sweep and write its CSV files.

    growth.csv holds per-replica first-reach times (replica, m, T_m);
    density.csv holds per-replica density reads (replica, m, phi, D_m);
    probes.csv (only when probe_trials > 0) holds independent probe outcomes
    on the grown state of replica 0 (trial, kappa, H, new_layer, min_layer).
    Outputs are byte-stable for a fixed config; partially written files are
    removed on failure.
    """
    if config.output_dir is None:
        raise ValueError("config needs an output_dir")
    os.makedirs(config.output_dir, exist_ok=True)
    chash = config.config_hash()
    result = estimate_density(config)
    growth_path = os.path.join(config.output_dir, "growth.csv")
    density_path = os.path.join(config.output_dir, "density.csv")
    probes_path = os.path.join(config.output_dir, "probes.csv")
    files = [
        (growth_path, "replica,m,T_m", growth_csv_rows(result.clusters, config.target_layers)),
        (density_path, "replica,m,phi,D_m", density_csv_rows(result)),
    ]
    if config.probe_trials > 0:
        probe = estimate_new_layer_probability(
            result.clusters[0],
            config.probe_trials,
            replica_rng(config.base_seed, config.replicas),
            cap=config.step_cap,
        )
        outs = enumerate(probe.outcomes)
        probe_rows = [(i, o.kappa, o.H, int(o.new_layer), o.min_layer_visited) for i, o in outs]
        files.append((probes_path, "trial,kappa,H,new_layer,min_layer", probe_rows))
    written = []
    try:
        for path, header, rows in files:
            written.append(path)  # before the file is opened, so a failed write is removed too
            _write_csv(path, chash, header, rows)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return SweepOutputs(growth_path, density_path, probes_path if config.probe_trials > 0 else None)
