"""The law gate: one proof for every change to a draw of the walker.

A fast-forward (the ceiling return, a box exit, the base kernel) must keep
each particle's sticking law exactly.  :func:`draw_gate` checks a changed
function's draws against their exact law; :func:`drop_gate` checks whole
drops against the first-hit oracle and an independent reference walk.
``python -m pytest -m lawgate`` runs every gate alone.
"""
import itertools
import math
import sys
from collections import Counter

import numpy as np

from cyldla.cylinder import CEILING_HEIGHT, sample_excursion_shape, sample_return_shape, uniform_below, walk_slots
from cyldla.dla import CapExceededError, ParticleOutcome, grow, is_boundary, new_cluster, probe_particle
from cyldla.graphs import parse_graph_spec
from cyldla.oracles import first_hit_distribution, total_variation
from cyldla.stats import chi_square_two_sample

# frozen states on which boxes fire: target layer and growth seed
BOX_STATES = {"cycle:64": (30, 1), "cycle:128": (40, 3)}
# frozen states with no boxes: front M and growth seed
CEILING_STATES = {"cycle:16": (12, 7), "random:40:3:seed=2": (8, 7), "complete:5": (6, 7)}

# the statistics a drop gate can compare, each a function of (cluster, outcome)
STATISTICS = {
    "kappa": lambda c, out: int(math.log2(out.kappa + 1)),  # the octave of the step count
    "depth": lambda c, out: c.M - out.min_layer_visited,
    "site": lambda c, out: (out.stick_g, out.H),
}


def box_state(spec):
    layer, seed = BOX_STATES[spec]
    c = new_cluster(parse_graph_spec(spec))
    grow(c, np.random.default_rng(seed), target_layer=layer)
    assert c.boxes
    return c


def ceiling_state(spec):
    m_layer, seed = CEILING_STATES[spec]
    c = new_cluster(parse_graph_spec(spec))
    grow(c, np.random.default_rng(seed), target_layer=m_layer - 1)
    assert c.M == m_layer and not c.boxes
    return c


def count_calls(monkeypatch, owner, name, key=None):
    """Wrap ``owner.name`` for the test; the returned Counter counts its calls,
    under ``key(*args, **kwargs)`` or else under the calling function's name."""
    calls = Counter()
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key(*args, **kwargs) if key else sys._getframe(1).f_code.co_name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def null_tv(law, trials):
    """Expected TV between ``trials`` exact draws from the probabilities ``law``
    and the law: per term sqrt(2p(1-p)/(pi N)), the normal limit, capped at 2p."""
    return 0.5 * sum(min(math.sqrt(2 * p * (1 - p) / (math.pi * trials)), 2 * p) for p in law)


def _tv_below(tv, law, trials, bound):
    limit = 3 * null_tv(law, trials) if bound is None else bound
    assert tv < limit, f"TV {tv:.4f}, limit {limit:.4f}"
    return tv, limit


def draw_gate(draws, law, *, p_min=None, bound=None):
    """Assert that ``draws``, values 0..len(law)-1, follow the exact pmf ``law``.

    With ``p_min``, a one-sample chi-square (every expected count at least 5)
    must give a p-value above it; otherwise the TV of the draws from the law
    must be below ``bound``, by default 3x :func:`null_tv`.
    """
    from scipy.special import chdtrc

    law = np.asarray(law, dtype=np.float64)
    counts = np.bincount(draws, minlength=law.size)
    assert counts.size == law.size, "a draw outside the law's support"
    trials = counts.sum()
    if p_min is None:
        _tv_below(0.5 * np.abs(counts / trials - law).sum(), law, trials, bound)
        return
    expected = trials * law
    assert expected.min() >= 5
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chdtrc(law.size - 1, chi2) > p_min, f"chi2 {chi2:.1f}"


def drop_gate(cluster, seed, trials, *, fired=None, bound=None, reference=None, stats=()):
    """Assert that ``trials`` probes of ``cluster`` from ``default_rng(seed)`` keep the sticking law.

    * ``fired=(calls, n)``: the walker called the changed function, counted
      by :func:`count_calls`, more than n times during the probes;
    * the TV of the probes' (stick_g, H) from :func:`first_hit_distribution`
      is below ``bound``, by default 3x :func:`null_tv`;
    * ``reference=(walk, ref_seed)``: as many walks ``walk(cluster, rng)``
      from ``default_rng(ref_seed)`` match the probes by a two-sample
      chi-square at p > 0.01 on each of the :data:`STATISTICS` in ``stats``.

    Returns the TV and its limit.
    """
    if fired:
        fired[0].clear()
    rng = np.random.default_rng(seed)
    probes = [probe_particle(cluster, rng) for _ in range(trials)]
    if fired:
        assert fired[0]["probe_particle"] > fired[1], f"the changed draw fired {dict(fired[0])}"
    if reference:
        walk, ref_seed = reference
        ref_rng = np.random.default_rng(ref_seed)
        ref = [walk(cluster, ref_rng) for _ in range(trials)]
        for name in stats:
            stat = STATISTICS[name]
            chi2 = chi_square_two_sample(
                Counter(stat(cluster, out) for out in ref), Counter(stat(cluster, out) for out in probes)
            )
            assert chi2.p_value > 0.01, (name, chi2)
    law = first_hit_distribution(cluster)
    sites = Counter((out.stick_g, out.H) for out in probes)
    return _tv_below(total_variation({s: k / trials for s, k in sites.items()}, law), law.values(), trials, bound)


def reference_walk(cluster, rng, cap=None):
    """The walker written out one slot at a time, the literal route.

    Sticking is read from :func:`is_boundary` and kappa is counted per step.
    Steps above M are literal; a walk that climbs ``CEILING_HEIGHT`` layers
    above M returns to M through one :func:`sample_return_shape` draw and
    one kernel draw.  After ``cap`` slots without sticking it raises
    :class:`CapExceededError` as the walker does.
    """
    nbrs = cluster.graph.neighbors
    m_layer = cluster.M
    g0 = uniform_below(rng, cluster.graph.n)
    g, z = g0, m_layer
    slots = itertools.chain.from_iterable(walk_slots(rng, cluster.slot_table))
    kappa = literal = 0
    min_layer = m_layer
    while not is_boundary(cluster, (g, z)):
        if literal == cap:
            raise CapExceededError("the reference walk reached its cap", literal, kappa, min_layer)
        s = next(slots)
        literal += 1
        kappa += 1
        if s >= 2:
            g = nbrs[g][s - 2]
            continue
        z += 1 if s == 0 else -1
        min_layer = min(min_layer, z)
        if z == m_layer + CEILING_HEIGHT:
            v, gamma = sample_return_shape(rng, CEILING_HEIGHT, cluster.vertical_prob)
            kappa += v + gamma
            g = cluster.kernel().sample(g, gamma, rng)
            z = m_layer
    return ParticleOutcome(g0, kappa, z, g, z == m_layer, min_layer, literal)


def immediate_return_walk(cluster, rng):
    """The v4 walker, the route the ceiling is checked against: every
    excursion above M is fast-forwarded at its first step, and its literal
    steps are the slots no excursion draw stood in for."""
    nbrs = cluster.graph.neighbors
    m_layer = cluster.M
    g0 = uniform_below(rng, cluster.graph.n)
    g, z = g0, m_layer
    slots = itertools.chain.from_iterable(walk_slots(rng, cluster.slot_table))
    kappa = literal = 0
    min_layer = m_layer
    while not is_boundary(cluster, (g, z)):
        s = next(slots)
        if s == 0 and z == m_layer:
            _, gamma, total = sample_excursion_shape(rng, cluster.vertical_prob)
            kappa += total
            g = cluster.kernel().sample(g, gamma, rng)
            continue
        literal += 1
        kappa += 1
        if s >= 2:
            g = nbrs[g][s - 2]
        else:
            z += 1 if s == 0 else -1
            min_layer = min(min_layer, z)
    return ParticleOutcome(g0, kappa, z, g, z == m_layer, min_layer, literal)
