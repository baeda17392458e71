import copy
import functools
import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyldla import dla
from cyldla.cylinder import (
    BOX_RADIUS,
    GTransitionSampler,
    slot_cutter,
    slot_table,
    uniform_below,
)
from cyldla.dla import (
    CapExceededError,
    cluster_from_snapshot,
    collect_height_tuples,
    density_upto,
    detect_walls,
    drop_particle,
    entry_layer_visit_set,
    grow,
    is_boundary,
    load_at_least,
    load_snapshot,
    load_upto,
    loop_equivalence_check,
    new_cluster,
    probe_particle,
    save_snapshot,
    synthetic_cluster,
    wall_blocking_violations,
)
from cyldla.experiment import stick_above_frequency
from cyldla.graphs import (
    add_self_loops,
    make_complete,
    make_cycle,
    make_hypercube,
    make_torus,
    parse_graph_spec,
)
from cyldla.oracles import first_hit_distribution, total_variation
from lawgate import (
    BOX_STATES,
    CEILING_STATES,
    box_state,
    ceiling_state,
    count_calls,
    drop_gate,
    immediate_return_walk,
    reference_walk,
)


def test_new_cluster_state():
    g = make_cycle(4)
    c = new_cluster(g)
    assert c.loads[0] == 4 and c.M == 1 and c.t == 0
    assert sum(c.loads) == g.n
    assert density_upto(c, 1) == 0.0 and density_upto(c, 7) == 0.0


def test_is_boundary_fresh():
    c = new_cluster(make_cycle(4))
    assert all(is_boundary(c, (v, 1)) for v in range(4))
    assert not any(is_boundary(c, (v, 2)) for v in range(4))
    assert not is_boundary(c, (0, 0))  # occupied


def test_first_particle_always_layer_one():
    for g in (make_cycle(8), make_complete(5), make_torus(3, 2), make_hypercube(3)):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = new_cluster(g)
            out = drop_particle(c, rng)
            assert out.kappa == 0 and out.H == 1 and out.new_layer
            assert c.first_reach[1] == 1


def test_second_particle_above_first_sticks_immediately():
    g = make_cycle(4)
    rng = np.random.default_rng(1)
    c = new_cluster(g)
    first = drop_particle(c, rng)
    same_column = 0
    for _ in range(500):
        out = probe_particle(c, rng)
        if out.start_g == first.stick_g:
            same_column += 1
            assert out.kappa == 0 and out.H == 2 and out.new_layer
    assert same_column > 0


def test_new_layer_iff_sticks_at_previous_m():
    g = make_cycle(5)
    rng = np.random.default_rng(2)
    c = new_cluster(g)
    for _ in range(300):
        m_before = c.M
        out = drop_particle(c, rng)
        assert out.new_layer == (out.H == m_before)
        assert 1 <= out.H <= m_before


def test_grow_budget_and_conservation():
    g = make_cycle(6)
    c = new_cluster(g)
    stats = grow(c, np.random.default_rng(3), particles=120)
    assert c.t == 120 and sum(stats.kappa_histogram.values()) == 120
    assert sum(c.loads) == g.n + 120
    assert load_at_least(c, 1) == 120
    for i in range(1, c.M):
        assert c.loads[i] >= 1
    assert all(x == 0 for x in c.loads[c.M :])
    assert c.loads[0] == g.n


def test_stick_log_on_a_random_base_holds_python_ints():
    c = new_cluster(parse_graph_spec("random:40:3:seed=2"))
    grow(c, np.random.default_rng(2), particles=200)
    assert all(type(x) is int for entry in c.stick_log for x in entry)


def test_grow_until_first_layer_is_single_particle():
    c = new_cluster(make_cycle(4))
    grow(c, np.random.default_rng(4), target_layer=1)
    assert c.t == 1


def test_loads_and_density_accessors():
    g = make_cycle(4)
    c = new_cluster(g)
    assert load_at_least(c, 1) == 0
    grow(c, np.random.default_rng(5), particles=40)
    assert load_upto(c, 3) == sum(c.loads[1:4])
    m = c.M
    assert load_at_least(c, 2) == sum(c.loads[2:m])
    for i in range(1, m + 2):
        assert load_upto(c, i) <= c.t
    single = new_cluster(g)
    drop_particle(single, np.random.default_rng(6))
    assert density_upto(single, 1) == pytest.approx(1 / g.n)


def test_density_of_full_prefix_is_one():
    g = make_complete(3)
    c = synthetic_cluster(g, layer=4, count=3)
    assert density_upto(c, 4) == 1.0
    assert detect_walls(c) == [1, 2, 3, 4]


def test_detect_walls_fresh_empty():
    assert detect_walls(new_cluster(make_cycle(5))) == []


def test_wall_blocking_holds_under_growth():
    c = new_cluster(make_complete(3))
    grow(c, np.random.default_rng(7), particles=400)
    assert detect_walls(c)  # narrow base clogs repeatedly
    assert wall_blocking_violations(c) == []


def _wall_violations_reference(cluster):
    # the definition, one pass per wall
    return [
        (t, layer, wall_layer)
        for wall_layer, wall_t in cluster.wall_times
        for t, _, layer in cluster.stick_log
        if t > wall_t and layer < wall_layer
    ]


def test_wall_blocking_single_pass_matches_definition():
    c = new_cluster(make_complete(3))
    rng = np.random.default_rng(1)
    grow(c, rng, particles=400)
    assert len(c.wall_times) == 0  # rare: 1 of 2,200 seeds tried grows no wall by 400 drops
    grow(c, rng, particles=400)
    assert len(c.wall_times) == 8
    assert wall_blocking_violations(c) == _wall_violations_reference(c) == []
    lowest, low_t = c.wall_times[0]
    highest = max(w for w, _ in c.wall_times)
    t = c.t
    for g, layer in [(0, lowest - 1), (1, highest - 1), (2, 1), (0, c.M - 1)]:
        t += 1
        c.stick_log.append((t, g, layer))
    c.stick_log.append((low_t, 2, 0))  # the wall's own time does not count
    found = wall_blocking_violations(c)
    assert found and found == _wall_violations_reference(c)


def test_drop_outcome_depends_only_on_cluster_and_generator_state():
    c = new_cluster(make_cycle(8))
    grow(c, np.random.default_rng(40), particles=40)
    rng = np.random.default_rng(41)
    states, outcomes = [], []
    for _ in range(20):
        states.append(copy.deepcopy(rng))
        outcomes.append(probe_particle(c, rng))
    assert [probe_particle(c, state) for state in states] == outcomes


def test_stick_log_determinism():
    g = make_cycle(6)
    a = new_cluster(g)
    grow(a, np.random.default_rng(11), particles=150)
    b = new_cluster(g)
    grow(b, np.random.default_rng(11), particles=150)
    assert a.stick_log == b.stick_log
    assert a.first_reach == b.first_reach


def test_probe_does_not_mutate():
    g = make_cycle(5)
    c = new_cluster(g)
    grow(c, np.random.default_rng(12), particles=30)
    before = ([bytes(row) for row in c.occ], [bytes(row) for row in c.near], list(c.loads), c.M, c.t)
    rng = np.random.default_rng(13)
    for _ in range(200):
        probe_particle(c, rng)
    after = ([bytes(row) for row in c.occ], [bytes(row) for row in c.near], list(c.loads), c.M, c.t)
    assert before == after


def _box_fits(cluster, g, z):
    """No occupied vertex within L-infinity distance R, by a scan of the box."""
    n, r = cluster.graph.n, BOX_RADIUS
    rows = cluster.occ[max(0, z - r) : z + r + 1]
    return not any(row[(g + k) % n] for row in rows for k in range(-r, r + 1))


def _assert_near_matches_definition(cluster):
    assert len(cluster.near) == len(cluster.occ) == cluster.M + 2
    for z in range(cluster.M + 2):
        for g in range(cluster.graph.n):
            if cluster.boxes and _box_fits(cluster, g, z):
                expected = dla.BOX
            else:
                expected = bool(cluster.occ[z][g] or is_boundary(cluster, (g, z)))
            assert cluster.near[z][g] == expected, (g, z)


@pytest.mark.parametrize(
    "graph, particles",
    [
        (make_cycle(16), 150),
        (make_torus(4, 3), 200),
        (parse_graph_spec("random:40:3:seed=2"), 200),
        (make_complete(5), 150),
        (add_self_loops(make_cycle(6)), 80),
        (make_cycle(64), 400),
    ],
)
def test_sticking_map_matches_definition_under_growth(graph, particles):
    c = new_cluster(graph)
    _assert_near_matches_definition(c)
    rng = np.random.default_rng(31)
    for _ in range(4):
        grow(c, rng, particles=particles // 4)
        _assert_near_matches_definition(c)


def test_sticking_map_matches_definition_on_every_constructor(tmp_path):
    control = dla.Cluster(make_complete(4), vertical_loops=1)
    grow(control, np.random.default_rng(32), particles=60)
    _assert_near_matches_definition(control)
    _assert_near_matches_definition(synthetic_cluster(make_torus(3, 2), layer=3, count=5))
    g = make_cycle(16)
    c = new_cluster(g)
    grow(c, np.random.default_rng(33), particles=100)
    save_snapshot(c, tmp_path / "c.snap")
    replayed = cluster_from_snapshot(load_snapshot(tmp_path / "c.snap"), g)
    assert replayed.near == c.near
    _assert_near_matches_definition(replayed)
    twin = copy.deepcopy(c)
    grow(twin, np.random.default_rng(34), particles=100)
    _assert_near_matches_definition(twin)
    assert c.near == replayed.near  # the copy shares no rows with the original
    wide = make_cycle(64)
    c = new_cluster(wide)
    grow(c, np.random.default_rng(33), particles=400)
    save_snapshot(c, tmp_path / "wide.snap")
    replayed = cluster_from_snapshot(load_snapshot(tmp_path / "wide.snap"), wide)
    assert replayed.near == c.near and any(dla.BOX in row for row in c.near)
    _assert_near_matches_definition(replayed)


@settings(max_examples=300)
@given(st.data())
def test_box_marks_match_a_window_scan(data):
    """``_box_marks`` against a scan of each L-infinity window, round the cycle.

    Boxes fit on cycles of at least 2R + 2 vertices; the windows of the
    first and last R columns wrap round, and sparse occupancy leaves both
    free and blocked windows there.
    """
    r = BOX_RADIUS
    n = data.draw(st.integers(2 * r + 2, 3 * r + 10), label="n")
    layers = data.draw(st.integers(1, 4), label="layers")
    cells = data.draw(st.sets(st.tuples(st.integers(0, layers - 1), st.integers(0, n - 1)), max_size=5))
    taken = np.zeros((layers, n), dtype=bool)
    for z, g in cells:
        taken[z, g] = True
    scan = [
        [0 if any(taken[z, (g + k) % n] for k in range(-r, r + 1)) else dla.BOX for g in range(n)]
        for z in range(layers)
    ]
    assert dla._box_marks(taken).tolist() == scan
    assert dla._box_marks(taken[0]).tolist() == scan[0]  # one row alone takes the same window


def test_boxes_fit_only_on_wide_cycles_with_the_fair_walk():
    r = BOX_RADIUS
    assert not new_cluster(make_cycle(2 * r + 1)).boxes
    assert new_cluster(make_cycle(2 * r + 2)).boxes
    assert new_cluster(parse_graph_spec(f"torus:{2 * r + 2}")).boxes  # a one-side torus is a cycle
    for graph in (make_torus(2 * r + 2, 2), add_self_loops(make_cycle(2 * r + 2)), make_complete(30)):
        assert not new_cluster(graph).boxes
    assert not dla.Cluster(make_cycle(2 * r + 2), vertical_loops=1).boxes  # the table is not fair
    # every layer below M holds a stick, so a box spanning the whole cycle never fits
    narrow = new_cluster(make_cycle(2 * r + 1))
    grow(narrow, np.random.default_rng(36), target_layer=3 * r)
    assert not any(dla.BOX in row for row in narrow.near)


@pytest.mark.lawgate
def test_first_hit_distribution_matches_oracle():
    c = new_cluster(make_complete(3))
    drop_particle(c, np.random.default_rng(14))
    drop_gate(c, 15, 20_000, bound=0.02)


@pytest.mark.lawgate
def test_first_hit_oracle_on_grown_cluster():
    # the oracle also pins down the simulator on a bigger, irregular state
    c = new_cluster(make_cycle(4))
    grow(c, np.random.default_rng(16), particles=12)
    drop_gate(c, 17, 20_000, bound=0.02)


def test_synthetic_cluster_shape():
    g = make_complete(4)
    c = synthetic_cluster(g, layer=2, count=2)
    assert c.M == 3 and c.t == 4
    assert c.loads[1] == 2 and c.loads[2] == 2
    with pytest.raises(ValueError):
        synthetic_cluster(g, layer=1, count=5)


def _synthetic_reference(graph, layer, count):
    # layer-by-layer bookkeeping, written out without _commit
    c = new_cluster(graph)
    for z in range(1, layer + 1):
        for g in range(count):
            c.t += 1
            while len(c.occ) < z + 3:
                c.occ.append(bytearray(graph.n))
                c.loads.append(0)
            c.occ[z][g] = 1
            c.loads[z] += 1
            c.stick_log.append((c.t, g, z))
            if c.loads[z] == graph.n:
                c.wall_times.append((z, c.t))
        c.first_reach[z] = (z - 1) * count + 1
    c.M = layer + 1
    c._ensure_capacity()
    return c


@pytest.mark.parametrize(
    "spec,layer,count", [("cycle:4", 2, 2), ("complete:4", 3, 4), ("torus:3x3", 4, 9)]
)
def test_synthetic_cluster_matches_direct_bookkeeping(spec, layer, count):
    g = parse_graph_spec(spec)
    got, want = synthetic_cluster(g, layer, count), _synthetic_reference(g, layer, count)
    for attr in ("occ", "loads", "M", "t", "stick_log", "wall_times", "first_reach"):
        assert getattr(got, attr) == getattr(want, attr), attr


def test_stick_above_wall_case():
    g = make_complete(4)
    res = stick_above_frequency(g, layer=2, count=4, trials=300, seed=18)
    assert res.summary.mean == 1.0


def test_stick_above_bound_and_monotonicity():
    g = make_complete(4)
    freqs = []
    for m in (1, 2, 3):
        res = stick_above_frequency(g, layer=2, count=m, trials=4000, seed=19)
        assert not res.bound_check.violated
        assert res.bound_check.bound_value == pytest.approx(m / 4)
        freqs.append((res.summary.mean, res.summary.std_error))
    for (lo, lo_se), (hi, hi_se) in zip(freqs, freqs[1:]):
        assert hi >= lo - 3 * math.sqrt(lo_se**2 + hi_se**2)


def test_entry_layer_visit_set_bounds():
    res = entry_layer_visit_set(make_cycle(6), trials=20_000, seed=20)
    assert res.bound_check.bound_value == pytest.approx(1.5)
    assert not res.bound_check.violated
    assert res.single_visit_exact == pytest.approx(0.5)
    gap = abs(res.single_visit.mean - res.single_visit_exact)
    assert gap <= 3 * res.single_visit.std_error
    assert res.mean_summary.mean >= 1.0


def test_loop_equivalence_pass_and_mutant_fail():
    g = make_complete(3)
    fair = loop_equivalence_check(g, particles=6, trials=2000, seed=21)
    assert fair.passed, f"p={fair.chi2.p_value}"
    mutant = loop_equivalence_check(g, particles=6, trials=2000, seed=21, mutant=True)
    assert not mutant.passed


def test_negative_control_grows_on_the_callers_graph(monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("the loop-equivalence check built a graph")

    monkeypatch.setattr(dla, "add_self_loops", no_graph)
    monkeypatch.setattr(dla, "RegularGraph", no_graph)
    clusters = count_calls(monkeypatch, dla, "drop_particle", key=lambda cluster, *args: cluster)
    g = make_complete(3)
    loop_equivalence_check(g, particles=3, trials=50, seed=21, mutant=True)
    assert len(clusters) == 100 and all(c.graph is g for c in clusters)
    # 50 fair clusters (vertical 2/4) and 50 controls (vertical (2 + 1)/(3 + 2))
    assert Counter(c.vertical_prob for c in clusters) == {0.5: 50, 0.6: 50}


@pytest.mark.parametrize("loops", [1, 2])
def test_negative_control_law_exact(loops):
    g = make_complete(3)
    for _ in range(loops):
        g = add_self_loops(g)
    d = g.d  # slots per vertex, loops included
    c = dla.Cluster(make_complete(3), vertical_loops=loops)
    assert c.graph.d == d - loops
    assert all(v not in row for v, row in enumerate(c.graph.neighbors))
    table = c.slot_table
    counts = Counter(int(s) for s in table)
    prob = {s: Fraction(k, len(table)) for s, k in counts.items()}
    assert prob[0] == prob[1] == Fraction(2 + loops, 2 * (d + 2))
    assert set(prob) == set(range(c.graph.d + 2))
    assert all(prob[s] == Fraction(1, d + 2) for s in range(2, c.graph.d + 2))
    assert c.vertical_prob == float(prob[0] + prob[1])
    assert new_cluster(g).vertical_prob == 2 / (d + 2)


def test_negative_vertical_loops_are_refused():
    # -1 would list every slot twice: the fair law, not a negative control
    with pytest.raises(ValueError, match="vertical_loops"):
        slot_table(3, -1)
    with pytest.raises(ValueError, match="vertical_loops"):
        dla.Cluster(make_cycle(30), vertical_loops=-1)


@pytest.mark.lawgate
@pytest.mark.parametrize("base", [make_cycle(6), make_complete(4)], ids=["cycle:6", "complete:4"])
def test_first_hit_oracle_runs_the_negative_control_law(base):
    # the oracle reads the cluster's own walk law: probes on a negative
    # control match its law, and the fair law on the same occupancy is far
    c = dla.Cluster(base, vertical_loops=1)
    grow(c, np.random.default_rng(3), particles=10)
    fair = new_cluster(c.graph)
    for _, g, z in c.stick_log:
        dla._commit(fair, g, z)
    _, limit = drop_gate(c, 51, 20_000)
    assert total_variation(first_hit_distribution(fair), first_hit_distribution(c)) > limit


def test_loop_equivalence_self_test_identical_streams():
    g = make_complete(3)
    rng_a = np.random.default_rng(22)
    rng_b = np.random.default_rng(22)
    counts_a = collect_height_tuples(g, particles=5, trials=300, rng=rng_a)
    counts_b = collect_height_tuples(g, particles=5, trials=300, rng=rng_b)
    assert counts_a == counts_b  # identical streams give chi-square 0, p = 1


def test_cap_exceeded_is_hard_error():
    g = make_cycle(6)
    c = new_cluster(g)
    rng = np.random.default_rng(24)
    with pytest.raises(CapExceededError) as err:
        for _ in range(500):
            drop_particle(c, rng, cap=3)
    assert err.value.literal_steps == 3
    assert err.value.kappa >= err.value.literal_steps - 1


def test_cap_is_exact():
    # the widest cycle where no box fits, so the literal reference walk applies
    c = new_cluster(make_cycle(2 * BOX_RADIUS + 1))
    grow(c, np.random.default_rng(35), particles=200)
    seed = 46
    out = reference_walk(c, np.random.default_rng(seed))
    steps = out.literal_steps
    assert steps > 300, f"seed {seed}: {steps} literal steps"
    assert probe_particle(c, np.random.default_rng(seed)) == out
    assert probe_particle(c, np.random.default_rng(seed), cap=steps) == out
    for cap in (1, 63, 64, 65, 192, 193, steps - 1):
        rng = np.random.default_rng(seed)
        with pytest.raises(CapExceededError) as err:
            probe_particle(c, rng, cap=cap)
        ref = np.random.default_rng(seed)
        with pytest.raises(CapExceededError) as want:
            reference_walk(c, ref, cap)
        fields = [(e.value.literal_steps, e.value.kappa, e.value.min_layer) for e in (err, want)]
        assert fields[0] == fields[1] and fields[0][0] == cap
        # only the blocks the first ``cap`` slots needed were drawn
        assert rng.bit_generator.state == ref.bit_generator.state


class _BlockSpy:
    """A generator that records the bytes of every block of raw words drawn.

    Its bit generator is the spy itself; single words (the entry vertex) are
    not blocks and are not recorded.
    """

    def __init__(self, rng):
        self._rng = rng
        self.blocks = []

    @property
    def bit_generator(self):
        return self

    def random_raw(self, size=None):
        if size is not None:
            self.blocks.append(8 * size)
        return self._rng.bit_generator.random_raw(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _assert_cap_is_exact(c, fired, seed):
    """Walks on ``c`` cut at a cap spend exactly the cap and draw no block past it.

    ``fired`` counts the draws that stand in for steps.  The walk from
    ``seed`` must take more than 300 literal steps and make one such draw;
    a stream change that breaks this fails here rather than searching on.
    """

    def walk(cap=dla.DEFAULT_STEP_CAP):
        rng = np.random.default_rng(seed)
        return probe_particle(c, rng, cap)

    fired.clear()
    full = walk()
    steps = full.literal_steps
    assert steps > 300 and fired, f"seed {seed}: {steps} literal steps, draws {dict(fired)}"
    assert walk(cap=steps) == full
    for cap in (1, 63, 64, 65, 192, 193, steps - 1):
        fired.clear()
        rng = _BlockSpy(np.random.default_rng(seed))
        with pytest.raises(CapExceededError) as err:
            probe_particle(c, rng, cap=cap)
        assert err.value.literal_steps == cap
        assert err.value.kappa >= err.value.literal_steps
        # only the blocks the first ``cap`` slots needed were drawn; a cycle
        # has 4 slots, which divide 256, so each byte of a block is a slot
        assert sum(rng.blocks[:-1]) < cap <= sum(rng.blocks)
    assert fired and err.value.kappa > cap  # the last walk made such a draw before its cap


def test_cap_is_exact_where_boxes_fire(monkeypatch):
    jumps = count_calls(monkeypatch, dla, "_box_jumps")
    _assert_cap_is_exact(box_state("cycle:128"), jumps, seed=0)


@pytest.mark.lawgate
@pytest.mark.parametrize("spec", BOX_STATES)
def test_box_jumps_match_the_first_hit_oracle(spec, monkeypatch):
    c = box_state(spec)
    drop_gate(c, 37, 10_000, fired=(count_calls(monkeypatch, dla, "_box_jumps"), 10_000 // 4))


@pytest.mark.lawgate
def test_box_jumps_keep_the_law_of_kappa_and_depth(monkeypatch):
    c = box_state("cycle:128")
    jumps = count_calls(monkeypatch, dla, "_box_jumps")
    drop_gate(c, 39, 3000, fired=(jumps, 3000), reference=(reference_walk, 38), stats=("kappa", "depth"))


@pytest.mark.lawgate
@pytest.mark.parametrize("spec", CEILING_STATES)
def test_ceiling_matches_the_first_hit_oracle(spec, monkeypatch):
    c = ceiling_state(spec)
    drop_gate(c, 41, 10_000, fired=(count_calls(monkeypatch, dla, "_return_to_front"), 10_000 // 20))


@pytest.mark.lawgate
@pytest.mark.parametrize("spec", CEILING_STATES)
def test_ceiling_keeps_the_law_of_the_immediate_return_walk(spec, monkeypatch):
    c = ceiling_state(spec)
    returns = count_calls(monkeypatch, dla, "_return_to_front")
    drop_gate(c, 43, 3000, fired=(returns, 3000 // 20), reference=(immediate_return_walk, 42), stats=("kappa", "site"))


class _RowsUpTo(list):
    """Sticking-map rows that fail on any read above layer ``top``."""

    def __init__(self, rows, top):
        super().__init__(rows)
        self.top = top

    def __getitem__(self, z):
        assert z <= self.top, f"the walk read near[{z}] above M = {self.top}"
        return super().__getitem__(z)


def test_walk_reads_no_row_of_near_above_the_front(monkeypatch):
    returns = count_calls(monkeypatch, dla, "_return_to_front")
    c = box_state("cycle:64")
    top = c.M
    assert len(c.near) == top + 2 and dla.BOX in c.near[top + 1]
    rng = np.random.default_rng(44)
    outs = [probe_particle(c, rng) for _ in range(1000)]
    guarded = copy.deepcopy(c)
    guarded.near = _RowsUpTo(guarded.near, top)
    rng = np.random.default_rng(44)
    assert [probe_particle(guarded, rng) for _ in range(1000)] == outs
    assert returns["probe_particle"] > 0 and all(out.H <= top for out in outs)


@pytest.mark.parametrize(
    "make", [lambda: box_state("cycle:128"), lambda: ceiling_state("random:40:3:seed=2")],
    ids=["cycle:128", "random:40:3:seed=2"],
)
def test_literal_steps_fall_short_of_kappa_exactly_when_a_draw_stands_in(make, monkeypatch):
    c = make()
    returns = count_calls(monkeypatch, dla, "_return_to_front")
    box_jumps = count_calls(monkeypatch, dla, "_box_jumps")
    rng = np.random.default_rng(52)
    seen = set()
    for _ in range(2000):
        returns.clear()
        box_jumps.clear()
        out = probe_particle(c, rng)
        drew = bool(returns or box_jumps)  # each return or box draw stands in for >= 1 step
        assert out.literal_steps <= out.kappa
        assert (out.literal_steps == out.kappa) == (not drew), out
        seen.add(drew)
    assert seen == {False, True}


def test_cap_is_exact_where_the_ceiling_fires(monkeypatch):
    returns = count_calls(monkeypatch, dla, "_return_to_front")
    _assert_cap_is_exact(ceiling_state("cycle:16"), returns, seed=459125)


def test_cap_zero_draws_nothing_after_the_entry():
    c = new_cluster(make_cycle(16))
    grow(c, np.random.default_rng(35), particles=150)
    seed = 0
    assert reference_walk(c, np.random.default_rng(seed)).literal_steps > 0  # the entry does not stick
    rng = np.random.default_rng(seed)
    with pytest.raises(CapExceededError) as err:
        probe_particle(c, rng, cap=0)
    assert (err.value.literal_steps, err.value.kappa, err.value.min_layer) == (0, 0, c.M)
    ref = np.random.default_rng(seed)
    uniform_below(ref, c.graph.n)  # the entry vertex only
    assert rng.bit_generator.state == ref.bit_generator.state
    # an entry that sticks at once needs no step
    fresh = new_cluster(make_cycle(16))
    assert drop_particle(fresh, np.random.default_rng(seed), cap=0).kappa == 0


@pytest.mark.lawgate
def test_growth_on_two_byte_slots_matches_the_first_hit_oracle():
    c = new_cluster(parse_graph_spec("complete:300"))  # d + 2 = 301 slots: 2-byte units
    assert slot_cutter(c.slot_table)[1] == 2
    grow(c, np.random.default_rng(5), particles=12)
    drop_gate(c, 41, 10_000)


class _NoIntegers:
    """A generator whose ``integers`` fails, so every walk draw must come from raw words."""

    def __init__(self, rng):
        self._rng = rng

    def integers(self, *args, **kwargs):
        raise AssertionError("a walk draw went through Generator.integers")

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize(
    "make, layer",
    [
        (lambda: new_cluster(make_cycle(64)), 30),  # boxes fire
        (lambda: new_cluster(parse_graph_spec("random:40:3:seed=2")), 8),
        (lambda: new_cluster(make_complete(5)), 8),
        (lambda: new_cluster(make_torus(4, 3)), 8),
        (lambda: new_cluster(make_hypercube(4)), 8),
        (lambda: dla.Cluster(make_cycle(6), vertical_loops=1), 8),
        (lambda: new_cluster(parse_graph_spec("random:6:3:seed=0")), 8),  # the eigenvector route
    ],
    ids=[
        "cycle:64", "random:40:3:seed=2", "complete:5", "torus:4x4x4", "hypercube:4", "control",
        "random:6:3:seed=0",
    ],
)
def test_walk_draws_nothing_through_integers(make, layer, monkeypatch):
    returns = count_calls(monkeypatch, dla, "_return_to_front")
    eigen_rows = count_calls(monkeypatch, GTransitionSampler, "_sample_eigen")
    c = make()
    rng = _NoIntegers(np.random.default_rng(48))
    grow(c, rng, target_layer=layer)
    for _ in range(300):
        probe_particle(c, rng)
    assert returns["probe_particle"] + returns["_box_jumps"] > 0  # the base kernel ran
    assert bool(eigen_rows) == (c.graph.label == "random:6:3:seed=0")


def test_snapshot_roundtrip(tmp_path):
    g = make_cycle(5)
    c = new_cluster(g)
    grow(c, np.random.default_rng(25), particles=80)
    path = tmp_path / "cluster.snap"
    save_snapshot(c, path)
    text = path.read_text()
    assert text.startswith(f"cyldla v2 graph=cycle:5 n=5 d=2 t=80 M={c.M}\n")
    assert text.splitlines()[1:] == [f"{layer} {vertex}" for _, vertex, layer in c.stick_log]
    snap = load_snapshot(path)
    rebuilt = cluster_from_snapshot(snap, g)
    assert rebuilt.stick_log == c.stick_log
    assert rebuilt.loads == c.loads and rebuilt.M == c.M
    path2 = tmp_path / "again.snap"
    save_snapshot(rebuilt, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_rejects_mismatched_graph(tmp_path):
    c = new_cluster(make_cycle(5))
    grow(c, np.random.default_rng(26), particles=10)
    path = tmp_path / "c.snap"
    save_snapshot(c, path)
    snap = load_snapshot(path)
    with pytest.raises(ValueError):
        cluster_from_snapshot(snap, make_cycle(6))


def test_snapshot_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_text("not a snapshot\n")
    with pytest.raises(ValueError):
        load_snapshot(path)
    path.write_text("cyldla v1 n=3 d=2 t=1 M=2\n0 0 0\n0 1 0\n0 2 0\n1 1 1\n")
    with pytest.raises(ValueError, match="v1, which names no base graph"):
        load_snapshot(path)


@pytest.mark.parametrize(
    "n, t, M, sticks",
    [
        (3, 2, 2, ((1, 1), (1, 1))),  # duplicate entry
        (4, 2, 3, ((1, 0), (2, 2))),  # floating above an empty column
        (3, 1, 1, ((0, 1),)),  # stick on the full floor layer
        # touches its layer, but (3, 2) is floating on cycle:6
        (6, 3, 3, ((1, 0), (2, 0), (2, 3))),
        (3, 1, 1, ((-1, 0),)),  # below the floor layer
    ],
)
def test_replay_requires_each_stick_on_the_boundary(n, t, M, sticks):
    snap = dla.SnapshotData(f"cycle:{n}", n, 2, t, M, sticks)
    with pytest.raises(ValueError, match="not on the boundary"):
        cluster_from_snapshot(snap, make_cycle(n))


def _incremental_replay(snap, graph):
    """Replay stick by stick: one sticking check and one commit per stick."""
    if (graph.label, graph.n, graph.d) != (snap.graph, snap.n, snap.d):
        raise ValueError(
            f"snapshot names graph={snap.graph} n={snap.n} d={snap.d}, "
            f"not {graph.label} with n={graph.n} d={graph.d}"
        )
    cluster = new_cluster(graph)
    for k, (layer, vertex) in enumerate(snap.sticks, start=1):
        if not is_boundary(cluster, (vertex, layer)):
            raise ValueError(
                f"snapshot stick {k} at layer {layer}, vertex {vertex} "
                "is not on the boundary of the cluster before it"
            )
        dla._commit(cluster, vertex, layer)
    if cluster.M != snap.M or cluster.t != snap.t:
        raise ValueError(
            f"snapshot header has t={snap.t} M={snap.M}; "
            f"its sticks give t={cluster.t} M={cluster.M}"
        )
    return cluster


def _fields(cluster):
    fields = {k: v for k, v in vars(cluster).items() if k != "_kernel"}
    fields["first_reach"] = list(cluster.first_reach.items())  # in the order layers were reached
    return fields


def _as_snapshot(cluster, **header):
    g = cluster.graph
    sticks = tuple((layer, vertex) for _, vertex, layer in cluster.stick_log)
    fields = dict(graph=g.label, n=g.n, d=g.d, t=cluster.t, M=cluster.M, sticks=sticks)
    return dla.SnapshotData(**{**fields, **header})


@pytest.mark.parametrize(
    "graph, particles",
    [
        (make_cycle(500), 1500),
        (make_cycle(16), 300),
        (make_cycle(64), 600),  # boxes fit
        (parse_graph_spec("random:500:3:seed=1"), 500),
        (parse_graph_spec("random:40:3:seed=2"), 300),
        (parse_graph_spec("torus:4x4x4"), 400),
        (make_complete(5), 200),
        (add_self_loops(make_cycle(6)), 150),  # loop slots
        (make_cycle(3), 300),  # completes walls
    ],
    ids=lambda x: x.label if hasattr(x, "label") else str(x),
)
def test_replay_equals_the_incremental_build(tmp_path, graph, particles):
    c = new_cluster(graph)
    grow(c, np.random.default_rng(71), particles=particles)
    save_snapshot(c, tmp_path / "c.snap")
    snap = load_snapshot(tmp_path / "c.snap")
    replayed = cluster_from_snapshot(snap, graph)
    assert _fields(replayed) == _fields(_incremental_replay(snap, graph)) == _fields(c)
    assert all(type(x) is int for x in replayed.loads + [v for _, v in replayed.first_reach.items()])
    assert all(type(row) is bytearray for row in replayed.occ + replayed.near)
    if graph.label == "cycle:3":
        assert replayed.wall_times
    if graph.label == "cycle:64":
        assert any(dla.BOX in row for row in replayed.near)
    grow(replayed, np.random.default_rng(72), particles=20)  # the replayed rows grow like any others
    grow(c, np.random.default_rng(72), particles=20)
    assert _fields(replayed) == _fields(c)


def test_fresh_snapshot_replays_to_a_fresh_cluster():
    g = make_cycle(64)
    assert _fields(cluster_from_snapshot(_as_snapshot(new_cluster(g)), g)) == _fields(new_cluster(g))


def _not_on_boundary(k, layer, vertex):
    return f"snapshot stick {k} at layer {layer}, vertex {vertex} is not on the boundary of the cluster before it"


@pytest.mark.parametrize(
    "header, sticks, message",
    [
        ({"M": 2}, ((1, 0), (0, 3)), _not_on_boundary(2, 0, 3)),  # on the occupied floor
        ({"M": 2}, ((1, 2), (1, 3), (1, 2)), _not_on_boundary(3, 1, 2)),  # a duplicate
        ({"M": 3}, ((1, 0), (2, 3)), _not_on_boundary(2, 2, 3)),  # floating
        ({"M": 3}, ((1, 0), (10**12, 0), (2, 0)), _not_on_boundary(2, 10**12, 0)),
        ({"M": 3}, ((1, 0), (10**30, 0)), _not_on_boundary(2, 10**30, 0)),
        ({"M": 2}, ((1, 0), (-1, 1)), _not_on_boundary(2, -1, 1)),  # below the floor
        ({"t": 3, "M": 3}, ((1, 0), (2, 0)), "snapshot header has t=3 M=3; its sticks give t=2 M=3"),
        ({"M": 4}, ((1, 0), (2, 0)), "snapshot header has t=2 M=4; its sticks give t=2 M=3"),
        ({"n": 7}, ((1, 0),), "snapshot names graph=cycle:8 n=7 d=2, not cycle:8 with n=8 d=2"),
        ({"graph": "cycle:9"}, ((1, 0),), "snapshot names graph=cycle:9 n=8 d=2, not cycle:8 with n=8 d=2"),
    ],
)
def test_malformed_snapshot_gives_the_incremental_message(header, sticks, message):
    g = make_cycle(8)
    fields = {"graph": g.label, "n": 8, "d": 2, "t": len(sticks), "M": 2, "sticks": sticks}
    snap = dla.SnapshotData(**{**fields, **header})
    for replay in (cluster_from_snapshot, _incremental_replay):
        with pytest.raises(ValueError) as err:
            replay(snap, g)
        assert str(err.value) == message


@pytest.mark.parametrize("vertex", [8, -1])
def test_replay_refuses_a_stick_off_the_base(vertex):
    # load_snapshot never yields these; a hand-built snapshot is refused like any floating stick
    snap = dla.SnapshotData("cycle:8", 8, 2, 2, 2, ((1, 0), (1, vertex)))
    with pytest.raises(ValueError, match=f"^{_not_on_boundary(2, 1, vertex)}$"):
        cluster_from_snapshot(snap, make_cycle(8))


def test_snapshot_errors_name_the_line_in_the_file(tmp_path):
    path = tmp_path / "c.snap"
    path.write_text("\ncyldla v2 graph=cycle:4 n=4 d=2 t=2 M=2\n1 0\n\n\n1 x\n")
    with pytest.raises(ValueError, match="^snapshot line 6 is not 2 integers: '1 x'$"):
        load_snapshot(path)
    path.write_text("cyldla v2 graph=cycle:4 n=4 d=2 t=2 M=2\n\n1 0\n\n1 4\n")
    with pytest.raises(ValueError, match="^snapshot line 5 is outside n=4 x layers >= 1: '1 4'$"):
        load_snapshot(path)


REPLAY_BASES = {
    "cycle:16": (lambda: make_cycle(16), 300),
    "cycle:64": (lambda: make_cycle(64), 600),  # boxes fit
    "random:40:3:seed=2": (lambda: parse_graph_spec("random:40:3:seed=2"), 300),
    "torus:4x4x4": (lambda: parse_graph_spec("torus:4x4x4"), 400),
    "complete:5": (lambda: make_complete(5), 200),
    "cycle:6+loops": (lambda: add_self_loops(make_cycle(6)), 150),  # loop slots
}


@functools.cache
def _grown_snapshot(base):
    make, particles = REPLAY_BASES[base]
    c = new_cluster(make())
    grow(c, np.random.default_rng(73), particles=particles)
    return c.graph, _as_snapshot(c)


@st.composite
def _mutated_snapshots(draw):
    """A grown snapshot with one mutation: a stick moved, swapped, duplicated or dropped, or t or M changed.

    After a duplicate or a drop the header's t still counts the sticks, so the replay reads on past it.
    """
    graph, snap = _grown_snapshot(draw(st.sampled_from(sorted(REPLAY_BASES)), label="base"))
    sticks = list(snap.sticks)
    index = st.integers(0, len(sticks) - 1)
    kind = draw(st.sampled_from(["layer", "vertex", "swap", "duplicate", "drop", "t", "M"]), label="mutation")
    if kind in ("t", "M"):
        delta = draw(st.sampled_from([-2, -1, 1, 2]), label="delta")
        return graph, replace(snap, **{kind: getattr(snap, kind) + delta})
    i = draw(index, label="i")
    layer, vertex = sticks[i]
    if kind == "layer":
        sticks[i] = (draw(st.integers(-1, snap.M + 2) | st.just(10**12), label="layer"), vertex)
    elif kind == "vertex":
        sticks[i] = (layer, draw(st.integers(0, snap.n - 1), label="vertex"))  # load_snapshot yields no other
    elif kind == "swap":
        j = draw(index, label="j")
        sticks[i], sticks[j] = sticks[j], sticks[i]
    elif kind == "duplicate":
        sticks.insert(draw(st.integers(0, len(sticks)), label="at"), sticks[i])
    else:
        del sticks[i]
    return graph, replace(snap, t=len(sticks), sticks=tuple(sticks))


def _replay_outcome(replay, snap, graph):
    try:
        return _fields(replay(snap, graph))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=600)
@given(_mutated_snapshots())
def test_replay_equals_the_incremental_build_on_mutated_snapshots(case):
    graph, snap = case
    assert _replay_outcome(cluster_from_snapshot, snap, graph) == _replay_outcome(_incremental_replay, snap, graph)


_SNAPSHOT_HEADER = b"cyldla v2 graph=cycle:4 n=4 d=2 t=2 M=2\n"
_BODY_LINE = st.text(alphabet="0123456789 -+x\t\r", max_size=8)
_SNAPSHOT_BYTES = st.one_of(
    st.binary(max_size=120),
    st.text(max_size=120).map(lambda text: text.encode("utf-8", "surrogatepass")),
    st.text(alphabet="cgraphntdM=0123456789:- \n", max_size=60).map(lambda head: b"cyldla v2 " + head.encode("ascii")),
    st.lists(_BODY_LINE, max_size=8).map(lambda lines: _SNAPSHOT_HEADER + "\n".join(lines).encode("ascii")),
    st.binary(max_size=40).map(lambda tail: _SNAPSHOT_HEADER + b"1 0\n" + tail),
)


@settings(max_examples=1000)
@given(_SNAPSHOT_BYTES)
def test_load_snapshot_raises_only_value_error_naming_a_line_of_the_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.snap"
    path.write_bytes(data)
    try:
        load_snapshot(path)
    except ValueError as exc:
        named = re.fullmatch(r"snapshot line (\d+) [^:]*: (.*)", str(exc))
        assert named or not str(exc).startswith("snapshot line")
        if named:
            with open(path, encoding="ascii") as fh:
                lines = fh.readlines()  # the lines as the loader reads them
            lineno = int(named[1])
            assert 2 <= lineno <= len(lines) and named[2] == repr(lines[lineno - 1].rstrip("\n"))


def test_load_increment_event_identity():
    g = make_complete(4)
    c = new_cluster(g)
    grow(c, np.random.default_rng(27), particles=150)
    running = Counter()
    for t, _, h in c.stick_log:
        for i in range(1, c.M + 1):
            incremented = h >= i
            if incremented:
                running[i] += 1
    for i in range(1, c.M + 1):
        assert running[i] == load_at_least(c, i)
