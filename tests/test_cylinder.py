import copy
import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cyldla
from cyldla import dla
from cyldla.cylinder import (
    BoxTable,
    GTransitionSampler,
    SamplingRangeError,
    box_table,
    build_box_table,
    long_excursion_frequency,
    long_excursion_probability_bound,
    sample_excursion_shape,
    sample_negative_binomial,
    sample_return_shape,
    slot_cutter,
    slot_table,
    uniform_below,
    walk_slots,
)
from cyldla.graphs import make_cycle, parse_graph_spec
from cyldla.stats import chi_square_two_sample
from lawgate import count_calls, draw_gate


def test_excursion_shape_sampler_moments():
    rng = np.random.default_rng(10)
    q = 0.5
    lengths = []
    for _ in range(20_000):
        v, gamma, total = sample_excursion_shape(rng, q)
        assert total == v + gamma and v % 2 == 0  # v counts 1 + odd first-passage moves
        lengths.append(total)
    # median total length of an up-excursion at q=1/2 is small, tail is heavy
    assert np.median(lengths) <= 6
    assert max(lengths) > 10_000


@pytest.mark.lawgate
def test_transition_sampler_matches_matrix_power():
    g = make_cycle(5)
    kernel = GTransitionSampler(g)
    for gamma in (1, 3, 70, 121):
        rng = np.random.default_rng(100 + gamma)
        draws = [kernel.sample(0, gamma, rng) for _ in range(30_000)]
        draw_gate(draws, np.linalg.matrix_power(g.transition_matrix(), gamma)[0], bound=0.02)


def test_transition_sampler_preserves_parity_on_bipartite():
    g = make_cycle(4)
    kernel = GTransitionSampler(g)
    rng = np.random.default_rng(5)
    for gamma in (99, 100, 1001, 1002):
        for _ in range(200):
            v = kernel.sample(0, gamma, rng)
            assert v % 2 == gamma % 2


def test_transition_sampler_huge_exponent():
    g = make_cycle(5)
    kernel = GTransitionSampler(g)
    rng = np.random.default_rng(6)
    draws = [kernel.sample(0, 10**15, rng) for _ in range(2000)]
    counts = np.bincount(draws, minlength=5) / 2000
    assert np.abs(counts - 0.2).max() < 0.05


# K_{3,3}: bipartite and without a lattice tag, so the eigenvector route
EIGEN_BASE = "random:6:3:seed=0"
EXACT_LAW_BASES = (
    "cycle:8", "cycle:9", "torus:4x4", "torus:3x3x3", "hypercube:4",
    "random:12:3:seed=2", "complete:5", EIGEN_BASE,
)


@pytest.mark.lawgate
@pytest.mark.parametrize("gamma", [1, 7, 100, 1001, 10**6])
@pytest.mark.parametrize("spec", EXACT_LAW_BASES)
def test_transition_sampler_exact_law_on_every_route(spec, gamma):
    _assert_exact_kernel_law(GTransitionSampler(parse_graph_spec(spec)), gamma)


@pytest.mark.lawgate
def test_transition_sampler_hops_on_two_byte_units():
    kernel = GTransitionSampler(parse_graph_spec("complete:300"))
    assert slot_cutter(kernel._hops)[1] == 2 and kernel.uniform_cut == 7
    for gamma in (1, 6):  # below the cut: literal hops, d = 299 slots in 2-byte units
        _assert_exact_kernel_law(kernel, gamma)


def _assert_exact_kernel_law(kernel, gamma):
    g = kernel.graph
    start = g.n // 3
    rng = np.random.default_rng(gamma % 1009 + 17 * g.n)
    draws = [kernel.sample(start, gamma, rng) for _ in range(20_000)]
    draw_gate(draws, np.linalg.matrix_power(g.transition_matrix(), gamma)[start])


def _coordinate_sum(v, sides):
    total = 0
    for side in sides:
        v, c = divmod(v, side)
        total += c
    return total


def test_lattice_draws_keep_parity_at_huge_gamma():
    rng = np.random.default_rng(41)
    for spec in ("cycle:8", "torus:4x4", "hypercube:4", "cycle:9", "torus:3x3x3"):
        g = parse_graph_spec(spec)
        sides, _ = g.lattice
        kernel = GTransitionSampler(g)
        for gamma in (9 * 10**18, 9 * 10**18 + 1):
            for _ in range(50):
                v = kernel.sample(5, gamma, rng)
                assert isinstance(v, int) and 0 <= v < g.n
                if all(side % 2 == 0 for side in sides):
                    assert (_coordinate_sum(v, sides) - _coordinate_sum(5, sides) - gamma) % 2 == 0
    assert "walk_spectrum" not in g.__dict__


def test_lattice_sampler_never_reads_the_spectrum():
    for spec in ("cycle:500", "torus:5x5x5", "hypercube:6"):
        g = parse_graph_spec(spec)
        kernel = GTransitionSampler(g)
        rng = np.random.default_rng(2)
        for gamma in (1, 64, 65, 10**4, 10**15):
            kernel.sample(0, gamma, rng)
        assert "walk_spectrum" not in g.__dict__, spec


def test_uniform_cut_is_a_total_variation_bound():
    g = parse_graph_spec("random:40:3:seed=2")
    kernel = GTransitionSampler(g)
    w, _ = g.walk_spectrum
    lam = float(np.abs(w[:-1]).max())
    cut = kernel.uniform_cut
    assert cut == 393
    assert 0.5 * math.sqrt(g.n) * lam**cut <= 1e-14 < 0.5 * math.sqrt(g.n) * lam ** (cut - 1)
    rows = np.linalg.matrix_power(g.transition_matrix(), cut)
    assert 0.5 * np.abs(rows - 1 / g.n).sum(axis=1).max() <= 1e-13
    assert GTransitionSampler(parse_graph_spec("random:500:3:seed=1")).uniform_cut == 638


def _raw_bytes(rng, words):
    """``words`` raw words of ``rng``, each as 8 little-endian bytes."""
    return rng.bit_generator.random_raw(words).astype("<u8").tobytes()


def test_generic_routes_draw_hops_then_uniform():
    g = parse_graph_spec("complete:5")
    kernel = GTransitionSampler(g)
    cut = kernel.uniform_cut
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    pos = 2
    # d = 4 divides 256, so every byte is a hop: byte % 4
    for b in _raw_bytes(ref, -(-(cut - 1) // 8))[: cut - 1]:
        pos = g.neighbors[pos][b % g.d]
    assert kernel.sample(2, cut - 1, rng) == pos
    w = ref.bit_generator.random_raw()
    assert w * g.n % 2**64 >= 2**64 % g.n  # the word is accepted
    assert kernel.sample(2, cut, rng) == w * g.n >> 64
    assert rng.bit_generator.state == ref.bit_generator.state
    bipartite = parse_graph_spec(EIGEN_BASE)
    assert bipartite.lattice is None and GTransitionSampler(bipartite).uniform_cut is None


def test_eigen_route_rejects_a_row_that_is_not_a_law():
    kernel = GTransitionSampler(parse_graph_spec(EIGEN_BASE))
    kernel._u = np.zeros_like(kernel._u)  # this instance only: the graph's spectrum is untouched
    with pytest.raises(RuntimeError, match=r"row 2 of P\^100 .* sums to 0"):
        kernel.sample(2, 100, np.random.default_rng(1))
    assert GTransitionSampler(kernel.graph).sample(2, 100, np.random.default_rng(1)) in range(kernel.graph.n)


def test_eigen_route_keeps_parity_at_huge_gamma():
    # cycle:6's slots without the lattice tag also take the eigenvector
    # route; their eigh gives 1 - 1.1e-16 and -1 + 2.2e-16, and taken as
    # computed, P^gamma's row would lose its mass from gamma near 1e7 on
    untagged = dataclasses.replace(make_cycle(6), label="cycle:6-untagged", lattice=None)
    rng = np.random.default_rng(43)
    for g in (untagged, parse_graph_spec(EIGEN_BASE)):
        kernel = GTransitionSampler(g)
        for gamma in (10**7, 10**12, 9 * 10**18, 9 * 10**18 + 1):
            draws = [kernel.sample(2, gamma, rng) for _ in range(50)]
            assert all((v - 2 - gamma) % 2 == 0 for v in draws), (g.label, gamma)


def test_walk_slots_consumes_doubling_blocks():
    rng = np.random.default_rng(9)
    slots = walk_slots(rng, slot_table(2))
    ref = np.random.default_rng(9)
    sizes = (64, 128, 256, 512, 1024, 2048, 4096, 4096, 4096)
    expected = []
    for block in sizes:
        expected += [b % 4 for b in _raw_bytes(ref, block // 8)]  # 4 slots divide 256: no byte rejected
    blocks = [next(slots) for _ in sizes]
    assert [len(b) for b in blocks] == list(sizes)
    assert [s for b in blocks for s in b] == expected
    # nothing is drawn ahead of the block in use
    assert rng.bit_generator.state == ref.bit_generator.state


def test_walk_slots_draws_lazily():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    slots = walk_slots(rng, slot_table(2))
    assert rng.bit_generator.state == before  # an unstarted stream draws nothing
    assert len(next(slots)) == 64
    ref = np.random.default_rng(3)
    ref.bit_generator.random_raw(8)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_walk_slots_maps_draws_through_table():
    table = slot_table(1, vertical_loops=1)
    slots = walk_slots(np.random.default_rng(12), table)
    ref = np.random.default_rng(12)
    raw = [b % len(table) for words in (8, 16) for b in _raw_bytes(ref, words)]  # 8 slots: none rejected
    assert list(next(slots)) + list(next(slots)) == [table[b] for b in raw]
    assert {table[b] for b in raw} == {0, 1, 2}


def test_slot_table_is_a_tuple_and_its_own_cache_key():
    for table in (slot_table(3), slot_table(2, vertical_loops=1)):
        assert type(table) is tuple and all(type(s) is int for s in table)
    assert slot_table(2, vertical_loops=1) == (0, 0, 1, 1, 2, 2, 3, 3, 0, 1)
    assert slot_cutter(slot_table(3)) is slot_cutter(slot_table(3))


def test_slot_cutter_gives_each_slot_equally_many_units():
    for k in range(1, 257):
        cut, unit = slot_cutter(tuple(range(k)))
        counts = Counter(cut(bytes(range(256))))  # every byte once
        assert unit == 1 and counts == {s: (256 - 256 % k) // k for s in range(k)}, k
    every_unit = np.arange(1 << 16, dtype="<u2").tobytes()
    for k in (257, 301):
        cut, unit = slot_cutter(tuple(range(k)))
        counts = Counter(cut(every_unit))
        assert unit == 2 and counts == {s: ((1 << 16) - (1 << 16) % k) // k for s in range(k)}, k


class _ScriptedBits:
    """A bit generator that hands out the given raw words in order."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size=None):
        assert size is None
        return self.words.pop(0)


class _Scripted:
    def __init__(self, words):
        self.bit_generator = _ScriptedBits(words)


def test_uniform_below_rejects_then_multiplies_and_shifts():
    w = 0x9E37_79B9_7F4A_7C15
    rng = _Scripted([0, w])
    # word 0: (0 * 3) mod 2^64 = 0 < 2^64 mod 3 = 1, rejected; the next is taken
    assert uniform_below(rng, 3) == w * 3 >> 64 == 1 and rng.bit_generator.words == []
    top = 2**64 - 1
    for n, word in ((3, 1), (3, top), (500, 2**63 + 1), (500, top), (2**40 + 7, top)):
        assert word * n % 2**64 >= 2**64 % n  # accepted
        assert uniform_below(_Scripted([word]), n) == word * n >> 64


@pytest.mark.lawgate
@pytest.mark.parametrize("table", [slot_table(3), slot_table(2, vertical_loops=1)], ids=["fair-d3", "control"])
def test_walk_slots_follow_the_table_law(table):
    slots = walk_slots(np.random.default_rng(47), table)
    drawn = []
    while len(drawn) < 100_000:
        drawn += next(slots)
    assert 256 % len(table)  # some bytes are rejected
    draw_gate(drawn[:100_000], np.bincount(table) / len(table), p_min=0.01)


def test_refuses_a_bit_generator_with_32_bit_words():
    rng = np.random.Generator(np.random.MT19937(3))
    with pytest.raises(TypeError, match="32-bit"):
        next(walk_slots(rng, slot_table(2)))
    with pytest.raises(TypeError, match="32-bit"):
        uniform_below(rng, 5)
    with pytest.raises(TypeError, match="32-bit"):
        GTransitionSampler(parse_graph_spec("complete:5")).sample(0, 3, rng)
    with pytest.raises(TypeError, match="32-bit"):
        dla.probe_particle(dla.new_cluster(make_cycle(6)), rng)


@pytest.mark.parametrize("p", [1 / 2, 0.4, 2 / 7])
def test_negative_binomial_is_exact_at_huge_counts(p):
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    assert sample_negative_binomial(rng, 10**13, p) == int(twin.negative_binomial(10**13, p))
    with pytest.raises(SamplingRangeError) as err:
        sample_negative_binomial(rng, 10**19, p)
    assert not isinstance(err.value, ValueError)  # not a configuration error


def test_long_excursion_bound_value():
    assert long_excursion_probability_bound(2, 4.0) == pytest.approx(1 / (12 * 4 * 2))
    with pytest.raises(ValueError):
        long_excursion_probability_bound(2, 1.5)


def test_long_excursion_frequency_bound_and_symmetry():
    g = make_cycle(6)
    study = long_excursion_frequency(g, alpha=2.0, trials=50_000, seed=1)
    assert study.positive_long.mean > study.bound - 3 * study.positive_long.std_error
    assert study.symmetry_gap <= 3 * study.symmetry_sigma
    # accounting: flat excursions have one g-step and length one
    flat = study.signs == 0
    assert np.all(study.g_steps[flat] == 1) and np.all(study.lengths[flat] == 1)
    # vertical excursion length = 1 + vertical-moves + g-moves >= 2
    assert np.all(study.lengths[~flat] >= 2)


def test_long_excursion_iid_across_halves():
    g = make_cycle(6)
    study = long_excursion_frequency(g, alpha=2.0, trials=40_000, seed=2)
    half = study.trials // 2

    def categorize(sl):
        cats = Counter()
        for s, gs in zip(study.signs[sl], study.g_steps[sl]):
            cats[(int(s), bool(gs >= 2))] += 1
        return cats

    res = chi_square_two_sample(categorize(slice(0, half)), categorize(slice(half, None)))
    assert res.p_value > 0.01


def test_long_excursion_vertical_balance():
    study = long_excursion_frequency(make_cycle(6), alpha=2.0, trials=50_000, seed=3)
    ups = int((study.signs == 1).sum())
    downs = int((study.signs == -1).sum())
    se = math.sqrt((ups + downs) * 0.25)
    assert abs(ups - downs) <= 3 * se


def test_long_excursion_cap_accounting():
    study = long_excursion_frequency(make_cycle(6), alpha=2.0, trials=5000, seed=4, cap=64)
    assert study.capped.any()
    assert np.all(study.lengths[study.capped] >= 64)
    assert study.positive_long.cap_hits == int(study.capped.sum())


@pytest.mark.parametrize("cap", [10, 100, 1000])
def test_no_uncapped_excursion_outruns_the_cap(cap):
    # an excursion that returns inside the block that crosses the cap is still capped
    study = long_excursion_frequency(make_cycle(6), alpha=2.0, trials=20_000, seed=4, cap=cap)
    assert not np.any(study.lengths[~study.capped] > cap)
    assert np.all(study.lengths[study.capped] >= cap)


@pytest.mark.parametrize("cap", [0, -1])
def test_long_excursion_rejects_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="cap must be >= 1"):
        long_excursion_frequency(make_cycle(6), alpha=2.0, trials=10, seed=0, cap=cap)


def test_fast_forward_matches_skeleton_simulation():
    # same excursion-shape law from two independent routes: exact-law sampling
    # (used by the cluster walker) and literal skeleton simulation
    d = 2
    q = 2.0 / (d + 2)
    rng = np.random.default_rng(7)
    ff_counts = Counter()
    n = 30_000
    for _ in range(n):
        _, gamma, _ = sample_excursion_shape(rng, q)
        ff_counts[min(int(gamma), 12)] += 1
    study = long_excursion_frequency(make_cycle(6), alpha=2.0, trials=3 * n, seed=8)
    vertical = study.signs != 0
    sim_counts = Counter(min(int(x), 12) for x in study.g_steps[vertical])
    res = chi_square_two_sample(ff_counts, sim_counts)
    assert res.p_value > 0.001, f"p={res.p_value}"


def test_long_excursion_rejects_bad_alpha():
    with pytest.raises(ValueError):
        long_excursion_frequency(make_cycle(6), alpha=1.0, trials=10, seed=0)


def _enumerated_box_law(radius, steps):
    """Every 4^steps path of the fair walk, grouped by (t, dx, dz, low) at its box exit.

    A path that stays inside for all ``steps`` steps is grouped at ``steps``
    with its end offset.  Each prefix event is counted over all its
    extensions to ``steps`` steps, so the probabilities are exact.
    """
    paths = np.arange(4**steps, dtype=np.int64)
    moves = ((paths[:, None] >> (2 * np.arange(steps))) & 3).astype(np.int8)
    x = np.cumsum(np.array([1, -1, 0, 0], dtype=np.int8)[moves], axis=1, dtype=np.int8)
    z = np.cumsum(np.array([0, 0, 1, -1], dtype=np.int8)[moves], axis=1, dtype=np.int8)
    low = np.minimum(np.minimum.accumulate(z, axis=1), 0)
    out = np.maximum(np.abs(x), np.abs(z)) == radius
    first = np.where(out.any(axis=1), out.argmax(axis=1), steps - 1)
    rows = np.arange(paths.size)
    fields = (first + 1, x[rows, first] + 64, z[rows, first] + 64, low[rows, first] + 64)
    code = np.zeros(paths.size, dtype=np.int64)
    for field in fields:  # one integer per (t, dx, dz, low), 7 bits a field
        code = code * 128 + field
    found, counts = np.unique(code, return_counts=True)
    law = {}
    for key, c in zip(found.tolist(), counts.tolist()):
        t, rest = divmod(key, 128**3)
        dx, rest = divmod(rest, 128**2)
        dz, low = divmod(rest, 128)
        law[(t, dx - 64, dz - 64, low - 64)] = c / 4**steps
    return law


@pytest.mark.parametrize("radius", [2, 3, 4])
def test_box_table_matches_path_enumeration(radius):
    table = build_box_table(radius)
    steps = min(10, table.t_max)
    want = _enumerated_box_law(radius, steps)
    prob = np.diff(np.frombuffer(table.cdf), prepend=0.0) * table.mass
    got = {
        (t, dx, dz, low): p
        for t, dx, dz, low, p in zip(table.steps, table.dx, table.dz, table.low, prob)
        if t <= steps
    }
    if steps < table.t_max:  # paths still inside at ``steps`` are not table entries yet
        want = {k: p for k, p in want.items() if max(abs(k[1]), abs(k[2])) == radius}
    assert got.keys() == want.keys()
    assert max(abs(got[k] - want[k]) for k in want) < 1e-12
    assert abs(table.mass - 1.0) < 1e-12 and abs(prob.sum() - 1.0) < 1e-12
    assert table.cdf[-1] == 1.0
    assert all(low <= min(dz, 0) for dz, low in zip(table.dz, table.low))


def test_box_table_draw_inverts_the_cdf():
    class Fixed:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    table = build_box_table(3)
    for i in (0, 1, len(table.cdf) // 2, len(table.cdf) - 1):
        lo = table.cdf[i - 1] if i else 0.0
        if table.cdf[i] > lo:
            want = (table.steps[i], table.dx[i], table.dz[i], table.low[i])
            assert table.draw(Fixed(lo)) == want
            assert table.draw(Fixed(np.nextafter(table.cdf[i], 0.0))) == want


def test_return_shape_is_the_first_passage_to_minus_h():
    rng = np.random.default_rng(8)
    h, trials = 3, 20_000
    draws = [sample_return_shape(rng, h, 0.5) for _ in range(trials)]
    v = np.array([a for a, _ in draws])
    gamma = np.array([b for _, b in draws])
    assert np.all(v % 2 == h % 2) and v.min() >= h
    # P(V = h) = 2^-h; P(V = h + 2) = h 2^-(h+2): one up move among the first h + 1
    for moves, prob in ((h, 1 / 8), (h + 2, 3 / 32)):
        se = math.sqrt(prob * (1 - prob) / trials)
        assert abs((v == moves).mean() - prob) <= 3 * se
    # each vertical move follows a geometric number of same-layer moves, mean 1
    small = v <= 9
    assert abs(gamma[small].sum() / v[small].sum() - 1.0) < 0.05


def test_box_table_is_built_lazily():
    # a fresh interpreter: import, a cycle:500 kernel and growth where no box fits
    script = (
        "import numpy as np\n"
        "from cyldla import cylinder, dla, graphs\n"
        "cylinder.GTransitionSampler(graphs.make_cycle(500))\n"
        "c = dla.new_cluster(graphs.make_cycle(16))\n"
        "dla.grow(c, np.random.default_rng(0), particles=300)\n"
        "print(cylinder.box_table.cache_info().currsize)\n"
    )
    src = str(Path(cyldla.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env, check=True
    )
    assert done.stdout.split() == ["0"]


def test_clusters_share_one_box_table_and_copies_hold_none(monkeypatch):
    jumps = count_calls(monkeypatch, dla, "_box_jumps", key=lambda cluster, *args: cluster)
    g = make_cycle(64)
    clusters = [dla.new_cluster(g) for _ in range(2)]
    for k, cluster in enumerate(clusters):
        dla.grow(cluster, np.random.default_rng(k), target_layer=30)
        assert cluster.boxes and jumps[cluster] > 0
    info = box_table.cache_info()
    assert info.currsize == 1 and info.misses == 1
    memo = {}
    twin = copy.deepcopy(clusters[0], memo)
    assert id(box_table()) not in memo
    assert not any(isinstance(v, BoxTable) for v in memo.values())
    assert twin.near == clusters[0].near
