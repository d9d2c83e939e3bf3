import hashlib
import itertools
import random

import pytest

from rwis import (
    DiscreteScenarioSet,
    IntervalUncertainty,
    PartitionInput,
    UndirectedGraph,
    ValidationError,
    dumps_instance,
    enumerate_independent_sets,
    gen_partition,
    gen_random,
    gen_tight_k,
    gen_tight_midpoint,
    gen_vertex_cover,
    has_partition,
    has_vertex_cover_within,
    is_independent,
    max_min_value,
    overlaps,
    solve_max_min_bruteforce,
    solve_regret_interval_exact,
    vertex_cover_number,
)
from rwis import gen

import oracles
from rwis.gen import (
    PARTITION_TOTAL_LIMIT,
    RANDOM_CELLS_LIMIT,
    VERTEX_COVER_CELLS_LIMIT,
    VERTEX_COVER_SUBSETS_LIMIT,
)

# the worked 5-vertex example: 6 edges, cover budget 3
DEMO_EDGES = [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
DEMO_GRAPH = UndirectedGraph.from_edges(5, DEMO_EDGES)

# per-edge weight columns for one clique of the demo gadget, rows i=1..5
DEMO_BASE_ROWS = [
    [1, 1, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0],
    [0, 1, 0, 1, 1, 0],
    [0, 0, 1, 1, 0, 1],
    [0, 0, 0, 0, 1, 1],
]


def maximal_independent_sets(fam):
    sets = list(enumerate_independent_sets(fam, guard=24))
    as_sets = [set(s) for s in sets]
    out = []
    for s in as_sets:
        if not any(s < t for t in as_sets):
            out.append(s)
    return out


class TestGraphTypes:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            UndirectedGraph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            UndirectedGraph.from_edges(2, [(1, 3)])

    @pytest.mark.parametrize("edge", [(True, 2), (1, False), (1.0, 2), (1, "2")])
    def test_rejects_non_int_endpoints(self, edge):
        with pytest.raises(ValidationError) as info:
            UndirectedGraph.from_edges(2, [edge])
        assert str(info.value) == f"edge {edge} outside 1..2"

    def test_edges_normalized(self):
        g = UndirectedGraph.from_edges(3, [(2, 1), (1, 2), (3, 1)])
        assert g.sorted_edges() == [(1, 2), (1, 3)]

    def test_partition_values_positive(self):
        with pytest.raises(ValidationError):
            PartitionInput((1, 0))
        assert PartitionInput([2, 1]).values == (2, 1)

    def test_partition_values_refuse_bools(self):
        with pytest.raises(ValidationError, match="got True$"):
            PartitionInput((True, 2))

    def test_vertex_count_refuses_bools(self):
        with pytest.raises(ValidationError, match="^bad vertex count True$"):
            UndirectedGraph(True, frozenset())


class TestDecisionOracles:
    def test_triangle_cover_number(self):
        g = UndirectedGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        assert vertex_cover_number(g) == 2
        assert not has_vertex_cover_within(g, 1)
        assert has_vertex_cover_within(g, 2)
        # a negative budget covers only a graph without edges
        assert not has_vertex_cover_within(g, -1)
        assert has_vertex_cover_within(UndirectedGraph.from_edges(3, []), -1)

    def test_demo_graph_cover_number(self):
        assert vertex_cover_number(DEMO_GRAPH) == 3

    def test_partition_oracle(self):
        assert has_partition((1, 1))
        assert not has_partition((1, 2))
        assert has_partition((2, 2, 1, 3))
        assert not has_partition((5,))

    def test_partition_oracle_total_limit(self):
        half = PARTITION_TOTAL_LIMIT // 2
        assert has_partition((half, PARTITION_TOTAL_LIMIT - half))
        for values in (
            (half, PARTITION_TOTAL_LIMIT - half + 1),
            (PARTITION_TOTAL_LIMIT + 1,),
            (10**4299, 10**4299),
        ):
            with pytest.raises(ValidationError, match="sum to more than"):
                has_partition(values)
            with pytest.raises(ValidationError, match="sum to more than"):
                gen_partition(PartitionInput(values))


class TestVertexCoverGadget:
    def test_demo_shape(self):
        inst = gen_vertex_cover(DEMO_GRAPH, 3)
        assert len(inst.family) == 15
        assert inst.uncertainty.k == 6
        assert inst.metadata["oracle_cover_exists"] is True

    def test_demo_scenario_matrix_matches_worked_example(self):
        # scenario columns are the base rows repeated once per clique
        inst = gen_vertex_cover(DEMO_GRAPH, 3)
        for col, _edge in enumerate(DEMO_EDGES):
            expected = tuple(DEMO_BASE_ROWS[i][col] for i in range(5)) * 3
            assert inst.uncertainty.scenarios[col] == expected

    def test_demo_cover_encoding_value(self):
        # rows {2,3,5} cover the demo graph; the encoded set hits every edge
        inst = gen_vertex_cover(DEMO_GRAPH, 3)
        chosen = (2, 5 + 3, 10 + 5)  # row 2 in clique 1, row 3 in clique 2, row 5 in clique 3
        assert is_independent(inst.family, chosen)
        assert max_min_value(inst.family, inst.uncertainty, chosen) == 1

    def test_clique_layout(self):
        inst = gen_vertex_cover(DEMO_GRAPH, 3)
        fam = inst.family
        for a in range(15):
            for b in range(a + 1, 15):
                same_clique = a // 5 == b // 5
                assert overlaps(fam.intervals[a], fam.intervals[b]) is same_clique

    def test_independent_set_count_is_cliques_plus_one_power(self):
        g = UndirectedGraph.from_edges(3, [(1, 2)])
        inst = gen_vertex_cover(g, 2)
        count = sum(1 for _ in enumerate_independent_sets(inst.family))
        assert count == (3 + 1) ** 2

    def test_iff_property_small_sweep(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            vertices = list(range(1, n + 1))
            all_edges = list(itertools.combinations(vertices, 2))
            for _ in range(8):
                m = rng.randint(1, len(all_edges))
                g = UndirectedGraph.from_edges(n, rng.sample(all_edges, m))
                for budget in (1, 2, 3):
                    inst = gen_vertex_cover(g, budget)
                    opt1 = solve_max_min_bruteforce(
                        inst.family, inst.uncertainty, guard=len(inst.family)
                    )[1]
                    assert (opt1 >= 1) == has_vertex_cover_within(g, budget)

    def test_rejects_empty_edge_set(self):
        g = UndirectedGraph.from_edges(3, [])
        with pytest.raises(ValidationError):
            gen_vertex_cover(g, 1)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValidationError):
            gen_vertex_cover(DEMO_GRAPH, 0)

    def test_cell_limit_is_checked_before_building(self, monkeypatch):
        # the demo gadget has 6 edges x budget 3 x 5 vertices = 90 cells
        monkeypatch.setattr(gen, "VERTEX_COVER_CELLS_LIMIT", 90)
        assert len(gen_vertex_cover(DEMO_GRAPH, 3).family) == 15
        monkeypatch.setattr(gen, "VERTEX_COVER_CELLS_LIMIT", 89)

        def refuse(*args):
            raise AssertionError("built an interval")

        monkeypatch.setattr(gen, "Interval", refuse)
        monkeypatch.setattr(gen, "has_vertex_cover_within", refuse)
        with pytest.raises(ValidationError) as exc:
            gen_vertex_cover(DEMO_GRAPH, 3)
        assert str(exc.value) == (
            "vertex-cover gadget needs 90 scenario cells "
            "(edges x cover size x vertices), more than 89"
        )

    def test_cell_limit_default(self):
        edge = UndirectedGraph.from_edges(2, [(1, 2)])
        assert VERTEX_COVER_CELLS_LIMIT == 10**6
        with pytest.raises(ValidationError, match="needs 1000002 scenario cells"):
            gen_vertex_cover(edge, VERTEX_COVER_CELLS_LIMIT // 2 + 1)
        with pytest.raises(ValidationError, match="more than 1000000$"):
            gen_vertex_cover(UndirectedGraph.from_edges(3, [(1, 2)]), 10**8)

    def test_subset_limit_is_checked_before_building(self, monkeypatch):
        # the demo oracle would try C(5, 3) = 10 vertex subsets
        monkeypatch.setattr(gen, "VERTEX_COVER_SUBSETS_LIMIT", 10)
        assert gen_vertex_cover(DEMO_GRAPH, 3).metadata["oracle_cover_exists"] is True
        monkeypatch.setattr(gen, "VERTEX_COVER_SUBSETS_LIMIT", 9)

        def refuse(*args):
            raise AssertionError("built an interval")

        monkeypatch.setattr(gen, "Interval", refuse)
        with pytest.raises(ValidationError) as exc:
            gen_vertex_cover(DEMO_GRAPH, 3)
        assert str(exc.value) == (
            "vertex-cover oracle would try more than 9 vertex subsets "
            "(vertices choose cover size), the most it searches"
        )
        with pytest.raises(ValidationError, match="more than 9 vertex subsets"):
            has_vertex_cover_within(DEMO_GRAPH, 3)
        assert has_vertex_cover_within(DEMO_GRAPH, 5)  # budget >= n: no search

    def test_subset_limit_default(self):
        # C(1414, 2) = 998,991 and C(1415, 2) = 1,000,405 vertex pairs
        assert VERTEX_COVER_SUBSETS_LIMIT == 10**6
        within = UndirectedGraph.from_edges(1414, [(1, 2)])
        over = UndirectedGraph.from_edges(1415, [(1, 2)])
        assert has_vertex_cover_within(within, 2)
        assert gen_vertex_cover(within, 2).metadata["oracle_cover_exists"] is True
        for call in (has_vertex_cover_within, gen_vertex_cover):
            with pytest.raises(ValidationError, match="more than 1000000 vertex subsets"):
                call(over, 2)
        # half of a million vertices: refused at once, without the whole binomial
        huge = UndirectedGraph.from_edges(10**6, [(1, 2)])
        with pytest.raises(ValidationError, match="more than 1000000 vertex subsets"):
            has_vertex_cover_within(huge, 5 * 10**5)


class TestPartitionGadget:
    def test_weights_and_scaling(self):
        inst = gen_partition(PartitionInput((1, 1)))
        u = inst.uncertainty
        assert inst.scaling_factor == 2
        # total=2: pair ranges [3*2-3a, 3*2] and degenerate 3*2-2a; long vertex [0, 3n*2-2]
        assert u.lower == (3, 4, 3, 4, 0)
        assert u.upper == (6, 4, 6, 4, 10)

    def test_structure_either_long_vertex_or_one_per_pair(self):
        inst = gen_partition(PartitionInput((2, 2, 1)))
        maximal = maximal_independent_sets(inst.family)
        n = 3
        assert len(maximal) == 2 ** n + 1
        long_vertex = 2 * n + 1
        for s in maximal:
            if long_vertex in s:
                assert s == {long_vertex}
            else:
                assert len(s) == n

    def test_yes_instance_threshold(self):
        inst = gen_partition(PartitionInput((1, 1)))
        opt2 = solve_regret_interval_exact(inst.family, inst.uncertainty).regret_value
        assert opt2 == 3  # scaled (3/2)*b with b=1

    def test_no_instance_strictly_exceeds(self):
        inst = gen_partition(PartitionInput((1, 2)))
        total = 3
        opt2 = solve_regret_interval_exact(inst.family, inst.uncertainty).regret_value
        assert 2 * opt2 > 3 * total

    def test_four_value_yes_instance(self):
        inst = gen_partition(PartitionInput((2, 2, 1, 3)))
        opt2 = solve_regret_interval_exact(inst.family, inst.uncertainty).regret_value
        assert opt2 == 12  # scaled; unscaled (3/2)*4 = 6
        assert inst.metadata["oracle_partition_exists"] is True

    def test_odd_total_still_emits_with_no_answer(self):
        inst = gen_partition(PartitionInput((5,)))
        assert inst.metadata["oracle_partition_exists"] is False
        opt2 = solve_regret_interval_exact(inst.family, inst.uncertainty).regret_value
        assert 2 * opt2 > 3 * 5

    def test_iff_property_random_multisets(self):
        rng = random.Random(14)
        for _ in range(25):
            n = rng.randint(1, 6)
            values = tuple(rng.randint(1, 9) for _ in range(n))
            inst = gen_partition(PartitionInput(values))
            total = sum(values)
            opt2 = solve_regret_interval_exact(
                inst.family, inst.uncertainty
            ).regret_value
            assert (2 * opt2 <= 3 * total) == has_partition(values)


class TestTightFamilies:
    @pytest.mark.parametrize("k", [2, 3])
    def test_tight_k_shape(self, k):
        inst = gen_tight_k(k)
        assert len(inst.family) == 2 * k
        assert inst.uncertainty.k == k
        # every vertex has total weight 1 across scenarios
        for col in zip(*inst.uncertainty.scenarios):
            assert sum(col) == 1

    def test_tight_k_out_of_range(self):
        for k in (1, 4):
            with pytest.raises(ValidationError):
                gen_tight_k(k)

    def test_tight_midpoint_shape(self):
        inst = gen_tight_midpoint()
        assert len(inst.family) == 3
        assert isinstance(inst.uncertainty, IntervalUncertainty)
        assert not is_independent(inst.family, (1, 2))


class TestRandomGenerator:
    def test_deterministic(self):
        a = gen_random(n=10, model="discrete", k=2, w_max=5, density=0.5, seed=42)
        b = gen_random(n=10, model="discrete", k=2, w_max=5, density=0.5, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_random(n=10, model="discrete", k=2, w_max=5, density=0.5, seed=42)
        b = gen_random(n=10, model="discrete", k=2, w_max=5, density=0.5, seed=43)
        assert a != b

    def test_density_zero_disjoint_by_construction(self):
        for seed in range(20):
            inst = gen_random(n=12, model="interval", w_max=5, density=0.0, seed=seed)
            fam = inst.family
            for a in range(len(fam)):
                for b in range(a + 1, len(fam)):
                    assert not overlaps(fam.intervals[a], fam.intervals[b])

    def test_endpoints_in_range(self):
        for density in (0.0, 0.3, 0.7, 1.0):
            inst = gen_random(n=9, model="discrete", k=3, w_max=4, density=density, seed=1)
            for iv in inst.family.intervals:
                assert 0 <= iv.lo <= iv.hi <= 4 * 9

    def test_interval_model_bounds_ordered(self):
        inst = gen_random(n=15, model="interval", w_max=9, density=0.4, seed=3)
        u = inst.uncertainty
        assert isinstance(u, IntervalUncertainty)
        assert all(a <= b for a, b in zip(u.lower, u.upper))

    def test_discrete_model_shape(self):
        inst = gen_random(n=7, model="discrete", k=4, w_max=6, density=0.6, seed=8)
        assert isinstance(inst.uncertainty, DiscreteScenarioSet)
        assert inst.uncertainty.k == 4 and inst.uncertainty.n == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, model="discrete", k=1, w_max=5, density=0.5, seed=0),
            dict(n=3, model="discrete", k=0, w_max=5, density=0.5, seed=0),
            dict(n=3, model="discrete", k=None, w_max=5, density=0.5, seed=0),
            dict(n=3, model="interval", k=2, w_max=5, density=0.5, seed=0),
            dict(n=3, model="interval", w_max=0, density=0.5, seed=0),
            dict(n=3, model="interval", w_max=5, density=1.5, seed=0),
            dict(n=3, model="nope", w_max=5, density=0.5, seed=0),
            # types are checked before anything is drawn: bools and floats
            # for counts, a bool or str density, a bool seed and the OS-entropy seed None
            dict(n=True, model="interval", w_max=5, density=0.5, seed=0),
            dict(n=3.0, model="interval", w_max=5, density=0.5, seed=0),
            dict(n=3, model="interval", w_max=True, density=0.5, seed=0),
            dict(n=3, model="interval", w_max=2.5, density=0.5, seed=0),
            dict(n=3, model="discrete", k=True, w_max=5, density=0.5, seed=0),
            dict(n=3, model="discrete", k=2.0, w_max=5, density=0.5, seed=0),
            dict(n=3, model="interval", w_max=5, density=True, seed=0),
            dict(n=3, model="interval", w_max=5, density="0.5", seed=0),
            dict(n=3, model="interval", w_max=5, density=0.5, seed=None),
            dict(n=3, model="interval", w_max=5, density=0.5, seed=True),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValidationError):
            gen_random(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=10**12, model="interval"),
            dict(n=10**12, model="discrete", k=3),
            dict(n=RANDOM_CELLS_LIMIT // 2 + 1, model="interval"),
            dict(n=RANDOM_CELLS_LIMIT // 4 + 1, model="discrete", k=4),
        ],
    )
    def test_size_limit_refuses_before_drawing(self, kwargs):
        # refused from the parameters alone: nothing is drawn or built
        with pytest.raises(ValidationError, match="more than 1000000 weight cells"):
            gen_random(w_max=5, density=0.5, seed=0, **kwargs)

    def test_size_limit_admits_its_bound(self, monkeypatch):
        monkeypatch.setattr(gen, "RANDOM_CELLS_LIMIT", 12)
        assert gen_random(n=6, model="interval", w_max=5, density=0.5, seed=0).family.n == 6
        assert gen_random(n=4, model="discrete", k=3, w_max=5, density=0.5, seed=0).family.n == 4
        with pytest.raises(ValidationError, match="more than 12 weight cells"):
            gen_random(n=7, model="interval", w_max=5, density=0.5, seed=0)


# sha256 of the written bytes of random instances that no golden file covers
# (the one random golden file is discrete, n=10): the interval model at each
# density branch, a bulk-sized range instance and a K=3 discrete instance
PINNED_RANDOM = {
    "interval-n40-density0": (
        dict(n=40, model="interval", w_max=1000, density=0.0, seed=11),
        "862765552eedc23a5ec3bfff0abb9069a81980f78e3062f8019244f7e1b2ecb7"),
    "interval-n40-density0.5": (
        dict(n=40, model="interval", w_max=1000, density=0.5, seed=11),
        "cbf69878ab69189b860c9ea3e0c8fd941262018baa7cbd7053fb105fcaf73826"),
    "interval-n40-density1": (
        dict(n=40, model="interval", w_max=1000, density=1.0, seed=11),
        "5974999442b5cedb7b39915a9b73620e03cb5f5eab65ca635a2dbe58e492b423"),
    "interval-n5000-wmax1e6": (
        dict(n=5000, model="interval", w_max=10**6, density=0.5, seed=7),
        "42bdc3b6fd2e8cc8001a53f17e63558adb7321030612e31011005275e8c1d26b"),
    "discrete-k3-n26": (
        dict(n=26, model="discrete", k=3, w_max=20, density=0.5, seed=3),
        "be854e046ec1c2d4a79acd2ff5e4bc91ef22ee9a0ee6ba857b1e96613b8f4f03"),
    # weights of 41 bits: each draw takes two 32-bit words
    "interval-n30-wmax2pow40": (
        dict(n=30, model="interval", w_max=2**40, density=0.5, seed=13),
        "5388fcb098c1042c0671c043933bffc7f99e9c1ae28de0b764c9b6c8fdc8b55c"),
    # the smallest draws: one scenario of 0/1 weights, disjoint windows
    "discrete-k1-wmax1-density0": (
        dict(n=30, model="discrete", k=1, w_max=1, density=0.0, seed=5),
        "fc92def1eeec752d0f4fbf04592e4db3af8769157ac9cb3b287d8b9bba5cb84c"),
}


@pytest.mark.parametrize("case", sorted(PINNED_RANDOM))
def test_random_instance_bytes_are_pinned(case):
    kwargs, digest = PINNED_RANDOM[case]
    text = dumps_instance(gen_random(**kwargs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# moduli at and around the bit-length steps, so that rejections, draws of
# one bit and draws of several 32-bit words are all covered
DRAW_MODULI = (1, 2, 3, 7, 8, 9, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 10**6 + 1, 2**64 + 3)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 5])
def test_draws_equal_randint(seed):
    # runs of one modulus in a shuffled order: runs of one draw alternate
    # moduli as a start and a length do, longer runs are weight rows
    rng = random.Random(seed)
    ref = random.Random(seed)
    runs = [(m, count) for m in DRAW_MODULI for count in (1, 2, 5, 40)]
    random.Random(seed + 1).shuffle(runs)
    for m, count in runs:
        assert gen._below(rng, m, count) == [ref.randint(0, m - 1) for _ in range(count)]
    # both took the same number of 32-bit words, so their next draws agree
    assert rng.getstate() == ref.getstate()


def test_generator_equals_randint_reference():
    grid = random.Random(18)
    for model, ks in (("discrete", range(1, 6)), ("interval", (None,))):
        for k in ks:
            for n in range(1, 61):
                for density in (0.0, 1.0, grid.random()):
                    for w_max in (1, 20, 10**6, 2**40):
                        kwargs = dict(n=n, model=model, k=k, w_max=w_max,
                                      density=density, seed=grid.randrange(1 << 30))
                        assert dumps_instance(gen_random(**kwargs)) == dumps_instance(
                            oracles.ref_gen_random(**kwargs)), kwargs
