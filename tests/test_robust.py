import functools
import gc
import importlib
import operator
import pkgutil
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwis import (
    DiscreteScenarioSet,
    FrontierCapError,
    GuardError,
    IntervalFamily,
    IntervalUncertainty,
    ValidationError,
    extreme_scenarios,
    fptas_max_min,
    fptas_regret_discrete,
    gen_partition,
    gen_random,
    gen_tight_k,
    gen_vertex_cover,
    has_partition,
    midpoint_approx_regret,
    PartitionInput,
    RegretReport,
    UndirectedGraph,
    max_min_value,
    max_regret_discrete,
    max_regret_interval,
    opt_weight,
    pareto_frontier,
    parse_instance,
    solve_max_min_bruteforce,
    solve_max_min_exact,
    solve_max_min_interval,
    solve_regret_discrete_bruteforce,
    solve_regret_discrete_exact,
    solve_regret_interval_bruteforce,
    solve_regret_interval_exact,
    weight_under,
    worst_case_scenario,
)
import rwis
from rwis import approx, core, robust, scenarios
from rwis.robust import resolve_frontier_cap

import golden_defs
import oracles

TWO_CLIQUE = IntervalFamily.from_pairs([(0, 1), (0, 1)])
TWO_FREE = IntervalFamily.from_pairs([(0, 1), (2, 3)])
UNIT_SCEN = DiscreteScenarioSet(((1, 0), (0, 1)))
THREE_CLIQUE = IntervalFamily.from_pairs([(0, 1), (0, 1), (0, 1)])
THREE_CLIQUE_RANGES = IntervalUncertainty((1, 0, 0), (1, 2, 2))

FPTAS_EPSILONS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1, 2, 4, 8)

TRIANGLE = UndirectedGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])


def random_small_ranges(rng, max_n):
    """Intervals on a short line (duplicates and touching endpoints are
    common) with ranges that are often degenerate and often zero."""
    n = rng.randint(0, max_n)
    pairs = []
    for _ in range(n):
        lo = rng.randint(0, 6)
        pairs.append((lo, lo + rng.randint(0, 3)))
    lower = tuple(rng.randint(0, 3) for _ in range(n))
    upper = tuple(a + rng.choice((0, 0, 1, 4)) for a in lower)
    return IntervalFamily.from_pairs(pairs), IntervalUncertainty(lower, upper)


def golden_discrete():
    """(family, scenarios) of every discrete golden file, in name order."""
    return [
        (inst.family, inst.uncertainty)
        for inst in map(parse_instance, sorted(golden_defs.GOLDEN_DIR.glob("*.json")))
        if isinstance(inst.uncertainty, DiscreteScenarioSet)
    ]


def random_discrete(rng, max_n=10, max_k=3, w_max=6):
    inst = gen_random(
        n=rng.randint(1, max_n),
        model="discrete",
        k=rng.randint(1, max_k),
        w_max=w_max,
        density=rng.choice([0.0, 0.3, 0.6, 1.0]),
        seed=rng.randrange(1 << 30),
    )
    return inst.family, inst.uncertainty


class TestEvaluators:
    def test_weight_under_empty(self):
        assert weight_under((), (2, 9, 4)) == 0

    def test_weight_under_sum(self):
        assert weight_under((1, 3), (2, 9, 4)) == 6

    def test_weight_under_edgeless_all_ones(self):
        fam = IntervalFamily.from_pairs([(4 * i, 4 * i + 1) for i in range(5)])
        assert weight_under(tuple(range(1, 6)), (1,) * 5) == 5

    def test_opt_weight_matches_solver(self):
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3), (4, 5)])
        assert opt_weight(fam, (3, 4, 5)) == 9

    def test_opt_weight_retains_no_scenario(self):
        # a solve computes its scenario optima itself; nothing keeps a
        # scenario alive between calls (a cache keyed by 40 of these
        # n=5000 scenarios would hold about 7 MiB)
        fam = IntervalFamily.from_pairs([(2 * i, 2 * i + 2) for i in range(5000)])
        rng = random.Random(3)
        weights = range(10**6 + 1)
        scenario = tuple(rng.choices(weights, k=5000))
        # warm-up: builds the family's cached interval preparation
        assert opt_weight(fam, scenario) == core.max_weight_is(fam, scenario)[1]
        del scenario
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(40):
                opt_weight(fam, tuple(rng.choices(weights, k=5000)))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20

    def test_interval_preparation_retains_few_families(self):
        # the preparation cache keeps a handful of families, not hundreds:
        # each n=5000 family and its preparation hold about 0.75 MiB, so 24
        # kept families would hold about 18 MiB
        rng = random.Random(5)
        weights = tuple(rng.choices(range(10**6 + 1), k=5000))
        core._prepared.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(24):
                los = [rng.randrange(10**6) for _ in range(5000)]
                his = [lo + rng.randrange(1000) for lo in los]
                core.max_weight_is(IntervalFamily._from_columns(los, his), weights)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            core._prepared.cache_clear()
        assert retained < 4 << 20

    def test_max_min_single_scenario(self):
        scen = DiscreteScenarioSet(((1, 2),))
        assert max_min_value(TWO_FREE, scen, (1,)) == 1

    def test_max_min_empty_solution(self):
        assert max_min_value(TWO_FREE, UNIT_SCEN, ()) == 0

    def test_max_min_cover_encoding_on_triangle_gadget(self):
        inst = gen_vertex_cover(TRIANGLE, 2)
        # rows 1 and 2: interval 1 in clique 1, interval 3+2 in clique 2
        assert max_min_value(inst.family, inst.uncertainty, (1, 5)) == 1

    def test_max_min_rejects_dependent_set(self):
        with pytest.raises(ValidationError):
            max_min_value(TWO_CLIQUE, UNIT_SCEN, (1, 2))

    def test_regret_discrete_zero_for_optimum(self):
        scen = DiscreteScenarioSet(((2, 3),))
        report = max_regret_discrete(TWO_FREE, scen, (1, 2))
        assert report.regret_value == 0

    def test_regret_discrete_empty_solution(self):
        report = max_regret_discrete(TWO_FREE, UNIT_SCEN, ())
        assert report.regret_value == max(
            opt_weight(TWO_FREE, s) for s in UNIT_SCEN.scenarios
        )

    def test_regret_discrete_witness_lowest_index(self):
        report = max_regret_discrete(TWO_FREE, UNIT_SCEN, (1,))
        assert report.regret_value == 1
        assert report.witness_scenario == (0, 1)

    def test_regret_interval_degenerate(self):
        u = IntervalUncertainty((2, 3), (2, 3))
        report = max_regret_interval(TWO_FREE, u, (1, 2))
        assert report.regret_value == 0

    def test_regret_interval_three_clique(self):
        assert max_regret_interval(THREE_CLIQUE, THREE_CLIQUE_RANGES, (1,)).regret_value == 1
        assert max_regret_interval(THREE_CLIQUE, THREE_CLIQUE_RANGES, (2,)).regret_value == 2

    def test_report_invariant(self):
        report = max_regret_discrete(TWO_CLIQUE, UNIT_SCEN, (1,))
        gap = opt_weight(TWO_CLIQUE, report.witness_scenario) - weight_under(
            report.solution, report.witness_scenario
        )
        assert report.regret_value == gap >= 0


class TestMaxRegretIntervalTwin:
    def test_private_path_matches_the_public_one(self):
        # DP-made sets (as midpoint and the walk's seed score) and every
        # enumerated set
        rng = random.Random(2801)
        for _ in range(120):
            fam, u = random_small_ranges(rng, 8)
            columns = (u.lower, u.upper, scenarios._surrogate_interval(u))
            sets = [core._max_weight_is(fam, w)[0] for w in columns]
            sets += core.enumerate_independent_sets(fam)
            for idx in sets:
                assert robust._max_regret_interval(fam, u, idx) == max_regret_interval(
                    fam, u, idx
                ), (fam, u, idx)


def _functools_caches():
    """`module.name` of every functools cache in every rwis module, classes included."""
    found = set()
    for info in pkgutil.iter_modules(rwis.__path__):
        module = importlib.import_module(f"rwis.{info.name}")
        scopes = [(module.__name__, vars(module))]
        scopes += [
            (f"{module.__name__}.{cls.__name__}", vars(cls))
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
        ]
        for prefix, namespace in scopes:
            for name, obj in namespace.items():
                defined_here = getattr(obj, "__module__", module.__name__) == module.__name__
                if defined_here and (
                    hasattr(obj, "cache_clear") or isinstance(obj, functools.cached_property)
                ):
                    found.add(f"{prefix}.{name}".removeprefix("rwis."))
    return found


# Tied and duplicated gaps: on TWO_CLIQUE every solution's maximal regret is
# attained by a duplicated scenario and by a distinct one, so the witness
# shows which attaining scenario a solver names.
TIED_SCEN = DiscreteScenarioSet(
    ((1, 0), (0, 1), (1, 0), (0, 1), (2, 1), (1, 2), (2, 1))
)


class TestScenarioOptima:
    def test_only_interval_preparation_is_cached(self):
        assert _functools_caches() == {"core._prepared"}

    @pytest.mark.parametrize(
        "solve",
        [
            lambda fam, scen: max_regret_discrete(fam, scen, (1, 3)),
            solve_regret_discrete_exact,
            solve_regret_discrete_bruteforce,
            lambda fam, scen: fptas_regret_discrete(fam, scen, Fraction(1, 2)),
            lambda fam, scen: fptas_regret_discrete(fam, scen, Fraction(1, 100)),
            approx.k_approx_regret,
            lambda fam, scen: approx.k_approx_regret(fam, scen, ties="adversarial"),
        ],
        ids=["evaluate", "exact", "bruteforce", "fptas", "fptas-fine",
             "kapprox", "kapprox-adversarial"],
    )
    @pytest.mark.parametrize("k", [2, 3])
    def test_each_scenario_optimum_computed_once(self, monkeypatch, solve, k):
        # tight_k has 2^k surrogate optima and a nonzero regret, so neither
        # the adversarial scan nor the fptas stops early
        inst = gen_tight_k(k)
        fam, scen = inst.family, inst.uncertainty
        expected = solve(fam, scen)
        seen = []
        real = robust._opt_weight

        def spy(fam, scenario):
            seen.append(scenario)
            return real(fam, scenario)

        monkeypatch.setattr(robust, "_opt_weight", spy)
        assert solve(fam, scen) == expected
        assert seen == list(scen.scenarios)

    @pytest.mark.parametrize("members", [(), (1,), (2,)])
    def test_evaluation_names_first_tied_scenario(self, members):
        report = max_regret_discrete(TWO_CLIQUE, TIED_SCEN, members)
        gaps = [
            opt_weight(TWO_CLIQUE, s) - weight_under(members, s)
            for s in TIED_SCEN.scenarios
        ]
        attaining = [s for s, gap in zip(TIED_SCEN.scenarios, gaps) if gap == max(gaps)]
        assert len(attaining) > len(set(attaining)) >= 2  # duplicated and tied
        assert report == RegretReport(members, max(gaps), attaining[0])

    @pytest.mark.parametrize(
        "solve",
        [
            solve_regret_discrete_exact,
            solve_regret_discrete_bruteforce,
            lambda fam, scen: fptas_regret_discrete(fam, scen, Fraction(1, 3)),
            approx.k_approx_regret,
            lambda fam, scen: approx.k_approx_regret(fam, scen, ties="adversarial"),
        ],
        ids=["exact", "bruteforce", "fptas", "kapprox", "kapprox-adversarial"],
    )
    def test_solvers_name_first_tied_scenario(self, solve):
        report = solve(TWO_CLIQUE, TIED_SCEN)
        assert report == max_regret_discrete(TWO_CLIQUE, TIED_SCEN, report.solution)


TWO_SCENARIOS_OF_TWO = DiscreteScenarioSet(((1, 2), (3, 4)))
RANGES_OF_TWO = IntervalUncertainty((1, 2), (3, 4))


class TestSizeMismatch:
    """Every public solver and evaluator of robust refuses an uncertainty
    that covers fewer vertices than the family has, before any work."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda fam: max_min_value(fam, TWO_SCENARIOS_OF_TWO, ()),
            lambda fam: max_regret_discrete(fam, TWO_SCENARIOS_OF_TWO, ()),
            lambda fam: max_regret_interval(fam, RANGES_OF_TWO, ()),
            lambda fam: solve_max_min_interval(fam, RANGES_OF_TWO),
            lambda fam: pareto_frontier(fam, TWO_SCENARIOS_OF_TWO),
            lambda fam: solve_max_min_exact(fam, TWO_SCENARIOS_OF_TWO),
            lambda fam: solve_regret_discrete_exact(fam, TWO_SCENARIOS_OF_TWO),
            lambda fam: solve_max_min_bruteforce(fam, TWO_SCENARIOS_OF_TWO),
            lambda fam: solve_regret_discrete_bruteforce(fam, TWO_SCENARIOS_OF_TWO),
            lambda fam: solve_regret_interval_exact(fam, RANGES_OF_TWO),
            lambda fam: solve_regret_interval_bruteforce(fam, RANGES_OF_TWO),
            lambda fam: fptas_max_min(fam, TWO_SCENARIOS_OF_TWO, 1),
            lambda fam: fptas_regret_discrete(fam, TWO_SCENARIOS_OF_TWO, 1),
        ],
        ids=[
            "max_min_value", "max_regret_discrete", "max_regret_interval",
            "solve_max_min_interval", "pareto_frontier", "solve_max_min_exact",
            "solve_regret_discrete_exact", "solve_max_min_bruteforce",
            "solve_regret_discrete_bruteforce", "solve_regret_interval_exact",
            "solve_regret_interval_bruteforce", "fptas_max_min", "fptas_regret_discrete",
        ],
    )
    def test_three_intervals_two_weights(self, call):
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3), (4, 5)])
        with pytest.raises(ValidationError) as info:
            call(fam)
        assert str(info.value) == "uncertainty covers 2 vertices, family has 3"


OVERLAPPING_PAIR = IntervalFamily.from_pairs([(0, 2), (1, 3)])

# (call, exact message): bad input to the public functions whose checks the
# solvers now skip on constructor-checked columns
PUBLIC_REFUSALS = {
    "max_weight_is-negative": (
        lambda: core.max_weight_is(OVERLAPPING_PAIR, [1, -1]), "negative weight -1 rejected"),
    "max_weight_is-float": (
        lambda: core.max_weight_is(OVERLAPPING_PAIR, [1, 2.0]),
        "weights must be integers, got 2.0"),
    "max_weight_is-length": (
        lambda: core.max_weight_is(OVERLAPPING_PAIR, [1]),
        "weight vector has length 1, family has 2 vertices"),
    "opt_weight-negative": (
        lambda: opt_weight(OVERLAPPING_PAIR, [1, -1]), "negative weight -1 rejected"),
    "opt_weight-str": (
        lambda: opt_weight(OVERLAPPING_PAIR, ["1", 1]), "weights must be integers, got '1'"),
    "opt_weight-length": (
        lambda: opt_weight(OVERLAPPING_PAIR, [1, 2, 3]),
        "weight vector has length 3, family has 2 vertices"),
    "worst_case_scenario-range": (
        lambda: worst_case_scenario(RANGES_OF_TWO, [3]), "vertex index 3 out of range 1..2"),
    "worst_case_scenario-bool": (
        lambda: worst_case_scenario(RANGES_OF_TWO, [True]),
        "vertex index True out of range 1..2"),
    "max_regret_interval-dependent": (
        lambda: max_regret_interval(OVERLAPPING_PAIR, RANGES_OF_TWO, [1, 2]),
        "vertex set (1, 2) is not independent"),
    "max_regret_interval-range": (
        lambda: max_regret_interval(OVERLAPPING_PAIR, RANGES_OF_TWO, [0]),
        "vertex index 0 out of range 1..2"),
    "max_regret_interval-bool": (
        lambda: max_regret_interval(OVERLAPPING_PAIR, RANGES_OF_TWO, [2, False]),
        "vertex index False out of range 1..2"),
}


@pytest.mark.parametrize("case", PUBLIC_REFUSALS)
def test_public_functions_keep_their_checks(case):
    call, message = PUBLIC_REFUSALS[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is ValidationError
    assert str(info.value) == message


class TestMaxMinInterval:
    def test_all_zero_lower(self):
        u = IntervalUncertainty((0, 0), (5, 7))
        assert solve_max_min_interval(TWO_FREE, u)[1] == 0

    def test_degenerate_equals_deterministic(self):
        u = IntervalUncertainty((3, 4), (3, 4))
        members, value = solve_max_min_interval(TWO_FREE, u)
        assert (members, value) == ((1, 2), 7)

    def test_two_clique_lower_bounds(self):
        u = IntervalUncertainty((3, 5), (9, 9))
        assert solve_max_min_interval(TWO_CLIQUE, u) == ((2,), 5)


class TestParetoFrontier:
    def test_single_scenario_is_scalar_optimum(self):
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3), (4, 5)])
        front = pareto_frontier(fam, DiscreteScenarioSet(((3, 4, 5),)))
        assert front.vectors == frozenset({(9,)})

    def test_two_disjoint_vertices(self):
        front = pareto_frontier(TWO_FREE, UNIT_SCEN)
        assert front.vectors == frozenset({(1, 1)})

    def test_two_clique(self):
        front = pareto_frontier(TWO_CLIQUE, UNIT_SCEN)
        assert front.vectors == frozenset({(1, 0), (0, 1)})

    def test_cap_exceeded(self):
        # six disjoint 2-cliques with antisymmetric power-of-two weights: the
        # 2^6 maximal sets form an antichain, far above the tiny cap
        pairs = []
        s1, s2 = [], []
        for i in range(6):
            pairs += [(4 * i, 4 * i + 1)] * 2
            s1 += [2 ** i, 0]
            s2 += [0, 2 ** i]
        fam = IntervalFamily.from_pairs(pairs)
        scen = DiscreteScenarioSet((tuple(s1), tuple(s2)))
        with pytest.raises(FrontierCapError):
            pareto_frontier(fam, scen, cap=5)
        assert len(pareto_frontier(fam, scen).vectors) == 64

    def test_nondomination_and_achievability(self):
        rng = random.Random(5150)
        for _ in range(30):
            fam, scen = random_discrete(rng, max_n=8)
            front = pareto_frontier(fam, scen)
            assert oracles.is_antichain(front.vectors)
            achievable = {
                tuple(oracles.mask_weight(m, s) for s in scen.scenarios)
                for m in oracles.independent_masks(fam)
            }
            assert front.vectors <= achievable
            for vec in achievable:
                dominated_member = any(
                    f != vec and all(x <= y for x, y in zip(f, vec))
                    for f in front.vectors
                )
                assert not dominated_member


class TestExactSolvers:
    def test_max_min_single_scenario(self):
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3), (4, 5)])
        members, value = solve_max_min_exact(fam, DiscreteScenarioSet(((3, 4, 5),)))
        assert value == 9 and members == (2, 3)

    def test_max_min_triangle_gadget(self):
        yes = gen_vertex_cover(TRIANGLE, 2)
        assert solve_max_min_exact(yes.family, yes.uncertainty)[1] == 1
        no = gen_vertex_cover(TRIANGLE, 1)
        assert solve_max_min_exact(no.family, no.uncertainty)[1] == 0

    def test_regret_single_scenario_is_zero(self):
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3), (4, 5)])
        assert (
            solve_regret_discrete_exact(fam, DiscreteScenarioSet(((3, 4, 5),))).regret_value
            == 0
        )

    def test_regret_two_disjoint(self):
        report = solve_regret_discrete_exact(TWO_FREE, UNIT_SCEN)
        assert report.regret_value == 0 and report.solution == (1, 2)

    def test_regret_two_clique(self):
        assert solve_regret_discrete_exact(TWO_CLIQUE, UNIT_SCEN).regret_value == 1

    def test_solutions_reevaluate(self):
        rng = random.Random(71)
        for _ in range(40):
            fam, scen = random_discrete(rng)
            members, value = solve_max_min_exact(fam, scen)
            assert max_min_value(fam, scen, members) == value
            report = solve_regret_discrete_exact(fam, scen)
            assert (
                max_regret_discrete(fam, scen, report.solution).regret_value
                == report.regret_value
            )

    def test_matches_bruteforce_suite(self):
        rng = random.Random(2024)
        cases = [random_discrete(rng) for _ in range(120)]
        # the goldens, and a 5-cycle's cover gadget: K=5 on the packed K >= 4 frontier
        cycle = gen_vertex_cover(
            UndirectedGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), 3
        )
        cases += [*golden_discrete(), (cycle.family, cycle.uncertainty)]
        for fam, scen in cases:
            assert (
                solve_max_min_exact(fam, scen)[1]
                == solve_max_min_bruteforce(fam, scen)[1]
                == oracles.brute_max_min(fam, scen.scenarios)
            )
            assert (
                solve_regret_discrete_exact(fam, scen).regret_value
                == solve_regret_discrete_bruteforce(fam, scen).regret_value
                == oracles.brute_regret_discrete(fam, scen.scenarios)
            )

    def test_bruteforce_returns_the_smallest_tied_optimum(self):
        # weights <= 2 make many sets tie; the answer is the lexicographically
        # smallest optimal member tuple among all independent sets
        rng = random.Random(1515)
        for _ in range(150):
            fam, scen = random_discrete(rng, max_n=10, max_k=4, w_max=2)
            sets = sorted(map(oracles.mask_to_members, oracles.independent_masks(fam)))
            sums = {m: [sum(s[i - 1] for i in m) for s in scen.scenarios] for m in sets}
            consts = [max(column) for column in zip(*sums.values())]
            regret = {m: max(c - x for c, x in zip(consts, sums[m])) for m in sets}
            best_min = max(min(sums[m]) for m in sets)
            smallest = next(m for m in sets if min(sums[m]) == best_min)
            assert solve_max_min_bruteforce(fam, scen) == (smallest, best_min)
            least = min(regret.values())
            smallest = next(m for m in sets if regret[m] == least)
            report = solve_regret_discrete_bruteforce(fam, scen)
            assert report == max_regret_discrete(fam, scen, smallest)
            assert report.regret_value == least

    def test_monotone_under_scaling(self):
        rng = random.Random(88)
        for _ in range(25):
            fam, scen = random_discrete(rng, max_n=8)
            c = rng.randint(2, 5)
            scaled = DiscreteScenarioSet(
                tuple(tuple(c * w for w in s) for s in scen.scenarios)
            )
            m1, v1 = solve_max_min_exact(fam, scen)
            m2, v2 = solve_max_min_exact(fam, scaled)
            assert v2 == c * v1 and m2 == m1
            r1 = solve_regret_discrete_exact(fam, scen)
            r2 = solve_regret_discrete_exact(fam, scaled)
            assert r2.regret_value == c * r1.regret_value
            assert r2.solution == r1.solution
            # per-solution regret scales too
            for mask in oracles.independent_masks(fam)[:16]:
                members = oracles.mask_to_members(mask)
                assert (
                    max_regret_discrete(fam, scaled, members).regret_value
                    == c * max_regret_discrete(fam, scen, members).regret_value
                )


class TestRegretIntervalExact:
    def test_degenerate_ranges_zero(self):
        u = IntervalUncertainty((2, 3), (2, 3))
        report = solve_regret_interval_exact(TWO_FREE, u)
        assert report.regret_value == 0

    def test_three_clique(self):
        report = solve_regret_interval_exact(THREE_CLIQUE, THREE_CLIQUE_RANGES)
        assert report.regret_value == 1 and report.solution == (1,)

    def test_matches_extreme_scenario_bruteforce(self):
        rng = random.Random(6)
        for _ in range(40):
            inst = gen_random(
                n=rng.randint(1, 8),
                model="interval",
                w_max=6,
                density=rng.choice([0.0, 0.4, 0.8]),
                seed=rng.randrange(1 << 30),
            )
            fam, u = inst.family, inst.uncertainty
            assert (
                solve_regret_interval_exact(fam, u).regret_value
                == oracles.brute_regret_interval(fam, u.lower, u.upper)
            )

    def test_extreme_scenario_characterization(self):
        # Z(X) computed from the single worst-case scenario equals the max
        # over all extreme scenarios, for every independent set
        rng = random.Random(7)
        for _ in range(25):
            inst = gen_random(
                n=rng.randint(1, 8),
                model="interval",
                w_max=6,
                density=rng.choice([0.0, 0.4, 0.8]),
                seed=rng.randrange(1 << 30),
            )
            fam, u = inst.family, inst.uncertainty
            extremes = list(extreme_scenarios(u))
            for mask in oracles.independent_masks(fam):
                members = oracles.mask_to_members(mask)
                direct = max_regret_interval(fam, u, members).regret_value
                oracle = max(
                    opt_weight(fam, s) - weight_under(members, s) for s in extremes
                )
                assert direct == oracle

    def assert_matches_argmin_oracle(self, fam, u):
        report = solve_regret_interval_exact(fam, u)
        regret, members = oracles.brute_regret_interval_argmin(fam, u.lower, u.upper)
        assert (report.solution, report.regret_value) == (members, regret)
        assert report.witness_scenario == worst_case_scenario(u, report.solution)

    def test_left_scan_oracle_matches_bitmask_optimum(self):
        rng = random.Random(10)
        for _ in range(60):
            fam, u = random_small_ranges(rng, max_n=9)
            for w in (u.lower, u.upper):
                assert oracles.left_scan_opt(fam, w) == oracles.brute_opt(fam, w)

    def test_argmin_on_seeded_random_families(self):
        rng = random.Random(11)
        for _ in range(40):
            inst = gen_random(
                n=rng.randint(1, 10),
                model="interval",
                w_max=rng.choice([1, 3, 6]),
                density=rng.choice([0.0, 0.4, 0.8]),
                seed=rng.randrange(1 << 30),
            )
            self.assert_matches_argmin_oracle(inst.family, inst.uncertainty)

    def test_argmin_with_duplicates_touching_and_degenerate_ranges(self):
        # small coordinates make duplicate intervals and shared endpoints
        # common; half the ranges are degenerate, many weights are zero
        rng = random.Random(12)
        for _ in range(120):
            self.assert_matches_argmin_oracle(*random_small_ranges(rng, max_n=10))

    def test_argmin_edge_cases(self):
        empty = IntervalFamily.from_pairs([])
        self.assert_matches_argmin_oracle(empty, IntervalUncertainty((), ()))
        report = solve_regret_interval_exact(empty, IntervalUncertainty((), ()))
        assert report == RegretReport((), 0, ())
        single = IntervalFamily.from_pairs([(0, 1)])
        for lo, up in ((0, 0), (2, 2), (1, 5)):
            self.assert_matches_argmin_oracle(single, IntervalUncertainty((lo,), (up,)))
        zeros = IntervalUncertainty((0,) * 4, (0,) * 4)
        fam = IntervalFamily.from_pairs([(0, 1), (1, 2), (3, 4), (3, 4)])
        self.assert_matches_argmin_oracle(fam, zeros)
        # every set has regret 0; the empty set is the smallest tuple
        assert solve_regret_interval_exact(fam, zeros).solution == ()

    def test_argmin_on_partition_gadgets(self):
        rng = random.Random(13)
        for count in (8, 8, 9):
            values = tuple(rng.randint(1, 9) for _ in range(count))
            inst = gen_partition(PartitionInput(values))
            assert len(inst.family) == 2 * count + 1
            self.assert_matches_argmin_oracle(inst.family, inst.uncertainty)


def workload_like_ranges(seed, count):
    """Range families drawn like the interval-regret benchmark: n = 18..20,
    w <= 1000, density 0.4, kept when they have 5k-12k independent sets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = gen_random(
            n=rng.randint(18, 20),
            model="interval",
            w_max=1000,
            density=0.4,
            seed=rng.randrange(1 << 30),
        )
        if 5_000 <= oracles.count_independent_sets(inst.family) <= 12_000:
            out.append((inst.family, inst.uncertainty))
    return out


def nine_value_gadgets(seed, count):
    rng = random.Random(seed)
    return [
        gen_partition(PartitionInput(tuple(rng.randint(1, 12) for _ in range(9))))
        for _ in range(count)
    ]


class TestRegretIntervalBound:
    # (intervals, lower, upper, every optimal solution in lexicographic
    # order); the midpoint seed is optimal and is the last of them
    TIES = [
        # the later interval ends first, so the midpoint solve takes it
        ([(0, 2), (0, 1)], (1, 1), (3, 3), [(1,), (2,)]),
        # a three-clique of equal ranges listed by decreasing right endpoint
        ([(0, 3), (0, 2), (0, 1)], (1,) * 3, (3,) * 3, [(1,), (2,), (3,)]),
        # zero ranges let supersets of an optimum tie with it
        (
            [(0, 1), (5, 7), (2, 4), (2, 2), (3, 3)],
            (0, 2, 1, 0, 2),
            (0, 3, 3, 0, 3),
            [(1, 2, 4, 5), (1, 2, 5), (2, 4, 5), (2, 5)],
        ),
    ]

    @pytest.mark.parametrize("pairs,lower,upper,optima", TIES)
    def test_smallest_tied_optimum_wins_over_the_seed(self, pairs, lower, upper, optima):
        fam = IntervalFamily.from_pairs(pairs)
        u = IntervalUncertainty(lower, upper)
        sets = map(oracles.mask_to_members, oracles.independent_masks(fam))
        regrets = {m: max_regret_interval(fam, u, m).regret_value for m in sets}
        least = min(regrets.values())
        assert sorted(m for m, r in regrets.items() if r == least) == optima
        seed = midpoint_approx_regret(fam, u)
        assert (seed.solution, seed.regret_value) == (optima[-1], least)
        report = solve_regret_interval_exact(fam, u)
        assert report == max_regret_interval(fam, u, optima[0])

    def test_equals_argmin_oracle_where_the_bound_prunes(self):
        # test_argmin_on_partition_gadgets adds three more gadgets
        cases = workload_like_ranges(61, 3) + [
            (inst.family, inst.uncertainty) for inst in nine_value_gadgets(62, 1)
        ]
        for fam, u in cases:
            report = solve_regret_interval_exact(fam, u)
            regret, members = oracles.brute_regret_interval_argmin(fam, u.lower, u.upper)
            assert (report.solution, report.regret_value) == (members, regret)
            assert report.witness_scenario == worst_case_scenario(u, members)

    def test_bound_cuts_most_of_the_walk(self):
        # the unbounded walk has one leaf per independent set; without the
        # midpoint seed these families keep more than one node in 15
        cases = workload_like_ranges(63, 8) + [
            (inst.family, inst.uncertainty) for inst in nine_value_gadgets(64, 4)
        ]
        for fam, u in cases:
            nodes = robust._regret_interval_walk(fam, u)[2]
            assert 15 * nodes < oracles.count_independent_sets(fam)

    @pytest.mark.parametrize(
        "values",
        # a yes and a no instance for 12 and 13 values; each no has an odd half
        [
            (3, 2, 5, 8, 12, 7, 3, 5, 6, 4, 8, 9),
            (10, 4, 6, 12, 2, 8, 4, 6, 10, 2, 8, 6),
            (10, 7, 11, 6, 7, 11, 6, 11, 2, 6, 10, 11, 6),
            (10, 4, 6, 12, 2, 8, 4, 6, 10, 2, 8, 4, 2),
        ],
    )
    def test_raised_guard_reaches_partition_gadgets(self, values):
        inst = gen_partition(PartitionInput(values))
        fam, u = inst.family, inst.uncertainty
        assert len(fam) in (25, 27)
        report = solve_regret_interval_exact(fam, u, guard=30)
        num, den = inst.metadata["regret_threshold_scaled"]
        assert (report.regret_value * den <= num) == has_partition(values)
        if has_partition(values):
            assert report.regret_value * den == num
        assert max_regret_interval(fam, u, report.solution) == report


class TestRegretIntervalWalkTables:
    """The walk bounds each node from core._cut_tables; the reference walk
    in oracles scans every undecided position instead.  Same bound, so the
    same members, regret and node count."""

    def assert_same_walk(self, cases):
        for fam, u in cases:
            assert robust._regret_interval_walk(fam, u) == oracles.ref_regret_interval_walk(
                fam, u
            )

    def test_workload_like_ranges(self):
        self.assert_same_walk(workload_like_ranges(65, 10))

    def test_nine_value_gadgets(self):
        self.assert_same_walk(
            (inst.family, inst.uncertainty) for inst in nine_value_gadgets(66, 4)
        )

    def test_raised_guard_random_n30(self):
        rng = random.Random(67)
        cases = []
        for _ in range(20):
            inst = gen_random(
                n=30,
                model="interval",
                w_max=rng.choice([3, 20, 1000]),
                density=rng.choice([0.3, 0.5, 0.7]),
                seed=rng.randrange(1 << 30),
            )
            cases.append((inst.family, inst.uncertainty))
        self.assert_same_walk(cases)

    def test_small_ranges_with_ties(self):
        rng = random.Random(68)
        self.assert_same_walk(random_small_ranges(rng, max_n=10) for _ in range(150))


class TestRegretIntervalBruteforce:
    def test_equals_argmin_oracle(self):
        rng = random.Random(69)
        cases = [random_small_ranges(rng, max_n=10) for _ in range(60)]
        for _ in range(20):
            inst = gen_random(
                n=rng.randint(1, 12),
                model="interval",
                w_max=rng.choice([1, 6, 1000]),
                density=rng.choice([0.0, 0.4, 0.8]),
                seed=rng.randrange(1 << 30),
            )
            cases.append((inst.family, inst.uncertainty))
        for fam, u in cases:
            report = solve_regret_interval_bruteforce(fam, u)
            regret, members = oracles.brute_regret_interval_argmin(fam, u.lower, u.upper)
            assert (report.solution, report.regret_value) == (members, regret)
            assert report == max_regret_interval(fam, u, members)
            assert report == solve_regret_interval_exact(fam, u)

    def test_guard_refuses_as_exact_does(self):
        fam = IntervalFamily.from_pairs([(3 * i, 3 * i + 1) for i in range(6)])
        u = IntervalUncertainty((0,) * 6, (1,) * 6)
        message = "^family size 6 exceeds enumeration guard 5$"
        for solve in (solve_regret_interval_exact, solve_regret_interval_bruteforce):
            with pytest.raises(GuardError, match=message):
                solve(fam, u, guard=5)
        expected = RegretReport(tuple(range(1, 7)), 0, (0,) * 6)
        assert solve_regret_interval_bruteforce(fam, u, guard=6) == expected


class TestRegretIntervalGuard:
    def test_deep_clique_needs_no_recursion(self):
        # the walk's depth is n = 1500, far beyond the default recursion limit
        n = 1500
        fam = IntervalFamily.from_pairs([(0, 1)] * n)
        u = IntervalUncertainty((1,) * n, (3,) * n)
        report = solve_regret_interval_exact(fam, u, guard=2000)
        assert report.regret_value == 2 and report.solution == (1,)

    def test_guard_plus_one_refused_before_any_work(self, monkeypatch):
        fam = IntervalFamily.from_pairs([(3 * i, 3 * i + 1) for i in range(6)])
        u = IntervalUncertainty((0,) * 6, (1,) * 6)
        lookups = core._prepared.cache_info()[:2]  # hits, misses
        with pytest.raises(GuardError, match="^family size 6 exceeds enumeration guard 5$"):
            solve_regret_interval_exact(fam, u, guard=5)
        monkeypatch.setenv("RWIS_GUARD_N", "5")
        with pytest.raises(GuardError, match="^family size 6 exceeds enumeration guard 5$"):
            solve_regret_interval_exact(fam, u)
        assert core._prepared.cache_info()[:2] == lookups

    def test_guard_equal_to_n_solves(self, monkeypatch):
        fam = IntervalFamily.from_pairs([(3 * i, 3 * i + 1) for i in range(6)])
        u = IntervalUncertainty((0,) * 6, (1,) * 6)
        # members at 0, the rest at 1: regret 6 - |X|, least for X = everything
        expected = RegretReport(tuple(range(1, 7)), 0, (0,) * 6)
        assert solve_regret_interval_exact(fam, u, guard=6) == expected
        monkeypatch.setenv("RWIS_GUARD_N", "6")
        assert solve_regret_interval_exact(fam, u) == expected


class TestEnvIntSettings:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("RWIS_GUARD_N", "junk")
        monkeypatch.setenv("RWIS_FRONTIER_CAP", "junk")
        assert core.resolve_guard(7) == 7
        assert resolve_frontier_cap(9) == 9

    def test_environment_then_default(self, monkeypatch):
        monkeypatch.delenv("RWIS_GUARD_N", raising=False)
        monkeypatch.delenv("RWIS_FRONTIER_CAP", raising=False)
        assert core.resolve_guard(None) == 20
        assert resolve_frontier_cap(None) == 5_000_000
        monkeypatch.setenv("RWIS_GUARD_N", "3")
        monkeypatch.setenv("RWIS_FRONTIER_CAP", "4")
        assert core.resolve_guard(None) == 3
        assert resolve_frontier_cap(None) == 4

    def test_non_integer_environment_messages(self, monkeypatch):
        monkeypatch.setenv("RWIS_GUARD_N", "2.5")
        monkeypatch.setenv("RWIS_FRONTIER_CAP", "many")
        with pytest.raises(ValidationError) as guard_err:
            core.resolve_guard(None)
        with pytest.raises(ValidationError) as cap_err:
            resolve_frontier_cap(None)
        assert str(guard_err.value) == "RWIS_GUARD_N must be an integer, got '2.5'"
        assert str(cap_err.value) == "RWIS_FRONTIER_CAP must be an integer, got 'many'"


class TestFptas:
    def test_all_zero_weights(self):
        scen = DiscreteScenarioSet(((0, 0), (0, 0)))
        assert fptas_max_min(TWO_FREE, scen, 0.5) == ((), 0)

    def test_single_scenario_matches_guarantee(self):
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3), (4, 5)])
        scen = DiscreteScenarioSet(((3, 4, 5),))
        for eps in (0.1, 1.0):
            value = fptas_max_min(fam, scen, eps)[1]
            assert Fraction(value) * (1 + Fraction(eps)) >= 9

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValidationError):
            fptas_max_min(TWO_FREE, UNIT_SCEN, 0)
        with pytest.raises(ValidationError):
            fptas_regret_discrete(TWO_FREE, UNIT_SCEN, -0.5)
        for eps in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValidationError, match="^epsilon must be a positive number"):
                fptas_max_min(TWO_FREE, UNIT_SCEN, eps)
            with pytest.raises(ValidationError, match="^epsilon must be a positive number"):
                fptas_regret_discrete(TWO_FREE, UNIT_SCEN, eps)

    def test_regret_single_scenario_exact_zero(self):
        scen = DiscreteScenarioSet(((2, 3),))
        assert fptas_regret_discrete(TWO_FREE, scen, 0.5).regret_value == 0

    def test_regret_two_clique_bound(self):
        report = fptas_regret_discrete(TWO_CLIQUE, UNIT_SCEN, 1)
        assert report.regret_value <= 2  # (1+eps) * opt with opt = 1

    def test_guarantees_against_exact(self):
        rng = random.Random(909)
        cases = [
            (*random_discrete(rng, max_k=2, w_max=10), rng.choice([0.25, 0.5, 1.0]))
            for _ in range(60)
        ]
        cases += [(fam, scen, eps) for fam, scen in golden_discrete() for eps in FPTAS_EPSILONS]
        for fam, scen, eps in cases:
            e = Fraction(eps)
            value = fptas_max_min(fam, scen, eps)[1]
            assert Fraction(value) * (1 + e) >= solve_max_min_exact(fam, scen)[1]
            regret = fptas_regret_discrete(fam, scen, eps).regret_value
            assert Fraction(regret) <= (1 + e) * solve_regret_discrete_exact(
                fam, scen
            ).regret_value

    def test_stopped_ladder_keeps_guarantee_below_full_ladder(self, frontier_runs):
        # the ladder skips the rungs above min_k c_k and stops at its first
        # rung with V <= the best value found: runs and result are the
        # model's, the value is a real set's, never above the full ladder's,
        # and meets value * (1+eps) >= opt; some results differ from the
        # full ladder's
        runs = frontier_runs
        cases = golden_discrete()
        rng = random.Random(5300)
        for k in range(1, 5):
            for w_max in (5, 100, 10**6):
                for _ in range(2):
                    inst = gen_random(
                        n=rng.randint(1, 12), model="discrete", k=k, w_max=w_max,
                        density=rng.choice([0.0, 0.3, 0.6, 1.0]), seed=rng.randrange(1 << 30),
                    )
                    cases.append((inst.family, inst.uncertainty))
        differ = 0
        for fam, scen in cases:
            for eps in FPTAS_EPSILONS:
                runs.clear()
                members, value = fptas_max_min(fam, scen, eps)
                assert (runs, (members, value)) == ladder_runs(fam, scen, eps)
                assert value == min(weight_under(members, s) for s in scen.scenarios)
                differ += assert_within_full_ladder(fam, scen, eps, value) != (members, value)
        assert len(cases) == 28
        assert differ > 0

    def test_stopped_ladder_can_return_less_than_full_ladder(self):
        # three disjoint intervals, one scenario: the rungs V = 114 and 57
        # both pick {1, 3} (the scaled sums tie with {1, 2, 3}), and 57 <= 105
        # stops the ladder; a later rung of the full ladder finds all three
        fam = IntervalFamily.from_pairs([(0, 0), (5, 6), (8, 9)])
        scen = DiscreteScenarioSet(((35, 9, 70),))
        assert fptas_max_min(fam, scen, 1) == ((1, 3), 105)
        assert oracles.ref_fptas_max_min(fam, scen, 1) == ((1, 2, 3), 114)
        assert solve_max_min_exact(fam, scen)[1] == 114

    def test_zero_best_value_runs_the_ladder_to_its_end(self, frontier_runs):
        # no set scores above 0, so trial <= best never fires and the ladder
        # runs from its first rung at most min_k c_k to its end: with
        # c = (5, 1) only V = 1 runs, with c = (5, 5) every rung down to the
        # limit matrix at V = 2, which V = 1 repeats
        runs = frontier_runs
        scen = DiscreteScenarioSet(((5, 0), (0, 1)))
        assert fptas_max_min(TWO_CLIQUE, scen, Fraction(1, 2)) == ((), 0)
        rungs, _, trials = oracles.ref_fptas_ladder(TWO_CLIQUE, scen, Fraction(1, 2))
        assert trials == [5, 2, 1] and runs == rungs[2:]
        assert (runs, ((), 0)) == ladder_runs(TWO_CLIQUE, scen, Fraction(1, 2))

        runs.clear()
        scen = DiscreteScenarioSet(((5, 0), (0, 5)))
        assert fptas_max_min(TWO_CLIQUE, scen, 8) == ((), 0)
        rungs, sat, trials = oracles.ref_fptas_ladder(TWO_CLIQUE, scen, 8)
        assert trials == [5, 2, 1] and runs == rungs[:2]
        assert rungs[1] == rungs[2] == [[sat, 0], [0, sat]]
        assert (runs, ((), 0)) == ladder_runs(TWO_CLIQUE, scen, 8)

    def test_zero_optimum_clique_ends_at_the_limit_matrix(self, frontier_runs):
        # a K=2 clique whose scenarios have disjoint supports: every set
        # scores 0 while min_k c_k = 10**6, so trial <= best never fires and
        # the limit matrix ends the ladder, 12 runs of its 20 rungs
        runs = frontier_runs
        fam, scen = ZERO_OPT_CLIQUE
        assert robust._optima(fam, scen) == [10**6, 10**6]
        assert solve_max_min_exact(fam, scen)[1] == 0
        for eps in FPTAS_EPSILONS:
            runs.clear()
            assert fptas_max_min(fam, scen, eps) == ((), 0)
            assert (runs, ((), 0)) == ladder_runs(fam, scen, eps)
            assert len(runs) == 12
            assert len(oracles.ref_fptas_ladder(fam, scen, eps)[0]) == 20

    def test_zero_scenario_optimum_returns_empty_set_without_a_run(self, frontier_runs):
        # min_k c_k = 0 bounds every set's worst case by 0: no rung runs
        runs = frontier_runs
        for scenarios in (((5, 0), (0, 0)), ((0, 0), (0, 0)), ((0, 3), (4, 4), (0, 0))):
            scen = DiscreteScenarioSet(scenarios)
            for eps in FPTAS_EPSILONS:
                assert fptas_max_min(TWO_CLIQUE, scen, eps) == ((), 0)
                assert (runs, ((), 0)) == ladder_runs(TWO_CLIQUE, scen, eps)
        assert runs == []

    def test_skipped_rung_can_hold_the_full_ladders_best(self):
        # c = (53, 20): the rungs V = 53 and 26 are above min_k c_k and do
        # not run; V = 53 is where the full ladder finds {1, 2}, worth 20,
        # while V = 13 picks {1}, worth 18 >= 20/(1+1), and stops the ladder
        fam = IntervalFamily.from_pairs([(0, 0), (5, 6)])
        scen = DiscreteScenarioSet(((38, 15), (18, 2)))
        assert robust._optima(fam, scen) == [53, 20]
        assert oracles.ref_fptas_ladder(fam, scen, 1)[2] == [53, 26, 13, 6, 3, 1]
        assert fptas_max_min(fam, scen, 1) == ((1,), 18)
        assert oracles.ref_fptas_max_min(fam, scen, 1) == ((1, 2), 20)
        assert solve_max_min_exact(fam, scen) == ((1, 2), 20)

    def test_no_rung_above_the_smallest_scenario_optimum_runs(self, frontier_runs):
        # every run is the matrix of a rung with V <= min_k c_k, the first of
        # them leads; on many instances some rung above min_k c_k has a
        # matrix no served rung has
        runs = frontier_runs
        rng = random.Random(5400)
        skipped_apart = 0
        for k in range(1, 5):
            for _ in range(20):
                inst = gen_random(
                    n=rng.randint(1, 10), model="discrete", k=k,
                    w_max=rng.choice([5, 100, 10**6]),
                    density=rng.choice([0.0, 0.3, 0.6]), seed=rng.randrange(1 << 30),
                )
                fam, scen = inst.family, inst.uncertainty
                eps = rng.choice(FPTAS_EPSILONS)
                runs.clear()
                fptas_max_min(fam, scen, eps)
                low = min(oracles.brute_opt(fam, s) for s in scen.scenarios)
                rungs, _, trials = oracles.ref_fptas_ladder(fam, scen, eps)
                served = [r for t, r in zip(trials, rungs) if t <= low]
                assert all(r in served for r in runs)
                assert runs[:1] == served[:1] if low else runs == []
                skipped_apart += any(
                    r not in served for t, r in zip(trials, rungs) if t > low
                )
        assert skipped_apart >= 20

    def test_guarantee_survives_large_weight_small_optimum(self):
        # surrogate bound UB is far above the optimum here; the scaling must
        # still deliver value >= opt/(1+eps)
        scen = DiscreteScenarioSet(((10, 1), (1, 10)))
        members, value = fptas_max_min(TWO_CLIQUE, scen, 1.0)
        assert Fraction(value) * 2 >= solve_max_min_exact(TWO_CLIQUE, scen)[1]
        assert value >= 1


# 120 copies of one interval, weights 10**6 and 1000 on alternate vertices of
# each scenario, 0 on the others: no vertex is nonzero in both scenarios
ZERO_OPT_CLIQUE = (
    IntervalFamily.from_pairs([(0, 1)] * 120),
    DiscreteScenarioSet(((10**6, 0, 1000, 0) * 30, (0, 10**6, 0, 1000) * 30)),
)


@pytest.fixture
def frontier_runs(monkeypatch):
    """The column matrices of every robust._frontier_levels call, in order."""
    runs = []
    real = robust._frontier_levels

    def counting(fam, columns, *args, **kwargs):
        runs.append(columns)
        return real(fam, columns, *args, **kwargs)

    monkeypatch.setattr(robust, "_frontier_levels", counting)
    return runs


def decoded_frontier_levels(fam, columns, cap, sat=None):
    """robust._frontier_levels with every packed vector decoded to its tuple."""
    levels, order, preds, bits, packed = robust._frontier_levels(fam, columns, cap, sat=sat)
    k = len(columns)
    assert robust._unpack(packed, k, bits) == list(zip(*columns))
    return [robust._unpack(vecs, k, bits) for vecs in levels], order, preds


def levels_as_reference(levels, order, preds, columns, sat):
    """The engine's levels in the reference DP's form: one dict per level,
    vector -> None (skip) or parent vector (take), each parent derived by
    the engine's value rule.  A vector also in level pos-1 skips.  A take
    with no field at sat has the parent v - w, which must be in level p(pos);
    any other take has the first vector of level p(pos) whose saturated
    shift by w is v."""
    out = [dict.fromkeys(levels[0])]
    for pos in range(1, len(levels)):
        w = tuple(col[order[pos - 1]] for col in columns)
        parents = levels[preds[pos - 1]]
        level = {}
        for v in levels[pos]:
            if v in levels[pos - 1]:
                level[v] = None
            elif sat is None or sat not in v:
                level[v] = tuple(a - b for a, b in zip(v, w))
                assert level[v] in parents
            else:
                shifted = [tuple(min(a + b, sat) for a, b in zip(u, w)) for u in parents]
                level[v] = parents[shifted.index(v)]
        out.append(level)
    return out


def assert_reference_levels(levels, order, preds, columns, ref, sat):
    """The engine's levels equal the reference DP's, all n+1 of them, in
    order and provenance."""
    got = levels_as_reference(levels, order, preds, columns, sat)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in ref]


def ladder_runs(fam, scen, eps):
    """The frontier runs fptas_max_min makes, and its result, by the
    reference ladder: the rungs in order, from the first rung whose trial
    bound is at most min_k c_k up to and including the first rung whose
    trial bound is at most the best value found so far, which is the limit
    matrix (every nonzero weight at sat), or whose trial bound is 1.  No
    rung runs when min_k c_k = 0.  The result is the first best over those
    runs."""
    rungs, sat, trials = oracles.ref_fptas_ladder(fam, scen, eps)
    low = min(oracles.left_scan_opt(fam, s) for s in scen.scenarios)
    limit = [[sat if w else 0 for w in s] for s in scen.scenarios]
    runs = []
    best = ((), 0)
    for trial, rung in zip(trials, rungs):
        if trial > low:
            continue
        runs.append(rung)
        members, value = oracles.ref_fptas_run(fam, scen, rung, sat)
        if value > best[1]:
            best = (members, value)
        if trial <= best[1] or rung == limit or trial == 1:
            break
    return runs, best


def assert_within_full_ladder(fam, scen, eps, value):
    """A max-min FPTAS value is never above the full reference ladder's and
    meets value * (1+eps) >= opt; returns the full ladder's result."""
    full = oracles.ref_fptas_max_min(fam, scen, eps)
    assert value <= full[1]
    assert value * (1 + Fraction(eps)) >= oracles.brute_max_min(fam, scen.scenarios)
    return full


def saturated_take_ties(fam, columns, sat):
    """Count levels where two parents saturate to the same shifted vector."""
    levels, order, preds = oracles.ref_frontier_levels(fam, columns, 5_000_000, sat=sat)
    ties = 0
    for pos in range(1, len(levels)):
        wvec = tuple(col[order[pos - 1]] for col in columns)
        shifted = [
            tuple(min(a + b, sat) for a, b in zip(u, wvec)) for u in levels[preds[pos - 1]]
        ]
        ties += len(shifted) != len(set(shifted))
    return ties


class TestFrontierEngine:
    def test_frontier_equals_pareto_max_of_all_set_sums(self):
        rng = random.Random(4040)
        for k in range(1, 6):
            for _ in range(15):
                fam, scen = random_discrete(rng, max_n=9, max_k=1, w_max=6)
                scen = DiscreteScenarioSet(tuple(
                    tuple(rng.randint(0, 6) for _ in range(scen.n)) for _ in range(k)
                ))
                front = pareto_frontier(fam, scen)
                assert set(front.vectors) == oracles.pareto_max_of_sets(fam, scen.scenarios)
                sat = rng.randint(1, 12)
                levels, _, _ = decoded_frontier_levels(fam, scen.scenarios, 10**6, sat=sat)
                assert set(levels[-1]) == oracles.pareto_max_of_sets(
                    fam, scen.scenarios, sat
                )

    def test_every_level_matches_reference_order_and_provenance(self):
        rng = random.Random(4141)
        for k in range(1, 6):
            for _ in range(12):
                fam, scen = random_discrete(rng, max_n=14, max_k=1, w_max=5)
                columns = tuple(
                    tuple(rng.randint(0, 5) for _ in range(scen.n)) for _ in range(k)
                )
                for sat in (None, rng.randint(1, 10)):
                    levels, order, preds = decoded_frontier_levels(fam, columns, 10**6, sat=sat)
                    ref, _, _ = oracles.ref_frontier_levels(fam, columns, 10**6, sat=sat)
                    assert_reference_levels(levels, order, preds, columns, ref, sat)

    def test_exact_solvers_match_reference_tie_breaks(self):
        rng = random.Random(4242)
        for k in range(1, 6):
            for _ in range(25):
                fam, scen = random_discrete(rng, max_n=12, max_k=1, w_max=rng.choice([1, 3, 8]))
                scen = DiscreteScenarioSet(tuple(
                    tuple(rng.randint(0, 3) for _ in range(scen.n)) for _ in range(k)
                ))
                assert solve_max_min_exact(fam, scen) == oracles.ref_max_min_exact(fam, scen)
                report = solve_regret_discrete_exact(fam, scen)
                assert (
                    report.solution, report.regret_value, report.witness_scenario
                ) == oracles.ref_regret_discrete_exact(fam, scen)

    def test_scaling_schemes_match_reference_tie_breaks(self):
        # large epsilon keeps the saturation value small, so saturated K=2
        # vectors from different parents tie often
        rng = random.Random(4343)
        ties = 0
        for k in (1, 2, 2, 2, 3):
            for _ in range(12):
                fam, scen = random_discrete(rng, max_n=12, max_k=1, w_max=10)
                scen = DiscreteScenarioSet(tuple(
                    tuple(rng.randint(0, 10) for _ in range(scen.n)) for _ in range(k)
                ))
                eps = rng.choice([Fraction(1, 2), 2, 4, 8])
                assert fptas_max_min(fam, scen, eps) == oracles.ref_fptas_max_min(fam, scen, eps)
                if k == 2:
                    rungs, sat, _ = oracles.ref_fptas_ladder(fam, scen, eps)
                    ties += sum(saturated_take_ties(fam, r, sat) for r in rungs)
                report = fptas_regret_discrete(fam, scen, eps)
                members = oracles.ref_fptas_regret_discrete(fam, scen, eps)
                if members is not None:
                    assert report == max_regret_discrete(fam, scen, members)
        assert ties > 0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_witness_sums_to_the_returned_vector(self, k):
        # the backtrack recovers parents from values alone; the members'
        # weights summed in right-endpoint order, saturating at sat when it
        # is set, must give back exactly the selected final vector
        rng = random.Random(5100 + k)
        for _ in range(25):
            fam, scen = random_discrete(rng, max_n=12, max_k=1, w_max=1)
            columns = tuple(
                tuple(rng.choice((0, 1, 2, 5, 9)) for _ in range(scen.n)) for _ in range(k)
            )
            order = core._prepared(fam)[0]
            for sat in (None, rng.randint(1, 12)):
                consts = [rng.randint(0, 40) for _ in range(k)]
                for score in (robust._neg_min, robust._regret_score(consts)):
                    members, vec = robust._frontier_best(fam, columns, None, score, sat=sat)
                    assert core._is_independent(fam, members)
                    total = [0] * k
                    for i in order:
                        if i + 1 in members:
                            total = [
                                x + col[i] if sat is None else min(x + col[i], sat)
                                for x, col in zip(total, columns)
                            ]
                    assert tuple(total) == vec

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_backtrack_from_every_final_vector_matches_reference(self, k):
        # a small sat makes several parents saturate onto one vector, and the
        # backtrack must then pick the first of them in level order
        rng = random.Random(5200 + k)
        ties = 0
        for _ in range(30):
            fam, scen = random_discrete(rng, max_n=12, max_k=1, w_max=1)
            sat = rng.randint(1, 6)
            columns = tuple(
                tuple(rng.randint(0, sat + 1) for _ in range(scen.n)) for _ in range(k)
            )
            for s in (None, sat):
                ref, order, preds = oracles.ref_frontier_levels(fam, columns, 10**6, sat=s)
                for target in ref[-1]:
                    got = robust._frontier_best(fam, columns, None, target.__ne__, sat=s)
                    assert got == (oracles.ref_backtrack(ref, order, preds, target), target)
            ties += saturated_take_ties(fam, columns, sat)
        assert ties > 0 or k == 1

    def test_ladder_runs_the_served_rungs_in_order(self, frontier_runs):
        # the runs are the ladder's matrices in order, from the first rung
        # at most min_k c_k up to the first rung whose trial bound is at
        # most the best value found; on these instances no run repeats the
        # matrix of an earlier one
        runs = frontier_runs
        rng = random.Random(4444)
        rungs_total = distinct_total = runs_total = 0
        for _ in range(30):
            fam, scen = random_discrete(rng, max_n=10, max_k=2, w_max=rng.choice([5, 1000]))
            eps = rng.choice([Fraction(1, 4), Fraction(1, 2), 1])
            runs.clear()
            result = fptas_max_min(fam, scen, eps)
            rungs, _, _ = oracles.ref_fptas_ladder(fam, scen, eps)
            distinct = {tuple(map(tuple, r)) for r in rungs}
            assert (runs, result) == ladder_runs(fam, scen, eps)
            assert len(runs) == len({tuple(map(tuple, r)) for r in runs})
            assert_within_full_ladder(fam, scen, eps, result[1])
            rungs_total += len(rungs)
            distinct_total += len(distinct)
            runs_total += len(runs)
        assert runs_total < distinct_total < rungs_total  # some rungs were skipped

    def test_scaling_k2_ladder_makes_one_run(self, frontier_runs):
        # a regression guard by count, not time: on n=120 K=2 instances with
        # weights up to 10**6 the first rung at most min_k c_k finds a set
        # worth at least its trial bound, which stops the ladder
        runs = frontier_runs
        for seed in range(5):
            inst = gen_random(n=120, model="discrete", k=2, w_max=10**6, density=0.5, seed=seed)
            runs.clear()
            fptas_max_min(inst.family, inst.uncertainty, Fraction(1, 2))
            assert len(runs) == 1

    def test_scaling_k2_ladder_makes_at_most_two_runs(self, frontier_runs):
        # a regression guard by count, not time: on n=120 K=2 instances with
        # weights up to 10**6 the ladder's best comes from its first two
        # rungs, and the next rung's trial bound is at most that best
        runs = frontier_runs
        for seed in range(5):
            inst = gen_random(n=120, model="discrete", k=2, w_max=10**6, density=0.5, seed=seed)
            runs.clear()
            fptas_max_min(inst.family, inst.uncertainty, Fraction(1, 2))
            assert 1 <= len(runs) <= 2

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_levels_after_saturation_match_reference(self, k):
        # sparse families with weights near sat reach the lone (sat, ..., sat)
        # vector early; the levels before it include unsaturated ones with a
        # single vector (every level when k == 1)
        rng = random.Random(4600 + k)
        early = single = 0
        for _ in range(40):
            fam, scen = random_discrete(rng, max_n=14, max_k=1, w_max=1)
            sat = rng.randint(1, 6)
            columns = tuple(
                tuple(rng.choice((0, 1, sat - 1, sat, sat + 2)) for _ in range(scen.n))
                for _ in range(k)
            )
            levels, order, preds = decoded_frontier_levels(fam, columns, 10**6, sat=sat)
            ref, _, _ = oracles.ref_frontier_levels(fam, columns, 10**6, sat=sat)
            assert_reference_levels(levels, order, preds, columns, ref, sat)
            vecs = levels
            if [(sat,) * k] in vecs:
                first = vecs.index([(sat,) * k])
                early += first < len(fam)
                single += any(len(v) == 1 for v in vecs[1:first])
        assert early >= 20 and single >= 20

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 20), st.integers(1, 20), st.integers(1, 30),
        st.integers(1, 10**6), st.data(),
    )
    def test_limit_stop_is_one_integer_comparison(self, p, q, n, trial, data):
        # fptas_max_min ends its ladder at cut <= smallest, cut the least
        # weight its scaling sends to sat and smallest the least nonzero
        # weight: exactly where the reference scaling gives the limit matrix,
        # every nonzero weight at sat and every zero at 0
        e = Fraction(p, q)
        sat_num = 2 * n * (1 + e) / e
        sat = -((-sat_num.numerator) // sat_num.denominator)
        num, den = p * trial, n * (p + q)
        cut = -(-sat * num // den)
        weight = st.sampled_from([0, 1, cut - 1, cut, cut + 1]) | st.integers(0, 3 * cut)
        columns = data.draw(st.lists(
            st.lists(weight, min_size=1, max_size=6), min_size=1, max_size=3
        ))
        nonzero = [w for col in columns for w in col if w]
        assume(nonzero)
        t = e * trial / (n * (1 + e))
        scaled = [[min(w * t.denominator // t.numerator, sat) for w in col] for col in columns]
        assert scaled == [[w * den // num if w < cut else sat for w in col] for col in columns]
        limit = [[sat if w else 0 for w in col] for col in columns]
        assert (cut <= min(nonzero)) == (scaled == limit)

    def test_fptas_on_long_ladders_matches_reference(self, frontier_runs):
        # weights up to 10**6 give ladders of about 20 rungs, most of them
        # ending at (sat, sat); the runs are the matrices of the rungs at
        # most min_k c_k, in order up to the first rung whose trial bound is
        # at most the best value found, which comes before the limit matrix
        # and V = 1 on most
        runs = frontier_runs
        rng = random.Random(4700)
        ended_early = stopped = 0
        for _ in range(12):
            fam, scen = random_discrete(rng, max_n=9, max_k=3, w_max=10**6)
            eps = rng.choice([Fraction(1, 2), 1, 3])
            runs.clear()
            result = fptas_max_min(fam, scen, eps)
            assert_within_full_ladder(fam, scen, eps, result[1])
            rungs, sat, trials = oracles.ref_fptas_ladder(fam, scen, eps)
            low = min(oracles.brute_opt(fam, s) for s in scen.scenarios)
            served = [r for t, r in zip(trials, rungs) if t <= low]
            distinct = [r for i, r in enumerate(served) if i == 0 or r != served[i - 1]]
            assert (runs, result) == ladder_runs(fam, scen, eps)
            assert runs == served[: len(runs)]
            stopped += len(runs) < len(distinct)
            limit = [[sat if w else 0 for w in s] for s in scen.scenarios]
            ended_early += limit in rungs[:-1]
        assert ended_early >= 10
        assert stopped >= 8

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cap_error_names_size_cap_and_interval(self, k):
        rng = random.Random(4500 + k)
        fam = IntervalFamily.from_pairs([(2 * (i // 2), 2 * (i // 2)) for i in range(14)])
        scen = DiscreteScenarioSet(tuple(
            tuple(rng.randint(0, 9) for _ in range(14)) for _ in range(k)
        ))
        peak = max(len(level) for level in oracles.ref_frontier_levels(fam, scen.scenarios, 10**6)[0])
        cap = peak - 1
        with pytest.raises(FrontierCapError) as ref:
            oracles.ref_frontier_levels(fam, scen.scenarios, cap)
        assert re.fullmatch(r"frontier size \d+ exceeds cap \d+ at interval \d+", str(ref.value))
        for solve in (pareto_frontier, solve_max_min_exact, solve_regret_discrete_exact):
            with pytest.raises(FrontierCapError) as got:
                solve(fam, scen, cap=cap)
            assert str(got.value) == str(ref.value)
        assert len(pareto_frontier(fam, scen, cap=peak).vectors) <= peak


def pack(vec, bits):
    """The engine's packing of a vector: first coordinate in the highest field."""
    out = 0
    for x in vec:
        out = (out << bits) | x
    return out


def assert_levels_match_reference(fam, columns, sat=None):
    levels, order, preds = decoded_frontier_levels(fam, columns, 10**6, sat=sat)
    ref, _, _ = oracles.ref_frontier_levels(fam, columns, 10**6, sat=sat)
    assert_reference_levels(levels, order, preds, columns, ref, sat)


class TestPackedVectors:
    """Differential cases for the packed-int frontier engine against the
    tuple-based reference DP in oracles."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_levels_match_reference_for_each_k(self, k):
        rng = random.Random(4800 + k)
        for _ in range(8):
            fam, scen = random_discrete(rng, max_n=9, max_k=1, w_max=1)
            columns = tuple(
                tuple(rng.randint(0, 4) for _ in range(scen.n)) for _ in range(k)
            )
            for sat in (None, rng.randint(1, 6)):
                assert_levels_match_reference(fam, columns, sat)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_empty_family(self, k):
        fam = IntervalFamily.from_pairs([])
        columns = ((),) * k
        for sat in (None, 3):
            levels, _, _ = decoded_frontier_levels(fam, columns, 10**6, sat=sat)
            assert levels == [[(0,) * k]]
        scen = DiscreteScenarioSet(columns)
        assert pareto_frontier(fam, scen).vectors == frozenset({(0,) * k})
        assert solve_max_min_exact(fam, scen) == ((), 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_all_zero_columns(self, k):
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3), (1, 2), (5, 6)])
        columns = ((0, 0, 0, 0),) * k
        for sat in (None, 1, 4):
            assert_levels_match_reference(fam, columns, sat)
        assert robust._frontier_levels(fam, columns, 10**6)[3] == 1
        scen = DiscreteScenarioSet(columns)
        assert solve_max_min_exact(fam, scen) == oracles.ref_max_min_exact(fam, scen)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_weights_above_sat(self, k):
        # a coordinate at sat can still take a weight above sat before it
        # saturates: the fields must hold sat plus the largest weight
        rng = random.Random(4900 + k)
        for _ in range(10):
            fam, scen = random_discrete(rng, max_n=10, max_k=1, w_max=1)
            sat = rng.randint(1, 5)
            columns = tuple(
                tuple(rng.choice((0, sat, sat + 1, 3 * sat + 7)) for _ in range(scen.n))
                for _ in range(k)
            )
            assert_levels_match_reference(fam, columns, sat)

    @pytest.mark.parametrize("base", [2**30, 2**60, 10**100])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_multi_digit_weights(self, base, k):
        # packed vectors of this size span several CPython int digits
        rng = random.Random(base % 1000 + k)
        for _ in range(5):
            fam, scen = random_discrete(rng, max_n=9, max_k=1, w_max=1)
            columns = tuple(
                tuple(base + rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(scen.n))
                for _ in range(k)
            )
            for sat in (None, base + rng.randint(-2, 2), 2 * base):
                assert_levels_match_reference(fam, columns, sat)
            scen = DiscreteScenarioSet(columns)
            assert set(pareto_frontier(fam, scen).vectors) == oracles.pareto_max_of_sets(fam, columns)
            assert solve_max_min_exact(fam, scen) == oracles.ref_max_min_exact(fam, scen)
            report = solve_regret_discrete_exact(fam, scen)
            assert (
                report.solution, report.regret_value, report.witness_scenario
            ) == oracles.ref_regret_discrete_exact(fam, scen)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, 40), min_size=k, max_size=k),
                st.lists(st.integers(0, 40), min_size=k, max_size=k),
                st.booleans(),
                st.integers(0, 70),
            )
        )
    )
    def test_dominance_test_agrees_with_componentwise_order(self, case):
        a, b, equal, slack = case
        if equal:
            b = list(a)
        k = len(a)
        bits = max(a + b).bit_length() + 1 + slack
        first, second = sorted([tuple(a), tuple(b)], reverse=True)
        vecs = [pack(first, bits), pack(second, bits)]
        assert robust._unpack(vecs, k, bits) == [first, second]
        # the later vector is dropped exactly when the earlier one dominates it
        kept = robust._pareto_max(vecs, k, bits)
        dominated = all(x <= y for x, y in zip(second, first))
        assert kept == (vecs[:1] if dominated else vecs)


@pytest.fixture
def saturate_calls(monkeypatch):
    """One flag per robust._saturate call, in order: True when the call
    lowered some field, so returned a new list."""
    calls = []
    real = robust._saturate

    def counting(vecs, sat, k, bits):
        out = real(vecs, sat, k, bits)
        calls.append(out is not vecs)
        return out

    monkeypatch.setattr(robust, "_saturate", counting)
    return calls


def near_sat_columns(rng, n, k, sat):
    """k columns of weights 0, 1, sat-1, sat or sat+2: sums reach sat fast."""
    return tuple(
        tuple(rng.choice((0, 1, sat - 1, sat, sat + 2)) for _ in range(n)) for _ in range(k)
    )


def end_vector_test_passes(level, w, sat, bits):
    """The K <= 2 test of robust._frontier_levels: no u + w, u in the
    packed level, has a field above sat."""
    mask = (1 << bits) - 1
    return (level[0] >> bits) + (w >> bits) <= sat and (level[-1] & mask) + (w & mask) <= sat


# the pinned K=2 instance of the CI step on saturating FPTAS levels: at eps
# 1/8, 1/2 and 8 the max-min scheme's levels lower some field to sat
K2_SATURATING = (((0, 1), (0, 2), (3, 4)), ((6, 7, 1), (9, 5, 9)))


class TestDecoderAndK2Saturation:
    """The list decoder, and the end-vector test that decides at K <= 2
    whether a shifted level needs the saturation scan."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_list_decoder_equals_per_field_extraction(self, k):
        rng = random.Random(5300 + k)
        decoded = 0
        for _ in range(12):
            fam, scen = random_discrete(rng, max_n=10, max_k=1, w_max=1)
            columns = tuple(
                tuple(rng.randint(0, 9) for _ in range(scen.n)) for _ in range(k)
            )
            for sat in (None, rng.randint(1, 12)):
                levels, _, _, bits, packed = robust._frontier_levels(fam, columns, 10**6, sat=sat)
                mask = (1 << bits) - 1
                for vecs in levels + [packed]:
                    want = [
                        tuple((v >> (bits * i)) & mask for i in range(k - 1, -1, -1))
                        for v in vecs
                    ]
                    assert robust._unpack(vecs, k, bits) == want
                    decoded += len(vecs)
        assert robust._unpack([], k, 5) == []
        assert decoded > 100

    def test_every_k2_level_is_a_strict_staircase(self):
        # levels built by the prune after a saturation, and shifted levels
        # kept as they are
        rng = random.Random(5400)
        kinds = {"saturated": 0, "shortcut": 0}
        for _ in range(60):
            fam, scen = random_discrete(rng, max_n=14, max_k=1, w_max=1)
            sat = rng.randint(1, 8)
            columns = near_sat_columns(rng, scen.n, 2, sat)
            for s in (None, sat):
                levels, order, preds, bits, packed = robust._frontier_levels(
                    fam, columns, 10**6, sat=s
                )
                for pos, vecs in enumerate(robust._unpack(level, 2, bits) for level in levels):
                    firsts = [x for x, _ in vecs]
                    lasts = [y for _, y in vecs]
                    assert firsts == sorted(set(firsts), reverse=True)
                    assert lasts == sorted(set(lasts))
                    if pos == 0 or s is None:
                        continue
                    parents = levels[preds[pos - 1]]
                    w = packed[order[pos - 1]]
                    if not end_vector_test_passes(parents, w, s, bits):
                        kinds["saturated"] += 1
                    elif preds[pos - 1] == pos - 1:
                        kinds["shortcut"] += 1
        assert min(kinds.values()) >= 20, kinds

    @pytest.mark.parametrize("k", [1, 2])
    def test_end_vector_test_is_exact_and_levels_match_reference(self, k, saturate_calls):
        # the test passes exactly where _saturate would return the shifted
        # level unchanged, every _saturate call the DP makes lowers a field,
        # and the levels are the reference DP's either way
        rng = random.Random(5500 + k)
        passed = failed = 0
        for _ in range(40):
            fam, scen = random_discrete(rng, max_n=14, max_k=1, w_max=1)
            sat = rng.randint(1, 6)
            columns = near_sat_columns(rng, scen.n, k, sat)
            saturate_calls.clear()
            levels, order, preds, bits, packed = robust._frontier_levels(
                fam, columns, 10**6, sat=sat
            )
            assert all(saturate_calls)
            calls = len(saturate_calls)
            for pos in range(1, len(levels)):
                parents = levels[preds[pos - 1]]
                w = packed[order[pos - 1]]
                shifted = [u + w for u in parents]
                passes = end_vector_test_passes(parents, w, sat, bits)
                assert passes == (robust._saturate(shifted, sat, k, bits) is shifted)
                passed += passes
                failed += not passes
            assert len(saturate_calls) - calls == len(levels) - 1
            assert calls == sum(
                not end_vector_test_passes(levels[preds[p - 1]], packed[order[p - 1]], sat, bits)
                for p in range(1, len(levels))
            )
            assert_levels_match_reference(fam, columns, sat)
        assert passed >= 40 and failed >= 15

    def test_k3_keeps_the_saturation_scan(self, saturate_calls):
        # every level is scanned, also where nothing comes near sat; a zero
        # first column leaves the end-vector test of K <= 2 nothing to refuse
        rng = random.Random(5600)
        for _ in range(10):
            fam, scen = random_discrete(rng, max_n=10, max_k=1, w_max=1)
            for sat in (50, 10**6):
                columns = near_sat_columns(rng, scen.n, 3, 50)
                for cols in (columns, ((0,) * scen.n,) + columns[1:]):
                    saturate_calls.clear()
                    levels = robust._frontier_levels(fam, cols, 10**6, sat=sat)[0]
                    assert len(saturate_calls) == len(levels) - 1

    def test_scaling_k2_fptas_makes_no_saturate_call(self, saturate_calls):
        # a regression guard by count, not time: on n=120 K=2 instances with
        # weights up to 10**6 the one rung that runs never needs saturating
        for seed in range(5):
            inst = gen_random(n=120, model="discrete", k=2, w_max=10**6, density=0.5, seed=seed)
            fptas_max_min(inst.family, inst.uncertainty, Fraction(1, 2))
        assert saturate_calls == []

    def test_saturating_k2_instance_still_saturates(self, saturate_calls, frontier_runs):
        pairs, columns = K2_SATURATING
        fam = IntervalFamily.from_pairs(pairs)
        scen = DiscreteScenarioSet(columns)
        for eps in (Fraction(1, 8), Fraction(1, 2), 8):
            saturate_calls.clear()
            frontier_runs.clear()
            result = fptas_max_min(fam, scen, eps)
            assert any(saturate_calls)
            assert (frontier_runs, result) == ladder_runs(fam, scen, eps)
            assert_within_full_ladder(fam, scen, eps, result[1])
        assert fptas_max_min(fam, scen, Fraction(1, 2)) == oracles.ref_fptas_max_min(
            fam, scen, Fraction(1, 2)
        )


# ---------------------------------------------------------------------------
# Incumbent prune of the exact discrete solvers and the regret FPTAS

PRUNE_EPS = (Fraction(1, 2), Fraction(1, 10))


@functools.cache
def prune_cases():
    """Seeded instances with the unpruned references' answers: K=1..8 with
    w <= 20, ties (w <= 2) at K=2..6, and K=2 n=120 with w <= 10**6.  Each
    case is (family, scenarios, max-min, (members, regret, witness), the
    regret FPTAS members per epsilon in PRUNE_EPS)."""
    rng = random.Random(3131)
    # (k, smallest n, largest n, w_max, instances)
    shapes = [(k, 1, n, 20, 25) for k, n in zip(range(1, 9), (40, 40, 26, 24, 22, 20, 20, 20))]
    shapes += [(k, 1, 30 if k <= 4 else 24, 2, 20) for k in range(2, 7)]
    shapes += [(2, 120, 120, 10**6, 20)]
    cases = []
    with pytest.MonkeyPatch.context() as mp:
        # c_k by the left-endpoint scan: brute_opt enumerates all 2^n sets
        mp.setattr(oracles, "brute_opt", oracles.left_scan_opt)
        for k, n_min, n_max, w_max, count in shapes:
            for _ in range(count):
                inst = gen_random(
                    n=rng.randint(n_min, n_max),
                    model="discrete",
                    k=k,
                    w_max=w_max,
                    density=rng.choice([0.3, 0.5, 0.7]),
                    seed=rng.randrange(1 << 30),
                )
                fam, scen = inst.family, inst.uncertainty
                cases.append((
                    fam,
                    scen,
                    oracles.ref_max_min_exact(fam, scen),
                    oracles.ref_regret_discrete_exact(fam, scen),
                    [oracles.ref_fptas_regret_discrete(fam, scen, eps) for eps in PRUNE_EPS],
                ))
    return cases


@pytest.fixture
def stored_levels(monkeypatch):
    """The levels of every robust._frontier_levels call, in order."""
    runs = []
    real = robust._frontier_levels

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        runs.append(out[0])
        return out

    monkeypatch.setattr(robust, "_frontier_levels", recording)
    return runs


def stored_counts(levels):
    """(vectors stored over all levels, vectors in the largest level)."""
    return sum(map(len, levels)), max(map(len, levels))


# Stored vectors (sum over levels, peak level) of one pruned run of each exact
# solver, instances gen_random(n, "discrete", k, w_max=20, density=0.5, seed):
# (k, n, seed): (regret sum, regret peak, max-min sum, max-min peak).  Each
# bound is the count measured when it was set; a change that lowers a count
# lowers its bound.  Unpruned, both solvers store 7,667 / 4,650 / 23,410
# vectors at K=4 n=60 seeds 0-2, with peak levels of 432 / 201 / 1,416.
REACH_PINS = {
    (4, 60, 0): (2525, 93, 845, 57),
    (4, 60, 1): (1647, 68, 2553, 83),
    (4, 60, 2): (3068, 141, 6744, 404),
    (6, 40, 0): (873, 60, 2924, 231),
    (6, 40, 1): (914, 62, 1174, 80),
    (6, 40, 2): (1138, 79, 4319, 423),
    (8, 40, 0): (1795, 149, 934, 69),
    (8, 40, 1): (2558, 309, 6652, 587),
}


class TestIncumbentPrune:
    @pytest.mark.parametrize("trigger", [0, robust._PRUNE_AT], ids=["every-level", "shipped"])
    def test_pruned_solvers_match_unpruned_references(self, monkeypatch, trigger):
        monkeypatch.setattr(robust, "_PRUNE_AT", trigger)
        cut_runs = []
        real = robust._level_cuts

        def counting(*args):
            cut_runs.append(args[1])
            return real(*args)

        monkeypatch.setattr(robust, "_level_cuts", counting)
        for fam, scen, max_min, regret, fptas in prune_cases():
            assert solve_max_min_exact(fam, scen) == max_min
            report = solve_regret_discrete_exact(fam, scen)
            assert (report.solution, report.regret_value, report.witness_scenario) == regret
            for eps, members in zip(PRUNE_EPS, fptas):
                report = fptas_regret_discrete(fam, scen, eps)
                if members is not None:
                    assert report == max_regret_discrete(fam, scen, members)
        ks = {len(columns) for columns in cut_runs}
        if trigger == 0:
            assert len(cut_runs) >= 1000 and ks == set(range(1, 9))
        else:
            # the shipped trigger still cuts: the K=2 n=120 cases, and the
            # larger levels at K >= 4
            assert len(cut_runs) >= 60 and {2, 4, 6, 8} <= ks

    @pytest.mark.parametrize("k, n, seed", sorted(REACH_PINS))
    def test_reach_pins(self, stored_levels, k, n, seed):
        inst = gen_random(n=n, model="discrete", k=k, w_max=20, density=0.5, seed=seed)
        solve_regret_discrete_exact(inst.family, inst.uncertainty)
        solve_max_min_exact(inst.family, inst.uncertainty)
        regret, max_min = map(stored_counts, stored_levels)
        counts = regret + max_min
        assert all(map(operator.le, counts, REACH_PINS[k, n, seed])), counts

    def test_cap_counts_the_stored_cut_level(self, stored_levels):
        inst = gen_random(n=60, model="discrete", k=4, w_max=20, density=0.5, seed=1)
        fam, scen = inst.family, inst.uncertainty
        _, full_peak = stored_counts(robust._frontier_levels(fam, scen.scenarios, None)[0])
        with pytest.raises(
            FrontierCapError,
            match=rf"^frontier size {full_peak} exceeds cap {full_peak - 1} at interval \d+$",
        ):
            pareto_frontier(fam, scen, cap=full_peak - 1)
        for solve in (solve_max_min_exact, solve_regret_discrete_exact):
            stored_levels.clear()
            answer = solve(fam, scen)
            (levels,) = stored_levels
            _, peak = stored_counts(levels)
            assert robust._PRUNE_AT < peak < full_peak
            with pytest.raises(
                FrontierCapError,
                match=rf"^frontier size {peak} exceeds cap {peak - 1} at interval \d+$",
            ):
                solve(fam, scen, cap=peak - 1)
            assert solve(fam, scen, cap=peak) == answer
