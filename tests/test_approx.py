import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from rwis import (
    DiscreteScenarioSet,
    GuardError,
    IntervalFamily,
    IntervalUncertainty,
    ValidationError,
    adversarial_ratio,
    gen_random,
    gen_tight_k,
    gen_tight_midpoint,
    k_approx_regret,
    max_weight_is_all_optima,
    midpoint_approx_regret,
    solve_regret_discrete_exact,
    solve_regret_interval_exact,
)
from rwis import approx, core, robust

import oracles


def random_instance(rng, model, max_n, max_k=4, w_max=8):
    kwargs = dict(
        n=rng.randint(1, max_n),
        model=model,
        w_max=w_max,
        density=rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]),
        seed=rng.randrange(1 << 30),
    )
    if model == "discrete":
        kwargs["k"] = rng.randint(1, max_k)
    inst = gen_random(**kwargs)
    return inst.family, inst.uncertainty


class TestKApprox:
    def test_single_scenario_zero_regret(self):
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3), (4, 5)])
        scen = DiscreteScenarioSet(((3, 4, 5),))
        assert k_approx_regret(fam, scen).regret_value == 0

    def test_identical_scenarios_zero_regret(self):
        fam = IntervalFamily.from_pairs([(0, 1), (0, 1), (2, 3)])
        scen = DiscreteScenarioSet(((2, 5, 1),) * 3)
        assert k_approx_regret(fam, scen).regret_value == 0

    def test_tight_instance_has_a_full_ratio_tie(self):
        inst = gen_tight_k(2)
        opt = solve_regret_discrete_exact(inst.family, inst.uncertainty).regret_value
        worst = k_approx_regret(
            inst.family, inst.uncertainty, ties="adversarial"
        ).regret_value
        assert opt == 1 and worst == 2

    def test_guarantee_on_random_instances(self):
        rng = random.Random(4242)
        for _ in range(120):
            fam, scen = random_instance(rng, "discrete", max_n=14)
            got = k_approx_regret(fam, scen).regret_value
            opt = solve_regret_discrete_exact(fam, scen).regret_value
            assert got <= scen.k * opt

    def test_unknown_tie_mode(self):
        inst = gen_tight_k(2)
        with pytest.raises(ValidationError):
            k_approx_regret(inst.family, inst.uncertainty, ties="worst")

    @pytest.mark.parametrize("ties", ["canonical", "adversarial"])
    def test_size_mismatch_names_the_weight_vector(self, ties):
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3)])
        scen = DiscreteScenarioSet(((1, 2, 3),))
        with pytest.raises(ValidationError) as info:
            k_approx_regret(fam, scen, ties=ties)
        assert str(info.value) == "uncertainty covers 3 vertices, family has 2"

    def test_refusals_come_before_any_scenario_optimum(self, monkeypatch):
        inst = gen_random(n=21, model="discrete", k=2, w_max=5, density=0.5, seed=1)
        monkeypatch.setattr(robust, "_opt_weight", lambda *a: pytest.fail("solved"))
        with pytest.raises(GuardError):
            k_approx_regret(inst.family, inst.uncertainty, ties="adversarial")
        with pytest.raises(ValidationError, match="unknown tie mode"):
            k_approx_regret(inst.family, inst.uncertainty, ties="worst")


class TestMidpointApprox:
    @pytest.mark.parametrize("ties", ["canonical", "adversarial"])
    def test_size_mismatch_names_the_uncertainty(self, ties):
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3)])
        u = IntervalUncertainty((1, 2, 3), (4, 5, 6))
        with pytest.raises(ValidationError) as info:
            midpoint_approx_regret(fam, u, ties=ties)
        assert str(info.value) == "uncertainty covers 3 vertices, family has 2"

    def test_degenerate_ranges_zero_regret(self):
        fam = IntervalFamily.from_pairs([(0, 1), (0, 1)])
        u = IntervalUncertainty((2, 7), (2, 7))
        assert midpoint_approx_regret(fam, u).regret_value == 0

    def test_tight_three_clique_tie_modes(self):
        inst = gen_tight_midpoint()
        fam, u = inst.family, inst.uncertainty
        assert midpoint_approx_regret(fam, u).regret_value == 1
        assert midpoint_approx_regret(fam, u, ties="adversarial").regret_value == 2
        assert solve_regret_interval_exact(fam, u).regret_value == 1

    def test_two_disjoint_vertices(self):
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3)])
        u = IntervalUncertainty((1, 0), (3, 4))
        report = midpoint_approx_regret(fam, u)
        assert report.solution == (1, 2)
        opt = solve_regret_interval_exact(fam, u).regret_value
        assert report.regret_value <= 2 * opt

    def test_guarantee_on_random_instances(self):
        rng = random.Random(777)
        for _ in range(120):
            fam, u = random_instance(rng, "interval", max_n=12)
            got = midpoint_approx_regret(fam, u).regret_value
            opt = solve_regret_interval_exact(fam, u).regret_value
            assert got <= 2 * opt

    @pytest.mark.parametrize("ties", ["canonical", "adversarial"])
    def test_report_equals_the_public_evaluator_on_its_solution(self, ties):
        # midpoint scores its own sets without the evaluator's member checks
        rng = random.Random(2802)
        cases = [random_instance(rng, "interval", max_n=10) for _ in range(100)]
        inst = gen_tight_midpoint()
        for fam, u in cases + [(inst.family, inst.uncertainty)]:
            report = midpoint_approx_regret(fam, u, ties=ties)
            assert report == robust.max_regret_interval(fam, u, report.solution)


class TestSurrogateInvariance:
    def test_summed_vs_averaged_weights_same_optima(self):
        # dividing the surrogate by K (or 2) is a positive monotone transform;
        # the optimizer sets must coincide, checked against a rational oracle
        rng = random.Random(310)
        for _ in range(40):
            fam, scen = random_instance(rng, "discrete", max_n=8, max_k=3)
            summed = tuple(sum(col) for col in zip(*scen.scenarios))
            averaged = tuple(Fraction(s, scen.k) for s in summed)
            assert max_weight_is_all_optima(fam, summed) == oracles.brute_optima_rational(
                fam, averaged
            )
        for _ in range(40):
            fam, u = random_instance(rng, "interval", max_n=8)
            summed = tuple(a + b for a, b in zip(u.lower, u.upper))
            midpoints = tuple(Fraction(s, 2) for s in summed)
            assert max_weight_is_all_optima(fam, summed) == oracles.brute_optima_rational(
                fam, midpoints
            )


class TestAdversarialRatio:
    def test_single_scenario_convention(self):
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3)])
        scen = DiscreteScenarioSet(((1, 2),))
        assert adversarial_ratio(fam, scen) == 1

    def test_tight_midpoint_instance(self):
        inst = gen_tight_midpoint()
        assert adversarial_ratio(inst.family, inst.uncertainty) == Fraction(2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_tight_k_instances(self, k):
        inst = gen_tight_k(k)
        assert adversarial_ratio(inst.family, inst.uncertainty) == Fraction(k)

    def test_zero_optimum_zero_worst_convention(self):
        fam = IntervalFamily.from_pairs([(0, 1), (0, 1)])
        scen = DiscreteScenarioSet(((1, 1), (1, 1)))
        u = IntervalUncertainty((0, 0), (1, 1))
        assert adversarial_ratio(fam, scen) == 1
        assert adversarial_ratio(fam, u) == 1

    def test_algorithm_mismatch_rejected(self):
        inst = gen_tight_midpoint()
        with pytest.raises(ValidationError):
            adversarial_ratio(inst.family, inst.uncertainty, algorithm="kapprox")

    def test_algorithm_mismatch_refused_before_the_guard(self):
        # 30 vertices exceed the enumeration guard of the exact solver
        inst = gen_random(n=30, model="interval", w_max=5, density=0.5, seed=3)
        with pytest.raises(ValidationError) as info:
            adversarial_ratio(inst.family, inst.uncertainty, algorithm="kapprox")
        assert str(info.value) == (
            "algorithm 'kapprox' does not apply to this uncertainty model"
        )

    @pytest.mark.parametrize(
        "inst,algorithm,line",
        [
            (gen_tight_k(2), "midpoint",
             "algorithm 'midpoint' does not apply to this uncertainty model"),
            (gen_tight_midpoint(), "kapprox",
             "algorithm 'kapprox' does not apply to this uncertainty model"),
            (SimpleNamespace(family=gen_tight_k(2).family, uncertainty=(1, 2)), None,
             "unknown uncertainty model (1, 2)"),
        ],
        ids=["discrete", "ranges", "non-model"],
    )
    def test_algorithm_mismatch_refused_before_solving(self, monkeypatch, inst, algorithm, line):
        calls = []
        for module, name in [
            (core, "_max_weight_is"),
            (robust, "solve_regret_discrete_exact"),
            (robust, "solve_regret_interval_exact"),
            (approx, "k_approx_regret"),
            (approx, "midpoint_approx_regret"),
        ]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **kw: calls.append(name))
        with pytest.raises(ValidationError) as info:
            adversarial_ratio(inst.family, inst.uncertainty, algorithm=algorithm)
        assert str(info.value) == line
        assert calls == []

    def test_ratio_bounded_by_guarantee_everywhere(self):
        # the ratio bound holds for every tie-broken output, so the worst tie
        # can never exceed the guarantee (and a zero optimum forces ratio 1)
        rng = random.Random(11811)
        for _ in range(50):
            fam, scen = random_instance(rng, "discrete", max_n=8, max_k=3)
            ratio = adversarial_ratio(fam, scen)
            assert ratio != math.inf and ratio <= scen.k
        for _ in range(50):
            fam, u = random_instance(rng, "interval", max_n=8)
            ratio = adversarial_ratio(fam, u)
            assert ratio != math.inf and ratio <= 2
