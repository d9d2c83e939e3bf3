import enum
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwis import (
    DiscreteScenarioSet,
    GuardError,
    Instance,
    IntervalFamily,
    IntervalUncertainty,
    ValidationError,
    extreme_scenarios,
    worst_case_scenario,
)
from rwis.fileformat import instance_from_dict

import oracles


class Small(enum.IntEnum):
    ONE = 1


class Signed(enum.IntEnum):
    MINUS = -2
    TWO = 2


@st.composite
def uncertainties(draw, max_n=8, max_w=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    lower, upper = [], []
    for _ in range(n):
        a = draw(st.integers(min_value=0, max_value=max_w))
        b = draw(st.integers(min_value=0, max_value=max_w))
        lower.append(min(a, b))
        upper.append(max(a, b))
    return IntervalUncertainty(tuple(lower), tuple(upper))


class TestTypes:
    def test_scenario_set_needs_a_scenario(self):
        with pytest.raises(ValidationError):
            DiscreteScenarioSet(())
        assert DiscreteScenarioSet([[1, 2]]).scenarios == ((1, 2),)

    def test_scenario_lengths_must_agree(self):
        with pytest.raises(ValidationError):
            DiscreteScenarioSet(((1, 2), (1,)))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteScenarioSet(((1, -2),))

    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValidationError):
            IntervalUncertainty((3,), (2,))

    def test_bound_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            IntervalUncertainty((1, 2), (3,))

    def test_instance_dimension_check(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        with pytest.raises(ValidationError):
            Instance(fam, DiscreteScenarioSet(((1, 2),)))

    def test_instance_scaling_positive(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        with pytest.raises(ValidationError):
            Instance(fam, DiscreteScenarioSet(((1,),)), scaling_factor=0)

    # The file format has no booleans, so each constructor refuses them as
    # the reader does; an int subclass such as IntEnum is still accepted.

    def test_scenario_bool_rejected(self):
        with pytest.raises(ValidationError) as info:
            DiscreteScenarioSet(((1, 2), (1, True)))
        assert str(info.value) == "scenario weights must contain integers, got True"
        assert DiscreteScenarioSet(((Small.ONE, 2),)).scenarios == ((1, 2),)

    def test_range_bool_rejected(self):
        with pytest.raises(ValidationError) as info:
            IntervalUncertainty((0, False), (1, 1))
        assert str(info.value) == "lower bounds must contain integers, got False"
        with pytest.raises(ValidationError) as info:
            IntervalUncertainty((0, 0), (True, 1))
        assert str(info.value) == "upper bounds must contain integers, got True"
        assert IntervalUncertainty((Small.ONE,), (Small.ONE,)).upper == (1,)

    def test_instance_scaling_bool_rejected(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        with pytest.raises(ValidationError) as info:
            Instance(fam, DiscreteScenarioSet(((1,),)), scaling_factor=True)
        assert str(info.value) == "scaling factor must be a positive integer, got True"
        inst = Instance(fam, DiscreteScenarioSet(((1,),)), scaling_factor=Small.ONE)
        assert inst.scaling_factor == 1


def _outcome(build, *args):
    """(type, value) of a constructor call, or (exception type, message)."""
    try:
        model = build(*args)
    except Exception as exc:  # the exact type is the result compared
        return type(exc), str(exc)
    return type(model), model


def _read_model(unc, n):
    """The uncertainty model the file reader builds over n intervals."""
    doc = {
        "format_version": 1,
        "scaling_factor": 1,
        "intervals": [[2 * i, 2 * i + 1] for i in range(n)],
        "uncertainty": unc,
    }
    return instance_from_dict(doc).uncertainty


# Weight columns of int entries (an IntEnum among them) in a document, valid
# and in every shape the reader's type checks let through to the model.
RANGE_COLUMNS = {
    "valid": ([0, 1, 2], [3, 1, 2]),
    "int-enum": ([Small.ONE, 0], [Small.ONE, 4]),
    "empty": ([], []),
    "negative-lower": ([0, -1, -2], [1, 1, 1]),
    "negative-upper": ([0, 0], [-3, -4]),
    "negative-lower-before-upper": ([0, -5], [-1, 0]),
    "lower-above-upper": ([0, 5, 7], [1, 4, 6]),
    "unequal-lengths": ([1], [1, 2]),
    "unequal-lengths-before-order": ([5, 5], [4]),
    "negative-before-unequal-lengths": ([1, 2], [-1]),
}

SCENARIO_COLUMNS = {
    "valid": [[1, 2], [3, 0]],
    "one-empty-column": [[]],
    "int-enum": [[Small.ONE, 2]],
    "empty": [],
    "negative": [[1, -2]],
    "negative-in-a-later-column": [[1, 2, 0], [0, -2, -3]],
    "inconsistent-lengths": [[1, 2], [1], [4, 5, 6]],
    "negative-before-inconsistent-lengths": [[1, 2], [-1]],
}


class TestColumnConstructors:
    """The file reader builds the models through their public constructors:
    from int columns it gives the constructor's value and type, or its
    exception type and message."""

    @pytest.mark.parametrize("case", RANGE_COLUMNS)
    def test_ranges_match_the_constructor(self, case):
        lower, upper = RANGE_COLUMNS[case]
        unc = {"type": "interval", "lower": list(lower), "upper": list(upper)}
        got = _outcome(_read_model, unc, len(lower))
        assert got == _outcome(IntervalUncertainty, lower, upper)
        if got[0] is IntervalUncertainty:
            u = got[1]
            assert type(u.lower) is type(u.upper) is tuple
            assert repr(u) == repr(IntervalUncertainty(lower, upper))

    @pytest.mark.parametrize("case", SCENARIO_COLUMNS)
    def test_scenario_sets_match_the_constructor(self, case):
        rows = SCENARIO_COLUMNS[case]
        unc = {"type": "discrete", "scenarios": [list(r) for r in rows]}
        got = _outcome(_read_model, unc, len(rows[0]) if rows else 0)
        if not rows:  # the reader refuses an empty list before any model is built
            expected = (ValidationError, "discrete uncertainty needs a non-empty scenarios list")
        else:
            expected = _outcome(DiscreteScenarioSet, rows)
        assert got == expected
        if got[0] is DiscreteScenarioSet:
            scen = got[1]
            assert type(scen.scenarios) is tuple
            assert all(type(row) is tuple for row in scen.scenarios)
            assert repr(scen) == repr(DiscreteScenarioSet(rows))


def _model_outcome(lower, upper):
    """IntervalUncertainty(lower, upper) in oracles.ref_interval_uncertainty's
    form; a model also has its columns' and entries' types checked."""
    try:
        u = IntervalUncertainty(lower, upper)
    except Exception as exc:  # the exact type is part of the result compared
        return (type(exc).__name__, str(exc))
    assert type(u.lower) is type(u.upper) is tuple
    return ("interval", u.lower, u.upper)


# entries besides the small nonnegative ints most columns are drawn from
ODD_BOUNDS = (-1, -4, True, False, Small.ONE, Signed.MINUS, Signed.TWO, 2**70, 1.0, "3", None)
# one phrase of each refusal the differential must meet
BOUND_REFUSALS = ("lower bounds must contain", "lower bounds must be nonnegative",
                  "upper bounds must contain", "upper bounds must be nonnegative",
                  "different lengths", "exceeds")


def _random_bounds(rng):
    """A lower and an upper list, mostly lower <= upper entrywise, and the
    shape (list, tuple or iterator) to hand them to the constructor in."""
    odd = rng.choice((0.0, 0.05, 0.2))
    lower = [rng.choice(ODD_BOUNDS) if rng.random() < odd else rng.randint(0, 5)
             for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.7:
        upper = [x + rng.randint(-1, 3) if type(x) is int else x for x in lower]
        if upper and rng.random() < 0.3:
            upper[rng.randrange(len(upper))] = rng.choice(ODD_BOUNDS)
        if rng.random() < 0.15:
            upper = upper[:-1] if upper and rng.random() < 0.5 else upper + [rng.randint(0, 5)]
    else:
        upper = [rng.choice(ODD_BOUNDS) if rng.random() < odd else rng.randint(0, 5)
                 for _ in range(rng.randint(0, 5))]
    return lower, upper, rng.choice((list, tuple, iter))


class TestIntervalUncertaintyDifferential:
    """The range model's constructor against its checks written out in
    order (oracles.ref_interval_uncertainty): the same model, or the same
    exception type and message, whichever path the constructor takes."""

    @pytest.mark.parametrize("lower,upper", [
        ((0, 1, 2), (0, -1, 5)),
        ((3, 0), (3, -7)),
        ((0, 1), (-1, 1)),
        ((1, 2, 3), (-1, 5)),
        ((1, -2, 3), (4, 5)),
        ((2,), (1, 2)),
        ((True, 1), (2, 2)),
        ((1, 1), (False, 2)),
        ((Small.ONE, 0), (Small.ONE, 4)),
        ((0, 0), (Small.ONE, Small.ONE)),
        ((Signed.TWO, Signed.MINUS), (3, 3)),
        ((0, 5, 7), (1, 4, 6)),
        ((0, 5, 7), (1, 4, -6)),
        ((), ()),
        ((2**70,), (2**70 + 1,)),
        ((-1,), 5),
        ((1,), 5),
    ], ids=["negative-upper-nonnegative-lower", "negative-upper-last",
            "negative-upper-first", "unequal-lengths-negative-upper",
            "unequal-lengths-negative-lower", "unequal-lengths",
            "bool-lower", "bool-upper", "int-enum", "int-enum-upper", "negative-int-enum",
            "lower-above-upper", "negative-upper-before-order", "empty", "beyond-64-bits",
            "negative-lower-before-non-iterable-upper", "non-iterable-upper"])
    def test_named_columns(self, lower, upper):
        assert _model_outcome(lower, upper) == oracles.ref_interval_uncertainty(lower, upper)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_columns_match_the_reference(self, seed):
        rng = random.Random(seed)
        kinds = set()
        for _ in range(5_000):
            lower, upper, shape = _random_bounds(rng)
            expected = oracles.ref_interval_uncertainty(lower, upper)
            got = _model_outcome(shape(lower), shape(upper))
            assert got == expected, (lower, upper, shape)
            if got[0] == "interval":  # IntEnum entries are kept as given
                assert [*map(type, got[1] + got[2])] == [*map(type, lower + upper)]
                kinds.add("interval")
            else:
                kinds.add(next(key for key in BOUND_REFUSALS if key in got[1]))
        # models were built, and every kind of refusal occurred
        assert kinds == {"interval", *BOUND_REFUSALS}


class TestWorstCaseScenario:
    def test_direct_substitution(self):
        u = IntervalUncertainty((0, 0), (2, 3))
        assert worst_case_scenario(u, {1}) == (0, 3)

    def test_degenerate_ranges(self):
        u = IntervalUncertainty((4, 4), (4, 4))
        assert worst_case_scenario(u, {1}) == (4, 4)
        assert worst_case_scenario(u, set()) == (4, 4)

    def test_empty_solution_gets_upper(self):
        u = IntervalUncertainty((0, 1), (2, 3))
        assert worst_case_scenario(u, set()) == (2, 3)

    def test_index_out_of_range(self):
        u = IntervalUncertainty((0,), (1,))
        with pytest.raises(ValidationError):
            worst_case_scenario(u, {2})


class TestExtremeScenarios:
    def test_single_range(self):
        u = IntervalUncertainty((0,), (1,))
        assert list(extreme_scenarios(u)) == [(0,), (1,)]

    def test_degenerate_first_coordinate(self):
        u = IntervalUncertainty((0, 1), (0, 2))
        assert list(extreme_scenarios(u)) == [(0, 1), (0, 2)]

    def test_count_with_nondegenerate_coordinates(self):
        u = IntervalUncertainty((0,) * 5, (1,) * 5)
        assert sum(1 for _ in extreme_scenarios(u)) == 2 ** 5

    def test_guard(self):
        u = IntervalUncertainty((0,) * 13, (1,) * 13)
        with pytest.raises(GuardError):
            extreme_scenarios(u)
        assert sum(1 for _ in extreme_scenarios(u, guard=13)) == 2 ** 13

    def test_guard_ignores_the_enumeration_guard_variable(self, monkeypatch):
        # RWIS_GUARD_N is the enumeration guard; only `guard` moves this one
        small = IntervalUncertainty((0,) * 4, (1,) * 4)
        large = IntervalUncertainty((0,) * 14, (1,) * 14)
        monkeypatch.setenv("RWIS_GUARD_N", "3")
        assert sum(1 for _ in extreme_scenarios(small)) == 2 ** 4
        with pytest.raises(GuardError):
            extreme_scenarios(small, guard=3)
        monkeypatch.setenv("RWIS_GUARD_N", "16")
        with pytest.raises(GuardError) as info:
            extreme_scenarios(large)
        assert str(info.value) == "14 vertices exceed extreme-scenario guard 12"
        assert sum(1 for _ in extreme_scenarios(large, guard=14)) == 2 ** 14

    @given(uncertainties(), st.data())
    @settings(max_examples=100)
    def test_worst_case_is_an_extreme_scenario(self, u, data):
        members = data.draw(
            st.sets(st.integers(min_value=1, max_value=max(u.n, 1)))
            if u.n
            else st.just(set())
        )
        members = {i for i in members if i <= u.n}
        sx = worst_case_scenario(u, members)
        assert sx in set(extreme_scenarios(u))

    @given(uncertainties(), st.data())
    @settings(max_examples=100)
    def test_worst_case_minimizes_member_coordinates(self, u, data):
        members = data.draw(
            st.sets(st.integers(min_value=1, max_value=max(u.n, 1)))
            if u.n
            else st.just(set())
        )
        members = sorted(i for i in members if i <= u.n)
        sx = worst_case_scenario(u, members)
        for s in extreme_scenarios(u):
            for i in members:
                assert sx[i - 1] <= s[i - 1]
