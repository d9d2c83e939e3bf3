"""Metamorphic checks of the exact max-min and regret solvers, both models.

Each test transforms an instance in a way whose effect on the optimum is
known (none, or a factor c) and compares the solver's answers on the two
instances.  The solvers run through `cli.dispatch_solve`, the path `rwis
solve` takes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rwis import (
    DiscreteScenarioSet,
    Instance,
    IntervalFamily,
    IntervalUncertainty,
    cli,
    max_min_value,
    max_regret_discrete,
    max_regret_interval,
)

PROBLEMS = st.sampled_from(["maxmin", "regret"])
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def families(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = []
    for _ in range(n):
        lo = draw(st.integers(min_value=0, max_value=10))
        pairs.append((lo, lo + draw(st.integers(min_value=0, max_value=4))))
    return IntervalFamily.from_pairs(pairs)


@st.composite
def discrete_instances(draw):
    fam = draw(families())
    k = draw(st.integers(min_value=1, max_value=3))
    weight = st.integers(min_value=0, max_value=6)
    rows = draw(st.lists(
        st.tuples(*[weight] * len(fam)), min_size=k, max_size=k
    ))
    return Instance(fam, DiscreteScenarioSet(tuple(rows)))


@st.composite
def range_instances(draw):
    fam = draw(families())
    lower = [draw(st.integers(min_value=0, max_value=5)) for _ in range(len(fam))]
    upper = [a + draw(st.integers(min_value=0, max_value=4)) for a in lower]
    return Instance(fam, IntervalUncertainty(tuple(lower), tuple(upper)))


instances = st.one_of(discrete_instances(), range_instances())


def solve(instance, problem):
    """(value, members, witness) of the exact solver."""
    return cli.dispatch_solve(instance, problem, "exact")


def evaluate(instance, problem, members):
    fam, u = instance.family, instance.uncertainty
    if isinstance(u, IntervalUncertainty):
        if problem == "maxmin":
            return max_min_value(fam, DiscreteScenarioSet((u.lower,)), members)
        return max_regret_interval(fam, u, members).regret_value
    if problem == "maxmin":
        return max_min_value(fam, u, members)
    return max_regret_discrete(fam, u, members).regret_value


def with_weights(instance, transform):
    """The instance with every weight vector passed through transform."""
    u = instance.uncertainty
    if isinstance(u, DiscreteScenarioSet):
        new = DiscreteScenarioSet(tuple(map(transform, u.scenarios)))
    else:
        new = IntervalUncertainty(transform(u.lower), transform(u.upper))
    return Instance(instance.family, new)


@given(discrete_instances(), PROBLEMS, st.data())
@SETTINGS
def test_permuting_and_duplicating_scenarios_keep_the_value(instance, problem, data):
    rows = list(instance.uncertainty.scenarios)
    value = solve(instance, problem)[0]
    permuted = data.draw(st.permutations(rows))
    duplicated = rows + [data.draw(st.sampled_from(rows))]
    for scenarios in (permuted, duplicated):
        changed = Instance(instance.family, DiscreteScenarioSet(tuple(scenarios)))
        assert solve(changed, problem)[0] == value


@given(instances, PROBLEMS, st.integers(min_value=-50, max_value=50))
@SETTINGS
def test_translating_endpoints_keeps_the_output(instance, problem, shift):
    fam = instance.family
    moved = IntervalFamily.from_pairs(
        (iv.lo + shift, iv.hi + shift) for iv in fam.intervals
    )
    assert solve(Instance(moved, instance.uncertainty), problem) == solve(instance, problem)


@given(instances, PROBLEMS, st.data())
@SETTINGS
def test_relabelling_vertices_keeps_the_value(instance, problem, data):
    fam = instance.family
    # new vertex j + 1 is old vertex order[j] + 1
    order = data.draw(st.permutations(range(len(fam))))
    moved = IntervalFamily(tuple(fam.intervals[i] for i in order))
    relabelled = with_weights(
        Instance(moved, instance.uncertainty), lambda w: tuple(w[i] for i in order)
    )
    value, members, _ = solve(relabelled, problem)
    assert value == solve(instance, problem)[0]
    # the solution, mapped back to the old labels, scores the same there
    assert evaluate(instance, problem, [order[j - 1] + 1 for j in members]) == value


@given(instances, PROBLEMS, st.integers(min_value=0, max_value=5))
@SETTINGS
def test_scaling_weights_scales_the_value(instance, problem, c):
    scaled = with_weights(instance, lambda w: tuple(c * x for x in w))
    assert solve(scaled, problem)[0] == c * solve(instance, problem)[0]
