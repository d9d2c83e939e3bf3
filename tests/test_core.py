import copy
import dataclasses
import enum
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwis import (
    GuardError,
    Interval,
    IntervalFamily,
    ValidationError,
    enumerate_independent_sets,
    is_independent,
    max_weight_is,
    max_weight_is_all_optima,
    overlaps,
)
from rwis import core

import oracles


@st.composite
def families(draw, max_n=10, max_coord=30, max_span=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = []
    for _ in range(n):
        lo = draw(st.integers(min_value=0, max_value=max_coord))
        pairs.append((lo, lo + draw(st.integers(min_value=0, max_value=max_span))))
    return IntervalFamily.from_pairs(pairs)


@st.composite
def families_with_weights(draw, max_n=10, max_w=10):
    fam = draw(families(max_n=max_n))
    w = tuple(
        draw(st.integers(min_value=0, max_value=max_w)) for _ in range(len(fam))
    )
    return fam, w


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValidationError):
            Interval(3, 2)

    def test_rejects_non_integer(self):
        with pytest.raises(ValidationError):
            Interval(0.5, 2)

    @pytest.mark.parametrize("lo,hi", [(True, 2), (0, True), (False, False)])
    def test_rejects_bool(self, lo, hi):
        # the file format has no booleans: a family written from them could
        # not be read back
        with pytest.raises(ValidationError) as info:
            Interval(lo, hi)
        assert str(info.value) == (
            f"interval endpoints must be integers, got [{lo!r}, {hi!r}]"
        )
        with pytest.raises(ValidationError):
            IntervalFamily.from_pairs([(0, 1), (lo, hi)])

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((2, 3), (3, 5), True),  # shared endpoint of closed intervals
            ((2, 3), (4, 5), False),
            ((2, 3), (2, 3), True),
        ],
    )
    def test_overlaps_examples(self, a, b, expected):
        assert overlaps(Interval(*a), Interval(*b)) is expected

    @given(st.integers(0, 50), st.integers(0, 10), st.integers(0, 50), st.integers(0, 10))
    def test_overlap_symmetric(self, lo1, s1, lo2, s2):
        a, b = Interval(lo1, lo1 + s1), Interval(lo2, lo2 + s2)
        assert overlaps(a, b) == overlaps(b, a)

    @given(st.integers(0, 50), st.integers(0, 10))
    def test_overlap_reflexive(self, lo, s):
        a = Interval(lo, lo + s)
        assert overlaps(a, a)


class TestIsIndependent:
    def test_disjoint_pair(self):
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3)])
        assert is_independent(fam, {1, 2})

    def test_overlapping_pair(self):
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3)])
        assert not is_independent(fam, {1, 2})

    def test_empty_set_always_independent(self):
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3)])
        assert is_independent(fam, set())

    def test_index_out_of_range(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        with pytest.raises(ValidationError):
            is_independent(fam, {2})
        with pytest.raises(ValidationError) as info:
            fam.interval(2)
        assert str(info.value) == "vertex index 2 out of range 1..1"

    @pytest.mark.parametrize("seed", range(4))
    def test_checked_indices_match_the_tuple_sort_reference(self, seed):
        # endpoints on 0..8, so member sets often hold touching endpoints,
        # equal left endpoints and single points; half the sets keep only
        # members disjoint from those kept before, so that both answers occur
        rng = random.Random(seed)
        seen = set()
        for _ in range(300):
            n = rng.randint(0, 12)
            pairs = []
            for _ in range(n):
                lo = rng.randint(0, 8)
                pairs.append((lo, lo + rng.choice((0, 0, 1, 2, 3))))
            fam = IntervalFamily.from_pairs(pairs)
            members = rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))
            if rng.random() < 0.5:
                kept = []
                for i in members:
                    lo, hi = pairs[i - 1]
                    if all(hi < pairs[j - 1][0] or pairs[j - 1][1] < lo for j in kept):
                        kept.append(i)
                members = kept
            idx = core.check_members(n, members)
            got = core._is_independent(fam, idx)
            assert got == oracles.ref_is_independent_sorted(fam, idx), (pairs, idx)
            ivs = [pairs[i - 1] for i in idx]
            seen.add(got)
            seen.update(
                tag for tag, hit in (
                    ("touching", any(a[1] == b[0] for a in ivs for b in ivs if a != b)),
                    ("equal-lo", len({lo for lo, _ in ivs}) < len(ivs)),
                    ("point", any(lo == hi for lo, hi in ivs)),
                ) if hit
            )
        assert seen == {True, False, "touching", "equal-lo", "point"}


def tricky_family(rng, n):
    """Seeded family mixing duplicate, touching, nested and degenerate intervals."""
    pairs = []
    for _ in range(n):
        kind = rng.randrange(5) if pairs else 4
        if kind == 0:  # duplicate of an earlier interval
            pairs.append(rng.choice(pairs))
        elif kind == 1:  # starts where an earlier one ends
            end = rng.choice(pairs)[1]
            pairs.append((end, end + rng.randint(0, 6)))
        elif kind == 2:  # nested inside an earlier one
            lo, hi = rng.choice(pairs)
            a = rng.randint(lo, hi)
            pairs.append((a, rng.randint(a, hi)))
        elif kind == 3:  # a single point
            x = rng.randint(0, 80)
            pairs.append((x, x))
        else:
            lo = rng.randint(0, 80)
            pairs.append((lo, lo + rng.randint(0, 15)))
    return IntervalFamily.from_pairs(pairs)


TRICKY = [
    tricky_family(random.Random(seed), n)
    for seed, n in enumerate([0, 1, 1, 2, 3, 5, 8, 13, 30, 60, 100, 150, 200, 200])
]


# endpoint values near 0 (negative ones too), around 2**64, or anywhere in
# +-2**70; a family draws from a small pool of them, so equal, touching and
# zero-length intervals are common
ENDPOINTS = st.one_of(
    st.integers(-6, 6), st.integers(2**64 - 3, 2**64 + 3), st.integers(-(2**70), 2**70)
)


@st.composite
def wide_families_with_weights(draw, max_n=12):
    pool = draw(st.lists(ENDPOINTS, min_size=1, max_size=6))
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [
        tuple(sorted(draw(st.tuples(st.sampled_from(pool), st.sampled_from(pool)))))
        for _ in range(n)
    ]
    w = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    return IntervalFamily.from_pairs(pairs), w


WIDE_EXAMPLES = [
    [],
    [(5, 5)],
    [(-3, 2)],
    [(7, 7)] * 4,
    [(-4, -2), (-2, 0), (0, 0), (0, 3), (-9, -4)],
    [(2**64, 2**64 + 5), (-(2**70), 2**64), (2**64 + 5, 2**64 + 5), (2**70, 2**70)],
]


def with_wide_examples(test):
    for pairs in WIDE_EXAMPLES:
        fam = IntervalFamily.from_pairs(pairs)
        test = example((fam, list(range(1, len(fam) + 1))))(test)
    return test


class TestMergedCounts:
    """_prepared's predecessors and _completions' after_end come from merges
    of two sorted orders; the references binary-search each interval."""

    @given(wide_families_with_weights())
    @with_wide_examples
    @settings(max_examples=200, deadline=None)
    def test_prepared_matches_the_bisect_reference(self, fam_w):
        fam, _ = fam_w
        assert core._prepared.__wrapped__(fam) == oracles.ref_prepared(fam)

    @given(wide_families_with_weights())
    @with_wide_examples
    @settings(max_examples=200, deadline=None)
    def test_completions_match_the_bisect_reference(self, fam_w):
        fam, w = fam_w
        assert core._completions(fam, w) == oracles.ref_completions(fam, w)

    @pytest.mark.parametrize("fam", TRICKY, ids=lambda f: f"n{len(f)}")
    def test_completions_match_the_bisect_reference_on_tricky_families(self, fam):
        w = [random.Random(len(fam)).randint(0, 9) for _ in range(len(fam))]
        assert core._completions(fam, w) == oracles.ref_completions(fam, w)


class TestPreparation:
    @pytest.mark.parametrize("fam", TRICKY, ids=lambda f: f"n{len(f)}")
    def test_prepared_matches_key_sort_reference(self, fam):
        assert core._prepared.__wrapped__(fam) == oracles.ref_prepared(fam)

    @pytest.mark.parametrize("fam", TRICKY, ids=lambda f: f"n{len(f)}")
    def test_is_independent_matches_pairwise_oracle(self, fam):
        rng = random.Random(len(fam))
        n = len(fam)
        subsets = [(), tuple(range(1, n + 1))]
        subsets += [tuple(rng.sample(range(1, n + 1), min(n, k))) for k in (1, 2, 3, 5)]
        # greedy disjoint sets in right-endpoint order, so that True cases occur
        for _ in range(10):
            chosen, end = [], None
            for i in sorted(range(n), key=lambda i: fam.intervals[i].hi):
                if (end is None or fam.intervals[i].lo > end) and rng.random() < 0.7:
                    chosen.append(i + 1)
                    end = fam.intervals[i].hi
            subsets.append(tuple(chosen))
            if len(chosen) > 1:  # one more vertex overlapping a chosen one
                subsets.append(tuple(chosen) + (rng.randint(1, n),))
        assert any(oracles.pairwise_independent(fam, m) for m in subsets)
        for members in subsets:
            assert is_independent(fam, members) == oracles.pairwise_independent(
                fam, members
            ), members

    @pytest.mark.parametrize("fam", TRICKY, ids=lambda f: f"n{len(f)}")
    def test_equal_families_hash_equally(self, fam):
        pairs = [(iv.lo, iv.hi) for iv in fam.intervals]
        twin = IntervalFamily(list(map(Interval, *zip(*pairs))) if pairs else [])
        assert twin is not fam and twin == fam and hash(twin) == hash(fam)
        assert {fam: 1}[twin] == 1

    @pytest.mark.parametrize("fam", TRICKY[1:], ids=lambda f: f"n{len(f)}")
    def test_one_endpoint_changed_is_unequal(self, fam):
        pairs = [(iv.lo, iv.hi) for iv in fam.intervals]
        last = len(pairs) - 1
        lo, hi = pairs[last]
        for changed in ((lo, hi + 1), (lo - 1, hi)):
            other = IntervalFamily.from_pairs(pairs[:last] + [changed])
            assert other != fam and not (other == fam)

    def test_order_matters(self):
        a = IntervalFamily.from_pairs([(0, 1), (2, 3)])
        b = IntervalFamily.from_pairs([(2, 3), (0, 1)])
        assert a != b

    def test_comparison_with_a_non_family_is_false(self):
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3)])
        assert (fam == fam.intervals) is False
        assert (fam == ((0, 1), (2, 3))) is False
        assert (fam == None) is False  # noqa: E711
        assert (fam != 3) is True

    def test_fields_and_repr_unchanged(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        assert [f.name for f in dataclasses.fields(fam)] == ["intervals"]
        assert repr(fam) == "IntervalFamily(intervals=(Interval(lo=0, hi=1),))"
        assert fam.intervals == (Interval(0, 1),)

    def test_column_built_family_matches_its_interval_built_twin(self):
        pairs = [(0, 3), (2, 2), (4, 9), (1, 5)]
        los, his = map(list, zip(*pairs))
        fam = IntervalFamily._from_columns(los, his)
        twin = IntervalFamily.from_pairs(pairs)
        assert "intervals" not in vars(fam)
        assert fam == twin and twin == fam and hash(fam) == hash(twin)
        assert len(fam) == fam.n == 4 and "intervals" not in vars(fam)
        assert fam.intervals == twin.intervals and "intervals" in vars(fam)
        assert fam.intervals is fam.intervals
        assert repr(fam) == repr(twin) and fam.interval(3) == Interval(4, 9)
        assert [f.name for f in dataclasses.fields(fam)] == ["intervals"]

    def test_empty_column_built_family(self):
        fam = IntervalFamily._from_columns([], [])
        assert fam == IntervalFamily(()) and len(fam) == 0 and fam.intervals == ()

    @pytest.mark.parametrize("copier", [
        lambda f: pickle.loads(pickle.dumps(f)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    @pytest.mark.parametrize("forced", [False, True], ids=["lazy", "forced"])
    def test_column_built_family_round_trips(self, copier, forced):
        fam = IntervalFamily._from_columns([0, 2, 5], [1, 4, 5])
        if forced:
            fam.intervals
        out = copier(fam)
        assert out == fam and hash(out) == hash(fam)
        assert out.intervals == IntervalFamily.from_pairs([(0, 1), (2, 4), (5, 5)]).intervals

    def test_lazy_attribute_leaves_other_names_missing(self):
        fam = IntervalFamily._from_columns([0], [1])
        with pytest.raises(AttributeError):
            fam.weights
        assert not hasattr(fam, "__deepcopy__")
        assert "intervals" not in vars(fam)

    @pytest.mark.parametrize("los, his, message", [
        ([0, 5, 7], [1, 2, 3], "invalid interval: lo=5 > hi=2"),
        ([9, 4], [1, 3], "invalid interval: lo=9 > hi=1"),
    ])
    def test_column_built_family_names_the_first_inverted_pair(self, los, his, message):
        with pytest.raises(ValidationError) as info:
            IntervalFamily._from_columns(los, his)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as twin:
            IntervalFamily.from_pairs(zip(los, his))
        assert str(twin.value) == message

    def test_non_interval_element_named(self):
        with pytest.raises(ValidationError) as info:
            IntervalFamily((Interval(0, 1), (2, 3), "x"))
        assert str(info.value) == "expected Interval, got (2, 3)"

    def test_int_enum_endpoints_and_weights(self):
        class E(enum.IntEnum):
            ZERO = 0
            ONE = 1
            TWO = 2

        fam = IntervalFamily.from_pairs([(E.ZERO, E.ONE), (E.TWO, E.TWO)])
        assert fam == IntervalFamily.from_pairs([(0, 1), (2, 2)])
        assert max_weight_is(fam, (E.ONE, E.TWO)) == ((1, 2), 3)
        assert is_independent(fam, (E.ONE, E.TWO))


class TestVectorChecks:
    @pytest.mark.parametrize(
        "weights,message",
        [
            ((1, 2.0, -1), "weights must be integers, got 2.0"),
            ((1, -1, None), "negative weight -1 rejected"),
            ((0, "3", 1), "weights must be integers, got '3'"),
        ],
    )
    def test_check_weights_names_the_first_bad_entry(self, weights, message):
        with pytest.raises(ValidationError) as info:
            core.check_weights(3, weights)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "members,message",
        [
            ((0, 2), "vertex index 0 out of range 1..3"),
            ((4, 9), "vertex index 4 out of range 1..3"),
            ((1, 2.5), "vertex index 2.5 out of range 1..3"),
        ],
    )
    def test_check_members_names_the_first_bad_index(self, members, message):
        with pytest.raises(ValidationError) as info:
            core.check_members(3, members)
        assert str(info.value) == message

    def test_check_weights_refuses_bools(self):
        # the file format has no booleans, and neither do the solvers
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3)])
        with pytest.raises(ValidationError, match="^weights must be integers, got True$"):
            max_weight_is(fam, [True, 2])

    def test_check_members_refuses_bools(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        with pytest.raises(ValidationError, match=r"^vertex index True out of range 1\.\.1$"):
            is_independent(fam, [True])

    @pytest.mark.parametrize("members", [[1, True], [True, 1], [2, 1, True], [1, 1.0]])
    def test_check_members_refuses_a_non_int_equal_to_another_entry(self, members):
        # deduplicating first would merge True (or 1.0) into 1 and accept it
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3)])
        bad = next(i for i in members if type(i) is not int)
        with pytest.raises(ValidationError) as info:
            is_independent(fam, members)
        assert str(info.value) == f"vertex index {bad!r} out of range 1..2"

    def test_check_members_sorts_and_deduplicates(self):
        assert core.check_members(5, [3, 1, 3, 5]) == (1, 3, 5)
        assert core.check_members(0, []) == ()


class TestMaxWeightIs:
    def test_empty_family(self):
        assert max_weight_is(IntervalFamily(()), ()) == ((), 0)

    def test_single_vertex(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        assert max_weight_is(fam, (5,)) == ((1,), 5)

    def test_three_intervals(self):
        # brute force over all 8 subsets gives {2,3} with value 9
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3), (4, 5)])
        weights = (3, 4, 5)
        assert oracles.brute_opt(fam, weights) == 9
        assert max_weight_is(fam, weights) == ((2, 3), 9)

    def test_zero_weight_vertices_excluded(self):
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3), (4, 5)])
        assert max_weight_is(fam, (0, 7, 0)) == ((2,), 7)
        assert max_weight_is(fam, (0, 0, 0)) == ((), 0)

    def test_negative_weight_rejected(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        with pytest.raises(ValidationError):
            max_weight_is(fam, (-1,))

    def test_length_mismatch_rejected(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        with pytest.raises(ValidationError):
            max_weight_is(fam, (1, 2))

    @given(families_with_weights(max_w=10**6))
    @settings(max_examples=100)
    def test_private_path_matches_the_public_one_on_checked_weights(self, fw):
        fam, w = fw
        w = core.check_weights(len(fam), w)
        assert core._max_weight_is(fam, w) == max_weight_is(fam, w)

    @given(families_with_weights())
    @settings(max_examples=150)
    def test_matches_exhaustive_oracle(self, fw):
        fam, w = fw
        members, value = max_weight_is(fam, w)
        assert value == oracles.brute_opt(fam, w)
        assert is_independent(fam, members)
        assert sum(w[i - 1] for i in members) == value

    @given(families_with_weights(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=80)
    def test_scaling_invariance(self, fw, c):
        fam, w = fw
        _, value = max_weight_is(fam, w)
        scaled_members, scaled_value = max_weight_is(fam, tuple(c * x for x in w))
        assert scaled_value == c * value
        assert max_weight_is_all_optima(fam, w) == max_weight_is_all_optima(
            fam, tuple(c * x for x in w)
        )


class TestEnumeration:
    def test_single_vertex(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        assert list(enumerate_independent_sets(fam)) == [(), (1,)]

    def test_two_clique(self):
        fam = IntervalFamily.from_pairs([(0, 1), (0, 1)])
        assert list(enumerate_independent_sets(fam)) == [(), (1,), (2,)]

    def test_disjoint_clique_product_count(self):
        # two disjoint 3-cliques: (3+1)^2 independent sets
        fam = IntervalFamily.from_pairs([(0, 1)] * 3 + [(4, 5)] * 3)
        assert sum(1 for _ in enumerate_independent_sets(fam)) == 16

    def test_guard(self):
        fam = IntervalFamily.from_pairs([(4 * i, 4 * i + 1) for i in range(6)])
        with pytest.raises(GuardError):
            enumerate_independent_sets(fam, guard=5)

    def test_guard_env_override(self, monkeypatch):
        fam = IntervalFamily.from_pairs([(4 * i, 4 * i + 1) for i in range(6)])
        monkeypatch.setenv("RWIS_GUARD_N", "5")
        with pytest.raises(GuardError):
            enumerate_independent_sets(fam)
        monkeypatch.setenv("RWIS_GUARD_N", "6")
        assert sum(1 for _ in enumerate_independent_sets(fam)) == 64

    @given(families(max_n=8))
    @settings(max_examples=100)
    def test_exactly_the_independent_subsets_once(self, fam):
        got = list(enumerate_independent_sets(fam))
        assert len(got) == len(set(got))
        expected = sorted(
            oracles.mask_to_members(m) for m in oracles.independent_masks(fam)
        )
        assert sorted(got) == expected
        assert got == sorted(got)  # lexicographic yield order


class TestAllOptima:
    def test_symmetric_two_clique(self):
        fam = IntervalFamily.from_pairs([(0, 1), (0, 1)])
        assert max_weight_is_all_optima(fam, (1, 1)) == [(1,), (2,)]

    def test_zero_weight_ties_with_empty(self):
        fam = IntervalFamily.from_pairs([(0, 1)])
        assert max_weight_is_all_optima(fam, (0,)) == [(), (1,)]

    def test_overlapping_pair(self):
        fam = IntervalFamily.from_pairs([(0, 2), (1, 3)])
        assert max_weight_is_all_optima(fam, (2, 2)) == [(1,), (2,)]

    @given(families_with_weights(max_n=8))
    @settings(max_examples=80)
    def test_matches_exhaustive_oracle(self, fw):
        fam, w = fw
        assert max_weight_is_all_optima(fam, w) == oracles.brute_all_optima(fam, w)

    def test_canonical_solver_output_is_an_optimum(self):
        fam = IntervalFamily.from_pairs([(0, 1), (0, 1), (2, 3)])
        w = (2, 2, 1)
        members, _ = max_weight_is(fam, w)
        assert members in max_weight_is_all_optima(fam, w)


class TestCompletions:
    @given(families_with_weights())
    @settings(max_examples=200, deadline=None)
    def test_tables_match_enumeration(self, fam_w):
        fam, w = fam_w
        n = len(fam)
        position = {v + 1: f for f, v in enumerate(core._prepared(fam)[0])}
        # (lowest position, weight) of every independent set; n for the empty set
        sets = [
            (min((position[i] for i in members), default=n), sum(w[i - 1] for i in members))
            for members in map(oracles.mask_to_members, oracles.independent_masks(fam))
        ]
        first, rest = core._completions(fam, w)
        # the lowest position in right-endpoint order is the earliest-ending member
        assert first == [max(x for f, x in sets if f == q) for q in range(n)]
        assert rest == [max(x for f, x in sets if f >= q) for q in range(n + 1)]
        assert rest[n] == 0 and rest[0] == max_weight_is(fam, w)[1]


@st.composite
def cut_table_inputs(draw, max_n=14):
    """(preds, first, best): predecessors of a drawn family, first from its
    completion tables or drawn freely, and a nondecreasing prefix best."""
    fam, w = draw(families_with_weights(max_n=max_n))
    n = len(fam)
    preds = core._prepared(fam)[1]
    if draw(st.booleans()):
        first = core._completions(fam, w)[0]
    else:
        first = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1))
    best = [sum(steps[: i + 1]) for i in range(n + 1)]
    return preds, first, best


class TestStaircaseAdd:
    @given(st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_maxima_after_every_insert(self, pairs):
        xs, ys = [], []
        for i, (x, y) in enumerate(pairs):
            kept = core._staircase_add(xs, ys, x, y)
            maxima = oracles.maxima_2d(pairs[: i + 1])
            assert kept == (i in maxima)
            # the maxima have distinct x, so sorting lays out the staircase
            assert list(zip(xs, ys)) == sorted(pairs[j] for j in maxima)


class TestCutTables:
    @given(cut_table_inputs())
    @settings(max_examples=300, deadline=None)
    def test_table_bound_equals_the_scan_at_every_position(self, args):
        preds, first, best = args
        high, cuts = core._cut_tables(preds, first)
        assert len(high) == len(cuts) == len(preds)
        for pos, (top, pairs) in enumerate(zip(high, cuts)):
            table = max([best[pos] + top] + [best[q] + g for q, g in pairs])
            assert table == oracles.scan_opt_bound(preds, first, best, pos)
            # the staircase: q ascending below pos, g descending above high
            qs = [q for q, _ in pairs]
            gs = [g for _, g in pairs]
            assert qs == sorted(set(qs)) and all(q < pos for q in qs)
            assert gs == sorted(set(gs), reverse=True) and all(g > top for g in gs)

    def test_folded_terms(self):
        # positions 0, 1, 2 = [0, 1], [2, 3], [2, 4]: preds (0, 1, 1)
        fam = IntervalFamily.from_pairs([(0, 1), (2, 3), (2, 4)])
        preds = core._prepared(fam)[1]
        assert preds == (0, 1, 1)
        high, cuts = core._cut_tables(preds, [5, 2, 3])
        # at pos 2 the last term reads best[1], before pos: a cut pair; at
        # pos 1 both later terms read best[1] = best[pos] and fold into high
        assert high == [5, 3, 0] and cuts == [(), (), ((1, 3),)]

    def test_deep_clique_keeps_one_pair_per_position(self):
        n = 1500
        preds = core._prepared(IntervalFamily.from_pairs([(0, 1)] * n))[1]
        high, cuts = core._cut_tables(preds, [1] * n)
        assert high == [1] + [0] * (n - 1)
        assert cuts == [()] + [((0, 1),)] * (n - 1)
