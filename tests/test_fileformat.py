import enum
import json
import random
import sys
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_defs
import oracles
from rwis import (
    Instance,
    IntervalFamily,
    IntervalUncertainty,
    DiscreteScenarioSet,
    ParseError,
    PartitionInput,
    UndirectedGraph,
    ValidationError,
    dumps_instance,
    gen_partition,
    gen_random,
    gen_tight_k,
    gen_tight_midpoint,
    gen_vertex_cover,
    parse_instance,
    write_instance,
)
from rwis.fileformat import instance_from_dict, instance_to_dict, parse_instance_text

GOLDEN = sorted(golden_defs.GOLDEN_DIR.glob("*.json"))


def minimal_doc(**overrides):
    doc = {
        "format_version": 1,
        "scaling_factor": 1,
        "intervals": [[0, 1], [2, 3]],
        "uncertainty": {"type": "discrete", "scenarios": [[1, 2]]},
    }
    doc.update(overrides)
    return doc


class TestRoundTrip:
    @pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
    def test_golden_files_parse_and_roundtrip(self, path, tmp_path):
        instance = parse_instance(path)
        out = tmp_path / path.name
        write_instance(instance, out)
        assert parse_instance(out) == instance
        # writer is canonical: re-serializing reproduces the committed bytes
        assert out.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
    def test_golden_files_match_their_builders(self, path):
        built = golden_defs.build_all()[path.name]
        assert dumps_instance(built) == path.read_text(encoding="utf-8")

    def test_random_instances_roundtrip(self, tmp_path):
        rng = random.Random(5)
        for i in range(25):
            model = rng.choice(["discrete", "interval"])
            kwargs = dict(
                n=rng.randint(1, 12),
                model=model,
                w_max=rng.randint(1, 9),
                density=rng.choice([0.0, 0.5, 1.0]),
                seed=rng.randrange(1 << 30),
            )
            if model == "discrete":
                kwargs["k"] = rng.randint(1, 4)
            instance = gen_random(**kwargs)
            out = tmp_path / f"r{i}.json"
            write_instance(instance, out)
            assert parse_instance(out) == instance

    def test_empty_instance_is_valid(self):
        doc = minimal_doc(
            intervals=[], uncertainty={"type": "discrete", "scenarios": [[]]}
        )
        instance = instance_from_dict(doc)
        assert len(instance.family) == 0


class TestParseErrors:
    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match=r":\d+:\d+:"):
            parse_instance_text("{ not json", source="bad.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_instance(tmp_path / "nope.json")

    def test_missing_required_field(self):
        doc = minimal_doc()
        del doc["intervals"]
        with pytest.raises(ValidationError, match="intervals"):
            instance_from_dict(doc)

    def test_unknown_top_level_field(self):
        with pytest.raises(ValidationError, match="unknown top-level"):
            instance_from_dict(minimal_doc(extra=1))

    def test_bad_version(self):
        with pytest.raises(ValidationError, match="format_version"):
            instance_from_dict(minimal_doc(format_version=99))

    def test_lower_above_upper(self):
        doc = minimal_doc(
            uncertainty={"type": "interval", "lower": [2, 0], "upper": [1, 5]}
        )
        with pytest.raises(ValidationError, match="lower bound 2 exceeds upper bound 1"):
            instance_from_dict(doc)

    def test_dimension_mismatch(self):
        doc = minimal_doc(uncertainty={"type": "discrete", "scenarios": [[1, 2, 3]]})
        with pytest.raises(ValidationError, match="vertices"):
            instance_from_dict(doc)

    def test_negative_weight(self):
        doc = minimal_doc(uncertainty={"type": "discrete", "scenarios": [[1, -2]]})
        with pytest.raises(ValidationError, match="nonnegative"):
            instance_from_dict(doc)

    def test_inverted_interval(self):
        with pytest.raises(ValidationError, match="lo=3 > hi=2"):
            instance_from_dict(minimal_doc(intervals=[[3, 2], [0, 1]]))

    def test_boolean_weight_rejected(self):
        doc = minimal_doc(uncertainty={"type": "discrete", "scenarios": [[True, 2]]})
        with pytest.raises(ValidationError):
            instance_from_dict(doc)

    def test_unknown_uncertainty_type(self):
        with pytest.raises(ValidationError, match="unknown uncertainty type"):
            instance_from_dict(minimal_doc(uncertainty={"type": "fuzzy"}))

    def test_zero_scaling_factor(self):
        with pytest.raises(ValidationError, match="scaling_factor"):
            instance_from_dict(minimal_doc(scaling_factor=0))


class TestCanonicalWriter:
    def test_metadata_preserved(self):
        instance = Instance(
            family=IntervalFamily.from_pairs([(0, 1)]),
            uncertainty=DiscreteScenarioSet(((3,),)),
            metadata={"id": "demo", "note": {"nested": [1, 2]}},
        )
        doc = json.loads(dumps_instance(instance))
        assert doc["metadata"] == {"id": "demo", "note": {"nested": [1, 2]}}

    def test_serialization_is_stable(self):
        instance = gen_random(n=6, model="interval", w_max=4, density=0.5, seed=9)
        assert dumps_instance(instance) == dumps_instance(instance)
        assert dumps_instance(instance).endswith("\n")


class Small(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2
    THREE = 3


def interval_doc(lower, upper, intervals=([0, 1], [2, 3])):
    return minimal_doc(
        intervals=list(intervals),
        uncertainty={"type": "interval", "lower": lower, "upper": upper},
    )


def discrete_doc(*rows, intervals=([0, 1], [2, 3])):
    return minimal_doc(
        intervals=list(intervals),
        uncertainty={"type": "discrete", "scenarios": list(rows)},
    )


# (document, exception type, exact message).  Lists with several bad entries
# check that the first offending entry is the one named.
MALFORMED = {
    "interval-bool": (minimal_doc(intervals=[[0, 1], [True, 3]]), ValidationError,
                      "interval 2 entry must be an integer, got True"),
    "interval-float": (minimal_doc(intervals=[[0, 1.5], [2, 3]]), ValidationError,
                       "interval 1 entry must be an integer, got 1.5"),
    "interval-str": (minimal_doc(intervals=[["0", 1], [2, 3]]), ValidationError,
                     "interval 1 entry must be an integer, got '0'"),
    "interval-none": (minimal_doc(intervals=[[0, 1], [2, None]]), ValidationError,
                      "interval 2 entry must be an integer, got None"),
    "interval-several-bad": (
        minimal_doc(intervals=[[0, 1], [2, None], [1.5, 3], [True, 0]]),
        ValidationError, "interval 2 entry must be an integer, got None"),
    "interval-two-bad-in-one-pair": (
        minimal_doc(intervals=[[False, 2.5], [0, 1]]), ValidationError,
        "interval 1 entry must be an integer, got False"),
    "interval-triple": (minimal_doc(intervals=[[0, 1], [1, 2, 3]]), ValidationError,
                        "interval 2 must be a [lo, hi] pair, got [1, 2, 3]"),
    "interval-single": (minimal_doc(intervals=[[0], [2, 3]]), ValidationError,
                        "interval 1 must be a [lo, hi] pair, got [0]"),
    "interval-empty-pair": (minimal_doc(intervals=[[0, 1], []]), ValidationError,
                            "interval 2 must be a [lo, hi] pair, got []"),
    "interval-bad-type-before-length": (
        minimal_doc(intervals=[[0, 1, 2.5], [0, 1]]), ValidationError,
        "interval 1 entry must be an integer, got 2.5"),
    "interval-int-not-list": (minimal_doc(intervals=[[0, 1], 5]), ValidationError,
                              "interval 2 must be a list, got int"),
    "interval-dict-not-list": (minimal_doc(intervals=[{"lo": 0}, [2, 3]]),
                               ValidationError, "interval 1 must be a list, got dict"),
    "interval-str-not-list": (minimal_doc(intervals=["01", [2, 3]]), ValidationError,
                              "interval 1 must be a list, got str"),
    "intervals-not-list": (minimal_doc(intervals={"a": [0, 1]}), ValidationError,
                           "intervals must be a list of [lo, hi] pairs"),
    "interval-inverted": (minimal_doc(intervals=[[0, 1], [3, 2]]), ValidationError,
                          "invalid interval: lo=3 > hi=2"),
    "interval-two-inverted": (minimal_doc(intervals=[[5, 4], [3, 2]]), ValidationError,
                              "invalid interval: lo=5 > hi=4"),
    "interval-structure-before-inversion": (
        minimal_doc(intervals=[[3, 2], [0, None]]), ValidationError,
        "interval 2 entry must be an integer, got None"),
    "scenario-bool": (discrete_doc([1, True]), ValidationError,
                      "scenario entry must be an integer, got True"),
    "scenario-float": (discrete_doc([1, 2], [1.0, 2]), ValidationError,
                       "scenario entry must be an integer, got 1.0"),
    "scenario-str": (discrete_doc([1, "2"]), ValidationError,
                     "scenario entry must be an integer, got '2'"),
    "scenario-none": (discrete_doc([None, 2]), ValidationError,
                      "scenario entry must be an integer, got None"),
    "scenario-several-bad": (discrete_doc([1, 2], [3, None], [True, 1.5]),
                             ValidationError,
                             "scenario entry must be an integer, got None"),
    "scenario-not-list": (discrete_doc([1, 2], 7), ValidationError,
                          "scenario must be a list, got int"),
    "scenario-negative": (discrete_doc([1, -2]), ValidationError,
                          "scenario weights must be nonnegative, got -2"),
    "scenario-several-negative": (
        discrete_doc([1, 2, 0], [0, -2, -3], intervals=([0, 1], [2, 3], [4, 5])),
        ValidationError, "scenario weights must be nonnegative, got -2"),
    "scenario-ragged": (discrete_doc([1, 2], [1]), ValidationError,
                        "scenarios have inconsistent lengths [1, 2]"),
    "scenario-length-mismatch": (discrete_doc([1, 2, 3], [4, 5, 6]), ValidationError,
                                 "uncertainty covers 3 vertices, family has 2"),
    "scenarios-empty": (discrete_doc(), ValidationError,
                        "discrete uncertainty needs a non-empty scenarios list"),
    "lower-bool": (interval_doc([1, True], [2, 2]), ValidationError,
                   "lower entry must be an integer, got True"),
    "lower-str-then-none": (interval_doc(["x", None], [2, 2]), ValidationError,
                            "lower entry must be an integer, got 'x'"),
    "upper-float": (interval_doc([1, 1], [1, 2.0]), ValidationError,
                    "upper entry must be an integer, got 2.0"),
    "upper-none": (interval_doc([1, 1], [None, 2]), ValidationError,
                   "upper entry must be an integer, got None"),
    "lower-before-upper": (interval_doc([1, 0.5], [None, 2]), ValidationError,
                           "lower entry must be an integer, got 0.5"),
    "lower-not-list": (interval_doc(3, [1, 2]), ValidationError,
                       "lower must be a list, got int"),
    "lower-negative": (interval_doc([0, -1], [1, 1]), ValidationError,
                       "lower bounds must be nonnegative, got -1"),
    "upper-negative": (interval_doc([0, 0], [-3, -4]), ValidationError,
                       "upper bounds must be nonnegative, got -3"),
    "lower-above-upper": (
        interval_doc([0, 5, 7], [1, 4, 6], intervals=([0, 1], [2, 3], [4, 5])),
        ValidationError, "vertex 2: lower bound 5 exceeds upper bound 4"),
    "bounds-length-mismatch": (interval_doc([1], [1, 2]), ValidationError,
                               "bound vectors have different lengths 1 and 2"),
    "bounds-cover-wrong-n": (interval_doc([1, 1, 1], [1, 2, 3]), ValidationError,
                             "uncertainty covers 3 vertices, family has 2"),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exception_type_and_message(self, case):
        doc, exc_type, message = MALFORMED[case]
        with pytest.raises(exc_type) as info:
            instance_from_dict(doc)
        assert type(info.value) is exc_type
        assert str(info.value) == message
        # the same document as JSON text fails the same way
        with pytest.raises(exc_type) as info:
            parse_instance_text(json.dumps(doc))
        assert str(info.value) == message

    def test_int_enum_endpoints_and_weights_accepted(self):
        plain = instance_from_dict(discrete_doc([1, 2], intervals=([0, 1], [2, 3])))
        enums = instance_from_dict(
            discrete_doc(
                [Small.ONE, Small.TWO],
                intervals=([Small.ZERO, Small.ONE], [Small.TWO, Small.THREE]),
            )
        )
        assert enums == plain
        ranges = instance_from_dict(interval_doc([Small.ZERO, 1], [Small.THREE, Small.ONE]))
        assert ranges.uncertainty.lower == (0, 1)
        assert ranges.uncertainty.upper == (3, 1)


# (uncertainty field, exact message): the shape checks on the uncertainty
# object itself, before any weight is read
BAD_UNCERTAINTY = {
    "not-an-object": ([[1, 2]], "uncertainty must be an object with a 'type' field"),
    "no-type": ({"scenarios": [[1, 2]]}, "uncertainty must be an object with a 'type' field"),
    "discrete-extra-fields": (
        {"type": "discrete", "scenarios": [[1, 2]], "lower": [1, 1], "b": 1},
        "unknown uncertainty fields: ['b', 'lower']",
    ),
    "interval-extra-fields": (
        {"type": "interval", "lower": [1, 1], "upper": [2, 2], "scenarios": []},
        "unknown uncertainty fields: ['scenarios']",
    ),
    "interval-without-upper": (
        {"type": "interval", "lower": [1, 1]},
        "interval uncertainty needs 'lower' and 'upper' lists",
    ),
    "interval-without-lower": (
        {"type": "interval", "upper": [1, 1]},
        "interval uncertainty needs 'lower' and 'upper' lists",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_UNCERTAINTY))
def test_uncertainty_shape_errors(case):
    unc, message = BAD_UNCERTAINTY[case]
    for parse in (instance_from_dict, lambda doc: parse_instance_text(json.dumps(doc))):
        with pytest.raises(ValidationError) as info:
            parse(minimal_doc(uncertainty=unc))
        assert type(info.value) is ValidationError
        assert str(info.value) == message


# Entries and columns outside the format, for the reader differential: a
# float equal to an int, bools, strings, None, nested and empty lists, a
# dict, a tuple (only a dict document, not JSON, can hold one), an int
# beyond 64 bits and an IntEnum.
ODD_ENTRIES = (-1, -3, True, False, 1.5, 2.0, "3", None, [1], [], {"a": 1}, (1,), 2**70, Small.TWO)
ODD_COLUMNS = (5, "12", None, {"0": 1}, (1, 2), 1.5, True)


def _random_column(rng, n, odd):
    if rng.random() < 0.05:
        return rng.choice(ODD_COLUMNS)
    size = n if rng.random() < 0.8 else rng.randint(0, n + 1)
    return [rng.choice(ODD_ENTRIES) if rng.random() < odd else rng.randint(0, 6)
            for _ in range(size)]


def _random_uncertainty(rng, n):
    """A well-formed uncertainty object whose columns may hold anything."""
    odd = rng.choice((0.0, 0.03, 0.1, 0.3))
    if rng.random() < 0.5:
        if rng.random() < 0.03:
            rows = rng.choice(ODD_COLUMNS + ([],))
        else:
            rows = [_random_column(rng, n, odd) for _ in range(rng.randint(1, 4))]
        return {"type": "discrete", "scenarios": rows}
    lower = _random_column(rng, n, odd)
    if isinstance(lower, list) and rng.random() < 0.6:
        # mostly lower <= upper, so that documents also get past the order check
        upper = [x + rng.randint(0, 2) if type(x) is int else x for x in lower]
        if rng.random() < 0.3 and upper:
            upper[rng.randrange(len(upper))] = rng.choice(ODD_ENTRIES)
    else:
        upper = _random_column(rng, n, odd)
    return {"type": "interval", "lower": lower, "upper": upper}


def _read_outcome(doc):
    """The reader's result in the form oracles.ref_read_uncertainty gives."""
    try:
        unc = instance_from_dict(doc).uncertainty
    except ValidationError as exc:
        assert type(exc) is ValidationError
        return ("error", str(exc))
    if isinstance(unc, DiscreteScenarioSet):
        assert type(unc.scenarios) is tuple and {type(r) for r in unc.scenarios} <= {tuple}
        return ("discrete", unc.scenarios)
    assert type(unc.lower) is type(unc.upper) is tuple
    return ("interval", unc.lower, unc.upper)


# one phrase of each reader refusal the differential must meet
OUTCOME_KEYS = ("non-empty scenarios", "must be a list", "entry must be", "nonnegative",
                "inconsistent lengths", "different lengths", "exceeds", "covers")


class TestReaderDifferential:
    """The reader against a reference that spells out its precedence: every
    column's list and int checks first, in column order, then the model's
    sign, length and order checks, then the family size."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_documents_match_the_reference(self, seed):
        rng = random.Random(seed)
        kinds = set()
        for _ in range(10_000):
            n = rng.randint(0, 4)
            doc = minimal_doc(
                intervals=[[2 * i, 2 * i + 1] for i in range(n)],
                uncertainty=_random_uncertainty(rng, n),
            )
            expected = oracles.ref_read_uncertainty(doc["uncertainty"], n)
            assert _read_outcome(doc) == expected, doc
            kinds.add(expected[0] if expected[0] != "error" else
                      next(key for key in OUTCOME_KEYS if key in expected[1]))
        # both models were built, and every kind of refusal occurred
        assert kinds == {"discrete", "interval", *OUTCOME_KEYS}


class TestParseLayerErrors:
    """Inputs json and the UTF-8 codec reject with exceptions other than
    JSONDecodeError still end in one ParseError."""

    def test_decode_error_message_is_positional(self):
        with pytest.raises(ParseError) as info:
            parse_instance_text("{ not json", source="bad.json")
        assert str(info.value) == (
            "bad.json:1:3: Expecting property name enclosed in double quotes"
        )

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"format_version": 1, "note": "caf\xe9"}')
        with pytest.raises(ParseError) as info:
            parse_instance(path)
        assert str(info.value) == f"{path}: not valid UTF-8 at byte 34"

    @pytest.mark.parametrize("depth", [100_000, sys.getrecursionlimit() + 10])
    def test_nesting_deeper_than_the_recursion_limit(self, depth):
        # From 3.12 json's C scanner is bounded by the C recursion limit, not
        # sys.getrecursionlimit() (1,497 levels parse on 3.12.1, 9,998 on
        # 3.13.0), so limit + 10 levels parse and the validator sees a list
        text = "[" * depth + "]" * depth
        try:
            json.loads(text)
        except RecursionError:
            expected = ParseError, "deep.json: JSON nested too deeply"
        else:
            expected = ValidationError, "instance document must be an object, got list"
        with pytest.raises(expected[0]) as info:
            parse_instance_text(text, source="deep.json")
        assert (type(info.value), str(info.value)) == expected

    def test_integer_literal_over_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        text = '{"format_version": ' + "7" * (limit + 1) + "}"
        with pytest.raises(ParseError) as info:
            parse_instance_text(text, source="long.json")
        assert str(info.value) == f"long.json: integer literal longer than {limit} digits"


def reference_dumps(instance):
    """The writer's specification: json's own indenting encoder."""
    return json.dumps(instance_to_dict(instance), indent=2, sort_keys=True) + "\n"


def write_outcome(write, instance):
    """The text `write` produces, or the type and message of what it raises."""
    try:
        return write(instance)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def seeded_generator_output():
    rng = random.Random(3)
    out = {"tight_k2": gen_tight_k(2), "tight_k3": gen_tight_k(3),
           "tight_midpoint": gen_tight_midpoint()}
    for i in range(6):
        edges = {tuple(sorted(rng.sample(range(1, 6), 2))) for _ in range(rng.randint(1, 6))}
        graph = UndirectedGraph.from_edges(5, edges)
        out[f"vertex_cover_{i}"] = gen_vertex_cover(graph, rng.randint(1, 3))
        values = [rng.randint(1, 30) for _ in range(rng.randint(1, 8))]
        out[f"partition_{i}"] = gen_partition(PartitionInput(tuple(values)))
    for density in (0.0, 0.5, 1.0):
        for seed in range(3):
            out[f"random_interval_{density}_{seed}"] = gen_random(
                n=30, model="interval", w_max=10**6, density=density, seed=seed)
            out[f"random_discrete_{density}_{seed}"] = gen_random(
                n=20, model="discrete", k=3, w_max=20, density=density, seed=seed)
    return out


def ranges(lower, upper, pairs=None, **kwargs):
    pairs = [(2 * i, 2 * i + 1) for i in range(len(lower))] if pairs is None else pairs
    return Instance(IntervalFamily.from_pairs(pairs),
                    IntervalUncertainty(tuple(lower), tuple(upper)), **kwargs)


def scenarios(*rows, **kwargs):
    n = len(rows[0])
    return Instance(IntervalFamily.from_pairs([(i, i + 2) for i in range(n)]),
                    DiscreteScenarioSet(tuple(rows)), **kwargs)


METADATA = {
    "nested": {"b": [1, {"c": [None, True, False]}], "a": {"z": {}, "y": []}},
    "non-ascii": {"name": "Nobibon–Leus ÿ \u2603 \U0001F600", "κ": "\n\t\"\\"},
    "floats": {"neg_zero": -0.0, "big": 1e300, "small": 5e-324, "pi": 3.141592653589793},
    "scalars": {"none": None, "yes": True, "no": False, "int": -7, "str": ""},
    "empty-containers": {"d": {}, "l": []},
    "int-keys": {3: "c", 1: "a", 2: "b"},
}

WRITER_CASES = {
    **seeded_generator_output(),
    "random-interval-n3000": gen_random(
        n=3000, model="interval", w_max=10**6, density=0.5, seed=3),
    "empty-family-ranges": ranges([], []),
    "empty-family-one-empty-scenario": Instance(
        IntervalFamily(()), DiscreteScenarioSet(((),))),
    "k1": scenarios((4, 0, 9)),
    "k5": scenarios(*[tuple(range(k, k + 6)) for k in range(5)], scaling_factor=3),
    "int-enum-ranges": ranges(
        [Small.ZERO, Small.ONE], [Small.TWO, Small.THREE],
        pairs=[(Small.ZERO, Small.ONE), (Small.TWO, Small.THREE)],
        scaling_factor=Small.TWO),
    "int-enum-scenarios": scenarios((Small.ONE, Small.THREE), (0, Small.TWO),
                                    scaling_factor=Small.THREE),
    "one-vertex": ranges([0], [10**18], pairs=[(5, 5)]),
    **{f"metadata-{name}": ranges([1], [2], metadata=md) for name, md in METADATA.items()},
}

_BIG = 10 ** (sys.get_int_max_str_digits() + 1)
_cycle: dict = {}
_cycle["self"] = _cycle

# instances json cannot write: the writer must raise json's own exception
UNWRITABLE = {
    "metadata-set": ranges([1], [2], metadata={"tags": {1, 2}}),
    "metadata-mixed-keys": ranges([1], [2], metadata={1: "a", "b": 2}),
    "metadata-circular": ranges([1], [2], metadata=_cycle),
    "metadata-over-digit-limit": ranges([1], [2], metadata={"n": _BIG}),
    "weight-over-digit-limit": ranges([1, 0], [_BIG, 0]),
    "scenario-over-digit-limit": scenarios((_BIG,)),
    "endpoint-over-digit-limit": ranges([1], [2], pairs=[(0, _BIG)]),
    # intervals come before metadata in key order, so they fail first
    "endpoint-before-metadata": ranges([1], [2], pairs=[(0, _BIG)], metadata={"s": {1}}),
    "scaling-factor-over-digit-limit": ranges([1], [2], scaling_factor=_BIG),
}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    ints = st.integers(min_value=0, max_value=10**12)
    column = st.lists(ints, min_size=n, max_size=n)
    starts, lengths = draw(column), draw(column)
    family = IntervalFamily.from_pairs(zip(starts, map(add, starts, lengths)))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=5))
        uncertainty = DiscreteScenarioSet(tuple(tuple(draw(column)) for _ in range(k)))
    else:
        lower = draw(column)
        uncertainty = IntervalUncertainty(tuple(lower), tuple(map(add, lower, draw(column))))
    return Instance(
        family=family,
        uncertainty=uncertainty,
        scaling_factor=draw(st.integers(min_value=1, max_value=10**6)),
        metadata=draw(st.dictionaries(st.text(max_size=4), json_values, max_size=3)),
    )


class TestWriterMatchesJson:
    """dumps_instance writes exactly what json's indenting encoder writes."""

    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_same_text_as_json(self, case):
        instance = WRITER_CASES[case]
        assert dumps_instance(instance) == reference_dumps(instance)

    @pytest.mark.parametrize("case", sorted(UNWRITABLE))
    def test_same_exception_as_json(self, case):
        expected = write_outcome(reference_dumps, UNWRITABLE[case])
        assert isinstance(expected, tuple)  # json itself refuses the case
        assert write_outcome(dumps_instance, UNWRITABLE[case]) == expected

    @given(small_instances())
    @settings(max_examples=200, deadline=None)
    def test_small_instances(self, instance):
        assert dumps_instance(instance) == reference_dumps(instance)
