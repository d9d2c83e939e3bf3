"""Mutated golden files through the CLI: every input maps to an exit code.

Byte-level mutations (flipped, inserted and deleted bytes, truncation, deep
nesting, over-long integer literals, non-UTF-8 bytes) and JSON-level
mutations (replaced, deleted, duplicated and added values) of the golden
instance files are fed to `rwis solve` and `rwis evaluate`.  Whatever the
input, the command must return one of the mapped exit codes, and a failure
must print exactly one `error:` line, never a traceback.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import golden_defs
from rwis.cli import main

GOLDEN = sorted(golden_defs.GOLDEN_DIR.glob("*.json"))
EXIT_CODES = {0, 10, 11, 12, 13}

SOLVE_CALLS = [
    ("det", "exact"),
    ("maxmin", "exact"),
    ("regret", "exact"),
    ("regret", "midpoint"),
    ("regret", "kapprox"),
    ("regret", "fptas"),
]
EVALUATE_CALLS = [
    (problem, solution)
    for problem in ("det", "maxmin", "regret")
    for solution in ("-", "1", "1,3", "2,4,6", "0", "99")
]

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-3, max_value=12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)


def _slots(node, out):
    """Every (container, key) pair below `node`, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


@st.composite
def json_mutants(draw):
    doc = json.loads(draw(st.sampled_from(GOLDEN)).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = _slots(doc, [])
        op = draw(st.sampled_from(["replace", "delete", "duplicate", "add", "nudge"]))
        if not slots or op == "add":
            doc[draw(st.sampled_from(["metadata", "intervals", "extra"]))] = draw(
                json_values
            )
            continue
        container, key = draw(st.sampled_from(slots))
        value = container[key]
        if op == "replace":
            container[key] = draw(json_values)
        elif op == "delete":
            del container[key]
        elif op == "duplicate" and isinstance(container, list):
            container.insert(key, copy.deepcopy(value))
        elif op == "nudge" and type(value) is int:
            container[key] = value + draw(st.integers(min_value=-3, max_value=3))
        else:
            container[key] = draw(json_values)
    return json.dumps(doc).encode()


@st.composite
def byte_mutants(draw):
    data = bytearray(draw(st.sampled_from(GOLDEN)).read_bytes())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(
            st.sampled_from(["flip", "insert", "delete", "truncate", "nest", "digits"])
        )
        at = draw(st.integers(min_value=0, max_value=len(data)))
        if op == "flip" and at < len(data):
            data[at] = draw(st.integers(min_value=0, max_value=255))
        elif op == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif op == "delete":
            del data[at : at + draw(st.integers(min_value=1, max_value=8))]
        elif op == "truncate":
            del data[at:]
        elif op == "nest":
            depth = draw(st.sampled_from([1, 5, 900, 5000]))
            data[:] = b"[" * depth + data + b"]" * depth
        elif op == "digits":
            data[at:at] = b"9" * draw(st.sampled_from([3, 4301, 5000]))
    return bytes(data)


mutants = st.one_of(json_mutants(), byte_mutants())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_outcome(code, err):
    assert code in EXIT_CODES, (code, err[:300])
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err[:300]


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


ROBUSTNESS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@ROBUSTNESS
@given(data=mutants, call=st.sampled_from(SOLVE_CALLS))
def test_solve_maps_every_mutant_to_an_exit_code(workdir, data, call):
    path = workdir / "mutant.json"
    path.write_bytes(data)
    problem, algorithm = call
    argv = ["solve", str(path), "--problem", problem, "--algorithm", algorithm]
    if algorithm == "fptas":
        argv += ["--epsilon", "0.5"]
    check_outcome(*run_cli(argv))


@ROBUSTNESS
@given(data=mutants, call=st.sampled_from(EVALUATE_CALLS))
def test_evaluate_maps_every_mutant_to_an_exit_code(workdir, data, call):
    path = workdir / "mutant.json"
    path.write_bytes(data)
    problem, solution = call
    argv = ["evaluate", str(path), "--problem", problem, "--solution", solution]
    check_outcome(*run_cli(argv))
