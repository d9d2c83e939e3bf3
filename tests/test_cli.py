import argparse
import hashlib
import importlib.util
import inspect
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import golden_defs
from rwis import (
    DiscreteScenarioSet, RwisError, cli, core, errors, fileformat, gen, parse_instance, robust,
    write_instance,
)
from rwis.cli import main

GOLDEN = golden_defs.GOLDEN_DIR
DIGIT_LIMIT = sys.get_int_max_str_digits()
TESTS = Path(__file__).parent


def _solve_grid():
    """(golden, problem, algorithm, exit code, error line) from solve_grid.txt."""
    text = (TESTS / "solve_grid.txt").read_text(encoding="utf-8")
    for line in text.splitlines():
        if not line.startswith("#"):
            name, problem, algorithm, code, *err = line.split(" ", 4)
            yield pytest.param(
                name, problem, algorithm, int(code), "".join(err),
                id=f"{name}-{problem}-{algorithm}",
            )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_maxmin_exact_on_cover_gadget(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(GOLDEN / "vc_5v6e_L3.json"),
            "--problem", "maxmin", "--algorithm", "exact",
        )
        assert code == 0
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert fields["value"] == "1"
        assert fields["problem"] == "maxmin"

    def test_det_exact_matches_core_solver(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "scaling_factor": 1,
            "intervals": [[0, 2], [1, 3], [4, 5]],
            "uncertainty": {"type": "discrete", "scenarios": [[3, 4, 5]]},
        }
        path = tmp_path / "det.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "solve", str(path), "--problem", "det", "--algorithm", "exact"
        )
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert code == 0 and fields["value"] == "9" and fields["solution"] == "2,3"

    def test_midpoint_tie_modes(self, capsys):
        path = str(GOLDEN / "tight_midpoint.json")
        _, out, _ = run(
            capsys, "solve", path, "--problem", "regret", "--algorithm", "midpoint"
        )
        canonical = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert canonical["value"] == "1"
        _, out, _ = run(
            capsys, "solve", path, "--problem", "regret", "--algorithm", "midpoint",
            "--adversarial-ties",
        )
        adversarial = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert adversarial["value"] == "2"

    def test_regret_value_reevaluates(self, capsys):
        path = GOLDEN / "tight_k2.json"
        code, out, _ = run(
            capsys, "solve", str(path), "--problem", "regret", "--algorithm", "kapprox"
        )
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        code2, out2, _ = run(
            capsys, "evaluate", str(path), "--problem", "regret",
            "--solution", fields["solution"],
        )
        fields2 = dict(line.split(None, 1) for line in out2.strip().splitlines())
        assert code == code2 == 0
        assert fields2["value"] == fields["value"]

    def test_delimited_format(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(GOLDEN / "tight_k2.json"),
            "--problem", "maxmin", "--algorithm", "exact", "--format", "delimited",
        )
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        header = lines[0].split("\t")
        row = lines[1].split("\t")
        assert dict(zip(header, row))["algorithm"] == "exact"

    def test_table_keeps_trailing_spaces_of_the_last_column(self, capsys, tmp_path):
        path = tmp_path / "spaced.json"
        doc = json.loads((GOLDEN / "tight_k2.json").read_text())
        doc["metadata"] = {"id": "tight k2 "}
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "solve", str(path), "--problem", "maxmin", "--algorithm", "exact",
            "--format", "table",
        )
        assert code == 0
        assert out.splitlines()[0] == "instance" + " " * 8 + "tight k2 "

    def test_byte_determinism(self, capsys):
        argv = (
            "solve", str(GOLDEN / "vc_5v6e_L3.json"),
            "--problem", "regret", "--algorithm", "fptas", "--epsilon", "0.5",
        )
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def _fields(out):
    return dict(line.split(None, 1) for line in out.strip().splitlines())


def _instance_file(tmp_path, name, intervals, uncertainty):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "scaling_factor": 1,
        "intervals": intervals,
        "uncertainty": uncertainty,
    }))
    return path


# four intervals, 1 and 2 overlapping: a one-scenario and a degenerate-range
# instance, the two kinds `det` accepts
SMALL_INTERVALS = [[0, 2], [1, 3], [4, 5], [6, 7]]
ONE_SCENARIO = {"type": "discrete", "scenarios": [[3, 4, 5, 1]]}
DEGENERATE_RANGES = {"type": "interval", "lower": [3, 4, 5, 1], "upper": [3, 4, 5, 1]}


@pytest.fixture(params=[
    *sorted(path.name for path in GOLDEN.glob("*.json")), "k1", "degenerate",
])
def any_instance(request, tmp_path):
    """Every golden file, plus a one-scenario and a degenerate-range instance."""
    if request.param == "k1":
        return _instance_file(tmp_path, "k1", SMALL_INTERVALS, ONE_SCENARIO)
    if request.param == "degenerate":
        return _instance_file(tmp_path, "degenerate", SMALL_INTERVALS, DEGENERATE_RANGES)
    return GOLDEN / request.param


class TestEvaluateReproducesSolve:
    @pytest.mark.parametrize(
        "problem,algorithm", list(cli.SOLVERS), ids=[f"{p}-{a}" for p, a in cli.SOLVERS]
    )
    def test_evaluate_prints_the_reported_value_and_witness(
        self, capsys, any_instance, problem, algorithm
    ):
        code, out, _ = run(
            capsys, "solve", str(any_instance), "--problem", problem,
            "--algorithm", algorithm, "--epsilon", "1/2",
        )
        if code != 0:
            return  # this row refuses this instance
        solved = _fields(out)
        code, out, err = run(
            capsys, "evaluate", str(any_instance), "--problem", problem,
            "--solution", solved["solution"],
        )
        assert (code, err) == (0, "")
        evaluated = _fields(out)
        assert evaluated["value"] == solved["value"]
        assert evaluated["witness"] == solved["witness"]
        assert evaluated["solution"] == solved["solution"]

    @pytest.mark.parametrize("problem", ["det", "maxmin", "regret"])
    @pytest.mark.parametrize("uncertainty", [ONE_SCENARIO, DEGENERATE_RANGES],
                             ids=["discrete", "ranges"])
    def test_dependent_solution_names_the_sorted_set(
        self, capsys, tmp_path, problem, uncertainty
    ):
        path = _instance_file(tmp_path, "small", SMALL_INTERVALS, uncertainty)
        code, out, err = run(
            capsys, "evaluate", str(path), "--problem", problem, "--solution", "2,1,2",
        )
        assert (code, out) == (11, "")
        assert err == "error: vertex set (1, 2) is not independent\n"

    @pytest.mark.parametrize("uncertainty", [ONE_SCENARIO, DEGENERATE_RANGES],
                             ids=["discrete", "ranges"])
    def test_det_and_maxmin_score_the_typed_solution(self, capsys, tmp_path, uncertainty):
        path = _instance_file(tmp_path, "small", SMALL_INTERVALS, uncertainty)
        for problem in ("det", "maxmin"):
            code, out, _ = run(
                capsys, "evaluate", str(path), "--problem", problem, "--solution", "4,2,4",
            )
            fields = _fields(out)
            assert code == 0
            assert (fields["value"], fields["solution"], fields["witness"]) == ("5", "4,2,4", "-")


class TestRangeBruteforce:
    """regret/bruteforce under ranges enumerates; it never runs the walk
    that regret/exact runs, so comparing the two checks the walk."""

    def test_answers_without_the_walk_and_equals_exact(self, capsys, tmp_path, monkeypatch):
        rng = random.Random(71)
        paths = [GOLDEN / "partition_2_2_1_3.json", GOLDEN / "tight_midpoint.json"]
        for k in range(30):
            inst = gen.gen_random(
                n=rng.randint(1, 12), model="interval", w_max=rng.choice([2, 9, 1000]),
                density=rng.choice([0.0, 0.3, 0.6, 0.9]), seed=rng.randrange(1 << 30),
            )
            paths.append(tmp_path / f"r{k}.json")
            write_instance(inst, paths[-1])
        exact = {}
        for path in paths:
            code, out, err = run(
                capsys, "solve", str(path), "--problem", "regret", "--algorithm", "exact"
            )
            assert (code, err) == (0, "")
            exact[path] = out

        def refuse(fam, u):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(robust, "_regret_interval_walk", refuse)
        for path in paths:
            code, out, err = run(
                capsys, "solve", str(path), "--problem", "regret", "--algorithm", "bruteforce"
            )
            assert (code, err) == (0, "")
            assert _fields(out) == {**_fields(exact[path]), "algorithm": "bruteforce"}
        with pytest.raises(AssertionError, match="the walk ran"):
            main(["solve", str(paths[0]), "--problem", "regret", "--algorithm", "exact"])


class TestColumnFamilies:
    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
    def test_no_solver_builds_the_interval_objects(self, path):
        for (problem, algorithm), row in cli.SOLVERS.items():
            instance = parse_instance(path)
            u = instance.uncertainty
            entry = row[0 if isinstance(u, DiscreteScenarioSet) else 1]
            if callable(entry):
                request = cli._Request(
                    instance, instance.family, u, Fraction(1, 2), "canonical", None
                )
                try:
                    entry(request)
                except RwisError:
                    pass  # refusals (guard, frontier cap, det) still count
            assert "intervals" not in vars(instance.family), (problem, algorithm)


class TestSingleTypeScan:
    # A solve type-scans each column once: the reader scans the lo and hi
    # columns, and the model constructors scan the weight columns, lower and
    # upper for ranges (4 in all) or each of the K scenarios (2 + K).  The
    # member sets that regret/midpoint and the exact walk's seed score come
    # from the DP, so they are not scanned again.
    @pytest.mark.parametrize(
        "path,problem,algorithm,scans",
        [
            ("tight_midpoint.json", "maxmin", "exact", 4),
            ("tight_midpoint.json", "regret", "midpoint", 4),
            ("tight_midpoint.json", "regret", "exact", 4),
            ("tight_k3.json", "maxmin", "exact", 5),
            ("tight_k3.json", "regret", "kapprox", 5),
        ],
        ids=["maxmin-exact", "regret-midpoint", "regret-exact",
             "k3-maxmin-exact", "k3-regret-kapprox"],
    )
    def test_solve_scans_each_column_once(
        self, capsys, monkeypatch, path, problem, algorithm, scans
    ):
        scanned = []
        real = core._all_ints

        def counting(xs):
            scanned.append(len(xs))
            return real(xs)

        monkeypatch.setattr(core, "_all_ints", counting)
        monkeypatch.setattr(fileformat, "_all_ints", counting)
        code, _, err = run(
            capsys, "solve", str(GOLDEN / path), "--problem", problem, "--algorithm", algorithm
        )
        assert (code, err) == (0, "")
        assert len(scanned) == scans, scanned


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        code, _, err = run(
            capsys, "solve", str(bad), "--problem", "det", "--algorithm", "exact"
        )
        assert code == 10 and "error:" in err

    @pytest.mark.parametrize(
        "intervals,line",
        [
            ([[0, 1], [5, 2], [3, 4]], "invalid interval: lo=5 > hi=2"),
            ([[0, 1], [True, 2], [3, 4]], "interval 2 entry must be an integer, got True"),
            ([[0, 1], [2, 2.5], [3, 4]], "interval 2 entry must be an integer, got 2.5"),
            ([[0, 1], [1, 2, 3], [3, 4]], "interval 2 must be a [lo, hi] pair, got [1, 2, 3]"),
            ([[5, 2], [0, 1], [3, None]], "interval 3 entry must be an integer, got None"),
        ],
        ids=["inverted", "bool", "float", "triple", "type-error-before-inversion"],
    )
    @pytest.mark.parametrize("command", ["solve", "evaluate"])
    def test_bad_interval_keeps_its_error_line(self, capsys, tmp_path, intervals, line, command):
        doc = {
            "format_version": 1,
            "scaling_factor": 1,
            "intervals": intervals,
            "uncertainty": {"type": "discrete", "scenarios": [[1, 2, 3]]},
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = {
            "solve": ["solve", str(bad), "--problem", "maxmin", "--algorithm", "exact"],
            "evaluate": ["evaluate", str(bad), "--problem", "maxmin", "--solution", "1"],
        }[command]
        assert run(capsys, *argv) == (11, "", f"error: {line}\n")

    @pytest.mark.parametrize(
        "content,reason",
        [
            (b'{"format_version": 1, "note": "caf\xe9"}', "not valid UTF-8 at byte 34"),
            (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
            (b'{"format_version": ' + b"1" * (DIGIT_LIMIT + 1) + b"}",
             f"integer literal longer than {DIGIT_LIMIT} digits"),
        ],
        ids=["invalid-utf8", "deep-nesting", "long-integer"],
    )
    @pytest.mark.parametrize("command", ["solve", "evaluate", "bench"])
    def test_unreadable_json_is_a_parse_error(
        self, capsys, tmp_path, content, reason, command
    ):
        suite = tmp_path / "suite"
        suite.mkdir()
        bad = suite / "bad.json"
        bad.write_bytes(content)
        argv = {
            "solve": ["solve", str(bad), "--problem", "regret", "--algorithm", "midpoint"],
            "evaluate": ["evaluate", str(bad), "--problem", "regret", "--solution", "1"],
            "bench": ["bench", str(suite), "--problem", "regret", "--algorithms", "exact"],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 10 and out == ""
        assert err == f"error: {bad}: {reason}\n"

    @pytest.mark.parametrize("command", ["solve", "evaluate", "bench"])
    def test_value_over_the_digit_limit_is_a_validation_error(
        self, capsys, tmp_path, command
    ):
        # each weight has DIGIT_LIMIT digits; the max-min value, their sum, one more
        big = 9 * 10 ** (DIGIT_LIMIT - 1)
        doc = {
            "format_version": 1,
            "scaling_factor": 1,
            "intervals": [[0, 1], [2, 3]],
            "uncertainty": {"type": "interval", "lower": [big, big], "upper": [big, big]},
        }
        suite = tmp_path / "suite"
        suite.mkdir()
        path = suite / "big.json"
        path.write_text(json.dumps(doc))
        argv = {
            "solve": ["solve", str(path), "--problem", "maxmin", "--algorithm", "exact"],
            "evaluate": ["evaluate", str(path), "--problem", "maxmin", "--solution", "1,2"],
            "bench": ["bench", str(suite), "--problem", "maxmin", "--algorithms", "exact"],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 11 and out == ""
        assert err == f"error: value has more than {DIGIT_LIMIT} digits, too many to print\n"

    @pytest.mark.parametrize(
        "argv,line",
        [
            (("evaluate", str(GOLDEN / "tight_k2.json"), "--problem", "regret",
              "--solution", "1,x"), "bad solution list '1,x'; expected e.g. '1,3,5'"),
            (("bench", str(GOLDEN / "tight_k2.json"), "--problem", "regret",
              "--algorithms", "exact"), f"{GOLDEN / 'tight_k2.json'} is not a directory"),
            (("bench", str(GOLDEN), "--problem", "regret", "--algorithms", "exact,nope"),
             "unknown algorithm 'nope'"),
        ],
        ids=["evaluate-bad-solution", "bench-of-a-file", "bench-unknown-algorithm"],
    )
    def test_handler_refusal_is_a_validation_error(self, capsys, argv, line):
        assert run(capsys, *argv) == (11, "", f"error: {line}\n")

    def test_validation_error(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "scaling_factor": 1,
            "intervals": [[0, 1]],
            "uncertainty": {"type": "interval", "lower": [2], "upper": [1]},
        }
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "solve", str(bad), "--problem", "maxmin", "--algorithm", "exact"
        )
        assert code == 11 and "lower bound" in err

    def test_guard_error(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "scaling_factor": 1,
            "intervals": [[4 * i, 4 * i + 1] for i in range(6)],
            "uncertainty": {"type": "interval", "lower": [0] * 6, "upper": [1] * 6},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "solve", str(path), "--problem", "regret", "--algorithm", "exact",
            "--guard-n", "5",
        )
        assert code == 12 and "guard" in err

    def test_guard_error_from_environment(self, capsys, tmp_path, monkeypatch):
        doc = {
            "format_version": 1,
            "scaling_factor": 1,
            "intervals": [[4 * i, 4 * i + 1] for i in range(6)],
            "uncertainty": {"type": "interval", "lower": [0] * 6, "upper": [1] * 6},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        argv = ("solve", str(path), "--problem", "regret", "--algorithm", "exact")
        monkeypatch.setenv("RWIS_GUARD_N", "5")
        code, _, err = run(capsys, *argv)
        assert code == 12 and "exceeds enumeration guard 5" in err
        monkeypatch.setenv("RWIS_GUARD_N", "6")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "value" in out

    def test_unsupported_combination(self, capsys):
        code, _, err = run(
            capsys, "solve", str(GOLDEN / "tight_midpoint.json"),
            "--problem", "regret", "--algorithm", "fptas", "--epsilon", "0.5",
        )
        assert code == 13 and "discrete" in err

    def test_det_on_uncertain_instance_unsupported(self, capsys):
        code, _, err = run(
            capsys, "solve", str(GOLDEN / "tight_k2.json"),
            "--problem", "det", "--algorithm", "exact",
        )
        assert code == 13

    def test_kapprox_on_interval_unsupported(self, capsys):
        code, _, _ = run(
            capsys, "solve", str(GOLDEN / "tight_midpoint.json"),
            "--problem", "regret", "--algorithm", "kapprox",
        )
        assert code == 13

    def test_missing_epsilon_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "solve", str(GOLDEN / "tight_k2.json"),
            "--problem", "regret", "--algorithm", "fptas",
        )
        assert code == 11 and "epsilon" in err

    @pytest.mark.parametrize("name,problem,algorithm,code,err", list(_solve_grid()))
    def test_every_cell_of_the_grid(self, capsys, name, problem, algorithm, code, err):
        got, out, stderr = run(
            capsys, "solve", str(GOLDEN / f"{name}.json"),
            "--problem", problem, "--algorithm", algorithm,
        )
        assert got == code
        assert stderr == (err + "\n" if err else "")
        assert (out != "") == (code == 0)


class TestExitCodeTable:
    def test_frontier_cap_from_environment_is_a_guard_error(self, capsys, monkeypatch):
        # FrontierCapError is a GuardError, so it takes the guard row
        monkeypatch.setenv("RWIS_FRONTIER_CAP", "1")
        code, out, err = run(
            capsys, "solve", str(GOLDEN / "random_n10_k2_w5_seed42.json"),
            "--problem", "maxmin", "--algorithm", "exact",
        )
        assert (code, out) == (12, "")
        assert err == "error: frontier size 2 exceeds cap 1 at interval 8\n"

    @pytest.mark.parametrize("cls, code", [
        (errors.ParseError, 10),
        (errors.ValidationError, 11),
        (errors.GuardError, 12),
        (errors.FrontierCapError, 12),
        (errors.UnsupportedCombinationError, 13),
        (errors.RwisError, 11),
    ], ids=lambda x: getattr(x, "__name__", str(x)))
    def test_every_error_class_has_its_exit_code(self, capsys, monkeypatch, cls, code):
        def fail(path):
            raise cls("boom")

        monkeypatch.setattr(cli, "parse_instance", fail)
        argv = ("solve", TIGHT_K2, "--problem", "det", "--algorithm", "exact")
        assert run(capsys, *argv) == (code, "", "error: boom\n")

    def test_unknown_problem_is_an_unsupported_combination(self):
        # argparse's choices keep it off the command line; dispatch_solve refuses it
        with pytest.raises(errors.UnsupportedCombinationError) as info:
            cli.dispatch_solve(parse_instance(TIGHT_K2), "nope", "exact")
        assert str(info.value) == "unknown problem 'nope'"


class TestTimings:
    @pytest.mark.parametrize("layout", ["table", "delimited"])
    def test_wall_ms_is_the_last_field(self, capsys, layout):
        argv = (
            "solve", str(GOLDEN / "tight_k2.json"), "--problem", "maxmin",
            "--algorithm", "exact", "--format", layout,
        )
        code, plain, _ = run(capsys, *argv)
        timed_code, timed, err = run(capsys, *argv, "--timings")
        assert code == timed_code == 0 and err == ""
        if layout == "table":
            *rest, last = timed.splitlines(keepends=True)
            assert "".join(rest) == plain
            assert re.fullmatch(r"wall_ms {9}\d+\.\d{3}\n", last)
        else:
            header, row = timed.splitlines()
            plain_header, plain_row = plain.splitlines()
            assert header == plain_header + "\twall_ms"
            assert row.rsplit("\t", 1)[0] == plain_row
            assert re.fullmatch(r"\d+\.\d{3}", row.rsplit("\t", 1)[1])


EMPTY_DISCRETE = {"type": "discrete", "scenarios": [[]]}
EMPTY_RANGES = {"type": "interval", "lower": [], "upper": []}


class TestEmptyWitness:
    """An empty witness scenario (n = 0) prints `-`, as the empty solution does."""

    @pytest.mark.parametrize("uncertainty", [EMPTY_DISCRETE, EMPTY_RANGES],
                             ids=["discrete", "ranges"])
    @pytest.mark.parametrize("argv", [
        ("solve", "--problem", "regret", "--algorithm", "exact"),
        ("solve", "--problem", "regret", "--algorithm", "bruteforce"),
        ("evaluate", "--problem", "regret", "--solution", "-"),
    ], ids=["exact", "bruteforce", "evaluate"])
    def test_dash_in_both_layouts(self, capsys, tmp_path, uncertainty, argv):
        path = _instance_file(tmp_path, "empty", [], uncertainty)
        command, *rest = argv
        code, out, err = run(capsys, command, str(path), *rest)
        assert (code, err) == (0, "")
        assert "witness         -\n" in out
        assert "solution        -\n" in out
        code, out, _ = run(capsys, command, str(path), *rest, "--format", "delimited")
        header, row = out.splitlines()
        fields = dict(zip(header.split("\t"), row.split("\t")))
        assert code == 0 and fields["witness"] == "-" and fields["solution"] == "-"


class TestEpsilon:
    def spy(self, monkeypatch, name):
        seen = []
        real = getattr(robust, name)

        def record(fam, u, eps, *args, **kwargs):
            seen.append(eps)
            return real(fam, u, eps, *args, **kwargs)

        monkeypatch.setattr(robust, name, record)
        return seen

    def test_typed_decimal_reaches_fptas_exactly(self, capsys, monkeypatch):
        seen = self.spy(monkeypatch, "fptas_regret_discrete")
        code, out, _ = run(
            capsys, "solve", str(GOLDEN / "tight_k2.json"),
            "--problem", "regret", "--algorithm", "fptas", "--epsilon", "0.1",
        )
        assert code == 0 and seen == [Fraction(1, 10)]
        assert type(seen[0]) is Fraction
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert fields["epsilon"] == "0.1"

    def test_bench_passes_the_typed_fraction(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "k2.json").write_text((GOLDEN / "tight_k2.json").read_text())
        seen = self.spy(monkeypatch, "fptas_max_min")
        code, _, _ = run(
            capsys, "bench", str(tmp_path), "--problem", "maxmin",
            "--algorithms", "fptas", "--epsilon", "0.3",
        )
        assert code == 0 and seen == [Fraction(3, 10)]

    def test_fraction_text_accepted_and_rendered_as_float(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(GOLDEN / "tight_k2.json"),
            "--problem", "regret", "--algorithm", "fptas", "--epsilon", "1/4",
        )
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert code == 0 and fields["epsilon"] == "0.25"

    def test_non_finite_and_bad_text_keep_their_exit_codes(self, capsys):
        argv = ("solve", str(GOLDEN / "tight_k2.json"),
                "--problem", "regret", "--algorithm", "fptas", "--epsilon")
        code, _, err = run(capsys, *argv, "nan")
        assert code == 11 and "epsilon" in err
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv, "abc")
        assert exc.value.code == 2
        assert "invalid float value: 'abc'" in capsys.readouterr().err

    def test_infinite_or_float_overflowing_epsilon_is_a_validation_error(
        self, capsys, tmp_path
    ):
        (tmp_path / "k2.json").write_text((GOLDEN / "tight_k2.json").read_text())
        for problem in ("maxmin", "regret"):
            for text in ("inf", "-inf", "1e400", "-1e400"):
                for argv in (
                    ("solve", str(GOLDEN / "tight_k2.json"), "--algorithm", "fptas"),
                    ("bench", str(tmp_path), "--algorithms", "fptas"),
                ):
                    code, out, err = run(
                        capsys, *argv, "--problem", problem, f"--epsilon={text}"
                    )
                    assert (code, out) == (11, "")
                    assert err.startswith("error: ") and err.count("\n") == 1


class TestGenerate:
    def test_vertex_cover_kind(self, capsys, tmp_path):
        out_path = tmp_path / "vc.json"
        code, out, _ = run(
            capsys, "generate", "--kind", "vertex-cover", "--out", str(out_path),
            "--n-vertices", "3", "--edges", "1-2,1-3,2-3", "--cover-size", "2",
        )
        assert code == 0 and str(out_path) in out
        instance = parse_instance(out_path)
        assert instance.metadata["oracle_cover_exists"] is True
        assert len(instance.family) == 6

    def test_partition_kind(self, capsys, tmp_path):
        out_path = tmp_path / "p.json"
        code, _, _ = run(
            capsys, "generate", "--kind", "partition", "--values", "1,1",
            "--out", str(out_path),
        )
        assert code == 0
        instance = parse_instance(out_path)
        assert instance.scaling_factor == 2
        assert instance.metadata["oracle_partition_exists"] is True

    def test_random_kind_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "generate", "--kind", "random", "--n", "8", "--model", "discrete",
            "--k", "2", "--w-max", "6", "--density", "0.4", "--seed", "17",
        ]
        assert run(capsys, *argv, "--out", str(a))[0] == 0
        assert run(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_params_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "--kind", "tight-k", "--k", "5",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 11 and "certified" in err

    def test_random_size_limit_is_a_validation_error(self, capsys, tmp_path):
        target = tmp_path / "big.json"
        code, out, err = run(
            capsys, "generate", "--kind", "random", "--n", str(10**12),
            "--model", "interval", "--out", str(target),
        )
        assert code == 11 and out == "" and not target.exists()
        assert err == (
            "error: random instance needs more than 1000000 weight cells "
            "(vertices x scenarios, or 2 x vertices for ranges)\n"
        )

    def test_unwritable_out_is_a_validation_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "generate", "--kind", "tight-midpoint", "--out", str(target)
        )
        assert code == 11 and out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_partition_total_too_large_for_the_oracle(self, capsys, tmp_path):
        # 4300 digits parse, but the oracle's bitset would need 10**4300 bits
        big = "9" * 4300
        target = tmp_path / "p.json"
        code, out, err = run(
            capsys, "generate", "--kind", "partition", "--values", f"{big},{big}",
            "--out", str(target),
        )
        assert code == 11 and out == "" and not target.exists()
        assert err == (
            f"error: partition values sum to more than {gen.PARTITION_TOTAL_LIMIT}, "
            "the largest total the subset-sum oracle accepts\n"
        )

    def test_oversized_vertex_cover_gadget_is_refused(self, capsys, tmp_path):
        target = tmp_path / "vc.json"
        code, out, err = run(
            capsys, "generate", "--kind", "vertex-cover", "--n-vertices", "3",
            "--edges", "1-2", "--cover-size", "100000000", "--out", str(target),
        )
        assert code == 11 and out == "" and not target.exists()
        assert err == (
            "error: vertex-cover gadget needs 300000000 scenario cells "
            f"(edges x cover size x vertices), more than {gen.VERTEX_COVER_CELLS_LIMIT}\n"
        )

    def test_cover_search_too_large_for_the_oracle(self, capsys, tmp_path):
        # K30 at cover size 15: 195,750 cells, but C(30, 15) = 155,117,520 subsets
        edges = ",".join(f"{u}-{v}" for u in range(1, 31) for v in range(u + 1, 31))
        target = tmp_path / "vc.json"
        code, out, err = run(
            capsys, "generate", "--kind", "vertex-cover", "--n-vertices", "30",
            "--edges", edges, "--cover-size", "15", "--out", str(target),
        )
        assert code == 11 and out == "" and not target.exists()
        assert err == (
            f"error: vertex-cover oracle would try more than {gen.VERTEX_COVER_SUBSETS_LIMIT} "
            "vertex subsets (vertices choose cover size), the most it searches\n"
        )

    def test_vertex_cover_cells_too_long_to_print(self, capsys, tmp_path):
        big = "9" * 4300
        code, out, err = run(
            capsys, "generate", "--kind", "vertex-cover", "--n-vertices", big,
            "--edges", "1-2", "--cover-size", big, "--out", str(tmp_path / "vc.json"),
        )
        assert code == 11 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: vertex-cover gadget needs 1 x {big} x {big} ")


VERTEX_COVER_FLAGS = {"--n-vertices": "3", "--edges": "1-2", "--cover-size": "1"}

# (id, arguments after --kind and --out, the one error line)
GENERATE_REFUSALS = [
    *(
        (
            "vertex-cover-without-" + "-".join(flag[2:] for flag in missing),
            ["vertex-cover", *(
                part for flag, value in VERTEX_COVER_FLAGS.items()
                if flag not in missing for part in (flag, value)
            )],
            "vertex-cover needs --n-vertices, --edges and --cover-size",
        )
        for size in (1, 2, 3)
        for missing in itertools.combinations(VERTEX_COVER_FLAGS, size)
    ),
    ("partition-without-values", ["partition"], "partition needs --values"),
    ("partition-bad-values", ["partition", "--values", "1,x"], "bad values list '1,x'"),
    ("tight-k-without-k", ["tight-k"], "tight-k needs --k"),
    ("random-without-n", ["random", "--model", "interval"], "random needs --n and --model"),
    ("random-without-model", ["random", "--n", "4"], "random needs --n and --model"),
    ("random-without-n-and-model", ["random"], "random needs --n and --model"),
    ("random-interval-with-k", ["random", "--n", "4", "--model", "interval", "--k", "3"],
     "k only applies to the discrete model"),
    ("vertex-cover-bad-edge", ["vertex-cover", "--n-vertices", "3", "--edges", "x",
                               "--cover-size", "1"],
     "bad edge 'x'; expected 'u-v' pairs like '1-2,2-3'"),
    ("vertex-cover-no-edges", ["vertex-cover", "--n-vertices", "3", "--edges", "",
                               "--cover-size", "1"],
     "graph has no edges; the scenario set would be empty"),
]

GENERATE_USAGE_HEAD = """\
usage: rwis generate [-h] --kind
                     {vertex-cover,partition,tight-k,tight-midpoint,random}
"""
# 3.13's argparse wraps the usage line before --kind, keeping it with its choices
GENERATE_USAGE_HEAD_313 = """\
usage: rwis generate [-h]
                     --kind {vertex-cover,partition,tight-k,tight-midpoint,random}
"""
GENERATE_HELP_BODY = """\
                     --out OUT [--n-vertices N_VERTICES] [--edges EDGES]
                     [--cover-size COVER_SIZE] [--values VALUES] [--k K]
                     [--n N] [--model {discrete,interval}] [--w-max W_MAX]
                     [--density DENSITY] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --kind {vertex-cover,partition,tight-k,tight-midpoint,random}
  --out OUT
  --n-vertices N_VERTICES
                        vertex-cover: graph size
  --edges EDGES         vertex-cover: e.g. '1-2,2-3,1-3'
  --cover-size COVER_SIZE
                        vertex-cover: budget
  --values VALUES       partition: e.g. '2,2,1,3'
  --k K                 tight-k ratio / random scenario count
  --n N                 random: vertex count
  --model {discrete,interval}
  --w-max W_MAX
  --density DENSITY
  --seed SEED
"""
GENERATE_HELP = (
    GENERATE_USAGE_HEAD_313 if sys.version_info >= (3, 13) else GENERATE_USAGE_HEAD
) + GENERATE_HELP_BODY


class TestGenerateRefusals:
    """Every refusal of `rwis generate` before a generator runs: exit 11,
    nothing on stdout, one error line, no file written."""

    @pytest.mark.parametrize(
        "kind_args, line",
        [row[1:] for row in GENERATE_REFUSALS],
        ids=[row[0] for row in GENERATE_REFUSALS],
    )
    def test_refusal_line(self, capsys, tmp_path, kind_args, line):
        target = tmp_path / "g.json"
        kind, *rest = kind_args
        code, out, err = run(capsys, "generate", "--kind", kind, "--out", str(target), *rest)
        assert (code, out, err) == (11, "", f"error: {line}\n")
        assert not target.exists()

    def test_help_text(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert ran(capsys, ["generate", "--help"]) == (0, GENERATE_HELP, "")


BENCH_REGRET_GOLDEN = """\
instance                 problem  algorithm   value  opt  ratio  wall_ms
partition_2_2_1_3        regret   exact       12     12   1.000  -
partition_2_2_1_3        regret   fptas       -      12   -      -
partition_2_2_1_3        regret   kapprox     -      12   -      -
partition_2_2_1_3        regret   midpoint    16     12   1.333  -
partition_2_2_1_3        regret   bruteforce  12     12   1.000  -
random_n10_k2_w5_seed42  regret   exact       1      1    1.000  -
random_n10_k2_w5_seed42  regret   fptas       1      1    1.000  -
random_n10_k2_w5_seed42  regret   kapprox     1      1    1.000  -
random_n10_k2_w5_seed42  regret   midpoint    -      1    -      -
random_n10_k2_w5_seed42  regret   bruteforce  1      1    1.000  -
tight_k2                 regret   exact       1      1    1.000  -
tight_k2                 regret   fptas       1      1    1.000  -
tight_k2                 regret   kapprox     2      1    2.000  -
tight_k2                 regret   midpoint    -      1    -      -
tight_k2                 regret   bruteforce  1      1    1.000  -
tight_k3                 regret   exact       1      1    1.000  -
tight_k3                 regret   fptas       1      1    1.000  -
tight_k3                 regret   kapprox     2      1    2.000  -
tight_k3                 regret   midpoint    -      1    -      -
tight_k3                 regret   bruteforce  1      1    1.000  -
tight_midpoint           regret   exact       1      1    1.000  -
tight_midpoint           regret   fptas       -      1    -      -
tight_midpoint           regret   kapprox     -      1    -      -
tight_midpoint           regret   midpoint    1      1    1.000  -
tight_midpoint           regret   bruteforce  1      1    1.000  -
vc_5v6e_L3               regret   exact       2      2    1.000  -
vc_5v6e_L3               regret   fptas       2      2    1.000  -
vc_5v6e_L3               regret   kapprox     3      2    1.500  -
vc_5v6e_L3               regret   midpoint    -      2    -      -
vc_5v6e_L3               regret   bruteforce  2      2    1.000  -
"""


class TestBench:
    def test_tight_suite_adversarial_ratios(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        for name in ("tight_k2.json", "tight_k3.json"):
            (suite / name).write_text((GOLDEN / name).read_text())
        out_file = tmp_path / "bench.tsv"
        code, out, _ = run(
            capsys, "bench", str(suite), "--problem", "regret",
            "--algorithms", "kapprox", "--adversarial-ties",
            "--out", str(out_file),
        )
        assert code == 0
        rows = [line.split("\t") for line in out_file.read_text().splitlines()]
        header, data = rows[0], rows[1:]
        ratio_col = header.index("ratio")
        by_instance = {row[0]: row[ratio_col] for row in data}
        assert by_instance["tight_k2"] == "2.000"
        assert by_instance["tight_k3"] == "3.000"

    def test_random_suite_within_guarantee(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        for seed in range(6):
            run(
                capsys, "generate", "--kind", "random", "--n", "9",
                "--model", "interval", "--w-max", "7", "--density", "0.6",
                "--seed", str(seed), "--out", str(suite / f"r{seed}.json"),
            )
        code, out, _ = run(
            capsys, "bench", str(suite), "--problem", "regret",
            "--algorithms", "midpoint,exact",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split()
        ratio_col = header.index("ratio")
        for line in lines[1:]:
            ratio = line.split()[ratio_col]
            assert ratio == "-" or float(ratio) <= 2.0

    def test_rows_sorted_by_instance_id(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        for name in ("tight_k3.json", "tight_k2.json"):
            (suite / name).write_text((GOLDEN / name).read_text())
        code, out, _ = run(
            capsys, "bench", str(suite), "--problem", "maxmin",
            "--algorithms", "exact,bruteforce",
        )
        assert code == 0
        ids = [line.split()[0] for line in out.strip().splitlines()[1:]]
        assert ids == sorted(ids)

    def test_empty_directory(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code, out, _ = run(
            capsys, "bench", str(empty), "--problem", "det", "--algorithms", "exact"
        )
        assert code == 0
        assert out.strip().splitlines()[0].startswith("instance")

    def test_regret_columns_over_the_goldens(self, capsys):
        code, out, _ = run(
            capsys, "bench", str(GOLDEN), "--problem", "regret", "--epsilon", "0.5",
            "--algorithms", "exact,fptas,kapprox,midpoint,bruteforce",
        )
        assert code == 0
        assert out == BENCH_REGRET_GOLDEN

    def test_format_delimited_prints_the_out_file(self, capsys, tmp_path):
        argv = (
            "bench", str(GOLDEN), "--problem", "regret", "--epsilon", "0.5",
            "--algorithms", "exact,fptas,kapprox,midpoint,bruteforce",
        )
        table_file, delimited_file = tmp_path / "t.tsv", tmp_path / "d.tsv"
        code, table, _ = run(capsys, *argv, "--out", str(table_file))
        assert code == 0 and table == BENCH_REGRET_GOLDEN
        code, delimited, _ = run(
            capsys, *argv, "--format", "delimited", "--out", str(delimited_file)
        )
        assert code == 0
        assert delimited.encode() == delimited_file.read_bytes() == table_file.read_bytes()
        assert [row.split("\t") for row in delimited.splitlines()] == [
            row.split() for row in table.splitlines()
        ]

    def test_unwritable_out_prints_nothing(self, capsys, tmp_path):
        target = tmp_path / "missing" / "b.tsv"
        code, out, err = run(
            capsys, "bench", str(GOLDEN), "--problem", "det", "--algorithms", "exact",
            "--out", str(target),
        )
        assert code == 11 and out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_exact_cell_reuses_the_opt_columns_solve(self, capsys, monkeypatch):
        # one exact solve per instance, whether or not exact is listed: the
        # goldens hold 4 discrete and 2 range instances
        calls = []
        for name in ("solve_regret_discrete_exact", "solve_regret_interval_exact"):
            real = getattr(robust, name)

            def counting(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(robust, name, counting)
        for algorithms, flags in (
            ("exact,kapprox,midpoint", ()),
            ("kapprox", ("--timings",)),
            ("kapprox,midpoint,exact", ("--adversarial-ties",)),
        ):
            calls.clear()
            code, out, _ = run(
                capsys, "bench", str(GOLDEN), "--problem", "regret",
                "--algorithms", algorithms, *flags,
            )
            assert code == 0
            assert calls.count("solve_regret_discrete_exact") == 4
            assert calls.count("solve_regret_interval_exact") == 2
        code, out, _ = run(
            capsys, "bench", str(GOLDEN), "--problem", "regret",
            "--algorithms", "exact", "--timings",
        )
        rows = [line.split() for line in out.splitlines()[1:]]
        assert code == 0 and len(rows) == 6
        assert all(row[3] == row[4] and float(row[6]) >= 0 for row in rows)

    def test_unsupported_cells_marked(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "tm.json").write_text((GOLDEN / "tight_midpoint.json").read_text())
        code, out, _ = run(
            capsys, "bench", str(suite), "--problem", "regret",
            "--algorithms", "kapprox",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split()
        assert row[3] == "-" and row[5] == "-"


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck")
        assert code == 0
        assert out.count(": ok") == 4

    def test_ignores_the_guard_variable(self, capsys, monkeypatch):
        # selfcheck takes no --guard-n, so RWIS_GUARD_N must not reach its
        # enumerations: it runs at the default guards
        monkeypatch.setenv("RWIS_GUARD_N", "3")
        code, out, err = run(capsys, "selfcheck")
        assert (code, err) == (0, "")
        assert out.count(": ok") == 4

    def test_a_wrong_bruteforce_fails(self, capsys, monkeypatch):
        real = robust.solve_max_min_bruteforce

        def off_by_one(*args, **kwargs):
            members, value = real(*args, **kwargs)
            return members, value + 1

        monkeypatch.setattr(robust, "solve_max_min_bruteforce", off_by_one)
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        assert out.splitlines() == [
            "selfcheck: deterministic core vs enumeration: FAILED",
            "selfcheck: frontier DP vs enumeration: FAILED",
            "selfcheck: interval regret vs extreme scenarios: ok",
            "selfcheck: approximation guarantees and tight ratios: ok",
        ]

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ((), "92867a2952819128ef531ddf6ca8acbd5f1eb6aa351d02ab1eb651b4e84dba3a"),
            (("--seed", "5"),
             "8deac8f9e9108b4ad60a6e04b00ce75c7e03516b4e206fc150b45bf642488e95"),
        ],
    )
    def test_draws_the_same_instances(self, capsys, monkeypatch, argv, digest):
        # every gen_random call's full argument list, defaults applied, in order
        real = gen.gen_random
        seen = []

        def spy(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(tuple(bound.arguments.items()))
            return real(*args, **kwargs)

        monkeypatch.setattr(gen, "gen_random", spy)
        assert run(capsys, "selfcheck", *argv)[0] == 0
        assert len(seen) == 105
        assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest


def test_readme_table_matches_the_solver_table():
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    documented = {}
    for line in readme.splitlines():
        row = re.fullmatch(r"\| `(\w+)`\s*\|(.*)\|(.*)\|", line)
        if row:
            documented[row[1]] = tuple(
                set(re.findall(r"`(\w+)`", cell)) for cell in row.groups()[1:]
            )
    supported = {}
    for (problem, algorithm), entries in cli.SOLVERS.items():
        cells = supported.setdefault(problem, (set(), set()))
        for cell, entry in zip(cells, entries):
            if callable(entry):
                cell.add(algorithm)
    assert documented == supported


def parsed(capsys, parse, argv):
    """(exit code, stdout, stderr, vars of the Namespace or None) of parse(argv)."""
    try:
        namespace, code = vars(parse(list(argv))), 0
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


def built_parsers(monkeypatch):
    """A list that gets the prog of every ArgumentParser built from now on."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    return progs


# the parsers one build_parser() call builds
FULL_TREE = ["rwis", *(f"rwis {name}" for name in cli.COMMANDS)]


def ran(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TIGHT_K2 = str(GOLDEN / "tight_k2.json")
SOLVE_TIGHT_K2 = ("solve", TIGHT_K2, "--problem", "regret", "--algorithm", "fptas")

# (id, exit code, command line), 0 for a parse or --help: plain lines, which
# build no parser, and each reason a line goes to the full tree
PARSED = [
    ("top-help", 0, ("-h",)),
    ("top-long-help", 0, ("--help",)),
    ("empty", 2, ()),
    ("double-dash", 2, ("--",)),
    ("double-dash-then-command", 2, ("--", "solve")),
    ("unknown-command", 2, ("nope",)),
    ("command-prefix", 2, ("sol",)),
    ("option-first", 2, ("--format", "table", "solve")),
    *((f"{name}-help", 0, (name, "--help")) for name in cli.COMMANDS),
    ("help-before-unknown", 0, ("solve", "-h", "--bogus")),
    ("solve", 0, (*SOLVE_TIGHT_K2, "--epsilon", "1/3", "--timings", "--guard-n", "9")),
    ("solve-missing-algorithm", 2, ("solve", TIGHT_K2, "--problem", "regret")),
    ("solve-missing-everything", 2, ("solve",)),
    ("solve-invalid-choice", 2, ("solve", TIGHT_K2, "--problem", "nope", "--algorithm", "exact")),
    ("solve-bad-epsilon", 2, (*SOLVE_TIGHT_K2, "--epsilon", "abc")),
    ("solve-bad-guard", 2, (*SOLVE_TIGHT_K2, "--guard-n", "x")),
    ("solve-trailing-positional", 2, (*SOLVE_TIGHT_K2, "extra")),
    ("solve-trailing-option", 2, (*SOLVE_TIGHT_K2, "--bogus", "--bogus=1")),
    ("solve-trailing-then-bad-choice", 2, (*SOLVE_TIGHT_K2, "--bogus", "--format", "x")),
    ("solve-double-dash-positional", 0,
     ("solve", "--problem", "det", "--algorithm", "exact", "--", TIGHT_K2)),
    ("solve-double-dash-left-over", 2, (*SOLVE_TIGHT_K2, "--", "--problem", "det")),
    ("solve-abbreviated", 0,
     ("solve", TIGHT_K2, "--prob", "det", "--alg", "exact", "--form", "delimited", "--adv")),
    ("solve-ambiguous-prefix", 2,
     ("solve", TIGHT_K2, "--problem", "det", "--algorithm", "exact", "--a", "x")),
    ("evaluate", 0, ("evaluate", TIGHT_K2, "--problem", "regret", "--solution", "2,3")),
    ("evaluate-missing-solution", 2, ("evaluate", TIGHT_K2, "--problem", "regret")),
    ("generate", 0,
     ("generate", "--kind", "random", "--n", "5", "--model", "discrete", "--k", "2",
      "--out", "x.json", "--density", "0.25", "--w-max", "3")),
    ("generate-bad-density", 2,
     ("generate", "--kind", "random", "--out", "x.json", "--density", "x")),
    ("bench", 0,
     ("bench", str(GOLDEN), "--problem", "regret", "--algorithms", "exact",
      "--epsilon", "0.5", "--out", "t.tsv")),
    ("bench-bad-epsilon", 2,
     ("bench", str(GOLDEN), "--problem", "regret", "--algorithms", "exact", "--epsilon", "q")),
    ("selfcheck", 0, ("selfcheck", "--seed", "3")),
    ("selfcheck-stray", 2, ("selfcheck", "stray")),
    ("solve-equals", 0, ("solve", TIGHT_K2, "--problem=det", "--algorithm", "exact")),
    ("solve-repeated-option", 0, (*SOLVE_TIGHT_K2, "--problem", "det")),
    ("solve-repeated-timings", 0, (*SOLVE_TIGHT_K2, "--timings", "--timings")),
    ("solve-negative-epsilon", 0, (*SOLVE_TIGHT_K2, "--epsilon", "-1")),
    ("solve-dash-instance", 0, ("solve", "-", "--problem", "det", "--algorithm", "exact")),
    ("solve-empty-problem", 2, ("solve", TIGHT_K2, "--problem", "", "--algorithm", "exact")),
    ("evaluate-empty-solution", 0, ("evaluate", TIGHT_K2, "--problem", "det", "--solution", "")),
    ("solve-options-first", 0, ("solve", "--problem", "regret", "--algorithm", "fptas", TIGHT_K2)),
]

# the ids of the PARSED rows that are plain: cli._plain_args parses them
PLAIN = {
    "solve", "evaluate", "generate", "bench", "selfcheck",
    "evaluate-empty-solution", "solve-options-first",
}


class TestParserPerProcess:
    SOLVES = (
        ("tight_k2.json", "regret", "fptas", "--epsilon", "0.5"),
        ("vc_5v6e_L3.json", "maxmin", "exact"),
        ("partition_2_2_1_3.json", "regret", "midpoint"),
    )
    # one --help and one usage error per command
    EXITS = (
        *((name, "--help") for name in cli.COMMANDS),
        ("solve", TIGHT_K2, "--problem", "regret"),
        ("evaluate", TIGHT_K2, "--problem", "regret", "--solution", "1", "extra"),
        ("generate", "--kind", "nope", "--out", "x.json"),
        ("bench", str(GOLDEN), "--problem", "regret", "--algorithms", "exact", "--guard-n", "x"),
        ("selfcheck", "--seed", "x"),
    )

    @staticmethod
    def solve_argv(name, problem, algorithm, *rest):
        return [
            "solve", str(GOLDEN / name), "--problem", problem, "--algorithm", algorithm,
            *rest,
        ]

    @pytest.mark.parametrize("name, code, argv", PARSED, ids=[row[0] for row in PARSED])
    def test_per_command_route_parses_as_the_full_tree(
        self, capsys, monkeypatch, name, code, argv
    ):
        monkeypatch.setenv("COLUMNS", "80")
        built = built_parsers(monkeypatch)
        routed = parsed(capsys, cli._parse_args, argv)
        # a plain row builds no parser, any other row one full tree
        assert built == ([] if name in PLAIN else FULL_TREE)
        assert routed[0] == code
        assert routed == parsed(capsys, cli.build_parser().parse_args, argv)

    def test_plain_solves_build_no_parser(self, capsys, monkeypatch):
        built = built_parsers(monkeypatch)
        for solve in self.SOLVES:
            assert run(capsys, *self.solve_argv(*solve))[0] == 0
        assert built == []
        assert cli.build_parser() is not cli.build_parser()

    def test_a_line_argparse_parses_builds_one_full_tree(self, capsys, monkeypatch):
        built = built_parsers(monkeypatch)
        solve = ["solve", TIGHT_K2, "--problem=regret", "--algorithm=fptas", "--epsilon=0.5"]
        assert run(capsys, *solve)[0] == 0
        assert run(capsys, *solve)[0] == 0
        code, out, _ = run(capsys, "evaluate", TIGHT_K2, "--prob", "regret", "--solution", "2,3")
        assert code == 0 and "evaluate" in out
        assert built == FULL_TREE * 3

    def test_top_level_help_lists_every_command(self, capsys):
        code, out, err = ran(capsys, ["--help"])
        assert code == 0 and err == ""
        assert "{solve,evaluate,generate,bench,selfcheck}" in out
        for name, command in cli.COMMANDS.items():
            assert re.search(rf"^    {name} +{re.escape(command.help)}$", out, re.M)

    def test_repeated_calls_print_the_same_bytes(self, capsys):
        def exits(*argv):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        calls = (
            lambda: exits("--help"),
            lambda: exits("solve", "--help"),
            lambda: exits("solve", str(GOLDEN / "tight_k2.json"), "--problem", "nope"),
            lambda: run(capsys, *self.solve_argv(*self.SOLVES[0])),
        )
        first = [call() for call in calls]
        assert [code for code, _, _ in first] == [0, 0, 2, 0]
        assert first[2][2].startswith("usage: rwis solve ")
        assert [call() for call in calls] == first

    def test_process_entry_point_prints_what_main_prints(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        codes = []
        for argv in [self.solve_argv(*solve) for solve in self.SOLVES] + list(self.EXITS):
            expected = ran(capsys, argv)
            proc = subprocess.run(
                [sys.executable, "-m", "rwis.cli", *argv],
                capture_output=True, env=env, check=False,
            )
            got = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
            assert got == expected
            codes.append(got[0])
        assert codes == [0] * (len(self.SOLVES) + len(cli.COMMANDS)) + [2] * len(cli.COMMANDS)


class RecordingNamespace(argparse.Namespace):
    """A Namespace that notes the name of every attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# command -> minimal valid command lines that, together, take every branch
# that reads an option; {out} is a path to write, {dir} a directory of instances
READ_BY = {
    "solve": [["solve", TIGHT_K2, "--problem", "regret", "--algorithm", "exact"]],
    "evaluate": [["evaluate", TIGHT_K2, "--problem", "regret", "--solution", "1"]],
    "generate": [
        ["generate", "--kind", kind, "--out", "{out}", *rest]
        for kind, rest in (
            ("vertex-cover", [p for pair in VERTEX_COVER_FLAGS.items() for p in pair]),
            ("partition", ["--values", "2,2,1,3"]),
            ("tight-k", ["--k", "2"]),
            ("tight-midpoint", []),
            ("random", ["--n", "4", "--model", "discrete", "--k", "2"]),
        )
    ],
    "bench": [["bench", "{dir}", "--problem", "regret", "--algorithms", "exact,kapprox"]],
    "selfcheck": [["selfcheck"]],
}

# (command, the flag and its value) each command refuses: it never read them
REMOVED_FLAGS = [
    (command, flag)
    for command, flags in (
        ("generate", (["--format", "table"], ["--guard-n", "3"], ["--timings"])),
        ("selfcheck", (["--format", "table"], ["--guard-n", "3"], ["--timings"])),
        ("evaluate", (["--guard-n", "3"], ["--timings"])),
    )
    for flag in flags
]


class TestEveryOptionIsRead:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_the_handler_reads_every_option_its_parser_defines(
        self, capsys, tmp_path, command
    ):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "tight_k2.json").write_bytes(Path(TIGHT_K2).read_bytes())
        defined, reads = set(), set()
        for argv in READ_BY[command]:
            argv = [a.format(out=tmp_path / "g.json", dir=tmp_path / "in") for a in argv]
            args = cli.build_parser().parse_args(argv)
            recording = RecordingNamespace(**vars(args))
            assert args.func(recording) == 0
            defined |= set(vars(args)) - {"func", "command"}
            reads |= recording._reads
        capsys.readouterr()
        assert defined <= reads, sorted(defined - reads)

    @pytest.mark.parametrize(
        "command, flag", REMOVED_FLAGS,
        ids=[f"{command}{flag[0]}" for command, flag in REMOVED_FLAGS],
    )
    def test_an_option_the_command_does_not_read_is_a_usage_error(
        self, capsys, tmp_path, command, flag
    ):
        target = tmp_path / "g.json"
        argv = {
            "generate": ["generate", "--kind", "tight-midpoint", "--out", str(target)],
            "selfcheck": ["selfcheck"],
            "evaluate": READ_BY["evaluate"][0],
        }[command]
        code, out, err = ran(capsys, [*argv, *flag])
        assert (code, out) == (2, "")
        assert err.endswith(f"rwis: error: unrecognized arguments: {' '.join(flag)}\n")
        assert not target.exists()


def _valid_value(rng, spec):
    """A value the option with add_argument options `spec` accepts."""
    if spec.get("choices"):
        return rng.choice(spec["choices"])
    return rng.choice({
        int: ("0", "3", "12"), float: ("0.25", "1"), cli._epsilon_arg: ("0.5", "1/3", "inf"),
    }.get(spec.get("type"), ("x.json", "1,2", "-")))


def _vocabulary(command):
    """Tokens a random `command` line is drawn from: its option strings and
    their prefixes, its choices, '--x=y', '--', '-h', '-', '', numbers,
    negative numbers and bad values."""
    tokens = ["--", "-h", "--help", "-", "", "--bogus", "0", "7", "0.5", "1/3", "inf",
              "-1", "-0.5", "-x", "abc", "1,2", "x.json"]
    for names, spec in cli.COMMANDS[command].arguments:
        if names[0].startswith("-"):
            name = names[0]
            tokens += [name, name, name[:4], name[:-1], f"{name}=3", f"{name}=table"]
            tokens += spec.get("choices", ())
    return tokens


def _random_line(rng, command):
    """A random line of `command`: a well-formed one, in random order, with
    0 to 3 tokens then inserted, dropped or replaced."""
    groups = []
    for names, spec in cli.COMMANDS[command].arguments:
        if not names[0].startswith("-"):
            groups.append([rng.choice(("x.json", "dir", ""))])
        elif spec.get("required") or rng.random() < 0.4:
            flag = spec.get("action") == "store_true"
            groups.append([names[0]] if flag else [names[0], _valid_value(rng, spec)])
    rng.shuffle(groups)
    line = [token for group in groups for token in group]
    vocabulary = _vocabulary(command)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        at = rng.randint(0, len(line))
        edit = rng.choice(("insert", "drop", "replace"))
        if edit != "insert" and at < len(line):
            del line[at]
        if edit != "drop":
            line.insert(at, rng.choice(vocabulary))
    return [command, *line]


# the call shapes of the benchmark's workloads
WORKLOADS = TESTS.parent / "bench" / "workloads.py"


def _workload_lines(monkeypatch, path):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [
        call.argv(path) for workload in workloads.WORKLOADS.values() for call in workload.calls
    ]


class TestPlainLines:
    LINES_PER_COMMAND = 150

    def test_random_lines_parse_as_the_full_tree(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        rng = random.Random(2025)
        plain = dict.fromkeys(cli.COMMANDS, 0)
        for command in cli.COMMANDS:
            for _ in range(self.LINES_PER_COMMAND):
                argv = _random_line(rng, command)
                routed = parsed(capsys, cli._parse_args, argv)
                expected = parsed(capsys, cli.build_parser().parse_args, argv)
                assert routed == expected, argv
                if routed[3] is not None:  # the same attributes in the same order
                    assert list(routed[3]) == list(expected[3]), argv
                plain[command] += cli._plain_args(argv[0], argv[1:]) is not None
        # neither route is left untested for any command
        assert all(10 <= count <= self.LINES_PER_COMMAND - 10 for count in plain.values()), plain

    def test_benchmark_and_handler_lines_never_reach_argparse(
        self, capsys, monkeypatch, tmp_path
    ):
        solves = [TestParserPerProcess.solve_argv(*solve) for solve in TestParserPerProcess.SOLVES]
        workload_lines = _workload_lines(monkeypatch, TIGHT_K2)
        assert {argv[0] for argv in workload_lines} == {"solve"}
        lines = workload_lines + solves + [
            [token.format(out=tmp_path / "g.json", dir=tmp_path) for token in argv]
            for argvs in READ_BY.values() for argv in argvs
        ]
        expected = [vars(cli.build_parser().parse_args(argv)) for argv in lines]
        printed = []
        for argv in solves:
            args = cli.build_parser().parse_args(argv)
            printed.append((args.func(args), *capsys.readouterr()))

        def refuse(*args, **kwargs):
            raise AssertionError("a plain line built an argparse parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert [vars(cli._parse_args(argv)) for argv in lines] == expected
        assert [run(capsys, *argv) for argv in solves] == printed
