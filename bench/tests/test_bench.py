"""Tests of the benchmark itself: verifier, failure accounting, sizing,
determinism, and agreement between ``BENCHMARK.json`` and ``metrics.py``.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import statistics
from pathlib import Path

import pytest

import harness
import metrics
from rwis import fileformat, gen, robust
from tracing import library_caches
from verify import FIELDS, parse_table, verify_operation
from workloads import MIN_OPS, WORKLOADS, Call, Workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _render(record: dict) -> str:
    width = max(len(name) for name in FIELDS)
    return "".join(f"{name.ljust(width)}  {record[name]}\n" for name in FIELDS)


def _solve(tmp_path, instance, calls, name="inst"):
    path = tmp_path / f"{name}.json"
    fileformat.write_instance(instance, path)
    harness.clear(library_caches())
    _, results = harness.run_operation(path, calls)
    return path, results


DISCRETE_CALLS = (
    Call("maxmin", "exact"),
    Call("regret", "exact"),
    Call("regret", "kapprox"),
    Call("maxmin", "fptas", "0.5"),
)


@pytest.fixture
def discrete(tmp_path):
    inst = gen.gen_random(n=10, model="discrete", k=3, w_max=9, density=0.6, seed=3)
    path, results = _solve(tmp_path, inst, DISCRETE_CALLS)
    return inst, path.stem, results


def test_verifier_accepts_real_outputs(discrete, tmp_path):
    inst, stem, results = discrete
    assert verify_operation(inst, stem, DISCRETE_CALLS, results) == [None] * 4
    interval = gen.gen_random(n=12, model="interval", w_max=50, density=0.5, seed=4)
    calls = (Call("regret", "exact"), Call("regret", "midpoint"), Call("maxmin", "exact"))
    path, results = _solve(tmp_path, interval, calls, "interval")
    assert verify_operation(interval, path.stem, calls, results) == [None] * 3


def _corrupt(results, index, **fields):
    record = parse_table(results[index][1])
    record.update(fields)
    out = list(results)
    out[index] = (0, _render(record))
    return out


def test_verifier_rejects_wrong_value(discrete):
    inst, stem, results = discrete
    value = int(parse_table(results[0][1])["value"])
    errors = verify_operation(inst, stem, DISCRETE_CALLS,
                              _corrupt(results, 0, value=str(value + 1)))
    assert errors[0] is not None and "evaluator" in errors[0]
    assert errors[1:] == [None] * 3


def test_verifier_rejects_dependent_set(discrete):
    inst, stem, results = discrete
    ivs = inst.family.intervals
    i, j = next(
        (i, j)
        for i in range(len(ivs))
        for j in range(i + 1, len(ivs))
        if max(ivs[i].lo, ivs[j].lo) <= min(ivs[i].hi, ivs[j].hi)
    )
    errors = verify_operation(inst, stem, DISCRETE_CALLS,
                              _corrupt(results, 1, solution=f"{i + 1},{j + 1}"))
    assert errors[1] is not None and "not an independent set" in errors[1]


def test_verifier_rejects_non_attaining_witness(discrete):
    inst, stem, results = discrete
    record = parse_table(results[1][1])
    members = () if record["solution"] == "-" else tuple(map(int, record["solution"].split(",")))
    value = int(record["value"])
    fam, scen = inst.family, inst.uncertainty
    other = next(
        s for s in scen.scenarios
        if robust.opt_weight(fam, s) - robust.weight_under(members, s) != value
    )
    errors = verify_operation(inst, stem, DISCRETE_CALLS,
                              _corrupt(results, 1, witness=",".join(map(str, other))))
    assert errors[1] is not None and "witness attains" in errors[1]


def test_verifier_cross_checks_against_exact(discrete):
    """An exact record that is self-consistent but not optimal (the empty
    set, value 0) exposes the fptas record as beating the optimum."""
    inst, stem, results = discrete
    assert int(parse_table(results[3][1])["value"]) > 0
    fake = _corrupt(results, 0, value="0", solution="-")
    errors = verify_operation(inst, stem, DISCRETE_CALLS, fake)
    assert errors[0] is None
    assert errors[3] is not None and "beats the exact optimum" in errors[3]


def test_refused_call_counts_as_failed(tmp_path):
    """An interval instance above the 20-vertex guard: exact is refused."""
    workload = Workload(
        "refused",
        (Call("regret", "exact"), Call("regret", "midpoint")),
        lambda rng, i: gen.gen_random(n=21, model="interval", w_max=9, density=0.5, seed=i),
        nominal_ops_per_s=1.0,
        pool=1,
    )
    pool = harness.Pool(workload, seed=0, seconds=1, workdir=tmp_path)
    pool.generate()
    _, results = harness.run_operation(pool.paths[0], workload.calls)
    run = harness.Run("refused", 0, False)
    pool.check(0, results, run)
    assert results[0][0] == 12  # the CLI's guard exit code
    assert (run.attempted, run.failed) == (2, 1)
    assert not run.correct and "exited with code 12" in run.errors[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_sizes_keep_min_ops(name, tmp_path):
    """At the benchmark's run length, instances of the configured sizes
    leave room for MIN_OPS operations with a 1.5x margin (times at the
    reference speed, as the benchmark reports them)."""
    workload = WORKLOADS[name]
    pool = harness.Pool(workload, seed=11, seconds=1, workdir=tmp_path)
    pool.paths = pool.paths[:12]
    pool.generate()
    caches = library_caches()
    pool.warm_up(caches)
    times, cal = [], harness.Calibration()
    for i, path in enumerate(pool.paths):
        harness.clear(caches)
        cal.before(i)
        times.append(harness.run_operation(path, workload.calls)[0])
        cal.after(times[-1])
    mean = statistics.mean(cal.scaled(times))
    assert SPEC["run_seconds"] / mean >= 1.5 * MIN_OPS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_are_deterministic(name, tmp_path):
    first = harness.run_workload(name, 5, 0.1, True, tmp_path, 0.0, n_ops=3)
    again = harness.run_workload(name, 5, 0.1, True, tmp_path, 0.0, n_ops=3)
    assert first.correct and again.correct, first.errors + again.errors
    assert first.instances_sha256 == again.instances_sha256
    assert first.outputs_sha256 == again.outputs_sha256
    assert first.counts == again.counts
    other = harness.run_workload(name, 6, 0.1, True, tmp_path, 0.0, n_ops=3)
    assert other.correct, other.errors
    assert other.instances_sha256 != first.instances_sha256


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warm_up_instance_does_not_depend_on_seed(name, tmp_path):
    files = []
    for seed in (1, 2):
        pool = harness.Pool(WORKLOADS[name], seed, 1, tmp_path / str(seed))
        pool.workdir.mkdir()
        pool.warm_up(library_caches())
        files.append(pool.warmup_path.read_bytes())
    assert files[0] == files[1]


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    run = harness.run_workload("frontier-k3", 1, 0.2, False, tmp_path, 0.0)
    assert run.correct, run.errors
    assert run.ops >= MIN_OPS
    assert list(run.metrics) == [m.name for m in metrics.END_TO_END]
    assert all(value > 0 for value, _ in run.metrics.values())


def test_benchmark_json_matches_metric_definitions():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    bound = {m.name: m.bound for m in metrics.END_TO_END}
    assert bound["setup_s"] == max(bound.values())
    for layer in metrics.PER_LAYER:
        assert set(layer.moves) <= set(bound)
        assert set(layer.workloads) <= set(WORKLOADS)
