"""One benchmark run of one workload: set-up, timed loop, verification.

Closed loop, one client, one process.  Set-up writes the workload's seeded
instance files with ``rwis.gen`` and ``rwis.fileformat``; the loop then
sends each instance through the in-process CLI entry point
``rwis.cli.main(["solve", ...])`` with stdout captured, once per call of the
workload.  One operation is one instance taken through all of its calls.
Every ``functools`` cache in the library is emptied before each operation,
so every operation starts as cold as a fresh ``rwis solve`` process.

An untraced run (``trace=False``) times operations until ``seconds`` of
operation time have passed and at least ``MIN_OPS`` operations have run.  A
traced run times a fixed number of operations, sized to take half of
``seconds`` (so that its counts repeat exactly), then repeats them untraced
to measure the tracing overhead and to confirm the outputs are
byte-identical.

Times are reported at the reference machine's speed.  On the reference
machine, a 2-vCPU Xeon VM shared with other tenants, the speed of the same
pure-Python work drifts by up to 2x within a minute.  A fixed calibration
step (parsing a constant JSON document) is timed before an operation
whenever 20 ms of operation time have passed since the last step.  Over windows of a few operations its
time correlates with the operations' time (r = 0.77 to 0.96 on the four
workloads), and dividing by it cuts the windows' coefficient of variation
from 0.18-0.24 to 0.06-0.11.  Each operation's wall time is multiplied by
``REFERENCE_KERNEL_S`` over the median of the five nearest calibration
steps.  Raw wall-clock figures are printed beside the scaled ones.

Set-up is timed in process CPU time (user plus system), scaled by the same
calibration step timed in CPU time.  On the reference machine creating a
file costs about 0.45 ms of system time, twenty times as much as rewriting
one.  With two busy-looping processes competing for the two vCPUs, the wall
time of a frontier-k3 set-up rose by 60-90% and its CPU time by less than
20%.  Set-up runs ``SETUP_REPEATS`` times into the same files: the first
run creates them, and the median is reported.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import time
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from rwis import cli, fileformat, robust
from rwis.scenarios import DiscreteScenarioSet

from metrics import END_TO_END, PER_LAYER
from tracing import Tracer, library_caches
from verify import verify_operation
from workloads import MIN_OPS, WORKLOADS

# Set-ups per run; the median is reported (the first one, which creates
# the files, is the slowest).
SETUP_REPEATS = 5
# Duration of one calibration step on the reference machine (Intel Xeon,
# 2 vCPUs, CPython 3.11.7) when it is otherwise idle: the speed reported
# times are scaled to.
REFERENCE_KERNEL_S = 1.3e-3
CALIBRATE_EVERY_S = 0.02
# Stop an untraced loop after this much wall time even if MIN_OPS has not
# been reached, so a run always ends well inside its time limit.
WALL_CAP_S = 120.0


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    instances_sha256: str = ""
    outputs_sha256: str = ""
    counts: dict[str, int] = field(default_factory=dict)
    # unscaled wall-clock figures, printed beside the metrics
    raw: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


# A fixed JSON document, parsed by the calibration loop.  Parsing it
# allocates about as many small objects as the operations do, so it slows
# down under memory contention about as much as they do.
_CALIBRATION_DOC = json.dumps([[i, 3 * i, [i % 7, i % 11]] for i in range(4000)])


def calibration_seconds(clock=time.perf_counter) -> float:
    """One timed parse of the calibration document, with the collector paused."""
    gc.disable()
    try:
        t0 = clock()
        json.loads(_CALIBRATION_DOC)
        return clock() - t0
    finally:
        gc.enable()


class Calibration:
    """Calibration steps taken between operations, at most one per
    CALIBRATE_EVERY_S of operation time."""

    def __init__(self):
        self.at: list[int] = []
        self.seconds: list[float] = []
        self._since = float("inf")

    def before(self, index: int) -> None:
        if self._since >= CALIBRATE_EVERY_S:
            self.at.append(index)
            self.seconds.append(calibration_seconds())
            self._since = 0.0

    def after(self, elapsed: float) -> None:
        self._since += elapsed

    def slowdown(self) -> float:
        return statistics.median(self.seconds) / REFERENCE_KERNEL_S

    def scaled(self, times: list[float]) -> list[float]:
        """Operation times at reference speed, from the five nearest steps."""
        out = []
        for i, t in enumerate(times):
            j = bisect_right(self.at, i)
            local = statistics.median(self.seconds[max(0, j - 3): j + 2])
            out.append(t * REFERENCE_KERNEL_S / local)
        return out


def clear(caches) -> None:
    """Empty the library's caches, as a fresh ``rwis`` process has them."""
    for cache in caches.values():
        cache.cache_clear()


def run_operation(path: Path, calls) -> tuple[float, list[tuple[int, str]]]:
    """Send one instance through every call.

    Returns (seconds, [(exit code, stdout, or stderr when the code is not 0)]).
    """
    results = []
    t0 = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(call.argv(str(path)))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed call, not a crash
                code = 1
                err.write(f"{type(exc).__name__}: {exc}")
        results.append((code, out.getvalue() if code == 0 else err.getvalue()))
    return time.perf_counter() - t0, results


class Pool:
    """The workload's instance files, with the verified output of each."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.size = workload.pool_size(seconds)
        self.workdir = workdir
        self.paths = [workdir / f"{workload.name}-{i:05d}.json" for i in range(self.size)]
        self.warmup_path = workdir / "warm-up.json"
        # digest of each call's (exit code, output), by instance index
        self.outputs: dict[int, list[bytes]] = {}
        self.discrete: dict[int, bool] = {}

    def generate(self) -> None:
        rng = random.Random(f"{self.workload.name}:{self.seed}")
        for i, path in enumerate(self.paths):
            fileformat.write_instance(self.workload.make(rng, i), path)

    def warm_up(self, caches) -> None:
        # the same throw-away instance for every seed, so that set-up does
        # the same work whatever the seed
        rng = random.Random(f"{self.workload.name}:warm-up")
        fileformat.write_instance(self.workload.make(rng, 0), self.warmup_path)
        run_operation(self.warmup_path, self.workload.calls)
        clear(caches)

    def instances_digest(self) -> str:
        h = hashlib.sha256()
        for path in self.paths:
            h.update(path.read_bytes())
        return h.hexdigest()

    def outputs_digest(self) -> str:
        h = hashlib.sha256()
        for k in sorted(self.outputs):
            h.update(f"{k}\t".encode())
            for digest in self.outputs[k]:
                h.update(digest)
        return h.hexdigest()

    def check(self, k: int, results, run: Run):
        """Verify one operation's results; returns the parsed instance or None."""
        calls = self.workload.calls
        run.attempted += len(calls)
        instance = None
        digests = [hashlib.sha256(f"{code}\n{out}".encode()).digest() for code, out in results]
        if k in self.outputs:
            errors = [
                None if got == first else f"{call.label}: output differs from the "
                "first solve of this instance"
                for call, got, first in zip(calls, digests, self.outputs[k])
            ]
        else:
            self.outputs[k] = digests
            path = self.paths[k]
            instance = fileformat.parse_instance(path)
            self.discrete[k] = isinstance(instance.uncertainty, DiscreteScenarioSet)
            errors = verify_operation(instance, path.stem, calls, results)
        for e in errors:
            if e is not None:
                run.failed += 1
                if len(run.errors) < 20:
                    run.errors.append(f"{self.paths[k].name}: {e}")
        return instance


def _set_up(pool: Pool, caches, tracer: Tracer | None):
    """Set up SETUP_REPEATS times, timed in process CPU time.

    Returns (CPU seconds of each set-up at reference speed, layer totals in
    reference-speed wall-clock ms, reference CPU speed over measured CPU speed).
    """
    times, kernel, wall_kernel, layer = [], [], [], []

    def calibrate():
        for _ in range(5):
            kernel.append(calibration_seconds(time.process_time))
            wall_kernel.append(calibration_seconds())

    for _ in range(SETUP_REPEATS):
        calibrate()
        t0 = time.process_time()
        if tracer is not None:
            totals = tracer.reset_totals()
            tracer.active = True
        pool.generate()
        if tracer is not None:
            tracer.active = False
            gen_s = sum(totals.busy[tracer.name_id(n)] for n in
                        ("gen.gen_random", "gen.gen_partition", "gen.gen_vertex_cover"))
            layer.append({"gen.ms": 1e3 * gen_s, "fileformat.write_instance.ms":
                          1e3 * tracer.total("fileformat.write_instance")})
        pool.warm_up(caches)
        times.append(time.process_time() - t0)
    calibrate()
    speed = REFERENCE_KERNEL_S / statistics.median(kernel)
    wall_speed = REFERENCE_KERNEL_S / statistics.median(wall_kernel)
    for rep in layer:
        for name in rep:
            rep[name] *= wall_speed
    return [speed * t for t in times], layer, speed


def _untraced_loop(pool: Pool, caches, seconds: float, run: Run):
    calls = pool.workload.calls
    op_times: list[float] = []
    cal = Calibration()
    spent = 0.0
    start = time.perf_counter()
    while spent < seconds or len(op_times) < MIN_OPS:
        if time.perf_counter() - start > WALL_CAP_S:
            run.errors.append(f"stopped after {WALL_CAP_S:.0f} s wall time")
            break
        k = len(op_times) % pool.size
        clear(caches)
        cal.before(len(op_times))
        elapsed, results = run_operation(pool.paths[k], calls)
        cal.after(elapsed)
        op_times.append(elapsed)
        spent += elapsed
        pool.check(k, results, run)
    return op_times, cal


def _cache_counts(caches, name: str) -> tuple[int, int]:
    cache = caches.get(name)
    if cache is None:
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


def _traced_loop(pool: Pool, caches, n_ops: int, tracer: Tracer, run: Run) -> dict:
    calls = pool.workload.calls
    totals = tracer.reset_totals()
    exact = [tracer.name_id(n) for n in
             ("robust.solve_max_min_exact", "robust.solve_regret_discrete_exact")]
    probe = tracer.name_id("robust.pareto_frontier")
    extra = {"op_times": [], "cal": Calibration(), "backtrack_ms": 0.0, "frontier_sum": 0,
             "frontier_max": 0, "prepared": [0, 0], "opt_weight": [0, 0], "outputs": []}
    for i in range(n_ops):
        k = i % pool.size
        clear(caches)
        before = [(totals.self_[e], totals.calls[e]) for e in exact]
        extra["cal"].before(i)
        tracer.op = i
        tracer.active = True
        elapsed, results = run_operation(pool.paths[k], calls)
        tracer.active = False
        extra["cal"].after(elapsed)
        extra["op_times"].append(elapsed)
        extra["outputs"].append(results)
        for key, name in (("prepared", "core._prepared"),
                          ("opt_weight", "robust._opt_weight_cached")):
            hits, misses = _cache_counts(caches, name)
            extra[key][0] += hits
            extra[key][1] += misses
        instance = pool.check(k, results, run)
        if pool.discrete[k]:
            instance = instance or fileformat.parse_instance(pool.paths[k])
            busy_before = totals.busy[probe]
            tracer.active = True
            size = len(robust.pareto_frontier(instance.family, instance.uncertainty).vectors)
            tracer.active = False
            probe_s = totals.busy[probe] - busy_before
            extra["frontier_sum"] += size
            extra["frontier_max"] = max(extra["frontier_max"], size)
            for (self_before, calls_before), e in zip(before, exact):
                extra["backtrack_ms"] += 1e3 * (
                    totals.self_[e] - self_before - (totals.calls[e] - calls_before) * probe_s
                )
    return extra


def _replay(pool: Pool, caches, extra: dict, run: Run) -> float:
    """Repeat the traced operations untraced; returns their scaled seconds."""
    times, cal = [], Calibration()
    for i, traced in enumerate(extra["outputs"]):
        clear(caches)
        cal.before(i)
        elapsed, results = run_operation(pool.paths[i % pool.size], pool.workload.calls)
        cal.after(elapsed)
        times.append(elapsed)
        if results != traced:
            run.errors.append(f"operation {i}: traced and untraced outputs differ")
    return sum(cal.scaled(times))


def _layer_metrics(tracer: Tracer, n: int, extra: dict, setup_layer: list[dict],
                   replay_s: float) -> dict[str, float]:
    speed = 1 / extra["cal"].slowdown()

    def per_op(name, field="busy"):
        value = tracer.total(name, field) / n
        return value if field in ("calls", "items") else 1e3 * speed * value

    def ratio(pair):
        hits, misses = pair
        return hits / (hits + misses) if hits + misses else 0.0

    values = {
        "fileformat.parse_instance.ms": per_op("fileformat.parse_instance"),
        "fileformat.bytes_in": per_op("fileformat.parse_instance", "items"),
        "cli.main.self_ms": per_op("cli.main", "self_"),
        "core.max_weight_is.calls": per_op("core.max_weight_is", "calls"),
        "core.max_weight_is.first_ms": per_op("core.max_weight_is.first"),
        "core.max_weight_is.repeat_ms": per_op("core.max_weight_is.repeat"),
        "core.enumerate_independent_sets.sets":
            per_op("core.enumerate_independent_sets", "items"),
        "core.enumerate_independent_sets.self_ms":
            per_op("core.enumerate_independent_sets", "self_"),
        "core.prepared.hit_ratio": ratio(extra["prepared"]),
        "robust.opt_weight.hit_ratio": ratio(extra["opt_weight"]),
        "scenarios.worst_case_scenario.calls":
            per_op("scenarios.worst_case_scenario", "calls"),
        "scenarios.worst_case_scenario.ms": per_op("scenarios.worst_case_scenario"),
        "robust.pareto_frontier.ms": per_op("robust.pareto_frontier"),
        "robust.frontier_size.final_sum": extra["frontier_sum"] / n,
        "robust.frontier_size.final_max": extra["frontier_max"],
        "robust.select_backtrack.ms": speed * extra["backtrack_ms"] / n,
        "robust.solve_regret_interval_exact.self_ms":
            per_op("robust.solve_regret_interval_exact", "self_"),
        "robust.opt_weight.calls": per_op("robust.opt_weight", "calls"),
        "trace.overhead_ratio": sum(extra["cal"].scaled(extra["op_times"])) / replay_s,
    }
    for name in ("robust.solve_max_min_exact", "robust.solve_regret_discrete_exact",
                 "robust.fptas_max_min", "robust.fptas_regret_discrete",
                 "robust.opt_weight", "robust.max_regret_discrete",
                 "robust.max_regret_interval", "approx.k_approx_regret",
                 "approx.midpoint_approx_regret"):
        values[f"{name}.ms"] = per_op(name)
    for name in ("gen.ms", "fileformat.write_instance.ms"):
        values[name] = statistics.median(rep[name] for rep in setup_layer)
    return values


def _timings(times: list[float]) -> dict[str, float]:
    return {
        "instances_per_s": len(times) / sum(times),
        "instance_ms_p50": 1e3 * statistics.median(times),
        "instance_ms_p90": 1e3 * statistics.quantiles(times, n=10)[-1],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 import_s: float, n_ops: int | None = None) -> Run:
    """Run one workload; `import_s` is the CPU time importing the library
    took, `n_ops` overrides the traced operation count (tests)."""
    workload = WORKLOADS[name]
    run = Run(name, seed, trace)
    workdir = root / ".bench_work" / f"{name}-{seed}-{int(trace)}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    caches = library_caches()
    pool = Pool(workload, seed, seconds, workdir)
    try:
        if not trace:
            setup_times, _, setup_speed = _set_up(pool, caches, None)
            op_times, cal = _untraced_loop(pool, caches, seconds, run)
            run.ops = len(op_times)
            values = _timings(cal.scaled(op_times))
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values["setup_s"] = setup_speed * import_s + statistics.median(setup_times)
            run.raw = {f"raw {k}": v for k, v in _timings(op_times).items()}
            run.raw["machine slowdown"] = cal.slowdown()
            specs = END_TO_END
        else:
            n = n_ops if n_ops is not None else workload.ops_for(seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                _, setup_layer, _ = _set_up(pool, caches, tracer)
                extra = _traced_loop(pool, caches, n, tracer, run)
            replay_s = _replay(pool, caches, extra, run)
            run.ops = n
            values = _layer_metrics(tracer, n, extra, setup_layer, replay_s)
            run.counts = {
                k: v for k, v in values.items()
                if k.endswith((".calls", ".sets", ".bytes_in")) or ".frontier_size." in k
            }
            out = root / ".bench_out" / f"trace-{name}.tsv.gz"
            run.counts["spans"] = tracer.write(out)
            specs = PER_LAYER
        run.instances_sha256 = pool.instances_digest()
        run.outputs_sha256 = pool.outputs_digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != {m.name for m in specs}:
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ {m.name for m in specs})}")
    run.metrics = {m.name: (values[m.name], m.unit) for m in specs}
    return run
