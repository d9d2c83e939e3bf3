"""Metric definitions, and which layer metric should move which end-to-end
metric on which workload.

``BENCHMARK.json`` lists the same names, units and directions; a test in
``bench/tests`` keeps the two in step.  End-to-end metrics come from an
untraced run, per-layer metrics from a separate traced run.  Per-layer
times and counts are per operation (the traced run always times the same
operations for a given seed and ``--seconds``, so its counts repeat
exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("bulk-large-n", "frontier-k3", "scaling-k2", "interval-regret")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]
    workloads: tuple[str, ...]


# Times are at the reference machine's speed (see harness.py).
# instances_per_s: operations completed per second of operation time.
# instance_ms_p50 / _p90: per-operation time; a run has >= 100 operations,
#   so at least ten lie beyond the 90th percentile.
# peak_rss_mib: ru_maxrss of the benchmark process over the whole run.  The
#   interpreter and the imported modules take about 23 MiB of it; set-up and
#   the operations add 0.3 MiB (scaling-k2) to 3 MiB (bulk-large-n) on top,
#   so at these sizes a change in frontier or parse memory moves it by a
#   few percent at most.
# setup_s: process CPU time of importing rwis plus the median of five
#   set-ups, each generating and writing the workload's files and warming up
#   on a throw-away instance.
END_TO_END = (
    EndToEnd("instances_per_s", "1/s", "higher", 0.2),
    EndToEnd("instance_ms_p50", "ms", "lower", 0.2),
    EndToEnd("instance_ms_p90", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.15),
    EndToEnd("setup_s", "s", "lower", 0.25),
)

_P50 = ("instance_ms_p50",)

PER_LAYER = (
    Layer("fileformat.parse_instance.ms", "ms/op", "lower",
          ("instance_ms_p50", "peak_rss_mib"), ("bulk-large-n",)),
    Layer("fileformat.bytes_in", "B/op", "lower",
          ("instance_ms_p50", "peak_rss_mib"), ("bulk-large-n",)),
    Layer("gen.ms", "ms", "lower", ("setup_s",), ALL),
    Layer("fileformat.write_instance.ms", "ms", "lower", ("setup_s",), ALL),
    Layer("cli.main.self_ms", "ms/op", "lower", _P50, ("interval-regret", "scaling-k2")),
    Layer("core.max_weight_is.calls", "calls/op", "lower", _P50,
          ("bulk-large-n", "interval-regret")),
    Layer("core.max_weight_is.first_ms", "ms/op", "lower", _P50, ("bulk-large-n",)),
    Layer("core.max_weight_is.repeat_ms", "ms/op", "lower", _P50, ("interval-regret",)),
    Layer("core.enumerate_independent_sets.sets", "sets/op", "lower",
          ("instances_per_s", "instance_ms_p90"), ("interval-regret",)),
    Layer("core.enumerate_independent_sets.self_ms", "ms/op", "lower",
          ("instances_per_s", "instance_ms_p90"), ("interval-regret",)),
    Layer("core.prepared.hit_ratio", "ratio", "higher", _P50,
          ("interval-regret", "scaling-k2")),
    Layer("robust.opt_weight.hit_ratio", "ratio", "higher", _P50,
          ("interval-regret", "scaling-k2")),
    Layer("scenarios.worst_case_scenario.calls", "calls/op", "lower", _P50,
          ("bulk-large-n", "interval-regret")),
    Layer("scenarios.worst_case_scenario.ms", "ms/op", "lower", _P50,
          ("bulk-large-n", "interval-regret")),
    Layer("robust.pareto_frontier.ms", "ms/op", "lower",
          ("instances_per_s", "instance_ms_p90", "peak_rss_mib"),
          ("frontier-k3", "scaling-k2")),
    Layer("robust.frontier_size.final_sum", "vectors/op", "lower",
          ("instances_per_s", "instance_ms_p90", "peak_rss_mib"),
          ("frontier-k3", "scaling-k2")),
    Layer("robust.frontier_size.final_max", "vectors", "lower",
          ("instances_per_s", "instance_ms_p90", "peak_rss_mib"),
          ("frontier-k3", "scaling-k2")),
    Layer("robust.solve_max_min_exact.ms", "ms/op", "lower", _P50,
          ("frontier-k3", "scaling-k2")),
    Layer("robust.solve_regret_discrete_exact.ms", "ms/op", "lower", _P50,
          ("frontier-k3", "scaling-k2")),
    Layer("robust.select_backtrack.ms", "ms/op", "lower", _P50,
          ("frontier-k3", "scaling-k2")),
    Layer("robust.fptas_max_min.ms", "ms/op", "lower", _P50, ("scaling-k2",)),
    Layer("robust.fptas_regret_discrete.ms", "ms/op", "lower", _P50, ("scaling-k2",)),
    Layer("robust.solve_regret_interval_exact.self_ms", "ms/op", "lower",
          ("instances_per_s",), ("interval-regret",)),
    Layer("robust.opt_weight.calls", "calls/op", "lower", _P50,
          ("bulk-large-n", "scaling-k2")),
    Layer("robust.opt_weight.ms", "ms/op", "lower", _P50, ("bulk-large-n", "scaling-k2")),
    Layer("robust.max_regret_discrete.ms", "ms/op", "lower", _P50, ("scaling-k2",)),
    Layer("robust.max_regret_interval.ms", "ms/op", "lower", _P50,
          ("bulk-large-n", "interval-regret")),
    Layer("approx.k_approx_regret.ms", "ms/op", "lower", _P50, ("scaling-k2",)),
    Layer("approx.midpoint_approx_regret.ms", "ms/op", "lower", _P50,
          ("bulk-large-n", "interval-regret")),
    Layer("trace.overhead_ratio", "ratio", "lower", (), ALL),
)
