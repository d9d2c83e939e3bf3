"""The benchmark's four workloads.

A workload is a seeded stream of instances plus the fixed list of
``(problem, algorithm, epsilon)`` calls that one operation sends through
``rwis solve`` for each instance.  Why each workload exists is recorded in
``BENCHMARK.json``.  The sizes below were tuned on the reference machine
(see ``harness.py``) so that a 20-second run times hundreds of operations
on enough distinct instances that the spread of each end-to-end metric over
ten seeds stays below a third of its bound (``bench/baseline.json``).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from rwis import gen

# Each run times at least this many operations, so at least ten samples lie
# beyond the reported 90th percentile.
MIN_OPS = 100


@dataclass(frozen=True)
class Call:
    problem: str
    algorithm: str
    epsilon: str | None = None

    def argv(self, path: str) -> list[str]:
        out = ["solve", path, "--problem", self.problem, "--algorithm", self.algorithm]
        if self.epsilon is not None:
            out += ["--epsilon", self.epsilon]
        return out

    @property
    def label(self) -> str:
        return f"{self.problem}/{self.algorithm}"


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # make(rng, index) -> Instance, the index-th instance drawn from rng
    make: Callable
    # operations per second measured on the reference machine; sizes the
    # traced pass and the instance pool for a given --seconds
    nominal_ops_per_s: float
    # None: every operation of a run solves an instance of its own.  The
    # cost of these instances is heavy-tailed, so the run-to-run spread of
    # the timings falls only with the number of distinct instances a run
    # solves.  An int: a pool of that many instances is cycled, for a
    # workload whose instances all cost about the same and are expensive to
    # write (caches are emptied before every operation, so a repeat is as
    # cold as a first solve).
    pool: int | None = None

    def ops_for(self, seconds: float) -> int:
        """Operations that take about `seconds` on the reference machine."""
        return max(MIN_OPS, round(self.nominal_ops_per_s * seconds))

    def pool_size(self, seconds: float) -> int:
        return self.pool or self.ops_for(seconds)


def count_independent_sets(fam) -> int:
    """Number of independent sets (empty set included) of an interval family.

    Counting DP over the right-endpoint order, kept separate from the
    library so that instance selection does not depend on the code measured.
    """
    ivs = sorted(fam.intervals, key=lambda iv: (iv.hi, iv.lo))
    his = [iv.hi for iv in ivs]
    count = [1]
    for iv in ivs:
        count.append(count[-1] + count[bisect_left(his, iv.lo)])
    return count[-1]


def _random_graph(rng: random.Random, n_vertices: int, n_edges: int) -> gen.UndirectedGraph:
    pairs = [(u, v) for u in range(1, n_vertices + 1) for v in range(u + 1, n_vertices + 1)]
    return gen.UndirectedGraph.from_edges(n_vertices, rng.sample(pairs, n_edges))


def _partition_values(rng: random.Random, count: int) -> gen.PartitionInput:
    values = [rng.randint(1, 12) for _ in range(count)]
    if sum(values) % 2 and rng.random() < 0.5:
        values[-1] += 1  # about three in four totals even, so yes and no both occur
    return gen.PartitionInput(tuple(values))


def _bulk(rng: random.Random, index: int):
    return gen.gen_random(
        n=5000, model="interval", w_max=10**6, density=0.5, seed=rng.randrange(1 << 30)
    )


def _frontier_k3(rng: random.Random, index: int):
    if index % 10 == 9:
        n_vertices = rng.randint(4, 6)
        n_edges = rng.randint(4, min(7, n_vertices * (n_vertices - 1) // 2))
        graph = _random_graph(rng, n_vertices, n_edges)
        return gen.gen_vertex_cover(graph, rng.randint(2, 3))
    return gen.gen_random(
        n=26, model="discrete", k=3, w_max=20, density=0.5, seed=rng.randrange(1 << 30)
    )


def _scaling_k2(rng: random.Random, index: int):
    return gen.gen_random(
        n=120, model="discrete", k=2, w_max=10**6, density=0.5, seed=rng.randrange(1 << 30)
    )


# The exact interval-regret solver scores every independent set with one
# deterministic solve, so its cost is proportional to the independent-set
# count.  Random instances are drawn until that count lies in this band,
# which keeps the per-operation cost close to ~10^4 solves.
INTERVAL_SETS_BAND = (5_000, 12_000)


def _interval_regret(rng: random.Random, index: int):
    if index % 8 == 7:
        return gen.gen_partition(_partition_values(rng, rng.randint(8, 9)))
    while True:
        inst = gen.gen_random(
            n=rng.randint(18, 20),
            model="interval",
            w_max=1000,
            density=0.4,
            seed=rng.randrange(1 << 30),
        )
        lo, hi = INTERVAL_SETS_BAND
        if lo <= count_independent_sets(inst.family) <= hi:
            return inst


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bulk-large-n",
            (Call("maxmin", "exact"), Call("regret", "midpoint")),
            _bulk,
            nominal_ops_per_s=18.0,
            pool=24,
        ),
        Workload(
            "frontier-k3",
            (Call("maxmin", "exact"), Call("regret", "exact")),
            _frontier_k3,
            nominal_ops_per_s=145.0,
        ),
        Workload(
            "scaling-k2",
            (
                Call("maxmin", "exact"),
                Call("regret", "exact"),
                Call("maxmin", "fptas", "0.5"),
                Call("regret", "fptas", "0.5"),
                Call("regret", "kapprox"),
            ),
            _scaling_k2,
            nominal_ops_per_s=24.0,
        ),
        Workload(
            "interval-regret",
            (Call("regret", "exact"), Call("regret", "midpoint")),
            _interval_regret,
            nominal_ops_per_s=9.0,
        ),
    )
}
