"""Instance generators: hardness gadgets with ground-truth oracles, tight-ratio
families for the approximation algorithms, and seeded random instances.

The gadget generators double as test oracles: each one embeds a decision
problem (vertex cover, partition) whose answer pins down the robust optimum
of the emitted instance, so solvers can be checked without trusting any
solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice, repeat
from numbers import Real
from operator import add
from typing import Iterable

from .core import Interval, IntervalFamily, _is_int
from .errors import ValidationError
from .scenarios import DiscreteScenarioSet, Instance, IntervalUncertainty


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on vertices 1..n_vertices, no self-loops."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not _is_int(self.n_vertices) or self.n_vertices < 0:
            raise ValidationError(f"bad vertex count {self.n_vertices!r}")
        norm = set()
        for e in self.edges:
            u, v = e
            if not (_is_int(u) and _is_int(v)):
                raise ValidationError(f"edge {e} outside 1..{self.n_vertices}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise ValidationError(f"edge {e} outside 1..{self.n_vertices}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        return cls(n_vertices, frozenset((u, v) for u, v in edges))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class PartitionInput:
    """A collection of positive integers to split into two equal-sum halves."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        for a in self.values:
            if not _is_int(a) or a < 1:
                raise ValidationError(f"partition values must be positive integers, got {a!r}")


# ---------------------------------------------------------------------------
# Decision-problem oracles (exhaustive / pseudopolynomial; desk scale)


# Most vertex subsets has_vertex_cover_within tries: a second or two of search.
VERTEX_COVER_SUBSETS_LIMIT = 10**6


def _check_cover_search(n_vertices: int, budget: int) -> None:
    """Refuse a search of more than VERTEX_COVER_SUBSETS_LIMIT subsets.

    That is C(n_vertices, budget) for 0 <= budget < n_vertices.  The count is
    built up one factor at a time and stops once over the limit, because the
    whole binomial can itself take seconds (math.comb(10**6, 5 * 10**5)).
    """
    count = 1
    for i in range(min(budget, n_vertices - budget)):
        count = count * (n_vertices - i) // (i + 1)  # C(n_vertices, i + 1)
        if count > VERTEX_COVER_SUBSETS_LIMIT:
            raise ValidationError(
                "vertex-cover oracle would try more than "
                f"{VERTEX_COVER_SUBSETS_LIMIT} vertex subsets (vertices choose "
                "cover size), the most it searches"
            )


def has_vertex_cover_within(g: UndirectedGraph, budget: int) -> bool:
    """True when some vertex set of size <= budget touches every edge.

    Tries every vertex subset of size budget; refuses, for budget below the
    vertex count, more than VERTEX_COVER_SUBSETS_LIMIT of them.
    """
    if budget < 0:
        return not g.edges
    if budget >= g.n_vertices or not g.edges:
        return True
    _check_cover_search(g.n_vertices, budget)
    vertices = range(1, g.n_vertices + 1)
    for cover in combinations(vertices, budget):
        cset = set(cover)
        if all(u in cset or v in cset for u, v in g.edges):
            return True
    return False


def vertex_cover_number(g: UndirectedGraph) -> int:
    # budget n_vertices always passes, so the search stops by then
    return next(b for b in range(g.n_vertices + 1) if has_vertex_cover_within(g, b))


# Largest total has_partition accepts.  Its bitset holds one bit per unit of
# the total, so time and memory grow with it, and a shift by a value wider
# than a machine word fails outright.
PARTITION_TOTAL_LIMIT = 10**6


def has_partition(values: Iterable[int]) -> bool:
    """Subset-sum oracle: can the values be split into two equal-sum halves?

    Refuses values summing to more than PARTITION_TOTAL_LIMIT.
    """
    vals = list(values)
    total = sum(vals)
    if total > PARTITION_TOTAL_LIMIT:
        raise ValidationError(
            f"partition values sum to more than {PARTITION_TOTAL_LIMIT}, "
            "the largest total the subset-sum oracle accepts"
        )
    if total % 2:
        return False
    reachable = 1
    for a in vals:
        reachable |= reachable << a
    return bool((reachable >> (total // 2)) & 1)


# ---------------------------------------------------------------------------
# Hardness gadgets

# Largest scenario matrix gen_vertex_cover builds: one row per edge, one cell
# per (row, clique) interval, so edges x budget x vertices cells in all.
VERTEX_COVER_CELLS_LIMIT = 10**6


def gen_vertex_cover(g: UndirectedGraph, budget: int) -> Instance:
    """Max-min gadget from a vertex-cover question (graph g, size budget).

    Layout: one interval [2j, 2j+1] per (row i, clique j) for i in 1..n and
    j in 1..budget, so the interval graph is `budget` disjoint n-cliques.
    One scenario per edge (k,l): weight 1 on rows k and l in every clique,
    0 elsewhere.  The emitted instance satisfies: max-min optimum >= 1 iff
    g has a vertex cover of size <= budget.

    Value range: an independent set takes at most one row per clique, and
    under edge (k,l) it weighs as many as its rows equal to k or l.  So the
    optimum is the largest t such that some multiset of `budget` vertices
    covers every edge at least t times; it lies in 0..budget and is 0 exactly
    on no-instances.  It can exceed 1 (a single edge at budget 2 gives 2).
    Gadgets of more than VERTEX_COVER_CELLS_LIMIT scenario cells, and those
    whose oracle would search more than VERTEX_COVER_SUBSETS_LIMIT vertex
    subsets, are refused before anything is built.
    """
    if budget < 1:
        raise ValidationError(f"cover budget must be >= 1, got {budget}")
    if not g.edges:
        raise ValidationError("graph has no edges; the scenario set would be empty")
    n = g.n_vertices
    cells = len(g.edges) * budget * n
    if cells > VERTEX_COVER_CELLS_LIMIT:
        try:
            shown = str(cells)
        except ValueError:  # more digits than int-to-str conversion allows
            shown = f"{len(g.edges)} x {budget} x {n}"
        raise ValidationError(
            f"vertex-cover gadget needs {shown} scenario cells (edges x cover "
            f"size x vertices), more than {VERTEX_COVER_CELLS_LIMIT}"
        )
    _check_cover_search(n, budget)
    intervals = [
        Interval(2 * j, 2 * j + 1) for j in range(1, budget + 1) for _ in range(n)
    ]
    edges = g.sorted_edges()
    scenarios = []
    for k, l in edges:
        row = [1 if i in (k, l) else 0 for i in range(1, n + 1)]
        scenarios.append(tuple(row * budget))
    return Instance(
        family=IntervalFamily(tuple(intervals)),
        uncertainty=DiscreteScenarioSet(tuple(scenarios)),
        scaling_factor=1,
        metadata={
            "generator": "vertex_cover",
            "n_vertices": n,
            "edges": [list(e) for e in edges],
            "cover_budget": budget,
            "oracle_cover_exists": has_vertex_cover_within(g, budget),
        },
    )


def gen_partition(p: PartitionInput) -> Instance:
    """Min-max regret gadget from a partition question.

    Layout: two identical intervals [2i, 2i+1] per value a_i plus one long
    interval [1, 2n+1] overlapping everything.  Weight ranges (with b half
    the total): first of pair [3b - (3/2)a_i, 3b], second degenerate at
    3b - a_i, long vertex [0, 3nb - b].  All weights are emitted pre-scaled
    by 2 so the halves stay integral; the instance records scaling_factor 2.
    The emitted instance satisfies: regret optimum <= (3/2)b in unscaled
    units (= 3b scaled) iff the values admit a partition.  Values whose
    total exceeds PARTITION_TOTAL_LIMIT are refused before anything is built.
    """
    values = p.values
    exists = has_partition(values)
    n = len(values)
    total = sum(values)  # 2b: 3b is 3*total/2, so 3b scaled by 2 is 3*total
    intervals: list[Interval] = []
    lower: list[int] = []
    upper: list[int] = []
    for i, a in enumerate(values, start=1):
        intervals.append(Interval(2 * i, 2 * i + 1))
        lower.append(3 * total - 3 * a)  # scaled 2*(3b - 3a/2)
        upper.append(3 * total)  # scaled 2*3b
        intervals.append(Interval(2 * i, 2 * i + 1))
        lower.append(3 * total - 2 * a)  # scaled 2*(3b - a), degenerate
        upper.append(3 * total - 2 * a)
    intervals.append(Interval(1, 2 * n + 1))
    lower.append(0)
    upper.append(3 * n * total - total)  # scaled 2*(3nb - b)
    return Instance(
        family=IntervalFamily(tuple(intervals)),
        uncertainty=IntervalUncertainty(tuple(lower), tuple(upper)),
        scaling_factor=2,
        metadata={
            "generator": "partition",
            "values": list(values),
            "total": total,
            "oracle_partition_exists": exists,
            # regret optimum <= threshold iff partition exists; threshold is
            # 3b = (3/2)*total in scaled units, stored as an exact pair
            "regret_threshold_scaled": [3 * total, 2],
        },
    )


# ---------------------------------------------------------------------------
# Tight families for the approximation ratios


def gen_tight_k(k: int) -> Instance:
    """Discrete instance on which the average-weight algorithm can lose a factor k.

    k disjoint 2-cliques (pairs).  Scenario 1 gives weight 1 to the first
    vertex of every pair; the second vertex of pair i carries weight 1 under
    scenario min(i+1, k).  Every vertex then has the same total weight, so
    all 2^k maximal sets tie under the surrogate; picking every second vertex
    has regret k while the optimum regret is 1.  Certified for k in {2, 3}.
    """
    if k not in (2, 3):
        raise ValidationError(f"tight family certified only for k in {{2, 3}}, got {k}")
    intervals = []
    for i in range(1, k + 1):
        intervals.append(Interval(2 * i, 2 * i + 1))
        intervals.append(Interval(2 * i, 2 * i + 1))
    scenarios = []
    for s in range(1, k + 1):
        row = []
        for i in range(1, k + 1):
            row.append(1 if s == 1 else 0)
            row.append(1 if s == min(i + 1, k) else 0)
        scenarios.append(tuple(row))
    return Instance(
        family=IntervalFamily(tuple(intervals)),
        uncertainty=DiscreteScenarioSet(tuple(scenarios)),
        scaling_factor=1,
        metadata={"generator": "tight_k", "k": k, "worst_tie_ratio": k},
    )


def gen_tight_midpoint() -> Instance:
    """Range instance on which the midpoint algorithm can lose a factor 2.

    A 3-clique with ranges [1,1], [0,2], [0,2]: all midpoints tie, the
    tie-broken choice of a [0,2] vertex has regret 2, and the optimum is 1.
    """
    intervals = (Interval(0, 1), Interval(0, 1), Interval(0, 1))
    return Instance(
        family=IntervalFamily(intervals),
        uncertainty=IntervalUncertainty((1, 0, 0), (1, 2, 2)),
        scaling_factor=1,
        metadata={"generator": "tight_midpoint", "worst_tie_ratio": 2},
    )


# ---------------------------------------------------------------------------
# Random instances

# Largest weight table gen_random draws: n x k scenario cells, or 2n bounds.
RANDOM_CELLS_LIMIT = 10**6


def _below(rng: random.Random, m: int, count: int) -> list[int]:
    """The next count values of rng.randint(0, m - 1), in order.

    CPython's randint(0, m - 1) draws getrandbits(m.bit_length()) and draws
    again while the result is >= m.  Here the draws, the rejections and the
    count are all run by map, filter and islice in C, so the values and the
    state rng is left in are the same, and no draw is made past the last.
    """
    draws = map(rng.getrandbits, repeat(m.bit_length()))
    return list(islice(filter(m.__gt__, draws), count))


def gen_random(
    n: int,
    model: str,
    w_max: int,
    density: float,
    seed: int,
    k: int | None = None,
) -> Instance:
    """Seeded random instance with integer endpoints in [0, 4n].

    density in [0, 1] steers how likely intervals are to overlap; density 0
    lays the intervals out pairwise disjoint by construction, density 1 packs
    every start at 0.  model "discrete" draws k scenarios of uniform weights
    in [0, w_max]; model "interval" draws a lower <= upper pair per vertex.
    The same arguments always produce the identical instance: every value is
    the one random.Random(seed).randint would return, in the same order (per
    vertex a start then a length, then the weights row by row, or per vertex
    the two ends of its range).  Instances of more than RANDOM_CELLS_LIMIT
    weight cells are refused before any draw.
    """
    if not _is_int(n) or n < 1:
        raise ValidationError(f"n must be an integer >= 1, got {n!r}")
    if not _is_int(w_max) or w_max < 1:
        raise ValidationError(f"w_max must be an integer >= 1, got {w_max!r}")
    if isinstance(density, bool) or not isinstance(density, Real) or not 0.0 <= density <= 1.0:
        raise ValidationError(f"density must be a number in [0, 1], got {density!r}")
    if seed is None or isinstance(seed, bool):
        # None would seed from OS entropy, a bool would be written as true/false
        raise ValidationError(f"seed must be a fixed value other than a bool, got {seed!r}")
    if model not in ("discrete", "interval"):
        raise ValidationError(f"model must be 'discrete' or 'interval', got {model!r}")
    if model == "discrete":
        if not _is_int(k) or k < 1:
            raise ValidationError(f"discrete model needs k >= 1 scenarios, got {k!r}")
    elif k is not None:
        raise ValidationError("k only applies to the discrete model")
    if n * (2 if k is None else k) > RANDOM_CELLS_LIMIT:
        raise ValidationError(
            f"random instance needs more than {RANDOM_CELLS_LIMIT} weight cells "
            "(vertices x scenarios, or 2 x vertices for ranges)"
        )
    rng = random.Random(seed)
    span = 4 * n
    if density == 0.0:
        # one interval per window [4i, 4i+3]; windows never touch
        draws = _below(rng, 2, 2 * n)
        los = list(map(add, range(0, span, 4), draws[0::2]))
        his = list(map(add, los, draws[1::2]))
    else:
        max_lo = max(0, round((span - 2) * (1.0 - density)))
        max_len = 2 + round(4 * density)
        # starts and lengths alternate between two moduli, so each is drawn
        # here under _below's rule, one value at a time
        bits = rng.getrandbits
        m_lo, m_len = max_lo + 1, max_len + 1
        k_lo, k_len = m_lo.bit_length(), m_len.bit_length()
        los = []
        his = []
        for _ in range(n):
            lo = bits(k_lo)
            while lo >= m_lo:
                lo = bits(k_lo)
            length = bits(k_len)
            while length >= m_len:
                length = bits(k_len)
            los.append(lo)
            his.append(min(lo + length, span))
    if model == "discrete":
        uncertainty: DiscreteScenarioSet | IntervalUncertainty = DiscreteScenarioSet(
            tuple(tuple(_below(rng, w_max + 1, n)) for _ in range(k))
        )
    else:
        ends = _below(rng, w_max + 1, 2 * n)
        a, b = ends[0::2], ends[1::2]
        uncertainty = IntervalUncertainty(tuple(map(min, a, b)), tuple(map(max, a, b)))
    return Instance(
        family=IntervalFamily._from_columns(los, his),
        uncertainty=uncertainty,
        scaling_factor=1,
        metadata={
            "generator": "random",
            "n": n,
            "model": model,
            "k": k,
            "w_max": w_max,
            "density": density,
            "seed": seed,
        },
    )
