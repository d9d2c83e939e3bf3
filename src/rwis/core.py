"""Interval graphs and deterministic maximum-weight independent set solvers.

Vertices are identified by their 1-based position in the interval family.
Weights are nonnegative integers; callers that need rational weights apply a
global scaling factor at instance-construction time and keep everything exact.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import attrgetter, le, lt, sub
from typing import Iterable, Iterator, Sequence

from .errors import GuardError, ValidationError

DEFAULT_ENUMERATION_GUARD = 20
GUARD_ENV_VAR = "RWIS_GUARD_N"


def _resolve_env_int(value: int | None, env_var: str, default: int) -> int:
    """Explicit argument, then the integer in `env_var`, then `default`."""
    if value is not None:
        return value
    env = os.environ.get(env_var)
    if env is None:
        return default
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"{env_var} must be an integer, got {env!r}") from None


def resolve_guard(guard: int | None) -> int:
    """Effective enumeration guard: explicit argument, then RWIS_GUARD_N, then default."""
    return _resolve_env_int(guard, GUARD_ENV_VAR, DEFAULT_ENUMERATION_GUARD)


def _check_enumeration_guard(n: int, guard: int | None) -> None:
    """Refuse an exhaustive walk over more vertices than the enumeration guard."""
    limit = resolve_guard(guard)
    if n > limit:
        raise GuardError(f"family size {n} exceeds enumeration guard {limit}")


def _is_int(x) -> bool:
    """An int that is not a bool: the file format has no booleans, so a value
    written from a bool could not be read back."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """Closed integer interval [lo, hi] on the line.

    Slotted: a family may hold one per vertex next to its endpoint columns.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if not (type(lo) is type(hi) is int or _is_int(lo) and _is_int(hi)):
            raise ValidationError(
                f"interval endpoints must be integers, got [{lo!r}, {hi!r}]"
            )
        if lo > hi:
            raise ValidationError(f"invalid interval: lo={lo} > hi={hi}")


def overlaps(a: Interval, b: Interval) -> bool:
    """True when the closed intervals share at least one point.

    Touching endpoints count as an overlap: [2,3] and [3,5] intersect in {3}.
    """
    return max(a.lo, b.lo) <= min(a.hi, b.hi)


@dataclass(frozen=True, eq=False)
class IntervalFamily:
    """Ordered interval list; position k (1-based) is vertex v_k of the interval graph.

    The endpoints are kept as two int columns, `_los` and `_his`, with their
    hash: equality, hashing (the key of the interval-preparation cache),
    interval preparation and every solver read those, never the Interval
    objects.

    A family parsed from a file is built from its columns alone, and its
    `intervals` tuple is made on first access and then kept; a family built
    from Interval objects holds them from the start.  Fields, repr, equality
    and hashing are the same either way.
    """

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.intervals, tuple):
            object.__setattr__(self, "intervals", tuple(self.intervals))
        if not set(map(type, self.intervals)) <= {Interval}:
            for iv in self.intervals:
                if not isinstance(iv, Interval):
                    raise ValidationError(f"expected Interval, got {iv!r}")
        self._set_columns(
            tuple(map(attrgetter("lo"), self.intervals)),
            tuple(map(attrgetter("hi"), self.intervals)),
        )

    def _set_columns(self, los: tuple[int, ...], his: tuple[int, ...]) -> None:
        object.__setattr__(self, "_los", los)
        object.__setattr__(self, "_his", his)
        object.__setattr__(self, "_hash", hash((los, his)))

    @classmethod
    def _from_columns(cls, los: Sequence[int], his: Sequence[int]) -> "IntervalFamily":
        """Family from its endpoint columns, without building Interval objects.

        Every entry must already be an int.  When some lo > hi, the Interval
        constructor raises the error for the first such pair.
        """
        if not all(map(le, los, his)):
            tuple(map(Interval, los, his))  # raises for the first lo > hi
        fam = cls.__new__(cls)
        fam._set_columns(tuple(los), tuple(his))
        return fam

    def __getattr__(self, name: str):
        # only reached when `intervals` is not yet set: build it from the columns
        if name != "intervals":
            raise AttributeError(name)
        intervals = tuple(map(Interval, self._los, self._his))
        object.__setattr__(self, "intervals", intervals)
        return intervals

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash
            and self._his == other._his
            and self._los == other._los
        )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "IntervalFamily":
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))

    @property
    def n(self) -> int:
        return len(self._los)

    def __len__(self) -> int:
        return len(self._los)

    def interval(self, index: int) -> Interval:
        """Interval of vertex `index` (1-based)."""
        if not 1 <= index <= len(self._los):
            raise ValidationError(
                f"vertex index {index} out of range 1..{len(self._los)}"
            )
        return self.intervals[index - 1]


def _all_ints(xs: Sequence) -> bool:
    """True when every entry's type is exactly int (one C-level pass).

    False does not mean invalid: bools and other int subclasses fail this
    test, and callers then run their per-entry check on the list.
    """
    return set(map(type, xs)) <= {int}


def check_members(n: int, members: Iterable[int]) -> tuple[int, ...]:
    """Validate 1-based vertex indices against a family of size n.

    Returns the indices as a sorted, deduplicated tuple.  Types are checked
    on the entries as given, so a bool equal to another entry is refused
    rather than merged with it.
    """
    raw = tuple(members)
    if not _all_ints(raw):
        for i in raw:
            if not _is_int(i):
                raise ValidationError(f"vertex index {i!r} out of range 1..{n}")
    out = tuple(sorted(set(raw)))
    if out and (out[0] < 1 or out[-1] > n):
        bad = next(i for i in out if not 1 <= i <= n)
        raise ValidationError(f"vertex index {bad!r} out of range 1..{n}")
    return out


def _nonnegative_ints(values: Iterable[int], not_int: str, negative: str) -> tuple[int, ...]:
    """The values as a tuple of nonnegative ints, else a ValidationError for
    the first bad entry: `not_int` or `negative` formatted with that entry."""
    out = tuple(values)
    if _all_ints(out):
        if out and min(out) < 0:
            raise ValidationError(negative.format(next(x for x in out if x < 0)))
        return out
    for x in out:
        if not _is_int(x):
            raise ValidationError(not_int.format(x))
        if x < 0:
            raise ValidationError(negative.format(x))
    return out


def check_weights(n: int, weights: Iterable[int]) -> tuple[int, ...]:
    """Validate a weight vector: length n, nonnegative integers."""
    w = tuple(weights)
    if len(w) != n:
        raise ValidationError(
            f"weight vector has length {len(w)}, family has {n} vertices"
        )
    return _nonnegative_ints(
        w, "weights must be integers, got {!r}", "negative weight {} rejected"
    )


def _require_same_size(fam: IntervalFamily, n: int) -> None:
    """Refuse an uncertainty model over n vertices for a family of another size."""
    if len(fam) != n:
        raise ValidationError(f"uncertainty covers {n} vertices, family has {len(fam)}")


def is_independent(fam: IntervalFamily, members: Iterable[int]) -> bool:
    """True when no two of the given vertices have overlapping intervals."""
    return _is_independent(fam, check_members(len(fam), members))


def _is_independent(fam: IntervalFamily, idx: tuple[int, ...]) -> bool:
    """is_independent for indices check_members has already validated."""
    los, his = fam._los, fam._his
    # by left endpoint, each interval must end before the next one starts;
    # two members with equal left endpoints overlap in either order
    ids = sorted(map(sub, idx, repeat(1)), key=los.__getitem__)
    return all(map(lt, map(his.__getitem__, ids), map(los.__getitem__, ids[1:])))


# Families whose preparation is kept: a solve works on one family, and each
# kept n=5000 family holds about 0.75 MiB.
@lru_cache(maxsize=4)
def _prepared(
    fam: IntervalFamily,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Sort positions by right endpoint and precompute predecessor indices.

    order[k] is the 0-based original index of the (k+1)-th interval in sorted
    order (by hi, then lo, then index); preds[k] counts sorted intervals
    ending strictly before its start, i.e. the DP predecessor p(k+1).
    by_lo lists the original indices by left endpoint, then index.

    The counts come from one merge of the two sorted orders, not a binary
    search per interval.  Walked in by_lo order the left endpoints never
    decrease, so the count of right endpoints below them never does either:
    one pointer into the sorted right endpoints advances past each hi < lo,
    at most n times in all.  It never runs off the end, since an interval's
    own hi >= lo stops it.  The counts are those of bisect_left, exactly, for
    any ints; _completions counts left endpoints the same way.
    """
    los, his = fam._los, fam._his
    # two stable sorts: by lo, then by hi, give the (hi, lo, index) order
    by_lo = tuple(sorted(range(len(fam)), key=los.__getitem__))
    order = tuple(sorted(by_lo, key=his.__getitem__))
    sorted_his = list(map(his.__getitem__, order))
    below = [0] * len(by_lo)  # below[i]: right endpoints < los[i]
    j = 0
    for i in by_lo:
        lo = los[i]
        while sorted_his[j] < lo:
            j += 1
        below[i] = j
    return order, tuple(map(below.__getitem__, order)), by_lo


def _completions(
    fam: IntervalFamily, weights: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Best-completion tables (first, rest) of one unchecked weight column,
    indexed by position in the right-endpoint order of _prepared.

    first[f]: best weight of an independent set whose earliest-ending member
    is position f, by one reverse DP over left-endpoint order.  rest[q]: best
    weight of one within positions >= q (suffix maxima of first), so rest[n]
    is 0 and rest[0] is the optimum.

    after_end[i], the left endpoints <= his[i], comes from the merge of
    _prepared run the other way round: walked in right-endpoint order, one
    pointer into the sorted left endpoints advances past each lo <= hi.  A
    sentinel above the largest hi stops it at n.
    """
    n = len(fam)
    los, his = fam._los, fam._his
    order, _, by_lo = _prepared(fam)
    after_end = [0] * n
    if n:
        sorted_los = list(map(los.__getitem__, by_lo))
        sorted_los.append(his[order[-1]] + 1)
        j = 0
        for i in order:
            hi = his[i]
            while sorted_los[j] <= hi:
                j += 1
            after_end[i] = j
    after = [0] * (n + 1)  # after[k]: best set in by_lo[k:]
    take = [0] * n  # take[i]: best set whose earliest-starting member is i
    top = 0
    for k in range(n - 1, -1, -1):
        i = by_lo[k]
        t = take[i] = weights[i] + after[after_end[i]]
        if t > top:
            top = t
        after[k] = top
    # an interval's best completion starts after its end, so the earliest
    # starting member of a set is also its earliest-ending one
    first = list(map(take.__getitem__, order))
    rest = [0] * (n + 1)
    top = 0
    for q in range(n - 1, -1, -1):
        if first[q] > top:
            top = first[q]
        rest[q] = top
    return first, rest


def _staircase_add(xs: list[int], ys: list[int], x: int, y: int) -> bool:
    """Add (x, y) to the 2-D maxima staircase (xs ascending, ys descending)
    unless a step (x', y') with x' >= x and y' >= y dominates it; the steps
    it dominates are dropped, so of equal pairs the first stays.  Returns
    whether (x, y) was kept.

    The first step with x' >= x has the largest y' of those steps, so one
    comparison decides; the steps it dominates are that step when x' == x
    and the run just left of it with y' <= y.
    """
    i = bisect_left(xs, x)
    if i < len(xs) and ys[i] >= y:
        return False
    lo = i
    while lo and ys[lo - 1] <= y:
        lo -= 1
    hi = i + 1 if i < len(xs) and xs[i] == x else i
    xs[lo:hi] = (x,)
    ys[lo:hi] = (y,)
    return True


def _cut_tables(
    preds: Sequence[int], first: Sequence[int]
) -> tuple[list[int], list[tuple[tuple[int, int], ...]]]:
    """Tables (high, cuts) that give, for every position pos and every
    nondecreasing prefix best[0..pos],

        max(best[pos], max over f >= pos of best[min(preds[f], pos)] + first[f])
        == max(best[pos] + high[pos], max over (q, g) in cuts[pos] of best[q] + g).

    high[pos] is 0 or the largest first[f] over f >= pos with preds[f] >= pos:
    those terms all read best[pos].  cuts[pos] holds one pair (q, g) per
    q = preds[f] < pos, g the largest first[f] for that q, ascending in q and
    kept only while g exceeds high[pos] and every g of a larger q.  Since
    best[q] <= best[q'] for q <= q', a dropped pair is at most a kept term.

    One right-to-left pass over a staircase.  A pair once dropped stays
    dominated at every smaller pos: its dominator either stays or moves
    into high, and high only grows.  So the tables take space and time
    proportional to the sum of their lengths.
    """
    n = len(first)
    high = [0] * n
    cuts: list[tuple[tuple[int, int], ...]] = [()] * n
    qs: list[int] = []  # the staircase: q ascending, g descending
    gs: list[int] = []
    top = 0
    for pos in range(n - 1, -1, -1):
        if qs and qs[-1] == pos:  # q = pos now reads best[pos]
            qs.pop()
            top = max(top, gs.pop())
        q, g = preds[pos], first[pos]
        if q == pos:
            top = max(top, g)
        while gs and gs[-1] <= top:
            qs.pop()
            gs.pop()
        if q < pos and g > top:
            _staircase_add(qs, gs, q, g)
        high[pos] = top
        cuts[pos] = tuple(zip(qs, gs))
    return high, cuts


def _best_prefixes(fam: IntervalFamily, w: Sequence[int]) -> list[int]:
    """The right-endpoint DP table of checked weights w: best[pos] is the
    largest weight of an independent set among the first pos intervals in
    the order of _prepared, so best[0] is 0 and best[-1] the optimum."""
    order, preds, _ = _prepared(fam)
    best = [0]
    append = best.append
    top = 0
    for p, i in zip(preds, order):
        take = best[p] + w[i]
        if take > top:
            top = take
        append(top)
    return best


def max_weight_is(
    fam: IntervalFamily, weights: Iterable[int]
) -> tuple[tuple[int, ...], int]:
    """Maximum-weight independent set via the classic right-endpoint DP.

    Runs in O(n log n): sort by right endpoint, find every interval's
    predecessor in one merge pass over the sorted endpoints (see _prepared),
    then D[i] = max(D[i-1], D[p(i)] + w_i).  Ties prefer skipping
    the current interval, so zero-weight vertices are never included and the
    returned set is reproducible.

    Returns (members, value) with members a sorted tuple of 1-based indices.
    """
    return _max_weight_is(fam, check_weights(len(fam), weights))


def _max_weight_is(fam: IntervalFamily, w: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """max_weight_is for weights check_weights has already validated, such
    as a constructor-checked model column of the family's size."""
    best = _best_prefixes(fam, w)
    order, preds, _ = _prepared(fam)
    members = []
    pos = len(fam)
    while pos > 0:
        if best[pos] == best[pos - 1]:
            pos -= 1
        else:
            members.append(order[pos - 1] + 1)
            pos = preds[pos - 1]
    return tuple(sorted(members)), best[-1]


def _sets_with_sums(
    fam: IntervalFamily, columns: Sequence[Sequence[int]], guard: int | None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (members, per-column weight sums) for every independent set.

    The library's one exhaustive walk: lexicographic member order, empty set
    first, sums maintained incrementally along the recursion.  The guard is
    checked when this is called, before the first set is produced.
    """
    n = len(fam)
    _check_enumeration_guard(n, guard)
    # masks[i] has bit j set (j > i) when intervals i and j overlap
    los, his = fam._los, fam._his
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if max(los[i], los[j]) <= min(his[i], his[j]):
                masks[i] |= 1 << j
    k = len(columns)
    sums = [0] * k
    chosen: list[int] = []

    def rec(start: int, blocked: int):
        yield tuple(chosen), tuple(sums)
        for j in range(start, n):
            if not (blocked >> j) & 1:
                chosen.append(j + 1)
                for t in range(k):
                    sums[t] += columns[t][j]
                yield from rec(j + 1, blocked | masks[j])
                for t in range(k):
                    sums[t] -= columns[t][j]
                chosen.pop()

    return rec(0, 0)


def enumerate_independent_sets(
    fam: IntervalFamily, guard: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every independent set exactly once, in lexicographic member order.

    The empty set comes first.  Guarded: refuses families larger than the
    enumeration guard (default 20 vertices) since the count can reach 2^n.
    """
    return (members for members, _ in _sets_with_sums(fam, (), guard))


def max_weight_is_all_optima(
    fam: IntervalFamily, weights: Iterable[int], guard: int | None = None
) -> list[tuple[int, ...]]:
    """All optimal independent sets, in lexicographic order.

    Exhaustive and guarded; intended for tie-break analysis on small
    instances, not as a production solver.  Never empty: the empty set is
    independent, so a zero optimum at least yields ().
    """
    w = check_weights(len(fam), weights)
    best: int | None = None
    out: list[tuple[int, ...]] = []
    for members, (val,) in _sets_with_sums(fam, (w,), guard):
        if best is None or val > best:
            best = val
            out = [members]
        elif val == best:
            out.append(members)
    return out
