"""Max-min and min-max regret objectives and their exact and (1±ε) solvers.

The exact solvers for discrete scenario sets run a Pareto-frontier dynamic
program over the right-endpoint order: each state is the vector of per-scenario
accumulated weights, and dominated vectors are pruned.  Both robust objectives
are monotone in those vectors, so pruning is lossless.  Once a level grows,
vectors that cannot beat the K-approximation's set are discarded as well,
with the same result.  The scaling schemes
reduce the weight range so the same DP runs in time polynomial in n and 1/ε.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, repeat
from operator import add, and_, lshift, neg, or_, rshift, sub
from typing import Callable, Iterable, Sequence

from . import core, scenarios
from .core import IntervalFamily, _require_same_size, check_members
from .errors import FrontierCapError, ValidationError
from .scenarios import DiscreteScenarioSet, IntervalUncertainty, _worst_case_scenario

DEFAULT_FRONTIER_CAP = 5_000_000
FRONTIER_CAP_ENV_VAR = "RWIS_FRONTIER_CAP"

# A frontier level above this many vectors switches on the incumbent prune of
# the exact solvers (see _frontier_levels).  Chosen by timing the solvers on
# the frontier-k3 and scaling-k2 workloads' instances: a lower trigger cuts
# more of the K=2 n=120 levels, but the K=3 n=26 instances whose levels pass
# 48 ran 4% slower at 48, since their thresholds cost more than the vectors
# they remove, and all of frontier-k3 a fifth slower with every level cut.
_PRUNE_AT = 64


def resolve_frontier_cap(cap: int | None) -> int:
    """Effective frontier cap: explicit argument, then RWIS_FRONTIER_CAP, then default."""
    return core._resolve_env_int(cap, FRONTIER_CAP_ENV_VAR, DEFAULT_FRONTIER_CAP)


@dataclass(frozen=True)
class RegretReport:
    """A solution, its maximal regret, and a scenario attaining that regret."""

    solution: tuple[int, ...]
    regret_value: int
    witness_scenario: tuple[int, ...]


@dataclass(frozen=True)
class ParetoFrontier:
    """Pareto-maximal per-scenario weight vectors achievable by independent sets."""

    k: int
    vectors: frozenset[tuple[int, ...]]


# ---------------------------------------------------------------------------
# Objective evaluators


def weight_under(members: Iterable[int], scenario: Sequence[int]) -> int:
    """Total weight of the given vertices under one scenario."""
    idx = check_members(len(scenario), members)
    return sum(scenario[i - 1] for i in idx)


def opt_weight(fam: IntervalFamily, scenario: Iterable[int]) -> int:
    """Weight of a maximum-weight independent set under one scenario: the
    value max_weight_is returns, without its witness backtrack."""
    return _opt_weight(fam, core.check_weights(len(fam), scenario))


def _opt_weight(fam: IntervalFamily, w: Sequence[int]) -> int:
    """opt_weight for weights check_weights has already validated."""
    return core._best_prefixes(fam, w)[-1]


def _optima(fam: IntervalFamily, scen: DiscreteScenarioSet) -> list[int]:
    """The optimum c_k under each scenario: the constants of one regret solve.
    The caller has checked that scen covers fam's vertices."""
    return [_opt_weight(fam, s) for s in scen.scenarios]


def _regret_report(
    scen: DiscreteScenarioSet,
    consts: Sequence[int],
    members: tuple[int, ...],
    sums: Sequence[int] | None = None,
) -> RegretReport:
    """Regret max_k (c_k - sums_k) of a checked solution, witnessed by the
    first scenario attaining it; `sums` defaults to the members' weights."""
    if sums is None:
        sums = [sum(s[i - 1] for i in members) for s in scen.scenarios]
    gaps = list(map(sub, consts, sums))
    regret = max(gaps)
    return RegretReport(members, regret, scen.scenarios[gaps.index(regret)])


def _checked_solution(fam: IntervalFamily, members: Iterable[int]) -> tuple[int, ...]:
    idx = check_members(len(fam), members)
    if not core._is_independent(fam, idx):
        raise ValidationError(f"vertex set {idx} is not independent")
    return idx


def max_min_value(
    fam: IntervalFamily, scen: DiscreteScenarioSet, members: Iterable[int]
) -> int:
    """Worst-case (minimum over scenarios) weight of a fixed solution."""
    _require_same_size(fam, scen.n)
    idx = _checked_solution(fam, members)
    return min(sum(s[i - 1] for i in idx) for s in scen.scenarios)


def max_regret_discrete(
    fam: IntervalFamily, scen: DiscreteScenarioSet, members: Iterable[int]
) -> RegretReport:
    """Maximal regret of a fixed solution over an explicit scenario list.

    The witness is the lowest-index scenario attaining the maximum.
    """
    _require_same_size(fam, scen.n)
    idx = _checked_solution(fam, members)
    return _regret_report(scen, _optima(fam, scen), idx)


def max_regret_interval(
    fam: IntervalFamily, u: IntervalUncertainty, members: Iterable[int]
) -> RegretReport:
    """Maximal regret of a fixed solution over a Cartesian product of ranges.

    Only one scenario needs checking: members at lower bounds, the rest at
    upper bounds.  That extreme scenario maximizes the regret of the solution
    over the whole product.
    """
    _require_same_size(fam, u.n)
    return _max_regret_interval(fam, u, _checked_solution(fam, members))


def _max_regret_interval(
    fam: IntervalFamily, u: IntervalUncertainty, idx: tuple[int, ...]
) -> RegretReport:
    """max_regret_interval for a sorted, deduplicated, independent member
    tuple of u's size, such as a set the right-endpoint DP returns."""
    sx = _worst_case_scenario(u, idx)
    regret = _opt_weight(fam, sx) - sum(sx[i - 1] for i in idx)
    return RegretReport(idx, regret, sx)


def solve_max_min_interval(
    fam: IntervalFamily, u: IntervalUncertainty
) -> tuple[tuple[int, ...], int]:
    """Max-min solution under range uncertainty.

    The worst case of any solution puts every vertex at its lower bound, so
    the problem reduces to one deterministic solve on the lower bounds.
    """
    _require_same_size(fam, u.n)
    return core._max_weight_is(fam, u.lower)


# ---------------------------------------------------------------------------
# Pareto-frontier dynamic program
#
# Level pos lists the Pareto-maximal weight vectors achievable with the first
# pos intervals in right-endpoint order, in descending lexicographic order, and
# nothing else: no provenance is stored.  A kept vector's parent follows from
# its value (see _frontier_best): it skips interval pos when it is also in
# level pos-1, and otherwise it takes interval pos on top of the first vector
# of level p(pos) that the shift by interval pos's weights maps onto it.
#
# A vector (x_1, ..., x_K) is stored as one int: K fields of `bits` bits,
# x_1 in the highest, each field's top bit a guard bit that a stored vector
# keeps clear (see _frontier_levels).


def _field_bits(columns: Sequence[Sequence[int]], sat: int | None) -> int:
    """Field width that holds every coordinate the DP can form below the
    guard bit: the largest column sum, or sat plus the largest weight, since
    a coordinate at sat may take any weight before it saturates."""
    if sat is None:
        top = max(map(sum, columns), default=0)
    else:
        top = sat + max((max(col, default=0) for col in columns), default=0)
    return top.bit_length() + 1


def _guards(k: int, bits: int) -> int:
    """The packed vector with only the guard bit of each of its k fields set."""
    return ((1 << (bits * k)) - 1) // ((1 << bits) - 1) << (bits - 1)


def _unpack(vecs: list[int], k: int, bits: int) -> list[tuple[int, ...]]:
    """The K-tuples stored in the packed vecs, in the same order: one
    shift-and-mask pass over the list per field, zipped into tuples."""
    mask = (1 << bits) - 1
    return list(zip(*[
        map(and_, map(rshift, vecs, repeat(bits * i)), repeat(mask))
        for i in range(k - 1, -1, -1)
    ]))


def _saturate(vecs: list[int], sat: int, k: int, bits: int) -> list[int]:
    """vecs with every field above sat lowered to sat, in the same order;
    vecs itself when no field is above sat.

    Adding `over`, 2^(bits-1) - 1 - sat in every field, sets a field's guard
    bit exactly when its coordinate exceeds sat.  One OR over the list finds
    whether any field needs saturating; m = (((x + over) & guards) >> top) *
    mask then covers the fields of x above sat, and x ^ ((x ^ fill) & m)
    writes sat into just those fields.
    """
    top = bits - 1
    guards = _guards(k, bits)
    ones = guards >> top
    over = ((1 << top) - 1 - sat) * ones
    if not reduce(or_, map(add, vecs, repeat(over))) & guards:
        return vecs
    fill = sat * ones
    mask = (1 << bits) - 1
    return [x ^ ((x ^ fill) & (((x + over) & guards) >> top) * mask) for x in vecs]


def _pareto_max(vecs: list[int], k: int, bits: int) -> list[int]:
    """Pareto-maximal subset, under component-wise >=, of the packed vecs,
    given in descending order.

    In that order a vector can only be dominated by an earlier one, so one
    pass suffices; of equal vectors the first is kept.  Returns the kept
    vectors in that order.
    """
    mask = (1 << bits) - 1
    kept: list[int] = []
    if k <= 2:
        # staircase over the last field; at K=1 that field is the whole
        # vector, so only the first (largest) vector passes
        append = kept.append
        best_last = -1
        for v in vecs:
            last = v & mask
            if last > best_last:
                best_last = last
                append(v)
    elif k == 3:
        # (y, z) staircase of the kept vectors: the first field is at least
        # as large in every earlier vector, so only the last two decide
        ys: list[int] = []
        zs: list[int] = []
        add_step = core._staircase_add
        for v in vecs:
            if add_step(ys, zs, (v >> bits) & mask, v & mask):
                kept.append(v)
    else:
        # u >= v in every field exactly when (u | H) - v keeps every guard
        # bit of H: each field then holds 2^(bits-1) + u_i - v_i >= 0, so no
        # borrow leaves it; the kept vectors are stored with H already set
        guards = _guards(k, bits)
        for v in vecs:
            if guards not in map(and_, map(sub, kept, repeat(v)), repeat(guards)):
                kept.append(v | guards)
        kept = [h ^ guards for h in kept]
    return kept


def _level_cuts(
    fam: IntervalFamily,
    columns: Sequence[Sequence[int]],
    floors: Sequence[int],
    bits: int,
) -> list[int]:
    """The packed thresholds t[pos] of the incumbent prune, pos = 0..n: field
    k holds max(0, floors[k] - rest_k[pos]), rest_k from core._completions
    on columns[k]."""
    cuts = [0] * (len(fam) + 1)
    for col, floor in zip(columns, floors):
        rest = core._completions(fam, col)[1]
        cuts = [(t << bits) + (floor - r if floor > r else 0) for t, r in zip(cuts, rest)]
    return cuts


def _frontier_levels(
    fam: IntervalFamily,
    columns: Sequence[Sequence[int]],
    cap: int | None,
    sat: int | None = None,
    floors: Callable[[], Sequence[int]] | None = None,
):
    """Run the frontier DP; keep every level for witness backtracking.

    columns[k][i] is vertex i+1's weight under scenario k+1.  Level i is the
    descending list of packed vectors described above; all n+1 levels are
    built.  With `sat` set, additions saturate at that value per coordinate.
    `cap` goes through resolve_frontier_cap here, the one place every
    frontier solver reaches, and is checked against each level as stored.
    `floors`, given only without sat, switches on the incumbent prune below.
    Returns (levels, order, preds, bits, packed), packed[i] being vertex
    i+1's packed weight vector; _unpack(vecs, K, bits) decodes a list of
    vectors, one shift-and-mask pass per field.

    Layout.  A vector x is the int sum of x_k << (bits * (K - k)) over
    k = 1..K, with bits from _field_bits.  Every coordinate the DP forms is
    below 2^(bits-1): without sat it is a sum of weights of one column, at
    most the column sum; with sat it is x_k + w_k with x_k <= sat, at most
    sat plus the largest weight, and saturation only lowers it.  So the top
    (guard) bit of every field is clear in every stored vector, and:
    - int order is lexicographic order: the fields do not overlap and x_1
      sits highest, so the highest differing field, the first differing
      coordinate, decides;
    - adding the packed weight vector adds every coordinate at once: each
      field's sum is a coordinate the DP forms, below 2^(bits-1), so no
      carry crosses into the next field;
    - _saturate's guard-bit test and fix-up stay inside each field: a field
      plus `over` holds less than 2^bits.
    The levels and their order are thus those of the same DP run on tuples
    of ints.  A level is the Pareto maximum of level pos-1 and the shifted
    level p(pos), sorted as plain ints: both are descending runs unless
    saturation reorders the second, so the sort is mostly a linear merge.
    Which copy of an equal vector is kept does not change the level, so no
    provenance is tracked here.

    When p(pos) = pos-1 (interval pos starts after every earlier one ends)
    and nothing saturates, the level is the shifted list itself: level pos-1
    is an antichain, so its translate u + w is one too, and u + w >= u
    dominates u or equals it (w = 0, where the skip keeps the same value).
    The sort and the prune would return exactly that list.

    Saturation check at K <= 2.  Every such level is a strict staircase:
    the prune keeps a vector only if its last field is above every earlier
    kept one's, so along the list the last field rises and, the list being
    descending, the first field falls (an equal first field would need a
    smaller last one).  The shifted level and, at K=1, the lone vector of
    every level are staircases too.  So the first vector of level p(pos)
    holds its largest first field and the last vector its largest last
    field, and u + w has a field above sat for some u exactly when
    (level[0] >> bits) + (w >> bits) > sat or
    (level[-1] & mask) + (w & mask) > sat (at K=1 the first test reads 0,
    and the second reads the one field).  Otherwise _saturate would return
    the shifted list unchanged, so it is not called, and the shortcut above
    still fires.  At K >= 3 no field order holds along the level, and
    _saturate scans it.

    Incumbent prune.  floors() returns a vector f such that a set's vector
    y reaches f (y_k >= f_k for every k) exactly when the set scores at
    least as well as a real set the caller holds, the incumbent; so every
    optimum reaches f (see the solvers).  A vector x of level pos comes
    from a set among the first pos intervals, and whatever it takes later
    lies among positions >= pos, worth at most rest_k[pos] in scenario k.
    So every prefix of a set reaching f passes the test
    x_k >= f_k - rest_k[pos] for all k, and a vector failing it leads to no
    such set.  Once a level first holds
    more than _PRUNE_AT vectors, f and the packed thresholds of _level_cuts
    are built, and from that level on only passing vectors are kept: at
    K <= 2 a level is a strict staircase (first field falling, last
    rising), so the passing vectors form one slice found by two
    bisections; at K >= 3 x passes when ((x | H) - t) & H == H, the
    guard-bit test of _pareto_max with the thresholds packed into t.  Small
    levels cost less to keep than to test, hence the trigger.  The cap
    counts the stored, cut level, so a pruned run refuses less often.

    Why a pruned run returns the same answer.  By induction over skip and
    take, each pruned level holds a vector >= the prefix vector of every
    set reaching f: the prefix passes, and so does any vector above it.
    Each pruned level is an antichain of reachable vectors, so the final
    pruned level is exactly the unpruned one restricted to passing vectors.
    Every vector scoring at least as well as the incumbent passes there,
    optima and their ties included, so the same final vector is selected.
    The value backtrack of _frontier_best asks only whether a path vector v
    of the optimum is in level pos-1.  If v is in the unpruned level pos-1,
    the pruned one holds a vector >= v, which is v, since v is maximal at
    level pos; so v stays.  If not, a vector of the pruned level pos-1
    equal to v would be dominated at level pos by a strictly larger
    unpruned vector, against v's maximality; so the answer is again no, and
    the walk takes the same members, vector by vector.
    """
    cap = resolve_frontier_cap(cap)
    order, preds, _ = core._prepared(fam)
    k = len(columns)
    bits = _field_bits(columns, sat)
    packed = [0] * len(fam)
    for col in columns:
        packed = list(map(add, map(lshift, packed, repeat(bits)), col))
    mask = (1 << bits) - 1
    guards = _guards(k, bits)
    cuts = None
    levels = [[0]]
    for pos in range(1, len(fam) + 1):
        pred = preds[pos - 1]
        level = levels[pred]
        w = packed[order[pos - 1]]
        vecs = shifted = list(map(add, level, repeat(w)))
        if sat is not None and (
            k > 2
            or (level[0] >> bits) + (w >> bits) > sat
            or (level[-1] & mask) + (w & mask) > sat
        ):
            vecs = _saturate(shifted, sat, k, bits)
        if pred < pos - 1 or vecs is not shifted:
            # otherwise vecs is level pos-1 shifted and unsaturated: the level
            merged = levels[pos - 1] + vecs
            merged.sort(reverse=True)
            vecs = _pareto_max(merged, k, bits)
        if cuts is None and floors is not None and len(vecs) > _PRUNE_AT:
            cuts = _level_cuts(fam, columns, floors(), bits)
        if cuts is not None:
            t = cuts[pos]
            if k <= 2:
                # x_1 >= t_1 on a prefix, x_K >= t_K on a suffix; at K=1 the
                # first test reads 0 >= 0
                end = bisect_right(vecs, -(t >> bits << bits), key=neg)
                vecs = vecs[bisect_left(vecs, t & mask, 0, end, key=mask.__and__):end]
            else:
                # (x | H) - t is x + (H - t), a stored x having no guard bit set
                lift = guards - t
                vecs = list(compress(vecs, map(
                    guards.__eq__, map(and_, map(add, vecs, repeat(lift)), repeat(guards))
                )))
        if len(vecs) > cap:
            raise FrontierCapError(
                f"frontier size {len(vecs)} exceeds cap {cap} at interval {pos}"
            )
        levels.append(vecs)
    return levels, order, preds, bits, packed


def _frontier_best(
    fam: IntervalFamily,
    columns: Sequence[Sequence[int]],
    cap: int | None,
    score: Callable[[tuple[int, ...]], int],
    sat: int | None = None,
    floors: Callable[[], Sequence[int]] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run the frontier DP and backtrack from the final vector of least score.

    Ties on the score go to the lexicographically smallest vector, and equal
    vectors prefer skipping later intervals.  Returns (members, vector).

    Backtracking by value.  The witness is the one a DP with stored parents
    would give under the rule "skip wins, then the first parent in level
    order" (the tie-break of a stable descending sort of level pos-1
    followed by the shifted level p(pos)).  At position pos with vector v:
    - if v is in level pos-1 (a bisection of that descending list), the
      skip candidate equal to v came first, so v skips interval pos;
    - otherwise v takes interval pos.  Its parents are the u in level p(pos)
      whose shift equals v.  Without sat the shift u + w is one-to-one, so
      the parent is v - w.  With sat, a field of v below sat was not
      saturated, so it fixes u's field as v_i - w_i; only a field equal to
      sat leaves a choice.  If v has no such field the parent is again
      v - w; otherwise it is the first u in level order whose saturated
      shift is v, found by recomputing that shifted level.  The test "some
      field equals sat" is one add and mask: with `reach` holding
      2^(bits-1) - sat in every field, v + reach sets a field's guard bit
      exactly when that field is sat, as no stored field exceeds sat.
      Without sat, reach is 0 and a stored vector has no guard bit set.
    """
    levels, order, preds, bits, packed = _frontier_levels(fam, columns, cap, sat, floors)
    k = len(columns)
    final = _unpack(levels[-1], k, bits)
    vec = min(reversed(final), key=score)  # ascending: ties go to the smallest
    v = levels[-1][final.index(vec)]
    guards = _guards(k, bits)
    reach = 0 if sat is None else ((1 << (bits - 1)) - sat) * (guards >> (bits - 1))
    pos = len(levels) - 1
    members: list[int] = []
    while pos > 0:
        skipped = levels[pos - 1]
        i = bisect_left(skipped, -v, key=neg)
        if i < len(skipped) and skipped[i] == v:
            pos -= 1
            continue
        w = packed[order[pos - 1]]
        members.append(order[pos - 1] + 1)
        pos = preds[pos - 1]
        if (v + reach) & guards:
            parents = levels[pos]
            v = parents[_saturate([u + w for u in parents], sat, k, bits).index(v)]
        else:
            v -= w
    return tuple(sorted(members)), vec


def _kapprox_set(fam: IntervalFamily, scen: DiscreteScenarioSet) -> tuple[int, ...]:
    """The K-approximation's set: the DP optimum of the summed scenarios.
    Its value under each objective is the incumbent of the pruned solvers."""
    return core._max_weight_is(fam, scenarios._surrogate_discrete(scen))[0]


def _regret_floors(
    consts: Sequence[int], columns: Sequence[Sequence[int]], members: tuple[int, ...]
) -> list[int]:
    """Floors c_k - U of the regret prune, U the regret of members under
    columns: a set reaches them exactly when its regret is at most U."""
    u = max(c - sum(col[i - 1] for i in members) for c, col in zip(consts, columns))
    return [c - u for c in consts]


def _neg_min(vec: tuple[int, ...]) -> int:
    return -min(vec)


def _regret_score(consts: Sequence[int]) -> Callable[[tuple[int, ...]], int]:
    return lambda vec: max(map(sub, consts, vec))


def pareto_frontier(
    fam: IntervalFamily, scen: DiscreteScenarioSet, cap: int | None = None
) -> ParetoFrontier:
    """All Pareto-maximal vectors (F(X,S_1),...,F(X,S_K)) over independent sets X.

    Recurrence over the right-endpoint order: A[0] = {0}; A[i] is the Pareto
    maximum of A[i-1] together with A[p(i)] shifted by interval i's weight
    vector.  Raises FrontierCapError if a level outgrows the cap (default
    5e6 vectors); the cap is checked against the actual frontier, never
    estimated a priori.
    """
    _require_same_size(fam, scen.n)
    levels, _, _, bits, _ = _frontier_levels(fam, scen.scenarios, cap)
    return ParetoFrontier(
        k=scen.k, vectors=frozenset(_unpack(levels[-1], scen.k, bits))
    )


def solve_max_min_exact(
    fam: IntervalFamily, scen: DiscreteScenarioSet, cap: int | None = None
) -> tuple[tuple[int, ...], int]:
    """Exact max-min solution via the frontier DP.

    The optimal value is the largest minimum component over frontier vectors;
    a witness set is recovered by backtracking (deterministic: ties on the
    objective pick the lexicographically smallest vector, and equal vectors
    prefer skipping later intervals).  Past a small size a level keeps only
    vectors that can still reach the worst-case value of the K-approximation's
    set (see _frontier_levels): the answer is the full frontier's, and the
    cap counts each level after that cut.
    """
    _require_same_size(fam, scen.n)

    def floors() -> list[int]:
        # a set scores at least the incumbent's value exactly when every
        # coordinate of its vector does
        members = _kapprox_set(fam, scen)
        return [min(sum(s[i - 1] for i in members) for s in scen.scenarios)] * scen.k

    members, vec = _frontier_best(fam, scen.scenarios, cap, _neg_min, floors=floors)
    return members, min(vec)


def solve_regret_discrete_exact(
    fam: IntervalFamily, scen: DiscreteScenarioSet, cap: int | None = None
) -> RegretReport:
    """Exact min-max regret solution via the frontier DP.

    With c_k the deterministic optimum under scenario k, the regret of a
    frontier vector x is max_k (c_k - x_k), which is non-increasing in every
    coordinate, so restricting attention to Pareto-maximal vectors is sound.
    Past a small size a level keeps only vectors that can still end at a
    regret no larger than the K-approximation's (see _frontier_levels): the
    answer is the full frontier's, and the cap counts each level after that
    cut.
    """
    _require_same_size(fam, scen.n)
    consts = _optima(fam, scen)
    members, vec = _frontier_best(
        fam, scen.scenarios, cap, _regret_score(consts),
        floors=lambda: _regret_floors(consts, scen.scenarios, _kapprox_set(fam, scen)),
    )
    return _regret_report(scen, consts, members, vec)


# ---------------------------------------------------------------------------
# Exhaustive solvers (oracle-grade, guarded)


def solve_max_min_bruteforce(
    fam: IntervalFamily, scen: DiscreteScenarioSet, guard: int | None = None
) -> tuple[tuple[int, ...], int]:
    """Max-min by full enumeration; returns the lexicographically smallest optimum."""
    _require_same_size(fam, scen.n)
    sets = core._sets_with_sums(fam, scen.scenarios, guard)
    members, sums = min(sets, key=lambda item: _neg_min(item[1]))  # min keeps the first tie
    return members, min(sums)


def solve_regret_discrete_bruteforce(
    fam: IntervalFamily, scen: DiscreteScenarioSet, guard: int | None = None
) -> RegretReport:
    """Min-max regret by full enumeration; lexicographically smallest optimum."""
    _require_same_size(fam, scen.n)
    consts = _optima(fam, scen)
    score = _regret_score(consts)
    sets = core._sets_with_sums(fam, scen.scenarios, guard)
    members, sums = min(sets, key=lambda item: score(item[1]))  # min keeps the first tie
    return _regret_report(scen, consts, members, sums)


def solve_regret_interval_bruteforce(
    fam: IntervalFamily, u: IntervalUncertainty, guard: int | None = None
) -> RegretReport:
    """Min-max regret under ranges by full enumeration; lexicographically
    smallest optimum.

    Each independent set X is scored by one deterministic solve,
    opt(s_X) - low(X) with s_X its worst-case scenario, so the result does
    not depend on the bounded walk of solve_regret_interval_exact.
    """
    _require_same_size(fam, u.n)

    def regret(item: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        members, (low,) = item
        return _opt_weight(fam, _worst_case_scenario(u, members)) - low

    sets = core._sets_with_sums(fam, (u.lower,), guard)
    members, _ = min(sets, key=regret)  # min keeps the first tie
    return max_regret_interval(fam, u, members)


def solve_regret_interval_exact(
    fam: IntervalFamily, u: IntervalUncertainty, guard: int | None = None
) -> RegretReport:
    """Exact min-max regret under range uncertainty by a bounded walk.

    The problem is NP-hard, so this is a guarded desk-scale solver.  A set X
    is scored by its worst-case extreme scenario s_X (members low, others
    high): regret(X) = opt(s_X) - low(X).  The walk decides the intervals in
    right-endpoint order, taking interval pos only when the last taken one
    ends before it starts (position <= p(pos)), and extends the
    right-endpoint DP of that scenario by one entry per decision:
    best[pos+1] = max(best[pos], best[p(pos)] + w), with w the lower bound if
    taken, the upper bound if skipped.  Sets sharing a prefix of decisions
    share that prefix of the DP, and a leaf's regret is best[n] minus the
    lower bounds taken.

    Bound.  At a position that may still be taken, with C the set taken so
    far, every completion X = C + D has regret(X) >= opt(s') - low(C) -
    rest[pos].  Here s' is s_X with the undecided positions at their lower
    bounds, so s_X >= s' and opt(s_X) >= opt(s'); rest[pos] is the best
    lower-weight independent set among positions >= pos, so low(D) <=
    rest[pos].  opt(s') is best[pos], or best[min(p(f), pos)] + first[f] for
    the first undecided position f it takes, where first[f] is low[f] plus
    the best lower-weight set starting after f ends.  first and rest cost
    one O(n log n) pass.  Positions that must be skipped are not bounded.

    Cut tables.  opt(s') is not rescanned over every f >= pos.  The terms
    with p(f) >= pos all read best[pos], so they fold into one number,
    high[pos], the largest such first[f].  The others read best[q] for q =
    p(f) < pos, the cut set R(pos); per q only the largest first[f], g,
    matters.  best is nondecreasing, so a pair (q, g) adds nothing to the
    max when a larger q has g at least as large, or when g <= high[pos]; the
    remaining pairs, cuts[pos], give opt(s') = max(best[pos] + high[pos],
    best[q] + g over cuts[pos]) as the same int.  core._cut_tables builds
    both in one right-to-left pass, once per solve, in space proportional
    to the total length of the cuts, and a node costs O(|cuts[pos]|)
    instead of O(n - pos).

    Seed and ties.  The incumbent starts at the midpoint 2-approximation
    (one solve on lower + upper), and a subtree is cut only when its bound
    is strictly above the incumbent.  An optimal set's bound is at most its
    regret, which never exceeds the incumbent, so no optimal set is cut and
    the lexicographically smallest of them is returned, whichever optimum
    the seed was.  The walk keeps an explicit stack, so its depth n does
    not touch the recursion limit.
    """
    _require_same_size(fam, u.n)
    core._check_enumeration_guard(len(fam), guard)
    members, regret, _ = _regret_interval_walk(fam, u)
    return RegretReport(members, regret, _worst_case_scenario(u, members))


def _regret_interval_walk(
    fam: IntervalFamily, u: IntervalUncertainty
) -> tuple[tuple[int, ...], int, int]:
    """The bounded walk of solve_regret_interval_exact, unguarded.

    Returns (members, regret, nodes), nodes being the number of positions
    at which the bound was evaluated.
    """
    n = len(fam)
    seed = _max_regret_interval(
        fam, u, core._max_weight_is(fam, scenarios._surrogate_interval(u))[0]
    )
    best_regret, best_members = seed.regret_value, seed.solution
    order, preds, _ = core._prepared(fam)
    low = [u.lower[i] for i in order]
    up = [u.upper[i] for i in order]
    first, rest = core._completions(fam, u.lower)
    high, cuts = core._cut_tables(preds, first)
    best = [0] * (n + 1)
    chosen: list[int] = []  # taken positions, increasing
    branches: list[tuple[int, int]] = []  # (position, lower sum) still to take
    pos = last = lower_sum = nodes = 0
    while True:
        while pos < n:  # skip every remaining position
            if last <= preds[pos]:  # pos may be taken: bound the subtree
                nodes += 1
                opt = best[pos] + high[pos]
                for q, g in cuts[pos]:
                    if best[q] + g > opt:
                        opt = best[q] + g
                if opt - lower_sum - rest[pos] > best_regret:
                    break
                branches.append((pos, lower_sum))
            skip = best[pos]
            take = best[preds[pos]] + up[pos]
            best[pos + 1] = take if take > skip else skip
            pos += 1
        else:  # a leaf
            regret = best[n] - lower_sum
            if regret <= best_regret:
                members = tuple(sorted(order[p] + 1 for p in chosen))
                if (regret, members) < (best_regret, best_members):
                    best_regret, best_members = regret, members
        if not branches:
            break
        pos, lower_sum = branches.pop()
        while chosen and chosen[-1] > pos:
            chosen.pop()
        chosen.append(pos)
        last = pos + 1
        lower_sum += low[pos]
        skip = best[pos]
        take = best[preds[pos]] + low[pos]
        best[pos + 1] = take if take > skip else skip
        pos += 1
    return best_members, best_regret, nodes


# ---------------------------------------------------------------------------
# Scaling schemes (1±ε guarantees for constant K)


def _as_positive_fraction(eps) -> Fraction:
    try:
        f = Fraction(eps)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"epsilon must be a positive number, got {eps!r}") from None
    if f <= 0:
        raise ValidationError(f"epsilon must be positive, got {eps}")
    return f


def fptas_max_min(
    fam: IntervalFamily,
    scen: DiscreteScenarioSet,
    eps,
    cap: int | None = None,
) -> tuple[tuple[int, ...], int]:
    """Max-min solution with value at least opt/(1+eps).

    Runs the frontier DP on floor-scaled weights for a geometric ladder of
    trial bounds V = UB, UB//2, ..., 1 with UB = max_k c_k and step
    t = eps*V/(n(1+eps)), keeping per-coordinate sums saturated at
    C = ceil(2n(1+eps)/eps) so every run stays polynomial in n and 1/eps for
    fixed K.  For the ladder value with V <= opt <= 2V the scaled optimum
    loses at most n*t <= eps*opt/(1+eps) in original units, which yields the
    guarantee; the best exact value over the runs made is returned.  The
    ladder ends at V = 1, or at the first rung whose cut, the least weight
    that scales to C, is at most the smallest nonzero weight (one exists,
    as min_k c_k > 0 there).  A weight w > 0 scales to C exactly when
    w >= cut, and a zero scales to 0 as cut >= 1, so that rung is the first
    whose matrix has every nonzero weight at C; cut only falls down the
    ladder, so every later rung would repeat that matrix and its run.

    The rungs above min_k c_k do not run.  Every set X, of weight s_k(X)
    under scenario k, has min_k s_k(X) <= s_k(X) <= c_k for each k, so
    opt <= min_k c_k, and such a rung has V > opt: it cannot be the first
    rung with V <= opt, the one the guarantee needs.  When min_k c_k = 0
    every set scores 0, and the empty set is returned before any run.

    The ladder also ends after the first rung with V <= the best value found
    so far.  That value belongs to a real set, so it is at most opt, and the
    stopping rung has V <= opt.  Every rung from the first one served down
    to it has run, so the first rung with V <= opt has run.  If that rung
    is UB itself, V = UB >= opt; otherwise the rung before it had a trial
    T > opt (run, or skipped as above min_k c_k >= opt) and V = T//2, so
    2V >= T - 1 >= opt.  Either way V <= opt <= 2V there, and the guarantee
    holds.  The result is the first best over a subset of the full ladder's
    rungs, so its value is never above the full ladder's and may be below
    it, always within the (1+eps) guarantee.  Each rung's scale t = eps*V/(n(1+eps)) is kept as
    the int pair num = p*V, den = n*(p+q) for eps = p/q; floor(w*den/num)
    and ceil(C*num/den) do not change under a common factor of num and den.
    """
    _require_same_size(fam, scen.n)
    e = _as_positive_fraction(eps)
    n = len(fam)
    consts = _optima(fam, scen)
    low = min(consts)
    best_members: tuple[int, ...] = ()
    best_value = 0
    if low == 0:
        return best_members, best_value
    p, q = e.numerator, e.denominator
    den = n * (p + q)
    sat = -(-2 * den // p)
    smallest = min(w for s in scen.scenarios for w in s if w)
    trial = max(consts)
    while trial > low:
        trial //= 2
    while True:
        num = p * trial
        # w * den // num reaches sat exactly when w reaches cut
        cut = -(-sat * num // den)
        scaled = [[w * den // num if w < cut else sat for w in s] for s in scen.scenarios]
        members, _ = _frontier_best(fam, scaled, cap, _neg_min, sat=sat)
        value = min(sum(s[i - 1] for i in members) for s in scen.scenarios)
        if value > best_value:
            best_value = value
            best_members = members
        if trial <= best_value or trial == 1 or cut <= smallest:
            break
        trial //= 2
    return best_members, best_value


def fptas_regret_discrete(
    fam: IntervalFamily,
    scen: DiscreteScenarioSet,
    eps,
    cap: int | None = None,
) -> RegretReport:
    """Min-max regret solution with regret at most (1+eps)*opt.

    The average-weight approximation bounds the optimum between L = U/K and
    U, where U is its own regret.  Scaling weights by t = eps*L/(n+1) (floors
    for weights, ceilings for the per-scenario deterministic optima) distorts
    any solution's regret by at most t*(n+1) <= eps*L <= eps*opt, so the
    frontier-DP minimizer of the scaled regret meets the guarantee.  Its
    exact regret is reported.  The approximation, the scaled constants and
    the final evaluation share one computation of the scenario optima.  The
    scaled run cuts its larger levels against the approximation's scaled
    regret (see _frontier_levels), with the result of the uncut run.
    """
    _require_same_size(fam, scen.n)
    e = _as_positive_fraction(eps)
    n = len(fam)
    consts = _optima(fam, scen)
    base = _regret_report(scen, consts, _kapprox_set(fam, scen))
    if base.regret_value == 0 or n == 0:
        return base
    t = e * base.regret_value / (scen.k * (n + 1))
    num, den = t.numerator, t.denominator
    scaled_consts = [-(-c * den // num) for c in consts]
    scaled = [[w * den // num for w in s] for s in scen.scenarios]
    members, _ = _frontier_best(
        fam, scaled, cap, _regret_score(scaled_consts),
        floors=lambda: _regret_floors(scaled_consts, scaled, base.solution),
    )
    return _regret_report(scen, consts, members)
