"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's right-endpoint DP and its DFS
enumeration: subsets are walked as bitmasks and independence is decided by a
direct pairwise intersection test, so agreement with the production solvers
is meaningful evidence.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement


def conflict_masks(fam):
    n = len(fam)
    ivs = fam.intervals
    masks = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and max(ivs[i].lo, ivs[j].lo) <= min(ivs[i].hi, ivs[j].hi):
                masks[i] |= 1 << j
    return masks


def independent_masks(fam):
    """All bitmasks of pairwise-disjoint vertex sets (0-based bits)."""
    n = len(fam)
    conflict = conflict_masks(fam)
    valid = [True] * (1 << n)
    out = []
    for mask in range(1 << n):
        if mask:
            low = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << low)
            valid[mask] = valid[rest] and not (conflict[low] & rest)
        if valid[mask]:
            out.append(mask)
    return out


def mask_to_members(mask):
    members = []
    i = 1
    while mask:
        if mask & 1:
            members.append(i)
        mask >>= 1
        i += 1
    return tuple(members)


def mask_weight(mask, weights):
    total = 0
    i = 0
    while mask:
        if mask & 1:
            total += weights[i]
        mask >>= 1
        i += 1
    return total


def brute_opt(fam, weights):
    """Exhaustive deterministic optimum (value only)."""
    return max(mask_weight(m, weights) for m in independent_masks(fam))


def brute_all_optima(fam, weights):
    """All optimal member tuples, sorted lexicographically."""
    masks = independent_masks(fam)
    best = max(mask_weight(m, weights) for m in masks)
    return sorted(
        mask_to_members(m) for m in masks if mask_weight(m, weights) == best
    )


def brute_max_min(fam, scenarios):
    """Exhaustive max-min optimum (value only)."""
    return max(
        min(mask_weight(m, s) for s in scenarios) for m in independent_masks(fam)
    )


def brute_regret_discrete(fam, scenarios):
    """Exhaustive min-max regret optimum (value only)."""
    consts = [brute_opt(fam, s) for s in scenarios]
    return min(
        max(c - mask_weight(m, s) for c, s in zip(consts, scenarios))
        for m in independent_masks(fam)
    )


def brute_regret_interval(fam, lower, upper):
    """Exhaustive min-max regret optimum over all extreme scenarios (value only)."""
    masks = independent_masks(fam)
    n = len(fam)
    extremes = [()]
    for i in range(n):
        opts = sorted({lower[i], upper[i]})
        extremes = [e + (v,) for e in extremes for v in opts]
    fstar = [brute_opt(fam, s) for s in extremes]
    best = None
    for m in masks:
        worst = max(f - mask_weight(m, s) for f, s in zip(fstar, extremes))
        if best is None or worst < best:
            best = worst
    return best


def brute_optima_rational(fam, weights):
    """All optimal member tuples under rational weights (Fractions allowed)."""
    masks = independent_masks(fam)

    def wsum(m):
        return sum(
            (w for i, w in enumerate(weights) if (m >> i) & 1), start=Fraction(0)
        )

    best = max(wsum(m) for m in masks)
    return sorted(mask_to_members(m) for m in masks if wsum(m) == best)


def brute_cover_multiplicity(graph, budget):
    """Largest t such that some multiset of `budget` vertices covers every edge
    at least t times; an edge (k, l) is covered once per element equal to k or
    l.  Walks every multiset of vertices 1..graph.n_vertices directly.
    """
    best = 0
    for pick in combinations_with_replacement(range(1, graph.n_vertices + 1), budget):
        counts = Counter(pick)
        best = max(best, min(counts[k] + counts[l] for k, l in graph.edges))
    return best


def ref_prepared(fam):
    """Right-endpoint order, DP predecessors and left-endpoint order, the
    plain way: positions sorted by the key (hi, lo, index), p = bisect_left
    of each interval's lo in the sorted right endpoints, and positions sorted
    by the key (lo, index)."""
    ivs = fam.intervals
    order = tuple(sorted(range(len(ivs)), key=lambda i: (ivs[i].hi, ivs[i].lo, i)))
    his = [ivs[i].hi for i in order]
    by_lo = tuple(sorted(range(len(ivs)), key=lambda i: (ivs[i].lo, i)))
    return order, tuple(bisect_left(his, ivs[i].lo) for i in order), by_lo


def ref_completions(fam, weights):
    """core._completions the plain way: the orders of ref_prepared, each
    interval's after_end by bisect_right of its hi in the sorted left
    endpoints, one reverse DP over left-endpoint order, and each suffix
    maximum of first taken directly."""
    ivs = fam.intervals
    n = len(ivs)
    order, _, by_lo = ref_prepared(fam)
    sorted_los = [ivs[i].lo for i in by_lo]
    after_end = [bisect_right(sorted_los, iv.hi) for iv in ivs]
    after = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        i = by_lo[k]
        after[k] = max(after[k + 1], weights[i] + after[after_end[i]])
    first = [weights[i] + after[after_end[i]] for i in order]
    return first, [max(first[q:], default=0) for q in range(n + 1)]


def pairwise_independent(fam, members):
    """No two of the given 1-based vertices share a point (all pairs tested)."""
    ivs = [fam.intervals[i - 1] for i in set(members)]
    return not any(
        max(a.lo, b.lo) <= min(a.hi, b.hi) for a, b in combinations(ivs, 2)
    )


def ref_is_independent_sorted(fam, idx):
    """Independence of validated 1-based indices the tuple way: sort the
    (lo, hi) pairs, and each interval must end before the next one starts."""
    ivs = sorted((fam.intervals[i - 1].lo, fam.intervals[i - 1].hi) for i in idx)
    return all(a_hi < b_lo for (_, a_hi), (b_lo, _) in zip(ivs, ivs[1:]))


def left_scan_opt(fam, weights):
    """Deterministic optimum (value only) by a left-endpoint recursion.

    Independent of the library's right-endpoint DP: intervals are ordered by
    start, g[i] is the best weight using intervals i.. of that order, and
    taking interval i continues at the first interval that starts after it
    ends, found by a direct scan.
    """
    ivs = fam.intervals
    order = sorted(range(len(ivs)), key=lambda i: ivs[i].lo)
    g = [0] * (len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        i = order[pos]
        nxt = pos + 1
        while nxt < len(order) and ivs[order[nxt]].lo <= ivs[i].hi:
            nxt += 1
        g[pos] = max(g[pos + 1], weights[i] + g[nxt])
    return g[0]


def count_independent_sets(fam):
    """Number of independent sets, the empty set included, by the same
    left-endpoint recursion as `left_scan_opt` with counts for weights."""
    ivs = fam.intervals
    order = sorted(range(len(ivs)), key=lambda i: ivs[i].lo)
    c = [1] * (len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        nxt = pos + 1
        while nxt < len(order) and ivs[order[nxt]].lo <= ivs[order[pos]].hi:
            nxt += 1
        c[pos] = c[pos + 1] + c[nxt]
    return c[0]


def brute_regret_interval_argmin(fam, lower, upper):
    """Exhaustive min-max regret under ranges: (regret, lexicographically
    smallest optimal member tuple).

    Walks every independent bitmask X, scores it under its worst-case
    scenario (members of X at lower bounds, the rest at upper bounds) with
    `left_scan_opt`, and keeps the minimum of (regret, members).
    """
    best = None
    for m in independent_masks(fam):
        scenario = [lower[i] if (m >> i) & 1 else upper[i] for i in range(len(fam))]
        regret = left_scan_opt(fam, scenario) - mask_weight(m, lower)
        cand = (regret, mask_to_members(m))
        if best is None or cand < best:
            best = cand
    return best


def is_antichain(vectors):
    """True when no vector is dominated by another, under component-wise
    <= (a quadratic check of a frontier's non-domination invariant)."""
    vecs = list(vectors)
    return not any(
        a != b and all(x <= y for x, y in zip(a, b)) for a in vecs for b in vecs
    )


def pareto_max_of_sets(fam, scenarios, sat=None):
    """Pareto maximum, under component-wise >=, of the per-scenario weight
    sums of every independent set, each sum clipped at `sat` when given."""
    sums = set()
    for m in independent_masks(fam):
        vec = tuple(mask_weight(m, s) for s in scenarios)
        sums.add(vec if sat is None else tuple(min(x, sat) for x in vec))
    return {
        v for v in sums
        if not any(u != v and all(x <= y for x, y in zip(v, u)) for u in sums)
    }


# ---------------------------------------------------------------------------
# Reference frontier DP: the dictionary-based implementation the library used
# before its index-based engine, kept as the tie-break reference.  The level
# construction, the final-vector selection rules and the backtracking are that
# code unchanged; the per-scenario optima come from brute_opt, and only the
# interval preparation (core._prepared) is shared with the library.

_SKIP = None


def ref_pareto_max(vectors, k):
    """Pareto-maximal subset under component-wise >=."""
    vecs = sorted(set(vectors), reverse=True)
    if k == 1:
        return vecs[:1]
    if k == 2:
        kept = []
        best_second = -1
        for v in vecs:
            if v[1] > best_second:
                kept.append(v)
                best_second = v[1]
        return kept
    kept = []
    for v in vecs:
        # descending lexicographic order: earlier vectors can never be
        # dominated by later ones, so one pass suffices
        if not any(all(x <= y for x, y in zip(v, u)) for u in kept):
            kept.append(v)
    return kept


def ref_frontier_levels(fam, columns, cap, sat=None):
    """Level i maps each Pareto-maximal vector of the first i sorted
    intervals to None ("skip interval i") or its parent vector at level p(i)
    ("take interval i"); skip wins, then the first parent in level order."""
    from rwis import core
    from rwis.errors import FrontierCapError

    order, preds, _ = core._prepared(fam)
    n = len(fam)
    k = len(columns)
    zero = (0,) * k
    levels = [{zero: _SKIP}]
    for pos in range(1, n + 1):
        orig = order[pos - 1]
        wvec = tuple(col[orig] for col in columns)
        cand = {v: _SKIP for v in levels[pos - 1]}
        if sat is None:
            for u in levels[preds[pos - 1]]:
                v = tuple(a + b for a, b in zip(u, wvec))
                if v not in cand:
                    cand[v] = u
        else:
            for u in levels[preds[pos - 1]]:
                v = tuple(min(a + b, sat) for a, b in zip(u, wvec))
                if v not in cand:
                    cand[v] = u
        keep = ref_pareto_max(cand.keys(), k)
        if len(keep) > cap:
            raise FrontierCapError(
                f"frontier size {len(keep)} exceeds cap {cap} at interval {pos}"
            )
        levels.append({v: cand[v] for v in keep})
    return levels, order, preds


def ref_backtrack(levels, order, preds, vec):
    pos = len(levels) - 1
    members = []
    while pos > 0:
        parent = levels[pos][vec]
        if parent is _SKIP:
            pos -= 1
        else:
            members.append(order[pos - 1] + 1)
            vec = parent
            pos = preds[pos - 1]
    return tuple(sorted(members))


def ref_max_min_exact(fam, scen, cap=5_000_000):
    levels, order, preds = ref_frontier_levels(fam, scen.scenarios, cap)
    final = sorted(levels[-1])
    best_vec = max(final, key=lambda v: (min(v), tuple(-x for x in v)))
    return ref_backtrack(levels, order, preds, best_vec), min(best_vec)


def ref_regret_discrete_exact(fam, scen, cap=5_000_000):
    """(members, regret, witness) of the reference min-max regret solver."""
    consts = [brute_opt(fam, s) for s in scen.scenarios]
    levels, order, preds = ref_frontier_levels(fam, scen.scenarios, cap)
    best_vec = None
    best_regret = None
    for vec in sorted(levels[-1]):
        regret = max(c - x for c, x in zip(consts, vec))
        if best_regret is None or regret < best_regret:
            best_regret = regret
            best_vec = vec
    members = ref_backtrack(levels, order, preds, best_vec)
    gaps = [c - x for c, x in zip(consts, best_vec)]
    witness = scen.scenarios[gaps.index(best_regret)]
    return members, best_regret, witness


def ref_fptas_ladder(fam, scen, eps):
    """The scaled matrices of the reference max-min scheme, one per rung
    V = UB, UB//2, ..., 1, with the saturation value C and each rung's V."""
    e = Fraction(eps)
    n = len(fam)
    ub = max(left_scan_opt(fam, s) for s in scen.scenarios)
    if ub == 0 or n == 0:
        return [], None, []
    sat_num = 2 * n * (1 + e) / e
    sat = -((-sat_num.numerator) // sat_num.denominator)
    rungs = []
    trials = []
    trial = ub
    while trial >= 1:
        t = e * trial / (n * (1 + e))
        rungs.append(
            [[min((w * t.denominator) // t.numerator, sat) for w in s] for s in scen.scenarios]
        )
        trials.append(trial)
        if trial == 1:
            break
        trial //= 2
    return rungs, sat, trials


def ref_fptas_run(fam, scen, scaled, sat, cap=5_000_000):
    """(members, value) of one reference frontier run on a scaled matrix:
    the set maximizing the scaled min, and its min in original weights."""
    levels, order, preds = ref_frontier_levels(fam, scaled, cap, sat=sat)
    vec = max(sorted(levels[-1]), key=lambda v: (min(v), tuple(-x for x in v)))
    members = ref_backtrack(levels, order, preds, vec)
    return members, min(sum(s[i - 1] for i in members) for s in scen.scenarios)


def ref_fptas_max_min(fam, scen, eps, cap=5_000_000):
    """The reference max-min scheme: one frontier run on every rung."""
    rungs, sat, _ = ref_fptas_ladder(fam, scen, eps)
    best_members = ()
    best_value = 0
    for scaled in rungs:
        members, value = ref_fptas_run(fam, scen, scaled, sat, cap)
        if value > best_value:
            best_value = value
            best_members = members
    return best_members, best_value


def ref_fptas_regret_discrete(fam, scen, eps, cap=5_000_000):
    """Members of the reference regret scheme's scaled frontier minimizer,
    or None where it returns the average-weight solution unchanged."""
    from rwis.approx import k_approx_regret

    e = Fraction(eps)
    n = len(fam)
    base = k_approx_regret(fam, scen)
    if base.regret_value == 0 or n == 0:
        return None
    t = e * base.regret_value / (scen.k * (n + 1))
    consts = [
        -((-brute_opt(fam, s) * t.denominator) // t.numerator) for s in scen.scenarios
    ]
    scaled = [[(w * t.denominator) // t.numerator for w in s] for s in scen.scenarios]
    levels, order, preds = ref_frontier_levels(fam, scaled, cap)
    best_vec = None
    best_scaled = None
    for vec in sorted(levels[-1]):
        regret = max(c - x for c, x in zip(consts, vec))
        if best_scaled is None or regret < best_scaled:
            best_scaled = regret
            best_vec = vec
    return ref_backtrack(levels, order, preds, best_vec)


# ---------------------------------------------------------------------------
# Reference interval-regret walk: the bounded walk as it was before its bound
# was read from core._cut_tables, kept as the node-count reference.  Each
# node scans every undecided position to bound opt(s') in O(n).


def scan_opt_bound(preds, first, best, pos):
    """max(best[pos], max over f >= pos of best[min(preds[f], pos)] + first[f]),
    by a direct scan: the walk's bound on opt(s') at position pos."""
    opt = best[pos]
    for f in range(pos, len(preds)):
        opt = max(opt, best[min(preds[f], pos)] + first[f])
    return opt


def ref_regret_interval_walk(fam, u):
    """(members, regret, nodes) of the walk with the O(n) scan per node."""
    from rwis import core, scenarios
    from rwis.robust import max_regret_interval

    n = len(fam)
    seed = max_regret_interval(
        fam, u, core.max_weight_is(fam, scenarios._surrogate_interval(u))[0]
    )
    best_regret, best_members = seed.regret_value, seed.solution
    order, preds, _ = core._prepared(fam)
    low = [u.lower[i] for i in order]
    up = [u.upper[i] for i in order]
    first, rest = core._completions(fam, u.lower)
    best = [0] * (n + 1)
    chosen = []
    branches = []
    pos = last = lower_sum = nodes = 0
    while True:
        while pos < n:
            if last <= preds[pos]:
                nodes += 1
                opt = scan_opt_bound(preds, first, best, pos)
                if opt - lower_sum - rest[pos] > best_regret:
                    break
                branches.append((pos, lower_sum))
            best[pos + 1] = max(best[pos], best[preds[pos]] + up[pos])
            pos += 1
        else:
            regret = best[n] - lower_sum
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
        best[pos + 1] = max(best[pos], best[preds[pos]] + low[pos])
        pos += 1
    return best_members, best_regret, nodes


# Reference random generator: gen.gen_random as it was when it drew every
# value with random.randint, kept to check that the getrandbits draws give
# the same instances.  It skips gen_random's argument checks.


def ref_gen_random(n, model, w_max, density, seed, k=None):
    """The instance gen_random(n, model, w_max, density, seed, k) returns."""
    import random

    from rwis import (
        DiscreteScenarioSet, Instance, Interval, IntervalFamily, IntervalUncertainty,
    )

    rng = random.Random(seed)
    span = 4 * n
    los = []
    his = []
    if density == 0.0:
        for i in range(n):
            lo = 4 * i + rng.randint(0, 1)
            los.append(lo)
            his.append(lo + rng.randint(0, 1))
    else:
        max_lo = max(0, round((span - 2) * (1.0 - density)))
        max_len = 2 + round(4 * density)
        for _ in range(n):
            lo = rng.randint(0, max_lo)
            los.append(lo)
            his.append(min(lo + rng.randint(0, max_len), span))
    if model == "discrete":
        uncertainty = DiscreteScenarioSet(
            tuple(
                tuple(rng.randint(0, w_max) for _ in range(n)) for _ in range(k)
            )
        )
    else:
        lower = []
        upper = []
        for _ in range(n):
            a = rng.randint(0, w_max)
            b = rng.randint(0, w_max)
            lower.append(min(a, b))
            upper.append(max(a, b))
        uncertainty = IntervalUncertainty(tuple(lower), tuple(upper))
    return Instance(
        family=IntervalFamily(tuple(map(Interval, los, his))),
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


def maxima_2d(pairs):
    """Indices of the 2-D maxima of pairs: no other pair is >= in both
    coordinates, except an equal pair, of which the first is kept."""
    return [
        i for i, (x, y) in enumerate(pairs)
        if not any(
            px >= x and py >= y and ((px, py) != (x, y) or j < i)
            for j, (px, py) in enumerate(pairs)
        )
    ]


def ref_read_uncertainty(unc, n):
    """What the file reader makes of a well-formed uncertainty object ("type"
    and exactly its own fields) over a family of n intervals:
    ("discrete", rows) or ("interval", lower, upper) as tuples, or
    ("error", message).

    The precedence written out as a specification: every column's list check
    and then its entries' int checks, column by column; then the model's sign
    check of each column in order; then its length check; for ranges then
    the first lower > upper; last the family-size check.
    """
    if unc["type"] == "discrete":
        rows = unc["scenarios"]
        if not isinstance(rows, list) or not rows:
            return ("error", "discrete uncertainty needs a non-empty scenarios list")
        named = [("scenario", "scenario weights", row) for row in rows]
    else:
        named = [("lower", "lower bounds", unc["lower"]), ("upper", "upper bounds", unc["upper"])]
    for what, _, column in named:
        if not isinstance(column, list):
            return ("error", f"{what} must be a list, got {type(column).__name__}")
        for x in column:
            if not isinstance(x, int) or isinstance(x, bool):
                return ("error", f"{what} entry must be an integer, got {x!r}")
    for _, label, column in named:
        for x in column:
            if x < 0:
                return ("error", f"{label} must be nonnegative, got {x}")
    columns = [tuple(column) for _, _, column in named]
    if unc["type"] == "discrete":
        lengths = sorted({len(row) for row in columns})
        if len(lengths) > 1:
            return ("error", f"scenarios have inconsistent lengths {lengths}")
        model = ("discrete", tuple(columns))
    else:
        lower, upper = columns
        if len(lower) != len(upper):
            return (
                "error", f"bound vectors have different lengths {len(lower)} and {len(upper)}"
            )
        for i, (a, b) in enumerate(zip(lower, upper), start=1):
            if a > b:
                return ("error", f"vertex {i}: lower bound {a} exceeds upper bound {b}")
        model = ("interval", lower, upper)
    size = len(columns[0])
    if size != n:
        return ("error", f"uncertainty covers {size} vertices, family has {n}")
    return model


def ref_interval_uncertainty(lower, upper):
    """IntervalUncertainty(lower, upper) as ordered checks: ("interval",
    lower, upper) as tuples, or (exception type name, message).

    Each column is made a tuple when its turn comes, then its entries are
    checked in order, type before sign; lower's first, then upper's; then
    the lengths; last the first lower > upper.
    """
    columns = []
    for label, column in (("lower bounds", lower), ("upper bounds", upper)):
        try:
            column = tuple(column)
        except TypeError as exc:
            return ("TypeError", str(exc))
        for x in column:
            if not isinstance(x, int) or isinstance(x, bool):
                return ("ValidationError", f"{label} must contain integers, got {x!r}")
            if x < 0:
                return ("ValidationError", f"{label} must be nonnegative, got {x}")
        columns.append(column)
    lo, up = columns
    if len(lo) != len(up):
        return ("ValidationError", f"bound vectors have different lengths {len(lo)} and {len(up)}")
    for i, (a, b) in enumerate(zip(lo, up), start=1):
        if a > b:
            return ("ValidationError", f"vertex {i}: lower bound {a} exceeds upper bound {b}")
    return ("interval", lo, up)


def ref_fmt_list(items):
    """A result list as the CLI prints it: entries joined by commas, `-` for
    None or an empty list."""
    return ",".join(map(str, items)) if items else "-"

