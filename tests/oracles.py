"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's right-endpoint DP and its DFS
enumeration: subsets are walked as bitmasks and independence is decided by a
direct pairwise intersection test, so agreement with the production solvers
is meaningful evidence.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement


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
