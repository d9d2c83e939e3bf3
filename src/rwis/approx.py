"""Approximation algorithms with certified worst-case ratios.

Both algorithms collapse the uncertain weights to a single surrogate vector
and solve one deterministic problem.  Sums are used instead of averages or
midpoints: dividing every weight by the same positive constant cannot change
which sets are optimal, and sums keep the arithmetic in exact integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import attrgetter

from . import core, robust, scenarios
from .core import IntervalFamily
from .errors import ValidationError
from .scenarios import DiscreteScenarioSet, IntervalUncertainty, Uncertainty

TIE_CANONICAL = "canonical"
TIE_ADVERSARIAL = "adversarial"


def _surrogate_optima(
    fam: IntervalFamily, surrogate: tuple[int, ...], ties: str, guard: int | None
) -> list[tuple[int, ...]]:
    """The surrogate optima a tie mode considers: the DP's one, or all of
    them in lexicographic order (guarded enumeration)."""
    if ties == TIE_CANONICAL:
        return [core._max_weight_is(fam, surrogate)[0]]
    if ties == TIE_ADVERSARIAL:
        return core.max_weight_is_all_optima(fam, surrogate, guard)
    raise ValidationError(f"unknown tie mode {ties!r}")


def k_approx_regret(
    fam: IntervalFamily,
    scen: DiscreteScenarioSet,
    ties: str = TIE_CANONICAL,
    guard: int | None = None,
) -> robust.RegretReport:
    """Average-weight approximation for min-max regret, ratio K.

    Solves the deterministic problem with each vertex weighted by the sum of
    its weights across all K scenarios, then reports that solution's exact
    maximal regret, which is at most K times the optimum.  Runs in
    O(Kn + n log n).  `ties="adversarial"` explores every surrogate optimum
    and returns the worst one (guarded enumeration; used to certify tightness).
    """
    core._require_same_size(fam, scen.n)
    optima = _surrogate_optima(fam, scenarios._surrogate_discrete(scen), ties, guard)
    consts = robust._optima(fam, scen)
    reports = (robust._regret_report(scen, consts, m) for m in optima)
    return max(reports, key=attrgetter("regret_value"))  # the first worst wins


def midpoint_approx_regret(
    fam: IntervalFamily,
    u: IntervalUncertainty,
    ties: str = TIE_CANONICAL,
    guard: int | None = None,
) -> robust.RegretReport:
    """Midpoint approximation for min-max regret under ranges, ratio 2.

    Solves the deterministic problem with each vertex weighted by
    lower + upper, then reports that solution's exact maximal regret, which
    is at most twice the optimum.
    """
    core._require_same_size(fam, u.n)
    optima = _surrogate_optima(fam, scenarios._surrogate_interval(u), ties, guard)
    reports = (robust._max_regret_interval(fam, u, m) for m in optima)
    return max(reports, key=attrgetter("regret_value"))  # the first worst wins


def adversarial_ratio(
    fam: IntervalFamily,
    uncertainty: Uncertainty,
    algorithm: str | None = None,
    guard: int | None = None,
):
    """Worst regret ratio over every tie-broken output of an approximation.

    Takes the worst exact regret among all optima of the surrogate problem
    (the algorithm's adversarial tie mode) and divides it by the exact
    min-max regret optimum.  Conventions: 1 when both are zero, math.inf
    when only the optimum is zero, otherwise an exact Fraction.
    """
    if isinstance(uncertainty, DiscreteScenarioSet):
        expected, approximate = "kapprox", k_approx_regret
        exact = partial(robust.solve_regret_discrete_exact, fam, uncertainty)
    elif isinstance(uncertainty, IntervalUncertainty):
        expected, approximate = "midpoint", midpoint_approx_regret
        exact = partial(robust.solve_regret_interval_exact, fam, uncertainty, guard)
    else:
        raise ValidationError(f"unknown uncertainty model {uncertainty!r}")
    if algorithm is not None and algorithm != expected:
        raise ValidationError(
            f"algorithm {algorithm!r} does not apply to this uncertainty model"
        )
    opt = exact().regret_value
    worst = approximate(fam, uncertainty, ties=TIE_ADVERSARIAL, guard=guard).regret_value
    if opt == 0:
        return Fraction(1) if worst == 0 else math.inf
    return Fraction(worst, opt)
