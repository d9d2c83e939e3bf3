"""Uncertainty models for vertex weights.

Two representations: an explicit list of scenarios (weight vectors), or a
closed integer range per vertex whose Cartesian product is the scenario set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import add, le
from typing import Iterable, Iterator

from .core import (
    IntervalFamily,
    _is_int,
    _nonnegative_ints,
    _require_same_size,
    check_members,
)
from .errors import GuardError, ValidationError

DEFAULT_EXTREME_GUARD = 12


def _check_vector(v: Iterable[int], what: str) -> tuple[int, ...]:
    return _nonnegative_ints(
        v, f"{what} must contain integers, got {{!r}}", f"{what} must be nonnegative, got {{}}"
    )


@dataclass(frozen=True)
class DiscreteScenarioSet:
    """K explicitly given weight vectors over the same n vertices (K >= 1)."""

    scenarios: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(_check_vector(s, "scenario weights") for s in self.scenarios)
        if not rows:
            raise ValidationError("a discrete scenario set needs at least one scenario")
        object.__setattr__(self, "scenarios", rows)
        lengths = {len(s) for s in rows}
        if len(lengths) > 1:
            raise ValidationError(f"scenarios have inconsistent lengths {sorted(lengths)}")

    @property
    def k(self) -> int:
        return len(self.scenarios)

    @property
    def n(self) -> int:
        return len(self.scenarios[0])


@dataclass(frozen=True)
class IntervalUncertainty:
    """Per-vertex weight range [lower[i], upper[i]]; 0 <= lower <= upper."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = _check_vector(self.lower, "lower bounds")
        up = _check_vector(self.upper, "upper bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if len(lo) != len(up):
            raise ValidationError(
                f"bound vectors have different lengths {len(lo)} and {len(up)}"
            )
        if not all(map(le, lo, up)):
            for i, (a, b) in enumerate(zip(lo, up), start=1):
                if a > b:
                    raise ValidationError(
                        f"vertex {i}: lower bound {a} exceeds upper bound {b}"
                    )

    @property
    def n(self) -> int:
        return len(self.lower)


Uncertainty = DiscreteScenarioSet | IntervalUncertainty


@dataclass(frozen=True, eq=True)
class Instance:
    """An interval family bound to one uncertainty model.

    scaling_factor records the global multiplier applied to make all weights
    integral; objective values reported for this instance are in scaled units.
    metadata is free-form (generator name, seed, oracle answers) and must stay
    JSON-serializable.
    """

    family: IntervalFamily
    uncertainty: Uncertainty
    scaling_factor: int = 1
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _is_int(self.scaling_factor) or self.scaling_factor < 1:
            raise ValidationError(
                f"scaling factor must be a positive integer, got {self.scaling_factor!r}"
            )
        _require_same_size(self.family, self.uncertainty.n)


def _surrogate_discrete(scen: DiscreteScenarioSet) -> tuple[int, ...]:
    """Each vertex's weights summed over the K scenarios."""
    return tuple(sum(col) for col in zip(*scen.scenarios))


def _surrogate_interval(u: IntervalUncertainty) -> tuple[int, ...]:
    """Each vertex's lower + upper bound: twice its midpoint, in integers."""
    return tuple(map(add, u.lower, u.upper))


def worst_case_scenario(
    u: IntervalUncertainty, members: Iterable[int]
) -> tuple[int, ...]:
    """The extreme scenario that hurts the given solution the most.

    Members of the solution sit at their lower bound, everything else at its
    upper bound.  This scenario attains the solution's maximal regret.
    """
    return _worst_case_scenario(u, check_members(u.n, members))


def _worst_case_scenario(u: IntervalUncertainty, idx: Iterable[int]) -> tuple[int, ...]:
    """worst_case_scenario for indices check_members has already validated."""
    scenario = list(u.upper)
    lower = u.lower
    for i in idx:
        scenario[i - 1] = lower[i - 1]
    return tuple(scenario)


def extreme_scenarios(
    u: IntervalUncertainty, guard: int | None = None
) -> Iterator[tuple[int, ...]]:
    """All distinct scenarios with every coordinate at a bound.

    Degenerate ranges contribute a single value, so the count is 2^d where d
    is the number of non-degenerate coordinates.  Guarded by `guard`
    (default 12); RWIS_GUARD_N, the enumeration guard, does not apply here.
    """
    limit = DEFAULT_EXTREME_GUARD if guard is None else guard
    if u.n > limit:
        raise GuardError(f"{u.n} vertices exceed extreme-scenario guard {limit}")
    choices = [
        (lo,) if lo == up else (lo, up) for lo, up in zip(u.lower, u.upper)
    ]
    return (tuple(v) for v in itertools.product(*choices))
