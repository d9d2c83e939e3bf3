"""Checks every ``rwis solve`` output of one operation against its instance.

The verifier runs outside the timed region.  It parses the CLI table and
checks, per call:

- the exit code is 0 and the header fields echo the request;
- the solution is an independent set;
- the reported value equals the library's independent evaluator for the
  solution (``max_min_value``, ``max_regret_discrete``/``max_regret_interval``,
  ``weight_under``);
- a regret witness is a scenario of the instance and attains the value;

and across the calls of one operation:

- approximations are no better than the exact optimum, and within their
  guarantee: kapprox <= K * exact, midpoint <= 2 * exact, fptas within
  (1 +- eps) of exact;
- gadget oracles agree: partition regret <= threshold iff a partition
  exists; vertex-cover max-min >= 1 iff a small enough cover exists.
"""

from __future__ import annotations

from fractions import Fraction

from rwis import core, robust
from rwis.errors import RwisError
from rwis.scenarios import DiscreteScenarioSet

FIELDS = (
    "instance",
    "problem",
    "algorithm",
    "value",
    "solution",
    "witness",
    "epsilon",
    "scaling_factor",
)


class BadRecord(ValueError):
    pass


def parse_table(text: str) -> dict[str, str]:
    """Fields of one ``rwis solve --format table`` record, in order."""
    record = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        record[name] = value.strip()
    if tuple(record) != FIELDS:
        raise BadRecord(f"unexpected fields {list(record)}")
    return record


def _ints(text: str, what: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise BadRecord(f"{what} {text!r} is not a comma-separated integer list") from None


def _check_call(instance, instance_id, call, record) -> int:
    """Single-call checks; returns the reported value."""
    fam, u = instance.family, instance.uncertainty
    discrete = isinstance(u, DiscreteScenarioSet)
    expected_eps = "-" if call.epsilon is None else repr(float(call.epsilon))
    for name, want in (
        ("instance", instance_id),
        ("problem", call.problem),
        ("algorithm", call.algorithm),
        ("epsilon", expected_eps),
        ("scaling_factor", str(instance.scaling_factor)),
    ):
        if record[name] != want:
            raise BadRecord(f"{name} is {record[name]!r}, expected {want!r}")
    try:
        value = int(record["value"])
    except ValueError:
        raise BadRecord(f"value {record['value']!r} is not an integer") from None
    solution = _ints(record["solution"], "solution")
    try:
        independent = core.is_independent(fam, solution)
    except RwisError as exc:
        raise BadRecord(f"solution {solution}: {exc}") from None
    if not independent:
        raise BadRecord(f"solution {solution} is not an independent set")
    if call.problem == "maxmin":
        if record["witness"] != "-":
            raise BadRecord(f"max-min record carries witness {record['witness']!r}")
        if discrete:
            expected = robust.max_min_value(fam, u, solution)
        else:
            expected = robust.weight_under(solution, u.lower)
    elif call.problem == "regret":
        report = (
            robust.max_regret_discrete(fam, u, solution)
            if discrete
            else robust.max_regret_interval(fam, u, solution)
        )
        expected = report.regret_value
        witness = _ints(record["witness"], "witness")
        if discrete:
            valid = witness in u.scenarios
        else:
            valid = len(witness) == u.n and all(
                lo <= w <= hi for lo, w, hi in zip(u.lower, witness, u.upper)
            )
        if not valid:
            raise BadRecord(f"witness {witness} is not a scenario of the instance")
        attained = robust.opt_weight(fam, witness) - robust.weight_under(solution, witness)
        if attained != value:
            raise BadRecord(f"witness attains regret {attained}, record says {value}")
    else:
        raise BadRecord(f"benchmark does not verify problem {call.problem!r}")
    if value != expected:
        raise BadRecord(f"value {value} differs from the evaluator's {expected}")
    return value


def _check_against_exact(instance, call, value: int, exact: int) -> None:
    better = value > exact if call.problem == "maxmin" else value < exact
    if call.algorithm == "exact":
        return
    if better:
        raise BadRecord(f"{call.label} value {value} beats the exact optimum {exact}")
    if call.algorithm == "kapprox":
        k = instance.uncertainty.k
        if value > k * exact:
            raise BadRecord(f"kapprox regret {value} exceeds K={k} times optimum {exact}")
    elif call.algorithm == "midpoint":
        if value > 2 * exact:
            raise BadRecord(f"midpoint regret {value} exceeds twice the optimum {exact}")
    elif call.algorithm == "fptas":
        eps = Fraction(call.epsilon)
        if call.problem == "maxmin" and value * (1 + eps) < exact:
            raise BadRecord(f"fptas max-min {value} below optimum {exact}/(1+{eps})")
        if call.problem == "regret" and value > (1 + eps) * exact:
            raise BadRecord(f"fptas regret {value} above (1+{eps}) * optimum {exact}")


def _check_oracles(instance, call, value: int) -> None:
    meta = instance.metadata
    generator = meta.get("generator")
    if call.algorithm != "exact":
        return
    if generator == "partition" and call.problem == "regret":
        num, den = meta["regret_threshold_scaled"]
        if (value * den <= num) != meta["oracle_partition_exists"]:
            raise BadRecord(
                f"partition gadget regret {value} vs threshold {num}/{den} "
                f"disagrees with oracle ({meta['oracle_partition_exists']})"
            )
    if generator == "vertex_cover" and call.problem == "maxmin":
        if (value >= 1) != meta["oracle_cover_exists"]:
            raise BadRecord(
                f"cover gadget max-min {value} disagrees with oracle "
                f"({meta['oracle_cover_exists']})"
            )


def verify_operation(instance, instance_id: str, calls, results) -> list[str | None]:
    """One error message (or None) per call of an operation.

    `results` holds one ``(exit_code, stdout)`` pair per call, in `calls`
    order; for a nonzero exit code the text is the call's stderr.
    """
    errors: list[str | None] = [None] * len(calls)
    values: dict[int, int] = {}
    for i, (call, (code, out)) in enumerate(zip(calls, results)):
        if code != 0:
            errors[i] = f"{call.label} exited with code {code}: {out.strip()}"
            continue
        try:
            values[i] = _check_call(instance, instance_id, call, parse_table(out))
            _check_oracles(instance, call, values[i])
        except BadRecord as exc:
            errors[i] = f"{call.label}: {exc}"
    exact = {
        calls[i].problem: values[i]
        for i in values
        if calls[i].algorithm == "exact" and errors[i] is None
    }
    for i in values:
        if errors[i] is None and calls[i].problem in exact:
            try:
                _check_against_exact(instance, calls[i], values[i], exact[calls[i].problem])
            except BadRecord as exc:
                errors[i] = f"{calls[i].label}: {exc}"
    return errors
