"""Command-line interface: solve, evaluate, generate, bench, selfcheck.

Output is byte-deterministic for fixed inputs and flags; wall-clock timings
are only emitted under --timings so that default runs can be diffed.
Exit codes: 0 success, 10 parse error, 11 validation error, 12 guard
violation, 13 unsupported problem/algorithm combination (argparse itself
exits 2 on bad usage).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import approx, core, gen, robust
from .errors import (
    GuardError,
    ParseError,
    RwisError,
    UnsupportedCombinationError,
    ValidationError,
)
from .fileformat import parse_instance, write_instance
from .scenarios import DiscreteScenarioSet, Instance, Uncertainty, extreme_scenarios

EXIT_OK = 0
EXIT_PARSE = 10
EXIT_VALIDATION = 11
EXIT_GUARD = 12
EXIT_UNSUPPORTED = 13

# error class -> exit code, most specific first: FrontierCapError is a
# GuardError, and every class is an RwisError
EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (UnsupportedCombinationError, EXIT_UNSUPPORTED),
    (GuardError, EXIT_GUARD),
    (RwisError, EXIT_VALIDATION),
)


def _deterministic_vector(instance: Instance) -> tuple[int, ...]:
    u = instance.uncertainty
    if isinstance(u, DiscreteScenarioSet):
        if u.k == 1:
            return u.scenarios[0]
        raise UnsupportedCombinationError(
            f"problem 'det' needs a deterministic instance; this one has {u.k} scenarios"
        )
    if u.lower == u.upper:
        return u.lower
    raise UnsupportedCombinationError(
        "problem 'det' needs a deterministic instance; this one has non-degenerate ranges"
    )


class _Request(NamedTuple):
    """What a solver entry of SOLVERS is called with."""

    instance: Instance
    fam: core.IntervalFamily
    u: Uncertainty
    epsilon: Fraction | float | None
    ties: str
    guard: int | None


def _need_epsilon(r: _Request) -> Fraction | float:
    if r.epsilon is None:
        raise ValidationError("--epsilon is required for the fptas algorithm")
    return r.epsilon


def _solve_det(r: _Request) -> tuple[tuple[int, ...], int]:
    return core._max_weight_is(r.fam, _deterministic_vector(r.instance))


# (problem, algorithm) -> (entry for discrete scenarios, entry for weight
# ranges).  An entry is either a solver, called with a _Request and returning
# (members, value) or a RegretReport, or the message refusing that model.  A
# solver looks its function up on the module when called (robust.x, never a
# stored x), so rebinding a module attribute reaches every caller.
SOLVERS = {
    ("det", "exact"): (_solve_det, _solve_det),
    ("maxmin", "exact"): (
        lambda r: robust.solve_max_min_exact(r.fam, r.u),
        lambda r: robust.solve_max_min_interval(r.fam, r.u),
    ),
    ("maxmin", "fptas"): (
        lambda r: robust.fptas_max_min(r.fam, r.u, _need_epsilon(r)),
        "maxmin/fptas applies to discrete scenario sets only; "
        "maxmin under ranges is solved exactly in polynomial time",
    ),
    ("maxmin", "bruteforce"): (
        lambda r: robust.solve_max_min_bruteforce(r.fam, r.u, r.guard),
        lambda r: robust.solve_max_min_bruteforce(
            r.fam, DiscreteScenarioSet((r.u.lower,)), r.guard
        ),
    ),
    ("regret", "exact"): (
        lambda r: robust.solve_regret_discrete_exact(r.fam, r.u),
        lambda r: robust.solve_regret_interval_exact(r.fam, r.u, r.guard),
    ),
    ("regret", "fptas"): (
        lambda r: robust.fptas_regret_discrete(r.fam, r.u, _need_epsilon(r)),
        "regret/fptas applies to discrete scenario sets only",
    ),
    ("regret", "bruteforce"): (
        lambda r: robust.solve_regret_discrete_bruteforce(r.fam, r.u, r.guard),
        lambda r: robust.solve_regret_interval_bruteforce(r.fam, r.u, r.guard),
    ),
    ("regret", "kapprox"): (
        lambda r: approx.k_approx_regret(r.fam, r.u, ties=r.ties, guard=r.guard),
        "regret/kapprox applies to discrete scenario sets only",
    ),
    ("regret", "midpoint"): (
        "regret/midpoint applies to interval uncertainty only",
        lambda r: approx.midpoint_approx_regret(r.fam, r.u, ties=r.ties, guard=r.guard),
    ),
}

# the CLI's names, in the order the table first uses them
PROBLEMS = tuple(dict.fromkeys(problem for problem, _ in SOLVERS))
ALGORITHMS = tuple(dict.fromkeys(algorithm for _, algorithm in SOLVERS))


def dispatch_solve(
    instance: Instance,
    problem: str,
    algorithm: str,
    epsilon: Fraction | float | None = None,
    adversarial_ties: bool = False,
    guard: int | None = None,
) -> tuple[int, tuple[int, ...], tuple[int, ...] | None]:
    """Route a (problem, algorithm) pair to its solver in SOLVERS.

    Returns (value, solution, witness_scenario); for regret problems the
    value is the solution's maximal regret and the witness attains it.
    """
    row = SOLVERS.get((problem, algorithm))
    if row is None:
        if problem == "det":
            message = f"problem 'det' only supports algorithm 'exact', not {algorithm!r}"
        elif problem in PROBLEMS:
            message = f"problem {problem!r} does not support algorithm {algorithm!r}"
        else:
            message = f"unknown problem {problem!r}"
        raise UnsupportedCombinationError(message)
    u = instance.uncertainty
    entry = row[0 if isinstance(u, DiscreteScenarioSet) else 1]
    if isinstance(entry, str):
        raise UnsupportedCombinationError(entry)
    ties = approx.TIE_ADVERSARIAL if adversarial_ties else approx.TIE_CANONICAL
    result = entry(_Request(instance, instance.family, u, epsilon, ties, guard))
    if isinstance(result, robust.RegretReport):
        return result.regret_value, result.solution, result.witness_scenario
    members, value = result
    return value, members, None


# ---------------------------------------------------------------------------
# Rendering


def _fmt_list(items: tuple[int, ...] | None) -> str:
    """Comma-separated entries; `-` for None or an empty list."""
    return ",".join(map(str, items)) if items else "-"


def _fmt_value(value: int) -> str:
    """Decimal text of a reported value, refused when over the int-string limit.

    Sums of in-range weights can have more digits than any input literal.
    """
    try:
        return str(value)
    except ValueError:
        raise ValidationError(
            f"value has more than {sys.get_int_max_str_digits()} digits, "
            "too many to print"
        ) from None


def _layout(rows: Sequence[Sequence[str]], format: str) -> str:
    """Rows of cells as text: tab-separated for `delimited`; for `table`,
    two spaces apart with every column but the last padded to its widest
    cell, so a cell's own trailing spaces are kept."""
    if format == "delimited":
        return "".join("\t".join(row) + "\n" for row in rows)
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join([*map(str.ljust, row[:-1], widths), row[-1]]) + "\n" for row in rows
    )


def _instance_id(path: Path, instance: Instance) -> str:
    meta_id = instance.metadata.get("id")
    return str(meta_id) if meta_id is not None else path.stem


# ---------------------------------------------------------------------------
# Commands


def _check_epsilon(eps: Fraction | float | None) -> None:
    """Refuse, before any solving, an epsilon too large to convert to a float:
    the epsilon column prints float(eps), and bench accepts what solve does."""
    if isinstance(eps, Fraction) and abs(eps) > sys.float_info.max:
        raise ValidationError("epsilon is too large in magnitude for a float")


def _write_result(
    args: argparse.Namespace,
    instance: Instance,
    algorithm: str,
    value: int,
    solution: tuple[int, ...],
    witness: tuple[int, ...] | None,
    epsilon: Fraction | float | None = None,
    wall_ms: float | None = None,
) -> int:
    """Print one result's fields in the --format layout; wall_ms, when
    given, is the last field."""
    fields = [
        ("instance", _instance_id(Path(args.instance), instance)),
        ("problem", args.problem),
        ("algorithm", algorithm),
        ("value", _fmt_value(value)),
        ("solution", _fmt_list(solution)),
        ("witness", _fmt_list(witness)),
        ("epsilon", "-" if epsilon is None else repr(float(epsilon))),
        ("scaling_factor", str(instance.scaling_factor)),
    ]
    if wall_ms is not None:
        fields.append(("wall_ms", f"{wall_ms:.3f}"))
    # the table lists one field per line, the delimited layout one per column
    rows = fields if args.format == "table" else list(zip(*fields))
    sys.stdout.write(_layout(rows, args.format))
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    _check_epsilon(args.epsilon)
    instance = parse_instance(args.instance)
    start = time.perf_counter()
    value, members, witness = dispatch_solve(
        instance,
        args.problem,
        args.algorithm,
        epsilon=args.epsilon,
        adversarial_ties=args.adversarial_ties,
        guard=args.guard_n,
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    return _write_result(
        args, instance, args.algorithm, value, members, witness,
        epsilon=args.epsilon, wall_ms=wall_ms if args.timings else None,
    )


def _parse_solution_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text == "-":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"bad solution list {text!r}; expected e.g. '1,3,5'") from None


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Score the typed solution through the library's checked evaluators.

    det and maxmin score it over one scenario set: the instance's own, or
    the lower bounds for ranges (the worst case of every solution).
    """
    instance = parse_instance(args.instance)
    members = _parse_solution_arg(args.solution)
    fam, u = instance.family, instance.uncertainty
    discrete = isinstance(u, DiscreteScenarioSet)
    if args.problem == "regret":
        evaluator = robust.max_regret_discrete if discrete else robust.max_regret_interval
        report = evaluator(fam, u, members)
        value, witness = report.regret_value, report.witness_scenario
    else:
        if args.problem == "det":
            _deterministic_vector(instance)  # refuses an uncertain instance
        scen = u if discrete else DiscreteScenarioSet((u.lower,))
        value, witness = robust.max_min_value(fam, scen, members), None
    return _write_result(args, instance, "evaluate", value, members, witness)


def _parse_edges_arg(text: str) -> list[tuple[int, int]]:
    edges = []
    text = text.strip()
    if not text:
        return edges
    for part in text.split(","):
        try:
            u, v = part.split("-")
            edges.append((int(u), int(v)))
        except ValueError:
            raise ValidationError(
                f"bad edge {part!r}; expected 'u-v' pairs like '1-2,2-3'"
            ) from None
    return edges


def _gen_vertex_cover(args: argparse.Namespace) -> Instance:
    graph = gen.UndirectedGraph.from_edges(args.n_vertices, _parse_edges_arg(args.edges))
    return gen.gen_vertex_cover(graph, args.cover_size)


def _gen_partition(args: argparse.Namespace) -> Instance:
    try:
        values = tuple(int(v) for v in args.values.split(","))
    except ValueError:
        raise ValidationError(f"bad values list {args.values!r}") from None
    return gen.gen_partition(gen.PartitionInput(values))


# --kind -> (the flags that kind needs, its builder called with the parsed
# arguments), in the order --kind lists its choices
GENERATORS = {
    "vertex-cover": (("--n-vertices", "--edges", "--cover-size"), _gen_vertex_cover),
    "partition": (("--values",), _gen_partition),
    "tight-k": (("--k",), lambda args: gen.gen_tight_k(args.k)),
    "tight-midpoint": ((), lambda args: gen.gen_tight_midpoint()),
    "random": (("--n", "--model"), lambda args: gen.gen_random(
        n=args.n,
        model=args.model,
        w_max=args.w_max,
        density=args.density,
        seed=args.seed,
        k=args.k,
    )),
}


def cmd_generate(args: argparse.Namespace) -> int:
    flags, build = GENERATORS[args.kind]
    if any(getattr(args, flag[2:].replace("-", "_")) is None for flag in flags):
        *first, last = flags
        listed = f"{', '.join(first)} and {last}" if first else last
        raise ValidationError(f"{args.kind} needs {listed}")
    instance = build(args)
    with _writing(args.out):
        write_instance(instance, args.out)
    sys.stdout.write(f"{args.out}\n")
    return EXIT_OK


@contextmanager
def _writing(path: str):
    """Map an OSError from writing `path` to a one-line validation error."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _value_or_none(instance: Instance, problem: str, algorithm: str, **options) -> int | None:
    """A solver's value for a bench cell, or None where it refuses."""
    try:
        return dispatch_solve(instance, problem, algorithm, **options)[0]
    except (UnsupportedCombinationError, GuardError):
        return None


def _ratio_cell(value: int | None, opt: int | None) -> str:
    if value is None or opt is None:
        return "-"
    if opt == 0:
        return "1.000" if value == 0 else "inf"
    return f"{value / opt:.3f}"


def cmd_bench(args: argparse.Namespace) -> int:
    _check_epsilon(args.epsilon)
    directory = Path(args.instances)
    if not directory.is_dir():
        raise ValidationError(f"{directory} is not a directory")
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {a!r}")
    paths = sorted(directory.glob("*.json"))
    entries = []
    for path in paths:
        instance = parse_instance(path)
        entries.append((_instance_id(path, instance), instance))
    entries.sort(key=lambda pair: pair[0])
    header = ["instance", "problem", "algorithm", "value", "opt", "ratio", "wall_ms"]
    rows = []
    for instance_id, instance in entries:
        start = time.perf_counter()
        opt = _value_or_none(instance, args.problem, "exact", guard=args.guard_n)
        opt_ms = (time.perf_counter() - start) * 1000.0
        for algorithm in algorithms:
            if algorithm == "exact":
                # the opt column's solve: no exact solver reads the other options
                value, wall_ms = opt, opt_ms
            else:
                start = time.perf_counter()
                value = _value_or_none(
                    instance,
                    args.problem,
                    algorithm,
                    epsilon=args.epsilon,
                    adversarial_ties=args.adversarial_ties,
                    guard=args.guard_n,
                )
                wall_ms = (time.perf_counter() - start) * 1000.0
            rows.append(
                [
                    instance_id,
                    args.problem,
                    algorithm,
                    "-" if value is None else _fmt_value(value),
                    "-" if opt is None else _fmt_value(opt),
                    _ratio_cell(value, opt),
                    f"{wall_ms:.3f}" if args.timings else "-",
                ]
            )
    table = [header] + rows
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(_layout(table, "delimited"), encoding="utf-8")
    sys.stdout.write(_layout(table, args.format))
    return EXIT_OK


def _draw(
    rng: random.Random,
    rounds: int,
    n_max: int,
    w_max: int,
    densities: tuple[float, ...],
    k: int | range | None = None,
) -> list[Instance]:
    """Seeded random instances for selfcheck.

    k is a fixed scenario count, a range to draw it from, or None for weight
    ranges.  Each instance draws from rng its size, then its scenario count
    when k is a range, its density and its generator seed.
    """
    instances = []
    for _ in range(rounds):
        n = rng.randint(1, n_max)
        count = rng.randint(k[0], k[-1]) if isinstance(k, range) else k
        instances.append(gen.gen_random(
            n=n, model="interval" if k is None else "discrete", w_max=w_max,
            density=rng.choice(densities), seed=rng.randrange(1 << 30), k=count,
        ))
    return instances


def _value(instance: Instance, problem: str, algorithm: str) -> int:
    """The value at the default guard: selfcheck never reads RWIS_GUARD_N."""
    return dispatch_solve(instance, problem, algorithm, guard=core.DEFAULT_ENUMERATION_GUARD)[0]


def _regret_formula_holds(instance: Instance) -> bool:
    """The one-scenario interval regret against every extreme scenario."""
    fam, u = instance.family, instance.uncertainty
    extremes = list(extreme_scenarios(u))
    optima = [robust.opt_weight(fam, s) for s in extremes]
    return all(
        robust.max_regret_interval(fam, u, members).regret_value
        == max(c - robust.weight_under(members, s) for c, s in zip(optima, extremes))
        for members in core.enumerate_independent_sets(fam, core.DEFAULT_ENUMERATION_GUARD)
    )


def cmd_selfcheck(args: argparse.Namespace) -> int:
    rng = random.Random(20240 if args.seed is None else args.seed)
    single = _draw(rng, 40, 10, 10, (0.0, 0.3, 0.6, 0.9), k=1)
    several = _draw(rng, 25, 9, 6, (0.2, 0.5, 0.8), k=range(1, 6))
    ranges = _draw(rng, 15, 8, 6, (0.2, 0.5, 0.8))
    approximated = _draw(rng, 25, 10, 8, (0.2, 0.5, 0.8), k=range(1, 4))
    tight = ((gen.gen_tight_k(2), 2), (gen.gen_tight_k(3), 3), (gen.gen_tight_midpoint(), 2))
    checks = {
        "deterministic core vs enumeration": all(
            _value(i, "det", "exact") == _value(i, "maxmin", "bruteforce") for i in single
        ),
        "frontier DP vs enumeration": all(
            _value(i, problem, "exact") == _value(i, problem, "bruteforce")
            for i in several
            for problem in ("maxmin", "regret")
        ),
        "interval regret vs extreme scenarios": all(map(_regret_formula_holds, ranges)),
        "approximation guarantees and tight ratios": all(
            approx.adversarial_ratio(i.family, i.uncertainty, guard=core.DEFAULT_ENUMERATION_GUARD)
            == ratio for i, ratio in tight
        )
        and all(
            _value(i, "regret", "kapprox") <= i.uncertainty.k * _value(i, "regret", "exact")
            for i in approximated
        ),
    }
    for name, passed in checks.items():
        sys.stdout.write(f"selfcheck: {name}: {'ok' if passed else 'FAILED'}\n")
    return EXIT_OK if all(checks.values()) else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _epsilon_arg(text: str) -> Fraction | float:
    """The typed epsilon as an exact fraction: '0.1' is 1/10, not the double
    nearest to it.  Text Fraction rejects ('nan', 'inf') is parsed as a float,
    and text neither accepts is an argparse usage error.
    """
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


class Command(NamedTuple):
    """One `rwis` command: its help line, its arguments and its handler."""

    help: str
    arguments: tuple[tuple[tuple[str, ...], dict], ...]
    handler: Callable[[argparse.Namespace], int]


def _arg(*names: str, **options) -> tuple[tuple[str, ...], dict]:
    """The arguments of one add_argument call."""
    return names, options


# each listed only under the commands that read it
_FORMAT = _arg(
    "--format", choices=("table", "delimited"), default="table",
    help="output layout (default: table)",
)
_GUARD_N = _arg(
    "--guard-n", type=int, default=None,
    help="enumeration guard override (also via RWIS_GUARD_N)",
)
_TIMINGS = _arg(
    "--timings", action="store_true",
    help="include wall-clock columns (breaks byte-for-byte reproducibility)",
)

# name -> Command, in the order `rwis --help` lists them
COMMANDS = {
    "solve": Command("solve one instance file", (
        _arg("instance", help="path to an instance file"),
        _arg("--problem", choices=PROBLEMS, required=True),
        _arg("--algorithm", choices=ALGORITHMS, required=True),
        _arg("--epsilon", type=_epsilon_arg, default=None,
             help="accuracy parameter for fptas"),
        _arg("--adversarial-ties", action="store_true",
             help="explore surrogate ties and report the worst one"),
        _FORMAT, _GUARD_N, _TIMINGS,
    ), cmd_solve),
    "evaluate": Command("evaluate a given solution on an instance", (
        _arg("instance"),
        _arg("--problem", choices=PROBLEMS, required=True),
        _arg("--solution", required=True,
             help="comma-separated 1-based vertex indices; '-' for the empty set"),
        _FORMAT,
    ), cmd_evaluate),
    "generate": Command("write an instance file", (
        _arg("--kind", required=True, choices=tuple(GENERATORS)),
        _arg("--out", required=True),
        _arg("--n-vertices", type=int, default=None, help="vertex-cover: graph size"),
        _arg("--edges", default=None, help="vertex-cover: e.g. '1-2,2-3,1-3'"),
        _arg("--cover-size", type=int, default=None, help="vertex-cover: budget"),
        _arg("--values", default=None, help="partition: e.g. '2,2,1,3'"),
        _arg("--k", type=int, default=None, help="tight-k ratio / random scenario count"),
        _arg("--n", type=int, default=None, help="random: vertex count"),
        _arg("--model", choices=("discrete", "interval"), default=None),
        _arg("--w-max", type=int, default=10),
        _arg("--density", type=float, default=0.5),
        _arg("--seed", type=int, default=0),
    ), cmd_generate),
    "bench": Command("run algorithms over a directory of instances", (
        _arg("instances", help="directory of *.json instance files"),
        _arg("--problem", choices=PROBLEMS, required=True),
        _arg("--algorithms", required=True, help="comma-separated algorithm names"),
        _arg("--epsilon", type=_epsilon_arg, default=None),
        _arg("--adversarial-ties", action="store_true"),
        _arg("--out", default=None, help="also write a tab-delimited file"),
        _FORMAT, _GUARD_N, _TIMINGS,
    ), cmd_bench),
    "selfcheck": Command("run the built-in oracle-equivalence suite", (
        _arg("--seed", type=int, default=None),
    ), cmd_selfcheck),
}


def build_parser() -> argparse.ArgumentParser:
    """The full `rwis` tree: every command as a subparser."""
    parser = argparse.ArgumentParser(
        prog="rwis",
        description="Robust maximum-weight independent set solvers on interval graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for names, options in command.arguments:
            subparser.add_argument(*names, **options)
        subparser.set_defaults(func=command.handler, command=name)
    return parser


def _plain_args(command: str, argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace build_parser().parse_args([command, *argv]) gives, built
    from COMMANDS without a parser, if the line is plain; else None.

    A line is plain when `command` is a key of COMMANDS and every token of
    argv is one of three things: an option string of the command, written
    out in full and given at most once; the value after a non-flag option;
    or a positional, with no more positionals than the command defines.  A
    value or positional does not start with '-', converts under its `type`
    and lies in its `choices`.  Every positional and every required option
    is there.  argparse reads such a line the same way:

    - the subparsers action takes `command` and parses argv with the
      command's subparser, whose Namespace it copies onto the top-level
      one, which holds only `command`;
    - an exact option string is matched before prefix matching, and a token
      that does not start with '-' is always consumed as an argument, so an
      option takes the one token after it (a store_true flag none) and the
      other tokens fill the positionals in order;
    - `type` and then `choices` are applied as _get_values applies them;
    - defaults are set in action order, False for a store_true option and
      None for an option without a default, then func and command from
      set_defaults.

    Everything else (-h, '--', '-', abbreviations, '--x=y', repeats,
    negative-looking values and every error) is left to argparse, the only
    source of help, usage and error text.
    """
    entry = COMMANDS.get(command)
    if entry is None:
        return None
    args = argparse.Namespace(command=command)
    options, positionals, required = {}, [], set()
    for names, spec in entry.arguments:
        flag = spec.get("action") == "store_true"
        long = [name for name in names if name.startswith("--")]
        dest = (long or names)[0].lstrip("-").replace("-", "_")
        setattr(args, dest, spec.get("default", False if flag else None))
        if not names[0].startswith("-"):
            positionals.append((dest, spec))
            continue
        options.update(dict.fromkeys(names, (dest, spec)))
        if spec.get("required"):
            required.add(dest)
    seen, filled, tokens = set(), 0, iter(argv)
    for token in tokens:
        if token in options:
            dest, spec = options[token]
            if dest in seen:
                return None
            seen.add(dest)
            if spec.get("action") == "store_true":
                setattr(args, dest, True)
                continue
            token = next(tokens, "-")  # a missing value is argparse's error
        elif filled < len(positionals):
            dest, spec = positionals[filled]
            filled += 1
        else:
            return None
        if token.startswith("-"):
            return None
        convert, choices = spec.get("type"), spec.get("choices")
        try:
            value = token if convert is None else convert(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        setattr(args, dest, value)
    if filled < len(positionals) or not required <= seen:
        return None
    args.func = entry.handler
    return args


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The Namespace build_parser().parse_args(argv) gives, or its exit.

    A plain command line (see _plain_args) builds no parser; every other
    line is parsed by a fresh full tree.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv[0], argv[1:]) if argv else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except RwisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
