"""Versioned JSON instance files.

One file holds one instance.  The schema is documented in docs/format.md and
frozen by golden-file tests; the writer is canonical (sorted keys, two-space
indent, trailing newline) so identical instances serialize to identical bytes.
"""

from __future__ import annotations

import json
import sys
from operator import itemgetter
from pathlib import Path

from .core import IntervalFamily, _all_ints, _is_int
from .errors import ParseError, ValidationError
from .scenarios import DiscreteScenarioSet, Instance, IntervalUncertainty

FORMAT_VERSION = 1

_TOP_LEVEL_FIELDS = {
    "format_version",
    "scaling_factor",
    "intervals",
    "uncertainty",
    "metadata",
}


def _require_int(value, what: str) -> int:
    if not _is_int(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _require_int_list(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {type(value).__name__}")
    return [_require_int(x, f"{what} entry") for x in value]


def _build_model(model, args: tuple, columns: list[tuple[str, object]]):
    """model(*args), where `columns` names each weight column in args.

    On a valid document the constructor's scan is the only type scan of each
    column.  When it refuses, the reader's checks run over every column in
    order first, so a non-list column or a non-int entry is reported in the
    reader's words ahead of any sign, length or lower > upper error; the
    constructor's own error stands only when the types are sound.  A column
    that is not a list never reaches the constructor, which would iterate it.
    """
    if all(isinstance(column, list) for _, column in columns):
        try:
            return model(*args)
        except ValidationError:
            pass
    for what, column in columns:
        _require_int_list(column, what)
    return model(*args)


def _require_pairs(raw: list) -> tuple[list[int], list[int]]:
    """The lo and hi columns of a list of [lo, hi] pairs."""
    if set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}:
        los = list(map(itemgetter(0), raw))
        his = list(map(itemgetter(1), raw))
        if _all_ints(los) and _all_ints(his):
            return los, his
    los, his = [], []
    for idx, item in enumerate(raw, start=1):
        entry = _require_int_list(item, f"interval {idx}")
        if len(entry) != 2:
            raise ValidationError(f"interval {idx} must be a [lo, hi] pair, got {item!r}")
        los.append(entry[0])
        his.append(entry[1])
    return los, his


def instance_to_dict(instance: Instance) -> dict:
    """Plain-data form of an instance, ready for json.dump.

    dumps_instance writes what json.dumps(..., indent=2, sort_keys=True)
    writes for this document; the tests compare the two.
    """
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "scaling_factor": instance.scaling_factor,
        "intervals": list(map(list, zip(instance.family._los, instance.family._his))),
    }
    if isinstance(instance.uncertainty, DiscreteScenarioSet):
        doc["uncertainty"] = {
            "type": "discrete",
            "scenarios": [list(s) for s in instance.uncertainty.scenarios],
        }
    else:
        doc["uncertainty"] = {
            "type": "interval",
            "lower": list(instance.uncertainty.lower),
            "upper": list(instance.uncertainty.upper),
        }
    if instance.metadata:
        doc["metadata"] = instance.metadata
    return doc


def instance_from_dict(doc: dict) -> Instance:
    """Validate a plain-data document and build the instance it describes."""
    if not isinstance(doc, dict):
        raise ValidationError(f"instance document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_LEVEL_FIELDS
    if unknown:
        raise ValidationError(f"unknown top-level fields: {sorted(unknown)}")
    for required in ("format_version", "scaling_factor", "intervals", "uncertainty"):
        if required not in doc:
            raise ValidationError(f"missing required field {required!r}")
    version = _require_int(doc["format_version"], "format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {version}, expected {FORMAT_VERSION}")
    scaling = _require_int(doc["scaling_factor"], "scaling_factor")
    if scaling < 1:
        raise ValidationError(f"scaling_factor must be a positive integer, got {scaling}")
    raw_intervals = doc["intervals"]
    if not isinstance(raw_intervals, list):
        raise ValidationError("intervals must be a list of [lo, hi] pairs")
    family = IntervalFamily._from_columns(*_require_pairs(raw_intervals))
    unc = doc["uncertainty"]
    if not isinstance(unc, dict) or "type" not in unc:
        raise ValidationError("uncertainty must be an object with a 'type' field")
    kind = unc["type"]
    if kind == "discrete":
        extra = set(unc) - {"type", "scenarios"}
        if extra:
            raise ValidationError(f"unknown uncertainty fields: {sorted(extra)}")
        rows = unc.get("scenarios")
        if not isinstance(rows, list) or not rows:
            raise ValidationError("discrete uncertainty needs a non-empty scenarios list")
        uncertainty: DiscreteScenarioSet | IntervalUncertainty = _build_model(
            DiscreteScenarioSet, (rows,), [("scenario", r) for r in rows]
        )
    elif kind == "interval":
        extra = set(unc) - {"type", "lower", "upper"}
        if extra:
            raise ValidationError(f"unknown uncertainty fields: {sorted(extra)}")
        if "lower" not in unc or "upper" not in unc:
            raise ValidationError("interval uncertainty needs 'lower' and 'upper' lists")
        lower, upper = unc["lower"], unc["upper"]
        uncertainty = _build_model(
            IntervalUncertainty, (lower, upper), [("lower", lower), ("upper", upper)]
        )
    else:
        raise ValidationError(f"unknown uncertainty type {kind!r}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("metadata must be an object")
    return Instance(
        family=family,
        uncertainty=uncertainty,
        scaling_factor=scaling,
        metadata=metadata,
    )


def parse_instance_text(text: str, source: str = "<string>") -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{source}: JSON nested too deeply") from None
    except ValueError:  # json raises a bare ValueError only from int() on a literal
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{source}: integer literal longer than {limit} digits") from None
    return instance_from_dict(doc)


def parse_instance(path: str | Path) -> Instance:
    """Read and validate an instance file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p}: not valid UTF-8 at byte {exc.start}") from None
    return parse_instance_text(text, source=str(p))


def _list(items: list[str], depth: int) -> str:
    """Laid-out values, one per line, as json.dumps(indent=2) lays out a list
    at nesting `depth`."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _ints(xs, depth: int) -> str:
    # int.__repr__ is json's own int formatter: IntEnum entries print as values
    return _list(list(map(int.__repr__, xs)), depth)


# One [lo, hi] pair at depth 2.  %d prints an int subclass by its value and
# enforces the int-to-str digit limit, exactly as int.__repr__ does.
_PAIR = "[\n      %d,\n      %d\n    ]"


def dumps_instance(instance: Instance) -> str:
    """Canonical byte-stable serialization.

    The same bytes as json.dumps(instance_to_dict(instance), indent=2,
    sort_keys=True) + "\n", built with C-level joins: json's indenting
    encoder is pure Python and takes one generator step per integer.  The
    top-level keys are fixed and written in sorted order.  Free-form metadata
    goes through json itself, one indent level deeper; JSON text never holds
    a raw newline inside a string, so shifting its newlines is exact.
    """
    fam = instance.family
    out = [
        '{\n  "format_version": ', int.__repr__(FORMAT_VERSION),
        ',\n  "intervals": ', _list(list(map(_PAIR.__mod__, zip(fam._los, fam._his))), 1),
    ]
    if instance.metadata:
        metadata = json.dumps(instance.metadata, indent=2, sort_keys=True)
        out += [',\n  "metadata": ', metadata.replace("\n", "\n  ")]
    out += [',\n  "scaling_factor": ', int.__repr__(instance.scaling_factor),
            ',\n  "uncertainty": {\n    ']
    unc = instance.uncertainty
    if isinstance(unc, DiscreteScenarioSet):
        out += ['"scenarios": ', _list([_ints(row, 3) for row in unc.scenarios], 2),
                ',\n    "type": "discrete"']
    else:
        out += ['"lower": ', _ints(unc.lower, 2),
                ',\n    "type": "interval",\n    "upper": ', _ints(unc.upper, 2)]
    out.append("\n  }\n}\n")
    return "".join(out)


def write_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")
