"""JSON serialization with full-precision floats.

Serialized artifacts are reloaded and replayed by acceptance checks, so
floats are rendered with 17 significant digits, enough to reconstruct
the exact IEEE-754 double on load, and an integral float keeps a
decimal point (``2500.0``), so it reloads as a float rather than an
int.  Numpy integer, floating and bool scalars are written like their
Python counterparts.  Output is deterministic: the same document always
produces the same bytes.  Non-finite numbers are refused both ways:
``dumps`` will not write them and ``load`` will not read them.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
from pathlib import Path

import numpy as np

__all__ = ["dumps", "dump", "load", "require_int", "require_real"]


def _render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(key))}: {_render(val, indent + 1)}"
            for key, val in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{_render(val, indent + 1)}" for val in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("cannot serialize non-finite float")
        text = format(value, ".17g")
        return text if "." in text or "e" in text else text + ".0"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(document) -> str:
    """Render a document as pretty-printed JSON with full-precision floats."""
    return _render(document, 0) + "\n"


def dump(document, path) -> None:
    Path(path).write_text(dumps(document), encoding="utf-8")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in JSON")
    return value


def load(path):
    """Parse a JSON file, rejecting NaN, Infinity and out-of-range floats."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle, parse_constant=_finite_float, parse_float=_finite_float)


def require_int(name: str, value) -> int:
    """``value`` as an ``int``; bools and non-integer numbers raise TypeError.

    ``int()`` would truncate 2.7 to 2 and accept ``True`` as 1, so an
    ill-typed document could load as a different, valid one.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value, interval: str) -> float:
    """``value`` as a float, if it is a finite real number inside ``interval``.

    ``interval`` is written like ``"(0, 1]"``; either end may be ``inf``.
    Bools and strings raise TypeError, where ``float()`` would read
    ``True`` as 1.0 and ``"2500"`` as 2500.0; a non-finite or
    out-of-range number raises ValueError.
    """
    # float and int, the JSON reader's numbers, skip the slower ABC check
    if type(value) not in (float, int) and (
        isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
    ):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the double range
        value = math.inf
    low, high, closed_low, closed_high = _bounds(interval)
    above = low <= value if closed_low else low < value
    below = value <= high if closed_high else value < high
    if not (math.isfinite(value) and above and below):
        raise ValueError(f"{name} must be finite and lie in {interval}, got {value!r}")
    return value


@functools.lru_cache(maxsize=None)
def _bounds(interval: str) -> tuple[float, float, bool, bool]:
    """Ends of an interval written like ``"(0, 1]"`` and whether each is closed.

    Cached: the package uses a handful of interval strings, and a
    database load checks hundreds of values against the same few.
    """
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    return low, high, interval[0] == "[", interval[-1] == "]"
