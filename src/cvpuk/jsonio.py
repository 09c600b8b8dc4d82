"""Artifact files, the checks of their readers, and the one table of parameter intervals.

:func:`dump` writes JSON in the standard encoder's two-space layout and
:func:`write_csv` writes CSV rows with ``%s``, which gives ``repr``'s bytes
for a Python ``int``, ``float`` or ``bool``, so a float is written by
its shortest round-trip repr (``0.1``, ``2500.0``): it reloads as the
exact IEEE-754 double, and an integral float as a float, not an int.
Numpy scalars are written to JSON like their Python counterparts.  The same
document always gives the same bytes.  Non-finite numbers are refused
both ways: ``dumps`` will not write them and ``load`` will not read them.
The readers check each field with :func:`require_int`, :func:`require_real`
or, for an array such as a key's coefficients, :func:`require_array`.
A file is written to ``<name>.tmp`` and renamed over its target, so a
reader never sees a torn file.  :func:`write_artifacts` is the one
writer of an output directory: it alone creates one, and it writes each
file by :func:`dump` or :func:`write_csv`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import operator
import os
from pathlib import Path

import numpy as np

__all__ = ["REAL_INTERVALS", "dumps", "dump", "write_csv", "write_artifacts", "load",
           "require_object", "require_int", "require_real", "require_array",
           "renamed_refusals"]

# allowed interval of every real-valued parameter; a tuple field's
# interval applies to each of its entries.  The code that consumes a value
# checks it here, so configs, flags, files and Python calls share one rule.
# The floor of histogram_bin caps a histogram at 10,000 bins.
REAL_INTERVALS = {
    "l_over_L": "[0, 1)",
    "mu_p": "(0, inf)",
    "tau": "(0, 1]",
    "eta": "(0, 1]",
    "delta_over_sigma": "(0, inf)",
    "epsilon": "(0, 1)",
    "zeta": "(0, 1)",
    "histogram_bin": "[0.0001, 1]",
    "d_values": "[0, 1]",
    "photons_per_mode_values": "(0, inf)",
}


_quote = json.encoder.encode_basestring_ascii


def _scalar(value):
    """A numpy scalar as the Python scalar the JSON encoder writes."""
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(document) -> str:
    """Render a document as JSON indented by two spaces, floats by ``repr``.

    The text is that of ``json.dumps(document, indent=2, allow_nan=False,
    default=_scalar)`` plus a newline, for documents whose object keys are
    strings; any other key raises TypeError.  ``json`` uses its C encoder
    only without ``indent``, so this writer renders the layout directly.
    """
    return _render(document, "\n") + "\n"


def _render(value, newline: str) -> str:
    """``value`` as JSON whose nested lines start with ``newline`` plus two spaces."""
    # the type tests run in the order of json's encoder: a bool is an int,
    # and a numpy float64 is a float
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_render(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _quote raises TypeError on a key that is not a string
        items = [_quote(key) + ": " + _render(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return _render(_scalar(value), newline)


def _write(path, chunks) -> None:
    """Write text chunks to ``<path>.tmp``, then rename it over ``path``; on
    any exception the temporary file is removed and ``path`` is left as it was."""
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    try:
        with open(temporary, "w", newline="", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def dump(document, path) -> None:
    _write(path, [dumps(document)])


def write_csv(path, header, rows) -> None:
    """Comma-separated header and rows, each value by ``%s``.

    Rows are tuples of Python ints, floats and bools, which ``%s`` writes
    as ``repr`` does, and of ``str``, written verbatim: a writer may pass a
    value that many rows share as the text it rendered once.  No CSV
    quoting touches a number or such text, so one format string gives the
    bytes ``csv.writer`` would.  Lines are joined 4,096 at a time, so each
    write call takes a block, and only a block's text is held in memory.
    """
    row_format = ",".join(["%s"] * len(header)) + "\n"
    lines = map(row_format.__mod__, rows)
    blocks = iter(lambda: "".join(itertools.islice(lines, 4096)), "")  # a line is never empty
    _write(path, itertools.chain([",".join(header) + "\n"], blocks))


def write_artifacts(out_dir, artifacts: dict) -> dict[str, Path]:
    """Create ``out_dir`` and its missing parents, then write ``artifacts``
    in the order given and return ``{key: path}`` in that order.

    ``artifacts`` maps a key to ``(file name, content)``: the content of a
    ``.csv`` name is ``(header, rows)`` for :func:`write_csv`, and that of
    any other name, such as ``summary.json``, a document for :func:`dump`.
    A caller checks its inputs and runs its work first, so a refused run
    creates no directory.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, (name, content) in artifacts.items():
        paths[key] = out_dir / name
        if name.endswith(".csv"):
            write_csv(paths[key], *content)
        else:
            dump(content, paths[key])
    return paths


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in JSON")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than Python converts from a string
        raise ValueError(f"{len(text.lstrip('-'))}-digit integer in JSON is too long "
                         f"to read") from None


def load(path):
    """Parse a JSON file, rejecting NaN, Infinity, out-of-range floats, an
    integer too long to convert and nesting deeper than the parser's
    recursion limit.  Every refusal, also of a malformed or non-UTF-8
    file, is a ValueError whose message starts with the path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_constant=_finite_float, parse_float=_finite_float,
                             parse_int=_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def require_object(name: str, document, known) -> dict:
    """``document`` if it is a JSON object with no field outside ``known``;
    a misspelt optional field would otherwise be ignored for its default."""
    if not isinstance(document, dict):
        raise TypeError(f"{name} must be a JSON object, got {document!r}")
    unknown = set(document) - set(known)
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    return document


@contextlib.contextmanager
def renamed_refusals(**typed: str):
    """Refusals raised in the block name the field the user typed, not the
    consumer's parameter: ``typed`` maps a parameter, such as a ProbeSet's
    ``size``, to that field, such as ``n_probe_states``.  Each check and its
    bound stay with the consumer; only the name its message starts with
    changes, and the exception is re-raised with its type and traceback."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        name, space, rest = str(exc).partition(" ")
        if name in typed and len(exc.args) == 1:
            exc.args = (typed[name] + space + rest,)
        raise


def require_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``; bools and non-integer numbers raise TypeError,
    and an integer below ``minimum``, when one is given, ValueError.

    ``int()`` would truncate 2.7 to 2 and accept ``True`` as 1, so an
    ill-typed document could load as a different, valid one.
    """
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is not None and value < minimum:
                raise ValueError(f"{name} must be at least {minimum}, got {value}")
            return value
    raise TypeError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value, interval: str) -> float:
    """``value`` as a float, if it is a finite real number inside ``interval``.

    ``interval`` is written like ``"(0, 1]"``; either end may be ``inf``.
    Bools and strings raise TypeError, where ``float()`` would read
    ``True`` as 1.0 and ``"2500"`` as 2500.0; a non-finite or
    out-of-range number raises ValueError.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the double range
        value = math.inf
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    if not (math.isfinite(value) and above and below):
        raise ValueError(f"{name} must be finite and lie in {interval}, got {value!r}")
    return value


def require_array(name: str, values, shape: tuple, dtype=float) -> np.ndarray:
    """``values`` as a new ``dtype`` array of ``shape``, if every entry is a finite number.

    ``dtype`` is ``float`` or ``complex``; ``shape`` gives each axis a length,
    or ``None`` (``n``) for any.  An array of numeric dtype is checked by
    vectorised tests.  Anything else, such as a JSON document's lists, is
    first checked entry by entry, each length, and each entry as by
    :func:`require_real` unless it is a complex number for ``complex``.
    Each error names the first bad entry, like ``coefficients[4][1]``.
    """
    # a numeric array's kinds, the entry types that need no require_real, and their name
    kinds, exact, noun = ("iufc", (float, complex, np.complexfloating), "a complex number") \
        if dtype is complex else ("iuf", float, "a real number")
    if not (isinstance(values, np.ndarray) and values.dtype.kind in kinds
            or _plain(values, shape)):
        _require_entries(name, values, shape, exact, noun)
    array = np.array(values, dtype=dtype)
    if array.ndim != len(shape) or any(n not in (None, size) for n, size in zip(shape, array.shape)):
        raise ValueError(f"{name} must have shape {str(shape).replace('None', 'n')}, "
                         f"got shape {array.shape}")
    bad = np.argwhere(~np.isfinite(array))
    if bad.size:
        index = tuple(bad[0].tolist())
        raise ValueError(f"{name}{''.join(f'[{i}]' for i in index)} must be finite, "
                         f"got {array[index].item()!r}")
    return array


def _plain(values, shape: tuple) -> bool:
    """Whether ``values`` is a list of ``shape``, of one or two axes, with a
    ``float`` at every leaf, as a JSON reader gives it.  The test maps over
    the entries in C, so the walk of :func:`_require_entries`, which names
    the first bad entry, runs only on a document that fails it."""
    if type(values) is not list or len(shape) > 2 or shape[0] not in (None, len(values)):
        return False
    if len(shape) == 2:
        if set(map(type, values)) - {list} or shape[1] is not None \
                and set(map(len, values)) - {shape[1]}:
            return False
        values = itertools.chain.from_iterable(values)
    return not set(map(type, values)) - {float}


def _require_entries(label: str, values, shape: tuple, exact, noun: str) -> None:
    """Raise on the first entry that breaks ``shape`` or is neither ``exact`` nor ``noun``."""
    if not (isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim) \
            or shape[0] not in (None, len(values)):
        raise ValueError(f"{label} must have shape {str(shape).replace('None', 'n')}, "
                         f"got {values!r}")
    for index, entry in enumerate(values):
        if len(shape) > 1:
            _require_entries(f"{label}[{index}]", entry, shape[1:], exact, noun)
        elif not isinstance(entry, exact):  # a JSON float needs no further test
            try:
                require_real(f"{label}[{index}]", entry, "(-inf, inf)")
            except TypeError:
                raise TypeError(f"{label}[{index}] must be {noun}, got {entry!r}") from None
