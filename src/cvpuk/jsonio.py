"""Artifact files, the checks of their readers, and the one table of parameter intervals.

:func:`dump` writes JSON in the standard encoder's two-space layout, each
float by its shortest round-trip ``repr`` (``0.1``, ``2500.0``): it
reloads as the exact IEEE-754 double, and an integral float as a float,
not an int.  Numpy scalars are written to JSON like their Python
counterparts.  :func:`write_csv` writes a CSV of equal-length columns:
float64 columns with the same ``repr`` bytes and integer columns as
``str`` writes them.  It renders 4,096 rows at a time as arrays of ASCII
bytes; a float's digits come from an exact integer kernel that proves
each string equal to ``repr``'s, and the few it cannot prove, such as
numbers outside ``[1e-30, 1e16)`` or powers of two, are written by
``float.__repr__`` itself.  The same document always gives the same
bytes.  Non-finite numbers are refused both ways: ``dumps`` and
``write_csv`` will not write them and ``load`` will not read them;
``load`` also refuses a name repeated in any object.  The readers check
each field with :func:`require_int`, :func:`require_real` or, for an
array such as a key's coefficients, :func:`require_array`.
A file is written to ``<name>.tmp`` and renamed over its target, so a
reader never sees a torn file.  :func:`write_artifacts` is the one
writer of an output directory: it alone creates one, and it writes each
file by :func:`dump` or :func:`write_csv`.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import os
from pathlib import Path

import numpy as np

__all__ = ["REAL_INTERVALS", "dumps", "dump", "write_csv", "write_artifacts", "load",
           "require_object", "require_int", "require_real", "require_array"]

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


# A CSV is written 4,096 rows at a time: a block's columns become one matrix
# of ASCII bytes padded with NUL, which the writer drops.
_BLOCK_ROWS = 4096
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(values):
    """Veltkamp's split of doubles into halves of at most 26 bits, for Dekker's product."""
    scaled = _SPLITTER * values
    high = scaled - (scaled - values)
    return high, values - high


def _exact_product(x, x_halves, y, y_halves):
    """``(p, e)``, ``p = fl(x y)`` and ``p + e = x y`` exactly (Dekker), without
    overflow or underflow."""
    product = x * y
    (x_high, x_low), (y_high, y_low) = x_halves, y_halves
    return product, ((x_high * y_high - product) + x_high * y_low + x_low * y_high) \
        + x_low * y_low


# 10**s is _POW10_HIGH[s] + _POW10_LOW[s] exactly for s = 0 .. 46, with _POW10_LOW 0 to s = 22
_POW10_HIGH = np.array([float(10 ** s) for s in range(47)])
_POW10_LOW = np.array([float(10 ** s - int(float(10 ** s))) for s in range(47)])
_POW10_HIGH_HALVES, _POW10_LOW_HALVES = _split(_POW10_HIGH), _split(_POW10_LOW)
# floor(log10(2**(p - 1))), clipped to [-31, 16], for frexp's exponent p + 1100
_DECADE_BELOW = np.array([min(max(math.floor((p - 1) * math.log10(2)), -31), 16)
                          for p in range(-1100, 1101)])


def _double_at_least_ten_to(j: int) -> float:
    """The least double at least ``10**j``."""
    if j >= 0:
        return float(10 ** j)
    nearest = 1 / 10 ** -j  # correctly rounded
    numerator, denominator = nearest.as_integer_ratio()
    return nearest if numerator * 10 ** -j >= denominator else math.nextafter(nearest, math.inf)


# a double x is at least 10**j exactly when x >= _DECADES[j + 30], j = -30 .. 17
_DECADES = np.array([_double_at_least_ten_to(j) for j in range(-30, 18)])
# a computed distance is within 9 * 2**-53 of the true one and a computed
# half ulp within 12 * 2**-53, so a distance within _SLACK of half an ulp,
# or of the other multiple's, is not decided
_SLACK = 2.0 ** -47


def _quad_tables():
    """0 .. 9999 as four ASCII digits each followed by a NUL slot, as
    ``uint64``, and 0 .. 9 as the last of those digits alone; and 0 .. 9999
    packed, as ``uint32``, then packed with NUL for leading zeros (none left
    for 0)."""
    scaled = np.arange(10000, dtype=np.uint16)[:, np.newaxis] \
        // np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (scaled % 10 + 48).astype(np.uint8)
    spaced = np.zeros((10000, 8), dtype=np.uint8)
    spaced[:, ::2] = digits
    first = spaced[:10].copy()
    first[:, :6] = 0
    packed = np.concatenate([digits, np.where(scaled > 0, digits, 0).astype(np.uint8)])
    return (spaced.view(np.uint64).ravel(), first.view(np.uint64).ravel(),
            packed.view(np.uint32).ravel())


def _float_layouts():
    """The 48 bytes of a float are its sign, the ``0.000`` lead of a number
    in ``[1e-4, 1)``, 17 digits each followed by a slot for the point, and
    an exponent such as ``e-05``.  Returns, as rows of six ``uint64``: per
    exponent ``E = -30 .. 16``, those bytes but the digits (the lead ``0.``
    and ``-E - 1`` zeros, the point after digit ``E``, or a point after the
    first digit and ``e-`` and two digits); and per last digit shown, ``0
    .. 16``, the mask of the bytes kept: the digits up to it and any point
    before it."""
    layouts = np.zeros((47, 48), dtype=np.uint8)
    for exponent in range(-30, 17):
        row = layouts[exponent + 30]
        if exponent < -4:
            row[7] = ord(".")
            row[40:44] = list(b"e-%02d" % -exponent)
        elif exponent < 0:
            row[1:2 - exponent] = list(b"0." + b"0" * (-exponent - 1))
        else:
            row[7 + 2 * exponent] = ord(".")
    kept = np.zeros((17, 48), dtype=np.uint8)
    kept[:, :6] = kept[:, 40:44] = 255
    for last in range(17):
        kept[last, 6:7 + 2 * last] = 255
    return layouts.view(np.uint64), kept.view(np.uint64)




_QUADS, _FIRST_DIGITS, _QUADS_PACKED = _quad_tables()
_LAYOUTS, _KEPT = _float_layouts()
# a minus sign in byte 0 of a float's first eight bytes, as one uint64
_MINUS = np.frombuffer(b"-" + bytes(7), dtype=np.uint64)[0]


def _shortest(magnitudes: np.ndarray):
    """The digits of ``repr`` for each finite non-negative double, where they can be proven.

    Returns ``(m, exponent, count, proven)``: ``magnitudes[i]`` prints as
    the ``count[i]`` leading digits of the 17-digit integer ``m[i]`` times
    ``10**(exponent[i] - 16)``, unless ``proven[i]`` is false; zero is ``m =
    0``, exponent 0, one digit.

    ``repr`` writes the fewest digits that read back as ``x``, and of
    those the nearest.  With ``E = floor(log10 x)`` from -30 to 15,
    ``y = x * 10**(16 - E)`` lies in ``[1e16, 1e17)``: it is formed as the
    exact sum of Dekker's products of ``x`` and two doubles whose sum is
    ``10**(16 - E)`` (one for ``E >= -6``).  A decimal reads back as ``x``
    if it lies less than half an ulp from it, ``h = ulp(x) / 2 * 10**(16 -
    E)`` at this scale, which lies in ``(0.55, 11.2)``, so the nearest
    integer ``n17`` always does.  The nearest ``k``-digit decimal is the
    nearest multiple of ``D = 10**(17 - k)``, at ``r + f`` below ``y`` or
    ``D - r - f`` above it, with ``r = n17 mod D`` from exact 64-bit
    integer division and ``f = y - n17`` known to ``2**-53``.  Every
    multiple of ``10 D`` is one of ``D``, so once the nearest multiple
    fails to read back it fails for every smaller ``k``.  ``k`` falls from
    17 to 16 and 15 by a test each; below that the only multiple of 100
    within ``h`` of ``y`` is the one of ``k = 15``, and ``k`` falls by its
    trailing zeros.  Not proven, and so left to ``float.__repr__``: ``x``
    outside ``[1e-30, 1e16)``, a power-of-two significand (whose ulp below
    is half the ulp above), a distance within ``_SLACK`` of ``h`` (an
    interval edge), and a ``y`` within it of one half of the final ``D``
    between two multiples that both read back, where ``repr`` picks one.
    """
    significands, powers = np.frexp(magnitudes)  # in [2**(powers - 1), 2**powers)
    exponent = _DECADE_BELOW.take(powers + 1100)  # E or E - 1
    exponent += magnitudes >= _DECADES.take(exponent + 31)
    covered = (magnitudes >= _DECADES[0]) & (magnitudes < _DECADES[46])
    proven = covered & (significands != 0.5)
    exponent[~covered] = 0
    scale = 16 - exponent
    x = np.where(covered, magnitudes, 1.0)
    halves = _split(x)
    high, low = _exact_product(x, halves, _POW10_HIGH.take(scale),
                               [half.take(scale) for half in _POW10_HIGH_HALVES])
    # y = high + low + rest, high a whole number; where 10**scale needs two
    # doubles, y = high + low + tail + tiny exactly, and low and tail are added
    # exactly (Knuth)
    rest = np.zeros_like(low)
    far = np.flatnonzero(scale > 22)
    if far.size:
        tail, tiny = _exact_product(x[far], [half[far] for half in halves],
                                    _POW10_LOW[scale[far]],
                                    [half[scale[far]] for half in _POW10_LOW_HALVES])
        middle = low[far] + tail
        back = middle - low[far]
        rest[far] = ((low[far] - (middle - back)) + (tail - back)) + tiny
        low[far] = middle
    whole = np.rint(low)
    fraction = (low - whole) + rest
    m = high.astype(np.int64) + whole.astype(np.int64)  # n17
    half_ulp = np.ldexp(_POW10_HIGH.take(scale), powers - 54)
    digits = np.full(len(magnitudes), 17)

    # an element leaves the search once its nearest multiple is outside or undecided;
    # one not proven now leaves at once
    live, n, f = np.arange(len(magnitudes)), m, fraction
    if proven.all():
        inner, outer = half_ulp - _SLACK, half_ulp + _SLACK
    else:
        inner = np.where(proven, half_ulp - _SLACK, -1.0)
        outer = np.where(proven, half_ulp + _SLACK, -1.0)
    for k in (16, 15):
        divisor = 10 ** (17 - k)
        quotient = n // divisor
        remainder = n - quotient * divisor
        below = np.abs(remainder + f)
        above = (divisor - remainder) - f
        distance = np.minimum(below, above)
        inside = distance < inner
        # at one half the two multiples compare equal; a near half can round to
        # equal, which is left undecided too
        tie = np.abs(above - below) <= 2 * _SLACK
        doubt = (distance <= outer) & (~inside | tie)
        if doubt.any():
            proven[live[doubt]] = False
        kept = np.flatnonzero(inside & ~tie)
        live, n, f, inner, outer = live[kept], n[kept], f[kept], inner[kept], outer[kept]
        m[live] = (quotient[kept] + (above[kept] < below[kept])) * divisor
        digits[live] = k
    # for k < 15 the nearest multiple of D reads back exactly when it is the
    # one multiple of 100 within h, so k falls by its trailing zeros
    hundreds = m[live] // 100
    for zeros in (8, 4, 2, 1):
        divisible = hundreds % 10 ** zeros == 0
        hundreds = np.where(divisible, hundreds // 10 ** zeros, hundreds)
        digits[live] -= zeros * divisible
    np.maximum(digits, 1, out=digits)  # 15 zeros: the multiple is 10**17
    proven &= (np.abs(np.abs(fraction) - 0.5) > _SLACK) | (digits < 17)
    carried = m == 10 ** 17  # the nearest decimal is 10**(E + 1)
    m[carried] = 10 ** 16
    exponent += carried
    digits[carried] = 1
    zero = magnitudes == 0.0
    m[zero], exponent[zero], digits[zero] = 0, 0, 1
    return m, exponent, digits, (proven | zero) & (exponent <= 15)


def _float_text(values: np.ndarray) -> np.ndarray:
    """Each double as ``repr`` writes it, in a NUL-padded byte matrix: by
    :func:`_shortest` where it proves the digits, else by ``float.__repr__``."""
    m, exponent, digits, proven = _shortest(np.abs(values))
    chunks = np.zeros((len(values), 6), dtype=np.uint64)
    for column in range(4, 0, -1):
        quotient = m // 10000
        chunks[:, column] = _QUADS.take(m - quotient * 10000)
        m = quotient
    chunks[:, 0] = _FIRST_DIGITS.take(m)
    # the digit after the point of a number of at least 1; below 1, exponent + 1 <= 0 <= digits - 1
    last = np.maximum(digits - 1, exponent + 1)
    chunks |= _LAYOUTS.take(exponent + 30, axis=0)
    chunks &= _KEPT.take(last, axis=0)
    chunks[:, 0] |= np.signbit(values) * _MINUS  # byte 0 is the sign's, still NUL
    text = chunks.view(np.uint8)
    unproven = np.flatnonzero(~proven)
    if unproven.size:
        texts = _padded(list(map(float.__repr__, values[unproven].tolist())))
        text[unproven] = 0
        text[unproven, :texts.shape[1]] = texts
    # the exponent's bytes only where one is written
    return text if ((exponent < -4) & proven).any() else text[:, :40]


def _padded(texts: list) -> np.ndarray:
    """ASCII strings as the rows of a NUL-padded byte matrix."""
    texts = np.array(texts, dtype=bytes)
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


def _int_text(values: np.ndarray) -> np.ndarray:
    """Each integer as ``str`` writes it, in a NUL-padded byte matrix; an
    object column holds Python ints beyond 64 bits."""
    if values.dtype == object:
        return _padded(list(map(int.__repr__, values.tolist())))
    negative = values < 0
    magnitudes = values.astype(np.uint64)
    magnitudes = np.where(negative, -magnitudes, magnitudes)  # wraps to |value|
    zero = magnitudes == 0
    width = -(-len(str(int(magnitudes.max(initial=0)))) // 4)  # four digits a chunk
    chunks = np.empty((len(values), width + 1), dtype=np.uint32)
    for column in range(width, 0, -1):
        quotient = magnitudes // 10000
        quads = magnitudes - quotient * 10000
        quads[quotient == 0] += 10000  # the first chunk has no leading zeros
        chunks[:, column] = _QUADS_PACKED.take(quads)
        magnitudes = quotient
    text = chunks.view(np.uint8)[:, 3:]  # a sign, then the digits
    text[:, 0] = np.where(negative, 45, 0)
    text[zero, -1] = ord("0")
    return text


def write_csv(path, header, columns) -> None:
    """A comma-separated header and one row per entry of equal-length columns.

    Each column is a float64 or integer array (an object array holds Python
    ints beyond 64 bits); a float is written as
    ``repr`` writes it, which reloads as the same double (``0.1``,
    ``2500.0``, ``-0.0``), and an integer as ``str`` does.  No CSV
    quoting touches a number, so the bytes are those ``csv.writer``
    would write.  A non-finite float raises ValueError naming the file.
    The floats of a block are rendered by :func:`_shortest`, which proves
    each string equal to ``repr``'s, or else by ``float.__repr__``.
    """
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(header):
        raise ValueError(f"{path}: {len(header)} column names for {len(columns)} columns")
    for name, column in zip(header, columns):
        if column.ndim != 1 or not (column.dtype.kind in "iu" or column.dtype == np.float64
                                    or column.dtype == object
                                    and all(type(value) is int for value in column.tolist())):
            raise TypeError(f"{path}: column {name} must be a 1-d float64 or integer array, "
                            f"got {column.dtype} of shape {column.shape}")
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError(f"{path}: columns of unequal lengths {[len(c) for c in columns]}")
    floats = [index for index, column in enumerate(columns) if column.dtype.kind == "f"]

    def blocks():
        yield ",".join(header) + "\n"
        for start in range(0, rows, _BLOCK_ROWS):
            block = [column[start:start + _BLOCK_ROWS] for column in columns]
            texts = [None if index in floats else _int_text(values)
                     for index, values in enumerate(block)]
            if floats:
                values = np.stack([block[index] for index in floats], axis=1)
                if not np.isfinite(values).all():
                    row, column = np.argwhere(~np.isfinite(values))[0]
                    raise ValueError(f"{path}: cannot write the non-finite "
                                     f"{values[row, column].item()!r} of column "
                                     f"{header[floats[column]]}")
                text = _float_text(values.ravel()).reshape(len(values), len(floats), -1)
                for position, index in enumerate(floats):
                    texts[index] = text[:, position]
            separators = np.full((len(block[0]), 1), ord(","), dtype=np.uint8)
            newlines = np.full((len(block[0]), 1), ord("\n"), dtype=np.uint8)
            parts = [part for text in texts for part in (text, separators)]
            parts[-1] = newlines
            yield np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode("ascii")

    _write(path, blocks())


def write_artifacts(out_dir, artifacts: dict) -> dict[str, Path]:
    """Create ``out_dir`` and its missing parents, then write ``artifacts``
    in the order given and return ``{key: path}`` in that order.

    ``artifacts`` maps a key to ``(file name, content)``: the content of a
    ``.csv`` name is ``(header, columns)`` for :func:`write_csv`, and that of
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


def _unique_fields(pairs: list) -> dict:
    """The object of one JSON object's ``(name, value)`` pairs; a name given
    twice is refused, where a dict would silently keep its last value."""
    document = dict(pairs)
    if len(document) < len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise ValueError(f"duplicate field {json.dumps(name)} in JSON")
            seen.add(name)
    return document


def load(path):
    """Parse a JSON file, rejecting NaN, Infinity, out-of-range floats, an
    integer too long to convert, a name repeated in any object and nesting
    deeper than the parser's recursion limit.  Every refusal, also of a
    malformed or non-UTF-8 file, is a ValueError whose message starts with
    the path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_unique_fields,
                             parse_constant=_finite_float, parse_float=_finite_float,
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
