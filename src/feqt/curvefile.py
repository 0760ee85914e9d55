"""Curve file format: diff-able CSV with bit-exact float round trips.

Layout:

    #feqt-curves v1; grid=t1,t2,...
    group,channel,breath,v1,...,vT

Floats are serialized with ``repr``, the shortest decimal that round-trips
to the same double, so ``read(write(x)) == x`` exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .fdata import (
    FunctionalSample,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    ValidationError,
)

_HEADER_PREFIX = "#feqt-curves v1; grid="

#: Rows whose values are parsed at once. A block's text is held joined and
#: split while it parses; larger blocks leave more allocator arenas behind.
_BLOCK_LINES = 64


class CurveFileError(ValueError):
    """Malformed curve file; message names the offending line."""


def _fmt(values) -> str:
    return ",".join(map(repr, values.tolist()))


def _lines(sample):
    """The lines of ``sample``'s curve file, header first, without newlines."""
    if isinstance(sample, GroupedPairedSample):
        groups = sample.groups
    elif isinstance(sample, (PairedFunctionalSample, FunctionalSample)):
        groups = (sample,)
    else:
        raise TypeError(f"cannot serialize {type(sample).__name__}")

    def lines():
        yield _HEADER_PREFIX + _fmt(sample.grid.points)
        for gi, g in enumerate(groups, start=1):
            paired = isinstance(g, PairedFunctionalSample)
            channels = (g.curves_1, g.curves_2) if paired else (g.curves,)
            for bi, rows in enumerate(zip(*channels), start=1):
                for ci, row in enumerate(rows, start=1):
                    yield f"{gi},{ci},{bi}," + _fmt(row)

    return lines()


def write_curves(sample, path) -> None:
    """Write ``sample`` to ``path`` as a curve file, line by line."""
    lines = _lines(sample)  # refuses an unknown sample before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def _parse_floats(text, lineno):
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CurveFileError(f"line {lineno}: bad float ({exc})") from None
    if not all(map(math.isfinite, vals)):
        raise CurveFileError(f"line {lineno}: non-finite value")
    return np.array(vals)


def _undecodable(line):
    """The first byte of ``line`` that was not UTF-8, or None.

    Lines are decoded with ``surrogateescape``, which maps such a byte b to
    the lone surrogate U+DC00 + b.
    """
    if not line.isascii():
        for c in line:
            if "\udc80" <= c <= "\udcff":
                return ord(c) - 0xDC00
    return None


def _parse(lines):
    """The sample in the curve file whose lines, numbered from 1, ``lines`` yields.

    Each row's ids and value count are checked as it is read; its values are
    parsed with those of up to :data:`_BLOCK_LINES` rows at once. Errors are
    raised in line order: a block that fails to parse, or holds a non-finite
    value, is re-read line by line, and an error found on line k first
    parses the rows before it.
    """
    lines = iter(lines)
    header = next(lines, "")
    byte = _undecodable(header)
    if byte is not None:
        raise CurveFileError(f"line 1: byte 0x{byte:02x} is not UTF-8")
    if not header.startswith(_HEADER_PREFIX):
        raise CurveFileError(f"line 1: missing header {_HEADER_PREFIX!r}...")
    try:
        grid = Grid(_parse_floats(header[len(_HEADER_PREFIX):], 1))
    except ValidationError as exc:
        raise CurveFileError(f"line 1: {exc}") from exc
    T = len(grid)

    rows = {}  # (group, breath, channel) -> row number, rows in file order
    linenos = []  # row number -> line number
    # the parsed rows, in one array grown by doubling: as a list of small
    # blocks, laid on the heap between the lines' strings, they left memory
    # behind that later large arrays could not reuse
    parsed = np.empty((_BLOCK_LINES, T))
    pending = []  # the values text of the rows not yet parsed

    def parse_pending():
        nonlocal parsed
        if not pending:
            return
        first = len(linenos) - len(pending)
        try:
            values = np.fromiter(map(float, ",".join(pending).split(",")), float, len(pending) * T)
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            for row, text in enumerate(pending, start=first):
                _parse_floats(text, linenos[row])  # raises the first line's error
        if len(linenos) > len(parsed):
            grown = np.empty((2 * len(parsed), T))
            grown[:first] = parsed[:first]
            parsed = grown
        parsed[first : len(linenos)] = values.reshape(-1, T)
        pending.clear()

    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        error = None
        byte = _undecodable(line)
        parts = line.split(",", 3)
        if byte is not None:
            error = f"byte 0x{byte:02x} is not UTF-8"
        elif len(parts) != 4:
            error = "expected group,channel,breath,values"
        else:
            try:
                group, channel, breath = (int(p) for p in parts[:3])
            except ValueError:
                error = "group/channel/breath must be integers"
        if error is None:
            key = (group, breath, channel)
            if channel not in (1, 2):
                error = f"channel must be 1 or 2, got {channel}"
            elif key in rows:
                error = (f"duplicate row for group {group}, channel {channel}, "
                         f"breath {breath}")
        if error is not None:
            parse_pending()
            raise CurveFileError(f"line {lineno}: {error}")
        count = parts[3].count(",") + 1
        if count != T:
            parse_pending()
            _parse_floats(parts[3], lineno)  # a bad value comes before the count
            raise CurveFileError(f"line {lineno}: expected {T} values, got {count}")
        rows[key] = len(linenos)
        linenos.append(lineno)
        pending.append(parts[3])
        if len(pending) == _BLOCK_LINES:
            parse_pending()
    parse_pending()
    if not rows:
        raise CurveFileError("line 1: no curve rows follow the header")

    paired = any(c == 2 for (_, _, c) in rows)
    if paired:
        for group, breath, c in rows:
            if (group, breath, 3 - c) not in rows:
                raise CurveFileError(
                    f"line {linenos[rows[(group, breath, c)]]}: group {group} breath "
                    f"{breath} has channel {c} but no channel {3 - c} row"
                )

    order = dict.fromkeys((group, breath) for group, breath, _ in rows)
    breaths = {}  # group -> its breaths in first-appearance order
    for group, breath in order:
        breaths.setdefault(group, []).append(breath)
    group_ids = sorted(breaths)
    if len(group_ids) > 1 and not paired:
        (first, _), *later = order
        group, breath = next(k for k in later if k[0] != first)
        raise CurveFileError(
            f"line {linenos[rows[(group, breath, 1)]]}: group {group} makes the sample "
            "grouped, and grouped samples need both channels"
        )

    # every channel matrix is gathered, and the parsed rows let go, before
    # the samples copy the matrices
    channels = (1, 2) if paired else (1,)
    matrices = [
        [parsed[[rows[(group, b, c)] for b in breaths[group]]] for c in channels]
        for group in group_ids
    ]
    del parsed
    try:
        if not paired:
            return FunctionalSample(grid, *matrices[0])
        pairs = tuple(PairedFunctionalSample(grid, *m) for m in matrices)
        return GroupedPairedSample(grid, pairs) if len(pairs) > 1 else pairs[0]
    except ValidationError as exc:
        raise CurveFileError(str(exc)) from exc


def _file_lines(fh):
    """The lines of the binary file ``fh``, split as ``str.splitlines`` splits
    its decoded text; a byte that is not UTF-8 is kept as a lone surrogate."""
    for raw in fh:
        yield from raw.decode("utf-8", "surrogateescape").splitlines()


def read_curves(path):
    """Read a curve file; the sample shape is inferred from the rows.

    Multiple groups give a :class:`GroupedPairedSample`, one group with both
    channels a :class:`PairedFunctionalSample`, channel 1 only a
    :class:`FunctionalSample`. The file is read line by line; a line that is
    malformed or not UTF-8 raises a :class:`CurveFileError` naming it.
    """
    with open(path, "rb") as fh:
        return _parse(_file_lines(fh))
