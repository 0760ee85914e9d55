"""The line-by-line curve file reader that the streaming reader replaced:
it parses each row's values as it reads the row, so its first error is, by
construction, the one on the earliest bad line. Tests compare
``read_curves`` and its parser on split text against it."""

import math

import numpy as np

from feqt.curvefile import _HEADER_PREFIX, CurveFileError
from feqt.fdata import (
    FunctionalSample,
    Grid,
    GroupedPairedSample,
    PairedFunctionalSample,
    ValidationError,
)


def parse_floats(text, lineno, expect=None):
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CurveFileError(f"line {lineno}: bad float ({exc})") from None
    if not all(map(math.isfinite, vals)):
        raise CurveFileError(f"line {lineno}: non-finite value")
    if expect is not None and len(vals) != expect:
        raise CurveFileError(f"line {lineno}: expected {expect} values, got {len(vals)}")
    return np.array(vals)


def read_curves_text(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise CurveFileError(f"line 1: missing header {_HEADER_PREFIX!r}...")
    try:
        grid = Grid(parse_floats(lines[0][len(_HEADER_PREFIX):], 1))
    except ValidationError as exc:
        raise CurveFileError(f"line 1: {exc}") from exc
    T = len(grid)

    rows = {}  # (group, breath, channel) -> (values, line number)
    order = {}  # (group, breath) keys in first-appearance order
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",", 3)
        if len(parts) != 4:
            raise CurveFileError(f"line {lineno}: expected group,channel,breath,values")
        try:
            group, channel, breath = (int(p) for p in parts[:3])
        except ValueError:
            raise CurveFileError(f"line {lineno}: group/channel/breath must be integers") from None
        if channel not in (1, 2):
            raise CurveFileError(f"line {lineno}: channel must be 1 or 2, got {channel}")
        key = (group, breath, channel)
        if key in rows:
            raise CurveFileError(f"line {lineno}: duplicate row for group {group}, "
                                 f"channel {channel}, breath {breath}")
        rows[key] = (parse_floats(parts[3], lineno, T), lineno)
        order[(group, breath)] = None
    if not rows:
        raise CurveFileError("line 1: no curve rows follow the header")

    paired = 2 in {c for (_, _, c) in rows}
    if paired:
        for group, breath in order:
            for c in (1, 2):
                if (group, breath, c) not in rows:
                    other = rows[(group, breath, 3 - c)][1]
                    raise CurveFileError(
                        f"line {other}: group {group} breath {breath} has channel "
                        f"{3 - c} but no channel {c} row"
                    )

    breaths = {}
    for group, breath in order:
        breaths.setdefault(group, []).append(breath)
    group_ids = sorted(breaths)

    def channel_matrix(group, channel):
        return np.array([rows[(group, b, channel)][0] for b in breaths[group]])

    def pair(group):
        return PairedFunctionalSample(grid, channel_matrix(group, 1), channel_matrix(group, 2))

    if len(group_ids) > 1 and not paired:
        (first, _), *later = order
        group, breath = next(k for k in later if k[0] != first)
        raise CurveFileError(
            f"line {rows[(group, breath, 1)][1]}: group {group} makes the sample grouped, "
            "and grouped samples need both channels"
        )
    try:
        if len(group_ids) > 1:
            return GroupedPairedSample(grid, tuple(pair(g) for g in group_ids))
        if paired:
            return pair(group_ids[0])
        return FunctionalSample(grid, channel_matrix(group_ids[0], 1))
    except ValidationError as exc:
        raise CurveFileError(str(exc)) from exc
