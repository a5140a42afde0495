"""JSON field codecs for the fixture formats.

All rational values serialize as strings 'p/q' or 'n'; matrices are
row-major nested arrays; multilinear structure constants are nested
lists indexed exactly as documented on each loader.  Every malformed
field raises FixtureError naming it.
"""

from __future__ import annotations

import json

from .exactlin import RMatrix, parse_int, rat_str, rational


class FixtureError(ValueError):
    """Malformed fixture input; the message names the offending field."""


def need(obj: dict, field: str, path: str = ""):
    where = f"{path}.{field}" if path else field
    if not isinstance(obj, dict) or field not in obj:
        raise FixtureError(f"missing field '{where}'")
    return obj[field]


def as_count(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FixtureError(f"field '{field}' must be a nonnegative integer")
    return value


def tensor_from_json(obj, dims: tuple, field: str):
    """Parse a nested list of rationals with the given dimensions."""
    if not dims:
        try:
            return rational(obj)
        except ValueError as exc:
            raise FixtureError(f"field '{field}': {exc}") from None
    if not isinstance(obj, list) or len(obj) != dims[0]:
        raise FixtureError(f"field '{field}' must be a list of length {dims[0]}")
    return [tensor_from_json(x, dims[1:], field) for x in obj]


def tensor_to_json(t):
    if isinstance(t, list):
        return [tensor_to_json(x) for x in t]
    return rat_str(t)


def mat_from_json(obj: dict, field: str, rows: int, cols: int) -> RMatrix:
    """Parse obj[field], a rows x cols matrix given as a list of rows."""
    return RMatrix.from_rows(tensor_from_json(need(obj, field), (rows, cols), field), cols)


def mat_to_json(m: RMatrix) -> list:
    return [[rat_str(x) for x in row] for row in m.data]


def load_json_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int)
    except FileNotFoundError:
        raise FixtureError(f"no such file: {path}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise FixtureError(f"invalid JSON in {path}: {exc}") from None
