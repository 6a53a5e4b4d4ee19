"""Reading and writing system files.

A system file is a JSON object {"A": [[...]], "B": [[...]], "s": int?,
"name": str?}. Unknown keys (such as a generator's planted ground truth)
are preserved on parse but never required. Errors carry row and column
locations so malformed files are quick to fix.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .controllability import SystemPair
from .errors import InputError

__all__ = ["ParsedSystem", "parse_system_file", "system_file_dict", "dump_system_file"]


@dataclass(frozen=True)
class ParsedSystem:
    system: SystemPair
    s: int | None
    name: str | None
    extra: dict


def _rectangular(raw, key: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise InputError(f'"{key}" must be a non-empty array of arrays')
    width = len(raw[0])
    if width == 0:
        raise InputError(f'"{key}" rows must be non-empty')
    for i, row in enumerate(raw):
        if len(row) != width:
            raise InputError(
                f'"{key}" row {i + 1} has {len(row)} entries, expected {width} (ragged)'
            )
        for j, value in enumerate(row):
            if type(value) is not int and type(value) is not float:  # exact: rejects bool
                raise InputError(
                    f'"{key}" entry at row {i + 1}, column {j + 1} is not a number: {value!r}'
                )
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise InputError(
                    f'"{key}" entry at row {i + 1}, column {j + 1} is not finite'
                )
    return np.asarray(raw, dtype=float)


def read_text(path, what: str) -> str:
    """Read a UTF-8 file; ``what`` ("system", "certificate") names it in errors."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def parse_system_file(source) -> ParsedSystem:
    """Parse a system from a path, a Path object, or raw JSON text.

    A string starting with "{" (after whitespace) is treated as JSON text,
    anything else as a filesystem path.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    elif isinstance(source, (str, Path, os.PathLike)):
        text = read_text(source, "system")
    else:
        raise InputError(f"unsupported system source type {type(source).__name__}")

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("system file must be a JSON object")
    for key in ("A", "B"):
        if key not in data:
            raise InputError(f'missing required key "{key}"')
    a = _rectangular(data["A"], "A")
    b = _rectangular(data["B"], "B")
    if a.shape[0] != a.shape[1]:
        raise InputError(f'"A" must be square, got {a.shape[0]} x {a.shape[1]}')
    if b.shape[0] != a.shape[0]:
        raise InputError(
            f'"B" must have {a.shape[0]} rows to match "A", got {b.shape[0]}'
        )
    system = SystemPair(A=a, B=b)

    s = data.get("s")
    if s is not None:
        if isinstance(s, bool) or not isinstance(s, int):
            raise InputError(f'"s" must be an integer, got {s!r}')
        if not 1 <= s <= system.m:
            raise InputError(f'"s" must lie in [1, {system.m}], got {s}')
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f'"name" must be a string, got {name!r}')
    extra = {k: v for k, v in data.items() if k not in ("A", "B", "s", "name")}
    return ParsedSystem(system=system, s=s, name=name, extra=extra)


def system_file_dict(system: SystemPair, s: int | None = None, name: str | None = None) -> dict:
    data: dict = {}
    if name is not None:
        data["name"] = name
    data["A"] = [[float(v) for v in row] for row in system.A]
    data["B"] = [[float(v) for v in row] for row in system.B]
    if s is not None:
        data["s"] = int(s)
    return data


def dump_system_file(data: dict) -> str:
    """Stable serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
