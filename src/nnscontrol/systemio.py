"""Reading and writing system files.

A system file is a JSON object {"A": [[...]], "B": [[...]], "s": int?,
"name": str?}. Unknown keys (such as a generator's planted ground truth)
are preserved on parse but never required. Errors carry row and column
locations so malformed files are quick to fix.
"""

from __future__ import annotations

import hashlib
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
    """A parsed system file; ``digest`` is the SHA-256 (hex) of the bytes
    parsed: the file's, or the UTF-8 encoding of JSON text."""

    system: SystemPair
    s: int | None
    name: str | None
    extra: dict
    digest: str


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


def read_file(path, what: str) -> tuple[bytes, str]:
    """The bytes of a UTF-8 file, read once, and their text with newlines
    translated as ``Path.read_text`` does; ``what`` ("system",
    "certificate") names the file in errors."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    return data, text.replace("\r\n", "\n").replace("\r", "\n")


def parse_system_file(source) -> ParsedSystem:
    """Parse a system from a path, a Path object, or raw JSON text.

    A string starting with "{" (after whitespace) is treated as JSON text,
    anything else as a filesystem path, read once.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        raw, text = source.encode("utf-8", "surrogatepass"), source
    elif isinstance(source, (str, Path, os.PathLike)):
        raw, text = read_file(source, "system")
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
    system = SystemPair(A=_rectangular(data["A"], "A"), B=_rectangular(data["B"], "B"))

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
    return ParsedSystem(
        system=system, s=s, name=name, extra=extra, digest=hashlib.sha256(raw).hexdigest()
    )


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
