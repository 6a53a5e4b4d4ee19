"""System files in, and every JSON document the CLI prints out (``dump_system_file``).

A system file is a JSON object {"A": [[...]], "B": [[...]], "s": int?,
"name": str?}. Unknown keys (such as a generator's planted ground truth)
are preserved on parse but never required. A file carries no number rule
of its own: "A" and "B" go to ``SystemPair`` and "s" to
``validate_sparsity``, so the rules and their messages (with 1-based row
and column locations) are ``matrixcore``'s. Certificate files are read by
the same loader, ``load_json_object``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .controllability import SystemPair
from .errors import InputError
from .matrixcore import validate_sparsity

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


def load_json_object(path, what: str) -> tuple[dict, bytes]:
    """The JSON object in the UTF-8 file at ``path`` and the bytes it was
    parsed from. The file is read once, and its newlines are translated as
    ``Path.read_text`` does; ``what`` ("system", "certificate") names it in
    errors, which show ``path`` as given."""
    try:
        raw = Path(path).read_bytes()
        text = raw.decode("utf-8")
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    return _json_object(text.replace("\r\n", "\n").replace("\r", "\n"), what), raw


def _json_object(text: str, what: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{what} file must be a JSON object")
    return data


def parse_system_file(source) -> ParsedSystem:
    """Parse a system from a path, a Path object, or raw JSON text.

    A string starting with "{" (after whitespace) is treated as JSON text,
    anything else as a filesystem path, read by ``load_json_object``.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        data, raw = _json_object(source, "system"), source.encode("utf-8", "surrogatepass")
    elif isinstance(source, (str, os.PathLike)):
        data, raw = load_json_object(source, "system")
    else:
        raise InputError(f"unsupported system source type {type(source).__name__}")
    for key in ("A", "B"):
        if key not in data:
            raise InputError(f'missing required key "{key}"')
    system = SystemPair(A=data["A"], B=data["B"])
    s = data.get("s")
    if s is not None:
        s = validate_sparsity(s, system.m)
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
    """Every JSON document the CLI prints: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
