"""Canonical serialization and atomic artifact writing.

Every artifact the package emits goes through this module: floats are
rendered with 17 significant digits (round-trip exact for IEEE doubles),
dictionary keys are sorted, and files are written to a temporary sibling
and renamed into place, so identical inputs produce byte-identical files
and interrupted runs never leave half-written artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import InputError

__all__ = [
    "format_float",
    "canonical_dumps",
    "config_hash",
    "atomic_write_text",
    "write_json",
    "read_json",
    "csv_text",
    "write_csv",
]


def format_float(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same double."""
    x = float(x)
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _canon(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{json.dumps(str(k))}:{_canon(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    return _canon(obj)


def config_hash(obj) -> str:
    """SHA-256 of the canonical serialization, as a hex digest."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary sibling file plus rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str, obj) -> None:
    atomic_write_text(path, canonical_dumps(obj) + "\n")


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}", name="io") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}", name="json") from exc


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    return str(v)


# printf forms that render a cell of this exact type as ``_cell`` does, for
# finite floats: "%.17g" and format(x, ".17g") are the same conversion.
_PRINTF = {int: "%d", float: "%.17g", np.float64: "%.17g"}


def csv_text(header, rows, comments=()) -> str:
    """CSV with a header row; comment lines are prefixed with '# '.

    A row of plain ints and floats is formatted by one printf-style format
    per type signature; a row with any other cell, or with a NaN or an
    infinity (the only outputs holding an "n"), goes cell by cell."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(str(h) for h in header))
    formats: dict = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        if kinds not in formats:
            specs = [_PRINTF.get(t) for t in kinds]
            formats[kinds] = ",".join(specs) if specs and None not in specs else None
        fmt = formats[kinds]
        line = fmt % row if fmt else None
        if line is None or "n" in line:
            line = ",".join(_cell(v) for v in row)
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_csv(path: str, header, rows, comments=()) -> None:
    atomic_write_text(path, csv_text(header, rows, comments))
