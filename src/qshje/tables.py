"""Deterministic table and summary writers.

Floats are rendered with 17 significant digits so identical runs produce
byte-identical files; no timestamps or environment data are embedded. Every
table opens with a comment line naming the equation it verifies and the
formula being evaluated.

Table rows hold floats only, and each row is rendered with one ``%.17g``
format: NaN and infinities read ``nan``, ``inf`` and ``-inf`` in CSV and
``null`` in JSON.
"""
from __future__ import annotations

import functools
import math
import os
from typing import Iterable, Sequence


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _plain(value):
    # numpy scalars stringify as 'True'/'1.0' with their own types; collapse
    # them to builtins before formatting
    if hasattr(value, "item") and not isinstance(value, (str, bytes, bool, int, float)):
        return value.item()
    return value


def write_table(
    path: str,
    equation: str,
    formula: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[float]],
    fmt: str = "csv",
) -> str:
    """Write one table; returns the path actually written (extension fixed)."""
    base, _ = os.path.splitext(path)
    if fmt == "csv":
        out = f"{base}.csv"
        lines = [f"# equation: {equation} | {formula}", ",".join(columns)]
        for row in rows:
            row = tuple(row)
            lines.append(_row_template(len(row), ",") % row)
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        out = f"{base}.json"
        body_rows = []
        for row in rows:
            row = tuple(row)
            line = _row_template(len(row), ", ") % row
            # a finite float prints without the letter n; nan and inf need null
            if "n" in line:
                line = ", ".join(_json_scalar(v) for v in row)
            body_rows.append("[" + line + "]")
        payload = (
            "{\n"
            f'  "equation": {_json_string(equation)},\n'
            f'  "formula": {_json_string(formula)},\n'
            f'  "columns": [' + ", ".join(_json_string(c) for c in columns) + "],\n"
            '  "rows": [\n    ' + ",\n    ".join(body_rows) + "\n  ]\n"
            "}\n"
        )
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    return out


@functools.lru_cache(maxsize=64)
def _row_template(width: int, sep: str) -> str:
    return sep.join(["%.17g"] * width)


# every C0 control character is escaped, as JSON requires
_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)} | {
    ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\t"): "\\t",
}


def _json_string(s: str) -> str:
    return f'"{str(s).translate(_JSON_ESCAPES)}"'


def _json_scalar(value) -> str:
    value = _plain(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return _json_string(str(value))


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{_json_string(str(k))}: {_json_value(value[k], indent + 2)}"
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_json_value(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _json_scalar(value)


def write_summary(path: str, payload: dict) -> str:
    """Sorted-key JSON summary with 17-digit floats; returns the path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_value(payload, 0) + "\n")
    return path
