"""Deterministic table and summary writers.

Floats are rendered with 17 significant digits so identical runs produce
byte-identical files; no timestamps or environment data are embedded. Every
table opens with a comment line naming the equation it verifies and the
formula being evaluated.

Table rows hold one float per column, rendered as ``%.17g``: NaN and
infinities read ``nan``, ``inf`` and ``-inf`` in CSV and ``null`` in JSON.
Tables are written in blocks of rows. Within a block, a column with at most
half as many distinct values as rows formats each distinct value once and
reuses the text. Summaries are nested dicts of strings, bools, ints and
floats.
"""
from __future__ import annotations

import math
import os
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# rows rendered and written per write call; bounds the text held in memory
_BLOCK_ROWS = 2048


def write_table(
    path: str,
    equation: str,
    formula: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[float]],
    fmt: str = "csv",
) -> str:
    """Write one table as csv, or else json; returns the path actually
    written (extension fixed).

    `rows` is any iterable of rows (a 2-D array included), each one float
    per column, else a ValueError before the file opens; no rows write the
    header alone.
    """
    base, _ = os.path.splitext(path)
    if fmt == "csv":
        out = f"{base}.csv"
        head = f"# equation: {equation} | {formula}\n" + ",".join(columns) + "\n"
        row_sep, cell_sep, wrap, tail = "", ",", "%s\n", ""
    else:
        out = f"{base}.json"
        head = (
            "{\n"
            f'  "equation": {_json_string(equation)},\n'
            f'  "formula": {_json_string(formula)},\n'
            f'  "columns": [' + ", ".join(_json_string(c) for c in columns) + "],\n"
            '  "rows": [\n    '
        )
        row_sep, cell_sep, wrap, tail = ",\n    ", ", ", "[%s]", "\n  ]\n}\n"
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=np.float64)
    if len(table) and table.shape != (len(table), len(columns)):
        raise ValueError(f"rows of shape {table.shape} do not fit {len(columns)} columns")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            cells, specs = _block_cells(block, fmt == "json")
            # one %-format call renders the whole block
            template = row_sep.join([wrap % cell_sep.join(specs)] * len(block))
            if start:
                fh.write(row_sep)
            fh.write(template % tuple(chain.from_iterable(zip(*cells))))
        fh.write(tail)
    return out


def _block_cells(block: np.ndarray, json: bool) -> tuple[list, list]:
    """Per column of `block`: its cells and their %-format.

    A column at most half distinct, or a JSON column holding a non-finite
    value, becomes ``%s`` text with each distinct bit pattern (so 0.0 and
    -0.0 stay apart) formatted once; any other column stays floats under
    ``%.17g``.
    """
    cells, specs = [], []
    render = _json_float if json else "%.17g".__mod__
    finite = np.isfinite(block).all(axis=0)
    for col, col_finite in zip(block.T, finite.tolist()):
        keys = col.view(np.int64).tolist()
        distinct = dict.fromkeys(keys)
        if 2 * len(distinct) <= len(keys) or (json and not col_finite):
            values = np.array(list(distinct), dtype=np.int64).view(np.float64).tolist()
            text = dict(zip(distinct, map(render, values)))
            cells.append(list(map(text.__getitem__, keys)))
            specs.append("%s")
        else:
            cells.append(col.tolist())
            specs.append("%.17g")
    return cells, specs


def _json_float(x: float) -> str:
    return "%.17g" % x if math.isfinite(x) else "null"


# every C0 control character is escaped, as JSON requires
_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)} | {
    ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\t"): "\\t",
}


def _json_string(s: str) -> str:
    return f'"{str(s).translate(_JSON_ESCAPES)}"'


def _json_scalar(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, int):
        return str(value)
    return _json_string(str(value))


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        items = [
            f"{inner}{_json_string(str(k))}: {_json_value(value[k], indent + 2)}"
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    return _json_scalar(value)


def write_summary(path: str, payload: dict) -> str:
    """Sorted-key JSON summary with 17-digit floats; returns the path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_value(payload, 0) + "\n")
    return path
