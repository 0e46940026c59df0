"""Deterministic table and summary writers.

Floats are rendered with 17 significant digits so identical runs produce
byte-identical files; no timestamps or environment data are embedded. Every
table opens with a comment line naming the equation it verifies and the
formula being evaluated.

Table cells are real numbers, rendered as ``%.17g``: NaN and infinities read
``nan``, ``inf`` and ``-inf`` in CSV and ``null`` in JSON. Tables are written
in blocks of rows. Within a block, a column with at most half as many distinct
values as rows formats each distinct value once and reuses the text.
"""
from __future__ import annotations

import math
import os
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# rows rendered and written per write call; bounds the text held in memory
_BLOCK_ROWS = 2048


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
    """Write one table; returns the path actually written (extension fixed).

    `rows` is any iterable of rows (a 2-D array included); every row holds
    one real number per column, else ValueError or TypeError is raised and
    no file is written.
    """
    base, _ = os.path.splitext(path)
    if fmt == "csv":
        out = f"{base}.csv"
        head = f"# equation: {equation} | {formula}\n" + ",".join(columns) + "\n"
        row_sep, cell_sep, wrap, tail = "", ",", "%s\n", ""
    elif fmt == "json":
        out = f"{base}.json"
        head = (
            "{\n"
            f'  "equation": {_json_string(equation)},\n'
            f'  "formula": {_json_string(formula)},\n'
            f'  "columns": [' + ", ".join(_json_string(c) for c in columns) + "],\n"
            '  "rows": [\n    '
        )
        row_sep, cell_sep, wrap, tail = ",\n    ", ", ", "[%s]", "\n  ]\n}\n"
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    table = _float_rows(out, rows, len(columns))
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


def _float_rows(out: str, rows, width: int) -> np.ndarray:
    """The rows of table `out` as one (n, width) float array."""
    try:
        table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows))
    except ValueError:
        table = None  # ragged rows
    if table is not None and table.ndim == 1 and table.size == 0:
        table = table.reshape(0, width)
    if table is None or table.ndim != 2 or table.shape[1] != width:
        raise ValueError(f"table {out}: every row needs {width} cells, one per column")
    if table.dtype.kind not in "biuf":
        raise TypeError(f"table {out}: cells must be real numbers, got {table.dtype} cells")
    return table.astype(np.float64, copy=False)


def _block_cells(block: np.ndarray, json: bool) -> tuple[list, list]:
    """Per column of `block`: its cells and their %-format.

    A column at most half distinct, or a JSON column holding a non-finite
    value, becomes ``%s`` text with each distinct bit pattern (so 0.0 and
    -0.0 stay apart) formatted once; any other column stays floats under
    ``%.17g``.
    """
    cells, specs = [], []
    # %-formatting, not format_float: bench/tracer.py records a span for each
    # call of a public function, which would be one per distinct value
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
    value = _plain(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _json_float(value)
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
