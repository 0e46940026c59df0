import json
import math
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from qshje import tables
from qshje.tables import write_summary, write_table


def test_write_table_csv(tmp_path):
    rows = [(0.5, np.float64(1.25), -0.0), (1.5, float("nan"), float("-inf"))]
    out = write_table(
        str(tmp_path / "demo"), "azimuthal", "a + b = 0", ["q", "value", "gap"], rows
    )
    assert out.endswith("demo.csv")
    lines = (tmp_path / "demo.csv").read_text().splitlines()
    assert lines[0] == "# equation: azimuthal | a + b = 0"
    assert lines[1] == "q,value,gap"
    assert lines[2] == "0.5,1.25,-0"
    assert lines[3] == "1.5,nan,-inf"


def test_write_table_json(tmp_path):
    rows = [(0.5, float("inf")), (np.float64(0.25), float("nan"))]
    out = write_table(
        str(tmp_path / "demo"), "axial", "formula \"quoted\"", ["q", "v"], rows, fmt="json"
    )
    assert out.endswith("demo.json")
    payload = json.loads((tmp_path / "demo.json").read_text())
    assert payload["equation"] == "axial"
    assert payload["formula"] == 'formula "quoted"'
    assert payload["columns"] == ["q", "v"]
    assert payload["rows"][0] == [0.5, None]  # non-finite floats become null
    assert payload["rows"][1] == [0.25, None]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_refuses_rows_that_do_not_fit_the_columns(tmp_path, fmt):
    # flat rows, and a row of 3 cells under 2 columns, fail before the file opens
    for rows, shape in (([0.5, 1.5], "(2,)"), ([(0.5, 1.5, 2.5)], "(1, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"rows of shape {shape} do not fit 2")):
            write_table(str(tmp_path / "bad"), "eq", "f = 0", ["a", "b"], iter(rows), fmt=fmt)
        assert list(tmp_path.iterdir()) == []


def test_write_summary_sorted_and_parseable(tmp_path):
    path = str(tmp_path / "summary.json")
    payload = {
        "zeta": 1.0 / 3.0,
        "alpha": {"nested": {"n": 1, "x": 2.5, "ok": True}},
        "flag": np.bool_(False),
    }
    write_summary(path, payload)
    text = (tmp_path / "summary.json").read_text()
    parsed = json.loads(text)
    assert parsed["flag"] is False
    assert parsed["alpha"]["nested"] == {"n": 1, "x": 2.5, "ok": True}
    assert math.isclose(parsed["zeta"], 1.0 / 3.0, rel_tol=0.0, abs_tol=0.0)
    assert text.index('"alpha"') < text.index('"flag"') < text.index('"zeta"')


def test_control_characters_stay_valid_json(tmp_path):
    text = "a\rb\x00c\x1fd\\e\"f\ng\th"
    write_summary(str(tmp_path / "s.json"), {text: text})
    with open(tmp_path / "s.json", encoding="utf-8") as fh:
        assert json.load(fh) == {text: text}
    write_table(str(tmp_path / "t"), text, text, [text], [(0.5,)], fmt="json")
    with open(tmp_path / "t.json", encoding="utf-8") as fh:
        table = json.load(fh)
    assert table == {"equation": text, "formula": text, "columns": [text], "rows": [[0.5]]}


def test_summary_is_byte_stable(tmp_path):
    payload = {"b": 2, "a": {"w": 1.5, "x": float(np.pi)}}
    p1 = str(tmp_path / "one.json")
    p2 = str(tmp_path / "two.json")
    write_summary(p1, payload)
    write_summary(p2, payload)
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


# Cell-by-cell reference rendering of float rows; the block writer, which
# formats each distinct value of a repetitive column once, must give the
# same bytes.
def _ref_format_float(x):
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return f"{x:.17g}"


def _ref_json_scalar(value):
    return _ref_format_float(value) if math.isfinite(value) else "null"


def _ref_payload(equation, formula, columns, rows, fmt):
    if fmt == "csv":
        lines = [f"# equation: {equation} | {formula}", ",".join(columns)]
        lines += [",".join(_ref_format_float(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    body = ["[" + ", ".join(_ref_json_scalar(v) for v in row) + "]" for row in rows]
    return (
        "{\n"
        f'  "equation": "{equation}",\n'
        f'  "formula": "{formula}",\n'
        '  "columns": [' + ", ".join(f'"{c}"' for c in columns) + "],\n"
        '  "rows": [\n    ' + ",\n    ".join(body) + "\n  ]\n"
        "}\n"
    )


_EDGE_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e308, -1e308,
    1.0 / 3.0, 0.1, 2.0**52 + 1.0, 1e16, 123456789.0, 1e-5,
]

# values that print alike or differ only in their bits: signed zeros, NaNs of
# either sign and another payload, both infinities and the smallest subnormal
_NAN_PAYLOAD = float(np.array([0x7FF8000000000001]).view(np.float64)[0])
_BIT_EDGES = [0.0, -0.0, float("nan"), -float("nan"), _NAN_PAYLOAD, float("inf"),
              float("-inf"), 5e-324]


def _block_crossing():
    """Rows over three blocks: a repetitive column that turns distinct in
    the second block, a distinct one that turns repetitive, and a column of
    bit edges that gains a non-finite value only in the last block."""
    n = 2 * tables._BLOCK_ROWS + 37
    i = np.arange(n)
    second = (i >= tables._BLOCK_ROWS) & (i < 2 * tables._BLOCK_ROWS)
    a = np.where(second, i / 7.0, (i % 5) * 0.1)
    b = np.where(second, (i % 3) - 0.5, np.sqrt(i + 0.5))
    c = np.where(i >= 2 * tables._BLOCK_ROWS, np.array(_BIT_EDGES)[i % 8], (i % 4) * -0.0)
    d = np.full(n, 1.0 / 3.0)
    return np.column_stack([a, b, c, d])


_ORACLE_TABLES = {
    "floats": [
        tuple(_EDGE_FLOATS[(i + k) % len(_EDGE_FLOATS)] for k in range(4))
        for i in range(len(_EDGE_FLOATS))
    ],
    "numpy-floats": [
        (np.float64(x), x, np.float64(-x), 1.0 / 3.0) for x in _EDGE_FLOATS
    ],
    "finite-only": [(0.5, np.float64(1e308), 5e-324, -0.0), (1.0 / 3.0, 1e-300, 2.5, 7.0)],
    "list-rows": [[0.5, float("nan"), -0.0, 1e-5], [1.0 / 3.0, 5e-324, 0.25, 1.5]],
    "ndarray-rows": np.array([[0.5, np.nan, -0.0, 1e-5], [1.0 / 3.0, 5e-324, np.inf, 1.5]]),
    # a probe lattice: each coordinate repeats, the value column mostly repeats
    "repeated": [
        (i // 9 * 0.25, i // 3 % 3 * 0.25, i % 3 * 0.25, (i % 4) * 1e-17) for i in range(27)
    ],
    "bit-edges": [
        (x, _BIT_EDGES[(i * 3) % 8], float(i), -x)
        for i, x in enumerate(_BIT_EDGES * 3)
    ],
    "block-crossing": _block_crossing(),
    "empty": [],
}

# the shapes rows may arrive in, the bench tracer's generator of 1-D arrays
# included
_ROW_SHAPES = {
    "tuples": lambda rows: [tuple(r) for r in rows],
    "ndarray": lambda rows: np.array([tuple(r) for r in rows], dtype=float),
    "generator": lambda rows: (r for r in rows),
    "array-generator": lambda rows: (r for r in np.array([tuple(r) for r in rows], dtype=float)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(_ORACLE_TABLES))
def test_write_table_matches_cell_by_cell_rendering(tmp_path, name, fmt):
    rows = _ORACLE_TABLES[name]
    columns = ["a", "b", "c", "d"]
    expected = _ref_payload("eq", "f = 0", columns, rows, fmt).encode("utf-8")
    for shape, convert in _ROW_SHAPES.items():
        out = write_table(
            str(tmp_path / f"{name}-{shape}"), "eq", "f = 0", columns, convert(rows), fmt=fmt
        )
        assert pathlib.Path(out).read_bytes() == expected, shape


def test_write_table_holds_less_than_the_file_it_writes(tmp_path):
    """The writer streams blocks of rows, so its peak allocation stays below
    the size of its output instead of holding every line and the payload."""
    rng = np.random.default_rng(3)
    n = 20000
    table = rng.normal(size=(n, 8))
    table[:, 0] = np.repeat(np.linspace(0.1, 2.0, 20), n // 20)  # a probe axis
    table[:, 1] = rng.choice(rng.normal(size=100), size=n)  # a repetitive value
    tracemalloc.start()
    try:
        out = write_table(str(tmp_path / "big"), "eq", "f", list("abcdefgh"), table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(out)
