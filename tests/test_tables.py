import json
import math
import pathlib

import numpy as np
import pytest

from qshje.tables import format_float, write_summary, write_table


def test_format_float_round_trips():
    for x in (0.1, -0.25, 1.0 / 3.0, 1e-300, 2.0**52 + 1.0):
        assert float(format_float(x)) == x


def test_format_float_nonfinite():
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"


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


def test_write_table_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_table(str(tmp_path / "x"), "e", "f", ["a"], [], fmt="toml")


def test_write_summary_sorted_and_parseable(tmp_path):
    path = str(tmp_path / "summary.json")
    payload = {
        "zeta": 1.0 / 3.0,
        "alpha": {"nested": [1, 2.5, True], "empty": {}},
        "list": [],
        "flag": np.bool_(False),
    }
    write_summary(path, payload)
    text = (tmp_path / "summary.json").read_text()
    parsed = json.loads(text)
    assert parsed["flag"] is False
    assert parsed["alpha"]["nested"] == [1, 2.5, True]
    assert math.isclose(parsed["zeta"], 1.0 / 3.0, rel_tol=0.0, abs_tol=0.0)
    assert text.index('"alpha"') < text.index('"flag"') < text.index('"zeta"')


def test_control_characters_stay_valid_json(tmp_path):
    text = "a\rb\x00c\x1fd\\e\"f\ng\th"
    write_summary(str(tmp_path / "s.json"), {text: text, "list": [text]})
    with open(tmp_path / "s.json", encoding="utf-8") as fh:
        assert json.load(fh) == {text: text, "list": [text]}
    write_table(str(tmp_path / "t"), text, text, [text], [(0.5,)], fmt="json")
    with open(tmp_path / "t.json", encoding="utf-8") as fh:
        table = json.load(fh)
    assert table == {"equation": text, "formula": text, "columns": [text], "rows": [[0.5]]}


def test_summary_is_byte_stable(tmp_path):
    payload = {"b": 2, "a": [1.5, {"x": float(np.pi)}]}
    p1 = str(tmp_path / "one.json")
    p2 = str(tmp_path / "two.json")
    write_summary(p1, payload)
    write_summary(p2, payload)
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


# Cell-by-cell reference rendering of float rows; the one %.17g format per
# row must give the same bytes.
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
    "uneven-widths": [(0.5,), (0.5, 1.5), (), (np.float64(2.0), float("inf"), -0.0)],
    "empty": [],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(_ORACLE_TABLES))
def test_write_table_matches_cell_by_cell_rendering(tmp_path, name, fmt):
    rows = _ORACLE_TABLES[name]
    columns = ["a", "b", "c", "d"]
    out = write_table(str(tmp_path / name), "eq", "f = 0", columns, rows, fmt=fmt)
    expected = _ref_payload("eq", "f = 0", columns, rows, fmt)
    assert pathlib.Path(out).read_bytes() == expected.encode("utf-8")
    # rows may arrive as a one-shot generator
    again = write_table(
        str(tmp_path / f"{name}-gen"), "eq", "f = 0", columns, (r for r in rows), fmt=fmt
    )
    assert pathlib.Path(again).read_bytes() == expected.encode("utf-8")
