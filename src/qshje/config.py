"""Run configuration: YAML schema, validation, and typed accessors.

A run file names a symmetry class, the potential, the constants of motion,
and one block per coordinate component with its mixing constants and grid.
Validation errors carry the dotted path of the offending field.

Run files are read by `_read_yaml`, a reader of the YAML subset they use:
block mappings and sequences, flow collections on one line, comments, and
plain or quoted scalars, plain ones resolved as YAML 1.1 resolves them.
"""
from __future__ import annotations

import re

import numpy as np

from .domain import (
    CoulombPotential,
    HarmonicPotential,
    PhysConstants,
    PotentialSpec,
    PowerLawPotential,
    QuantumNumbers,
    TabulatedPotential,
    ZeroPotential,
    check_coordinates,
)
from .errors import ConfigError, GridDomainError, QshjeError
from .ode_engine import MAX_RK4_STEPS, Grid1D
from .residuals import MAX_PROBE_POINTS, SYMMETRY_TABLE, SymmetryRow, hbar_scan_values

DEFAULT_HBAR_SCAN = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)


def _expect_mapping(value, path: str, fields: tuple[str, ...] | None = None) -> dict:
    """value as a mapping; given fields, a key outside them is an error."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    for key in value:
        if fields is not None and key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field (expected {', '.join(fields)})")
    return value


def _get(mapping: dict, key: str, path: str):
    """The required field at key."""
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: must be finite, got an integer past the float range") from None
    if not np.isfinite(v):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return v


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    _number(value, path)  # every config number must be a finite float
    return value


# A token after spaces: a flow indicator, a `-` before a space or the line
# end, or a scalar, with the `:` of a key when a space or the line end
# follows. A scalar is quoted (double quotes take no escapes) or plain: word
# characters and `.~/+-`, with single inner spaces. A `#` after a space
# opens a comment, and the line end matches with no token.
_TOKEN = re.compile(
    r""" *(?:(?<![^ ])#.*|$|([\[\]{},]|-(?= |$)|(?:'(?:[^']|'')*'|"[^"\\]*"|"""
    r"""-?\.?[\w~/+][\w.~/+-]*(?: [\w.~/+-]+)*)(?::(?= |$))?))"""
)
# a decimal int (group 1) or a float with a dot: digits before it, or one after it
_NUMBER = re.compile(r"([-+]?(?:0|[1-9][0-9]*))|(?:[-+]?[0-9]+\.|\.[0-9])[0-9]*(?:[eE][-+][0-9]+)?")
# the starts of YAML 1.1 octal, hex and binary ints, of numbers with `_`
# separators and of timestamps, which read as what was not written
_YAML11 = re.compile(r"[-+]?(?:0[0-9_bx]|\.?[0-9][0-9.]*_)|[0-9]{4}-[0-9]")
# the other plain scalars that do not read as strings; an empty one is null
_WORDS = dict.fromkeys(["", "~", "null", "Null", "NULL"])
_WORDS.update(dict.fromkeys("yes Yes YES true True TRUE on On ON".split(), True))
_WORDS.update(dict.fromkeys("no No NO false False FALSE off Off OFF".split(), False))
_WORDS.update(dict.fromkeys(".inf .Inf .INF +.inf +.Inf +.INF".split(), float("inf")))
_WORDS.update(dict.fromkeys("-.inf -.Inf -.INF".split(), float("-inf")))
_WORDS.update(dict.fromkeys(".nan .NaN .NAN".split(), float("nan")))


def _scalar(token: str):
    """A scalar token's value; a plain one resolves as YAML 1.1 resolves it."""
    if token in ("[", "]", "{", "}", ",", "-") or token.endswith(":"):
        raise ValueError(f"unexpected {token!r}")
    if token[:1] == "'":
        return token[1:-1].replace("''", "'")
    if token[:1] == '"':
        return token[1:-1]
    number = _NUMBER.fullmatch(token)
    if number:  # int() raises a ValueError past the interpreter's digit limit
        return int(token) if number[1] else float(token)
    if _YAML11.match(token):
        raise ValueError(f"{token!r} is a YAML 1.1 form outside the subset run files use")
    return _WORDS.get(token, token)


def _put(mapping: dict, key, value) -> None:
    if key in mapping:  # a TypeError for a list or mapping key
        raise ValueError(f"duplicate key {key!r}")
    mapping[key] = value


def _flow(tokens: list, line: int):
    """Pop the flow collection or scalar at the end of tokens, which must
    start on line and keep its entries there."""
    number, _, token = tokens.pop()
    if number != line:
        raise ValueError("unterminated flow collection")
    if token not in ("[", "{"):
        return _scalar(token)
    close = "]" if token == "[" else "}"
    node = [] if token == "[" else {}
    while tokens[-1][2] != close:
        if node and tokens.pop()[2] != ",":
            raise ValueError(f"expected ',' or {close!r}")
        if token == "[":
            node.append(_flow(tokens, line))
        elif not tokens[-1][2].endswith(":"):
            raise ValueError("expected a key and ':'")
        else:
            key = _scalar(tokens.pop()[2][:-1])
            _put(node, key, _flow(tokens, line))
    tokens.pop()
    return node


def _block(tokens: list):
    """Pop the block sequence or mapping at the end of tokens, or else the
    flow node there, which its line holds. An error names the line of the
    entry it arose in."""
    number, column, token = tokens[-1]
    try:
        if token == "-":
            node = []
            while tokens[-1][1:] == (column, "-"):
                number = tokens.pop()[0]
                node.append(_value(tokens, number, column, False))
            return node
        if token.endswith(":"):
            node = {}
            while tokens[-1][1] == column and tokens[-1][2].endswith(":"):
                number, _, token = tokens.pop()
                _put(node, _scalar(token[:-1]), _value(tokens, number, column, True))
            return node
        return _flow(tokens, number)
    except (RecursionError, TypeError, ValueError) as exc:
        raise ConfigError(f"line {number}: {exc}") from None


def _value(tokens: list, number: int, column: int, after_key: bool):
    """Pop the value of the `key:` (after_key) or `-` at line number and
    column: the node after it on its line, where only a flow node may follow
    a key, else the block below it, else null. A block sequence may fill a
    key at the key's own column."""
    line, col, token = tokens[-1]
    if line == number:
        return _flow(tokens, number) if after_key else _block(tokens)
    if col > column or (after_key and col == column and token == "-"):
        return _block(tokens)
    return None


def _read_yaml(text: str):
    """The data of a run file's text; a ConfigError names the line it cannot read."""
    tokens = []
    for number, line in enumerate(text.split("\n"), 1):
        if not line.isprintable():
            raise ConfigError(f"line {number}: a tab or another unprintable character")
        junk = _TOKEN.sub("", line).strip(" ")
        if junk:
            raise ConfigError(f"line {number}: cannot read {junk!r}")
        tokens += [(number, m.start(1), m[1]) for m in _TOKEN.finditer(line) if m[1]]
    # popped last: an empty token at line 0 and column -1 ends every block
    # and flow collection, and is the null of an empty text
    tokens.append((0, -1, ""))
    tokens.reverse()
    node = _block(tokens)
    if len(tokens) > 1:
        number, _, token = tokens[-1]
        raise ConfigError(f"line {number}: unexpected {token!r}")
    return node


class ComponentConfig:
    def __init__(
        self, label: str, mu: float, nu: float, grid: Grid1D, source: str, substeps: int,
        solve_energy: float | None,
    ) -> None:
        self.label, self.mu, self.nu, self.grid = label, mu, nu, grid
        self.source, self.substeps, self.solve_energy = source, substeps, solve_energy


class RunConfig:
    def __init__(
        self, symmetry: SymmetryRow, constants: PhysConstants,
        quantum_numbers: QuantumNumbers, potentials: dict[str, PotentialSpec],
        components: dict[str, ComponentConfig], tolerance: float, hbar_scan: tuple[float, ...],
        probe_per_coordinate: int, out_dir: str, fmt: str,
    ) -> None:
        self.symmetry, self.constants, self.quantum_numbers = symmetry, constants, quantum_numbers
        self.potentials, self.components, self.tolerance = potentials, components, tolerance
        self.hbar_scan, self.probe_per_coordinate = hbar_scan, probe_per_coordinate
        self.out_dir, self.fmt = out_dir, fmt

    @property
    def has_full_set(self) -> bool:
        return set(self.components) == set(self.symmetry.coordinate_labels)


# each potential kind: its class and the fields it reads besides `kind`
_POTENTIALS = {
    "zero": (ZeroPotential, ()),
    "harmonic": (HarmonicPotential, ("omega",)),
    "coulomb": (CoulombPotential, ("strength",)),
    "power": (PowerLawPotential, ("coefficient", "exponent")),
    "tabulated": (TabulatedPotential, ("points", "values")),
}


def potential_from_mapping(mapping, path: str) -> PotentialSpec:
    m = _expect_mapping(mapping, path)
    kind = _get(m, "kind", path)
    if not isinstance(kind, str) or kind not in _POTENTIALS:
        raise ConfigError(
            f"{path}.kind: unknown potential kind {kind!r} "
            "(expected zero, harmonic, coulomb, power or tabulated)"
        )
    cls, fields = _POTENTIALS[kind]
    _expect_mapping(m, path, ("kind", *fields))
    try:
        if kind == "tabulated":
            return TabulatedPotential(_get(m, "points", path), _get(m, "values", path))
        return cls(**{f: _number(_get(m, f, path), f"{path}.{f}") for f in fields})
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _grid_spec(mapping, path: str, label: str) -> Grid1D:
    m = _expect_mapping(mapping, path, ("min", "max", "count"))
    lo = _number(_get(m, "min", path), f"{path}.min")
    hi = _number(_get(m, "max", path), f"{path}.max")
    count = _integer(_get(m, "count", path), f"{path}.count")
    try:
        grid = Grid1D(lo, hi, count)
        check_coordinates(label, grid.points)
    except (ValueError, GridDomainError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return grid


def _component_config(label: str, mapping, path: str) -> ComponentConfig:
    fields = ("mu", "nu", "grid", "source", "substeps", "solve_energy")
    m = _expect_mapping(mapping, path, fields)
    mu = _number(_get(m, "mu", path), f"{path}.mu")
    nu = _number(_get(m, "nu", path), f"{path}.nu")
    if mu * nu == 1.0:
        raise ConfigError(f"{path}: mu*nu = 1 is a degenerate mixing")
    grid = _grid_spec(_get(m, "grid", path), f"{path}.grid", label)
    source = m.get("source", "numeric")
    if source not in ("numeric", "analytic"):
        raise ConfigError(f"{path}.source: expected 'numeric' or 'analytic', got {source!r}")
    substeps = _integer(m.get("substeps", 1), f"{path}.substeps")
    if substeps < 1:
        raise ConfigError(f"{path}.substeps: must be >= 1, got {substeps}")
    if (grid.n - 1) * substeps > MAX_RK4_STEPS:
        raise ConfigError(
            f"{path}.substeps: {substeps} substeps on {grid.n - 1} grid cells make "
            f"{(grid.n - 1) * substeps} RK4 steps, more than {MAX_RK4_STEPS}"
        )
    solve_energy = m.get("solve_energy")
    if solve_energy is not None:
        solve_energy = _number(solve_energy, f"{path}.solve_energy")
    return ComponentConfig(
        label=label,
        mu=mu,
        nu=nu,
        grid=grid,
        source=source,
        substeps=substeps,
        solve_energy=solve_energy,
    )


def parse_config(data: dict) -> RunConfig:
    root = _expect_mapping(data, "config")

    sym_raw = _get(root, "symmetry", "config")
    # only a name is looked up: a list or mapping is unhashable
    row = SYMMETRY_TABLE.get(sym_raw) if isinstance(sym_raw, str) else None
    if row is None:
        raise ConfigError(
            f"config.symmetry: unknown symmetry {sym_raw!r} "
            "(expected cartesian, spherical or cylindrical)"
        )
    labels, potential_labels = row.coordinate_labels, row.potential_labels
    # one `potentials:` entry per axis, or the single radial `potential:`
    per_axis = potential_labels == labels
    _expect_mapping(root, "config", (
        "symmetry", "potentials" if per_axis else "potential", "constants", "quantum_numbers",
        "components", "tolerance", "hbar_scan", "probe_points_per_coordinate", "output",
    ))

    # the records hold the defaults: each is built from the keys present only
    cmap = _expect_mapping(root.get("constants", {}), "config.constants", ("hbar", "mass"))
    try:
        constants = PhysConstants(
            **{k: _number(cmap[k], f"constants.{k}") for k in ("hbar", "mass") if k in cmap}
        )
    except ValueError as exc:
        raise ConfigError(f"config.constants: {exc}") from exc

    qmap = _expect_mapping(
        root.get("quantum_numbers", {}), "config.quantum_numbers", row.quantum_numbers
    )
    axis_energies = _expect_mapping(
        qmap.get("axis_energies", {}), "quantum_numbers.axis_energies", labels
    )
    read = {"ell": _integer, "m_ell": _integer, "m_phi": _integer, "beta": _number,
            "energy": _number}
    try:
        quantum_numbers = QuantumNumbers(
            **{k: read[k](qmap[k], f"quantum_numbers.{k}") for k in read if k in qmap},
            axis_energies={
                str(k): _number(v, f"quantum_numbers.axis_energies.{k}")
                for k, v in axis_energies.items()
            },
        )
    except ValueError as exc:
        raise ConfigError(f"config.quantum_numbers: {exc}") from exc

    potentials: dict[str, PotentialSpec] = {}
    if per_axis:
        pmap = _expect_mapping(root.get("potentials", {}), "config.potentials")
        for key, sub in pmap.items():
            if key not in labels:
                raise ConfigError(
                    f"config.potentials.{key}: unknown axis (expected {', '.join(labels)})"
                )
            potentials[key] = potential_from_mapping(sub, f"potentials.{key}")
    else:
        praw = root.get("potential")
        potentials[potential_labels[0]] = (
            potential_from_mapping(praw, "potential") if praw is not None else ZeroPotential()
        )

    comp_map = _expect_mapping(_get(root, "components", "config"), "config.components")
    if not comp_map:
        raise ConfigError("config.components: at least one component is required")
    components: dict[str, ComponentConfig] = {}
    for key, sub in comp_map.items():
        if key not in labels:
            raise ConfigError(
                f"config.components.{key}: not a coordinate of {row.value} "
                f"(expected one of {list(labels)})"
            )
        components[key] = _component_config(key, sub, f"components.{key}")

    for key, pot in potentials.items():
        if isinstance(pot, TabulatedPotential) and key in components:
            q, table = components[key].grid.points, pot.points
            if q[0] < table[0] or q[-1] > table[-1]:
                path = f"potentials.{key}" if per_axis else "potential"
                raise ConfigError(
                    f"{path}: table on [{table[0]}, {table[-1]}] does not cover the {key} "
                    f"grid [{q[0]}, {q[-1]}]"
                )

    if per_axis:
        for key in components:
            potentials.setdefault(key, ZeroPotential())
            if key not in quantum_numbers.axis_energies:
                raise ConfigError(
                    f"config.quantum_numbers.axis_energies: missing energy for axis {key!r}"
                )
        if set(components) == set(labels):
            try:
                quantum_numbers.check_axis_energies(labels)
            except ValueError as exc:
                raise ConfigError(f"config.quantum_numbers: {exc}") from exc

    tolerance = _number(root.get("tolerance", 1e-6), "config.tolerance")
    if tolerance <= 0.0:
        raise ConfigError(f"config.tolerance: must be positive, got {tolerance}")

    scan_raw = root.get("hbar_scan")
    if scan_raw is None:
        hbar_scan = DEFAULT_HBAR_SCAN
    else:
        if not isinstance(scan_raw, (list, tuple)):
            raise ConfigError("config.hbar_scan: expected a list of numbers")
        hbar_scan = tuple(_number(v, f"config.hbar_scan[{i}]") for i, v in enumerate(scan_raw))
        try:
            hbar_scan_values(hbar_scan)
        except QshjeError as exc:
            raise ConfigError(f"config.hbar_scan: {exc}") from exc

    probe = _integer(
        root.get("probe_points_per_coordinate", 5), "config.probe_points_per_coordinate"
    )
    if not 2 <= probe <= MAX_PROBE_POINTS:
        bound = ">= 2" if probe < 2 else f"<= {MAX_PROBE_POINTS}"
        raise ConfigError(f"config.probe_points_per_coordinate: must be {bound}, got {probe}")

    omap = _expect_mapping(root.get("output", {}), "config.output", ("directory", "format"))
    fmt = omap.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"config.output.format: expected 'csv' or 'json', got {fmt!r}")
    out_dir = omap.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"config.output.directory: expected a string, got {out_dir!r}")

    for key in labels:
        comp = components.get(key)
        if comp is None or comp.source != "analytic":
            continue
        if comp.solve_energy is not None:
            raise ConfigError(f"components.{key}.solve_energy: not applicable to an analytic pair")
        if key not in row.analytic:
            raise ConfigError(
                f"components.{key}.source: no analytic catalog for this coordinate; "
                "use source: numeric"
            )

    return RunConfig(
        symmetry=row,
        constants=constants,
        quantum_numbers=quantum_numbers,
        potentials=potentials,
        components=components,
        tolerance=tolerance,
        hbar_scan=hbar_scan,
        probe_per_coordinate=probe,
        out_dir=out_dir,
        fmt=fmt,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = _read_yaml(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except (ConfigError, ValueError) as exc:  # ValueError: a text that is not UTF-8
        raise ConfigError(f"config file {path!r} is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(f"config file {path!r} is empty")
    return parse_config(data)
