"""Run configuration: YAML schema, validation, and typed accessors.

A run file names a symmetry class, the potential, the constants of motion,
and one block per coordinate component with its mixing constants and grid.
Validation errors carry the dotted path of the offending field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .domain import (
    CoulombPotential,
    HarmonicPotential,
    PhysConstants,
    PotentialSpec,
    PowerLawPotential,
    QuantumNumbers,
    SymmetryClass,
    TabulatedPotential,
    ZeroPotential,
    check_coordinates,
)
from .errors import ConfigError, GridDomainError, QshjeError
from .ode_engine import Grid1D
from .residuals import SYMMETRY_TABLE, hbar_scan_values

DEFAULT_HBAR_SCAN = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)


def _expect_mapping(value, path: str, fields: tuple[str, ...] | None = None) -> dict:
    """value as a mapping; given fields, a key outside them is an error."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    for key in value:
        if fields is not None and key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field (expected {', '.join(fields)})")
    return value


def _get(mapping: dict, key: str, path: str, required: bool = True, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return mapping[key]


def _section(mapping: dict, key: str, path: str, fields: tuple[str, ...] | None = None) -> dict:
    """The optional sub-mapping at key, empty when absent."""
    value = _get(mapping, key, path, required=False, default={})
    return _expect_mapping(value, f"{path}.{key}", fields)


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


def positive_number(value, path: str) -> float:
    """A finite number > 0, else a ConfigError naming path."""
    v = _number(value, path)
    if v <= 0.0:
        raise ConfigError(f"{path}: must be positive, got {v}")
    return v


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    _number(value, path)  # every config number must be a finite float
    return value


@dataclass(frozen=True, eq=False, repr=False)
class ComponentConfig:
    label: str
    mu: float
    nu: float
    phase: float
    grid: Grid1D
    source: str = "numeric"
    substeps: int = 1
    solve_energy: float | None = None


@dataclass(frozen=True, eq=False, repr=False)
class RunConfig:
    symmetry: SymmetryClass
    constants: PhysConstants
    quantum_numbers: QuantumNumbers
    potentials: dict[str, PotentialSpec]
    components: dict[str, ComponentConfig]
    tolerance: float
    hbar_scan: tuple[float, ...]
    probe_per_coordinate: int
    out_dir: str
    fmt: str

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
    if kind == "tabulated":
        try:
            return TabulatedPotential(_get(m, "points", path), _get(m, "values", path))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return cls(**{f: _number(_get(m, f, path), f"{path}.{f}") for f in fields})


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
    fields = ("mu", "nu", "phase", "grid", "source", "substeps", "solve_energy")
    m = _expect_mapping(mapping, path, fields)
    mu = _number(_get(m, "mu", path), f"{path}.mu")
    nu = _number(_get(m, "nu", path), f"{path}.nu")
    if mu * nu == 1.0:
        raise ConfigError(f"{path}: mu*nu = 1 is a degenerate mixing")
    phase = _number(_get(m, "phase", path, required=False, default=0.0), f"{path}.phase")
    grid = _grid_spec(_get(m, "grid", path), f"{path}.grid", label)
    source = _get(m, "source", path, required=False, default="numeric")
    if source not in ("numeric", "analytic"):
        raise ConfigError(f"{path}.source: expected 'numeric' or 'analytic', got {source!r}")
    substeps = _integer(_get(m, "substeps", path, required=False, default=1), f"{path}.substeps")
    if substeps < 1:
        raise ConfigError(f"{path}.substeps: must be >= 1, got {substeps}")
    solve_energy = _get(m, "solve_energy", path, required=False)
    if solve_energy is not None:
        solve_energy = _number(solve_energy, f"{path}.solve_energy")
    return ComponentConfig(
        label=label,
        mu=mu,
        nu=nu,
        phase=phase,
        grid=grid,
        source=source,
        substeps=substeps,
        solve_energy=solve_energy,
    )


def parse_config(data: dict, source_name: str = "config") -> RunConfig:
    root = _expect_mapping(data, source_name)

    sym_raw = _get(root, "symmetry", source_name)
    try:
        symmetry = SymmetryClass(sym_raw)
    except ValueError:
        raise ConfigError(
            f"{source_name}.symmetry: unknown symmetry {sym_raw!r} "
            "(expected cartesian, spherical or cylindrical)"
        ) from None
    labels = symmetry.coordinate_labels
    potential_labels = SYMMETRY_TABLE[symmetry].potential_labels
    # one `potentials:` entry per axis, or the single radial `potential:`
    per_axis = potential_labels == labels
    _expect_mapping(root, source_name, (
        "symmetry", "potentials" if per_axis else "potential", "constants", "quantum_numbers",
        "components", "tolerance", "hbar_scan", "probe_points_per_coordinate", "output",
    ))

    cmap = _section(root, "constants", source_name, ("hbar", "mass"))
    try:
        constants = PhysConstants(
            hbar=_number(_get(cmap, "hbar", "constants", required=False, default=1.0), "constants.hbar"),
            mass=_number(_get(cmap, "mass", "constants", required=False, default=1.0), "constants.mass"),
        )
    except ValueError as exc:
        raise ConfigError(f"{source_name}.constants: {exc}") from exc

    qmap = _section(
        root, "quantum_numbers", source_name,
        ("ell", "m_ell", "m_phi", "beta", "energy", "axis_energies"),
    )
    axis_energies = _section(qmap, "axis_energies", "quantum_numbers", labels)
    try:
        quantum_numbers = QuantumNumbers(
            ell=_integer(_get(qmap, "ell", "quantum_numbers", required=False, default=0), "quantum_numbers.ell"),
            m_ell=_integer(_get(qmap, "m_ell", "quantum_numbers", required=False, default=0), "quantum_numbers.m_ell"),
            m_phi=_integer(_get(qmap, "m_phi", "quantum_numbers", required=False, default=0), "quantum_numbers.m_phi"),
            beta=_number(_get(qmap, "beta", "quantum_numbers", required=False, default=0.0), "quantum_numbers.beta"),
            energy=_number(_get(qmap, "energy", "quantum_numbers", required=False, default=0.0), "quantum_numbers.energy"),
            axis_energies={
                str(k): _number(v, f"quantum_numbers.axis_energies.{k}")
                for k, v in axis_energies.items()
            },
        )
    except ValueError as exc:
        raise ConfigError(f"{source_name}.quantum_numbers: {exc}") from exc

    potentials: dict[str, PotentialSpec] = {}
    if per_axis:
        pmap = _section(root, "potentials", source_name)
        for key, sub in pmap.items():
            if key not in labels:
                raise ConfigError(f"{source_name}.potentials.{key}: unknown axis (expected x, y, z)")
            potentials[key] = potential_from_mapping(sub, f"potentials.{key}")
    else:
        praw = _get(root, "potential", source_name, required=False)
        potentials[potential_labels[0]] = (
            potential_from_mapping(praw, "potential") if praw is not None else ZeroPotential()
        )

    comp_map = _expect_mapping(_get(root, "components", source_name), f"{source_name}.components")
    if not comp_map:
        raise ConfigError(f"{source_name}.components: at least one component is required")
    components: dict[str, ComponentConfig] = {}
    for key, sub in comp_map.items():
        if key not in labels:
            raise ConfigError(
                f"{source_name}.components.{key}: not a coordinate of {symmetry.value} "
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
                    f"{source_name}.quantum_numbers.axis_energies: missing energy for axis {key!r}"
                )
        if set(components) == set(labels):
            try:
                quantum_numbers.check_axis_energies(labels)
            except ValueError as exc:
                raise ConfigError(f"{source_name}.quantum_numbers: {exc}") from exc

    tolerance = positive_number(
        _get(root, "tolerance", source_name, required=False, default=1e-6), f"{source_name}.tolerance"
    )

    scan_raw = _get(root, "hbar_scan", source_name, required=False)
    if scan_raw is None:
        hbar_scan = DEFAULT_HBAR_SCAN
    else:
        if not isinstance(scan_raw, (list, tuple)):
            raise ConfigError(f"{source_name}.hbar_scan: expected a list of numbers")
        hbar_scan = tuple(
            _number(v, f"{source_name}.hbar_scan[{i}]") for i, v in enumerate(scan_raw)
        )
        try:
            hbar_scan_values(hbar_scan)
        except QshjeError as exc:
            raise ConfigError(f"{source_name}.hbar_scan: {exc}") from exc

    probe = _integer(
        _get(root, "probe_points_per_coordinate", source_name, required=False, default=5),
        f"{source_name}.probe_points_per_coordinate",
    )
    if probe < 2:
        raise ConfigError(f"{source_name}.probe_points_per_coordinate: must be >= 2, got {probe}")

    omap = _section(root, "output", source_name, ("directory", "format"))
    fmt = _get(omap, "format", "output", required=False, default="csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{source_name}.output.format: expected 'csv' or 'json', got {fmt!r}")
    out_dir = _get(omap, "directory", "output", required=False, default="out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"{source_name}.output.directory: expected a string, got {out_dir!r}")

    return RunConfig(
        symmetry=symmetry,
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
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: an integer past the interpreter's digit limit
        raise ConfigError(f"config file {path!r} is not valid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(f"config file {path!r} is empty")
    return parse_config(data, source_name="config")
