"""Seeded inputs and job cycles of the three benchmark workloads.

A workload is a fixed cycle of CLI jobs. The seed draws the physics of every
job (mixings, quantum numbers, energies, frequencies) while grid sizes, probe
counts and scan lengths stay fixed per workload, so the seed changes what is
computed and not how much. The program only ever sees the generated YAML.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import yaml

TWO_PI = 6.283185307179586

# Number of distinct seeded input sets per workload; job i of a run uses set
# (i // cycle length) modulo this, so the inputs do not depend on how many
# jobs the time budget allows.
INPUT_SETS = 4


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its outputs must show.

    `expect_rc` is the exit code the job must return; `expect` holds what
    else the checker compares against: a minimum probe count, the energy
    offset of a wrong-energy pair, the number of hbar values of a scan.
    """

    name: str
    command: str
    config: dict
    flags: tuple[str, ...] = ()
    expect_rc: int = 0
    expect: dict = field(default_factory=dict)

    def config_text(self) -> str:
        return yaml.safe_dump(self.config, sort_keys=True)

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir, *self.flags]


def _mixing(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(-0.6, 0.6), 6), round(rng.uniform(-0.6, 0.6), 6)


def _ell_m(rng: random.Random) -> tuple[int, int]:
    ell = rng.choice((0, 1, 2))
    return ell, rng.randint(-ell, ell)


def _bound_energy(rng: random.Random, ell: int) -> float:
    n = rng.randint(ell + 1, ell + 2)
    return -1.0 / (2.0 * n * n)


def _component(rng, lo, hi, count, source="numeric", **extra) -> dict:
    mu, nu = _mixing(rng)
    comp = {"mu": mu, "nu": nu, "grid": {"min": lo, "max": hi, "count": count}, "source": source}
    if source == "numeric":
        comp["substeps"] = 4
    comp.update(extra)
    return comp


def hydrogen(rng, n_r=1601, n_theta=1201, n_phi=721, **top) -> dict:
    ell, m = _ell_m(rng)
    return {
        "symmetry": "spherical",
        "potential": {"kind": "coulomb", "strength": 1.0},
        "quantum_numbers": {"ell": ell, "m_ell": m, "energy": _bound_energy(rng, ell)},
        "components": {
            "r": _component(rng, 0.5, 12.0, n_r),
            "theta": _component(rng, 0.2, 2.9415926535897931, n_theta),
            "phi": _component(rng, 0.0, TWO_PI, n_phi, source="analytic"),
        },
        "tolerance": 1.0e-6,
        **top,
    }


def oscillator(rng, count=1201, **top) -> dict:
    omega = round(rng.uniform(0.8, 1.25), 6)
    axis = {lab: omega * (rng.randint(0, 2) + 0.5) for lab in ("x", "y", "z")}
    energy = 0.0
    for lab in ("x", "y", "z"):
        energy += axis[lab]
    return {
        "symmetry": "cartesian",
        "potentials": {lab: {"kind": "harmonic", "omega": omega} for lab in axis},
        "quantum_numbers": {"energy": energy, "axis_energies": axis},
        "components": {lab: _component(rng, -6.0, 6.0, count) for lab in axis},
        "tolerance": 1.0e-7,
        **top,
    }


def _cylinder_numbers(rng) -> dict:
    return {
        "m_phi": rng.randint(-2, 2),
        "beta": round(rng.uniform(-1.2, -0.3), 6),
        "energy": round(rng.uniform(0.8, 1.3), 6),
    }


def cylindrical(rng) -> dict:
    return {
        "symmetry": "cylindrical",
        "potential": {"kind": "zero"},
        "quantum_numbers": _cylinder_numbers(rng),
        "components": {
            "rho": _component(rng, 0.3, 12.0, 1601),
            "phi": _component(rng, 0.0, TWO_PI, 721, source="analytic"),
            "z": _component(rng, -3.0, 3.0, 601, source="analytic"),
        },
        "tolerance": 1.0e-6,
    }


def wrong_energy(rng) -> tuple[dict, float]:
    """Radial pair solved at a bound energy, verified at a shifted one."""
    ell, _ = _ell_m(rng)
    e_solve = _bound_energy(rng, ell)
    offset = round(rng.uniform(0.05, 0.15), 6)
    cfg = {
        "symmetry": "spherical",
        "potential": {"kind": "coulomb", "strength": 1.0},
        "quantum_numbers": {"ell": ell, "energy": e_solve + offset},
        "components": {"r": _component(rng, 0.5, 10.0, 2000, solve_energy=e_solve)},
        "tolerance": 1.0e-6,
    }
    return cfg, abs((e_solve + offset) - e_solve)


def azimuthal_identity(rng) -> dict:
    ell, m = _ell_m(rng)
    return {
        "symmetry": "spherical",
        "quantum_numbers": {"ell": ell, "m_ell": m},
        "components": {"phi": _component(rng, 0.0, TWO_PI, 721, source="analytic")},
        "tolerance": 1.0e-9,
    }


def cylindrical_partial(rng) -> dict:
    return {
        "symmetry": "cylindrical",
        "quantum_numbers": _cylinder_numbers(rng),
        "components": {
            "phi": _component(rng, 0.0, TWO_PI, 721, source="analytic"),
            "z": _component(rng, -3.0, 3.0, 601, source="analytic"),
        },
        "tolerance": 1.0e-6,
    }


def spin_spherical(rng) -> dict:
    cfg = hydrogen(rng, probe_points_per_coordinate=12)
    del cfg["components"]["phi"]
    return cfg


def spin_cylindrical(rng) -> dict:
    cfg = cylindrical(rng)
    cfg["probe_points_per_coordinate"] = 40
    del cfg["components"]["phi"], cfg["components"]["z"]
    return cfg


def _invalid_catalogue(rng) -> list[dict]:
    """Configs that must be refused with exit code 2, one defect each."""
    ell, m = _ell_m(rng)
    phi = _component(rng, 0.0, TWO_PI, 721, source="analytic")
    base = {"symmetry": "spherical", "quantum_numbers": {"ell": ell, "m_ell": m}}
    degenerate = dict(phi, mu=2.0, nu=0.5)
    theta = _component(rng, 0.0, 3.5, 401)
    short = dict(phi, grid={"min": 0.0, "max": TWO_PI, "count": 5})
    osc = oscillator(rng)
    osc["quantum_numbers"]["energy"] += 0.25
    return [
        {**base, "components": {"phi": degenerate}},
        {**base, "quantum_numbers": {"ell": ell, "m_ell": ell + 1}, "components": {"phi": phi}},
        {**base, "components": {"theta": theta}},
        {**base, "components": {"phi": short}},
        {**base, "symmetry": "toroidal", "components": {"phi": phi}},
        {**base, "potential": {"kind": "yukawa"}, "components": {"phi": phi}},
        osc,
    ]


def verify_numeric(rng: random.Random) -> list[Job]:
    wrong, offset = wrong_energy(rng)
    return [
        Job("verify-hydrogen", "verify", hydrogen(rng), expect={"probe_points_min": 125}),
        Job("verify-oscillator", "verify", oscillator(rng), expect={"probe_points_min": 125}),
        Job("verify-cylindrical", "verify", cylindrical(rng), expect={"probe_points_min": 125}),
        Job("verify-wrong-energy", "verify", wrong, expect_rc=1, expect={"offset": offset}),
        Job("solve-oscillator", "solve", oscillator(rng)),
    ]


def cold_analytic(rng: random.Random) -> list[Job]:
    invalid = rng.sample(_invalid_catalogue(rng), 2)
    return [
        Job("verify-azimuthal", "verify", azimuthal_identity(rng)),
        Job("verify-cylindrical-partial", "verify", cylindrical_partial(rng)),
        Job("spin-spherical", "spin-report", spin_spherical(rng)),
        Job("spin-cylindrical", "spin-report", spin_cylindrical(rng)),
        Job("invalid-a", "verify", invalid[0], expect_rc=2),
        Job("invalid-b", "solve", invalid[1], expect_rc=2),
    ]


# verify evaluates PROBES**3 lattice points once; limit-scan evaluates
# SCAN_PROBES**3 points once per hbar value.
PROBES = 20
SCAN_PROBES = 10
SCAN = [2.0 ** -k for k in range(8)]


def probe_dense(rng: random.Random) -> list[Job]:
    def top(probes):
        return {"probe_points_per_coordinate": probes, "hbar_scan": SCAN,
                "output": {"format": "json"}}

    def sph(probes):
        return hydrogen(rng, n_r=401, n_theta=401, n_phi=401, **top(probes))

    lattice = {"probe_points_min": int(0.9 * PROBES ** 3)}
    scan = {"probe_points_min": int(0.9 * SCAN_PROBES ** 3), "hbar_values": len(SCAN)}
    demo = ("--wrong-order-demo",)
    # An odd number of job kinds puts the median job inside one kind's
    # group of times rather than in the gap between two kinds.
    return [
        Job("verify-spherical", "verify", sph(PROBES), expect=lattice),
        Job("verify-spherical-parallel", "verify", sph(PROBES), ("--parallel", "2"),
            expect=lattice),
        Job("verify-cartesian-parallel", "verify", oscillator(rng, count=401, **top(PROBES)),
            ("--parallel", "2"), expect=lattice),
        Job("scan-spherical", "limit-scan", sph(SCAN_PROBES), demo, expect=scan),
        Job("scan-spherical-parallel", "limit-scan", sph(SCAN_PROBES),
            (*demo, "--parallel", "2"), expect=scan),
    ]


# cold-analytic runs by name but is not listed in BENCHMARK.json: its cost is
# mostly start-up, which setup_s measures on every listed workload.
WORKLOADS = {
    "verify-numeric": verify_numeric,
    "cold-analytic": cold_analytic,
    "probe-dense": probe_dense,
}


def input_sets(workload: str, seed: int) -> list[list[Job]]:
    """The INPUT_SETS seeded job cycles of one workload."""
    build = WORKLOADS[workload]
    return [build(random.Random(f"{workload}:{seed}:{k}")) for k in range(INPUT_SETS)]


def digest(sets: list[list[Job]]) -> str:
    h = hashlib.sha256()
    for cycle in sets:
        for job in cycle:
            h.update(job.name.encode())
            h.update(" ".join(job.flags).encode())
            h.update(job.config_text().encode())
    return h.hexdigest()

