"""Seeded input generation for the three benchmark components.

Only this module turns the workload seed into inputs; the program under
test receives the generated values and nothing else. Each component has
three sizes: "full" (the component is the workload's focus), "probe" (a
small fixed control set run beside another workload's focus, so that
every workload reports every metric) and "tiny" (the smoke run).

Sizes never depend on the seed; the seed only moves parameters (axes,
states, levels, amplitudes, couplings), so every seed does the same
amount of work.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# -------------------------------------------------------------- orbit

ORBIT_SIZES = {
    # scalar queries, brach pairs, pure pairs, scan grids
    "full": (400, 100, 100, (40, 56, 72, 88, 104, 120)),
    "probe": (40, 10, 10, (40,)),
    "tiny": (8, 4, 4, (12,)),
}


@dataclass
class Query:
    axis: np.ndarray
    omega0: float
    r: np.ndarray
    delta: float
    reachable: bool  # decided here, from |n x r| computed independently
    t_probe: float  # evolution time used when the level is unreachable


@dataclass
class OrbitInputs:
    queries: list
    brach: list  # (r1, r2, omega0)
    pure: list  # (psi1, psi2, omega0)
    scans: list  # (axis, omega0, theta_psi, grid)

    @property
    def n_queries(self) -> int:
        return len(self.queries) + len(self.brach) + len(self.pure)

    @property
    def lattice_points(self) -> int:
        return sum(g ** 3 for *_, g in self.scans)


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def orbit_inputs(seed: int, size: str) -> OrbitInputs:
    rng = np.random.default_rng([seed, 1])
    nq, nb, npure, grids = ORBIT_SIZES[size]
    # The mix is fixed by position, not drawn, so every seed makes the same
    # calls: every 4th state is pure, every 2nd level is reachable, every
    # 20th unreachable level is delta = 0.
    queries = []
    while len(queries) < nq:
        i = len(queries)
        axis = rng.normal(size=3)
        n = axis / np.linalg.norm(axis)
        r = _unit(rng) * (1.0 if i % 4 == 0 else rng.uniform(0.1, 1.0))
        s = float(np.linalg.norm(np.cross(n, r)))
        reachable = i % 2 == 0
        if reachable:
            target = float(rng.uniform(0.0, s))
        else:
            target = 1.0 if i % 20 == 1 else float(rng.uniform(s, 1.0))
        # keep clear of the degenerate orbit and of the reachability edge,
        # where the package's documented 1e-12 slack would decide the verdict
        if s < 1e-3 or abs(target - s) < 1e-6:
            continue
        queries.append(Query(axis, float(rng.uniform(0.5, 2.0)), r, 0.5 * (1.0 - target),
                             reachable, float(rng.uniform(0.0, 3.0))))
    brach = []
    while len(brach) < nb:
        i = len(brach)
        r1 = _unit(rng) * rng.uniform(0.2, 1.0)
        if i % 20 == 0:
            r2 = r1.copy()
        elif i % 20 == 10:
            r2 = -r1
        else:
            r2 = _unit(rng) * np.linalg.norm(r1)
            if np.linalg.norm(np.cross(r1, r2)) < 1e-3 * float(r1 @ r1):
                continue
        brach.append((r1, r2, float(rng.uniform(0.5, 2.0))))
    pure = []
    while len(pure) < npure:
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi1 = z / np.linalg.norm(z)
        perp = np.array([-np.conj(psi1[1]), np.conj(psi1[0])])
        theta = float(rng.uniform(0.05, np.pi - 0.05))
        psi2 = np.cos(theta) * psi1 + np.sin(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * perp
        pure.append((psi1, psi2, float(rng.uniform(0.5, 2.0))))
    scans = [(rng.normal(size=3), float(rng.uniform(0.5, 2.0)),
              float(rng.uniform(0.05, 0.35)), g) for g in grids]
    return OrbitInputs(queries, brach, pure, scans)


# ------------------------------------------------------------- cavity

# (label, n_max, steps, frame, detuned, |alpha| range or Fock range)
CAVITY_SWEEPS = {
    "full": [
        ("coherent", 60, 1500, "lab", False, (1.5, 4.0)),
        ("coherent", 200, 20000, "rotating", True, (6.0, 9.0)),
        ("cat_even", 80, 6000, "lab", False, (2.0, 5.0)),
        ("cat_odd", 120, 3000, "rotating", True, (3.0, 6.0)),
        ("e0", 100, 12000, "lab", True, (2.0, 5.0)),
        ("fock", 60, 2500, "rotating", True, (0, 40)),
        ("custom", 400, 8000, "lab", False, (100.0, 200.0)),
        ("fock", 400, 1500, "lab", False, (50, 350)),
    ],
    "probe": [
        ("coherent", 40, 2000, "lab", False, (1.5, 3.0)),
        ("fock", 30, 1500, "rotating", True, (0, 20)),
    ],
    "tiny": [
        ("coherent", 20, 200, "lab", False, (1.0, 1.5)),
        ("fock", 12, 150, "rotating", True, (0, 8)),
        ("custom", 24, 300, "lab", True, (4.0, 6.0)),
    ],
}

# Kraus batch: (calls per function, field specs (label, n_max, |alpha| range))
KRAUS_SIZES = {
    "full": (50, [("coherent", 60, (1.5, 4.0)), ("cat_even", 100, (2.0, 5.0)),
                  ("e0", 200, (4.0, 8.0)), ("custom", 150, (30.0, 60.0))]),
    "probe": (4, [("coherent", 40, (1.5, 3.0))]),
    "tiny": (2, [("coherent", 20, (1.0, 1.3))]),
}
# passes over the Kraus batch per round: a full cavity round is long, and
# these short calls need many repetitions for their best times
KRAUS_REPS = {"full": 8, "probe": 1, "tiny": 1}

DELTAS = (0.45, 0.4, 0.35, 0.3, 0.25, 0.2)


@dataclass
class Sweep:
    label: str
    n_max: int
    steps: int
    frame: str
    omega0: float
    g: float
    detuning: float
    t_max: float
    r0: np.ndarray
    alpha: complex = 0j  # Fock: the occupation, as a real integer
    amps: np.ndarray | None = None  # custom fields only
    deltas: tuple = DELTAS

    @property
    def block_evals(self) -> int:
        return self.steps * self.n_max


@dataclass
class KrausCall:
    fn: str  # "jc_propagate" or "kraus_support"
    field: int  # index into CavityInputs.kraus_fields
    t: float
    rho: np.ndarray


@dataclass
class CavityInputs:
    sweeps: list
    kraus_specs: list  # (label, n_max, alpha, amps, omega0, g, detuning, frame)
    kraus_calls: list
    kraus_reps: int = 1  # passes over kraus_calls per round
    kraus_fields: list = field(default_factory=list)  # built by prepare()

    @property
    def block_evals(self) -> int:
        return sum(s.block_evals for s in self.sweeps)


def _custom_amps(rng, n_max: int, mean: float) -> np.ndarray:
    # Poisson-shaped magnitudes with independent random phases
    n = np.arange(n_max + 1)
    logmag = 0.5 * (n * math.log(mean) - mean - np.array([math.lgamma(k + 1.0) for k in n]))
    mag = np.exp(logmag)
    amps = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n.size))
    return amps / np.linalg.norm(amps)


def _random_rho(rng) -> np.ndarray:
    r = _unit(rng) * rng.uniform(0.0, 1.0)
    return 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1 - r[2]]])


def _alpha(rng, label: str, lo, hi):
    if label == "fock":
        return complex(int(rng.integers(lo, hi + 1)))
    if label == "custom":
        return complex(rng.uniform(lo, hi))  # mean photon number of the envelope
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def cavity_inputs(seed: int, size: str) -> CavityInputs:
    rng = np.random.default_rng([seed, 2])
    sweeps = []
    for label, n_max, steps, frame, detuned, (lo, hi) in CAVITY_SWEEPS[size]:
        omega0 = float(rng.uniform(0.8, 1.25))
        g = float(rng.uniform(0.03, 0.08)) * omega0
        det = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.1) * omega0) if detuned else 0.0
        alpha = _alpha(rng, label, lo, hi)
        if label == "fock":
            # z-polar qubit: the whole series then has a closed form
            r0 = np.array([0.0, 0.0, rng.uniform(-1.0, 1.0)])
        else:
            r0 = _unit(rng) * rng.uniform(0.3, 1.0)
        amps = _custom_amps(rng, n_max, alpha.real) if label == "custom" else None
        sweeps.append(Sweep(label, n_max, steps, frame, omega0, g, det,
                            float(rng.uniform(60.0, 160.0)) / omega0, r0, alpha, amps))
    per_fn, fspecs = KRAUS_SIZES[size]
    kraus_specs = []
    for label, n_max, (lo, hi) in fspecs:
        alpha = _alpha(rng, label, lo, hi)
        amps = _custom_amps(rng, n_max, alpha.real) if label == "custom" else None
        kraus_specs.append((label, n_max, alpha, amps, 1.0, float(rng.uniform(0.03, 0.08)),
                            float(rng.uniform(-0.05, 0.05)), str(rng.choice(["lab", "rotating"]))))
    calls = []
    for fn in ("jc_propagate", "kraus_support"):
        for i in range(per_fn):
            calls.append(KrausCall(fn, i % len(kraus_specs), float(rng.uniform(0.0, 100.0)),
                                   _random_rho(rng)))
    return CavityInputs(sweeps, kraus_specs, calls, KRAUS_REPS[size])


# ---------------------------------------------------------------- cli

CLI_SIZES = {
    # qsl reachable, qsl unreachable, brach, cavity-from-file (n_max, steps),
    # cavity-from-flags (n_max, steps), scan grid, scans
    "full": (2, 2, 2, (100, 12000), (60, 8000), 80, 2),
    "probe": (1, 0, 1, None, (20, 2000), 36, 1),
    "tiny": (1, 1, 1, (24, 300), (12, 200), 16, 1),
}


@dataclass
class Invocation:
    command: str  # qsl | brach | cavity | scan
    args: list  # argv after the program name; paths are relative to the round dir
    expect_exit: int
    malformed: bool = False
    outputs: list = field(default_factory=list)  # files the command writes
    params: dict = field(default_factory=dict)  # resolved inputs, for the checks


@dataclass
class CliInputs:
    invocations: list
    files: dict  # name -> text, written into the work directory before the loop


def _fmt3(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def _qsl(rng, idx: int, reachable: bool) -> Invocation:
    while True:
        axis = rng.normal(size=3)
        n = axis / np.linalg.norm(axis)
        r = _unit(rng) * rng.uniform(0.3, 1.0)
        s = float(np.linalg.norm(np.cross(n, r)))
        if s < 0.05:
            continue
        target = rng.uniform(0.0, s - 1e-3) if reachable else rng.uniform(s + 1e-3, s + 0.5)
        if target <= 1.0:
            break
    delta = 0.5 * (1.0 - target)
    omega0 = float(rng.uniform(0.5, 2.0))
    csv = f"qsl{idx}.csv"
    args = ["qsl", "--axis=" + _fmt3(axis), "--bloch=" + _fmt3(r), "--delta=" + repr(delta),
            "--omega0=" + repr(omega0), "--csv=" + csv]
    return Invocation("qsl", args, 0 if reachable else 2, outputs=[csv],
                      params={"axis": axis, "r": r, "delta": delta, "omega0": omega0})


def _brach(rng) -> Invocation:
    while True:
        r1 = _unit(rng) * rng.uniform(0.2, 1.0)
        r2 = _unit(rng) * np.linalg.norm(r1)
        if np.linalg.norm(np.cross(r1, r2)) > 1e-2 * float(r1 @ r1):
            break
    omega0 = float(rng.uniform(0.5, 2.0))
    args = ["brach", "--r1=" + _fmt3(r1), "--r2=" + _fmt3(r2), "--omega0=" + repr(omega0)]
    return Invocation("brach", args, 0, params={"r1": r1, "r2": r2, "omega0": omega0})


def _cavity_params(rng, label: str, n_max: int, steps: int) -> dict:
    omega0 = float(rng.uniform(0.8, 1.25))
    if label == "fock":
        alpha = complex(int(rng.integers(0, n_max // 2)))
        r0 = np.array([0.0, 0.0, rng.uniform(-1.0, 1.0)])
    else:
        amax = 0.35 * math.sqrt(n_max)
        alpha = complex(rng.uniform(0.3, amax) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        r0 = _unit(rng) * rng.uniform(0.3, 1.0)
    return {
        "omega0": omega0,
        "g": float(rng.uniform(0.03, 0.08)) * omega0,
        "detuning": float(rng.uniform(-0.05, 0.05)) * omega0,
        "n_max": n_max,
        "frame": str(rng.choice(["lab", "rotating"])),
        "t_max": float(rng.uniform(60.0, 160.0)) / omega0,
        "steps": steps,
        "label": label,
        "alpha": alpha,
        "r0": r0,
        "deltas": [0.45, 0.35, 0.25],
    }


def _cavity_from_file(rng, n_max: int, steps: int) -> tuple[Invocation, str]:
    p = _cavity_params(rng, str(rng.choice(["coherent", "cat_even", "e0"])), n_max, steps)
    scenario = {
        "omega0": p["omega0"], "g": p["g"], "detuning": p["detuning"], "n_max": n_max,
        "frame": p["frame"], "t_max": p["t_max"], "steps": steps,
        "field": {"label": p["label"], "alpha_re": p["alpha"].real, "alpha_im": p["alpha"].imag},
        "qubit": {"rx": p["r0"][0], "ry": p["r0"][1], "rz": p["r0"][2]},
    }
    args = ["cavity", "--scenario", "scenario.json", "--out", "cavity_file.csv"]
    for d in p["deltas"]:
        args += ["--delta=" + repr(d)]
    return Invocation("cavity", args, 0, outputs=["cavity_file.csv"], params=p), json.dumps(scenario)


def _cavity_from_flags(rng, n_max: int, steps: int) -> Invocation:
    p = _cavity_params(rng, "fock", n_max, steps)
    args = ["cavity", "--field", "fock", "--alpha=" + repr(p["alpha"].real),
            "--qubit=" + _fmt3(p["r0"]), "--omega0=" + repr(p["omega0"]), "--g=" + repr(p["g"]),
            "--detuning=" + repr(p["detuning"]), "--n-max=" + str(n_max), "--frame=" + p["frame"],
            "--t-max=" + repr(p["t_max"]), "--steps=" + str(steps), "--out", "cavity_flags.csv"]
    for d in p["deltas"]:
        args += ["--delta=" + repr(d)]
    return Invocation("cavity", args, 0, outputs=["cavity_flags.csv"], params=p)


def _scan(rng, grid: int, idx: int) -> Invocation:
    axis = rng.normal(size=3)
    theta = float(rng.uniform(0.1, 0.3))  # most of the ball: the CSV size barely moves with the seed
    omega0 = float(rng.uniform(0.5, 2.0))
    args = ["scan", "--theta-psi=" + repr(theta), "--grid=" + str(grid), "--axis=" + _fmt3(axis),
            "--omega0=" + repr(omega0), "--out", f"scan{idx}.csv"]
    return Invocation("scan", args, 0, outputs=[f"scan{idx}.csv"],
                      params={"axis": axis, "theta": theta, "omega0": omega0, "grid": grid})


# Faults reproduced in the program; each should exit 1 with a one-line
# diagnostic once mended. None depends on the seed.
NULL_ALPHA_SCENARIO = json.dumps({"n_max": 30, "steps": 64,
                                  "field": {"label": "coherent", "alpha_re": None, "alpha_im": 0.0}})
MALFORMED = [
    ("qsl_nan_bloch", ["qsl", "--axis", "0,0,1", "--bloch", "nan,0,0", "--delta", "0.1"], []),
    ("cavity_nan_detuning", ["cavity", "--field", "fock", "--alpha", "1", "--n-max", "8",
                             "--steps", "64", "--detuning", "nan", "--out", "m_det.csv"],
     ["m_det.csv"]),
    ("cavity_inf_t_max", ["cavity", "--field", "fock", "--alpha", "1", "--n-max", "8",
                          "--steps", "64", "--t-max", "inf", "--out", "m_tmax.csv"],
     ["m_tmax.csv"]),
    ("cavity_null_alpha", ["cavity", "--scenario", "null_alpha.json", "--out", "m_null.csv"],
     ["m_null.csv"]),
]


def cli_inputs(seed: int, size: str, malformed: bool) -> CliInputs:
    rng = np.random.default_rng([seed, 3])
    n_reach, n_unreach, n_brach, from_file, from_flags, grid, n_scan = CLI_SIZES[size]
    inv = [_qsl(rng, i, True) for i in range(n_reach)]
    inv += [_qsl(rng, n_reach + i, False) for i in range(n_unreach)]
    inv += [_brach(rng) for _ in range(n_brach)]
    files = {}
    if from_file is not None:
        call, text = _cavity_from_file(rng, *from_file)
        inv.append(call)
        files["scenario.json"] = text
    inv.append(_cavity_from_flags(rng, *from_flags))
    inv += [_scan(rng, grid, i) for i in range(n_scan)]
    if malformed:
        files["null_alpha.json"] = NULL_ALPHA_SCENARIO
        for name, args, outs in MALFORMED:
            inv.append(Invocation(name, args, 1, malformed=True, outputs=outs))
    return CliInputs(inv, files)


def write_files(inputs: CliInputs, directory: Path) -> None:
    for name, text in inputs.files.items():
        (directory / name).write_text(text)
