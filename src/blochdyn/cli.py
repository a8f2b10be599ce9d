"""Command-line surface: reachability reports, optimal-rotation reports,
cavity sweeps, and ring scans, as JSON scalars and CSV series.

Conventions shared by every subcommand:

* times in emitted data are dimensionless (raw time times omega0); report
  JSON additionally carries ``*_raw`` twins when omega0 != 1
* CSV cells use 15 significant digits and LF line endings
* JSON objects are emitted with sorted keys; non-finite floats become null
* exit status: 0 success (and "reachable" for qsl), 2 the qsl level is
  not reachable, 1 malformed input, domain errors or a stdout closed by
  its reader (CSVs go out in blocks of rows, so that happens mid-series)
* identical invocations produce byte-identical outputs; the QSL_THREADS
  environment variable caps --workers without affecting results
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from . import __version__
from .bloch import HamiltonianSpec, as_bloch, evolve_bloch, p_err_bloch
from .brachistochrone import brach_hamiltonian
from .cavity import CavityConfig, make_field, nonunitary_tau, perr_series
from .errors import BlochDynError
from .speedlimits import _ring_slabs, classify

__all__ = ["Scenario", "entrypoint", "main"]

_COMMANDS = ("qsl", "brach", "cavity", "scan")
_BLOCK_ROWS = 8192  # CSV rows per formatted block in _write_csv

# CavityConfig and perr_series own their defaults; field and qubit are the CLI's
_CAVITY_DEFAULTS = {
    **{f.name: f.default for f in fields(CavityConfig)},
    **{k: inspect.signature(perr_series).parameters[k].default for k in ("t_max", "steps")},
    "field": {"label": "coherent", "alpha_re": 3.0, "alpha_im": 0.0},
    "qubit": {"rx": 0.0, "ry": 0.0, "rz": 1.0},
}


@dataclass(frozen=True)
class Scenario:
    """One resolved invocation: command tag, parameter bundle, output sink.

    Round-trips losslessly through to_json / from_json.
    """

    command: str
    params: dict = dc_field(default_factory=dict)
    output: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command tag {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f'format must be "csv" or "json", got {self.fmt!r}')

    def _payload(self) -> dict:
        return {
            "command": self.command,
            "format": self.fmt,
            "output": self.output,
            "params": self.params,
        }

    def to_json(self) -> str:
        return json.dumps(self._payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        d = json.loads(text)
        return cls(
            command=d["command"],
            params=d.get("params", {}),
            output=d.get("output"),
            fmt=d.get("format", "csv"),
        )


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; this artifact reserves 2 for "level
    # not reachable", so usage errors are remapped to 1, with the one-line
    # diagnostic every failure gets (--help shows the usage).
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _vec3(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")


def _alpha(text: str) -> complex:
    try:
        if "," in text:
            re_s, im_s = text.split(",")
            return complex(float(re_s), float(im_s))
        return complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real or complex amplitude, got {text!r}")


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _emit_json(obj, stream=None) -> None:
    print(json.dumps(_jsonable(obj), sort_keys=True), file=stream or sys.stdout)


def _write_csv(dest: str, header: str, blocks) -> None:
    """Write CSV rows under header from an iterable of column blocks.

    Each block is a sequence of equal-length 1-D columns. A float column
    prints with %.15g; an object column holds its cells already formatted
    as strings. Rows go out _BLOCK_ROWS at a time, each through one
    %-operation on a repeated row template, so the text held at once stays
    bounded however long the series; a lazy iterable of blocks bounds the
    numbers held as well.
    """
    sink = contextlib.nullcontext(sys.stdout) if dest == "-" else open(dest, "w", newline="")
    with sink as fh:
        fh.write(header + "\n")
        for columns in blocks:
            row = ",".join("%s" if c.dtype == object else "%.15g" for c in columns) + "\n"
            for start in range(0, len(columns[0]), _BLOCK_ROWS):
                block = [c[start:start + _BLOCK_ROWS].tolist() for c in columns]
                fh.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))


def _worker_count(requested: int) -> int:
    cap = os.environ.get("QSL_THREADS")
    n = max(1, int(requested))
    if cap is not None:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"QSL_THREADS must be an integer, got {cap!r}")
    return n


def cmd_qsl(args) -> int:
    ham = HamiltonianSpec.from_axis(args.axis, omega0=args.omega0)
    rep = classify(args.bloch, ham, args.delta, ml_symmetrized=args.ml_symmetrized)
    w = ham.omega0
    out = {
        "reachable": rep.reachable,
        "tau_exact_omega0": None if rep.tau_exact is None else rep.tau_exact * w,
        "tau_mt_omega0": rep.tau_mt * w,
        "tau_ml_omega0": rep.tau_ml * w,
        "fisher": rep.fisher,
        "perp_norm": rep.perp_norm,
        "min_perr": rep.min_perr,
        "delta": float(args.delta),
        "omega0": w,
        "ml_symmetrized": bool(args.ml_symmetrized),
    }
    if w != 1.0:
        out["tau_exact_raw"] = rep.tau_exact
        out["tau_mt_raw"] = rep.tau_mt
        out["tau_ml_raw"] = rep.tau_ml
    _emit_json(out)
    if args.csv is not None:
        r0 = as_bloch(args.bloch)
        times = np.linspace(0.0, np.pi / w, 1001)
        p_err = np.array([p_err_bloch(r0, evolve_bloch(r0, ham, t)) for t in times])
        _write_csv(args.csv, "t_omega0,p_err", [[times * w, p_err]])
    return 0 if rep.reachable else 2


def cmd_brach(args) -> int:
    res = brach_hamiltonian(args.r1, args.r2, omega0=args.omega0)
    w = float(args.omega0)
    out = {
        "axis": list(res.axis),
        "T_omega0": res.duration * w,
        "phi12": res.phi12,
        "fisher_on_path": res.fisher_on_path,
        "omega0": w,
    }
    if w != 1.0:
        out["T_raw"] = res.duration
    _emit_json(out)
    return 0


def _resolve_cavity_params(args) -> dict:
    if args.scenario is not None:
        with open(args.scenario) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("scenario file must hold a JSON object")
    else:
        loaded = {}
    for key in ("field", "qubit"):
        if not isinstance(loaded.get(key, {}), dict):
            raise ValueError(f"scenario {key} must be a JSON object")

    p = {}
    for key, default in _CAVITY_DEFAULTS.items():
        if key in ("field", "qubit"):
            continue
        flag = getattr(args, key)
        p[key] = flag if flag is not None else loaded.get(key, default)

    # like unknown top-level keys, unknown field and qubit keys are ignored
    fld = dict(_CAVITY_DEFAULTS["field"])
    fld.update((k, v) for k, v in loaded.get("field", {}).items() if k in fld)
    if args.field is not None:
        fld["label"] = args.field
    if args.alpha is not None:
        fld["alpha_re"], fld["alpha_im"] = args.alpha.real, args.alpha.imag
    p["field"] = fld

    qb = dict(_CAVITY_DEFAULTS["qubit"])
    qb.update((k, v) for k, v in loaded.get("qubit", {}).items() if k in qb)
    if args.qubit is not None:
        qb["rx"], qb["ry"], qb["rz"] = args.qubit
    p["qubit"] = qb
    return p


def _number(value, name: str, integer: bool = False):
    """A finite scenario value as float (or int), else ValueError naming its key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    try:
        x = float(value)
    except OverflowError:  # an integer no float holds
        raise ValueError(f"{name} must be finite, got {len(str(value))} digits") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if integer:
        if not x.is_integer():
            raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
        return int(value)
    return x


def cmd_cavity(args) -> int:
    p = _resolve_cavity_params(args)
    fp, qp = p["field"], p["qubit"]
    cfg = CavityConfig(
        omega0=_number(p["omega0"], "omega0"),
        g=None if p["g"] is None else _number(p["g"], "g"),
        detuning=_number(p["detuning"], "detuning"),
        n_max=_number(p["n_max"], "n_max", integer=True),
        frame=str(p["frame"]),
    )
    p["g"] = cfg.g
    alpha = complex(_number(fp["alpha_re"], "field.alpha_re"),
                    _number(fp["alpha_im"], "field.alpha_im"))
    fld = make_field(str(fp["label"]), alpha, cfg.n_max)
    qubit_r = tuple(_number(qp[k], f"qubit.{k}") for k in ("rx", "ry", "rz"))

    series = perr_series(
        fld,
        qubit_r,
        cfg,
        t_max=None if p["t_max"] is None else _number(p["t_max"], "t_max"),
        steps=_number(p["steps"], "steps", integer=True),
        workers=_worker_count(args.workers),
    )
    if p["t_max"] is None:
        p["t_max"] = float(series.times[-1])  # the grid ends on perr_series' default
    scn = Scenario(command="cavity", params=p, output=args.out, fmt="csv")

    w = cfg.omega0
    taus = {}
    for d in args.delta or []:  # a bad level fails here, before any output
        t = nonunitary_tau(series, d)
        taus["%g" % d] = None if t is None else t * w
    _write_csv(args.out, "t_omega0,p_err", [[series.times * w, series.p_err]])

    i_min = int(np.argmin(series.p_err))
    summary = {
        "min_p_err": float(series.p_err[i_min]),
        "argmin_t_omega0": float(series.times[i_min] * w),
        "tau_omega0": taus,
        "scenario": scn._payload(),
    }
    if w != 1.0:
        summary["argmin_t_raw"] = float(series.times[i_min])
        summary["tau_raw"] = {
            k: (None if v is None else v / w) for k, v in taus.items()
        }
    # keep stdout pure CSV when the series itself goes there
    _emit_json(summary, stream=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def cmd_scan(args) -> int:
    ham = HamiltonianSpec.from_axis(args.axis, omega0=args.omega0)
    ticks, _, slabs = _ring_slabs(ham, args.theta_psi, args.grid)
    labels = np.array(["%.15g" % t for t in ticks.tolist()], dtype=object)
    shape = (ticks.size,) * 3
    w = ham.omega0
    blocks = ([*labels[np.stack(np.unravel_index(flat, shape))], tau * w, fisher]
              for flat, _, tau, fisher in slabs)
    _write_csv(args.out, "rx,ry,rz,tau_exact,fisher", blocks)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="blochdyn", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qsl", help="reachability of an error level and its speed limits")
    q.add_argument("--axis", type=_vec3, required=True, help="rotation axis nx,ny,nz")
    q.add_argument("--bloch", type=_vec3, required=True, help="initial Bloch vector rx,ry,rz")
    q.add_argument("--delta", type=float, required=True, help="target error level in [0, 1/2]")
    q.add_argument("--omega0", type=float, default=1.0)
    q.add_argument("--ml-symmetrized", action="store_true",
                   help="evaluate the mean-energy bound with |axis . r|")
    q.add_argument("--csv", default=None, metavar="PATH",
                   help="also write the orbit p_err series over one half-turn")
    q.set_defaults(fn=cmd_qsl)

    b = sub.add_parser("brach", help="time-optimal rotation between two Bloch vectors")
    b.add_argument("--r1", type=_vec3, required=True)
    b.add_argument("--r2", type=_vec3, required=True)
    b.add_argument("--omega0", type=float, default=1.0)
    b.set_defaults(fn=cmd_brach)

    c = sub.add_parser("cavity", help="qubit-mode sweep: p_err series and crossing times")
    c.add_argument("--scenario", default=None, metavar="FILE",
                   help="JSON descriptor; explicit flags override its entries")
    c.add_argument("--field", default=None,
                   choices=["coherent", "cat_even", "cat_odd", "e0", "fock"])
    c.add_argument("--alpha", type=_alpha, default=None,
                   help="field amplitude re[,im]; Fock occupation for --field fock")
    c.add_argument("--qubit", type=_vec3, default=None, help="initial Bloch vector")
    c.add_argument("--omega0", type=float, default=None)
    c.add_argument("--g", type=float, default=None, help="coupling, default omega0/20")
    c.add_argument("--detuning", type=float, default=None)
    c.add_argument("--n-max", dest="n_max", type=int, default=None)
    c.add_argument("--frame", default=None, choices=["lab", "rotating"])
    c.add_argument("--t-max", dest="t_max", type=float, default=None)
    c.add_argument("--steps", type=int, default=None)
    c.add_argument("--delta", type=float, action="append", default=None,
                   help="error level for crossing-time lookup; repeatable")
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--out", default="-", metavar="PATH",
                   help='CSV destination; "-" sends it to stdout and the summary to stderr')
    c.set_defaults(fn=cmd_cavity)

    s = sub.add_parser("scan", help="lattice scan of the fast ring around an axis")
    s.add_argument("--theta-psi", dest="theta_psi", type=float, required=True,
                   help="reference polar angle in [0, pi/2]")
    s.add_argument("--grid", type=int, required=True, help="lattice resolution per side")
    s.add_argument("--axis", type=_vec3, default=(0.0, 0.0, 1.0))
    s.add_argument("--omega0", type=float, default=1.0)
    s.add_argument("--out", default="-", metavar="PATH")
    s.set_defaults(fn=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every value is checked where it matters, so numpy's floating-point
        # warnings would only add lines to the one-line diagnostic
        with np.errstate(all="ignore"):
            code = args.fn(args)
        sys.stdout.flush()  # a reader that left early is reported here, not at exit
        return code
    except BrokenPipeError as exc:
        # stdout's reader is gone; point stdout at devnull so that the flush
        # at interpreter exit does not raise again (see the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"blochdyn: error: {exc}", file=sys.stderr)
        return 1
    except (BlochDynError, ValueError, OSError, MemoryError, json.JSONDecodeError) as exc:
        print(f"blochdyn: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
