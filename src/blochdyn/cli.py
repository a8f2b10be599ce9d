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
* identical invocations produce byte-identical outputs
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .bloch import HamiltonianSpec, _real, as_bloch, evolve_bloch, p_err_bloch
from .brachistochrone import brach_hamiltonian
from .cavity import _FIELD_BUILDERS, CavityConfig, make_field, nonunitary_tau, perr_series
from .errors import BlochDynError
from .speedlimits import _ring_slabs, classify

__all__ = ["entrypoint", "main"]

_BLOCK_ROWS = 8192  # CSV rows per formatted block in _write_csv
_SIG = 15  # significant digits of a CSV cell
_G15_BYTES = "\0e+-0123456789"  # the constant bytes of a %.15g cell, NUL first
_WIDE = np.longdouble  # precision of the CSV formatter's scaling (see _format_cells)

# CavityConfig and perr_series own their defaults; field and qubit are the
# CLI's, save the default label, make_field's first (cavity._FIELD_BUILDERS)
_CAVITY_DEFAULTS = {
    **{f.name: f.default for f in fields(CavityConfig)},
    **{k: inspect.signature(perr_series).parameters[k].default for k in ("t_max", "steps")},
    "field": {"label": next(iter(_FIELD_BUILDERS)), "alpha_re": 3.0, "alpha_im": 0.0},
    "qubit": {"rx": 0.0, "ry": 0.0, "rz": 1.0},
}


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
    # np.float64 is a float, and json prints it as one
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(x) for x in obj]
    return obj


def _emit_json(obj, stream=None) -> None:
    print(json.dumps(_jsonable(obj), sort_keys=True), file=stream or sys.stdout)


def _g15_template(x: int) -> list:
    """Source columns of %.15g for a number with decimal exponent x.

    Columns 0 .. 14 are the significant digits, then come the sign and the
    decimal point (each NUL when absent), then the bytes of _G15_BYTES. %g
    prints fixed point for -4 <= x < 15 and otherwise a mantissa with a
    signed exponent of at least two digits.
    """
    const = {ch: _SIG + 2 + i for i, ch in enumerate(_G15_BYTES)}
    sign, point = _SIG, _SIG + 1
    if 0 <= x < _SIG:
        body = [*range(x + 1), point, *range(x + 1, _SIG)]
    elif -4 <= x < 0:
        body = [const["0"], point, *[const["0"]] * (-x - 1), *range(_SIG)]
    else:
        body = [0, point, *range(1, _SIG), *(const[ch] for ch in "e%+03d" % x)]
    return [sign, *body]


@functools.cache
def _g15_tables(wide):
    # Built on first use, so that importing the CLI stays cheap. tens holds
    # the powers of ten that the type wide represents exactly, so a scaling
    # rounds once, to within margin / 2 of the exact product.
    info = np.finfo(wide)
    kmax = max(j for j in range(64) if 5 ** j < 2 ** (info.nmant + 1))
    tens = np.cumprod(np.full(kmax + 1, 10, dtype=wide)) / 10
    margin = float(info.eps) * 10.0 ** _SIG
    xs = range(_SIG - 1 - kmax, _SIG + 1)
    rows = [_g15_template(x) for x in xs]
    width = max(map(len, rows))
    pad = _SIG + 2  # the NUL of _G15_BYTES
    templates = np.array([r + [pad] * (width - len(r)) for r in rows], dtype=np.intp)
    for shared in (tens, templates):  # every call gets these same arrays
        shared.setflags(write=False)
    return tens, margin, xs.start, templates


def _format_cells(values) -> np.ndarray:
    """'%.15g' % v for each double v, as a (len(values), width) uint8 ASCII matrix.

    Bytes that are no character are NUL, and may sit inside a cell. The
    fast path takes the decimal exponent from log10, scales |v| by an
    exact power of ten in _WIDE (longdouble), rounds to a 15-digit integer
    and lays its digits out by %g's rules (_g15_template), with trailing
    fraction zeros and a bare point blanked.

    The fast path is certified. A scaling rounds once, so it misses the
    exact product by at most half an ulp of _WIDE, which np.finfo gives;
    margin is twice that bound. A cell goes to '%.15g' itself when its
    scaled value lies within margin of a rounding tie, when its integer
    does not come out with 15 digits, or when its power of ten is not
    exact. So does every 0, -0, NaN and inf. Where longdouble is double
    the margin is wide and about two cells in five take that way, with
    the same bytes.
    """
    tens, margin, xlo, templates = _g15_tables(_WIDE)
    v = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        mag = np.abs(v)
        k = (_SIG - 1) - np.floor(np.log10(mag))
        fast = (k >= 0) & (k < tens.size)  # False for 0, NaN and inf
        k = np.where(fast, k, 0).astype(np.intp)
        m = tens[k] * mag.astype(_WIDE)
        n = m.astype(np.int64)
        frac = (m - n).astype(float)  # exact in longdouble, rounded by far less than margin
    fast &= (n >= 10 ** (_SIG - 1)) & (n < 10 ** _SIG) & (np.abs(frac - 0.5) > margin)
    n = np.where(fast, n + (frac > 0.5), 10 ** (_SIG - 1))
    carry = n == 10 ** _SIG  # a scaled 999999999999999.5 and up rounds to the next decade
    n[carry] = 10 ** (_SIG - 1)
    x = (_SIG - 1) - k + carry

    src = np.empty((v.size, _SIG + 2 + len(_G15_BYTES)), dtype=np.uint8)
    digits = src[:, :_SIG]
    f = n.astype(float)  # exact below 2 ** 53, and so is each step
    # integer digits: x + 1 in fixed point from 1 up, none below 1, one in exponent form
    whole = np.where((x >= -4) & (x < _SIG), np.maximum(x + 1, 0), 1)
    zeros = np.zeros(v.size, dtype=np.int8)  # trailing zero digits
    trailing = np.ones(v.size, dtype=bool)
    for i in range(_SIG - 1, -1, -1):
        q = np.floor(f / 10)
        f -= 10 * q
        trailing &= f == 0
        zeros += trailing
        f += ord("0")
        f[trailing & (whole <= i)] = 0  # a trailing zero of the fraction
        digits[:, i] = f
        f = q
    sig = _SIG - zeros
    src[:, _SIG] = np.where(v < 0, ord("-"), 0)
    src[:, _SIG + 1] = np.where(sig > whole, ord("."), 0)
    src[:, _SIG + 2:] = np.frombuffer(_G15_BYTES.encode(), dtype=np.uint8)
    index = templates.take(np.where(fast, x - xlo, 0), axis=0)
    index += np.arange(0, src.size, src.shape[1])[:, None]  # where each row's sources start
    out = src.ravel().take(index)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.15g" % c for c in v[slow].tolist()], dtype=bytes)
        pad = text.itemsize - out.shape[1]
        if pad > 0:
            out = np.pad(out, ((0, 0), (0, pad)))
        out[slow] = 0
        out[slow, :text.itemsize] = text.view(np.uint8).reshape(slow.size, -1)
    return out


def _write_csv(dest: str, header: str, blocks) -> None:
    """Write CSV rows under header from an iterable of column blocks.

    Each block is a sequence of equal-length columns: a 1-D float column
    prints with %.15g (see _format_cells), a (rows, width) uint8 column
    holds its cells already as NUL-padded ASCII. Rows go out _BLOCK_ROWS
    at a time: the block's cell matrices are joined side by side with
    comma and newline columns, the NULs dropped, and the text written in
    one call. So the text held at once stays bounded however long the
    series; a lazy iterable of blocks bounds the numbers held as well.
    """
    sink = contextlib.nullcontext(sys.stdout) if dest == "-" else open(dest, "w", newline="")
    with sink as fh:
        fh.write(header + "\n")
        for columns in blocks:
            for start in range(0, len(columns[0]), _BLOCK_ROWS):
                cells = [c[start:start + _BLOCK_ROWS] for c in columns]
                cells = [c if c.dtype == np.uint8 else _format_cells(c) for c in cells]
                comma = np.full((len(cells[0]), 1), ord(","), dtype=np.uint8)
                rows = np.concatenate([m for c in cells for m in (c, comma)], axis=1)
                rows[:, -1] = ord("\n")
                fh.write(rows.tobytes().translate(None, b"\0").decode("ascii"))


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
    if args.csv not in (None, "-"):
        open(args.csv, "w").close()  # a path that cannot be written fails before the report
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
        "axis": res.axis.tolist(),
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
    loaded = {}
    if args.scenario is not None:
        with open(args.scenario) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("scenario file must hold a JSON object")
    # each flag under the scenario keys it sets, None where not given
    flags = {key: getattr(args, key) for key in _CAVITY_DEFAULTS}
    alpha = (None, None) if args.alpha is None else (args.alpha.real, args.alpha.imag)
    flags["field"] = {"label": args.field, "alpha_re": alpha[0], "alpha_im": alpha[1]}
    flags["qubit"] = dict(zip(("rx", "ry", "rz"), args.qubit or (None, None, None)))
    return _pick(flags, loaded, _CAVITY_DEFAULTS)


def _pick(flags: dict, scenario: dict, defaults: dict) -> dict:
    # one precedence rule, per key and per key of field and qubit: the flag if
    # given, else the scenario value, else the default; other keys are ignored
    p = {}
    for key, default in defaults.items():
        if isinstance(default, dict):
            nested = scenario.get(key, {})
            if not isinstance(nested, dict):
                raise ValueError(f"scenario {key} must be a JSON object")
            p[key] = _pick(flags[key], nested, default)
        else:
            p[key] = flags[key] if flags[key] is not None else scenario.get(key, default)
    return p


def _number(value, name: str) -> float:
    """A scenario value that JSON wrote as a number, as _real reads it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    return _real(value, name)


def cmd_cavity(args) -> int:
    p = _resolve_cavity_params(args)
    fp, qp = p["field"], p["qubit"]
    cfg = CavityConfig(
        omega0=_number(p["omega0"], "omega0"),
        g=None if p["g"] is None else _number(p["g"], "g"),
        detuning=_number(p["detuning"], "detuning"),
        n_max=_number(p["n_max"], "n_max"),
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
        steps=_number(p["steps"], "steps"),
    )
    if p["t_max"] is None:
        p["t_max"] = float(series.times[-1])  # the grid ends on perr_series' default

    w = cfg.omega0
    taus, levels = {}, {}
    for d in args.delta or []:  # a bad level fails here, before any output
        t = nonunitary_tau(series, d)
        key = "%g" % d
        if levels.setdefault(key, d) != d:  # a repeated level is fine
            raise ValueError(f"--delta {levels[key]!r} and {d!r} share the summary key {key!r}")
        taus[key] = None if t is None else t * w
    _write_csv(args.out, "t_omega0,p_err", [[series.times * w, series.p_err]])

    i_min = int(np.argmin(series.p_err))
    summary = {
        "min_p_err": float(series.p_err[i_min]),
        "argmin_t_omega0": float(series.times[i_min] * w),
        "tau_omega0": taus,
        # params is itself a --scenario file that replays this run
        "scenario": {"command": "cavity", "format": "csv", "output": args.out, "params": p},
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
    labels = _format_cells(ticks)
    w = ham.omega0
    blocks = ([labels[ix], labels[iy], labels[iz], tau * w, fisher]
              for ix, iy, iz, tau, fisher in slabs)
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
    c.add_argument("--field", default=None, choices=list(_FIELD_BUILDERS))
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
