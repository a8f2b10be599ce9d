"""One round of each benchmark component, driven through blochdyn's public
functions (orbit, cavity) or its CLI in fresh interpreters (cli).

A round runs the same fixed operations every time. It returns the wall
time of each operation behind an end-to-end figure, in the same order
every round, with the round's work units per figure; its results (kept
from the first round for the reference checks) and its counts of
operations attempted and failed.
Spans are recorded around every public call; with a NullTracer they cost
one shared no-op context manager each.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import blochdyn as bd
from blochdyn import cli as bd_cli

import inputs as gen

ERRORS = (bd.BlochDynError, ValueError)
CLI_MAIN = "from blochdyn.cli import entrypoint; entrypoint()"
CHILD_TIMEOUT = 150.0


@dataclass
class Round:
    times: dict  # end-to-end figure -> wall time of each of its operations, in order
    work: dict  # end-to-end figure -> work units of the round (the figure's numerator)
    results: dict  # outputs for the reference checks
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)  # per-layer work counts


# -------------------------------------------------------------- orbit


def orbit_round(inp: gen.OrbitInputs, tr) -> Round:
    failed = 0
    qres, bres, pres, sres = [], [], [], []
    qt, st = [], []  # per-operation wall times: queries, scans
    for q in inp.queries:
        t0 = perf_counter()
        try:
            with tr.span("orbit.query"):
                with tr.span("bloch.from_axis"):
                    ham = bd.HamiltonianSpec.from_axis(q.axis, q.omega0, identity_shift=True)
                with tr.span("speedlimits.classify"):
                    rep = bd.classify(q.r, ham, q.delta)
                te = None
                if q.reachable:
                    with tr.span("speedlimits.tau_exact"):
                        te = bd.tau_exact(q.r, ham, q.delta)
                with tr.span("speedlimits.tau_mt"):
                    tmt = bd.tau_mt(q.r, ham, q.delta)
                with tr.span("speedlimits.tau_ml"):
                    tml = bd.tau_ml(q.r, ham, q.delta, symmetrized=True)
                with tr.span("bloch.qfi"):
                    f = bd.qfi(q.r, ham)
                t = q.t_probe if te is None else te
                with tr.span("bloch.evolve_bloch"):
                    rt = bd.evolve_bloch(q.r, ham, t)
                with tr.span("bloch.p_err_bloch"):
                    pe = bd.p_err_bloch(q.r, rt)
            qres.append((rep, te, tmt, tml, f, t, rt, pe))
        except ERRORS:
            failed += 1
            qres.append(None)
        qt.append(perf_counter() - t0)
    for r1, r2, w in inp.brach:
        t0 = perf_counter()
        try:
            with tr.span("brachistochrone.brach_hamiltonian"):
                bres.append(bd.brach_hamiltonian(r1, r2, w))
        except ERRORS:
            failed += 1
            bres.append(None)
        qt.append(perf_counter() - t0)
    for p1, p2, w in inp.pure:
        t0 = perf_counter()
        try:
            with tr.span("brachistochrone.pure_brach"):
                pres.append(bd.pure_brach(p1, p2, w))
        except ERRORS:
            failed += 1
            pres.append(None)
        qt.append(perf_counter() - t0)
    points = 0
    for axis, w, theta, grid in inp.scans:
        t0 = perf_counter()
        try:
            with tr.span("orbit.scan"):
                with tr.span("bloch.from_axis"):
                    ham = bd.HamiltonianSpec.from_axis(axis, w)
                with tr.span("speedlimits.scan_ring"):
                    scan = bd.scan_ring(ham, theta, grid)
            points += len(scan.points)
            sres.append(scan)
        except ERRORS:
            failed += 1
            sres.append(None)
        st.append(perf_counter() - t0)
    return Round(
        times={"orbit.queries_per_s": qt, "scan.points_per_s": st},
        work={"orbit.queries_per_s": inp.n_queries, "scan.points_per_s": inp.lattice_points},
        results={"queries": qres, "brach": bres, "pure": pres, "scans": sres},
        attempted=inp.n_queries + len(inp.scans),
        failed=failed,
        counts={"speedlimits.scan_points": points},
    )


# ------------------------------------------------------------- cavity


def cavity_config(sw) -> "bd.CavityConfig":
    return bd.CavityConfig(omega0=sw.omega0, g=sw.g, detuning=sw.detuning,
                           n_max=sw.n_max, frame=sw.frame)


def build_field(label, alpha, n_max, amps):
    if label == "custom":
        return bd.custom_field(amps)
    return bd.make_field(label, alpha, n_max)


def prepare_cavity(inp: gen.CavityInputs) -> None:
    """Build the fields and configs the single-time Kraus calls act on."""
    inp.kraus_fields = [
        (build_field(label, alpha, n_max, amps),
         bd.CavityConfig(omega0=w, g=g, detuning=det, n_max=n_max, frame=frame))
        for label, n_max, alpha, amps, w, g, det, frame in inp.kraus_specs
    ]


def sweep(sw, tr, workers: int = 1):
    cfg = cavity_config(sw)
    with tr.span("cavity.make_field"):
        fld = build_field(sw.label, sw.alpha, sw.n_max, sw.amps)
    with tr.span("cavity.perr_series"):
        series = bd.perr_series(fld, sw.r0, cfg, t_max=sw.t_max, steps=sw.steps, workers=workers)
    taus = []
    for d in sw.deltas:
        with tr.span("cavity.nonunitary_tau"):
            taus.append(bd.nonunitary_tau(series, d))
    return series, taus


def cavity_round(inp: gen.CavityInputs, tr) -> Round:
    failed = 0
    sres, kres = [], []
    swt = []  # per-sweep wall times
    for sw in inp.sweeps:
        t0 = perf_counter()
        try:
            with tr.span("cavity.sweep"):
                sres.append(sweep(sw, tr))
        except ERRORS:
            failed += 1
            sres.append(None)
        swt.append(perf_counter() - t0)
    kt = [float("inf")] * len(inp.kraus_calls)  # best time of each call over the passes
    for rep in range(inp.kraus_reps):
        for i, call in enumerate(inp.kraus_calls):
            fld, cfg = inp.kraus_fields[call.field]
            t0 = perf_counter()
            try:
                if call.fn == "jc_propagate":
                    with tr.span("cavity.jc_propagate"):
                        out = bd.jc_propagate(fld, call.rho, cfg, call.t)
                else:
                    with tr.span("cavity.kraus_support"):
                        out = bd.kraus_support(fld, cfg, call.t)
            except ERRORS:
                failed += 1
                out = None
            kt[i] = min(kt[i], perf_counter() - t0)
            if rep == 0:
                kres.append(out)
    return Round(
        times={"cavity.block_evals_per_s": swt, "cavity.kraus_calls_per_s": kt},
        work={"cavity.block_evals_per_s": inp.block_evals,
              "cavity.kraus_calls_per_s": len(inp.kraus_calls)},
        results={"sweeps": sres, "kraus": kres},
        attempted=len(inp.sweeps) + inp.kraus_reps * len(inp.kraus_calls),
        failed=failed,
        counts={"cavity.block_evals": inp.block_evals},
    )


def cavity_layer_extras(inp: gen.CavityInputs, timed: bool) -> dict:
    """Program outputs the checks need, and the traced run's layer times.

    reduced_series over every sweep's grid (physicality checks) and the
    same sweeps at workers=2 (bit-identity check). With ``timed``, also a
    workers=1 pass for the worker speed-up.
    """
    rho, w2 = [], []
    t_red = t_w1 = t_w2 = 0.0
    for sw in inp.sweeps:
        cfg = cavity_config(sw)
        fld = build_field(sw.label, sw.alpha, sw.n_max, sw.amps)
        times = np.linspace(0.0, sw.t_max, sw.steps)
        rho0 = 0.5 * np.array([[1 + sw.r0[2], sw.r0[0] - 1j * sw.r0[1]],
                               [sw.r0[0] + 1j * sw.r0[1], 1 - sw.r0[2]]])
        t0 = perf_counter()
        rho.append(bd.reduced_series(fld, rho0, cfg, times))
        t1 = perf_counter()
        if timed:
            bd.perr_series(fld, sw.r0, cfg, t_max=sw.t_max, steps=sw.steps, workers=1)
        t2 = perf_counter()
        w2.append(bd.perr_series(fld, sw.r0, cfg, t_max=sw.t_max, steps=sw.steps, workers=2).p_err)
        t3 = perf_counter()
        t_red += t1 - t0
        t_w1 += t2 - t1
        t_w2 += t3 - t2
    return {"rho": rho, "w2": w2, "reduced_series_s": t_red, "workers2_speedup": t_w1 / t_w2}


# ---------------------------------------------------------------- cli


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def spawn(argv, cwd: Path, env: dict, stdout_path: Path, stderr_path: Path):
    """Run one child to completion; return (seconds, exit code, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return elapsed, proc.returncode, usage.ru_maxrss


def malformed_verdict(code: int, stderr: bytes, files) -> bool:
    """Exit 1, a one-line diagnostic, no traceback and no NaN written out."""
    text = stderr.decode(errors="replace")
    if code != 1 or len(text.strip().splitlines()) != 1 or "Traceback" in text:
        return False
    for path in files:
        if path.exists() and any(tok in path.read_text().lower() for tok in ("nan", "inf")):
            return False
    return True


class CliComponent:
    """Rounds of fresh-interpreter CLI invocations in their own directories."""

    def __init__(self, inp: gen.CliInputs, workdir: Path, src: Path):
        self.inp = inp
        self.workdir = workdir
        self.env = child_env(src)
        self.count = 0
        self.first_dir: Path | None = None
        self.first_records: list | None = None
        self.digests: list | None = None
        self.mismatch: list = []
        self.times: dict = {}  # command -> wall time of each valid invocation of it
        self.rss_kib = 0

    def round(self, tr, between=None) -> Round:
        """One pass over the invocations; ``between`` runs after each one."""
        rdir = self.workdir / f"round{self.count}"
        rdir.mkdir(parents=True)
        gen.write_files(self.inp, rdir)
        records, failed, out_bytes = [], 0, 0
        for k, inv in enumerate(self.inp.invocations):
            argv = [sys.executable, "-c", CLI_MAIN, *inv.args]
            so, se = rdir / f"_{k}.out", rdir / f"_{k}.err"
            with tr.span("cli." + inv.command):
                dt, code, rss = spawn(argv, rdir, self.env, so, se)
            if between is not None:
                between()
            rec = {"code": code, "stdout": so.read_bytes(), "stderr": se.read_bytes()}
            records.append(rec)
            files = [rdir / name for name in inv.outputs]
            if inv.malformed:
                failed += not malformed_verdict(code, rec["stderr"], files)
                continue
            if code != inv.expect_exit:
                failed += 1
                print(f"[bench] {inv.command} exited {code}: {rec['stderr'][-300:]!r}", file=sys.stderr)
                continue
            self.times.setdefault(inv.command, []).append(dt)
            self.rss_kib = max(self.rss_kib, rss)
            h = hashlib.sha256(rec["stdout"])
            out_bytes += len(rec["stdout"])
            for path in files:
                data = path.read_bytes()
                out_bytes += len(data)
                h.update(data)
            rec["digest"] = h.hexdigest()
        digests = [r.get("digest") for r in records]
        if self.count == 0:
            self.first_dir, self.first_records, self.digests = rdir, records, digests
        else:
            if digests != self.digests:
                self.mismatch.append(self.count)
            shutil.rmtree(rdir)
        self.count += 1
        return Round(times={}, work={}, results={}, attempted=len(self.inp.invocations),
                     failed=failed, counts={"cli.output_bytes": out_bytes})


def timed_main(args) -> float:
    """Wall time of cli.main on args, with its console output discarded."""
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
        t0 = perf_counter()
        bd_cli.main(list(args))
        return perf_counter() - t0


def library_time(inv) -> float:
    """Wall time of the library calls one CLI invocation makes, on its arguments."""
    p = inv.params
    t0 = perf_counter()
    if inv.command == "qsl":
        ham = bd.HamiltonianSpec.from_axis(p["axis"], omega0=p["omega0"])
        bd.classify(p["r"], ham, p["delta"])
        r0 = bd.as_bloch(p["r"])
        for t in np.linspace(0.0, np.pi / ham.omega0, 1001):
            bd.p_err_bloch(r0, bd.evolve_bloch(r0, ham, t))
    elif inv.command == "scan":
        ham = bd.HamiltonianSpec.from_axis(p["axis"], omega0=p["omega0"])
        bd.scan_ring(ham, p["theta"], p["grid"])
    else:
        cfg = bd.CavityConfig(omega0=p["omega0"], g=p["g"], detuning=p["detuning"],
                              n_max=p["n_max"], frame=p["frame"])
        fld = bd.make_field(p["label"], p["alpha"], p["n_max"])
        series = bd.perr_series(fld, p["r0"], cfg, t_max=p["t_max"], steps=p["steps"])
        for d in p["deltas"]:
            bd.nonunitary_tau(series, d)
    return perf_counter() - t0


def emit_times(inp: gen.CliInputs, rdir: Path, repeats: int) -> dict:
    """Per command: median over invocations of (cli.main time - library time).

    Both times are the best of ``repeats`` (scan: a third as many), the
    usual estimate for deterministic work. For qsl the emission is a few
    percent of the library time, so its figure is close to the noise.
    """
    out: dict = {}
    cwd = os.getcwd()
    os.chdir(rdir)
    try:
        for inv in inp.invocations:
            if inv.malformed or inv.command == "brach":
                continue
            n = max(1, repeats // 3) if inv.command == "scan" else repeats
            mains, libs = [], []
            for _ in range(n):  # alternated, so that drift hits both alike
                mains.append(timed_main(inv.args))
                libs.append(library_time(inv))
            out.setdefault(inv.command, []).append(min(mains) - min(libs))
    finally:
        os.chdir(cwd)
    return {cmd: float(np.median(v)) for cmd, v in out.items()}
