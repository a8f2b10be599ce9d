"""Reference checks written apart from blochdyn.

Nothing here imports the package under test. Expected values come from
dense 2x2 conjugation and eigenvalues, dense joint-space propagation of
the Jaynes-Cummings model, closed-form Rabi populations and independent
lattice counts. Every check returns a list of failure strings; an empty
list means the outputs are correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def rho_of(r) -> np.ndarray:
    return 0.5 * (ID2 + r[0] * SX + r[1] * SY + r[2] * SZ)


def bloch_of(rho) -> np.ndarray:
    return np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def helstrom(rho, sigma) -> float:
    return 0.5 - 0.25 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def rot_u(axis, omega0: float, t: float) -> np.ndarray:
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return np.cos(omega0 * t) * ID2 - 1j * np.sin(omega0 * t) * (n[0] * SX + n[1] * SY + n[2] * SZ)


def conj(u, rho):
    return u @ rho @ u.conj().T


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# -------------------------------------------------------------- orbit


def lattice_count(axis, theta: float, grid: int, slack: float) -> int:
    """Lattice points of the ball with orbit radius >= sin(theta).

    slack > 0 widens both boundaries (ball surface, ring edge), slack < 0
    narrows them, so a count by another route must lie between the two.
    """
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    ticks = np.arange(grid) * (2.0 / (grid - 1)) - 1.0
    y, z = np.meshgrid(ticks, ticks, indexing="ij")
    total = 0
    for x in ticks:
        r2 = x * x + y * y + z * z
        along = n[0] * x + n[1] * y + n[2] * z
        s = np.sqrt(np.maximum(r2 - along * along, 0.0))
        ok = (r2 <= 1.0 + 2.0 * slack) & (s >= math.sin(theta) - slack) & (s > 1e-9)
        total += int(ok.sum())
    return total


def check_ring_rows(pts, tau_w, fisher, axis, omega0, theta, where) -> list:
    """Per-point closed forms of a ring scan (times in omega0 units)."""
    fails = []
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    s = np.linalg.norm(pts - np.outer(pts @ n, n), axis=1)
    if pts.size and (np.abs(np.sin(tau_w) * s - math.sin(theta)) > 1e-9).any():
        # inside the ring sin(tau * omega0) = sin(theta) / s; on the edge tau = pi/2
        edge = np.abs(s - math.sin(theta)) < 1e-9
        bad = (np.abs(np.sin(tau_w) * s - math.sin(theta)) > 1e-9) & ~edge
        if bad.any():
            fails.append(f"{where}: crossing time off the closed form at {int(bad.sum())} points")
    if pts.size and ((tau_w < 0).any() or (tau_w > 0.5 * np.pi + 1e-12).any()):
        fails.append(f"{where}: crossing time outside [0, pi/2]")
    if pts.size and not np.allclose(fisher, 4.0 * (omega0 * s) ** 2, rtol=1e-12, atol=1e-12):
        fails.append(f"{where}: fisher != 4 omega0^2 |n x r|^2")
    return fails


def check_orbit(inp, res) -> list:
    fails = []
    for i, (q, out) in enumerate(zip(inp.queries, res["queries"])):
        if out is None:
            continue
        rep, te, tmt, tml, f, t, rt, pe = out
        n = q.axis / np.linalg.norm(q.axis)
        s = float(np.linalg.norm(np.cross(n, q.r)))
        w = q.omega0
        where = f"query {i}"
        if bool(rep.reachable) != (1.0 - 2.0 * q.delta <= s):
            fails.append(f"{where}: reachability verdict disagrees with 1-2d <= |n x r|")
        rho0 = rho_of(q.r)
        if q.reachable:
            p_at = helstrom(conj(rot_u(n, w, te), rho0), rho0)
            if abs(p_at - q.delta) > 1e-9:
                fails.append(f"{where}: Helstrom error {p_at!r} at tau_exact != delta {q.delta!r}")
            if rep.tau_exact is None or not _close(rep.tau_exact, te, 1e-12):
                fails.append(f"{where}: classify and tau_exact disagree")
            if not tmt <= te * (1 + 1e-12):
                fails.append(f"{where}: tau_mt > tau_exact")
        if not tml <= tmt * (1 + 1e-12):
            fails.append(f"{where}: symmetrized tau_ml > tau_mt")
        if not _close(f, 4.0 * w * w * s * s, 1e-12):
            fails.append(f"{where}: qfi != 4 omega0^2 |n x r|^2")
        rt_ref = bloch_of(conj(rot_u(n, w, t), rho0))
        if np.abs(rt - rt_ref).max() > 1e-12:
            fails.append(f"{where}: evolve_bloch differs from dense conjugation")
        if abs(pe - helstrom(rho_of(rt_ref), rho0)) > 1e-12:
            fails.append(f"{where}: p_err_bloch differs from the dense Helstrom error")
    for i, ((r1, r2, w), out) in enumerate(zip(inp.brach, res["brach"])):
        if out is None:
            continue
        where = f"brach pair {i}"
        if abs(np.linalg.norm(out.axis) - 1.0) > 1e-12:
            fails.append(f"{where}: axis is not a unit vector")
        moved = bloch_of(conj(rot_u(out.axis, w, out.duration), rho_of(r1)))
        if np.abs(moved - r2).max() > 1e-9:
            fails.append(f"{where}: axis does not carry r1 onto r2 at the reported duration")
        phi = math.atan2(np.linalg.norm(np.cross(r1, r2)), float(r1 @ r2))
        if abs(out.duration - 0.5 * phi / w) > 1e-9:
            fails.append(f"{where}: duration != angle / (2 omega0)")
    for i, ((p1, p2, w), h) in enumerate(zip(inp.pure, res["pure"])):
        if h is None:
            continue
        where = f"pure pair {i}"
        if np.abs(h - h.conj().T).max() > 1e-12 or abs(np.trace(h)) > 1e-12:
            fails.append(f"{where}: operator not Hermitian and traceless")
        lam, vec = np.linalg.eigh(h)
        if np.abs(np.abs(lam) - w).max() > 1e-12 * w:
            fails.append(f"{where}: operator norm != omega0")
        z = abs(np.vdot(p1, p2))
        t = math.asin(math.sqrt(max(0.0, 1.0 - z * z))) / w
        u = (vec * np.exp(-1j * lam * t)) @ vec.conj().T
        if abs(abs(np.vdot(p2, u @ p1)) - 1.0) > 1e-9:
            fails.append(f"{where}: operator does not map psi1 to psi2")
    for i, ((axis, w, theta, grid), scan) in enumerate(zip(inp.scans, res["scans"])):
        if scan is None:
            continue
        where = f"scan {i}"
        lo = lattice_count(axis, theta, grid, -1e-9)
        hi = lattice_count(axis, theta, grid, 1e-9)
        if not lo <= len(scan.points) <= hi:
            fails.append(f"{where}: {len(scan.points)} points, independent count {lo}..{hi}")
        fails += check_ring_rows(scan.points, scan.tau_exact * w, scan.fisher, axis, w, theta, where)
    return fails


# ------------------------------------------------------------- cavity


class DenseJC:
    """Dense interaction-picture Jaynes-Cummings model on the truncated space.

    H_I = (d/2) sigma_z + g (sigma_- a' + sigma_+ a), basis |q> x |n> with
    |e> first. The free part omega0 (a'a + sigma_z/2) commutes with H_I, so
    the lab-frame reduced state is exp(-i omega0 t sigma_z/2) rho_I(t) h.c.
    """

    def __init__(self, n_max: int, g: float, detuning: float):
        dim = n_max + 1
        a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        sp = np.array([[0.0, 1.0], [0.0, 0.0]])
        h = 0.5 * detuning * np.kron(SZ.real, np.eye(dim))
        h = h + g * (np.kron(sp.T, a.T) + np.kron(sp, a))
        self.lam, self.vec = np.linalg.eigh(h)
        self.dim = dim

    def states(self, amps, t: float) -> np.ndarray:
        """Phi[a, i, n]: joint amplitudes at t of |a> x psi, a in (e, g)."""
        out = np.empty((2, 2, self.dim), dtype=complex)
        phase = np.exp(-1j * self.lam * t)
        for a in range(2):
            psi0 = np.zeros(2 * self.dim, dtype=complex)
            psi0[a * self.dim:(a + 1) * self.dim] = amps
            out[a] = (self.vec @ (phase * (self.vec.T @ psi0))).reshape(2, self.dim)
        return out

    def reduced(self, amps, rho0, t: float, omega0: float, frame: str) -> np.ndarray:
        phi = self.states(amps, t)
        rho = np.einsum("ab,ain,bjn->ij", rho0, phi, phi.conj())
        if frame == "lab":
            r = np.array([np.exp(-0.5j * omega0 * t), np.exp(0.5j * omega0 * t)])
            rho = rho * np.outer(r, r.conj())
        return rho


def fock_populations(n: int, p_e: float, g: float, detuning: float, t):
    """Closed-form excited population for Fock |n> and a diagonal qubit state."""
    def flip(k):
        if k < 0:
            return np.zeros_like(t)
        gk2 = g * g * (k + 1)
        om = math.sqrt(0.25 * detuning * detuning + gk2)
        return gk2 / (om * om) * np.sin(om * t) ** 2
    return p_e * (1.0 - flip(n)) + (1.0 - p_e) * flip(n - 1)


def fock_perr(n: int, z0: float, g: float, detuning: float, t) -> np.ndarray:
    """p_err series for Fock |n> and a z-polar qubit with Bloch z-component z0."""
    ee = fock_populations(n, 0.5 * (1 + z0), g, detuning, t)
    return 0.5 - 0.25 * np.abs(2.0 * ee - 1.0 - z0)


def sample_indices(steps: int, k: int = 6) -> np.ndarray:
    return np.unique(np.linspace(0, steps - 1, k).round().astype(int))


def check_tau(times, perr, delta, tau, where, atol=1e-9) -> list:
    """A reported crossing must sit in the first bracket reaching delta + atol."""
    hits = np.flatnonzero(perr <= delta + atol)
    if hits.size == 0:
        return [] if tau is None else [f"{where}: crossing reported for an unreached level"]
    i = int(hits[0])
    lo, hi = (times[0], times[0]) if i == 0 else (times[i - 1], times[i])
    if tau is None or not lo - 1e-12 <= tau <= hi + 1e-12:
        return [f"{where}: crossing {tau!r} outside the bracket [{lo!r}, {hi!r}]"]
    return []


def field_amplitudes(label: str, alpha: complex, n_max: int, custom=None) -> np.ndarray:
    """Textbook Fock amplitudes: coherent, cat, e0 (n = 0 mod 4), Fock, custom."""
    n = np.arange(n_max + 1)
    if label == "custom":
        return np.asarray(custom, dtype=complex)
    if label == "fock":
        out = np.zeros(n_max + 1, dtype=complex)
        out[int(alpha.real)] = 1.0
        return out
    m = abs(alpha) ** 2
    if m == 0.0:
        c = (n == 0).astype(complex)
    else:
        logmag = -0.5 * m + 0.5 * (n * math.log(m) - np.array([math.lgamma(k + 1.0) for k in n]))
        c = np.exp(logmag) * np.exp(1j * n * np.angle(alpha))
    keep = {"coherent": n >= 0, "cat_even": n % 2 == 0, "cat_odd": n % 2 == 1, "e0": n % 4 == 0}[label]
    c = np.where(keep, c, 0.0)
    return c / np.linalg.norm(c)


def check_cavity(inp, res, extra) -> list:
    fails = []
    for i, (sw, out) in enumerate(zip(inp.sweeps, res["sweeps"])):
        if out is None:
            continue
        series, taus = out
        amps = field_amplitudes(sw.label, sw.alpha, sw.n_max, sw.amps)
        where = f"sweep {i} ({sw.label}, n_max={sw.n_max}, {sw.frame})"
        times = np.linspace(0.0, sw.t_max, sw.steps)
        if series.p_err.shape != (sw.steps,) or np.abs(series.times - times).max() > 1e-12 * sw.t_max:
            fails.append(f"{where}: time grid differs from linspace(0, t_max, steps)")
            continue
        if abs(series.p_err[0] - 0.5) > 1e-12:
            fails.append(f"{where}: p_err[0] = {series.p_err[0]!r}, not 1/2")
        if sw.label == "fock":
            ref = fock_perr(int(sw.alpha.real), sw.r0[2], sw.g, sw.detuning, times)
            err = np.abs(series.p_err - ref).max()
            if err > 1e-9:
                fails.append(f"{where}: off the closed-form Rabi series by {err:.3e}")
        else:
            dense = DenseJC(sw.n_max, sw.g, sw.detuning)
            rho0 = rho_of(sw.r0)
            for k in sample_indices(sw.steps):
                ref = helstrom(dense.reduced(amps, rho0, times[k], sw.omega0, sw.frame), rho0)
                if abs(ref - series.p_err[k]) > 1e-9:
                    fails.append(f"{where}: p_err at sample {k} off the dense partial trace "
                                 f"by {abs(ref - series.p_err[k]):.3e}")
        rho = extra["rho"][i]
        tr = np.abs(rho[:, 0, 0] + rho[:, 1, 1] - 1.0).max()
        low = np.linalg.eigvalsh(rho)[:, 0].min()
        if tr > 1e-10 or low < -1e-10:
            fails.append(f"{where}: |tr - 1| up to {tr:.3e}, smallest eigenvalue {low:.3e}")
        if not np.array_equal(series.p_err, extra["w2"][i]):
            fails.append(f"{where}: workers=1 and workers=2 series differ")
        for d, tau in zip(sw.deltas, taus):
            fails += check_tau(series.times, series.p_err, d, tau, f"{where} delta={d}")
    dense_cache = {}
    for i, (call, out) in enumerate(zip(inp.kraus_calls, res["kraus"])):
        if out is None:
            continue
        label, n_max, alpha, custom, omega0, g, det, frame = inp.kraus_specs[call.field]
        amps = field_amplitudes(label, alpha, n_max, custom)
        if call.field not in dense_cache:
            dense_cache[call.field] = DenseJC(n_max, g, det)
        dense = dense_cache[call.field]
        where = f"kraus call {i} ({call.fn}, {label}, n_max={n_max})"
        phi = dense.states(amps, call.t)
        # E_n[i, a] = phi[a, i, n]; the frame only adds unitary phases
        ops = np.transpose(phi, (2, 1, 0))
        norms = np.linalg.svd(ops, compute_uv=False)[:, 0]
        if call.fn == "jc_propagate":
            rho_t, kraus = out
            ref = dense.reduced(amps, call.rho, call.t, omega0, frame)
            if np.abs(rho_t - ref).max() > 1e-9:
                fails.append(f"{where}: reduced state off the dense partial trace")
            e = kraus.operators
            comp = np.einsum("nji,njk->ik", e.conj(), e) - ID2
            if np.abs(comp).max() > 1e-10:
                fails.append(f"{where}: Kraus family not complete")
            if np.abs(np.einsum("nij,jk,nlk->il", e, call.rho, e.conj()) - rho_t).max() > 1e-12:
                fails.append(f"{where}: state != sum_n E_n rho E_n'")
            if np.abs(np.linalg.svd(e, compute_uv=False)[:, 0] - norms).max() > 1e-9:
                fails.append(f"{where}: Kraus operator norms off the dense amplitudes")
        else:
            got = set(np.asarray(out).tolist())
            surely = set(np.flatnonzero(norms > 2e-12).tolist())
            maybe = set(np.flatnonzero(norms > 0.5e-12).tolist())
            if not surely <= got <= maybe:
                fails.append(f"{where}: support differs from the dense operator norms")
    return fails


# ---------------------------------------------------------------- cli


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_qsl(inv, rec, workdir) -> list:
    p = inv.params
    where = "cli qsl " + " ".join(inv.args[1:7])
    n = p["axis"] / np.linalg.norm(p["axis"])
    r, w, d = p["r"], p["omega0"], p["delta"]
    s = float(np.linalg.norm(np.cross(n, r)))
    x = 1.0 - 2.0 * d
    out = json.loads(rec["stdout"])
    fails = []
    expect = {
        "tau_exact_omega0": math.asin(x / s) if x <= s else None,
        "tau_mt_omega0": math.asin(x) / s,
        "tau_ml_omega0": math.pi * (1 - math.sqrt(1 - x * x)) / (2 * (float(n @ r) + 1)),
        "fisher": 4 * w * w * s * s,
        "perp_norm": s,
        "min_perr": max(0.0, 0.5 - 0.5 * s),
    }
    if out.get("reachable") != (x <= s):
        fails.append(f"{where}: reachable flag wrong")
    for key, val in expect.items():
        got = out.get(key)
        if (val is None) != (got is None) or (val is not None and not _close(got, val, 1e-12)):
            fails.append(f"{where}: {key} = {got!r}, closed form {val!r}")
    header, data = read_csv(workdir / inv.outputs[0])
    t_ref = np.linspace(0.0, math.pi / w, 1001) * w
    if header != "t_omega0,p_err" or data.shape != (1001, 2):
        fails.append(f"{where}: orbit CSV has shape {data.shape}, expected (1001, 2)")
    elif (np.abs(data[:, 0] - t_ref).max() > 1e-12
          or np.abs(data[:, 1] - (0.5 - 0.5 * s * np.abs(np.sin(data[:, 0])))).max() > 1e-12):
        fails.append(f"{where}: orbit CSV off 1/2 - |n x r| |sin(w t)| / 2")
    return fails


def check_brach(inv, rec) -> list:
    p = inv.params
    r1, r2, w = p["r1"], p["r2"], p["omega0"]
    out = json.loads(rec["stdout"])
    cross = np.cross(r1, r2)
    phi = math.atan2(np.linalg.norm(cross), float(r1 @ r2))
    axis = np.array(out["axis"])
    fails = []
    if np.abs(axis - cross / np.linalg.norm(cross)).max() > 1e-12:
        fails.append("cli brach: axis != r1 x r2 / |r1 x r2|")
    if not _close(out["T_omega0"], 0.5 * phi, 1e-12):
        fails.append("cli brach: T_omega0 != angle / 2")
    if not _close(out["fisher_on_path"], 4 * w * w * float(r1 @ r1), 1e-12):
        fails.append("cli brach: fisher_on_path != 4 omega0^2 |r1|^2")
    moved = bloch_of(conj(rot_u(axis, 1.0, out["T_omega0"]), rho_of(r1)))
    if np.abs(moved - r2).max() > 1e-9:
        fails.append("cli brach: axis does not carry r1 onto r2")
    return fails


def check_cavity_cli(inv, rec, workdir) -> list:
    p = inv.params
    where = f"cli cavity ({p['label']}, n_max={p['n_max']})"
    header, data = read_csv(workdir / inv.outputs[0])
    fails = []
    if header != "t_omega0,p_err" or data.shape != (p["steps"], 2):
        return [f"{where}: CSV has shape {data.shape}, expected ({p['steps']}, 2)"]
    w = p["omega0"]
    t = np.linspace(0.0, p["t_max"], p["steps"])
    if np.abs(data[:, 0] - t * w).max() > 1e-12 * p["t_max"] * w:
        fails.append(f"{where}: time column != linspace(0, t_max, steps) * omega0")
    pe = data[:, 1]
    if abs(pe[0] - 0.5) > 1e-12:
        fails.append(f"{where}: first p_err != 1/2")
    if p["label"] == "fock":
        ref = fock_perr(int(p["alpha"].real), p["r0"][2], p["g"], p["detuning"], t)
        err = np.abs(pe - ref).max()
        if err > 1e-9:
            fails.append(f"{where}: off the closed-form Rabi series by {err:.3e}")
    else:
        amps = field_amplitudes(p["label"], p["alpha"], p["n_max"])
        dense = DenseJC(p["n_max"], p["g"], p["detuning"])
        rho0 = rho_of(p["r0"])
        for k in sample_indices(p["steps"]):
            ref = helstrom(dense.reduced(amps, rho0, t[k], w, p["frame"]), rho0)
            if abs(ref - pe[k]) > 1e-9:
                fails.append(f"{where}: row {k} off the dense partial trace by {abs(ref - pe[k]):.3e}")
    summary = json.loads(rec["stdout"])
    if not _close(summary["min_p_err"], float(pe.min()), 1e-13):
        fails.append(f"{where}: min_p_err != min of the CSV column")
    for d in p["deltas"]:
        tau = summary["tau_omega0"].get("%g" % d)
        fails += check_tau(data[:, 0], pe, d, tau, f"{where} delta={d}")
    return fails


def check_scan_cli(inv, workdir) -> list:
    p = inv.params
    header, data = read_csv(workdir / inv.outputs[0])
    where = "cli scan grid %d" % p["grid"]
    lo = lattice_count(p["axis"], p["theta"], p["grid"], -1e-9)
    hi = lattice_count(p["axis"], p["theta"], p["grid"], 1e-9)
    if header != "rx,ry,rz,tau_exact,fisher" or not lo <= data.shape[0] <= hi:
        return [f"{where}: {data.shape[0]} rows, independent lattice count {lo}..{hi}"]
    return check_ring_rows(data[:, :3], data[:, 3], data[:, 4], p["axis"], p["omega0"],
                           p["theta"], where)
