"""Reduced qubit dynamics from resonant coupling to a single field mode.

The Jaynes-Cummings generator (hbar = 1)

    H = omega0 * (a'a + sigma_z / 2) + g * (a' sigma_- + a sigma_+)

conserves the excitation number a'a + (sigma_z + 1)/2, so on a Fock space
truncated at n_max the propagator V(t) factorizes over 2x2 blocks
span{|e,n>, |g,n+1>} for n = -1 .. n_max, where the two end blocks hold one
state each, the uncoupled |g,0> (n = -1) and |e,n_max> (n = n_max). Each
block is solved in closed form at the generalized Rabi frequency
Om_n = sqrt(detuning^2 / 4 + g_n^2), with g_n = g sqrt(n+1) and g_n = 0 at
the ends; a nonzero detuning shifts the qubit splitting to
omega0 + detuning while the mode stays at omega0.

For a pure initial field |psi> = sum_n c_n |n> the reduced qubit state is

    rho_S(t) = sum_n E_n(t) rho_S(0) E_n(t)',   E_n(t) = <n| V(t) |psi>,

with n = 0 .. n_max. Because V(t) is unitary on the truncated joint space
this Kraus family is complete to machine precision; fidelity to the
untruncated model is the field constructors' job, which reject cutoffs
whose analytic photon-number tail reaches 1e-10.

Time series (reduced_series, perr_series) skip the Kraus operators. With
S_n = sin(Om_n t), C_n = cos(Om_n t), y_n = g_n / Om_n and
r_n = (detuning / 2) / Om_n, block n propagates as
[[C_n - i r_n S_n, -i y_n S_n], [-i y_n S_n, C_n + i r_n S_n]] times the
free phase exp(-i omega0 (n + 1/2) t). In every product of two Kraus
entries that enters rho_S the free phases cancel:

* the populations pair each block with itself, so rho_ee and rho_gg are
  constants plus sums over n of S_n^2 and S_n C_n against real weights
  built from |c_n|^2, c_n conj(c_{n+1}), y_n, r_n and rho_S(0);
* the coherence rho_eg pairs block m with block m-1, so it is a sum of
  C_m S_{m-1}, S_m C_{m-1}, C_m C_{m-1} and S_m S_{m-1} against complex
  weights; in the lab frame all of rho_eg then carries the one common
  phase exp(-i omega0 t) left over from adjacent free phases.

The end blocks take the same formulas with c_{-1} = c_{n_max+1} = 0, y = 0
and r = sign(detuning) at Om = |detuning| / 2: their population weights
vanish, and the pair rows m = 0 and m = n_max carry their C - i r S, which
is exp(-i detuning t / 2), the phase the uncoupled state puts on rho_eg.
So no sum takes a detuning phase of its own.

rho_gg's weights are rho_ee's negated, so the populations are one sum D:
rho_ee = ee0 + D, rho_gg = gg0 - D. The weights are fixed per call, and a
sweep keeps only the blocks that carry them: it drops the lightest blocks
while their summed |weight| stays at most 2^-64, so no value moves by more
than that (|S_n|, |C_n| <= 1) and zero-weight blocks always go. Direct trig
sums the kept blocks of (kept, times) trig arrays in a fixed order, with no
BLAS call, so its bits depend on no BLAS kernel or thread count.

Sweeps keeping more than two blocks (no Fock field does) over a uniform grid
t_j = t_0 + j h (bit for bit np.linspace, as perr_series builds it) take
the matrix path, the one BLAS caller, and never sample S_n and C_n at all.
With j = a K + k and K = 128, row j is the angle sum of its anchor a K and
its offset k, S = sA cK + cA sK and C = cA cK - sA sK, so every weighted
sum above is bilinear in the anchor values (sA, cA) and the offset values
(sK, cK): the weights fold into products of anchor values, the offsets
into the basis cK^2, cK sK, sK^2 (populations) and cK_m cK_{m-1},
cK_m sK_{m-1}, sK_m cK_{m-1}, sK_m sK_{m-1} (coherence), and each sum is
one (anchors, basis) x (basis, K) matrix product. The lab frame's phase
exp(-i omega0 t) is its anchor's times its offset's. libm runs once per
call on the offsets Om_n k h, k < K, and once per anchor row. Both this
and direct trig round each argument, Om_n t or omega0 t, at about its
size times eps (t_aK + k h against t_j adds as much), so they differ at
that scale: |Delta rho| up to 0.38 eps t max(omega0, Om_n) on the
benchmark's dense sweeps, where the lab phase's omega0 t is the larger
argument; 4 eps (1 + max |Om_n t|) tested at omega0 = 1.3, g = 0.07, and
4 eps (1 + t max(omega0, Om_n)) in the lab frame at omega0 = 1, g = 0.002,
t up to 1e4 (coherent, n_max = 60), where omega0 t is 65 times the largest
Om_n t. Sparse sweeps and other grids call libm on every cell.

Per call _sweep picks the path and the chunk rows and makes the weights and
the matrix path's offsets and mix (and offset basis where several chunks
read it); per chunk, the trig, the sums in new rows that it hands out, their
physicality margins, and each depth slice's anchor side (and one-chunk
offset rows). It makes no array of the grid's length: reduced_series and
perr_series write each chunk into their one result.

Every reduced state meets one physicality rule, bloch._margins: |tr - 1|
and the smallest eigenvalue, row by row in a sweep and on Python floats in
jc_propagate, within _PHYS_TOL, else _check_physical raises
NonphysicalOutput with one message. Results built here (fields, through
_built; perr_series' series; jc_propagate's KrausSet) skip checks their
caller has proved; the ones a user builds are checked in full.

Frames: "lab" keeps the full phases of H; "rotating" removes the free
evolution omega0 * (a'a + sigma_z / 2). The two reduced states are related
by the local unitary exp(-i omega0 t sigma_z / 2), so they share
populations but generally differ in p_err.

Qubit basis: |e> = |0> is the +z pole of the Bloch ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (RATE_LIMIT, _as_float, _complex, _instance, _integer, _margins, _phase, _rate,
                    _real, as_bloch, bloch_to_density, check_density)
from .errors import TAIL_LIMIT, NonphysicalOutput, TruncationTooSmall
from .speedlimits import check_delta

__all__ = [
    "N_MAX_LIMIT",
    "TAIL_LIMIT",
    "CavityConfig",
    "DistinguishabilitySeries",
    "FieldState",
    "KrausSet",
    "cat_field",
    "coherent_field",
    "coherent_tail",
    "custom_field",
    "e0_field",
    "fock_field",
    "jc_propagate",
    "kraus_support",
    "make_field",
    "mean_photon",
    "nonunitary_tau",
    "perr_series",
    "photon_number_expectation",
    "reduced_series",
]

# Largest Fock cutoff CavityConfig accepts. A sweep that keeps every block
# then holds an offset basis of 7 * 128 floats per block, 72 MB per call,
# over a uniform grid of several chunks (3000 steps peaked at 127 MB RSS,
# interpreter included; 1000 steps, one chunk, at 63 MB), and four real
# (n_max, 512) arrays of 41 MB each over other grids: cos and sin, a trig
# product and its weighted copy (3000 steps peaked at 195 MB).
N_MAX_LIMIT = 10_000
_PHYS_TOL = 1e-8
# A sweep drops its lightest blocks while their summed |weight| stays at
# most _DROP_MASS (see _SweepWeights); kept widths up to _FIXED_ORDER_WIDTH
# take direct trig on any grid, wider ones the matrix path on uniform grids.
_DROP_MASS = 2.0**-64
_FIXED_ORDER_WIDTH = 2
# Rows per anchor of the matrix path (see _anchored_basis).
_ANCHOR = 128
# (lo, hi, cells) of each path's chunk rows (_chunk_rows). Direct trig: 512
# to 4096 rows whose (kept, rows) float64 arrays hold at most 1 MiB, so the
# passes over a chunk run from L2 rather than from memory: 4096 rows up to
# 32 kept blocks (every Fock field), 512 from 129. The matrix path: 8 to 64
# whole anchors (a multiple of _GEMM_ALIGN) whose anchor side, 8 anchors *
# kept floats, holds at most 2 MiB where it can: 64 anchors (8192 rows) up
# to 512 kept blocks, 8 from 2049. Every block of 16 to 256 anchors ran the
# benchmark's dense sweeps in the same time, within 5 %.
_DIRECT_ROWS = (512, 4096, 1 << 17)
_ANCHORED_ROWS = (8 * _ANCHOR, 64 * _ANCHOR, 1 << 22)
# OpenBLAS sums a matrix product deeper than its kernel's GEMM_Q (from 128
# rows, Prescott, to 384, SkylakeX) in two parts split where its thread
# count says, and splits rows that are no multiple of the kernel's tile
# between threads by other kernels; either moves the last bit. So every
# product of the matrix path (_sliced_matmul) cuts its depth to _GEMM_DEPTH
# rows, added in order, and pads its anchor side to a multiple of
# _GEMM_ALIGN rows per column and its offset side to _ANCHOR columns: 1 to 4
# threads gave the same bits under the SkylakeX, Haswell, Zen, Sandybridge
# and Prescott kernels.
_GEMM_DEPTH = 128
_GEMM_ALIGN = 8


def _cutoff(n_max) -> int:
    return _integer(n_max, "n_max", 1, N_MAX_LIMIT)


@dataclass(frozen=True, eq=False)
class CavityConfig:
    """Mode frequency, coupling, detuning, Fock cutoff, and frame choice.

    g defaults to omega0 / 20 when omitted; omega0 and g lie within
    bloch.RATE_LIMIT, and |detuning| is at most RATE_LIMIT. frame is "lab"
    or "rotating". n_max lies in [1, N_MAX_LIMIT].
    """

    omega0: float = 1.0
    g: float | None = None
    detuning: float = 0.0
    n_max: int = 100
    frame: str = "lab"

    def __post_init__(self):
        omega0 = _rate(self.omega0, "omega0")
        g = omega0 / 20.0 if self.g is None else _rate(self.g, "g")
        detuning = _real(self.detuning, "detuning", -RATE_LIMIT, RATE_LIMIT)
        n_max = _cutoff(self.n_max)
        if self.frame not in ("lab", "rotating"):
            raise ValueError(f'frame must be "lab" or "rotating", got {self.frame!r}')
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "detuning", detuning)
        object.__setattr__(self, "n_max", n_max)
        # built once per config; not a field, since the CLI echoes every field
        object.__setattr__(self, "_rates", _block_rates(self))


@dataclass(frozen=True, eq=False)
class FieldState:
    """Truncated Fock expansion of the initial field state (unit norm)."""

    label: str
    amplitudes: np.ndarray
    alpha: complex | None = None

    def __post_init__(self):
        amps = _as_float(self.amplitudes, f"{self.label} amplitudes", complex)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitudes must be a 1-d array with n_max >= 1")
        if not abs(_norm(amps) - 1.0) <= 1e-10:
            raise ValueError(f"{self.label} amplitudes must be finite and normalized within 1e-10")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1


def _norm(amps: np.ndarray) -> float:
    # math.hypot, not np.linalg.norm: a BLAS dot's bits depend on the kernel
    return math.hypot(*amps.real.tolist(), *amps.imag.tolist())


def mean_photon(field: FieldState) -> float:
    """<a'a> of the field state."""
    n = np.arange(_instance(field, FieldState, "field").amplitudes.size)
    return float(np.sum(n * np.abs(field.amplitudes) ** 2))


def _coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    # log-domain magnitudes keep alpha^n / sqrt(n!) finite for any cutoff
    n = np.arange(n_max + 1)
    mag2 = abs(alpha) ** 2
    if mag2 == 0.0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    log_fact = np.fromiter(map(math.lgamma, range(1, n_max + 2)), float, n_max + 1)  # log n!
    logmag = -0.5 * mag2 + 0.5 * (n * np.log(mag2) - log_fact)
    return np.exp(logmag) * np.exp(1j * n * np.angle(alpha))


def coherent_tail(alpha: complex, n_max: int) -> float:
    """Photon-number mass above n_max of the untruncated coherent state.

    This is the Poisson(m = |alpha|^2) tail P(N > n_max). The sum starts at
    its largest term, taken in the log domain, and runs away from the mean
    by the term ratio: upward over N > n_max when n_max + 1 > m, so a tail
    far below machine epsilon keeps its relative precision, else downward
    over N <= n_max, the tail (then about 1/2 or more) being 1 minus it.
    """
    mag2 = abs(_complex(alpha, "alpha")) ** 2
    k = _integer(n_max, "n_max", 0, N_MAX_LIMIT) + 1
    if mag2 == 0.0:
        return 0.0
    upper = k > mag2
    j = first = k if upper else k - 1
    total = term = 1.0  # in units of p_first
    while term > total * 1e-17 and (upper or j > 0):
        term *= mag2 / (j + 1) if upper else j / mag2
        j += 1 if upper else -1
        total += term
    log_p = -mag2 + first * math.log(mag2) - math.lgamma(first + 1.0)
    mass = math.exp(log_p + math.log(total))
    return mass if upper else max(0.0, 1.0 - mass)


def coherent_field(alpha, n_max: int = 100) -> FieldState:
    """Coherent state c_n = exp(-|a|^2/2) a^n / sqrt(n!), truncated, renormalized."""
    alpha, n_max = _complex(alpha, "alpha"), _cutoff(n_max)
    tail = coherent_tail(alpha, n_max)
    return _built("coherent", _coherent_amplitudes(alpha, n_max), alpha, tail)


def _phase_sum_field(label, alpha, n_max, k, residue, total) -> FieldState:
    # k c_n on n = residue mod k and zero elsewhere, as the cat and e0 phase
    # sums leave it; total is its untruncated norm^2, the tail 1 - kept / total
    n = np.arange(n_max + 1)
    amps = np.where(n % k == residue, k * _coherent_amplitudes(alpha, n_max), 0.0 + 0.0j)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)) / total)
    return _built(label, amps, alpha, tail)


def cat_field(alpha, n_max: int = 100, parity: str = "even") -> FieldState:
    """Even or odd coherent superposition |a> +/- |-a>, renormalized.

    Support sits on even (odd) photon numbers only, so adjacent Fock
    amplitudes never coexist; the zeros are exact by construction.
    """
    alpha, n_max = _complex(alpha, "alpha"), _cutoff(n_max)
    if parity not in ("even", "odd"):
        raise ValueError(f'parity must be "even" or "odd", got {parity!r}')
    mag2 = abs(alpha) ** 2
    if parity == "odd" and mag2 == 0.0:
        raise ValueError(f"the odd cat state vanishes at alpha = {alpha}")
    even = parity == "even"
    # untruncated norm^2 of the masked 2*c_n vector: 4 e^-m cosh(m) or 4 e^-m sinh(m)
    total = 2.0 * (1.0 + np.exp(-2.0 * mag2)) if even else -2.0 * np.expm1(-2.0 * mag2)
    return _phase_sum_field(f"cat_{parity}", alpha, n_max, 2, 0 if even else 1, total)


def e0_field(alpha, n_max: int = 100) -> FieldState:
    """Four-component superposition |a> + |-a> + |ia> + |-ia>, renormalized.

    The four quarter-turn phases add to 4 on photon numbers divisible by
    4 and cancel exactly elsewhere, so the support is n = 0 mod 4.
    """
    alpha, n_max = _complex(alpha, "alpha"), _cutoff(n_max)
    mag2 = abs(alpha) ** 2
    # untruncated norm^2: 16 e^-m sum_{4|n} m^n/n! = 4 (1 + e^-2m + 2 e^-m cos m)
    total = 4.0 * (1.0 + np.exp(-2.0 * mag2) + 2.0 * np.exp(-mag2) * np.cos(mag2))
    return _phase_sum_field("e0", alpha, n_max, 4, 0, total)


def fock_field(n, n_max: int = 100) -> FieldState:
    """Single Fock component |n>. n = 0 is the vacuum."""
    k, n_max = _integer(n, "Fock index", 0), _cutoff(n_max)
    if k > n_max:
        raise TruncationTooSmall(1.0, f"Fock index {k} above cutoff {n_max}")
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[k] = 1.0
    return _built("fock", amps, complex(k))


def custom_field(amplitudes) -> FieldState:
    """Wrap raw Fock amplitudes (normalized within 1e-10) as a field state."""
    amps = FieldState("custom", amplitudes).amplitudes  # validated, then renormalized
    return _built("custom", amps, None)


def _built(label: str, amps: np.ndarray, alpha, tail: float = 0.0) -> FieldState:
    # every built field ends here: tail checked, amplitudes normalized once;
    # FieldState's checks (finite, 1-d, n_max >= 1) hold by construction
    if tail >= TAIL_LIMIT:
        raise TruncationTooSmall(tail, f"{label} alpha={alpha}")
    return _trusted(FieldState, label=label, amplitudes=amps / _norm(amps), alpha=alpha)


def _fock_label(alpha, n_max) -> FieldState:
    alpha = _complex(alpha, "alpha")
    if alpha.imag != 0.0:
        raise ValueError("the fock label needs an integer occupation in alpha")
    return fock_field(alpha.real, n_max)


# make_field's labels and their builders (alpha, n_max), in the CLI's --field
# order, the first its default field
_FIELD_BUILDERS = {
    "coherent": coherent_field,
    "cat_even": lambda alpha, n_max: cat_field(alpha, n_max, "even"),
    "cat_odd": lambda alpha, n_max: cat_field(alpha, n_max, "odd"),
    "e0": e0_field,
    "fock": _fock_label,
}


def make_field(label: str, alpha=0j, n_max: int = 100) -> FieldState:
    """Dispatch on a field label. For "fock", alpha is the occupation index."""
    build = _FIELD_BUILDERS.get(label) if isinstance(label, str) else None
    if build is None:
        raise ValueError(f"unknown field label {label!r} (custom states: custom_field)")
    return build(alpha, n_max)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Family of 2x2 qubit operators E_n(t) = <n|V(t)|psi>, n = 0 .. n_max.

    operators is read as a finite complex (n, 2, 2) array, n >= 1, and t as
    a finite float >= 0.
    """

    t: float
    operators: np.ndarray

    def __post_init__(self):
        ops = _as_float(self.operators, "operators", complex)
        if ops.shape[1:] != (2, 2) or not ops.shape[0]:
            raise ValueError(
                f"operators must be an (n, 2, 2) array with n >= 1, got shape {ops.shape}")
        # ravel is a view where ops is one block; count_nonzero is the cheaper reduction
        if np.count_nonzero(np.isfinite(ops.ravel(order="K"))) < ops.size:
            raise ValueError("operators must be finite")
        object.__setattr__(self, "t", _real(self.t, "t", 0.0))
        object.__setattr__(self, "operators", ops)

    def completeness_error(self) -> float:
        """Spectral norm of sum_n E_n' E_n - I. Machine-level for unit-norm fields;
        a ValueError where that sum overflows."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            m = _gram(self.operators)
            s = (m[:2, :2] + m[2:, 2:]).T  # sum_n E_n' E_n
        err = float(_spectral_norms((s - np.eye(2))[None])[0])  # Hermitian: max |eigenvalue|
        if not err < math.inf:  # NaN too
            raise ValueError("completeness_error overflows: sum_n E_n' E_n leaves the float range")
        return err

    def norms(self) -> np.ndarray:
        """Operator (spectral) norm of each E_n."""
        return _spectral_norms(self.operators)


def _trusted(cls, **fields):
    # a result built here from values its caller has proved: no re-checks
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _entries(ops: np.ndarray) -> np.ndarray:
    # (4, n) rows a, b, c, d of an (n, 2, 2) stack of operators [[a, b], [c, d]]:
    # a view, which for _kraus_ops' (2, 2, n) array is that array itself
    return ops.transpose(1, 2, 0).reshape(4, -1)


def _gram(ops: np.ndarray) -> np.ndarray:
    # M[2i+k, 2j+l] = sum_n E_n[i, k] conj(E_n[j, l]), the channel's Choi
    # matrix with its two tensor factors swapped
    a = _entries(ops)
    return a @ a.conj().T


def _spectral_norms(ops: np.ndarray) -> np.ndarray:
    # ||E|| of each E = [[a, b], [c, d]]: the larger eigenvalue of
    # E E' = [[p, x], [conj(x), q]] is (p + q)/2 + hypot((p - q)/2, |x|), a sum
    # of nonnegative terms, exactly 0 for a zero E. Where no step under- or
    # overflows (a zero E makes none) that is all; else each nonzero E whose
    # p + q leaves [2^-960, 2^960] is first scaled by an exact power of two, to
    # a largest part in [1/2, 1), as the closed form is scale-free in between.
    e = np.ascontiguousarray(_entries(ops), dtype=complex)
    try:
        with np.errstate(all="raise"):
            return _norm_terms(e)[0]
    except FloatingPointError:
        pass
    lo, hi = 2.0**-961, 2.0**959  # on (p + q) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        out, s = _norm_terms(e)
        m = np.abs(e.view(float))
        m = np.maximum(m[:, 0::2], m[:, 1::2]).max(axis=0)  # largest part of each E
        far = ((s < lo) | ~(s <= hi)) & (0.0 < m) & (m < math.inf)
        if far.any():
            k = np.frexp(m[far])[1]
            scaled = np.ldexp(np.ascontiguousarray(e[:, far]).view(float), -np.repeat(k, 2))
            out[far] = np.ldexp(_norm_terms(scaled.view(complex))[0], k)
    return out


def _norm_terms(e: np.ndarray):
    # the norms of the operators with rows a, b, c, d in e, and s = (p + q) / 2.
    # Halving p and q moves no bit of a norm whose s is in [2^-961, 2^959]: a
    # subnormal one sits below the other's last bit.
    sq = np.square(e.view(float))
    sq = sq[:, 0::2] + sq[:, 1::2]  # |a|^2, |b|^2, |c|^2, |d|^2
    p, q = 0.5 * (sq[0::2] + sq[1::2])  # p / 2, q / 2
    x = e[:2] * e[2:].conj()
    x = np.abs(x[0] + x[1])
    s = p + q
    return np.sqrt(s + np.hypot(p - q, x)), s


def _check_field(field: FieldState, cfg: CavityConfig) -> None:
    if _instance(field, FieldState, "field").n_max != _instance(cfg, CavityConfig, "cfg").n_max:
        raise ValueError(
            f"field cutoff {field.n_max} does not match config n_max {cfg.n_max}"
        )


def _block_rates(cfg: CavityConfig):
    # Block n = -1 .. n_max, at index n + 1, has M_n = [[d/2, g_n], [g_n, -d/2]]
    # with d the detuning and g_n = g sqrt(n+1), save the uncoupled ends |g,0>
    # (n = -1) and |e,n_max> (n = n_max), where g_n = 0. Returns
    # Om_n = sqrt(d^2/4 + g_n^2), y_n = g_n / Om_n and r_n = (d/2) / Om_n,
    # read-only: the ends turn at |d|/2 with y = 0 and r = sign(d), which is
    # +0.0 at d = +-0.0, so a zero detuning takes no phase there.
    gn = cfg.g * np.sqrt(np.arange(1.0, cfg.n_max + 1))
    half_d = 0.5 * cfg.detuning
    om = np.hypot(half_d, gn)
    end = abs(half_d), 0.0, np.sign(half_d)
    rates = [np.concatenate(([e], x, [e])) for e, x in zip(end, (om, gn / om, half_d / om))]
    for a in rates:
        a.flags.writeable = False
    return rates


def _padded(field: FieldState) -> np.ndarray:
    # c_n at index n + 1 for n = -1 .. n_max + 1, c_{-1} = c_{n_max+1} = 0
    c = np.zeros(field.n_max + 3, dtype=complex)
    c[1:-1] = field.amplitudes
    return c


def _check_phases(cfg: CavityConfig, t_end: float, name: str, lab_rate: float) -> None:
    # Up to t_end the dynamics takes sin and cos of Om_n t up to the top
    # coupled block, whose rate bounds the ends' |detuning| / 2 too, and in
    # the lab frame of free phases up to lab_rate * t_end; past the largest
    # float these are NaN, so refuse such a time.
    rate = float(cfg._rates[0][-2])
    if cfg.frame == "lab":
        rate = max(rate, lab_rate)
    _phase(rate, t_end, name)


def _kraus_ops(field: FieldState, cfg: CavityConfig, t) -> np.ndarray:
    # E_m(t) for m = 0 .. n_max at one time t in the rotating frame, shape
    # (n_max+1, 2, 2), a view of a (2, 2, n_max+1) array: block n = -1 .. n_max,
    # [[u, v], [v, conj(u)]] with u = cos(Om t) - i r sin(Om t) and
    # v = -i y sin(Om t), meets a = c_n and b = c_{n+1} (c_{-1} = c_{n_max+1}
    # = 0) as <e|E_n|e> = a u, <e|E_n|g> = b v, <g|E_{n+1}|e> = a v and
    # <g|E_{n+1}|g> = b conj(u): row e of E_m comes from block m, row g from
    # block m - 1. The lab frame's E_m is diag(ph_m, ph_{m-1}) times it (see
    # jc_propagate), a diagonal unitary that leaves every norm as it is.
    _check_field(field, cfg)
    t = _real(t, "t", 0.0)
    n_max = cfg.n_max
    # the lab row phases omega0 (m + 1/2) t, m <= n_max, are the largest free ones
    _check_phases(cfg, t, "t", (n_max + 0.5) * cfg.omega0)
    om, y, r = cfg._rates
    arg = om * t
    st = np.sin(arg)
    uc = np.empty(n_max + 2, dtype=complex)  # conj(u), written part by part
    np.cos(arg, out=uc.real)
    np.multiply(r, st, out=uc.imag)
    v = -1j * y * st
    c = _padded(field)
    ops = np.empty((2, 2, n_max + 1), dtype=complex)  # <i|E_m|k> at [i, k, m]
    e00, e01, e10, e11 = ops.reshape(4, -1)
    np.multiply(c[1:-1], uc[1:].conj(), out=e00)
    np.multiply(c[2:], v[1:], out=e01)
    np.multiply(c[:-2], v[:-1], out=e10)
    np.multiply(c[1:-1], uc[:-1], out=e11)
    return ops.transpose(2, 0, 1)


def _check_physical(worst, low) -> None:
    # the one refusal of reduced states: a worst |tr - 1| or smallest
    # eigenvalue (bloch._margins) past _PHYS_TOL; a NaN fails too
    if not (worst <= _PHYS_TOL and low >= -_PHYS_TOL):
        raise NonphysicalOutput(
            f"reduced state broke physicality: |tr-1| up to {worst:.3e}, "
            f"min eigenvalue {low:.3e}"
        )


@dataclass(frozen=True, eq=False)
class _SweepWeights:
    """Per-call weights of the real trig contractions in _sweep.

    They read no grid, so one set serves any rows: _direct_sums(w, cfg, t)
    sums the rows t, one row alone included, and _anchored_basis builds the
    matrix path's per-grid side from them.

    Only the kept blocks n = -1 .. n_max enter a sweep, listed ascending in
    kept; every array below runs over them. rho_gg's weights are diag_ss and
    diag_sc negated, both zero at the end blocks. pairs holds the (re, im)
    columns of rho_eg against C_m S_{m-1}, S_m C_{m-1}, C_m C_{m-1} and
    S_m S_{m-1} for kept neighbours (row j for kept[j] and kept[j+1]; zero
    when the two are not adjacent blocks).

    A block's mass is the summed |re| + |im| of every weight that reads its
    S_n or C_n: its diag_ss and diag_sc weights, twice (rho_ee's and
    rho_gg's), and each pair row it is one of the two blocks of.
    Blocks are dropped lightest first while their summed mass, dropped,
    stays at most _DROP_MASS; as |S_n| and |C_n| are at most 1, no ee, gg
    or eg value moves by more than dropped (up to the rounding of that
    sum). Zero-mass blocks are always dropped: a Fock field keeps at most
    two, Fock 0 and Fock n_max an end block and its neighbour.
    """

    om: np.ndarray  # (kept,) Om_n
    ee0: float  # p sum |c_n|^2
    gg0: float  # q sum |c_n|^2
    diag_ss: np.ndarray  # (kept,): rho_ee against S_n^2
    diag_sc: np.ndarray  # (kept,): rho_ee against S_n C_n
    pairs: np.ndarray  # (4, kept-1, 2)
    kept: np.ndarray  # (kept,) block indices n in -1 .. n_max, ascending
    dropped: float  # summed mass of the dropped blocks


def _uniform(t: np.ndarray) -> bool:
    # a grid of n >= 2 times, bit for bit np.linspace(t[0], t[-1], n)
    return t.size >= 2 and np.array_equal(t, np.linspace(t[0], t[-1], t.size))


def _sweep_weights(field: FieldState, cfg: CavityConfig, rho0) -> _SweepWeights:
    # block n = -1 .. n_max at index n + 1 of every array, as c_n in _padded
    c = _padded(field)
    a2 = np.abs(c) ** 2
    om, y, r = cfg._rates
    p, q, b = rho0[0, 0].real, rho0[1, 1].real, rho0[0, 1]
    norm = float(np.sum(a2[1:-1]))

    # rho_ee's populations: |u_n|^2 = 1 - y_n^2 S_n^2, |v_n|^2 = y_n^2 S_n^2,
    # u_n conj(v_n) = y_n (r_n S_n^2 + i S_n C_n)
    lo2 = a2[:-1] * y * y  # |c_n|^2 y_n^2
    hi2 = a2[1:] * y * y  # |c_{n+1}|^2 y_n^2
    bw = b * c[:-1] * np.conj(c[1:]) * y  # b c_n conj(c_{n+1}) y_n
    diag_ss = q * hi2 - p * lo2 + 2.0 * r * bw.real
    diag_sc = -2.0 * bw.imag

    # coherence, adjacent blocks m and m-1 for m = 0 .. n_max
    cm, cl, ch = c[1:-1], c[:-2], c[2:]  # c_m, c_{m-1}, c_{m+1}
    am = a2[1:-1]
    ym, yl, rm, rl = y[1:], y[:-1], r[1:], r[:-1]
    p_ml = p * cm * np.conj(cl)  # p c_m conj(c_{m-1})
    q_hm = q * ch * np.conj(cm)  # q c_{m+1} conj(c_m)
    b_m = b * am  # b |c_m|^2
    pairs = np.array([  # complex, then read as (re, im) columns
        1j * (p_ml * yl - b_m * rl),  # C_m S_{m-1}
        -1j * (q_hm * ym + b_m * rm),  # S_m C_{m-1}
        b_m,  # C_m C_{m-1}
        p_ml * rm * yl - q_hm * ym * rl - b_m * rm * rl  # S_m S_{m-1}
        + np.conj(b) * ch * np.conj(cl) * ym * yl,
    ]).view(float).reshape(4, -1, 2)

    mass = 2.0 * (np.abs(diag_ss) + np.abs(diag_sc))  # read by rho_ee and rho_gg
    # row m reads m and m-1: |re| + |im| of each, the four added in order
    pair_mass = np.add(*np.abs(pairs).transpose(2, 0, 1)).sum(axis=0)
    mass[1:] += pair_mass
    mass[:-1] += pair_mass
    order = np.argsort(mass, kind="stable")
    running = np.cumsum(mass[order])  # sequential, so nondecreasing
    n_drop = int(np.searchsorted(running, _DROP_MASS, side="right"))
    kept = np.sort(order[n_drop:])  # indices n + 1
    dropped = float(running[n_drop - 1]) if n_drop else 0.0

    pairs = np.where((np.diff(kept) == 1)[:, None], pairs[:, kept[1:] - 1], 0.0)
    return _SweepWeights(om[kept], p * norm, q * norm, diag_ss[kept], diag_sc[kept], pairs,
                         kept - 1, dropped)


def _anchored_basis(w: _SweepWeights, cfg: CavityConfig, times: np.ndarray, shared: bool):
    """The matrix path's per-grid side of the sums: ((off, whole, lab), mix).

    times is bit for bit np.linspace(t[0], t[-1], n), n >= 2, with spacing
    h. Row j = a K + k (K = _ANCHOR) is there the angle sum of its anchor
    row a K (libm at that t_j itself) and offset k, with sK = sin(Om_n k h)
    and cK = cos(Om_n k h), k h read as t_k - t_0, for k < min(n, K), once
    per call (zero for k >= n): off, (kept, 2, K). Where shared (_sweep
    counts more than one chunk), whole holds the offset basis made from them
    (_offset_rows of every block and pair) and off is None; else whole is
    (None, None) and each depth slice makes its own rows. lab: exp(-i omega0
    k h), None in the rotating frame. mix folds diag_ss, diag_sc and pairs
    into (kept, 3, 4) and (kept-1, 8, 4) anchor-product weights (_anchor_mix).
    """
    # k h as the grid spells it, t_k - t_0 (no larger than the last time)
    tk = times[:_ANCHOR] - times[0]
    off, n, whole = _cos_sin(w.om, tk, _ANCHOR), w.om.size, (None, None)
    if shared:
        off, whole = None, (_offset_rows(off, 0, n, 0), _offset_rows(off, 0, n - 1, 1))
    lab = np.exp(-1j * cfg.omega0 * tk) if cfg.frame == "lab" else None
    return (off, whole, lab), _anchor_mix(w.diag_ss, w.diag_sc, w.pairs)


def _offset_rows(off: np.ndarray, n0: int, n1: int, pair: int) -> np.ndarray:
    # The offset basis rows (n, b) of blocks n0 .. n1-1: the four products of
    # pair row n's blocks n + 1 and n (pair 1), or cK^2, cK sK, sK^2 (pair 0).
    if pair:
        return _products(off[n0 + 1:n1 + 1], off[n0:n1]).reshape(-1, _ANCHOR)
    x, rows = off[n0:n1], np.empty((n1 - n0, 3, _ANCHOR))
    np.multiply(x[:, :1], x, out=rows[:, :2])  # cK^2, cK sK
    np.multiply(x[:, 1], x[:, 1], out=rows[:, 2])
    return rows.reshape(-1, _ANCHOR)


def _cos_sin(om: np.ndarray, t: np.ndarray, cols: int) -> np.ndarray:
    # (kept, 2, cols) cos and sin of Om_n t, zero past t.size; sin in place
    out = np.empty((om.size, 2, cols))
    if t.size < cols:
        out[:, :, t.size:] = 0.0
    arg = np.multiply(om[:, None], t, out=out[:, 1, :t.size])
    np.cos(arg, out=out[:, 0, :t.size])
    np.sin(arg, out=arg)
    return out


def _products(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    # (n, 4, cols) products cc, cs, sc, ss of (n, 2, cols) cos, sin rows
    return (hi[:, :, None] * lo[:, None]).reshape(hi.shape[0], 4, -1)


def _anchor_mix(ss: np.ndarray, sc: np.ndarray, pairs: np.ndarray) -> tuple:
    # The weights against the anchor products cA cA', cA sA', sA cA', sA sA'
    # (' the lower block of a pair), as (n, (basis row, column), 4) arrays,
    # the columns rho_ee's (populations) or (re, im) (pairs).
    # With S = sA cK + cA sK and C = cA cK - sA sK, ss S^2 + sc S C is
    # (ss sA^2 + sc sA cA) cK^2 + (2 ss sA cA + sc (cA^2 - sA^2)) cK sK
    # + (ss cA^2 - sc sA cA) sK^2, and the four pair products expand alike over
    # cK cK', cK sK', sK cK', sK sK'. Each is one gather from every weight and -weight.
    diag = np.stack([np.zeros_like(ss), ss, sc, -sc], axis=-1)  # 0, ss, sc, -sc
    diag = diag[:, [[0, 2, 0, 1], [2, 1, 1, 3], [1, 3, 0, 0]]]
    # w1..w4 (C S', S C', C C', S S') and -w1..-w4 at 0..7, per (re, im) column
    signed = np.concatenate((pairs, -pairs)).transpose(1, 2, 0)
    table = [[2, 0, 1, 3], [0, 6, 3, 5], [1, 3, 6, 4], [3, 5, 4, 2]]
    pair = signed[:, [[0], [1]], np.array(table)[:, None]]  # (n, basis, 2, 4)
    return diag, pair.reshape(pair.shape[0], -1, 4)


def _chunk_rows(kept: int, lo: int, hi: int, cells: int) -> int:
    # A path's chunk rows (_DIRECT_ROWS, _ANCHORED_ROWS): the largest power
    # of two in [lo, hi] whose (kept, rows) cells fit, else lo. Set by the
    # kept width alone, so no grid length moves a chunk bound.
    rows = hi
    while rows > lo and rows * kept > cells:
        rows //= 2
    return rows


def _contract_fixed(prod: np.ndarray, w: np.ndarray) -> np.ndarray:
    # (rows,): sum over kept blocks k of prod[k] * w[k], one block after the
    # other (a reduction along the outer axis), each product rounded before
    # its add, so no BLAS kernel, thread count or FMA touches the bits. One
    # row is accumulated instead: numpy reduces a single contiguous column
    # pairwise from 8 terms up, other bits than the row gets in a longer chunk.
    terms = prod * w[:, None]
    if terms.shape[1] == 1 and terms.size:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def _sliced_matmul(parts, depth: int) -> np.ndarray:
    # A @ B, its depth cut into _GEMM_DEPTH slices added in order (no BLAS thread
    # count moves a bit); parts(r0, r1) makes A's columns and B's rows r0:r1.
    out, part = np.matmul(*parts(0, min(_GEMM_DEPTH, depth))), None
    for lo in range(_GEMM_DEPTH, depth, _GEMM_DEPTH):
        part = np.matmul(*parts(lo, min(lo + _GEMM_DEPTH, depth)), out=part)
        out += part
    return out


def _fold(mix: np.ndarray, anchor: np.ndarray, pair: int, off, whole, rows: int):
    # (columns, rows): the anchor side mix_n @ (products of n's, or n + 1's and
    # n's, anchor values), laid out ((n, b), (column, anchor)), times the offset
    # basis ((n, b), K), whole or made from a slice's blocks, in grid order.
    per = 4 if pair else 3  # basis rows per block

    def parts(r0, r1):
        n0, n1 = r0 // per, -(-r1 // per)
        side = np.matmul(mix[n0:n1], _products(anchor[n0 + pair:n1 + pair], anchor[n0:n1]))
        basis = _offset_rows(off, n0, n1, pair) if whole is None else whole[n0 * per:]
        cut = slice(r0 - n0 * per, r1 - n0 * per)
        return side.reshape((n1 - n0) * per, -1)[cut].T, basis[cut]

    out = _sliced_matmul(parts, per * mix.shape[0])
    return out.reshape(-1, anchor.shape[-1] * _ANCHOR)[:, :rows]


def _anchored_sums(w: _SweepWeights, cfg: CavityConfig, t: np.ndarray, basis, mix):
    # The population sum and rho_eg at the rows t of a uniform grid, t[0] an
    # anchor row: libm's sA, cA at the anchors t[a K], folded with the
    # weights, meet the offset basis (see _anchored_basis); zero anchors pad
    # the anchor side to a multiple of _GEMM_ALIGN. The last chunk may end
    # inside an anchor's rows.
    off, (diag, pair), lab = basis
    anchors = t[::_ANCHOR]
    trig = _cos_sin(w.om, anchors, -(-anchors.size // _GEMM_ALIGN) * _GEMM_ALIGN)  # cA, sA
    pop = _fold(mix[0], trig, 0, off, diag, t.size)[0]
    eg = np.empty(t.size, dtype=complex)
    eg.real, eg.imag = _fold(mix[1], trig, 1, off, pair, t.size)
    if lab is not None:
        eg *= (np.exp(-1j * cfg.omega0 * anchors)[:, None] * lab).ravel()[:t.size]
    return pop, eg


def _direct_sums(w: _SweepWeights, cfg: CavityConfig, t: np.ndarray):
    # The population sum and rho_eg at the rows t: libm on every (kept, rows)
    # cell, then each trig product contracted with its weights. The lab phase
    # stays per chunk: numpy's complex product may round a row differently at
    # another position in an array.
    C, S = _cos_sin(w.om, t, t.size).transpose(1, 0, 2)
    pop = _contract_fixed(S * S, w.diag_ss) + _contract_fixed(S * C, w.diag_sc)
    coh = np.zeros((2, t.size))
    for (hi, lo), weight in zip(((C, S), (S, C), (C, C), (S, S)), w.pairs):
        adj = hi[1:] * lo[:-1]  # kept neighbours
        for part, col in zip(coh, weight.T):  # re, im
            part += _contract_fixed(adj, col)
        del adj  # freed before the next product is made
    eg = np.empty(t.size, dtype=complex)
    eg.real, eg.imag = coh
    if cfg.frame == "lab":
        eg *= np.exp(-1j * cfg.omega0 * t)
    return pop, eg


def _sweep(field: FieldState, rho0, cfg: CavityConfig, tgrid: np.ndarray, uniform: bool):
    """Yield (sl, ee, eg, gg): rho_ee, rho_eg and rho_gg at the checked
    times tgrid[sl], one chunk sl after the other, each in new arrays.

    The weights, the dropped blocks and the two ways to sum are the module
    docstring's. The path and the chunk rows are decided here, once: more
    than _FIXED_ORDER_WIDTH kept blocks over a uniform grid (uniform, as the
    caller proved it) take the matrix path, _anchored_sums with the side
    _anchored_basis builds for this grid (told whether several chunks read
    its offset basis), and every other sweep direct trig, _direct_sums. The
    chunk rows (_chunk_rows) read the path and the kept width alone, and the
    matrix path cuts its depth into slices added in order, so neither the
    grid length nor the BLAS thread count moves a bit. Each chunk's worst
    margins (bloch._margins of its rows) join the grid's, and after the last
    chunk _check_physical refuses a worst |tr - 1| or smallest eigenvalue
    past _PHYS_TOL, or a NaN in any chunk. Work per call and per chunk: see
    the module docstring.
    """
    w = _sweep_weights(field, cfg, rho0)
    kept = w.kept.size
    anchored = kept > _FIXED_ORDER_WIDTH and uniform
    rows = _chunk_rows(kept, *(_ANCHORED_ROWS if anchored else _DIRECT_ROWS))
    sums, side = _direct_sums, ()
    if anchored:
        sums, side = _anchored_sums, _anchored_basis(w, cfg, tgrid, tgrid.size > rows)
    worst = low = 0.0
    for lo in range(0, tgrid.size, rows):
        sl = slice(lo, lo + rows)
        if kept:
            pop, eg = sums(w, cfg, tgrid[sl], *side)
            ee, gg = w.ee0 + pop, w.gg0 - pop
        else:  # every weight dropped: the constant state, its zeros' signs kept
            ee, gg, eg = (np.full(tgrid[sl].size, x) for x in (w.ee0, w.gg0, 0j))
        dev, eig = _margins(ee, eg, gg)  # 0.0 over no rows; NaN stays
        worst, low = np.maximum(worst, dev.max(initial=0.0)), np.minimum(low, eig.min(initial=0.0))
        yield sl, ee, eg, gg
    _check_physical(worst, low)


def reduced_series(field: FieldState, qubit, cfg: CavityConfig, times):
    """Reduced qubit states at the given finite, nonnegative times, shape
    (len(times), 2, 2); the sweep and its accuracy are _sweep's."""
    rho0 = check_density(qubit)
    _check_field(field, cfg)
    tgrid = _as_float(times, "times")
    if tgrid.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if not np.all((tgrid >= 0.0) & (tgrid < math.inf)):
        raise ValueError("times must be finite and nonnegative")
    _check_phases(cfg, float(tgrid.max(initial=0.0)), "max(times)", cfg.omega0)

    rho = np.empty((tgrid.size, 4), dtype=complex)  # rows ee, eg, ge, gg
    for sl, ee, eg, gg in _sweep(field, rho0, cfg, tgrid, _uniform(tgrid)):
        rho[sl, 0], rho[sl, 1], rho[sl, 3] = ee, eg, gg
        np.conjugate(eg, out=rho[sl, 2])
    return rho.reshape(-1, 2, 2)


def jc_propagate(field: FieldState, qubit, cfg: CavityConfig, t: float):
    """Reduced qubit state and Kraus family at a single time.

    The evolution is exact on the truncated joint space, so the family is
    complete and the map trace preserving to machine precision; at t = 0
    every E_n is c_n times the identity. NonphysicalOutput signals a
    numerically broken amplitude vector, not roundoff.
    """
    rho0 = check_density(qubit)
    ops = _kraus_ops(field, cfg, t)
    t = float(t)
    if cfg.frame == "lab":
        # row i of E_n carries the free phase of |n - i>:
        # ph_m = exp(-i omega0 t (m + 1/2)), m = -1 .. n_max
        ph = np.exp((-1j * cfg.omega0 * t) * np.arange(-0.5, cfg.n_max + 1))
        rows = ops.transpose(1, 2, 0)  # [i, k, n], as _kraus_ops lays it out
        rows[0] *= ph[1:]
        rows[1] *= ph[:-1]
    # rho_S[i, j] = sum_n (E_n rho0 E_n')[i, j] = sum_kl rho0[k, l] M[2i+k, 2j+l]
    (m00, m01, m02, m03), (m10, m11, m12, m13), (_, _, m22, m23), (_, _, m32, m33) = (
        _gram(ops).tolist())
    (p, b), (c, q) = rho0.tolist()
    ee = p * m00 + b * m01 + c * m10 + q * m11
    eg = p * m02 + b * m03 + c * m12 + q * m13
    gg = p * m22 + b * m23 + c * m32 + q * m33
    _check_physical(*_margins(ee.real, eg, gg.real))  # the sweep's rule, on floats
    # _kraus_ops checked t; a NaN or inf entry reaches ee or gg (checked above)
    rho_t = np.array([[ee.real, eg], [eg.conjugate(), gg.real]])
    return rho_t, _trusted(KrausSet, t=t, operators=ops)


def kraus_support(field: FieldState, cfg: CavityConfig, t: float, tol: float = 1e-12):
    """Indices n with operator norm ||E_n(t)|| > tol, ascending.

    The norms are read in the rotating frame in both frames: the lab
    frame's free phases multiply each E_n by a diagonal unitary.
    """
    return np.nonzero(_spectral_norms(_kraus_ops(field, cfg, t)) > _real(tol, "tol", 0.0))[0]


def photon_number_expectation(kraus: KrausSet, qubit) -> float:
    """<a'a> at the KrausSet's time: sum_n n tr(E_n rho E_n'); a ValueError where it
    overflows."""
    _instance(kraus, KrausSet, "kraus")
    rho0 = check_density(qubit)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        ops = kraus.operators
        weights = np.einsum("nij,jk,nik->n", ops, rho0, ops.conj()).real
        total = float(np.sum(np.arange(weights.size) * weights))
    if not abs(total) < math.inf:  # NaN too
        raise ValueError("photon_number_expectation overflows the float range")
    return total


@dataclass(frozen=True, eq=False)
class DistinguishabilitySeries:
    """Sampled curve t -> p_err(rho_S(0), rho_S(t)) with its provenance.

    times are raw; multiply by config.omega0 for dimensionless units. The
    times are finite and nondecreasing, each p_err in [0, 1/2].
    """

    times: np.ndarray
    p_err: np.ndarray
    config: CavityConfig
    qubit_r: np.ndarray
    field_label: str
    field_alpha: complex | None

    def __post_init__(self):
        t, pe = _as_float(self.times, "times"), _as_float(self.p_err, "p_err")
        if t.ndim != 1 or pe.shape != t.shape:
            raise ValueError(f"times and p_err must be 1-d of one length: {t.shape}, {pe.shape}")
        if not (np.isfinite(t).all() and np.all(t[1:] >= t[:-1])):
            raise ValueError("times must be finite and nondecreasing")
        if not np.all((pe >= 0.0) & (pe <= 0.5)):  # NaN fails too
            raise ValueError("p_err must be finite and lie in [0, 1/2]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "p_err", pe)

    @property
    def samples(self):
        """Iterator of (t, p_err) pairs."""
        return zip(self.times.tolist(), self.p_err.tolist())


def perr_series(
    field: FieldState,
    qubit_r,
    cfg: CavityConfig,
    t_max: float | None = None,
    steps: int = 10_000,
    workers: int = 1,
) -> DistinguishabilitySeries:
    """Helstrom error of the evolved vs initial qubit on a uniform grid.

    The grid is ``steps`` samples spanning [0, t_max] inclusive, with
    t_max defaulting to 100 / omega0. At t = 0 every sine is 0, so p_err[0]
    is 1/2 up to the rounding of sums of |c_n|^2: exactly 1/2 where they sum
    to 1 (a Fock field), else a few ulp below (at most 3 ulp of 2^-54 over
    229 random matrix-path sweeps). Deterministic for fixed inputs.
    ``workers`` (an integer, at least 1) is accepted and changes nothing:
    the sweep runs inline.
    """
    r0 = as_bloch(qubit_r)
    _check_field(field, cfg)
    t_max = 100.0 / cfg.omega0 if t_max is None else _real(t_max, "t_max", 0.0)
    if t_max == 0.0:
        raise ValueError("t_max must be positive, got 0")
    _check_phases(cfg, t_max, "t_max", cfg.omega0)
    times = np.linspace(0.0, t_max, _integer(steps, "steps", 2))
    _integer(workers, "workers", 1)
    pe = np.empty(times.size)
    for sl, ee, eg, gg in _sweep(field, bloch_to_density(r0), cfg, times, True):
        dx = eg.real * 2.0 - r0[0]
        dy = eg.imag * -2.0 - r0[1]
        dz = (ee - gg) - r0[2]
        np.clip(0.5 - np.sqrt((dx * dx + dy * dy) + dz * dz) * 0.25, 0.0, 0.5, out=pe[sl])
    # the series' checks hold: times is a checked linspace, pe clipped from checked states
    return _trusted(DistinguishabilitySeries, times=times, p_err=pe, config=cfg, qubit_r=r0,
                    field_label=field.label, field_alpha=field.alpha)


def nonunitary_tau(series: DistinguishabilitySeries, delta, atol: float = 1e-9):
    """First time the sampled curve reaches p_err <= delta, or None.

    The crossing is located by linear interpolation between the two
    bracketing grid samples. ``atol`` widens the test to delta + atol so
    tangential dips that touch the level between samples (for example a
    delta = 0 minimum) are still caught on a fine enough grid; pass
    atol=0 for the strict test. Quadratic refinement is deliberately not
    attempted; near oscillation extrema it is spurious.
    """
    _instance(series, DistinguishabilitySeries, "series")
    d, atol = check_delta(delta), _real(atol, "atol", 0.0)
    hit = series.p_err <= d + atol
    if not hit.any():
        return None
    i = int(hit.argmax())  # the first hit
    if i == 0:
        return float(series.times[0])
    t0, t1 = float(series.times[i - 1]), float(series.times[i])
    p0, p1 = float(series.p_err[i - 1]), float(series.p_err[i])
    frac = min(max((p0 - d) / (p0 - p1), 0.0), 1.0)
    return t0 + frac * (t1 - t0)
