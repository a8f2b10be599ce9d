"""Print one sha1 per cavity case, to diff the cavity's bytes between two checkouts.

Not a test (pytest does not collect it). It runs 4080 cases through the
public API: 17 fields (Fock, coherent, e0, odd cat and random custom, n_max
2 to 600), both frames and detuning 0 and 0.03, each through kraus_support
and KrausSet.completeness_error at 4 times, and with 4 qubits through
reduced_series over 8 grids (uniform 500, 4097, 9001 and 17000 rows, bent
3 and 5000 rows, one row, empty), perr_series at 6000 steps and
jc_propagate (its state and its operators) at the 4 times. Run it on each
checkout and compare:

    PYTHONPATH=<checkout>/src python tests/sweep_digest.py > digest.txt

Set OPENBLAS_CORETYPE (e.g. Haswell, Prescott) and OPENBLAS_NUM_THREADS to
check that the bytes do not depend on the BLAS kernel or thread count. The
imported module's path goes to stderr, so stdout holds the digests alone.
"""

import hashlib
import math
import sys

import numpy as np

from blochdyn import CavityConfig, jc_propagate, kraus_support, perr_series, reduced_series
from blochdyn.bloch import bloch_to_density
from blochdyn.cavity import cat_field, coherent_field, custom_field, e0_field, fock_field


def _custom(n_max, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    # math.hypot, not np.linalg.norm: a BLAS dot would make the input's bits
    # depend on the OpenBLAS kernel
    return custom_field(amps / math.hypot(*amps.real, *amps.imag))


FIELDS = {
    "fock0_2": lambda: fock_field(0, 2),
    "fock1_8": lambda: fock_field(1, 8),
    "fock5_40": lambda: fock_field(5, 40),
    "fock100_100": lambda: fock_field(100, 100),
    "coherent0.5_8": lambda: coherent_field(0.5, 8),
    "coherent1.5+0.5j_30": lambda: coherent_field(1.5 + 0.5j, 30),
    "coherent3_60": lambda: coherent_field(3.0, 60),
    "coherent3_100": lambda: coherent_field(3.0, 100),
    "e0_1_16": lambda: e0_field(1.0, 16),
    "e0_3_100": lambda: e0_field(3.0, 100),
    "cat_odd1_20": lambda: cat_field(1.0, 20, "odd"),
    "cat_odd2.5_60": lambda: cat_field(2.5, 60, "odd"),
    "cat_odd3_100": lambda: cat_field(3.0, 100, "odd"),
    "custom_2": lambda: _custom(2, 1),
    "custom_24": lambda: _custom(24, 2),
    "custom_100": lambda: _custom(100, 3),
    "custom_600": lambda: _custom(600, 4),  # matrix-path chunks of 4096 rows
}
QUBITS = {
    "excited": (0.0, 0.0, 1.0),
    "mixed": (0.3, -0.2, 0.5),
    "x0.9": (0.9, 0.0, 0.0),
    "pure": (0.6, 0.0, 0.8),
}
GRIDS = {
    "uniform500": lambda: np.linspace(0.0, 160.0, 500),
    "uniform4097": lambda: np.linspace(0.0, 160.0, 4097),
    "uniform9001": lambda: np.linspace(0.0, 160.0, 9001),
    "uniform17000": lambda: np.linspace(0.0, 160.0, 17000),
    "bent3": lambda: np.linspace(0.0, 160.0, 3) ** 1.5,
    "bent5000": lambda: np.linspace(0.0, 100.0, 5000) ** 1.2,
    "one_row": lambda: np.array([37.5]),
    "empty": lambda: np.zeros(0),
}
TIMES = (0.0, 1.3, 37.5, 160.0)  # single times, for the Kraus family


def _sha1(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def main() -> None:
    import blochdyn

    print(f"# blochdyn from {blochdyn.__file__}", file=sys.stderr)
    grids = {name: make() for name, make in GRIDS.items()}
    for fname, make in FIELDS.items():
        f = make()
        for frame in ("lab", "rotating"):
            for detuning in (0.0, 0.03):
                cfg = CavityConfig(omega0=1.0, g=0.05, detuning=detuning, n_max=f.n_max,
                                   frame=frame)
                case = f"{fname} {frame} {detuning}"
                for t in TIMES:
                    kraus = jc_propagate(f, np.eye(2) / 2, cfg, t)[1]
                    print(case, f"support{t}", _sha1(kraus_support(f, cfg, t)))
                    print(case, f"completeness{t}", _sha1(np.float64(kraus.completeness_error())))
                for qname, r in QUBITS.items():
                    case = f"{fname} {frame} {detuning} {qname}"
                    rho0 = bloch_to_density(r)
                    for gname, times in grids.items():
                        print(case, gname, _sha1(reduced_series(f, rho0, cfg, times)))
                    s = perr_series(f, r, cfg, t_max=200.0, steps=6000)
                    print(case, "perr6000", _sha1(s.times, s.p_err))
                    for t in TIMES:
                        rho_t, kraus = jc_propagate(f, rho0, cfg, t)
                        print(case, f"jc{t}", _sha1(rho_t, kraus.operators))


if __name__ == "__main__":
    main()
