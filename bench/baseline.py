"""Machine block and the baseline-table rows of ROADMAP.md, measured again.

    python3 bench/baseline.py

Prints markdown: the machine (nproc, caches, Python, numpy, scipy, git
sha) and one row per baseline figure. Timings are best of 3 unless the
row says otherwise; in-process rows call blochdyn's public functions,
"fresh interpreter" rows start a new python3 per sample.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def best(fn, n=3) -> float:
    out = []
    for _ in range(n):
        t0 = perf_counter()
        fn()
        out.append(perf_counter() - t0)
    return min(out)


def machine() -> list[str]:
    import numpy
    import scipy

    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
            caches.append(f"L{level} {kind} {size}")
        except OSError:
            continue
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return [f"- nproc: {os.cpu_count()}",
            f"- caches (per core unless shared): {', '.join(caches) or 'unknown'}",
            f"- Python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}",
            f"- platform: {platform.platform()}",
            f"- git sha: {sha}"]


def fresh(code: str, *args) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", code, *args]
    return best(lambda: subprocess.run(argv, env=env, check=False, capture_output=True))


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import blochdyn as bd
    from blochdyn import cli

    rows = []
    rows.append(("`import blochdyn` (fresh interpreter, wall)", fresh("import blochdyn")))
    rows.append(("`blochdyn qsl` (fresh interpreter, wall)",
                 fresh("from blochdyn.cli import entrypoint; entrypoint()",
                       "qsl", "--axis", "0,0,1", "--bloch", "1,0,0", "--delta", "0.1")))
    ham = bd.HamiltonianSpec.from_axis((0, 0, 1))
    r = np.array([0.6, 0.3, 0.2])
    per = 2000
    rows.append(("`classify` per call", best(lambda: [bd.classify(r, ham, 0.3) for _ in range(per)]) / per))
    rows.append(("`tau_exact` per call", best(lambda: [bd.tau_exact(r, ham, 0.3) for _ in range(per)]) / per))
    rows.append(("`scan_ring`, grid 50", best(lambda: bd.scan_ring(ham, 0.7, 50))))
    rows.append(("`scan_ring`, grid 200", best(lambda: bd.scan_ring(ham, 0.7, 200))))
    cfg = bd.CavityConfig(omega0=1.0, g=0.05, n_max=100)
    fld = bd.coherent_field(3.0, n_max=100)
    rows.append(("`perr_series`, n_max=100, 10k steps",
                 best(lambda: bd.perr_series(fld, (0.9, 0, 0), cfg, t_max=100.0, steps=10_000))))
    rows.append(("`perr_series`, n_max=100, 10k steps, `workers=2`",
                 best(lambda: bd.perr_series(fld, (0.9, 0, 0), cfg, t_max=100.0, steps=10_000, workers=2))))
    cfg4 = bd.CavityConfig(omega0=1.0, g=0.05, n_max=400)
    fld4 = bd.coherent_field(3.0, n_max=400)
    rows.append(("`perr_series`, n_max=400, 100k steps (one sample)",
                 best(lambda: bd.perr_series(fld4, (0.9, 0, 0), cfg4, t_max=100.0, steps=100_000), n=1)))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        out = str(Path(tmp) / "out.csv")
        rows.append(("`cavity` defaults via `cli.main`", best(lambda: cli.main(["cavity", "--out", out]))))
        rows.append(("`qsl --csv` via `cli.main`",
                     best(lambda: cli.main(["qsl", "--axis", "0,0,1", "--bloch", "1,0,0",
                                            "--delta", "0.1", "--csv", out]))))
        rows.append(("`scan --grid 100` via `cli.main`",
                     best(lambda: cli.main(["scan", "--theta-psi", "0.7853981633974483",
                                            "--grid", "100", "--out", out]))))
    rows.append(("`scan_ring`, grid 100 (the library part of the row above)",
                 best(lambda: bd.scan_ring(ham, 0.7853981633974483, 100))))

    print("\n".join(machine()))
    print()
    print("| what | time |")
    print("| --- | --- |")
    for what, sec in rows:
        print(f"| {what} | {sec * 1e6:.1f} µs |" if sec < 1e-3 else f"| {what} | {sec:.3g} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
