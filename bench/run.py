"""blochdyn benchmark: one workload per run, one JSON result line at the end.

    python3 bench/run.py --workload orbit_queries --seed 1 --seconds 35 --trace 0

Workloads (see bench/README.md): orbit_queries, cavity_sweeps, cli_cold.
With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics from a
traced pass, plus the tracing overhead against an untraced replay of the
pass's in-process steps. The run builds nothing: it imports blochdyn from
src/ beside bench/, and exits 2 without a result when that is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# workload -> components run in every round; the first is the focus
WORKLOADS = {
    "orbit_queries": ("orbit", "cavity"),
    "cavity_sweeps": ("cavity", "orbit"),
    "cli_cold": ("cli", "orbit", "cavity"),
}
CLI_CONTROL_ROUNDS = 8  # fixed CLI control rounds on workloads whose focus is in-process
# in-process control samples after each focus round (a cavity round is long)
CONTROL_REPS = {"orbit_queries": 1, "cavity_sweeps": 8}
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


def sizes(workload: str, tiny: bool) -> dict:
    focus = WORKLOADS[workload][0]
    return {c: "tiny" if tiny else ("full" if c == focus else "probe")
            for c in ("orbit", "cavity", "cli")}


def setup(workload: str, seed: int, tiny: bool) -> dict:
    """Import blochdyn and generate every input of the workload."""
    sys.path.insert(0, str(SRC))
    import blochdyn  # noqa: F401  (the import is part of set-up)
    import components
    import inputs

    sz = sizes(workload, tiny)
    orbit = inputs.orbit_inputs(seed, sz["orbit"])
    cavity = inputs.cavity_inputs(seed, sz["cavity"])
    components.prepare_cavity(cavity)
    cli = inputs.cli_inputs(seed, sz["cli"], malformed=WORKLOADS[workload][0] == "cli")
    return {"orbit": orbit, "cavity": cavity, "cli": cli}


def setup_probe(args) -> None:
    # Runs in a fresh interpreter; blochdyn and numpy are not imported yet.
    t0 = perf_counter()
    setup(args.workload, args.seed, args.size == "tiny")
    print(repr(perf_counter() - t0))


def child_seconds(argv, env) -> float:
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def best_total(rounds: list) -> float:
    """Sum over operations of each operation's fastest time across rounds.

    ``rounds`` holds one list of per-operation times per round, in the same
    order every round. The host's speed flickers by up to 1.8x within a
    second, and the share of slow moments drifts over minutes, unseen by
    the guest (no steal time; CPU time tracks wall time). A median over
    rounds follows that share; an operation's best time is its cost in the
    fast moments, which every run meets. CLI invocations last longer than
    those moments, so their figures are means over many (end_to_end).
    """
    return sum(min(col) for col in zip(*rounds))


class Pass:
    """Rounds of a workload: its focus component plus the control components.

    Control samples are spread over the whole window: on cli_cold one
    repetition of each in-process control runs after every CLI
    invocation; elsewhere the CLI control rounds run at evenly spaced
    points of the window, and the in-process control after every CLI
    control round and CONTROL_REPS times after every focus round.
    """

    def __init__(self, workload, data, workdir, tracer, cli_rounds: int):
        import components

        self.workload = workload
        self.focus = WORKLOADS[workload][0]
        self.controls = WORKLOADS[workload][1:]
        self.data = data
        self.tr = tracer
        self.cli_rounds = 0 if self.focus == "cli" else cli_rounds
        self.cli_at: list = []  # focus-round index at which each CLI control round ran
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.times: dict = {}  # end-to-end figure -> per-operation times of every round
        self.work: dict = {}  # end-to-end figure -> work units of one round
        self.counts: dict = {}
        self.first: dict = {}
        self.inproc: list = []  # in-process steps in the order they ran
        self.inproc_s = 0.0  # and their wall time
        self.cli = components.CliComponent(data["cli"], workdir, SRC)
        self.step = {"orbit": lambda: components.orbit_round(data["orbit"], self.tr),
                     "cavity": lambda: components.cavity_round(data["cavity"], self.tr),
                     }

    def _take(self, name, rnd) -> None:
        self.attempted += rnd.attempted
        self.failed += rnd.failed
        for k, v in rnd.times.items():
            self.times.setdefault(k, []).append(v)
        self.work.update(rnd.work)
        for k, v in rnd.counts.items():
            self.counts.setdefault(k, []).append(v)
        self.first.setdefault(name, rnd.results)

    def _inproc(self, name: str):
        t0 = perf_counter()
        rnd = self.step[name]()
        self.inproc_s += perf_counter() - t0
        self.inproc.append(name)
        return rnd

    def _control_once(self) -> None:
        for name in self.controls:
            if name != "cli":
                self._take(name, self._inproc(name))

    def _cli_control(self) -> None:
        self.cli_at.append(self.rounds)
        self._take("cli", self.cli.round(self.tr))
        self._control_once()

    def run(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed and every CLI control round ran."""
        t0 = perf_counter()
        while True:
            elapsed = perf_counter() - t0
            if len(self.cli_at) < self.cli_rounds and (
                    elapsed >= len(self.cli_at) * seconds / self.cli_rounds):
                self._cli_control()
                continue
            if self.rounds and elapsed >= seconds and len(self.cli_at) == self.cli_rounds:
                return
            focus = self.cli.round(self.tr, between=self._control_once) if self.focus == "cli" \
                else self._inproc(self.focus)
            self._take(self.focus, focus)
            for _ in range(CONTROL_REPS.get(self.workload, 0)):
                self._control_once()
            self.rounds += 1


def replay_inprocess(p: Pass) -> float:
    """Untraced wall time of the traced pass's in-process steps, in the same order."""
    import components
    import spans

    tr, d = spans.NullTracer(), p.data
    step = {"orbit": lambda: components.orbit_round(d["orbit"], tr),
            "cavity": lambda: components.cavity_round(d["cavity"], tr)}
    total = 0.0
    for name in p.inproc:
        t0 = perf_counter()
        step[name]()
        total += perf_counter() - t0
    return total


def run_checks(p: Pass, extras: dict) -> list:
    import reference

    d = p.data
    fails = reference.check_orbit(d["orbit"], p.first["orbit"])
    fails += reference.check_cavity(d["cavity"], p.first["cavity"], extras)
    cli = p.cli
    if cli.first_records is not None:
        for inv, rec in zip(d["cli"].invocations, cli.first_records):
            if inv.malformed or rec["code"] != inv.expect_exit:
                continue
            if inv.command == "qsl":
                fails += reference.check_qsl(inv, rec, cli.first_dir)
            elif inv.command == "brach":
                fails += reference.check_brach(inv, rec)
            elif inv.command == "cavity":
                fails += reference.check_cavity_cli(inv, rec, cli.first_dir)
            else:
                fails += reference.check_scan_cli(inv, cli.first_dir)
    if cli.mismatch:
        fails.append(f"cli: outputs of rounds {cli.mismatch} differ from the first round's bytes")
    return fails


def end_to_end(p: Pass, setup_s: float, peak_kib: int) -> dict:
    f = {k: p.work[k] / best_total(v) for k, v in p.times.items()}
    m = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_kib / 1024.0, "MB"),
         "orbit.queries_per_s": (f["orbit.queries_per_s"], "queries/s"),
         "scan.points_per_s": (f["scan.points_per_s"], "points/s"),
         "cavity.block_evals_per_s": (f["cavity.block_evals_per_s"], "evals/s"),
         "cavity.kraus_calls_per_s": (f["cavity.kraus_calls_per_s"], "calls/s")}
    for cmd in ("qsl", "brach", "cavity", "scan"):
        m[f"cli.{cmd}_s"] = (statistics.fmean(p.cli.times[cmd]), "s")
    return m


def per_layer(p: Pass, import_s, extras, emit, overhead_s) -> dict:
    by = p.tr.by_name()
    rounds = p.rounds

    def us(name):
        return (median(by[name]) * 1e6, "us")

    def per_round(name):
        return (sum(by[name]) / rounds, "s")

    m = {"import.blochdyn_s": (import_s, "s")}
    for name in ("bloch.from_axis", "bloch.evolve_bloch", "bloch.p_err_bloch", "bloch.qfi",
                 "speedlimits.classify", "speedlimits.tau_exact", "speedlimits.tau_mt",
                 "speedlimits.tau_ml", "brachistochrone.brach_hamiltonian",
                 "brachistochrone.pure_brach", "cavity.jc_propagate", "cavity.kraus_support"):
        m[name + "_us"] = us(name)
    for name in ("speedlimits.scan_ring", "cavity.make_field", "cavity.perr_series",
                 "cavity.nonunitary_tau"):
        m[name + "_s"] = per_round(name)
    m["cavity.reduced_series_s"] = (extras["reduced_series_s"], "s")
    m["cavity.workers2_speedup"] = (extras["workers2_speedup"], "ratio")
    for key in ("speedlimits.scan_points", "cavity.block_evals", "cli.output_bytes"):
        m[key] = (median(p.counts[key]), "count")
    for cmd in ("qsl", "scan", "cavity"):
        m[f"cli.{cmd}_emit_s"] = (emit[cmd], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (len(p.tr.spans), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke run's sizes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "blochdyn" / "__init__.py").is_file():
        print(f"bench: no blochdyn sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0

    tiny = args.size == "tiny"
    root = ROOT / ".bench_work"
    root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root))
    try:
        return measure(args, tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, tiny: bool, workdir: Path) -> int:
    me = [sys.executable, str(Path(__file__).resolve())]
    env = dict(os.environ)
    if args.trace == 0:
        probe = me + ["--setup-probe", "--workload", args.workload, "--seed", str(args.seed),
                      "--size", args.size]
        setup_s = median([child_seconds(probe, env) for _ in range(SETUP_SAMPLES)])
    else:
        import_env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])))
        cold = [sys.executable, "-c", "import time; t = time.perf_counter(); import blochdyn; "
                "print(repr(time.perf_counter() - t))"]
        import_s = median([child_seconds(cold, import_env) for _ in range(IMPORT_SAMPLES)])

    data = setup(args.workload, args.seed, tiny)
    import components
    import spans

    focus = WORKLOADS[args.workload][0]
    cli_rounds = 1 if tiny else CLI_CONTROL_ROUNDS
    seconds = max(0.0, args.seconds)

    if args.trace == 0:
        p = Pass(args.workload, data, workdir, spans.NullTracer(), cli_rounds)
        p.run(seconds)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak = p.cli.rss_kib if focus == "cli" else own
        extras = components.cavity_layer_extras(data["cavity"], timed=False)
        fails = run_checks(p, extras)
        metrics = end_to_end(p, setup_s, peak)
        attempted, failed = p.attempted, p.failed
    else:
        p = Pass(args.workload, data, workdir, spans.Tracer(), cli_rounds)
        p.run(seconds)
        plain_s = replay_inprocess(p)
        extras = components.cavity_layer_extras(data["cavity"], timed=True)
        emit = components.emit_times(data["cli"], p.cli.first_dir, repeats=1 if tiny else 9)
        fails = run_checks(p, extras)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        p.tr.write(out / f"trace_{args.workload}_seed{args.seed}.jsonl")
        metrics = per_layer(p, import_s, extras, emit, p.inproc_s - plain_s)
        attempted, failed = p.attempted, p.failed

    for line in fails[:20]:
        print(f"[bench] check failed: {line}", file=sys.stderr)
    if len(fails) > 20:
        print(f"[bench] ... and {len(fails) - 20} more", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
