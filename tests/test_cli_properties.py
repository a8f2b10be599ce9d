"""Property test over the command line: every input exits cleanly.

Arguments for qsl, brach, cavity and scan, and the entries of scenario
files, are drawn from hostile values: NaN, infinities, 1e308, -0.0,
integers too large for a float, empty and non-numeric text. Whatever the
input, blochdyn exits 0, 1 or 2; exit 1 leaves exactly one line on
stderr, no traceback and no partial output; exits 0 and 2 write only
finite numbers, with JSON null only for the crossing times the formats
document as null.

Runs go in process through cli.main. Sizes stay tiny (grid <= 12,
n_max <= 20, steps <= 200), so a cavity sweep is one chunk.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, event, given, settings, strategies as st

from blochdyn.cli import main

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

HUGE = "1" + "0" * 400  # an integer no float holds
HOSTILE = st.sampled_from(["nan", "NaN", "inf", "-inf", "1e308", "-1e308", "1e200", "1e99", "1e-99",
                           "1e-300", "5e-324", "-0.0", "0", HUGE, "-" + HUGE, "", "abc", "1,2"])
BAD_SIZE = st.sampled_from(["-1", "0", "1", HUGE, "", "abc", "1.5", "nan", "1e3"])


@st.composite
def invocation(draw, params):
    """argv from (ordinary, hostile, required) strategies of token lists.

    In half the draws one parameter takes a hostile value, so that it
    reaches the code past every other check; the others are ordinary, and
    an optional one is left out half the time. hostile None: never.
    """
    slot = draw(st.integers(0, 2 * len(params) - 1))  # no hostile value from len(params) on
    argv = []
    for i, (ordinary, hostile, required) in enumerate(params):
        if i == slot and hostile is not None:
            argv += draw(hostile)
        elif required or draw(st.booleans()):
            argv += draw(ordinary)
    return argv


def triple(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi))


def vector_text(c):
    return ",".join(map(str, c))


def one_hostile(lo, hi):
    """Three coordinates, one of them hostile, or one hostile text."""
    place = st.tuples(st.floats(lo, hi), st.floats(lo, hi), st.integers(0, 2), HOSTILE)
    return place.map(lambda t: vector_text([*t[:t[2]], t[3], *t[t[2]:2]])) | HOSTILE


def param(flag, ordinary, hostile=HOSTILE, required=False):
    # --flag=value, so that a value starting with "-" is not taken for a flag
    def tokens(values):
        return values.map(lambda v: [f"{flag}={v}"])
    return tokens(ordinary), tokens(hostile), required


def number(flag, lo, hi, required=False):
    return param(flag, st.floats(lo, hi).map(repr), required=required)


def vector(flag, lo, hi, required=False):
    return param(flag, triple(lo, hi).map(vector_text), one_hostile(lo, hi), required)


def size(flag, lo, hi):
    return param(flag, st.integers(lo, hi).map(str), BAD_SIZE, required=True)


def _same_radius(c):  # r2 is r1 permuted with one sign flipped
    a, b, z = c
    return [f"--r1={a!r},{b!r},{z!r}", f"--r2={z!r},{-a!r},{b!r}"]


BLOCH = (-0.57, 0.57)  # inside the ball
OUT = st.sampled_from([[], ["--out={dir}/out.csv"]])
qsl = [vector("--axis", -3.0, 3.0, True), vector("--bloch", *BLOCH, True),
       number("--delta", 0.0, 0.5, True), number("--omega0", 0.01, 100.0),
       (st.sampled_from([[], ["--ml-symmetrized"]]), None, True),
       (st.sampled_from([[], ["--csv=-"], ["--csv={dir}/orbit.csv"]]), None, True)]
brach = [(triple(*BLOCH).map(_same_radius),
          st.tuples(one_hostile(*BLOCH), one_hostile(*BLOCH))
          .map(lambda rs: [f"--r1={rs[0]}", f"--r2={rs[1]}"]), True),
         number("--omega0", 0.01, 100.0)]
scan = [number("--theta-psi", 0.0, 1.6, True), size("--grid", 2, 12),
        vector("--axis", -3.0, 3.0), number("--omega0", 0.01, 100.0), (OUT, None, True)]
LABELS = st.sampled_from(["coherent", "cat_even", "cat_odd", "e0", "fock"])
crossing = [number("--delta", 0.0, 0.5), number("--delta", 0.0, 0.5), (OUT, None, True)]
cavity = [size("--n-max", 14, 20), size("--steps", 2, 200),
          # |alpha| <= 1 keeps the coherent tail beyond n_max >= 14 under its 1e-10 limit
          param("--field", LABELS, st.sampled_from(["squeezed", ""])),
          param("--alpha", st.floats(-1.0, 1.0).map(repr) | st.integers(0, 1).map(str)
                | st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)).map(vector_text),
                required=True),  # the default, 3, has a long coherent tail
          vector("--qubit", *BLOCH), number("--omega0", 0.01, 100.0), number("--g", 0.01, 100.0),
          number("--detuning", -1.0, 1.0),
          param("--frame", st.sampled_from(["lab", "rotating"]), st.sampled_from(["x", ""])),
          number("--t-max", 0.0, 500.0), *crossing]

# scenario entries: JSON values of every type, and numbers JSON itself cannot write
JSON_HOSTILE = st.one_of(
    st.none(), st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 5e-324, -0.0]),
    st.just(10**400), st.just(-(10**400)), st.just([1.0]), st.just({}),
    st.sampled_from(["", "abc", "1.5", "coherent", "lab"]))
COMPONENT = st.floats(*BLOCH)
# (key path, ordinary value or None for a key absent unless hostile, required)
SCENARIO = [
    ("n_max", st.integers(14, 20), True), ("steps", st.integers(2, 200), True),
    ("omega0", st.floats(0.01, 100.0), False), ("g", st.floats(0.01, 100.0), False),
    ("detuning", st.floats(-1.0, 1.0), False), ("t_max", st.floats(0.0, 500.0), False),
    ("frame", st.sampled_from(["lab", "rotating"]), False), ("unknown", None, False),
    # an integral alpha_re serves every label; the default, 3, has a long coherent tail
    ("field.label", LABELS, True), ("field.alpha_re", st.sampled_from([0, 1, 0.0, 1.0]), True),
    ("field.alpha_im", st.just(0.0), False), ("field.extra", None, False),
    # all three or none: a partial qubit keeps the default rz = 1 and leaves the ball
    ("qubit.rx", COMPONENT, True), ("qubit.ry", COMPONENT, True), ("qubit.rz", COMPONENT, True),
    ("qubit.extra", None, False), ("field", None, False), ("qubit", None, False),
]


@st.composite
def scenario(draw):
    """Scenario text with at most one hostile entry, or hostile text as a whole."""
    slot = draw(st.integers(-1, 2 * len(SCENARIO) - 1))  # -1: the whole file; none from len on
    if slot == -1:
        return draw(JSON_HOSTILE.filter(lambda v: v != {}).map(json.dumps)  # {}: default sizes
                    | st.sampled_from(["", "{", "[1, 2", "NaN", '{"n_max": }']))
    doc = {"field": {}, "qubit": {}}
    for i, (path, ordinary, required) in enumerate(SCENARIO):
        *outer, key = path.split(".")
        where = doc[outer[0]] if outer else doc
        if i == slot:
            where[key] = draw(JSON_HOSTILE)
        elif ordinary is not None and (required or draw(st.booleans())):
            where[key] = draw(ordinary)
    return json.dumps(doc)


# where a format documents null: crossing times that do not exist or diverge
NULLABLE = {
    "qsl": {"tau_exact_omega0", "tau_mt_omega0", "tau_ml_omega0",
            "tau_exact_raw", "tau_mt_raw", "tau_ml_raw"},
    "cavity": {"tau_omega0.*", "tau_raw.*"},
}


def _reject_constant(token):
    raise AssertionError(f"JSON token {token} written")


def _check_json(obj, cmd, path=""):
    if obj is None:
        assert path in NULLABLE.get(cmd, ()), f"null at {path}"
    elif isinstance(obj, float):
        assert math.isfinite(obj), f"{obj} at {path}"
    elif isinstance(obj, dict):
        for key, value in obj.items():
            wild = path + ".*" if path in ("tau_omega0", "tau_raw") else None
            _check_json(value, cmd, wild or (f"{path}.{key}" if path else key))
    elif isinstance(obj, list):
        for value in obj:
            _check_json(value, cmd, path + "[]")


def _check_csv(text):
    lines = text.splitlines()
    assert lines and "," in lines[0]
    for line in lines[1:]:
        for cell in line.split(","):
            value = float(cell)  # coordinate labels and %.15g cells alike
            assert math.isfinite(value), line


def _check_stream(text, cmd):
    """JSON lines and CSV rows as the command writes them to one stream."""
    lines = text.splitlines(keepends=True)
    while lines and lines[0].startswith("{"):
        _check_json(json.loads(lines.pop(0), parse_constant=_reject_constant), cmd)
    if lines:
        _check_csv("".join(lines))


def _run(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace("{dir}", tmp) for a in argv]
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    # a warning is a line of stderr in a real run
    return code, out.getvalue(), err.getvalue() + "".join(f"{w.message}\n" for w in caught)


def _check(argv, tmp):
    cmd = argv[0]
    code, out, err = _run(argv, tmp)
    event(f"{cmd} exit {code}")
    assert code in (0, 1, 2), (code, err)
    if code == 1:
        assert len(err.splitlines()) == 1, err
        assert "Traceback" not in err
        assert out == ""  # a failure writes no partial output
        assert not [name for name in os.listdir(tmp) if name.endswith(".csv")]
        return
    _check_stream(out, cmd)
    if err:
        _check_stream(err, cmd)
    for name in os.listdir(tmp):
        if name.endswith(".csv"):
            with open(os.path.join(tmp, name)) as fh:
                _check_csv(fh.read())


@settings(SETTINGS, max_examples=2 * SETTINGS.max_examples)
@given(cmd=st.sampled_from(["qsl", "brach", "scan", "cavity"]), data=st.data())
def test_every_argv_exits_cleanly(cmd, data):
    argv = data.draw(invocation({"qsl": qsl, "brach": brach, "scan": scan, "cavity": cavity}[cmd]))
    with tempfile.TemporaryDirectory() as tmp:
        _check([cmd, *argv], tmp)


@SETTINGS
@given(text=scenario(), flags=invocation([(o, None, r) for o, _, r in crossing]))
def test_every_scenario_file_exits_cleanly(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            fh.write(text)
        _check(["cavity", "--scenario", path, *flags], tmp)
