"""Property tests: every speed-limit path evaluates the same formula.

classify, the scalar tau_* functions, qfi and scan_ring share one
expression per time and one Fisher information, so wherever two of them
answer the same question their floats are identical, not merely close.
The one exception, numpy's rounding of arrays against floats in the
scan, is spelled out in the scan's test. The cavity sweep, likewise,
gives the same bits for any worker count.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from blochdyn import (
    BlochDynError,
    CavityConfig,
    HamiltonianSpec,
    classify,
    custom_field,
    faster_set_contains,
    perp_norm,
    perr_series,
    qfi,
    scan_ring,
    tau_exact,
    tau_ml,
    tau_mt,
)

# derandomized: a tier-1 run checks the same examples every time
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

coord = st.floats(-1.0, 1.0, allow_nan=False)
vec3 = st.tuples(coord, coord, coord).map(np.array)
bloch = vec3.map(lambda v: v / max(1.0, float(np.linalg.norm(v))))
axis = vec3.filter(lambda v: np.linalg.norm(v) > 1e-3)
omega0 = st.floats(0.05, 20.0)
delta = st.one_of(st.floats(0.0, 0.5), st.sampled_from([0.0, 0.5]))


def _or_raise(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except BlochDynError:
        return None


@SETTINGS
@given(r=bloch, n=axis, w=omega0, d=delta, sym=st.booleans())
# one ulp above the degenerate radius, where F is still below (2 omega0 1e-12)^2
@example(r=np.array([1.0000000000000002e-12, 0.0, 0.0]), n=np.array([0.0, 0.0, 1.0]),
         w=0.24232850640910925, d=0.3, sym=False)
def test_classify_matches_scalar_functions_bit_for_bit(r, n, w, d, sym):
    ham = HamiltonianSpec.from_axis(n, omega0=w, identity_shift=True)
    rep = classify(r, ham, d, ml_symmetrized=sym)
    assert rep.perp_norm == perp_norm(r, ham)
    assert rep.fisher == qfi(r, ham)
    # both ways: classify reports None or inf exactly where a tau_* function raises
    exact = _or_raise(tau_exact, r, ham, d)
    assert (rep.reachable, rep.tau_exact) == (exact is not None, exact)
    mt = _or_raise(tau_mt, r, ham, d)
    assert rep.tau_mt == (np.inf if mt is None else mt)
    ml = _or_raise(tau_ml, r, ham, d, symmetrized=sym)
    assert rep.tau_ml == (np.inf if ml is None else ml)


@SETTINGS
@given(r=bloch, n=axis, w=omega0, d=delta)
def test_bound_ordering(r, n, w, d):
    ham = HamiltonianSpec.from_axis(n, omega0=w, identity_shift=True)
    exact = _or_raise(tau_exact, r, ham, d)
    if exact is None:
        return
    mt = tau_mt(r, ham, d)
    ml = tau_ml(r, ham, d, symmetrized=True)
    assert ml <= mt * (1 + 1e-12) + 1e-300
    assert mt <= exact * (1 + 1e-12) + 1e-300


@SETTINGS
@given(r=bloch, n=axis, w=omega0, d=delta)
def test_symmetrized_ml_bound_is_even_in_r(r, n, w, d):
    ham = HamiltonianSpec.from_axis(n, omega0=w, identity_shift=True)
    assert _or_raise(tau_ml, r, ham, d, symmetrized=True) == _or_raise(
        tau_ml, -r, ham, d, symmetrized=True
    )
    assert classify(r, ham, d, ml_symmetrized=True).tau_ml == classify(
        -r, ham, d, ml_symmetrized=True
    ).tau_ml


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=axis, w=omega0, theta=st.floats(0.0, np.pi / 2), grid=st.integers(2, 9))
# lattice points on the ring in exact arithmetic that round 1 ulp inside it
@example(n=np.array([0.0, 0.0, 1.0]), w=1.0, theta=np.pi / 6, grid=21)
@example(n=np.array([0.0, 0.0, 1.0]), w=1.0, theta=np.pi / 2, grid=51)
def test_scan_points_match_scalar_queries(n, w, theta, grid):
    ham = HamiltonianSpec.from_axis(n, omega0=w)
    scan = scan_ring(ham, theta, grid)
    # every point is in the fast set of the pure state theta from the axis
    u = np.cross(ham.axis, np.eye(3)[np.argmin(np.abs(ham.axis))])
    ref = np.cos(theta) * ham.axis + np.sin(theta) * u / np.linalg.norm(u)
    assert all(faster_set_contains(ref, p, ham) for p in scan.points)
    # The scan evaluates the same formulas on arrays. numpy rounds two
    # steps of that apart from the scalar path in the last bit, and each
    # path keeps the rounding its CLI output always had: the orbit radius
    # of a stack is a row sum where np.linalg.norm of one vector is a BLAS
    # dot, and an array squares by multiplication where a float calls pow.
    stacked = np.linalg.norm(np.cross(ham.axis, scan.points), axis=-1)
    for p, t, f, s in zip(scan.points, scan.tau_exact, scan.fisher, stacked):
        radius, fisher = perp_norm(p, ham), qfi(p, ham)
        assert abs(s - radius) <= 1e-15 * radius  # a few ulps
        if s == radius:
            assert t == tau_exact(p, ham, scan.delta)
            assert abs(f - fisher) <= np.spacing(fisher)  # pow against x * x
        else:  # the radius difference, squared
            assert abs(f - fisher) <= 4e-15 * fisher


amplitude = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(lambda z: complex(*z))
fock_amplitudes = (st.lists(amplitude, min_size=2, max_size=7)
                   .map(np.array).filter(lambda c: np.linalg.norm(c) > 0.1)
                   .map(lambda c: c / np.linalg.norm(c)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(c=fock_amplitudes, r=bloch, g=st.floats(0.01, 0.5), d=st.floats(-0.2, 0.2),
       frame=st.sampled_from(["lab", "rotating"]), t_max=st.floats(1.0, 200.0),
       steps=st.integers(4097, 3 * 4096 + 5))
def test_worker_count_does_not_change_p_err(c, r, g, d, frame, t_max, steps):
    # the grids span two to four 4096-step chunks; perr_series accepts workers and ignores it
    field = custom_field(c)
    cfg = CavityConfig(g=g, detuning=d, n_max=field.n_max, frame=frame)
    one = perr_series(field, r, cfg, t_max=t_max, steps=steps, workers=1)
    two = perr_series(field, r, cfg, t_max=t_max, steps=steps, workers=2)
    assert np.array_equal(one.p_err, two.p_err)
