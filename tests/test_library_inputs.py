"""The library's input contract: every public function that takes a number
fails cleanly on a bad one.

The property test draws ordinary arguments for each public function, then
puts each hostile value in turn into each numeric slot (each entry of a
vector or matrix): NaN, infinities, +-1e308, -0.0, 5e-324, the integers
+-10**400 that no float holds, and non-integral values where an integer is
expected. Whatever the input, the call returns or raises BlochDynError or
ValueError; no other exception escapes and no warning is raised. Sizes
stay tiny (grid <= 12, n_max <= 20, steps <= 200, workers <= 2).
"""

import functools
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import blochdyn as bd
from blochdyn import BlochDynError

HUGE = 10**400  # an integer no float holds
BAD_REALS = [math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0, 5e-324]
HOSTILE = [*BAD_REALS, HUGE, -HUGE]


def _scalar(lo, hi):
    return st.floats(lo, hi), HOSTILE


def _size(lo, hi):
    return st.integers(lo, hi), HOSTILE + [1.5, 2.5, 2.7, 64.5]


def _entries(ordinary):
    return ordinary, None  # None: each entry in turn takes each HOSTILE value


def _density(r):
    x, y, z = r
    return [0.5 * (1 + z), complex(0.5 * x, -0.5 * y), complex(0.5 * x, 0.5 * y), 0.5 * (1 - z)]


def _matrix(flat):
    return [flat[:2], flat[2:]]


BALL = st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3)
PARAMS = {
    "r": _entries(BALL),
    "r2": _entries(BALL),
    "axis": _entries(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)),
    "unit": _entries(st.sampled_from([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])),
    "rho": _entries(BALL.map(_density)),
    "rho2": _entries(BALL.map(_density)),
    "psi": _entries(st.floats(0.0, 6.28).map(lambda a: [math.cos(a), math.sin(a)])),
    "psi2": _entries(st.floats(0.0, 6.28).map(lambda a: [math.cos(a), 1j * math.sin(a)])),
    "amps": _entries(st.sampled_from([[0.6, 0.8], [0.0, 1.0, 0.0], [0.5, 0.5j, -0.5, 0.5]])),
    "times": _entries(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4)),
    "omega0": _scalar(0.01, 100.0),
    "g": _scalar(0.01, 1.0),
    "detuning": _scalar(-1.0, 1.0),
    "t": _scalar(-10.0, 10.0),
    "t_cavity": _scalar(0.0, 50.0),
    "t_max": _scalar(0.01, 50.0),
    "delta": _scalar(0.0, 0.5),
    "theta": _scalar(0.0, 1.57),
    "tol": _scalar(0.0, 1e-6),
    # |alpha| <= 1 keeps the coherent tail beyond n_max >= 14 under its 1e-10 limit
    "alpha": (st.floats(-1.0, 1.0) | st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
              HOSTILE + [complex(0.5, x) for x in BAD_REALS]),
    "grid": _size(2, 12),
    "n_max": _size(14, 20),
    "steps": _size(2, 200),
    "workers": _size(1, 2),
    "fock": _size(0, 14),
}


def _ham(axis, omega0, shift=False):
    return bd.HamiltonianSpec.from_axis(axis, omega0, shift)


def _cavity(alpha, n_max, omega0=1.0, g=0.05, detuning=0.0):
    return bd.coherent_field(alpha, n_max), bd.CavityConfig(omega0, g, detuning, n_max)


def _jc_propagate(alpha, n_max, omega0, g, detuning, rho, t_cavity):
    field, cfg = _cavity(alpha, n_max, omega0, g, detuning)
    return bd.jc_propagate(field, _matrix(rho), cfg, t_cavity)


def _reduced_series(alpha, n_max, detuning, rho, times):
    field, cfg = _cavity(alpha, n_max, detuning=detuning)
    return bd.reduced_series(field, _matrix(rho), cfg, times)


def _perr_series(alpha, n_max, omega0, g, r, t_max, steps, workers):
    field, cfg = _cavity(alpha, n_max, omega0, g)
    return bd.perr_series(field, r, cfg, t_max, steps, workers)


@functools.cache
def _series():
    return bd.perr_series(bd.fock_field(1, 14), (0.5, 0.0, 0.0), bd.CavityConfig(n_max=14),
                          t_max=60.0, steps=200)


@functools.cache
def _kraus():
    return bd.jc_propagate(bd.fock_field(1, 14), np.eye(2) / 2, bd.CavityConfig(n_max=14), 1.0)[1]


# every public function that takes a number, called with the PARAMS its parameters name
CASES = {
    "HamiltonianSpec": lambda unit, omega0: bd.HamiltonianSpec(unit, omega0),
    "from_axis": lambda axis, omega0: _ham(axis, omega0),
    "as_bloch": lambda r: bd.as_bloch(r),
    "bloch_to_density": lambda r: bd.bloch_to_density(r),
    "check_density": lambda rho, tol: bd.check_density(_matrix(rho), tol),
    "density_to_bloch": lambda rho: bd.density_to_bloch(_matrix(rho)),
    "p_err": lambda rho, rho2: bd.p_err(_matrix(rho), _matrix(rho2)),
    "p_err_bloch": lambda r, r2: bd.p_err_bloch(r, r2),
    "pure_state_bloch": lambda psi: bd.pure_state_bloch(psi),
    "unitary": lambda axis, omega0, t: bd.unitary(_ham(axis, omega0), t),
    "evolve_bloch": lambda r, axis, omega0, t: bd.evolve_bloch(r, _ham(axis, omega0), t),
    "evolve_density": lambda rho, axis, omega0, t: bd.evolve_density(_matrix(rho),
                                                                     _ham(axis, omega0), t),
    "qfi": lambda r, axis, omega0: bd.qfi(r, _ham(axis, omega0)),
    "sld": lambda r, axis, omega0: bd.sld(r, _ham(axis, omega0)),
    "perp_norm": lambda r, axis: bd.perp_norm(r, _ham(axis, 1.0)),
    "faster_set_contains": lambda r, r2, axis: bd.faster_set_contains(r, r2, _ham(axis, 1.0)),
    "classify": lambda r, axis, omega0, delta: bd.classify(r, _ham(axis, omega0), delta),
    "tau_exact": lambda r, axis, omega0, delta: bd.tau_exact(r, _ham(axis, omega0), delta),
    "tau_mt": lambda r, axis, omega0, delta: bd.tau_mt(r, _ham(axis, omega0), delta),
    "tau_ml": lambda r, axis, omega0, delta: bd.tau_ml(r, _ham(axis, omega0, True), delta),
    "scan_ring": lambda axis, omega0, theta, grid: bd.scan_ring(_ham(axis, omega0), theta, grid),
    "brach_hamiltonian": lambda r, r2, omega0: bd.brach_hamiltonian(r, r2, omega0),
    "brach_time": lambda r, r2, omega0: bd.brach_time(r, r2, omega0),
    "pure_brach": lambda psi, psi2, omega0: bd.pure_brach(psi, psi2, omega0),
    "CavityConfig": lambda omega0, g, detuning, n_max: bd.CavityConfig(omega0, g, detuning, n_max),
    "coherent_field": lambda alpha, n_max: bd.coherent_field(alpha, n_max),
    "coherent_tail": lambda alpha, n_max: bd.coherent_tail(alpha, n_max),
    "cat_field_even": lambda alpha, n_max: bd.cat_field(alpha, n_max, "even"),
    "cat_field_odd": lambda alpha, n_max: bd.cat_field(alpha, n_max, "odd"),
    "e0_field": lambda alpha, n_max: bd.e0_field(alpha, n_max),
    "fock_field": lambda fock, n_max: bd.fock_field(fock, n_max),
    "make_field_fock": lambda fock, n_max: bd.make_field("fock", fock, n_max),
    "custom_field": lambda amps: bd.custom_field(amps),
    "FieldState": lambda amps: bd.FieldState("custom", amps),
    "jc_propagate": _jc_propagate,
    "kraus_support": lambda alpha, n_max, omega0, t_cavity, tol: bd.kraus_support(
        *_cavity(alpha, n_max, omega0), t_cavity, tol),
    "reduced_series": _reduced_series,
    "perr_series": _perr_series,
    "nonunitary_tau": lambda delta, tol: bd.nonunitary_tau(_series(), delta, tol),
    "photon_number_expectation": lambda rho: bd.photon_number_expectation(_kraus(), _matrix(rho)),
}


def _spoiled(name, value):
    """Each hostile value for one parameter, given its ordinary value."""
    hostile = PARAMS[name][1]
    if hostile is not None:
        yield from hostile
        return
    for i in range(len(value)):
        for bad in HOSTILE:
            yield [*value[:i], bad, *value[i + 1:]]


def _check(call, kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call(**kwargs)
        except (BlochDynError, ValueError):
            pass
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__}: {exc} from {kwargs}") from exc
    assert not caught, (kwargs, [str(w.message) for w in caught])


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=16, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_public_function_fails_cleanly(case, data):
    call = CASES[case]
    names = list(inspect.signature(call).parameters)
    ordinary = {name: data.draw(PARAMS[name][0], label=name) for name in names}
    _check(call, ordinary)
    for name in names:
        for bad in _spoiled(name, ordinary[name]):
            _check(call, {**ordinary, name: bad})


Z = bd.HamiltonianSpec.from_axis((0, 0, 1))
SMALL = bd.CavityConfig(n_max=4)


@pytest.mark.parametrize("call, bad", [
    (lambda v: bd.CavityConfig(n_max=v).n_max, 1.5),
    (lambda v: bd.scan_ring(Z, 0.5, v).points.size, 2.7),
    (lambda v: bd.perr_series(bd.fock_field(1, 4), (0, 0, 1), SMALL, steps=v).times.size, 2.5),
    (lambda v: bd.fock_field(v, 4).alpha, 2.5),
], ids=["n_max", "grid", "steps", "fock_index"])
def test_integer_parameters_refuse_non_integral_values(call, bad):
    with pytest.raises(ValueError, match=rf"must be an integer, got {bad}$"):
        call(bad)
    # an integral float is the integer: the *_scenario_ints goldens read 3.0 as 3
    assert call(3.0) == call(3)


def test_a_nan_amplitude_is_refused_after_a_math_range_error():
    # CPython's abs() of a complex NaN raises OverflowError when an earlier libm
    # call left errno at ERANGE, as math.exp(1000) does
    with pytest.raises(OverflowError):
        math.exp(1000)
    with pytest.raises(ValueError, match="alpha must be finite"):
        bd.coherent_field(complex(math.nan, 0.0), 20)


@pytest.mark.parametrize("call, name", [
    (lambda: bd.coherent_field([1, 2], 20), "alpha"),
    (lambda: bd.make_field("cat_even", {}, 20), "alpha"),
    (lambda: bd.as_bloch({}), "Bloch vector"),
    (lambda: bd.as_bloch("abc"), "Bloch vector"),
    (lambda: bd.as_bloch([1, [2, 3]]), "Bloch vector"),
    (lambda: bd.custom_field("x"), "custom amplitudes"),
    (lambda: bd.check_density([[1, 0], [0, "a"]]), "density matrix"),
    (lambda: bd.pure_state_bloch({"up": 1}), "state vector"),
], ids=["list_alpha", "dict_alpha", "dict_bloch", "text_bloch", "ragged_bloch",
        "text_amplitudes", "text_density", "dict_state"])
def test_a_non_number_is_refused_naming_the_input(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


IMAG = np.array([0.5j, 0.0, 0.0])
ZERO_IMAG = np.array([0.5 + 0j, 0.0, 0.0])  # refused too, though no part would be lost


@pytest.mark.parametrize("r", [IMAG, ZERO_IMAG, np.complex128(0.5)],
                         ids=["imag", "zero_imag", "scalar"])
@pytest.mark.parametrize("call, name", [
    (lambda r: bd.as_bloch(r), "Bloch vector"),
    (lambda r: bd.classify(r, Z, 0.3), "Bloch vector"),
    (lambda r: bd.tau_exact(r, Z, 0.3), "Bloch vector"),
    (lambda r: bd.tau_mt(r, Z, 0.3), "Bloch vector"),
    (lambda r: bd.tau_ml(r, bd.HamiltonianSpec.from_axis((0, 0, 1), 1.0, True), 0.3),
     "Bloch vector"),
    (lambda r: bd.qfi(r, Z), "Bloch vector"),
    (lambda r: bd.evolve_bloch(r, Z, 1.0), "Bloch vector"),
    (lambda r: bd.p_err_bloch((0, 0, 1), r), "Bloch vector"),
    (lambda r: bd.HamiltonianSpec.from_axis(r), "axis"),
    (lambda r: bd.HamiltonianSpec(r), "axis"),
    (lambda r: bd.reduced_series(bd.fock_field(1, 4), np.eye(2) / 2, SMALL, r.real + r), "times"),
], ids=["as_bloch", "classify", "tau_exact", "tau_mt", "tau_ml", "qfi", "evolve_bloch",
        "p_err_bloch", "from_axis", "HamiltonianSpec", "reduced_series_times"])
def test_a_complex_array_is_refused_where_a_real_is_expected(call, name, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be real, got dtype complex128$"):
            call(r)


@pytest.mark.parametrize("r, dtype", [
    ([np.complex128(0.5), 0, 0], "complex128"),
    ((np.complex64(0.0), np.complex64(0.5), np.complex64(0.0)), "complex64"),
    ([np.complex128(0.5 + 0j), Fraction(1, 2), 0], "object"),  # numpy keeps mixed types as objects
], ids=["complex128", "complex64_tuple", "object"])
@pytest.mark.parametrize("call, name", [
    (lambda r: bd.as_bloch(r), "Bloch vector"),
    (lambda r: bd.classify(r, Z, 0.3), "Bloch vector"),
    (lambda r: bd.tau_exact(r, Z, 0.3), "Bloch vector"),
    (lambda r: bd.HamiltonianSpec.from_axis(r), "axis"),
    (lambda r: bd.reduced_series(bd.fock_field(1, 4), np.eye(2) / 2, SMALL, r), "times"),
], ids=["as_bloch", "classify", "tau_exact", "from_axis", "reduced_series_times"])
def test_a_numpy_complex_inside_a_sequence_is_refused(call, name, r, dtype):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be real, got dtype {dtype}$"):
            call(r)


@pytest.mark.parametrize("bad", ["no", "", math.nan, 0, 1, None, [0], np.int64(1)],
                         ids=["text", "empty_text", "nan", "zero", "one", "none", "list", "np_int"])
@pytest.mark.parametrize("call, name", [
    (lambda v: bd.HamiltonianSpec.from_axis((0, 0, 1), identity_shift=v).matrix().tolist(),
     "identity_shift"),
    (lambda v: bd.HamiltonianSpec((0, 0, 1), 1.0, v).identity_shift, "identity_shift"),
    (lambda v: bd.classify((0, 0, -0.5), Z, 0.3, ml_symmetrized=v).tau_ml, "ml_symmetrized"),
    (lambda v: bd.tau_ml((0, 0, -0.5), bd.HamiltonianSpec.from_axis((0, 0, 1), 1.0, True), 0.3,
                         symmetrized=v), "symmetrized"),
], ids=["from_axis", "HamiltonianSpec", "classify", "tau_ml"])
def test_a_flag_takes_only_a_bool(call, name, bad):
    # a truthy object used to count as True: "no" gave a shifted spectrum, nan a 2x2 [[2, 0], [0, 0]]
    with pytest.raises(ValueError, match=f"^{name} must be True or False, got "):
        call(bad)
    assert call(np.bool_(True)) == call(True) != call(False) == call(np.bool_(False))


R, RHO = (0.3, 0.0, 0.0), np.eye(2) / 2


@pytest.mark.parametrize("call, name", [
    (lambda bad: bd.classify(R, bad, 0.1), "ham"),
    (lambda bad: bd.tau_exact(R, bad, 0.1), "ham"),
    (lambda bad: bd.tau_mt(R, bad, 0.1), "ham"),
    (lambda bad: bd.tau_ml(R, bad, 0.1), "ham"),
    (lambda bad: bd.qfi(R, bad), "ham"),
    (lambda bad: bd.sld(R, bad), "ham"),
    (lambda bad: bd.perp_norm(R, bad), "ham"),
    (lambda bad: bd.faster_set_contains(R, R, bad), "ham"),
    (lambda bad: bd.evolve_bloch(R, bad, 1.0), "ham"),
    (lambda bad: bd.unitary(bad, 1.0), "ham"),
    (lambda bad: bd.evolve_density(RHO, bad, 1.0), "ham"),
    (lambda bad: bd.scan_ring(bad, 0.3, 10), "ham"),
    (lambda bad: bd.jc_propagate(bd.fock_field(1, 4), RHO, bad, 1.0), "cfg"),
    (lambda bad: bd.perr_series(bd.fock_field(1, 4), R, bad), "cfg"),
    (lambda bad: bd.reduced_series(bd.fock_field(1, 4), RHO, bad, [0.0]), "cfg"),
    (lambda bad: bd.kraus_support(bd.fock_field(1, 4), bad, 1.0), "cfg"),
    (lambda bad: bd.jc_propagate(bad, RHO, SMALL, 1.0), "field"),
    (lambda bad: bd.perr_series(bad, R, SMALL), "field"),
    (lambda bad: bd.mean_photon(bad), "field"),
    (lambda bad: bd.nonunitary_tau(bad, 0.1), "series"),
    (lambda bad: bd.photon_number_expectation(bad, RHO), "kraus"),
], ids=["classify", "tau_exact", "tau_mt", "tau_ml", "qfi", "sld", "perp_norm",
        "faster_set_contains", "evolve_bloch", "unitary", "evolve_density", "scan_ring",
        "jc_propagate_cfg", "perr_series_cfg", "reduced_series_cfg", "kraus_support_cfg",
        "jc_propagate_field", "perr_series_field", "mean_photon", "nonunitary_tau",
        "photon_number_expectation"])
@pytest.mark.parametrize("bad", ["x", None, 1.0, SMALL, Z], ids=["text", "none", "float", "cfg", "ham"])
def test_a_wrong_type_object_is_refused_naming_the_parameter(call, name, bad):
    # each used to raise AttributeError; the parameter's own type is skipped
    if type(bad).__name__ == {"ham": "HamiltonianSpec", "cfg": "CavityConfig"}.get(name):
        return
    with pytest.raises(ValueError, match=f"^{name} must be a [A-Za-z]+, got {type(bad).__name__}$"):
        call(bad)
