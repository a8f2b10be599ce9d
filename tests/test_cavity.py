import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from blochdyn import (
    CavityConfig,
    DistinguishabilitySeries,
    NonphysicalOutput,
    NormViolation,
    TruncationTooSmall,
    bloch_to_density,
    cat_field,
    coherent_field,
    coherent_tail,
    custom_field,
    e0_field,
    fock_field,
    jc_propagate,
    kraus_support,
    make_field,
    mean_photon,
    nonunitary_tau,
    perr_series,
    photon_number_expectation,
    reduced_series,
)
from blochdyn import cavity
from blochdyn.bloch import _margins
from oracles import coherent_amps_direct, dense_reduced


EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
MIXED = np.array([[0.62, 0.18 - 0.27j], [0.18 + 0.27j, 0.38]])


# ---------------------------------------------------------------- fields


def test_vacuum_is_trivial_coherent_state():
    f = coherent_field(0.0, n_max=5)
    npt.assert_array_equal(f.amplitudes, [1, 0, 0, 0, 0, 0])
    assert f.label == "coherent"
    assert f.alpha == 0
    assert mean_photon(f) == 0.0


def test_coherent_amplitudes_match_direct_formula():
    amps = coherent_field(1.5, n_max=40).amplitudes
    direct = coherent_amps_direct(1.5, 40)
    npt.assert_allclose(amps, direct / np.linalg.norm(direct), atol=1e-13)


def test_coherent_mean_photon():
    # frozen: renormalized truncation at alpha=3, n_max=100 gives |a|^2
    # to machine precision (tail 3.4e-68)
    f = coherent_field(3.0, n_max=100)
    assert mean_photon(f) == pytest.approx(9.0, abs=1e-8)


def test_complex_alpha_phases():
    a = 1.2 * np.exp(0.7j)
    amps = coherent_field(a, n_max=30).amplitudes
    direct = coherent_amps_direct(a, 30)
    npt.assert_allclose(amps, direct / np.linalg.norm(direct), atol=1e-13)


def test_truncation_guard_carries_tail_mass():
    with pytest.raises(TruncationTooSmall) as exc:
        coherent_field(3.0, n_max=10)
    assert exc.value.tail == pytest.approx(coherent_tail(3.0, 10), rel=1e-12)
    assert exc.value.tail > 1e-10
    # frozen: alpha=1 at n_max=12 leaves 6.4e-11, inside the budget
    assert coherent_tail(1.0, 12) == pytest.approx(6.36e-11, rel=0.01)
    coherent_field(1.0, n_max=12)


def test_cat_parity_masks_are_exact():
    even = cat_field(2.0, n_max=60, parity="even")
    odd = cat_field(2.0, n_max=60, parity="odd")
    n = np.arange(61)
    npt.assert_array_equal(even.amplitudes[n % 2 == 1], 0)
    npt.assert_array_equal(odd.amplitudes[n % 2 == 0], 0)
    assert np.linalg.norm(even.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(odd.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # closed-form mean photon numbers m tanh(m), m coth(m) at m = |alpha|^2
    m = 4.0
    assert mean_photon(even) == pytest.approx(m * np.tanh(m), abs=1e-8)
    assert mean_photon(odd) == pytest.approx(m / np.tanh(m), abs=1e-8)


def test_cat_validation():
    with pytest.raises(ValueError):
        cat_field(2.0, parity="mixed")
    with pytest.raises(ValueError):
        cat_field(0.0, parity="odd")
    # the even cat at alpha = 0 degenerates to the vacuum
    npt.assert_allclose(cat_field(0.0, n_max=4, parity="even").amplitudes,
                        [1, 0, 0, 0, 0], atol=1e-15)


def test_e0_support_is_multiples_of_four():
    f = e0_field(3.0, n_max=80)
    n = np.arange(81)
    npt.assert_array_equal(f.amplitudes[n % 4 != 0], 0)
    assert np.all(f.amplitudes[n % 4 == 0].real > 0)
    assert np.linalg.norm(f.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_fock_field():
    f = fock_field(5, n_max=10)
    assert mean_photon(f) == 5.0
    assert f.amplitudes[5] == 1.0
    assert np.count_nonzero(f.amplitudes) == 1
    with pytest.raises(ValueError):
        fock_field(-1)
    with pytest.raises(TruncationTooSmall):
        fock_field(11, n_max=10)


def test_custom_field_normalization():
    f = custom_field(np.array([1.0, 1.0]) / np.sqrt(2))
    assert f.label == "custom"
    assert f.alpha is None
    with pytest.raises(ValueError):
        custom_field([1.0, 1.0])
    with pytest.raises(ValueError):
        custom_field([1.0])


def test_make_field_dispatch():
    assert make_field("coherent", 1.0, 20).label == "coherent"
    assert make_field("cat_even", 2.0, 60).label == "cat_even"
    assert make_field("cat_odd", 2.0, 60).label == "cat_odd"
    assert make_field("e0", 2.0, 60).label == "e0"
    f = make_field("fock", 3, 10)
    assert f.label == "fock" and f.amplitudes[3] == 1.0
    with pytest.raises(ValueError):
        make_field("fock", 2.5, 10)
    with pytest.raises(ValueError):
        make_field("squeezed", 1.0, 10)
    with pytest.raises(ValueError, match=r"unknown field label \['coherent'\]"):
        make_field(["coherent"], 1.0, 20)  # not a label, nor a hashable one


BUILT_FIELDS = {
    "coherent": lambda: coherent_field(1.5 + 0.5j, 30),
    "cat_even": lambda: cat_field(2.0, 40),
    "cat_odd": lambda: cat_field(2.0, 40, "odd"),
    "e0": lambda: e0_field(3.0, 60),
    "fock": lambda: fock_field(3, 10),
    "custom": lambda: _edge_field(),  # defined with the series tests below
    "make_field": lambda: make_field("fock", 0, 4),
}


@pytest.mark.parametrize("name", sorted(BUILT_FIELDS))
def test_field_checks_run_once_on_user_amplitudes_only(monkeypatch, name):
    # a built field skips FieldState's checks and is normalized once; only
    # custom_field checks, once, the amplitudes its caller gave
    from blochdyn import FieldState

    checks, norms = [], []
    check, norm = FieldState.__post_init__, cavity._norm
    monkeypatch.setattr(FieldState, "__post_init__", lambda f: checks.append(1) or check(f))
    monkeypatch.setattr(cavity, "_norm", lambda a: norms.append(1) or norm(a))
    BUILT_FIELDS[name]()
    assert (len(checks), len(norms)) == ((1, 2) if name == "custom" else (0, 1))


@pytest.mark.parametrize("name", sorted(BUILT_FIELDS))
def test_built_fields_equal_publicly_built_ones(name):
    from blochdyn import FieldState

    f = BUILT_FIELDS[name]()
    public = FieldState(f.label, f.amplitudes.copy(), f.alpha)
    assert vars(public).keys() == vars(f).keys()
    assert (type(f.label), f.label, type(f.alpha), f.alpha) == (
        type(public.label), public.label, type(public.alpha), public.alpha)
    a, b = f.amplitudes, public.amplitudes
    assert (a.dtype, a.shape, a.flags.c_contiguous, a.flags.writeable) == (
        b.dtype, b.shape, b.flags.c_contiguous, b.flags.writeable)
    assert a.tobytes() == b.tobytes()


def test_field_state_rejects_bad_amplitudes():
    from blochdyn import FieldState

    with pytest.raises(ValueError):
        FieldState("custom", np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FieldState("custom", np.array([1.0]))


def test_non_finite_amplitudes_are_rejected_at_the_input():
    from blochdyn import FieldState

    with pytest.raises(ValueError, match="amplitudes must be finite"):
        FieldState("custom", np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        custom_field([np.nan, 1.0])
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        custom_field([1.0, np.inf])
    for bad in (np.nan, np.inf, complex(1.0, np.nan), 1e200):  # 1e200: |alpha|^2 overflows
        for make in (coherent_field, cat_field, e0_field, coherent_tail):
            with pytest.raises(ValueError, match="alpha must be finite"):
                make(bad, 20)
        with pytest.raises(ValueError, match="alpha must be finite"):
            make_field("fock", bad, 20)


# ------------------------------------------ stdlib special functions vs scipy

# alpha in [0.1, 30], every cutoff from mean - 3 sd to mean + 12 sd of the
# photon number (mean |alpha|^2, sd |alpha|)
POISSON_GRID = [
    (a, np.arange(max(0, int(a * a - 3 * a)), int(a * a + 12 * a) + 2))
    for a in np.linspace(0.1, 30.0, 60)
]


def test_coherent_tail_matches_regularized_incomplete_gamma():
    from scipy.special import gammainc

    worst = 0.0
    for a, cutoffs in POISSON_GRID:
        ref = gammainc(cutoffs + 1, a * a)
        got = np.array([coherent_tail(a, int(n)) for n in cutoffs])
        assert np.all(ref > 0.0)
        worst = max(worst, float(np.max(np.abs(got / ref - 1.0))))
    assert worst <= 1e-11


def test_truncation_decisions_match_incomplete_gamma():
    from scipy.special import gammainc

    for a, cutoffs in POISSON_GRID:
        rejected = gammainc(cutoffs + 1, a * a) >= cavity.TAIL_LIMIT
        assert [coherent_tail(a, int(n)) >= cavity.TAIL_LIMIT for n in cutoffs] == list(rejected)
        # the constructor itself at the largest rejected and smallest accepted cutoff
        if np.any(rejected) and cutoffs[rejected].max() >= 1:
            with pytest.raises(TruncationTooSmall):
                coherent_field(a, int(cutoffs[rejected].max()))
        if not np.all(rejected):
            coherent_field(a, int(cutoffs[~rejected].min()))


def test_coherent_amplitudes_match_log_gamma_form():
    for a in (0.1, 1.0, 3.0 + 1.0j, 7.5, 30.0):
        n_max = int(abs(a) ** 2 + 12 * abs(a)) + 2
        got = cavity._coherent_amplitudes(complex(a), n_max)
        npt.assert_allclose(got, coherent_amps_direct(a, n_max), rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------- config


def test_config_defaults_and_validation():
    cfg = CavityConfig()
    assert cfg.omega0 == 1.0
    assert cfg.g == 0.05
    assert cfg.detuning == 0.0
    assert cfg.n_max == 100
    assert cfg.frame == "lab"
    assert CavityConfig(omega0=2.0).g == 0.1
    with pytest.raises(ValueError):
        CavityConfig(omega0=0.0)
    with pytest.raises(ValueError):
        CavityConfig(g=-1.0)
    with pytest.raises(ValueError):
        CavityConfig(n_max=0)
    with pytest.raises(ValueError):
        CavityConfig(frame="interaction")
    assert CavityConfig(n_max=cavity.N_MAX_LIMIT).n_max == cavity.N_MAX_LIMIT
    # rejected before anything is allocated (a 1e11 cutoff would ask for ~1.5 TB)
    with pytest.raises(ValueError, match="n_max"):
        CavityConfig(n_max=10**11)
    with pytest.raises(ValueError, match="n_max"):
        CavityConfig(n_max=cavity.N_MAX_LIMIT + 1)


@pytest.mark.parametrize("key", ["omega0", "g", "detuning"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_config_rejects_non_finite_values(key, value):
    with pytest.raises(ValueError, match=key):
        CavityConfig(**{key: value})


# ---------------------------------------------------------------- propagation


def test_time_zero_is_the_identity_channel():
    f = coherent_field(1.0, n_max=20)
    cfg = CavityConfig(n_max=20)
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    rho_t, kraus = jc_propagate(f, rho0, cfg, 0.0)
    npt.assert_allclose(rho_t, rho0, atol=1e-14)
    for n in range(21):
        npt.assert_allclose(kraus.operators[n], f.amplitudes[n] * np.eye(2),
                            atol=1e-14)
    assert kraus.completeness_error() < 1e-12


def test_vacuum_rabi_populations():
    # resonant vacuum + excited qubit: p_e(t) = cos^2(g t) in either frame
    cfg = CavityConfig(g=0.05, n_max=2, frame="rotating")
    f = fock_field(0, n_max=2)
    times = np.linspace(0, 100, 401)
    rho = reduced_series(f, EXCITED, cfg, times)
    npt.assert_allclose(rho[:, 0, 0].real, np.cos(0.05 * times) ** 2, atol=1e-12)
    npt.assert_allclose(rho[:, 0, 1], 0, atol=1e-14)
    lab = reduced_series(f, EXCITED, CavityConfig(g=0.05, n_max=2), times)
    npt.assert_allclose(lab[:, 0, 0].real, np.cos(0.05 * times) ** 2, atol=1e-12)


def test_matches_dense_joint_propagation():
    # direct check against expm of the full truncated Hamiltonian
    f = coherent_field(1.0, n_max=12)
    cfg = CavityConfig(omega0=1.0, g=0.05, n_max=12)
    rho_q = np.array([[0.65, 0.25 + 0.15j], [0.25 - 0.15j, 0.35]])
    worst = 0.0
    for t in np.linspace(0.0, 100.0, 21):
        got, _ = jc_propagate(f, rho_q, cfg, t)
        ref = dense_reduced(f.amplitudes, rho_q, 12, 1.0, 0.05, t)
        worst = max(worst, np.abs(got - ref).max())
    assert worst < 1e-8


def test_detuned_dense_equivalence():
    f = coherent_field(1.0, n_max=12)
    cfg = CavityConfig(omega0=1.0, g=0.05, detuning=0.02, n_max=12)
    for t in (7.3, 41.0):
        got, _ = jc_propagate(f, EXCITED, cfg, t)
        ref = dense_reduced(f.amplitudes, EXCITED, 12, 1.0, 0.05, t, detuning=0.02)
        npt.assert_allclose(got, ref, atol=1e-8)


def test_kraus_completeness_large_space():
    f = coherent_field(3.0, n_max=100)
    cfg = CavityConfig(n_max=100)
    for t in (0.0, 3.7, 50.0, 97.1):
        _, kraus = jc_propagate(f, EXCITED, cfg, t)
        assert kraus.completeness_error() < 1e-10


def test_outputs_are_physical():
    f = cat_field(2.0, n_max=60, parity="even")
    cfg = CavityConfig(n_max=60)
    rho_q = np.array([[0.8, 0.1j], [-0.1j, 0.2]])
    rho = reduced_series(f, rho_q, cfg, np.linspace(0, 80, 101))
    traces = np.trace(rho, axis1=1, axis2=2)
    npt.assert_allclose(traces, 1.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() > -1e-12


def test_excitation_number_is_conserved():
    f = coherent_field(2.0, n_max=40)
    cfg = CavityConfig(n_max=40)
    rho_q = np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex)
    total0 = None
    for t in np.linspace(0, 60, 7):
        rho_t, kraus = jc_propagate(f, rho_q, cfg, t)
        total = photon_number_expectation(kraus, rho_q) + rho_t[0, 0].real
        if total0 is None:
            total0 = total
        assert total == pytest.approx(total0, abs=1e-8)


def test_frames_differ_by_a_local_rotation():
    f = coherent_field(1.5, n_max=30)
    rho_q = np.array([[0.55, 0.2 - 0.3j], [0.2 + 0.3j, 0.45]])
    lab = CavityConfig(n_max=30, frame="lab")
    rot = CavityConfig(n_max=30, frame="rotating")
    for t in (0.9, 12.3, 47.0):
        rl, _ = jc_propagate(f, rho_q, lab, t)
        rr, _ = jc_propagate(f, rho_q, rot, t)
        ph = np.exp(0.5j * lab.omega0 * t)
        u = np.diag([ph, np.conj(ph)])
        npt.assert_allclose(rr, u @ rl @ u.conj().T, atol=1e-12)


def test_even_cat_suppresses_dephasing():
    # number support with a fixed residue keeps the evolved coherence block
    # equal to its initial value at all times
    f = cat_field(3.0, n_max=80, parity="even")
    cfg = CavityConfig(n_max=80)
    rho = reduced_series(f, EXCITED, cfg, np.linspace(0, 50, 64))
    assert np.abs(rho[:, 0, 1]).max() < 1e-10


def test_mismatched_cutoffs_are_rejected():
    f = coherent_field(1.0, n_max=20)
    cfg = CavityConfig(n_max=30)
    with pytest.raises(ValueError):
        jc_propagate(f, EXCITED, cfg, 1.0)


def test_time_and_grid_validation():
    f = fock_field(0, n_max=2)
    cfg = CavityConfig(n_max=2)
    with pytest.raises(ValueError):
        jc_propagate(f, EXCITED, cfg, -0.1)
    with pytest.raises(ValueError):
        reduced_series(f, EXCITED, cfg, [[0.0, 1.0]])
    with pytest.raises(ValueError):
        reduced_series(f, EXCITED, cfg, [-1.0, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            reduced_series(f, EXCITED, cfg, [0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            jc_propagate(f, EXCITED, cfg, bad)
        with pytest.raises(ValueError, match="finite"):
            kraus_support(f, cfg, bad)
    assert reduced_series(f, EXCITED, cfg, []).shape == (0, 2, 2)


@pytest.mark.parametrize("qubit", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[0.5, np.nan], [np.nan, 0.5]],
    [[np.inf, 0.0], [0.0, 1.0]],
])
def test_non_finite_qubits_are_refused_at_the_input(qubit):
    f = coherent_field(1.0, n_max=20)
    cfg = CavityConfig(n_max=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        for call in (lambda: jc_propagate(f, qubit, cfg, 1.0),
                     lambda: reduced_series(f, qubit, cfg, [0.0, 1.0])):
            with pytest.raises(ValueError, match="density matrix must be finite"):
                call()


def test_integer_times_past_the_float_range_are_refused_naming_them():
    f = coherent_field(1.0, 20)
    cfg = CavityConfig(n_max=20)
    calls = [
        ("t", lambda: jc_propagate(f, EXCITED, cfg, 10**400)),
        ("t", lambda: kraus_support(f, cfg, 10**400)),
        ("times", lambda: reduced_series(f, EXCITED, cfg, [0.0, 10**400])),
        ("t_max", lambda: perr_series(f, (0.0, 0.0, 1.0), cfg, t_max=10**400)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            call()


def test_tolerances_and_worker_counts_are_checked_naming_them():
    # a NaN tolerance used to give an empty answer, an infinite worker count an OverflowError
    f = coherent_field(1.0, 20)
    cfg = CavityConfig(n_max=20)
    series = perr_series(f, (0.0, 0.0, 1.0), cfg, t_max=10.0, steps=50)
    calls = [
        ("atol", lambda bad: nonunitary_tau(series, 0.3, atol=bad)),
        ("tol", lambda bad: kraus_support(f, cfg, 1.0, tol=bad)),
        ("workers", lambda bad: perr_series(f, (0.0, 0.0, 1.0), cfg, steps=50, workers=bad)),
    ]
    for name, call in calls:
        for bad in (np.nan, np.inf, -1.0, 10**400):
            with pytest.raises(ValueError, match=rf"^{name} must be finite"):
                call(bad)
    with pytest.raises(ValueError, match="^workers must be an integer, got 1.5$"):
        perr_series(f, (0.0, 0.0, 1.0), cfg, steps=50, workers=1.5)
    with pytest.raises(ValueError, match="^workers must be finite and lie in"):
        perr_series(f, (0.0, 0.0, 1.0), cfg, steps=50, workers=0)
    assert nonunitary_tau(series, 0.3, atol=0) == nonunitary_tau(series, 0.3, atol=0.0)
    assert kraus_support(f, cfg, 1.0, tol=0).tolist() == list(range(21))


def test_physicality_check_fails_on_nan(monkeypatch):
    half, zero = np.array([0.5, 0.5]), np.zeros(2, complex)
    assert [m.tolist() for m in _margins(half, zero, half)] == [[0.0, 0.0], [0.5, 0.5]]
    assert np.isnan(_margins(np.array([0.5, np.nan]), zero, half)).tolist() == [[False, True]] * 2
    assert np.isnan(_margins(half, np.array([0.0, np.nan + 0j]), half)[1]).tolist() == [False, True]
    _injected_series(monkeypatch, {})
    with pytest.raises(NonphysicalOutput):
        _injected_series(monkeypatch, {1: (np.nan, 0j)})
    with pytest.raises(NonphysicalOutput):
        _injected_series(monkeypatch, {1: (0.0, complex(0.0, np.nan))})


def _injected_series(monkeypatch, rows):
    # reduced_series from diag(3/4, 1/4) over a Fock field, three chunks of
    # direct trig whose sums are zero but at the grid rows given, {row: (pop, eg)}
    f, cfg = fock_field(5, n_max=40), CavityConfig(n_max=40, frame="rotating")
    rho0 = np.diag([0.75, 0.25])
    times = np.linspace(0.0, 160.0, 2 * _rows(f, cfg, qubit=rho0) + 900)

    def sums(w, cfg, t):
        lo = int(np.searchsorted(times, t[0]))
        pop, eg = np.zeros(t.size), np.zeros(t.size, complex)
        for i, (p, e) in rows.items():
            if lo <= i < lo + t.size:
                pop[i - lo], eg[i - lo] = p, e
        return pop, eg

    with monkeypatch.context() as m:
        m.setattr(cavity, "_direct_sums", sums)
        return reduced_series(f, rho0, cfg, times)


INJECTED_ROWS = 2 * 4096 + 900  # three chunks of 4096 rows (asserted below)


@pytest.mark.parametrize("row", [0, 4095, 4096 + 17, 2 * 4096, INJECTED_ROWS - 1],
                         ids=["first", "first_end", "middle", "last_start", "last"])
@pytest.mark.parametrize("where", ["pop", "eg"])
def test_physicality_check_fails_on_nan_in_any_chunk(monkeypatch, row, where):
    rho = _injected_series(monkeypatch, {})
    assert rho.shape[0] == INJECTED_ROWS
    assert np.all(rho[:, 0, 0] == 0.75) and np.all(rho[:, 1, 1] == 0.25) and not rho[:, 0, 1].any()
    bad = (np.nan, 0j) if where == "pop" else (0.0, complex(np.nan, 0.0))
    with pytest.raises(NonphysicalOutput, match=r"broke physicality: .*nan"):
        _injected_series(monkeypatch, {row: bad})


# 2^53 in the populations rounds ee to 2^53 and gg to -2^53: |tr - 1| = 1 and
# the smallest eigenvalue -2^53; an eg of 0.6 or 1e16 keeps the trace and
# moves the eigenvalue to 0.5 (1 - sqrt(1/4 + 4 eg^2)), -0.15 or -1e16
@pytest.mark.parametrize("rows, message", [
    ({10: (0.0, 0.6), 2 * 4096 + 10: (2.0**53, 0j)}, "up to 1.000e+00, min eigenvalue -9.007e+15"),
    ({10: (2.0**53, 0j), 2 * 4096 + 10: (0.0, 0.6)}, "up to 1.000e+00, min eigenvalue -9.007e+15"),
    ({10: (2.0**53, 0j), 2 * 4096 + 10: (0.0, 1e16)}, "up to 1.000e+00, min eigenvalue -1.000e+16"),
    ({10: (0.0, 0.6)}, "up to 0.000e+00, min eigenvalue -1.500e-01"),
], ids=["worse_last", "worse_first", "trace_first_eigenvalue_last", "one_chunk"])
def test_physicality_message_reports_the_whole_grids_worst(monkeypatch, rows, message):
    with pytest.raises(NonphysicalOutput) as exc:
        _injected_series(monkeypatch, rows)
    assert str(exc.value) == f"reduced state broke physicality: |tr-1| {message}"


# a norm of 4 makes the trace 4 and every eigenvalue 4 times its own; 1e150 a
# finite Gram matrix near 1e300 whose squares pass the float range, so the
# smallest eigenvalue reads -inf
@pytest.mark.parametrize("scale, message", [
    (2.0, "up to 3.000e+00, min eigenvalue 6.545e-01"),
    (1e150, "up to 1.000e+300, min eigenvalue -inf"),
    (np.nan, "up to nan, min eigenvalue nan"),
], ids=["norm_4", "scale_1e150", "nan"])
def test_jc_propagate_refuses_a_broken_amplitude_vector(scale, message):
    f = coherent_field(1.0, n_max=20)
    object.__setattr__(f, "amplitudes", scale * f.amplitudes)  # past FieldState's check
    with pytest.raises(NonphysicalOutput) as exc:
        jc_propagate(f, MIXED, CavityConfig(n_max=20), 3.0)
    # the sweep's message, from the sweep's rule
    assert str(exc.value) == f"reduced state broke physicality: |tr-1| {message}"


# ---------------------------------------------------------------- time series


def _edge_field(n_max=8):
    # nonzero c_0 and c_n_max, so the |g,0> and |e,n_max> terms both count
    rng = np.random.default_rng(7)
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    return custom_field(amps / np.linalg.norm(amps))


SERIES_FIELDS = {
    "edges": _edge_field,
    "e0_gaps": lambda: e0_field(2.0, n_max=24),
    "single_block": lambda: custom_field(np.array([0.6, 0.8j])),  # no adjacent pairs
}


def _lab_to_rotating(rho, omega0, t):
    ph = np.exp(0.5j * omega0 * t)
    u = np.diag([ph, np.conj(ph)])
    return u @ rho @ u.conj().T


@pytest.mark.parametrize("name", sorted(SERIES_FIELDS))
@pytest.mark.parametrize("frame", ["lab", "rotating"])
@pytest.mark.parametrize("detuning", [0.0, 0.03])
def test_reduced_series_matches_dense_oracle(name, frame, detuning):
    f = SERIES_FIELDS[name]()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=detuning, n_max=f.n_max, frame=frame)
    times = np.linspace(0.0, 160.0, cavity._DIRECT_ROWS[1] + 1500)  # two direct-trig chunks
    rho = reduced_series(f, MIXED, cfg, times)
    worst = 0.0
    for i in np.linspace(0, times.size - 1, 24).astype(int):
        t = times[i]
        ref = dense_reduced(f.amplitudes, MIXED, f.n_max, 1.3, 0.07, t, detuning=detuning)
        if frame == "rotating":
            ref = _lab_to_rotating(ref, 1.3, t)
        worst = max(worst, np.abs(rho[i] - ref).max())
    assert worst < 1e-9


@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_reduced_series_agrees_with_jc_propagate(frame):
    for f in (_edge_field(), coherent_field(2.0 * np.exp(0.4j), n_max=40)):
        cfg = CavityConfig(omega0=1.3, g=0.07, detuning=0.02, n_max=f.n_max, frame=frame)
        times = np.linspace(0.0, 160.0, cavity._DIRECT_ROWS[1] + 700)
        rho = reduced_series(f, MIXED, cfg, times)
        for i in np.linspace(0, times.size - 1, 20).astype(int):
            got, _ = jc_propagate(f, MIXED, cfg, times[i])
            npt.assert_allclose(rho[i], got, rtol=0, atol=1e-12)


def test_sweep_starts_no_thread_for_any_worker_count(monkeypatch):
    # the chunks run inline: perr_series validates workers, which changes nothing
    def no_thread(self):
        raise AssertionError("a sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    f = coherent_field(1.0, n_max=12)
    cfg = CavityConfig(n_max=12)
    steps = 2 * _rows(f, cfg) + 1  # three chunks
    reduced_series(f, MIXED, cfg, np.linspace(0.0, 50.0, steps))
    a = perr_series(f, (0.3, -0.2, 0.5), cfg, t_max=50.0, steps=steps, workers=1)
    for workers in (2, 8, 5000):
        b = perr_series(f, (0.3, -0.2, 0.5), cfg, t_max=50.0, steps=steps, workers=workers)
        assert np.array_equal(a.p_err, b.p_err)


def _rows(f, cfg, times=np.linspace(0.0, 160.0, 3), qubit=MIXED):
    # the chunk rows of a sweep of f over a grid like times (uniform by default)
    kept = cavity._sweep_weights(f, cfg, qubit).kept.size
    anchored = kept > 0 and _trig(f, cfg, times, qubit) == "anchored"  # no kept block, no path
    return cavity._chunk_rows(kept, *(cavity._ANCHORED_ROWS if anchored else cavity._DIRECT_ROWS))


def _old_direct_rows(kept):
    # the direct-trig chunk rows before the one rule, as they were written
    rows = 4096
    while rows > 512 and rows * kept > 1 << 17:
        rows //= 2
    return rows


def _old_block_rows(kept):
    # the matrix path's block rows before the one rule, as they were written
    anchors = 64
    while anchors > 8 and 8 * anchors * kept > 1 << 18:
        anchors //= 2
    return anchors * 128


def test_chunk_rows_of_direct_trig_are_a_cache_sized_power_of_two_set_by_the_kept_width():
    lo, hi, cells = cavity._DIRECT_ROWS
    for kept in range(cavity.N_MAX_LIMIT + 1):
        rows = cavity._chunk_rows(kept, lo, hi, cells)
        assert rows == _old_direct_rows(kept)
        assert rows & (rows - 1) == 0 and 512 <= rows <= 4096
        if rows > 512:
            assert rows * kept <= cells
        if rows < 4096:  # the largest that fits
            assert 2 * rows * kept > cells
        if kept <= 32:  # the golden sweeps keep one chunk of today's shape
            assert rows == 4096


def test_chunk_rows_of_the_matrix_path_are_whole_anchors_set_by_the_kept_width():
    lo, hi, cells = cavity._ANCHORED_ROWS
    for kept in range(cavity.N_MAX_LIMIT + 1):
        rows = cavity._chunk_rows(kept, lo, hi, cells)
        assert rows == _old_block_rows(kept)
        anchors = rows // cavity._ANCHOR
        assert rows == anchors * cavity._ANCHOR and anchors & (anchors - 1) == 0
        assert anchors % cavity._GEMM_ALIGN == 0
        assert cavity._GEMM_ALIGN <= anchors <= 64
        if anchors > cavity._GEMM_ALIGN:  # the anchor side, 8 anchors * kept floats, fits 2 MiB
            assert 8 * anchors * kept <= 1 << 18
        if anchors < 64:  # the most that fit
            assert 16 * anchors * kept > 1 << 18


@pytest.mark.parametrize("name, trig", [
    ("coherent", "anchored"),  # the matrix path: blocks of whole anchors
    ("coherent_bent_grid", "direct"),  # direct trig of a wide sweep
    ("fock", "direct"),  # direct trig of a sparse sweep
])
def test_chunk_bounds_ignore_grid_length(monkeypatch, name, trig):
    seen = []  # (sums function, first time) of each chunk
    for sums in ("_direct_sums", "_anchored_sums"):
        def spy(w, cfg, t, *side, _sums=sums, _real=getattr(cavity, sums)):
            seen.append((_sums, t[0]))
            return _real(w, cfg, t, *side)

        monkeypatch.setattr(cavity, sums, spy)
    f = fock_field(5, n_max=100) if name == "fock" else coherent_field(2.0, n_max=100)
    cfg = CavityConfig(n_max=100)

    def grid(steps):
        times = np.linspace(0.0, 50.0, steps)
        return times ** 1.5 if name == "coherent_bent_grid" else times

    rows = _rows(f, cfg, grid(3))
    counted = []  # _chunk_rows calls: the sweep counts its chunks once
    chunk_rows = cavity._chunk_rows
    monkeypatch.setattr(cavity, "_chunk_rows", lambda *a: counted.append(a) or chunk_rows(*a))
    for steps in (rows - 1, 3 * rows + 5):
        times = grid(steps)
        seen.clear()
        counted.clear()
        reduced_series(f, MIXED, cfg, times)
        assert seen == [(f"_{trig}_sums", t0) for t0 in times[:steps:rows].tolist()]
        assert len(counted) == 1


MULTI_CHUNK_FIELDS = {
    "edges": lambda: _edge_field(n_max=64),  # every block kept
    "e0_gaps": lambda: e0_field(3.0, n_max=64),  # kept blocks with gaps
}


def _multi_chunk_times(f, cfg, qubit=MIXED):
    # three chunks, the last ending inside an anchor's rows
    return np.linspace(0.0, 160.0, 2 * _rows(f, cfg, qubit=qubit) + 900)


@pytest.mark.parametrize("name", sorted(MULTI_CHUNK_FIELDS))
@pytest.mark.parametrize("frame", ["lab", "rotating"])
@pytest.mark.parametrize("detuning", [0.0, 0.03])
def test_multi_chunk_series_matches_dense_oracle(name, frame, detuning):
    f = MULTI_CHUNK_FIELDS[name]()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=detuning, n_max=f.n_max, frame=frame)
    times = _multi_chunk_times(f, cfg)
    assert _trig(f, cfg, times) == "anchored"  # the matrix path
    rows = _rows(f, cfg)
    rho = reduced_series(f, MIXED, cfg, times)
    worst = 0.0
    bounds = [127, 128, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows]  # anchors, blocks
    for i in np.linspace(0, times.size - 1, 24).astype(int).tolist() + bounds:
        t = times[i]
        ref = dense_reduced(f.amplitudes, MIXED, f.n_max, 1.3, 0.07, t, detuning=detuning)
        if frame == "rotating":
            ref = _lab_to_rotating(ref, 1.3, t)
        worst = max(worst, np.abs(rho[i] - ref).max())
    assert worst < 1e-9


@pytest.mark.parametrize("frame", ["lab", "rotating"])
@pytest.mark.parametrize("detuning", [0.0, 0.03, -0.03])
@pytest.mark.parametrize("steps", [2 * 8192 + 900, 100])  # three blocks; under one anchor
def test_matrix_path_edge_phases_match_dense_oracle(frame, detuning, steps):
    # weight on c_0 and c_n_max: both uncoupled end blocks, n = -1 (|g,0>)
    # and n = n_max (|e,n_max>), are kept, so their detuning phases enter
    # rho_eg through the pair products, with the lab frame's anchor x offset
    f = _edge_field(n_max=64)
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=detuning, n_max=f.n_max, frame=frame)
    times = np.linspace(0.0, 160.0, steps)
    assert _trig(f, cfg, times) == "anchored"
    w = cavity._sweep_weights(f, cfg, MIXED)
    basis, _ = cavity._anchored_basis(w, cfg, times, steps > _rows(f, cfg))
    assert w.kept[0] == -1 and w.kept[-1] == f.n_max
    assert (basis[-1] is not None) == (frame == "lab")  # the lab phase
    rho = reduced_series(f, MIXED, cfg, times)
    rows = np.linspace(0, steps - 1, 16).astype(int).tolist()
    rows += [i for i in (127, 128, 8191, 8192, 8193, 2 * 8192) if i < steps]
    worst = 0.0
    for i in rows:
        t = times[i]
        ref = dense_reduced(f.amplitudes, MIXED, f.n_max, 1.3, 0.07, t, detuning=detuning)
        if frame == "rotating":
            ref = _lab_to_rotating(ref, 1.3, t)
        worst = max(worst, np.abs(rho[i] - ref).max())
    assert worst < 1e-9


@pytest.mark.parametrize("make, trig", [(lambda: fock_field(5, n_max=64), "direct"),
                                        (lambda: _edge_field(n_max=64), "anchored")])
def test_zero_detuning_takes_no_phase_exp(monkeypatch, make, trig):
    # exp(-i detuning t / 2) is 1 at detuning 0 (or -0.0): neither sweep path
    # computes it, so a rotating-frame sweep calls no exp at all. Nor at a
    # nonzero detuning: the uncoupled ends' phases are their own cos and sin
    f = make()
    times = np.linspace(0.0, 160.0, 9000)
    cfgs = [CavityConfig(omega0=1.3, g=0.07, detuning=d, n_max=64, frame="rotating")
            for d in (0.0, -0.0, 0.03)]
    assert _trig(f, cfgs[0], times) == _trig(f, cfgs[2], times) == trig
    calls = []
    real = np.exp
    monkeypatch.setattr(np, "exp", lambda x, *a, **k: calls.append(x) or real(x, *a, **k))
    plus, minus, _ = (reduced_series(f, MIXED, cfg, times) for cfg in cfgs)
    assert not calls
    assert plus.tobytes() == minus.tobytes()


def _full_width_weights(monkeypatch, f, cfg, rho0):
    # a drop bound below zero keeps every block: the unpruned sweep
    with monkeypatch.context() as m:
        m.setattr(cavity, "_DROP_MASS", -1.0)
        w = cavity._sweep_weights(f, cfg, rho0)
    assert w.kept.tolist() == list(range(-1, cfg.n_max + 1)) and w.dropped == 0.0
    return w


def _block_mass(w):
    # summed |re| + |im| of every weight of a full-width sweep that reads
    # each block, n = -1 .. n_max at index n + 1: its diag weights for rho_ee
    # and, negated, for rho_gg, and each pair row it is in
    mass = 2.0 * (np.abs(w.diag_ss) + np.abs(w.diag_sc))
    for pair in w.pairs:
        row = np.abs(pair).sum(axis=1)  # pair row m reads blocks m and m-1
        mass[1:] += row
        mass[:-1] += row
    return mass


def _nonzero_weight_blocks(w):
    return (np.flatnonzero(_block_mass(w)) - 1).tolist()


def _run_chunk(monkeypatch, w, cfg, t):
    # (ee, eg, gg) of a sweep over t with the weights w, its chunks joined
    with monkeypatch.context() as m:
        m.setattr(cavity, "_sweep_weights", lambda *args: w)
        chunks = list(cavity._sweep(None, None, cfg, t, cavity._uniform(t)))
    return tuple(np.concatenate([chunk[k] for chunk in chunks]) for k in (1, 2, 3))


def _fold(terms):
    # left to right, one rounding per product and one per add
    acc = 0.0
    for x, wk in terms:
        acc = acc + x * wk
    return acc


def _fold_reference(w, cfg, t, i):
    # the sweep's values at row i, its real sums folded from Python floats
    # block by block; the lab phase is numpy's complex product, which may
    # fuse a multiply and an add
    arg = np.multiply.outer(w.om, t)
    S, C = np.sin(arg)[:, i].tolist(), np.cos(arg)[:, i].tolist()
    k = range(len(S))
    ee_gg = [  # rho_gg reads rho_ee's weights negated
        _fold((S[n] * S[n], sign * w.diag_ss[n]) for n in k)
        + _fold((S[n] * C[n], sign * w.diag_sc[n]) for n in k)
        for sign in (1.0, -1.0)
    ]
    coh = [0.0, 0.0]
    for (hi, lo), weight in zip(((C, S), (S, C), (C, C), (S, S)), w.pairs):
        for j in range(2):
            coh[j] = coh[j] + _fold((hi[n] * lo[n - 1], weight[n - 1, j]) for n in k[1:])
    eg = complex(coh[0], coh[1])
    if cfg.frame == "lab":
        eg *= np.exp(-1j * cfg.omega0 * t[i])
    return w.ee0 + ee_gg[0], eg, w.gg0 + ee_gg[1]


FOLD_FIELDS = {
    "fock_mid": lambda: fock_field(7, n_max=40),
    "fock_vacuum": lambda: fock_field(0, n_max=40),
    "fock_top": lambda: fock_field(40, n_max=40),
    "e0": lambda: e0_field(2.0, n_max=40),
    "edges": _edge_field,
}


FOLD_GRIDS = {  # a grid and the rows read from it
    "one_chunk": (np.linspace(0.0, 160.0, 512), (0, 1, 97, 255, 384, 511)),
    "one_row": (np.array([37.5]), (0,)),
    # 4096-row chunks (every fold field keeps at most 32 blocks): the last is one row
    "last_chunk_one_row": (np.linspace(0.0, 160.0, 4097), (0, 1, 4095, 4096)),
}


@pytest.mark.parametrize("name", sorted(FOLD_FIELDS))
@pytest.mark.parametrize("frame, detuning", [("rotating", 0.0), ("rotating", 0.03), ("lab", 0.03)])
@pytest.mark.parametrize("qubit", ["excited", "mixed"])
@pytest.mark.parametrize("grid", sorted(FOLD_GRIDS))
def test_fixed_order_path_is_a_left_to_right_fold(monkeypatch, name, frame, detuning, qubit,
                                                  grid):
    # the Fock fields take direct trig on any grid; the wider ones are kept
    # off the matrix path, so the fold runs over more than two blocks (up to
    # 18: a row alone in its chunk is folded like any other)
    f = FOLD_FIELDS[name]()
    monkeypatch.setattr(cavity, "_FIXED_ORDER_WIDTH", f.n_max + 2)
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=detuning, n_max=f.n_max, frame=frame)
    t, rows = FOLD_GRIDS[grid]
    rho0 = EXCITED if qubit == "excited" else MIXED
    w = cavity._sweep_weights(f, cfg, rho0)
    if name == "fock_top" and qubit == "excited":
        assert w.kept.size == 0  # |e,n_max> is uncoupled: nothing moves
        return
    assert _trig(f, cfg, t, rho0) == "direct"
    assert cavity._chunk_rows(w.kept.size, *cavity._DIRECT_ROWS) == 4096
    ee, eg, gg = _run_chunk(monkeypatch, w, cfg, t)
    unit_phase = frame == "rotating" and detuning == 0.0
    for i in rows:
        ee_ref, eg_ref, gg_ref = _fold_reference(w, cfg, t, i)
        assert ee[i] == ee_ref and gg[i] == gg_ref
        if unit_phase:
            assert eg[i] == eg_ref
        else:
            assert abs(eg[i] - eg_ref) <= 4e-16 * abs(eg_ref)


def _poisson_custom(n_max, mean, seed):
    rng = np.random.default_rng(seed)
    n = np.arange(n_max + 1)
    mag = np.exp(0.5 * (n * np.log(mean) - mean - np.array([math.lgamma(k + 1.0) for k in n])))
    amps = mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n.size))
    return custom_field(amps / np.linalg.norm(amps))


PRUNED_FIELDS = {
    "coherent": lambda: coherent_field(3.0 + 1.0j, n_max=64),
    "cat_odd": lambda: cat_field(3.0, n_max=64, parity="odd"),
    "custom": lambda: _poisson_custom(64, 12.0, 5),
    "e0": lambda: e0_field(3.0, n_max=64),
}


@pytest.mark.parametrize("name", sorted(PRUNED_FIELDS))
@pytest.mark.parametrize("frame", ["lab", "rotating"])
@pytest.mark.parametrize("detuning", [0.0, 0.03])
def test_pruned_sweep_is_within_its_dropped_mass_of_the_full_width_sweep(
        monkeypatch, name, frame, detuning):
    f = PRUNED_FIELDS[name]()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=detuning, n_max=f.n_max, frame=frame)
    times = _multi_chunk_times(f, cfg)
    w = cavity._sweep_weights(f, cfg, MIXED)
    assert 0 < w.kept.size < f.n_max and 0.0 < w.dropped <= cavity._DROP_MASS
    assert w.kept.size > cavity._FIXED_ORDER_WIDTH
    pruned = reduced_series(f, MIXED, cfg, times)
    with monkeypatch.context() as m:
        m.setattr(cavity, "_DROP_MASS", -1.0)
        full = reduced_series(f, MIXED, cfg, times)
    assert np.abs(pruned - full).max() <= w.dropped + 1e-15


@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_compact_weights_are_the_full_weights_at_the_kept_blocks(monkeypatch, frame):
    # c_0, c_1, c_10, c_11 and the top two amplitudes at 1e-12 leave blocks 0,
    # 10 and n_max-1 with masses near 1e-12 and the end blocks -1 and n_max
    # near 1e-24, dropped under a 1e-9 bound: kept blocks 9 and 11 become
    # neighbours, and both ends go
    rng = np.random.default_rng(3)
    amps = rng.normal(size=25) + 1j * rng.normal(size=25)
    amps[[0, 1, 10, 11, 23, 24]] *= 1e-12
    f = custom_field(amps / np.linalg.norm(amps))
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=0.03, n_max=f.n_max, frame=frame)
    full = _full_width_weights(monkeypatch, f, cfg, MIXED)
    monkeypatch.setattr(cavity, "_DROP_MASS", 1e-9)
    w = cavity._sweep_weights(f, cfg, MIXED)
    assert w.kept.tolist() == [n for n in range(1, 23) if n != 10]
    mass = _block_mass(full)  # block n at index n + 1, as every full array
    assert w.dropped == pytest.approx(mass[[0, 1, 11, 24, 25]].sum(), rel=1e-15, abs=0)
    assert w.dropped <= 1e-9 < w.dropped + mass[w.kept + 1].min()  # drops all it may
    assert np.array_equal(w.om, full.om[w.kept + 1])  # full arrays at index n + 1
    assert np.array_equal(w.diag_ss, full.diag_ss[w.kept + 1])
    assert np.array_equal(w.diag_sc, full.diag_sc[w.kept + 1])
    gap = w.kept.tolist().index(9)  # pair row of kept neighbours 9 and 11
    for pair, every in zip(w.pairs, full.pairs):  # full pair row m at index m
        assert np.array_equal(np.delete(pair, gap, axis=0),
                              np.delete(every[w.kept[1:]], gap, axis=0))
        assert not pair[gap].any() and every[11].any()
    assert 0.0 < mass[0] and 0.0 < mass[-1]  # the ends -1 and 24 carry weight, and go


@pytest.mark.parametrize("make, qubit, kept", [
    (lambda: fock_field(7, n_max=40), EXCITED, [7]),  # from |e>, q = 0 leaves block 6 unread
    (lambda: fock_field(7, n_max=40), MIXED, [6, 7]),
    (lambda: fock_field(0, n_max=40), MIXED, [-1, 0]),  # |g,0> is block -1
    (lambda: fock_field(40, n_max=40), MIXED, [39, 40]),  # |e,n_max> is block n_max
    (lambda: e0_field(1.0, n_max=16), EXCITED, [0, 4, 8, 12]),
    (lambda: e0_field(1.0, n_max=16), MIXED, [-1, 0, 3, 4, 7, 8, 11, 12, 15, 16]),
], ids=["fock_excited", "fock_mixed", "vacuum", "fock_top", "e0_excited", "e0_mixed"])
def test_kept_blocks_are_the_nonzero_weight_blocks_of_sparse_fields(monkeypatch, make, qubit, kept):
    f = make()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=0.03, n_max=f.n_max)
    w = cavity._sweep_weights(f, cfg, qubit)
    assert w.kept.tolist() == kept == _nonzero_weight_blocks(
        _full_width_weights(monkeypatch, f, cfg, qubit))
    assert w.dropped == 0.0


@pytest.mark.parametrize("n, kept", [(7, [6, 7]), (0, [-1, 0]), (40, [39, 40])],
                         ids=["pair", "edge_g0", "edge_top"])
def test_blocks_read_only_by_the_coherence_are_kept(monkeypatch, n, kept):
    # g / detuning far below 1e-162 underflows every y_n^2 and with it the
    # population weights of a Fock field, so only the rho_eg terms read
    # blocks: the pair row m = n, which for n = 0 pairs block 0 with the
    # |g,0> block -1 and for n = n_max the |e,n_max> block with n_max - 1
    f = fock_field(n, n_max=40)
    cfg = CavityConfig(omega0=1.3, g=1e-80, detuning=1e100, n_max=40)
    w = cavity._sweep_weights(f, cfg, MIXED)
    full = _full_width_weights(monkeypatch, f, cfg, MIXED)
    assert not w.diag_ss.any() and not w.diag_sc.any()
    assert w.kept.tolist() == kept == _nonzero_weight_blocks(full)
    assert w.dropped == 0.0 and w.kept.size <= cavity._FIXED_ORDER_WIDTH
    assert _trig(f, cfg, np.linspace(0.0, 160.0, 512)) == "direct"  # on a uniform grid too
    t = np.linspace(0.0, 160.0, 512) ** 1.2  # not uniform: direct trig for the full width too
    for pruned, every in zip(_run_chunk(monkeypatch, w, cfg, t),
                             _run_chunk(monkeypatch, full, cfg, t)):
        assert np.abs(pruned - every).max() <= 1e-15


@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_empty_kept_set_gives_the_constant_series(monkeypatch, frame):
    # from the maximally mixed qubit every weight is y_n-suppressed to about
    # 1e-180, far below the drop bound, so no block is kept
    f = coherent_field(2.0, n_max=40)
    half = np.eye(2) / 2.0
    cfg = CavityConfig(omega0=1.3, g=1e-80, detuning=1e100, n_max=40, frame=frame)
    times = _multi_chunk_times(f, cfg, half)
    w = cavity._sweep_weights(f, cfg, half)
    assert w.kept.size == 0 and 0.0 < w.dropped <= cavity._DROP_MASS
    rho = reduced_series(f, half, cfg, times)
    assert np.all(rho[:, 0, 0] == w.ee0) and np.all(rho[:, 1, 1] == w.gg0)
    assert not rho[:, 0, 1].any() and not rho[:, 1, 0].any()
    with monkeypatch.context() as m:
        m.setattr(cavity, "_DROP_MASS", -1.0)
        full = reduced_series(f, half, cfg, times)
    assert np.abs(rho - full).max() <= w.dropped + 1e-15
    series = perr_series(f, (0.0, 0.0, 0.0), cfg, t_max=100.0, steps=600)
    assert np.all(series.p_err == 0.5)


# ------------------------------------------------- anchored trig on uniform grids


def _direct_trig_series(monkeypatch, *args, **kwargs):
    # the same sweep with libm's sin and cos on every cell
    with monkeypatch.context() as m:
        m.setattr(cavity, "_uniform", lambda t: False)
        return reduced_series(*args, **kwargs)


def _trig(f, cfg, times, qubit=MIXED):
    # the path a sweep of f over times takes, read from the sums its chunks call
    seen = set()
    with pytest.MonkeyPatch.context() as m:
        for path in ("direct", "anchored"):
            def spy(*args, _path=path, _real=getattr(cavity, f"_{path}_sums")):
                seen.add(_path)
                return _real(*args)

            m.setattr(cavity, f"_{path}_sums", spy)
        reduced_series(f, qubit, cfg, times)
    (path,) = seen
    return path


def _anchored_bound(f, cfg, times):
    # both ways round the argument Om_n t at about |Om_n t| eps
    w = cavity._sweep_weights(f, cfg, MIXED)
    return 4.0 * np.finfo(float).eps * (1.0 + w.om.max() * times.max())


@pytest.mark.parametrize("name", sorted(PRUNED_FIELDS))
@pytest.mark.parametrize("frame", ["lab", "rotating"])
@pytest.mark.parametrize("detuning", [0.0, 0.03])
@pytest.mark.parametrize("t_max", [160.0, 1e4])
def test_anchored_trig_is_within_the_argument_rounding_of_direct_trig(
        monkeypatch, name, frame, detuning, t_max):
    f = PRUNED_FIELDS[name]()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=detuning, n_max=f.n_max, frame=frame)
    times = np.linspace(0.0, t_max, 2 * _rows(f, cfg) + 1)  # the third block is one row
    assert _trig(f, cfg, times) == "anchored"
    anchored = reduced_series(f, MIXED, cfg, times)
    direct = _direct_trig_series(monkeypatch, f, MIXED, cfg, times)
    assert np.abs(anchored - direct).max() <= _anchored_bound(f, cfg, times)


@pytest.mark.parametrize("name", sorted(PRUNED_FIELDS))
@pytest.mark.parametrize("frame", ["lab", "rotating"])
@pytest.mark.parametrize("detuning", [0.0, 0.03])
def test_one_row_chunks_from_prebuilt_weights_match_the_series(name, frame, detuning):
    # weights built once, with no grid, then _direct_sums on one row at a
    # time: a direct-trig series holds the same bits in its populations,
    # and in rho_eg in the rotating frame (the lab phase is a complex
    # product whose rounding may depend on a row's place in its array); the
    # matrix path's series lies within the argument rounding
    f = PRUNED_FIELDS[name]()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=detuning, n_max=f.n_max, frame=frame)
    w = cavity._sweep_weights(f, cfg, MIXED)
    assert w.kept.size >= 9  # more blocks than numpy sums in order as one column
    uniform = np.linspace(0.0, 160.0, 700)
    for times, path in ((uniform ** 1.2, "direct"), (uniform, "anchored")):
        assert _trig(f, cfg, times) == path
        rho = reduced_series(f, MIXED, cfg, times)
        for i in (0, 1, 350, 699):
            pop, eg = cavity._direct_sums(w, cfg, times[i:i + 1])
            one = np.array([[w.ee0 + pop[0], eg[0]], [np.conj(eg[0]), w.gg0 - pop[0]]])
            if path == "anchored":
                assert np.abs(one - rho[i]).max() <= _anchored_bound(f, cfg, times)
                continue
            assert one[0, 0] == rho[i, 0, 0] and one[1, 1] == rho[i, 1, 1]
            if frame == "rotating":
                assert eg[0] == rho[i, 0, 1]
            else:
                assert abs(eg[0] - rho[i, 0, 1]) <= 4e-16 * abs(rho[i, 0, 1])


def test_lab_phase_rounding_scales_with_omega0_t(monkeypatch):
    # the lab phase's argument omega0 t dwarfs every Om_n t here (Om_n up to
    # 0.0155), so both ways differ at eps omega0 t: about 5e-13, past
    # _anchored_bound's 1.3e-13
    f = coherent_field(3.0, n_max=60)
    cfg = CavityConfig(omega0=1.0, g=0.002, n_max=60)
    times = np.linspace(0.0, 1e4, 20000)
    assert _trig(f, cfg, times) == "anchored"
    anchored = reduced_series(f, MIXED, cfg, times)
    direct = _direct_trig_series(monkeypatch, f, MIXED, cfg, times)
    om = cavity._sweep_weights(f, cfg, MIXED).om
    bound = 4.0 * np.finfo(float).eps * (1.0 + times.max() * max(om.max(), cfg.omega0))
    assert np.abs(anchored - direct).max() <= bound


def test_a_grid_one_ulp_off_uniform_takes_direct_trig(monkeypatch):
    f = PRUNED_FIELDS["coherent"]()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=0.03, n_max=f.n_max)
    times = _multi_chunk_times(f, cfg)
    nudged = times.copy()
    nudged[1234] = np.nextafter(nudged[1234], np.inf)
    assert _trig(f, cfg, times) == "anchored" and _trig(f, cfg, nudged) == "direct"
    assert cavity._sweep_weights(f, cfg, MIXED).kept.size > cavity._FIXED_ORDER_WIDTH
    assert np.array_equal(reduced_series(f, MIXED, cfg, nudged),
                          _direct_trig_series(monkeypatch, f, MIXED, cfg, nudged))


def _libm_cells(monkeypatch):
    # counts the cells np.sin and np.cos are called on
    cells = {"sin": 0, "cos": 0}
    for name in cells:
        real = getattr(np, name)

        def spy(x, *args, _real=real, _name=name, **kwargs):
            cells[_name] += np.size(x)
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return cells


@pytest.mark.parametrize("n", [0, 7, 64])
@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_fixed_order_sweeps_take_direct_trig(monkeypatch, n, frame):
    f = fock_field(n, n_max=64)
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=0.03, n_max=64, frame=frame)
    times = _multi_chunk_times(f, cfg)
    w = cavity._sweep_weights(f, cfg, MIXED)
    assert _trig(f, cfg, times) == "direct"
    assert w.kept.size <= cavity._FIXED_ORDER_WIDTH
    cells = _libm_cells(monkeypatch)
    reduced_series(f, MIXED, cfg, times)
    assert cells == {"sin": w.kept.size * times.size, "cos": w.kept.size * times.size}


@pytest.mark.parametrize("name", sorted(PRUNED_FIELDS))
def test_anchored_sweep_calls_libm_on_anchors_and_offsets_only(monkeypatch, name):
    f = PRUNED_FIELDS[name]()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=0.03, n_max=f.n_max)
    times = np.linspace(0.0, 1e4, 3 * _rows(f, cfg) + 77)
    kept = cavity._sweep_weights(f, cfg, MIXED).kept.size
    anchors = -(-times.size // cavity._ANCHOR)
    cells = _libm_cells(monkeypatch)
    reduced_series(f, MIXED, cfg, times)
    for count in cells.values():
        assert 0 < count <= kept * (anchors + cavity._ANCHOR)


_BENT_GRID_SWEEP = """
import hashlib
import numpy as np
from blochdyn import CavityConfig, custom_field, reduced_series
from blochdyn.cavity import _sweep_weights, _uniform
rng = np.random.default_rng(5)
f = custom_field(np.exp(2j * np.pi * rng.random(1000)) / np.sqrt(1000))
cfg = CavityConfig(n_max=999)
qubit = np.array([[0.62, 0.18 - 0.27j], [0.18 + 0.27j, 0.38]])
times = np.linspace(0.0, 100.0, 2000) ** 1.2
print(_sweep_weights(f, cfg, qubit).kept.size, _uniform(times))
print(hashlib.sha256(reduced_series(f, qubit, cfg, times).tobytes()).hexdigest())
"""


def _run_under(kernel, threads, script, *args):
    # stdout of script in a fresh interpreter under one OpenBLAS kernel (None:
    # the one OpenBLAS picks) and thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=str(Path(cavity.__file__).parents[1]))
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_dense_bent_grid_bytes_ignore_the_blas_thread_count():
    # every block of a random-phase field kept over a non-uniform grid, 999
    # blocks deep, past every kernel's GEMM_Q: direct trig adds them in a
    # fixed order with no BLAS call, and the amplitudes are normalized with
    # none, so the bits are the same under one and two OpenBLAS threads and
    # under the Haswell and Prescott kernels
    out = [_run_under(kernel, threads, _BENT_GRID_SWEEP)
           for kernel, threads in ((None, "1"), (None, "2"), ("Haswell", "2"), ("Prescott", "2"))]
    kept, uniform = out[0].splitlines()[0].split()
    assert int(kept) > 384 and uniform == "False"  # direct trig; SkylakeX's GEMM_Q is 384
    assert out[1:] == out[:1] * 3


_MATRIX_PATH_SWEEPS = """
import contextlib, hashlib, io, sys
from pathlib import Path
import numpy as np
from blochdyn import CavityConfig, custom_field, reduced_series
from blochdyn.cavity import _ANCHORED_ROWS, _chunk_rows, _sweep_weights, _uniform
from blochdyn.cli import main
runs = (
    "--field coherent --alpha 8 --n-max 200 --steps 20000 --delta 0.3",
    "--field coherent --alpha 1.5 --qubit 0.6,0,0.8 --n-max 40 --frame rotating"
    " --detuning 0.03 --steps 20000",
)
for i, run in enumerate(runs):
    csv = Path(sys.argv[1], f"run{i}.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cavity", *run.split(), "--out", str(csv)]) == 0
    print(hashlib.sha256(csv.read_bytes()).hexdigest())
rng = np.random.default_rng(5)
f = custom_field(np.exp(2j * np.pi * rng.random(1000)) / np.sqrt(1000))
qubit = np.array([[0.62, 0.18 - 0.27j], [0.18 + 0.27j, 0.38]])
times = np.linspace(0.0, 100.0, 5001)
for frame in ("lab", "rotating"):
    cfg = CavityConfig(n_max=999, detuning=0.02, frame=frame)
    kept = _sweep_weights(f, cfg, qubit).kept.size
    print(kept, _uniform(times), _chunk_rows(kept, *_ANCHORED_ROWS))
    print(hashlib.sha256(reduced_series(f, qubit, cfg, times).tobytes()).hexdigest())
"""


def test_dense_matrix_path_bytes_ignore_the_blas_thread_count(tmp_path):
    # the matrix path under one and two OpenBLAS threads, under the kernel
    # OpenBLAS picks and under Prescott: the CLI's dense sweep over three
    # kept blocks or more, a detuned rotating-frame one whose qubit weights
    # the end block n = -1 (its detuning phase enters the pair products), and
    # the uniform-grid twin of the bent-grid sweep above, 1001 blocks run in
    # chunks of 4096 rows. The products are cut and padded so that the thread
    # count moves no bit; the kernel may, so kernels are not compared
    out = {(kernel, threads): _run_under(kernel, threads, _MATRIX_PATH_SWEEPS, str(tmp_path))
           for kernel in (None, "Prescott") for threads in ("1", "2")}
    for line in out[None, "1"].splitlines()[2::2]:
        assert line.split() == ["1001", "True", "4096"]  # every block kept; 4096-row chunks
    assert out[None, "1"] == out[None, "2"]
    assert out["Prescott", "1"] == out["Prescott", "2"]


def test_sliced_matmul_adds_its_depth_slices_in_order():
    rng = np.random.default_rng(3)
    for depth in (1, cavity._GEMM_DEPTH, cavity._GEMM_DEPTH + 1, 3 * cavity._GEMM_DEPTH + 7):
        a, b = rng.normal(size=(2, depth)), rng.normal(size=(depth, 50))
        want = a[:, :cavity._GEMM_DEPTH] @ b[:cavity._GEMM_DEPTH]
        for lo in range(cavity._GEMM_DEPTH, depth, cavity._GEMM_DEPTH):
            want = want + a[:, lo:lo + cavity._GEMM_DEPTH] @ b[lo:lo + cavity._GEMM_DEPTH]
        made = []  # the depth slices asked for, in order

        def parts(r0, r1, a=a, b=b):
            made.append((r0, r1))
            return a[:, r0:r1], b[r0:r1]

        assert np.array_equal(cavity._sliced_matmul(parts, depth), want)
        assert made == [(lo, min(lo + cavity._GEMM_DEPTH, depth))
                        for lo in range(0, depth, cavity._GEMM_DEPTH)]
        npt.assert_allclose(want, a @ b, rtol=1e-12, atol=1e-12)


def _fold_made_whole(mix, hi, lo, basis, rows):
    # the matrix path's sums with the whole anchor side made as one product
    # and the whole offset basis, its depth slices added in order
    depth = cavity._GEMM_DEPTH
    side = np.matmul(mix, cavity._products(hi, lo)).reshape(basis.shape[0], -1).T
    out = side[:, :depth] @ basis[:depth]
    for r0 in range(depth, basis.shape[0], depth):
        out = out + side[:, r0:r0 + depth] @ basis[r0:r0 + depth]
    return out.reshape(-1, hi.shape[-1] * cavity._ANCHOR)[:, :rows]


@pytest.mark.parametrize("name", sorted(PRUNED_FIELDS))
@pytest.mark.parametrize("steps", [8192, 3 * 8192 + 77])  # one chunk, then four
def test_sides_made_per_slice_hold_the_whole_sides_bits(name, steps):
    # a one-chunk grid makes each depth slice's offset rows as the slice
    # reads them, a longer grid the whole offset basis once per call; either
    # way, with each slice's anchor side made from its blocks alone, the
    # sums hold the bits of the whole anchor side made as one product
    f = PRUNED_FIELDS[name]()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=0.03, n_max=f.n_max)
    w = cavity._sweep_weights(f, cfg, MIXED)
    times = np.linspace(0.0, 160.0, steps)
    rows = _rows(f, cfg)
    assert rows == 8192 and _trig(f, cfg, times) == "anchored"
    (kept_off, whole, _), (diag_mix, pair_mix) = cavity._anchored_basis(w, cfg, times,
                                                                        steps > rows)
    k = cavity._ANCHOR
    off = cavity._cos_sin(w.om, times[:k] - times[0], k)
    diag = cavity._products(off, off)[:, [0, 1, 3]].reshape(-1, k)
    pair = cavity._products(off[1:], off[:-1]).reshape(-1, k)
    if steps <= rows:
        assert whole == (None, None) and kept_off.tobytes() == off.tobytes()
    else:
        assert kept_off is None
        assert whole[0].tobytes() == diag.tobytes() and whole[1].tobytes() == pair.tobytes()
    for lo in range(0, steps, rows):
        t = times[lo:lo + rows]
        anchors = t[::k]
        align = cavity._GEMM_ALIGN
        trig = cavity._cos_sin(w.om, anchors, -(-anchors.size // align) * align)
        want = (_fold_made_whole(diag_mix, trig, trig, diag, t.size).tobytes(),
                _fold_made_whole(pair_mix, trig[1:], trig[:-1], pair, t.size).tobytes())
        for made in ((None, None), (diag, pair)):  # per slice, then whole
            assert cavity._fold(diag_mix, trig, 0, off, made[0], t.size).tobytes() == want[0]
            assert cavity._fold(pair_mix, trig, 1, off, made[1], t.size).tobytes() == want[1]


def test_offsets_stop_at_the_last_time(monkeypatch):
    # 128 offsets of the spacing would reach 127 t_max, past the largest
    # phase; a grid shorter than that takes only its own offsets
    f = PRUNED_FIELDS["coherent"]()
    cfg = CavityConfig(omega0=1.3, g=0.07, n_max=f.n_max)
    times = np.array([0.0, 1e307])
    assert _trig(f, cfg, times) == "anchored"
    got = reduced_series(f, MIXED, cfg, times)
    direct = _direct_trig_series(monkeypatch, f, MIXED, cfg, times)
    assert np.all(np.isfinite(got))
    # row 0 is the anchor t = 0 (sin 0 = 0, cos 0 = 1) at offset 0: every
    # population term is an exact zero either way, so rho_ee and rho_gg are
    # exact; rho_eg adds the same nonzero terms in an order the BLAS kernel sets
    assert np.array_equal(got[0].diagonal(), direct[0].diagonal())
    assert np.abs(got - direct).max() <= _anchored_bound(f, cfg, times)


@pytest.mark.parametrize("times, trig", [
    (np.array([37.5]), "direct"),  # one row has no spacing
    (np.array([0.0, 160.0]), "anchored"),
    (np.array([37.5, 160.0]), "anchored"),
    (np.linspace(0.0, 160.0, 129), "anchored"),  # two anchors, the second one row
    (np.zeros(700), "anchored"),  # spacing 0: every row is an anchor's
    (np.linspace(37.5, 1e4, 3001), "anchored"),  # a grid that starts above 0
], ids=["one_row", "two_rows", "two_rows_offset", "129_rows", "all_zero", "offset_start"])
@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_anchored_trig_edge_grids(monkeypatch, times, trig, frame):
    f = PRUNED_FIELDS["custom"]()
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=0.03, n_max=f.n_max, frame=frame)
    assert _trig(f, cfg, times) == trig
    got = reduced_series(f, MIXED, cfg, times)
    direct = _direct_trig_series(monkeypatch, f, MIXED, cfg, times)
    if not times.any():  # every row is row 0 at t = 0, as in test_offsets_stop_at_the_last_time
        assert np.array_equal(got[:, [0, 1], [0, 1]], direct[:, [0, 1], [0, 1]])
        npt.assert_allclose(got, np.broadcast_to(MIXED, got.shape), rtol=0, atol=1e-15)
    assert np.abs(got - direct).max() <= _anchored_bound(f, cfg, times)
    for i in (0, times.size - 1):  # the single-time oracle at both ends
        ref, _ = jc_propagate(f, MIXED, cfg, times[i])
        npt.assert_allclose(got[i], ref, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- support


def test_kraus_support_vacuum():
    f = fock_field(0, n_max=5)
    cfg = CavityConfig(n_max=5)
    assert list(kraus_support(f, cfg, 0.0)) == [0]
    assert list(kraus_support(f, cfg, 3.0)) == [0, 1]


def test_kraus_support_coherent_and_e0():
    cfg = CavityConfig(n_max=100)
    sup = kraus_support(coherent_field(3.0, n_max=100), cfg, 10.0)
    assert set(range(0, 20)) <= set(sup.tolist())
    assert sorted(sup.tolist()) == sup.tolist()

    e0 = e0_field(3.0, n_max=100)
    assert set(np.asarray(kraus_support(e0, cfg, 0.0)) % 4) == {0}
    sup_t = np.asarray(kraus_support(e0, cfg, 25.0))
    residues = set((sup_t % 4).tolist())
    assert residues <= {0, 1, 3}
    assert {1, 3} <= residues  # the coupling populates n0 +/- 1


def _spread_stacks(rng, n=400):
    # random, rank-one, unitary and zero 2x2 operators, each scaled by a
    # random 10^k for k in [-300, 300] and half of them spread by up to 10^2
    # between entries, so their p + q over- and underflows
    z = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rank_one = z(n, 2)[:, :, None] * z(n, 2)[:, None, :].conj()
    unitary = np.linalg.qr(z(n, 2, 2))[0]
    ops = np.concatenate([z(n, 2, 2), rank_one, unitary, np.zeros((n, 2, 2))])
    scale = 10.0 ** rng.uniform(-300, 300, size=(ops.shape[0], 1, 1))
    spread = np.where(rng.uniform(size=(ops.shape[0], 1, 1)) < 0.5,
                      10.0 ** rng.uniform(-2, 2, size=ops.shape), 1.0)
    return ops * np.minimum(scale * spread, 1e300)


def test_kraus_norms_match_svd_from_1e_minus_300_to_1e300():
    ops = _spread_stacks(np.random.default_rng(2025))
    ref = np.linalg.svd(ops, compute_uv=False)[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no over- or underflow warning
        got = cavity.KrausSet(1.0, ops).norms()
    zero = ref == 0.0
    assert zero.sum() == 400 and np.all(got[zero] == 0.0)
    assert np.abs(got[~zero] / ref[~zero] - 1.0).max() <= 1e-15
    # a KrausSet built by hand from real, strided or nested-list operators
    real = np.ascontiguousarray(ops[:400].real)
    for given in (real, real.tolist(), np.stack([real, real], axis=-1)[..., 0]):
        npt.assert_allclose(cavity.KrausSet(1.0, given).norms(),
                            np.linalg.svd(real, compute_uv=False)[:, 0], rtol=1e-15)


def test_kraus_norms_match_an_exact_oracle():
    # sigma^2 = (s + sqrt((p - q)^2 + 4 |x|^2)) / 2 in exact rationals,
    # square roots in 50-digit decimals: LAPACK's own error is near 1e-15
    from decimal import Decimal, localcontext
    from fractions import Fraction

    ops = _spread_stacks(np.random.default_rng(7), n=60)
    got = cavity.KrausSet(1.0, ops).norms()
    with localcontext() as ctx:
        ctx.prec = 50
        for e, g in zip(ops, got):
            a, b, c, d = [(Fraction(v.real), Fraction(v.imag)) for v in e.ravel()]
            sq = lambda z: z[0] ** 2 + z[1] ** 2
            p, q = sq(a) + sq(b), sq(c) + sq(d)
            x = (a[0] * c[0] + a[1] * c[1] + b[0] * d[0] + b[1] * d[1],
                 a[1] * c[0] - a[0] * c[1] + b[1] * d[0] - b[0] * d[1])
            dec = lambda f: Decimal(f.numerator) / Decimal(f.denominator)
            sigma = ((dec(p + q) + dec((p - q) ** 2 + 4 * sq(x)).sqrt()) / 2).sqrt()
            assert g == sigma == 0 or abs(Decimal(g) / sigma - 1) < Decimal("4e-16")


def _random_phase_field(n_max=150):
    # Gaussian magnitudes about n = 40, nonzero up to the cutoff, random phases
    n = np.arange(n_max + 1)
    phases = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=n.size)
    amps = np.exp(-0.5 * ((n - 40.0) / 9.0) ** 2 + 1j * phases)
    return custom_field(amps / np.linalg.norm(amps))


def test_single_time_calls_make_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on a 2x2 problem")

    for name in ("svd", "eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    f = coherent_field(2.0, n_max=40)
    for frame in ("lab", "rotating"):
        cfg = CavityConfig(detuning=0.02, n_max=40, frame=frame)
        kraus = jc_propagate(f, MIXED, cfg, 12.5)[1]
        kraus.norms()
        kraus.completeness_error()
        kraus_support(f, cfg, 12.5)


ORACLE_FIELDS = {
    "coherent": lambda: coherent_field(3.0 * np.exp(0.7j), n_max=120),
    "cat": lambda: cat_field(2.5 * np.exp(-0.3j), n_max=100, parity="odd"),
    "e0": lambda: e0_field(5.0, n_max=200),
    "fock": lambda: fock_field(7, n_max=60),
    "random_phase": _random_phase_field,
}


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_jc_propagate_state_is_the_kraus_sum(name, frame):
    f = ORACLE_FIELDS[name]()
    cfg = CavityConfig(g=0.04, detuning=0.03, n_max=f.n_max, frame=frame)
    rng = np.random.default_rng(17)
    for t in rng.uniform(0.0, 100.0, size=6):
        rho, kraus = jc_propagate(f, MIXED, cfg, t)
        e = kraus.operators
        ref = np.einsum("nij,jk,nlk->il", e, MIXED, e.conj())
        npt.assert_allclose(rho, ref, rtol=0, atol=1e-15)
        s = np.einsum("nij,nik->jk", e.conj(), e)  # sum_n E_n' E_n, summed directly
        assert kraus.completeness_error() == pytest.approx(
            np.abs(np.linalg.eigvalsh(s - np.eye(2))).max(), abs=1e-15)


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_kraus_support_matches_an_svd_support(name, frame):
    f = ORACLE_FIELDS[name]()
    cfg = CavityConfig(g=0.05, detuning=-0.02, n_max=f.n_max, frame=frame)
    for t in (0.0, 13.1, 58.7, 99.0):
        ops = cavity._kraus_ops(f, cfg, t)
        ref = np.flatnonzero(np.linalg.svd(ops, compute_uv=False)[:, 0] > 1e-12)
        npt.assert_array_equal(kraus_support(f, cfg, t), ref)


ZERO_OPERATOR_FIELDS = {
    # E_n is zero where c_{n-1}, c_n and c_{n+1} all are: n = 2 mod 4 for e0
    # (50 of 201), every n but 6, 7 and 8 for Fock 7 (58 of 61)
    "e0": (lambda: e0_field(5.0, n_max=200), 50),
    "fock": (lambda: fock_field(7, n_max=60), 58),
}


@pytest.mark.parametrize("name", sorted(ZERO_OPERATOR_FIELDS))
def test_zero_operators_take_no_rescale_pass(monkeypatch, name):
    make, zeros = ZERO_OPERATOR_FIELDS[name]
    f = make()
    calls = []
    frexp = np.frexp
    monkeypatch.setattr(np, "frexp", lambda *args: calls.append(args) or frexp(*args))
    for frame in ("lab", "rotating"):
        cfg = CavityConfig(g=0.05, detuning=-0.02, n_max=f.n_max, frame=frame)
        for t in (13.1, 58.7, 99.0):
            ops = cavity._kraus_ops(f, cfg, t)
            zero = ~ops.reshape(-1, 4).any(axis=1)
            assert zero.sum() == zeros
            norms = cavity._spectral_norms(ops)
            assert np.all(norms[zero] == 0.0) and np.all(norms[~zero] > 0.0)
    assert calls == []
    # the spy sees the pass that a nonzero operator out of range takes
    assert cavity._spectral_norms(np.full((1, 2, 2), 1e-200))[0] == pytest.approx(2e-200)
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(ZERO_OPERATOR_FIELDS))
def test_lab_kraus_support_is_the_svd_support_of_the_phased_family(name):
    f = ZERO_OPERATOR_FIELDS[name][0]()
    lab = CavityConfig(g=0.05, detuning=-0.02, n_max=f.n_max)
    rot = CavityConfig(g=0.05, detuning=-0.02, n_max=f.n_max, frame="rotating")
    for t in (0.0, 13.1, 58.7, 99.0):
        ops = jc_propagate(f, MIXED, lab, t)[1].operators
        # row i of the lab E_n is the rotating one's times exp(-i omega0 t (n - i + 1/2))
        n = np.arange(f.n_max + 1)[:, None, None]
        phases = np.exp(-1j * lab.omega0 * t * (n - np.arange(2)[:, None] + 0.5))
        npt.assert_allclose(ops, phases * cavity._kraus_ops(f, rot, t), rtol=0, atol=1e-15)
        ref = np.flatnonzero(np.linalg.svd(ops, compute_uv=False)[:, 0] > 1e-12)
        npt.assert_array_equal(kraus_support(f, lab, t), ref)


def test_kraus_set_checks_its_inputs():
    f = coherent_field(1.5, n_max=20)
    ops = jc_propagate(f, MIXED, CavityConfig(n_max=20), 3.0)[1].operators
    given = cavity.KrausSet(3.0, ops)
    # nested lists are read as the array they spell
    listed = cavity.KrausSet(3, ops.tolist())
    assert listed.t == 3.0 and listed.operators.dtype == complex
    assert listed.completeness_error() == given.completeness_error()
    assert photon_number_expectation(listed, MIXED) == photon_number_expectation(given, MIXED)
    npt.assert_array_equal(listed.norms(), given.norms())
    nan, inf = ops.copy(), ops.copy()
    nan[4, 0, 1] = complex(math.nan, 0.0)
    inf[0, 1, 1] = complex(0.0, -math.inf)
    for bad, match in (
        (nan, r"^operators must be finite"),
        (inf, r"^operators must be finite"),
        (np.eye(2), r"^operators must be an \(n, 2, 2\) array with n >= 1, got shape \(2, 2\)"),
        (ops[:0], r"^operators must be an \(n, 2, 2\) array with n >= 1, got shape \(0, 2, 2\)"),
        (ops.reshape(-1, 4), r"^operators must be an \(n, 2, 2\) array"),
        (ops[:, :1], r"^operators must be an \(n, 2, 2\) array"),
        ([[[1, 0], [0]]], r"^operators must be numeric"),
        ("ops", r"^operators must be numeric"),
    ):
        with pytest.raises(ValueError, match=match):
            cavity.KrausSet(1.0, bad)
    for t in (-1.0, -5e-324, math.nan, math.inf, None, "soon", 10**400):
        with pytest.raises(ValueError, match=r"^t must be"):
            cavity.KrausSet(t, ops)


@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_jc_propagate_set_is_the_publicly_built_set(frame):
    # jc_propagate builds its KrausSet without re-checks; the public
    # constructor, given the same values, builds the same set and still
    # refuses each value corrupted in turn
    f = coherent_field(1.5 + 0.5j, n_max=20)
    cfg = CavityConfig(omega0=1.3, g=0.07, detuning=0.03, n_max=20, frame=frame)
    ks = jc_propagate(f, MIXED, cfg, 7.25)[1]
    public = cavity.KrausSet(ks.t, ks.operators)
    assert type(ks.t) is float and ks.t == public.t == 7.25
    assert ks.operators.dtype == public.operators.dtype == complex
    assert ks.operators.shape == public.operators.shape == (21, 2, 2)
    assert ks.operators.tobytes() == public.operators.tobytes()
    assert ks.completeness_error() == public.completeness_error()
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        ops = ks.operators.copy()
        ops[3, 1, 0] = bad
        with pytest.raises(ValueError, match=r"^operators must be finite"):
            cavity.KrausSet(ks.t, ops)
    with pytest.raises(ValueError, match=r"^operators must be an \(n, 2, 2\) array"):
        cavity.KrausSet(ks.t, ks.operators[:, :, :1])
    with pytest.raises(ValueError, match=r"^t must be"):
        cavity.KrausSet(-ks.t, ks.operators)


# ---------------------------------------------------------------- p_err series


def test_perr_series_basic_shape():
    f = coherent_field(1.0, n_max=20)
    cfg = CavityConfig(n_max=20)
    series = perr_series(f, (0, 0, 1), cfg, t_max=20.0, steps=201)
    assert series.times.shape == (201,)
    assert series.times[0] == 0.0 and series.times[-1] == 20.0
    # a matrix-path sweep: 1/2 up to the rounding of the |c_n|^2 sums
    assert _trig(f, cfg, series.times) == "anchored"
    assert 0.5 - 4 * 2.0**-54 <= series.p_err[0] <= 0.5
    assert np.all(series.p_err >= 0.0) and np.all(series.p_err <= 0.5)
    assert series.field_label == "coherent"
    assert series.field_alpha == 1.0
    # a Fock field's first sample is exactly 1/2
    fock = perr_series(fock_field(3, n_max=20), (0, 0, 1), cfg, t_max=20.0, steps=201)
    assert fock.p_err[0] == 0.5
    assert next(iter(fock.samples)) == (0.0, 0.5)


def test_perr_series_vacuum_closed_form():
    cfg = CavityConfig(g=0.05, n_max=2, frame="rotating")
    f = fock_field(0, n_max=2)
    series = perr_series(f, (0, 0, 1), cfg, t_max=100.0, steps=2001)
    expect = 0.5 - 0.5 * np.sin(0.05 * series.times) ** 2
    npt.assert_allclose(series.p_err, expect, atol=1e-8)


def test_first_sample_is_half_up_to_the_rounding_of_the_norm_sums():
    # at t = 0 every sine is 0 and every cosine 1, so rho(0) is rho0 times
    # sums of |c_n|^2: p_err is exactly 1/2 where those sum to exactly 1 (a
    # Fock field), and within a few ulp below it on the matrix path; these
    # two sweeps (seed 1 of the benchmark) sit 2 and 1 ulp below
    fock = fock_field(7, n_max=60)
    cfg = CavityConfig(omega0=1.1, g=0.053, detuning=-0.07, n_max=60, frame="rotating")
    series = perr_series(fock, (0.6, 0.0, -0.8), cfg, t_max=120.0, steps=2500)
    assert _trig(fock, cfg, series.times) == "direct" and series.p_err[0] == 0.5
    ulp = 2.0**-54  # the spacing of floats just below 1/2
    for f, cfg, r in (
        (coherent_field(-0.4308940790952926 + 2.5133283097032524j, n_max=60),
         CavityConfig(omega0=1.0017868144995223, g=0.05163619912134891, n_max=60),
         (0.6506112455593974, -0.37284651354046, 0.5198523576613825)),
        (cat_field(1.6560176874356367 - 1.669331174214424j, n_max=80),
         CavityConfig(omega0=1.0940462264060256, g=0.06126396469493193, n_max=80),
         (0.30879860948881926, 0.24911477505869103, -0.8042887173672011)),
    ):
        series = perr_series(f, r, cfg, t_max=100.0, steps=1500)
        assert _trig(f, cfg, series.times, bloch_to_density(np.array(r))) == "anchored"
        assert 0.5 - 4 * ulp <= series.p_err[0] <= 0.5


def test_series_arrays_are_checked():
    good = synthetic_series([0.0, 1.0, 2.0], [0.5, 0.3, 0.1])
    assert good.times.dtype == good.p_err.dtype == np.float64
    for times, p in (
        ([0.0, 1.0, 2.0], [0.5, np.nan, 0.1]),  # nonunitary_tau gave nan at delta 0.2
        ([0.0, 1.0, 2.0], [0.5, 0.4]),  # 0.5 at delta 0.45
        ([0.0, 2.0, 1.0], [0.5, 0.4, 0.3]),  # 1.4999999999999998 at delta 0.35
        ([0.0, 1.0, np.inf], [0.5, 0.4, 0.3]),
        ([np.nan, 1.0, 2.0], [0.5, 0.4, 0.3]),
        ([[0.0, 1.0]], [[0.5, 0.4]]),
        ([0.0, 1.0], [0.5, 0.6]),
        ([0.0, 1.0], [0.5, -1e-300]),
        ([0.0, 1.0], [0.5, -np.inf]),
    ):
        with pytest.raises(ValueError):
            synthetic_series(times, p)


def test_perr_series_worker_count_is_invisible():
    f = coherent_field(2.0, n_max=40)
    cfg = CavityConfig(n_max=40)
    a = perr_series(f, (0.9, 0, 0), cfg, t_max=50.0, steps=6000, workers=1)
    b = perr_series(f, (0.9, 0, 0), cfg, t_max=50.0, steps=6000, workers=4)
    assert np.array_equal(a.p_err, b.p_err)
    assert np.array_equal(a.times, b.times)


SHARED_CORE_CASES = {  # field, config, the sweep path, Bloch vector
    "fock": (lambda: fock_field(5, n_max=100), CavityConfig(n_max=100), "direct",
             (0.9, 0.0, 0.0)),
    "coherent_dense": (lambda: coherent_field(3.0 + 1.0j, n_max=64),
                       CavityConfig(omega0=1.3, g=0.07, n_max=64), "anchored", (0.3, -0.4, 0.5)),
    "e0_lab_detuned": (lambda: e0_field(3.0, n_max=64),
                       CavityConfig(omega0=1.3, g=0.07, detuning=0.03, n_max=64, frame="lab"),
                       "anchored", (0.0, 0.6, -0.7)),
}


@pytest.mark.parametrize("name", sorted(SHARED_CORE_CASES))
def test_perr_series_is_the_clipped_distance_of_reduced_series(name):
    # perr_series and reduced_series share one sweep; p_err is the clipped
    # Helstrom error of reduced_series on the same linspace, bit for bit
    make, cfg, trig, r = SHARED_CORE_CASES[name]
    f = make()
    r0 = np.array(r)
    for steps in (1000, 2 * _rows(f, cfg) + 300):  # one chunk, then three
        times = np.linspace(0.0, 160.0, steps)
        assert _trig(f, cfg, times) == trig
        rho = reduced_series(f, bloch_to_density(r0), cfg, times)
        dx = 2.0 * rho[:, 0, 1].real - r0[0]
        dy = -2.0 * rho[:, 0, 1].imag - r0[1]
        dz = (rho[:, 0, 0] - rho[:, 1, 1]).real - r0[2]
        expect = np.clip(0.5 - 0.25 * np.sqrt(dx * dx + dy * dy + dz * dz), 0.0, 0.5)
        series = perr_series(f, r, cfg, t_max=160.0, steps=steps)
        assert np.array_equal(series.times, times)
        assert np.array_equal(series.p_err, expect)


@pytest.mark.parametrize("name", ["fock", "coherent_dense"])
def test_perr_series_is_the_publicly_built_series(name):
    # perr_series builds its series without re-checks; the public
    # constructor, given the same values, builds the same series and still
    # refuses each value corrupted in turn
    make, cfg, _, r = SHARED_CORE_CASES[name]
    f = make()
    s = perr_series(f, r, cfg, t_max=160.0, steps=3000)
    public = DistinguishabilitySeries(s.times, s.p_err, s.config, s.qubit_r, s.field_label,
                                      s.field_alpha)
    for a, b in ((s.times, public.times), (s.p_err, public.p_err), (s.qubit_r, public.qubit_r)):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert s.times.shape == (3000,) and s.p_err.flags.c_contiguous
    assert s.config is public.config is cfg
    assert (s.field_label, s.field_alpha) == (public.field_label, public.field_alpha)
    assert (s.field_label, s.field_alpha) == (f.label, f.alpha)
    assert list(s.samples) == list(public.samples)
    for times, p in (
        (np.where(np.arange(3000) == 17, np.nan, s.times), s.p_err),
        (s.times[::-1], s.p_err),
        (s.times, np.where(np.arange(3000) == 17, np.nextafter(0.5, 1.0), s.p_err)),
        (s.times, np.where(np.arange(3000) == 17, -5e-324, s.p_err)),
        (s.times, np.where(np.arange(3000) == 17, np.nan, s.p_err)),
        (s.times[:-1], s.p_err),
    ):
        with pytest.raises(ValueError):
            DistinguishabilitySeries(times, p, s.config, s.qubit_r, s.field_label,
                                     s.field_alpha)


@pytest.mark.parametrize("make, trig, bound", [
    (lambda: coherent_field(3.0, n_max=100), "anchored", 2.22e6),
    (lambda: fock_field(5, n_max=40), "direct", 1.67e6),
])
def test_perr_series_holds_no_full_grid_temporaries(make, trig, bound):
    # 20000 steps: the series' times and p_err take 0.32 MB; the rest of the
    # traced peak is per-chunk and per-call work, as the sweep hands out its
    # rows chunk by chunk. The bounds are 1.25 times the peaks measured when
    # the sweep still held full-grid rows (1.77 and 1.33 MB). From 20000 to
    # 200000 steps nothing but the results grows with the grid: perr_series'
    # times and p_err, 16 B a row, bounded at 20, and reduced_series' (n, 2, 2)
    # states (its times made outside), 64 B a row, bounded at 80.
    f = make()
    cfg = CavityConfig(n_max=f.n_max)
    assert _trig(f, cfg, np.linspace(0.0, 160.0, 20000)) == trig

    def perr(steps):
        return lambda: perr_series(f, (0.3, -0.4, 0.5), cfg, t_max=160.0, steps=steps)

    def reduced(steps):
        times = np.linspace(0.0, 160.0, steps)
        return lambda: reduced_series(f, MIXED, cfg, times)

    assert _traced_peak(perr(20000)) <= bound
    for sweep, per_row in ((perr, 20), (reduced, 80)):
        growth = _traced_peak(sweep(200000)) - _traced_peak(sweep(20000))
        assert growth <= per_row * 180000


def _traced_peak(call):
    # the traced peak of a second call, the first having warmed any caches
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_perr_series_validation():
    f = fock_field(0, n_max=2)
    cfg = CavityConfig(n_max=2)
    with pytest.raises(ValueError):
        perr_series(f, (0, 0, 1), cfg, t_max=0.0)
    with pytest.raises(ValueError):
        perr_series(f, (0, 0, 1), cfg, steps=1)
    with pytest.raises(NormViolation):
        perr_series(f, (0, 0, 2), cfg)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="t_max"):
            perr_series(f, (0, 0, 1), cfg, t_max=bad)


def test_perr_series_default_horizon_scales_with_frequency():
    f = fock_field(0, n_max=2)
    series = perr_series(f, (0, 0, 1), CavityConfig(omega0=4.0, n_max=2), steps=11)
    assert series.times[-1] == pytest.approx(25.0)


# ---------------------------------------------------------------- crossing


def synthetic_series(times, p):
    return DistinguishabilitySeries(
        times=np.asarray(times, float),
        p_err=np.asarray(p, float),
        config=CavityConfig(n_max=2),
        qubit_r=np.array([0.0, 0.0, 1.0]),
        field_label="custom",
        field_alpha=None,
    )


def test_nonunitary_tau_interpolates_linearly():
    s = synthetic_series([0.0, 1.0, 2.0], [0.5, 0.3, 0.1])
    assert nonunitary_tau(s, 0.4) == pytest.approx(0.5, abs=1e-15)
    assert nonunitary_tau(s, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert nonunitary_tau(s, 0.25) == pytest.approx(1.25, abs=1e-15)
    assert nonunitary_tau(s, 0.5) == 0.0
    # p1 = 0.3 lies in (delta, delta + atol]: the clipped fraction gives t1
    assert nonunitary_tau(s, 0.29, atol=0.02) == 1.0


def test_nonunitary_tau_absence_and_validation():
    s = synthetic_series([0.0, 1.0, 2.0], [0.5, 0.4, 0.45])
    assert nonunitary_tau(s, 0.1) is None
    with pytest.raises(ValueError):
        nonunitary_tau(s, 0.6)
    with pytest.raises(ValueError):
        nonunitary_tau(s, -0.1)


def test_nonunitary_tau_vacuum_flip_time():
    # delta = 0 needs the full pi/2 pulse; the tangential minimum is caught
    # by the widened test on a fine grid
    cfg = CavityConfig(g=0.05, n_max=2, frame="rotating")
    f = fock_field(0, n_max=2)
    series = perr_series(f, (0, 0, 1), cfg, t_max=100.0, steps=100_001)
    tau = nonunitary_tau(series, 0.0)
    assert tau is not None
    assert tau == pytest.approx(np.pi / (2 * 0.05), abs=2e-3)


def test_detuning_and_phase_overflow_are_refused_naming_the_input():
    with pytest.raises(ValueError, match="detuning must be finite and lie in"):
        CavityConfig(detuning=1e101)
    CavityConfig(detuning=-1e100)  # the bound itself is accepted
    fld = fock_field(1, 8)
    lab = CavityConfig(omega0=100.0, n_max=8)
    with pytest.raises(ValueError,
                       match=r"^t_max = 1e\+308 overflows the largest phase, t_max \* 100$"):
        perr_series(fld, (0.0, 0.0, 1.0), lab, t_max=1e308, steps=5)
    with pytest.raises(ValueError, match=r"^max\(times\) = 1e\+308 overflows"):
        reduced_series(fld, np.diag([1.0, 0.0]), lab, [0.0, 1e308])
    # the rotating frame drops omega0 t, so only the block rates count there
    rot = CavityConfig(omega0=100.0, n_max=8, frame="rotating")
    series = perr_series(fld, (0.0, 0.0, 1.0), rot, t_max=1e300, steps=5)
    assert np.all(np.isfinite(series.p_err))


def test_single_time_phase_overflow_is_refused_naming_t():
    # in the lab frame the row phases of E_n turn at omega0 (m + 1/2), m <= n_max,
    # up to (n_max + 1/2) omega0 = 850 here, faster than any phase of a sweep
    fld = fock_field(1, 8)
    lab = CavityConfig(omega0=100.0, n_max=8)
    rot = CavityConfig(omega0=100.0, n_max=8, frame="rotating")
    calls = (
        lambda cfg, t: jc_propagate(fld, EXCITED, cfg, t)[0],
        lambda cfg, t: kraus_support(fld, cfg, t),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        for call in calls:
            for t in (1e306, np.float64(1e306)):
                with pytest.raises(ValueError,
                                   match=r"^t = 1e\+306 overflows the largest phase, t \* 850$"):
                    call(lab, t)
            assert np.all(np.isfinite(call(lab, 1e305)))
            # the rotating frame drops the free phases, so only block rates count
            assert np.all(np.isfinite(call(rot, 1e306)))
        _, kraus = jc_propagate(fld, EXCITED, lab, 1e305)
        assert kraus.completeness_error() < 1e-12
        # a negative detuning slows |e,n_max> below the row phase of |n_max + 1/2>
        # (omega0 = 1, detuning = -1: rates 1 and 1.5), which bounds the time
        slow, vacuum = CavityConfig(omega0=1.0, detuning=-1.0, n_max=1), fock_field(0, 1)
        for call in (lambda: jc_propagate(vacuum, EXCITED, slow, 1.5e308),
                     lambda: kraus_support(vacuum, slow, 1.5e308)):
            with pytest.raises(ValueError,
                               match=r"^t = 1\.5e\+308 overflows the largest phase, t \* 1\.5$"):
                call()
