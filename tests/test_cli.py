import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import blochdyn
from blochdyn import (CavityConfig, HamiltonianSpec, __version__, make_field, nonunitary_tau,
                      perr_series)
from blochdyn import cli, speedlimits
from blochdyn.cli import main
from oracles import csv_text, whole_lattice_ring, windowed_amplitude


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def module_env():
    return dict(os.environ, PYTHONPATH=str(Path(blochdyn.__file__).parents[1]))


def load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


# -------------------------------------------------------------------- qsl


def test_qsl_pure_equator_reachable(capsys):
    code, out, _ = run_cli(capsys, ["qsl", "--axis", "0,0,1", "--bloch", "1,0,0",
                                    "--delta", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["reachable"] is True
    assert rep["tau_exact_omega0"] == pytest.approx(np.pi / 2, abs=1e-12)
    assert rep["fisher"] == pytest.approx(4.0, abs=1e-12)
    assert rep["perp_norm"] == pytest.approx(1.0, abs=1e-12)
    assert rep["min_perr"] == pytest.approx(0.0, abs=1e-12)
    assert rep["ml_symmetrized"] is False
    assert "tau_exact_raw" not in rep  # omega0 == 1, no raw twins


def test_qsl_commuting_state_exits_2(capsys):
    code, out, _ = run_cli(capsys, ["qsl", "--axis", "0,0,1", "--bloch", "0,0,0.5",
                                    "--delta", "0.1"])
    assert code == 2
    rep = json.loads(out)
    assert rep["reachable"] is False
    assert rep["tau_exact_omega0"] is None
    assert rep["tau_mt_omega0"] is None  # divergent bound serialized as null
    assert rep["min_perr"] == pytest.approx(0.5)


def test_qsl_delta_domain_error(capsys):
    code, _, err = run_cli(capsys, ["qsl", "--axis", "0,0,1", "--bloch", "1,0,0",
                                    "--delta", "0.7"])
    assert code == 1
    assert err.startswith("blochdyn: error:")
    assert err.count("\n") == 1


def test_qsl_malformed_vector_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qsl", "--axis", "0,0", "--bloch", "1,0,0", "--delta", "0"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("blochdyn qsl: error: argument --axis") and err.count("\n") == 1


def test_qsl_nan_bloch_vector_is_an_input_error(capsys):
    code, out, err = run_cli(capsys, ["qsl", "--axis", "0,0,1", "--bloch", "nan,0,0",
                                      "--delta", "0.1"])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "finite" in err


def test_qsl_raw_twins_and_scaling(capsys):
    code, out, _ = run_cli(capsys, ["qsl", "--axis", "0,0,1", "--bloch", "1,0,0",
                                    "--delta", "0.1", "--omega0", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["tau_exact_omega0"] == pytest.approx(np.arcsin(0.8), abs=1e-12)
    assert rep["tau_exact_raw"] == pytest.approx(np.arcsin(0.8) / 2, abs=1e-12)
    assert rep["omega0"] == 2.0


def test_qsl_orbit_csv(tmp_path, capsys):
    dest = tmp_path / "orbit.csv"
    code, _, _ = run_cli(capsys, ["qsl", "--axis", "0,0,1", "--bloch", "1,0,0",
                                  "--delta", "0.2", "--csv", str(dest)])
    assert code == 0
    raw = dest.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t_omega0,p_err"
    assert lines[1] == "0,0.5"
    assert len(lines) == 1002
    data = load_csv(dest)
    # half-turn orbit: minimum delta at the quarter turn, symmetric ends
    npt.assert_allclose(data[:, 1], 0.5 - 0.5 * np.abs(np.sin(data[:, 0])),
                        atol=1e-12)


def test_qsl_unwritable_csv_path_fails_before_the_report(capsys):
    code, out, err = run_cli(capsys, ["qsl", "--axis", "0,0,1", "--bloch", "1,0,0",
                                      "--delta", "0.1", "--csv", "/nonexistent/x.csv"])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("blochdyn: error:")
    assert "/nonexistent/x.csv" in err


# ------------------------------------------------------------------ brach


def test_brach_quarter_turn(capsys):
    code, out, _ = run_cli(capsys, ["brach", "--r1", "1,0,0", "--r2", "0,1,0"])
    assert code == 0
    rep = json.loads(out)
    npt.assert_allclose(rep["axis"], [0, 0, 1], atol=1e-15)
    assert rep["T_omega0"] == pytest.approx(np.pi / 4, abs=1e-12)
    assert rep["phi12"] == pytest.approx(np.pi / 2, abs=1e-12)
    assert rep["fisher_on_path"] == pytest.approx(4.0, abs=1e-12)


def test_brach_coincident(capsys):
    code, out, _ = run_cli(capsys, ["brach", "--r1", "0.3,0.1,0", "--r2", "0.3,0.1,0"])
    assert code == 0
    assert json.loads(out)["T_omega0"] == 0.0


def test_brach_radius_mismatch_diagnostic(capsys):
    code, _, err = run_cli(capsys, ["brach", "--r1", "1,0,0", "--r2", "0,0.5,0"])
    assert code == 1
    assert "|r1| = 1" in err and "|r2| = 0.5" in err


# ----------------------------------------------------------------- cavity


def test_cavity_default_sweep(tmp_path, capsys):
    dest = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, ["cavity", "--out", str(dest)])
    assert code == 0
    assert err == ""
    raw = dest.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t_omega0,p_err"
    assert lines[1] == "0,0.5"
    assert len(lines) == 10_001  # header + default steps
    summary = json.loads(out)
    assert 0.0 <= summary["min_p_err"] < 0.5
    assert summary["tau_omega0"] == {}
    params = summary["scenario"]["params"]
    assert params["field"] == {"label": "coherent", "alpha_re": 3.0, "alpha_im": 0.0}
    assert params["qubit"] == {"rx": 0.0, "ry": 0.0, "rz": 1.0}
    assert params["steps"] == 10_000 and params["n_max"] == 100
    assert params["g"] == 0.05 and params["t_max"] == 100.0
    assert_echo_replays(tmp_path, capsys, dest, summary)


def assert_echo_replays(tmp_path, capsys, csv_path, summary):
    """The echoed params, as a --scenario file, give the same CSV bytes and echo."""
    assert summary["scenario"]["command"] == "cavity"
    scenario = tmp_path / "echo.json"
    scenario.write_text(json.dumps(summary["scenario"]["params"]))
    again = tmp_path / "again.csv"
    code, out, err = run_cli(capsys, ["cavity", "--scenario", str(scenario),
                                      "--out", str(again)])
    assert (code, err) == (0, "")
    assert again.read_bytes() == csv_path.read_bytes()
    assert json.loads(out) == {**summary, "scenario": {**summary["scenario"],
                                                       "output": str(again)}}


@pytest.mark.parametrize("argv", [
    ["--field", "cat_even", "--alpha", "1.5,0.5", "--omega0", "1.5", "--detuning", "0.2",
     "--qubit", "0.6,0,0.8", "--frame", "rotating", "--n-max", "30", "--steps", "500"],
    ["--field", "fock", "--alpha", "3", "--omega0", "0.7", "--g", "0.1", "--n-max", "8",
     "--t-max", "40", "--steps", "300"],
], ids=["cat_detuned", "fock"])
def test_cavity_echoed_params_replay_the_run(tmp_path, capsys, argv):
    dest = tmp_path / "first.csv"
    code, out, err = run_cli(capsys, ["cavity", *argv, "--out", str(dest)])
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert summary["scenario"]["params"]["omega0"] != 1.0 and "argmin_t_raw" in summary
    assert_echo_replays(tmp_path, capsys, dest, summary)


def test_cavity_raw_crossing_times_are_nonunitary_taus_own(capsys):
    # at omega0 = 1.3 the round trip (t * omega0) / omega0 moves some of
    # these crossings by one ulp; tau_raw is the time nonunitary_tau returns
    # and tau_omega0 that time times omega0
    levels = [round(0.05 + 0.01 * k, 2) for k in range(41)]
    code, out, err = run_cli(capsys, [
        "cavity", "--field", "coherent", "--alpha", "2", "--omega0", "1.3", "--n-max", "40",
        "--qubit", "0.6,0,0.8", "--steps", "2000", "--out", os.devnull,
        *[arg for d in levels for arg in ("--delta", repr(d))]])
    assert (code, err) == (0, "")
    summary = json.loads(out)
    cfg = CavityConfig(omega0=1.3, n_max=40)
    series = perr_series(make_field("coherent", 2.0, 40), (0.6, 0.0, 0.8), cfg, steps=2000)
    crossed = 0
    for d in levels:
        t = nonunitary_tau(series, d)
        key = "%g" % d
        assert summary["tau_raw"][key] == t
        assert summary["tau_omega0"][key] == (None if t is None else t * 1.3)
        crossed += t is not None
    assert crossed == len(levels)


def test_cavity_vacuum_series_matches_closed_form(capsys):
    code, out, err = run_cli(capsys, [
        "cavity", "--field", "fock", "--alpha", "0", "--qubit", "0,0,1",
        "--frame", "rotating", "--n-max", "2", "--t-max", "100",
        "--steps", "2001", "--out", "-",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t_omega0,p_err"
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    npt.assert_allclose(data[:, 1], 0.5 - 0.5 * np.sin(0.05 * data[:, 0]) ** 2,
                        atol=1e-8)
    # with the series on stdout the summary moves to stderr
    json.loads(err)


def test_cavity_crossing_time_lookup(tmp_path, capsys):
    dest = tmp_path / "v.csv"
    code, out, _ = run_cli(capsys, [
        "cavity", "--field", "fock", "--alpha", "0", "--frame", "rotating",
        "--n-max", "2", "--t-max", "100", "--steps", "2001",
        "--delta", "0.25", "--delta", "0.1", "--out", str(dest),
    ])
    assert code == 0
    taus = json.loads(out)["tau_omega0"]
    # 1/2 - sin^2(gt)/2 = delta at gt = arcsin(sqrt(1 - 2 delta))
    assert taus["0.25"] == pytest.approx(np.arcsin(np.sqrt(0.5)) / 0.05, abs=1e-3)
    assert taus["0.1"] == pytest.approx(np.arcsin(np.sqrt(0.8)) / 0.05, abs=1e-3)


def test_cavity_scenario_file_with_flag_override(tmp_path, capsys):
    scn = {
        "omega0": 1.0,
        "frame": "rotating",
        "n_max": 2,
        "t_max": 50.0,
        "steps": 501,
        "field": {"label": "fock", "alpha_re": 0.0, "alpha_im": 0.0},
        "qubit": {"rx": 0.0, "ry": 0.0, "rz": 1.0},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    dest = tmp_path / "series.csv"
    code, out, _ = run_cli(capsys, ["cavity", "--scenario", str(path),
                                    "--steps", "301", "--out", str(dest)])
    assert code == 0
    assert len(dest.read_text().splitlines()) == 302
    echoed = json.loads(out)["scenario"]["params"]
    assert echoed["steps"] == 301  # the flag wins over the file
    assert echoed["t_max"] == 50.0
    assert echoed["field"]["label"] == "fock"


def test_cavity_scenario_drops_unknown_field_and_qubit_keys(tmp_path, capsys):
    scn = {"n_max": 8, "steps": 16, "extra": float("nan"),
           "field": {"label": "fock", "alpha_re": 1, "extra": float("nan")},
           "qubit": {"rx": 0.0, "ry": 0.0, "rz": 1.0, "extra": None}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    code, out, _ = run_cli(capsys, ["cavity", "--scenario", str(path),
                                    "--out", str(tmp_path / "series.csv")])
    assert code == 0
    params = json.loads(out)["scenario"]["params"]
    assert "extra" not in params
    assert set(params["field"]) == {"label", "alpha_re", "alpha_im"}
    assert set(params["qubit"]) == {"rx", "ry", "rz"}


@pytest.mark.parametrize("scenario, flags, field, qubit", [
    ({"field": {"label": "cat_even", "alpha_re": 1.0, "alpha_im": 0.5}}, ["--alpha", "2"],
     {"label": "cat_even", "alpha_re": 2.0, "alpha_im": 0.0}, {"rx": 0.0, "ry": 0.0, "rz": 1.0}),
    ({"field": {"label": "coherent", "alpha_re": 2}}, ["--field", "fock"],
     {"label": "fock", "alpha_re": 2, "alpha_im": 0.0}, {"rx": 0.0, "ry": 0.0, "rz": 1.0}),
    ({"qubit": {"rz": -1}}, [],
     {"label": "coherent", "alpha_re": 3.0, "alpha_im": 0.0}, {"rx": 0.0, "ry": 0.0, "rz": -1}),
    ({"qubit": {"rx": 0.0, "ry": 0.6, "rz": 0.8}}, ["--qubit", "0.6,0,-0.8"],
     {"label": "coherent", "alpha_re": 3.0, "alpha_im": 0.0}, {"rx": 0.6, "ry": 0.0, "rz": -0.8}),
], ids=["alpha_keeps_label", "field_keeps_alpha", "partial_qubit", "qubit_flag_wins"])
def test_cavity_flags_override_field_and_qubit_key_by_key(tmp_path, capsys, scenario, flags,
                                                           field, qubit):
    # per key of field and qubit: the flag, else the file's value, else the default
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n_max": 40, "steps": 200, **scenario}))
    dest = tmp_path / "series.csv"
    code, out, err = run_cli(capsys, ["cavity", "--scenario", str(path), *flags,
                                      "--out", str(dest)])
    assert (code, err) == (0, "")
    summary = json.loads(out)
    params = summary["scenario"]["params"]
    assert (params["field"], params["qubit"]) == (field, qubit)
    for echoed, want in ((params["field"], field), (params["qubit"], qubit)):  # ints stay ints
        assert {k: type(v) for k, v in echoed.items()} == {k: type(v) for k, v in want.items()}
    assert_echo_replays(tmp_path, capsys, dest, summary)


def test_cavity_field_choices_are_make_field_labels():
    from blochdyn import cavity

    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    (field,) = [a for a in sub.choices["cavity"]._actions if a.dest == "field"]
    assert field.choices == list(cavity._FIELD_BUILDERS)
    assert field.choices == ["coherent", "cat_even", "cat_odd", "e0", "fock"]
    for label in field.choices:
        assert make_field(label, 1, 20).label == label


def test_cavity_bad_level_exits_1_before_any_output(capsys):
    code, out, err = run_cli(capsys, ["cavity", "--field", "fock", "--alpha", "1", "--n-max", "8",
                                      "--steps", "64", "--delta", "0.1", "--delta", "nan"])
    assert code == 1
    assert out == ""  # the CSV would go to stdout
    assert err.startswith("blochdyn: error: delta") and err.count("\n") == 1


def test_cavity_levels_that_print_alike_exit_1_naming_both(capsys):
    # "%g" keys both as "0.123457": one would silently overwrite the other
    code, out, err = run_cli(capsys, ["cavity", "--field", "fock", "--alpha", "1", "--n-max", "8",
                                      "--steps", "64", "--delta", "0.25",
                                      "--delta", "0.1234567", "--delta", "0.1234568"])
    assert code == 1
    assert out == ""  # the CSV would go to stdout
    assert err == ("blochdyn: error: --delta 0.1234567 and 0.1234568 share the summary key "
                   "'0.123457'\n")


def test_cavity_repeated_level_keeps_one_entry(tmp_path, capsys):
    argv = ["cavity", "--field", "fock", "--alpha", "1", "--n-max", "8", "--steps", "64",
            "--out", str(tmp_path / "v.csv"), "--delta", "0.1"]
    code, once, _ = run_cli(capsys, argv)
    assert code == 0
    code, twice, _ = run_cli(capsys, argv + ["--delta", "0.1"])
    assert code == 0
    assert twice == once and list(json.loads(once)["tau_omega0"]) == ["0.1"]


def test_cavity_truncation_error_reports_tail(capsys):
    code, _, err = run_cli(capsys, ["cavity", "--alpha", "3", "--n-max", "10"])
    assert code == 1
    assert "tail mass" in err


def test_cavity_bad_scenario_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, ["cavity", "--scenario", str(path)])
    assert code == 1
    assert "JSON object" in err
    code, _, err = run_cli(capsys, ["cavity", "--scenario", str(tmp_path / "nope")])
    assert code == 1
    # a JSONDecodeError is a ValueError, so it takes the same one-line exit
    path.write_text('{"n_max": 40,')
    code, out, err = run_cli(capsys, ["cavity", "--scenario", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("blochdyn: error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", [
    ["--detuning", "nan"],
    ["--t-max", "inf"],
    ["--t-max", "nan"],
    ["--omega0", "inf"],
    ["--g", "nan"],
])
def test_cavity_non_finite_flags_exit_1(tmp_path, capsys, flag):
    dest = tmp_path / "series.csv"
    code, out, err = run_cli(capsys, ["cavity", "--field", "fock", "--alpha", "1",
                                      "--n-max", "8", "--steps", "64", *flag,
                                      "--out", str(dest)])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "finite" in err
    assert not dest.exists()


@pytest.mark.parametrize("patch, message", [
    ({"field": {"label": "coherent", "alpha_re": None, "alpha_im": 0.0}},
     "field.alpha_re must be a number, got null"),
    ({"field": {"label": "coherent", "alpha_re": 1.0, "alpha_im": "0"}},
     'field.alpha_im must be a number, got "0"'),
    ({"qubit": {"rx": 0.0, "ry": None, "rz": 1.0}}, "qubit.ry must be a number, got null"),
    ({"n_max": None}, "n_max must be a number, got null"),
    ({"steps": 64.5}, "steps must be an integer, got 64.5"),
    ({"omega0": True}, "omega0 must be a number, got true"),
    ({"detuning": float("nan")}, "detuning must be finite"),
    ({"field": {"label": "coherent", "alpha_re": float("inf"), "alpha_im": 0.0}},
     "field.alpha_re must be finite"),
    ({"qubit": {"rx": float("nan"), "ry": 0.0, "rz": 0.0}}, "qubit.rx must be finite"),
    ({"qubit": [0.0, 0.0, 1.0]}, "scenario qubit must be a JSON object"),
    ({"n_max": 10**400}, "n_max must be finite, got 401 digits"),  # no float holds it
    ({"omega0": 1e101}, "omega0 must be finite and lie in [1e-100, 1e+100]"),
])
def test_cavity_scenario_values_are_checked(tmp_path, capsys, patch, message):
    scn = {"n_max": 30, "steps": 64,
           "field": {"label": "coherent", "alpha_re": 1.0, "alpha_im": 0.0}}
    scn.update(patch)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    dest = tmp_path / "series.csv"
    code, out, err = run_cli(capsys, ["cavity", "--scenario", str(path), "--out", str(dest)])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert message in err
    assert not dest.exists()


@pytest.mark.parametrize("flags, name", [
    (["--detuning", "1e308"], "detuning"),
    (["--t-max", "1e308", "--omega0", "100"], "t_max"),
    (["--omega0", "1e99", "--t-max", "1e300"], "t_max"),
], ids=["detuning", "t-max-times-omega0", "omega0-times-t-max"])
def test_cavity_overflowing_phase_is_an_input_error(tmp_path, capsys, flags, name):
    # finite inputs whose phases overflow used to fail the physicality check with NaN
    dest = tmp_path / "series.csv"
    code, out, err = run_cli(capsys, ["cavity", "--field", "fock", "--alpha", "1",
                                      "--n-max", "8", "--steps", "5", *flags,
                                      "--out", str(dest)])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"blochdyn: error: {name} ")
    assert "nan" not in err and "physicality" not in err
    assert not dest.exists()


def test_cavity_cutoff_above_the_ceiling_exits_1(tmp_path, capsys):
    dest = tmp_path / "series.csv"
    code, out, err = run_cli(capsys, ["cavity", "--n-max", "100000000000", "--out", str(dest)])
    assert code == 1
    assert out == ""
    assert err.startswith("blochdyn: error: n_max") and err.count("\n") == 1
    assert not dest.exists()


def test_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "make_field", exhausted)
    dest = tmp_path / "series.csv"
    code, out, err = run_cli(capsys, ["cavity", "--out", str(dest)])
    assert (code, out, err) == (1, "", "blochdyn: error: MemoryError\n")
    assert not dest.exists()


def test_cavity_number_filtered_field_revives_earlier_and_larger(tmp_path, capsys):
    # support on every fourth photon number rephases four times sooner, so
    # within 0.3 of the coherent revival time the filtered field has already
    # recovered most of its initial swing while the coherent one stays flat
    g, nbar = 0.05, 9.0
    t_rev = 2 * np.pi * 3.0 / g
    window = np.pi / (g * np.sqrt(nbar + 1.0))
    curves = {}
    for label in ("coherent", "e0"):
        dest = tmp_path / f"{label}.csv"
        code, _, _ = run_cli(capsys, [
            "cavity", "--field", label, "--alpha", "3", "--t-max", "115",
            "--steps", "3001", "--out", str(dest),
        ])
        assert code == 0
        data = load_csv(dest)
        curves[label] = windowed_amplitude(data[:, 0], data[:, 1], window)
    rel = {}
    first = {}
    for label, (centers, amp) in curves.items():
        a0 = amp[centers <= 45.0].max()
        sel = (centers >= 0.2 * t_rev) & (centers <= 0.3 * t_rev)
        rel[label] = amp[sel].max() / a0
        late = np.flatnonzero((centers > 50.0) & (amp >= 0.5 * a0))
        first[label] = centers[late[0]] if late.size else None
    assert rel["e0"] > 0.5
    assert rel["coherent"] < 0.15
    assert first["e0"] is not None and first["e0"] < 0.3 * t_rev
    assert first["coherent"] is None


# ------------------------------------------------------------------- scan


def test_scan_equator_limit(tmp_path, capsys):
    dest = tmp_path / "ring.csv"
    code, _, _ = run_cli(capsys, ["scan", "--theta-psi", str(np.pi / 2),
                                  "--grid", "9", "--out", str(dest)])
    assert code == 0
    data = np.atleast_2d(load_csv(dest))
    assert data.shape[0] == 4  # only the on-lattice unit equator points
    npt.assert_allclose(data[:, 2], 0.0, atol=1e-15)
    npt.assert_allclose(np.hypot(data[:, 0], data[:, 1]), 1.0, atol=1e-12)
    npt.assert_allclose(data[:, 3], np.pi / 2, atol=1e-9)
    npt.assert_allclose(data[:, 4], 4.0, atol=1e-12)


def test_scan_ring_formula_recheck(tmp_path, capsys):
    dest = tmp_path / "ring.csv"
    code, _, _ = run_cli(capsys, ["scan", "--theta-psi", str(np.pi / 4),
                                  "--grid", "50", "--out", str(dest)])
    assert code == 0
    data = load_csv(dest)
    assert data.shape[0] > 100
    s = np.hypot(data[:, 0], data[:, 1])
    npt.assert_allclose(data[:, 3], np.arcsin(np.minimum(np.sin(np.pi / 4) / s, 1.0)),
                        atol=1e-9)
    assert np.all(data[:, 3] <= np.pi / 2 + 1e-9)
    npt.assert_allclose(data[:, 4], 4.0 * s * s, atol=1e-9)


def test_scan_zero_angle_excludes_only_the_axis(tmp_path, capsys):
    dest = tmp_path / "ring.csv"
    code, _, _ = run_cli(capsys, ["scan", "--theta-psi", "0", "--grid", "5",
                                  "--out", str(dest)])
    assert code == 0
    data = load_csv(dest)
    pts = whole_lattice_ring(np.array([0.0, 0.0, 1.0]), 1.0, 0.0, 5)[0]
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) > 1e-12)
    npt.assert_array_equal(data[:, :3], pts)


@pytest.mark.parametrize("theta, grid, name", [
    ("2.0", "5", "theta_psi"),
    ("0.5", "1", "grid"),
    ("0.5", "1000000000", "grid"),  # above the ceiling; the ticks alone would take 8 GB
], ids=["theta-psi", "grid-1", "grid-above-ceiling"])
def test_scan_angle_domain(tmp_path, capsys, theta, grid, name):
    dest = tmp_path / "ring.csv"
    code, out, err = run_cli(capsys, ["scan", "--theta-psi", theta, "--grid", grid,
                                      "--out", str(dest)])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("blochdyn: error:") and name in err
    assert not dest.exists()


# ------------------------------------------------------------ CSV writer


@pytest.mark.parametrize("theta, grid, block, slab", [
    (np.pi / 2, 4, None, None),
    (0.5, 12, lambda n: n, None),
    (0.5, 12, lambda n: n - 1, None),
    (0.5, 12, lambda n: n // 4, None),
    (0.3, 7, None, None),
    (0.0, 36, None, None),
    (0.3, 13, lambda n: n // 5, 3 * 13 * 13 + 5),  # 5 slabs, the last one partial
], ids=["no-rows", "one-block", "one-block-plus-a-row", "several-blocks",
        "odd-grid", "several-full-blocks", "several-slabs"])
def test_scan_csv_matches_per_row_oracle(tmp_path, capsys, monkeypatch, theta, grid, block,
                                         slab):
    ham = HamiltonianSpec.from_axis((0.3, -0.5, 0.8), omega0=1.7)
    pts, tau, fisher, _ = whole_lattice_ring(ham.axis, ham.omega0, theta, grid)
    n = len(pts)
    if block is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block(n))
    if slab is not None:
        monkeypatch.setattr(speedlimits, "_SLAB_POINTS", slab)
    if grid % 2:
        assert np.any(pts == 0.0)  # the middle tick
    want = csv_text("rx,ry,rz,tau_exact,fisher",
                    ((*p, t * ham.omega0, f) for p, t, f in zip(pts, tau, fisher)))
    assert want.count("\n") - 1 == n
    if theta == 0.0:
        assert n > 2 * cli._BLOCK_ROWS

    argv = ["scan", "--theta-psi", repr(theta), "--grid", str(grid),
            "--axis", "0.3,-0.5,0.8", "--omega0", "1.7"]
    dest = tmp_path / "ring.csv"
    assert run_cli(capsys, argv + ["--out", str(dest)]) == (0, "", "")
    assert dest.read_bytes() == want.encode()
    assert run_cli(capsys, argv + ["--out", "-"]) == (0, want, "")


def test_cavity_csv_longer_than_one_block_matches_per_row_oracle(tmp_path, capsys):
    steps = cli._BLOCK_ROWS + 1000
    dest = tmp_path / "series.csv"
    code, _, _ = run_cli(capsys, ["cavity", "--field", "fock", "--alpha", "1", "--n-max", "4",
                                  "--qubit", "0.6,0,0.8", "--omega0", "1.3",
                                  "--t-max", "30", "--steps", str(steps), "--out", str(dest)])
    assert code == 0
    cfg = CavityConfig(omega0=1.3, n_max=4)
    series = perr_series(make_field("fock", 1, 4), (0.6, 0.0, 0.8), cfg,
                         t_max=30.0, steps=steps)
    assert series.times.size > cli._BLOCK_ROWS
    want = csv_text("t_omega0,p_err", zip(series.times * cfg.omega0, series.p_err))
    assert dest.read_bytes() == want.encode()


# Runs argv in a grandchild and prints its exit code and peak RSS in kB. On
# Linux a child's ru_maxrss also counts the peak of the process it was
# spawned from, so a bare interpreter spawns it in place of the test process.
PEAK_RSS = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_scan_memory_does_not_grow_with_the_lattice(tmp_path):
    # 4.1 million lattice points; held whole they took about 300 MB
    dest = tmp_path / "ring.csv"
    r = subprocess.run([sys.executable, "-c", PEAK_RSS, "-m", "blochdyn.cli", "scan",
                        "--theta-psi", "1.5", "--grid", "160", "--out", str(dest)],
                       capture_output=True, env=module_env(), cwd=tmp_path, timeout=60)
    assert r.returncode == 0 and r.stderr == b""
    code, peak_kb = map(int, r.stdout.split())
    assert code == 0
    assert dest.read_bytes().startswith(b"rx,ry,rz,tau_exact,fisher\n")
    assert peak_kb < 100 * 1024


def stdout_env(unbuffered=False):
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as from a shell
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_with_one_line(tmp_path, unbuffered):
    # about 3 MB of CSV, far more than a pipe buffer holds
    err = tmp_path / "stderr"
    with open(err, "wb") as sink:
        proc = subprocess.Popen([sys.executable, "-m", "blochdyn.cli", "scan",
                                 "--theta-psi", "0", "--grid", "40"],
                                stdout=subprocess.PIPE, stderr=sink,
                                env=stdout_env(unbuffered), cwd=tmp_path)
        try:
            assert proc.stdout.readline() == b"rx,ry,rz,tau_exact,fisher\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
    assert err.read_bytes() == b"blochdyn: error: [Errno 32] Broken pipe\n"


def test_output_to_a_pipe_without_reader_exits_1_with_one_line(tmp_path):
    # the report stays in stdout's buffer until the flush fails, so the
    # flush at interpreter exit would fail again unless stdout is redirected
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "blochdyn.cli", "brach",
                            "--r1", "0.6,0,0", "--r2", "0,0.6,0"],
                           stdout=write_end, stderr=subprocess.PIPE,
                           env=stdout_env(), cwd=tmp_path, timeout=60)
    finally:
        os.close(write_end)
    assert r.returncode == 1
    assert r.stderr == b"blochdyn: error: [Errno 32] Broken pipe\n"


# ------------------------------------------------------- env and scenarios


@pytest.mark.parametrize("flags", [["--workers", "1"], ["--workers=2"]])
def test_workers_flag_is_not_an_option(capsys, flags):
    # the sweep runs inline, so the CLI takes no worker count
    with pytest.raises(SystemExit) as exc:
        main(["cavity", "--n-max", "2", "--field", "fock", "--alpha", "0", "--steps", "10",
              *flags])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"blochdyn: error: unrecognized arguments: {' '.join(flags)}\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["qsl", "--axis", "0,0,1", "--bloch", "1,0,0", "--delta", "0.1", "--omega0", "inf"],
    ["qsl", "--axis", "0,0,1", "--bloch", "1,0,0", "--delta", "0.1", "--omega0", "nan"],
    ["brach", "--r1", "0.6,0,0", "--r2", "0,0.6,0", "--omega0", "inf"],
    ["brach", "--r1", "0.6,0,0", "--r2", "0,0.6,0", "--omega0", "nan"],
    ["qsl", "--axis", "nan,0,1", "--bloch", "1,0,0", "--delta", "0.1"],
    # finite, but the QFI 4 omega0^2 s^2 would overflow
    ["qsl", "--axis", "0,0,1", "--bloch", "1,0,0", "--delta", "0.1", "--omega0", "1e200"],
    ["scan", "--theta-psi", "0.5", "--grid", "5", "--omega0", "1e200"],
], ids=["qsl-inf", "qsl-nan", "brach-inf", "brach-nan", "qsl-nan-axis", "qsl-huge", "scan-huge"])
def test_non_finite_rate_or_axis_exits_1_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("blochdyn: error:") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ["qsl", "--axis=1e200,0,1", "--bloch=1,0,0", "--delta=0.1"],
    ["qsl", "--axis=0,0,1", "--bloch=1e200,0,0", "--delta=0.1"],
    ["brach", "--r1=0.6,0,0", "--r2=1e308,1e308,0"],
], ids=["axis", "bloch", "brach"])
def test_overflowing_norm_exits_1_with_one_line(tmp_path, argv):
    # a norm that overflows is rejected; numpy's overflow warning must not
    # add lines to the diagnostic, so this runs in its own interpreter
    r = subprocess.run([sys.executable, "-m", "blochdyn.cli", *argv], capture_output=True,
                       text=True, env=module_env(), cwd=tmp_path)
    assert r.returncode == 1 and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1, r.stderr


def test_module_entry_point(tmp_path):
    env = module_env()
    run = [sys.executable, "-m", "blochdyn.cli"]
    r = subprocess.run(run + ["brach", "--r1", "0.6,0,0", "--r2", "0,0.6,0"],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0
    assert json.loads(r.stdout)["T_omega0"] == pytest.approx(np.pi / 4)
    r = subprocess.run(run, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 1
    assert r.stdout == "" and "error" in r.stderr


# ------------------------------------------------------------- end to end


def test_installed_script_end_to_end(tmp_path):
    exe = shutil.which("blochdyn")
    assert exe is not None, "console script not on PATH"
    r = subprocess.run([exe, "qsl", "--axis", "0,0,1", "--bloch", "1,0,0",
                        "--delta", "0"], capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["reachable"] is True

    argv = [exe, "cavity", "--alpha", "2", "--n-max", "40", "--t-max", "40",
            "--steps", "1500", "--delta", "0.3", "--out", "-"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert b"\r" not in first.stdout
