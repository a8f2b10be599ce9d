"""CLI outputs pinned against files captured before the speed-limit,
Kraus and special-function code was folded to one formula per quantity.

Each case in data/golden/cases.json runs through cli.main in a fresh
directory. Cases marked "exact" must reproduce stdout, stderr, the exit
status and every written file byte for byte. The coherent, cat and e0
cavity runs depend on the photon-number distribution, whose last digits
moved when scipy's gammaln/gammainc gave way to the stdlib; their CSVs
are pinned to 1e-14 absolute per value and their summary JSON key for
key (numbers to 1e-14, everything else exactly).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from blochdyn.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
EXITS = json.loads((GOLDEN / "exits.json").read_text())
ATOL = 1e-14


def _close_json(got, want, where="summary"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _close_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= ATOL, (where, got, want)
    else:
        assert got == want and type(got) is type(want), (where, got, want)


def _close_csv(got: str, want: str, where: str):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0], where
    assert len(got_lines) == len(want_lines), where
    a = np.array([[float(v) for v in ln.split(",")] for ln in got_lines[1:]])
    b = np.array([[float(v) for v in ln.split(",")] for ln in want_lines[1:]])
    assert np.abs(a - b).max(initial=0.0) <= ATOL, where


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "scenario" in case:
        (tmp_path / "scenario.json").write_text(json.dumps(case["scenario"]))
    code = main(case["argv"])
    out, err = capsys.readouterr()
    name = case["name"]
    assert code == EXITS[name]

    want_out = (GOLDEN / f"{name}.stdout").read_text()
    want_err = (GOLDEN / f"{name}.stderr").read_text()
    if case["exact"]:
        assert out == want_out
        assert err == want_err
        for f in case["files"]:
            assert (tmp_path / f).read_bytes() == (GOLDEN / f"{name}.{f}").read_bytes(), f
        return
    # summary on stdout, series in the listed CSV files
    assert err == want_err
    _close_json(json.loads(out), json.loads(want_out))
    for f in case["files"]:
        _close_csv((tmp_path / f).read_text(), (GOLDEN / f"{name}.{f}").read_text(), f)
