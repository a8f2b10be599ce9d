"""The CSV cell formatter against Python's own '%.15g'.

cli._format_cells turns a float column into a byte matrix whose rows,
with the NUL bytes dropped, must be exactly '%.15g' % v. The reference
here is Python's correctly rounded formatting itself, cell by cell.
Besides a property test over every double, crafted cases sit where a
digit-by-digit formatter goes wrong: decade edges, carries into the next
decade, the switches between fixed point and exponent form, and exact
ties at the 15th digit, which '%.15g' rounds half to even.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochdyn import cli

# derandomized: a tier-1 run checks the same examples every time
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def cells(values):
    mat = cli._format_cells(np.asarray(values, dtype=float))
    assert mat.dtype == np.uint8 and mat.shape[0] == len(values)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in mat]


def assert_matches_percent_g(values):
    values = [float(v) for v in values]
    assert cells(values) == ["%.15g" % v for v in values]


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def decade_edges():
    out = []
    for e in range(-323, 309):
        p = float(f"1e{e}")
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p]
        out += [9.999999999999995 * p, 9.999999999999994 * p, 9.9999999999999995 * p]
    return out


# %g's fixed/exponent switches sit at 1e-4 and 1e15; carries cross them
SWITCHES = [
    1e-5, 1e-4, 9.99999999999999e-5, 9.999999999999995e-5, 9.9999999999999995e-5,
    0.0001, 0.00010000000000000002, 1.234e-5, 0.0001234,
    1e14, 1e15, 99999999999999.95, 999999999999999.0, 999999999999999.4,
    999999999999999.5, 999999999999999.9, 1e15 - 0.0625, 123456789012345.6,
]

# exact ties at the 16th significant digit: each is a dyadic rational, so
# it is the double itself, and '%.15g' rounds it half to even
TIES = [
    100000000000000.5, 100000000000001.5, 123456789012345.5, 999999999999998.5,
    12345678901234.25, 12345678901234.75, 1234567890123.125, 1234567890123.375,
    0.5, 2.5, 1.125, -100000000000000.5, -12345678901234.25,
]

OTHER = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
         1.0, -1.0, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, np.pi, -np.e, 1e-13, 1e-14, 1e22, 1e23]


@pytest.mark.parametrize("values", [decade_edges(), SWITCHES, TIES, OTHER],
                         ids=["decade-edges", "g-switches", "ties", "specials"])
def test_crafted_cases_match_percent_g(values):
    assert_matches_percent_g(values)


def test_ties_round_half_to_even():
    assert cells([100000000000000.5, 100000000000001.5, 12345678901234.25]) == [
        "100000000000000", "100000000000002", "12345678901234.2"]


@SETTINGS
@given(st.lists(st.integers(0, 2 ** 64 - 1).map(from_bits), min_size=1, max_size=64))
def test_every_double_matches_percent_g(values):
    # uniform over bit patterns: every exponent, subnormals, NaN payloads, inf
    assert_matches_percent_g(values)


@SETTINGS
@given(st.lists(st.one_of(st.floats(), st.floats(-1e15, 1e15), st.floats(-2.0, 2.0),
                          st.integers(-10 ** 15, 10 ** 15).map(float)),
                min_size=1, max_size=64))
def test_program_range_matches_percent_g(values):
    # concentrated where the CLI's series live and the fast path runs
    assert_matches_percent_g(values)


@pytest.mark.parametrize("wide", [np.float64, np.float32])
def test_lower_precision_falls_back_to_the_same_bytes(monkeypatch, wide):
    # where longdouble is double (float64) the tie margin is wide and many
    # cells take '%.15g' itself; float32 sends every cell there
    rng = np.random.default_rng(5)
    values = np.concatenate([
        rng.uniform(-2.0, 2.0, 3000),
        rng.uniform(-1.0, 1.0, 3000) * 10.0 ** rng.integers(-20, 20, 3000),
        decade_edges(), SWITCHES, TIES, OTHER,
    ])
    want = cells(values)
    monkeypatch.setattr(cli, "_WIDE", wide)
    assert cells(values) == want == ["%.15g" % v for v in values.tolist()]


def test_empty_column():
    assert cli._format_cells(np.array([])).shape[0] == 0
