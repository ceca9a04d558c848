"""The array-to-text kernel writes exactly what Python's %-format writes.

Float cells must match '%.17g' % x byte for byte, and integer-valued ones
(OBJ face indices) '%d' % i.  Any other column is rejected.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatribbon import textio
from flatribbon.config import MESH_MAX
from flatribbon.textio import lines

EDGES = [
    0.0,
    -0.0,
    5e-324,
    1e-300,
    9.9999999999999995e-05,
    1e-4,
    1e-5,
    2.0**53,
    2.0**53 + 2,
    9999999999999998.0,
    1e16,
    99999999999999999.0,
    1e17,
    10.0,
    1e15,
    np.inf,
    np.nan,
]


def spelled(values):
    """The float column as lines() writes it, one value per line."""
    return lines([np.asarray(values, dtype=np.float64)], ("", "\n")).decode().split("\n")[:-1]


def expected(values):
    return ["%.17g" % x for x in np.asarray(values, dtype=np.float64).tolist()]


def test_random_bit_patterns_match_percent_17g():
    bits = np.random.default_rng(20240617).integers(0, 2**64, size=120_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert spelled(values) == expected(values)


def test_edge_values_match_percent_17g():
    values = EDGES + [-x for x in EDGES]
    # the neighbours of each power of ten: the exponent estimate and the fixed-point limits turn there
    powers = 10.0 ** np.arange(-8, 20)
    values += list(powers) + list(np.nextafter(powers, 0.0)) + list(np.nextafter(powers, np.inf))
    assert spelled(values) == expected(values)
    assert spelled(EDGES) == expected(EDGES)  # 17 cells
    assert spelled(EDGES[:1]) == expected(EDGES[:1])  # one cell
    # a last block of one row goes through the array steps too
    tail = np.resize(values, textio.BLOCK_CELLS + 1)
    assert spelled(tail) == expected(tail)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=50))
def test_hypothesis_floats_match_percent_17g(values):
    assert spelled(values) == expected(values)


def test_integer_valued_floats_match_percent_d():
    # every face index a mesh within MESH_MAX can hold, and integers out to +-2^53, as float cells
    edges = np.array([0, 1, -1, 9, 10, 9999, 10_000, -10_000, 2**31, 2**52 + 1, 2**53 - 1, 2**53, -(2**53)])
    for ints in (
        np.arange(MESH_MAX + 1),
        np.resize(edges, textio.BLOCK_CELLS + 1),  # a last block of one cell
        edges,
    ):
        got = lines([ints.astype(np.float64)], ("", "\n")).decode().split("\n")[:-1]
        assert got == ["%d" % i for i in ints.tolist()]


def test_integer_column_is_rejected():
    # int64 above 2^53 has no float64 of the same value: lines raises rather than round it
    for ints in (np.arange(3), np.arange(128, dtype=np.uint32), np.array([2**53 + 1] * 100)):
        with pytest.raises(ValueError, match="float columns"):
            lines([ints], ("", "\n"))
        with pytest.raises(ValueError, match="float columns"):
            lines([ints.astype(np.float64), ints], ("", ",", "\n"))
    # nor bool, complex, a str list or a str array: text columns are write_csv's
    for other in (np.ones(3, bool), np.ones(3, complex), ["a", "b", "c"], np.array(["a", "b", "c"])):
        with pytest.raises(ValueError, match="float columns"):
            lines([other], ("", "\n"))
        with pytest.raises(ValueError, match="float columns"):
            lines([np.zeros(3), other], ("", ",", "\n"))


def test_mixed_columns_and_separators():
    x = np.linspace(-2.0, 3.0, 150)
    i = np.arange(150.0) - 70
    # three float columns, one of them integer-valued, 450 cells
    numeric = lines([x, i, x * 1e-9], ("<", ",", "|", ">\n"))
    want = "".join("<%.17g,%d|%.17g>\n" % row for row in zip(x.tolist(), i.tolist(), (x * 1e-9).tolist()))
    assert numeric == want.encode()
    # a % in a separator stays literal, in a large table and in a small one
    got = lines([x, i, x * 1e-9], ("%", ",", "|%;", "%%\n"))
    want = "".join("%%%.17g,%d|%%;%.17g%%%%\n" % row for row in zip(x.tolist(), i.tolist(), (x * 1e-9).tolist()))
    assert got == want.encode()
    small = lines([np.array([1.5, -0.0]), np.array([2.0, -3.0])], ("%", ";", "%%\n"))
    assert small == b"%1.5;2%%\n%-0;-3%%\n"


def test_the_array_path_spells_most_cells(monkeypatch):
    calls = []
    fallback = textio._python
    monkeypatch.setattr(textio, "_python", lambda v, *a: calls.append(len(v)) or fallback(v, *a))
    values = np.random.default_rng(3).standard_normal(10_000) * 10.0 ** np.random.default_rng(4).integers(-30, 30, 10_000)
    assert spelled(values) == expected(values)
    assert sum(calls) <= 10  # only near-ties and estimated exponents off by one go to Python


def test_nul_in_separator_is_rejected():
    with pytest.raises(ValueError, match="NUL"):
        lines([np.zeros(3)], ("\0", "\n"))
