"""The numpy CSV formatter: every float cell is exactly '%.17g' % value."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnmlab._csv import CHUNK_ROWS, csv_chunks, format_floats


def _cells(values) -> tuple[list[str], int]:
    x = np.asarray(values, dtype=np.float64)
    cells = np.zeros((x.size, 4), "<u8")
    fallback = format_floats(x, cells)
    raw = cells.view(np.uint8)
    return [row[row != 0].tobytes().decode() for row in raw], fallback


def _expected(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def _ulps(value: float, n: int) -> list[float]:
    """value and its n nearest floats on each side."""
    out = [value]
    up = down = value
    for _ in range(n):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


_QUARTETS = ("0000", "0001", "9998", "9999")

_EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308,
    # exact ties at the 18th digit, rounded half to even by '%'
    1 + 3 / 2 ** 17, -(1 + 3 / 2 ** 17), 1 + 1 / 2 ** 17,
    # integers around 2**53, the smallest y the digits may come from
    2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
    # integer digits keep their zeros; -1e-06: floor(log10) overshoots
    -71861118649924080.0, 12345678901234560.0, -1e-06, 100.0, 2e20,
    # 3-digit exponents and the (1e-200, 1e200) fast range
    1e100, -1.5e-123, 1e-100, *_ulps(1e199, 3), *_ulps(1e-199, 3),
    *_ulps(1e200, 3), *_ulps(1e-200, 3), *_ulps(1e201, 3), *_ulps(1e-201, 3),
    # the '%g' switch points between fixed and exponent notation
    *_ulps(1e-5, 3), *_ulps(1e-4, 3), *_ulps(1e16, 3), *_ulps(1e17, 3),
]
# 17 digits whose 4-digit groups are 0000 or 9999 (or one off) at each
# split of D = lead | q0 q1 | q2 q3, around the '%g' notation switches
_GROUPS = [
    1.0000000000000002, 9.9999999999999995e-5, 123456780000000000.0,
    *_ulps(1e16, 3), *(v for lead in "19" for g0 in _QUARTETS
                       for g1 in _QUARTETS for g2 in _QUARTETS
                       for g3 in _QUARTETS for k in (-5, -4, 0, 16, 17, 100)
                       for v in _ulps(float(f"{lead}.{g0}{g1}{g2}{g3}e{k}"),
                                      1)),
]
_POWERS = [v * sign * scale
           for e in range(-198, 198, 7) for v in _ulps(float(f"1e{e}"), 3)
           for sign in (1.0, -1.0) for scale in (1.0, 0.5, 1.5, 2.5, 9.5)]


@pytest.mark.parametrize("values", [_EDGES, _POWERS], ids=["edges", "powers"])
def test_formatter_matches_percent_g_on_edges(values):
    assert _cells(values)[0] == _expected(values)


def test_formatter_splits_digit_groups_of_zeros_and_nines():
    cells, fallback = _cells(_GROUPS)
    assert cells == _expected(_GROUPS)
    # the fast path, not Python's '%', wrote nearly all of them
    assert fallback <= len(_GROUPS) // 100


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_formatter_matches_percent_g_on_floats(values):
    assert _cells(values)[0] == _expected(values)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_formatter_matches_percent_g_on_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _cells(values)[0] == _expected(values)


def test_ordinary_values_take_the_fast_path():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(5000) * 10.0 ** rng.integers(-30, 12, 5000)
    cells, fallback = _cells(values)
    assert cells == _expected(values)
    # about 2 in 1e5 such values lie within 1e-6 of a rounding tie
    assert fallback <= 5


def test_chunks_join_into_the_per_row_lines():
    rows = CHUNK_ROWS + 3
    ints = np.arange(-5, rows - 5)
    floats = np.linspace(-3.0, 7.0, rows) ** 3
    floats[::1000] = np.resize([math.nan, 0.0, math.inf, -0.0],
                               floats[::1000].size)
    words = ["true" if i % 3 else "false" for i in range(rows)]
    chunks = list(csv_chunks([ints, floats, words]))
    assert len(chunks) == 2
    expected = "".join("%d,%.17g,%s\n" % row
                       for row in zip(ints.tolist(), floats.tolist(), words))
    assert b"".join(data for data, _ in chunks) == expected.encode()
    specials = np.count_nonzero(~np.isfinite(floats) | (floats == 0.0))
    assert sum(fallback for _, fallback in chunks) >= specials


def test_a_complex_column_prints_re_im_and_python_abs():
    rows = CHUNK_ROWS + 5
    rng = np.random.default_rng(3)
    z = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    # np.abs differs from Python's complex abs in the last digit on about
    # a third of these rows, in both chunks
    differs = np.abs(z) != np.array([abs(v) for v in z.tolist()])
    assert differs[:CHUNK_ROWS].any() and differs[CHUNK_ROWS:].any()
    x = np.linspace(0.0, 1.0, rows)
    chunks = list(csv_chunks([x, z]))
    assert len(chunks) == 2
    expected = "".join(
        "%.17g,%.17g,%.17g,%.17g\n" % (s, v.real, v.imag, abs(v))
        for s, v in zip(x.tolist(), z.tolist()))
    assert b"".join(data for data, _ in chunks) == expected.encode()


@pytest.mark.parametrize("values", [
    [0], [9], [10], [9999], [10000], [-1], [2 ** 62], [0, 9, 10, 9999],
    [0, 9, 10, 9999, 10000, -1, 2 ** 62]])
def test_integer_cells_are_percent_d(values):
    # small, large and negative integers, alone and in one chunk
    column = np.array(values, dtype=np.int64)
    text = b"".join(chunk for chunk, _ in csv_chunks([column, column * 0.5]))
    assert text.decode() == "".join("%d,%.17g\n" % (v, v * 0.5)
                                    for v in values)
