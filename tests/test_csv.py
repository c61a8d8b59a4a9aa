"""Array formatting of float tables: the bytes of ``"%.17g" %`` on every value."""

from fractions import Fraction

import numpy as np
import pytest

from plasticwalk import _csv


def expected(table: np.ndarray) -> str:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def test_random_bit_patterns_match_python():
    rng = np.random.default_rng(20)
    values = rng.integers(0, 2**64, size=2**20, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    table = values[: values.size // 8 * 8].reshape(-1, 8)
    assert table.size >= 10**6
    assert _csv.rows(table) == expected(table)


def test_random_magnitudes_in_fixed_notation_match_python():
    # bit patterns rarely land in -4 <= exponent < 17, where %g prints fixed notation
    rng = np.random.default_rng(21)
    values = rng.choice([-1.0, 1.0], size=300_000) * 10.0 ** rng.uniform(-6.0, 18.0, size=300_000)
    values[::7] = np.round(values[::7], 3)  # short decimals, so trailing zeros are dropped
    table = values.reshape(-1, 6)
    assert _csv.rows(table) == expected(table)


def _edges() -> list[float]:
    tiny, big = np.nextafter(0.0, 1.0), np.finfo(np.float64).max
    out = [0.0, -0.0, tiny, -tiny, big, -big, np.finfo(np.float64).tiny, 9.9999999999999995e-5, 1e16, 1e17]
    for k in range(-323, 309):  # exact for k in 0..22; elsewhere the double nearest 10^k
        p = float(f"1e{k}")
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    out += [2.0**53, 2.0**53 + 2, 2.0**60, 12345678901234567.0, 99999999999999990.0, 1e22, 1e23]
    # exact decimal ties at the 18th significant digit: n + 1/4 and n + 3/4 with 16 integer digits
    out += [1234567890123456.25, 1234567890123456.75, 1999999999999999.75, 1125899906842624.25]
    out += [0.5, 0.25, 0.125, 5e-324 * 3, 1.5, 2.5, 123.456, 1e-4, 1e-5, 0.1, 0.2, 0.3]
    return out


def test_edge_values_match_python():
    values = np.array(_edges())
    table = np.stack([values, -values], axis=1)
    assert _csv.rows(table) == expected(table)


def test_non_finite_values_match_python():
    table = np.array([[np.nan, np.inf, -np.inf, 1.0], [-np.nan, 0.0, -0.0, -1.0]])
    assert _csv.rows(table) == expected(table) == "nan,inf,-inf,1\nnan,0,-0,-1\n"


def test_every_value_takes_python_where_long_double_is_short(monkeypatch):
    def array_path(*args):
        raise AssertionError("the array path ran without a 64-bit long double")

    monkeypatch.setattr(_csv, "_exact", lambda: False)
    monkeypatch.setattr(_csv, "_fast", array_path)
    rng = np.random.default_rng(22)
    values = np.concatenate((_edges(), rng.normal(size=600) * 10.0 ** rng.integers(-30, 30, size=600)))
    table = values[: values.size // 3 * 3].reshape(-1, 3)
    assert _csv.rows(table) == expected(table)


def test_leading_columns_are_formatted_once_and_joined_first():
    rng = np.random.default_rng(23)
    head = np.arange(2 * _csv.BLOCK_ROWS + 5) * 0.03125
    body = rng.normal(size=(head.size, 3))
    text = _csv.rows(body, head=_csv.records(head[:, None]))
    assert text == expected(np.column_stack((head, body)))
    assert _csv.rows(np.empty((0, 3))) == ""


@pytest.mark.skipif(not _csv._exact(), reason="long double has no 64-bit significand here")
def test_power_table_is_correctly_rounded():
    powers = _csv._powers()
    for e, p in zip(range(_csv._POW_LO, _csv._POW_HI + 1), powers):
        exact = Fraction(10) ** e
        _, exp = np.frexp(p)
        half_ulp = Fraction(2) ** (int(exp) - 65)  # 64-bit significand
        assert abs(Fraction(*p.as_integer_ratio()) - exact) <= half_ulp, e


@pytest.mark.skipif(not _csv._exact(), reason="long double has no 64-bit significand here")
@pytest.mark.parametrize("kind", ["amplitudes", "next_to_powers_of_ten"])
def test_most_values_take_the_array_path(monkeypatch, kind):
    # next to a power of ten log10 misjudges the exponent; one correction recovers it
    rng = np.random.default_rng(24)
    if kind == "amplitudes":
        values = rng.normal(size=4096) * 10.0 ** rng.integers(-8, 2, size=4096)
    else:
        powers = 10.0 ** np.arange(-300, 300)
        values = np.concatenate([np.nextafter(powers, 0.0), np.nextafter(np.nextafter(powers, 0.0), 0.0)])
    _csv._layout()  # builds its tables through _bytes once
    calls = []
    original = _csv._bytes

    def counting(texts, width):
        calls.append(len(texts))
        return original(texts, width)

    monkeypatch.setattr(_csv, "_bytes", counting)
    _csv.records(values)
    assert sum(calls) <= 0.05 * values.size
